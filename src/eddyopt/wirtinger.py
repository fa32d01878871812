"""Reduced cost, conjugate-gradient ("Wirtinger") form of the reduced
gradient, finite-difference checks and limited-memory BFGS (20 pairs).

For the real-valued reduced cost j the directional derivative along a
control direction xi with real steps is

    d j(z; xi) = 2 Re(conj(xi)^T G),

and G (the conjugate Wirtinger derivative) is assembled from one adjoint
solve plus surface-matrix products: G = (T + alpha K z + beta M z) / 2
with T the adjoint pairing against each basis function. The direction of
steepest descent is -G. The optimizer runs on the stacked real
parametrization (Re z, Im z), whose gradient is (2 Re G, 2 Im G).
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .nedelec import assemble_curl_mass, assemble_load, integrate, _vector_field_at
from .solver import StateOperator
from .trace import SurfaceOperators

LBFGS_PAIRS = 20  # stored (s, y) pairs of the limited-memory BFGS


@dataclass
class CostReport:
    """Cost value and its parts: J = J1 + J2 + J3 with J1 the tracking
    misfit, J2 the surface-curl penalty, J3 the surface mass penalty."""

    J: float
    J1: float
    J2: float
    J3: float
    iteration: int = None
    grad_norm: float = None
    step: float = None


@dataclass
class ReducedGradient:
    """Conjugate Wirtinger derivative G and its three components
    (G = tracking + curl_part + mass_part)."""

    G: np.ndarray
    tracking: np.ndarray
    curl_part: np.ndarray
    mass_part: np.ndarray


class ReducedProblem:
    """Bundles everything needed to evaluate j(z) and its gradient.

    One factorization is shared by all cost/gradient evaluations; each
    evaluation costs one state solve, plus one adjoint solve when the
    gradient is requested.
    """

    def __init__(self, mesh, space, config):
        self.mesh = mesh
        self.config = config
        self.op = StateOperator(mesh, space, config)
        self.surf = SurfaceOperators.build(mesh)
        # The state's rule integrates Phi . Phi (degree 2k + 2) exactly; u_d
        # is not a polynomial, so d and c_d take two degrees more.
        q = config.quad_order or 2 * space.k + 2
        _, self.M_c = assemble_curl_mass(mesh, space, 1.0, 1.0, q)
        self.d = assemble_load(mesh, space, config.u_d, q + 2)

        def u_d_squared(p):  # |u_d|^2, zero where u_d is None
            v = _vector_field_at(config.u_d, p)
            return np.einsum("...d,...d->...", v, v.conj()).real
        self.c_d = float(integrate(mesh, u_d_squared, q + 2))
        self.n_evaluations = 0

    @property
    def n_controls(self):
        return self.mesh.n_boundary_edges

    def _parts(self, z, u):
        J1 = 0.5 * (np.vdot(u, self.M_c @ u).real
                    - 2.0 * np.vdot(self.d, u).real + self.c_d)
        J2 = 0.5 * self.config.alpha * np.vdot(z, self.surf.K @ z).real
        J3 = 0.5 * self.config.beta * np.vdot(z, self.surf.M @ z).real
        return CostReport(J=J1 + J2 + J3, J1=J1, J2=J2, J3=J3)

    def cost(self, z):
        self.n_evaluations += 1
        return self._parts(z, self.op.solve_state(z))

    def cost_and_gradient(self, z):
        self.n_evaluations += 1
        z = np.asarray(z, dtype=complex)
        u = self.op.solve_state(z)
        report = self._parts(z, u)
        rho = self.M_c @ u - self.d
        T = self.op.adjoint_pairing(self.op.solve_adjoint(rho), rho)
        curl_part = 0.5 * self.config.alpha * (self.surf.K @ z)
        mass_part = 0.5 * self.config.beta * (self.surf.M @ z)
        grad = ReducedGradient(
            G=0.5 * T + curl_part + mass_part,
            tracking=0.5 * T, curl_part=curl_part, mass_part=mass_part)
        report.grad_norm = float(np.linalg.norm(grad.G))
        return report, grad


def steepest_descent_direction(G):
    """Direction of steepest descent for real step sizes: -G."""
    if isinstance(G, ReducedGradient):
        G = G.G
    return -np.asarray(G, dtype=complex)


def directional_derivative(G, xi):
    """d j(z; xi) = 2 Re(conj(xi)^T G)."""
    if isinstance(G, ReducedGradient):
        G = G.G
    return 2.0 * np.vdot(xi, G).real


def _as_value_grad(fun):
    def wrapped(z):
        out = fun(z)
        f, G = out
        if isinstance(f, CostReport):
            return f.J, np.asarray(G.G if isinstance(G, ReducedGradient)
                                   else G, dtype=complex), f
        return float(f), np.asarray(G, dtype=complex), None
    return wrapped


def fd_check(fun, z, xi, t_list=None, cost_fn=None):
    """Forward-difference consistency table for the derivative at z.

    fun(z) -> (cost, gradient); returns rows (t, |d - quotient|) with
    d = 2 Re(conj(xi)^T G). Perturbed points only need cost values, so a
    cheaper cost_fn(z) -> float may be supplied for them.
    """
    vg = _as_value_grad(fun)
    if t_list is None:
        t_list = np.logspace(-1, -9, 17)
    z = np.asarray(z, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    f0, G, _ = vg(z)
    d = 2.0 * np.vdot(xi, G).real
    if cost_fn is None:
        def cost_fn(zz):
            return vg(zz)[0]
    rows = []
    for t in t_list:
        ft = cost_fn(z + t * xi)
        if isinstance(ft, CostReport):
            ft = ft.J
        rows.append((float(t), abs(d - (ft - f0) / t)))
    return rows


def loglog_slope(x, y):
    """Least-squares slope of log y against log x."""
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    return float(np.polyfit(lx, ly, 1)[0])


def _strong_wolfe(phi, f0, df0, c1, c2, a_first=1.0, max_evals=25):
    """Strong Wolfe line search; phi(a) -> (f, df). Returns accepted a."""

    def zoom(a_lo, f_lo, df_lo, a_hi, f_hi):
        for _ in range(max_evals):
            # quadratic interpolation with bisection fallback
            denom = f_hi - f_lo - df_lo * (a_hi - a_lo)
            if abs(denom) > 1e-30:
                a = a_lo - 0.5 * df_lo * (a_hi - a_lo) ** 2 / denom
            else:
                a = 0.5 * (a_lo + a_hi)
            lo, hi = min(a_lo, a_hi), max(a_lo, a_hi)
            if not (lo + 0.1 * (hi - lo) <= a <= hi - 0.1 * (hi - lo)):
                a = 0.5 * (a_lo + a_hi)
            f, df = phi(a)
            if f > f0 + c1 * a * df0 or f >= f_lo:
                a_hi, f_hi = a, f
            else:
                if abs(df) <= -c2 * df0:
                    return a
                if df * (a_hi - a_lo) >= 0:
                    a_hi, f_hi = a_lo, f_lo
                a_lo, f_lo, df_lo = a, f, df
            if abs(a_hi - a_lo) < 1e-16 * max(1.0, abs(a_lo)):
                return a_lo
        return a_lo

    a_prev, f_prev, df_prev = 0.0, f0, df0
    a = a_first
    for i in range(max_evals):
        f, df = phi(a)
        if f > f0 + c1 * a * df0 or (i > 0 and f >= f_prev):
            return zoom(a_prev, f_prev, df_prev, a, f)
        if abs(df) <= -c2 * df0:
            return a
        if df >= 0:
            return zoom(a, f, df, a_prev, f_prev)
        a_prev, f_prev, df_prev = a, f, df
        a *= 2.0
    return a_prev  # the last evaluated step, not the untried doubling


def _two_loop(pairs, g):
    """Inverse-Hessian approximation times g from the stored (s, y, 1/s.y)
    pairs (Nocedal 1980), with H0 = (s.y / y.y) I from the newest pair."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * float(s @ q))
        q -= alphas[-1] * y
    if pairs:
        _, y, rho = pairs[-1]
        q /= rho * float(y @ y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(y @ q)) * s
    return q


def bfgs_minimize(fun, z0, tol=1e-9, max_iter=500, c1=1e-4, c2=0.9):
    """Minimize a real cost of complex z by limited-memory BFGS (20 pairs).

    fun(z) -> (cost, gradient) where cost may be a CostReport and gradient
    a ReducedGradient or plain complex array. Iterates on the stacked real
    coordinates (Re z, Im z); terminates when the complex gradient norm
    ||G|| drops to tol. Returns (z, history of CostReports).
    """
    vg = _as_value_grad(fun)
    z0 = np.asarray(z0, dtype=complex)
    n = z0.size

    def pack(z):
        return np.concatenate([z.real, z.imag])

    def unpack(x):
        return x[:n] + 1j * x[n:]

    cache = {}

    def eval_at(x):
        key = x.tobytes()
        if key not in cache:
            f, G, rep = vg(unpack(x))
            g = np.concatenate([2.0 * G.real, 2.0 * G.imag])
            cache.clear()
            cache[key] = (f, g, G, rep)
        return cache[key]

    x = pack(z0)
    f, g, G, rep = eval_at(x)
    history = []

    def record(i, step):
        r = rep if rep is not None else CostReport(
            J=f, J1=f, J2=0.0, J3=0.0)
        r.iteration = i
        r.grad_norm = float(np.linalg.norm(G))
        r.step = step
        history.append(r)

    record(0, None)
    pairs = deque(maxlen=LBFGS_PAIRS)  # (s, y, 1 / s.y), oldest first
    for it in range(1, max_iter + 1):
        if np.linalg.norm(G) <= tol:
            break
        p = -_two_loop(pairs, g)
        dphi0 = float(g @ p)
        if dphi0 >= 0.0:
            # fall back to steepest descent when the model direction fails
            pairs.clear()
            p = -g
            dphi0 = float(g @ p)

        def phi(a):
            fa, ga, _, _ = eval_at(x + a * p)
            return fa, float(ga @ p)

        a = _strong_wolfe(phi, f, dphi0, c1, c2)
        x_new = x + a * p
        f_new, g_new, G_new, rep_new = eval_at(x_new)
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 1e-14 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y, 1.0 / sy))
        x, f, g, G, rep = x_new, f_new, g_new, G_new, rep_new
        record(it, a)
    return unpack(x), history
