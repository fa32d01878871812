"""Reduced cost, conjugate-gradient ("Wirtinger") form of the reduced
gradient, finite-difference checks and limited-memory BFGS (20 pairs).

For the real-valued reduced cost j the directional derivative along a
control direction xi with real steps is

    d j(z; xi) = 2 Re(conj(xi)^T G),

and G (the conjugate Wirtinger derivative) is assembled from one adjoint
solve plus surface-matrix products: G = (T + alpha K z + beta M z) / 2
with T the adjoint pairing against each basis function. The optimizer
runs on z itself with the real inner product Re(a^H b), under which the
gradient of j is 2G. The state map is complex linear, so j is a quadratic
and its line search interpolates a parabola.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .nedelec import assemble_curl_mass, assemble_load, integrate, _vector_field_at
from .solver import StateOperator
from .trace import SurfaceOperators

LBFGS_PAIRS = 20  # stored (s, y) pairs of the limited-memory BFGS
MAX_TRIES = 25  # line-search evaluations before the optimizer gives up
SUFFICIENT_DECREASE = 1e-4  # Armijo constant of the line search


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
        """(CostReport, G) at z, with G the complex conjugate derivative."""
        self.n_evaluations += 1
        z = np.asarray(z, dtype=complex)
        u = self.op.solve_state(z)
        report = self._parts(z, u)
        rho = self.M_c @ u - self.d
        T = self.op.adjoint_pairing(self.op.solve_adjoint(rho), rho)
        G = (0.5 * T + 0.5 * self.config.alpha * (self.surf.K @ z)
             + 0.5 * self.config.beta * (self.surf.M @ z))
        report.grad_norm = float(np.linalg.norm(G))
        return report, G


def directional_derivative(G, xi):
    """d j(z; xi) = 2 Re(conj(xi)^T G)."""
    return 2.0 * np.vdot(xi, G).real


def _as_value_grad(fun):
    def wrapped(z):
        f, G = fun(z)
        G = np.asarray(G, dtype=complex)
        if isinstance(f, CostReport):
            return f.J, G, f
        return float(f), G, None
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


def _two_loop(pairs, g):
    """Inverse-Hessian approximation times g from the stored (s, y, 1/s.y)
    pairs (Nocedal 1980), with H0 = (s.y / y.y) I from the newest pair;
    a.b is the real inner product Re(a^H b)."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * np.vdot(s, q).real)
        q -= alphas[-1] * y
    if pairs:
        _, y, rho = pairs[-1]
        q /= rho * np.vdot(y, y).real
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * np.vdot(y, q).real) * s
    return q


def bfgs_minimize(fun, z0, tol=1e-9, max_iter=500):
    """Minimize a real cost of complex z by limited-memory BFGS (20 pairs).

    fun(z) -> (cost, G) where cost is a float or a CostReport and G the
    complex conjugate derivative. Iterates on z with the real inner
    product Re(a^H b), under which the gradient is 2G. The line search
    tries the unit step, then backtracks to the minimizer of the parabola
    through f(0), f'(0) and the last rejected try, clamped to [0.1, 0.5]
    of that try (Nocedal & Wright 2006, sec. 3.5); on a quadratic cost the
    second try is the exact minimizer along the line. Terminates when
    ||G|| drops to tol, or early when MAX_TRIES steps bring no sufficient
    decrease (a wrong gradient), leaving ||G|| > tol in the last history
    entry. Returns (z, history of CostReports).
    """
    vg = _as_value_grad(fun)
    z = np.asarray(z0, dtype=complex)
    f, G, rep = vg(z)
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
        g = 2.0 * G
        p = -_two_loop(pairs, g)
        dphi0 = np.vdot(g, p).real
        if dphi0 >= 0.0:
            # fall back to steepest descent when the model direction fails
            pairs.clear()
            p = -g
            dphi0 = np.vdot(g, p).real
        a = 1.0
        for _ in range(MAX_TRIES):
            z_new = z + a * p
            f_new, G_new, rep_new = vg(z_new)
            if f_new < f and f_new <= f + SUFFICIENT_DECREASE * a * dphi0:
                break
            a_min = -dphi0 * a * a / (2.0 * (f_new - f - a * dphi0))
            a = min(0.5 * a, max(0.1 * a, a_min))
        else:
            break
        s, y = z_new - z, 2.0 * (G_new - G)
        sy = np.vdot(s, y).real
        if sy > 1e-14 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y, 1.0 / sy))
        z, f, G, rep = z_new, f_new, G_new, rep_new
        record(it, a)
    return z, history
