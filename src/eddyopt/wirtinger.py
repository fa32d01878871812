"""Reduced cost, conjugate-derivative (Wirtinger) form of the reduced
gradient, finite-difference checks and Riesz-preconditioned
limited-memory BFGS (20 pairs).

For the real-valued reduced cost j the directional derivative along a
control direction xi with real steps is

    d j(z; xi) = 2 Re(conj(xi)^T G),

and G (the conjugate Wirtinger derivative) is assembled from one adjoint
solve plus surface-matrix products: G = (T + alpha K z + beta M z) / 2
with T the adjoint pairing against each basis function. The optimizer
runs on z itself with the real inner product Re(a^H b), under which the
gradient of j is 2G. The state map is complex linear, so j is a quadratic:
along a search line it is the parabola through j(0), j'(0) and j(1), and
the line search takes the unit step or that parabola's minimizer.

The controls are regularized by the surface curl, so the gradient's
natural representative is its Riesz representative P^-1 G under the real
surface matrix P = alpha K + (beta + RIESZ_MASS) M, factored once per
problem. Each report carries the map v -> P^-1 v, and L-BFGS takes P^-1
as its initial inverse Hessian, which keeps its evaluation count nearly
level under refinement (Schwedes, Ham, Funke & Piggott 2017), though not
constant: from z = 0 at order 0, alpha = 1e-3, beta = 0, levels L0-L3 of
the [1, 8, 2] cylinder take 20 / 24 / 24 / 27 evaluations against
24 / 31 / 69 / 159 in the Euclidean metric, and the benchmark's random
starts on L2 (optimize-o0, seeds 1-10) take 26-29.
"""

import numbers
from collections import deque
from dataclasses import dataclass
from itertools import count

import numpy as np
from scipy.sparse.linalg import splu

from .nedelec import _load, _mass_matrix
from .solver import StateOperator
from .trace import surface_curl_matrix, surface_mass_matrix

LBFGS_PAIRS = 20  # stored (s, y) pairs of the limited-memory BFGS
# Mass shift of the Riesz map P = alpha K + (beta + RIESZ_MASS) M. At the
# bench's seed-1 start, 0.01 / 0.1 / 1 take 48 / 27 / 51 evaluations on
# optimize-o0 and 50 / 24 / 42 on optimize-o1.
RIESZ_MASS = 0.1
TOL, MAX_ITER = 1e-9, 500  # default stopping rule of bfgs_minimize


@dataclass
class CostReport:
    """Cost value and its parts: J = J1 + J2 + J3 with J1 the tracking
    misfit, J2 the surface-curl penalty, J3 the surface mass penalty.
    riesz is the Riesz map v -> P^-1 v of the control space, or None for
    the Euclidean one (P = I)."""

    J: float
    J1: float
    J2: float
    J3: float
    iteration: int = None
    grad_norm: float = None
    step: float = None
    riesz: object = None


class ReducedProblem:
    """Bundles everything needed to evaluate j(z) and its gradient.

    One factorization is shared by all cost/gradient evaluations; each
    evaluation costs one state solve, plus one adjoint solve when the
    gradient is requested. The Riesz map P of the controls is a surface
    matrix with its own small factor; `riesz` solves with it, and that
    solve is not a volume solve.

    The tracking data (K, M, M_c, d, c_d) and the factor of P do not need
    A_II's factor, so `StateOperator`'s worker thread builds them while
    A_II is factored.
    """

    def __init__(self, mesh, space, config):
        self.config = config

        def tracking_data():
            # surface-curl and surface mass Gram matrices of the controls
            self.K = surface_curl_matrix(space.mesh)
            self.M = surface_mass_matrix(space.mesh)
            q = config.quad_degree(space.k)
            self.M_c = _mass_matrix(space, q)
            self.d, self.c_d = _load(space, config.u_d, q + 2)
            # P is symmetric positive definite: diagonal pivots are safe
            self.riesz_lu = splu((config.alpha * self.K + (
                config.beta + RIESZ_MASS) * self.M).tocsc(),
                permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})
        self.op = StateOperator(mesh, space, config, alongside=tracking_data)
        self.n_evaluations = 0

    def _evaluate(self, z):
        """CostReport at z, and the products M_c u, K z and M z of the
        state u that the gradient reuses, each formed once."""
        self.n_evaluations += 1
        u = self.op.solve_state(z)
        Mu, Kz, Mz = self.M_c @ u, self.K @ z, self.M @ z
        J1 = 0.5 * (np.vdot(u, Mu).real - 2.0 * np.vdot(self.d, u).real
                    + self.c_d)
        J2 = 0.5 * self.config.alpha * np.vdot(z, Kz).real
        J3 = 0.5 * self.config.beta * np.vdot(z, Mz).real
        return CostReport(J=J1 + J2 + J3, J1=J1, J2=J2, J3=J3), Mu, Kz, Mz

    def riesz(self, v):
        """P^-1 v for a complex v, as one two-column real solve."""
        x = self.riesz_lu.solve(np.column_stack([v.real, v.imag]))
        return x[:, 0] + 1j * x[:, 1]

    def cost(self, z):
        return self._evaluate(z)[0]

    def cost_and_gradient(self, z):
        """(CostReport, G) at z, with G the complex conjugate derivative
        and the report carrying the Riesz map `riesz`."""
        z = np.asarray(z, dtype=complex)
        report, Mu, Kz, Mz = self._evaluate(z)
        rho = Mu - self.d
        T = self.op.adjoint_pairing(self.op.solve_adjoint(rho), rho)
        G = (0.5 * T + 0.5 * self.config.alpha * Kz
             + 0.5 * self.config.beta * Mz)
        report.grad_norm = float(np.linalg.norm(G))
        report.riesz = self.riesz
        return report, G


def directional_derivative(G, xi):
    """d j(z; xi) = 2 Re(conj(xi)^T G)."""
    return 2.0 * np.vdot(xi, G).real


def _as_value_grad(fun):
    """fun as z -> (CostReport, G); a float cost becomes a report of J
    alone, with no Riesz map."""
    def wrapped(z):
        f, G = fun(z)
        if not isinstance(f, CostReport):
            f = CostReport(J=float(f), J1=float(f), J2=0.0, J3=0.0)
        return f, np.asarray(G, dtype=complex)
    return wrapped


def fd_check(fun, z, xi, t_list, cost_fn=None):
    """Forward-difference consistency table for the derivative at z.

    fun(z) -> (cost, gradient); returns rows (t, |d - quotient|) for t in
    t_list, d = 2 Re(conj(xi)^T G). Perturbed points only need cost values,
    so a cheaper cost_fn(z) -> float may be supplied for them.
    """
    vg = _as_value_grad(fun)
    z = np.asarray(z, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    report, G = vg(z)
    f0, d = report.J, directional_derivative(G, xi)
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


def _two_loop(pairs, g, P_inv):
    """Inverse-Hessian approximation times g from the stored (s, y, 1/s.y)
    pairs (Nocedal 1980), with H0 = gamma P^-1 and gamma = s.y / y.P^-1 y
    from the newest pair; a.b is the real inner product Re(a^H b)."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * np.vdot(s, q).real)
        q -= alphas[-1] * y
    r = P_inv(q)
    if pairs:
        _, y, rho = pairs[-1]
        r /= rho * np.vdot(y, P_inv(y)).real
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        r += (a - rho * np.vdot(y, r).real) * s
    return r


def check_stopping(tol, max_iter):
    """The one rule for bfgs_minimize's settings: ValueError unless tol is
    finite and positive and max_iter an integer >= 0."""
    if not (0.0 < tol < np.inf and isinstance(max_iter, numbers.Integral)
            and not isinstance(max_iter, bool) and max_iter >= 0):
        raise ValueError("need a finite tol > 0 and an integer max_iter >= 0, "
                         f"got tol={tol!r}, max_iter={max_iter!r}")


def bfgs_minimize(fun, z0, tol=TOL, max_iter=MAX_ITER):
    """Minimize a real cost of complex z by limited-memory BFGS (20 pairs)
    preconditioned by the Riesz map P of the controls.

    fun(z) -> (cost, G) where cost is a float or a CostReport and G the
    complex conjugate derivative. Iterates on z with the real inner
    product Re(a^H b), under which the gradient is 2G. The first report's
    Riesz map v -> P^-1 v (`ReducedProblem` sets one) is read once: the
    initial inverse Hessian is gamma P^-1, and the first step and the
    steepest-descent fallback go along -P^-1 (2G). A plain float cost, or
    a report without a map, is the case P = I. The cost must be quadratic,
    as `ReducedProblem`'s is: then phi(a) = f(z + a p) is the parabola
    through phi(0), phi'(0) < 0 and phi(1). Each iteration takes the unit
    step if it decreases f, else phi's minimizer a* = -phi'(0) / (2 (phi(1)
    - phi(0) - phi'(0))) in (0, 1/2], so it evaluates at most twice. Stops
    when ||G|| <= tol, or when a* brings no decrease either (a wrong
    gradient), leaving ||G|| > tol in the last history entry. tol must be
    finite and positive and max_iter an integer >= 0 (`check_stopping`,
    before the first evaluation): ValueError otherwise. Returns (z,
    history of CostReports).
    """
    check_stopping(tol, max_iter)
    vg = _as_value_grad(fun)
    z = np.asarray(z0, dtype=complex)
    rep, G = vg(z)
    f, P_inv = rep.J, rep.riesz or (lambda v: v)
    history = []
    pairs = deque(maxlen=LBFGS_PAIRS)  # (s, y, 1 / s.y), oldest first
    for it in count():
        rep.iteration, rep.grad_norm = it, float(np.linalg.norm(G))
        history.append(rep)
        if rep.grad_norm <= tol or it >= max_iter:
            break
        g = 2.0 * G
        p = -_two_loop(pairs, g, P_inv)
        dphi0 = np.vdot(g, p).real
        if dphi0 >= 0.0:
            # fall back to steepest descent when the model direction fails
            pairs.clear()
            p = -P_inv(g)
            dphi0 = np.vdot(g, p).real
        # the unit step, else the parabola's minimizer, else stop
        a, z_new = 1.0, z + p
        rep_new, G_new = vg(z_new)
        if not rep_new.J < f:
            a = -dphi0 / (2.0 * (rep_new.J - f - dphi0))
            z_new = z + a * p
            rep_new, G_new = vg(z_new)
            if not rep_new.J < f:
                break
        s, y = z_new - z, 2.0 * (G_new - G)
        sy = np.vdot(s, y).real
        if sy > 1e-14 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y, 1.0 / sy))
        z, f, G, rep = z_new, rep_new.J, G_new, rep_new
        rep.step = a
    return z, history
