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
gradient of j is 2G. The state map is complex linear, so j is a quadratic
and G is affine: one evaluation at the trial point z + p gives the
curvature along p, the exact minimizer along the line and G there, and
BFGS with exact line searches makes the conjugate-gradient iterates on a
quadratic (Nazareth 1979). So each iteration evaluates once.

The controls are regularized by the surface curl, so the gradient's
natural representative is its Riesz representative P^-1 G under the real
surface matrix P = alpha K + (beta + RIESZ_MASS) M, factored once per
problem. Each report carries the map v -> P^-1 v, and L-BFGS takes P^-1
as its initial inverse Hessian, which keeps its evaluation count nearly
level under refinement (Schwedes, Ham, Funke & Piggott 2017), though not
constant: from z = 0 at order 0, alpha = 1e-3, beta = 0, levels L0-L3 of
the [1, 8, 2] cylinder take 17 / 20 / 20 / 23 evaluations against
21 / 26 / 58 / 141 in the Euclidean metric (at order 1, L0-L2 take
14 / 17 / 20), and the benchmark's random starts on L2 (optimize-o0,
seeds 1-10) take 23-24.
"""

import numbers
from collections import deque
from dataclasses import dataclass
from itertools import count

import numpy as np
from scipy.sparse.linalg import splu

from .nedelec import _check_pair, _load, _mass_matrix
from .solver import StateOperator
from .trace import surface_curl_matrix, surface_mass_matrix

LBFGS_PAIRS = 20  # stored (s, y) pairs of the limited-memory BFGS
# Mass shift of the Riesz map P = alpha K + (beta + RIESZ_MASS) M. At the
# bench's seed-1 start, 0.01 / 0.1 / 1 take 39 / 24 / 42 evaluations on
# optimize-o0 and 36 / 21 / 36 on optimize-o1.
RIESZ_MASS = 0.1
TOL, MAX_ITER = 1e-9, 500  # default stopping rule of bfgs_minimize


@dataclass
class CostReport:
    """Cost value and its parts: J = J1 + J2 + J3 with J1 the tracking
    misfit, J2 the surface-curl penalty, J3 the surface mass penalty.
    riesz is the Riesz map v -> P^-1 v of the control space, or None for
    the Euclidean one (P = I). A `bfgs_minimize` history entry at an
    iterate that was not evaluated holds J and grad_norm from the
    quadratic's identities and None for J1, J2, J3 and riesz."""

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

    The tracking data (K, M, M_c, d, c_d) and the factor of P are built
    before A_II is factored, so their transients are freed before the
    factor grows. The factor is complex128: refined complex64 solves cost
    3-4x as much, and a run makes about 50 solves per factor.
    """

    def __init__(self, mesh, space, config):
        _check_pair(mesh, space)
        self.config = config
        # surface-curl and surface mass Gram matrices of the controls
        self.K = surface_curl_matrix(mesh)
        self.M = surface_mass_matrix(mesh)
        q = config.quad_degree(space.k)
        self.M_c = _mass_matrix(space, q)
        self.d, self.c_d = _load(space, config.u_d, q + 2)
        # P is symmetric positive definite: diagonal pivots are safe
        self.riesz_lu = splu((config.alpha * self.K + (
            config.beta + RIESZ_MASS) * self.M).tocsc(),
            permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True})
        self.op = StateOperator(mesh, space, config, factor_dtype=np.complex128)
        self.n_evaluations = 0

    def _evaluate(self, z):
        """CostReport at z, and the products M_c u, K z and M z of the
        state u that the gradient reuses, each formed once."""
        self.n_evaluations += 1
        u = self.op.solve_state(z)
        # two real products: M_c @ u would upcast M_c's data on every call
        Mu = self.M_c @ u.real + 1j * (self.M_c @ u.imag)
        Kz, Mz = self.K @ z, self.M @ z
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
    as `ReducedProblem`'s is: then G is affine along p, and each iteration
    evaluates once, at the trial point z + p. Its G1 gives the curvature
    c = Re<2 (G1 - G), p> = phi'(1) - phi'(0) of phi(a) = f(z + a p), and
    the iteration steps to the exact minimizer a* = -phi'(0) / c with
    G <- G + a* (G1 - G) and f <- f + a* phi'(0) + a*^2 c / 2. c <= 0 (a
    wrong gradient) stops the run, with ||G|| > tol in the last history
    entry. A trial point with ||G1|| <= tol ends the run there; when the
    updated G meets tol, or max_iter ends the run, one more evaluation
    confirms the iterate, and the run goes on if its ||G|| > tol. So the
    history (one entry per iterate, with the step that reached it) starts
    and ends with evaluations, the last at the returned z. tol must be
    finite and positive and max_iter an integer >= 0 (`check_stopping`,
    before the first evaluation): ValueError otherwise. Returns (z,
    history of CostReports).
    """
    check_stopping(tol, max_iter)
    vg = _as_value_grad(fun)
    z = np.asarray(z0, dtype=complex)
    rep, G = vg(z)
    P_inv = rep.riesz or (lambda v: v)
    history = []
    pairs = deque(maxlen=LBFGS_PAIRS)  # (s, y, 1 / s.y), oldest first
    for it in count():
        grad_norm = float(np.linalg.norm(G))
        if rep.J1 is None and (grad_norm <= tol or it >= max_iter):
            # the run ends here: confirm the interpolated iterate
            step, (rep, G) = rep.step, vg(z)
            rep.step, grad_norm = step, float(np.linalg.norm(G))
        rep.iteration, rep.grad_norm = it, grad_norm
        history.append(rep)
        if grad_norm <= tol or it >= max_iter:
            break
        g = 2.0 * G
        p = -_two_loop(pairs, g, P_inv)
        dphi0 = np.vdot(g, p).real
        if dphi0 >= 0.0:
            # fall back to steepest descent when the model direction fails
            pairs.clear()
            p = -P_inv(g)
            dphi0 = np.vdot(g, p).real
        rep1, G1 = vg(z + p)
        dG = G1 - G
        c = np.vdot(2.0 * dG, p).real  # phi'(1) - phi'(0) = phi''
        if not c > 0.0:
            break  # no minimizer along p: the gradient is wrong
        if np.linalg.norm(G1) <= tol:
            z, G, rep, a = z + p, G1, rep1, 1.0
        else:
            a = -dphi0 / c
            z, G = z + a * p, G + a * dG
            rep = CostReport(J=rep.J + a * dphi0 + 0.5 * a * a * c,
                             J1=None, J2=None, J3=None)
        s, y = a * p, 2.0 * a * dG
        sy = np.vdot(s, y).real
        if sy > 1e-14 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y, 1.0 / sy))
        rep.step = a
    return z, history
