"""Acceptance gate.

Eight end-to-end checks, each printing exactly one line

    [criterion <n> <name>] PASS|FAIL: <measured numbers vs pinned tolerance>

so a log scrape shows the full verdict table even under ``pytest -q``.
Failures print their line and re-raise, so pytest still reports them.
"""

import itertools
import time

import mpmath
import numpy as np

from eddyopt.analytic import ElectrodeParams, bessel_I, exact_H, exact_curl_H
from eddyopt.mesh import generate_cube, generate_cylinder, mesh_size, refine_uniform
from eddyopt.nedelec import (
    FESpace, ProblemConfig, hcurl_error, interpolate,
)
from eddyopt.quadrature import simplex_rule
from eddyopt.solver import StateOperator
from eddyopt.trace import (
    face_lambda_gradients, surface_curl_matrix, surface_mass_matrix,
)
from eddyopt.wirtinger import (
    ReducedProblem, bfgs_minimize, directional_derivative, fd_check,
    loglog_slope,
)
from oracles import eval_control_on_faces, eval_phi


def _run(capsys, ident, fn):
    try:
        detail = fn()
    except BaseException as exc:
        with capsys.disabled():
            print(f"\n[criterion {ident}] FAIL: {exc!r}", flush=True)
        raise
    with capsys.disabled():
        print(f"\n[criterion {ident}] PASS: {detail}", flush=True)


# ---------------------------------------------------------------------------
# 1. cylinder convergence rates
# ---------------------------------------------------------------------------

_RATE_LEVELS = {
    0: [(2, 12, 4), (4, 24, 8), (8, 48, 16)],
    1: [(1, 6, 2), (2, 12, 4), (4, 24, 8)],
}
_RATE_TARGET = {0: 0.9, 1: 1.8}


def _cylinder_rate(k):
    el = ElectrodeParams()  # all coefficients 1, R = 1/2, L = 1
    hs, errs = [], []
    for nr, nt, nz in _RATE_LEVELS[k]:
        t0 = time.perf_counter()
        m = generate_cylinder(el.R, el.L, nr, nt, nz)
        space = FESpace(m, k)
        assert space.n_dofs <= 200_000
        op = StateOperator(m, space, ProblemConfig(
            mu=1.0 / el.sigma, kappa=el.mu, omega=el.omega))
        g = np.zeros(space.n_dofs, dtype=complex)
        gi = interpolate(space, lambda x: exact_H(x, el))
        g[space.boundary_dofs] = gi[space.boundary_dofs]
        u = op.solve_dirichlet(g)
        err = hcurl_error(space, u,
                          lambda x: exact_H(x, el),
                          lambda x: exact_curl_H(x, el))
        seconds = time.perf_counter() - t0
        assert seconds < 300.0, f"level took {seconds:.1f}s (limit 300s)"
        hs.append(mesh_size(m))
        errs.append(err)
    assert all(b < a for a, b in zip(errs, errs[1:]))
    return loglog_slope(hs, errs)


def test_criterion_1_cylinder_convergence_rates(capsys):
    def impl():
        rates = {k: _cylinder_rate(k) for k in (0, 1)}
        for k, r in rates.items():
            assert r >= _RATE_TARGET[k], \
                f"order {k}: rate {r:.3f} < {_RATE_TARGET[k]}"
        return (f"H(curl) rate {rates[0]:.3f} >= 0.9 (order 0), "
                f"{rates[1]:.3f} >= 1.8 (order 1), 3 levels each")

    _run(capsys, "1 cylinder-convergence", impl)


# ---------------------------------------------------------------------------
# 2. finite-difference consistency of the reduced gradient (plateau relative
#    to 2||G|| ||xi||, the Cauchy-Schwarz bound on |d|)
# ---------------------------------------------------------------------------

def test_criterion_2_gradient_fd_slope_and_plateau(capsys):
    def impl():
        el = ElectrodeParams()
        m = generate_cylinder(el.R, el.L, 2, 12, 4)
        space = FESpace(m, 0)
        cfg = ProblemConfig(mu=1.0 / el.sigma, kappa=el.mu, omega=el.omega,
                            u_d=lambda x: exact_H(x, el),
                            alpha=1e-3, beta=0.0)
        rp = ReducedProblem(m, space, cfg)
        rng = np.random.default_rng(0)
        nb = m.n_boundary_edges
        z = 0.3 * (rng.standard_normal(nb) + 1j * rng.standard_normal(nb))
        _, G = rp.cost_and_gradient(z)
        probes = [G / np.linalg.norm(G)]
        for _ in range(2):
            v = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
            probes.append(v / np.linalg.norm(v))
        t_list = np.geomspace(1e-1, 1e-9, 17)
        slopes, plateaus = [], []
        for xi in probes:
            rows = fd_check(rp.cost_and_gradient, z, xi, t_list=t_list,
                            cost_fn=rp.cost)
            t = np.array([r[0] for r in rows])
            err = np.array([r[1] for r in rows])
            decay = t >= 1e-5  # 4 decades: 1e-1 .. 1e-5
            slopes.append(loglog_slope(t[decay], err[decay]))
            # normwise: the float64 floor of a forward difference is
            # ~2 sqrt(eps_j Q), so dividing by |d| of a random probe
            # (|d| << ||G||) reports round-off as a gradient error
            plateaus.append(
                err.min() / (2 * np.linalg.norm(G) * np.linalg.norm(xi)))
        for s in slopes:
            assert 0.8 <= s <= 1.2, f"slope {s:.3f} outside 1.0 +/- 0.2"
        for p in plateaus:
            assert p <= 1e-7, \
                f"plateau relative to 2||G|| ||xi|| {p:.2e} > 1e-7"
        return (f"slopes {', '.join(f'{s:.3f}' for s in slopes)} in "
                f"[0.8, 1.2] over 4 decades; plateaus relative to 2||G|| "
                f"||xi|| {', '.join(f'{p:.1e}' for p in plateaus)} <= 1e-7")

    _run(capsys, "2 gradient-fd-consistency", impl)


# ---------------------------------------------------------------------------
# 3. adjoint action vs an explicit extra solve
# ---------------------------------------------------------------------------

def test_criterion_3_adjoint_action_oracle(capsys):
    def impl():
        worst = 0.0
        n_checked = 0
        for m in (generate_cube(2), generate_cylinder(0.5, 1.0, 1, 6, 2)):
            for k in (0, 1):
                space = FESpace(m, k)
                cfg = ProblemConfig(j_c=np.array([0.0, 0.0, 1.0 + 0.5j]),
                                    u_d=np.array([0.1, 0.0, 0.2j]))
                rp = ReducedProblem(m, space, cfg)
                rng = np.random.default_rng(1)
                nb = m.n_boundary_edges
                for _ in range(5):
                    z = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
                    xi = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
                    u = rp.op.solve_state(z)
                    rho = rp.M_c @ u - rp.d
                    w = rp.op.solve_adjoint(rho)
                    got = np.vdot(xi, rp.op.adjoint_pairing(w, rho))
                    du = rp.op.solve_state(z + xi) - u
                    want = np.vdot(du, rho)
                    rel = abs(got - want) / abs(want)
                    worst = max(worst, rel)
                    n_checked += 1
                    assert rel <= 1e-9, f"relative error {rel:.2e} > 1e-9"
        return (f"{n_checked} random (z, xi) pairs on 2 meshes x 2 orders, "
                f"worst relative error {worst:.2e} <= 1e-9")

    _run(capsys, "3 adjoint-action", impl)


# ---------------------------------------------------------------------------
# 4. surface closed forms
# ---------------------------------------------------------------------------

def _face_boundary_edges(m, tri):
    key = m.edges[:, 0].astype(np.int64) * m.n_vertices + m.edges[:, 1]
    out = []
    for a, b in itertools.combinations(sorted(tri.tolist()), 2):
        ge = np.searchsorted(key, np.int64(a) * m.n_vertices + b)
        out.append(int(np.searchsorted(m.boundary_edges, ge)))
    return out


def _quadrature_surface_matrices(m, degree=6):
    nb = m.boundary_edges.size
    Mq, Kq = np.zeros((nb, nb)), np.zeros((nb, nb))
    pts_ref, w_ref = simplex_rule(2, degree)
    for tri in m.boundary_faces:
        fv = m.vertices[tri]
        nvec = np.cross(fv[1] - fv[0], fv[2] - fv[0])
        area2 = np.linalg.norm(nvec)
        nvec = nvec / area2
        pts = fv[0] + pts_ref[:, :1] * (fv[1] - fv[0]) \
            + pts_ref[:, 1:] * (fv[2] - fv[0])
        bes = _face_boundary_edges(m, tri)
        phis = np.array([[eval_phi(m, int(m.boundary_edges[be]), x)
                          for x in pts] for be in bes])
        g = face_lambda_gradients(fv)
        order = {v: i for i, v in enumerate(tri)}
        curls = [2 * np.linalg.norm(m.vertices[b] - m.vertices[a])
                 * np.cross(g[order[a]], g[order[b]]) @ nvec
                 for a, b in itertools.combinations(sorted(tri.tolist()), 2)]
        for i, bi in enumerate(bes):
            for j, bj in enumerate(bes):
                Mq[bi, bj] += (w_ref * np.einsum("pc,pc->p", phis[i],
                                                 phis[j])).sum() * area2
                Kq[bi, bj] += curls[i] * curls[j] * area2 / 2
    return Kq, Mq


def _curl_integrals(m):
    # int over the boundary of curl_G phi_e, accumulated per edge
    nb = m.boundary_edges.size
    totals = np.zeros(nb)
    for tri in m.boundary_faces:
        fv = m.vertices[tri]
        nvec = np.cross(fv[1] - fv[0], fv[2] - fv[0])
        area2 = np.linalg.norm(nvec)
        nvec = nvec / area2
        g = face_lambda_gradients(fv)
        order = {v: i for i, v in enumerate(tri)}
        for (a, b), be in zip(
                itertools.combinations(sorted(tri.tolist()), 2),
                _face_boundary_edges(m, tri)):
            le = np.linalg.norm(m.vertices[b] - m.vertices[a])
            totals[be] += le * np.cross(g[order[a]], g[order[b]]) @ nvec * area2
    return totals


def _max_face_flux(m, z, n_gauss=6):
    # per-face boundary flux of z; zero iff the facewise divergence vanishes
    from eddyopt.quadrature import gauss_01
    u, w = gauss_01(n_gauss)
    zeros = np.zeros_like(u)
    refs = (np.stack([u, zeros], axis=1),
            np.stack([1.0 - u, u], axis=1),
            np.stack([zeros, 1.0 - u], axis=1))
    face_idx = np.arange(m.boundary_faces.shape[0])
    verts = m.vertices[m.boundary_faces]
    nvec = m.boundary_normals
    flux = np.zeros(len(face_idx), dtype=complex)
    for (i0, i1), ref in zip(((0, 1), (1, 2), (2, 0)), refs):
        pa, pb = verts[:, i0], verts[:, i1]
        le = np.linalg.norm(pb - pa, axis=1)
        tang = (pb - pa) / le[:, None]
        nu = np.cross(tang, nvec)
        _, vals = eval_control_on_faces(m, z, face_idx, ref)
        flux += le * np.einsum('q,fqd,fd->f', w, vals, nu)
    return float((np.abs(flux) / m.boundary_areas).max())


def test_criterion_4_surface_closed_forms(capsys):
    def impl():
        rng = np.random.default_rng(4)
        worst_m, worst_k, worst_c, worst_d = 0.0, 0.0, 0.0, 0.0
        for m in (generate_cube(2), generate_cylinder(0.5, 1.0, 1, 6, 2)):
            Kq, Mq = _quadrature_surface_matrices(m)
            worst_m = max(worst_m,
                          abs(surface_mass_matrix(m).toarray() - Mq).max())
            worst_k = max(worst_k,
                          abs(surface_curl_matrix(m).toarray() - Kq).max())
            worst_c = max(worst_c, abs(_curl_integrals(m)).max())
            nb = m.n_boundary_edges
            z = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
            worst_d = max(worst_d, _max_face_flux(m, z))
        assert worst_m <= 1e-12, f"mass matrix mismatch {worst_m:.2e}"
        assert worst_k <= 1e-12, f"curl matrix mismatch {worst_k:.2e}"
        assert worst_c <= 1e-12, f"curl integral {worst_c:.2e}"
        assert worst_d <= 1e-12, f"facewise divergence flux {worst_d:.2e}"
        return (f"matrices vs quadrature {worst_m:.1e}/{worst_k:.1e}, "
                f"per-edge curl integral {worst_c:.1e}, facewise "
                f"divergence {worst_d:.1e}, all <= 1e-12")

    _run(capsys, "4 surface-closed-forms", impl)


# ---------------------------------------------------------------------------
# 5. manufactured constant-field exactness
# ---------------------------------------------------------------------------

def test_criterion_5_manufactured_constant_exactness(capsys):
    def impl():
        c = np.array([1.0 + 2.0j, -0.5j, 0.25])
        omega, kappa, mu = 3.7, 2.0, 5.0
        meshes = [
            ("cube n=1", generate_cube(1)),
            ("cube n=2", generate_cube(2)),
            ("cyl 1x6x2", generate_cylinder(0.5, 1.0, 1, 6, 2)),
            ("cyl 2x12x4", generate_cylinder(0.5, 1.0, 2, 12, 4)),
            ("cyl refined", refine_uniform(generate_cylinder(0.5, 1.0, 1, 6, 2))),
        ]
        worst = 0.0
        for name, m in meshes:
            for k in (0, 1):
                space = FESpace(m, k)
                cfg = ProblemConfig(
                    mu=mu, kappa=kappa, omega=omega,
                    j_c=lambda x: np.broadcast_to(
                        1j * omega * kappa * c, x.shape[:-1] + (3,)))
                coeffs = interpolate(space, lambda x: np.broadcast_to(
                    c, x.shape[:-1] + (3,)))
                op = StateOperator(m, space, cfg)
                u = op.solve_dirichlet(coeffs)
                err = hcurl_error(
                    space, u,
                    lambda x: np.broadcast_to(c, x.shape[:-1] + (3,)),
                    lambda x: np.zeros(x.shape[:-1] + (3,)))
                worst = max(worst, err)
                assert err <= 1e-9, \
                    f"{name}, order {k}: H(curl) error {err:.2e} > 1e-9"
        return (f"constant field reproduced on {len(meshes)} meshes x 2 "
                f"orders, worst H(curl) error {worst:.1e} <= 1e-9")

    _run(capsys, "5 manufactured-constant", impl)


# ---------------------------------------------------------------------------
# 6. optimization study across mesh levels
# ---------------------------------------------------------------------------

def test_criterion_6_optimization_gap_study(capsys):
    def impl():
        el = ElectrodeParams()
        cfg = ProblemConfig(mu=1.0 / el.sigma, kappa=el.mu, omega=el.omega,
                            u_d=lambda x: exact_H(x, el),
                            alpha=1e-3, beta=0.0)
        m = generate_cylinder(el.R, el.L, 1, 8, 2)
        results = []
        for level in range(3):
            if level:
                m = refine_uniform(m)
            space = FESpace(m, 0)
            rp = ReducedProblem(m, space, cfg)
            z, hist = bfgs_minimize(
                rp.cost_and_gradient,
                np.zeros(m.n_boundary_edges, dtype=complex),
                tol=1e-9, max_iter=600)
            last = hist[-1]
            assert last.grad_norm <= 1e-9, \
                f"level {level}: ||G|| = {last.grad_norm:.2e} > 1e-9"
            results.append(last)
        ref = results[-1]
        gaps_J = [abs(r.J - ref.J) / abs(ref.J) for r in results[:-1]]
        gaps_J1 = [abs(r.J1 - ref.J1) / abs(ref.J1) for r in results[:-1]]
        assert all(b < a for a, b in zip(gaps_J, gaps_J[1:])), \
            f"J gaps not monotone: {gaps_J}"
        assert all(b < a for a, b in zip(gaps_J1, gaps_J1[1:])), \
            f"J1 gaps not monotone: {gaps_J1}"
        return (f"3 levels converged to ||G|| <= 1e-9; relative gaps vs "
                f"finest decrease monotonically: J "
                f"{' > '.join(f'{g:.2e}' for g in gaps_J)}, tracking term "
                f"{' > '.join(f'{g:.2e}' for g in gaps_J1)}")

    _run(capsys, "6 optimization-study", impl)


# ---------------------------------------------------------------------------
# 7. complex-derivative unit identities
# ---------------------------------------------------------------------------

def test_criterion_7_complex_derivative_suite(capsys):
    def impl():
        # (a) f(z) = ||z||^2: forward-difference error along a unit probe
        # equals the step exactly
        rng = np.random.default_rng(7)
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        xi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        xi /= np.linalg.norm(xi)
        rows = fd_check(lambda v: (np.vdot(v, v).real, v), z, xi,
                        t_list=np.logspace(-1, -4, 7))
        worst_a = max(abs(err / t - 1.0) for t, err in rows)
        assert worst_a <= 1e-6, f"|err/t - 1| = {worst_a:.2e} > 1e-6"

        # (b) j(z) = |z|^2 + Re z has the non-holomorphic minimizer -1/2
        zmin, _ = bfgs_minimize(
            lambda v: (float(np.abs(v[0]) ** 2 + v[0].real), v + 0.5),
            np.array([0.37 - 0.81j]), tol=1e-12)
        err_b = abs(zmin[0] - (-0.5))
        assert err_b <= 1e-8, f"|z* + 1/2| = {err_b:.2e} > 1e-8"

        # (c) pairing identity on a quadratic with known derivative
        n = 8
        Q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Q = Q @ Q.conj().T + n * np.eye(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        def j(v):
            return (np.vdot(v, Q @ v) + 2 * np.vdot(b, v).real).real

        worst_c = 0.0
        t = 0.5  # central differences are exact for quadratics at any step
        for _ in range(5):
            zz = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            xx = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            G = Q @ zz + b
            central = (j(zz + t * xx) - j(zz - t * xx)) / (2 * t)
            d = directional_derivative(G, xx)
            rel = abs(d - central) / max(abs(central), 1.0)
            worst_c = max(worst_c, rel)
            assert rel <= 1e-12, f"pairing identity off by {rel:.2e} > 1e-12"
        return (f"fd error == t to {worst_a:.1e}; scalar minimizer within "
                f"{err_b:.1e} of -1/2; pairing identity to {worst_c:.1e}")

    _run(capsys, "7 complex-derivative-suite", impl)


# ---------------------------------------------------------------------------
# 8. modified Bessel series vs extended precision
# ---------------------------------------------------------------------------

def test_criterion_8_bessel_extended_precision(capsys):
    def impl():
        radii = np.linspace(0.2, 2.0, 10)
        angles = 2 * np.pi * (np.arange(10) + 0.37) / 10
        grid = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
        assert grid.size == 100 and np.abs(grid).max() <= 2.0
        worst = 0.0
        with mpmath.workdps(50):
            for nu in (0, 1):
                ours = bessel_I(nu, grid)
                for x, v in zip(grid, ours):
                    ref = mpmath.besseli(nu, mpmath.mpc(x.real, x.imag))
                    ref = complex(ref)
                    rel = abs(v - ref) / abs(ref)
                    worst = max(worst, rel)
                    assert rel <= 1e-14, \
                        f"I_{nu}({x:.3f}): relative error {rel:.2e} > 1e-14"
        return (f"I_0, I_1 match 50-digit reference on 100-point complex "
                f"grid |x| <= 2, worst relative error {worst:.1e} <= 1e-14")

    _run(capsys, "8 bessel-oracle", impl)
