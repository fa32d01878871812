"""Reduced cost/gradient calculus, finite-difference checks, and BFGS."""

import threading
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from eddyopt import nedelec, wirtinger
from eddyopt.analytic import ElectrodeParams, exact_H
from eddyopt.cli import write_vtk_state
from eddyopt.mesh import (
    build_mesh, generate_cube, generate_cylinder, refine_uniform)
from eddyopt.nedelec import (
    AssemblyError, FESpace, ProblemConfig, _load, _mass_matrix, assemble,
    assemble_curl_mass, assemble_load, evaluate_field, hcurl_error)
from eddyopt.solver import StateOperator
from eddyopt.trace import (
    lift, lifting_matrix, surface_curl_matrix, surface_mass_matrix)
from eddyopt.wirtinger import (
    MAX_ITER, RIESZ_MASS, TOL, CostReport, ReducedProblem, bfgs_minimize,
    check_stopping, directional_derivative, fd_check, loglog_slope,
)
from oracles import integrate


def _abs_square(z):
    # f(z) = ||z||^2 has conjugate derivative G = z
    return np.vdot(z, z).real, np.asarray(z, dtype=complex)


def test_absolute_square_fd_error_equals_the_step():
    # f(z + t xi) - f(z) = t d + t^2 ||xi||^2, so the forward-difference
    # error is exactly t for a unit direction
    rng = np.random.default_rng(5)
    z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    xi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    xi /= np.linalg.norm(xi)
    t_list = np.logspace(-1, -4, 7)
    rows = fd_check(_abs_square, z, xi, t_list=t_list)
    for t, err in rows:
        assert err == pytest.approx(t, rel=1e-6)
    assert loglog_slope([r[0] for r in rows], [r[1] for r in rows]) == \
        pytest.approx(1.0, abs=1e-6)


def test_scalar_nonholomorphic_minimizer_is_minus_one_half():
    # j(z) = |z|^2 + Re z is non-holomorphic with conjugate derivative
    # z + 1/2 and unique minimizer z* = -1/2
    def fun(z):
        return float(np.abs(z[0]) ** 2 + z[0].real), z + 0.5

    z, history = bfgs_minimize(fun, np.array([0.37 - 0.81j]), tol=1e-12)
    assert abs(z[0] - (-0.5)) <= 1e-8
    assert history[-1].grad_norm <= 1e-12


def test_backtrack_lands_on_the_minimizer_of_a_quadratic():
    # j(z) = 2 ||z - c||^2 has G = 2 (z - c), so from z = 0 the unit step
    # along -2G overshoots to 4c and the interpolated second try is c
    c = np.array([1.0 - 2.0j, 0.5j, -3.0])
    calls = []

    def fun(z):
        calls.append(z)
        r = z - c
        return 2.0 * np.vdot(r, r).real, 2.0 * r

    z, history = bfgs_minimize(fun, np.zeros(3, complex), tol=1e-9)
    assert history[-1].iteration == 1
    assert len(calls) == 3
    assert np.linalg.norm(z - c) <= 1e-14 * np.linalg.norm(c)


def test_riesz_preconditioned_first_step_is_the_newton_step():
    # j = sum d |z - c|^2 has G = d (z - c) and real Hessian 2 diag(d); with
    # that Hessian as the Riesz map, P^-1 v = v / (2 d) and the unit step
    # along -P^-1 (2G) lands on c
    rng = np.random.default_rng(11)
    d = rng.uniform(1.0, 100.0, 6)
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    calls = []

    def fun(z):
        calls.append(z)
        r = z - c
        J = float(d @ (r.real ** 2 + r.imag ** 2))
        G = d * r
        return CostReport(J=J, J1=J, J2=0.0, J3=0.0,
                          riesz=lambda v: v / (2 * d)), G

    z, history = bfgs_minimize(fun, np.zeros(6, complex), tol=1e-9)
    assert history[-1].iteration == 1
    assert len(calls) == 2
    assert np.linalg.norm(z - c) <= 1e-14 * np.linalg.norm(c)
    # the reports carry the map, never a vector solved per evaluation
    assert not any(isinstance(v, np.ndarray)
                   for h in history for v in vars(h).values())


def test_bfgs_stops_when_the_line_search_finds_no_decrease():
    # a sign-flipped gradient makes every search direction an ascent
    calls = []

    def fun(z):
        calls.append(z)
        return np.vdot(z, z).real, -np.asarray(z, dtype=complex)

    _, history = bfgs_minimize(fun, np.ones(3, complex), tol=1e-9,
                               max_iter=5)
    assert len(calls) <= 30
    assert all(h.step != 0.0 for h in history)
    assert history[-1].grad_norm > 1e-9


def test_a_sign_flipped_gradient_stops_after_the_parabola_step():
    # the start, the unit step and the parabola's minimizer; a try budget
    # spent 25 evaluations on the line search before it gave up
    calls = []

    def fun(z):
        calls.append(z)
        return np.vdot(z, z).real, -np.asarray(z, dtype=complex)

    _, history = bfgs_minimize(fun, np.ones(3, complex), tol=1e-9)
    assert len(calls) == 3
    assert len(history) == 1 and history[0].grad_norm > 1e-9


def test_the_parabola_step_is_not_clamped():
    # j = 50 ||z - c||^2: the unit step along -2G overshoots to 100 c and
    # the minimizer along the line is a* = 0.01, below a clamp at 0.1
    c = np.array([1.0 - 2.0j, 0.5j, -3.0])
    calls = []

    def fun(z):
        calls.append(z)
        r = z - c
        return 50.0 * np.vdot(r, r).real, 50.0 * r

    z, history = bfgs_minimize(fun, np.zeros(3, complex), tol=1e-9)
    assert len(calls) == 3
    assert history[-1].step == pytest.approx(0.01, rel=1e-14)
    assert np.linalg.norm(z - c) <= 1e-14 * np.linalg.norm(c)


@pytest.mark.parametrize("tol, max_iter", [
    (float("nan"), 10), (0.0, 10), (-1.0, 10), (float("inf"), 10),
    (1e-9, -1), (1e-9, 2.0), (1e-9, True)])
def test_bfgs_rejects_bad_settings_before_evaluating(tol, max_iter):
    # checked before the first evaluation: a NaN or negative tol would run
    # on at the minimum into a 0/0 parabola step
    calls = []

    def fun(z):
        calls.append(z)
        return np.vdot(z, z).real, np.asarray(z, dtype=complex)

    with pytest.raises(ValueError, match="tol"):
        bfgs_minimize(fun, np.ones(3, complex), tol=tol, max_iter=max_iter)
    assert calls == []


def test_stopping_rule_accepts_its_defaults_and_zero_iterations():
    check_stopping(TOL, MAX_ITER)
    check_stopping(1e-300, np.int64(0))
    z, history = bfgs_minimize(lambda z: (np.vdot(z, z).real, z),
                               np.ones(2, complex), max_iter=0)
    assert len(history) == 1 and np.array_equal(z, np.ones(2))


def test_bfgs_memory_stays_linear_in_the_controls():
    # one dense 2n x 2n inverse Hessian at n = 5000 would be 800 MB
    rng = np.random.default_rng(3)
    n = 5000
    d = rng.uniform(1.0, 10.0, n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def fun(z):  # j = sum d |z - c|^2, conjugate derivative d (z - c)
        r = z - c
        return float(d @ (r.real ** 2 + r.imag ** 2)), d * r

    tracemalloc.start()
    try:
        z, history = bfgs_minimize(fun, np.zeros(n, complex), tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert history[-1].grad_norm <= 1e-9
    assert np.abs(z - c).max() <= 1e-9
    assert peak < 32e6


def test_bfgs_keeps_one_copy_of_each_pair_without_a_riesz_map():
    # 20 pairs (s, y) of n = 5000 complex vectors are 3.2 MB; a second
    # copy of y per pair, as P^-1 y with P = I, took the peak to 5.78 MB
    rng = np.random.default_rng(3)
    n = 5000
    d = rng.uniform(1.0, 10.0, n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def fun(z):
        r = z - c
        return float(d @ (r.real ** 2 + r.imag ** 2)), d * r

    tracemalloc.start()
    try:
        _, history = bfgs_minimize(fun, np.zeros(n, complex), tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert history[-1].grad_norm <= 1e-9
    assert peak < 4.6e6


def test_pairing_identity_on_quadratic_with_known_gradient():
    # for j(z) = z^H Q z + 2 Re(b^H z) the central difference quotient is
    # exact at any step, so it must equal 2 Re(conj(xi)^T G) to rounding
    rng = np.random.default_rng(17)
    n = 8
    Q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q = Q @ Q.conj().T + n * np.eye(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def j(z):
        return (np.vdot(z, Q @ z) + 2 * np.vdot(b, z).real).real

    for _ in range(5):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        G = Q @ z + b
        t = 0.5
        central = (j(z + t * xi) - j(z - t * xi)) / (2 * t)
        d = directional_derivative(G, xi)
        assert abs(d - central) / max(abs(central), 1.0) <= 1e-12
        # descent along -G has derivative -2 ||G||^2
        assert directional_derivative(G, -G) == pytest.approx(
            -2 * np.linalg.norm(G) ** 2, rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(
    st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
    min_size=1, max_size=6))
def test_pairing_identity_matches_stacked_real_inner_product(vals):
    arr = np.array(vals)
    G = arr[:, 0] + 1j * arr[:, 1]
    xi = arr[:, 2] + 1j * arr[:, 3]
    stacked = np.concatenate([2 * G.real, 2 * G.imag]) @ \
        np.concatenate([xi.real, xi.imag])
    assert directional_derivative(G, xi) == pytest.approx(stacked, abs=1e-12)


def test_loglog_slope_recovers_exact_power_law():
    x = np.logspace(-4, -1, 9)
    assert loglog_slope(x, 3.0 * x ** 1.7) == pytest.approx(1.7, abs=1e-12)


def _small_problem(alpha=1e-3, beta=1e-4):
    mesh = generate_cylinder(0.5, 1.0, 1, 6, 2)
    space = FESpace(mesh, 0)
    cfg = ProblemConfig(
        j_c=np.array([0.0, 0.0, 1.0 + 0.5j]),
        u_d=np.array([0.1, 0.0, 0.2j]),
        alpha=alpha, beta=beta)
    return ReducedProblem(mesh, space, cfg)


def test_lifting_matrix_matches_lift():
    mesh = generate_cylinder(0.5, 1.0, 1, 6, 2)
    rng = np.random.default_rng(2)
    for k in (0, 1):
        space = FESpace(mesh, k)
        L = lifting_matrix(space)
        # the space builds its lifting once and lift reuses it
        assert space.lifting is space.lifting
        z = rng.standard_normal(mesh.n_boundary_edges) \
            + 1j * rng.standard_normal(mesh.n_boundary_edges)
        assert np.abs(L @ z - lift(space, z)).max() <= 1e-14
        assert L.shape == (space.n_dofs, mesh.n_boundary_edges)


def test_reduced_cost_parts_sum_and_count_evaluations():
    prob = _small_problem()
    rng = np.random.default_rng(23)
    z = rng.standard_normal(prob.M.shape[0]) \
        + 1j * rng.standard_normal(prob.M.shape[0])
    rep = prob.cost(z)
    assert isinstance(rep, CostReport)
    assert rep.J == pytest.approx(rep.J1 + rep.J2 + rep.J3, rel=1e-14)
    assert rep.J1 > 0 and rep.J2 > 0 and rep.J3 > 0
    assert prob.n_evaluations == 1
    assert prob.op.n_state_solves == 1
    rep2, G = prob.cost_and_gradient(z)
    assert rep2.J == pytest.approx(rep.J, rel=1e-13)
    assert rep2.grad_norm == pytest.approx(np.linalg.norm(G), rel=1e-14)
    assert prob.op.n_adjoint_solves == 1


def test_tracking_misfit_matches_direct_integration_of_error():
    # J1 evaluated through the cached mass form equals 1/2 ||u - u_d||^2
    # computed from the expanded quadratic
    prob = _small_problem()
    rng = np.random.default_rng(29)
    z = rng.standard_normal(prob.M.shape[0]) \
        + 1j * rng.standard_normal(prob.M.shape[0])
    u = prob.op.solve_state(z)
    direct = 0.5 * (np.vdot(u, prob.M_c @ u).real
                    - 2 * np.vdot(prob.d, u).real + prob.c_d)
    assert prob.cost(z).J1 == pytest.approx(direct, rel=1e-12)
    assert direct > 0


def test_tracking_mass_at_the_state_degree_is_exact():
    # Phi . Phi has degree 2k + 2, so two more degrees change only round-off
    mesh = generate_cylinder(0.5, 1.0, 1, 6, 2)
    for k in (0, 1):
        space = FESpace(mesh, k)
        prob = ReducedProblem(mesh, space, ProblemConfig(
            u_d=np.array([0.1, 0.0, 0.2j])))
        _, M = assemble_curl_mass(mesh, space, 1.0, 1.0, 2 * k + 4)
        assert abs(prob.M_c - M).max() <= 1e-14 * abs(M).max()


def test_reduced_gradient_passes_fd_check():
    prob = _small_problem()
    rng = np.random.default_rng(31)
    z = 0.3 * (rng.standard_normal(prob.M.shape[0])
               + 1j * rng.standard_normal(prob.M.shape[0]))
    _, G = prob.cost_and_gradient(z)
    xi = G / np.linalg.norm(G)
    t_list = np.geomspace(1e-1, 1e-9, 17)
    rows = fd_check(prob.cost_and_gradient, z, xi,
                    t_list=t_list, cost_fn=prob.cost)
    d = abs(directional_derivative(G, xi))
    fit = [(t, e) for t, e in rows if t >= 1e-5]
    slope = loglog_slope([r[0] for r in fit], [r[1] for r in fit])
    assert slope == pytest.approx(1.0, abs=0.2)
    plateau = min(e for _, e in rows) / d
    assert plateau <= 1e-7


def test_fd_check_uses_the_cheap_cost_for_perturbed_points():
    prob = _small_problem()
    z = np.zeros(prob.M.shape[0], complex)
    xi = np.ones(prob.M.shape[0], dtype=complex)
    fd_check(prob.cost_and_gradient, z, xi, t_list=[1e-2, 1e-3],
             cost_fn=prob.cost)
    # one gradient evaluation (state + adjoint) plus two cost-only solves
    assert prob.op.n_state_solves == 3
    assert prob.op.n_adjoint_solves == 1


def test_bfgs_minimizes_the_reduced_cost():
    prob = _small_problem(alpha=1e-3, beta=0.0)
    z, history = bfgs_minimize(prob.cost_and_gradient,
                               np.zeros(prob.M.shape[0], complex), tol=1e-9)
    assert history[-1].grad_norm <= 1e-9
    J = [h.J for h in history]
    assert all(b < a for a, b in zip(J, J[1:]))
    assert history[0].iteration == 0 and history[0].step is None
    assert all(h.step > 0 for h in history[1:])
    # every BFGS evaluation is one state plus one adjoint solve, and an
    # accepted try becomes the next iterate without being solved again
    assert prob.n_evaluations == prob.op.n_state_solves
    assert prob.op.n_state_solves == prob.op.n_adjoint_solves
    # the optimizer's factor is complex128 and never refines a solve
    assert prob.op.factor_dtype == np.complex128
    assert (prob.op.n_refinements, prob.op.max_refinements) == (0, 0)
    # the found control actually beats its neighbours
    base = prob.cost(z).J
    rng = np.random.default_rng(37)
    for _ in range(3):
        dz = 1e-4 * (rng.standard_normal(z.size)
                     + 1j * rng.standard_normal(z.size))
        assert prob.cost(z + dz).J >= base


def test_riesz_lbfgs_evaluations_do_not_grow_with_the_mesh():
    # the Euclidean metric took 24 / 31 / 69 evaluations at L0-L2
    el = ElectrodeParams()
    cfg = ProblemConfig(mu=1.0 / el.sigma, kappa=el.mu, omega=el.omega,
                        u_d=partial(exact_H, params=el), alpha=1e-3, beta=0.0)
    m = generate_cylinder(el.R, el.L, 1, 8, 2)
    for level in range(3):
        if level:
            m = refine_uniform(m)
        prob = ReducedProblem(m, FESpace(m, 0), cfg)
        riesz, calls = prob.riesz, []

        def counted(v):
            calls.append(prob.n_evaluations)
            return riesz(v)

        prob.riesz = counted
        z, history = bfgs_minimize(prob.cost_and_gradient,
                                   np.zeros(m.n_boundary_edges, complex),
                                   tol=1e-9, max_iter=600)
        assert history[-1].grad_norm <= 1e-9
        assert prob.n_evaluations <= 30, (level, prob.n_evaluations)
        # the Riesz solve is a surface solve: one state and one adjoint
        # volume solve per evaluation, as without it
        assert prob.n_evaluations == prob.op.n_state_solves
        assert prob.op.n_state_solves == prob.op.n_adjoint_solves
        # P^-1 is applied by the optimizer, to the two-loop's q and to the
        # newest y, at most twice per iteration
        assert len(calls) <= 2 * history[-1].iteration + 1
        n_calls = len(calls)
        report, G = prob.cost_and_gradient(z + 0.1)
        assert len(calls) == n_calls  # an evaluation solves nothing with P
        P = cfg.alpha * prob.K + (cfg.beta + RIESZ_MASS) * prob.M
        assert np.linalg.norm(P @ report.riesz(G) - G) <= \
            1e-12 * np.linalg.norm(G)


def test_trivial_target_drives_control_to_zero():
    # with zero load and zero target the reduced cost is a positive
    # definite quadratic whose unique minimizer is z = 0
    mesh = generate_cube(1)
    space = FESpace(mesh, 0)
    prob = ReducedProblem(mesh, space, ProblemConfig(alpha=1e-3, beta=1e-3))
    rng = np.random.default_rng(41)
    z0 = rng.standard_normal(mesh.n_boundary_edges) \
        + 1j * rng.standard_normal(mesh.n_boundary_edges)
    z, history = bfgs_minimize(prob.cost_and_gradient, z0, tol=1e-12)
    assert history[-1].J <= 1e-15
    assert np.abs(z).max() <= 1e-5
    _, G = prob.cost_and_gradient(np.zeros(mesh.n_boundary_edges, complex))
    assert G == pytest.approx(
        np.zeros(mesh.n_boundary_edges), abs=1e-16)


@pytest.mark.parametrize("k", [0, 1])
def test_run_paths_never_expand_the_element_basis(tmp_path, k):
    # assembly, loads, the tracking data, the H(curl) error, field values
    # and the VTK output work on the span and the coefficient table
    m = generate_cylinder(0.5, 1.0, 1, 6, 2)
    space = FESpace(m, k)
    u_d = partial(exact_H, params=ElectrodeParams())
    prob = ReducedProblem(m, space, ProblemConfig(
        u_d=u_d, j_c=np.array([0.0, 0.0, 1.0 + 0.5j])))
    report, G = prob.cost_and_gradient(np.zeros(m.n_boundary_edges, complex))
    assert np.isfinite(report.J) and np.isfinite(G).all()
    assert np.isfinite(hcurl_error(space, prob.d, u_d, None))
    _, vals, curls = evaluate_field(space, prob.d, np.full((1, 3), 0.25))
    assert np.isfinite(vals).all() and np.isfinite(curls).all()
    write_vtk_state(tmp_path / "state.vtk", space, prob.d)
    assert (tmp_path / "state.vtk").stat().st_size > 0


@pytest.mark.parametrize("k, quad_order", [(0, None), (0, 4), (1, None),
                                           (1, 6)])
def test_tracking_data_in_one_pass_without_curls(monkeypatch, k, quad_order):
    m = generate_cylinder(0.5, 1.0, 2, 12, 4)
    assert m.n_tets > nedelec.CHUNK
    space = FESpace(m, k)
    u_d = partial(exact_H, params=ElectrodeParams())
    cells, curls = [], []
    loop, span = nedelec._cells, nedelec._span
    monkeypatch.setattr(nedelec, "_cells", lambda s, rule, fn: loop(
        s, rule, lambda sl, phys, *rest: (
            cells.append(len(phys)) or fn(sl, phys, *rest))))
    monkeypatch.setattr(nedelec, "_span", lambda k, pts, c: (
        curls.append(c) or span(k, pts, c)))
    prob = ReducedProblem(m, space, ProblemConfig(u_d=u_d,
                                                  quad_order=quad_order))
    # curls only for the stiffness of the state operator, once in its pass
    assert sum(curls) == 1
    hcurl_error(space, prob.d, u_d, None)
    evaluate_field(space, prob.d, np.full((1, 3), 0.25))
    assert cells and max(cells) <= nedelec.CHUNK
    curls.clear()
    q = quad_order or 2 * k + 2
    d = assemble_load(m, space, u_d, q + 2)
    assert curls and not any(curls)
    _, M = assemble_curl_mass(m, space, 1.0, 1.0, q)
    assert np.array_equal(prob.M_c.indptr, M.indptr)
    assert np.array_equal(prob.M_c.indices, M.indices)
    assert np.abs(prob.M_c.data - M.data).max() <= 1e-14 * np.abs(M.data).max()
    assert np.abs(prob.d - d).max() <= 1e-14 * np.abs(d).max()
    c_d = integrate(m, lambda p: np.einsum("...d,...d->...", u_d(p),
                                           u_d(p).conj()).real, q + 2)
    assert prob.c_d == pytest.approx(c_d, rel=1e-14)


def _same_sparse(A, B):
    return (np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices)
            and np.array_equal(A.data, B.data))


@pytest.mark.parametrize("k", [0, 1])
def test_a_space_built_on_another_mesh_is_refused(k):
    # the entry points that take (mesh, space) read every array from the
    # space; a mesh that is not the space's own raises before any work
    m = generate_cylinder(0.5, 1.0, 1, 6, 2)
    other, space = build_mesh(2 * m.vertices, m.tets), FESpace(m, k)
    cfg = ProblemConfig(u_d=np.array([1.0, 0.0, 0.0]))
    start = threading.active_count()
    for run in (lambda: assemble(other, space, cfg),
                lambda: assemble_curl_mass(other, space),
                lambda: assemble_load(other, space, cfg.u_d),
                lambda: StateOperator(other, space, cfg),
                lambda: ReducedProblem(other, space, cfg)):
        with pytest.raises(AssemblyError, match="another mesh"):
            run()
    assert threading.active_count() == start


@pytest.mark.parametrize("k", [0, 1])
def test_tracking_data_built_alongside_the_factor_equals_direct_calls(k):
    # ReducedProblem builds the tracking data before A_II is factored;
    # every array is the one a direct call gives, bit for bit
    mesh = generate_cylinder(0.5, 1.0, 1, 6, 2)
    space = FESpace(mesh, k)
    u_d = partial(exact_H, params=ElectrodeParams())
    cfg = ProblemConfig(j_c=np.array([0.0, 0.0, 1.0 + 0.5j]), u_d=u_d)
    start = threading.active_count()
    prob = ReducedProblem(mesh, space, cfg)
    assert threading.active_count() == start
    q = cfg.quad_degree(k)
    assert _same_sparse(prob.K, surface_curl_matrix(mesh))
    assert _same_sparse(prob.M, surface_mass_matrix(mesh))
    assert _same_sparse(prob.M_c, _mass_matrix(space, q))
    d, c_d = _load(space, u_d, q + 2)
    assert np.array_equal(prob.d, d) and prob.c_d == c_d
    assert np.array_equal(prob.op.load,
                          assemble_load(mesh, space, cfg.j_c, q + 2))
    P = cfg.alpha * prob.K + (cfg.beta + RIESZ_MASS) * prob.M
    lu = spla.splu(P.tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    v = np.arange(2.0 * mesh.n_boundary_edges).reshape(-1, 2)
    assert prob.riesz_lu.nnz == lu.nnz
    assert np.array_equal(prob.riesz_lu.solve(v), lu.solve(v))


def test_tracking_data_is_built_before_the_state_block_is_factored(
        monkeypatch):
    # every tracking array and the Riesz factor are complete when the
    # state factor starts, so their transients are freed before it grows;
    # each step is slowed, so a factor run alongside would start first
    built, at_factor = [], []
    for name in ("surface_curl_matrix", "surface_mass_matrix",
                 "_mass_matrix", "_load", "splu"):
        def recording(*args, fn=getattr(wirtinger, name), name=name,
                      **kwargs):
            out = fn(*args, **kwargs)
            time.sleep(0.02)
            built.append(name)
            return out
        monkeypatch.setattr(wirtinger, name, recording)
    state_splu = spla.splu

    def recording_splu(*args, **kwargs):
        at_factor.append(sorted(built))
        return state_splu(*args, **kwargs)
    monkeypatch.setattr(spla, "splu", recording_splu)
    prob = _small_problem()
    assert at_factor == [["_load", "_mass_matrix", "splu",
                          "surface_curl_matrix", "surface_mass_matrix"]]
    assert prob.d.any()


def test_set_up_starts_no_thread(monkeypatch):
    # a thread started anywhere in set-up would raise here
    def refuse(self):
        raise AssertionError("set-up started a thread")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    mesh = generate_cylinder(0.5, 1.0, 1, 6, 2)
    space = FESpace(mesh, 1)
    cfg = ProblemConfig(j_c=np.array([0.0, 0.0, 1.0]),
                        u_d=np.array([0.1, 0.0, 0.2]))
    op = StateOperator(mesh, space, cfg)
    prob = ReducedProblem(mesh, space, cfg)
    assert op.load.any() and prob.d.any()
    assert np.array_equal(prob.op.load, op.load)


def test_an_error_building_the_tracking_data_is_raised(monkeypatch):
    def failing_load(*args):
        raise AssemblyError("u_d is not finite")
    monkeypatch.setattr(wirtinger, "_load", failing_load)
    start = threading.active_count()
    with pytest.raises(AssemblyError, match="u_d is not finite"):
        _small_problem()
    assert threading.active_count() == start
