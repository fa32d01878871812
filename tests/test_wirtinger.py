"""Reduced cost/gradient calculus, finite-difference checks, and BFGS."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eddyopt.mesh import generate_cube, generate_cylinder
from eddyopt.nedelec import FESpace, ProblemConfig, assemble_curl_mass
from eddyopt.trace import lift, lifting_matrix, zeros_control
from eddyopt.wirtinger import (
    CostReport, ReducedProblem, bfgs_minimize, directional_derivative,
    fd_check, loglog_slope,
)


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
    z = rng.standard_normal(prob.n_controls) \
        + 1j * rng.standard_normal(prob.n_controls)
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
    z = rng.standard_normal(prob.n_controls) \
        + 1j * rng.standard_normal(prob.n_controls)
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
    z = 0.3 * (rng.standard_normal(prob.n_controls)
               + 1j * rng.standard_normal(prob.n_controls))
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
    z = zeros_control(prob.mesh)
    xi = np.ones(prob.n_controls, dtype=complex)
    fd_check(prob.cost_and_gradient, z, xi, t_list=[1e-2, 1e-3],
             cost_fn=prob.cost)
    # one gradient evaluation (state + adjoint) plus two cost-only solves
    assert prob.op.n_state_solves == 3
    assert prob.op.n_adjoint_solves == 1


def test_bfgs_minimizes_the_reduced_cost():
    prob = _small_problem(alpha=1e-3, beta=0.0)
    z, history = bfgs_minimize(prob.cost_and_gradient,
                               zeros_control(prob.mesh), tol=1e-9)
    assert history[-1].grad_norm <= 1e-9
    J = [h.J for h in history]
    assert all(b < a for a, b in zip(J, J[1:]))
    assert history[0].iteration == 0 and history[0].step is None
    assert all(h.step > 0 for h in history[1:])
    # every BFGS evaluation is one state plus one adjoint solve, and an
    # accepted try becomes the next iterate without being solved again
    assert prob.n_evaluations == prob.op.n_state_solves
    assert prob.op.n_state_solves == prob.op.n_adjoint_solves
    # the found control actually beats its neighbours
    base = prob.cost(z).J
    rng = np.random.default_rng(37)
    for _ in range(3):
        dz = 1e-4 * (rng.standard_normal(z.size)
                     + 1j * rng.standard_normal(z.size))
        assert prob.cost(z + dz).J >= base


def test_trivial_target_drives_control_to_zero():
    # with zero load and zero target the reduced cost is a positive
    # definite quadratic whose unique minimizer is z = 0
    mesh = generate_cube(1)
    space = FESpace(mesh, 0)
    prob = ReducedProblem(mesh, space, ProblemConfig(alpha=1e-3, beta=1e-3))
    rng = np.random.default_rng(41)
    z0 = rng.standard_normal(prob.n_controls) \
        + 1j * rng.standard_normal(prob.n_controls)
    z, history = bfgs_minimize(prob.cost_and_gradient, z0, tol=1e-12)
    assert history[-1].J <= 1e-15
    assert np.abs(z).max() <= 1e-5
    _, G = prob.cost_and_gradient(zeros_control(mesh))
    assert G == pytest.approx(
        np.zeros(prob.n_controls), abs=1e-16)
