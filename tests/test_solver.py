"""Factorized state/adjoint solver: exactness, duality, instrumentation."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from eddyopt.mesh import MeshError, generate_cube, generate_cylinder
from eddyopt.nedelec import FESpace, ProblemConfig, interpolate
from eddyopt.solver import SolverError, StateOperator
from eddyopt.trace import lift, tangential_trace, zeros_control


def _meshes():
    return [generate_cube(1), generate_cube(2), generate_cylinder(0.5, 1.0, 1, 6, 2)]


def _random_control(mesh, rng):
    n = mesh.n_boundary_edges
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("mesh_idx", [0, 1, 2])
def test_constant_field_is_reproduced_exactly(k, mesh_idx):
    # curl of a constant vanishes, so with j_c = i omega kappa c the
    # constant c solves the equation; it also lies in every order's space,
    # and the discrete solution must reproduce its interpolant.
    mesh = _meshes()[mesh_idx]
    space = FESpace(mesh, k)
    c = np.array([1.0 + 2.0j, -0.5j, 0.25])
    omega, kappa, mu = 3.7, 2.0, 5.0
    cfg = ProblemConfig(mu=mu, kappa=kappa, omega=omega,
                        j_c=lambda x: np.broadcast_to(
                            1j * omega * kappa * c, x.shape[:-1] + (3,)))
    coeffs = interpolate(space, lambda x: np.broadcast_to(c, x.shape[:-1] + (3,)))
    op = StateOperator(mesh, space, cfg)
    u = op.solve_dirichlet(coeffs)
    assert np.abs(u - coeffs).max() <= 1e-9


def test_state_satisfies_interior_rows_and_boundary_data():
    mesh = generate_cylinder(0.5, 1.0, 1, 6, 2)
    space = FESpace(mesh, 0)
    cfg = ProblemConfig(j_c=np.array([0.0, 0.0, 1.0 + 0.5j]))
    op = StateOperator(mesh, space, cfg)
    rng = np.random.default_rng(7)
    z = _random_control(mesh, rng)
    u = op.solve_state(z)
    I, B = space.interior_dofs, space.boundary_dofs
    g = lift(space, z)
    assert np.array_equal(u[B], g[B])
    res = (op.A @ u - op.load)[I]
    assert np.linalg.norm(res) / np.linalg.norm(op.load[I]) <= 1e-10
    # the trace of the state is the control it was driven by
    assert np.abs(tangential_trace(space, u) - z).max() <= 1e-14


@pytest.mark.parametrize("k,mesh_idx", [(0, 1), (0, 2), (1, 0)])
def test_adjoint_action_matches_an_extra_state_solve(k, mesh_idx):
    # the cheap pairing must reproduce vdot(S(z + xi) - S(z), rho)
    mesh = _meshes()[mesh_idx]
    space = FESpace(mesh, k)
    cfg = ProblemConfig(j_c=np.array([0.1, 0.0, 1.0 + 0.5j]))
    op = StateOperator(mesh, space, cfg)
    rng = np.random.default_rng(42)
    for trial in range(5):
        z = _random_control(mesh, rng)
        xi = _random_control(mesh, rng)
        rho = (rng.standard_normal(space.n_dofs)
               + 1j * rng.standard_normal(space.n_dofs))
        u = op.solve_state(z)
        du = op.solve_state(z + xi) - u
        w = op.solve_adjoint(rho)
        got = np.vdot(xi, op.adjoint_pairing(w, rho))
        want = np.vdot(du, rho)
        assert abs(got - want) / abs(want) <= 1e-9


def test_adjoint_solves_the_conjugate_transposed_system():
    mesh = generate_cube(2)
    space = FESpace(mesh, 0)
    op = StateOperator(mesh, space, ProblemConfig())
    rng = np.random.default_rng(3)
    rho = (rng.standard_normal(space.n_dofs)
           + 1j * rng.standard_normal(space.n_dofs))
    w = op.solve_adjoint(rho)
    I, B = space.interior_dofs, space.boundary_dofs
    assert np.all(w[B] == 0)
    res = op.A_II.getH() @ w[I] - rho[I]
    assert np.linalg.norm(res) / np.linalg.norm(rho[I]) <= 1e-10
    # cross-check against a dense solve of the conjugate transpose
    dense = np.linalg.solve(op.A_II.getH().toarray(), rho[I])
    assert np.abs(w[I] - dense).max() / np.abs(dense).max() <= 1e-10


def test_solve_counters_track_factorization_reuse():
    mesh = generate_cube(1)
    space = FESpace(mesh, 0)
    op = StateOperator(mesh, space, ProblemConfig())
    assert (op.n_factorizations, op.n_state_solves, op.n_adjoint_solves) == (1, 0, 0)
    rng = np.random.default_rng(0)
    z = _random_control(mesh, rng)
    for _ in range(3):
        op.solve_state(z)
    rho = np.ones(space.n_dofs, dtype=complex)
    for _ in range(2):
        w = op.solve_adjoint(rho)
    op.adjoint_pairing(w, rho)
    assert (op.n_factorizations, op.n_state_solves, op.n_adjoint_solves) == (1, 3, 2)


def test_wrong_length_control_is_rejected():
    mesh = generate_cube(1)
    for k in (0, 1):
        space = FESpace(mesh, k)
        op = StateOperator(mesh, space, ProblemConfig())
        z = np.ones(mesh.n_boundary_edges + 1, dtype=complex)
        with pytest.raises(MeshError):
            lift(space, z)
        with pytest.raises(MeshError):
            op.solve_state(z)


def test_residual_check_rejects_an_unreachable_tolerance():
    # a relative residual of 1e-20 is below the float64 floor of any solve
    mesh = generate_cube(2)
    space = FESpace(mesh, 0)
    op = StateOperator(mesh, space, ProblemConfig(solver_tol=1e-20))
    rng = np.random.default_rng(13)
    with pytest.raises(SolverError):
        op.solve_state(_random_control(mesh, rng))
    rho = (rng.standard_normal(space.n_dofs)
           + 1j * rng.standard_normal(space.n_dofs))
    with pytest.raises(SolverError):
        op.solve_adjoint(rho)
    assert (op.n_state_solves, op.n_adjoint_solves) == (0, 0)


def test_generic_right_hand_sides_meet_the_residual_check():
    # seeded random data, not the optimizer's smooth right-hand sides, at
    # order 1 with the default solver_tol of 1e-10
    mesh = generate_cylinder(0.5, 1.0, 3, 18, 6)
    space = FESpace(mesh, 1)
    op = StateOperator(mesh, space, ProblemConfig())
    assert op.config.solver_tol == 1e-10
    for seed in range(3):
        rng = np.random.default_rng(seed)
        rho = (rng.standard_normal(space.n_dofs)
               + 1j * rng.standard_normal(space.n_dofs))
        op.solve_adjoint(rho)
        op.solve_dirichlet(np.zeros(space.n_dofs, dtype=complex), f=rho)
    assert (op.n_state_solves, op.n_adjoint_solves) == (3, 3)
    assert 0.0 < op.max_residual <= op.config.solver_tol


def test_symmetric_factor_halves_the_default_fill():
    mesh = generate_cylinder(0.5, 1.0, 2, 12, 4)
    op = StateOperator(mesh, FESpace(mesh, 1), ProblemConfig())
    assert 2 * op.lu.nnz <= spla.splu(op.A_II).nnz


def test_factor_without_pivoting_needs_only_a_definite_imaginary_part():
    # omega M is definite for either sign of omega, which is all the
    # diagonal-pivot elimination relies on
    mesh = generate_cylinder(0.5, 1.0, 2, 12, 4)
    space = FESpace(mesh, 1)
    op = StateOperator(mesh, space, ProblemConfig(
        omega=-1.0, j_c=np.array([0.0, 0.0, 1.0 + 0.5j])))
    rng = np.random.default_rng(5)
    op.solve_state(_random_control(mesh, rng))
    op.solve_adjoint(rng.standard_normal(space.n_dofs)
                     + 1j * rng.standard_normal(space.n_dofs))
    assert 0.0 < op.max_residual <= op.config.solver_tol


def test_dirichlet_solution_superposes_boundary_and_load_parts():
    mesh = generate_cube(2)
    space = FESpace(mesh, 0)
    op = StateOperator(mesh, space, ProblemConfig())  # zero default load
    rng = np.random.default_rng(11)
    g = rng.standard_normal(space.n_dofs) + 1j * rng.standard_normal(space.n_dofs)
    f = rng.standard_normal(space.n_dofs) + 1j * rng.standard_normal(space.n_dofs)
    both = op.solve_dirichlet(g, f)
    from_g = op.solve_dirichlet(g)
    from_f = op.solve_dirichlet(np.zeros(space.n_dofs, dtype=complex), f)
    assert np.abs(both - from_g - from_f).max() <= 1e-11 * np.abs(both).max()


_CUBE = generate_cube(1)
_SPACE = FESpace(_CUBE, 0)
_OP = StateOperator(_CUBE, _SPACE, ProblemConfig())
_RNG = np.random.default_rng(19)
_Z1 = _random_control(_CUBE, _RNG)
_Z2 = _random_control(_CUBE, _RNG)


@settings(max_examples=25, deadline=None)
@given(
    c1=st.complex_numbers(min_magnitude=0, max_magnitude=10,
                          allow_nan=False, allow_infinity=False),
    c2=st.complex_numbers(min_magnitude=0, max_magnitude=10,
                          allow_nan=False, allow_infinity=False),
)
def test_state_map_is_linear_in_the_control(c1, c2):
    # with zero volume load the control-to-state map is linear
    combo = _OP.solve_state(c1 * _Z1 + c2 * _Z2)
    parts = c1 * _OP.solve_state(_Z1) + c2 * _OP.solve_state(_Z2)
    scale = max(np.abs(parts).max(), 1.0)
    assert np.abs(combo - parts).max() <= 1e-11 * scale


def test_zero_control_zero_load_gives_zero_state():
    mesh = generate_cube(1)
    space = FESpace(mesh, 1)
    op = StateOperator(mesh, space, ProblemConfig())
    u = op.solve_state(zeros_control(mesh))
    assert np.abs(u).max() == 0.0
