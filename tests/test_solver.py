"""Factorized state/adjoint solver: exactness, duality, instrumentation."""

import itertools
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import maximum_bipartite_matching

from eddyopt.mesh import (
    MeshError, generate_cube, generate_cylinder, parse_msh, write_msh)
from eddyopt.analytic import (
    ElectrodeParams, exact_H, exact_J, exact_curl_H)
from eddyopt import nedelec
from eddyopt.nedelec import (
    FESpace, ProblemConfig, assemble, assemble_load, hcurl_error, interpolate)
from eddyopt.solver import (
    LEAF, MAX_REFINEMENTS, SolverError, StateOperator, _dof_points, _graph, _nested_dissection,
    _vertex_cover)
from eddyopt.trace import lift
from oracles import tangential_trace


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
    res = (assemble(mesh, space, cfg) @ u - op.load)[I]
    assert np.linalg.norm(res) / np.linalg.norm(op.load[I]) <= 1e-10
    # the trace of the state is the control it was driven by
    assert np.abs(tangential_trace(space, u) - z).max() <= 1e-14


@pytest.mark.parametrize("k, quad_order", [(0, 6), (1, 2)])
def test_load_takes_the_degree_of_quad_order(k, quad_order):
    # j_c is integrated two degrees above the state's rule, as u_d is
    mesh = generate_cylinder(0.5, 1.0, 1, 6, 2)
    space = FESpace(mesh, k)
    el = ElectrodeParams()
    j_c = lambda x: exact_J(x, el)
    op = StateOperator(mesh, space, ProblemConfig(j_c=j_c, quad_order=quad_order))
    assert np.array_equal(op.load,
                          assemble_load(mesh, space, j_c, quad_order + 2))


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


@pytest.mark.parametrize("k", [0, 1])
def test_adjoint_is_the_conjugate_of_a_forward_solve(k):
    # A_II is bitwise complex symmetric, so the adjoint solve is one
    # forward solve of the conjugated data, conjugated back
    mesh = generate_cylinder(0.5, 1.0, 1, 6, 2)
    space = FESpace(mesh, k)
    op = StateOperator(mesh, space, ProblemConfig(omega=2.0, kappa=3.0))
    assert (op.A_II != op.A_II.T).nnz == 0
    rng = np.random.default_rng(5)
    rho = (rng.standard_normal(space.n_dofs)
           + 1j * rng.standard_normal(space.n_dofs))
    I = space.interior_dofs
    forward = op.solve_dirichlet(np.zeros(space.n_dofs), f=np.conj(rho))
    assert np.array_equal(op.solve_adjoint(rho)[I], np.conj(forward[I]))


def test_solve_counters_track_factorization_reuse():
    mesh = generate_cube(1)
    space = FESpace(mesh, 0)
    op = StateOperator(mesh, space, ProblemConfig())
    assert (op.n_state_solves, op.n_adjoint_solves) == (0, 0)
    rng = np.random.default_rng(0)
    z = _random_control(mesh, rng)
    for _ in range(3):
        op.solve_state(z)
    rho = np.ones(space.n_dofs, dtype=complex)
    for _ in range(2):
        w = op.solve_adjoint(rho)
    op.adjoint_pairing(w, rho)
    assert (op.n_state_solves, op.n_adjoint_solves) == (3, 2)


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
    # a relative residual of 1e-20 is below the float64 floor of any solve:
    # each solve refines MAX_REFINEMENTS times, then raises
    mesh = generate_cube(2)
    space = FESpace(mesh, 0)
    op = StateOperator(mesh, space, ProblemConfig(solver_tol=1e-20))
    rng = np.random.default_rng(13)
    start = time.perf_counter()
    with pytest.raises(SolverError, match=f"after {MAX_REFINEMENTS} "):
        op.solve_state(_random_control(mesh, rng))
    rho = (rng.standard_normal(space.n_dofs)
           + 1j * rng.standard_normal(space.n_dofs))
    with pytest.raises(SolverError):
        op.solve_adjoint(rho)
    assert time.perf_counter() - start < 10.0
    assert (op.n_state_solves, op.n_adjoint_solves) == (0, 0)
    assert op.n_refinements == 2 * op.max_refinements == 2 * MAX_REFINEMENTS
    assert 0.0 < op.max_residual


@pytest.mark.parametrize("k", [0, 1])
def test_single_precision_factor_is_refined_to_the_tolerance(k):
    # a criterion-1 level (2x12x4): the default complex64 factor needs at
    # least one refinement step to reach solver_tol, and then gives the
    # complex128 factor's H(curl) error; the complex128 factor never refines
    el = ElectrodeParams()
    mesh = generate_cylinder(el.R, el.L, 2, 12, 4)
    space = FESpace(mesh, k)
    cfg = ProblemConfig(mu=1.0 / el.sigma, kappa=el.mu, omega=el.omega)
    exact, curl = (lambda x: exact_H(x, el)), (lambda x: exact_curl_H(x, el))
    g = interpolate(space, exact)
    single = StateOperator(mesh, space, cfg)
    double = StateOperator(mesh, space, cfg, factor_dtype=np.complex128)
    err = [hcurl_error(space, op.solve_dirichlet(g), exact, curl)
           for op in (single, double)]
    assert single.factor_dtype == np.complex64
    assert 1 <= single.n_refinements == single.max_refinements
    assert (double.n_refinements, double.max_refinements) == (0, 0)
    for op in (single, double):
        assert 0.0 < op.max_residual <= cfg.solver_tol
    assert abs(err[0] - err[1]) <= 1e-9 * err[1]


def test_data_far_outside_single_precision_solve_exactly_to_scale():
    # each right-hand side enters the complex64 factor scaled by a power of
    # two, so data whose entries complex64 cannot hold solve as well, and
    # bitwise to scale
    mesh = generate_cube(2)
    op = StateOperator(mesh, FESpace(mesh, 0), ProblemConfig())
    z = _random_control(mesh, np.random.default_rng(29))
    u = op.solve_state(z)
    for c in (2.0 ** -160, 2.0 ** 160):  # about 7e-49 and 1e48
        assert np.array_equal(op.solve_state(c * z), c * u)


@pytest.mark.parametrize("bad", ["j_c", "control", "adjoint"])
def test_non_finite_data_fails_the_residual_check(bad):
    # a NaN residual is not <= solver_tol; the record stays finite for the
    # strict-JSON summary
    mesh = generate_cube(2)
    space = FESpace(mesh, 0)
    j_c = np.array([0.0, np.nan, 1.0]) if bad == "j_c" else None
    op = StateOperator(mesh, space, ProblemConfig(j_c=j_c))
    z = _random_control(mesh, np.random.default_rng(3))
    rho = np.ones(space.n_dofs, dtype=complex)
    if bad == "control":
        z[0] = np.nan
    if bad == "adjoint":
        rho[space.interior_dofs[0]] = np.nan
    with pytest.raises(SolverError):
        op.solve_adjoint(rho) if bad == "adjoint" else op.solve_state(z)
    assert (op.n_state_solves, op.n_adjoint_solves) == (0, 0)
    assert op.max_residual == 0.0


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


def test_nested_dissection_cuts_the_minimum_degree_fill():
    # the forward benchmark's block (4.35M nonzeros under minimum degree,
    # 2.29M in nested dissection) and the order-1 optimize benchmark's
    # (4.53M against 3.39M)
    for k, divisions, ratio in [(0, (5, 30, 10), 0.6), (1, (3, 18, 6), 0.8)]:
        mesh = generate_cylinder(0.5, 1.0, *divisions)
        op = StateOperator(mesh, FESpace(mesh, k), ProblemConfig())
        mmd = spla.splu(op.A_II, permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True})
        assert op.lu.nnz <= ratio * mmd.nnz


@pytest.mark.parametrize("k", [0, 1])
def test_nested_dissection_is_a_reproducible_permutation(k):
    # the benchmark fails a run whose jobs' factors differ in fill
    mesh = generate_cylinder(0.5, 1.0, 2, 12, 4)
    space = FESpace(mesh, k)
    op = StateOperator(mesh, space, ProblemConfig())
    assert np.array_equal(np.sort(op.perm), np.arange(op.A_II.shape[0]))
    again = _nested_dissection(_dof_points(space)[space.interior_dofs],
                               op.A_II)
    assert np.array_equal(again, op.perm)


@st.composite
def _bipartite(draw, max_side):
    # edges lower -> upper on nodes 0 .. k-1, the two sides interleaved
    a, b = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    pairs = st.tuples(st.integers(0, a - 1), st.integers(0, b - 1))
    edges = sorted(draw(st.sets(pairs))) if a and b else []
    ids = np.array(draw(st.permutations(range(a + b))), dtype=np.intp)
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2) + [0, a]
    return ids[ends[:, 0]], ids[ends[:, 1]], a + b


def _cover(lower, upper, k):
    mate = maximum_bipartite_matching(_graph(lower, upper, k),
                                      perm_type="column")
    return mate, _vertex_cover(lower, upper, mate)


@settings(max_examples=200, deadline=None)
@given(graph=_bipartite(30))
def test_vertex_cover_covers_every_edge_with_the_matching_size(graph):
    lower, upper, k = graph
    mate, cover = _cover(lower, upper, k)
    assert cover.shape == (k,)
    assert np.all(cover[lower] | cover[upper])
    assert cover.sum() == np.count_nonzero(mate >= 0)


@settings(max_examples=200, deadline=None)
@given(graph=_bipartite(5))
def test_vertex_cover_is_a_minimum_cover(graph):
    # brute force over every node set of the (at most 10) nodes
    lower, upper, k = graph
    _, cover = _cover(lower, upper, k)
    smallest = min(len(s) for n in range(k + 1)
                   for s in itertools.combinations(range(k), n)
                   if all(u in s or v in s for u, v in zip(lower, upper)))
    assert cover.sum() == smallest


@pytest.mark.parametrize("k", [0, 5])
def test_no_crossing_edges_give_an_empty_cover(k):
    none = np.zeros(0, dtype=np.intp)
    cover = _vertex_cover(none, none, np.full(k, -1))
    assert cover.shape == (k,) and not cover.any()


def _path(n):
    # pattern of a path graph with its diagonal
    return sp.diags([np.ones(n - 1), np.ones(n), np.ones(n - 1)],
                    [-1, 0, 1], format="csc")


@pytest.mark.parametrize("n", [1, LEAF, 40])
def test_unsplittable_points_are_one_leaf(n):
    # coincident points split along no axis, and LEAF dofs are not split:
    # either way the order is the input order
    x = np.zeros((n, 3)) if n > LEAF else np.random.default_rng(n).random(
        (n, 3))
    assert np.array_equal(_nested_dissection(x, _path(n)), np.arange(n))


def test_points_on_a_line_split_at_their_median():
    # y and z are shared and cannot split; along x the lower median point
    # 19 is the smallest separator and is ordered last, after both halves
    n = 40
    x = np.zeros((n, 3))
    x[:, 0] = np.arange(n)
    p = _nested_dissection(x, _path(n))
    assert np.array_equal(np.sort(p), np.arange(n))
    assert p[-1] == 19 and set(p[:19]) == set(range(19))


def test_mesh_read_back_from_msh_gives_the_same_state():
    mesh = generate_cylinder(0.5, 1.0, 2, 12, 4)
    back = parse_msh(write_msh(mesh))
    cfg = ProblemConfig(j_c=np.array([0.1, 0.0, 1.0 + 0.5j]))
    z = _random_control(mesh, np.random.default_rng(23))
    for k in (0, 1):
        u, v = (StateOperator(m, FESpace(m, k), cfg).solve_state(z)
                for m in (mesh, back))
        assert np.linalg.norm(v - u) <= 1e-12 * np.linalg.norm(u)


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
    u = op.solve_state(np.zeros(mesh.n_boundary_edges, dtype=complex))
    assert np.abs(u).max() == 0.0


# StateOperator sets up on the calling thread: it assembles, orders and
# builds the j_c load, then factors A_II, and starts no thread.


@pytest.mark.parametrize("k", [0, 1])
def test_worker_load_and_factor_equal_direct_calls(k):
    mesh = generate_cylinder(0.5, 1.0, 1, 6, 2)
    space = FESpace(mesh, k)
    cfg = ProblemConfig(j_c=np.array([0.1, 0.0, 1.0 + 0.5j]), quad_order=3)
    start = threading.active_count()
    op = StateOperator(mesh, space, cfg)
    assert threading.active_count() == start
    I = space.interior_dofs
    assert np.array_equal(op.load, assemble_load(mesh, space, cfg.j_c, 5))
    p = _nested_dissection(_dof_points(space)[I], op.A_II)
    assert np.array_equal(op.perm, p)
    lu = spla.splu(op.A_II[p][:, p], permc_spec="NATURAL",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    assert op.lu.nnz == lu.nnz


def _record_load_then_factor(monkeypatch, splu=spla.splu):
    """Patch the load and the factor to append "load" and "factor" to the
    returned list when each returns or starts; splu replaces the factor.
    The load is slowed, so a factor run alongside it would start first."""
    events, load = [], nedelec._load

    def recording_load(*args):
        out = load(*args)
        time.sleep(0.02)
        events.append("load")
        return out

    def recording_splu(*args, **kwargs):
        events.append("factor")
        return splu(*args, **kwargs)
    monkeypatch.setattr(nedelec, "_load", recording_load)
    monkeypatch.setattr(spla, "splu", recording_splu)
    return events


def test_load_is_built_before_the_block_is_factored(monkeypatch):
    # the j_c load is complete when the factor starts, so no load
    # transient is live while the factor grows
    events = _record_load_then_factor(monkeypatch)
    mesh = generate_cube(2)
    op = StateOperator(mesh, FESpace(mesh, 0),
                       ProblemConfig(j_c=np.array([0.0, 0.0, 1.0])))
    assert events == ["load", "factor"]
    assert op.load.any()


def test_a_failed_factor_raises_solver_error_after_the_load(monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")
    events = _record_load_then_factor(monkeypatch, singular)
    mesh = generate_cube(1)
    with pytest.raises(SolverError, match="singular interior block: Factor"):
        StateOperator(mesh, FESpace(mesh, 0), ProblemConfig())
    assert events == ["load", "factor"]

