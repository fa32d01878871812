"""Invariances of the discrete optimum and of the forward error.

A bias that every level of a refinement study shares (in the adjoint
sign, the lifting, M_c or the frame of the reference element) passes a
comparison of each level with the finest. It cannot pass these: the
optimum J* from z = 0 with u_d the rod field, the gradient at a fixed
control and the H(curl) error of the interpolated Dirichlet solve must
not depend on how the mesh is numbered, turned about the rod's axis or
how each tet lists its vertices.
"""

from functools import cache, partial

import numpy as np
import pytest

from eddyopt.analytic import ElectrodeParams, exact_curl_H, exact_H
from eddyopt.mesh import build_mesh, generate_cylinder
from eddyopt.nedelec import FESpace, ProblemConfig, hcurl_error, interpolate
from eddyopt.solver import StateOperator
from eddyopt.wirtinger import ReducedProblem, bfgs_minimize

EL = ElectrodeParams()
EXACT = partial(exact_H, params=EL)
CASES = {0: (2, 12, 4), 1: (1, 8, 2)}  # order: cylinder divisions
ANGLE = 0.7


def _relabelled(mesh, seed=11):
    """(mesh, new id of each old vertex), the tets in a random order."""
    rng = np.random.default_rng(seed)
    new = rng.permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[new] = mesh.vertices
    order = rng.permutation(mesh.n_tets)
    return build_mesh(vertices, new[mesh.tets][order]), new


def _rotated(mesh):
    c, s = np.cos(ANGLE), np.sin(ANGLE)
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return build_mesh(mesh.vertices @ turn.T, mesh.tets)


def _swapped(mesh):
    return build_mesh(mesh.vertices, mesh.tets[:, [1, 0, 2, 3]])


def _control_map(mesh, other, new):
    """(index, sign): boundary edge i of mesh is boundary edge index[i] of
    other, whose vertex ids are new[...] of mesh's, with sign -1 where its
    ascending direction turned."""
    ends = new[mesh.edges[mesh.boundary_edges]]
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    keys = lambda a, b: a * other.n_vertices + b
    theirs = other.edges[other.boundary_edges]
    index = np.searchsorted(keys(theirs[:, 0], theirs[:, 1]), keys(lo, hi))
    assert np.array_equal(keys(*theirs[index].T), keys(lo, hi))
    return index, np.where(ends[:, 0] < ends[:, 1], 1.0, -1.0)


def _config(**extra):
    return ProblemConfig(mu=1.0 / EL.sigma, kappa=EL.mu, omega=EL.omega,
                         **extra)


@cache
def _mesh(k, variant):
    base = generate_cylinder(EL.R, EL.L, *CASES[k])
    if variant == "base":
        return base, np.arange(base.n_vertices)
    if variant == "relabelled":
        return _relabelled(base)
    make = {"rotated": _rotated, "swapped": _swapped}[variant]
    return make(base), np.arange(base.n_vertices)


@cache
def _problem(k, variant):
    mesh = _mesh(k, variant)[0]
    return ReducedProblem(mesh, FESpace(mesh, k),
                          _config(u_d=EXACT, alpha=1e-3))


@cache
def _optimum(k, variant):
    """(J*, evaluations) of the run from z = 0."""
    problem = _problem(k, variant)
    start = problem.n_evaluations
    z0 = np.zeros(problem.op.space.mesh.n_boundary_edges, dtype=complex)
    history = bfgs_minimize(problem.cost_and_gradient, z0)[1]
    return history[-1].J, problem.n_evaluations - start


def _forward_error(k, variant):
    mesh = _mesh(k, variant)[0]
    space = FESpace(mesh, k)
    # a complex128 factor: the refined complex64 one stops anywhere under
    # solver_tol, which moves the error by up to 3e-13 between numberings
    op = StateOperator(mesh, space, _config(), factor_dtype=np.complex128)
    u = op.solve_dirichlet(interpolate(space, EXACT))
    return hcurl_error(space, u, EXACT, partial(exact_curl_H, params=EL))


@pytest.mark.parametrize("k", sorted(CASES))
def test_relabelling_moves_the_optimum_and_the_error_by_round_off(k):
    (J, _), (J_new, _) = _optimum(k, "base"), _optimum(k, "relabelled")
    assert abs(J_new - J) <= 1e-12 * J
    err, err_new = _forward_error(k, "base"), _forward_error(k, "relabelled")
    assert abs(err_new - err) <= 1e-12 * err


@pytest.mark.parametrize("k", sorted(CASES))
def test_relabelling_maps_the_gradient_by_the_edge_permutation(k):
    # z' = S z with S the signed boundary-edge permutation: J(z) = J'(z')
    # and G' = S G
    mesh = _mesh(k, "base")[0]
    other, new = _mesh(k, "relabelled")
    index, sign = _control_map(mesh, other, new)
    rng = np.random.default_rng(4)
    z = 0.1 * (rng.standard_normal(len(index))
               + 1j * rng.standard_normal(len(index)))
    z_new = np.empty_like(z)
    z_new[index] = sign * z
    rep, G = _problem(k, "base").cost_and_gradient(z)
    rep_new, G_new = _problem(k, "relabelled").cost_and_gradient(z_new)
    assert abs(rep_new.J - rep.J) <= 1e-12 * rep.J
    assert (np.linalg.norm(G_new[index] - sign * G)
            <= 1e-12 * np.linalg.norm(G))


@pytest.mark.parametrize("k", sorted(CASES))
def test_turning_about_the_axis_keeps_the_optimum(k):
    # the rod field turns with the mesh, so the problem is the same
    (J, n), (J_turned, n_turned) = _optimum(k, "base"), _optimum(k, "rotated")
    assert abs(J_turned - J) <= 1e-12 * J
    assert n_turned == n


@pytest.mark.parametrize("k", sorted(CASES))
def test_swapping_two_vertices_of_every_tet_keeps_the_optimum_bitwise(k):
    # build_mesh restores each tet's orientation, and the element frame is
    # the ascending vertex order, so nothing downstream can differ
    swapped, base = _mesh(k, "swapped")[0], _mesh(k, "base")[0]
    assert swapped.orientation_fixes == base.n_tets
    assert _optimum(k, "swapped") == _optimum(k, "base")
