"""Quadrature rules: exactness against closed-form monomial integrals.

The oracle is the factorial formula on the unit simplex:
  triangle: int x^a y^b dA           = a! b! / (a+b+2)!
  tet:      int x^a y^b z^c dV       = a! b! c! / (a+b+c+3)!
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eddyopt.quadrature import gauss_01, simplex_rule
from oracles import conical_rule, map_to_tets

SYMMETRIC_POINTS = {2: 4, 4: 14, 5: 14, 6: 24}  # tet degree: points


def tri_monomial(a, b):
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def tet_monomial(a, b, c):
    return (math.factorial(a) * math.factorial(b) * math.factorial(c)
            / math.factorial(a + b + c + 3))


def test_gauss_01_integrates_polynomials():
    for n in range(1, 9):
        x, w = gauss_01(n)
        assert abs(w.sum() - 1.0) < 1e-14
        for d in range(2 * n):
            exact = 1.0 / (d + 1)
            assert abs((w * x**d).sum() - exact) < 1e-14 * (d + 1)


@pytest.mark.parametrize("dim", [2, 3])
def test_simplex_rule_weights_and_support(dim):
    # weights sum to the simplex's measure 1/dim!, and every point lies in it
    for deg in range(0, 11):
        pts, w = simplex_rule(dim, deg)
        assert pts.shape == (len(w), dim)
        assert abs(w.sum() - 1.0 / math.factorial(dim)) < 1e-14
        assert np.all(w > 0.0)
        assert np.all(pts >= -1e-14)
        assert np.all(pts.sum(axis=1) <= 1 + 1e-14)


def test_triangle_rule_monomial_exactness():
    for deg in range(0, 11):
        pts, w = simplex_rule(2, deg)
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                got = (w * pts[:, 0]**a * pts[:, 1]**b).sum()
                assert got == pytest.approx(tri_monomial(a, b), abs=1e-15)


def test_tet_rule_monomial_exactness():
    for deg in range(0, 9):
        pts, w = simplex_rule(3, deg)
        assert abs(w.sum() - 1.0 / 6.0) < 1e-14
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                for c in range(deg + 1 - a - b):
                    got = (w * pts[:, 0]**a * pts[:, 1]**b * pts[:, 2]**c).sum()
                    assert got == pytest.approx(tet_monomial(a, b, c),
                                                abs=1e-15)


@pytest.mark.parametrize("degree", sorted(SYMMETRIC_POINTS))
def test_symmetric_tet_rules_are_fixed_by_every_vertex_permutation(degree):
    # permuting the barycentric coordinates maps each point onto a point
    # of the same weight, one to one, for all 24 permutations
    pts, w = simplex_rule(3, degree)
    assert len(w) == SYMMETRIC_POINTS[degree]
    assert pts.min() > 0.0 and pts.sum(axis=1).max() < 1.0  # interior
    bary = np.column_stack([1.0 - pts.sum(axis=1), pts])
    for perm in itertools.permutations(range(4)):
        moved = bary[:, perm][:, 1:]
        dist = np.abs(moved[:, None] - pts[None]).max(axis=-1)
        match = dist.argmin(axis=1)
        assert np.array_equal(np.sort(match), np.arange(len(w)))
        assert dist.min(axis=1).max() <= 1e-15
        assert np.abs(w[match] - w).max() <= 1e-15


@pytest.mark.parametrize("dim, degree", [(3, d) for d in (0, 1, 3, 7, 8)]
                         + [(2, d) for d in range(11)])
def test_untabulated_rules_are_the_conical_product_bitwise(dim, degree):
    pts, w = simplex_rule(dim, degree)
    want_pts, want_w = conical_rule(dim, degree)
    assert pts.tobytes() == want_pts.tobytes()
    assert w.tobytes() == want_w.tobytes()


@pytest.mark.parametrize("dim, degree", [(2, 4), (3, 3), (3, 4), (3, 6)])
def test_returned_rules_are_read_only(dim, degree):
    # one rule per (dim, degree) is shared by every caller in the process
    pts, w = simplex_rule(dim, degree)
    assert simplex_rule(dim, degree)[0] is pts
    with pytest.raises(ValueError):
        pts[0, 0] = 0.5
    with pytest.raises(ValueError):
        w *= 2.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8))
def test_triangle_rule_random_monomials(a, b):
    deg = a + b
    pts, w = simplex_rule(2, deg)
    got = (w * pts[:, 0]**a * pts[:, 1]**b).sum()
    assert got == pytest.approx(tri_monomial(a, b), rel=1e-13, abs=1e-16)


def test_map_to_tets_volume_jacobian():
    verts = np.array([[[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    pts_ref, w = simplex_rule(3, 2)
    phys, jac = map_to_tets(verts, pts_ref)
    assert jac[0] == pytest.approx(1.0)  # 6 * volume of unit simplex
    assert (w * jac[0]).sum() == pytest.approx(1.0 / 6.0)
    x = phys[0, :, 0]
    assert (w * x * jac[0]).sum() == pytest.approx(tet_monomial(1, 0, 0))


def test_map_to_tets_one_product_matches_the_edge_sum():
    # the points are p0 + sum_i pts_i e_i to round-off, and the Jacobian
    # is the triple product of the same edges, bit for bit
    rng = np.random.default_rng(3)
    verts = rng.uniform(-5.0, 5.0, (300, 4, 3))
    pts_ref, _ = simplex_rule(3, 4)
    phys, jac = map_to_tets(verts, pts_ref)
    p0 = verts[:, 0]
    e1, e2, e3 = (verts[:, i] - p0 for i in (1, 2, 3))
    want = (p0[:, None] + pts_ref[:, 0, None] * e1[:, None]
            + pts_ref[:, 1, None] * e2[:, None]
            + pts_ref[:, 2, None] * e3[:, None])
    assert phys.shape == want.shape
    assert np.abs(phys - want).max() <= 4e-16 * np.abs(want).max()
    want_jac = np.abs(np.einsum("...i,...i->...", e1, np.cross(e2, e3)))
    assert jac.tobytes() == want_jac.tobytes()
