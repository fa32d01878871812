"""Quadrature rules on the reference simplices.

The tet rules of degrees 2, 4, 5 and 6 are fully symmetric: they are
tabulated as orbits of the barycentric coordinates under the 24 vertex
permutations (Keast, *Moderate-degree tetrahedral quadrature formulas*,
CMAME 55, 1986), with 4, 14, 14 and 24 points, all weights positive and
all points interior. Every other rule is one conical product of
one-dimensional Gauss rules (Gauss-Jacobi and Gauss-Legendre; Stroud,
*Approximate Calculation of Multiple Integrals*, 1971), exact to the
requested degree by construction: the triangle's at every degree and the
tet's at degrees 0-1, 3 and 7 and above. Each (dim, degree) has one
rule, built once per process and returned as read-only arrays.
Reference domains:

    edge:     [0, 1]
    triangle: {(x, y) : x, y >= 0, x + y <= 1}
    tet:      {(x, y, z) : x, y, z >= 0, x + y + z <= 1}
"""

from functools import cache, reduce
from itertools import permutations

import numpy as np
from scipy.special import roots_jacobi

# Orbits of the symmetric tet rules, by degree: (barycentric generator,
# weight per point). S31 is (a, a, a, 1 - 3a), S22 (a, a, 1/2 - a, 1/2 - a)
# and S211 (a, a, b, 1 - 2a - b); the weights sum to 1/6.
_S31 = lambda a: (a, a, a, 1.0 - 3.0 * a)
_S22 = lambda a: (a, a, 0.5 - a, 0.5 - a)
_S211 = lambda a, b: (a, a, b, 1.0 - 2.0 * a - b)
_FOURTEEN = ((_S31(0.092735250310891207), 0.01224884051939366),
             (_S31(0.31088591926330061), 0.018781320953002639),
             (_S22(0.045503704125649601), 0.0070910034628469112))
_SYMMETRIC_TET = {
    2: ((_S31(0.1381966011250105), 1.0 / 24.0),),
    4: _FOURTEEN,
    5: _FOURTEEN,
    6: ((_S31(0.21460287125915167), 0.0066537917096946451),
        (_S31(0.040673958534611337), 0.0016795351758867763),
        (_S31(0.32233789014227565), 0.009226196923942399),
        (_S211(0.063661001875017525, 0.26967233145831587), 9.0 / 1120.0)),
}


def gauss_01(n):
    """n-point Gauss-Legendre rule on [0, 1], exact to degree 2n - 1."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _jacobi_01(n, alpha):
    # Gauss-Jacobi on [0,1] with weight (1 - x)^alpha, mapped from [-1,1].
    x, w = roots_jacobi(n, alpha, 0.0)
    return 0.5 * (x + 1.0), w / 2.0 ** (alpha + 1)


def _conical(dim, degree):
    # collapsed coordinates u_0, ..., u_{dim-1}: Gauss-Jacobi rules with
    # alpha = dim - 1, ..., 1, then Gauss-Legendre; coordinate i is
    # u_i (1 - u_0) ... (1 - u_{i-1})
    n = max(1, (degree + 2) // 2)
    rules = [_jacobi_01(n, float(a)) for a in range(dim - 1, 0, -1)]
    rules.append(gauss_01(n))
    grids = np.meshgrid(*(u for u, _ in rules), indexing="ij")
    coords = []
    for i, x in enumerate(grids):
        for u in grids[:i]:
            x = x * (1.0 - u)
        coords.append(x.ravel())
    w = reduce(np.multiply.outer, (w for _, w in rules))
    return np.stack(coords, axis=1), w.ravel()


def _symmetric(orbits):
    # every distinct permutation of each generator; the point is the last
    # three barycentric coordinates (those of vertices 1, 2, 3)
    pts, w = [], []
    for bary, weight in orbits:
        orbit = sorted(set(permutations(bary)))
        pts += [p[1:] for p in orbit]
        w += [weight] * len(orbit)
    return np.array(pts), np.array(w)


@cache
def simplex_rule(dim, degree):
    """Rule on the reference triangle (dim 2) or tet (dim 3), exact to
    `degree`: the symmetric tet rule where one is tabulated, the conical
    product otherwise. Returns read-only (points (m, dim), weights (m,)),
    the same arrays on every call; the weights sum to 1/2 (triangle) or
    1/6 (tet).
    """
    degree = int(degree)
    orbits = _SYMMETRIC_TET.get(degree) if dim == 3 else None
    pts, w = _conical(dim, degree) if orbits is None else _symmetric(orbits)
    for a in (pts, w):
        a.flags.writeable = False
    return pts, w
