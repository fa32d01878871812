"""Quadrature rules on the reference simplices.

One conical product of one-dimensional Gauss rules (Gauss-Jacobi and
Gauss-Legendre; Stroud, *Approximate Calculation of Multiple Integrals*,
1971) gives the rule on either reference simplex, so exactness up to the
requested polynomial degree holds by construction and no tabulated point
sets are needed. Reference domains:

    edge:     [0, 1]
    triangle: {(x, y) : x, y >= 0, x + y <= 1}
    tet:      {(x, y, z) : x, y, z >= 0, x + y + z <= 1}
"""

from functools import reduce

import numpy as np
from scipy.special import roots_jacobi


def gauss_01(n):
    """n-point Gauss-Legendre rule on [0, 1], exact to degree 2n - 1."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _jacobi_01(n, alpha):
    # Gauss-Jacobi on [0,1] with weight (1 - x)^alpha, mapped from [-1,1].
    x, w = roots_jacobi(n, alpha, 0.0)
    return 0.5 * (x + 1.0), w / 2.0 ** (alpha + 1)


def simplex_rule(dim, degree):
    """Conical-product rule on the reference triangle (dim 2) or tet
    (dim 3), exact to `degree`.

    The collapsed coordinates u_0, ..., u_{dim-1} take Gauss-Jacobi rules
    with alpha = dim - 1, ..., 1 and then Gauss-Legendre; coordinate i is
    u_i (1 - u_0) ... (1 - u_{i-1}). Returns (points (m, dim), weights
    (m,)); the weights sum to 1/2 (triangle) or 1/6 (tet).
    """
    n = max(1, (int(degree) + 2) // 2)
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

