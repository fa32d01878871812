"""Quadrature rules on the reference simplices.

All rules are built by conical products of one-dimensional Gauss rules
(Gauss-Legendre and Gauss-Jacobi), so exactness up to the requested
polynomial degree holds by construction and no tabulated point sets are
needed. Reference domains:

    edge:     [0, 1]
    triangle: {(x, y) : x, y >= 0, x + y <= 1}
    tet:      {(x, y, z) : x, y, z >= 0, x + y + z <= 1}
"""

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


def triangle_rule(degree):
    """Conical-product rule on the reference triangle, exact to `degree`.

    Returns (points (m, 2), weights (m,)); weights sum to 1/2.
    """
    n = max(1, (int(degree) + 2) // 2)
    u, wu = _jacobi_01(n, 1.0)
    v, wv = gauss_01(n)
    U, V = np.meshgrid(u, v, indexing="ij")
    x = U
    y = V * (1.0 - U)
    w = np.outer(wu, wv)
    pts = np.stack([x.ravel(), y.ravel()], axis=1)
    return pts, w.ravel()


def tet_rule(degree):
    """Conical-product rule on the reference tetrahedron, exact to `degree`.

    Returns (points (m, 3), weights (m,)); weights sum to 1/6.
    """
    n = max(1, (int(degree) + 2) // 2)
    u, wu = _jacobi_01(n, 2.0)
    v, wv = _jacobi_01(n, 1.0)
    s, ws = gauss_01(n)
    U, V, S = np.meshgrid(u, v, s, indexing="ij")
    x = U
    y = V * (1.0 - U)
    z = S * (1.0 - U) * (1.0 - V)
    w = wu[:, None, None] * wv[None, :, None] * ws[None, None, :]
    pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    return pts, w.ravel()


def map_to_triangles(verts, pts):
    """Push reference-triangle points onto physical triangles.

    verts: (..., 3, d) triangle vertices; pts: (m, 2) reference points.
    Returns points (..., m, d) and the per-triangle area measure (...,)
    such that integral ~= area_measure * sum_q w_q f(x_q) with the
    reference weights (which sum to 1/2, so area_measure = 2 * area).
    """
    verts = np.asarray(verts, dtype=float)
    p0 = verts[..., 0, :]
    e1 = verts[..., 1, :] - p0
    e2 = verts[..., 2, :] - p0
    x = (p0[..., None, :]
         + pts[:, 0, None] * e1[..., None, :]
         + pts[:, 1, None] * e2[..., None, :])
    cr = np.cross(e1, e2)
    if verts.shape[-1] == 3:
        jac = np.linalg.norm(cr, axis=-1)
    else:
        jac = np.abs(cr)
    return x, jac


def map_to_tets(verts, pts):
    """Push reference-tet points onto physical tets.

    verts: (..., 4, 3); pts: (m, 3). Returns points (..., m, 3) and the
    absolute Jacobian determinant (...,) = 6 * volume.
    """
    verts = np.asarray(verts, dtype=float)
    p0 = verts[..., :1, :]
    edges = verts[..., 1:, :] - p0  # rows e1, e2, e3
    x = p0 + pts @ edges
    e1, e2, e3 = np.moveaxis(edges, -2, 0)
    jac = np.abs(np.einsum("...i,...i->...", e1, np.cross(e2, e3)))
    return x, jac
