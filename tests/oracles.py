"""Reference routines the tests compare the package against.

No command, demo or bench job needs these; each is computed from its own
formula, or from the expanded element basis, rather than by the code path
it checks. Tests import them with `from oracles import ...`.
"""

import numpy as np

from eddyopt.mesh import LOCAL_EDGES, LOCAL_FACES, MeshError
from eddyopt.nedelec import _edge_moments, _face_moments, _span
from eddyopt.quadrature import simplex_rule
from eddyopt.trace import _face_table, face_lambda_gradients


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


def inverted_element_basis(space, ref_pts, sl=slice(None)):
    """(phys (C, m, 3), jac (C,), Phi (C, m, S, 3), curlPhi (C, m, S, 3)),
    the element basis at the reference points mapped onto every tet in sl,
    from each tet's own moment matrix; jac = 6 * volume.

    For every tet in sl, the moments (in `space.cell_dofs` order) of the
    local span in the frame (x - center) / scale are inverted to the
    coefficients C of the dual basis Phi = span C, with curls scaled by
    1 / scale; the reference points are mapped through `space.tets`.
    """
    mesh, k = space.mesh, space.k
    tets = space.tets[sl]
    verts = mesh.vertices[tets]
    centers = verts.mean(axis=1)
    ends = verts[:, np.array(LOCAL_EDGES)]
    scales = np.linalg.norm(ends[:, :, 1] - ends[:, :, 0], axis=-1).max(axis=1)

    def span(pts, curls=False):  # pts (cells, ..., 3)
        shape = (len(pts),) + (1,) * (pts.ndim - 2) + (3,)
        loc = (pts - centers.reshape(shape)) / scales.reshape(shape[:-1] + (1,))
        return _span(k, loc, curls)

    V = _edge_moments(mesh.vertices, span, tets[:, LOCAL_EDGES], k, k + 2)
    if k:
        V = np.concatenate([V, _face_moments(mesh.vertices, span,
                                             tets[:, LOCAL_FACES], 2)], axis=-2)
    C = np.linalg.inv(V)
    phys, jac = map_to_tets(verts, ref_pts)
    Phi = np.swapaxes(span(phys) @ C[:, None], -1, -2)
    curlPhi = np.swapaxes(span(phys, True) @ C[:, None], -1, -2)
    return phys, jac, Phi, curlPhi / scales[:, None, None, None]


def boundary_edge_index(mesh, e):
    """Position of global edge id e in the boundary-edge ordering."""
    i = int(np.searchsorted(mesh.boundary_edges, e))
    if i >= mesh.boundary_edges.size or mesh.boundary_edges[i] != e:
        raise MeshError(f"edge {e} is not a boundary edge")
    return i


def _on_face(mesh, f, x, tol):
    """Whether x lies on boundary face f, to within tol."""
    verts = mesh.vertices[mesh.boundary_faces[f]]
    if abs(mesh.boundary_normals[f] @ (x - verts[0])) > tol:
        return False
    lam = 1.0 / 3.0 + face_lambda_gradients(verts) @ (x - verts.mean(axis=0))
    return lam.min() >= -tol


def _psi(mesh, e, x, tol):
    """(f, psi_e(x)) with f the face of e's pair that holds x, the plus
    face tried first; (None, 0) if neither does. e runs counterclockwise
    (from its lower to its higher vertex id) in the plus face."""
    x = np.asarray(x, dtype=float)
    faces, sides = np.nonzero(
        mesh.boundary_face_edges == boundary_edge_index(mesh, e))
    if mesh.boundary_faces[faces[0], sides[0]] != mesh.edges[e, 0]:
        faces, sides = faces[::-1], sides[::-1]
    for f, i, sign in zip(faces, sides, (1.0, -1.0)):
        if _on_face(mesh, f, x, tol):
            v = mesh.vertices[mesh.boundary_faces[f, (i + 2) % 3]]
            return f, (sign * mesh.edge_lengths[e]
                       / (2.0 * mesh.boundary_areas[f]) * (x - v))
    return None, np.zeros(3)


def eval_psi(mesh, e, x, tol=1e-10):
    """Divergence-conforming edge function at x; zero off its face pair.

    On the plus/minus face: +/- |e| / (2 |F|) (x - v), v the vertex
    opposite e. Its normal component across e is 1 and its facewise
    surface divergence is +/- |e| / |F|. MeshError if e is not a boundary
    edge.
    """
    return _psi(mesh, e, x, tol)[1]


def eval_phi(mesh, e, x, tol=1e-10):
    """Tangentially continuous edge function at x: phi_e = n x psi_e."""
    f, psi = _psi(mesh, e, x, tol)
    return psi if f is None else np.cross(mesh.boundary_normals[f], psi)


def eval_control_on_faces(mesh, z, face_idx, ref_pts):
    """Evaluate z = sum z_e phi_e at reference points of boundary faces.

    ref_pts (m, 2) are reference-triangle coordinates; returns physical
    points (F, m, 3) and values (F, m, 3).
    """
    bidx, W, g = (a[face_idx] for a in _face_table(mesh))
    lam = np.stack([1.0 - ref_pts[:, 0] - ref_pts[:, 1],
                    ref_pts[:, 0], ref_pts[:, 1]], axis=1)
    verts = mesh.vertices[mesh.boundary_faces[face_idx]]
    zW = np.einsum("fi,ficd->fcd", z[bidx], W)
    return (np.einsum("mc,fcx->fmx", lam, verts),
            np.einsum("mc,fcd,fdx->fmx", lam, zW, g))


def tangential_trace(space, u):
    """Mean tangential moments on boundary edges (the j = 0 trace)."""
    dofs = space.edge_dofs[space.mesh.boundary_edges, 0]
    return np.asarray(u, dtype=complex)[dofs]


def integrate(mesh, f, degree=6):
    """Volume integral of a scalar function f(points (..., 3)) -> (...,),
    by the degree's rule mapped through each tet's vertices in ascending id
    order, the frame of the element loops."""
    rp, rw = simplex_rule(3, degree)
    phys, jac = map_to_tets(mesh.vertices[np.sort(mesh.tets, axis=1)], rp)
    return np.einsum("cq,q,c->", np.asarray(f(phys)), rw, jac)


def hcurl_error_parts(space, u_h, exact, exact_curl, degree):
    """(total, value, curl) of the H(curl) distance of `hcurl_error`, from
    the inverted element basis contracted with u_h at the degree's tet
    rule."""
    pts, w = simplex_rule(3, degree)
    phys, jac, Phi, curlPhi = inverted_element_basis(space, pts)
    coef = u_h[space.cell_dofs]
    parts = []
    for basis, f in ((Phi, exact), (curlPhi, exact_curl)):
        d = np.einsum("cqmd,cm->cqd", basis, coef) - f(phys)
        parts.append(np.einsum("q,c,cqd->", w, jac, (d * d.conj()).real))
    return np.sqrt(sum(parts)), np.sqrt(parts[0]), np.sqrt(parts[1])
