"""Control space on the boundary surface: edge basis, closed-form surface
curl/mass matrices, lifting into the volume space, and the tangential trace.

A control is one complex coefficient per boundary edge, ordered as
mesh.boundary_edges, z = sum_e z_e phi_e, where phi_e is the lowest-order
surface edge function: on each of
the two faces sharing e it equals |e| (lambda_l grad_G lambda_m -
lambda_m grad_G lambda_l) with (l, m) the edge endpoints in ascending id
order. phi_e has unit tangential component along e, vanishing tangential
component along every other edge, and its rotation phi_e x n is the
divergence-conforming function psi_e supported on the same face pair.
"""

import numpy as np
import scipy.sparse as sp

from .mesh import MeshError


def symmetric_csr(local, dofs, n):
    """Sum local matrices (C, m, m) on dofs (C, m) into an n x n CSR matrix
    that stores every dof pair sharing a cell, also where the sum is 0.0.

    (i, j) and (j, i) sum their duplicates in different orders; averaging
    with the transpose makes the matrix bitwise symmetric.
    """
    m = dofs.shape[1]
    rows = np.repeat(dofs, m, axis=1).ravel()
    cols = np.tile(dofs, (1, m)).ravel()
    A = sp.csr_matrix((local.ravel(), (rows, cols)), (n, n))
    # the pattern is symmetric, so A.T in sorted CSR order aligns with A
    A.data = (A.data + A.T.tocsr().data) * 0.5
    return A


def face_lambda_gradients(verts):
    """In-plane barycentric gradients for triangles verts (..., 3, 3).

    Orientation independent: grad lambda_a is the in-plane vector
    perpendicular to the opposite edge with grad lambda_a . (x_a - x_b) = 1.
    """
    verts = np.asarray(verts, dtype=float)
    out = np.empty_like(verts)
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        opp = verts[..., c, :] - verts[..., b, :]
        d = verts[..., a, :] - verts[..., b, :]
        d = d - opp * (np.einsum("...d,...d->...", opp, d)
                       / np.einsum("...d,...d->...", opp, opp))[..., None]
        out[..., a, :] = d / np.einsum("...d,...d->...", d, d)[..., None]
    return out


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
        mesh.boundary_face_edges == mesh.boundary_edge_index(e))
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


def _face_edge_tables(mesh):
    """Per boundary face: boundary-edge index, endpoint local slots, length.

    Local slots (a, b) index into the face's vertex triple so that the
    global edge runs from slot a to slot b (ascending vertex id); asc marks
    edges whose global direction agrees with the counterclockwise cycle.
    """
    loc = np.array([(0, 1), (1, 2), (2, 0)])
    cyc = mesh.boundary_faces[:, loc]
    asc = cyc[..., 0] < cyc[..., 1]
    a = np.where(asc, loc[None, :, 0], loc[None, :, 1])
    b = np.where(asc, loc[None, :, 1], loc[None, :, 0])
    bidx = mesh.boundary_face_edges
    lengths = mesh.edge_lengths[mesh.boundary_edges[bidx]]
    return bidx, a, b, lengths, asc


def surface_curl_matrix(mesh):
    """Gram matrix of facewise surface curls, assembled from closed forms.

    Entry (i, j) = sum over shared faces of s_i s_j |e_i| |e_j| / |F|,
    s = +1 where the edge runs counterclockwise in the face.
    """
    bidx, a, b, lengths, asc = _face_edge_tables(mesh)
    sgn = np.where(asc, 1.0, -1.0)
    val = sgn * lengths
    contrib = np.einsum("fi,fj->fij", val, val) / mesh.boundary_areas[:, None, None]
    return symmetric_csr(contrib, bidx, mesh.n_boundary_edges)


def surface_mass_matrix(mesh):
    """Gram matrix of the phi_e basis, assembled from closed forms.

    Uses int_F lambda_a lambda_b = |F| (1 + delta_ab) / 12 and the
    in-plane barycentric gradients; no quadrature.
    """
    bidx, a, b, lengths, _ = _face_edge_tables(mesh)
    verts = mesh.vertices[mesh.boundary_faces]
    g = face_lambda_gradients(verts)
    gg = np.einsum("fad,fbd->fab", g, g)
    A = mesh.boundary_areas
    lam = (np.ones((3, 3)) + np.eye(3)) / 12.0

    contrib = np.empty((len(verts), 3, 3))
    for i in range(3):
        for j in range(3):
            ai, bi = a[:, i], b[:, i]
            aj, bj = a[:, j], b[:, j]
            f = np.arange(len(verts))
            term = (gg[f, bi, bj] * lam[ai, aj] - gg[f, bi, aj] * lam[ai, bj]
                    - gg[f, ai, bj] * lam[bi, aj] + gg[f, ai, aj] * lam[bi, bj])
            contrib[:, i, j] = lengths[:, i] * lengths[:, j] * A * term
    return symmetric_csr(contrib, bidx, mesh.n_boundary_edges)


def eval_control_on_faces(mesh, z, face_idx, ref_pts):
    """Evaluate z = sum z_e phi_e at reference points of boundary faces.

    ref_pts (m, 2) are reference-triangle coordinates; returns physical
    points (F, m, 3) and values (F, m, 3).
    """
    bidx, a, b, lengths, _ = _face_edge_tables(mesh)
    face_idx = np.asarray(face_idx, dtype=np.int64)
    verts = mesh.vertices[mesh.boundary_faces[face_idx]]
    g = face_lambda_gradients(verts)
    p0 = verts[:, 0]
    pts = (p0[:, None, :]
           + ref_pts[None, :, 0, None] * (verts[:, 1] - p0)[:, None, :]
           + ref_pts[None, :, 1, None] * (verts[:, 2] - p0)[:, None, :])
    lam = np.stack([1.0 - ref_pts[:, 0] - ref_pts[:, 1],
                    ref_pts[:, 0], ref_pts[:, 1]], axis=1)
    vals = np.zeros(pts.shape, dtype=complex)
    f = np.arange(len(face_idx))
    for i in range(3):
        ai = a[face_idx, i]
        bi = b[face_idx, i]
        co = z[bidx[face_idx, i]] * lengths[face_idx, i]
        # the edge function on this face: lambda_a grad lambda_b - lambda_b grad lambda_a
        w = (lam[:, ai].T[:, :, None] * g[f, bi][:, None, :]
             - lam[:, bi].T[:, :, None] * g[f, ai][:, None, :])
        vals += co[:, None, None] * w
    return pts, vals


def lifting_matrix(space):
    """Sparse matrix L of the lifting of a control into the volume space.

    Boundary-edge mean moments take the control coefficients, the odd edge
    moments of z vanish, and for k = 1 the boundary-face moments of the
    piecewise-linear surface field are filled in closed form; every
    interior moment is zero, so the tangential trace of L z is exactly z.
    FESpace.lifting caches the result.
    """
    mesh = space.mesh
    n_ctrl = mesh.n_boundary_edges
    k = space.k
    rows = [(k + 1) * mesh.boundary_edges]
    cols = [np.arange(n_ctrl)]
    data = [np.ones(n_ctrl)]
    if k == 1:
        bidx, a, b, lengths, _ = _face_edge_tables(mesh)
        g = face_lambda_gradients(mesh.vertices[mesh.boundary_faces])
        gids = mesh.boundary_face_ids
        sorted_verts = mesh.vertices[mesh.faces[gids]]
        # face moment directions of the volume space use the ascending-id triple
        q = np.stack([sorted_verts[:, 1] - sorted_verts[:, 0],
                      sorted_verts[:, 2] - sorted_verts[:, 0]], axis=1)
        f = np.arange(len(gids))
        for d in range(2):
            for i in range(3):
                grad_diff = g[f, b[:, i]] - g[f, a[:, i]]
                rows.append(space.n_edge_dofs + 2 * gids + d)
                cols.append(bidx[:, i])
                data.append(lengths[:, i] / 3.0
                            * np.einsum("fd,fd->f", q[:, d], grad_diff))
    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        (space.n_dofs, n_ctrl)).tocsr()


def lift(space, z):
    """Extend a control into the volume space: space.lifting @ z."""
    z = np.asarray(z, dtype=complex)
    if z.shape != (space.mesh.n_boundary_edges,):
        raise MeshError("control vector does not match the boundary")
    return space.lifting @ z


def tangential_trace(space, u):
    """Mean tangential moments on boundary edges (the j = 0 trace)."""
    mesh = space.mesh
    return np.asarray(u, dtype=complex)[(space.k + 1) * mesh.boundary_edges]
