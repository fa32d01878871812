"""Control space on the boundary surface: edge basis, surface curl/mass
matrices and lifting into the volume space.

A control is one complex coefficient per boundary edge, ordered as
mesh.boundary_edges, z = sum_e z_e phi_e, where phi_e is the lowest-order
surface edge function: on each of the two faces sharing e it equals
|e| (lambda_l grad_G lambda_m - lambda_m grad_G lambda_l) with (l, m) the
edge endpoints in ascending id order. One coefficient table per boundary
face states this basis; the curl and mass matrices and the k = 1 lifting
each contract it with closed-form integrals of the barycentric
coordinates. phi_e has unit tangential component along e, vanishing
tangential component along every other edge, and its rotation phi_e x n
is the divergence-conforming psi_e on the same face pair.
"""

import numpy as np
import scipy.sparse as sp

from .mesh import MeshError


def symmetric_csr(local, dofs, n):
    """Sum local matrices (C, m, m) on dofs (C, m) into an n x n CSR matrix
    that stores every dof pair sharing a cell, also where the sum is 0.0.

    (i, j) and (j, i) sum their duplicates in different orders; averaging
    with the transpose makes the matrix bitwise symmetric. The index arrays
    are int32 where n allows, the index dtype scipy keeps anyway.
    """
    m = dofs.shape[1]
    dofs = dofs.astype(np.int32 if n < 2**31 else np.int64, copy=False)
    rows = np.repeat(dofs, m, axis=1).ravel()
    cols = np.tile(dofs, (1, m)).ravel()
    A = sp.csr_matrix((local.ravel(), (rows, cols)), (n, n))
    # the pattern is symmetric, so A.T in sorted CSR order aligns with A
    A.data = (A.data + A.T.tocsr().data) * 0.5
    return A


def face_lambda_gradients(verts):
    """In-plane barycentric gradients for triangles verts (..., 3, 3).

    grad lambda_a = n x (x_c - x_b) / |n|^2 with (a, b, c) cyclic and
    n = (x_1 - x_0) x (x_2 - x_0); reversing the vertex order flips both
    factors, so the result does not depend on the orientation.
    """
    verts = np.asarray(verts, dtype=float)
    n = np.cross(verts[..., 1, :] - verts[..., 0, :],
                 verts[..., 2, :] - verts[..., 0, :])[..., None, :]
    opp = np.roll(verts, -2, axis=-2) - np.roll(verts, -1, axis=-2)
    return np.cross(n, opp) / np.sum(n * n, axis=-1, keepdims=True)


def _face_table(mesh):
    """The surface edge basis on every boundary face, as (bidx, W, g).

    bidx (Fb, 3) is `Mesh.boundary_face_edges`, g (Fb, 3, 3) the in-plane
    barycentric gradients and W (Fb, 3, 3, 3) the coefficients of
    phi_i = sum_cd W[f, i, c, d] lambda_c grad lambda_d: side i runs from
    slot i to slot i + 1, so W[f, i] = |e_i| (e_a e_b^T - e_b e_a^T) with
    (a, b) those slots in ascending vertex id order.
    """
    side = np.zeros((3, 3, 3))
    side[[0, 1, 2], [0, 1, 2], [1, 2, 0]] = 1.0
    side -= np.swapaxes(side, 1, 2)
    tri = mesh.boundary_faces
    bidx = mesh.boundary_face_edges
    sign = np.where(tri < np.roll(tri, -1, axis=1), 1.0, -1.0)
    scale = sign * mesh.edge_lengths[mesh.boundary_edges[bidx]]
    return bidx, scale[..., None, None] * side, face_lambda_gradients(
        mesh.vertices[tri])


def surface_curl_matrix(mesh):
    """Gram matrix of facewise surface curls, assembled from closed forms:
    curl_G(lambda_c grad lambda_d) = (grad lambda_c x grad lambda_d) . n is
    constant on each face."""
    bidx, W, g = _face_table(mesh)
    gxg = np.cross(g[:, :, None], g[:, None])
    curl = np.einsum("ficd,fcdx,fx->fi", W, gxg, mesh.boundary_normals)
    contrib = np.einsum("f,fi,fj->fij", mesh.boundary_areas, curl, curl)
    return symmetric_csr(contrib, bidx, mesh.n_boundary_edges)


def surface_mass_matrix(mesh):
    """Gram matrix of the phi_e basis, assembled from closed forms:
    int_F lambda_c lambda_C = |F| (1 + delta_cC) / 12 and the in-plane
    barycentric gradients; no quadrature."""
    bidx, W, g = _face_table(mesh)
    lam = (np.ones((3, 3)) + np.eye(3)) / 12.0
    contrib = np.einsum("f,ficd,cC,fdx,fDx,fjCD->fij", mesh.boundary_areas,
                        W, lam, g, g, W, optimize=True)
    return symmetric_csr(contrib, bidx, mesh.n_boundary_edges)


def lifting_matrix(space):
    """Sparse matrix L of the lifting of a control into the volume space.

    Boundary-edge mean moments take the control coefficients, the odd edge
    moments of z vanish, and for k = 1 the boundary-face moments
    (1/|F|) int_F phi_i . q_d follow from int_F lambda_c = |F| / 3; every
    interior moment is zero, so the tangential trace of L z is exactly z.
    FESpace.lifting caches the result.
    """
    mesh = space.mesh
    n_ctrl = mesh.n_boundary_edges
    rows = space.edge_dofs[mesh.boundary_edges, 0]
    cols, data = np.arange(n_ctrl), np.ones(n_ctrl)
    if space.k == 1:
        bidx, W, g = _face_table(mesh)
        gids = mesh.boundary_face_ids
        sorted_verts = mesh.vertices[mesh.faces[gids]]
        # face moment directions of the volume space use the ascending-id triple
        q = sorted_verts[:, 1:] - sorted_verts[:, :1]
        rows = np.append(rows, np.repeat(space.face_dofs[gids], 3, axis=1))
        cols = np.append(cols, np.tile(bidx, 2))
        data = np.append(data, np.einsum("ficd,fdx,fkx->fki", W, g, q) / 3.0)
    return sp.csr_matrix((data, (rows, cols)), (space.n_dofs, n_ctrl))


def lift(space, z):
    """Extend a control into the volume space: space.lifting @ z."""
    z = np.asarray(z, dtype=complex)
    if z.shape != (space.mesh.n_boundary_edges,):
        raise MeshError("control vector does not match the boundary")
    return space.lifting @ z
