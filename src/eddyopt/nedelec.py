"""First-kind edge (Nedelec) finite elements of order k in {0, 1}.

Degrees of freedom are entity moments defined on global mesh entities:

    edge, moment 0:  (1/|e|) int_e v . t_e ds          (mean tangential value)
    edge, moment 1:  (3/|e|) int_e v . t_e (2s - 1) ds  (odd linear weight)
    face, moment d:  (1/|F|) int_F v . q_d dS,  q_d in {x1 - x0, x2 - x0}

with t_e the unit tangent from the lower to the higher vertex id and
(x0, x1, x2) the face vertices in ascending id order. Because every
functional is a pure function of global vertex ids, matching moments across
shared entities gives tangential continuity without any per-element sign
bookkeeping. The element basis dual to these moments is built per element
by inverting a moment matrix over an explicit spanning set of the local
polynomial space.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .quadrature import gauss_01, triangle_rule, tet_rule, map_to_triangles, map_to_tets
from .trace import lifting_matrix

CHUNK = 2048
# Edge Gauss points and face-rule degree of the moment interpolant.
INTERP_GAUSS = 8
INTERP_FACE_DEGREE = 8


class AssemblyError(ValueError):
    pass


# quadratic spanning fields x -> x cross (Q x) with traceless Q; curl = -3 Q x
_Q8 = np.zeros((8, 3, 3))
for _n, (_i, _j) in enumerate([(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]):
    _Q8[_n, _i, _j] = 1.0
_Q8[6, 0, 0], _Q8[6, 1, 1] = 1.0, -1.0
_Q8[7, 1, 1], _Q8[7, 2, 2] = 1.0, -1.0


def span_dim(k):
    return 6 if k == 0 else 20


def span_eval(k, pts):
    """Spanning fields of the local space at pts (..., 3).

    Returns (vals, curls), each (..., 3, S): the S fields run along the
    last axis, the layout `_expand` multiplies without a copy. The span
    is {a + b cross x} for k = 0 and (P1)^3 plus the 8 quadratic fields
    x cross (Q x) for k = 1.
    """
    if k not in (0, 1):
        raise AssemblyError(f"order {k} not supported (k in {{0, 1}})")
    pts = np.asarray(pts, dtype=float)
    shape = pts.shape + (span_dim(k),)
    out = np.empty(shape), np.zeros(shape)
    # written field by field through (..., S, 3) views
    vals, curls = (np.swapaxes(a, -1, -2) for a in out)
    eye = np.eye(3)
    if k == 0:
        for i in range(3):
            vals[..., i, :] = eye[i]
            vals[..., 3 + i, :] = np.cross(eye[i], pts)
            curls[..., 3 + i, :] = 2.0 * eye[i]
        return out
    for i in range(3):
        vals[..., i, :] = eye[i]
    for c in range(3):
        for i in range(3):
            s = 3 + 3 * c + i
            vals[..., s, :] = pts[..., c, None] * eye[i]
            curls[..., s, :] = np.cross(eye[c], eye[i])
    qx = np.einsum("jcd,...d->...jc", _Q8, pts)
    vals[..., 12:, :] = np.cross(pts[..., None, :], qx)
    curls[..., 12:, :] = -3.0 * qx
    return out


class FESpace:
    """H(curl)-conforming space of order k on a tetrahedral mesh.

    Dof numbering: k + 1 moments per edge first (edge e, moment m -> dof
    (k+1) e + m), then for k = 1 two moments per face (face f, moment d ->
    2 E + 2 f + d). `boundary_dofs` collects the dofs of boundary edges
    and boundary faces; `interior_dofs` is the complement.
    """

    def __init__(self, mesh, k):
        if k not in (0, 1):
            raise AssemblyError(f"order {k} not supported (k in {{0, 1}})")
        self.mesh = mesh
        self.k = k
        ne, nf = mesh.n_edges, len(mesh.faces)
        self.n_edge_dofs = (k + 1) * ne
        self.n_dofs = self.n_edge_dofs + (2 * nf if k == 1 else 0)

        te = mesh.tet_edges
        if k == 0:
            self.cell_dofs = te.copy()
        else:
            parts = [2 * te, 2 * te + 1]
            ed = np.stack(parts, axis=2).reshape(-1, 12)
            tf = mesh.tet_faces
            fd = np.stack(
                [self.n_edge_dofs + 2 * tf, self.n_edge_dofs + 2 * tf + 1],
                axis=2).reshape(-1, 8)
            self.cell_dofs = np.concatenate([ed, fd], axis=1)

        bd = [(k + 1) * mesh.boundary_edges + m for m in range(k + 1)]
        if k == 1:
            bd += [self.n_edge_dofs + 2 * mesh.boundary_face_ids + d
                   for d in range(2)]
        self.boundary_dofs = np.unique(np.concatenate(bd))
        mask = np.ones(self.n_dofs, dtype=bool)
        mask[self.boundary_dofs] = False
        self.interior_dofs = np.flatnonzero(mask)

    @property
    def n_local(self):
        return span_dim(self.k)

    @cached_property
    def lifting(self):
        """Sparse lifting matrix of the boundary controls (built once)."""
        return lifting_matrix(self)

    @cached_property
    def basis(self):
        """Element basis data (C, centers, scales) of every tet, see
        `_basis_coeffs` (built once, chunk by chunk)."""
        parts = [_basis_coeffs(self, sl) for sl in _chunks(self.mesh.n_tets)]
        return tuple(np.concatenate(p) for p in zip(*parts))


@dataclass
class ProblemConfig:
    """Data of the control problem.

    mu and kappa may be positive scalars, 3x3 SPD matrices, or callables
    mapping points (..., 3) to either; j_c and u_d are complex 3-vector
    fields (callables or constants, None = zero). omega is the angular
    frequency, alpha/beta the boundary regularization weights.
    """

    mu: object = 1.0
    kappa: object = 1.0
    omega: float = 1.0
    j_c: object = None
    u_d: object = None
    alpha: float = 1e-3
    beta: float = 0.0
    solver_tol: float = 1e-10
    quad_order: int = None

    def __post_init__(self):
        if self.omega == 0:
            raise ValueError("omega must be nonzero")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("regularization weights must be nonnegative")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("alpha and beta cannot both vanish")


def _check_spd(mat, what):
    # mat (..., 3, 3)
    sym = np.abs(mat - np.swapaxes(mat, -1, -2)).max()
    if sym > 1e-12 * max(np.abs(mat).max(), 1.0):
        raise AssemblyError(f"{what} is not symmetric")
    if np.linalg.eigvalsh(mat).min() <= 0.0:
        raise AssemblyError(f"{what} is not positive definite")


def _coeff_at(c, pts, what):
    """Coefficient at points pts (..., 3), checked to be positive.

    Returns shape (...) for a scalar-valued coefficient and (..., 3, 3)
    for a matrix-valued one, constant or callable.
    """
    base = pts.shape[:-1]
    if callable(c):
        v = np.asarray(c(pts), dtype=float)
        shapes = (base, base + (3, 3))
        message = f"{what} callable returned shape {v.shape}"
    else:
        v = np.asarray(c, dtype=float)
        shapes = ((), (3, 3))
        message = "coefficient must be scalar, 3x3, or callable"
    if v.shape not in shapes:
        raise AssemblyError(message)
    if not np.isfinite(v).all():
        raise AssemblyError(f"{what} is not finite")
    if v.shape == shapes[1]:
        _check_spd(v, what)
        return np.broadcast_to(v, base + (3, 3))
    if np.any(v <= 0.0):
        raise AssemblyError(f"{what} is not positive definite")
    return np.broadcast_to(v, base)


def _vector_field_at(f, pts):
    if f is None:
        return np.zeros(pts.shape, dtype=complex)
    if callable(f):
        v = np.asarray(f(pts), dtype=complex)
        if v.shape != pts.shape:
            v = np.broadcast_to(v, pts.shape)
        return v
    v = np.asarray(f, dtype=complex)
    return np.broadcast_to(v, pts.shape)


def _edge_moment_rows(mesh, sl, k, n_gauss):
    """Edge-moment evaluation data for tets in slice sl.

    Returns (pts (C, 6, n, 3), weights list of per-moment (n,) arrays,
    tangents (C, 6, 3)).
    """
    ev = mesh.edges[mesh.tet_edges[sl]]
    lo = mesh.vertices[ev[..., 0]]
    hi = mesh.vertices[ev[..., 1]]
    u, w = gauss_01(n_gauss)
    pts = lo[..., None, :] + u[:, None] * (hi - lo)[..., None, :]
    t = hi - lo
    t = t / np.linalg.norm(t, axis=-1, keepdims=True)
    weights = [w] if k == 0 else [w, 3.0 * (2.0 * u - 1.0) * w]
    return pts, weights, t


def _face_moment_rows(mesh, sl, degree):
    """Face-moment data: points (C, 4, m, 3), ref weights (m,), dirs (C, 4, 2, 3)."""
    fv = mesh.faces[mesh.tet_faces[sl]]
    verts = mesh.vertices[fv]
    rp, rw = triangle_rule(degree)
    pts, _ = map_to_triangles(verts, rp)
    q = np.stack([verts[..., 1, :] - verts[..., 0, :],
                  verts[..., 2, :] - verts[..., 0, :]], axis=-2)
    return pts, rw, q


def _basis_coeffs(space, sl):
    """Moment-matrix inversion for tets in slice sl.

    Returns (C (cells, S, S), centers (cells, 3), scales (cells,)): the
    element basis dual to the global moments is Phi_m = sum_s C[s, m] *
    span_s((x - center)/scale), with curls scaled by 1/scale.
    """
    mesh, k = space.mesh, space.k
    tv = mesh.vertices[mesh.tets[sl]]
    centers = tv.mean(axis=1)
    scales = mesh.edge_lengths[mesh.tet_edges[sl]].max(axis=1)
    S = span_dim(k)
    n_cells = tv.shape[0]
    V = np.empty((n_cells, S, S))

    pts, wts, t = _edge_moment_rows(mesh, sl, k, k + 2)
    loc = (pts - centers[:, None, None, :]) / scales[:, None, None, None]
    vals, _ = span_eval(k, loc)
    vt = np.einsum("cendg,ced->ceng", vals, t)
    for m, w in enumerate(wts):
        V[:, m:6 * (k + 1):k + 1, :] = np.einsum("ceng,n->ceg", vt, w)
    if k == 1:
        pts, rw, q = _face_moment_rows(mesh, sl, 2)
        loc = (pts - centers[:, None, None, :]) / scales[:, None, None, None]
        vals, _ = span_eval(k, loc)
        vq = np.einsum("cfndg,cfed->cfneg", vals, q)
        rows = 2.0 * np.einsum("cfneg,n->cfeg", vq, rw)
        V[:, 12:, :] = rows.reshape(n_cells, 8, S)
    try:
        C = np.linalg.inv(V)
    except np.linalg.LinAlgError as err:
        raise AssemblyError(f"degenerate element moment matrix: {err}") from None
    return C, centers, scales


def _expand(span, C):
    """sum_s span[c, q, d, s] C[c, s, m] as one product per cell.

    Returns (cells, q, m, 3) as a view whose last two axes are swapped,
    so that `_gram` reads it without a copy.
    """
    n, q, _, S = span.shape
    rows = span.reshape(n, 3 * q, S) @ C
    return np.swapaxes(rows.reshape(n, q, 3, -1), -1, -2)


def element_basis(mesh, space, ref_pts, sl=slice(None)):
    """Basis values/curls at mapped reference points for tets in sl.

    Returns (phys (C, m, 3), jac (C,), Phi (C, m, n_local, 3),
    curlPhi (C, m, n_local, 3)); jac = 6 * volume.
    """
    C, centers, scales = (a[sl] for a in space.basis)
    verts = mesh.vertices[mesh.tets[sl]]
    phys, jac = map_to_tets(verts, ref_pts)
    loc = (phys - centers[:, None, :]) / scales[:, None, None]
    vals, curls = span_eval(space.k, loc)
    curl_C = C / scales[:, None, None]
    return phys, jac, _expand(vals, C), _expand(curls, curl_C)


def _chunks(n):
    for lo in range(0, n, CHUNK):
        yield slice(lo, min(lo + CHUNK, n))


def _gram(w, coeff, F):
    """Element matrices sum_q w_q F_m^T coeff F_n as one batched product.

    w (C, q) are weights times Jacobians, F (C, q, m, 3) basis fields and
    coeff a per-point coefficient from `_coeff_at`.
    """
    if coeff.ndim > w.ndim:  # matrix-valued: rows F_m^T coeff
        left = F @ coeff
    else:
        left, w = F, w * coeff
    n, q, m, _ = F.shape
    left = w[..., None, None] * np.swapaxes(left, -1, -2)
    left = left.reshape(n, 3 * q, m)
    right = np.swapaxes(F, -1, -2).reshape(n, 3 * q, m)
    return np.swapaxes(left, -1, -2) @ right


def assemble_curl_mass(mesh, space, mu=1.0, kappa=1.0, degree=None):
    """Real stiffness and mass matrices.

    K_ij = int (1/mu) curl Phi_j . curl Phi_i, M_ij = int kappa Phi_j . Phi_i.
    Both come out symmetric (bitwise) and positive semidefinite.
    """
    if degree is None:
        degree = 2 * space.k + 2
    rp, rw = tet_rule(degree)
    n_loc = space.n_local
    rows, cols, kdata, mdata = [], [], [], []
    for sl in _chunks(mesh.n_tets):
        phys, jac, Phi, curlPhi = element_basis(mesh, space, rp, sl)
        w = rw[None, :] * jac[:, None]
        mu_at = _coeff_at(mu, phys, "mu")
        mu_inv = np.linalg.inv(mu_at) if mu_at.ndim > w.ndim else 1.0 / mu_at
        kdata.append(_gram(w, mu_inv, curlPhi).ravel())
        mdata.append(_gram(w, _coeff_at(kappa, phys, "kappa"), Phi).ravel())
        dofs = space.cell_dofs[sl]
        rows.append(np.repeat(dofs, n_loc, axis=1).ravel())
        cols.append(np.tile(dofs, (1, n_loc)).ravel())

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    n = space.n_dofs
    K = sp.coo_matrix((np.concatenate(kdata), (rows, cols)), (n, n)).tocsr()
    M = sp.coo_matrix((np.concatenate(mdata), (rows, cols)), (n, n)).tocsr()
    # Duplicate summation order differs between (i, j) and (j, i); averaging
    # with the transpose makes both bitwise symmetric (addition is
    # commutative, halving is exact).
    K = ((K + K.T) * 0.5).tocsr()
    M = ((M + M.T) * 0.5).tocsr()
    return K, M


def assemble(mesh, space, config):
    """Complex system matrix A = K(1/mu) + i omega M(kappa)."""
    K, M = assemble_curl_mass(
        mesh, space, config.mu, config.kappa,
        config.quad_order if config.quad_order else 2 * space.k + 2)
    return (K + 1j * config.omega * M).tocsr()


def assemble_load(mesh, space, j_c, degree=None):
    """Load vector b_i = int j_c . Phi_i (real basis, so no conjugation)."""
    if degree is None:
        degree = 2 * space.k + 4
    rp, rw = tet_rule(degree)
    b = np.zeros(space.n_dofs, dtype=complex)
    if j_c is None:
        return b
    for sl in _chunks(mesh.n_tets):
        phys, jac, Phi, _ = element_basis(mesh, space, rp, sl)
        f = _vector_field_at(j_c, phys)
        w = rw[None, :] * jac[:, None]
        bel = np.einsum("cq,cqd,cqmd->cm", w, f, Phi)
        np.add.at(b, space.cell_dofs[sl], bel)
    return b


def integrate(mesh, f, degree=6):
    """Volume integral of a scalar function f(points (..., 3)) -> (...,)."""
    rp, rw = tet_rule(degree)
    total = 0.0
    for sl in _chunks(mesh.n_tets):
        verts = mesh.vertices[mesh.tets[sl]]
        phys, jac = map_to_tets(verts, rp)
        vals = np.asarray(f(phys))
        total = total + np.einsum("cq,q,c->", vals, rw, jac)
    return total


def interpolate(space, v):
    """Moment interpolant of a smooth field v (callable or constant)."""
    mesh = space.mesh
    k = space.k
    out = np.zeros(space.n_dofs, dtype=complex)

    lo = mesh.vertices[mesh.edges[:, 0]]
    hi = mesh.vertices[mesh.edges[:, 1]]
    u, w = gauss_01(INTERP_GAUSS)
    pts = lo[:, None, :] + u[:, None] * (hi - lo)[:, None, :]
    t = (hi - lo) / mesh.edge_lengths[:, None]
    vt = np.einsum("end,ed->en", _vector_field_at(v, pts), t)
    out[0:space.n_edge_dofs:k + 1] = vt @ w
    if k == 1:
        out[1:space.n_edge_dofs:2] = vt @ (3.0 * (2.0 * u - 1.0) * w)
        verts = mesh.vertices[mesh.faces]
        rp, rw = triangle_rule(INTERP_FACE_DEGREE)
        fpts, _ = map_to_triangles(verts, rp)
        vals = _vector_field_at(v, fpts)
        for d in range(2):
            q = verts[:, 1 + d, :] - verts[:, 0, :]
            out[space.n_edge_dofs + d::2] = 2.0 * np.einsum(
                "fnd,fd,n->f", vals, q, rw)
    return out


def evaluate_field(space, u, ref_pts):
    """Evaluate the FE field at mapped reference points of every tet.

    Returns (phys (C, m, 3), vals (C, m, 3), curls (C, m, 3)).
    """
    phys, _, Phi, curlPhi = element_basis(space.mesh, space, ref_pts)
    coef = u[space.cell_dofs]
    vals = np.einsum("cqmd,cm->cqd", Phi, coef)
    curls = np.einsum("cqmd,cm->cqd", curlPhi, coef)
    return phys, vals, curls


def hcurl_error(space, u_h, exact, exact_curl, degree=None, return_parts=False):
    """H(curl) distance (||u - u_h||_0^2 + ||curl u - curl u_h||_0^2)^(1/2)."""
    mesh = space.mesh
    if degree is None:
        degree = 2 * space.k + 4
    rp, rw = tet_rule(degree)
    acc_v = acc_c = 0.0
    for sl in _chunks(mesh.n_tets):
        phys, jac, Phi, curlPhi = element_basis(mesh, space, rp, sl)
        coef = u_h[space.cell_dofs[sl]]
        dv = np.einsum("cqmd,cm->cqd", Phi, coef) - _vector_field_at(exact, phys)
        dc = (np.einsum("cqmd,cm->cqd", curlPhi, coef)
              - _vector_field_at(exact_curl, phys))
        w = rw[None, :] * jac[:, None]
        acc_v += np.einsum("cq,cqd->", w, (dv * dv.conj()).real)
        acc_c += np.einsum("cq,cqd->", w, (dc * dc.conj()).real)
    if return_parts:
        return np.sqrt(acc_v + acc_c), np.sqrt(acc_v), np.sqrt(acc_c)
    return np.sqrt(acc_v + acc_c)
