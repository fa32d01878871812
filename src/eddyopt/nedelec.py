"""First-kind edge (Nedelec) finite elements of order k in {0, 1}.

Degrees of freedom are entity moments defined on global mesh entities:

    edge, moment 0:  (1/|e|) int_e v . t_e ds          (mean tangential value)
    edge, moment 1:  (3/|e|) int_e v . t_e (2s - 1) ds  (odd linear weight)
    face, moment d:  (1/|F|) int_F v . q_d dS,  q_d in {x1 - x0, x2 - x0}

with t_e the unit tangent from the lower to the higher vertex id and
(x0, x1, x2) the face vertices in ascending id order. Because every
functional is a pure function of global vertex ids, matching moments across
shared entities gives tangential continuity without any per-element sign
bookkeeping.

One reference element per order serves every tet. Taken with its vertices
in ascending id order (`FESpace.tets`), a tet orients its edges and faces as
the unit tet does, and x = x0 + J x^ maps the unit tet onto it. Under the
covariant map v = J^-T v^ an edge moment scales by |e^|/|e| and a face
moment is unchanged (Monk 2003; Rognes, Kirby & Logg 2009), so the tet's
dual basis is Phi = s J^-T Phi^, curl Phi = s J curl Phi^ / det J, with
Phi^ = span C the unit tet's (one moment inversion per order) and s the
per-dof scale |e|/|e^| (1 for face dofs).

`_cells` is the one loop over tets. It evaluates Phi^ (or curl Phi^) at
the rule's points once per pass and, per tet, the 3 x 3 map A (J^-T or
J / det J) and s: element matrices are one (tets, 9 points) x (9 points,
S^2) product of the metrics w A^T coeff A with outer products of Phi^,
loads and fields one product with Phi^ and one 3 x 3 product per tet. It
visits CHUNK tets at a time, so its largest array, a load's field values
at k = 1, is 0.8 MB (64 points, complex); no loop builds Phi.
"""

import numbers
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .mesh import LOCAL_EDGES, LOCAL_FACES, _edge_key
from .quadrature import gauss_01, simplex_rule
from .trace import lifting_matrix, symmetric_csr

CHUNK = 256  # tets per pass: no slower than 2048, an eighth of the memory
# Edge Gauss points and face-rule degree of the moment interpolant.
INTERP_GAUSS = 8
INTERP_FACE_DEGREE = 8


class AssemblyError(ValueError):
    pass


_EYE = np.eye(3)
_EPS = np.cross(_EYE[:, None], _EYE[None])  # Levi-Civita symbol eps[a, b, c]


def _span_table(k):
    """Coefficients (P, R) of the local span and of its curls.

    Field s is sum_m mono_m(x) P[m, :, s] over the monomials 1, x_b and,
    for k = 1, x_b x_d (index 4 + 3 b + d); its curl is sum_l lin_l(x)
    R[l, :, s] over 1, x_b. The fields a + B x + x cross (Q x) are e_i and
    e_i cross x for k = 0, and e_i, x_c e_i and the 8 traceless Q for k = 1.
    """
    S = 6 if k == 0 else 20
    a, B, Q = np.zeros((S, 3)), np.zeros((S, 3, 3)), np.zeros((S, 3, 3))
    a[:3] = _EYE
    E = np.eye(9).reshape(9, 3, 3)  # E[3 i + j] = e_i e_j^T
    if k == 0:
        B[3:] = np.einsum("aic->iac", _EPS)
    else:
        B[3:12] = np.swapaxes(E, 1, 2)
        Q[12:] = E[[1, 2, 3, 5, 6, 7, 0, 4]]
        Q[18:] -= E[[4, 8]]
    P = np.concatenate([a.T[None], B.transpose(2, 1, 0),
                        np.einsum("abc,scd->bdas", _EPS, Q).reshape(9, 3, S)])
    # d mono_m / d x_b in the linear monomials: D[m, b, l]
    D = np.zeros((13, 3, 4))
    D[1:4, :, 0] = _EYE
    D[4:, :, 1:] = (np.einsum("ib,jl->ijbl", _EYE, _EYE)
                    + np.einsum("jb,il->ijbl", _EYE, _EYE)).reshape(9, 3, 3)
    M = 4 if k == 0 else 13
    R = np.einsum("abc,mbl,mcs->las", _EPS, D[:M], P[:M])
    return P[:M], R


_SPAN = {k: _span_table(k) for k in (0, 1)}


def _span(k, pts, curls):
    """Spanning fields of the local space (curls False) or their curls
    (curls True) at pts (..., 3), from one table of `_span_table`.

    Returns (..., 3, S): the S fields run along the last axis, the layout
    that multiplies C without a copy. The span is {a + b cross x} for
    k = 0 and (P1)^3 plus the 8 quadratic fields x cross (Q x) for k = 1.
    """
    T = _SPAN[k][curls]
    x = pts.reshape(-1, 3)
    mono = np.concatenate([np.ones((len(x), 1)), x], axis=1)
    if len(T) > 4:  # the quadratic monomials x_b x_d of the k = 1 fields
        mono = np.hstack([mono, (x[:, :, None] * x[:, None]).reshape(-1, 9)])
    return (mono @ T.reshape(len(T), -1)).reshape(pts.shape + (T.shape[-1],))


_UNIT_TET = np.vstack([np.zeros(3), _EYE])
_EDGES, _FACES = np.array(LOCAL_EDGES), np.array(LOCAL_FACES)


@cache
def _reference_coeffs(k):
    """C (S, S) of the unit tet's basis Phi^ = span C dual to its moments:
    the one moment inversion of order k, read-only as every caller shares
    it."""
    C = np.linalg.inv(_moments(_UNIT_TET, lambda p: _span(k, p, False),
                               _EDGES, _FACES, k, k + 2, 2))
    C.flags.writeable = False
    return C


class FESpace:
    """H(curl)-conforming space of order k on a tetrahedral mesh.

    Dof numbering, the one place it is decided: `edge_dofs[e, m]` (E, k + 1)
    is the global dof of moment m of edge e, and `face_dofs[f, d]` (F, 2k)
    that of moment d of face f; the edge dofs come first, so
    edge_dofs[e, m] = (k+1) e + m and face_dofs[f, d] = (k+1) E + 2 f + d.
    `tets` (tets, 4) holds each tet's vertices in ascending id order, the
    frame of its element: `cell_dofs` (tets, S) lists the dofs of its edges
    (tets[a], tets[b]) in `LOCAL_EDGES` order, then those of the faces
    opposite its vertices 0..3, and `scale` (tets, S) the factor s of each
    dof, |e| / |e^| for an edge's and 1 for a face's. `boundary_dofs`
    collects the dofs of boundary edges and boundary faces; `interior_dofs`
    is the complement.
    """

    def __init__(self, mesh, k):
        if k not in (0, 1):
            raise AssemblyError(f"order {k} not supported (k in {{0, 1}})")
        self.mesh = mesh
        self.k = k
        ne, nf = mesh.n_edges, len(mesh.faces)
        self.n_dofs = (k + 1) * ne + 2 * k * nf
        self.edge_dofs = np.arange((k + 1) * ne).reshape(ne, k + 1)
        self.face_dofs = np.arange((k + 1) * ne, self.n_dofs).reshape(nf, 2 * k)
        # sorted vertex j is vertex order[:, j] of mesh.tets; the edges are
        # found by their keys among mesh.edges, which are sorted
        order = np.argsort(mesh.tets, axis=1)
        self.tets = np.take_along_axis(mesh.tets, order, axis=1)
        n = mesh.n_vertices
        edges = np.searchsorted(_edge_key(mesh.edges, n),
                                _edge_key(self.tets[:, _EDGES], n))
        faces = np.take_along_axis(mesh.tet_faces, order, axis=1)
        per_tet = lambda table, ids: table[ids].reshape(mesh.n_tets, -1)
        self.cell_dofs = np.hstack([per_tet(self.edge_dofs, edges),
                                    per_tet(self.face_dofs, faces)])
        self.scale = np.hstack([  # |e^| is 1, 1, 1, sqrt 2, sqrt 2, sqrt 2
            np.repeat(mesh.edge_lengths[edges] / np.sqrt([1, 1, 1, 2, 2, 2]),
                      k + 1, axis=1), np.ones((mesh.n_tets, 8 * k))])
        self.boundary_dofs = np.unique(np.concatenate([
            self.edge_dofs[mesh.boundary_edges].ravel(),
            self.face_dofs[mesh.boundary_face_ids].ravel()]))
        self.interior_dofs = np.setdiff1d(np.arange(self.n_dofs),
                                          self.boundary_dofs, assume_unique=True)

    @cached_property
    def lifting(self):
        """Sparse lifting matrix of the boundary controls (built once)."""
        return lifting_matrix(self)


@dataclass
class ProblemConfig:
    """Data of the control problem.

    mu and kappa may be positive scalars, 3x3 SPD matrices, or callables
    mapping points (..., 3) to either, constants checked here by the rule
    the assembly applies to every value; j_c and u_d are complex 3-vector
    fields (callables or constants, None = zero). omega is the angular
    frequency, alpha/beta the boundary regularization weights, solver_tol
    (positive) the relative residual every solve must meet and quad_order
    (a positive integer, None = unset) the rule degree of `quad_degree`.
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
        if not np.isfinite([self.omega, self.alpha, self.beta,
                            self.solver_tol]).all():
            raise ValueError("omega, alpha, beta and solver_tol must be finite")
        if self.omega == 0:
            raise ValueError("omega must be nonzero")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("regularization weights must be nonnegative")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("alpha and beta cannot both vanish")
        if self.solver_tol <= 0:
            raise ValueError("solver_tol must be positive")
        q = self.quad_order
        if q is not None and (isinstance(q, bool)
                              or not isinstance(q, numbers.Integral) or q < 1):
            raise ValueError(f"quad_order must be a positive integer, got {q!r}")
        for c, what in ((self.mu, "mu"), (self.kappa, "kappa")):
            if not callable(c):
                _coeff_at(c, np.zeros(3), what)

    def quad_degree(self, k):
        """Rule degree q of K, M and the tracking mass, 2k + 2 (exact for
        Phi . Phi) unless set; the loads of j_c and u_d take q + 2."""
        return 2 * k + 2 if self.quad_order is None else self.quad_order


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


def _moments(vertices, f, edges, faces, k, n_gauss, face_degree):
    """The dof functionals of f on edges (..., 2) and, for k = 1, faces
    (..., 3), ids into vertices ascending in each row.

    f maps points (..., n, 3) to fields (..., n, 3, S). Returns (..., m, S)
    in dof order: k + 1 moments per edge, then two per face.
    """
    lo, hi = vertices[edges[..., 0]], vertices[edges[..., 1]]
    u, w = gauss_01(n_gauss)
    t = hi - lo
    vals = f(lo[..., None, :] + u[:, None] * t[..., None, :])
    t = t / np.linalg.norm(t, axis=-1, keepdims=True)
    vt = np.einsum("...nds,...d->...ns", vals, t)
    # the mean weight, then (k = 1) the odd linear one
    rows = np.stack([w, 3.0 * (2.0 * u - 1.0) * w][:k + 1]) @ vt
    rows = rows.reshape(rows.shape[:-3] + (-1, rows.shape[-1]))
    if k == 0:
        return rows
    verts = vertices[faces]
    rp, rw = simplex_rule(2, face_degree)
    q = verts[..., 1:, :] - verts[..., :1, :]  # rows x1 - x0, x2 - x0
    pts = (verts[..., :1, :] + rp[:, :1] * q[..., :1, :]
           + rp[:, 1:] * q[..., 1:, :])
    face = 2.0 * np.einsum("...nds,...ed,n->...es", f(pts), q, rw)
    face = face.reshape(face.shape[:-3] + (-1, face.shape[-1]))
    return np.concatenate([rows, face], axis=-2)


def _cells(space, rule, fn):
    """The element loop, CHUNK tets of space at a time: the list of
    fn(sl, phys, w, local), each chunk released before the next is built.

    rule is (points (m, 3), weights) on the unit tet; phys (cells, m, 3)
    are the points x0 + J x^ of each tet's ascending frame, w the weights
    times |det J| = 6 * volume, and local(curls) returns (ref, A, s) with
    Phi = s A Phi^: Phi^ (curls False) or curl Phi^ (curls True) at the
    points, (S, 3, m), evaluated once per pass when first asked for; the
    maps A (cells, 3, 3), J^-T or J / det J; and the scales s (cells, S).
    """
    mesh, (ref_pts, weights) = space.mesh, rule
    C = _reference_coeffs(space.k)

    @cache
    def reference(curls):
        return np.transpose(_span(space.k, ref_pts, curls) @ C, (2, 1, 0))

    def chunk(sl):
        x = mesh.vertices[space.tets[sl]]
        E = x[:, 1:] - x[:, :1]  # rows e_i = x_i - x_0: J = E^T
        cof = np.cross(E[:, [1, 2, 0]], E[:, [2, 0, 1]])  # rows of det J J^-1
        det = np.einsum("ci,ci->c", E[:, 0], cof[:, 0])
        maps = (cof, E)  # A^T det J for values and for curls

        def local(curls):
            return (reference(curls),
                    np.swapaxes(maps[curls], 1, 2) / det[:, None, None],
                    space.scale[sl])
        return fn(sl, x[:, :1] + ref_pts @ E, weights * np.abs(det)[:, None],
                  local)
    n = mesh.n_tets
    return [chunk(slice(lo, min(lo + CHUNK, n))) for lo in range(0, n, CHUNK)]


def _gram(w, coeff, ref, A, s):
    """Element matrices s_m s_n sum_q w_q (A Phi^_m) . coeff (A Phi^_n):
    the metrics w A^T coeff A (C, 9 q) times the outer products of Phi^
    (9 q, S^2), then the scales. w (C, q) are weights times Jacobians,
    coeff is per point from `_coeff_at`, (ref, A, s) from `_cells`' local.
    """
    At = np.swapaxes(A, 1, 2)
    if coeff.ndim > w.ndim:  # matrix-valued: A^T coeff A at every point
        metric = w[..., None, None] * (At[:, None] @ coeff @ A[:, None])
    else:
        metric = (w * coeff)[..., None, None] * (At @ A)[:, None]
    table = np.einsum("maq,nbq->qabmn", ref, ref).reshape(-1, len(ref) ** 2)
    G = (metric.reshape(len(w), -1) @ table).reshape(len(w), len(ref), -1)
    return s[:, :, None] * G * s[:, None, :]


def _check_pair(mesh, space):
    """Raise unless space was built on mesh: the entry points that take
    both read every array from space."""
    if mesh is not space.mesh:
        raise AssemblyError("the space was built on another mesh")


def assemble_curl_mass(mesh, space, mu=1.0, kappa=1.0, degree=None):
    """Real stiffness and mass matrices, the real and imaginary parts of
    `assemble` at omega = 1.

    K_ij = int (1/mu) curl Phi_j . curl Phi_i, M_ij = int kappa Phi_j . Phi_i.
    Both come out symmetric (bitwise) and positive semidefinite.
    """
    A = assemble(mesh, space, ProblemConfig(mu=mu, kappa=kappa,
                                            quad_order=degree))
    return A.real, A.imag


def _mass_matrix(space, degree):
    """M of `assemble_curl_mass` for kappa = 1, without the curls."""
    Mel = _cells(space, simplex_rule(3, degree), lambda sl, phys, w, local:
                 _gram(w, np.ones(()), *local(False)))
    return symmetric_csr(np.concatenate(Mel), space.cell_dofs, space.n_dofs)


def assemble(mesh, space, config):
    """Complex system matrix A = K(1/mu) + i omega M(kappa), summed element
    by element as K_e + i omega M_e and stored once."""
    _check_pair(mesh, space)

    def chunk(sl, phys, w, local):
        mu_at = _coeff_at(config.mu, phys, "mu")
        mu_inv = np.linalg.inv(mu_at) if mu_at.ndim > w.ndim else 1.0 / mu_at
        return _gram(w, mu_inv, *local(True)) + 1j * config.omega * _gram(
            w, _coeff_at(config.kappa, phys, "kappa"), *local(False))
    Ael = np.concatenate(_cells(space, simplex_rule(
        3, config.quad_degree(space.k)), chunk))  # frees the chunks first
    return symmetric_csr(Ael, space.cell_dofs, space.n_dofs)


def _load(space, f, degree):
    """(b, c) with b_i = int f . Phi_i and c = int |f|^2, from one
    evaluation of f (None = zero) and no curls."""
    b = np.zeros(space.n_dofs, dtype=complex)
    if f is None:
        return b, 0.0

    def chunk(sl, phys, w, local):
        ref, A, s = local(False)
        v = _vector_field_at(f, phys)
        # A^T (w v) on the real and imaginary parts, then Phi^
        wv = np.swapaxes(w[..., None] * v, 1, 2)
        h = np.swapaxes(A, 1, 2) @ np.stack([wv.real, wv.imag])
        bl = (h.reshape(2 * len(w), -1) @ ref.reshape(len(ref), -1).T
              ).reshape(2, len(w), -1)
        np.add.at(b, space.cell_dofs[sl], s * (bl[0] + 1j * bl[1]))
        return np.einsum("cq,cqd->", w, (v * v.conj()).real)
    return b, float(sum(_cells(space, simplex_rule(3, degree), chunk)))


def assemble_load(mesh, space, j_c, degree=None):
    """Load vector b_i = int j_c . Phi_i (real basis, so no conjugation)."""
    _check_pair(mesh, space)
    return _load(space, j_c, 2 * space.k + 4 if degree is None else degree)[0]


def interpolate(space, v):
    """Moment interpolant of a smooth field v (callable or constant)."""
    mesh = space.mesh
    f = lambda pts: _vector_field_at(v, pts)[..., None]
    return _moments(mesh.vertices, f, mesh.edges, mesh.faces, space.k,
                    INTERP_GAUSS, INTERP_FACE_DEGREE)[:, 0]


def _field(local, curls, coef):
    """The field s A Phi^ coef (cells, q, 3), or its curl, from the (ref,
    A, s) of `_cells`' local and the cell coefficients coef (cells, S):
    one product of the scaled coefficients' real and imaginary parts with
    Phi^, then one 3 x 3 product per tet."""
    ref, A, s = local(curls)
    a = s * coef
    v = A @ (np.concatenate([a.real, a.imag]) @ ref.reshape(len(ref), -1)
             ).reshape(2, len(a), 3, -1)
    return np.swapaxes(v[0] + 1j * v[1], 1, 2)


def evaluate_field(space, u, ref_pts):
    """Evaluate the FE field at mapped reference points of every tet.

    Returns (phys (C, m, 3), vals (C, m, 3), curls (C, m, 3)).
    """
    def chunk(sl, phys, w, local):
        coef = u[space.cell_dofs[sl]]
        return phys, _field(local, False, coef), _field(local, True, coef)
    parts = _cells(space, (ref_pts, 1.0), chunk)  # unweighted points
    return tuple(np.concatenate(p) for p in zip(*parts))


def hcurl_error(space, u_h, exact, exact_curl):
    """H(curl) distance (||u - u_h||_0^2 + ||curl u - curl u_h||_0^2)^(1/2),
    by the rule of degree 2k + 4."""
    def chunk(sl, phys, w, local):
        coef = u_h[space.cell_dofs[sl]]

        def part(curls, f):
            d = _field(local, curls, coef) - _vector_field_at(f, phys)
            return np.einsum("cq,cqd->", w, (d * d.conj()).real)
        return part(False, exact) + part(True, exact_curl)
    return np.sqrt(sum(_cells(space, simplex_rule(3, 2 * space.k + 4),
                              chunk)))
