"""Edge-element spaces: basis correctness, interpolation, assembly."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from eddyopt import nedelec
from eddyopt.mesh import build_mesh, generate_cube, generate_cylinder
from eddyopt.nedelec import (
    AssemblyError, FESpace, ProblemConfig, assemble, assemble_curl_mass,
    assemble_load, evaluate_field, hcurl_error, interpolate,
)
from eddyopt.quadrature import gauss_01, simplex_rule
from oracles import hcurl_error_parts, integrate, inverted_element_basis


LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def barycentric_gradients(verts):
    """Rows: grad of the barycentric coordinate of each vertex."""
    T = np.column_stack([verts[1] - verts[0], verts[2] - verts[0],
                         verts[3] - verts[0]])
    Tinv = np.linalg.inv(T)
    g = np.vstack([-Tinv.sum(axis=0), Tinv])
    return g


def whitney_edge_basis(verts, pts):
    """Independent route: closed-form lowest-order edge functions.

    With mean-valued tangential moments as dofs, the basis function of the
    (global-direction lo->hi) edge (a, b) is |e| (la grad lb - lb grad la).
    """
    g = barycentric_gradients(verts)
    T = np.column_stack([verts[1] - verts[0], verts[2] - verts[0],
                         verts[3] - verts[0]])
    lam = np.empty((len(pts), 4))
    lam[:, 1:] = pts
    lam[:, 0] = 1 - pts.sum(axis=1)
    vals = np.empty((len(pts), 6, 3))
    curls = np.empty((6, 3))
    for i, (a, b) in enumerate(LOCAL_EDGES):
        le = np.linalg.norm(verts[b] - verts[a])
        vals[:, i, :] = le * (lam[:, a, None] * g[b] - lam[:, b, None] * g[a])
        curls[i] = 2 * le * np.cross(g[a], g[b])
    return vals, curls


def test_lowest_order_basis_matches_whitney_form():
    rng = np.random.default_rng(5)
    m = generate_cube(1)
    space = FESpace(m, 0)
    ref = rng.random((7, 3))
    ref /= ref.sum(axis=1, keepdims=True) * rng.uniform(1.0, 3.0, (7, 1))
    phys, jac, Phi, curlPhi = inverted_element_basis(space, ref)
    for t in range(m.n_tets):
        verts = m.vertices[space.tets[t]]
        vals, curls = whitney_edge_basis(verts, ref)
        # global edge direction may flip the local one
        for i, (a, b) in enumerate(LOCAL_EDGES):
            ga, gb = space.tets[t, a], space.tets[t, b]
            s = 1.0 if ga < gb else -1.0
            assert Phi[t][:, i, :] == pytest.approx(s * vals[:, i, :],
                                                    abs=1e-12)
            assert curlPhi[t][:, i, :] == pytest.approx(
                np.broadcast_to(s * curls[i], (len(ref), 3)), abs=1e-12)


def _edge_moments(verts, loc_edges, f, order, n=8):
    """Quadrature of the edge dofs of a field on one tet."""
    u, w = gauss_01(n)
    out = []
    for a, b in loc_edges:
        pa, pb = verts[a], verts[b]
        pts = pa + u[:, None] * (pb - pa)
        t = (pb - pa) / np.linalg.norm(pb - pa)
        ft = f(pts) @ t
        out.append((w * ft).sum())
        if order == 1:
            out.append((w * 3 * (2 * u - 1) * ft).sum())
    return np.array(out)


def cells_basis(space, pts):
    """(phys, jac, Phi, curlPhi) as `inverted_element_basis` returns them,
    expanded from the (Phi^, A, s) of `_cells`: Phi = s A Phi^."""
    def expand(sl, phys, w, local):
        return [phys, w[:, 0]] + [np.einsum("maq,cda,cm->cqmd", *local(curls))
                                  for curls in (False, True)]
    return [np.concatenate(part) for part in
            zip(*nedelec._cells(space, (pts, 1.0), expand))]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
       st.permutations(range(4)))
def test_reference_element_matches_a_per_tet_inversion(coords, ids):
    # one tet with any shape and any labelling of its vertex ids: the unit
    # tet's basis mapped through the ascending frame equals the basis from
    # the tet's own moment matrix
    verts = np.reshape(coords, (4, 3))
    longest = max(np.linalg.norm(verts[b] - verts[a]) for a, b in LOCAL_EDGES)
    assume(abs(np.linalg.det(verts[1:] - verts[0])) > 0.05 * longest ** 3)
    m = build_mesh(verts, [ids])
    pts, _ = simplex_rule(3, 4)
    for k in (0, 1):
        space = FESpace(m, k)
        got = cells_basis(space, pts)
        for part, want in zip(got, inverted_element_basis(space, pts)):
            assert np.abs(part - want).max() <= 1e-12 * np.abs(want).max()


def test_first_order_basis_has_unit_moments():
    # sigma_i(phi_j) = delta_ij checked by independent quadrature
    m = generate_cube(1)
    space = FESpace(m, 1)
    t = 2
    verts = m.vertices[space.tets[t]]
    dofs = space.cell_dofs[t]
    u6, w6 = gauss_01(6)
    tri_pts, tri_w = simplex_rule(2, 4)

    def field_of(j):
        coeffs = np.zeros(space.n_dofs)
        coeffs[dofs[j]] = 1.0
        def f(pts):
            T = np.column_stack([verts[1] - verts[0], verts[2] - verts[0],
                                 verts[3] - verts[0]])
            ref = np.linalg.solve(T, (pts - verts[0]).T).T
            _, _, Phi, _ = inverted_element_basis(space, ref, slice(t, t + 1))
            return np.einsum("d,pdc->pc", coeffs[dofs], Phi[0])
        return f

    n_loc = len(dofs)
    got = np.zeros((n_loc, n_loc))
    for j in range(n_loc):
        f = field_of(j)
        # 12 edge moments in local order
        loc_edges = [(a, b) if space.tets[t, a] < space.tets[t, b] else (b, a)
                     for a, b in LOCAL_EDGES]
        got[:12, j] = _edge_moments(verts, loc_edges, f, order=1)
        # 8 face moments: ascending-vertex triples of the local faces
        row = 12
        for fl in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)):
            tri = sorted(space.tets[t, list(fl)])
            inv = {v: i for i, v in enumerate(space.tets[t])}
            fv = m.vertices[tri]
            area2 = np.linalg.norm(np.cross(fv[1] - fv[0], fv[2] - fv[0]))
            pts = fv[0] + tri_pts[:, :1] * (fv[1] - fv[0]) \
                + tri_pts[:, 1:] * (fv[2] - fv[0])
            vals = f(pts)
            for d in (fv[1] - fv[0], fv[2] - fv[0]):
                got[row, j] = (tri_w * (vals @ d)).sum() * area2 / (area2 / 2)
                row += 1
    assert got == pytest.approx(np.eye(n_loc), abs=1e-11)


def test_interpolation_reproduces_local_space():
    rng = np.random.default_rng(7)
    m = generate_cube(2)
    b = rng.standard_normal(3)
    c = rng.standard_normal(3)
    Q = rng.standard_normal((3, 3))
    Q -= np.trace(Q) / 3 * np.eye(3)

    lin = lambda x: c + np.cross(b, np.broadcast_to(x, np.shape(x)))
    lin_curl = lambda x: np.broadcast_to(2 * b, np.shape(x))
    affine = lambda x: c + x @ Q.T  # full P1, beyond the k=0 space
    affine_curl_vec = np.array([Q[2, 1] - Q[1, 2], Q[0, 2] - Q[2, 0],
                                Q[1, 0] - Q[0, 1]])
    affine_curl = lambda x: np.broadcast_to(affine_curl_vec, np.shape(x))
    quad = lambda x: np.cross(x, x @ Q.T)
    quad_curl = lambda x: -3.0 * (x @ Q.T)

    for k in (0, 1):
        space = FESpace(m, k)
        u = interpolate(space, lin)
        assert hcurl_error(space, u, lin, lin_curl) < 1e-12
    s1 = FESpace(m, 1)
    assert hcurl_error(s1, interpolate(s1, affine), affine,
                       affine_curl) < 1e-12
    assert hcurl_error(s1, interpolate(s1, quad), quad, quad_curl) < 5e-12
    # the homogeneous-quadratic member is not representable at k=0
    s0 = FESpace(m, 0)
    assert hcurl_error(s0, interpolate(s0, quad), quad, quad_curl) > 1e-2


def test_interpolation_is_linear():
    m = generate_cube(1)
    space = FESpace(m, 1)
    f1 = lambda x: np.broadcast_to(np.array([1.0, 2.0, -1.0]), np.shape(x))
    f2 = lambda x: np.cross(x, np.array([0.0, 0.0, 1.0]))
    a, b = 2.0 - 1.0j, 0.5j
    combo = lambda x: a * f1(x) + b * f2(x)
    assert interpolate(space, combo) == pytest.approx(
        a * interpolate(space, f1) + b * interpolate(space, f2), abs=1e-13)


def test_dof_counts():
    m = generate_cube(2)
    s0, s1 = FESpace(m, 0), FESpace(m, 1)
    assert s0.n_dofs == m.n_edges
    assert s1.n_dofs == 2 * m.n_edges + 2 * m.faces.shape[0]
    assert s0.cell_dofs.shape[1] == 6 and s1.cell_dofs.shape[1] == 20
    E, F = m.n_edges, m.faces.shape[0]
    for k, s in enumerate((s0, s1)):
        # boundary + interior partition the dofs
        both = np.concatenate([s.boundary_dofs, s.interior_dofs])
        assert np.array_equal(np.sort(both), np.arange(s.n_dofs))
        # the numbering the entity tables state, edge dofs first
        e, mom = np.indices((E, k + 1))
        assert np.array_equal(s.edge_dofs, (k + 1) * e + mom)
        assert s.face_dofs.shape == (F, 2 * k)
        f, d = np.indices((F, 2 * k))
        assert np.array_equal(s.face_dofs, (k + 1) * E + 2 * f + d)
        # each tet's frame: its vertices in ascending id order, its edges
        # (tets[a], tets[b]) in LOCAL_EDGES order, then the faces opposite
        # sorted vertex 0..3; an edge dof scales by |e| / |e^|
        assert (np.diff(s.tets, axis=1) > 0).all()
        assert np.array_equal(s.tets, np.sort(m.tets, axis=1))
        edge_id = {tuple(e): i for i, e in enumerate(m.edges)}
        face_id = {tuple(f): i for i, f in enumerate(m.faces)}
        ref_len = np.array([1.0, 1.0, 1.0] + [np.sqrt(2.0)] * 3)
        for t, v in enumerate(s.tets):
            edges = [edge_id[v[a], v[b]] for a, b in LOCAL_EDGES]
            faces = [face_id[tuple(np.delete(v, j))] for j in range(4)]
            assert np.array_equal(s.cell_dofs[t], np.concatenate([
                s.edge_dofs[edges].ravel(), s.face_dofs[faces].ravel()]))
            assert s.scale[t] == pytest.approx(np.concatenate([
                np.repeat(m.edge_lengths[edges] / ref_len, k + 1),
                np.ones(8 * k)]), rel=1e-15)


def test_fespace_rejects_unsupported_order():
    m = generate_cube(1)
    with pytest.raises(ValueError):
        FESpace(m, 2)
    with pytest.raises(ValueError):
        FESpace(m, -1)


@pytest.mark.parametrize("k, n_fields", [(0, 6), (1, 20)])
def test_span_curls_match_finite_differences(k, n_fields):
    # the span is at most quadratic, so a central difference is exact up
    # to round-off; the curls come from the coefficient table alone
    pts = np.random.default_rng(17).uniform(-1.0, 1.0, (9, 3))
    vals, curls = nedelec._span(k, pts, False), nedelec._span(k, pts, True)
    assert vals.shape == curls.shape == (9, 3, n_fields)
    h = 1e-3
    grad = np.stack([(nedelec._span(k, pts + h * e, False)
                      - nedelec._span(k, pts - h * e, False)) / (2 * h)
                     for e in np.eye(3)], axis=1)  # (n, b, c, s) = d_b v_c
    eps = np.cross(np.eye(3)[:, None], np.eye(3)[None])
    fd_curls = np.einsum("abc,nbcs->nas", eps, grad)
    assert np.abs(fd_curls - curls).max() <= 1e-8


def test_basis_is_inverted_once_per_space(monkeypatch):
    # one moment inversion per order and process, on the unit tet, serves
    # every element loop of every space
    calls, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv",
                        lambda a: calls.append(a.shape) or inv(a))
    nedelec._reference_coeffs.cache_clear()
    pts, _ = simplex_rule(3, 4)
    m = generate_cylinder(0.5, 1.0, 3, 18, 8)
    assert m.n_tets > nedelec.CHUNK
    passes = [
        lambda space: assemble(space.mesh, space, ProblemConfig()),
        lambda space: nedelec._mass_matrix(space, 2 * space.k + 2),
        lambda space: assemble_load(space.mesh, space,
                                    np.array([1.0, 0.0, 0.0])),
        lambda space: hcurl_error(space, np.ones(space.n_dofs), None, None),
        lambda space: evaluate_field(space, np.ones(space.n_dofs), pts),
    ]
    for mesh in (m, generate_cube(2)):
        for k in (0, 1):
            space = FESpace(mesh, k)
            for run in passes:
                run(space)
    assert calls == [(6, 6), (20, 20)]
    # and each pass over the chunks evaluates Phi^ and curl Phi^ at the
    # rule's points at most once each
    spans, span = [], nedelec._span
    monkeypatch.setattr(nedelec, "_span", lambda k, pts, curls: (
        spans.append(curls) or span(k, pts, curls)))
    for k in (0, 1):
        space = FESpace(m, k)
        for run in passes:
            spans.clear()
            run(space)
            assert spans.count(False) <= 1 and spans.count(True) <= 1


def test_assembled_matrix_invariants():
    rng = np.random.default_rng(11)
    m = generate_cylinder(0.5, 1.0, 1, 6, 2)
    for k in (0, 1):
        space = FESpace(m, k)
        A = assemble(m, space, ProblemConfig(mu=1.0, kappa=1.0, omega=1.0))
        d = A - A.T
        d.eliminate_zeros()
        assert d.nnz == 0  # complex symmetric, bitwise
        for _ in range(5):
            v = rng.standard_normal(space.n_dofs) \
                + 1j * rng.standard_normal(space.n_dofs)
            q = np.vdot(v, A @ v)
            assert q.real >= 0
            assert q.imag >= 0
        # negative frequency flips the sign of the imaginary part
        A2 = assemble(m, space, ProblemConfig(mu=1.0, kappa=1.0, omega=-2.0))
        v = rng.standard_normal(space.n_dofs) + 0j
        assert np.vdot(v, A2 @ v).imag <= 0


def test_system_matrix_is_one_sparse_pass_equal_to_K_plus_iM(monkeypatch):
    # A sums K_e + i omega M_e per element and builds one CSR matrix; at
    # omega = 1 it is bitwise K + i M, on the same stored pattern
    m = generate_cylinder(0.5, 1.0, 1, 6, 2)
    mu = 2.0 * np.eye(3) + 0.25
    kappa = lambda x: 1.0 + x[..., 0] ** 2
    calls = []
    build = nedelec.symmetric_csr

    def counting(local, dofs, n):
        calls.append(local.dtype)
        return build(local, dofs, n)
    for k in (0, 1):
        space = FESpace(m, k)
        K, M = assemble_curl_mass(m, space, mu, kappa, 2 * k + 2)
        monkeypatch.setattr(nedelec, "symmetric_csr", counting)
        calls.clear()
        A = assemble(m, space, ProblemConfig(mu=mu, kappa=kappa))
        monkeypatch.setattr(nedelec, "symmetric_csr", build)
        assert calls == [np.complex128]
        assert np.array_equal(A.indptr, K.indptr)
        assert np.array_equal(A.indices, K.indices)
        assert (K.data + 1j * M.data).tobytes() == A.data.tobytes()


def test_stored_pattern_is_every_dof_pair_sharing_a_tet():
    # entries whose element sums cancel to 0.0 stay stored, so the pattern
    # of K, M and A is the mesh's, not round-off's
    m = generate_cylinder(0.5, 1.0, 3, 18, 6)
    for k in (0, 1):
        space = FESpace(m, k)
        d = space.cell_dofs
        pairs = np.unique(d[:, :, None] * space.n_dofs + d[:, None, :]).size
        K, M = assemble_curl_mass(m, space)
        A = assemble(m, space, ProblemConfig())
        assert K.nnz == M.nnz == A.nnz == pairs


def test_scalar_coefficient_scaling_is_exact():
    m = generate_cube(1)
    space = FESpace(m, 0)
    K1, M1 = assemble_curl_mass(m, space, 1.0, 1.0)
    K2, M2 = assemble_curl_mass(m, space, 2.0, 4.0)
    assert abs(K2 - 0.5 * K1).max() == 0.0
    assert abs(M2 - 4.0 * M1).max() == 0.0
    # the same constants as per-point fields
    K3, M3 = assemble_curl_mass(m, space, lambda x: np.full(x.shape[:-1], 2.0),
                                lambda x: np.full(x.shape[:-1], 4.0))
    assert abs(K3 - 0.5 * K1).max() == 0.0
    assert abs(M3 - 4.0 * M1).max() == 0.0


def test_matrix_coefficient_matches_scalar_path():
    m = generate_cube(1)
    space = FESpace(m, 1)
    K1, M1 = assemble_curl_mass(m, space, 2.0, 3.0)
    K2, M2 = assemble_curl_mass(m, space, 2.0 * np.eye(3), 3.0 * np.eye(3))
    assert abs(K2 - K1).max() < 1e-13
    assert abs(M2 - M1).max() < 1e-13


def test_spatially_varying_matrix_coefficient():
    # kappa(x) = diag(1+x^2, 1, 1) against a hand-computed quadratic entry
    m = generate_cube(1)
    space = FESpace(m, 0)
    exx = np.outer([1.0, 0, 0], [1.0, 0, 0])
    kappa = lambda x: (np.eye(3)
                       + exx * (x[..., 0] ** 2)[..., None, None])
    _, M = assemble_curl_mass(m, space, 1.0, kappa, degree=6)
    _, M0 = assemble_curl_mass(m, space, 1.0, 1.0, degree=6)
    diff = M - M0
    # the difference is int x^2 (phi_i)_x (phi_j)_x, positive semidefinite
    w = np.linalg.eigvalsh(diff.toarray())
    assert w.min() > -1e-13
    assert w.max() > 0


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("coeff", [
    3.0,
    np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]]),
    lambda x: 1.0 + x[..., 0] ** 2,
    lambda x: np.eye(3) + np.einsum("...a,...b->...ab", x, x),
], ids=["scalar", "spd", "callable", "callable-spd"])
def test_span_first_gram_matches_the_element_basis(k, coeff):
    # the metrics w A^T c A times the reference table, on every chunk,
    # equal the quadrature of Phi_m . c Phi_n, and of the curls, over the
    # basis each tet gets from its own moment matrix
    m = generate_cylinder(0.5, 1.0, 2, 12, 4)
    assert m.n_tets > nedelec.CHUNK
    space = FESpace(m, k)
    degree = 2 * k + 2
    pts, rw = simplex_rule(3, degree)
    phys, jac, Phi, curlPhi = inverted_element_basis(space, pts)
    c = nedelec._coeff_at(coeff, phys, "c")
    got = nedelec._cells(space, (pts, rw), lambda sl, phys, w, local: [
        nedelec._gram(w, nedelec._coeff_at(coeff, phys, "c"), *local(curls))
        for curls in (False, True)])
    for curls, basis in ((False, Phi), (True, curlPhi)):
        if c.ndim > 2:
            c_basis = np.einsum("cqab,cqnb->cqna", c, basis)
        else:
            c_basis = c[..., None, None] * basis
        want = np.einsum("q,c,cqmd,cqnd->cmn", rw, jac, basis, c_basis)
        gram = np.concatenate([g[curls] for g in got])
        scale = np.abs(want).max(axis=(1, 2), keepdims=True)
        assert (np.abs(gram - want) / scale).max() <= 1e-13


def test_non_spd_coefficient_rejected():
    m = generate_cube(1)
    space = FESpace(m, 0)
    with pytest.raises(AssemblyError):
        assemble_curl_mass(m, space, -1.0, 1.0)
    bad = np.diag([1.0, 1.0, -0.5])
    with pytest.raises(AssemblyError):
        assemble_curl_mass(m, space, bad, 1.0)
    asym = np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(AssemblyError):
        assemble_curl_mass(m, space, asym, 1.0)
    with pytest.raises(AssemblyError, match="scalar, 3x3, or callable"):
        assemble_curl_mass(m, space, np.ones(3), 1.0)
    with pytest.raises(AssemblyError, match="returned shape"):
        assemble_curl_mass(m, space, lambda x: np.ones(x.shape), 1.0)
    with pytest.raises(AssemblyError, match="mu is not positive"):
        assemble_curl_mass(m, space, lambda x: x[..., 0] - 0.5, 1.0)
    for bad_kappa in (0.0, np.inf, bad, asym, np.full((3, 3), np.nan),
                      np.ones((2, 2)),
                      lambda x: -np.ones(x.shape[:-1]),
                      lambda x: np.full(x.shape[:-1], np.nan),
                      lambda x: np.ones(x.shape[:-1] + (3,))):
        with pytest.raises(AssemblyError):
            assemble_curl_mass(m, space, 1.0, bad_kappa)


def test_problem_config_validation():
    with pytest.raises(ValueError):
        ProblemConfig(omega=0.0)
    with pytest.raises(ValueError):
        ProblemConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        ProblemConfig(alpha=0.0, beta=0.0)
    for name in ("omega", "alpha", "beta", "solver_tol"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                ProblemConfig(**{name: bad})
    cfg = ProblemConfig(alpha=0.0, beta=1.0)  # allowed: one may vanish
    assert cfg.beta == 1.0


@pytest.mark.parametrize("field, bad", [
    ("kappa", -1), ("kappa", 0.0), ("mu", np.nan),
    ("mu", np.diag([1.0, 1.0, -0.5])),
])
def test_problem_config_rejects_a_constant_coefficient_as_assembly_would(
        field, bad):
    # the rule of _coeff_at, applied when the config is made, before a run
    with pytest.raises(AssemblyError, match=f"{field} is not"):
        ProblemConfig(**{field: bad})


@pytest.mark.parametrize("field, bad", [
    ("solver_tol", 0.0), ("solver_tol", -1.0),
    ("quad_order", 0), ("quad_order", -1), ("quad_order", 2.5),
    ("quad_order", True),
])
def test_problem_config_rejects_a_tolerance_or_rule_that_cannot_work(field,
                                                                      bad):
    # a tolerance <= 0 fails every solve's residual check; a rule degree
    # below 1 leaves K and M inexact, and 0 must not read as unset
    with pytest.raises(ValueError, match=field):
        ProblemConfig(**{field: bad})
    assert ProblemConfig(quad_order=np.int64(3)).quad_degree(1) == 3
    assert ProblemConfig().quad_degree(1) == 4


def test_load_vector_against_direct_quadrature():
    rng = np.random.default_rng(13)
    m = generate_cube(1)
    space = FESpace(m, 0)
    jvec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = assemble_load(m, space, jvec)
    # independent route: quadrature of j . Phi_i over each tet
    pts, w = simplex_rule(3, 4)
    ref = np.zeros(space.n_dofs, dtype=complex)
    phys, jac, Phi, _ = inverted_element_basis(space, pts)
    for t in range(m.n_tets):
        vals = np.einsum("q,qdc,c->d", w * jac[t], Phi[t], jvec)
        np.add.at(ref, space.cell_dofs[t], vals)
    assert b == pytest.approx(ref, abs=1e-14)


def test_energy_identity():
    # v^H A v = int (1/mu)|curl v|^2 + i omega int kappa |v|^2 for real coeffs
    rng = np.random.default_rng(17)
    m = generate_cube(2)
    space = FESpace(m, 0)
    A = assemble(m, space, ProblemConfig(mu=2.0, kappa=3.0, omega=1.5))
    v = rng.standard_normal(space.n_dofs) + 1j * rng.standard_normal(space.n_dofs)
    q = np.vdot(v, A @ v)
    pts, w = simplex_rule(3, 2)
    phys, jac, Phi, curlPhi = inverted_element_basis(space, pts)
    curl_sq = mass_sq = 0.0
    for t in range(m.n_tets):
        vt = v[space.cell_dofs[t]]
        cu = np.einsum("d,qdc->qc", vt, curlPhi[t])
        uu = np.einsum("d,qdc->qc", vt, Phi[t])
        curl_sq += (w * jac[t] * np.einsum("qc,qc->q", cu, cu.conj()).real).sum()
        mass_sq += (w * jac[t] * np.einsum("qc,qc->q", uu, uu.conj()).real).sum()
    assert q.real == pytest.approx(curl_sq / 2.0, rel=1e-12)
    assert q.imag == pytest.approx(1.5 * 3.0 * mass_sq, rel=1e-12)


def test_integrate_constant():
    m = generate_cylinder(0.5, 1.0, 2, 12, 4)
    vol = m.tet_volumes().sum()
    got = integrate(m, lambda x: np.ones(np.shape(x)[:-1]), degree=2)
    assert got == pytest.approx(vol, rel=1e-13)


def test_evaluate_field_matches_interpolant():
    m = generate_cube(1)
    space = FESpace(m, 1)
    f = lambda x: np.cross(np.array([1.0, -2.0, 0.5]),
                           np.broadcast_to(x, np.shape(x)))
    u = interpolate(space, f)
    ref = np.array([[0.25, 0.25, 0.25], [0.1, 0.2, 0.3]])
    phys, vals, curls = evaluate_field(space, u, ref)
    for t in range(m.n_tets):
        assert vals[t] == pytest.approx(f(phys[t]), abs=1e-13)
        assert curls[t] == pytest.approx(
            np.broadcast_to(2 * np.array([1.0, -2.0, 0.5]), (2, 3)),
            abs=1e-13)


def test_evaluate_field_in_chunks_equals_one_pass_over_all_tets(monkeypatch):
    m = generate_cylinder(0.5, 1.0, 2, 12, 4)
    assert m.n_tets > nedelec.CHUNK
    ref = np.array([[0.25, 0.25, 0.25], [0.1, 0.2, 0.3]])
    rng = np.random.default_rng(23)
    for k in (0, 1):
        space = FESpace(m, k)
        u = rng.standard_normal(space.n_dofs) + 1j * rng.standard_normal(
            space.n_dofs)
        chunked = evaluate_field(space, u, ref)
        with monkeypatch.context() as patch:
            patch.setattr(nedelec, "CHUNK", m.n_tets)
            whole = evaluate_field(space, u, ref)  # every tet in one pass
        for part, want in zip(chunked, whole):
            assert np.array_equal(part, want)
        # and the element basis contracted with the same coefficients
        phys, _, Phi, curlPhi = inverted_element_basis(space, ref)
        coef = u[space.cell_dofs]
        assert np.array_equal(chunked[0], phys)
        for got, basis in zip(chunked[1:], (Phi, curlPhi)):
            want = np.einsum("cqmd,cm->cqd", basis, coef)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("k", [0, 1])
def test_hcurl_error_contracts_coefficients_first(k):
    # the field and its curl at the points, and the error built on them,
    # agree with the element basis contracted with the same coefficients
    m = generate_cylinder(0.5, 1.0, 2, 12, 4)
    assert m.n_tets > nedelec.CHUNK
    space = FESpace(m, k)
    rng = np.random.default_rng(41)
    u = rng.standard_normal(space.n_dofs) + 1j * rng.standard_normal(
        space.n_dofs)
    exact = lambda x: np.stack([np.sin(x[..., 1]), x[..., 2] ** 2,
                                1j * x[..., 0]], axis=-1)
    curl = lambda x: np.stack([2 * x[..., 2], -1j * np.ones(x.shape[:-1]),
                               -np.cos(x[..., 1])], axis=-1)
    degree = 2 * k + 4
    rule = simplex_rule(3, degree)
    _, _, Phi, curlPhi = inverted_element_basis(space, rule[0])

    def field(sl, phys, w, local):  # span (D u) on each chunk
        coef = u[space.cell_dofs[sl]]
        return [nedelec._field(local, curls, coef) for curls in (False, True)]
    vals, curls = map(np.concatenate, zip(*nedelec._cells(
        space, rule, field)))
    coef = u[space.cell_dofs]
    for got, basis in ((vals, Phi), (curls, curlPhi)):
        want = np.einsum("cqmd,cm->cqd", basis, coef)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    want = hcurl_error_parts(space, u, exact, curl, degree)[0]
    got = hcurl_error(space, u, exact, curl)
    assert np.isclose(got, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("run", [
    lambda space, f: assemble_load(space.mesh, space, f),
    lambda space, f: hcurl_error(space, np.zeros(space.n_dofs), f, f),
], ids=["assemble_load", "hcurl_error"])
def test_element_loop_holds_two_basis_sized_arrays(run):
    # at order 1 and the default load degree one chunk's basis values
    # would be CHUNK x 64 points x 3 x 20 doubles = 7.9 MB; the loop builds
    # none, only the reference table, the per-tet maps and arrays of
    # CHUNK x 64 x 3 values (0.8 MB complex), so its peak (4.1 MB) stays
    # below one such array
    m = generate_cylinder(0.5, 1.0, 3, 18, 6)
    space = FESpace(m, 1)
    tracemalloc.start()
    try:
        run(space, lambda x: np.ones(x.shape, complex))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.9e6


def _symmetric_csr_int64(local, dofs, n):
    # symmetric_csr with int64 row and column arrays, as it was built before
    m = dofs.shape[1]
    dofs = dofs.astype(np.int64)
    rows = np.repeat(dofs, m, axis=1).ravel()
    cols = np.tile(dofs, (1, m)).ravel()
    A = sp.csr_matrix((local.ravel(), (rows, cols)), (n, n))
    A.data = (A.data + A.T.tocsr().data) * 0.5
    return A


def test_int32_assembly_indices_match_an_int64_build(monkeypatch):
    m = generate_cylinder(0.5, 1.0, 2, 12, 4)
    space = FESpace(m, 1)
    got = assemble_curl_mass(m, space)
    monkeypatch.setattr(nedelec, "symmetric_csr", _symmetric_csr_int64)
    want = assemble_curl_mass(m, space)
    for A, B in zip(got, want):
        for name in ("data", "indices", "indptr"):
            a, b = getattr(A, name), getattr(B, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_hcurl_error_parts_and_interpolant_decay():
    el_field = lambda x: np.stack([np.sin(x[..., 1]), np.zeros(x.shape[:-1]),
                                   np.zeros(x.shape[:-1])], axis=-1)
    el_curl = lambda x: np.stack([np.zeros(x.shape[:-1]),
                                  np.zeros(x.shape[:-1]),
                                  -np.cos(x[..., 1])], axis=-1)
    errs = []
    for n in (1, 2, 4):
        m = generate_cube(n)
        space = FESpace(m, 0)
        u = interpolate(space, el_field)
        e = hcurl_error(space, u, el_field, el_curl)
        _, fp, cp = hcurl_error_parts(space, u, el_field, el_curl, 4)
        assert e == pytest.approx(np.sqrt(fp ** 2 + cp ** 2))
        errs.append(e)
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / errs[2] > 1.7  # first-order rate
