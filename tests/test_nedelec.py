"""Edge-element spaces: basis correctness, interpolation, assembly."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eddyopt import nedelec
from eddyopt.mesh import generate_cube, generate_cylinder
from eddyopt.nedelec import (
    AssemblyError, FESpace, ProblemConfig, assemble, assemble_curl_mass,
    assemble_load, element_basis, evaluate_field, hcurl_error, integrate,
    interpolate,
)
from eddyopt.quadrature import gauss_01, tet_rule


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
    phys, jac, Phi, curlPhi = element_basis(m, space, ref)
    for t in range(m.n_tets):
        verts = m.vertices[m.tets[t]]
        vals, curls = whitney_edge_basis(verts, ref)
        # global edge direction may flip the local one
        for i, (a, b) in enumerate(LOCAL_EDGES):
            ga, gb = m.tets[t, a], m.tets[t, b]
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


def test_first_order_basis_has_unit_moments():
    # sigma_i(phi_j) = delta_ij checked by independent quadrature
    m = generate_cube(1)
    space = FESpace(m, 1)
    t = 2
    verts = m.vertices[m.tets[t]]
    dofs = space.cell_dofs[t]
    u6, w6 = gauss_01(6)
    from eddyopt.quadrature import triangle_rule
    tri_pts, tri_w = triangle_rule(4)

    def field_of(j):
        coeffs = np.zeros(space.n_dofs)
        coeffs[dofs[j]] = 1.0
        def f(pts):
            T = np.column_stack([verts[1] - verts[0], verts[2] - verts[0],
                                 verts[3] - verts[0]])
            ref = np.linalg.solve(T, (pts - verts[0]).T).T
            _, _, Phi, _ = element_basis(m, space, ref, slice(t, t + 1))
            return np.einsum("d,pdc->pc", coeffs[dofs], Phi[0])
        return f

    n_loc = len(dofs)
    got = np.zeros((n_loc, n_loc))
    for j in range(n_loc):
        f = field_of(j)
        # 12 edge moments in local order
        loc_edges = [(a, b) if m.tets[t, a] < m.tets[t, b] else (b, a)
                     for a, b in LOCAL_EDGES]
        got[:12, j] = _edge_moments(verts, loc_edges, f, order=1)
        # 8 face moments: ascending-vertex triples of the local faces
        row = 12
        for fl in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)):
            tri = sorted(m.tets[t, list(fl)])
            inv = {v: i for i, v in enumerate(m.tets[t])}
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
    assert s0.n_local == 6 and s1.n_local == 20
    # boundary + interior partition the dofs
    for s in (s0, s1):
        both = np.concatenate([s.boundary_dofs, s.interior_dofs])
        assert np.array_equal(np.sort(both), np.arange(s.n_dofs))


def test_fespace_rejects_unsupported_order():
    m = generate_cube(1)
    with pytest.raises(ValueError):
        FESpace(m, 2)
    with pytest.raises(ValueError):
        FESpace(m, -1)


def test_basis_is_inverted_once_per_space(monkeypatch):
    calls = []
    inner = nedelec._basis_coeffs
    monkeypatch.setattr(nedelec, "_basis_coeffs",
                        lambda space, sl: calls.append(sl) or inner(space, sl))
    pts, _ = tet_rule(4)
    m = generate_cylinder(0.5, 1.0, 3, 18, 8)
    assert m.n_tets > nedelec.CHUNK
    space = FESpace(m, 0)
    assert space.basis is space.basis
    assemble(m, space, ProblemConfig())
    u = assemble_load(m, space, np.array([1.0, 0.0, 0.0]))
    hcurl_error(space, u, None, None)
    full = element_basis(m, space, pts)
    # chunk by chunk, on first use only
    assert len(calls) == -(-m.n_tets // nedelec.CHUNK)
    # a slice across the chunk boundary equals the rows of the full call
    sl = slice(nedelec.CHUNK - 5, nedelec.CHUNK + 7)
    for part, whole in zip(element_basis(m, space, pts, sl), full):
        assert np.array_equal(part, whole[sl])
    space = FESpace(generate_cube(2), 1)
    full = element_basis(space.mesh, space, pts)
    for part, whole in zip(element_basis(space.mesh, space, pts,
                                         slice(9, 30)), full):
        assert np.array_equal(part, whole[9:30])


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
    cfg = ProblemConfig(alpha=0.0, beta=1.0)  # allowed: one may vanish
    assert cfg.beta == 1.0


def test_load_vector_against_direct_quadrature():
    rng = np.random.default_rng(13)
    m = generate_cube(1)
    space = FESpace(m, 0)
    jvec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = assemble_load(m, space, jvec)
    # independent route: quadrature of j . Phi_i over each tet
    pts, w = tet_rule(4)
    ref = np.zeros(space.n_dofs, dtype=complex)
    phys, jac, Phi, _ = element_basis(m, space, pts)
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
    pts, w = tet_rule(2)
    phys, jac, Phi, curlPhi = element_basis(m, space, pts)
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
        e, fp, cp = hcurl_error(space, u, el_field, el_curl, return_parts=True)
        assert e == pytest.approx(np.sqrt(fp ** 2 + cp ** 2))
        errs.append(e)
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / errs[2] > 1.7  # first-order rate
