"""Surface control space: edge functions, closed-form matrices, lifting."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eddyopt.mesh import MeshError, generate_cube, generate_cylinder
from eddyopt.nedelec import FESpace, evaluate_field, interpolate
from eddyopt.quadrature import gauss_01, simplex_rule
from eddyopt.trace import (
    face_lambda_gradients, lift, surface_curl_matrix, surface_mass_matrix,
)
from oracles import (
    eval_control_on_faces, eval_phi, eval_psi, inverted_element_basis,
    tangential_trace)


def _face_boundary_edges(m, tri):
    """Boundary-edge indices of a boundary face, ascending vertex pairs."""
    key = m.edges[:, 0].astype(np.int64) * m.n_vertices + m.edges[:, 1]
    out = []
    for a, b in itertools.combinations(sorted(tri.tolist()), 2):
        ge = np.searchsorted(key, np.int64(a) * m.n_vertices + b)
        out.append(int(np.searchsorted(m.boundary_edges, ge)))
    return out


def _plus_minus_faces(m, e):
    """The two boundary faces of edge e: the one whose counterclockwise
    cycle runs e from its lower to its higher vertex id, then the other."""
    lo, hi = m.edges[e].tolist()
    pair = {}
    for f, tri in enumerate(m.boundary_faces.tolist()):
        if lo in tri and hi in tri:
            pair[tri[(tri.index(lo) + 1) % 3] == hi] = f
    return pair[True], pair[False]


def quadrature_surface_matrices(m, degree=6):
    """Independent route for the mass/curl matrices.

    Mass entries by numeric quadrature of eval_phi products; curl entries
    from the barycentric-gradient formula curl phi_e = 2|e| (ga x gb) . n.
    """
    nb = m.boundary_edges.size
    Mq = np.zeros((nb, nb))
    Kq = np.zeros((nb, nb))
    pts_ref, w_ref = simplex_rule(2, degree)
    for tri in m.boundary_faces:
        fv = m.vertices[tri]
        nvec = np.cross(fv[1] - fv[0], fv[2] - fv[0])
        area2 = np.linalg.norm(nvec)
        nvec = nvec / area2
        pts = fv[0] + pts_ref[:, :1] * (fv[1] - fv[0]) \
            + pts_ref[:, 1:] * (fv[2] - fv[0])
        bes = _face_boundary_edges(m, tri)
        phis = np.array([[eval_phi(m, int(m.boundary_edges[be]), x)
                          for x in pts] for be in bes])
        g = face_lambda_gradients(fv)
        order = {v: i for i, v in enumerate(tri)}
        curls = []
        for (a, b) in itertools.combinations(sorted(tri.tolist()), 2):
            le = np.linalg.norm(m.vertices[b] - m.vertices[a])
            curls.append(2 * le * np.cross(g[order[a]], g[order[b]]) @ nvec)
        for i, bi in enumerate(bes):
            for j, bj in enumerate(bes):
                Mq[bi, bj] += (w_ref * np.einsum("pc,pc->p", phis[i],
                                                 phis[j])).sum() * area2
                Kq[bi, bj] += curls[i] * curls[j] * area2 / 2
    return Kq, Mq


def test_surface_matrices_match_quadrature():
    for m in (generate_cube(1), generate_cylinder(0.5, 1.0, 1, 6, 2)):
        Kq, Mq = quadrature_surface_matrices(m)
        assert abs(surface_mass_matrix(m).toarray() - Mq).max() <= 1e-12
        assert abs(surface_curl_matrix(m).toarray() - Kq).max() <= 1e-12


def test_surface_matrices_spd():
    m = generate_cylinder(0.5, 1.0, 1, 6, 2)
    K, M = surface_curl_matrix(m), surface_mass_matrix(m)
    assert abs(K - K.T).max() == 0.0
    assert abs(M - M.T).max() == 0.0
    wm = np.linalg.eigvalsh(M.toarray())
    wk = np.linalg.eigvalsh(K.toarray())
    assert wm.min() > 0
    assert wk.min() > -1e-12 * abs(wk).max()
    # the curl matrix is singular: constants along closed loops are curl-free
    assert wk.min() < 1e-10 * abs(wk).max()


def test_face_lambda_gradients_meet_their_definition():
    # grad lambda_a . (x_a - x_b) = 1 for b != a, in plane, summing to zero,
    # on random triangles and on skinny ones (height about 1e-4), in both
    # vertex orders; round-off is measured against cond = (longest side)^2
    # / (2 area) of each triangle
    rng = np.random.default_rng(5)
    tris = rng.standard_normal((200, 3, 3))
    skinny = tris.copy()
    skinny[:, 2] = (tris[:, 0] + rng.uniform(0.1, 0.9, (200, 1))
                    * (tris[:, 1] - tris[:, 0])
                    + 1e-4 * rng.standard_normal((200, 3)))
    for verts in (tris, skinny):
        n = np.cross(verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0])
        side = np.linalg.norm(verts - np.roll(verts, 1, axis=1), axis=2)
        cond = side.max(axis=1) ** 2 / np.linalg.norm(n, axis=1)
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        g = face_lambda_gradients(verts)
        big = np.abs(g).max(axis=(1, 2))
        flipped = face_lambda_gradients(verts[:, ::-1])
        assert (np.abs(flipped[:, ::-1] - g).max(axis=(1, 2))
                <= 1e-14 * cond * big).all()
        for v, gv in ((verts, g), (verts[:, ::-1], flipped)):
            for a, b in itertools.permutations(range(3), 2):
                dot = np.einsum("fd,fd->f", gv[:, a], v[:, a] - v[:, b])
                assert (np.abs(dot - 1.0) <= 1e-14 * cond).all()
            assert (np.abs(gv @ n[:, :, None]).max(axis=(1, 2))
                    <= 1e-14 * cond * big).all()
            assert (np.abs(gv.sum(axis=1)).max(axis=1) <= 1e-14 * big).all()


def test_surface_curl_integral_vanishes_per_edge():
    # int_Gamma curl_G phi_e = |e| on the plus face and -|e| on the minus
    m = generate_cube(1)
    pts_ref, w_ref = simplex_rule(2, 2)
    nb = m.boundary_edges.size
    totals = np.zeros(nb)
    for tri in m.boundary_faces:
        fv = m.vertices[tri]
        nvec = np.cross(fv[1] - fv[0], fv[2] - fv[0])
        area2 = np.linalg.norm(nvec)
        nvec = nvec / area2
        g = face_lambda_gradients(fv)
        order = {v: i for i, v in enumerate(tri)}
        bes = _face_boundary_edges(m, tri)
        for (a, b), be in zip(itertools.combinations(sorted(tri.tolist()), 2),
                              bes):
            le = np.linalg.norm(m.vertices[b] - m.vertices[a])
            c = 2 * le * np.cross(g[order[a]], g[order[b]]) @ nvec
            totals[be] += c * area2 / 2
    assert abs(totals).max() <= 1e-12


def test_facewise_surface_divergence_vanishes():
    # divergence theorem on each flat face: |F| div_G z = edge flux of z.
    # Evaluate through the face's own barycentric form so each edge point
    # is unambiguously attributed to the face whose boundary it sits on.
    rng = np.random.default_rng(23)
    m = generate_cylinder(0.5, 1.0, 1, 6, 2)
    nb = m.boundary_edges.size
    z = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
    u, w = gauss_01(6)
    zeros = np.zeros_like(u)
    refs = (np.stack([u, zeros], axis=1),           # slot 0 -> slot 1
            np.stack([1.0 - u, u], axis=1),         # slot 1 -> slot 2
            np.stack([zeros, 1.0 - u], axis=1))     # slot 2 -> slot 0
    face_idx = np.arange(m.boundary_faces.shape[0])[::5]
    verts = m.vertices[m.boundary_faces[face_idx]]
    nvec = m.boundary_normals[face_idx]
    areas = m.boundary_areas[face_idx]
    flux = np.zeros(len(face_idx), dtype=complex)
    for (i0, i1), ref in zip(((0, 1), (1, 2), (2, 0)), refs):
        pa, pb = verts[:, i0], verts[:, i1]
        le = np.linalg.norm(pb - pa, axis=1)
        tang = (pb - pa) / le[:, None]
        nu = np.cross(tang, nvec)  # in-plane, outward for CCW traversal
        pts, vals = eval_control_on_faces(m, z, face_idx, ref)
        expect = pa[:, None, :] + u[None, :, None] * (pb - pa)[:, None, :]
        assert abs(pts - expect).max() <= 1e-12
        flux += le * np.einsum('q,fqd,fd->f', w, vals, nu)
    assert (abs(flux) / areas).max() <= 1e-12


def test_psi_is_scaled_opposite_vertex_fan():
    m = generate_cube(1)
    for be in m.boundary_edges[:6]:
        a, b = m.edges[be]
        le = np.linalg.norm(m.vertices[b] - m.vertices[a])
        for fid, sign in zip(_plus_minus_faces(m, be), (1.0, -1.0)):
            tri = m.boundary_faces[fid]
            opp = [v for v in tri if v not in (a, b)][0]
            fv = m.vertices[tri]
            area = 0.5 * np.linalg.norm(np.cross(fv[1] - fv[0],
                                                 fv[2] - fv[0]))
            x = fv.mean(axis=0)
            want = sign * le / (2 * area) * (x - m.vertices[opp])
            assert eval_psi(m, be, x) == pytest.approx(want, abs=1e-13)


def test_psi_normal_flux_continuous_across_shared_edge():
    # the edge-normal component of psi_e is continuous over its edge
    m = generate_cylinder(0.5, 1.0, 1, 6, 2)
    for be in m.boundary_edges[::6]:
        a, b = m.edges[be]
        mid = 0.5 * (m.vertices[a] + m.vertices[b])
        t = (m.vertices[b] - m.vertices[a]) / m.edge_lengths[be]
        plus, minus = _plus_minus_faces(m, be)
        # approach the edge from inside each face
        for fid in (plus, minus):
            nu = np.cross(t, m.boundary_normals[fid])
            tri = m.boundary_faces[fid]
            cen = m.vertices[tri].mean(axis=0)
            x = mid + 1e-8 * (cen - mid)
            val = eval_psi(m, int(be), x)
            le = np.linalg.norm(m.vertices[b] - m.vertices[a])
            fv = m.vertices[tri]
            area = 0.5 * np.linalg.norm(np.cross(fv[1] - fv[0],
                                                 fv[2] - fv[0]))
            # flux along each face's own conormal (both point across the
            # edge toward the minus face, so non-coplanar pairs agree too)
            got = val @ nu
            opp = [v for v in tri if v not in (a, b)][0]
            sign = 1.0 if fid == plus else -1.0
            want = sign * le / (2 * area) * (x - m.vertices[opp]) @ nu
            assert got == pytest.approx(want, abs=1e-12)
            assert got == pytest.approx(1.0, abs=1e-6)  # unit edge flux


def test_phi_is_rotated_psi_and_supported_on_edge_pair():
    m = generate_cube(1)
    be = int(m.boundary_edges[0])
    pair = _plus_minus_faces(m, be)
    tri = m.boundary_faces[pair[0]]
    fv = m.vertices[tri]
    x = fv.mean(axis=0)
    assert eval_phi(m, be, x) == pytest.approx(
        np.cross(m.boundary_normals[pair[0]], eval_psi(m, be, x)), abs=1e-14)
    # zero on faces not adjacent to the edge
    for fid, tri2 in enumerate(m.boundary_faces):
        if fid in pair:
            continue
        y = m.vertices[tri2].mean(axis=0)
        assert np.all(eval_phi(m, be, y) == 0)
        assert np.all(eval_psi(m, be, y) == 0)


def test_control_evaluation_matches_lifted_trace():
    # two routes to the same tangential field on a boundary face
    rng = np.random.default_rng(31)
    m = generate_cylinder(0.5, 1.0, 1, 6, 2)
    nb = m.boundary_edges.size
    z = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
    face_idx = np.arange(0, len(m.boundary_faces), 7)
    ref = np.array([[0.2, 0.3], [0.5, 0.25], [1 / 3, 1 / 3]])
    pts, vals = eval_control_on_faces(m, z, face_idx, ref)
    for k in (0, 1):
        space = FESpace(m, k)
        u = lift(space, z)
        for i, fid in enumerate(face_idx):
            tri = m.boundary_faces[fid]
            fv = m.vertices[tri]
            nvec = np.cross(fv[1] - fv[0], fv[2] - fv[0])
            nvec = nvec / np.linalg.norm(nvec)
            for p, want in zip(pts[i], vals[i]):
                got = np.zeros(3, dtype=complex)
                for be in _face_boundary_edges(m, tri):
                    got += z[be] * eval_phi(m, int(m.boundary_edges[be]), p)
                # tangential part only, and phi is already tangential
                assert got == pytest.approx(want, abs=1e-12)


def test_lift_trace_round_trip():
    rng = np.random.default_rng(37)
    m = generate_cube(2)
    nb = m.boundary_edges.size
    z = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
    for k in (0, 1):
        space = FESpace(m, k)
        u = lift(space, z)
        assert np.array_equal(tangential_trace(space, u), z)
        # interior moments untouched
        mask = np.ones(space.n_dofs, dtype=bool)
        mask[space.boundary_dofs] = False
        assert np.all(u[mask] == 0)


def test_lift_matches_surface_field_tangentially():
    # the lifted volume field restricted to a boundary face has the same
    # tangential component as the surface expansion, for both orders
    rng = np.random.default_rng(41)
    m = generate_cube(1)
    nb = m.boundary_edges.size
    z = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
    owners = {}
    for t, fl in enumerate(m.tet_faces):
        for f in fl:
            owners.setdefault(f, []).append(t)
    for k in (0, 1):
        space = FESpace(m, k)
        u = lift(space, z)
        for bf_local in range(0, len(m.boundary_faces), 3):
            fid = m.boundary_face_ids[bf_local]
            tri = m.boundary_faces[bf_local]
            fv = m.vertices[tri]
            nvec = np.cross(fv[1] - fv[0], fv[2] - fv[0])
            nvec = nvec / np.linalg.norm(nvec)
            (t,) = owners[fid]
            bc = np.array([[0.4, 0.35, 0.25], [0.2, 0.2, 0.6]])
            pts3 = bc @ fv
            tv = m.vertices[space.tets[t]]
            T = np.column_stack([tv[1] - tv[0], tv[2] - tv[0], tv[3] - tv[0]])
            refp = np.linalg.solve(T, (pts3 - tv[0]).T).T
            _, _, Phi, _ = inverted_element_basis(space, refp, slice(t, t + 1))
            vol_vals = np.einsum("d,pdc->pc", u[space.cell_dofs[t]], Phi[0])
            for p, vv in zip(pts3, vol_vals):
                surf = np.zeros(3, dtype=complex)
                for be in _face_boundary_edges(m, tri):
                    surf += z[be] * eval_phi(m, int(m.boundary_edges[be]), p)
                vt = vv - (vv @ nvec) * nvec
                tol = 1e-12 if k == 1 else 0.35
                if k == 1:
                    assert vt == pytest.approx(surf, abs=tol)
                else:
                    # lowest order can only match edge means, not pointwise
                    assert abs(vt - surf).max() < tol


@pytest.mark.parametrize("k", [0, 1])
def test_boundary_curl_of_the_lifted_control_is_the_surface_curl_gram(k):
    # the control space keeps the structure of its regularization: on
    # every boundary face n . curl(L z) is constant, and
    # sum_F |F| |n . curl(L z)|^2 = z^H K z
    m = generate_cylinder(0.5, 1.0, 2, 12, 4)
    space = FESpace(m, k)
    rng = np.random.default_rng(43)
    nb = m.n_boundary_edges
    z = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
    # three points on each face of the unit tet, face j opposite vertex j
    bary = np.array([[1.0, 1.0, 1.0], [4.0, 1.0, 1.0], [1.0, 2.0, 5.0]])
    bary /= bary.sum(axis=1, keepdims=True)
    unit = np.vstack([np.zeros(3), np.eye(3)])
    pts = np.concatenate([bary @ np.delete(unit, j, axis=0) for j in range(4)])
    curls = evaluate_field(space, lift(space, z), pts)[2]
    owner = {f: t for t, faces in enumerate(m.tet_faces) for f in faces}
    n_curl = []
    for fb, f in enumerate(m.boundary_face_ids):
        t = owner[f]
        (j,) = np.flatnonzero(~np.isin(space.tets[t], m.faces[f]))
        n_curl.append(curls[t, 3 * j:3 * j + 3] @ m.boundary_normals[fb])
    n_curl = np.array(n_curl)
    scale = np.abs(n_curl).max()
    assert np.abs(n_curl - n_curl[:, :1]).max() <= 1e-12 * scale
    gram = np.vdot(z, surface_curl_matrix(m) @ z)
    got = np.sum(m.boundary_areas * np.abs(n_curl[:, 0]) ** 2)
    assert abs(got - gram) <= 1e-13 * abs(gram)


def test_edge_functions_reject_an_interior_edge():
    m = generate_cube(2)
    interior = np.setdiff1d(np.arange(m.n_edges), m.boundary_edges)
    e = int(interior[0])
    x = m.vertices[m.edges[e]].mean(axis=0)
    with pytest.raises(MeshError):
        eval_psi(m, e, x)
    with pytest.raises(MeshError):
        eval_phi(m, e, x)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 53), st.floats(0.1, 0.9), st.floats(0.05, 0.85))
def test_phi_tangential_on_its_faces(eidx, s, tloc):
    m = generate_cylinder(0.5, 1.0, 1, 6, 2)
    be = int(m.boundary_edges[eidx % m.n_boundary_edges])
    for fid in _plus_minus_faces(m, be):
        nrm = m.boundary_normals[fid]
        fv = m.vertices[m.boundary_faces[fid]]
        lam = np.array([s * tloc, (1 - s) * tloc, 1 - tloc])
        x = lam @ fv
        v = eval_phi(m, be, x)
        assert abs(v @ nrm) < 1e-12 * max(1.0, np.linalg.norm(v))
