"""Mesh construction, topology, file round-trips, refinement."""

import hashlib
import io
import string
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eddyopt.mesh import (
    MeshError, build_mesh, generate_cube, generate_cylinder, mesh_size,
    mesh_to_json, parse_msh, refine_uniform, write_msh,
)


def test_unit_cube_counts():
    m = generate_cube(1)
    assert m.n_vertices == 8
    assert m.n_tets == 6
    # 12 cube edges + 6 face diagonals + 1 body diagonal
    assert m.n_edges == 19
    assert m.boundary_faces.shape[0] == 12
    assert m.faces.shape[0] == 18
    # solid ball: V - E + F - T = 1
    assert m.n_vertices - m.n_edges + m.faces.shape[0] - m.n_tets == 1
    assert m.euler_characteristic() == 2
    assert m.tet_volumes().sum() == pytest.approx(1.0, abs=1e-15)
    assert mesh_size(m) == pytest.approx(np.sqrt(3.0))


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 3))
def test_cube_family_invariants(n):
    m = generate_cube(n)
    assert m.n_vertices == (n + 1) ** 3
    assert m.n_tets == 6 * n**3
    assert m.boundary_faces.shape[0] == 12 * n**2
    assert m.euler_characteristic() == 2
    assert np.all(m.tet_volumes() > 0)
    assert m.tet_volumes().sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cube_tets_are_kuhn_simplices(n):
    # sorted by vertex id, each tet is a lattice chain from a cell's lower
    # corner to its upper one whose three steps are distinct unit vectors
    m = generate_cube(n)
    ijk = np.stack(np.unravel_index(np.sort(m.tets, axis=1), (n + 1,) * 3),
                   axis=-1)
    steps = np.diff(ijk, axis=1)  # (T, 3 steps, 3 axes)
    assert np.all((steps == 0) | (steps == 1))
    assert np.all(steps.sum(axis=1) == 1) and np.all(steps.sum(axis=2) == 1)
    assert len({tuple(t) for t in np.sort(m.tets, axis=1).tolist()}) == 6 * n**3


def _tets_digest(m):
    data = np.ascontiguousarray(m.tets, dtype="<i8").tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("make, digest", [
    (lambda: generate_cylinder(0.5, 1, 5, 30, 10), "56b7c0a5bdebed56"),
    (lambda: refine_uniform(refine_uniform(
        generate_cylinder(0.5, 1, 1, 8, 2))), "64646259b48ef92f"),
    (lambda: generate_cylinder(0.5, 1, 3, 18, 6), "e1652a00342c9820"),
], ids=["forward-o0", "optimize-o0-L2", "optimize-o1"])
def test_bench_meshes_keep_their_tets(make, digest):
    # the tets, in order, of the meshes behind the bench references; the
    # vertex bits are left out, they depend on the platform's libm
    assert _tets_digest(make()) == digest


def test_cube_boundary_faces_counterclockwise_outward():
    m = generate_cube(2)
    v = m.vertices[m.boundary_faces]
    normals = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    centers = v.mean(axis=1) - 0.5  # domain center at the origin
    assert np.all(np.einsum("fc,fc->f", normals, centers) > 0)
    # closed surface: area-weighted normals sum to zero
    assert np.abs(normals.sum(axis=0)).max() < 1e-12


def test_cylinder_volume_is_inscribed_prism():
    for n_r, n_t, n_z in [(1, 6, 2), (2, 12, 4), (3, 7, 1), (1, 3, 1),
                          (4, 5, 3)]:
        m = generate_cylinder(0.5, 1.0, n_r, n_t, n_z)
        exact = 1.0 * n_t * 0.5**2 / 2 * np.sin(2 * np.pi / n_t)
        assert m.tet_volumes().sum() == pytest.approx(exact, rel=1e-12)
        assert m.n_vertices == (1 + n_r * n_t) * (n_z + 1)
        disk = n_t * (2 * n_r - 1)
        lateral = 2 * n_t * n_z
        assert m.boundary_faces.shape[0] == 2 * disk + lateral
        assert m.n_boundary_edges == (2 * disk + lateral) * 3 // 2
        assert m.euler_characteristic() == 2
        assert np.all(m.tet_volumes() > 0)


MESHES = (generate_cube(2), generate_cylinder(0.5, 1.0, 1, 6, 2),
          refine_uniform(generate_cylinder(0.5, 1.0, 1, 5, 1)))


def _sides(m):
    """(Fb, 3, 2) vertex ids of side i of each boundary face, cycle order."""
    return m.boundary_faces[:, [(0, 1), (1, 2), (2, 0)]]


@pytest.mark.parametrize("m", MESHES, ids=["cube", "cylinder", "refined"])
def test_face_edge_table_matches_a_vertex_pair_lookup(m):
    index = {tuple(m.edges[e].tolist()): b
             for b, e in enumerate(m.boundary_edges.tolist())}
    want = [[index[tuple(sorted(side))] for side in face.tolist()]
            for face in _sides(m)]
    assert m.boundary_face_edges.shape == (len(m.boundary_faces), 3)
    assert np.array_equal(m.boundary_face_edges, want)


@pytest.mark.parametrize("m", MESHES, ids=["cube", "cylinder", "refined"])
def test_each_boundary_edge_runs_once_each_way(m):
    sides = _sides(m)
    ccw = sides[..., 0] < sides[..., 1]  # runs in its global direction
    n = m.n_boundary_edges
    assert np.all(np.bincount(m.boundary_face_edges[ccw], minlength=n) == 1)
    assert np.all(np.bincount(m.boundary_face_edges[~ccw], minlength=n) == 1)


@pytest.mark.parametrize("make", [
    lambda: generate_cylinder(0.5, 1.0, 5, 30, 10),
    lambda: generate_cube(3),
    lambda: refine_uniform(generate_cylinder(0.5, 1.0, 1, 8, 2)),
], ids=["cylinder", "cube", "refined"])
def test_boundary_normals_are_those_of_the_oriented_faces(make):
    # the normals of flipped faces are negated, not recomputed; the
    # values must equal a fresh cross product of the stored faces
    m = make()
    a, b, c = (m.vertices[m.boundary_faces[:, k]] for k in range(3))
    nrm = np.cross(b - a, c - a)
    areas2 = np.linalg.norm(nrm, axis=1)
    assert np.array_equal(m.boundary_normals, nrm / areas2[:, None])
    assert np.array_equal(m.boundary_areas, 0.5 * areas2)


def test_boundary_edge_frames():
    # t runs from the lower to the higher vertex id; nu = t x n lies in the
    # face plane, out of the face where t runs counterclockwise (plus) and
    # into the other (minus)
    m = generate_cylinder(0.5, 1.0, 1, 6, 2)
    sides = _sides(m)
    for b in range(0, m.n_boundary_edges, 7):
        lo, hi = m.edges[m.boundary_edges[b]]
        t = m.vertices[hi] - m.vertices[lo]
        t /= np.linalg.norm(t)
        mid = 0.5 * (m.vertices[lo] + m.vertices[hi])
        faces, i = np.nonzero(m.boundary_face_edges == b)
        assert len(faces) == 2
        for f, side in zip(faces, sides[faces, i]):
            n = m.boundary_normals[f]
            nu = np.cross(t, n)
            assert abs(t @ n) < 1e-13
            assert np.linalg.norm(nu) == pytest.approx(1.0)
            cen = m.vertices[m.boundary_faces[f]].mean(axis=0)
            if side[0] == lo:
                assert side[1] == hi
                assert nu @ (cen - mid) < 0
            else:
                assert tuple(side) == (hi, lo)
                assert nu @ (cen - mid) > 0


def test_msh_round_trip():
    m = generate_cylinder(0.5, 1.0, 1, 5, 1)
    text = write_msh(m)
    m2 = parse_msh(io.StringIO(text))
    assert np.array_equal(m.vertices, m2.vertices)
    assert np.array_equal(m.tets, m2.tets)
    assert np.array_equal(m.boundary_faces, m2.boundary_faces)


def test_msh_parser_errors():
    good = write_msh(generate_cube(1))
    with pytest.raises(MeshError):
        parse_msh(io.StringIO(good.replace("2.2 0 8", "4.1 0 8")))
    with pytest.raises(MeshError):
        parse_msh(io.StringIO(good.replace("2.2 0 8", "2.2 1 8")))  # binary
    # dangling node reference
    bad = good.replace("$Elements", "$Elements", 1)
    lines = bad.splitlines()
    for i, ln in enumerate(lines):
        parts = ln.split()
        if len(parts) >= 5 and parts[1] == "4":
            parts[-1] = "999"
            lines[i] = " ".join(parts)
            break
    with pytest.raises(MeshError):
        parse_msh(io.StringIO("\n".join(lines)))
    # no tets at all
    no_tets = []
    skip = False
    for ln in good.splitlines():
        parts = ln.split()
        if len(parts) >= 2 and parts[0].isdigit() and parts[1] == "4":
            continue
        no_tets.append(ln)
    with pytest.raises(MeshError):
        parse_msh(io.StringIO("\n".join(no_tets)))
    # lines too short to hold their fields name their section
    node = next(ln for ln in good.splitlines() if ln.startswith("1 "))
    with pytest.raises(MeshError, match=r"\$Nodes"):
        parse_msh(io.StringIO(good.replace(node, "1 0.0 0.0", 1)))
    elements = good.split("$Elements\n")
    short = elements[1].split("\n", 2)
    short[1] = "1 2"
    with pytest.raises(MeshError, match=r"\$Elements"):
        parse_msh(io.StringIO(elements[0] + "$Elements\n" + "\n".join(short)))
    # empty sections and a one-field format line name their section
    for name in ("MeshFormat", "Nodes", "Elements"):
        body = good.split(f"${name}\n", 1)[1].split(f"$End{name}", 1)[0]
        with pytest.raises(MeshError, match=rf"\${name}"):
            parse_msh(io.StringIO(good.replace(body, "", 1)))
    with pytest.raises(MeshError, match=r"\$MeshFormat"):
        parse_msh(io.StringIO(good.replace("2.2 0 8", "2.2", 1)))


def with_token(text, at, col, token):
    """text with field col of its line at replaced by token."""
    lines = text.splitlines()
    fields = lines[at].split()
    fields[col] = token
    lines[at] = " ".join(fields)
    return "\n".join(lines) + "\n"


# each a field the reader needs as an integer or a finite number
BAD_FIELDS = [
    pytest.param("Nodes", 1, 2, "x", id="non-numeric-coordinate"),
    pytest.param("Nodes", 1, 0, "1.5", id="fractional-node-id"),
    pytest.param("Nodes", 0, 0, "8.0", id="non-integer-node-count"),
    pytest.param("Nodes", 3, 3, "nan", id="nan-coordinate"),
    pytest.param("Nodes", 2, 1, "-inf", id="infinite-coordinate"),
    pytest.param("Elements", 0, 0, "x", id="non-integer-element-count"),
    pytest.param("Elements", 1, 3, "0.5", id="non-integer-element-tag"),
    pytest.param("Elements", 2, 1, "tet", id="non-integer-element-type"),
    pytest.param("Elements", 3, 7, "1e0", id="non-integer-element-node"),
]


@pytest.mark.parametrize("section, row, col, token", BAD_FIELDS)
def test_msh_bad_field_names_its_section(section, row, col, token):
    # row 0 is the count line of the section's body
    good = write_msh(generate_cube(1))
    at = good.splitlines().index(f"${section}") + 1 + row
    with pytest.raises(MeshError, match=rf"\${section}"):
        parse_msh(with_token(good, at, col, token))


def test_msh_bytes_that_are_not_utf8_name_their_section():
    good = write_msh(generate_cube(1)).encode()
    with pytest.raises(MeshError, match=r"\$Nodes"):
        parse_msh(io.BytesIO(good.replace(b" 0.0\n", b" \xff\n", 1)))


def test_msh_binary_file_is_reported_as_binary():
    # a binary file follows the format line with the integer 1 in binary,
    # and its nodes are packed doubles that are not UTF-8
    binary = (b"$MeshFormat\n2.2 1 8\n" + struct.pack("<i", 1)
              + b"\n$EndMeshFormat\n$Nodes\n1\n"
              + struct.pack("<i3d", 1, 0.1, 0.5, 2.0) + b"\n$EndNodes\n")
    with pytest.raises(MeshError, match="binary"):
        parse_msh(binary)


@settings(max_examples=12, deadline=None)
@given(st.one_of(
    st.builds(generate_cube, st.integers(1, 3)),
    st.builds(generate_cylinder, st.just(0.5), st.just(1.0),
              st.integers(1, 2), st.integers(3, 8), st.integers(1, 2))))
def test_msh_round_trip_is_bitwise(m):
    text = write_msh(m)
    for src in (text, text.encode("utf-8"), io.StringIO(text)):
        back = parse_msh(src)
        assert np.array_equal(back.vertices, m.vertices)
        assert np.array_equal(back.tets, m.tets)
        assert np.array_equal(back.boundary_faces, m.boundary_faces)


TEXTS = [write_msh(generate_cube(1)),
         write_msh(generate_cylinder(0.5, 1.0, 1, 4, 1))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TEXTS), st.data(),
       st.text(alphabet=string.ascii_letters + ".+-_$", min_size=1,
               max_size=8))
def test_msh_any_non_numeric_token_parses_or_raises_mesh_error(
        text, data, token):
    # the token may be a section name, "nan" or "inf"; whatever it
    # replaces, the reader returns a Mesh or raises MeshError
    at, col = data.draw(st.sampled_from(
        [(i, j) for i, ln in enumerate(text.splitlines())
         for j in range(len(ln.split()))]))
    try:
        parse_msh(with_token(text, at, col, token))
    except MeshError:
        pass


def test_mesh_to_json_round_trips_counts():
    import json
    m = generate_cube(1)
    payload = json.loads(mesh_to_json(m))
    assert len(payload["vertices"]) == m.n_vertices
    assert len(payload["tets"]) == m.n_tets


def test_build_mesh_rejects_nonmanifold_boundary():
    verts = np.array([
        [0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1],
        [1, 1, 1],
    ])
    # three tets sharing the face (0,1,2)
    tets = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
    with pytest.raises(MeshError):
        build_mesh(verts, tets)


def test_build_mesh_fixes_inverted_tets():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    m = build_mesh(verts, np.array([[1, 0, 2, 3]]))  # negative orientation
    assert m.tet_volumes()[0] > 0


def test_refine_uniform_nested_family():
    m = generate_cylinder(0.5, 1.0, 1, 6, 2)
    r = refine_uniform(m)
    assert r.n_tets == 8 * m.n_tets
    assert r.boundary_faces.shape[0] == 4 * m.boundary_faces.shape[0]
    assert r.tet_volumes().sum() == pytest.approx(m.tet_volumes().sum(),
                                                  rel=1e-13)
    assert np.all(r.tet_volumes() > 0)
    assert mesh_size(r) < mesh_size(m)
    assert r.euler_characteristic() == 2
    # original vertices are preserved verbatim
    assert np.array_equal(r.vertices[:m.n_vertices], m.vertices)


def test_generate_cylinder_rejects_bad_params():
    with pytest.raises((MeshError, ValueError)):
        generate_cylinder(0.5, 1.0, 0, 6, 2)
    with pytest.raises((MeshError, ValueError)):
        generate_cylinder(0.5, 1.0, 1, 2, 2)


@pytest.mark.parametrize("R, L, name", [
    (np.inf, 1.0, "R"), (0.5, -np.inf, "L"), (np.nan, 1.0, "R"),
    (0.5, np.inf, "L")])
def test_generate_cylinder_names_a_size_that_is_not_finite(R, L, name):
    # an infinite size would reach the vertex coordinates as inf and NaN
    with pytest.raises(MeshError, match=f"^{name} must be finite and positive"):
        generate_cylinder(R, L, 1, 6, 2)


@pytest.mark.parametrize("R, L", [(1e100, 1.0), (1e200, 1.0), (1.0, 1e200)])
def test_generate_cylinder_too_large_for_its_geometry_is_a_mesh_error(R, L):
    # finite sizes whose geometry overflows: R^4 in a face's cross product
    # norm at R = 1e100, R^2 in the prism check at R = 1e200 and L^2 in the
    # edge lengths at L = 1e200
    with pytest.raises(MeshError, match="coordinates too large"):
        generate_cylinder(R, L, 1, 6, 2)


def test_generate_cylinder_keeps_large_finite_sizes():
    m = generate_cylinder(1e70, 1e70, 1, 6, 2)
    assert np.isfinite(m.boundary_areas).all() and m.n_tets == 36


def test_msh_with_coordinates_too_large_is_a_mesh_error():
    head, rest = write_msh(generate_cube(1)).split("$Nodes\n", 1)
    nodes, tail = rest.split("$EndNodes\n", 1)
    count, *rows = nodes.splitlines()
    rows = [" ".join([r.split()[0]] + [repr(1e200 * float(x))
                                       for x in r.split()[1:]])
            for r in rows]
    text = "\n".join([head + "$Nodes", count, *rows, "$EndNodes", tail])
    with pytest.raises(MeshError, match="coordinates too large"):
        parse_msh(io.StringIO(text))


@pytest.mark.parametrize("make", [
    lambda: generate_cube(1.9), lambda: generate_cylinder(0.5, 1.0, 1.5, 6, 2),
    lambda: generate_cylinder(0.5, 1.0, 1, 6.9, 2),
    lambda: generate_cylinder(0.5, 1.0, 1, 6, 2.5),
    lambda: generate_cube(True),
], ids=["cube-n", "cylinder-n_r", "cylinder-n_theta", "cylinder-n_z",
        "cube-n-bool"])
def test_generators_reject_fractional_counts(make):
    # int() would truncate these to a valid, smaller mesh, and True == 1
    with pytest.raises(MeshError, match="expected an integer"):
        make()
