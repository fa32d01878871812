"""Tetrahedral meshes with oriented boundary surface.

A `Mesh` carries global edge/face numbering, tet incidence, and the closed
boundary surface: boundary faces stored counterclockwise as seen from
outside, and the face-edge table that names the boundary edge on each side
of each boundary face. Global edges always run from the lower to the
higher vertex id, which makes every orientation-dependent quantity a pure
function of the vertex numbering.

Supported I/O: MSH v2.2 ASCII (read and write) and a JSON debug dump.
Built-in generators: the unit cube and a structured cylinder, both one
extrusion of a triangulated 2D section into prisms, each cut into three
tets through its smallest vertex id (the min-id rule of Dompierre et al.,
IMR 1999). Extruding the diagonally cut square grid gives the Kuhn
(Freudenthal) cube. `refine_uniform` splits every tet into eight.
"""

from dataclasses import dataclass
from functools import wraps

import json
import numpy as np

# local edge k of a tet connects LOCAL_EDGES[k]; local face k is opposite vertex k
LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
LOCAL_FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


class MeshError(ValueError):
    pass


def _no_overflow(fn):
    """fn with a floating-point overflow raised as MeshError: a face's
    cross product grows as the square of the coordinates and its norm
    as their fourth power, so coordinates past about 1e77 overflow."""
    @wraps(fn)
    def checked(*args):
        try:
            with np.errstate(over="raise"):
                return fn(*args)
        except FloatingPointError as e:
            raise MeshError(f"coordinates too large for the geometry: {e}") \
                from None
    return checked


@dataclass(frozen=True)
class Mesh:
    """Immutable tetrahedral mesh with boundary structure.

    vertices            (V, 3) coordinates
    tets                (T, 4) vertex ids, positive signed volume
    edges               (E, 2) vertex id pairs, lo < hi, lexicographically sorted
    faces               (F, 3) vertex id triples, ascending
    tet_edges           (T, 6) global edge ids, local order LOCAL_EDGES
    tet_faces           (T, 4) global face ids, local order LOCAL_FACES
    boundary_faces      (Fb, 3) vertex ids, counterclockwise seen from outside
    boundary_face_ids   (Fb,) global face id of each boundary face
    boundary_edges      (Eb,) global edge ids on the boundary, ascending
    boundary_face_edges (Fb, 3) boundary-edge index of side i of each boundary
                        face, the side from boundary_faces[f, i] to
                        boundary_faces[f, (i + 1) % 3]; every boundary edge
                        runs once counterclockwise (in its global direction)
                        and once clockwise
    boundary_normals    (Fb, 3) outward unit normals
    boundary_areas      (Fb,) face areas
    edge_lengths        (E,) lengths of all edges
    orientation_fixes   number of tets that had to be reordered on construction
    """

    vertices: np.ndarray
    tets: np.ndarray
    edges: np.ndarray
    faces: np.ndarray
    tet_edges: np.ndarray
    tet_faces: np.ndarray
    boundary_faces: np.ndarray
    boundary_face_ids: np.ndarray
    boundary_edges: np.ndarray
    boundary_face_edges: np.ndarray
    boundary_normals: np.ndarray
    boundary_areas: np.ndarray
    edge_lengths: np.ndarray
    orientation_fixes: int = 0

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_tets(self):
        return self.tets.shape[0]

    @property
    def n_edges(self):
        return self.edges.shape[0]

    @property
    def n_boundary_edges(self):
        return self.boundary_edges.shape[0]

    def tet_volumes(self):
        return _signed_volumes(self.vertices, self.tets)

    def euler_characteristic(self):
        """V - E + F of the boundary surface (2 for a sphere-like boundary)."""
        return (np.unique(self.boundary_faces).size - self.boundary_edges.size
                + self.boundary_faces.shape[0])


def _signed_volumes(vertices, tets):
    v = vertices[tets]
    return np.einsum(
        "ti,ti->t", v[:, 1] - v[:, 0],
        np.cross(v[:, 2] - v[:, 0], v[:, 3] - v[:, 0])) / 6.0


def _edge_key(pairs, n):
    return pairs[..., 0].astype(np.int64) * n + pairs[..., 1]


@_no_overflow
def build_mesh(vertices, tets):
    """Construct a full Mesh from vertex coordinates and tet connectivity."""
    vertices = np.ascontiguousarray(vertices, dtype=float)
    tets = np.ascontiguousarray(tets, dtype=np.int64)
    if tets.size == 0:
        raise MeshError("empty mesh")
    if tets.min() < 0 or tets.max() >= len(vertices):
        raise MeshError("tet references a vertex id out of range")

    vol = _signed_volumes(vertices, tets)
    if np.any(vol == 0.0):
        raise MeshError("degenerate tet with zero volume")
    flip = vol < 0.0
    fixes = int(np.count_nonzero(flip))
    if fixes:
        tets = tets.copy()
        tets[flip, 2], tets[flip, 3] = tets[flip, 3], tets[flip, 2].copy()

    nv = len(vertices)

    pairs = np.sort(tets[:, LOCAL_EDGES], axis=2).reshape(-1, 2)
    edges, edge_inv = np.unique(_edge_key(pairs, nv), return_inverse=True)
    edges = np.stack([edges // nv, edges % nv], axis=1)
    tet_edges = edge_inv.reshape(-1, 6)

    tris = np.sort(tets[:, LOCAL_FACES], axis=2).reshape(-1, 3)
    fkey = (tris[:, 0] * nv + tris[:, 1]) * nv + tris[:, 2]
    fkeys, face_inv, fcount = np.unique(
        fkey, return_inverse=True, return_counts=True)
    faces = np.stack(
        [fkeys // (nv * nv), (fkeys // nv) % nv, fkeys % nv], axis=1)
    tet_faces = face_inv.reshape(-1, 4)

    # boundary = faces owned by exactly one tet
    bnd_ids = np.flatnonzero(fcount == 1)
    owner = np.empty(len(faces), dtype=np.int64)
    owner[face_inv] = np.arange(face_inv.size)
    own = owner[bnd_ids]
    own_tet, own_loc = own // 4, own % 4

    bfaces = faces[bnd_ids].copy()
    opp = tets[own_tet, own_loc]
    a, b, c = (vertices[bfaces[:, k]] for k in range(3))
    nrm = np.cross(b - a, c - a)
    inward = np.einsum("fi,fi->f", nrm, vertices[opp] - a) > 0.0
    bfaces[inward, 1], bfaces[inward, 2] = \
        bfaces[inward, 2], bfaces[inward, 1].copy()
    nrm[inward] *= -1.0  # cross(c - a, b - a) = -cross(b - a, c - a)
    areas2 = np.linalg.norm(nrm, axis=1)
    if np.any(areas2 <= 0.0):
        raise MeshError("degenerate boundary face")
    normals = nrm / areas2[:, None]
    areas = 0.5 * areas2

    # side i of each counterclockwise cycle; an oriented manifold surface
    # runs every edge once in its global direction and once against it
    ekeys = _edge_key(edges, nv)
    cyc = bfaces[:, [(0, 1), (1, 2), (2, 0)]].reshape(-1, 2)
    ascending = cyc[:, 0] < cyc[:, 1]
    eids = np.searchsorted(ekeys, _edge_key(np.sort(cyc, axis=1), nv))
    bedges, slot = np.unique(eids, return_inverse=True)
    for side in (ascending, ~ascending):
        if np.any(np.bincount(slot[side], minlength=bedges.size) != 1):
            raise MeshError("non-manifold or non-orientable boundary edge")

    return Mesh(
        vertices=vertices, tets=tets, edges=edges, faces=faces,
        tet_edges=tet_edges, tet_faces=tet_faces,
        boundary_faces=bfaces, boundary_face_ids=bnd_ids,
        boundary_edges=bedges, boundary_face_edges=slot.reshape(-1, 3),
        boundary_normals=normals, boundary_areas=areas,
        edge_lengths=np.linalg.norm(
            vertices[edges[:, 1]] - vertices[edges[:, 0]], axis=1),
        orientation_fixes=fixes)


# ---------------------------------------------------------------------------
# MSH v2.2 ASCII I/O


def parse_msh(src):
    """Parse MSH v2.2 ASCII, as str, UTF-8 bytes or a file-like object.

    Reads $MeshFormat, $Nodes and $Elements and skips other sections. Tets
    are element type 4, triangles (type 2) must be boundary faces, other
    types are ignored, and inverted tets are reordered and counted. Every
    malformed line raises MeshError naming its section: a section missing,
    unterminated or empty, a count that does not match its lines, a line
    too short for its fields, or a field that is not a number where one is
    needed (integer ids, counts, types and tags; finite coordinates).
    """
    if hasattr(src, "read"):
        src = src.read()
    if isinstance(src, bytes):
        src = src.decode("utf-8", errors="replace")  # a bad byte is no number
    lines = [ln for ln in map(str.strip, src.splitlines()) if ln]

    def section(name, read, counted=True):
        # read(fields) of each line of $name after its count line, or of its
        # first line only; IndexError or ValueError marks a malformed line
        try:
            start = lines.index(f"${name}") + 1
            body = lines[start:lines.index(f"$End{name}", start)]
        except ValueError:
            raise MeshError(f"${name} missing or unterminated") from None
        rows = []
        for k, ln in enumerate(body if counted else body[:1]):
            try:
                rows.append(read(ln.split()) if k >= counted else int(ln))
            except (IndexError, ValueError):
                raise MeshError(f"${name} line {ln!r} is too short for its "
                                "fields or has a field that is not a number"
                                ) from None
        if not rows or counted and rows[0] != len(rows) - 1:
            raise MeshError(f"${name} is empty or does not match its count")
        return rows[counted:]

    def element(f):  # id, type, ntags, the tags, the nodes: all integers
        v = [int(p) for p in f]
        if not 0 <= v[2] <= len(v) - 3:
            raise ValueError
        return v[1], v[3 + v[2]:]

    fmt = section("MeshFormat", lambda f: (f[0], f[1]), counted=False)[0]
    if fmt[0] != "2.2":
        raise MeshError(f"unsupported MSH version {fmt[0]}, need 2.2")
    if fmt[1] != "0":
        raise MeshError("binary MSH files are not supported")
    nodes = section("Nodes", lambda f: (int(f[0]), float(f[1]), float(f[2]),
                                        float(f[3])))
    xyz = np.array([n[1:] for n in nodes], dtype=float)
    if not np.isfinite(xyz).all():
        raise MeshError("$Nodes holds a coordinate that is not finite")
    id2idx = {n[0]: k for k, n in enumerate(nodes)}

    elements = section("Elements", element)
    unknown = {v for _, ids in elements for v in ids} - id2idx.keys()
    if unknown:
        raise MeshError(f"element references unknown node {min(unknown)}")
    tets = [[id2idx[v] for v in ids] for etype, ids in elements if etype == 4]
    tris = [[id2idx[v] for v in ids] for etype, ids in elements if etype == 2]
    if any(len(t) != 4 for t in tets):
        raise MeshError("tetrahedron element without 4 nodes")
    if not tets:
        raise MeshError("file contains no tetrahedra")
    mesh = build_mesh(xyz, np.array(tets, dtype=np.int64))
    bset = {tuple(sorted(f)) for f in mesh.boundary_faces.tolist()}
    if any(tuple(sorted(f)) not in bset for f in tris):
        raise MeshError("surface triangle in file is not a boundary face")
    return mesh


def write_msh(mesh, path=None):
    """Serialize a Mesh as MSH v2.2 ASCII; returns the text (and writes path)."""
    out = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes",
           str(mesh.n_vertices)]
    for k, (x, y, z) in enumerate(mesh.vertices, start=1):
        out.append(f"{k} {float(x)!r} {float(y)!r} {float(z)!r}")
    out.append("$EndNodes")
    out.append("$Elements")
    out.append(str(mesh.n_tets + len(mesh.boundary_faces)))
    eid = 1
    for f in mesh.boundary_faces:
        out.append(f"{eid} 2 2 0 1 {f[0] + 1} {f[1] + 1} {f[2] + 1}")
        eid += 1
    for t in mesh.tets:
        out.append(
            f"{eid} 4 2 0 1 {t[0] + 1} {t[1] + 1} {t[2] + 1} {t[3] + 1}")
        eid += 1
    out.append("$EndElements")
    text = "\n".join(out) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def mesh_to_json(mesh, path=None):
    """Debug dump: vertices, tets, boundary ids as JSON text."""
    doc = {
        "vertices": mesh.vertices.tolist(),
        "tets": mesh.tets.tolist(),
        "boundary_faces": mesh.boundary_faces.tolist(),
        "boundary_edges": mesh.boundary_edges.tolist(),
        "orientation_fixes": mesh.orientation_fixes,
    }
    text = json.dumps(doc, indent=1)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# Generators


def whole(v):
    """int(v), or MeshError where v is a bool or int() would truncate it."""
    if isinstance(v, bool) or int(v) != v:
        raise MeshError(f"expected an integer, got {v!r}")
    return int(v)


def cube_size(n):
    """generate_cube's n as an int; MeshError outside its limit."""
    n = whole(n)
    if n < 1:
        raise MeshError("need at least one subdivision per axis")
    return n


def cylinder_size(R, L, n_r, n_theta, n_z):
    """generate_cylinder's counts as ints; MeshError if an argument is
    outside its limits."""
    for name, v in (("R", R), ("L", L)):
        if not 0 < v < np.inf:  # also false for NaN
            raise MeshError(f"{name} must be finite and positive, got {v!r}")
    n_r, n_theta, n_z = whole(n_r), whole(n_theta), whole(n_z)
    if n_r < 1 or n_theta < 3 or n_z < 1:
        raise MeshError("need n_r >= 1, n_theta >= 3, n_z >= 1")
    return n_r, n_theta, n_z


# Min-id rule for a prism (bottom a b c, top a' b' c'): rotate it so that
# its smallest vertex id comes first, then cut the quad face opposite that
# vertex along the diagonal through the smaller of its two candidate ids.
# Every quad face is then cut through its smallest id, alike from both sides.
_ROTATIONS = np.array([(0, 1, 2, 3, 4, 5), (1, 2, 0, 4, 5, 3),
                       (2, 0, 1, 5, 3, 4), (3, 5, 4, 0, 2, 1),
                       (4, 3, 5, 1, 0, 2), (5, 4, 3, 2, 1, 0)])
_CUTS = np.array([[(0, 1, 2, 5), (0, 1, 5, 4), (0, 4, 5, 3)],
                  [(0, 1, 2, 4), (0, 4, 2, 5), (0, 4, 5, 3)]])


@_no_overflow
def _extrude(section, tris, zs):
    """Vertices and tets of a triangulated 2D section extruded over the
    ascending heights zs.

    Vertex layer * len(section) + s is section vertex s with height
    zs[layer] as its last coordinate. Each counterclockwise triangle of
    tris gives one prism per layer, cut into 3 tets by the min-id rule;
    the tets of each prism, in order, are checked to fill it exactly.
    """
    ns, nl = len(section), len(zs)
    verts = np.column_stack([np.tile(section, (nl, 1)), np.repeat(zs, ns)])
    bot = (ns * np.arange(nl - 1)[:, None, None] + tris).reshape(-1, 3)
    prisms = np.concatenate([bot, bot + ns], axis=1)
    v = np.take_along_axis(prisms, _ROTATIONS[prisms.argmin(axis=1)], axis=1)
    cut = np.minimum(v[:, 1], v[:, 5]) >= np.minimum(v[:, 2], v[:, 4])
    tets = np.take_along_axis(v[:, None], _CUTS[cut.astype(int)], axis=2)
    tets = tets.reshape(-1, 4)
    u, w = (section[tris[:, i]] - section[tris[:, 0]] for i in (1, 2))
    area = 0.5 * np.abs(u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0])
    vol = np.abs(_signed_volumes(verts, tets)).reshape(-1, 3).sum(axis=1)
    if not np.allclose(vol, (np.diff(zs)[:, None] * area).ravel(),
                       rtol=1e-10, atol=0.0):
        raise MeshError("prism split does not tile the prism")
    return verts, tets


def generate_cube(n):
    """Unit cube [0,1]^3 split into 6 n^3 tets (Kuhn subdivision).

    The (y, z) grid, each square cut along its diagonal through the lower
    corner, is extruded along x; the min-id rule then cuts every prism
    into the Kuhn tets of its cube. Vertex (i, j, k) at (g_i, g_j, g_k)
    has id (i (n + 1) + j) (n + 1) + k.
    """
    n = cube_size(n)
    g = np.linspace(0.0, 1.0, n + 1)
    Y, Z = np.meshgrid(g, g, indexing="ij")
    a = ((n + 1) * np.arange(n)[:, None] + np.arange(n)).ravel()
    tris = np.stack([a, a + n + 1, a + n + 2, a, a + n + 2, a + 1], axis=1)
    verts, tets = _extrude(np.column_stack([Y.ravel(), Z.ravel()]),
                           tris.reshape(-1, 3), g)
    return build_mesh(verts[:, [2, 0, 1]], tets)


def generate_cylinder(R, L, n_r, n_theta, n_z):
    """Structured mesh of the cylinder {x^2 + y^2 < R^2, 0 < z < L}.

    A triangulated disk (a center fan of n_theta triangles, then two
    triangles per sector of each of the n_r - 1 annuli) is extruded into
    n_z layers of prisms, each cut into 3 tets by the min-id rule. The rim
    vertices lie exactly on radius R, so the mesh is the inscribed
    polyhedron: its volume is L * (n_theta R^2 / 2) sin(2 pi / n_theta).
    """
    n_r, n_theta, n_z = cylinder_size(R, L, n_r, n_theta, n_z)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    r = R * (np.arange(1, n_r + 1) / n_r)[:, None]
    disk = np.vstack([np.zeros((1, 2)), np.column_stack(
        [(r * np.cos(theta)).ravel(), (r * np.sin(theta)).ravel()])])
    v = 1 + np.arange(n_r * n_theta).reshape(n_r, n_theta)  # ring i + 1, sector j
    vn = np.roll(v, -1, axis=1)  # sector j + 1
    ring = np.stack([v[:-1], v[1:], vn[1:], v[:-1], vn[1:], vn[:-1]], axis=-1)
    tris = np.vstack([np.column_stack([np.zeros_like(v[0]), v[0], vn[0]]),
                      ring.reshape(-1, 3)])
    return build_mesh(*_extrude(disk, tris, L * np.arange(n_z + 1) / n_z))


# child tets of red refinement, as local node ids: 0-3 the parent's
# vertices, 4 + k the midpoint of its local edge k (LOCAL_EDGES order)
_CHILDREN = np.array([(0, 4, 5, 6), (4, 1, 7, 8), (5, 7, 2, 9), (6, 8, 9, 3),
                      (4, 5, 6, 8), (4, 5, 7, 8), (5, 6, 8, 9), (5, 7, 8, 9)])


def refine_uniform(mesh):
    """Red refinement: split every tet into eight via edge midpoints.

    The four corner tets keep their corners; the inner octahedron is cut
    along the diagonal between the midpoints of local edges (0,2) and (1,3).
    The domain (a fixed polyhedron) is preserved exactly and every edge
    length halves, so repeated calls produce a nested family.
    """
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    nodes = np.concatenate([mesh.tets, mesh.n_vertices + mesh.tet_edges], axis=1)
    return build_mesh(np.vstack([mesh.vertices, mids]),
                      nodes[:, _CHILDREN].reshape(-1, 4))


def mesh_size(mesh):
    """Largest tet diameter (the longest edge of any tet)."""
    if mesh.n_tets == 0:
        raise MeshError("empty mesh")
    return float(mesh.edge_lengths[mesh.tet_edges].max())
