"""Conforming triangulations with newest-vertex bisection.

A mesh is immutable after construction; refinement returns a new mesh.  The
element array stores each triangle counter-clockwise with the convention that
its refinement edge is the edge (v0, v1).  On initial construction the
refinement edge is the longest edge (deterministic tie-break by local edge
order); bisection children inherit their refinement edges from the standard
newest-vertex rule, so no separate marker array is carried around.

Interior faces carry a unit normal oriented from the lower adjacent element
index to the higher one; boundary faces point out of the domain.  Geometry
helpers (signed areas, barycentric coordinates and their gradients) live here
as well, since every other module needs them.

Data derived from a mesh is cached on it (`Mesh.cache`).  `bisect` keeps
every unrefined element as it was, so its output records which of its
elements and faces are unchanged from the parent mesh, and it moves the
parent's cached arrays to the child: the child's first lookup (`cached_rows`)
takes those rows from them and computes only the new ones.

Rows are gathered with `take`, scattered with `scatter_rows` and, two or three
wide, reduced column by column: NumPy's indexing and short-axis reductions
take slower paths to the same bits.
"""

import io
import types
import warnings
import weakref

import numpy as np

# quadrature points (entries of the widest per-row array, without a rule)
# per block of every evaluation over the rows of a mesh
BLOCK_POINTS = 2**16


def row_blocks(n, width):
    """Slices of n rows in order, BLOCK_POINTS // width (at least one) each."""
    step = max(1, BLOCK_POINTS // max(int(width), 1))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


class MeshError(Exception):
    """Raised for format errors, non-conforming input, or inverted elements."""


def index_array(indices, n, what):
    """`indices` as int64 entries in [0, n) (MeshError otherwise).  A boolean
    mask would cast to indices 0 and 1, and floats or strings would be cut
    or parsed, so anything but integers (or nothing) is refused (TypeError)."""
    indices = np.asarray(indices)
    if indices.dtype == bool:
        raise TypeError(f"{what} must be indices, not a boolean mask: pass np.flatnonzero(mask)")
    if indices.size and indices.dtype.kind not in "iu":
        raise TypeError(f"{what} must be integers, got dtype {indices.dtype}")
    indices = indices.astype(np.int64, copy=False)
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise MeshError(f"{what} out of range")
    return indices


def scatter_rows(out, idx, rows):
    """out[idx] = rows, each row written as one void item (NumPy copies it
    faster than a row's entries); out is C-contiguous, and no rows, no write."""
    if not out.flags.c_contiguous:
        raise ValueError("scatter_rows writes to C-contiguous rows only")
    if len(rows):
        row = np.dtype((np.void, out[0].nbytes))
        rows = np.ascontiguousarray(rows, dtype=out.dtype).reshape(len(rows), -1)
        out.reshape(len(out), -1).view(row)[idx, 0] = rows.view(row)[:, 0]


def signed_areas(p):
    """Signed areas of triangles with corners p, (..., 3, 2) -> (...)."""
    return 0.5 * (
        (p[..., 1, 0] - p[..., 0, 0]) * (p[..., 2, 1] - p[..., 0, 1])
        - (p[..., 2, 0] - p[..., 0, 0]) * (p[..., 1, 1] - p[..., 0, 1])
    )


def bary_grads(p):
    """Gradients of the barycentric coordinates of triangles p, (..., 3, 2).

    Entry [..., i, :] is the gradient of the coordinate of corner i: the edge
    opposite corner i turned by a quarter, over twice the signed area.
    """
    edges = p.take([2, 0, 1], axis=-2) - p.take([1, 2, 0], axis=-2)
    g = np.stack([-edges[..., 1], edges[..., 0]], axis=-1)
    return g / (2.0 * signed_areas(p))[..., None, None]


def _edge_lengths(p):
    """Length of the edge opposite each corner of triangles p (ne, 3, 2), (ne, 3)."""
    out = np.empty(p.shape[:2])
    for i in range(3):
        d = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        out[:, i] = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    return out


def _nonfinite_vertex(vertices):
    """(index, diagnosis) of the first vertex with a nan or inf coordinate, or None."""
    bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    if not bad.size:
        return None
    v = int(bad[0])
    return v, f"vertex {v} has non-finite coordinates {tuple(vertices.take(v, axis=0).tolist())}"


def _has_duplicate_rows(a):
    """Whether two rows of the 2-d array a are equal, compared by value (so
    -0.0 equals 0.0): one lexsort brings equal rows next to each other."""
    s = a[np.lexsort(a.T)]
    return bool((s[1:] == s[:-1]).all(axis=1).any())


def format_floats(values):
    """Decimal strings of floats, 17 significant digits: each reads back as
    exactly the same double.  The one float format of every file written."""
    return [f"{v:.17g}" for v in np.asarray(values, dtype=float).ravel().tolist()]


class Mesh:
    """Conforming triangulation of a polygonal domain.

    Parameters
    ----------
    vertices : (nv, 2) float array
    elements : (ne, 3) int array
        Counter-clockwise vertex triples.
    ref_edge_policy : {"longest", "asis"}
        "longest" rotates each triple so the longest edge sits at (v0, v1);
        "asis" trusts the given order (used by bisect, whose children already
        encode their refinement edges).

    The constructor is the one validator of its input (a MeshError names the
    first bad element, vertex or face); every array attribute is read-only.
    The face geometry (`normals`, `face_len`, `h_face`) is built on its
    first read, in one pass for all three.

    `cache` holds the row arrays of `cached_rows` and nothing else, each
    entry under one key: per element the barycentric gradients
    (`element_bary_grads`) and, per field and rule, the load rows, means and
    element-dual pairings of the field and, for data that state their exact
    solution, its part of the energy error (`field_rows`); per interior
    face the squeeze factors and gamma coefficients of the face duals and
    the pairings of a field with the face bubbles (`dual_system`); per
    vertex the star oscillations (`estimator.all_oscillations`).  Its
    entries hold arrays only, so the cache goes with the mesh or its child.
    """

    def __init__(self, vertices, elements, ref_edge_policy="longest"):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        elements = np.ascontiguousarray(elements, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if elements.ndim != 2 or elements.shape[1] != 3:
            raise MeshError("elements must be an (ne, 3) array")
        if not len(elements):
            raise MeshError("mesh has no elements")
        if elements.min() < 0 or elements.max() >= len(vertices):
            bad = np.nonzero(((elements < 0) | (elements >= len(vertices))).any(axis=1))[0]
            raise MeshError(f"element {bad[0]} references a vertex out of range")
        nonfinite = _nonfinite_vertex(vertices)
        if nonfinite is not None:
            raise MeshError(nonfinite[1])

        areas = np.empty(len(elements))
        for block in row_blocks(len(elements), 6):
            areas[block] = signed_areas(vertices.take(elements[block], axis=0))
        bad = np.nonzero(areas <= 0.0)[0]
        if bad.size:
            raise MeshError(f"element {bad[0]} is not counter-clockwise")
        if ref_edge_policy not in ("longest", "asis"):
            raise ValueError("ref_edge_policy must be 'longest' or 'asis'")

        self.vertices = vertices
        self.h_elem = np.empty(len(elements))
        if ref_edge_policy == "longest":
            elements = elements.copy()
        for block in row_blocks(len(elements), 6):
            edge_len = _edge_lengths(vertices.take(elements[block], axis=0))
            np.maximum(np.maximum(edge_len[:, 0], edge_len[:, 1]), edge_len[:, 2],
                       out=self.h_elem[block])
            if ref_edge_policy == "longest":
                rotated, turned = self._rotate_longest(elements[block], edge_len)
                elements[block] = rotated
                # rotated corners can round the area differently in the last bit
                areas[block][turned] = signed_areas(vertices.take(rotated[turned], axis=0))
        self.elements = elements
        self.areas = areas
        self.cache = {}
        self._handed = {}  # the parent's entries, handed down by bisect
        self._build_topology()
        self._freeze()

    def _freeze(self):
        """Make every array attribute read-only: nothing writes to a mesh."""
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @staticmethod
    def _rotate_longest(elements, edge_len):
        """The triples rotated so the longest edge comes first (the first
        longest one on ties), and a mask of the rotated ones."""
        # edges (0,1), (1,2), (2,0) are opposite corners 2, 0, 1
        k = np.zeros(len(elements), dtype=np.int64)
        longest = edge_len[:, 2]
        for j, opposite in ((1, 0), (2, 1)):
            longer = edge_len[:, opposite] > longest
            k[longer] = j
            longest = np.maximum(longest, edge_len[:, opposite])
        # corner i of a rotated triple is corner (i + k) % 3 of the given one
        turn = (np.arange(3) + k[:, None]) % 3
        return np.take_along_axis(elements, turn, axis=1), k != 0

    def _build_topology(self):
        elements = self.elements
        ne = len(elements)
        nv = len(self.vertices)
        # local face i is opposite local vertex i, between corners i + 1 and
        # i + 2; slot 3e + i holds it.  Temporaries go as soon as they are used.
        key = np.empty((ne, 3), dtype=np.int64)
        for block in row_blocks(ne, 3):
            a, b = elements[block][:, [1, 2, 0]], elements[block][:, [2, 0, 1]]
            key[block] = np.minimum(a, b) * nv + np.maximum(a, b)
        key = key.ravel()
        # keys sort the faces lexicographically (the default sort: the two
        # slots of a face may come out in either order)
        order = np.argsort(key)
        key = key.take(order)
        first = np.ones(len(order), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        starts = np.nonzero(first)[0]
        self.faces = np.empty((len(starts), 2), dtype=np.int64)
        np.divmod(key[starts], nv, out=(self.faces[:, 0], self.faces[:, 1]))
        # the face of each sorted slot, in the buffer of the keys
        np.cumsum(first, out=key)
        key -= 1
        inverse = np.empty(len(order), dtype=np.int64)
        inverse[order] = key
        del key
        self.elem_faces = inverse.reshape(ne, 3)
        counts = np.diff(np.append(starts, len(order)))
        if counts.max(initial=0) > 2:
            f = int(np.argmax(counts))
            raise MeshError(f"face {tuple(self.faces[f].tolist())} shared by "
                            f"{counts[f]} elements (non-conforming)")
        self.interior_face = counts == 2
        del counts
        face_elems = np.full((len(starts), 2), -1, dtype=np.int64)
        face_elems[:, 0] = order.take(starts) // 3
        second = order[starts[self.interior_face] + 1] // 3
        face_elems[self.interior_face, 1] = np.maximum(face_elems[self.interior_face, 0], second)
        face_elems[self.interior_face, 0] = np.minimum(face_elems[self.interior_face, 0], second)
        self.face_elems = face_elems
        del order

        self.boundary_vertex = np.zeros(nv, dtype=bool)
        bfaces = self.faces[~self.interior_face]
        if bfaces.size:
            self.boundary_vertex[bfaces.ravel()] = True

        # vertex -> incident elements, CSR-style: the slots of vertex z are
        # vertex_slots[vertex_starts[z]:vertex_starts[z + 1]], each one
        # 3 * element + local index, elements ascending
        flat = elements.ravel()
        # unique keys: the default sort gives the order of a stable one
        self.vertex_slots = np.argsort(flat * len(flat) + np.arange(len(flat)))
        self.vertex_starts = np.zeros(len(self.vertices) + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=len(self.vertices)),
                  out=self.vertex_starts[1:])

    def __getattr__(self, name):
        # reached only for an attribute not set: the face geometry is built
        # on first read, since a solve never reads it
        if name not in ("face_len", "h_face", "normals"):
            raise AttributeError(f"'Mesh' object has no attribute '{name}'")
        self._build_geometry()
        return getattr(self, name)

    def _build_geometry(self):
        nf = len(self.faces)
        self.face_len, self.h_face = np.empty(nf), np.empty(nf)
        self.normals = np.empty((nf, 2))
        for f in row_blocks(nf, 6):
            p0, p1 = self.vertices.take(self.faces[f], axis=0).transpose(1, 0, 2)
            tang = p1 - p0
            face_len = np.sqrt(tang[:, 0] * tang[:, 0] + tang[:, 1] * tang[:, 1])
            adjacent = self.face_elems[f]
            h = self.h_elem.take(adjacent)  # a boundary face's -1 reads a row np.where drops
            self.h_face[f] = np.where(adjacent[:, 1] >= 0, np.maximum(h[:, 0], h[:, 1]), h[:, 0])
            normals = np.column_stack([tang[:, 1], -tang[:, 0]])
            normals /= face_len[:, None]
            mid = 0.5 * (p0 + p1)
            owner = self.element_coords(adjacent[:, 0])
            mid -= (owner[:, 0] + owner[:, 1] + owner[:, 2]) / 3.0
            normals[np.einsum("ij,ij->i", normals, mid) < 0.0] *= -1.0
            self.face_len[f], self.normals[f] = face_len, normals
        self._freeze()

    # -- reuse along bisection --------------------------------------------

    # `bisect` sets these on its output: the parent mesh, held weakly so that
    # no mesh keeps its parent alive, and per element and per face the
    # parent's element or face it equals (the same corners and, for a face,
    # the same adjacent elements in the same order), or -1 where it is new
    _parent = None
    parent_elements = None
    parent_faces = None

    @property
    def parent(self):
        """The mesh this one was bisected from, while it is alive; else None."""
        return None if self._parent is None else self._parent()

    # -- basic queries ----------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def n_faces(self):
        return len(self.faces)

    def free_vertices(self):
        """Indices of vertices not on the domain boundary."""
        return np.nonzero(~self.boundary_vertex)[0]

    def element_coords(self, e):
        return self.vertices.take(self.elements.take(e, axis=0), axis=0)

    def barycentric(self, e, points):
        """Barycentric coordinates of (n, 2) points w.r.t. element e."""
        c = self.element_coords(e)
        points = np.atleast_2d(points)
        A = np.column_stack([c[1] - c[0], c[2] - c[0]])
        lam = np.linalg.solve(A, (points - c[0]).T).T
        return np.column_stack([1.0 - lam.sum(axis=1), lam])

    # -- stars -------------------------------------------------------------

    def star(self, z):
        """The elements around vertex z, ascending, as an int array."""
        z = int(z)
        if not 0 <= z < self.n_vertices:
            raise MeshError(f"vertex {z} out of range")
        return self.vertex_slots[self.vertex_starts[z]:self.vertex_starts[z + 1]] // 3

    # -- verification ------------------------------------------------------

    def audit(self):
        """Raise MeshError on a duplicate element or vertex, an unused vertex,
        a hanging vertex or an open boundary (construction checks the rest)."""
        # two elements are duplicates exactly when they share two faces (and
        # so all three): an element's neighbours across its faces 0 and 1
        # are then one element, and the sums of both faces' elements agree
        f0 = self.elem_faces[:, 0]
        e0, e1 = (self.face_elems.take(self.elem_faces[:, i], axis=0) for i in (0, 1))
        if (self.interior_face.take(f0) & (e0[:, 0] + e0[:, 1] == e1[:, 0] + e1[:, 1])).any():
            raise MeshError("duplicate element")
        used = np.zeros(self.n_vertices, dtype=bool)
        used[self.elements.ravel()] = True
        if not used.all():
            raise MeshError(f"vertex {int(np.nonzero(~used)[0][0])} not used by any element")
        if _has_duplicate_rows(self.vertices):
            raise MeshError("duplicate vertex coordinates")

        bfaces = self.faces[~self.interior_face]
        if bfaces.size:
            # hanging vertices sit strictly inside a once-counted face; check
            # this before boundary closure so the diagnosis is the precise one.
            # Elements do not overlap, so the elements around a hanging vertex
            # cannot close a fan: it is an endpoint of a once-counted face
            # itself, and only those endpoints (ascending) are candidates.
            cand = np.unique(bfaces)
            pc = self.vertices.take(cand, axis=0)
            a = self.vertices.take(bfaces[:, 0], axis=0)
            ab = self.vertices.take(bfaces[:, 1], axis=0) - a
            L2 = np.einsum("ij,ij->i", ab, ab)[:, None]
            for f in row_blocks(len(bfaces), len(cand)):
                rx = pc[None, :, 0] - a[f, 0, None]
                ry = pc[None, :, 1] - a[f, 1, None]
                cross = np.abs(rx * ab[f, 1, None] - ry * ab[f, 0, None])
                t = rx * ab[f, 0, None] + ry * ab[f, 1, None]
                on = ((cross <= 1e-12 * L2[f]) & (t > 1e-12 * L2[f])
                      & (t < (1 - 1e-12) * L2[f]))
                hit = np.nonzero(on.any(axis=1))[0]
                if hit.size:
                    face = bfaces[f.start + hit[0]]
                    raise MeshError(
                        f"vertex {int(cand[np.argmax(on[hit[0]])])} hangs on face "
                        f"({int(face[0])}, {int(face[1])})"
                    )
            # each boundary vertex must close up with exactly two boundary faces
            cnt = np.bincount(bfaces.ravel(), minlength=self.n_vertices)
            bad = np.nonzero((cnt != 0) & (cnt != 2))[0]
            if bad.size:
                raise MeshError(f"boundary around vertex {int(bad[0])} does not close")


# -- construction and i/o ---------------------------------------------------


def load_mesh(path):
    """Read a mesh from the plain-text format.

    First line: `nv ne`.  Then nv lines `x y` and ne lines `i j k` with
    0-based counter-clockwise vertex indices.  Blank lines and `#` comments
    are allowed.  Boundary is inferred from face incidence.  The file streams
    through `np.loadtxt`, one call per block; a file it refuses is scanned
    line by line (`_refuse`) only to name the bad line.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise MeshError(f"cannot read mesh file {path}: {exc}") from exc
    # the lines of str.splitlines, each ended by the "\n" np.loadtxt splits at;
    # a leading byte-order mark goes, and one elsewhere, like a byte that is
    # not UTF-8 (read as U+FFFD), is no number
    if not data.isascii() or any(end in data for end in b"\r\v\f\x1c\x1d\x1e"):
        data = "\n".join(data.decode("utf-8-sig", errors="replace").splitlines()).encode()
    stream = io.BytesIO(data)
    with warnings.catch_warnings():
        # a blank or comment line is skipped, and counts toward no max_rows
        warnings.filterwarnings("ignore", ".*contained no data", UserWarning)
        try:
            nv, ne = np.loadtxt(stream, np.int64, max_rows=1, ndmin=1, encoding="utf-8").tolist()
            # max_rows rows are allocated at once; no file has more rows than bytes
            vertices = np.loadtxt(stream, max_rows=min(nv, len(data)), ndmin=2, encoding="utf-8")
            elements = np.loadtxt(stream, np.int64, ndmin=2, encoding="utf-8")
            valid = ((len(vertices), vertices.size, len(elements), elements.size)
                     == (nv, 2 * nv, ne, 3 * ne) and _nonfinite_vertex(vertices) is None)
        except ValueError:
            valid = False
        if not valid:
            _refuse(path, data)
    del data, stream  # not held through the Mesh build
    try:
        mesh = Mesh(vertices.reshape(nv, 2), elements.reshape(ne, 3))
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from None
    mesh.audit()
    return mesh


def _refuse(path, data):
    """Raise the MeshError naming a refused file's first fault: an empty file,
    the header, the count of content lines, then each line's token count and
    values, block by block, and a non-finite vertex after the vertex lines."""
    lines = data.decode().splitlines()
    # 1-based numbers of the content lines: the text before '#' is not blank
    numbers = [ln for ln, text in enumerate(lines, start=1)
               if text.split("#", 1)[0].strip()]
    if not numbers:
        raise MeshError(f"{path}: empty mesh file")
    lines = [lines[ln - 1] for ln in numbers]

    def parse(rows, dtype, width):
        # rows as an (n, width) array, or None where np.loadtxt refuses them
        try:
            block = np.loadtxt(rows, dtype, ndmin=2)
        except ValueError:
            return None
        return block if block.shape == (len(rows), width) else None

    header = parse(lines[:1], np.int64, 2)
    nv, ne = (-1, -1) if header is None else header[0].tolist()
    if nv < 0 or ne < 0:
        raise MeshError(f"{path}:{numbers[0]}: header must be 'nv ne'")
    if len(lines) != 1 + nv + ne:
        raise MeshError(f"{path}: expected {1 + nv + ne} content lines for nv={nv} "
                        f"ne={ne}, found {len(lines)}")
    for lo, hi, dtype, width, shape_msg, value_msg in (
            (1, 1 + nv, float, 2, "vertex line must be 'x y'", "bad vertex coordinates"),
            (1 + nv, len(lines), np.int64, 3, "element line must be 'i j k'",
             "bad element indices")):
        block = parse(lines[lo:hi], dtype, width)
        if block is None:
            for ln, text in zip(numbers[lo:hi], lines[lo:hi]):
                if len(text.split("#", 1)[0].split()) != width:
                    raise MeshError(f"{path}:{ln}: {shape_msg}")
                if parse([text], dtype, width) is None:
                    raise MeshError(f"{path}:{ln}: {value_msg}")
        elif dtype is float and (bad := _nonfinite_vertex(block)):
            raise MeshError(f"{path}:{numbers[1 + bad[0]]}: {bad[1]}")
    # not reached: the stream refuses a file only where one of these checks does
    raise MeshError(f"{path}: unreadable mesh file")


def save_mesh(mesh, path):
    """Write a mesh in the plain-text format read by load_mesh."""
    xs = format_floats(mesh.vertices[:, 0])
    ys = format_floats(mesh.vertices[:, 1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{mesh.n_vertices} {mesh.n_elements}\n")
        fh.writelines(f"{x} {y}\n" for x, y in zip(xs, ys))
        fh.writelines(f"{i} {j} {k}\n" for i, j, k in mesh.elements.tolist())


def unit_square_2tri():
    """Unit square split along the diagonal into two triangles."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    elements = np.array([[0, 1, 2], [0, 2, 3]])
    return Mesh(vertices, elements)


def unit_square_crisscross():
    """Unit square split into four triangles around the center."""
    vertices = np.array([
        [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5],
    ])
    elements = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    return Mesh(vertices, elements)


def l_shape():
    """L-shaped domain (-1,1)^2 minus the closed fourth quadrant."""
    vertices = np.array([
        [-1.0, -1.0], [0.0, -1.0], [0.0, 0.0], [1.0, 0.0],
        [1.0, 1.0], [0.0, 1.0], [-1.0, 1.0], [-1.0, 0.0],
    ])
    elements = np.array([
        [0, 1, 2], [0, 2, 7], [7, 2, 5], [7, 5, 6], [2, 3, 4], [2, 4, 5],
    ])
    return Mesh(vertices, elements)


# -- refinement --------------------------------------------------------------


def cached_rows(mesh, key, kind, build, width=None):
    """The row arrays cached on mesh under key, built on first use.

    A row belongs to an element, an interior face (in face order) or a
    vertex star: kind is "elements", "faces" or "stars".  build(new) returns
    a dict name -> array of the rows listed in `new` (ascending).  Where
    `bisect` handed the mesh its parent's entry under key, `new` lists only
    the new elements, the faces next to one and the stars that contain one,
    and every other row is the parent's: it depends on its element, face or
    star alone, and `bisect` keeps those.  Given the `width` of its widest
    per-row array, build runs on each of the `row_blocks` of `new`, treating
    each row alone, rounding included.  The entry holds the arrays,
    read-only, as attributes, and `new`.
    """
    rows = mesh.cache.get(key)
    if rows is not None:
        return rows
    old = mesh._handed.pop(key, None)
    if old is None:
        n = {"elements": mesh.n_elements, "faces": int(mesh.interior_face.sum()),
             "stars": mesh.n_vertices}[kind]
        sources = np.full(n, -1, dtype=np.int64)
    elif kind == "elements":
        sources = mesh.parent_elements
    elif kind == "faces":
        kept = mesh.parent_faces[mesh.interior_face]
        sources = np.where(kept >= 0, (np.cumsum(mesh._parent_interior) - 1)[kept], -1)
    else:
        # old vertices keep their ids, and every new vertex is in a new element
        sources = np.arange(mesh.n_vertices)
        sources[mesh.elements[mesh.parent_elements < 0]] = -1
    new = np.flatnonzero(sources < 0)
    carry = len(new) < len(sources)
    arrays = {}
    for block in (row_blocks(len(new), width) if width else []) or [slice(None)]:
        for name, fresh in build(new[block]).items():
            if name not in arrays:
                # row i is the parent's row sources[i], or a fresh row
                arrays[name] = (getattr(old, name).take(np.maximum(sources, 0), axis=0)
                                if carry else
                                np.empty((len(sources),) + fresh.shape[1:], fresh.dtype))
            scatter_rows(arrays[name], new[block] if carry else block, fresh)
    for array in arrays.values():
        array.setflags(write=False)
    rows = mesh.cache[key] = types.SimpleNamespace(new=new, **arrays)
    return rows


def bisect(mesh, marked_elements):
    """Newest-vertex bisection of the marked elements with conforming closure.

    Returns a new Mesh.  The new mesh carries `new_vertex_parents`, a (k, 2)
    array of parent vertex indices for every added midpoint (midpoints only
    appear on parent faces, so both parents are original vertices),
    `n_parent_vertices`, and the parent links of `Mesh.parent`: every
    unrefined element keeps its triple, and old vertices keep their indices
    and coordinates, so its rows of any element or face array are the
    parent's: its cache moves to the new mesh (`cached_rows`), and entries
    handed to it and not looked up are dropped.
    """
    marked_elements = index_array(marked_elements, mesh.n_elements, "marked elements")

    ef = mesh.elem_faces
    marked_face = np.zeros(mesh.n_faces, dtype=bool)
    marked_face[ef[marked_elements, 2]] = True
    # closure: an element with any marked edge must have its refinement edge marked
    while True:
        marked = marked_face.take(ef)
        need = (marked[:, 0] | marked[:, 1]) & ~marked[:, 2]
        if not need.any():
            break
        marked_face[ef[need, 2]] = True

    face_ids = np.nonzero(marked_face)[0]
    midpoint_of = np.full(mesh.n_faces, -1, dtype=np.int64)
    midpoint_of[face_ids] = mesh.n_vertices + np.arange(len(face_ids))
    new_vertex_parents = mesh.faces.take(face_ids, axis=0)
    ends = mesh.vertices.take(new_vertex_parents, axis=0)
    vertices = np.vstack([mesh.vertices, 0.5 * (ends[:, 0] + ends[:, 1])])

    # Children are built per refinement pattern with array operations, in
    # element order: an unrefined element keeps its triple; a refined one is
    # cut along its refinement edge (v0, v1) at m2, and each half, (v2, v0)
    # side first, is kept or cut once more at m1 (side v2-v0) or m0 (v1-v2).
    v0, v1, v2 = mesh.elements.T
    m0, m1, m2 = midpoint_of.take(ef).T
    cut = m2 >= 0
    left_two = cut & (m1 >= 0)
    right_two = cut & (m0 >= 0)
    n_children = np.where(cut, 2 + left_two + right_two, 1)
    left = np.cumsum(n_children) - n_children  # first child of each element
    right = left + 1 + left_two
    children = np.empty((int(n_children.sum()), 3), dtype=np.int64)

    def put(mask, at, *corners):
        scatter_rows(children, at[mask], np.column_stack([c[mask] for c in corners]))

    put(~cut, left, v0, v1, v2)
    put(cut & ~left_two, left, v2, v0, m2)
    put(left_two, left, m2, v2, m1)
    put(left_two, left + 1, v0, m2, m1)
    put(cut & ~right_two, right, v1, v2, m2)
    put(right_two, right, m2, v1, m0)
    put(right_two, right + 1, v2, m2, m0)
    kept = np.nonzero(~cut)[0]
    at = left[kept]
    # no temporary of the parent's size outlives the children
    del midpoint_of, ends, m0, m1, m2, cut, left_two, right_two, n_children, left, right

    out = Mesh(vertices, children, ref_edge_policy="asis")
    out.new_vertex_parents = new_vertex_parents
    out.n_parent_vertices = mesh.n_vertices
    out._parent = weakref.ref(mesh)
    out.parent_elements = np.full(len(children), -1, dtype=np.int64)
    out.parent_elements[at] = kept
    # a kept element's local faces are its parent's; a face stays kept when
    # no adjacent element is new
    out.parent_faces = np.full(out.n_faces, -1, dtype=np.int64)
    out.parent_faces[out.elem_faces.take(at, axis=0)] = ef.take(kept, axis=0)
    out.parent_faces[out.elem_faces[out.parent_elements < 0]] = -1
    out._parent_interior = mesh.interior_face  # the parent's face rows
    out._freeze()
    out._handed, mesh.cache, mesh._handed = mesh.cache, {}, {}
    return out


def uniform_refine(mesh, sweeps=1):
    """Bisect every element, `sweeps` times."""
    for _ in range(int(sweeps)):
        mesh = bisect(mesh, np.arange(mesh.n_elements))
    return mesh

