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
elements and faces are unchanged from the parent mesh; `Mesh.inherited` and
`carry_rows` let a cached array of the child take those rows from the
parent's array and compute only the new ones.
"""

import weakref

import numpy as np

# face-vertex pairs per chunk of the hanging-vertex audit
_AUDIT_CHUNK = 2**20


class MeshError(Exception):
    """Raised for format errors, non-conforming input, or inverted elements."""


class Star:
    """The patch of elements around a vertex.

    Attributes
    ----------
    center : int
        Vertex index.
    elements : (k,) int array
        Elements containing the vertex, ascending.
    on_boundary : bool
        Whether the center vertex lies on the domain boundary.
    """

    def __init__(self, center, elements, on_boundary):
        self.center = int(center)
        self.elements = np.asarray(elements, dtype=np.int64)
        self.on_boundary = bool(on_boundary)


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
    edges = p[..., [2, 0, 1], :] - p[..., [1, 2, 0], :]
    g = np.stack([-edges[..., 1], edges[..., 0]], axis=-1)
    return g / (2.0 * signed_areas(p))[..., None, None]


def _edge_lengths(vertices, elements):
    """Length of the edge opposite each corner of every element, (ne, 3)."""
    p = vertices[elements]
    out = np.empty(elements.shape)
    for i in range(3):
        a, b = p[:, (i + 1) % 3], p[:, (i + 2) % 3]
        dx = b[:, 0] - a[:, 0]
        dy = b[:, 1] - a[:, 1]
        out[:, i] = np.sqrt(dx * dx + dy * dy)
    return out


def _nonfinite_vertex(vertices):
    """(index, diagnosis) of the first vertex with a nan or inf coordinate, or None."""
    bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    if not bad.size:
        return None
    v = int(bad[0])
    return v, f"vertex {v} has non-finite coordinates {tuple(vertices[v].tolist())}"


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
    areas : (ne,) float array, optional
        `signed_areas(vertices[elements])` of the triples as given, when the
        caller has already computed it.

    `cache` holds data derived from the mesh, keyed by the function that
    builds it (`get_dual_system`: the dual system; `field_rows`: the load
    rows, means and element-dual pairings of a field); nothing in it may
    hold the mesh strongly, so the cache goes with the mesh.
    """

    def __init__(self, vertices, elements, ref_edge_policy="longest", areas=None):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        elements = np.ascontiguousarray(elements, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if elements.ndim != 2 or elements.shape[1] != 3:
            raise MeshError("elements must be an (ne, 3) array")
        if not len(elements):
            raise MeshError("mesh has no elements")
        if elements.min() < 0 or elements.max() >= len(vertices):
            raise MeshError("element vertex index out of range")
        nonfinite = _nonfinite_vertex(vertices)
        if nonfinite is not None:
            raise MeshError(nonfinite[1])

        if areas is None:
            areas = signed_areas(vertices[elements])
        bad = np.nonzero(areas <= 0.0)[0]
        if bad.size:
            raise MeshError(f"element {bad[0]} has non-positive area (not counter-clockwise)")

        edge_len = _edge_lengths(vertices, elements)
        if ref_edge_policy == "longest":
            elements, turned, edge_len = self._rotate_longest(elements, edge_len)
            # rotated corners can round the area differently in the last bit
            areas = areas.copy()
            areas[turned] = signed_areas(vertices[elements[turned]])
        elif ref_edge_policy != "asis":
            raise ValueError("ref_edge_policy must be 'longest' or 'asis'")

        self.vertices = vertices
        self.elements = elements
        self.areas = areas
        self.cache = {}
        self._build_topology()
        self._build_geometry(edge_len)
        for arr in (self.vertices, self.elements, self.faces, self.face_elems,
                    self.elem_faces, self.normals, self.areas, self.vertex_slots,
                    self.vertex_starts):
            arr.setflags(write=False)

    @staticmethod
    def _rotate_longest(elements, edge_len):
        """The triples rotated so the longest edge comes first (the first
        longest one on ties), a mask of the rotated ones, and their edge
        lengths in the new corner order."""
        # edges (0,1), (1,2), (2,0) are opposite corners 2, 0, 1
        k = np.zeros(len(elements), dtype=np.int64)
        longest = edge_len[:, 2]
        for j, opposite in ((1, 0), (2, 1)):
            longer = edge_len[:, opposite] > longest
            k[longer] = j
            longest = np.maximum(longest, edge_len[:, opposite])
        # corner i of a rotated triple is corner (i + k) % 3 of the given one
        turn = (np.arange(3) + k[:, None]) % 3
        rotated = np.take_along_axis(elements, turn, axis=1)
        return rotated, k != 0, np.take_along_axis(edge_len, turn, axis=1)

    def _build_topology(self):
        elements = self.elements
        ne = len(elements)
        nv = len(self.vertices)
        # local face i is opposite local vertex i; slot 3e + i holds it
        pairs = elements[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2)
        key = (np.minimum(pairs[:, 0], pairs[:, 1]) * nv
               + np.maximum(pairs[:, 0], pairs[:, 1]))
        # keys sort the faces lexicographically; the sort is stable, so the
        # slots of one face, and so its owner elements, come out ascending
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = sorted_key[1:] != sorted_key[:-1]
        starts = np.nonzero(first)[0]
        self.faces = np.column_stack(np.divmod(sorted_key[starts], nv))
        inverse = np.empty(len(order), dtype=np.int64)
        inverse[order] = np.cumsum(first) - 1
        self.elem_faces = inverse.reshape(ne, 3)

        counts = np.diff(np.append(starts, len(order)))
        if counts.max(initial=0) > 2:
            f = int(np.argmax(counts))
            raise MeshError(
                f"face {tuple(self.faces[f])} shared by {counts[f]} elements (non-conforming)"
            )
        owner = order // 3
        self.interior_face = counts == 2
        face_elems = np.full((len(starts), 2), -1, dtype=np.int64)
        face_elems[:, 0] = owner[starts]
        face_elems[self.interior_face, 1] = owner[starts[self.interior_face] + 1]
        self.face_elems = face_elems

        self.boundary_vertex = np.zeros(nv, dtype=bool)
        bfaces = self.faces[~self.interior_face]
        if bfaces.size:
            self.boundary_vertex[bfaces.ravel()] = True

        # vertex -> incident elements, CSR-style: the slots of vertex z are
        # vertex_slots[vertex_starts[z]:vertex_starts[z + 1]], each one
        # 3 * element + local index, elements ascending
        flat = elements.ravel()
        self.vertex_slots = np.argsort(flat, kind="stable")
        self.vertex_starts = np.zeros(len(self.vertices) + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=len(self.vertices)),
                  out=self.vertex_starts[1:])

    def _build_geometry(self, edge_len):
        a, b, c = edge_len.T
        self.h_elem = np.maximum(np.maximum(a, b), c)
        # inscribed-ball diameter: 4|T| / perimeter
        self.rho_elem = 4.0 * self.areas / (a + b + c)

        fp = self.vertices[self.faces]
        tang = fp[:, 1] - fp[:, 0]
        self.face_len = np.sqrt(tang[:, 0] * tang[:, 0] + tang[:, 1] * tang[:, 1])
        h_face = self.h_elem[self.face_elems[:, 0]]
        other = self.face_elems[:, 1]
        mask = other >= 0
        h_face[mask] = np.maximum(h_face[mask], self.h_elem[other[mask]])
        self.h_face = h_face

        normals = np.column_stack([tang[:, 1], -tang[:, 0]])
        normals /= self.face_len[:, None]
        mid = 0.5 * (fp[:, 0] + fp[:, 1])
        owner = self.vertices[self.elements[self.face_elems[:, 0]]]
        centroid = (owner[:, 0] + owner[:, 1] + owner[:, 2]) / 3.0
        flip = np.einsum("ij,ij->i", normals, mid - centroid) < 0.0
        normals[flip] *= -1.0
        self.normals = normals

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

    def inherited(self, key):
        """The live parent's `cache` entry under key, and the element sources.

        An element's source is the parent's row of an element bisection kept
        and -1 for a new one (`parent_faces` gives the same for faces).
        Without a live parent or without its entry, the entry is None and
        every element is new.
        """
        parent = self.parent
        entry = None if parent is None else parent.cache.get(key)
        if entry is None:
            return None, np.full(self.n_elements, -1, dtype=np.int64)
        return entry, self.parent_elements

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

    @property
    def shape_metric(self):
        """Largest ratio of element diameter to inscribed-ball diameter."""
        return float((self.h_elem / self.rho_elem).max())

    def free_vertices(self):
        """Indices of vertices not on the domain boundary."""
        return np.nonzero(~self.boundary_vertex)[0]

    def element_coords(self, e):
        return self.vertices[self.elements[e]]

    def barycentric(self, e, points):
        """Barycentric coordinates of (n, 2) points w.r.t. element e."""
        c = self.element_coords(e)
        points = np.atleast_2d(points)
        A = np.column_stack([c[1] - c[0], c[2] - c[0]])
        lam = np.linalg.solve(A, (points - c[0]).T).T
        return np.column_stack([1.0 - lam.sum(axis=1), lam])

    # -- stars -------------------------------------------------------------

    def star(self, z):
        """Patch of elements around vertex z."""
        z = int(z)
        if not 0 <= z < self.n_vertices:
            raise MeshError(f"vertex {z} out of range")
        slots = self.vertex_slots[self.vertex_starts[z]:self.vertex_starts[z + 1]]
        return Star(z, slots // 3, self.boundary_vertex[z])

    # -- verification ------------------------------------------------------

    def audit(self):
        """Exhaustive conformity audit; raises MeshError on any defect."""
        if (self.areas <= 0).any():
            raise MeshError("inverted element")
        if _has_duplicate_rows(np.sort(self.elements, axis=1)):
            raise MeshError("duplicate element")
        counts = (self.face_elems >= 0).sum(axis=1)
        if not np.isin(counts, (1, 2)).all():
            raise MeshError("face incidence count outside {1, 2}")
        if (counts == 2).sum() != self.interior_face.sum():
            raise MeshError("interior-face bookkeeping inconsistent")
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
            pc = self.vertices[cand]
            a = self.vertices[bfaces[:, 0]]
            ab = self.vertices[bfaces[:, 1]] - a
            L2 = np.einsum("ij,ij->i", ab, ab)[:, None]
            step = max(1, _AUDIT_CHUNK // len(cand))
            for lo in range(0, len(bfaces), step):
                f = slice(lo, lo + step)
                rx = pc[None, :, 0] - a[f, 0, None]
                ry = pc[None, :, 1] - a[f, 1, None]
                cross = np.abs(rx * ab[f, 1, None] - ry * ab[f, 0, None])
                t = rx * ab[f, 0, None] + ry * ab[f, 1, None]
                on = ((cross <= 1e-12 * L2[f]) & (t > 1e-12 * L2[f])
                      & (t < (1 - 1e-12) * L2[f]))
                hit = np.nonzero(on.any(axis=1))[0]
                if hit.size:
                    face = bfaces[lo + hit[0]]
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
    are allowed.  Boundary is inferred from face incidence.  Each block is
    parsed whole by `np.loadtxt`; only a block that fails is scanned line by
    line, to name the first bad line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise MeshError(f"cannot read mesh file {path}: {exc}") from exc
    lines = raw.splitlines()
    # 1-based numbers of the content lines: the text before '#' is not blank
    numbers = [ln for ln, text in enumerate(lines, start=1)
               if text.split("#", 1)[0].strip()]
    if not numbers:
        raise MeshError(f"{path}: empty mesh file")
    if len(numbers) < len(lines):
        lines = [lines[ln - 1] for ln in numbers]
    header = "header must be 'nv ne'"
    nv, ne = _read_block(path, lines[:1], numbers[:1], np.int64, 2,
                         header, header)[0].tolist()
    if nv < 0 or ne < 0:
        raise MeshError(f"{path}:{numbers[0]}: {header}")
    if len(lines) != 1 + nv + ne:
        raise MeshError(
            f"{path}: expected {1 + nv + ne} content lines for nv={nv} ne={ne}, "
            f"found {len(lines)}"
        )
    vertices = _read_block(path, lines[1:1 + nv], numbers[1:1 + nv], float, 2,
                           "vertex line must be 'x y'", "bad vertex coordinates")
    nonfinite = _nonfinite_vertex(vertices)
    if nonfinite is not None:
        v, diagnosis = nonfinite
        raise MeshError(f"{path}:{numbers[1 + v]}: {diagnosis}")
    elements = _read_block(path, lines[1 + nv:], numbers[1 + nv:], np.int64, 3,
                           "element line must be 'i j k'", "bad element indices")
    if (elements < 0).any() or (elements >= nv).any():
        bad = int(np.nonzero(((elements < 0) | (elements >= nv)).any(axis=1))[0][0])
        raise MeshError(f"{path}: element {bad} references a vertex out of range")
    areas = signed_areas(vertices[elements])
    if (areas <= 0).any():
        bad = int(np.nonzero(areas <= 0)[0][0])
        raise MeshError(f"{path}: element {bad} is not counter-clockwise")
    try:
        mesh = Mesh(vertices, elements, ref_edge_policy="longest", areas=areas)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from None
    mesh.audit()
    return mesh


def _read_block(path, lines, numbers, dtype, width, shape_msg, value_msg):
    """Parse content lines of `width` numbers each into an (n, width) array.

    The numbers are the tokens `np.loadtxt` reads: Python's `int` and `float`
    also take `1_000` and non-ASCII digits, the reader refuses them.  On
    failure the first bad line is named, its token count checked before its
    values.
    """
    if not lines:
        return np.empty((0, width), dtype=dtype)
    try:
        block = np.loadtxt(lines, dtype=dtype, comments="#", ndmin=2)
        if block.shape == (len(lines), width):
            return block
    except ValueError:
        pass
    for ln, text in zip(numbers, lines):
        if len(text.split("#", 1)[0].split()) != width:
            raise MeshError(f"{path}:{ln}: {shape_msg}")
        try:
            np.loadtxt([text], dtype=dtype, comments="#")
        except ValueError:
            raise MeshError(f"{path}:{ln}: {value_msg}") from None
    # not reached: a block fails to parse only where one of its lines does
    raise MeshError(f"{path}:{numbers[0]}: {value_msg}")


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


def carry_rows(old, sources, fresh):
    """Rows of an array of a bisected mesh from the same array of its parent.

    Row i is old[sources[i]] where sources[i] >= 0 (a row bisection kept)
    and the next row of `fresh` where it is -1: fresh holds the new rows, in
    order.  With every row new, fresh is the array and old is not read.
    """
    new = sources < 0
    if new.all():
        return fresh
    out = old.take(np.maximum(sources, 0), axis=0)
    out[new] = fresh
    return out


def bisect(mesh, marked_elements):
    """Newest-vertex bisection of the marked elements with conforming closure.

    Returns a new Mesh.  The new mesh carries `new_vertex_parents`, a (k, 2)
    array of parent vertex indices for every added midpoint (midpoints only
    appear on parent faces, so both parents are original vertices),
    `n_parent_vertices`, and the parent links of `Mesh.parent`: every
    unrefined element keeps its triple, and old vertices keep their indices
    and coordinates, so its rows of any element or face array are the
    parent's.
    """
    marked_elements = np.asarray(marked_elements, dtype=np.int64)
    if marked_elements.size and (marked_elements.min() < 0
                                 or marked_elements.max() >= mesh.n_elements):
        raise MeshError("marked element index out of range")

    ef = mesh.elem_faces
    marked_face = np.zeros(mesh.n_faces, dtype=bool)
    marked_face[ef[marked_elements, 2]] = True
    # closure: an element with any marked edge must have its refinement edge marked
    while True:
        any_marked = marked_face[ef].any(axis=1)
        need = any_marked & ~marked_face[ef[:, 2]]
        if not need.any():
            break
        marked_face[ef[need, 2]] = True

    face_ids = np.nonzero(marked_face)[0]
    midpoint_of = np.full(mesh.n_faces, -1, dtype=np.int64)
    midpoint_of[face_ids] = mesh.n_vertices + np.arange(len(face_ids))
    new_coords = 0.5 * (mesh.vertices[mesh.faces[face_ids, 0]]
                        + mesh.vertices[mesh.faces[face_ids, 1]])
    vertices = np.vstack([mesh.vertices, new_coords])

    # Children are built per refinement pattern with array operations, in
    # element order: an unrefined element keeps its triple; a refined one is
    # cut along its refinement edge (v0, v1) at m2, and each half, (v2, v0)
    # side first, is kept or cut once more at m1 (side v2-v0) or m0 (v1-v2).
    v0, v1, v2 = mesh.elements.T
    m0, m1, m2 = midpoint_of[ef].T
    cut = m2 >= 0
    left_two = cut & (m1 >= 0)
    right_two = cut & (m0 >= 0)
    n_children = np.where(cut, 2 + left_two + right_two, 1)
    left = np.cumsum(n_children) - n_children  # first child of each element
    right = left + 1 + left_two
    children = np.empty((int(n_children.sum()), 3), dtype=np.int64)

    def put(mask, at, *corners):
        children[at[mask]] = np.column_stack([c[mask] for c in corners])

    put(~cut, left, v0, v1, v2)
    put(cut & ~left_two, left, v2, v0, m2)
    put(left_two, left, m2, v2, m1)
    put(left_two, left + 1, v0, m2, m1)
    put(cut & ~right_two, right, v1, v2, m2)
    put(right_two, right, m2, v1, m0)
    put(right_two, right + 1, v2, m2, m0)

    out = Mesh(vertices, children, ref_edge_policy="asis")
    out.new_vertex_parents = mesh.faces[face_ids].copy()
    out.n_parent_vertices = mesh.n_vertices
    out._parent = weakref.ref(mesh)
    kept = np.nonzero(~cut)[0]
    out.parent_elements = np.full(len(children), -1, dtype=np.int64)
    out.parent_elements[left[kept]] = kept
    # a kept element's local faces are its parent's; a face stays kept when
    # no adjacent element is new
    out.parent_faces = np.full(out.n_faces, -1, dtype=np.int64)
    out.parent_faces[out.elem_faces[left[kept]]] = ef[kept]
    fe = out.face_elems
    out.parent_faces[((fe >= 0) & (out.parent_elements[fe] < 0)).any(axis=1)] = -1
    out.parent_elements.setflags(write=False)
    out.parent_faces.setflags(write=False)
    return out


def uniform_refine(mesh, sweeps=1):
    """Bisect every element, `sweeps` times."""
    for _ in range(int(sweeps)):
        mesh = bisect(mesh, np.arange(mesh.n_elements))
    return mesh

