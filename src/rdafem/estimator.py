"""Error indicators, oscillation and dual-norm verification surrogates.

The residual of a discrete solution U against data f splits, after
interpolating f, into a P1 volume part per element and a constant jump part
per interior face:

    r|_T = (interpolated cell density) - kappa^2 U|_T
    j|_F = (interpolated face density) - grad-jump of U across F.

The shipped per-vertex indicator weighs these with the reaction-aware factors
min(h, 1/kappa):

    E(z) = (sum_{T in star} min(h_T,1/kappa)^2 ||r||_T^2)^(1/2)
         + (sum_{F in skeleton} min(h_F,1/kappa) ||j||_F^2)^(1/2).

Dual norms of functionals on vertex stars (and on the whole domain) are
approximated from below by Riesz representatives in P1 spaces on uniformly
red-refined patches with zero boundary values; refining the patch can only
grow the value, so `depth` tunes the accuracy of the surrogate.  These
surrogates price the oscillation f - Pi f and back the verification of the
localization and error-residual identities.

One engine builds every red-refined system.  A free sub-vertex of a patch
has its whole hat support inside the patch, so a patch system is a
principal submatrix of the operator on the red-refined mesh, and the
interior of every parent is condensed by nested dissection (A. George,
SINUM 10, 1973; E. L. Wilson, IJNME 8, 1974).  Every red-refined
sub-triangle is the image of its parent's corners, so `_condense` eliminates
level by level, with one stacked solve per level, the sub-vertices on each
sub-triangle's middle child's edges, leaving per parent the Schur complement
onto its corners and face sub-vertices, their loads and the eliminated
energy.  A patch then solves for its free vertices and face sub-vertices
alone (face id, then the dyadic index from the face's lower endpoint):
1 + 3k unknowns at depth 2 and 1 + 63k at depth 6 for an interior star of k
elements.  Patches of equal size are solved by one stacked dense solve,
those above `_DENSE_MAX` by one sparse solve of their block-diagonal system.
`discrete_dual_norm` prices stars in batches of bounded size, so memory does
not grow with the mesh; `global_dual_norm` prices the whole domain as one
patch.  The field part of the loads is cached per element by `star_loads`
(120 B at depth 2, 360 B at depth 3), which `all_oscillations` and
`localize_check` make; without it a batch evaluates the field on its parents.
"""

import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import quadrature
from .galerkin import (PiecewiseFunctional, _p1_mass_sq, apply_operator, as_source,
                       data_minus, field_rows, grad_jumps, load_vector, residual_source)
from .mesh import cached_rows, index_array
from .quadrature import DEFAULT_DEGREE

_DENSE_MAX = 220  # patch systems up to this size are solved densely
# Work entries (matrix entries, gathered and per-parent block entries, and
# quadrature values) per batch of stars; bounds the memory of one batch.
_CHUNK_ENTRIES = 2**17


def weight_elements(mesh, kappa):
    """min(h_T, 1/kappa) per element."""
    return np.minimum(mesh.h_elem, 1.0 / kappa)


def weight_faces(mesh, kappa):
    """min(h_F, 1/kappa) per face, h_F the largest adjacent element diameter."""
    return np.minimum(mesh.h_face, 1.0 / kappa)


def residuals(problem, U, interpolated):
    """The residual interpolated - L(U) as a PiecewiseFunctional.

    `interpolated` is the volume+face interpolation of the right-hand side.
    Both parts vanish identically when f itself is the operator image of U.
    """
    return interpolated - apply_operator(problem.mesh, problem.kappa, U)


def vertex_indicators(residual, kappa):
    """E(z) for every vertex, (nv,), of a residual PiecewiseFunctional: per
    vertex one sum over its elements and one over its faces, in index order."""
    mesh = residual.mesh
    elem_part = np.bincount(mesh.elements.ravel(), np.repeat(
        weight_elements(mesh, kappa) ** 2 * residual.cell_norms_sq(), 3), mesh.n_vertices)
    face_part = np.bincount(mesh.faces.ravel(), np.repeat(
        weight_faces(mesh, kappa) * residual.face_norms_sq(), 2), mesh.n_vertices)
    return np.sqrt(elem_part) + np.sqrt(face_part)


def classic_indicators(problem, U, quad_degree=DEFAULT_DEGREE):
    """Squared classical residual indicator per element.

    min(h_T,1/kappa)^2 ||f_T - kappa^2 U||_T^2
    + 1/2 sum_{F subset dT interior} min(h_F,1/kappa) ||grad-jump||_F^2,
    with f_T the elementwise mean of the volume part of f.
    """
    mesh = problem.mesh
    kappa = problem.kappa
    if isinstance(problem.rhs, PiecewiseFunctional):
        f_mean = problem.rhs.cell_density.mean(axis=1)
    else:
        f_mean = field_rows(mesh, problem.rhs, quad_degree).mean
    coeffs = f_mean[:, None] - kappa**2 * U.values.take(mesh.elements)
    vol = weight_elements(mesh, kappa) ** 2 * _p1_mass_sq(mesh.areas, coeffs)
    jumps_sq = grad_jumps(mesh, U) ** 2 * mesh.face_len * weight_faces(mesh, kappa)
    jump = 0.5 * jumps_sq.take(mesh.elem_faces) * mesh.interior_face.take(mesh.elem_faces)
    return vol + (jump[:, 0] + jump[:, 1] + jump[:, 2])


# -- P1 spaces on red-refined patches -------------------------------------------


class _Template:
    """Uniform red refinement of the reference triangle: the vertices'
    barycentrics `bary` and the sub-triangles `tris`."""

    def __init__(self, depth):
        verts = [np.eye(3)[i] for i in range(3)]
        tris = [(0, 1, 2)]
        for _ in range(depth):
            cache = {}

            def midpoint(a, b):
                key = (a, b) if a < b else (b, a)
                if key not in cache:
                    verts.append(0.5 * (verts[a] + verts[b]))
                    cache[key] = len(verts) - 1
                return cache[key]

            nxt = []
            for a, b, c in tris:
                ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
                nxt += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
            tris = nxt
        self.bary = np.array(verts)
        self.tris = np.array(tris, dtype=np.int64)


_template = functools.cache(_Template)


def _places(level):
    """Integer barycentrics (sum 2^level) of a level-`level` skeleton: the
    boundary (corners, then faces 0, 1, 2 by step toward the face's second
    endpoint), then the sub-vertices on the middle child's edges."""
    n, h = 2**level, 2**level // 2
    e = np.eye(3, dtype=np.int64)
    step, half = np.arange(1, n)[:, None], np.arange(1, h)[:, None]
    return np.concatenate(
        [n * e] + [(n - step) * e[(i + 1) % 3] + step * e[(i + 2) % 3] for i in range(3)]
        + [h * e[i] + (h - half) * e[(i + 1) % 3] + half * e[(i + 2) % 3] for i in range(3)])


def _children(q, level):
    """Points q of a level-`level` - 1 triangle in the four children of a
    level-`level` one, (4, ..., 3): corner children 0, 1, 2, then the middle."""
    h = 2 ** (level - 1)
    return np.stack([q + h * np.eye(3, dtype=np.int64)[c] for c in range(3)] + [h - q])


def _sub_corners(top, level):
    """Corners of the level-`level` sub-triangles of a level-`top` triangle;
    sub-triangle t has the children 4t..4t+3 one level down."""
    corners = 2**top * np.eye(3, dtype=np.int64)[None]
    for up in range(top, level, -1):
        child = _children(2 ** (up - 1) * np.eye(3, dtype=np.int64), up)
        corners = (child[None] @ corners[:, None] // 2**up).reshape(-1, 3, 3)
    return corners


def _lookup(table):
    """The row of `table` (integer barycentrics) at each of some points."""
    n = int(table[0].sum()) + 1
    rows = np.full(n * n, -1)
    rows[table[:, 0] * n + table[:, 1]] = np.arange(len(table))
    return lambda q: rows[q[..., 0] * n + q[..., 1]]


class _RefBlocks:
    """Reference data of the depth-d template, shared by all parents.

    A corner child is its parent halved toward that corner, the middle child
    its parent halved and turned by half a turn, so every sub-triangle has
    the parent's angles theta_k at its local corners k, and its block is the
    unit P1 element sum_k cot(theta_k) S_k + kappa^2 |T| 4^-d M.  `levels`
    holds, bottom up for the levels l = min(d, 2)..d, the boundary size nb,
    `where` (the skeleton places of the four children's boundaries; None at
    the lowest level, whose skeleton is `start` times the weights) and `elim`
    (the template vertex of every eliminated place of each of the 4^(d-l)
    sub-triangles); `boundary` is the template vertex of each of the
    parent's boundary places.  Loads per unit parent area come from
    `mass_bary` for P1 densities and from the sparse (node, point) matrix
    `field_weights` for field values at the points `quad_bary` (every
    quadrature point of every sub-triangle); line sources load through
    `face_line`, per unit face length.
    """

    def __init__(self, depth, quad_degree):
        tpl = _template(depth)
        n_sub = 4**depth
        nt = self.n_nodes = len(tpl.bary)
        self.depth, self.quad_degree = depth, quad_degree
        m = self.face_dofs = 2**depth - 1
        self.face_local = np.repeat(np.arange(3), m)
        self.face_step = np.tile(np.arange(1, m + 1), 3)

        # the template vertex of every place, found by its dyadic barycentrics
        vertex_at = _lookup(np.rint(tpl.bary * 2**depth).astype(np.int64))
        bottom = min(depth, 2)
        self.levels = []
        for level in range(bottom, depth + 1):
            places, nb = _places(level), 3 * 2**level
            where = None if level == bottom else _lookup(places)(
                _children(_places(level - 1)[:nb // 2], level))
            elim = vertex_at(places[nb:] @ _sub_corners(depth, level) // 2**level)
            self.levels.append((nb, where, elim))
        self.boundary = vertex_at(places[:nb])

        # S_k: grad(lam_i).grad(lam_j) = -cot(theta_k) / (2|T|), {i, j, k} = {0, 1, 2}
        edge = np.array([np.roll([0.0, 1.0, -1.0], k) for k in range(3)])
        unit = [*(edge[:, :, None] * edge[:, None, :] / 2.0),
                (np.ones((3, 3)) + np.eye(3)) / (12.0 * n_sub)]
        n = len(_places(bottom))
        tris = _lookup(_places(bottom))(_sub_corners(bottom, 0))
        pattern = (tris[:, :, None] * n + tris[:, None, :]).ravel()
        self.start = np.stack([np.bincount(pattern, np.tile(u.ravel(), len(tris)), n * n)
                               for u in unit])
        pairs = np.repeat(tpl.tris, 3, axis=1).ravel(), np.tile(tpl.tris, (1, 3)).ravel()
        mass = sp.csr_matrix((np.tile(unit[3].ravel(), len(tpl.tris)), pairs), shape=(nt, nt))
        self.mass_bary = np.ascontiguousarray((mass @ tpl.bary).T)

        rule = quadrature.simplex_rule(quad_degree)
        nq = len(rule.weights)
        self.quad_bary = quadrature.map_points(rule, tpl.bary[tpl.tris]).reshape(-1, 3)
        point = np.arange(len(self.quad_bary)).reshape(-1, nq)
        weights = 2.0 / n_sub * rule.weights[:, None] * rule.points
        self.field_weights = sp.csr_matrix(
            (np.broadcast_to(weights, (len(tpl.tris), nq, 3)).ravel(),
             (np.repeat(tpl.tris[:, None, :], nq, axis=1).ravel(),
              np.repeat(point, 3).ravel())),
            shape=(nt, len(self.quad_bary)))

        # integral of every sub-hat over parent face i, per unit face length
        self.face_line = np.zeros((3, nt))
        self.face_line[self.face_local, self.boundary[3:]] = 1.0 / 2**depth
        self.face_line[[0, 0, 1, 1, 2, 2], self.boundary[[1, 2, 2, 0, 0, 1]]] = 0.5 / 2**depth

        # per center corner the places a star can free (the corner and the
        # sub-vertices of the two faces through it), and the work one (star,
        # parent) pair adds to a batch besides quadrature: the gathered block
        # and loads, and a third of the parent's condensation
        self.star_nodes = np.array([[c, *(3 + np.flatnonzero(self.face_local != c))]
                                    for c in range(3)])
        ns = self.star_nodes.shape[1]
        self.star_rows, self.star_cols = np.divmod(np.arange(ns * ns), ns)
        parent = nt + sum(elim.shape[1] * (elim.shape[1] + 2 * (nb + len(elim))) + 2 * nb * nb
                          for nb, _, elim in self.levels)
        self.pair_entries = ns * ns + ns + parent // 3


_ref_blocks = functools.cache(_RefBlocks)


def discrete_dual_norm(mesh, vertices, g, kappa, depth=2, quad_degree=DEFAULT_DEGREE):
    """Lower bounds of the dual norm of g on the stars of `vertices`, one each.

    Entry i is the energy norm of the Riesz representative of g in the P1
    space with zero boundary values on the star of vertices[i], red-refined
    `depth` times; it is monotone nondecreasing in `depth` (the spaces are
    nested).  A star without free sub-vertices gets exactly 0.
    """
    vertices = index_array(vertices, mesh.n_vertices, "star vertices").reshape(-1)
    g = as_source(mesh, g)
    ref = _ref_blocks(int(depth), int(quad_degree))
    starts = mesh.vertex_starts

    # stars in the order of their lowest element, so that a batch shares
    # most of its parents (bisection numbers children next to each other)
    perm = np.argsort(mesh.vertex_slots[starts[vertices]], kind="stable")
    vertices = vertices.take(perm)
    valence = starts[vertices + 1] - starts[vertices]
    inner_faces = np.bincount(mesh.faces[mesh.interior_face].ravel(),
                              minlength=mesh.n_vertices)[vertices]
    n = ~mesh.boundary_vertex[vertices] + inner_faces * ref.face_dofs
    priced = g.field is not None and _loads_key(g.field, ref) not in mesh.cache
    cost = np.cumsum(np.where(n <= _DENSE_MAX, n**2, 0) + valence * (
        ref.pair_entries + priced * len(ref.quad_bary)))
    out = np.empty(len(vertices))
    start = 0
    while start < len(vertices):
        spent = cost[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(cost, spent + _CHUNK_ENTRIES,
                                                  side="right")))
        out[perm[start:stop]] = _star_batch(mesh, vertices[start:stop], g, kappa, ref)
        start = stop
    return out


def global_dual_norm(mesh, g, kappa, depth=2, quad_degree=DEFAULT_DEGREE):
    """Same surrogate on the whole domain with zero trace on its boundary.

    Every parent is condensed onto its boundary sub-vertices, and the domain
    solves for its free vertices, then the sub-vertices of every interior
    face.
    """
    g = as_source(mesh, g)
    ref = _ref_blocks(int(depth), int(quad_degree))
    m, nb = ref.face_dofs, len(ref.boundary)
    free, inner = ~mesh.boundary_vertex, mesh.interior_face
    n_v, n_f, every = int(free.sum()), int(inner.sum()), np.arange(mesh.n_elements)
    local = _local(ref, mesh.elements, np.where(free, np.cumsum(free) - 1, -1)[mesh.elements],
                   np.where(inner, n_v + (np.cumsum(inner) - 1) * m, -1)[mesh.elem_faces])
    schur, cond, interior = _condense(ref, _parent_weights(mesh, every, kappa),
                                      _parent_loads(mesh, g, every, ref))
    rows, cols = np.divmod(np.arange(nb * nb), nb)
    energy = interior.sum() + _patch_energies(
        np.array([n_v + n_f * m]), np.zeros_like(every), local, rows, cols,
        schur.reshape(len(every), -1), cond)[0]
    return float(np.sqrt(max(energy, 0.0)))


def _local(ref, tri, corners, faces):
    """Patch-local index of every boundary place of parents with vertices
    `tri` (-1: not free): `corners` (p, 3) at the corners, faces[:, i] + j
    at the j-th sub-vertex of face i from its lower endpoint (-1 with it)."""
    fl = ref.face_local
    flip = tri[:, (fl + 1) % 3] > tri[:, (fl + 2) % 3]
    on = faces[:, fl] + np.where(flip, ref.face_dofs - ref.face_step, ref.face_step - 1)
    return np.concatenate([corners, np.where(faces[:, fl] >= 0, on, -1)], axis=1)


def _star_batch(mesh, centers, g, kappa, ref):
    """Dual norms of g on the stars of `centers` (one batch): each star
    solves for the free boundary sub-vertices of its condensed parents."""
    starts = mesh.vertex_starts
    ns = len(centers)
    k = starts[centers + 1] - starts[centers]
    star = np.repeat(np.arange(ns), k)
    first = np.zeros(ns + 1, dtype=np.int64)
    np.cumsum(k, out=first[1:])
    rank = np.arange(len(star)) - first[star]
    elem, iz = np.divmod(mesh.vertex_slots[starts[centers][star] + rank], 3)
    ef, tri = (a.take(elem, axis=0) for a in (mesh.elem_faces, mesh.elements))

    # interior faces through the center, numbered per star in face-id order
    nf = mesh.n_faces
    through = (np.arange(3) != iz[:, None]) & mesh.interior_face.take(ef)
    keys = star[:, None] * nf + ef
    faces = np.unique(keys[through])
    bounds = np.searchsorted(faces, np.arange(ns + 1) * nf)
    n_if = np.diff(bounds)
    slot = np.searchsorted(faces, keys) - bounds[star][:, None]

    # star-local index of every boundary place of every pair
    center = (~mesh.boundary_vertex[centers]).astype(np.int64)
    n = center + n_if * ref.face_dofs
    local = _local(ref, tri, np.where((np.arange(3) == iz[:, None])
                                      & (center[star] == 1)[:, None], 0, -1),
                   np.where(through, center[star][:, None] + slot * ref.face_dofs, -1))
    parents, parent_of = np.unique(elem, return_inverse=True)
    schur, cond, interior = _condense(ref, _parent_weights(mesh, parents, kappa),
                                      _parent_loads(mesh, g, parents, ref))
    pos, at = ref.star_nodes[iz], parent_of[:, None]
    energy = np.bincount(star, interior.take(parent_of), ns) + _patch_energies(
        n, star, np.take_along_axis(local, pos, axis=1), ref.star_rows, ref.star_cols,
        schur[at[:, :, None], pos[:, :, None], pos[:, None, :]].reshape(len(star), -1),
        cond[at, pos])
    return np.sqrt(np.maximum(energy, 0.0))


def _condense(ref, weights, loads):
    """Nested dissection of parents with `_parent_weights` and
    `_parent_loads`: per parent the Schur complement onto the boundary
    places, (p, nb, nb), the condensed loads (p, nb) and the energy of the
    eliminated part, (p,).

    Level by level, every sub-triangle's skeleton is assembled from its
    children's Schur complements (one matrix per parent, the children being
    images of the parent) and their condensed loads, and its middle child's
    edges are eliminated by one stacked solve per level, whose right-hand
    sides are the boundary columns and one load column per sub-triangle.
    """
    p = len(weights)
    energy = np.zeros(p)
    for nb, where, elim in ref.levels:
        s, n = elim.shape[0], nb + elim.shape[1]
        if where is None:
            k = (weights @ ref.start).reshape(p, n, n)
            b = np.zeros((p, s, n))
        else:
            k = np.zeros((p, n, n))
            for w in where:
                k[:, w[:, None], w] += schur
            b = np.bincount((np.arange(p * s)[:, None] * n + where.ravel()).ravel(),
                            cond.ravel(), p * s * n).reshape(p, s, n)
        b_e = b[..., nb:].transpose(0, 2, 1) + loads.take(elim.T, axis=1)
        x = np.linalg.solve(k[:, nb:, nb:], np.concatenate([k[:, nb:, :nb], b_e], axis=2))
        y = k[:, :nb, nb:] @ x
        schur = k[:, :nb, :nb] - y[..., :nb]
        cond = b[..., :nb] - y[..., nb:].transpose(0, 2, 1)
        energy += (b_e * x[..., nb:]).sum(axis=(1, 2))
    return schur, cond[:, 0] + loads[:, ref.boundary], energy


def _patch_energies(n, patch, local, rows, cols, vals, loads):
    """Energies b.w of the Riesz representatives A w = b on patches with n
    free unknowns each.

    Pair i adds vals[i] to A at (local[i, rows], local[i, cols]) and
    loads[i] to b at local[i] in patch patch[i] (-1: not free).  A patch
    without free unknowns gets exactly 0.
    """
    n_patch = len(n)
    base = np.zeros(n_patch + 1, dtype=np.int64)
    np.cumsum(n, out=base[1:])
    free = local >= 0
    rhs = np.bincount((base[patch][:, None] + local)[free], weights=loads[free],
                      minlength=base[-1])

    rows, cols = local[:, rows], local[:, cols]
    keep = (rows >= 0) & (cols >= 0)
    energy = np.zeros(n_patch)

    # small patches: matrices grouped by size in one buffer, one stacked
    # dense solve per size
    is_small = (n > 0) & (n <= _DENSE_MAX)
    small = np.nonzero(is_small)[0]
    by_size = small[np.argsort(n[small], kind="stable")]
    sizes, first_of, counts = np.unique(n[by_size], return_index=True,
                                        return_counts=True)
    offset = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(counts * sizes**2, out=offset[1:])
    at = np.zeros(n_patch, dtype=np.int64)
    at[by_size] = (np.repeat(offset[:-1], counts)
                   + (np.arange(len(by_size)) - np.repeat(first_of, counts))
                   * n[by_size] ** 2)
    pick = keep & is_small[patch][:, None]
    flat = (at[patch][:, None] + rows * n[patch][:, None] + cols)[pick]
    matrices = np.bincount(flat, weights=vals[pick], minlength=offset[-1])
    for i, size in enumerate(sizes):
        members = by_size[first_of[i]:first_of[i] + counts[i]]
        A = matrices[offset[i]:offset[i + 1]].reshape(-1, size, size)
        b = rhs[base[members][:, None] + np.arange(size)]
        energy[members] = (b * np.linalg.solve(A, b[..., None])[..., 0]).sum(axis=1)

    # large patches: one sparse solve of their block-diagonal system,
    # assembled from the gathered entries without a dense matrix
    is_large = n > _DENSE_MAX
    large = np.nonzero(is_large)[0]
    if large.size:
        shift = np.zeros(n_patch, dtype=np.int64)
        shift[large] = np.cumsum(n[large]) - n[large]
        total = int(n[large].sum())
        pick = keep & is_large[patch][:, None]
        at = shift[patch][:, None]
        A = sp.csc_matrix((vals[pick], ((at + rows)[pick], (at + cols)[pick])),
                          shape=(total, total))
        b = rhs[np.repeat(base[large] - shift[large], n[large]) + np.arange(total)]
        energy[large] = np.add.reduceat(b * spla.spsolve(A, b), shift[large])
    return energy


def _parent_weights(mesh, parents, kappa):
    """(cot theta_0, cot theta_1, cot theta_2, kappa^2 |T|) per parent."""
    p = mesh.element_coords(parents)
    u = p.take([1, 2, 0], axis=1) - p
    v = p.take([2, 0, 1], axis=1) - p
    area = mesh.areas.take(parents)
    cot = np.einsum("pkx,pkx->pk", u, v) / (2.0 * area[:, None])
    return np.column_stack([cot, kappa**2 * area])


def _parent_loads(mesh, g, parents, ref):
    """<g, sub-hat> for every template vertex of every parent.

    Each side of a face carries half of the face's line source, so a face
    inside a patch gets all of it.
    """
    area = mesh.areas.take(parents)
    out = np.zeros((len(parents), ref.n_nodes))
    if g.field is not None:
        rows = mesh.cache.get(_loads_key(g.field, ref))
        out += (_field_loads(mesh, g.field, parents, ref) if rows is None
                else rows.loads.take(parents, axis=0))
    if g.piecewise is not None:
        out += area[:, None] * (g.piecewise.cell_density.take(parents, axis=0) @ ref.mass_bary)
        ef = mesh.elem_faces.take(parents, axis=0)
        out += (0.5 * g.piecewise.face_density.take(ef) * mesh.face_len.take(ef)) @ ref.face_line
    return out


def _field_loads(mesh, field, parents, ref):
    """<f, sub-hat> for every template vertex of every parent, each parent
    alone (rounding included), so that cached rows carry across bisection."""
    pts = ref.quad_bary @ mesh.element_coords(parents)
    fv = np.asarray(field.value(pts[..., 0], pts[..., 1]), dtype=float)
    return mesh.areas.take(parents)[:, None] * (ref.field_weights @ fv.T).T


def _loads_key(field, ref):
    return ("star_loads", field, ref.depth, ref.quad_degree)


def star_loads(mesh, field, depth=2, quad_degree=DEFAULT_DEGREE):
    """Cache the field part of every element's sub-hat loads on mesh
    (`cached_rows`) at depths up to 3: a row holds every template vertex,
    (2^d + 1)(2^d + 2)/2 floats, 2,145 at depth 6.  No field, nothing."""
    ref = _ref_blocks(int(depth), int(quad_degree))
    if field is not None and depth <= 3:
        cached_rows(mesh, _loads_key(field, ref), "elements",
                    lambda new: {"loads": _field_loads(mesh, field, new, ref)},
                    width=2 * len(ref.quad_bary))


# -- oscillation -----------------------------------------------------------------


def oscillation_key(problem, depth=2, quad_degree=DEFAULT_DEGREE):
    """The key of the star oscillations of a problem in its mesh's cache."""
    return ("oscillation", problem.rhs, problem.kappa, int(depth), int(quad_degree))


def all_oscillations(problem, interpolated, depth=2, quad_degree=DEFAULT_DEGREE):
    """Oscillation surrogate for every vertex star, (nv,).

    `interpolated` is the interpolation of the problem's data at its kappa
    and rule (`project_pi`).  The values of a field's data are cached on the
    mesh under `oscillation_key` (`cached_rows`): a star that contains no
    new element has the parent mesh's elements, and the faces through its
    center keep their rows of the interpolation, so where the parent priced
    them its value is the parent's and only the other stars are priced.  Data
    bound to the mesh (a PiecewiseFunctional) would keep the mesh alive
    from its own cache, so it is priced in full on every call.
    """
    g = data_minus(problem, interpolated)
    mesh = problem.mesh

    def price(stars):
        star_loads(mesh, g.field, depth, quad_degree)
        return {"values": discrete_dual_norm(mesh, stars, g, problem.kappa, depth,
                                             quad_degree)}

    if isinstance(problem.rhs, PiecewiseFunctional):
        return price(np.arange(mesh.n_vertices))["values"]
    return cached_rows(mesh, oscillation_key(problem, depth, quad_degree), "stars",
                       price).values


# -- localization of the residual norm -------------------------------------------


class LocalizeReport:
    def __init__(self, global_norm, local_norms, max_orthogonality):
        self.global_norm = global_norm
        self.local_norms = local_norms
        self.max_orthogonality = max_orthogonality

    @property
    def local_sum(self):
        return float(np.sqrt((self.local_norms**2).sum()))

    @property
    def ratio(self):
        return self.local_sum / self.global_norm


def localize_check(problem, U, depth=2, quad_degree=DEFAULT_DEGREE):
    """Compare the residual dual norm against the sum over vertex stars.

    The localization argument needs the residual to annihilate the discrete
    space.  Its violation, max |<f - L(U), hat_z>| over the free vertices,
    is measured relative to the load size max(1, max |b|), where the load
    rounds: the report's `max_orthogonality`.  The check refuses to run
    (ValueError) when it exceeds 1e-6.
    """
    mesh = problem.mesh
    g = residual_source(problem, U)
    pair_all = g.pair_hats(quad_degree)
    scale = max(1.0, float(np.abs(load_vector(problem, quad_degree)).max()))
    viol = float(np.abs(pair_all[mesh.free_vertices()]).max(initial=0.0))
    if viol > 1e-6 * scale:
        raise ValueError(
            f"residual is not orthogonal to the discrete space "
            f"(violation {viol:.3e} vs scale {scale:.3e})")
    star_loads(mesh, g.field, depth, quad_degree)
    local = discrete_dual_norm(mesh, np.arange(mesh.n_vertices), g, problem.kappa,
                               depth, quad_degree)
    glob = global_dual_norm(mesh, g, problem.kappa, depth, quad_degree)
    return LocalizeReport(glob, local, viol / scale)
