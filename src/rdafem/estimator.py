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
has its whole hat support inside the patch, so every patch system is a
principal submatrix of the operator on the red-refined mesh.  Red-refined
sub-triangles are similar to their parent, so the refined block of a parent
T is sum_k cot(theta_k) S_k + kappa^2 |T| M with reference blocks S_k, M
fixed per depth, and its loads are reference loads scaled per parent.
Sub-vertices are numbered topologically per patch (vertices, then face id
with the dyadic index from the face's lower endpoint, then element
interiors), and `_patch_energies` gathers the parent blocks and loads into
each patch's free set.  Patches with equal free count are solved by one
stacked dense solve; patches above `_DENSE_MAX` free sub-vertices are solved
together by one sparse solve of their block-diagonal system, so no memory
grows with the square of a patch's size.  `discrete_dual_norm` prices vertex
stars in chunks of bounded size, so memory does not grow with the mesh
either; `global_dual_norm` prices the whole domain as one patch.

Stars at depths up to 3 are condensed: each batch eliminates its parents'
interior sub-vertices in one stacked solve, and a star solves for its
center and face sub-vertices alone (1 + 3k unknowns, not 1 + 6k, at depth 2
for valence k).  Deeper stars and the whole domain are solved uncondensed.
The field part of the loads is cached per element by `star_loads` (120 B at
depth 2, 360 B at depth 3), which `all_oscillations` and `localize_check`
make; without it a batch evaluates the field on its own parents.
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
    """Uniform red refinement of the reference triangle, in barycentrics."""

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
        # classify: barycentric entries stay exact dyadic rationals
        self.corner_of = np.full(len(verts), -1, dtype=np.int64)
        self.face_of = np.full(len(verts), -1, dtype=np.int64)
        self.face_param = np.zeros(len(verts))
        for v, lam in enumerate(self.bary):
            zero = np.nonzero(lam == 0.0)[0]
            if len(zero) == 2:
                self.corner_of[v] = int(np.nonzero(lam == 1.0)[0][0])
            elif len(zero) == 1:
                i = int(zero[0])
                self.face_of[v] = i
                self.face_param[v] = lam[(i + 2) % 3]  # toward local endpoint i+2
        edges = np.sort(self.tris[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
        edges = np.unique(edges, axis=0)
        self.face_edges = []
        for i in range(3):
            on = (self.bary[edges[:, 0], i] == 0.0) & (self.bary[edges[:, 1], i] == 0.0)
            self.face_edges.append(edges[on])


_template = functools.cache(_Template)


class _RefBlocks:
    """Reference blocks and loads of the depth-d template, shared by all parents.

    The refined block of a parent T with angles theta_k is
    sum_k cot(theta_k) S_k + kappa^2 |T| M: on a sub-triangle t the gradient
    of a sub-hat is sum_i d_i grad(lam_i) in the parent barycentrics, and
    grad(lam_i).grad(lam_j) = -cot(theta_k) / (2|T|) for {i, j, k} = {0, 1, 2}.
    `values` holds S_0, S_1, S_2 and M (unit parent area) on the nonzero
    pattern (`rows`, `cols`).  Loads per unit parent area come from
    `mass_bary` for P1 densities and from the sparse (node, point) matrix
    `field_weights` for field values at the points `quad_bary` (every
    quadrature point of every sub-triangle); line sources load through
    `face_line`, per unit face length.  Only the condensation blocks of
    depths up to 3 (45 nodes at most) are stored dense in the node count
    squared, so deep templates stay small.
    """

    def __init__(self, depth, quad_degree):
        tpl = _template(depth)
        n_sub = 4**depth
        nt = len(tpl.bary)
        self.n_nodes = nt
        self.face_dofs = 2**depth - 1
        self.inner_dofs = self.face_dofs * (self.face_dofs - 1) // 2
        # coefficient of lam_i in sub-hat m on sub-triangle t, (t, m, i)
        coeff = np.linalg.inv(tpl.bary[tpl.tris]).transpose(0, 2, 1)
        rows = np.repeat(tpl.tris, 3, axis=1).ravel()
        cols = np.tile(tpl.tris, (1, 3)).ravel()
        entries = np.empty((4, len(rows)))
        for k in range(3):
            edge = np.zeros(3)
            edge[(k + 1) % 3], edge[(k + 2) % 3] = 1.0, -1.0
            d = coeff @ edge
            entries[k] = (d[:, :, None] * d[:, None, :]).ravel() / (2.0 * n_sub)
        mass = (np.ones((3, 3)) + np.eye(3)) / (12.0 * n_sub)
        entries[3] = np.tile(mass.ravel(), len(tpl.tris))
        pattern, where = np.unique(rows * nt + cols, return_inverse=True)
        self.rows, self.cols = np.divmod(pattern, nt)
        self.values = np.stack([np.bincount(where, weights=e, minlength=len(pattern))
                                for e in entries])
        mass = sp.csr_matrix((self.values[3], (self.rows, self.cols)), shape=(nt, nt))
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
        self.face_line = np.stack([np.bincount(edges.ravel(), minlength=nt)
                                   for edges in tpl.face_edges]) * (0.5 / 2**depth)

        # topological class of every template vertex
        face = tpl.face_of >= 0
        self.corner_cols = np.nonzero(tpl.corner_of >= 0)[0]
        self.corner_local = tpl.corner_of[self.corner_cols]
        self.face_cols = np.nonzero(face)[0]
        self.face_local = tpl.face_of[face]
        self.face_step = np.rint(tpl.face_param[face] * 2**depth).astype(np.int64)
        self.inner_cols = np.nonzero((tpl.corner_of < 0) & ~face)[0]

        # condensation (depths <= 3): the blocks split into interior and
        # boundary (corners, then face sub-vertices) parts, and per center
        # corner the boundary positions a star can free: the corner and the
        # sub-vertices of the two faces through it.  star_inner: interior
        # sub-vertices a star's system keeps per element; pair_entries: the
        # work one (star, parent) pair adds to a batch, besides quadrature
        self.depth, self.quad_degree = depth, quad_degree
        self.star_nodes, self.star_inner = None, self.inner_dofs
        self.pair_entries = len(self.rows)
        if depth > 3:
            return
        i = self.inner_cols
        b = self.boundary = np.concatenate([self.corner_cols, self.face_cols])
        dense = np.zeros((4, nt, nt))
        dense[:, self.rows, self.cols] = self.values
        self.blocks = [dense[:, r[:, None], c].reshape(4, -1) for r, c in ((i, i), (i, b),
                                                                          (b, b))]
        self.star_nodes = np.array([[c, *(3 + np.flatnonzero(self.face_local != c))]
                                    for c in range(3)])
        ns, nb, ni = self.star_nodes.shape[1], len(b), self.inner_dofs
        self.star_rows, self.star_cols = np.divmod(np.arange(ns * ns), ns)
        self.star_inner = 0
        # the gathered block and loads, and a third of a parent's blocks,
        # solve and loads (the stars of its three corners share them)
        parent = ni * ni + 2 * ni * (nb + 1) + 2 * nb * nb + nt
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
    n = (~mesh.boundary_vertex[vertices] + inner_faces * ref.face_dofs
         + valence * ref.star_inner)
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

    The domain is one patch: the free vertices first, then the sub-vertices
    of every interior face, then the element interiors.
    """
    g = as_source(mesh, g)
    ref = _ref_blocks(int(depth), int(quad_degree))
    m, n_int = ref.face_dofs, ref.inner_dofs
    free, inner = ~mesh.boundary_vertex, mesh.interior_face
    n_v, n_f, ne = int(free.sum()), int(inner.sum()), mesh.n_elements
    local = np.empty((ne, ref.n_nodes), dtype=np.int64)
    local[:, ref.corner_cols] = np.where(free, np.cumsum(free) - 1, -1)[
        mesh.elements[:, ref.corner_local]]
    f = mesh.elem_faces[:, ref.face_local]
    on_face = n_v + (np.cumsum(inner) - 1)[f] * m + _face_steps(mesh.elements, ref)
    local[:, ref.face_cols] = np.where(inner[f], on_face, -1)
    local[:, ref.inner_cols] = n_v + n_f * m + np.arange(ne * n_int).reshape(ne, n_int)
    every = np.arange(ne)
    energy = _patch_energies(np.array([n_v + n_f * m + ne * n_int]), np.zeros_like(every),
                             local, ref.rows, ref.cols,
                             _parent_weights(mesh, every, kappa) @ ref.values,
                             _parent_loads(mesh, g, every, ref))
    return float(np.sqrt(max(energy[0], 0.0)))


def _face_steps(tri, ref):
    """Index of every face sub-vertex along its face, from the lower endpoint."""
    fl = ref.face_local
    flip = tri[:, (fl + 1) % 3] > tri[:, (fl + 2) % 3]
    return np.where(flip, ref.face_dofs + 1 - ref.face_step, ref.face_step) - 1


def _star_batch(mesh, centers, g, kappa, ref):
    """Dual norms of g on the stars of `centers` (one batch), condensed at
    depths up to 3."""
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

    # star-local index of every template vertex of every pair (-1: not free)
    m, n_int = ref.face_dofs, ref.inner_dofs
    center = (~mesh.boundary_vertex[centers]).astype(np.int64)
    n = center + n_if * m
    local = np.empty((len(star), ref.n_nodes), dtype=np.int64)
    local[:, ref.corner_cols] = np.where(
        (ref.corner_local == iz[:, None]) & (center[star] == 1)[:, None], 0, -1)
    fl = ref.face_local
    local[:, ref.face_cols] = np.where(
        through[:, fl],
        center[star][:, None] + slot[:, fl] * m + _face_steps(tri, ref),
        -1)
    parents, parent_of = np.unique(elem, return_inverse=True)
    weights = _parent_weights(mesh, parents, kappa)
    loads = _parent_loads(mesh, g, parents, ref)
    if ref.star_nodes is None:
        local[:, ref.inner_cols] = (n[star][:, None] + rank[:, None] * n_int
                                    + np.arange(n_int))
        energy = _patch_energies(n + k * n_int, star, local, ref.rows, ref.cols,
                                 weights[parent_of] @ ref.values, loads[parent_of])
    else:
        schur, cond, interior = _condense(ref, weights, loads)
        pos, at = ref.star_nodes[iz], parent_of[:, None]
        energy = np.bincount(star, interior.take(parent_of), ns) + _patch_energies(
            n, star, np.take_along_axis(local[:, ref.boundary], pos, axis=1),
            ref.star_rows, ref.star_cols,
            schur[at[:, :, None], pos[:, :, None], pos[:, None, :]].reshape(len(star), -1),
            cond[at, pos])
    return np.sqrt(np.maximum(energy, 0.0))


def _condense(ref, weights, loads):
    """Static condensation of parents with `_parent_weights` and
    `_parent_loads`: per parent the Schur complement onto the boundary
    sub-vertices, (p, nb, nb), the condensed loads (p, nb) and the energy of
    the interior part, (p,)."""
    p, nb, ni = len(weights), len(ref.boundary), ref.inner_dofs
    k_ii, k_ib, k_bb = ((weights @ block).reshape(p, *shape) for block, shape
                        in zip(ref.blocks, ((ni, ni), (ni, nb), (nb, nb))))
    b_i = loads[:, ref.inner_cols, None]
    x = np.linalg.solve(k_ii, np.concatenate([k_ib, b_i], axis=2))
    y = k_ib.transpose(0, 2, 1) @ x
    return (k_bb - y[..., :nb], loads[:, ref.boundary] - y[..., nb],
            (b_i[..., 0] * x[..., nb]).sum(axis=1))


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
    (`cached_rows`) for the condensed depths, up to 3; no field, nothing."""
    ref = _ref_blocks(int(depth), int(quad_degree))
    if field is not None and ref.star_nodes is not None:
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
