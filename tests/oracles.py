"""Independent reference computations the tests check the package against.

None of them runs on the package's production path: closed-form integrals of
barycentric monomials and a plain Gauss quadrature of a callable, the energy
error per vertex star, a log-log decay rate, a mesh shape-regularity
measure, the operator matrix on every vertex, and the per-vertex sums of
the indicators and hat pairings by unbuffered `np.add.at` scatters, the
quadrature rows of a field and of an exact solution each from its own
evaluation, the face geometry of every face at once, and the blocks of a
red-refined template on all its vertices, assembled sub-triangle by
sub-triangle.

The last group keeps the indexing the package replaced: rows gathered and
scattered by advanced indexing and short rows reduced by `sum`, `max` and
`any` along axis 1, in the hot sites' own formulas.  The package gathers
with `take`, scatters with `mesh.scatter_rows` and reduces column by column;
both must give the same bits.
"""

import math

import numpy as np
import scipy.sparse as sp

from rdafem.estimator import _template, weight_elements, weight_faces
from rdafem.galerkin import element_dual_weights, energy_error_sq_elements, field_rows
from rdafem.mesh import bary_grads, signed_areas
from rdafem.quadrature import (DEFAULT_DEGREE, map_points, map_to_triangle, node_sums,
                               simplex_rule)


def integrate_barycentric(area, exponents):
    """Exact integral of lambda_1^a * lambda_2^b * lambda_3^c over a triangle.

    Uses 2|T| * a! b! c! / (a+b+c+2)!.  `area` is |T|; `exponents` the triple
    (a, b, c) of nonnegative integers.
    """
    a, b, c = (int(e) for e in exponents)
    if min(a, b, c) < 0:
        raise ValueError("exponents must be nonnegative")
    num = math.factorial(a) * math.factorial(b) * math.factorial(c)
    return 2.0 * area * num / math.factorial(a + b + c + 2)


def gauss_simplex(coords, degree, fn):
    """Integrate fn(x, y) over the triangle with vertex array `coords`.

    fn must accept numpy arrays of x and y and evaluate elementwise.
    """
    pts, w = map_to_triangle(simplex_rule(degree), coords)
    return float(w @ np.asarray(fn(pts[:, 0], pts[:, 1]), dtype=float))


def star_true_error_sq(problem, U, quad_degree=DEFAULT_DEGREE):
    """Squared energy error on every vertex star, (nv,)."""
    e2 = energy_error_sq_elements(problem, U, quad_degree)
    out = np.zeros(problem.mesh.n_vertices)
    np.add.at(out, problem.mesh.elements,
              np.broadcast_to(e2[:, None], problem.mesh.elements.shape))
    return out


def decay_rate(dofs, values):
    """Log-log slope of values against dofs (least squares fit)."""
    d = np.log(np.asarray(dofs, dtype=float))
    v = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(d, v, 1)[0])


def shape_metric(mesh):
    """Largest ratio of element diameter to inscribed-ball diameter, the
    latter 4|T| / perimeter."""
    p = mesh.vertices[mesh.elements]
    d = p - p[:, [1, 2, 0]]
    perimeter = np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2).sum(axis=1)
    return float((mesh.h_elem * perimeter / (4.0 * mesh.areas)).max())


def full_matrix(mesh, kappa):
    """Stiffness + kappa^2 * mass on every vertex, boundary ones included:
    the local matrices of all elements scattered at once (COO, duplicates
    summed by scipy), each in the local formula of `galerkin.assemble`.
    Rows get their entries in element order, so its restriction to the free
    vertices is `assemble`'s matrix bit for bit."""
    g = bary_grads(mesh.vertices[mesh.elements])
    area = mesh.areas[:, None, None]
    stiff = (g[:, :, None, 0] * g[:, None, :, 0] + g[:, :, None, 1] * g[:, None, :, 1]) * area
    local = stiff + kappa**2 * ((1.0 + np.eye(3)) * (area / 12.0))
    rows, cols = np.repeat(mesh.elements, 3, axis=1), np.tile(mesh.elements, 3)
    return sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(mesh.n_vertices,) * 2).tocsr()


def vertex_indicators_add_at(residual, kappa):
    """E(z) per vertex from `np.add.at` scatters of the weighted element and
    face norms, in element and face order."""
    mesh = residual.mesh
    elem_part = np.zeros(mesh.n_vertices)
    np.add.at(elem_part, mesh.elements, np.broadcast_to(
        (weight_elements(mesh, kappa) ** 2 * residual.cell_norms_sq())[:, None],
        mesh.elements.shape))
    face_part = np.zeros(mesh.n_vertices)
    np.add.at(face_part, mesh.faces, np.broadcast_to(
        (weight_faces(mesh, kappa) * residual.face_norms_sq())[:, None],
        mesh.faces.shape))
    return np.sqrt(elem_part) + np.sqrt(face_part)


def pair_hats_add_at(functional):
    """<functional, hat_z> per vertex from `np.add.at` scatters: the element
    parts in element order, then the nonzero line sources at their first,
    then at their second endpoints."""
    mesh = functional.mesh
    out = np.zeros(mesh.n_vertices)
    a = functional.cell_density
    np.add.at(out, mesh.elements,
              (mesh.areas[:, None] / 12.0) * (a + a.sum(axis=1, keepdims=True)))
    idx = np.nonzero(functional.face_density)[0]
    half = 0.5 * functional.face_density[idx] * mesh.face_len[idx]
    np.add.at(out, mesh.faces[idx, 0], half)
    np.add.at(out, mesh.faces[idx, 1], half)
    return out


def field_rows_apart(mesh, field, degree):
    """The load, mean and dual rows of `galerkin.field_rows`, from f alone
    (`field.value`) at the nodes of every element at once."""
    rule = simplex_rule(degree)
    w = rule.weights
    pts = map_points(rule, mesh.vertices[mesh.elements])
    weights = np.column_stack([w[:, None] * rule.points, w, element_dual_weights(rule)])
    sums = 2.0 * node_sums(field.value(pts[..., 0], pts[..., 1]), weights)
    return {"load": mesh.areas[:, None] * sums[:, :3], "mean": sums[:, 3],
            "dual": sums[:, 4:]}


def error_rows_apart(mesh, exact, degree):
    """u's rows of `galerkin.field_rows` for the rule of a degree of 2 at
    least, from `exact.value` and `exact.grad` alone at the nodes of every
    element at once."""
    rule = simplex_rule(degree)
    w = rule.weights
    pts = map_points(rule, mesh.vertices[mesh.elements])
    x, y = pts[..., 0], pts[..., 1]
    u, (gx, gy) = exact.value(x, y), exact.grad(x, y)
    mx, my = node_sums(gx, w) / w.sum(), node_sums(gy, w) / w.sum()
    lw = rule.points * w[:, None]
    c = node_sums(u, np.linalg.solve(rule.points.T @ lw, lw.T).T)
    jac = 2.0 * mesh.areas
    return {"grad_mean": np.column_stack([mx, my]),
            "grad_spread": jac * node_sums((gx - mx[:, None]) ** 2 + (gy - my[:, None]) ** 2, w),
            "proj": c,
            "proj_residual": jac * node_sums((u - node_sums(c, rule.points.T)) ** 2, w)}


def face_geometry(mesh):
    """face_len, h_face and normals (unit, from the lower adjacent element
    to the higher, out of the domain on the boundary) of every face at once."""
    p0, p1 = mesh.vertices[mesh.faces[:, 0]], mesh.vertices[mesh.faces[:, 1]]
    tang = p1 - p0
    face_len = np.sqrt(tang[:, 0] * tang[:, 0] + tang[:, 1] * tang[:, 1])
    lo, hi = mesh.face_elems[:, 0], mesh.face_elems[:, 1]
    h_face = np.where(hi >= 0, np.maximum(mesh.h_elem[lo], mesh.h_elem[hi]), mesh.h_elem[lo])
    normals = np.column_stack([tang[:, 1], -tang[:, 0]]) / face_len[:, None]
    owner = mesh.vertices[mesh.elements[lo]]
    away = 0.5 * (p0 + p1) - (owner[:, 0] + owner[:, 1] + owner[:, 2]) / 3.0
    normals[np.einsum("ij,ij->i", normals, away) < 0.0] *= -1.0
    return {"face_len": face_len, "h_face": h_face, "normals": normals}


# -- advanced indexing and axis-1 reductions ----------------------------------


def fancy_gather(a, idx):
    """The rows a[idx]."""
    return a[idx]


def fancy_scatter(out, idx, rows):
    """A copy of out with out[idx] = rows."""
    out = out.copy()
    out[idx] = rows
    return out


def row_sums(a):
    return a.sum(axis=1)


def row_maxima(a):
    return a.max(axis=1)


def row_any(a):
    return a.any(axis=1)


def p1_mass_sq(areas, vals):
    """int_T (sum v_i lam_i)^2 per element."""
    return areas / 12.0 * (row_sums(vals**2) + row_sums(vals) ** 2)


def bary_grads_fancy(p):
    """`mesh.bary_grads` of triangles p, (..., 3, 2)."""
    edges = p[..., [2, 0, 1], :] - p[..., [1, 2, 0], :]
    g = np.stack([-edges[..., 1], edges[..., 0]], axis=-1)
    return g / (2.0 * signed_areas(p))[..., None, None]


def element_diameters(mesh):
    """The longest edge of every element."""
    p = mesh.vertices[mesh.elements]
    d = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]
    return row_maxima(np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]))


def duplicate_elements(mesh):
    """Whether an element's neighbours across its faces 0 and 1 agree, per
    element: the test `Mesh.audit` makes for duplicate elements."""
    f0, f1 = mesh.elem_faces[:, 0], mesh.elem_faces[:, 1]
    return mesh.interior_face[f0] & (row_sums(mesh.face_elems[f0])
                                     == row_sums(mesh.face_elems[f1]))


def star_union(mesh, vertices):
    """The elements touching any of the vertices."""
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    mask[vertices] = True
    return np.nonzero(row_any(mask[mesh.elements]))[0]


def element_gradients(mesh, values):
    """The gradient of the P1 function with vertex values per element."""
    return np.einsum("ei,eix->ex", values[mesh.elements],
                     bary_grads_fancy(mesh.vertices[mesh.elements]))


def grad_jumps(mesh, values):
    """`galerkin.grad_jumps` of the P1 function with vertex values."""
    grads = element_gradients(mesh, values)
    out = np.zeros(mesh.n_faces)
    idx = np.nonzero(mesh.interior_face)[0]
    lo, hi = mesh.face_elems[idx, 0], mesh.face_elems[idx, 1]
    out[idx] = np.einsum("fx,fx->f", grads[lo] - grads[hi], mesh.normals[idx])
    return out


def energy_norm_sq_elements(mesh, kappa, values):
    """`galerkin.energy_norm_sq_elements` of the P1 function with vertex values."""
    grads = element_gradients(mesh, values)
    return (mesh.areas * np.einsum("ex,ex->e", grads, grads)
            + kappa**2 * p1_mass_sq(mesh.areas, values[mesh.elements]))


def energy_error_sq(problem, values, quad_degree=DEFAULT_DEGREE):
    """`galerkin.energy_error_sq_elements` of the P1 function with vertex values."""
    mesh = problem.mesh
    rows = field_rows(mesh, problem.rhs, max(quad_degree, 2))
    dg = rows.grad_mean - element_gradients(mesh, values)
    grad_part = rows.grad_spread + mesh.areas * (dg[:, 0] ** 2 + dg[:, 1] ** 2)
    mass_part = rows.proj_residual + p1_mass_sq(mesh.areas, rows.proj - values[mesh.elements])
    return grad_part + problem.kappa**2 * mass_part


def classic_indicators(problem, values, f_mean):
    """`estimator.classic_indicators` of the P1 function with vertex values,
    given the element means of the data."""
    mesh, kappa = problem.mesh, problem.kappa
    coeffs = f_mean[:, None] - kappa**2 * values[mesh.elements]
    vol = weight_elements(mesh, kappa) ** 2 * p1_mass_sq(mesh.areas, coeffs)
    jumps_sq = grad_jumps(mesh, values) ** 2 * mesh.face_len * weight_faces(mesh, kappa)
    jump_part = 0.5 * jumps_sq[mesh.elem_faces] * mesh.interior_face[mesh.elem_faces]
    return vol + row_sums(jump_part)


def psi_pairs(system, field):
    """<field, psi_F> per interior face of a `DualSystem`, every face at once."""
    mesh = system.mesh
    rule = simplex_rule(system.quad_degree)
    bubble_w = rule.weights * rule.points[:, 0] * rule.points[:, 1]
    faces, adj, thetas = system.iface, system.adj, system.thetas
    apex = np.argmax(mesh.elem_faces[adj] == faces[:, None, None], axis=2)[..., None]
    tri = np.take_along_axis(mesh.elements[adj], (apex + [1, 2, 0]) % 3, axis=2)
    p0, p1, pA = np.moveaxis(mesh.vertices[tri], 2, 0)
    th = thetas[..., None]
    pts = map_points(rule, np.stack([p0, p1, (1.0 - th) * p0 + th * pA], axis=2))
    fv = np.asarray(field.value(pts[..., 0], pts[..., 1]), dtype=float)
    jac = 2.0 * thetas * mesh.areas[adj]
    return 6.0 / mesh.face_len[faces] * row_sums(node_sums(fv, bubble_w) * jac)


def parent_weights(mesh, parents, kappa):
    """`estimator._parent_weights`: cotangents and kappa^2 |T| per parent."""
    p = mesh.vertices[mesh.elements[parents]]
    u, v = p[:, [1, 2, 0]] - p, p[:, [2, 0, 1]] - p
    area = mesh.areas[parents]
    cot = np.einsum("pkx,pkx->pk", u, v) / (2.0 * area[:, None])
    return np.column_stack([cot, kappa**2 * area])


def parent_loads(mesh, g, parents, ref):
    """`estimator._parent_loads` of a SourceFunctional g, the field part
    evaluated on the parents."""
    area = mesh.areas[parents]
    out = np.zeros((len(parents), ref.n_nodes))
    if g.field is not None:
        pts = ref.quad_bary @ mesh.vertices[mesh.elements[parents]]
        fv = np.asarray(g.field.value(pts[..., 0], pts[..., 1]), dtype=float)
        out += mesh.areas[parents, None] * (ref.field_weights @ fv.T).T
    if g.piecewise is not None:
        out += area[:, None] * (g.piecewise.cell_density[parents] @ ref.mass_bary)
        ef = mesh.elem_faces[parents]
        out += (0.5 * g.piecewise.face_density[ef] * mesh.face_len[ef]) @ ref.face_line
    return out


def template_blocks(depth):
    """S_0, S_1, S_2 and M of the depth-d template on all its vertices, unit
    parent area, (4, nt, nt): on a sub-triangle the gradient of a sub-hat is
    sum_i d_i grad(lam_i) in the parent barycentrics, with d from the
    inverse of the sub-triangle's corner barycentrics, and
    grad(lam_i).grad(lam_j) = -cot(theta_k) / (2|T|) for {i, j, k} = {0, 1, 2};
    the per-sub-triangle entries are summed by scipy (COO duplicates)."""
    tpl = _template(depth)
    n_sub, nt = 4**depth, len(tpl.bary)
    coeff = np.linalg.inv(tpl.bary[tpl.tris]).transpose(0, 2, 1)  # (t, sub-hat, i)
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
    return np.stack([sp.coo_matrix((e, (rows, cols)), shape=(nt, nt)).toarray()
                     for e in entries])
