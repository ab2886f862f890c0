"""Seeded property suite behind the `verify` command, and its pointwise oracle.

Every check measures a constant (an identity residual, a ratio, a stability
factor) and compares it against a fixed bound.  The outcome is a plain dict
ready for JSON serialization; randomized parts draw from one seeded
generator so reruns reproduce bit-identical reports.

The oracle evaluates the dual functions of a `DualSystem` pointwise and
pairs them with functionals by quadrature, piece by piece.  Of the system
it reads only theta and gamma; psi = `galerkin._PSI_UNIT` / |T|, the squeezed
triangles and the face bubbles it builds from the mesh, so the checks and the
tests use it as a cross-check of the bulk pairings behind the interpolation.
"""

import numpy as np

from . import galerkin
from .dual_system import get_dual_system, project_pi, theta_factor
from .estimator import discrete_dual_norm, localize_check
from .galerkin import DiscreteFunction, PiecewiseFunctional, ScalarField, apply_operator
from .mesh import MeshError, bary_grads
from .quadrature import (DEFAULT_DEGREE, edge_rule, gauss_edge, map_points,
                         map_to_triangle, simplex_rule)

IDENTITY_TOL = 1e-11
INVARIANCE_TOL = 1e-9
STABILITY_BOUND = 100.0
LOCALIZE_WINDOW = (0.2, 20.0)
MAX_SAMPLE = 24  # faces and elements sampled per check, a quarter as many stars
INVARIANCE_SAMPLES = 20  # random functionals per invariance check, of each kind
# a P1 density times a dual function is a quintic on each piece, and the
# trace of phi*_F on F a quadratic: rules of this degree integrate them exactly
P1_DEGREE = 5


# -- pointwise dual functions ----------------------------------------------------


def _psi(areas):
    """P1 coefficients of psi_z in column z, per element of the given areas."""
    return galerkin._PSI_UNIT / np.asarray(areas)[..., None, None]


class ElementDualFunction:
    """phi*_{z;T} = psi_z b_T: quartic bump on one element, L2-dual to its hats."""

    def __init__(self, system, element, local):
        self.mesh = system.mesh
        self.element = int(element)
        self.psi = _psi(self.mesh.areas[element])[:, local]

    def __call__(self, points):
        lam = self.mesh.barycentric(self.element, points)
        inside = (lam >= -1e-12).all(axis=1)
        return np.where(inside, (lam @ self.psi) * lam.prod(axis=1), 0.0)


def element_duals(system, element):
    """The three element duals of one element."""
    return [ElementDualFunction(system, element, z) for z in range(3)]


class FaceDualFunction:
    """phi*_F of an interior face, with theta and gamma from a DualSystem.

    Side s is the adjacent element `elements[s]` (lower index first), whose
    corner off F has the local index `apex[s]`, squeezed by `thetas[s]` to
    the triangle `sq_coords[s]` with corners v0, v1 and
    (1 - theta) v0 + theta apex, F = v0 v1, whose barycentrics in the
    element are `parent_bary[s]`; `gammas[s]` weigh the element duals of
    that side that are subtracted from the normalized bubble.
    """

    def __init__(self, system, face):
        mesh = self.mesh = system.mesh
        if not mesh.interior_face[face]:
            raise MeshError(f"face {face} lies on the boundary; it carries no dual function")
        pos = np.searchsorted(system.iface, face)
        self.face = int(face)
        self.elements = mesh.face_elems[face]
        self.thetas = system.thetas[pos]
        self.gammas = system.gammas[pos]
        self.parent_bary = np.zeros((2, 3, 3))
        self.apex = [int(np.flatnonzero(~np.isin(mesh.elements[e], mesh.faces[face]))[0])
                     for e in self.elements]
        for s, apex in enumerate(self.apex):
            v0, v1 = (apex + 1) % 3, (apex + 2) % 3
            self.parent_bary[s, [0, 1, 2, 2], [v0, v1, v0, apex]] = (
                1.0, 1.0, 1.0 - self.thetas[s], self.thetas[s])
        self.sq_coords = self.parent_bary @ mesh.vertices[mesh.elements[self.elements]]
        self.int_bubble = self.mesh.face_len[face] / 6.0  # exact value of int_F b_F
        self.element_duals = [element_duals(system, e) for e in self.elements]

    def bubble_value(self, points):
        """b_F: product of the squeezed hats of the two face endpoints."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(len(points))
        todo = np.ones(len(points), dtype=bool)
        for c in self.sq_coords:
            A = np.column_stack([c[1] - c[0], c[2] - c[0]])
            lam12 = np.linalg.solve(A, (points - c[0]).T).T
            mu = np.column_stack([1.0 - lam12.sum(axis=1), lam12])
            inside = todo & (mu >= -1e-10).all(axis=1)
            out[inside] = mu[inside, 0] * mu[inside, 1]
            todo &= ~inside
        return out

    def __call__(self, points):
        return self._minus_element_duals(self.bubble_value(points) / self.int_bubble,
                                         points)

    def _minus_element_duals(self, vals, points):
        """vals less the gamma-weighted element duals at the points."""
        for gammas, duals in zip(self.gammas, self.element_duals):
            for gz, dual in zip(gammas, duals):
                vals = vals - gz * dual(points)
        return vals

    def face_integral(self, quad_degree):
        """int_F phi*_F, with psi_F evaluated from the edge parameter s.

        On F the squeezed hats are mu0 = 1 - s, mu1 = s and mu2 = 0 exactly;
        the 2-D nodes of a rule on F lie off F by rounding, and the bubble,
        squeezed to the width theta h, would read them with an error that
        grows like 1 / theta.  The element duals are evaluated at the nodes.
        """
        rule = edge_rule(quad_degree)
        s = rule.points[:, 0]
        a, b = self.mesh.vertices[self.mesh.faces[self.face]]
        vals = self._minus_element_duals(s * (1.0 - s) / self.int_bubble,
                                         a + s[:, None] * (b - a))
        return self.mesh.face_len[self.face] * float(rule.weights @ vals)


# -- pairing by quadrature ------------------------------------------------------


def _edge_integral(mesh, face, fn, quad_degree):
    """Integral of a points -> values callable over one mesh face."""
    a, b = mesh.vertices[mesh.faces[face]]
    return gauss_edge(a, b, quad_degree, lambda x, y: fn(np.column_stack([x, y])))


def _volume_values(f, element, points):
    """Values of the volume part of f (field or P1 density) at points of an element."""
    if isinstance(f, PiecewiseFunctional):
        return f.mesh.barycentric(element, points) @ f.cell_density[element]
    return np.asarray(f.value(points[:, 0], points[:, 1]), dtype=float)


def _pair_element_dual(f, phi, quad_degree):
    # line sources meet the trace of phi*, which vanishes on the element boundary
    pts, w = map_to_triangle(simplex_rule(quad_degree),
                             phi.mesh.element_coords(phi.element))
    return float(w @ (_volume_values(f, phi.element, pts) * phi(pts)))


def _pair_face_dual(f, phi, quad_degree):
    rule = simplex_rule(quad_degree)
    psi = rule.points[:, 0] * rule.points[:, 1] / phi.int_bubble
    total = 0.0
    for s, e in enumerate(phi.elements):
        pts = map_points(rule, phi.sq_coords[s])
        # the Jacobian 2 theta |T|: the area from the corners loses eps / theta
        w = rule.weights * (2.0 * phi.thetas[s] * phi.mesh.areas[e])
        total += float(w @ (_volume_values(f, e, pts) * psi))
        for gz, dual in zip(phi.gammas[s], phi.element_duals[s]):
            total -= gz * _pair_element_dual(f, dual, quad_degree)
    if isinstance(f, PiecewiseFunctional):
        # the trace of phi*_F is psi_F on F and vanishes on every other face
        total += f.face_density[phi.face] * phi.face_integral(quad_degree)
    return total


def pair(f, phi, quad_degree=DEFAULT_DEGREE):
    """Duality pairing <f, phi> with a dual function, by piecewise quadrature.

    `f` may be a ScalarField or a PiecewiseFunctional; integration is split
    over the polynomial pieces (squeezed triangle, element, face), so results
    are exact for polynomial data up to the rule degree, and for P1 densities
    and line sources at every degree (their rule has degree `P1_DEGREE` at
    least).
    """
    if isinstance(f, PiecewiseFunctional):
        quad_degree = max(quad_degree, P1_DEGREE)
    if isinstance(phi, ElementDualFunction):
        return _pair_element_dual(f, phi, quad_degree)
    if isinstance(phi, FaceDualFunction):
        return _pair_face_dual(f, phi, quad_degree)
    raise TypeError(f"cannot pair with {type(phi).__name__}")


# -- energy norms of the dual functions (stability measurements) ------------------


def _bump_eval(coeffs, lam, grads):
    """Values and gradients of (lam.c) lam0 lam1 lam2 at barycentric points."""
    s = lam @ coeffs
    b = lam.prod(axis=1)
    prods = np.stack([lam[:, 1] * lam[:, 2], lam[:, 0] * lam[:, 2],
                      lam[:, 0] * lam[:, 1]], axis=1)
    partial = coeffs[None, :] * b[:, None] + s[:, None] * prods
    return s * b, partial @ grads


def element_dual_energy_norm(system, element, z, quad_degree=DEFAULT_DEGREE):
    """Energy norm of phi*_{z;T}; scales like |T|^(-1/2) max(1/h_T, kappa)."""
    mesh = system.mesh
    rule = simplex_rule(quad_degree)
    val, grad = _bump_eval(_psi(mesh.areas[element])[:, z], rule.points,
                           bary_grads(mesh.element_coords(element)))
    dens = (grad**2).sum(axis=1) + system.kappa**2 * val**2
    return float(np.sqrt(2.0 * mesh.areas[element] * (rule.weights @ dens)))


def face_dual_energy_norm(system, face, quad_degree=DEFAULT_DEGREE):
    """Energy norm of phi*_F, integrated piecewise on the squeezed supports."""
    phi = FaceDualFunction(system, face)
    mesh, kappa2 = system.mesh, system.kappa**2
    rule = simplex_rule(quad_degree)
    lam_q = rule.points
    total = 0.0
    for s, e in enumerate(phi.elements):
        grads = bary_grads(mesh.element_coords(e))
        c = -(_psi(mesh.areas[e]) @ phi.gammas[s])  # -(lam.c) b on all of T
        val, grad = _bump_eval(c, lam_q, grads)
        dens = (grad**2).sum(axis=1) + kappa2 * val**2
        total += 2.0 * mesh.areas[e] * (rule.weights @ dens)
        # on the squeezed triangle psi_F = mu0 mu1 / int_bubble joins in;
        # mu1 = lam_v1 and mu2 = lam_apex / theta, so their gradients come
        # from those of T, not from corners theta h apart
        apex = phi.apex[s]
        g_mu1 = grads[(apex + 2) % 3]
        g_mu0 = -g_mu1 - grads[apex] / phi.thetas[s]
        val_c, grad_c = _bump_eval(c, lam_q @ phi.parent_bary[s], grads)
        v_full = val_c + lam_q[:, 0] * lam_q[:, 1] / phi.int_bubble
        g_full = grad_c + (lam_q[:, 1, None] * g_mu0
                           + lam_q[:, 0, None] * g_mu1) / phi.int_bubble
        dens = ((g_full**2).sum(axis=1) - (grad_c**2).sum(axis=1)
                + kappa2 * (v_full**2 - val_c**2))
        total += 2.0 * phi.thetas[s] * mesh.areas[e] * (rule.weights @ dens)
    return float(np.sqrt(max(total, 0.0)))



def _check(name, measured, bound, lower=None):
    ok = measured <= bound if lower is None else lower <= measured <= bound
    entry = {"name": name, "measured": float(measured), "bound": float(bound),
             "pass": bool(ok)}
    if lower is not None:
        entry["lower"] = float(lower)
    return entry


def _sample(rng, n, k):
    if n <= k:
        return np.arange(n)
    return rng.choice(n, size=k, replace=False)


def _hat_functional(mesh, vertex):
    """The global hat at a vertex written as elementwise P1 densities."""
    cell = np.zeros((mesh.n_elements, 3))
    cell[mesh.elements == vertex] = 1.0
    return PiecewiseFunctional(mesh, cell, np.zeros(mesh.n_faces))


def element_duality_residual(mesh):
    """max |<lam_y, phi*_z>_T - delta_yz| over all elements."""
    off = 1.0 / 630.0
    gram = ((1.0 / 420.0 - off) * np.eye(3) + off)[None] * mesh.areas[:, None, None]
    res = np.einsum("eyx,exz->eyz", gram, _psi(mesh.areas)) - np.eye(3)[None]
    return float(np.abs(res).max())


def face_duality_residuals(mesh, kappa, faces, quad_degree=DEFAULT_DEGREE):
    """(diagonal, cross) residuals of the face Dirac pairings."""
    system = get_dual_system(mesh, kappa, quad_degree)
    degree = max(quad_degree, P1_DEGREE)
    diag = 0.0
    cross = 0.0
    for face in faces:
        fd = FaceDualFunction(system, face)
        diag = max(diag, abs(fd.face_integral(degree) - 1.0))
        # the other interior faces of the elements next to F, ascending
        adj = mesh.face_elems[face]
        near = np.unique(mesh.elem_faces[adj[adj >= 0]])
        for other in near[mesh.interior_face[near] & (near != face)]:
            cross = max(cross, abs(_edge_integral(mesh, other, fd, degree)))
        for duals in fd.element_duals:
            for dual in duals:
                cross = max(cross, abs(_edge_integral(mesh, face, dual, degree)))
    return diag, cross


def hat_face_residual(mesh, kappa, faces, quad_degree=DEFAULT_DEGREE):
    """max |<hat_y, phi*_F>| over the hats touching each sampled face."""
    system = get_dual_system(mesh, kappa, quad_degree)
    worst = 0.0
    for face in faces:
        fd = FaceDualFunction(system, face)
        verts = np.unique(mesh.elements[mesh.face_elems[face]])
        for y in verts:
            val = pair(_hat_functional(mesh, y), fd, quad_degree)
            worst = max(worst, abs(val))
    return worst


def invariance_residuals(mesh, kappa, rng, quad_degree=DEFAULT_DEGREE):
    """(random functional, operator image) invariance defects, scale relative."""
    worst_rand = 0.0
    for _ in range(INVARIANCE_SAMPLES):
        cell = rng.standard_normal((mesh.n_elements, 3))
        face = np.where(mesh.interior_face, rng.standard_normal(mesh.n_faces), 0.0)
        g = PiecewiseFunctional(mesh, cell, face)
        back = project_pi(mesh, kappa, g, quad_degree)
        scale = max(1.0, g.coeff_scale())
        worst_rand = max(worst_rand, (back - g).coeff_scale() / scale)
    worst_op = 0.0
    for _ in range(INVARIANCE_SAMPLES):
        vals = np.where(mesh.boundary_vertex, 0.0,
                        rng.standard_normal(mesh.n_vertices))
        g = apply_operator(mesh, kappa, DiscreteFunction(mesh, vals))
        back = project_pi(mesh, kappa, g, quad_degree)
        scale = max(1.0, g.coeff_scale())
        worst_op = max(worst_op, (back - g).coeff_scale() / scale)
    return worst_rand, worst_op


def constant_projection_residual(mesh, kappa, quad_degree=DEFAULT_DEGREE):
    """Pi reproduces the constant-one density exactly."""
    one = PiecewiseFunctional(mesh, np.ones((mesh.n_elements, 3)),
                              np.zeros(mesh.n_faces))
    return (project_pi(mesh, kappa, one, quad_degree) - one).coeff_scale()


def stability_samples(mesh, kappa, rng, vertices, depth=2,
                      quad_degree=DEFAULT_DEGREE):
    """max dual_norm(Pi g)/dual_norm(g) over random cubic fields on stars.

    Piecewise functionals are fixed points of the interpolation, so the
    samples must come from outside that class for the ratio to say anything.
    """
    worst = 0.0
    for z in vertices:
        cx, cy = mesh.vertices[z]
        h = mesh.h_elem[mesh.star(z)].max()
        coeff = rng.standard_normal((4, 4))

        def field(x, y, coeff=coeff, cx=cx, cy=cy, h=h):
            xs, ys = (x - cx) / h, (y - cy) / h
            out = np.zeros_like(np.asarray(xs, dtype=float))
            for i in range(4):
                for j in range(4 - i):
                    out = out + coeff[i, j] * xs**i * ys**j
            return out

        g = ScalarField(field)
        pig = project_pi(mesh, kappa, g, quad_degree)
        denom = discrete_dual_norm(mesh, [z], g, kappa, depth, quad_degree)[0]
        if denom == 0.0:
            continue
        num = discrete_dual_norm(mesh, [z], pig, kappa, depth, quad_degree)[0]
        worst = max(worst, num / denom)
    return worst


def scaling_constants(mesh, kappa, elements, faces, quad_degree=DEFAULT_DEGREE):
    """Normalized energy norms of the dual functions on sampled entities."""
    system = get_dual_system(mesh, kappa, quad_degree)
    c_elem = 0.0
    for e in elements:
        unit = max(1.0 / mesh.h_elem[e], kappa) / np.sqrt(mesh.areas[e])
        for z in range(3):
            c_elem = max(c_elem, element_dual_energy_norm(
                system, e, z, quad_degree) / unit)
    c_face = 0.0
    for face in faces:
        theta = theta_factor(mesh.h_elem[mesh.face_elems[face]], kappa).min()
        unit = max(1.0 / mesh.h_face[face], kappa) / np.sqrt(
            theta * mesh.face_len[face])
        c_face = max(c_face, face_dual_energy_norm(
            system, face, quad_degree) / unit)
    return c_elem, c_face


def run_verify(mesh, kappa, preset="sinsin", seed=0, depth=2,
               quad_degree=DEFAULT_DEGREE, mesh_label=""):
    """Full property suite; returns a JSON-ready report dict."""
    rng = np.random.default_rng(seed)
    interior = np.nonzero(mesh.interior_face)[0]
    faces = interior[_sample(rng, len(interior), MAX_SAMPLE)]
    elements = _sample(rng, mesh.n_elements, MAX_SAMPLE)
    checks = [_check("element_duality", element_duality_residual(mesh),
                     IDENTITY_TOL)]
    if len(faces):
        diag, cross = face_duality_residuals(mesh, kappa, faces, quad_degree)
        checks.append(_check("face_duality_diagonal", diag, IDENTITY_TOL))
        checks.append(_check("face_duality_cross", cross, IDENTITY_TOL))
        checks.append(_check("hat_face_orthogonality",
                             hat_face_residual(mesh, kappa, faces, quad_degree),
                             IDENTITY_TOL))
    rand_res, op_res = invariance_residuals(mesh, kappa, rng,
                                            quad_degree=quad_degree)
    checks.append(_check("invariance_random", rand_res, INVARIANCE_TOL))
    checks.append(_check("invariance_operator", op_res, INVARIANCE_TOL))
    checks.append(_check("constant_projection",
                         constant_projection_residual(mesh, kappa, quad_degree),
                         IDENTITY_TOL))

    problem = galerkin.make_problem(mesh, kappa, preset)
    U = galerkin.solve(problem, quad_degree=quad_degree)
    report = localize_check(problem, U, depth=depth, quad_degree=quad_degree)
    checks.append(_check("localization_ratio", report.ratio,
                         LOCALIZE_WINDOW[1], lower=LOCALIZE_WINDOW[0]))
    checks.append(_check("galerkin_orthogonality", report.max_orthogonality,
                         INVARIANCE_TOL))

    free = np.nonzero(~mesh.boundary_vertex)[0]
    stars = free[_sample(rng, len(free), max(4, MAX_SAMPLE // 4))]
    checks.append(_check("stability_sampled",
                         stability_samples(mesh, kappa, rng, stars, depth,
                                           quad_degree), STABILITY_BOUND))
    c_elem, c_face = scaling_constants(mesh, kappa, elements, faces, quad_degree)
    checks.append(_check("scaling_element_dual", c_elem, STABILITY_BOUND))
    if len(faces):
        checks.append(_check("scaling_face_dual", c_face, STABILITY_BOUND))

    return {
        "mesh": mesh_label,
        "n_vertices": mesh.n_vertices,
        "n_elements": mesh.n_elements,
        "kappa": kappa,
        "preset": preset,
        "seed": seed,
        "depth": depth,
        "quad_degree": quad_degree,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
