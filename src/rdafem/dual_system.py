"""Bi-orthogonal dual functions and the interpolation operator.

The target space of the interpolation consists of P1 volume densities per
element and line sources on interior faces.  Its dual basis is built from two
ingredients:

* element duals phi*_{z;T} = psi_z * b_T, with b_T the cubic element bubble
  and psi_z the P1 solution of the weighted Gram system
  int_T b_T psi_z lam_y = delta_zy; they vanish on the element boundary and
  are L2-dual to the hats inside T;
* face duals phi*_F = psi_F - sum_{T in w_F} sum_z gamma_{z;T} phi*_{z;T},
  where psi_F is the face bubble of the patch squeezed toward F by
  theta_T = min(1, 1/(h_T kappa)) on each side, normalized to unit face
  integral, and gamma_{z;T} = int_{T_theta} lam_z psi_F removes the element
  moments.

Squeezing keeps the trace of psi_F on F independent of kappa while shrinking
its support to an O(1/kappa) strip, which is what makes the construction (and
everything estimated with it) robust in kappa.

The interpolation of a functional g collects its pairings with all dual
functions: cell density sum_z <g, phi*_{z;T}> lam_z, face density <g, phi*_F>.
By construction it reproduces every functional of volume+face form.
"""

import numpy as np

from . import quadrature
from .galerkin import PiecewiseFunctional, ScalarField, SourceFunctional
from .mesh import MeshError, squeeze_element
from .quadrature import DEFAULT_DEGREE

GAMMA_DEGREE = 4  # the gamma integrand on the squeezed triangle is cubic


def theta_factor(h, kappa):
    """Squeeze factor min(1, 1/(h*kappa))."""
    return np.minimum(1.0, 1.0 / (np.asarray(h, dtype=float) * kappa))


class ElementDualFunction:
    """phi*_{z;T}: quartic bump on one element, L2-dual to the hats there."""

    def __init__(self, mesh, element, local, psi):
        self.mesh = mesh
        self.element = int(element)
        self.local = int(local)
        self.node = int(mesh.elements[element, local])
        self.psi = np.asarray(psi, dtype=float)

    def __call__(self, points):
        lam = self.mesh.barycentric(self.element, points)
        inside = (lam >= -1e-12).all(axis=1)
        vals = (lam @ self.psi) * lam.prod(axis=1)
        return np.where(inside, vals, 0.0)


class FaceDualFunction:
    """Face bubble of the squeezed patch and, once corrected, phi*_F.

    `sides` holds one SqueezedTriangle per adjacent element; `gammas` is
    (n_sides, 3) or None while the element moments have not been removed.
    """

    def __init__(self, mesh, face, kappa, sides, gammas=None, element_duals=None):
        self.mesh = mesh
        self.face = int(face)
        self.kappa = float(kappa)
        self.sides = sides
        self.gammas = gammas
        self.element_duals = element_duals
        self.face_len = float(mesh.face_len[face])
        self.int_bubble = self.face_len / 6.0  # exact value of int_F b_F

    def bubble_value(self, points):
        """b_F: product of the squeezed hats of the two face endpoints."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(len(points))
        todo = np.ones(len(points), dtype=bool)
        for sq in self.sides:
            c = sq.coords
            A = np.column_stack([c[1] - c[0], c[2] - c[0]])
            lam12 = np.linalg.solve(A, (points - c[0]).T).T
            mu = np.column_stack([1.0 - lam12.sum(axis=1), lam12])
            inside = todo & (mu >= -1e-10).all(axis=1)
            out[inside] = mu[inside, 0] * mu[inside, 1]
            todo &= ~inside
        return out

    def psi_value(self, points):
        """psi_F = b_F normalized to unit integral over the face."""
        return self.bubble_value(points) / self.int_bubble

    def __call__(self, points):
        if self.gammas is None:
            raise ValueError("face dual not corrected yet (bubble only)")
        vals = self.psi_value(points)
        for s, sq in enumerate(self.sides):
            for z in range(3):
                vals = vals - self.gammas[s, z] * self.element_duals[s][z](points)
        return vals


def element_dual_basis(mesh, element):
    """The three element dual functions of one element.

    Solves the 3x3 weighted Gram system with entries from the closed-form
    barycentric integrals; the solution is psi_z = (900 lam_z - 360 lam_y -
    360 lam_w)/|T|, but it is solved numerically here and pinned against the
    closed form in the tests.
    """
    area = mesh.areas[element]
    gram = np.empty((3, 3))
    for y in range(3):
        for z in range(3):
            expo = np.ones(3, dtype=int)
            expo[y] += 1
            expo[z] += 1
            gram[y, z] = quadrature.integrate_barycentric(area, expo)
    psi = np.linalg.solve(gram, np.eye(3))
    return [ElementDualFunction(mesh, element, z, psi[:, z]) for z in range(3)]


def face_bubble(mesh, face, kappa):
    """Squeezed face bubble of an interior face (error on boundary faces)."""
    if not mesh.interior_face[face]:
        raise MeshError(f"face {face} lies on the boundary; it carries no dual function")
    sides = []
    for elem in mesh.face_elems[face]:
        theta = float(theta_factor(mesh.h_elem[elem], kappa))
        sides.append(squeeze_element(mesh, elem, face, theta))
    return FaceDualFunction(mesh, face, kappa, sides)


def phi_star_face(mesh, face, kappa, duals=None):
    """The corrected face dual phi*_F with its gamma coefficients."""
    fd = face_bubble(mesh, face, kappa)
    if duals is None:
        duals = [element_dual_basis(mesh, sq.element) for sq in fd.sides]
    rule = quadrature.simplex_rule(GAMMA_DEGREE)
    gammas = np.empty((len(fd.sides), 3))
    for s, sq in enumerate(fd.sides):
        pts, w = quadrature.map_to_triangle(rule, sq.coords)
        psi_vals = rule.points[:, 0] * rule.points[:, 1] / fd.int_bubble
        lam_parent = rule.points @ sq.parent_bary  # (nq, 3)
        gammas[s] = np.einsum("q,q,qz->z", w, psi_vals, lam_parent)
    fd.gammas = gammas
    fd.element_duals = duals
    return fd


# -- pairing -------------------------------------------------------------------


def _pair_field_element_dual(field, phi, degree):
    mesh = phi.mesh
    coords = mesh.element_coords(phi.element)
    return quadrature.gauss_simplex(
        coords, degree, lambda x, y: np.asarray(field.value(x, y), dtype=float)
        * phi(np.column_stack([x, y])))

def _edge_integral(mesh, face, fn, degree):
    a, b = mesh.vertices[mesh.faces[face]]
    return quadrature.gauss_edge(a, b, degree, lambda x, y: fn(np.column_stack([x, y])))


def _pair_piecewise_element_dual(g, phi, degree):
    mesh = phi.mesh
    e = phi.element
    dens = g.cell_density[e]

    def density_times_phi(x, y):
        pts = np.column_stack([x, y])
        return (mesh.barycentric(e, pts) @ dens) * phi(pts)

    val = quadrature.gauss_simplex(mesh.element_coords(e), degree, density_times_phi)
    # line sources on the faces of T pair with the trace of phi*, which
    # vanishes identically; integrate it anyway to keep this path honest
    for face in mesh.elem_faces[e]:
        c = g.face_density[face]
        if c != 0.0:
            val += c * _edge_integral(mesh, face, phi, degree)
    return val


def _pair_field_face_dual(field, phi, degree):
    total = 0.0
    for s, sq in enumerate(phi.sides):
        pts, w = quadrature.map_to_triangle(quadrature.simplex_rule(degree), sq.coords)
        rule = quadrature.simplex_rule(degree)
        psi_vals = rule.points[:, 0] * rule.points[:, 1] / phi.int_bubble
        fv = np.asarray(field.value(pts[:, 0], pts[:, 1]), dtype=float)
        total += float(np.einsum("q,q,q->", w, fv, psi_vals))
        for z in range(3):
            total -= phi.gammas[s, z] * _pair_field_element_dual(
                field, phi.element_duals[s][z], degree)
    return total


def _pair_piecewise_face_dual(g, phi, degree):
    mesh = phi.mesh
    total = 0.0
    seen_faces = set()
    for s, sq in enumerate(phi.sides):
        e = sq.element
        dens = g.cell_density[e]
        rule = quadrature.simplex_rule(degree)
        pts, w = quadrature.map_to_triangle(rule, sq.coords)
        psi_vals = rule.points[:, 0] * rule.points[:, 1] / phi.int_bubble
        dens_vals = (rule.points @ sq.parent_bary) @ dens
        total += float(np.einsum("q,q,q->", w, dens_vals, psi_vals))
        for z in range(3):
            dual = phi.element_duals[s][z]
            gz = phi.gammas[s, z]

            def density_times_dual(x, y, e=e, dual=dual, dens=dens):
                p = np.column_stack([x, y])
                return (mesh.barycentric(e, p) @ dens) * dual(p)

            total -= gz * quadrature.gauss_simplex(
                mesh.element_coords(e), degree, density_times_dual)
        seen_faces.update(int(f) for f in mesh.elem_faces[e])
    # line sources against the trace of phi*_F (nonzero only on F itself)
    for face in seen_faces:
        c = g.face_density[face]
        if c != 0.0:
            total += c * _edge_integral(mesh, face, phi, degree)
    return total


def pair(f, phi, quad_degree=DEFAULT_DEGREE):
    """Duality pairing <f, phi> with a dual function, by piecewise quadrature.

    `f` may be a ScalarField, a PiecewiseFunctional, or a SourceFunctional;
    integration is split over the polynomial pieces (squeezed triangle,
    remainder, faces), so results are exact for polynomial data up to the
    rule degree.
    """
    if isinstance(f, SourceFunctional):
        val = 0.0
        if f.field is not None:
            val += f.field_weight * pair(f.field, phi, quad_degree)
        if f.piecewise is not None:
            val += pair(f.piecewise, phi, quad_degree)
        return val
    if isinstance(phi, ElementDualFunction):
        if isinstance(f, PiecewiseFunctional):
            return _pair_piecewise_element_dual(f, phi, quad_degree)
        return _pair_field_element_dual(f, phi, quad_degree)
    if isinstance(phi, FaceDualFunction):
        if phi.gammas is None:
            raise ValueError("face dual not corrected yet (bubble only)")
        if isinstance(f, PiecewiseFunctional):
            return _pair_piecewise_face_dual(f, phi, quad_degree)
        return _pair_field_face_dual(f, phi, quad_degree)
    raise TypeError(f"cannot pair with {type(phi).__name__}")


# -- assembled system and the interpolation -----------------------------------


class DualSystem:
    """All dual functions of one (mesh, kappa) pair, in array form.

    psi[e, z] are the P1 coefficients of psi_z on element e.  Interior-face
    data is stored per side s in {0, 1} (lower/higher adjacent element):
    squeeze factors, squeezed vertex coordinates, barycentric coordinates of
    the squeezed vertices in the parent element, and the gamma coefficients.
    """

    def __init__(self, mesh, kappa, quad_degree=DEFAULT_DEGREE):
        self.mesh = mesh
        self.kappa = float(kappa)
        self.quad_degree = int(quad_degree)
        self._build_elements()
        self._build_faces()

    def _build_elements(self):
        mesh = self.mesh
        expo = np.ones((3, 3, 3), dtype=int)
        for y in range(3):
            for z in range(3):
                expo[y, z, y] += 1
                expo[y, z, z] += 1
        base = np.empty((3, 3))
        for y in range(3):
            for z in range(3):
                base[y, z] = quadrature.integrate_barycentric(1.0, expo[y, z])
        gram = base[None, :, :] * mesh.areas[:, None, None]
        self.psi = np.linalg.solve(gram, np.broadcast_to(
            np.eye(3), (mesh.n_elements, 3, 3)).copy())
        # rows of the inverse Gram are the coefficient vectors (it is symmetric)

    def _build_faces(self):
        mesh = self.mesh
        kappa = self.kappa
        self.iface = np.nonzero(mesh.interior_face)[0]
        nfi = len(self.iface)
        self.face_pos = np.full(mesh.n_faces, -1, dtype=np.int64)
        self.face_pos[self.iface] = np.arange(nfi)
        adj = mesh.face_elems[self.iface]  # (nfi, 2), lower first
        self.adj = adj
        self.thetas = theta_factor(mesh.h_elem[adj], kappa)  # (nfi, 2)

        # local index of the face inside each adjacent element (apex index)
        apex = np.argmax(mesh.elem_faces[adj] == self.iface[:, None, None], axis=2)
        self.apex_local = apex
        v0_loc = (apex + 1) % 3
        v1_loc = (apex + 2) % 3
        tri = mesh.elements[adj]  # (nfi, 2, 3)
        take = np.arange(nfi)[:, None]
        v0 = tri[take, np.arange(2)[None, :], v0_loc]
        v1 = tri[take, np.arange(2)[None, :], v1_loc]
        vA = tri[take, np.arange(2)[None, :], apex]
        p0 = mesh.vertices[v0]
        p1 = mesh.vertices[v1]
        pA = mesh.vertices[vA]
        th = self.thetas[..., None]
        self.sq_coords = np.stack([p0, p1, (1.0 - th) * p0 + th * pA], axis=2)

        self.parent_bary = np.zeros((nfi, 2, 3, 3))
        s_idx = np.broadcast_to(np.arange(2)[None, :], (nfi, 2))
        f_idx = np.broadcast_to(take, (nfi, 2))
        self.parent_bary[f_idx, s_idx, 0, v0_loc] = 1.0
        self.parent_bary[f_idx, s_idx, 1, v1_loc] = 1.0
        self.parent_bary[f_idx, s_idx, 2, v0_loc] = 1.0 - self.thetas
        self.parent_bary[f_idx, s_idx, 2, apex] = self.thetas

        rule = quadrature.simplex_rule(GAMMA_DEGREE)
        mu = rule.points
        bubble = mu[:, 0] * mu[:, 1]
        inv_int = 6.0 / mesh.face_len[self.iface]  # 1 / (|F|/6)
        lam_parent = np.einsum("qm,fsmz->fsqz", mu, self.parent_bary)
        jac = 2.0 * self.thetas * mesh.areas[adj]  # (nfi, 2)
        self.gammas = inv_int[:, None, None] * jac[:, :, None] * np.einsum(
            "q,q,fsqz->fsz", rule.weights, bubble, lam_parent)

    # -- object views (verification surface) --

    def element_duals(self, element):
        return [ElementDualFunction(self.mesh, element, z, self.psi[element, :, z])
                for z in range(3)]

    def face_dual(self, face):
        pos = self.face_pos[face]
        if pos < 0:
            raise MeshError(f"face {face} lies on the boundary; it carries no dual function")
        sides = []
        for s, elem in enumerate(self.adj[pos]):
            sq = squeeze_element(self.mesh, elem, face, self.thetas[pos, s])
            sides.append(sq)
        fd = FaceDualFunction(self.mesh, face, self.kappa, sides,
                              gammas=self.gammas[pos],
                              element_duals=[self.element_duals(sq.element)
                                             for sq in sides])
        return fd

    # -- bulk pairings --

    def pair_elements(self, f):
        """<f, phi*_{z;T}> for all elements and local nodes, (ne, 3)."""
        mesh = self.mesh
        rule = quadrature.simplex_rule(self.quad_degree)
        lam = rule.points
        psib = np.einsum("ecz,qc->ezq", self.psi, lam) * lam.prod(axis=1)[None, None, :]
        out = np.zeros((mesh.n_elements, 3))
        if isinstance(f, SourceFunctional):
            if f.field is not None:
                out += f.field_weight * self._pair_elements_field(f.field, rule, psib)
            if f.piecewise is not None:
                out += self._pair_elements_density(f.piecewise, rule, psib)
            return out
        if isinstance(f, PiecewiseFunctional):
            return self._pair_elements_density(f, rule, psib)
        return self._pair_elements_field(f, rule, psib)

    def _pair_elements_field(self, field, rule, psib):
        mesh = self.mesh
        pts = np.einsum("qi,eix->eqx", rule.points, mesh.vertices[mesh.elements])
        fv = np.asarray(field.value(pts[..., 0], pts[..., 1]), dtype=float)
        return 2.0 * mesh.areas[:, None] * np.einsum("q,eq,ezq->ez", rule.weights, fv, psib)

    def _pair_elements_density(self, g, rule, psib):
        # face line sources contribute nothing here: the element duals vanish
        # identically on element boundaries
        fv = g.cell_density @ rule.points.T  # (ne, nq)
        return 2.0 * self.mesh.areas[:, None] * np.einsum(
            "q,eq,ezq->ez", rule.weights, fv, psib)

    def pair_faces(self, f, elem_pairs):
        """<f, phi*_F> for all interior faces, given the element pairings."""
        mesh = self.mesh
        nfi = len(self.iface)
        rule = quadrature.simplex_rule(self.quad_degree)
        mu = rule.points
        bubble_w = rule.weights * mu[:, 0] * mu[:, 1]  # weights x bubble values
        inv_int = 6.0 / mesh.face_len[self.iface]
        jac = 2.0 * self.thetas * mesh.areas[self.adj]
        out = np.zeros(nfi)
        if isinstance(f, SourceFunctional):
            if f.field is not None:
                out += f.field_weight * self._psi_pair_field(f.field, mu, bubble_w,
                                                             inv_int, jac)
            if f.piecewise is not None:
                out += self._psi_pair_density(f.piecewise, mu, bubble_w, inv_int, jac)
        elif isinstance(f, PiecewiseFunctional):
            out += self._psi_pair_density(f, mu, bubble_w, inv_int, jac)
        else:
            out += self._psi_pair_field(f, mu, bubble_w, inv_int, jac)
        out -= np.einsum("fsz,fsz->f", self.gammas, elem_pairs[self.adj])
        return out

    def _psi_pair_field(self, field, mu, bubble_w, inv_int, jac):
        pts = np.einsum("qm,fsmx->fsqx", mu, self.sq_coords)
        fv = np.asarray(field.value(pts[..., 0], pts[..., 1]), dtype=float)
        return inv_int * np.einsum("fs,fsq,q->f", jac, fv, bubble_w)

    def _psi_pair_density(self, g, mu, bubble_w, inv_int, jac):
        lam_parent = np.einsum("qm,fsmz->fsqz", mu, self.parent_bary)
        dens = g.cell_density[self.adj]  # (nfi, 2, 3)
        fv = np.einsum("fsqz,fsz->fsq", lam_parent, dens)
        out = inv_int * np.einsum("fs,fsq,q->f", jac, fv, bubble_w)
        # the trace of psi_F integrates to exactly one over its own face and
        # vanishes on every other face of the patch
        out += g.face_density[self.iface]
        return out


def get_dual_system(mesh, kappa, quad_degree=DEFAULT_DEGREE):
    """Cached DualSystem per (mesh, kappa, quad_degree).

    The cache lives on the mesh: its systems refer back to the mesh, and the
    garbage collector frees that cycle together with the mesh.
    """
    per_mesh = getattr(mesh, "_dual_systems", None)
    if per_mesh is None:
        per_mesh = mesh._dual_systems = {}
    key = (float(kappa), int(quad_degree))
    if key not in per_mesh:
        per_mesh[key] = DualSystem(mesh, kappa, quad_degree)
    return per_mesh[key]


def project_pi(mesh, kappa, f, quad_degree=DEFAULT_DEGREE):
    """Interpolation of f onto volume+face form via the dual pairings."""
    system = get_dual_system(mesh, kappa, quad_degree)
    elem_pairs = system.pair_elements(f)
    face_pairs = system.pair_faces(f, elem_pairs)
    face_density = np.zeros(mesh.n_faces)
    face_density[system.iface] = face_pairs
    return PiecewiseFunctional(mesh, elem_pairs, face_density)


# -- energy norms of the dual functions (stability measurements) ------------------


def _bump_eval(coeffs, lam, grads):
    """Values and gradients of (lam.c) lam0 lam1 lam2 at barycentric points."""
    s = lam @ coeffs
    b = lam.prod(axis=1)
    prods = np.stack([lam[:, 1] * lam[:, 2], lam[:, 0] * lam[:, 2],
                      lam[:, 0] * lam[:, 1]], axis=1)
    partial = coeffs[None, :] * b[:, None] + s[:, None] * prods
    return s * b, partial @ grads


def _coords_bary_grads(coords):
    e = coords[[2, 0, 1]] - coords[[1, 2, 0]]
    area = 0.5 * (e[2, 0] * e[0, 1] - e[0, 0] * e[2, 1])
    return np.stack([-e[:, 1], e[:, 0]], axis=1) / (2.0 * area)


def element_dual_energy_norm(mesh, kappa, element, z, quad_degree=DEFAULT_DEGREE):
    """Energy norm of phi*_{z;T}; scales like |T|^(-1/2) max(1/h_T, kappa)."""
    psi = element_dual_basis(mesh, element)[z].psi
    rule = quadrature.simplex_rule(quad_degree)
    val, grad = _bump_eval(psi, rule.points, mesh.bary_grads(element))
    dens = (grad**2).sum(axis=1) + kappa**2 * val**2
    return float(np.sqrt(2.0 * mesh.areas[element] * (rule.weights @ dens)))


def face_dual_energy_norm(mesh, kappa, face, quad_degree=DEFAULT_DEGREE):
    """Energy norm of phi*_F, integrated piecewise on the squeezed supports."""
    fd = phi_star_face(mesh, face, kappa)
    rule = quadrature.simplex_rule(quad_degree)
    lam_q = rule.points
    inv_int = 6.0 / mesh.face_len[face]
    total = 0.0
    for s, sq in enumerate(fd.sides):
        e = sq.element
        grads = mesh.bary_grads(e)
        psi_mat = np.column_stack([d.psi for d in fd.element_duals[s]])
        c = -(psi_mat @ fd.gammas[s])  # corrected part is -(lam.c) b on all of T
        val, grad = _bump_eval(c, lam_q, grads)
        dens = (grad**2).sum(axis=1) + kappa**2 * val**2
        total += 2.0 * mesh.areas[e] * (rule.weights @ dens)
        # on the squeezed triangle psi_F = inv_int mu0 mu1 joins in
        g_sq = _coords_bary_grads(sq.coords)
        lam_parent = lam_q @ sq.parent_bary
        val_c, grad_c = _bump_eval(c, lam_parent, grads)
        psi_val = inv_int * lam_q[:, 0] * lam_q[:, 1]
        psi_grad = inv_int * (lam_q[:, 1, None] * g_sq[0] + lam_q[:, 0, None] * g_sq[1])
        v_full = val_c + psi_val
        g_full = grad_c + psi_grad
        dens = ((g_full**2).sum(axis=1) - (grad_c**2).sum(axis=1)
                + kappa**2 * (v_full**2 - val_c**2))
        total += 2.0 * sq.area * (rule.weights @ dens)
    return float(np.sqrt(max(total, 0.0)))
