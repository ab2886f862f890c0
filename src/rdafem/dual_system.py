"""Bi-orthogonal dual functions, in array form, and the interpolation operator.

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

`DualSystem` is the only builder of the dual functions; the pointwise
oracle that evaluates them for the cross-checks lives in `verify`.
"""

import weakref

import numpy as np

from . import quadrature
from .galerkin import PiecewiseFunctional, SourceFunctional
from .quadrature import DEFAULT_DEGREE

GAMMA_DEGREE = 4  # the gamma integrand on the squeezed triangle is cubic


def theta_factor(h, kappa):
    """Squeeze factor min(1, 1/(h*kappa))."""
    return np.minimum(1.0, 1.0 / (np.asarray(h, dtype=float) * kappa))


# -- assembled system and the interpolation -----------------------------------


class DualSystem:
    """All dual functions of one (mesh, kappa) pair, in array form.

    psi[e, z] are the P1 coefficients of psi_z on element e.  Interior-face
    data is stored per side s in {0, 1} (lower/higher adjacent element):
    squeeze factors, squeezed vertex coordinates, barycentric coordinates of
    the squeezed vertices in the parent element, and the gamma coefficients.

    The system holds its mesh weakly: `get_dual_system` caches it on the
    mesh, and a strong reference back would make a cycle that only the
    cyclic garbage collector frees, keeping finished meshes alive.
    """

    def __init__(self, mesh, kappa, quad_degree=DEFAULT_DEGREE):
        self._mesh = weakref.ref(mesh)
        self.kappa = float(kappa)
        self.quad_degree = int(quad_degree)
        self._build_elements()
        self._build_faces()

    @property
    def mesh(self):
        mesh = self._mesh()
        if mesh is None:
            raise ReferenceError("the mesh of this DualSystem has been freed")
        return mesh

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
        lam_parent = quadrature.map_points(rule, self.parent_bary)  # (nfi, 2, nq, 3)
        jac = 2.0 * self.thetas * mesh.areas[adj]  # (nfi, 2)
        self.gammas = inv_int[:, None, None] * jac[:, :, None] * (
            (rule.weights * bubble) @ lam_parent)

    # -- bulk pairings --

    def pair_elements(self, f):
        """<f, phi*_{z;T}> for all elements and local nodes, (ne, 3)."""
        mesh = self.mesh
        rule = quadrature.simplex_rule(self.quad_degree)
        # psi_z times the element bubble at the nodes, (ne, nq, 3)
        psib = quadrature.map_points(rule, self.psi) * rule.points.prod(axis=1)[:, None]
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
        pts = quadrature.map_points(rule, mesh.vertices[mesh.elements])
        fv = np.asarray(field.value(pts[..., 0], pts[..., 1]), dtype=float)
        return self._pair_psib(fv, rule, psib)

    def _pair_elements_density(self, g, rule, psib):
        # face line sources contribute nothing here: the element duals vanish
        # identically on element boundaries
        return self._pair_psib(g.cell_density @ rule.points.T, rule, psib)

    def _pair_psib(self, fv, rule, psib):
        """Quadrature of node values fv (ne, nq) against psi_z b_T, (ne, 3)."""
        weighted = (fv * rule.weights)[:, None, :]
        return 2.0 * self.mesh.areas[:, None] * (weighted @ psib)[:, 0, :]

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
                out += f.field_weight * self._psi_pair_field(f.field, rule, bubble_w,
                                                             inv_int, jac)
            if f.piecewise is not None:
                out += self._psi_pair_density(f.piecewise, rule, bubble_w, inv_int, jac)
        elif isinstance(f, PiecewiseFunctional):
            out += self._psi_pair_density(f, rule, bubble_w, inv_int, jac)
        else:
            out += self._psi_pair_field(f, rule, bubble_w, inv_int, jac)
        out -= np.einsum("fsz,fsz->f", self.gammas, elem_pairs[self.adj])
        return out

    def _psi_pair_field(self, field, rule, bubble_w, inv_int, jac):
        pts = quadrature.map_points(rule, self.sq_coords)
        fv = np.asarray(field.value(pts[..., 0], pts[..., 1]), dtype=float)
        return inv_int * ((fv @ bubble_w) * jac).sum(axis=1)

    def _psi_pair_density(self, g, rule, bubble_w, inv_int, jac):
        lam_parent = quadrature.map_points(rule, self.parent_bary)
        dens = g.cell_density[self.adj]  # (nfi, 2, 3)
        fv = (lam_parent @ dens[..., None])[..., 0]  # (nfi, 2, nq)
        out = inv_int * ((fv @ bubble_w) * jac).sum(axis=1)
        # the trace of psi_F integrates to exactly one over its own face and
        # vanishes on every other face of the patch
        out += g.face_density[self.iface]
        return out


def get_dual_system(mesh, kappa, quad_degree=DEFAULT_DEGREE):
    """Cached DualSystem per (mesh, kappa, quad_degree).

    The cache lives on the mesh and its systems hold the mesh only weakly,
    so the cache goes with the mesh as soon as the last reference to it does.
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

