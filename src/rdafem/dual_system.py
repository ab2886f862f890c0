"""Bi-orthogonal dual functions, in array form, and the interpolation operator.

The target space of the interpolation consists of P1 volume densities per
element and line sources on interior faces.  Its dual basis is built from two
ingredients:

* element duals phi*_{z;T} = psi_z * b_T, with b_T the cubic element bubble
  and psi_z the P1 solution of the weighted Gram system
  int_T b_T psi_z lam_y = delta_zy; they vanish on the element boundary and
  are L2-dual to the hats inside T.  |T| psi_z is the same on every element
  (`galerkin._PSI_UNIT`), so a pairing <f, phi*_{z;T}> is 2 (f at the rule's
  nodes on T) @ one constant (nq, 3) matrix: for a field it is a row of
  `galerkin.field_rows(...).dual`, for a P1 density a constant 3x3 map;
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
from .galerkin import (_PSI_UNIT, PiecewiseFunctional, SourceFunctional,
                       element_dual_weights, field_rows)
from .mesh import carry_rows
from .quadrature import DEFAULT_DEGREE

GAMMA_DEGREE = 4  # the gamma integrand on the squeezed triangle is cubic


def theta_factor(h, kappa):
    """Squeeze factor min(1, 1/(h*kappa))."""
    return np.minimum(1.0, 1.0 / (np.asarray(h, dtype=float) * kappa))


# -- assembled system and the interpolation -----------------------------------


def _parts(f):
    """(field, field weight, piecewise part) of a functional; absent parts
    are None."""
    if isinstance(f, SourceFunctional):
        return f.field, f.field_weight, f.piecewise
    if isinstance(f, PiecewiseFunctional):
        return None, 1.0, f
    return f, 1.0, None


class DualSystem:
    """All dual functions of one (mesh, kappa) pair, in array form.

    psi[e] = _PSI_UNIT / |T_e| holds the P1 coefficients of psi_z on
    element e, in closed form.  Interior-face data is stored per side s in
    {0, 1} (lower/higher adjacent element): squeeze factors, squeezed vertex
    coordinates, barycentric coordinates of the squeezed vertices in the
    parent element, and the gamma coefficients.

    Every face row depends only on its face, the face's two elements and
    kappa.  On a mesh made by `bisect` the rows of kept faces are therefore
    taken from the parent mesh's cached system, while that mesh is alive,
    and only the new rows are computed; `n_new_faces` counts them and
    `n_new_elements` the elements without a row in that system.  The same
    holds for the pairings of a field with the face bubbles, which are
    cached per field.

    The system holds its mesh weakly: `get_dual_system` caches it on the
    mesh, and a strong reference back would make a cycle that only the
    cyclic garbage collector frees, keeping finished meshes alive.
    """

    def __init__(self, mesh, kappa, quad_degree=DEFAULT_DEGREE):
        self._mesh = weakref.ref(mesh)
        self.kappa = float(kappa)
        self.quad_degree = int(quad_degree)
        self.key = _system_key(kappa, quad_degree)
        self.iface = np.nonzero(mesh.interior_face)[0]
        self.face_pos = np.full(mesh.n_faces, -1, dtype=np.int64)
        self.face_pos[self.iface] = np.arange(len(self.iface))
        self.adj = mesh.face_elems[self.iface]  # (nfi, 2), lower first
        old, sources = mesh.inherited(self.key)
        self.psi = _PSI_UNIT / mesh.areas[:, None, None]
        self.n_new_elements = int((sources < 0).sum())
        self._face_sources = self._faces_in(old)
        self._build_faces(old)
        # field -> its pairings with the face bubbles psi_F, (nfi,)
        self._face_pairs = {}

    @property
    def mesh(self):
        mesh = self._mesh()
        if mesh is None:
            raise ReferenceError("the mesh of this DualSystem has been freed")
        return mesh

    def _faces_in(self, old):
        """Row in the arrays of `old`, the parent mesh's system, of each
        interior face bisection kept; -1 for a new face, and for every face
        when old is None."""
        sources = np.full(len(self.iface), -1, dtype=np.int64)
        if old is not None:
            parent = self.mesh.parent_faces[self.iface]
            kept = parent >= 0
            sources[kept] = old.face_pos[parent[kept]]
        return sources

    def _build_faces(self, old):
        mesh = self.mesh
        sources = self._face_sources
        new = np.nonzero(sources < 0)[0]
        nfi = len(new)
        faces = self.iface[new]
        adj = self.adj[new]
        thetas = theta_factor(mesh.h_elem[adj], self.kappa)  # (nfi, 2)

        # local index of the face inside each adjacent element (apex index)
        apex = np.argmax(mesh.elem_faces[adj] == faces[:, None, None], axis=2)
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
        th = thetas[..., None]
        sq_coords = np.stack([p0, p1, (1.0 - th) * p0 + th * pA], axis=2)

        parent_bary = np.zeros((nfi, 2, 3, 3))
        s_idx = np.broadcast_to(np.arange(2)[None, :], (nfi, 2))
        f_idx = np.broadcast_to(take, (nfi, 2))
        parent_bary[f_idx, s_idx, 0, v0_loc] = 1.0
        parent_bary[f_idx, s_idx, 1, v1_loc] = 1.0
        parent_bary[f_idx, s_idx, 2, v0_loc] = 1.0 - thetas
        parent_bary[f_idx, s_idx, 2, apex] = thetas

        rule = quadrature.simplex_rule(GAMMA_DEGREE)
        mu = rule.points
        bubble = mu[:, 0] * mu[:, 1]
        inv_int = 6.0 / mesh.face_len[faces]  # 1 / (|F|/6)
        lam_parent = quadrature.map_points(rule, parent_bary)  # (nfi, 2, nq, 3)
        jac = 2.0 * thetas * mesh.areas[adj]  # (nfi, 2)
        gammas = inv_int[:, None, None] * jac[:, :, None] * (
            (rule.weights * bubble) @ lam_parent)

        for name, rows in (("thetas", thetas), ("sq_coords", sq_coords),
                           ("parent_bary", parent_bary), ("gammas", gammas)):
            setattr(self, name, carry_rows(None if old is None else getattr(old, name),
                                           sources, rows))
        self.n_new_faces = nfi

    def _pair_bubble(self, fv, rows):
        """Quadrature of node values fv (n, 2, nq) on the squeezed triangles
        against psi_F, on the interior-face rows `rows`, (n,)."""
        mesh = self.mesh
        rule = quadrature.simplex_rule(self.quad_degree)
        bubble_w = rule.weights * rule.points[:, 0] * rule.points[:, 1]
        inv_int = 6.0 / mesh.face_len[self.iface[rows]]  # 1 / (|F|/6)
        jac = 2.0 * self.thetas[rows] * mesh.areas[self.adj[rows]]
        return inv_int * ((fv @ bubble_w) * jac).sum(axis=1)

    # -- bulk pairings --

    def pair_elements(self, f):
        """<f, phi*_{z;T}> for all elements and local nodes, (ne, 3)."""
        field, weight, piecewise = _parts(f)
        out = np.zeros((self.mesh.n_elements, 3))
        if field is not None:
            out += weight * field_rows(self.mesh, field, self.quad_degree).dual
        if piecewise is not None:
            # a P1 density d pairs to d @ one constant 3x3 map, the identity
            # up to rounding for rules of degree 5 and up; face line sources
            # contribute nothing, the element duals vanish on element
            # boundaries
            rule = quadrature.simplex_rule(self.quad_degree)
            out += piecewise.cell_density @ (2.0 * rule.points.T @ element_dual_weights(rule))
        return out

    def pair_faces(self, f, elem_pairs):
        """<f, phi*_F> for all interior faces, given the element pairings."""
        field, weight, piecewise = _parts(f)
        out = np.zeros(len(self.iface))
        if field is not None:
            out += weight * self._psi_pair_field(field)
        if piecewise is not None:
            out += self._psi_pair_density(piecewise)
        out -= np.einsum("fsz,fsz->f", self.gammas, elem_pairs[self.adj])
        return out

    def _psi_pair_field(self, field):
        """<field, psi_F> per interior face, cached per field: the rows of
        kept faces come from the parent mesh's system while it has them."""
        if field not in self._face_pairs:
            old = self.mesh.inherited(self.key)[0]
            old_rows = None if old is None else old._face_pairs.get(field)
            sources = self._face_sources if old_rows is not None else np.full_like(
                self._face_sources, -1)
            new = np.nonzero(sources < 0)[0]
            rule = quadrature.simplex_rule(self.quad_degree)
            pts = quadrature.map_points(rule, self.sq_coords[new])
            fv = np.asarray(field.value(pts[..., 0], pts[..., 1]), dtype=float)
            rows = carry_rows(old_rows, sources, self._pair_bubble(fv, new))
            rows.setflags(write=False)
            self._face_pairs[field] = rows
        return self._face_pairs[field]

    def _psi_pair_density(self, g):
        rule = quadrature.simplex_rule(self.quad_degree)
        lam_parent = quadrature.map_points(rule, self.parent_bary)
        dens = g.cell_density[self.adj]  # (nfi, 2, 3)
        fv = (lam_parent @ dens[..., None])[..., 0]  # (nfi, 2, nq)
        out = self._pair_bubble(fv, slice(None))
        # the trace of psi_F integrates to exactly one over its own face and
        # vanishes on every other face of the patch
        out += g.face_density[self.iface]
        return out


def _system_key(kappa, quad_degree=DEFAULT_DEGREE):
    """The key of a DualSystem in its mesh's cache."""
    return ("dual_system", float(kappa), int(quad_degree))


def get_dual_system(mesh, kappa, quad_degree=DEFAULT_DEGREE):
    """Cached DualSystem per (mesh, kappa, quad_degree).

    The cache lives on the mesh and its systems hold the mesh only weakly,
    so the cache goes with the mesh as soon as the last reference to it does.
    """
    key = _system_key(kappa, quad_degree)
    if key not in mesh.cache:
        mesh.cache[key] = DualSystem(mesh, kappa, quad_degree)
    return mesh.cache[key]


def project_pi(mesh, kappa, f, quad_degree=DEFAULT_DEGREE):
    """Interpolation of f onto volume+face form via the dual pairings."""
    system = get_dual_system(mesh, kappa, quad_degree)
    elem_pairs = system.pair_elements(f)
    face_pairs = system.pair_faces(f, elem_pairs)
    face_density = np.zeros(mesh.n_faces)
    face_density[system.iface] = face_pairs
    return PiecewiseFunctional(mesh, elem_pairs, face_density)

