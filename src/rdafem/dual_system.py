"""Bi-orthogonal dual functions, in array form, and the interpolation operator.

The target space of the interpolation consists of P1 volume densities per
element and line sources on interior faces.  Its dual basis is built from two
ingredients:

* element duals phi*_{z;T} = psi_z * b_T, with b_T the cubic element bubble
  and psi_z the P1 solution of int_T b_T psi_z lam_y = delta_zy; they vanish
  on the element boundary and are L2-dual to the hats inside T.  |T| psi_z
  is one constant matrix (`galerkin._PSI_UNIT`), so <f, phi*_{z;T}> is 2 (f
  at the rule's nodes on T) @ one constant (nq, 3) matrix: a row of
  `galerkin.field_rows(...).dual` for a field; a P1 density pairs to its
  own coefficients;
* face duals phi*_F = psi_F - sum_{T in w_F} sum_z gamma_{z;T} phi*_{z;T},
  where psi_F is the face bubble of the patch squeezed toward F by
  theta_T = min(1, 1/(h_T kappa)) on each side, normalized to unit face
  integral, and gamma_{z;T} = int_{T_theta} lam_z psi_F removes the element
  moments.  That integral is a cubic on the squeezed triangle T_theta, with
  the closed form theta |T| / (10 |F|) (3 - theta, 2, theta) at the corners
  (v0, v1, apex) of T, F = v0 v1; by linearity a P1 density d pairs with
  psi_F to sum_z d_z gamma_{z;T}.

Squeezing keeps the trace of psi_F on F independent of kappa while shrinking
its support to an O(1/kappa) strip, which is what makes the construction (and
everything estimated with it) robust in kappa.

The interpolation of a functional g collects its pairings with all dual
functions: cell density sum_z <g, phi*_{z;T}> lam_z, face density <g, phi*_F>.
By construction it reproduces every functional of volume+face form.

`DualSystem` is the only builder of the dual functions; the pointwise
oracle that evaluates them for the cross-checks lives in `verify`.
"""

import numpy as np

from . import quadrature
from .galerkin import PiecewiseFunctional, as_source, field_rows
from .mesh import cached_rows
from .quadrature import DEFAULT_DEGREE, node_sums


def theta_factor(h, kappa):
    """Squeeze factor min(1, 1/(h*kappa))."""
    return np.minimum(1.0, 1.0 / (np.asarray(h, dtype=float) * kappa))


def dual_faces_key(kappa, quad_degree):
    """The key of the face rows of a `DualSystem` in its mesh's cache."""
    return ("dual_faces", float(kappa), int(quad_degree))


def _apex(mesh, faces, adj):
    """Local index of the vertex opposite faces (n,) in their elements adj (n, 2)."""
    return np.argmax(mesh.elem_faces.take(adj, axis=0) == faces[:, None, None], axis=2)


# -- assembled system and the interpolation -----------------------------------


class DualSystem:
    """All dual functions of one (mesh, kappa) pair, in array form.

    Per interior face and side s in {0, 1} (lower/higher adjacent element)
    it holds the squeeze factors `thetas` (nfi, 2) and the gamma
    coefficients `gammas` (nfi, 2, 3), in closed form; the element duals
    need no array, psi is `galerkin._PSI_UNIT` / |T|.

    The system is a view: its arrays live in the mesh's cache, the view
    does not, so it holds its mesh without a reference cycle.  Every face
    row depends only on its face, the face's two elements and kappa, so the
    face rows, and the pairings of a field with the face bubbles, are
    `cached_rows` entries: on a mesh made by `bisect` only the rows of new
    faces are computed.
    """

    def __init__(self, mesh, kappa, quad_degree=DEFAULT_DEGREE):
        self.mesh = mesh
        self.kappa = float(kappa)
        self.quad_degree = int(quad_degree)
        self.iface = np.nonzero(mesh.interior_face)[0]
        self.adj = mesh.face_elems.take(self.iface, axis=0)  # (nfi, 2), lower first
        rows = cached_rows(mesh, dual_faces_key(kappa, quad_degree), "faces",
                           self._build_faces, width=6)
        self.thetas, self.gammas = rows.thetas, rows.gammas

    def _build_faces(self, new):
        """theta and gamma of the interior faces at rows `new`."""
        mesh = self.mesh
        faces = self.iface.take(new)
        adj = self.adj.take(new, axis=0)
        thetas = theta_factor(mesh.h_elem.take(adj), self.kappa)  # (nfi, 2)
        # gamma at the corners (v0, v1, apex); local vertex z is corner z - apex - 1
        scale = thetas * mesh.areas.take(adj) / (10.0 * mesh.face_len.take(faces)[:, None])
        corner = scale[..., None] * np.stack(
            [3.0 - thetas, np.full_like(thetas, 2.0), thetas], axis=-1)
        order = (np.arange(3) - _apex(mesh, faces, adj)[..., None] + 2) % 3
        return {"thetas": thetas, "gammas": np.take_along_axis(corner, order, axis=2)}

    # -- bulk pairings --

    def pair_elements(self, f):
        """<f, phi*_{z;T}> for all elements and local nodes, (ne, 3)."""
        f = as_source(self.mesh, f)
        out = np.zeros((self.mesh.n_elements, 3))
        if f.field is not None:
            out += field_rows(self.mesh, f.field, self.quad_degree).dual
        if f.piecewise is not None:
            # a P1 density pairs to its own coefficients (bi-orthogonality);
            # line sources meet the duals where they vanish
            out += f.piecewise.cell_density
        return out

    def pair_faces(self, f, elem_pairs):
        """<f, phi*_F> for all interior faces, given the element pairings."""
        f = as_source(self.mesh, f)
        out = np.zeros(len(self.iface))
        if f.field is not None:
            out += self._psi_pair_field(f.field)
        if f.piecewise is not None:
            # a P1 density d pairs with psi_F to sum_z d_z gamma_{z;T}; the
            # trace of psi_F integrates to one over F and to zero elsewhere
            out += (np.einsum("fsz,fsz->f", self.gammas,
                              f.piecewise.cell_density.take(self.adj, axis=0))
                    + f.piecewise.face_density.take(self.iface))
        out -= np.einsum("fsz,fsz->f", self.gammas, elem_pairs.take(self.adj, axis=0))
        return out

    def _psi_pair_field(self, field):
        """<field, psi_F> per interior face, by quadrature on the squeezed
        triangles; cached on the mesh per field."""
        mesh = self.mesh
        rule = quadrature.simplex_rule(self.quad_degree)
        # psi_F = mu0 mu1 / (|F|/6); a squeezed triangle's Jacobian is 2 theta |T|
        bubble_w = rule.weights * rule.points[:, 0] * rule.points[:, 1]

        def build(new):
            faces, adj, thetas = (a.take(new, 0) for a in (self.iface, self.adj, self.thetas))
            # corners (v0, v1, apex) of each side, the apex squeezed toward F
            apex = _apex(mesh, faces, adj)[..., None]
            tri = np.take_along_axis(mesh.elements.take(adj, axis=0), (apex + [1, 2, 0]) % 3, 2)
            p0, p1, pA = np.moveaxis(mesh.vertices.take(tri, axis=0), 2, 0)
            th = thetas[..., None]
            squeezed = np.stack([p0, p1, (1.0 - th) * p0 + th * pA], axis=2)
            pts = quadrature.map_points(rule, squeezed)
            fv = np.asarray(field.value(pts[..., 0], pts[..., 1]), dtype=float)
            sides = node_sums(fv, bubble_w) * (2.0 * thetas * mesh.areas.take(adj))
            return {"pairs": 6.0 / mesh.face_len.take(faces) * (sides[:, 0] + sides[:, 1])}

        # f at the squeezed points of both sides, in blocks of faces
        return cached_rows(mesh, ("psi_pairs", field, self.kappa, self.quad_degree),
                           "faces", build, width=2 * len(rule.weights)).pairs


def get_dual_system(mesh, kappa, quad_degree=DEFAULT_DEGREE):
    """The DualSystem of (mesh, kappa, quad_degree): a new view on every
    call, whose arrays are computed once per mesh and cached on it."""
    return DualSystem(mesh, kappa, quad_degree)


def project_pi(mesh, kappa, f, quad_degree=DEFAULT_DEGREE):
    """Interpolation of f onto volume+face form via the dual pairings."""
    system = get_dual_system(mesh, kappa, quad_degree)
    elem_pairs = system.pair_elements(f)
    face_pairs = system.pair_faces(f, elem_pairs)
    face_density = np.zeros(mesh.n_faces)
    face_density[system.iface] = face_pairs
    return PiecewiseFunctional(mesh, elem_pairs, face_density)
