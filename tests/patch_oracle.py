"""Red-refined patch spaces built one patch at a time: the test oracle.

`PatchSpace` numbers the sub-vertices of a patch through a Python dict and
assembles the refined operator triangle by triangle from physical
coordinates.  It shares only the template refinement (barycentrics and
sub-triangles) with the batched engine in `rdafem.estimator` and classifies
the template vertices itself, so the tests use it as an independent
cross-check of the star and global dual norms.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rdafem import quadrature
from rdafem.estimator import _DENSE_MAX, _template
from rdafem.mesh import bary_grads, signed_areas
from rdafem.quadrature import DEFAULT_DEGREE


def classify(tpl):
    """Per template vertex its corner (-1: none), its face (-1: none) and its
    parameter along that face toward the face's local endpoint i+2, and per
    face i the sub-edges on it; barycentric entries are exact dyadic
    rationals."""
    corner_of = np.full(len(tpl.bary), -1, dtype=np.int64)
    face_of = np.full(len(tpl.bary), -1, dtype=np.int64)
    face_param = np.zeros(len(tpl.bary))
    for v, lam in enumerate(tpl.bary):
        zero = np.nonzero(lam == 0.0)[0]
        if len(zero) == 2:
            corner_of[v] = int(np.nonzero(lam == 1.0)[0][0])
        elif len(zero) == 1:
            i = int(zero[0])
            face_of[v] = i
            face_param[v] = lam[(i + 2) % 3]
    edges = np.sort(tpl.tris[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
    edges = np.unique(edges, axis=0)
    face_edges = [edges[(tpl.bary[edges[:, 0], i] == 0.0) & (tpl.bary[edges[:, 1], i] == 0.0)]
                  for i in range(3)]
    return corner_of, face_of, face_param, face_edges


class PatchSpace:
    """P1 space with zero boundary values on a red-refined element patch.

    Sub-vertices shared between parent elements are identified topologically
    (by parent vertex, or by face id and the exact dyadic parameter along the
    face), never by coordinate lookup.
    """

    def __init__(self, mesh, elements, depth):
        self.mesh = mesh
        self.parents = np.asarray(elements, dtype=np.int64)
        self.depth = int(depth)
        tpl = _template(self.depth)
        self.tpl = tpl
        corner_of, face_of, face_param, self.face_edges = classify(tpl)
        npar = len(self.parents)
        ntv = len(tpl.bary)

        index = {}
        coords = []
        vert_map = np.empty((npar, ntv), dtype=np.int64)
        for p, e in enumerate(self.parents):
            tri = mesh.elements[e]
            efaces = mesh.elem_faces[e]
            phys = tpl.bary @ mesh.vertices[tri]
            for tv in range(ntv):
                i = corner_of[tv]
                if i >= 0:
                    key = ("v", int(tri[i]))
                else:
                    i = face_of[tv]
                    if i >= 0:
                        a, b = int(tri[(i + 1) % 3]), int(tri[(i + 2) % 3])
                        t = float(face_param[tv])  # parameter toward b
                        if a > b:
                            t = 1.0 - t
                        key = ("f", int(efaces[i]), t)
                    else:
                        key = ("e", p, tv)
                g = index.get(key)
                if g is None:
                    g = len(coords)
                    index[key] = g
                    coords.append(phys[tv])
                vert_map[p, tv] = g
        self.coords = np.array(coords)
        self.vert_map = vert_map
        self.tris = vert_map[:, tpl.tris].reshape(-1, 3)
        self.tri_parent = np.repeat(self.parents, len(tpl.tris))

        p = self.coords[self.tris]
        self.areas = signed_areas(p)
        self.grads = bary_grads(p)

        pairs = np.sort(self.tris[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2), axis=1)
        uniq, counts = np.unique(pairs, axis=0, return_counts=True)
        boundary = np.zeros(len(self.coords), dtype=bool)
        boundary[uniq[counts == 1].ravel()] = True
        self.free = np.nonzero(~boundary)[0]

    def operator(self, kappa):
        """Stiffness + kappa^2 mass over all patch vertices (CSR)."""
        local = (np.einsum("eix,ejx->eij", self.grads, self.grads)
                 * self.areas[:, None, None])
        local += kappa**2 * (np.ones((3, 3)) + np.eye(3))[None] * (
            self.areas / 12.0)[:, None, None]
        rows = np.repeat(self.tris, 3, axis=1).ravel()
        cols = np.tile(self.tris, (1, 3)).ravel()
        n = len(self.coords)
        return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()

    def load(self, g, quad_degree=DEFAULT_DEGREE):
        """<g, hat> for every patch vertex; g is a SourceFunctional."""
        out = np.zeros(len(self.coords))
        if g.field is not None:
            rule = quadrature.simplex_rule(quad_degree)
            pts = quadrature.map_points(rule, self.coords[self.tris])
            fv = np.asarray(g.field.value(pts[..., 0], pts[..., 1]), dtype=float)
            contrib = 2.0 * self.areas[:, None] * ((fv * rule.weights) @ rule.points)
            np.add.at(out, self.tris, contrib)
        if g.piecewise is not None:
            self._load_piecewise(g.piecewise, out)
        return out

    def _load_piecewise(self, g, out):
        tpl = self.tpl
        # volume densities: value of the parent P1 density at each sub-vertex
        dens_at = np.einsum("pz,vz->pv", g.cell_density[self.parents], tpl.bary)
        vals = dens_at[:, tpl.tris].reshape(-1, 3)  # per sub-tri vertex
        contrib = (self.areas[:, None] / 12.0) * (vals + vals.sum(axis=1, keepdims=True))
        np.add.at(out, self.tris, contrib)
        # face line sources: every mesh face of the patch is visited once
        seen = {}
        for p, e in enumerate(self.parents):
            for i, face in enumerate(self.mesh.elem_faces[e]):
                if g.face_density[face] != 0.0 and int(face) not in seen:
                    seen[int(face)] = (p, i)
        for face, (p, i) in seen.items():
            c = g.face_density[face]
            sub_len = self.mesh.face_len[face] / 2**self.depth
            ids = self.vert_map[p, self.face_edges[i]]
            np.add.at(out, ids.ravel(), 0.5 * c * sub_len)

    def dual_norm(self, g, kappa, quad_degree=DEFAULT_DEGREE):
        """Energy norm of the Riesz representative of g in the patch space."""
        free = self.free
        if len(free) == 0:
            return 0.0
        A = self.operator(kappa)[free][:, free].tocsc()
        b = self.load(g, quad_degree)[free]
        if len(free) <= _DENSE_MAX:
            w = np.linalg.solve(A.toarray(), b)
        else:
            w = spla.spsolve(A, b)
        return float(np.sqrt(max(w @ (A @ w), 0.0)))
