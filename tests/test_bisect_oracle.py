"""The array-op bisection and topology build against per-element loops.

The oracle below is the loop form of `mesh.bisect` and of the face topology
build that the array form replaced.  It is kept here, apart from the
production path, as the reference: both must give the same meshes, array
for array, on the corpus and along a random newest-vertex bisection chain.
"""

import pathlib

import numpy as np
import pytest

from rdafem.mesh import (Mesh, MeshError, bisect, l_shape, load_mesh,
                         unit_square_2tri, unit_square_crisscross)

from oracles import shape_metric

REPO = pathlib.Path(__file__).resolve().parent.parent


class LoopTopologyMesh(Mesh):
    """Mesh whose faces come from np.unique and a per-face owner loop."""

    def _build_topology(self):
        elements = self.elements
        ne = len(elements)
        pairs = elements[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2)
        faces, inverse = np.unique(np.sort(pairs, axis=1), axis=0,
                                   return_inverse=True)
        inverse = inverse.reshape(-1)
        self.faces = faces
        self.elem_faces = inverse.reshape(ne, 3)
        counts = np.bincount(inverse, minlength=len(faces))
        if counts.max(initial=0) > 2:
            f = int(np.argmax(counts))
            raise MeshError(
                f"face {tuple(faces[f])} shared by {counts[f]} elements (non-conforming)"
            )
        owner = np.argsort(inverse, kind="stable") // 3
        face_elems = np.full((len(faces), 2), -1, dtype=np.int64)
        starts = np.zeros(len(faces) + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        for f in range(len(faces)):
            adj = np.sort(owner[starts[f]:starts[f + 1]])
            face_elems[f, :len(adj)] = adj
        self.face_elems = face_elems
        self.interior_face = counts == 2
        self.boundary_vertex = np.zeros(len(self.vertices), dtype=bool)
        self.boundary_vertex[faces[~self.interior_face].ravel()] = True
        flat = elements.ravel()
        self.vertex_slots = np.argsort(flat, kind="stable")
        self.vertex_starts = np.zeros(len(self.vertices) + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=len(self.vertices)),
                  out=self.vertex_starts[1:])


def loop_bisect(mesh, marked_elements):
    """Newest-vertex bisection, children appended element by element."""
    ef = mesh.elem_faces
    marked_face = np.zeros(mesh.n_faces, dtype=bool)
    marked_face[ef[marked_elements, 2]] = True
    while True:
        need = marked_face[ef].any(axis=1) & ~marked_face[ef[:, 2]]
        if not need.any():
            break
        marked_face[ef[need, 2]] = True
    face_ids = np.nonzero(marked_face)[0]
    midpoint_of = np.full(mesh.n_faces, -1, dtype=np.int64)
    midpoint_of[face_ids] = mesh.n_vertices + np.arange(len(face_ids))
    new_coords = 0.5 * (mesh.vertices[mesh.faces[face_ids, 0]]
                        + mesh.vertices[mesh.faces[face_ids, 1]])
    children = []
    parent_elements = []  # the parent of a kept element, -1 for a new one
    for e in range(mesh.n_elements):
        v0, v1, v2 = mesh.elements[e]
        m2 = midpoint_of[ef[e, 2]]
        if m2 < 0:
            children.append((v0, v1, v2))
            parent_elements.append(e)
            continue
        m0 = midpoint_of[ef[e, 0]]
        m1 = midpoint_of[ef[e, 1]]
        if m1 < 0:
            children.append((v2, v0, m2))
        else:
            children.append((m2, v2, m1))
            children.append((v0, m2, m1))
        if m0 < 0:
            children.append((v1, v2, m2))
        else:
            children.append((m2, v1, m0))
            children.append((v2, m2, m0))
        parent_elements += [-1] * (len(children) - len(parent_elements))
    out = LoopTopologyMesh(np.vstack([mesh.vertices, new_coords]),
                           np.asarray(children, dtype=np.int64),
                           ref_edge_policy="asis")
    out.new_vertex_parents = mesh.faces[face_ids].copy()
    out.parent_elements = np.array(parent_elements, dtype=np.int64)
    return out


def assert_parent_maps(child, parent):
    """The child's element and face maps name parent rows with the same
    triples and, for faces, the same vertex pair and adjacent elements."""
    pe = child.parent_elements
    kept = np.nonzero(pe >= 0)[0]
    assert np.array_equal(child.elements[kept], parent.elements[pe[kept]])
    # every kept parent appears once, in order; the new children are exactly
    # those of the refined parents
    assert np.all(np.diff(pe[kept]) > 0)
    refined = np.setdiff1d(np.arange(parent.n_elements), pe[kept])
    assert 2 * len(refined) <= (pe < 0).sum() <= 4 * len(refined)
    parent_face = {tuple(f): i for i, f in enumerate(parent.faces.tolist())}
    for f, (face, adj) in enumerate(zip(child.faces.tolist(), child.face_elems.tolist())):
        adj = [e for e in adj if e >= 0]
        if all(pe[e] >= 0 for e in adj):
            want = parent_face[tuple(face)]
            assert child.parent_faces[f] == want
            assert parent.face_elems[want].tolist() == (
                [pe[e] for e in adj] + [-1] * (2 - len(adj)))
        else:
            assert child.parent_faces[f] == -1


ARRAYS = ("elements", "vertices", "faces", "face_elems", "elem_faces",
          "normals", "vertex_slots", "vertex_starts", "interior_face",
          "boundary_vertex")


def assert_same_mesh(got, want):
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    if hasattr(want, "new_vertex_parents"):
        assert np.array_equal(got.new_vertex_parents, want.new_vertex_parents)
    if want.parent_elements is not None:
        assert np.array_equal(got.parent_elements, want.parent_elements)


def corpus():
    return {
        "square2": unit_square_2tri(),
        "crisscross": unit_square_crisscross(),
        "lshape": l_shape(),
        "square_64": load_mesh(str(REPO / "meshes" / "square_64.msh")),
        "lshape_24": load_mesh(str(REPO / "meshes" / "lshape_24.msh")),
    }


@pytest.mark.parametrize("name", sorted(corpus()))
def test_bisect_matches_loop_oracle(name):
    mesh = corpus()[name]
    oracle = LoopTopologyMesh(mesh.vertices, mesh.elements, ref_edge_policy="asis")
    assert_same_mesh(mesh, oracle)
    rng = np.random.default_rng(sum(map(ord, name)))
    for marks in (np.arange(mesh.n_elements), np.array([0]), np.array([], dtype=int),
                  rng.choice(mesh.n_elements, mesh.n_elements // 3 + 1, replace=False)):
        child = bisect(mesh, marks)
        assert_same_mesh(child, loop_bisect(oracle, marks))
        assert_parent_maps(child, mesh)
    for _ in range(3):
        marks = rng.choice(mesh.n_elements, mesh.n_elements // 4 + 1, replace=False)
        child, oracle = bisect(mesh, marks), loop_bisect(oracle, marks)
        assert_same_mesh(child, oracle)
        assert_parent_maps(child, mesh)
        mesh = child


def test_random_nvb_chain_matches_oracle_and_keeps_shape():
    mesh = unit_square_crisscross()
    oracle = LoopTopologyMesh(mesh.vertices, mesh.elements, ref_edge_policy="asis")
    rng = np.random.default_rng(20110)
    shapes = [shape_metric(mesh)]
    for _ in range(30):
        marks = rng.choice(mesh.n_elements, max(1, mesh.n_elements // 10),
                           replace=False)
        child, oracle = bisect(mesh, marks), loop_bisect(oracle, marks)
        assert_same_mesh(child, oracle)
        assert_parent_maps(child, mesh)
        mesh = child
        shapes.append(shape_metric(mesh))
    mesh.audit()
    assert mesh.n_elements > 500
    # newest-vertex bisection of right isosceles triangles only ever makes
    # right isosceles triangles (Stevenson, Math. Comp. 77, 2008)
    assert np.allclose(shapes, shapes[0], rtol=1e-12)
