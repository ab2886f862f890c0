import numpy as np
import pytest

from rdafem import mesh as mesh_mod
from rdafem.dual_system import get_dual_system
from rdafem.mesh import (Mesh, MeshError, bary_grads, bisect, l_shape, load_mesh,
                         save_mesh, signed_areas, uniform_refine, unit_square_2tri,
                         unit_square_crisscross)
from rdafem.verify import FaceDualFunction

from oracles import shape_metric


def test_square2_topology():
    m = unit_square_2tri()
    assert m.n_vertices == 4 and m.n_elements == 2
    assert m.n_faces == 5
    assert m.interior_face.sum() == 1
    assert m.boundary_vertex.all()
    assert np.isclose(m.areas.sum(), 1.0)


def test_crisscross_topology():
    m = unit_square_crisscross()
    assert m.n_vertices == 5 and m.n_elements == 4
    assert m.interior_face.sum() == 4
    assert list(m.free_vertices()) == [4]
    assert len(m.star(4)) == 4
    assert not m.boundary_vertex[4]
    assert m.boundary_vertex[0]


def test_construction_errors_name_the_element():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for elements in ([[0, 1, 2], [0, 2, 4]], [[0, 1, 2], [-1, 2, 3]]):
        with pytest.raises(MeshError, match=r"^element 1 references a vertex out of range$"):
            Mesh(vertices, elements)
    with pytest.raises(MeshError, match=r"^element 1 is not counter-clockwise$"):
        Mesh(vertices, [[0, 1, 2], [0, 3, 2]])


def test_every_mesh_array_is_read_only(tmp_path):
    # rows carried across bisection are built from these arrays
    path = tmp_path / "square.msh"
    save_mesh(uniform_refine(unit_square_crisscross(), 1), str(path))
    built = unit_square_crisscross()
    for m in (built, load_mesh(str(path)), bisect(built, [0])):
        m.normals  # the face geometry is built on first read
        arrays = {name: a for name, a in vars(m).items() if isinstance(a, np.ndarray)}
        assert {"interior_face", "boundary_vertex", "h_elem", "h_face",
                "face_len"} <= arrays.keys()
        assert [name for name, a in arrays.items() if a.flags.writeable] == []
    assert "new_vertex_parents" in vars(m)


def test_lshape_topology():
    m = l_shape()
    assert m.n_elements == 6
    assert np.isclose(m.areas.sum(), 3.0)
    m.audit()


def test_refinement_edge_is_longest():
    for m in (unit_square_2tri(), l_shape(), uniform_refine(l_shape(), 1)):
        coords = m.vertices[m.elements]
        lengths = np.linalg.norm(coords[:, [1, 2, 0]] - coords[:, [0, 1, 2]],
                                 axis=2)
        assert np.all(lengths[:, 0] >= lengths[:, 1] - 1e-14)
        assert np.all(lengths[:, 0] >= lengths[:, 2] - 1e-14)


def test_normals_unit_and_outward_of_first_element():
    m = uniform_refine(unit_square_2tri(), 2)
    assert np.allclose(np.linalg.norm(m.normals, axis=1), 1.0, atol=1e-14)
    centroids = m.vertices[m.elements].mean(axis=1)
    for f in np.nonzero(m.interior_face)[0]:
        lo, hi = m.face_elems[f]
        d = centroids[hi] - centroids[lo]
        assert m.normals[f] @ d > 0


def test_bary_grads_partition_and_duality():
    m = l_shape()
    for e in range(m.n_elements):
        grads = bary_grads(m.element_coords(e))
        assert np.allclose(grads.sum(axis=0), 0.0, atol=1e-13)
        coords = m.element_coords(e)
        # lam_i affine with lam_i(v_j) = delta_ij fixes the gradient
        for i in range(3):
            for j in range(3):
                lam_j_at = 1.0 if i == j else 0.0
                base = coords[0]
                lam_j_base = 1.0 if j == 0 else 0.0
                val = lam_j_base + grads[j] @ (coords[i] - base)
                assert np.isclose(val, lam_j_at, atol=1e-12)


def test_barycentric_roundtrip():
    m = l_shape()
    rng = np.random.default_rng(5)
    lam = rng.dirichlet(np.ones(3), size=7)
    for e in (0, 3):
        pts = lam @ m.element_coords(e)
        back = m.barycentric(e, pts)
        assert np.allclose(back, lam, atol=1e-13)


def test_bisect_closure_counts():
    m = unit_square_2tri()
    r = bisect(m, np.array([0]))
    # the diagonal is both elements' refinement edge: closure splits the pair
    assert r.n_vertices == 5 and r.n_elements == 4
    assert sorted(map(sorted, r.elements.tolist())) == sorted(
        map(sorted, [[1, 2, 4], [0, 1, 4], [3, 0, 4], [2, 3, 4]]))
    r.audit()


def test_bisect_marks_all_doubles():
    m = uniform_refine(unit_square_2tri(), 2)
    r = bisect(m, np.arange(m.n_elements))
    assert r.n_elements == 2 * m.n_elements
    r.audit()


def test_bisect_tracks_new_vertex_parents():
    m = uniform_refine(unit_square_2tri(), 1)
    r = bisect(m, np.array([1, 2]))
    assert r.n_parent_vertices == m.n_vertices
    parents = r.new_vertex_parents
    mids = r.vertices[m.n_vertices:]
    assert np.allclose(mids, m.vertices[parents].mean(axis=1), atol=1e-15)


def test_bisect_rejects_bad_marks():
    m = unit_square_2tri()
    with pytest.raises(MeshError):
        bisect(m, np.array([7]))


def test_bisect_refuses_a_boolean_mask():
    # cast to int64, a mask marking only the last element would mark 0 and 1
    m = uniform_refine(l_shape(), 1)
    mask = np.zeros(m.n_elements, dtype=bool)
    mask[-1] = True
    with pytest.raises(TypeError, match=r"indices.*np\.flatnonzero\(mask\)"):
        bisect(m, mask)
    assert np.array_equal(bisect(m, np.flatnonzero(mask)).elements,
                          bisect(m, [m.n_elements - 1]).elements)


@pytest.mark.parametrize("marked", [[2.9], np.array([0.7]), ["1"], [np.nan]],
                         ids=["float", "float-array", "string", "nan"])
def test_bisect_refuses_indices_that_are_not_integers(marked):
    # cast to int64, 2.9 would mark element 2 and '1' element 1
    m = uniform_refine(l_shape(), 1)
    with pytest.raises(TypeError, match=f"integers, got dtype {np.asarray(marked).dtype}$"):
        bisect(m, marked)
    assert bisect(m, []).n_elements == m.n_elements


def test_uniform_refine_keeps_shape():
    m = unit_square_2tri()
    fine = uniform_refine(m, 4)
    assert fine.n_elements == 2 * 2**4
    assert np.isclose(shape_metric(fine), shape_metric(m), rtol=1e-12)
    assert np.isclose(fine.areas.sum(), 1.0, rtol=1e-13)
    fine.audit()


def test_two_sweeps_halve_h():
    m = uniform_refine(unit_square_2tri(), 2)
    mm = uniform_refine(m, 2)
    assert np.isclose(mm.h_elem.max(), 0.5 * m.h_elem.max(), rtol=1e-13)


def test_constructor_rejects_clockwise():
    with pytest.raises(MeshError, match="element 0"):
        Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             np.array([[0, 2, 1]]))


def test_audit_catches_hanging_vertex():
    # two fine triangles meet one coarse triangle along a once-split edge
    m = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0],
                       [0.5, 0.0], [0.5, -0.5]]),
             np.array([[0, 4, 2], [4, 1, 2], [0, 2, 3], [1, 0, 5]]),
             ref_edge_policy="asis")
    with pytest.raises(MeshError, match=r"^vertex 4 hangs on face \(0, 1\)$"):
        m.audit()
    # three vertices hang on the coarse face (0, 1), numbered above other
    # boundary vertices and not in order along it: the lowest one is named
    m = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, -0.5], [0.5, 0.5],
                       [0.0, 1.0], [0.75, 0.0], [0.25, 0.0], [0.5, 0.0]]),
             np.array([[1, 0, 2], [0, 6, 3], [6, 7, 3], [7, 5, 3], [5, 1, 3],
                       [0, 3, 4]]),
             ref_edge_policy="asis")
    with pytest.raises(MeshError, match=r"^vertex 5 hangs on face \(0, 1\)$"):
        m.audit()


def test_audit_catches_duplicate_element():
    m = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             np.array([[0, 1, 2], [0, 1, 2]]), ref_edge_policy="asis")
    with pytest.raises(MeshError, match="duplicate"):
        m.audit()


def test_constructor_rejects_face_shared_by_three_elements():
    # two triangles above the face (0, 1), one below it
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    with pytest.raises(MeshError, match=r"^face \(0, 1\) shared by 3 elements "
                                        r"\(non-conforming\)$"):
        Mesh(vertices, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]), ref_edge_policy="asis")


def test_audit_catches_unused_vertex():
    m = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]),
             np.array([[0, 1, 2]]))
    with pytest.raises(MeshError, match=r"^vertex 3 not used by any element$"):
        m.audit()


def test_audit_catches_open_boundary():
    # two triangles that touch at vertex 0 only: four boundary faces meet there
    m = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [-1.0, 0.0], [-1.0, -1.0]]),
             np.array([[0, 1, 2], [0, 3, 4]]))
    with pytest.raises(MeshError, match=r"^boundary around vertex 0 does not close$"):
        m.audit()


def test_save_load_roundtrip(tmp_path):
    m = uniform_refine(l_shape(), 1)
    path = tmp_path / "mesh.msh"
    save_mesh(m, str(path))
    back = load_mesh(str(path))
    assert np.array_equal(back.vertices, m.vertices)
    assert np.array_equal(back.elements, m.elements)


def test_load_mesh_error_messages(tmp_path):
    missing = tmp_path / "missing.msh"
    with pytest.raises(MeshError, match=str(missing)):
        load_mesh(str(missing))

    bad_header = tmp_path / "hdr.msh"
    bad_header.write_text("x y\n")
    with pytest.raises(MeshError, match="header"):
        load_mesh(str(bad_header))

    bad_vertex = tmp_path / "vert.msh"
    bad_vertex.write_text("3 1\n0 0\n1 zebra\n0 1\n0 1 2\n")
    with pytest.raises(MeshError, match=r"vert\.msh:3"):
        load_mesh(str(bad_vertex))

    out_of_range = tmp_path / "range.msh"
    out_of_range.write_text("3 1\n0 0\n1 0\n0 1\n0 1 7\n")
    with pytest.raises(MeshError, match="out of range"):
        load_mesh(str(out_of_range))

    clockwise = tmp_path / "cw.msh"
    clockwise.write_text("3 1\n0 0\n1 0\n0 1\n0 2 1\n")
    with pytest.raises(MeshError, match="counter-clockwise"):
        load_mesh(str(clockwise))


def test_load_mesh_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.msh"
    path.write_text("# tiny\n3 1\n\n0 0\n1 0  # corner\n0 1\n0 1 2\n")
    m = load_mesh(str(path))
    assert m.n_elements == 1


def test_squeeze_element_geometry():
    # the oracle's squeezed triangles, every interior face and side
    m = unit_square_crisscross()
    for kappa in (1.0, 4.0, 1e3):
        system = get_dual_system(m, kappa)
        for pos, face in enumerate(system.iface):
            fd = FaceDualFunction(system, face)
            for s, e in enumerate(system.adj[pos]):
                coords = fd.sq_coords[s]
                theta = fd.thetas[s]
                assert np.isclose(signed_areas(coords), theta * m.areas[e], rtol=1e-12)
                # squeezed coords come from the parent via the barycentrics
                assert np.allclose(coords, fd.parent_bary[s] @ m.element_coords(e),
                                   atol=1e-15)
                # the face itself stays put
                fv = set(map(tuple, m.vertices[m.faces[face]].tolist()))
                sv = set(map(tuple, coords[:2].tolist()))
                assert fv == sv


def test_h_face_is_max_adjacent_diameter():
    m = uniform_refine(l_shape(), 1)
    for f in range(m.n_faces):
        adj = [e for e in m.face_elems[f] if e >= 0]
        assert np.isclose(m.h_face[f], max(m.h_elem[e] for e in adj))
