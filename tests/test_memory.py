"""Bounded memory on the solve path, and blocks that do not change a result.

Every evaluation over the rows of a mesh runs in blocks of
`mesh.BLOCK_POINTS` (2^16) quadrature points (`mesh.row_blocks`): the
areas, edge lengths, rotation and face keys of a `Mesh` and its face
geometry, which is built on first read and so never by `rdafem solve`, the
quadrature data of `field_rows` and `error_rows` (one pass for the data
and exact solution of a preset) and of the face-bubble pairings, the
barycentric gradients and face rows of the dual system, the local matrices
and sums of `assemble`, the strength test and row maxima of the SA set-up,
the per-element energies, the rows of `write_csv` and the hanging-vertex
scan of the audit.  The bounds below hold on a parentless 2^16-element
square.  Each row sums in one fixed order (`quadrature.node_sums`, or row by
row as scipy sums a CSR matrix), so blocks of any size give the same arrays
bit for bit, and so do carried rows and a parentless build.
"""

import numpy as np
import pytest

from rdafem import adapt, cli
from rdafem import dual_system as ds
from rdafem import estimator as est
from rdafem import galerkin as g
from rdafem import mesh as mesh_mod
from rdafem.mesh import (Mesh, bisect, l_shape, load_mesh, save_mesh, uniform_refine,
                         unit_square_2tri, unit_square_crisscross)
from rdafem.quadrature import DEFAULT_DEGREE, simplex_rule

from memtrace import peak_bytes
from oracles import face_geometry

MB = 2**20
NQ = len(simplex_rule(DEFAULT_DEGREE).weights)
ERROR_ARRAYS = ("grad_mean", "grad_spread", "proj", "proj_residual")


@pytest.fixture(scope="module")
def square():
    mesh = uniform_refine(unit_square_2tri(), 15)
    assert mesh.n_elements == 2**16
    return mesh


def parentless(mesh):
    return Mesh(mesh.vertices, mesh.elements, ref_edge_policy="asis")


# -- memory bounds -----------------------------------------------------------------


def test_assemble_memory_bounded(square):
    # peaks at 9.9 MB, the barycentric gradients it builds and keeps (3 MB)
    # and the free block (2.4 MB) included; 12.3 MB when it built the matrix
    # of all vertices and took the free block from that
    mesh = parentless(square)
    peak, system = peak_bytes(lambda: g.assemble(mesh, 1.0))
    assert peak < 11 * MB, peak
    assert system.matrix.shape == (len(system.free),) * 2


def test_sa_setup_memory_bounded(square):
    # peaks at 7.3 MB, the hierarchy it keeps included; 8.7 MB with the
    # strength test of all rows at once, |A| whole and A P as CSC
    system = g.assemble(parentless(square), 1.0)
    assert g._preconditioner_kind(system) == "sa"
    peak, _ = peak_bytes(lambda: g._sa_preconditioner(system.matrix))
    assert peak < 8 * MB, peak


def test_energies_memory_bounded(square):
    # peaks at 3.5 MB, the gradients of U it keeps (1 MB) included; 6.5 MB
    # with (ne, 3) temporaries of the whole mesh
    mesh = parentless(square)
    problem = g.make_problem(mesh, 1.0, "sinsin")
    g.element_bary_grads(mesh)
    g.error_rows(mesh, problem.exact)
    U = g.DiscreteFunction(mesh, np.where(mesh.boundary_vertex, 0.0,
                                          np.cos(mesh.vertices[:, 0])))
    peak, _ = peak_bytes(lambda: (g.energy_norm(mesh, 1.0, U),
                                  g.energy_error_sq_elements(problem, U)))
    assert peak < 5 * MB, peak


def test_bisect_memory_bounded(square):
    # a third of the elements marked: peaks at 24.6 MB, of which the
    # 101,738-element child keeps 21.5 MB; 37.2 MB with the child's
    # topology and geometry built for all of its rows at once
    mesh = parentless(square)
    marked = np.random.default_rng(0).choice(mesh.n_elements, mesh.n_elements // 3,
                                             replace=False)
    peak, child = peak_bytes(lambda: bisect(mesh, marked))
    assert peak < 27 * MB, peak
    assert child.n_elements == 101_738


def test_quadrature_rows_memory_bounded(square):
    # peaks at 10.8 MB in the one pass of the data and the exact solution,
    # its blocks sized for both (13.0 MB in blocks sized for one pass alone,
    # 12.3 MB in two passes), of which the rows keep 7 MB
    mesh = parentless(square)
    problem = g.make_problem(mesh, 1.0, "sinsin")
    peak, _ = peak_bytes(lambda: (g.field_rows(mesh, problem.rhs),
                                  g.error_rows(mesh, problem.exact)))
    assert peak < 20 * MB, peak


def test_mesh_file_memory_bounded(square, tmp_path):
    # load_mesh peaks at 14.1 MB (17.4 MB with the face geometry built at
    # once and duplicate elements found by sorting all triples, 24.8 MB with
    # the topology and geometry of all rows at once); write_csv at 3.8 MB,
    # and writes what one format call per cell writes
    path = tmp_path / "square.msh"
    save_mesh(square, str(path))
    peak, mesh = peak_bytes(lambda: load_mesh(str(path)))
    assert peak < 21 * MB, peak
    assert np.array_equal(mesh.elements, square.elements)
    columns = {"vertex_id": np.arange(mesh.n_vertices), "x": mesh.vertices[:, 0],
               "y": mesh.vertices[:, 1], "u": np.sin(mesh.vertices[:, 0])}
    peak, _ = peak_bytes(lambda: cli.write_csv(str(tmp_path / "u.csv"), columns))
    assert peak < 7 * MB, peak
    want = "vertex_id,x,y,u\r\n" + "".join(
        f"{z},{x:.17g},{y:.17g},{u:.17g}\r\n"
        for z, x, y, u in zip(*(values.tolist() for values in columns.values())))
    assert (tmp_path / "u.csv").read_bytes() == want.encode()


def test_solve_builds_no_face_geometry(tmp_path, monkeypatch):
    # `rdafem solve` never reads the face geometry, so its mesh holds none;
    # the first read builds all of it, read-only, as an eager build would
    path = tmp_path / "mesh.msh"
    save_mesh(uniform_refine(unit_square_crisscross(), 4), str(path))
    loaded = []

    def load(name):
        loaded.append(load_mesh(name))
        return loaded[-1]

    monkeypatch.setattr(mesh_mod, "load_mesh", load)
    with pytest.raises(SystemExit) as stop:
        cli.main(["solve", "--preset", "sinsin", "--mesh", str(path),
                  "--out", str(tmp_path / "out")])
    assert stop.value.code == cli.EXIT_OK
    (mesh,) = loaded
    assert not {"face_len", "h_face", "normals"} & vars(mesh).keys()
    for name, want in face_geometry(mesh).items():
        got = getattr(mesh, name)
        assert not got.flags.writeable and np.array_equal(got, want), name


def test_audit_memory_bounded(square):
    # peaks at 3.2 MB: the hanging-vertex scan pairs boundary faces with
    # boundary vertices in blocks
    peak, _ = peak_bytes(square.audit)
    assert peak < 8 * MB, peak


def test_adaptive_loop_memory_bounded():
    # oscillation priced every iteration, layer1d kappa = 1e4 to 3,141 dofs
    # (27 iterations): peaks at 8.7 MB, the previous mesh dropped at
    # bisection and its rows handed down; 11.5 MB with the previous mesh
    # and its rows held until the oscillation had taken its kept rows
    problem = g.make_problem(uniform_refine(unit_square_crisscross(), 2), 1e4, "layer1d")
    peak, run = peak_bytes(lambda: adapt.adaptive_loop(problem, max_dof=3000))
    assert peak < 10 * MB, peak
    assert run.final["dofs"] == 3141 and run.final["oscillation"] is not None


def test_global_dual_norm_memory_bounded():
    # depth 5 on 96 elements, the template blocks built on this first call:
    # peaks at 53.8 MB with the parents condensed a block at a time, 95.9 MB
    # with every parent's field loads and condensation at once; the norm is
    # that of condensing them at once (the same bits on x86-64)
    mesh = uniform_refine(l_shape(), 4)
    problem = g.make_problem(mesh, 1.0, "sinsin")
    est._ref_blocks.cache_clear()
    peak, norm = peak_bytes(lambda: est.global_dual_norm(mesh, problem.rhs, 1.0, 5))
    assert peak < 60 * MB, peak
    assert norm == pytest.approx(3.9436250586969326, rel=1e-14)


# -- blocks of any size, and carried rows, give the same arrays -------------------


MESH_ARRAYS = ("vertices", "elements", "areas", "h_elem", "faces", "face_elems",
               "elem_faces", "interior_face", "boundary_vertex", "vertex_slots",
               "vertex_starts", "face_len", "h_face", "normals")


def blocked_arrays(mesh, kappa):
    """Every array that is built in blocks, on mesh."""
    problem = g.make_problem(mesh, kappa, "layer1d")
    system = ds.get_dual_system(mesh, kappa)
    field = g.field_rows(mesh, problem.rhs)
    error = g.error_rows(mesh, problem.exact)
    matrix = g.assemble(mesh, kappa).matrix
    arrays = {name: getattr(error, name) for name in ERROR_ARRAYS}
    arrays.update(grads=g.element_bary_grads(mesh), thetas=system.thetas,
                  gammas=system.gammas, psi=system._psi_pair_field(problem.rhs),
                  load=field.load, mean=field.mean, dual=field.dual,
                  indptr=matrix.indptr, indices=matrix.indices, data=matrix.data)
    # the mesh, and a copy given its triples turned, so the longest edge
    # comes first again
    turned = np.take_along_axis(mesh.elements, (np.arange(3) + np.arange(
        mesh.n_elements)[:, None]) % 3, axis=1)
    for prefix, m in (("", mesh), ("turned.", Mesh(mesh.vertices, turned))):
        arrays.update({prefix + name: getattr(m, name) for name in MESH_ARRAYS})
    # the SA hierarchy, below a coarsest size small enough for this mesh
    arrays["aggregates"] = g._sa_aggregates(matrix)
    levels, coarse = g._sa_levels(matrix)
    for level, (A, wdinv, P) in enumerate(levels + [(coarse, None, None)]):
        for name, array in (("A", A), ("P", P)):
            if array is not None:
                arrays.update({f"{name}{level}.{part}": getattr(array, part)
                               for part in ("data", "indices", "indptr")})
        if wdinv is not None:
            arrays[f"wdinv{level}"] = wdinv
    U = g.DiscreteFunction(mesh, np.where(mesh.boundary_vertex, 0.0,
                                          np.sin(7.0 * mesh.vertices[:, 0])))
    arrays.update(gradients=U.element_gradients(),
                  energy=g.energy_norm_sq_elements(mesh, kappa, U),
                  error=g.energy_error_sq_elements(problem, U))
    return arrays


def assert_identical(got, want):
    assert got.keys() == want.keys()
    for name, array in want.items():
        assert got[name].dtype == array.dtype, name
        assert np.array_equal(got[name], array), name


def random_nvb(seed, steps):
    rng = np.random.default_rng(seed)
    mesh = uniform_refine(unit_square_crisscross(), 2)
    for _ in range(steps):
        mesh = bisect(mesh, rng.choice(mesh.n_elements, mesh.n_elements // 3,
                                       replace=False))
    return mesh


@pytest.mark.parametrize("points", [1, 7 * NQ], ids=["one_row", "seven_elements"])
def test_blocks_of_any_size_give_the_same_arrays(monkeypatch, points):
    # kappa 1e4 squeezes the face bubbles; the element and face counts are
    # not multiples of seven, so the last block is ragged
    monkeypatch.setattr(g, "_SA_COARSE", 4)
    mesh = random_nvb(3, 3)
    assert mesh.n_elements % 7 and mesh.interior_face.sum() % 3
    want = blocked_arrays(parentless(mesh), 1e4)
    assert "P0.data" in want and "A1.data" in want
    monkeypatch.setattr(mesh_mod, "BLOCK_POINTS", points)
    assert_identical(blocked_arrays(parentless(mesh), 1e4), want)


@pytest.mark.parametrize("points", [1, 7 * NQ, None], ids=["one_row", "seven_elements",
                                                           "default"])
def test_carried_rows_equal_a_parentless_build_bit_for_bit(monkeypatch, points):
    # a child computes only its new rows, in blocks of its own, and takes the
    # others from its parent: the order of every row's sum is fixed, so its
    # arrays are those of a parentless copy built in the default blocks
    monkeypatch.setattr(g, "_SA_COARSE", 4)
    parent = random_nvb(4, 2)
    blocked_arrays(parent, 1e4)
    child = bisect(parent, np.arange(0, parent.n_elements, 5))
    want = blocked_arrays(parentless(child), 1e4)
    if points is not None:
        monkeypatch.setattr(mesh_mod, "BLOCK_POINTS", points)
    got = blocked_arrays(child, 1e4)
    assert 0 < len(child.cache[("bary_grads",)].new) < child.n_elements
    assert_identical(got, want)


def test_csv_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    values = np.linspace(-1.0, 1.0, 23) ** 3
    columns = {"i": np.arange(23), "v": values, "mixed": [None, 0.1, 7] * 7 + [2.5, None]}
    cli.write_csv(str(tmp_path / "default.csv"), columns)
    monkeypatch.setattr(mesh_mod, "BLOCK_POINTS", 7)
    cli.write_csv(str(tmp_path / "blocks.csv"), columns)
    written = (tmp_path / "blocks.csv").read_bytes()
    assert written.count(b"\n") == 24
    assert written == (tmp_path / "default.csv").read_bytes()
