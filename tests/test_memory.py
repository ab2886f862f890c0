"""Bounded memory on the solve path, and blocks that do not change a result.

Every evaluation over the rows of a mesh runs in blocks of
`mesh.BLOCK_POINTS` quadrature points (`mesh.row_blocks`): the quadrature
data of `field_rows`, `error_rows` and the face-bubble pairings, the
barycentric gradients and face rows of the dual system, the local matrices
of `assemble`, the rows of `write_csv` and the hanging-vertex scan of the
audit.  The bounds below hold on a parentless 2^16-element square.  Each
row sums in one fixed order (`quadrature.node_sums`), so blocks of any size
give the same arrays bit for bit, and so do carried rows and a parentless
build.
"""

import numpy as np
import pytest

from rdafem import cli
from rdafem import dual_system as ds
from rdafem import galerkin as g
from rdafem import mesh as mesh_mod
from rdafem.mesh import (Mesh, bisect, load_mesh, save_mesh, uniform_refine,
                         unit_square_2tri, unit_square_crisscross)
from rdafem.quadrature import DEFAULT_DEGREE, simplex_rule

from memtrace import peak_bytes

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
    # peaks at 12.3 MB, the barycentric gradients it builds and keeps (3 MB)
    # and the two matrices (5.2 MB) included
    mesh = parentless(square)
    peak, system = peak_bytes(lambda: g.assemble(mesh, 1.0))
    assert peak < 20 * MB, peak
    assert system.matrix.shape == (len(system.free),) * 2


def test_quadrature_rows_memory_bounded(square):
    # peaks at 12.3 MB, of which the rows keep 7 MB
    mesh = parentless(square)
    problem = g.make_problem(mesh, 1.0, "sinsin")
    peak, _ = peak_bytes(lambda: (g.field_rows(mesh, problem.rhs),
                                  g.error_rows(mesh, problem.exact)))
    assert peak < 20 * MB, peak


def test_mesh_file_memory_bounded(square, tmp_path):
    # load_mesh peaks at 25.3 MB, of which the Mesh keeps 14.4 MB; write_csv
    # at 4.9 MB, and writes what one format call per cell writes
    path = tmp_path / "square.msh"
    save_mesh(square, str(path))
    peak, mesh = peak_bytes(lambda: load_mesh(str(path)))
    assert peak < 32 * MB, peak
    assert np.array_equal(mesh.elements, square.elements)
    columns = {"vertex_id": np.arange(mesh.n_vertices), "x": mesh.vertices[:, 0],
               "y": mesh.vertices[:, 1], "u": np.sin(mesh.vertices[:, 0])}
    peak, _ = peak_bytes(lambda: cli.write_csv(str(tmp_path / "u.csv"), columns))
    assert peak < 7 * MB, peak
    want = "vertex_id,x,y,u\r\n" + "".join(
        f"{z},{x:.17g},{y:.17g},{u:.17g}\r\n"
        for z, x, y, u in zip(*(values.tolist() for values in columns.values())))
    assert (tmp_path / "u.csv").read_bytes() == want.encode()


def test_audit_memory_bounded(square):
    # peaks at 4.0 MB: the hanging-vertex scan pairs boundary faces with
    # boundary vertices in blocks
    peak, _ = peak_bytes(square.audit)
    assert peak < 8 * MB, peak


# -- blocks of any size, and carried rows, give the same arrays -------------------


def blocked_arrays(mesh, kappa):
    """Every array that is built in blocks, on mesh."""
    problem = g.make_problem(mesh, kappa, "layer1d")
    system = ds.get_dual_system(mesh, kappa)
    field = g.field_rows(mesh, problem.rhs)
    error = g.error_rows(mesh, problem.exact)
    matrix = g.assemble(mesh, kappa).matrix_full
    arrays = {name: getattr(error, name) for name in ERROR_ARRAYS}
    arrays.update(grads=g.element_bary_grads(mesh), thetas=system.thetas,
                  gammas=system.gammas, psi=system._psi_pair_field(problem.rhs),
                  load=field.load, mean=field.mean, dual=field.dual,
                  indptr=matrix.indptr, indices=matrix.indices, data=matrix.data)
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
    mesh = random_nvb(3, 3)
    assert mesh.n_elements % 7 and mesh.interior_face.sum() % 3
    want = blocked_arrays(parentless(mesh), 1e4)
    monkeypatch.setattr(mesh_mod, "BLOCK_POINTS", points)
    assert_identical(blocked_arrays(parentless(mesh), 1e4), want)


@pytest.mark.parametrize("points", [1, 7 * NQ, None], ids=["one_row", "seven_elements",
                                                           "default"])
def test_carried_rows_equal_a_parentless_build_bit_for_bit(monkeypatch, points):
    # a child computes only its new rows, in blocks of its own, and takes the
    # others from its parent: the order of every row's sum is fixed, so its
    # arrays are those of a parentless copy built in the default blocks
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
