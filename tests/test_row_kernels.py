"""Row gathers, row scatters and short-row reductions against the indexing
they replaced, bit for bit.

The hot layers gather rows with `ndarray.take`, scatter them with
`mesh.scatter_rows` and reduce rows of two or three entries column by
column, where NumPy's advanced indexing and its reductions along axis 1 take
slower paths.  Each form must give exactly the bits of the one it replaced
(`oracles`): on float, int64 and bool rows, 2-d and 3-d, single rows and
empty index sets, and at every rewritten site on the corpus at kappa 1 and
1e4.
"""

import functools

import numpy as np
import pytest

import oracles
from rdafem import adapt, estimator, galerkin
from rdafem.dual_system import get_dual_system, project_pi
from rdafem.mesh import bisect, scatter_rows, unit_square_crisscross

KAPPAS = (1.0, 1e4)
DTYPES = (np.float64, np.int64, np.bool_)
SHAPES = ((), (2,), (3,), (3, 2), (14,))


def random_rows(rng, n, shape, dtype):
    """n rows of the shape, floats over 24 decades."""
    rows = rng.standard_normal((n, *shape)) * np.exp(rng.uniform(-25.0, 25.0, (n, *shape)))
    return rows > 0.0 if dtype is np.bool_ else rows.astype(dtype)


def index_sets(rng, n):
    """Row indices: none, one, an ascending subset and a shuffled one."""
    subset = np.flatnonzero(rng.random(n) < 0.4)
    return [np.empty(0, dtype=np.int64), np.array([n - 1]), subset, rng.permutation(subset)]


def assert_same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
def test_take_gathers_the_rows_of_advanced_indexing(dtype, shape):
    rng = np.random.default_rng(0)
    a = random_rows(rng, 40, shape, dtype)
    for idx in index_sets(rng, 40) + [rng.integers(0, 40, (25, 3))]:
        assert_same(a.take(idx, axis=0), oracles.fancy_gather(a, idx))
        if shape:
            # (row, entry) pairs as one flat index into the rows' entries
            e, i = rng.integers(0, 40, idx.shape), rng.integers(0, shape[0], idx.shape)
            flat = a.reshape(-1, *shape[1:]).take(e * shape[0] + i, axis=0)
            assert_same(flat, oracles.fancy_gather(a, (e, i)))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
def test_scatter_rows_writes_the_rows_of_advanced_indexing(dtype, shape):
    rng = np.random.default_rng(1)
    out = random_rows(rng, 40, shape, dtype)
    for idx in index_sets(rng, 40) + [slice(3, 20)]:
        n = len(range(40)[idx]) if isinstance(idx, slice) else len(idx)
        rows = random_rows(rng, n, shape, dtype)
        got = out.copy()
        scatter_rows(got, idx, rows)
        assert_same(got, oracles.fancy_scatter(out, idx, rows))


def test_scatter_rows_refuses_rows_it_cannot_view():
    with pytest.raises(ValueError, match="C-contiguous"):
        scatter_rows(np.zeros((6, 4))[:, :2], np.array([1]), np.ones((1, 2)))


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 7, 5000])
def test_column_reductions_give_the_bits_of_axis_one_reductions(width, n):
    rng = np.random.default_rng(width * n)
    a = random_rows(rng, n, (width,), np.float64)
    ints, flags = random_rows(rng, n, (width,), np.int64), a > 0.0

    def columns(op, rows):
        """op of the columns, left to right: ((c0 op c1) op c2)."""
        return functools.reduce(op, [rows[:, j] for j in range(width)])

    assert_same(columns(np.add, a), oracles.row_sums(a))
    assert_same(columns(np.add, ints), oracles.row_sums(ints))
    assert_same(columns(np.maximum, a), oracles.row_maxima(a))
    assert_same(columns(np.logical_or, flags), oracles.row_any(flags))


@pytest.mark.parametrize("kappa", KAPPAS)
def test_rewritten_sites_give_the_bits_of_advanced_indexing(corpus, kappa):
    rng = np.random.default_rng(2)
    ref = estimator._ref_blocks(2, galerkin.DEFAULT_DEGREE)
    for name, mesh in corpus:
        assert np.array_equal(mesh.h_elem, oracles.element_diameters(mesh)), name
        for key, want in oracles.face_geometry(mesh).items():
            assert np.array_equal(getattr(mesh, key), want), (name, key)
        assert not oracles.duplicate_elements(mesh).any()
        mesh.audit()
        assert_same(galerkin.element_bary_grads(mesh),
                    oracles.bary_grads_fancy(mesh.vertices[mesh.elements]))

        problem = galerkin.make_problem(mesh, kappa, "sinsin")
        values = rng.standard_normal(mesh.n_vertices)
        U = galerkin.DiscreteFunction(mesh, values)
        assert_same(U.element_gradients(), oracles.element_gradients(mesh, values))
        assert_same(galerkin.grad_jumps(mesh, U), oracles.grad_jumps(mesh, values))
        assert_same(galerkin.apply_operator(mesh, kappa, U).cell_density,
                    kappa**2 * values[mesh.elements])
        assert_same(galerkin.energy_norm_sq_elements(mesh, kappa, U),
                    oracles.energy_norm_sq_elements(mesh, kappa, values))
        assert_same(galerkin.energy_error_sq_elements(problem, U),
                    oracles.energy_error_sq(problem, values))
        mean = galerkin.field_rows(mesh, problem.rhs).mean
        assert_same(estimator.classic_indicators(problem, U),
                    oracles.classic_indicators(problem, values, mean))
        coeffs = random_rows(rng, mesh.n_elements, (3,), np.float64)
        assert_same(galerkin._p1_mass_sq(mesh.areas, coeffs),
                    oracles.p1_mass_sq(mesh.areas, coeffs))

        system = get_dual_system(mesh, kappa)
        assert_same(system._psi_pair_field(problem.rhs), oracles.psi_pairs(system, problem.rhs))
        g = galerkin.data_minus(problem, project_pi(mesh, kappa, problem.rhs))
        for idx in index_sets(rng, mesh.n_elements):
            assert_same(estimator._parent_weights(mesh, idx, kappa),
                        oracles.parent_weights(mesh, idx, kappa))
            assert_same(estimator._parent_loads(mesh, g, idx, ref),
                        oracles.parent_loads(mesh, g, idx, ref))
        for idx in index_sets(rng, mesh.n_vertices):
            assert_same(adapt.star_union(mesh, idx), oracles.star_union(mesh, idx))


def test_bisect_without_kept_or_without_refined_elements():
    # the children of each refinement pattern are scattered as rows, some
    # patterns to no rows at all
    mesh = unit_square_crisscross()
    every = bisect(mesh, np.arange(mesh.n_elements))
    assert (every.parent_elements < 0).all() and every.n_elements == 8
    none = bisect(mesh, np.empty(0, dtype=np.int64))
    assert np.array_equal(none.elements, mesh.elements)
    assert np.array_equal(none.parent_elements, np.arange(mesh.n_elements))
