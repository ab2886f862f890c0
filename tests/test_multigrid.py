"""The smoothed-aggregation preconditioner behind galerkin.solve.

SA-PCG must give the Jacobi-PCG solution to the solver tolerance on every
mesh family and across kappa, the V-cycle must be a symmetric positive
definite operator (CG needs one), the hierarchy must not depend on anything
but the matrix, and the selection rule must keep Jacobi where it is faster.
The private preconditioner is called directly; there is no public switch.
"""

import pathlib

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from rdafem import galerkin as g
from rdafem.mesh import (bisect, l_shape, load_mesh, uniform_refine,
                         unit_square_2tri, unit_square_crisscross)

MESH_DIR = pathlib.Path(__file__).resolve().parent.parent / "meshes"
KAPPAS = (1e-8, 1.0, 1e2, 1e4, 1e10)
TOL = 1e-10


def random_nvb_chain(seed=5, steps=6):
    rng = np.random.default_rng(seed)
    mesh = uniform_refine(unit_square_crisscross(), 4)
    for _ in range(steps):
        marked = np.nonzero(rng.random(mesh.n_elements) < 0.3)[0]
        mesh = bisect(mesh, marked)
    return mesh


MESHES = {
    "square2": lambda: uniform_refine(unit_square_2tri(), 10),
    "crisscross": lambda: uniform_refine(unit_square_crisscross(), 8),
    "lshape": lambda: uniform_refine(l_shape(), 8),
    **{path.stem: (lambda path=path: load_mesh(path))
       for path in sorted(MESH_DIR.glob("*.msh"))},
    "nvb_chain": random_nvb_chain,
}


@pytest.fixture(scope="module")
def meshes():
    return {name: make() for name, make in MESHES.items()}


def pcg(A, b, M):
    x, info = spla.cg(A, b, rtol=TOL, atol=0.0, maxiter=10 * len(b), M=M)
    assert info == 0
    return x


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("name", sorted(MESHES))
def test_sa_pcg_agrees_with_jacobi_pcg(meshes, name, kappa):
    mesh = meshes[name]
    system = g.assemble(mesh, kappa)
    A = system.matrix
    b = g.load_vector(g.make_problem(mesh, kappa, "const1"))[system.free]
    diag = A.diagonal()
    jacobi = spla.LinearOperator(A.shape, matvec=lambda r: r / diag)
    x_sa = pcg(A, b, g._sa_preconditioner(A))
    x_j = pcg(A, b, jacobi)
    bnorm = np.linalg.norm(b)
    assert np.linalg.norm(A @ x_sa - b) <= TOL * bnorm
    # both meet the tolerance, so they differ by at most twice it
    assert np.linalg.norm(A @ (x_sa - x_j)) <= 2.0 * TOL * bnorm


@pytest.fixture(scope="module")
def multilevel():
    A = g.assemble(uniform_refine(unit_square_2tri(), 12), 1.0).matrix
    levels, _ = g._sa_levels(A)
    assert len(levels) >= 2
    return A


def test_v_cycle_is_symmetric_positive_definite(multilevel):
    M = g._sa_preconditioner(multilevel)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x, y = rng.standard_normal((2, multilevel.shape[0]))
        Mx, My = M @ x, M @ y
        assert abs(Mx @ y - x @ My) <= 1e-12 * np.linalg.norm(Mx) * np.linalg.norm(y)
        assert Mx @ x > 0


def test_hierarchy_is_deterministic(multilevel):
    first, first_coarse = g._sa_levels(multilevel)
    second, second_coarse = g._sa_levels(multilevel.copy())

    def arrays(levels, coarse):
        out = []
        for A, wdinv, P in levels:
            out += [A.data, A.indices, A.indptr, wdinv, P.data, P.indices, P.indptr]
        return out + [coarse.data, coarse.indices, coarse.indptr]

    for a, b in zip(arrays(first, first_coarse), arrays(second, second_coarse),
                    strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_aggregates_cover_every_unknown(multilevel):
    agg = g._sa_aggregates(multilevel)
    n_coarse = int(agg.max()) + 1
    assert agg.min() == 0
    assert np.array_equal(np.unique(agg), np.arange(n_coarse))
    assert 4 * n_coarse < multilevel.shape[0]


@pytest.fixture(scope="module")
def big_square():
    # 65,536 uniform elements, 32,513 unknowns
    mesh = uniform_refine(unit_square_crisscross(), 14)
    assert len(mesh.free_vertices()) >= 30_000
    return mesh


def test_rule_keeps_jacobi_on_small_or_mass_dominated_systems(big_square):
    # the sizes of the study-osc runs and of the adapt-layer run and the
    # study reference solves
    for mesh in (uniform_refine(unit_square_crisscross(), 5),
                 uniform_refine(unit_square_crisscross(), 11)):
        assert len(mesh.free_vertices()) < 5_000
        for kappa in (1e-8, 1.0, 1e2, 1e4):
            assert g._preconditioner_kind(g.assemble(mesh, kappa)) == "jacobi"
    assert g._preconditioner_kind(g.assemble(big_square, 1e4)) == "jacobi"
    assert g._preconditioner_kind(g.assemble(big_square, 1.0)) == "sa"


def test_sa_solve_of_a_large_square_takes_few_iterations(big_square):
    U = g.solve(g.make_problem(big_square, 1.0, "const1"))
    stats = U.solver_stats
    assert stats["preconditioner"] == "sa"
    assert stats["cg_iterations"] < 80
    assert stats["cg_residual"] <= TOL
