"""One pass of the problem data per quadrature node.

The data f of a preset states its exact solution u in a kernel that
evaluates f, u and grad u at once, sharing their common factors; it must
give the bits of `value` and `grad`.  The entry `field_rows` builds from it
holds u's energy-error rows too, under the one key of the data and the
rule, and must equal rows built from each evaluation alone
(`oracles.field_rows_apart`, `oracles.error_rows_apart`), on a fresh mesh
and carried along bisection.  A load rule of degree 0 or 1 evaluates f
alone, and the error reads the joint entry of the degree-2 rule, whose
kernel runs once per node.  Data without a kernel have no error rows.
No cache entry sits under two keys.
"""

import numpy as np
import pytest

from rdafem import galerkin as g
from rdafem.adapt import adaptive_loop
from rdafem.mesh import Mesh, bisect, l_shape, uniform_refine, unit_square_crisscross
from rdafem.quadrature import simplex_rule

from oracles import error_rows_apart, field_rows_apart

KAPPAS = (1e-8, 1.0, 1e4, 1e10)


def node_sets(kappa):
    """(x, y) of random nodes of the unit square, and of nodes within 5/kappa
    of x = 0 and of x = 1 (inside layer1d's layers), each a strided (8, 25)
    view as the builder passes them."""
    pts = np.random.default_rng(0).uniform(0.0, 1.0, (3, 8, 25, 2))
    depth = min(1.0, 5.0 / kappa)
    pts[1, ..., 0] *= depth
    pts[2, ..., 0] = 1.0 - depth * pts[2, ..., 0]
    return [(p[..., 0], p[..., 1]) for p in pts]


def assert_rows_equal(rows, want):
    for name, array in want.items():
        got = getattr(rows, name)
        assert got.dtype == array.dtype and np.array_equal(got, array), name


@pytest.mark.parametrize("preset", ["sinsin", "layer1d"])
@pytest.mark.parametrize("kappa", KAPPAS)
def test_kernel_gives_the_bits_of_value_and_grad(preset, kappa):
    f = g.PRESETS[preset](kappa)
    u = f.exact
    for x, y in node_sets(kappa):
        want = (f.value(x, y), u.value(x, y), *u.grad(x, y))
        for got, array in zip(f.kernel(x, y), want, strict=True):
            assert got.dtype == array.dtype and np.array_equal(got, array)


@pytest.mark.parametrize("preset", ["sinsin", "layer1d"])
@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("degree", [2, 8])
def test_joint_rows_equal_rows_built_apart(preset, kappa, degree):
    # a fresh mesh, then children that carry the joint rows from a live parent
    rng = np.random.default_rng(1)
    parent, mesh = None, uniform_refine(unit_square_crisscross(), 3)
    problem = g.make_problem(mesh, kappa, preset)
    for _ in range(3):
        rows = g.field_rows(mesh, problem.rhs, degree)
        if parent is not None:
            assert mesh.parent is parent and 0 < len(rows.new) < mesh.n_elements
        assert_rows_equal(rows, field_rows_apart(mesh, problem.rhs, degree)
                          | error_rows_apart(mesh, problem.exact, degree))
        marks = rng.choice(mesh.n_elements, mesh.n_elements // 4, replace=False)
        parent, mesh = mesh, bisect(mesh, marks)


@pytest.mark.parametrize("degree", [0, 1])
def test_low_degree_energy_error_is_that_of_the_degree_2_rule(degree):
    # the load rule is not the error rule: it evaluates f alone
    mesh = uniform_refine(l_shape(), 2)
    problem = g.make_problem(mesh, 10.0, "sinsin")
    U = g.solve(problem, quad_degree=degree)
    rows = g.field_rows(mesh, problem.rhs, degree)
    assert not hasattr(rows, "proj")
    assert_rows_equal(rows, field_rows_apart(mesh, problem.rhs, degree))
    assert_rows_equal(g.field_rows(mesh, problem.rhs, 2),
                      error_rows_apart(mesh, problem.exact, 2))
    # bit for bit the error through the joint rows of degree 2
    copy = Mesh(mesh.vertices, mesh.elements, ref_edge_policy="asis")
    joint = g.make_problem(copy, 10.0, "sinsin")
    g.field_rows(copy, joint.rhs, 2)
    assert np.array_equal(g.energy_error_sq_elements(problem, U, degree),
                          g.energy_error_sq_elements(joint, g.DiscreteFunction(copy, U.values), 2))


def test_data_without_a_kernel_is_evaluated_apart():
    # a hand-built problem: its data state no exact solution, so its rows
    # hold f's alone and there is no energy error to take
    mesh = uniform_refine(unit_square_crisscross(), 3)
    f = g.PRESETS["sinsin"](3.0)
    problem = g.Problem(mesh, 3.0, g.ScalarField(f.value))
    assert problem.exact is None
    U = g.solve(problem)
    rows = g.field_rows(mesh, problem.rhs)
    assert not hasattr(rows, "proj")
    assert_rows_equal(rows, field_rows_apart(mesh, f, 8))
    with pytest.raises(ValueError, match="no exact solution"):
        g.energy_error(problem, U)
    assert list(mesh.cache) == [("bary_grads",), ("field_rows", problem.rhs, 8)]


@pytest.mark.parametrize("order", [("error", "field"), ("field", "error")])
def test_a_child_takes_the_joint_rows_under_either_key_first(order):
    # the joint entry is handed down under its one key; whether the energy
    # error or the load looks it up first, the child takes the kept rows of
    # f's and of u's arrays alike, and holds them in one entry
    parent = uniform_refine(unit_square_crisscross(), 2)
    problem = g.make_problem(parent, 1.0, "sinsin")
    g.field_rows(parent, problem.rhs)
    child = bisect(parent, np.arange(10))
    on_child = problem.on_mesh(child)
    U = g.DiscreteFunction(child, np.zeros(child.n_vertices))
    get = {"error": lambda: g.energy_error(on_child, U),
           "field": lambda: g.field_rows(child, problem.rhs)}
    for key in order:
        get[key]()
    assert [key for key in child.cache if key[0] == "field_rows"] == [
        ("field_rows", problem.rhs, 8)]
    rows = g.field_rows(child, problem.rhs)
    fresh = g.field_rows(Mesh(child.vertices, child.elements, ref_edge_policy="asis"),
                         problem.rhs)
    assert np.array_equal(rows.new, np.flatnonzero(child.parent_elements < 0))
    names = ("load", "mean", "dual", "grad_mean", "grad_spread", "proj", "proj_residual")
    assert_rows_equal(rows, {name: getattr(fresh, name) for name in names})


@pytest.mark.parametrize("degree", [0, 1])
def test_low_degree_error_rows_evaluate_the_kernel_once_per_node(degree):
    # f alone at the load rule's nodes, the kernel once at the degree-2 nodes
    mesh = uniform_refine(l_shape(), 2)
    f = g.PRESETS["sinsin"](10.0)
    nodes = []

    def counting(x, y):
        nodes.append(np.size(x))
        return f.kernel(x, y)

    problem = g.Problem(mesh, 10.0, g.ScalarField(f.value, kernel=counting))
    U = g.solve(problem, quad_degree=degree)
    assert nodes == []
    error = g.energy_error(problem, U, degree)
    assert sum(nodes) == len(simplex_rule(2).weights) * mesh.n_elements
    # bit for bit the error through the preset's joint rows of degree 2
    copy = Mesh(mesh.vertices, mesh.elements, ref_edge_policy="asis")
    joint = g.make_problem(copy, 10.0, "sinsin")
    g.field_rows(copy, joint.rhs, 2)
    assert error.hex() == g.energy_error(joint, g.DiscreteFunction(copy, U.values), 2).hex()


def assert_one_key_per_entry(mesh):
    entries = list(mesh.cache.values())
    assert len({id(rows) for rows in entries}) == len(entries), list(mesh.cache)


def test_no_cache_entry_sits_under_two_keys():
    mesh = uniform_refine(unit_square_crisscross(), 3)
    problem = g.make_problem(mesh, 2.0, "sinsin")
    g.energy_error(problem, g.solve(problem))
    assert_one_key_per_entry(mesh)
    for preset in ("layer1d", "sinsin"):
        problem = g.make_problem(unit_square_crisscross(), 10.0, preset)
        run = adaptive_loop(problem, max_dof=150, keep_meshes=True)
        assert len(run.meshes) > 2 and run.meshes[-1].cache
        for mesh in run.meshes:
            assert_one_key_per_entry(mesh)
