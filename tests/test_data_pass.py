"""One pass of the problem data per quadrature node.

The data f of a preset knows its exact solution u and a kernel that
evaluates f, u and grad u at once, sharing their common factors; it must
give the bits of `value` and `grad`.  The rows `field_rows` builds from it
hold u's `error_rows` too, and must equal rows built from each evaluation
alone (`oracles.field_rows_apart`, `oracles.error_rows_apart`), on a fresh
mesh and carried along bisection.  Where the rules differ (a load rule of
degree 0 or 1, the error rule of degree 2) and for data without a kernel,
each set of rows is built alone.
"""

import numpy as np
import pytest

from rdafem import galerkin as g
from rdafem.mesh import Mesh, bisect, l_shape, uniform_refine, unit_square_crisscross

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
    f, u = g.PRESETS[preset](kappa)
    assert f.exact is u
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
        assert g.error_rows(mesh, problem.exact, degree) is rows
        if parent is not None:
            assert mesh.parent is parent and 0 < len(rows.new) < mesh.n_elements
        assert_rows_equal(rows, field_rows_apart(mesh, problem.rhs, degree)
                          | error_rows_apart(mesh, problem.exact, degree))
        marks = rng.choice(mesh.n_elements, mesh.n_elements // 4, replace=False)
        parent, mesh = mesh, bisect(mesh, marks)


@pytest.mark.parametrize("degree", [0, 1])
def test_low_degree_energy_error_is_that_of_the_degree_2_rule(degree):
    # the load rule is not the error rule: each set of rows is built alone
    mesh = uniform_refine(l_shape(), 2)
    problem = g.make_problem(mesh, 10.0, "sinsin")
    U = g.solve(problem, quad_degree=degree)
    rows = g.field_rows(mesh, problem.rhs, degree)
    assert not hasattr(rows, "proj")
    assert_rows_equal(rows, field_rows_apart(mesh, problem.rhs, degree))
    assert_rows_equal(g.error_rows(mesh, problem.exact, degree),
                      error_rows_apart(mesh, problem.exact, 2))
    # bit for bit the error through the joint rows of degree 2
    copy = Mesh(mesh.vertices, mesh.elements, ref_edge_policy="asis")
    joint = g.make_problem(copy, 10.0, "sinsin")
    g.field_rows(copy, joint.rhs, 2)
    assert np.array_equal(g.energy_error_sq_elements(problem, U, degree),
                          g.energy_error_sq_elements(joint, g.DiscreteFunction(copy, U.values), 2))


def test_data_without_a_kernel_is_evaluated_apart():
    # a hand-built problem: its data does not know the exact solution
    mesh = uniform_refine(unit_square_crisscross(), 3)
    f, u = g.PRESETS["sinsin"](3.0)
    problem = g.Problem(mesh, 3.0, g.ScalarField(f.value), exact=g.ScalarField(u.value, u.grad))
    U = g.solve(problem)
    rows = g.field_rows(mesh, problem.rhs)
    assert not hasattr(rows, "proj")
    assert_rows_equal(rows, field_rows_apart(mesh, f, 8))
    g.energy_error(problem, U)
    assert_rows_equal(g.error_rows(mesh, problem.exact), error_rows_apart(mesh, u, 8))


@pytest.mark.parametrize("order", [("error", "field"), ("field", "error")])
def test_a_child_takes_the_joint_rows_under_either_key_first(order):
    # the joint entry is handed down under both keys; looking up one key
    # first leaves the other's kept rows to take
    parent = uniform_refine(unit_square_crisscross(), 2)
    problem = g.make_problem(parent, 1.0, "sinsin")
    g.field_rows(parent, problem.rhs)
    child = bisect(parent, np.arange(10))

    def lookup(mesh):
        get = {"error": lambda: g.error_rows(mesh, problem.exact),
               "field": lambda: g.field_rows(mesh, problem.rhs)}
        rows = {key: get[key]() for key in order}
        return rows["error"], rows["field"]

    new = np.flatnonzero(child.parent_elements < 0)
    fresh = lookup(Mesh(child.vertices, child.elements, ref_edge_policy="asis"))
    names = (("grad_mean", "grad_spread", "proj", "proj_residual"), ("load", "mean", "dual"))
    for rows, want, arrays in zip(lookup(child), fresh, names):
        assert np.array_equal(rows.new, new)
        assert_rows_equal(rows, {name: getattr(want, name) for name in arrays})
