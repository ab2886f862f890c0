"""Rows carried along bisection chains against a fresh build.

A mesh made by `bisect` takes over the arrays cached on its parent (the
barycentric gradients, the dual system, the data at the element quadrature
nodes, the field parts of the interpolation) with the rows of its kept
elements and faces, and computes only the new rows; the star oscillations
take the values of stars without a new element from the parent's, when the
parent priced them at the same kappa and depth.  A parentless copy of the
same mesh computes every row; both must agree, on random newest-vertex
bisection chains over the corpus, for kappa across 1e-8 ... 1e10 and for
smooth and layer data.  The field part of the star loads is carried per
element as well, bit for bit.  Discrete functions prolongate exactly along
the same chains.
"""

import pathlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdafem import estimator, galerkin
from rdafem.dual_system import dual_faces_key, get_dual_system, project_pi
from rdafem.estimator import all_oscillations, discrete_dual_norm, star_loads
from rdafem.mesh import (Mesh, bisect, l_shape, load_mesh, uniform_refine,
                         unit_square_2tri, unit_square_crisscross)

REPO = pathlib.Path(__file__).resolve().parent.parent
RTOL = 1e-13
KAPPAS = (1e-8, 1.0, 1e4, 1e10)
MESHES = {
    "square2": unit_square_2tri,
    "crisscross": unit_square_crisscross,
    "lshape": l_shape,
    "square_64": lambda: load_mesh(str(REPO / "meshes" / "square_64.msh")),
    "lshape_24": lambda: load_mesh(str(REPO / "meshes" / "lshape_24.msh")),
}
# layer1d is posed on the unit square
UNIT_SQUARE = ("square2", "crisscross", "square_64")
SYSTEM_ARRAYS = ("thetas", "gammas")


@st.composite
def chains(draw):
    name = draw(st.sampled_from(sorted(MESHES)))
    data = draw(st.sampled_from(("sinsin", "layer1d") if name in UNIT_SQUARE
                                else ("sinsin",)))
    kappa = draw(st.sampled_from(KAPPAS))
    seed = draw(st.integers(0, 2**32 - 1))
    fractions = draw(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=4))
    return name, data, kappa, seed, fractions


def price(mesh, kappa, field):
    """The carried arrays of one mesh, computed through the public entry
    points, and its dual system."""
    system = get_dual_system(mesh, kappa)
    pi = project_pi(mesh, kappa, field)
    rows = galerkin.field_rows(mesh, field)
    arrays = {name: getattr(system, name) for name in SYSTEM_ARRAYS}
    arrays.update(bary_grads=galerkin.element_bary_grads(mesh), load=rows.load,
                  mean=rows.mean,
                  field_load=galerkin.field_load(mesh, field),
                  pi_cell=pi.cell_density, pi_face=pi.face_density)
    return arrays, system


def new_faces(system):
    """The face rows of the dual system its mesh computed, not carried."""
    return len(system.mesh.cache[dual_faces_key(system.kappa, system.quad_degree)].new)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(chains())
def test_carried_rows_equal_a_fresh_build(chain):
    name, data, kappa, seed, fractions = chain
    mesh = MESHES[name]()
    field = galerkin.make_problem(mesh, kappa, data).rhs
    price(mesh, kappa, field)
    rng = np.random.default_rng(seed)
    for fraction in fractions:
        marks = rng.choice(mesh.n_elements, max(1, int(fraction * mesh.n_elements)),
                           replace=False)
        child = bisect(mesh, marks)
        carried, system = price(child, kappa, field)
        fresh, fresh_system = price(
            Mesh(child.vertices, child.elements, ref_edge_policy="asis"), kappa, field)
        new = np.nonzero(child.parent_elements < 0)[0]
        assert np.array_equal(galerkin.field_rows(child, field).new, new)
        # the gradients of kept elements are the parent's, bit for bit
        assert np.array_equal(child.cache[("bary_grads",)].new, new)
        assert np.array_equal(carried["bary_grads"], fresh["bary_grads"])
        assert new_faces(fresh_system) == len(fresh_system.iface)
        assert np.array_equal(system.adj, fresh_system.adj)
        for key, want in fresh.items():
            got = carried[key]
            assert got.shape == want.shape, key
            assert np.abs(got - want).max(initial=0.0) <= (
                RTOL * np.abs(want).max(initial=0.0)), key
        mesh = child


def test_parent_map_keeps_kept_rows_and_counts_new_faces():
    mesh = uniform_refine(unit_square_2tri(), 2)
    field = galerkin.make_problem(mesh, 10.0, "sinsin").rhs
    price(mesh, 10.0, field)
    child = bisect(mesh, [0])
    _, system = price(child, 10.0, field)
    kept = child.parent_elements >= 0
    new = galerkin.field_rows(child, field).new
    assert 0 < len(new) == (~kept).sum() < child.n_elements
    parent_iface = child.parent_faces[system.iface]
    assert new_faces(system) == (parent_iface < 0).sum() > 0
    old = get_dual_system(mesh, 10.0)
    kept_faces = parent_iface >= 0
    assert np.array_equal(system.gammas[kept_faces],
                          old.gammas[np.searchsorted(old.iface, parent_iface[kept_faces])])
    # a field the parent never paired is priced in full on the child, also
    # where the parent holds its node values but no dual system for kappa
    fresh = Mesh(child.vertices, child.elements, ref_edge_policy="asis")
    other = galerkin.ScalarField(lambda x, y: np.exp(x - 2.0 * y))
    galerkin.field_load(mesh, other)
    for kappa in (10.0, 3.0):
        got = project_pi(child, kappa, other)
        want = project_pi(fresh, kappa, other)
        assert np.abs(got.cell_density - want.cell_density).max() <= (
            RTOL * np.abs(want.cell_density).max())
        assert np.abs(got.face_density - want.face_density).max() <= (
            RTOL * np.abs(want.face_density).max())


def test_make_problem_on_a_child_reprices_only_its_new_elements():
    # the preset's fields are the same objects for the same float kappa, so
    # a problem posed afresh on a child finds the rows its parent cached
    mesh = uniform_refine(unit_square_2tri(), 3)
    parent = galerkin.make_problem(mesh, 1e4, "layer1d")
    price(mesh, 1e4, parent.rhs)
    child = bisect(mesh, [0, 5])
    problem = galerkin.make_problem(child, 10_000, "layer1d")
    assert problem.rhs is parent.rhs and problem.exact is parent.exact
    new = np.nonzero(child.parent_elements < 0)[0]
    assert 0 < len(new) < child.n_elements
    price(child, problem.kappa, problem.rhs)
    assert np.array_equal(galerkin.field_rows(child, problem.rhs).new, new)


def test_child_holds_its_parent_weakly():
    mesh = uniform_refine(unit_square_2tri(), 1)
    get_dual_system(mesh, 1.0)
    child = bisect(mesh, [0])
    assert child.parent is mesh
    ref = weakref.ref(mesh)
    del mesh
    assert ref() is None and child.parent is None
    # the child took the parent's rows at bisection: with the parent gone it
    # still builds only its new rows, and its rows are those of a fresh build
    system = get_dual_system(child, 1.0)
    fresh = get_dual_system(Mesh(child.vertices, child.elements, ref_edge_policy="asis"), 1.0)
    assert 0 < new_faces(system) < len(system.iface) == new_faces(fresh)
    for name in SYSTEM_ARRAYS:
        assert np.array_equal(getattr(system, name), getattr(fresh, name)), name


ERROR_ARRAYS = ("grad_mean", "grad_spread", "proj", "proj_residual")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(chains())
def test_carried_error_rows_equal_a_fresh_build(chain):
    name, data, kappa, seed, fractions = chain
    mesh = MESHES[name]()
    problem = galerkin.make_problem(mesh, kappa, data)
    galerkin.field_rows(mesh, problem.rhs)
    rng = np.random.default_rng(seed)
    for fraction in fractions:
        marks = rng.choice(mesh.n_elements, max(1, int(fraction * mesh.n_elements)),
                           replace=False)
        child = bisect(mesh, marks)
        carried = galerkin.field_rows(child, problem.rhs)
        fresh_mesh = Mesh(child.vertices, child.elements, ref_edge_policy="asis")
        fresh = galerkin.field_rows(fresh_mesh, problem.rhs)
        for key in ERROR_ARRAYS:
            got, want = getattr(carried, key), getattr(fresh, key)
            assert got.shape == want.shape, key
            assert np.abs(got - want).max(initial=0.0) <= (
                RTOL * np.abs(want).max(initial=0.0)), key
        # and the errors of one discrete function through both
        values = rng.standard_normal(child.n_vertices)
        got, want = (galerkin.energy_error_sq_elements(
            problem.on_mesh(m), galerkin.DiscreteFunction(m, values)) for m in (child, fresh_mesh))
        assert np.abs(got - want).max() <= RTOL * np.abs(want).max()
        mesh = child


def oscillations(mesh, kappa, field, depth):
    interpolated = project_pi(mesh, kappa, field)
    return all_oscillations(galerkin.Problem(mesh, kappa, field), interpolated, depth)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(chains(), st.integers(1, 3))
def test_carried_oscillations_equal_a_fresh_pricing(chain, depth):
    # along a chain each child reprices only the stars of its new elements
    # and takes the others from its parent's values; a parentless copy
    # prices every star.  They agree to 1e-12 relative or 1e-13 of the
    # largest value (the NOISE rule of the star tests)
    name, data, kappa, seed, fractions = chain
    mesh = MESHES[name]()
    field = galerkin.make_problem(mesh, kappa, data).rhs
    oscillations(mesh, kappa, field, depth)
    rng = np.random.default_rng(seed)
    for fraction in fractions:
        marks = rng.choice(mesh.n_elements, max(1, int(fraction * mesh.n_elements)),
                           replace=False)
        child = bisect(mesh, marks)
        osc = oscillations(child, kappa, field, depth)
        fresh = oscillations(Mesh(child.vertices, child.elements, ref_edge_policy="asis"),
                             kappa, field, depth)
        assert osc.shape == fresh.shape
        noise = np.maximum(1e-12 * np.abs(fresh), 1e-13 * np.abs(fresh).max())
        assert (np.abs(osc - fresh) <= noise).all(), np.abs(osc - fresh).max()
        mesh = child


@pytest.mark.parametrize("kappa, depth, carried", [
    (10.0, 2, True), (1.0, 2, False), (10.0, 1, False)])
def test_oscillations_carry_only_from_the_same_kappa_and_depth(monkeypatch, kappa,
                                                                depth, carried):
    # the parent priced its stars at (kappa, depth); a child priced at
    # kappa 10 and depth 2 takes values only from the same pair
    mesh = uniform_refine(unit_square_crisscross(), 2)
    field = galerkin.make_problem(mesh, 10.0, "sinsin").rhs
    oscillations(mesh, kappa, field, depth)
    child = bisect(mesh, [0, 5])
    priced = []

    def counting(mesh, vertices, *args):
        priced.append(len(vertices))
        return discrete_dual_norm(mesh, vertices, *args)

    monkeypatch.setattr(estimator, "discrete_dual_norm", counting)
    got = oscillations(child, 10.0, field, 2)
    new_stars = len(np.unique(child.elements[child.parent_elements < 0]))
    assert priced == [new_stars if carried else child.n_vertices]
    assert new_stars < child.n_vertices
    fresh = oscillations(Mesh(child.vertices, child.elements, ref_edge_policy="asis"),
                         10.0, field, 2)
    noise = np.maximum(1e-12 * np.abs(fresh), 1e-13 * np.abs(fresh).max())
    assert (np.abs(got - fresh) <= noise).all(), np.abs(got - fresh).max()


def loads_key(field, depth):
    return ("star_loads", field, depth, galerkin.DEFAULT_DEGREE)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(chains(), st.integers(2, 3))
def test_carried_star_loads_equal_a_parentless_build(chain, depth):
    # each row depends on its element alone, rounding included, so a
    # child's rows (new ones built in blocks, kept ones the parent's) are
    # the rows of a fresh build of the same mesh, bit for bit
    name, data, kappa, seed, fractions = chain
    mesh = MESHES[name]()
    field = galerkin.make_problem(mesh, kappa, data).rhs
    star_loads(mesh, field, depth)
    rng = np.random.default_rng(seed)
    for fraction in fractions:
        marks = rng.choice(mesh.n_elements, max(1, int(fraction * mesh.n_elements)),
                           replace=False)
        child = bisect(mesh, marks)
        fresh = Mesh(child.vertices, child.elements, ref_edge_policy="asis")
        for m in (child, fresh):
            star_loads(m, field, depth)
        carried, built = (m.cache[loads_key(field, depth)] for m in (child, fresh))
        # the rows moved to the child: the parent no longer holds them
        assert loads_key(field, depth) not in mesh.cache
        assert np.array_equal(carried.new, np.flatnonzero(child.parent_elements < 0))
        assert len(built.new) == child.n_elements
        assert np.array_equal(carried.loads, built.loads)
        mesh = child


def test_pricing_a_few_stars_caches_no_star_loads():
    # verify's stability samples price single stars of fresh fields: the
    # field is evaluated on the stars' elements only, and nothing is kept
    mesh = uniform_refine(l_shape(), 2)
    field = galerkin.make_problem(mesh, 1.0, "sinsin").rhs
    evaluated = []

    def value(x, y):
        evaluated.append(x.shape[0])
        return field.value(x, y)

    fresh = galerkin.ScalarField(value)
    for depth in (2, 3):
        discrete_dual_norm(mesh, [7], fresh, 1.0, depth)
        assert loads_key(fresh, depth) not in mesh.cache
    assert evaluated == [len(mesh.star(7))] * 2
    assert not any(key[0] == "star_loads" for key in mesh.cache if isinstance(key, tuple))


@pytest.mark.parametrize("depth", [2, 3])
def test_oscillations_with_carried_star_loads_equal_a_fresh_pricing(depth):
    # at another kappa the child prices every star, reading the loads of
    # its kept elements from the parent's rows
    mesh = uniform_refine(l_shape(), 2)
    field = galerkin.make_problem(mesh, 1.0, "sinsin").rhs
    oscillations(mesh, 1.0, field, depth)
    child = bisect(mesh, np.arange(0, mesh.n_elements, 3))
    got = oscillations(child, 30.0, field, depth)
    rows = child.cache[loads_key(field, depth)]
    assert 0 < len(rows.new) < child.n_elements
    fresh = oscillations(Mesh(child.vertices, child.elements, ref_edge_policy="asis"),
                         30.0, field, depth)
    noise = np.maximum(1e-12 * np.abs(fresh), 1e-13 * np.abs(fresh).max())
    assert (np.abs(got - fresh) <= noise).all(), np.abs(got - fresh).max()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(MESHES)), st.integers(0, 2**32 - 1),
       st.lists(st.floats(0.0, 0.5), min_size=1, max_size=4))
def test_prolongate_is_exact_through_bisection_chains(name, seed, fractions):
    mesh = MESHES[name]()
    rng = np.random.default_rng(seed)
    U = galerkin.DiscreteFunction(mesh, rng.standard_normal(mesh.n_vertices))
    start = U.values.copy()
    for fraction in fractions:
        marks = rng.choice(mesh.n_elements, max(1, int(fraction * mesh.n_elements)),
                           replace=False)
        child = bisect(mesh, marks)
        V = galerkin.prolongate(U, child)
        n = mesh.n_vertices
        assert np.array_equal(V.values[:n], U.values)
        for i, (a, b) in enumerate(child.new_vertex_parents):
            assert np.array_equal(child.vertices[n + i],
                                  (mesh.vertices[a] + mesh.vertices[b]) / 2)
            assert V.values[n + i] == (U.values[a] + U.values[b]) / 2
        mesh, U = child, V
    assert np.array_equal(U.values[:len(start)], start)
