import gc
import weakref

import numpy as np
import pytest

from rdafem import adapt
from rdafem import estimator as est
from rdafem import galerkin as g
from rdafem.dual_system import project_pi
from rdafem.mesh import uniform_refine, unit_square_2tri, unit_square_crisscross
from oracles import gauss_simplex, star_true_error_sq, vertex_indicators_add_at
from patch_oracle import PatchSpace


def _solved(mesh, kappa, preset="sinsin"):
    problem = g.make_problem(mesh, kappa, preset)
    return problem, g.solve(problem)


def test_weights_clip_at_reaction_length():
    m = uniform_refine(unit_square_2tri(), 2)
    assert np.allclose(est.weight_elements(m, 1.0), m.h_elem)
    assert np.allclose(est.weight_faces(m, 1.0), m.h_face)
    assert np.allclose(est.weight_elements(m, 1e6), 1e-6)
    assert np.allclose(est.weight_faces(m, 1e6), 1e-6)


def test_residual_coefficients():
    m = unit_square_crisscross()
    problem, U = _solved(m, 3.0)
    interp = project_pi(m, 3.0, problem.rhs)
    rd = est.residuals(problem, U, interp)
    expect_cell = interp.cell_density - 9.0 * U.values[m.elements]
    assert np.allclose(rd.cell_density, expect_cell, atol=1e-14)
    assert np.all(rd.face_density[~m.interior_face] == 0.0)
    jumps = g.grad_jumps(m, U)
    inner = m.interior_face
    assert np.allclose(rd.face_density[inner], interp.face_density[inner] - jumps[inner],
                       atol=1e-13)


def test_cell_norm_formula_vs_quadrature():
    m = unit_square_crisscross()
    rng = np.random.default_rng(5)
    cell = rng.standard_normal((m.n_elements, 3))
    rd = g.PiecewiseFunctional(m, cell, np.zeros(m.n_faces))
    got = rd.cell_norms_sq()
    for e in range(m.n_elements):
        coords = m.element_coords(e)

        def sq(x, y):
            lam = m.barycentric(e, np.column_stack([x, y]))
            return (lam @ cell[e]) ** 2

        oracle = gauss_simplex(coords, 6, sq)
        assert np.isclose(got[e], oracle, rtol=1e-13)


def test_single_vertex_indicator_matches_vectorized():
    m = uniform_refine(unit_square_2tri(), 3)
    problem, U = _solved(m, 40.0)
    interp = project_pi(m, 40.0, problem.rhs)
    rd = est.residuals(problem, U, interp)
    E = est.vertex_indicators(rd, 40.0)
    elem_sq = est.weight_elements(m, 40.0) ** 2 * rd.cell_norms_sq()
    face_sq = est.weight_faces(m, 40.0) * rd.face_norms_sq()
    for z in (0, 7, m.n_vertices - 1):
        # star sums over the elements and the faces through z
        faces = np.nonzero((m.faces == z).any(axis=1))[0]
        expect = (np.sqrt(elem_sq[m.star(z)].sum())
                  + np.sqrt(face_sq[faces].sum()))
        assert np.isclose(E[z], expect, rtol=1e-13)


@pytest.mark.parametrize("kappa", [1.0, 1e2, 1e4])
def test_vertex_indicators_sum_like_add_at_bit_for_bit(corpus, kappa):
    # Dörfler marking sees the last bit of near-tied indicators, so the
    # per-vertex sums keep the scatter's order: elements, then faces, ascending
    rng = np.random.default_rng(22)
    for _, m in corpus:
        r = g.PiecewiseFunctional(m, rng.standard_normal((m.n_elements, 3)),
                                  np.where(m.interior_face, rng.standard_normal(m.n_faces), 0.0))
        assert np.array_equal(est.vertex_indicators(r, kappa),
                              vertex_indicators_add_at(r, kappa))


def test_classic_piecewise_uses_coefficient_mean():
    m = unit_square_crisscross()
    rng = np.random.default_rng(11)
    cell = rng.standard_normal((m.n_elements, 3))
    f = g.PiecewiseFunctional(m, cell, np.zeros(m.n_faces))
    problem = g.Problem(m, 2.0, f)
    U = g.DiscreteFunction(m, np.zeros(m.n_vertices))
    got = est.classic_indicators(problem, U)
    w2 = est.weight_elements(m, 2.0) ** 2
    mean = cell.mean(axis=1)
    expect = w2 * (m.areas / 12.0) * (3.0 * mean**2 + (3.0 * mean) ** 2)
    assert np.allclose(got, expect, rtol=1e-13)


def test_classic_jump_parts_sum_to_face_total():
    # each interior face is shared by two elements at weight 1/2, so summing
    # the per-element jump terms recovers the plain face total
    m = uniform_refine(unit_square_2tri(), 2)
    kappa = 2.0
    rng = np.random.default_rng(7)
    cell = rng.standard_normal((m.n_elements, 3))
    problem = g.Problem(m, kappa, g.PiecewiseFunctional(m, cell, np.zeros(m.n_faces)))
    vals = np.where(m.boundary_vertex, 0.0, rng.standard_normal(m.n_vertices))
    U = g.DiscreteFunction(m, vals)
    got = est.classic_indicators(problem, U)
    coeffs = cell.mean(axis=1)[:, None] - kappa**2 * U.values[m.elements]
    vol = est.weight_elements(m, kappa) ** 2 * g._p1_mass_sq(m.areas, coeffs)
    jumps_sq = g.grad_jumps(m, U) ** 2 * m.face_len * est.weight_faces(m, kappa)
    assert np.isclose((got - vol).sum(), jumps_sq[m.interior_face].sum(),
                      rtol=1e-12)


def test_patch_vertex_count_formula():
    m = uniform_refine(unit_square_2tri(), 2)
    for depth in (0, 1, 2, 3):
        space = PatchSpace(m, np.arange(m.n_elements), depth)
        k = 2**depth - 1
        expect = m.n_vertices + m.n_faces * k + m.n_elements * k * (k - 1) // 2
        assert len(space.coords) == expect
        # every sub-triangle has positive area and parents partition
        assert (space.areas > 0).all()
        assert np.isclose(space.areas.sum(), m.areas.sum(), rtol=1e-13)


def test_patch_free_vertices_are_interior():
    m = uniform_refine(unit_square_2tri(), 2)
    z = int(np.nonzero(~m.boundary_vertex)[0][0])
    space = PatchSpace(m, m.star(z), 0)
    # at depth zero the only interior vertex of a star is its center
    assert len(space.free) == 1
    assert np.allclose(space.coords[space.free[0]], m.vertices[z])


def test_depth_zero_equals_algebraic_dual_norm():
    m = uniform_refine(unit_square_2tri(), 2)
    problem, U = _solved(m, 7.0)
    b = g.load_vector(problem)
    sys_ = g.assemble(m, 7.0)
    free = m.free_vertices()
    w = np.linalg.solve(sys_.matrix.toarray(), b[free])
    algebraic = np.sqrt(w @ (sys_.matrix.toarray() @ w))
    got = est.global_dual_norm(m, problem.rhs, 7.0, depth=0)
    assert np.isclose(got, algebraic, rtol=1e-12)


def test_dual_norm_monotone_in_depth():
    m = uniform_refine(unit_square_2tri(), 2)
    problem, U = _solved(m, 7.0)
    src = g.residual_source(problem, U)
    vals = [est.global_dual_norm(m, src, 7.0, depth=d) for d in range(4)]
    assert vals[0] >= 0.0
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-13
    assert vals[3] > vals[0]


def test_patch_load_partition_of_unity():
    m = uniform_refine(unit_square_2tri(), 1)
    space = PatchSpace(m, np.arange(m.n_elements), 2)
    f = g.ScalarField(lambda x, y: np.cos(x) * (1 + y))
    src = g.SourceFunctional(m, field=f)
    # hats sum to one, so the load entries sum to the plain integral of f
    load = space.load(src)
    exact = sum(gauss_simplex(m.element_coords(e), 10,
                              lambda x, y: f.value(x, y))
                for e in range(m.n_elements))
    assert np.isclose(load.sum(), exact, rtol=1e-12)


def test_patch_load_face_source_total():
    m = unit_square_crisscross()
    face = int(np.nonzero(m.interior_face)[0][0])
    dens = np.zeros(m.n_faces)
    dens[face] = 2.5
    piece = g.PiecewiseFunctional(m, np.zeros((m.n_elements, 3)), dens)
    src = g.SourceFunctional(m, piecewise=piece)
    for depth in (1, 3):
        space = PatchSpace(m, np.arange(m.n_elements), depth)
        load = space.load(src)
        assert np.isclose(load.sum(), 2.5 * m.face_len[face], rtol=1e-13)


def test_oscillation_vanishes_for_piecewise_data():
    m = uniform_refine(unit_square_2tri(), 1)
    rng = np.random.default_rng(3)
    cell = rng.standard_normal((m.n_elements, 3))
    dens = np.where(m.interior_face, rng.standard_normal(m.n_faces), 0.0)
    f = g.PiecewiseFunctional(m, cell, dens)
    problem = g.Problem(m, 5.0, f)
    interp = project_pi(m, 5.0, f)
    osc = est.all_oscillations(problem, interp)
    assert np.abs(osc).max() < 1e-10


def test_localize_check_window_and_guard():
    m = uniform_refine(unit_square_2tri(), 2)
    problem, U = _solved(m, 10.0)
    rep = est.localize_check(problem, U)
    assert 0.2 <= rep.ratio <= 20.0
    assert rep.local_sum >= rep.global_norm - 1e-12
    bad = g.DiscreteFunction(m, U.values.copy())
    bad.values[m.free_vertices()[0]] += 1e-2
    with pytest.raises(ValueError, match="not orthogonal"):
        est.localize_check(problem, bad)


def test_star_errors_triple_count_elements():
    m = uniform_refine(unit_square_2tri(), 2)
    problem, U = _solved(m, 10.0)
    star_sq = star_true_error_sq(problem, U)
    e2 = g.energy_error_sq_elements(problem, U)
    assert np.isclose(star_sq.sum(), 3.0 * e2.sum(), rtol=1e-13)
    z = int(np.nonzero(~m.boundary_vertex)[0][0])
    assert np.isclose(star_sq[z], e2[m.star(z)].sum(), rtol=1e-13)


def test_report_aggregates():
    m = uniform_refine(unit_square_2tri(), 2)
    problem = g.make_problem(m, 10.0, "sinsin")
    run = adapt.adaptive_loop(problem, max_dof=-1, keep_meshes=True)
    assert len(run.records) == 1 and run.stop_reason == "max_dof reached"
    rec = run.final
    assert np.isclose(rec["estimator"], np.sqrt((run.E**2).sum()), rtol=1e-14)
    assert np.isclose(rec["oscillation"], np.sqrt((run.osc**2).sum()), rtol=1e-14)
    assert np.isclose(rec["total"]**2, rec["estimator"]**2 + rec["oscillation"]**2,
                      rtol=1e-13)
    classic_sq = est.classic_indicators(problem, run.solutions[0])
    assert np.isclose(rec["classic"], np.sqrt(classic_sq.sum()), rtol=1e-14)
    assert rec["error"] > 0
    assert np.isclose(rec["effectivity"], rec["total"] / rec["error"], rtol=1e-14)


def test_report_on_mesh_bound_data_leaves_the_mesh_to_reference_counting():
    # a PiecewiseFunctional holds its mesh: cached on the mesh, it would
    # make a cycle that only the cyclic garbage collector frees
    m = uniform_refine(unit_square_2tri(), 2)
    rng = np.random.default_rng(4)
    f = g.PiecewiseFunctional(m, rng.standard_normal((m.n_elements, 3)),
                              np.where(m.interior_face, rng.standard_normal(m.n_faces), 0.0))
    problem = g.Problem(m, 5.0, f)
    U = g.solve(problem)
    interpolated = project_pi(m, 5.0, f)
    est.vertex_indicators(est.residuals(problem, U, interpolated), 5.0)
    est.classic_indicators(problem, U)
    assert (est.all_oscillations(problem, interpolated) > 0.0).any()
    ref = weakref.ref(m)
    gc.disable()
    try:
        del m, f, problem, U, interpolated
        assert ref() is None
    finally:
        gc.enable()


def test_estimator_exact_on_operator_images():
    # f := L(U) makes the residual vanish coefficientwise, so E = 0 exactly,
    # while the classical indicator still sees the gradient jumps of U
    m = uniform_refine(unit_square_2tri(), 2)
    kappa = 100.0
    rng = np.random.default_rng(8)
    vals = np.where(m.boundary_vertex, 0.0, rng.standard_normal(m.n_vertices))
    U = g.DiscreteFunction(m, vals)
    f = g.apply_operator(m, kappa, U)
    problem = g.Problem(m, kappa, f)
    interp = project_pi(m, kappa, f)
    rd = est.residuals(problem, U, interp)
    scale = max(1.0, f.coeff_scale())
    assert np.abs(rd.cell_density).max() / scale < 1e-13
    assert np.abs(rd.face_density).max() / scale < 1e-13
    assert est.classic_indicators(problem, U).sum() > 1e-8
