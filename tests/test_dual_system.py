import numpy as np
import pytest

from rdafem import adapt
from rdafem import dual_system as ds
from rdafem import galerkin as g
from rdafem import verify
from rdafem.mesh import (MeshError, uniform_refine, unit_square_2tri,
                         unit_square_crisscross)
from rdafem.quadrature import gauss_edge, map_to_triangle, simplex_rule

from memtrace import peak_bytes

SMALL_KAPPAS = (1.0, 1e2, 1e4)


def _edge_int(mesh, face, evaluator, degree=8):
    a, b = mesh.vertices[mesh.faces[face]]
    return gauss_edge(a, b, degree,
                      lambda x, y: evaluator(np.column_stack([x, y])))


def _face_dual(mesh, face, kappa):
    return verify.FaceDualFunction(ds.get_dual_system(mesh, kappa), face)


def _hat_functional(mesh, vertex):
    cell = np.zeros((mesh.n_elements, 3))
    cell[mesh.elements == vertex] = 1.0
    return g.PiecewiseFunctional(mesh, cell, np.zeros(mesh.n_faces))


def test_psi_closed_form():
    # the dual weights solve to (900 lam_z - 360 lam_y - 360 lam_w)/|T|
    m = uniform_refine(unit_square_2tri(), 1)
    system = ds.get_dual_system(m, 1.0)
    for e in range(m.n_elements):
        duals = verify.element_duals(system, e)
        for z in range(3):
            expect = np.full(3, -360.0)
            expect[z] = 900.0
            assert np.allclose(duals[z].psi * m.areas[e], expect, rtol=1e-11)


def test_element_duality_pattern():
    m = unit_square_crisscross()
    system = ds.get_dual_system(m, 1.0)
    for e in range(m.n_elements):
        duals = verify.element_duals(system, e)
        hats = np.eye(3)
        for z in range(3):
            for y in range(3):
                hat = g.PiecewiseFunctional(m, np.zeros((m.n_elements, 3)),
                                            np.zeros(m.n_faces))
                hat.cell_density[e] = hats[y]
                val = verify.pair(hat, duals[z])
                assert abs(val - (1.0 if y == z else 0.0)) < 1e-13


def test_unit_density_pairs_to_one():
    # <1, phi*_{z;T}> = 1: the constant is the sum of the three hats
    m = uniform_refine(unit_square_2tri(), 2)
    one = g.ScalarField(lambda x, y: np.ones_like(x))
    system = ds.get_dual_system(m, 1.0)
    for e in (0, 5):
        for dual in verify.element_duals(system, e):
            assert abs(verify.pair(one, dual) - 1.0) < 1e-12


def test_face_bubble_integrals():
    m = unit_square_crisscross()
    face = np.nonzero(m.interior_face)[0][1]
    for kappa in (1.0, 1e3):
        fd = _face_dual(m, face, kappa)
        assert np.isclose(fd.int_bubble, m.face_len[face] / 6.0, rtol=1e-14)
        got = _edge_int(m, face, fd.bubble_value)
        assert np.isclose(got, m.face_len[face] / 6.0, rtol=1e-12)
        # area integral over each squeezed support is theta |T| / 12
        for coords, theta, e in zip(fd.sq_coords, fd.thetas, fd.elements):
            pts, w = map_to_triangle(simplex_rule(6), coords)
            assert np.isclose(w @ fd.bubble_value(pts),
                              theta * m.areas[e] / 12.0, rtol=1e-10)


def test_face_bubble_trace_theta_independent():
    m = unit_square_crisscross()
    face = np.nonzero(m.interior_face)[0][0]
    a, b = m.vertices[m.faces[face]]
    t = np.linspace(0.05, 0.95, 9)[:, None]
    pts = a + t * (b - a)
    ref = _face_dual(m, face, 1.0).bubble_value(pts)
    for kappa in (10.0, 1e4):
        assert np.allclose(_face_dual(m, face, kappa).bubble_value(pts),
                           ref, atol=1e-12)
    # and it is the product of the face parameters
    assert np.allclose(ref, (t * (1 - t)).ravel(), atol=1e-12)


def test_boundary_face_has_no_dual():
    m = unit_square_crisscross()
    boundary = np.nonzero(~m.interior_face)[0][0]
    with pytest.raises(MeshError):
        _face_dual(m, boundary, 1.0)


@pytest.mark.parametrize("kappa", SMALL_KAPPAS)
def test_biorthogonality_all_pairs(kappa):
    m = uniform_refine(unit_square_2tri(), 2)
    system = ds.get_dual_system(m, kappa)
    interior = np.nonzero(m.interior_face)[0]
    worst = 0.0
    for face in interior:
        fd = verify.FaceDualFunction(system, face)
        # (b) face Diracs against phi*_F: identity pattern
        worst = max(worst, abs(_edge_int(m, face, fd) - 1.0))
        for other in interior:
            if other != face and np.intersect1d(
                    m.face_elems[other], m.face_elems[face]).size:
                worst = max(worst, abs(_edge_int(m, other, fd)))
        # (c) hats against phi*_F vanish
        for y in np.unique(m.elements[m.face_elems[face]]):
            worst = max(worst, abs(verify.pair(_hat_functional(m, y), fd)))
        # (a)-cross: face Diracs against element duals vanish
        for e in m.face_elems[face]:
            for dual in verify.element_duals(system, e):
                worst = max(worst, abs(_edge_int(m, face, dual)))
    assert worst < 1e-12


@pytest.mark.parametrize("kappa", SMALL_KAPPAS)
def test_invariance_on_random_functionals(kappa):
    m = uniform_refine(unit_square_2tri(), 3)
    rng = np.random.default_rng(17)
    for _ in range(5):
        cell = rng.standard_normal((m.n_elements, 3))
        face = np.where(m.interior_face, rng.standard_normal(m.n_faces), 0.0)
        f = g.PiecewiseFunctional(m, cell, face)
        back = ds.project_pi(m, kappa, f)
        scale = max(1.0, f.coeff_scale())
        assert (back - f).coeff_scale() / scale < 1e-12


@pytest.mark.parametrize("kappa", SMALL_KAPPAS)
def test_invariance_on_operator_images(kappa):
    m = uniform_refine(unit_square_2tri(), 3)
    rng = np.random.default_rng(23)
    for _ in range(5):
        vals = np.where(m.boundary_vertex, 0.0, rng.standard_normal(m.n_vertices))
        f = g.apply_operator(m, kappa, g.DiscreteFunction(m, vals))
        back = ds.project_pi(m, kappa, f)
        scale = max(1.0, f.coeff_scale())
        assert (back - f).coeff_scale() / scale < 1e-12


def test_projection_of_constant():
    m = uniform_refine(unit_square_2tri(), 2)
    one = g.ScalarField(lambda x, y: np.ones_like(x))
    out = ds.project_pi(m, 1e3, one)
    assert np.allclose(out.cell_density, 1.0, atol=1e-13)
    assert np.allclose(out.face_density, 0.0, atol=1e-13)


def test_projection_linearity():
    m = unit_square_crisscross()
    rng = np.random.default_rng(31)
    a = g.PiecewiseFunctional(m, rng.standard_normal((4, 3)),
                              np.where(m.interior_face, rng.standard_normal(8), 0.0))
    b = g.PiecewiseFunctional(m, rng.standard_normal((4, 3)),
                              np.where(m.interior_face, rng.standard_normal(8), 0.0))
    lhs = ds.project_pi(m, 10.0, 2.0 * a - b)
    rhs = 2.0 * ds.project_pi(m, 10.0, a) - ds.project_pi(m, 10.0, b)
    assert (lhs - rhs).coeff_scale() < 1e-13


def test_theta_factor():
    assert ds.theta_factor(0.5, 1.0) == 1.0
    assert np.isclose(ds.theta_factor(0.5, 10.0), 0.2)
    assert ds.theta_factor(1e-3, 1.0) == 1.0


def test_dual_system_rows_cached_per_kappa_and_degree():
    # each call builds a view; its arrays are computed once per (kappa,
    # degree) and cached on the mesh, which holds arrays only, no view
    m = unit_square_crisscross()
    problem = g.make_problem(m, 2.0, "sinsin")
    first, again = ds.get_dual_system(m, 2.0), ds.get_dual_system(m, 2.0)
    assert first is not again and again.mesh is m
    assert again.thetas is first.thetas and again.gammas is first.gammas
    assert len(m.cache[ds.dual_faces_key(2.0, first.quad_degree)].new) == len(first.iface)
    assert (again._psi_pair_field(problem.rhs)
            is first._psi_pair_field(problem.rhs))
    for other in (ds.get_dual_system(m, 3.0), ds.get_dual_system(m, 2.0, 4)):
        assert other.thetas is not first.thetas
        assert (other._psi_pair_field(problem.rhs)
                is not first._psi_pair_field(problem.rhs))
    adapt.adaptive_loop(problem, max_dof=-1)  # one pass fills the cache
    for rows in m.cache.values():
        assert isinstance(rows.new, np.ndarray)
        assert all(isinstance(a, np.ndarray) for a in vars(rows).values())


def test_pair_elements_matches_pair():
    m = unit_square_crisscross()
    problem = g.make_problem(m, 7.0, "sinsin")
    system = ds.get_dual_system(m, 7.0)
    bulk = system.pair_elements(problem.rhs)
    for e in (0, 2):
        duals = verify.element_duals(system, e)
        for z in range(3):
            assert np.isclose(bulk[e, z], verify.pair(problem.rhs, duals[z]),
                              rtol=1e-12)


def test_pair_faces_matches_pair():
    m = uniform_refine(unit_square_2tri(), 1)
    problem = g.make_problem(m, 5.0, "sinsin")
    system = ds.get_dual_system(m, 5.0)
    bulk = system.pair_faces(problem.rhs, system.pair_elements(problem.rhs))
    for pos, face in enumerate(system.iface):
        direct = verify.pair(problem.rhs, verify.FaceDualFunction(system, face))
        assert np.isclose(bulk[pos], direct, rtol=1e-11, atol=1e-13)


def test_element_dual_energy_norm_frozen():
    m = uniform_refine(unit_square_2tri(), 2)
    got = verify.element_dual_energy_norm(ds.get_dual_system(m, 1.0), 3, 1)
    assert np.isclose(got, 251.95918036743282, rtol=1e-12)


def test_face_dual_energy_norm_frozen():
    m = uniform_refine(unit_square_2tri(), 2)
    face = int(np.nonzero(m.interior_face)[0][2])
    assert np.isclose(verify.face_dual_energy_norm(ds.get_dual_system(m, 1.0), face),
                      11.174204989298216, rtol=1e-10)
    assert np.isclose(verify.face_dual_energy_norm(ds.get_dual_system(m, 30.0), face),
                      22.9269157725878, rtol=1e-10)


def test_element_dual_energy_scaling():
    # norm grows linearly in kappa once the reaction term dominates
    m = uniform_refine(unit_square_2tri(), 2)
    n1 = verify.element_dual_energy_norm(ds.get_dual_system(m, 1e3), 0, 0)
    n2 = verify.element_dual_energy_norm(ds.get_dual_system(m, 1e4), 0, 0)
    assert np.isclose(n2 / n1, 10.0, rtol=1e-2)


def test_face_dual_energy_robust_in_kappa():
    # thanks to the squeeze the norm grows like sqrt(kappa), not kappa
    m = uniform_refine(unit_square_2tri(), 2)
    face = int(np.nonzero(m.interior_face)[0][0])
    n1 = verify.face_dual_energy_norm(ds.get_dual_system(m, 1e3), face)
    n2 = verify.face_dual_energy_norm(ds.get_dual_system(m, 1e5), face)
    assert n2 / n1 < 12.0
    assert np.isclose(n2 / n1, 10.0, rtol=0.15)


def _full_scan_face_duality(mesh, kappa, faces):
    # every interior face sharing an element with F, found by scanning all
    system = ds.get_dual_system(mesh, kappa)
    diag = cross = 0.0
    for face in faces:
        fd = verify.FaceDualFunction(system, face)
        diag = max(diag, abs(fd.face_integral(8) - 1.0))
        for other in np.nonzero(mesh.interior_face)[0]:
            if other != face and np.intersect1d(mesh.face_elems[other],
                                                mesh.face_elems[face]).size:
                cross = max(cross, abs(verify._edge_integral(mesh, other, fd, 8)))
        for duals in fd.element_duals:
            for dual in duals:
                cross = max(cross, abs(verify._edge_integral(mesh, face, dual, 8)))
    return diag, cross


@pytest.mark.parametrize("name", ["crisscross", "lshape", "square64"])
def test_face_duality_neighbour_scan_matches_full_scan(corpus, name):
    mesh = dict(corpus)[name]
    faces = np.nonzero(mesh.interior_face)[0][:12]
    for kappa in (1.0, 1e4):
        got = verify.face_duality_residuals(mesh, kappa, faces)
        assert got == _full_scan_face_duality(mesh, kappa, faces)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("name", ["square2", "crisscross", "lshape"])
def test_verify_passes_at_low_rule_degrees(corpus, name, degree):
    # P1 densities pair with the duals by bi-orthogonality, not through the
    # data rule, and the oracle integrates them exactly at every degree
    report = verify.run_verify(dict(corpus)[name], 10.0, quad_degree=degree)
    assert report["pass"], [c for c in report["checks"] if not c["pass"]]


@pytest.mark.parametrize("kappa", [1e6, 1e10])
@pytest.mark.parametrize("name", ["square2", "crisscross", "lshape", "square64"])
def test_verify_face_checks_pass_at_large_kappa(corpus, name, kappa):
    # the oracle reads psi_F on F from the edge parameter: rounding moves the
    # 2-D nodes off F, where the bubble squeezed to width theta h varies fast
    report = verify.run_verify(dict(corpus)[name], kappa)
    checks = {c["name"]: c for c in report["checks"]}
    for check in ("face_duality_diagonal", "face_duality_cross",
                  "hat_face_orthogonality"):
        assert checks[check]["pass"], checks[check]


@pytest.mark.parametrize("kappa", [1e-8, 1.0, 1e4, 1e6, 1e10])
@pytest.mark.parametrize("name", ["square2", "crisscross", "lshape", "square64"])
def test_verify_passes_across_kappa(corpus, name, kappa):
    # galerkin_orthogonality is measured against the load, as localize_check
    # guards it: absolute, it read a few ulps of max |b| (1.4e-9 on square64
    # at kappa 1e4, where max |b| = 3.9e6) and failed from there up
    report = verify.run_verify(dict(corpus)[name], kappa)
    assert report["pass"], [c for c in report["checks"] if not c["pass"]]


def test_project_pi_memory_bounded_on_a_fine_mesh():
    # f is evaluated at the squeezed points of the face bubbles in blocks of
    # faces: on a parentless 2^16-element square project_pi peaks at 53.9 MB,
    # where evaluating every new face at once took 260.5 MB
    bound = 64 * 2**20
    mesh = uniform_refine(unit_square_2tri(), 15)
    assert mesh.n_elements == 2**16
    problem = g.make_problem(mesh, 1e4, "layer1d")
    g.field_rows(mesh, problem.rhs)
    ds.get_dual_system(mesh, 1e4)
    peak, _ = peak_bytes(lambda: ds.project_pi(mesh, 1e4, problem.rhs))
    assert peak < bound, peak
