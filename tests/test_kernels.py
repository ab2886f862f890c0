"""Matmul quadrature kernels against einsum references written out here.

Every quadrature-point map and DualSystem contraction goes through
`quadrature.map_points` and matmuls; the einsum forms below are the
reference.  Only the summation order differs, so results agree to rounding.
The reference of the interpolation builds its own squeezed triangles and psi
and is evaluated in long double: the face densities of a smooth field are
cancellation residues, so a float64 reference would be as far from the exact
value as the kernels are.  Where `np.longdouble` is float64, it is float64
against float64.
"""

import pathlib

import numpy as np
import pytest

from rdafem import dual_system as ds
from rdafem import estimator as est
from rdafem import galerkin as g
from rdafem import mesh as mesh_mod
from rdafem import verify
from rdafem.mesh import (bary_grads, bisect, l_shape, load_mesh, uniform_refine,
                         unit_square_2tri)
from rdafem.quadrature import DEFAULT_DEGREE, simplex_rule

REPO = pathlib.Path(__file__).resolve().parent.parent
RTOL = 1e-13
LD = np.longdouble


def meshes():
    return {
        "square2_refined": uniform_refine(unit_square_2tri(), 5),
        "lshape": uniform_refine(l_shape(), 2),
        "square_64": load_mesh(str(REPO / "meshes" / "square_64.msh")),
    }


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max()


def element_points(mesh, rule, dtype=float):
    return np.einsum("qi,eix->eqx", rule.points.astype(dtype),
                     mesh.vertices.astype(dtype)[mesh.elements])


def ref_field_load(mesh, field):
    rule = simplex_rule(DEFAULT_DEGREE)
    pts = element_points(mesh, rule)
    fv = field.value(pts[..., 0], pts[..., 1])
    contrib = 2.0 * mesh.areas[:, None] * np.einsum(
        "q,eq,qi->ei", rule.weights, fv, rule.points)
    out = np.zeros(mesh.n_vertices)
    np.add.at(out, mesh.elements, contrib)
    return out


def ref_parent_bary(system, mesh, dtype=float):
    """(nfi, 2, 3, 3): per interior face and side, the barycentrics in the
    element of the squeezed corners v0, v1 and (1 - theta) v0 + theta apex,
    F = v0 v1; the apex is the element vertex that is no vertex of F."""
    tri = mesh.elements[system.adj]
    on_face = (tri[..., None] == mesh.faces[system.iface][:, None, None, :]).any(axis=3)
    apex = np.argmin(on_face, axis=2)
    v0, v1 = (apex + 1) % 3, (apex + 2) % 3
    eye = np.eye(3, dtype=dtype)
    theta = system.thetas.astype(dtype)[..., None]
    return np.stack([eye[v0], eye[v1], (1 - theta) * eye[v0] + theta * eye[apex]],
                    axis=2)


def ref_gammas(system, mesh, dtype=float):
    """gamma_{z;T} = int_{T_theta} lam_z psi_F by a degree-4 rule, exact for
    the cubic integrand."""
    rule = simplex_rule(4)
    mu, w = rule.points.astype(dtype), rule.weights.astype(dtype)
    lam_parent = np.einsum("qm,fsmz->fsqz", mu, ref_parent_bary(system, mesh, dtype))
    jac = 2 * system.thetas.astype(dtype) * mesh.areas.astype(dtype)[system.adj]
    inv_int = 6 / mesh.face_len.astype(dtype)[system.iface]
    return inv_int[:, None, None] * jac[:, :, None] * np.einsum(
        "q,q,fsqz->fsz", w, mu[:, 0] * mu[:, 1], lam_parent)


def ref_project_pi(system, mesh, source):
    """Cell and face densities of Pi(source) by the einsum contractions, in
    long double."""
    rule = simplex_rule(DEFAULT_DEGREE)
    lam, w = rule.points.astype(LD), rule.weights.astype(LD)
    areas = mesh.areas.astype(LD)
    psi = g._PSI_UNIT.astype(LD) / areas[:, None, None]
    psib = np.einsum("ecz,qc->ezq", psi, lam) * lam.prod(axis=1)
    bubble_w = w * lam[:, 0] * lam[:, 1]
    inv_int = 6 / mesh.face_len.astype(LD)[system.iface]
    jac = 2 * system.thetas.astype(LD) * areas[system.adj]
    parent_bary = ref_parent_bary(system, mesh, LD)
    cell = np.zeros((mesh.n_elements, 3), dtype=LD)
    face = np.zeros(len(system.iface), dtype=LD)
    if source.field is not None:
        pts = element_points(mesh, rule, LD)
        fv = source.field.value(pts[..., 0], pts[..., 1])
        cell += 2 * areas[:, None] * np.einsum("q,eq,ezq->ez", w, fv, psib)
        sq_coords = np.einsum("fsmz,fszx->fsmx", parent_bary,
                              mesh.vertices.astype(LD)[mesh.elements[system.adj]])
        pts = np.einsum("qm,fsmx->fsqx", lam, sq_coords)
        fv = source.field.value(pts[..., 0], pts[..., 1])
        face += inv_int * np.einsum("fs,fsq,q->f", jac, fv, bubble_w)
    if source.piecewise is not None:
        dens = source.piecewise.cell_density.astype(LD)
        fv = np.einsum("ez,qz->eq", dens, lam)
        cell += 2 * areas[:, None] * np.einsum("q,eq,ezq->ez", w, fv, psib)
        lam_parent = np.einsum("qm,fsmz->fsqz", lam, parent_bary)
        fv = np.einsum("fsqz,fsz->fsq", lam_parent, dens[system.adj])
        face += inv_int * np.einsum("fs,fsq,q->f", jac, fv, bubble_w)
        face += source.piecewise.face_density[system.iface]
    face -= np.einsum("fsz,fsz->f", ref_gammas(system, mesh, LD), cell[system.adj])
    return cell, face


@pytest.mark.parametrize("name", sorted(meshes()))
@pytest.mark.parametrize("kappa", [1.0, 1e4])
def test_kernels_match_einsum_references(name, kappa, monkeypatch):
    mesh = meshes()[name]
    problem = g.make_problem(mesh, kappa, "sinsin")
    rng = np.random.default_rng(7)
    U = g.solve(problem)

    assert_close(g.field_load(mesh, problem.rhs), ref_field_load(mesh, problem.rhs))

    system = ds.get_dual_system(mesh, kappa)
    assert_close(system.gammas, ref_gammas(system, mesh))

    piecewise = g.PiecewiseFunctional(
        mesh, rng.standard_normal((mesh.n_elements, 3)),
        np.where(mesh.interior_face, rng.standard_normal(mesh.n_faces), 0.0))
    for source in (g.SourceFunctional(mesh, field=problem.rhs),
                   g.SourceFunctional(mesh, piecewise=piecewise),
                   g.residual_source(problem, U)):
        got = ds.project_pi(mesh, kappa, source)
        cell, face = ref_project_pi(system, mesh, source)
        assert_close(got.cell_density, cell)
        assert_close(got.face_density[system.iface], face)

    rule = simplex_rule(DEFAULT_DEGREE)
    pts = element_points(mesh, rule)
    x, y = pts[..., 0], pts[..., 1]
    gx, gy = problem.exact.grad(x, y)
    grads = U.element_gradients()
    uvals = np.einsum("ei,qi->eq", U.values[U.mesh.elements], rule.points)
    dens = ((gx - grads[:, None, 0]) ** 2 + (gy - grads[:, None, 1]) ** 2
            + kappa**2 * (problem.exact.value(x, y) - uvals) ** 2)
    want = 2.0 * mesh.areas * np.einsum("q,eq->e", rule.weights, dens)
    assert_close(g.energy_error_sq_elements(problem, U), want)
    # blocks of seven elements, one ragged
    monkeypatch.setattr(mesh_mod, "BLOCK_POINTS", 7 * len(rule.weights))
    assert_close(g.energy_error_sq_elements(problem, U), want)

    f_mean = 2.0 * np.einsum("q,eq->e", rule.weights, problem.rhs.value(x, y))
    coeffs = f_mean[:, None] - kappa**2 * U.values[mesh.elements]
    vol = est.weight_elements(mesh, kappa) ** 2 * g._p1_mass_sq(mesh.areas, coeffs)
    jumps_sq = g.grad_jumps(mesh, U) ** 2 * mesh.face_len * est.weight_faces(mesh, kappa)
    jump = 0.5 * jumps_sq[mesh.elem_faces] * mesh.interior_face[mesh.elem_faces]
    assert_close(est.classic_indicators(problem, U), vol + jump.sum(axis=1))


@pytest.mark.parametrize("degree", [1, 4, 5, 8])
def test_element_pairings_match_the_pointwise_oracle(degree):
    # a field pairs through the rule of each degree; a P1 density pairs to
    # its own coefficients, and the oracle integrates it exactly at any degree
    kappa = 10.0
    parent = uniform_refine(l_shape(), 1)
    # no symmetry of the mesh maps this field to itself
    field = g.ScalarField(lambda x, y: np.exp(x - 2.0 * y) * np.sin(3.0 * x + y))
    ds.get_dual_system(parent, kappa, degree).pair_elements(field)
    # the parent stays alive: the child takes its kept rows from it
    child = bisect(parent, np.arange(0, parent.n_elements, 3))
    system = ds.get_dual_system(child, kappa, degree)
    rng = np.random.default_rng(3)
    density = g.PiecewiseFunctional(child, rng.standard_normal((child.n_elements, 3)),
                                    np.zeros(child.n_faces))
    for source in (field, density):
        got = system.pair_elements(source)
        want = np.array([[verify.pair(source, dual, degree)
                          for dual in verify.element_duals(system, e)]
                         for e in range(child.n_elements)])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert 0 < len(g.field_rows(child, field, degree).new) < child.n_elements


@pytest.mark.parametrize("kappa", [1e-8, 1.0, 1e4, 1e10])
def test_face_pairings_match_the_pointwise_oracle(kappa):
    parent = uniform_refine(l_shape(), 1)
    # no symmetry of the mesh maps this field to itself
    field = g.ScalarField(lambda x, y: np.exp(x - 2.0 * y) * np.sin(3.0 * x + y))
    ds.project_pi(parent, kappa, field)
    # the parent stays alive: the child takes its kept rows from it
    child = bisect(parent, np.arange(0, parent.n_elements, 3))
    system = ds.get_dual_system(child, kappa)
    assert 0 < len(child.cache[ds.dual_faces_key(kappa, DEFAULT_DEGREE)].new) < len(system.iface)

    # the closed-form gamma against quadrature over the oracle's geometry
    rule = simplex_rule(4)
    mu = rule.points
    for pos, face in enumerate(system.iface):
        fd = verify.FaceDualFunction(system, face)
        jac = 2.0 * fd.thetas * child.areas[fd.elements]
        want = (6.0 / child.face_len[face]) * jac[:, None] * (
            (rule.weights * mu[:, 0] * mu[:, 1]) @ (mu @ fd.parent_bary))
        assert np.abs(system.gammas[pos] - want).max() <= 1e-13 * np.abs(want).max()

    # the face densities of a field, against the oracle, relative to the
    # terms that cancel in them: <f, psi_F> and gamma <f, phi*_{z;T}>
    elem = system.pair_elements(field)
    got = ds.project_pi(child, kappa, field).face_density[system.iface]
    want = np.array([verify.pair(field, verify.FaceDualFunction(system, face))
                     for face in system.iface])
    moments = np.einsum("fsz,fsz->f", system.gammas, elem[system.adj])
    terms = np.abs(want + moments) + np.einsum(
        "fsz,fsz->f", np.abs(system.gammas), np.abs(elem[system.adj]))
    assert np.abs(got - want).max() <= 1e-12 * terms.max()

    # a P1 density plus line sources is reproduced
    rng = np.random.default_rng(5)
    density = g.PiecewiseFunctional(
        child, rng.standard_normal((child.n_elements, 3)),
        np.where(child.interior_face, rng.standard_normal(child.n_faces), 0.0))
    back = ds.project_pi(child, kappa, density)
    assert (back - density).coeff_scale() <= verify.INVARIANCE_TOL * max(
        1.0, density.coeff_scale())


def ref_energy_error(problem, U):
    """The rule's value of int_T |grad(u - U)|^2 + kappa^2 (u - U)^2 per
    element, node by node."""
    mesh = problem.mesh
    rule = simplex_rule(DEFAULT_DEGREE)
    pts = element_points(mesh, rule)
    x, y = pts[..., 0], pts[..., 1]
    gx, gy = problem.exact.grad(x, y)
    grads = U.element_gradients()
    uvals = np.einsum("ei,qi->eq", U.values[U.mesh.elements], rule.points)
    dens = ((gx - grads[:, None, 0]) ** 2 + (gy - grads[:, None, 1]) ** 2
            + problem.kappa**2 * (problem.exact.value(x, y) - uvals) ** 2)
    return 2.0 * mesh.areas * np.einsum("q,eq->e", rule.weights, dens)


@pytest.mark.parametrize("preset", ["sinsin", "layer1d"])
@pytest.mark.parametrize("kappa", [1e-8, 1.0, 1e4, 1e10])
def test_energy_error_split_matches_the_pointwise_formula(preset, kappa):
    # a parentless mesh, then children that carry the exact solution's rows,
    # handed down to them by bisection
    rng = np.random.default_rng(3)
    parent, mesh = None, uniform_refine(unit_square_2tri(), 4)
    problem = g.make_problem(mesh, kappa, preset)
    for _ in range(3):
        problem = problem.on_mesh(mesh)
        U = g.solve(problem)
        assert_close(g.energy_error_sq_elements(problem, U), ref_energy_error(problem, U))
        if parent is not None:
            # the parent holds no rows; the child built those of its new elements
            assert mesh.parent is parent and not parent.cache
            rows = mesh.cache[("field_rows", problem.rhs, DEFAULT_DEGREE)]
            assert 0 < len(rows.new) == (mesh.parent_elements < 0).sum() < mesh.n_elements
        marks = rng.choice(mesh.n_elements, mesh.n_elements // 5, replace=False)
        parent, mesh = mesh, bisect(mesh, marks)


def test_energy_error_in_ragged_blocks_on_a_fresh_mesh(monkeypatch):
    monkeypatch.setattr(mesh_mod, "BLOCK_POINTS",
                        7 * len(simplex_rule(DEFAULT_DEGREE).weights))
    mesh = uniform_refine(l_shape(), 2)
    assert mesh.n_elements % 7
    problem = g.make_problem(mesh, 10.0, "sinsin")
    U = g.solve(problem)
    # the solve's load pass has built the error rows, in the same ragged blocks
    assert hasattr(mesh.cache[("field_rows", problem.rhs, DEFAULT_DEGREE)], "proj")
    assert_close(g.energy_error_sq_elements(problem, U), ref_energy_error(problem, U))


def ref_face_dual_energy_sq(system, face):
    """|phi*_F|_E^2 integrated over the squeezed triangle T_theta and over
    the rest of T, the triangle (squeezed apex, v1, apex), with the gradients
    of the squeezed barycentrics mu = lam inv(parent_bary)."""
    phi = verify.FaceDualFunction(system, face)
    mesh, kappa2 = system.mesh, system.kappa**2
    rule = simplex_rule(DEFAULT_DEGREE)
    total = 0.0
    for s, e in enumerate(phi.elements):
        grads = bary_grads(mesh.element_coords(e))
        c = -(verify._psi(mesh.areas[e]) @ phi.gammas[s])
        sq = phi.parent_bary[s]
        apex, v1 = phi.apex[s], (phi.apex[s] + 2) % 3
        rest = np.array([sq[2], np.eye(3)[v1], np.eye(3)[apex]])
        theta = phi.thetas[s]
        for corners, area, bubble in ((sq, theta * mesh.areas[e], True),
                                      (rest, (1.0 - theta) * mesh.areas[e], False)):
            lam = rule.points @ corners
            lin = lam @ c
            prods = np.stack([lam[:, 1] * lam[:, 2], lam[:, 0] * lam[:, 2],
                              lam[:, 0] * lam[:, 1]], axis=1)
            val = lin * lam.prod(axis=1)
            grad = (c * lam.prod(axis=1)[:, None] + lin[:, None] * prods) @ grads
            if bubble:
                mu = rule.points
                grad_mu = np.linalg.inv(sq).T @ grads
                val = val + mu[:, 0] * mu[:, 1] / phi.int_bubble
                grad = grad + (mu[:, 1, None] * grad_mu[0]
                               + mu[:, 0, None] * grad_mu[1]) / phi.int_bubble
            dens = (grad**2).sum(axis=1) + kappa2 * val**2
            total += 2.0 * area * (rule.weights @ dens)
    return total


@pytest.mark.parametrize("kappa", [1e4, 1e8, 1e10])
def test_face_dual_energy_norm_against_a_split_reference(kappa):
    mesh = uniform_refine(l_shape(), 1)
    system = ds.get_dual_system(mesh, kappa)
    for face in system.iface:
        got = verify.face_dual_energy_norm(system, face)
        want = np.sqrt(ref_face_dual_energy_sq(system, face))
        assert abs(got - want) <= 1e-13 * want
