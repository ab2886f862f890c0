"""Matmul quadrature kernels against einsum references written out here.

Every quadrature-point map and DualSystem contraction goes through
`quadrature.map_points` and matmuls; the einsum forms below are the
reference.  Only the summation order differs, so results agree to rounding.
"""

import pathlib

import numpy as np
import pytest

from rdafem import dual_system as ds
from rdafem import estimator as est
from rdafem import galerkin as g
from rdafem import verify
from rdafem.mesh import bisect, l_shape, load_mesh, uniform_refine, unit_square_2tri
from rdafem.quadrature import DEFAULT_DEGREE, simplex_rule

REPO = pathlib.Path(__file__).resolve().parent.parent
RTOL = 1e-13


def meshes():
    return {
        "square2_refined": uniform_refine(unit_square_2tri(), 5),
        "lshape": uniform_refine(l_shape(), 2),
        "square_64": load_mesh(str(REPO / "meshes" / "square_64.msh")),
    }


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max()


def element_points(mesh, rule):
    return np.einsum("qi,eix->eqx", rule.points, mesh.vertices[mesh.elements])


def ref_field_load(mesh, field):
    rule = simplex_rule(DEFAULT_DEGREE)
    pts = element_points(mesh, rule)
    fv = field.value(pts[..., 0], pts[..., 1])
    contrib = 2.0 * mesh.areas[:, None] * np.einsum(
        "q,eq,qi->ei", rule.weights, fv, rule.points)
    out = np.zeros(mesh.n_vertices)
    np.add.at(out, mesh.elements, contrib)
    return out


def ref_gammas(system, mesh):
    rule = simplex_rule(ds.GAMMA_DEGREE)
    mu = rule.points
    lam_parent = np.einsum("qm,fsmz->fsqz", mu, system.parent_bary)
    jac = 2.0 * system.thetas * mesh.areas[system.adj]
    inv_int = 6.0 / mesh.face_len[system.iface]
    return inv_int[:, None, None] * jac[:, :, None] * np.einsum(
        "q,q,fsqz->fsz", rule.weights, mu[:, 0] * mu[:, 1], lam_parent)


def ref_project_pi(system, mesh, source):
    """Cell and face densities of Pi(source) by the einsum contractions."""
    rule = simplex_rule(DEFAULT_DEGREE)
    lam, w = rule.points, rule.weights
    psib = np.einsum("ecz,qc->ezq", system.psi, lam) * lam.prod(axis=1)
    bubble_w = w * lam[:, 0] * lam[:, 1]
    inv_int = 6.0 / mesh.face_len[system.iface]
    jac = 2.0 * system.thetas * mesh.areas[system.adj]
    cell = np.zeros((mesh.n_elements, 3))
    face = np.zeros(len(system.iface))
    if source.field is not None:
        pts = element_points(mesh, rule)
        fv = source.field.value(pts[..., 0], pts[..., 1])
        cell += source.field_weight * 2.0 * mesh.areas[:, None] * np.einsum(
            "q,eq,ezq->ez", w, fv, psib)
        pts = np.einsum("qm,fsmx->fsqx", lam, system.sq_coords)
        fv = source.field.value(pts[..., 0], pts[..., 1])
        face += source.field_weight * inv_int * np.einsum("fs,fsq,q->f", jac, fv,
                                                          bubble_w)
    if source.piecewise is not None:
        dens = source.piecewise.cell_density
        fv = np.einsum("ez,qz->eq", dens, lam)
        cell += 2.0 * mesh.areas[:, None] * np.einsum("q,eq,ezq->ez", w, fv, psib)
        lam_parent = np.einsum("qm,fsmz->fsqz", lam, system.parent_bary)
        fv = np.einsum("fsqz,fsz->fsq", lam_parent, dens[system.adj])
        face += inv_int * np.einsum("fs,fsq,q->f", jac, fv, bubble_w)
        face += source.piecewise.face_density[system.iface]
    face -= np.einsum("fsz,fsz->f", ref_gammas(system, mesh), cell[system.adj])
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
    uvals = np.einsum("ei,qi->eq", U.element_values(), rule.points)
    dens = ((gx - grads[:, None, 0]) ** 2 + (gy - grads[:, None, 1]) ** 2
            + kappa**2 * (problem.exact.value(x, y) - uvals) ** 2)
    want = 2.0 * mesh.areas * np.einsum("q,eq->e", rule.weights, dens)
    assert_close(g.energy_error_sq_elements(problem, U), want)
    monkeypatch.setattr(g, "_ERROR_BLOCK", 7)  # blocks of elements, one ragged
    assert_close(g.energy_error_sq_elements(problem, U), want)

    f_mean = 2.0 * np.einsum("q,eq->e", rule.weights, problem.rhs.value(x, y))
    coeffs = f_mean[:, None] - kappa**2 * U.values[mesh.elements]
    vol = est.weight_elements(mesh, kappa) ** 2 * g._p1_mass_sq(mesh.areas, coeffs)
    jumps_sq = g.grad_jumps(mesh, U) ** 2 * mesh.face_len * est.weight_faces(mesh, kappa)
    jump = 0.5 * jumps_sq[mesh.elem_faces] * mesh.interior_face[mesh.elem_faces]
    assert_close(est.classic_indicators(problem, U), vol + jump.sum(axis=1))


@pytest.mark.parametrize("degree", [1, 4, 5, 8])
def test_element_pairings_match_the_pointwise_oracle(degree):
    # below degree 5 the rule pairs a P1 density with the element duals
    # inexactly, so the constant density map is not the identity there
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
    # |T| psi_z is one matrix on every element
    unit = system.psi * child.areas[:, None, None]
    assert np.abs(unit - unit[0]).max() <= 1e-13 * np.abs(unit[0]).max()
