import numpy as np
import pytest

from rdafem import galerkin as g
from rdafem import mesh as mesh_mod
from rdafem.mesh import (uniform_refine, unit_square_2tri,
                         unit_square_crisscross)

# operator matrix on the 2-triangle square at kappa = 2, assembled by hand
# from the P1 stiffness of right isoceles triangles and the exact mass matrix
SQUARE2_A_K2 = np.array([
    [5.0 / 3.0, -1.0 / 3.0, 1.0 / 3.0, -1.0 / 3.0],
    [-1.0 / 3.0, 4.0 / 3.0, -1.0 / 3.0, 0.0],
    [1.0 / 3.0, -1.0 / 3.0, 5.0 / 3.0, -1.0 / 3.0],
    [-1.0 / 3.0, 0.0, -1.0 / 3.0, 4.0 / 3.0],
])


def test_assemble_square2_matrix():
    m = unit_square_2tri()
    sys_ = g.assemble(m, 2.0)
    assert np.allclose(sys_.matrix_full.toarray(), SQUARE2_A_K2, atol=1e-14)
    # no interior vertices: the free block is empty
    assert sys_.matrix.shape == (0, 0)


def test_assemble_symmetry_and_kernel():
    m = uniform_refine(unit_square_2tri(), 3)
    sys_ = g.assemble(m, 3.0)
    A = sys_.matrix_full
    assert abs(A - A.T).max() < 1e-13
    # the stiffness part (matrix minus exact mass) annihilates constants
    lap = g.assemble(m, 1.0).matrix_full.toarray() - _mass_oracle(m)
    assert np.abs(lap @ np.ones(m.n_vertices)).max() < 1e-12


def _mass_oracle(m):
    """Exact P1 mass matrix assembled entry by entry."""
    M = np.zeros((m.n_vertices, m.n_vertices))
    for e in range(m.n_elements):
        tri = m.elements[e]
        local = m.areas[e] / 12.0 * (np.ones((3, 3)) + np.eye(3))
        for i in range(3):
            for j in range(3):
                M[tri[i], tri[j]] += local[i, j]
    return M


def test_mass_part_matches_oracle():
    m = uniform_refine(unit_square_2tri(), 2)
    diff = (g.assemble(m, 10.0).matrix_full - g.assemble(m, 1.0).matrix_full)
    assert np.allclose(diff.toarray(), 99.0 * _mass_oracle(m), atol=1e-12)


def test_solve_sinsin_frozen_error():
    m = mesh_mod.load_mesh("meshes/square_64.msh")
    problem = g.make_problem(m, 1.0, "sinsin")
    U = g.solve(problem, tol=1e-12)
    err = g.energy_error(problem, U)
    assert np.isclose(err, 0.45970204379320895, rtol=1e-7)


def test_solve_convergence_rate():
    errs = []
    m = uniform_refine(unit_square_2tri(), 4)
    for _ in range(2):
        problem = g.make_problem(m, 1.0, "sinsin")
        errs.append(g.energy_error(problem, g.solve(problem, tol=1e-12)))
        m = uniform_refine(m, 2)
    assert 0.45 < errs[1] / errs[0] < 0.55


def test_galerkin_orthogonality_energy_identity():
    # |||u - U|||^2 + |||U|||^2 = |||u|||^2 with |||u|||^2 = pi^2/2 + kappa^2/4
    m = uniform_refine(unit_square_2tri(), 6)
    for kappa in (1.0, 10.0):
        problem = g.make_problem(m, kappa, "sinsin")
        U = g.solve(problem, tol=1e-12)
        exact_sq = np.pi**2 / 2.0 + kappa**2 / 4.0
        lhs = g.energy_error(problem, U)**2 + g.energy_norm(m, kappa, U)**2
        assert abs(lhs - exact_sq) / exact_sq < 1e-8


def test_layer1d_preset_consistency():
    # the stated right-hand side is -lap u + kappa^2 u for the stated u
    problem = g.make_problem(unit_square_2tri(), 50.0, "layer1d")
    u, f = problem.exact, problem.rhs
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.05, 0.95, size=(40, 2))
    h = 1e-5
    x, y = pts[:, 0], pts[:, 1]
    lap = (u.value(x + h, y) + u.value(x - h, y) + u.value(x, y + h)
           + u.value(x, y - h) - 4 * u.value(x, y)) / h**2
    resid = -lap + 50.0**2 * u.value(x, y) - f.value(x, y)
    assert np.abs(resid).max() < 1e-3 * np.abs(f.value(x, y)).max()
    # boundary values vanish on x in {0,1} and y in {0,1}
    s = np.linspace(0.0, 1.0, 13)
    for edge in (u.value(0 * s, s), u.value(1 + 0 * s, s),
                 u.value(s, 0 * s), u.value(s, 1 + 0 * s)):
        assert np.abs(edge).max() < 1e-13


def test_layer1d_grad_matches_fd():
    problem = g.make_problem(unit_square_2tri(), 200.0, "layer1d")
    u = problem.exact
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.01, 0.99, size=(30, 2))
    h = 1e-6
    gx, gy = u.grad(pts[:, 0], pts[:, 1])
    fx = (u.value(pts[:, 0] + h, pts[:, 1]) - u.value(pts[:, 0] - h, pts[:, 1])) / (2 * h)
    fy = (u.value(pts[:, 0], pts[:, 1] + h) - u.value(pts[:, 0], pts[:, 1] - h)) / (2 * h)
    assert np.abs(gx - fx).max() < 1e-4 * max(1.0, np.abs(gx).max())
    assert np.abs(gy - fy).max() < 1e-4 * max(1.0, np.abs(gy).max())


def test_layer1d_refuses_meshes_outside_unit_square():
    # its data overflow off [0, 1]^2; vertex 0 of the L-shape sits at (-1, -1)
    with pytest.raises(mesh_mod.MeshError, match=r"'layer1d'.*vertex 0 at \(-1, -1\)"):
        g.make_problem(mesh_mod.l_shape(), 1e4, "layer1d")
    assert g.make_problem(mesh_mod.l_shape(), 1e4, "sinsin").name == "sinsin"
    # the unit square, boundary included, is unchanged
    m = uniform_refine(unit_square_2tri(), 2)
    problem = g.make_problem(m, 1e4, "layer1d")
    U = g.solve(problem)
    assert np.isfinite(U.values).all()
    assert np.isfinite(g.energy_error(problem, U))


def test_presets_and_problem_validation():
    assert set(g.PRESETS) == {"sinsin", "const1", "layer1d"}
    m = unit_square_2tri()
    assert g.make_problem(m, 1.0, "const1").exact is None
    with pytest.raises(ValueError, match="unknown preset"):
        g.make_problem(m, 1.0, "nope")
    with pytest.raises(ValueError):
        g.Problem(m, -1.0, None)


def test_problem_refuses_non_finite_kappa():
    m = unit_square_2tri()
    for kappa in (float("nan"), float("inf"), -float("inf"), 0.0):
        with pytest.raises(ValueError, match="positive and finite"):
            g.make_problem(m, kappa, "sinsin")
    assert g.make_problem(m, 1e10, "sinsin").kappa == 1e10


def test_grad_jumps_center_hat():
    m = unit_square_crisscross()
    U = g.DiscreteFunction(m, np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
    jumps = g.grad_jumps(m, U)
    interior = np.nonzero(m.interior_face)[0]
    assert np.allclose(jumps[interior], 2.0 * np.sqrt(2.0), rtol=1e-13)
    assert np.allclose(jumps[~m.interior_face], 0.0)


def test_apply_operator_pairs_like_matrix():
    # <L(V), hat_y> equals the matrix action at every interior vertex
    m = uniform_refine(unit_square_2tri(), 3)
    rng = np.random.default_rng(2)
    for kappa in (1.0, 100.0):
        vals = np.where(m.boundary_vertex, 0.0, rng.standard_normal(m.n_vertices))
        V = g.DiscreteFunction(m, vals)
        lv = g.apply_operator(m, kappa, V)
        pairs = lv.pair_hats()
        ref = g.assemble(m, kappa).matrix_full @ vals
        free = m.free_vertices()
        scale = np.abs(ref).max()
        assert np.abs(pairs[free] - ref[free]).max() < 1e-12 * scale


def test_piecewise_functional_algebra():
    m = unit_square_crisscross()
    rng = np.random.default_rng(8)
    a = g.PiecewiseFunctional(m, rng.standard_normal((4, 3)),
                              np.where(m.interior_face, rng.standard_normal(8), 0.0))
    b = g.PiecewiseFunctional(m, rng.standard_normal((4, 3)),
                              np.where(m.interior_face, rng.standard_normal(8), 0.0))
    c = 2.5 * a - b
    assert np.allclose(c.cell_density, 2.5 * a.cell_density - b.cell_density)
    assert np.allclose(c.face_density, 2.5 * a.face_density - b.face_density)
    assert c.coeff_scale() > 0


def test_pair_hats_volume_oracle():
    # <a . lam, hat_i>_T = |T|/12 (a_i + sum a) on a single element
    m = unit_square_2tri()
    cell = np.zeros((2, 3))
    cell[0] = (1.0, 2.0, 3.0)
    f = g.PiecewiseFunctional(m, cell, np.zeros(m.n_faces))
    got = f.pair_hats()
    tri = m.elements[0]
    expect = np.zeros(m.n_vertices)
    expect[tri] = m.areas[0] / 12.0 * (cell[0] + cell[0].sum())
    assert np.allclose(got, expect, atol=1e-15)


def test_pair_hats_face_oracle():
    m = unit_square_crisscross()
    face = np.zeros(m.n_faces)
    iface = np.nonzero(m.interior_face)[0][0]
    face[iface] = 3.0
    f = g.PiecewiseFunctional(m, np.zeros((4, 3)), face)
    got = f.pair_hats()
    expect = np.zeros(m.n_vertices)
    expect[m.faces[iface]] = 3.0 * m.face_len[iface] / 2.0
    assert np.allclose(got, expect, atol=1e-15)


def test_source_functional_matches_load_vector():
    m = uniform_refine(unit_square_2tri(), 2)
    problem = g.make_problem(m, 1.0, "sinsin")
    src = g.SourceFunctional(m, field=problem.rhs)
    full = src.pair_hats(quad_degree=8)
    load = g.load_vector(problem, quad_degree=8)
    assert np.allclose(full, load, atol=1e-14 * np.abs(load).max())


def test_residual_source_is_orthogonal_after_solve():
    m = uniform_refine(unit_square_2tri(), 3)
    problem = g.make_problem(m, 10.0, "sinsin")
    U = g.solve(problem, tol=1e-12)
    r = g.residual_source(problem, U)
    pairs = r.pair_hats(quad_degree=8)
    scale = np.abs(g.load_vector(problem)).max()
    assert np.abs(pairs[m.free_vertices()]).max() < 1e-9 * scale


def test_energy_norm_field_exact():
    # |||(x, y) -> x||| with grad (1, 0): integral of 1 + kappa^2 x^2
    m = uniform_refine(unit_square_2tri(), 2)
    field = g.ScalarField(lambda x, y: x, lambda x, y: (np.ones_like(x),
                                                        np.zeros_like(x)))
    for kappa in (1.0, 3.0):
        val = g.energy_norm(m, kappa, field, quad_degree=4)
        assert np.isclose(val, np.sqrt(1.0 + kappa**2 / 3.0), rtol=1e-13)


def test_energy_norm_region_restriction():
    m = unit_square_2tri()
    U = g.DiscreteFunction(m, np.array([0.0, 1.0, 0.0, 1.0]))
    full = g.energy_norm(m, 2.0, U)
    parts = [g.energy_norm(m, 2.0, U, region=np.array([e])) for e in range(2)]
    assert np.isclose(full**2, sum(p**2 for p in parts), rtol=1e-13)


def test_prolongate_preserves_function():
    m = uniform_refine(unit_square_2tri(), 2)
    rng = np.random.default_rng(4)
    U = g.DiscreteFunction(m, rng.standard_normal(m.n_vertices))
    fine = mesh_mod.bisect(m, np.arange(m.n_elements))
    P = g.prolongate(U, fine)
    assert np.allclose(P.values[:m.n_vertices], U.values)
    assert np.isclose(g.energy_norm(fine, 2.0, P), g.energy_norm(m, 2.0, U),
                      rtol=1e-13)
    # fine values interpolate the coarse function at the new midpoints
    mids = fine.new_vertex_parents
    assert np.allclose(P.values[m.n_vertices:], U.values[mids].mean(axis=1))


def test_problem_on_mesh():
    m = unit_square_2tri()
    problem = g.make_problem(m, 2.0, "sinsin")
    fine = uniform_refine(m, 1)
    moved = problem.on_mesh(fine)
    assert moved.mesh is fine and moved.rhs is problem.rhs
    pw = g.PiecewiseFunctional(m, np.zeros((2, 3)), np.zeros(m.n_faces))
    bound = g.Problem(m, 1.0, pw)
    with pytest.raises(TypeError):
        bound.on_mesh(fine)


# -- solver statistics and the CG failure path ----------------------------------


def test_solve_reports_its_numerics():
    problem = g.make_problem(uniform_refine(unit_square_crisscross(), 6), 1.0, "sinsin")
    stats = g.solve(problem).solver_stats
    assert list(stats) == ["cg_iterations", "cg_residual", "preconditioner"]
    assert stats["preconditioner"] == "jacobi"
    assert stats["cg_iterations"] > 0
    assert 0.0 < stats["cg_residual"] <= 1e-10
    # no unknowns: nothing to iterate on
    empty = g.solve(g.make_problem(unit_square_2tri(), 1.0, "sinsin")).solver_stats
    assert empty == {"cg_iterations": 0, "cg_residual": 0.0, "preconditioner": "jacobi"}


def failing_cg(steps):
    """Stand-in for scipy's cg that stops after `steps` iterations, info > 0."""
    def cg(A, b, callback=None, **kwargs):
        x = np.zeros_like(b)
        for _ in range(steps):
            callback(x)
        return x, steps
    return cg


def test_failed_cg_falls_back_to_sparse_lu(monkeypatch):
    problem = g.make_problem(uniform_refine(unit_square_crisscross(), 6), 1.0, "sinsin")
    reference = g.solve(problem, tol=1e-12)
    monkeypatch.setattr(g.spla, "cg", failing_cg(3))
    U = g.solve(problem)
    assert U.solver_stats["preconditioner"] == "direct"
    assert U.solver_stats["cg_iterations"] == 3
    assert U.solver_stats["cg_residual"] <= 1e-10
    assert np.allclose(U.values, reference.values, rtol=0.0, atol=1e-10)


def test_failed_cg_above_the_direct_cap_raises(monkeypatch):
    problem = g.make_problem(uniform_refine(unit_square_crisscross(), 4), 1.0, "sinsin")
    n = len(problem.mesh.free_vertices())
    monkeypatch.setattr(g.spla, "cg", failing_cg(4))
    monkeypatch.setattr(g, "_DIRECT_MAX_DOFS", n - 1)
    with pytest.raises(g.SolverError,
                       match=rf"n={n}\) after 4 iterations, relative residual 1\.000e\+00"):
        g.solve(problem)


def test_residual_check_covers_the_fallback(monkeypatch):
    class WrongLU:
        def solve(self, b):
            return np.zeros_like(b)

    problem = g.make_problem(uniform_refine(unit_square_crisscross(), 4), 1.0, "sinsin")
    monkeypatch.setattr(g.spla, "cg", failing_cg(2))
    monkeypatch.setattr(g.spla, "splu", lambda A: WrongLU())
    with pytest.raises(g.SolverError, match="exceeds tolerance"):
        g.solve(problem)
