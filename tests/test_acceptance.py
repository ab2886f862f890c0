"""End-to-end acceptance checks.

One test per headline property of the estimator; each prints a PASS/FAIL
line with the measured constants so that a verbose run reads as a checklist.
Tolerances and runtime budgets are asserted, not just reported.
"""

import time

import numpy as np

from rdafem import adapt, verify
from rdafem import galerkin as g
from rdafem import mesh as mesh_mod
from rdafem.dual_system import project_pi
from rdafem.estimator import (all_oscillations, classic_indicators,
                              global_dual_norm, localize_check, residuals,
                              vertex_indicators)
from rdafem.quadrature import simplex_rule

from oracles import integrate_barycentric, star_true_error_sq

KAPPAS = (1.0, 1e2, 1e4)
IDENTITY_TOL = 1e-11
INVARIANCE_TOL = 1e-9
EFFECTIVITY_WINDOW = (0.1, 30.0)
LOCALIZE_WINDOW = (0.2, 20.0)


def _verdict(ok, label, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    return ok


def test_biorthogonality_identities(corpus, rng):
    # element, face and cross pairings form the identity pattern on every
    # corpus mesh and for every kappa; faces are sampled on the large meshes
    t0 = time.perf_counter()
    worst = 0.0
    for label, mesh in corpus:
        worst = max(worst, verify.element_duality_residual(mesh))
        interior = np.nonzero(mesh.interior_face)[0]
        if len(interior) > 96:
            interior = rng.choice(interior, size=32, replace=False)
        for kappa in KAPPAS:
            if len(interior) == 0:
                continue
            diag, cross = verify.face_duality_residuals(mesh, kappa, interior)
            hats = verify.hat_face_residual(mesh, kappa, interior)
            worst = max(worst, diag, cross, hats)
    seconds = time.perf_counter() - t0
    ok = worst <= IDENTITY_TOL and seconds < 30.0
    assert _verdict(ok, "bi-orthogonality",
                    f"max identity residual {worst:.3e} "
                    f"(tol {IDENTITY_TOL:g}), {seconds:.1f}s (budget 30s)")


def test_interpolation_invariance(corpus, rng):
    # Pi reproduces operator images (and all piecewise data) coefficientwise
    t0 = time.perf_counter()
    worst = 0.0
    for label, mesh in corpus:
        for kappa in KAPPAS:
            rand_res, op_res = verify.invariance_residuals(mesh, kappa, rng)
            worst = max(worst, rand_res, op_res)
    seconds = time.perf_counter() - t0
    ok = worst <= INVARIANCE_TOL and seconds < 60.0
    assert _verdict(ok, "invariance",
                    f"max defect {worst:.3e} (tol {INVARIANCE_TOL:g}), "
                    f"{seconds:.1f}s (budget 60s)")


def test_oscillation_dominated_by_local_error():
    # smallest per-kappa constant with osc_z <= C * local error on every star
    # of a fixed mesh family; the constants stay comparable across kappa
    family = [
        mesh_mod.unit_square_2tri(),
        mesh_mod.unit_square_crisscross(),
        mesh_mod.l_shape(),
        mesh_mod.uniform_refine(mesh_mod.unit_square_2tri(), 3),
        mesh_mod.uniform_refine(mesh_mod.unit_square_2tri(), 5),
        mesh_mod.uniform_refine(mesh_mod.unit_square_2tri(), 7),
    ]
    constants = {}
    for kappa in KAPPAS:
        worst = 0.0
        for mesh in family:
            problem = g.make_problem(mesh, kappa, "sinsin")
            U = g.solve(problem)
            interp = project_pi(mesh, kappa, problem.rhs)
            osc = all_oscillations(problem, interp, depth=2)
            err = np.sqrt(star_true_error_sq(problem, U))
            assert (err > 0).all()
            worst = max(worst, float((osc / err).max()))
        constants[kappa] = worst
    spread = max(constants.values()) / min(constants.values())
    shown = ", ".join(f"kappa={k:g}: {c:.3g}" for k, c in constants.items())
    ok = spread <= 10.0
    assert _verdict(ok, "error-dominated oscillation",
                    f"{shown}; spread {spread:.2f} (bound 10)")


def test_effectivity_two_sided_and_robust():
    # total/error stays inside a fixed window along the adaptive runs and the
    # recorded values vary by at most 10x across the kappa sweep
    t0 = time.perf_counter()
    start = mesh_mod.uniform_refine(mesh_mod.unit_square_2tri(), 6)
    effs = {}
    for kappa in KAPPAS:
        problem = g.make_problem(start, kappa, "sinsin")
        run = adapt.adaptive_loop(problem, theta_mark=0.5, max_dof=1500,
                                  osc_every=1)
        vals = [r["effectivity"] for r in run.records
                if r["effectivity"] is not None]
        assert len(vals) >= 6
        effs[kappa] = vals
    flat = [e for vals in effs.values() for e in vals]
    lo, hi = min(flat), max(flat)
    spread = hi / lo
    seconds = time.perf_counter() - t0
    ok = (EFFECTIVITY_WINDOW[0] <= lo and hi <= EFFECTIVITY_WINDOW[1]
          and spread <= 10.0 and seconds < 600.0)
    assert _verdict(ok, "two-sided effectivity",
                    f"range [{lo:.3g}, {hi:.3g}] in {EFFECTIVITY_WINDOW}, "
                    f"spread {spread:.2f} (bound 10), "
                    f"{seconds:.0f}s (budget 600s)")


def test_residual_dual_norm_matches_error():
    # the deep-refined dual norm of f - L(U) recovers the energy error
    mesh = mesh_mod.uniform_refine(mesh_mod.unit_square_2tri(), 8)
    assert mesh.n_elements == 512
    problem = g.make_problem(mesh, 1.0, "sinsin")
    U = g.solve(problem)
    err = g.energy_error(problem, U)
    src = g.residual_source(problem, U)
    ratios = [global_dual_norm(mesh, src, 1.0, depth=d) / err
              for d in (1, 2, 3)]
    improving = ratios[0] <= ratios[1] <= ratios[2] <= 1.0 + 1e-6
    ok = improving and abs(1.0 - ratios[2]) <= 0.10
    assert _verdict(ok, "residual norm equals error",
                    "ratios " + ", ".join(f"{r:.4f}" for r in ratios)
                    + " (depth 1..3, need >= 0.9 at depth 3)")


def test_localization_window(corpus):
    # sum of star dual norms vs the global one, for Galerkin residuals
    worst_lo, worst_hi = np.inf, 0.0
    for label, mesh in corpus:
        for kappa in KAPPAS:
            problem = g.make_problem(mesh, kappa, "sinsin")
            U = g.solve(problem)
            rep = localize_check(problem, U, depth=2)
            worst_lo = min(worst_lo, rep.ratio)
            worst_hi = max(worst_hi, rep.ratio)
    ok = LOCALIZE_WINDOW[0] <= worst_lo and worst_hi <= LOCALIZE_WINDOW[1]
    assert _verdict(ok, "localization",
                    f"ratios in [{worst_lo:.3f}, {worst_hi:.3f}] "
                    f"(window {LOCALIZE_WINDOW})")


def test_discrete_data_exactness_contrast():
    # with f := L(U) the new estimator vanishes; the classical residual
    # indicator still charges for the gradient jumps of U
    mesh = mesh_mod.uniform_refine(mesh_mod.unit_square_2tri(), 4)
    rng = np.random.default_rng(12)
    worst_total, smallest_classic = 0.0, np.inf
    for kappa in KAPPAS:
        vals = np.where(mesh.boundary_vertex, 0.0,
                        rng.standard_normal(mesh.n_vertices))
        U = g.DiscreteFunction(mesh, vals)
        f = g.apply_operator(mesh, kappa, U)
        problem = g.Problem(mesh, kappa, f)
        interp = project_pi(mesh, kappa, f)
        E = vertex_indicators(residuals(problem, U, interp), kappa)
        osc = all_oscillations(problem, interp, depth=2)
        total = float(np.sqrt((E**2).sum() + (osc**2).sum()))
        classic = float(np.sqrt(classic_indicators(problem, U).sum()))
        worst_total = max(worst_total, total)
        smallest_classic = min(smallest_classic, classic)
    ok = worst_total <= 1e-9 and smallest_classic > 0.0
    assert _verdict(ok, "discrete-data exactness",
                    f"new total <= {worst_total:.3e} (tol 1e-9) while "
                    f"classical >= {smallest_classic:.3g}")


def test_layer_tracking():
    # constant data at kappa=1000: once the mesh is fine enough, marking
    # concentrates in the boundary layer of width ~1/kappa
    kappa = 1e3
    start = mesh_mod.uniform_refine(mesh_mod.unit_square_2tri(), 6)
    problem = g.make_problem(start, kappa, "const1")
    run = adapt.adaptive_loop(problem, theta_mark=0.5, max_dof=20_000,
                              osc_every=0, keep_meshes=True)
    fractions = []
    for i, rec in enumerate(run.records):
        if rec["dofs"] >= 10_000 and rec["n_marked_elements"] > 0:
            mesh = run.meshes[i]
            bary = mesh.vertices[mesh.elements[run.marked[i]]].mean(axis=1)
            dist = np.minimum.reduce([bary[:, 0], 1.0 - bary[:, 0],
                                      bary[:, 1], 1.0 - bary[:, 1]])
            fractions.append(float((dist <= 5.0 / kappa).mean()))
    ok = len(fractions) > 0 and min(fractions) >= 0.6
    assert _verdict(ok, "layer tracking",
                    f"marked-in-layer fractions {fractions} (need >= 0.6 "
                    f"once dofs >= 10000)")


def test_quadrature_against_factorial_formula():
    # gauss rules reproduce the closed-form barycentric integrals
    worst = 0.0
    for degree in range(1, 11):
        rule = simplex_rule(degree)
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                for k in range(degree + 1 - i - j):
                    quad = float(rule.weights @ (rule.points[:, 0] ** i
                                                 * rule.points[:, 1] ** j
                                                 * rule.points[:, 2] ** k))
                    exact = integrate_barycentric(0.5, (i, j, k))
                    worst = max(worst, abs(quad - exact) / abs(exact))
    ok = worst <= 1e-13
    assert _verdict(ok, "quadrature oracle",
                    f"max relative defect {worst:.3e} (tol 1e-13)")
