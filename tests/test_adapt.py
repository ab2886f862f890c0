import gc
import weakref

import numpy as np
import pytest

from rdafem import adapt
from rdafem import galerkin as g
from rdafem.mesh import (Mesh, bisect, uniform_refine, unit_square_2tri,
                         unit_square_crisscross)
from rdafem.quadrature import DEFAULT_DEGREE, simplex_rule

from oracles import decay_rate


def test_dorfler_equal_indicators():
    # 100 equal indicators, theta 0.5: the smallest prefix needs 25 entries
    E = np.ones(100)
    marked = adapt.dorfler_vertices(E, 0.5)
    assert len(marked) == 25


def test_dorfler_single_dominant():
    E = np.zeros(50)
    E[17] = 10.0
    E[3] = 1e-8
    marked = adapt.dorfler_vertices(E, 0.5)
    assert list(marked) == [17]


def test_dorfler_theta_near_one_takes_all_support():
    E = np.array([3.0, 0.0, 1.0, 2.0])
    marked = adapt.dorfler_vertices(E, 0.999999)
    assert sorted(marked) == [0, 2, 3]


def test_dorfler_sum_condition_and_minimality():
    rng = np.random.default_rng(4)
    E = rng.random(200)
    sq = E**2
    for theta in (0.3, 0.5, 0.8):
        marked = adapt.dorfler_vertices(E, theta)
        assert sq[marked].sum() >= theta**2 * sq.sum() - 1e-12
        # dropping the weakest marked vertex breaks the condition
        weakest = marked[np.argmin(sq[marked])]
        rest = marked[marked != weakest]
        assert sq[rest].sum() < theta**2 * sq.sum()


def test_dorfler_rejects_bad_input():
    with pytest.raises(ValueError):
        adapt.dorfler_vertices(np.empty(0), 0.5)
    with pytest.raises(ValueError):
        adapt.dorfler_vertices(np.ones(3), 0.0)
    with pytest.raises(ValueError):
        adapt.dorfler_vertices(np.ones(3), 1.0)
    assert adapt.dorfler_vertices(np.zeros(5), 0.5).size == 0


def test_star_union_brute_force():
    m = uniform_refine(unit_square_2tri(), 2)
    rng = np.random.default_rng(9)
    verts = rng.choice(m.n_vertices, size=4, replace=False)
    got = adapt.star_union(m, verts)
    expect = sorted({e for e in range(m.n_elements)
                     if set(m.elements[e]) & set(verts.tolist())})
    assert list(got) == expect


def test_adaptive_loop_sinsin():
    # start from a mesh with a few interior vertices; the very coarse squares
    # can stall for a sweep while only boundary midpoints appear
    m = uniform_refine(unit_square_2tri(), 4)
    problem = g.make_problem(m, 1.0, "sinsin")
    run = adapt.adaptive_loop(problem, theta_mark=0.5, max_dof=500)
    assert run.stop_reason == "max_dof reached"
    dofs = np.array([r["dofs"] for r in run.records])
    assert (np.diff(dofs) > 0).all()
    assert dofs[-1] > 500
    est = np.array([r["estimator"] for r in run.records])
    # the estimator decreases along the run (allow an early transient)
    assert (np.diff(est) < 0).sum() >= len(est) - 2
    errors = np.array([r["error"] for r in run.records])
    assert (errors > 0).all()
    eff = np.array([r["effectivity"] for r in run.records])
    assert np.isfinite(eff).all()
    # asymptotic first order decay in dofs for P1
    tail = slice(len(dofs) // 2, None)
    slope = decay_rate(dofs[tail], errors[tail])
    assert -0.65 < slope < -0.35


def test_adaptive_loop_records_marked_sets():
    m = uniform_refine(unit_square_2tri(), 1)
    problem = g.make_problem(m, 10.0, "sinsin")
    run = adapt.adaptive_loop(problem, max_dof=100, keep_meshes=True)
    assert len(run.meshes) == len(run.records)
    assert len(run.marked) >= len(run.records) - 1
    for rec, mesh in zip(run.records, run.meshes):
        assert rec["n_vertices"] == mesh.n_vertices
    for rec, elems in zip(run.records, run.marked):
        assert rec["n_marked_elements"] == len(elems)
        assert rec["n_marked_vertices"] >= 1


def test_adaptive_loop_keeps_marked_sets_only_with_keep_meshes():
    m = uniform_refine(unit_square_2tri(), 1)
    run = adapt.adaptive_loop(g.make_problem(m, 10.0, "sinsin"), max_dof=100)
    assert len(run.records) > 1
    assert run.marked == [] and run.meshes == []


def test_adaptive_loop_frees_its_meshes(monkeypatch):
    # the per-mesh DualSystem cache must not keep finished meshes alive
    refined = []

    def recording_bisect(mesh, marked):
        out = bisect(mesh, marked)
        refined.append(weakref.ref(out))
        return out

    monkeypatch.setattr(adapt, "bisect", recording_bisect)
    problem = g.make_problem(uniform_refine(unit_square_2tri(), 2), 100.0, "sinsin")
    run = adapt.adaptive_loop(problem, max_dof=200, osc_every=0)
    assert len(refined) >= 3 and len(run.records) == len(refined) + 1
    gc.collect()
    assert [ref() for ref in refined] == [None] * len(refined)


@pytest.mark.parametrize("osc_every", [0, 1])
def test_adaptive_loop_frees_its_meshes_without_the_gc(monkeypatch, osc_every):
    # no reference cycle holds a mesh: reference counting alone frees each
    # one once the loop has moved past it, also past the oscillations
    refined = []
    alive_before = []

    def recording_bisect(mesh, marked):
        alive_before.append([ref() is not None for ref in refined
                             if ref() is not mesh])
        out = bisect(mesh, marked)
        refined.append(weakref.ref(out))
        return out

    def run():
        start = uniform_refine(unit_square_2tri(), 2)
        problem = g.make_problem(start, 100.0, "sinsin")
        return adapt.adaptive_loop(problem, max_dof=200, osc_every=osc_every)

    monkeypatch.setattr(adapt, "bisect", recording_bisect)
    gc.disable()
    try:
        run()
    finally:
        gc.enable()
    assert len(alive_before) >= 3
    assert not any(any(alive) for alive in alive_before)


def test_adaptive_loop_matches_parentless_rebuilds(monkeypatch):
    # carrying kept rows from the previous mesh gives the records of a run
    # whose every mesh is rebuilt without a parent, so priced in full
    # (oscillation every third iteration, and every iteration, where the
    # stars without a new element are carried too)
    def run(osc_every):
        problem = g.make_problem(unit_square_crisscross(), 1e4, "layer1d")
        return adapt.adaptive_loop(problem, max_dof=400, osc_every=osc_every)

    def parentless_bisect(mesh, marked):
        out = bisect(mesh, marked)
        return Mesh(out.vertices, out.elements, ref_edge_policy="asis")

    for osc_every in (3, 1):
        monkeypatch.setattr(adapt, "bisect", bisect)
        carried = run(osc_every)
        monkeypatch.setattr(adapt, "bisect", parentless_bisect)
        rebuilt = run(osc_every)
        assert len(carried.records) == len(rebuilt.records) >= 8
        for got, want in zip(carried.records, rebuilt.records):
            assert want["repriced_elements"] == want["n_elements"]
            assert want["repriced_stars"] in (None, want["n_vertices"])
            for key, value in want.items():
                if key in ("seconds", "repriced_elements", "repriced_faces",
                           "repriced_stars"):
                    continue
                if isinstance(value, float):
                    assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
                else:
                    assert got[key] == value, key
        # later meshes keep most of their elements
        assert all(r["repriced_elements"] < 0.5 * r["n_elements"]
                   for r in carried.records[-5:])
        assert carried.records[0]["repriced_faces"] == rebuilt.records[0]["repriced_faces"]
    # and, pricing every iteration, most of their stars
    assert all(r["repriced_stars"] < r["n_vertices"] for r in carried.records[-5:])


def test_adaptive_loop_stops_when_estimator_vanishes():
    m = uniform_refine(unit_square_2tri(), 1)
    f = g.ScalarField(lambda x, y: np.zeros_like(x))
    problem = g.Problem(m, 5.0, f)
    run = adapt.adaptive_loop(problem, max_dof=10_000)
    assert run.stop_reason == "estimator vanished"
    assert len(run.records) == 1
    assert run.final["estimator"] == 0.0


def test_adaptive_loop_rejects_mesh_bound_data():
    m = uniform_refine(unit_square_2tri(), 1)
    rng = np.random.default_rng(2)
    vals = np.where(m.boundary_vertex, 0.0, rng.standard_normal(m.n_vertices))
    f = g.apply_operator(m, 5.0, g.DiscreteFunction(m, vals))
    with pytest.raises(TypeError, match="mesh-bound"):
        adapt.adaptive_loop(g.Problem(m, 5.0, f), max_dof=100)


def test_adaptive_loop_single_record_when_start_exceeds_budget():
    m = uniform_refine(unit_square_2tri(), 3)
    problem = g.make_problem(m, 1.0, "sinsin")
    run = adapt.adaptive_loop(problem, max_dof=4)
    assert run.stop_reason == "max_dof reached"
    assert len(run.records) == 1
    assert run.final["n_marked_elements"] == 0


def test_adaptive_loop_ends_on_a_solver_failure(monkeypatch):
    solve = g.solve

    def fail_second(problem, **kwargs):
        if problem.mesh.n_elements > 8:
            raise g.SolverError("CG failed to converge (injected)")
        return solve(problem, **kwargs)

    monkeypatch.setattr(g, "solve", fail_second)
    m = uniform_refine(unit_square_2tri(), 2)
    run = adapt.adaptive_loop(g.make_problem(m, 1.0, "sinsin"), max_dof=10_000)
    assert run.stop_reason == "solver failure: CG failed to converge (injected)"
    assert run.failed
    assert len(run.records) == 1


def test_adaptive_loop_stops_at_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(adapt, "MAX_ITER", 3)
    m = uniform_refine(unit_square_2tri(), 1)
    run = adapt.adaptive_loop(g.make_problem(m, 1.0, "sinsin"), max_dof=10_000)
    assert run.stop_reason == "max_iter reached"
    assert not run.failed
    assert [r["iteration"] for r in run.records] == [0, 1, 2]


def test_oscillation_pricing_interval():
    m = uniform_refine(unit_square_2tri(), 1)
    problem = g.make_problem(m, 10.0, "sinsin")
    run = adapt.adaptive_loop(problem, max_dof=200, osc_every=2)
    for rec in run.records:
        if rec["iteration"] % 2 == 0:
            assert rec["oscillation"] is not None
            assert rec["total"] >= rec["estimator"]
        else:
            assert rec["oscillation"] is None
            assert rec["total"] == rec["estimator"]
    off = adapt.adaptive_loop(g.make_problem(m, 10.0, "sinsin"),
                              max_dof=100, osc_every=0)
    assert all(rec["oscillation"] is None for rec in off.records)


def test_priced_iteration_after_a_skipped_one_reprices_every_star():
    # a skipped iteration carries no oscillation forward
    problem = g.make_problem(uniform_refine(unit_square_2tri(), 3), 10.0, "sinsin")
    run = adapt.adaptive_loop(problem, max_dof=300, osc_every=2)
    assert len(run.records) >= 4
    for rec in run.records:
        if rec["iteration"] % 2 == 0:
            assert rec["repriced_stars"] == rec["n_vertices"]
        else:
            assert rec["repriced_stars"] is None


def test_repriced_stars_are_the_vertices_of_new_elements():
    problem = g.make_problem(uniform_refine(unit_square_2tri(), 3), 10.0, "sinsin")
    run = adapt.adaptive_loop(problem, max_dof=300, keep_meshes=True)
    assert len(run.records) >= 4
    assert run.records[0]["repriced_stars"] == run.records[0]["n_vertices"]
    for rec, mesh in zip(run.records[1:], run.meshes[1:]):
        new = mesh.elements[mesh.parent_elements < 0]
        assert rec["repriced_stars"] == len(set(new.ravel().tolist())) < mesh.n_vertices


def test_study_rows_and_spread_with_exact_solution():
    m = uniform_refine(unit_square_2tri(), 1)
    report = adapt.robustness_study("sinsin", [1.0, 100.0], max_dof=300, mesh=m)
    rows = report.rows()
    assert set(rows[0]) == set(adapt.STUDY_COLUMNS)
    kappas = sorted({r["kappa"] for r in rows})
    assert kappas == [1.0, 100.0]
    for row in rows:
        assert row["error"] > 0
        assert row["effectivity"] > 0
    spread = report.spread()
    assert spread is not None and spread >= 1.0
    summary = report.summary()
    assert set(summary["per_kappa"]) == {1.0, 100.0}
    assert summary["effectivity_spread"] == spread


def test_study_reference_proxy_for_const1():
    # no usable exact solution: errors come from a refined reference solve
    m = uniform_refine(unit_square_2tri(), 1)
    report = adapt.robustness_study("const1", [50.0], max_dof=150, mesh=m)
    run = report.runs[50.0]
    errors = [r["error"] for r in run.records]
    assert all(e is not None and e > 0 for e in errors)
    # the proxy errors should decrease overall along the run
    assert errors[-1] < errors[0]
    assert all(r["effectivity"] > 0 for r in run.records)


def test_kept_meshes_hold_no_rows_but_the_last():
    # bisection moves a mesh's cached rows to its child, so a run or a study
    # that keeps its meshes holds the rows of one mesh per run, not of each
    problem = g.make_problem(uniform_refine(unit_square_2tri(), 2), 1e4, "layer1d")
    run = adapt.adaptive_loop(problem, max_dof=300, keep_meshes=True)
    study = adapt.robustness_study("const1", [1.0, 1e4], max_dof=150,
                                   mesh=uniform_refine(unit_square_2tri(), 1))
    assert run.meshes[-1].cache
    for meshes in [run.meshes, *(r.meshes for r in study.runs.values())]:
        assert len(meshes) >= 3
        assert [m for m in meshes[:-1] if m.cache or m._handed] == []


def test_reference_errors_requires_kept_meshes():
    m = uniform_refine(unit_square_2tri(), 1)
    problem = g.make_problem(m, 10.0, "sinsin")
    run = adapt.adaptive_loop(problem, max_dof=50)
    with pytest.raises(ValueError, match="keep_meshes"):
        adapt.reference_errors(run, problem)


def test_reference_errors_vanish_for_reproduced_reference():
    # solving the reference problem exactly on the stored meshes gives errors
    # that shrink as the stored mesh approaches the reference
    m = unit_square_crisscross()
    problem = g.make_problem(m, 1.0, "sinsin")
    run = adapt.adaptive_loop(problem, max_dof=120, keep_meshes=True)
    errs = adapt.reference_errors(run, problem)
    assert len(errs) == len(run.records)
    assert errs[-1] < errs[0]


def test_decay_rate_recovers_power_law():
    dofs = np.array([10.0, 100.0, 1000.0])
    vals = 5.0 * dofs**-0.5
    assert np.isclose(decay_rate(dofs, vals), -0.5, atol=1e-12)


def test_loop_evaluates_the_exact_solution_at_new_elements_only():
    # the energy error takes the rows of kept elements from the previous
    # mesh, so the kernel evaluates u at the nodes of new elements only
    problem = g.make_problem(uniform_refine(unit_square_2tri(), 3), 10.0, "sinsin")
    f = problem.rhs
    points = []

    def counting(x, y):
        points.append(np.size(x))
        return f.kernel(x, y)

    # a field of its own: make_problem shares the preset's fields
    problem.rhs = g.ScalarField(f.value, kernel=counting)
    report = adapt.adaptive_loop(problem, max_dof=300, osc_every=0)
    assert len(report.records) > 2
    new = [r["repriced_elements"] for r in report.records]
    assert new[0] == report.records[0]["n_elements"] and sum(new[1:]) < sum(
        r["n_elements"] for r in report.records[1:])
    nq = len(simplex_rule(DEFAULT_DEGREE).weights)
    assert sum(points) == nq * sum(new)
