"""Dörfler marking, the solve-estimate-mark-refine loop and robustness studies."""

import time

import numpy as np

from . import galerkin
from .estimator import (all_oscillations, classic_indicators, residuals,
                        vertex_indicators)
from .galerkin import SolverError, energy_error_sq_elements, energy_norm, prolongate
from .mesh import bisect
from .quadrature import DEFAULT_DEGREE


def dorfler_vertices(indicators, theta_mark):
    """Greedy minimal vertex set M with sum_M E^2 >= theta_mark^2 * sum E^2."""
    E = np.asarray(indicators, dtype=float)
    if E.size == 0:
        raise ValueError("empty indicator set")
    if not 0.0 < theta_mark < 1.0:
        raise ValueError("theta_mark must lie in (0, 1)")
    sq = E**2
    total = sq.sum()
    if total == 0.0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-sq, kind="stable")
    keep = np.cumsum(sq[order]) < theta_mark**2 * total
    # first index reaching the target is still needed
    k = int(keep.sum()) + 1
    return order[:k]


def star_union(mesh, vertices):
    """All elements touching any of the given vertices."""
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    mask[vertices] = True
    return np.nonzero(mask[mesh.elements].any(axis=1))[0]


class RunReport:
    """Per-iteration records of one adaptive run.

    `records` is a list of dicts.  With keep_meshes the mesh (and solution)
    of every iteration is retained, as is the marked element set, so
    refinement patterns can be audited afterwards.
    """

    def __init__(self, kappa, theta_mark):
        self.kappa = kappa
        self.theta_mark = theta_mark
        self.records = []
        self.meshes = []
        self.solutions = []
        self.marked = []
        self.stop_reason = None

    def column(self, name):
        return [r.get(name) for r in self.records]

    @property
    def final(self):
        return self.records[-1]


def decay_rate(dofs, values):
    """Log-log slope of values against dofs (least squares fit)."""
    d = np.log(np.asarray(dofs, dtype=float))
    v = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(d, v, 1)[0])


def adaptive_loop(problem, theta_mark=0.5, max_dof=2000, depth=2, osc_every=1,
                  quad_degree=DEFAULT_DEGREE, max_iter=100, solver_tol=1e-10,
                  keep_meshes=False):
    """Solve, estimate, mark and refine until the dof count exceeds max_dof.

    Oscillation surrogates are priced every `osc_every`-th iteration
    (0 switches them off).  A solver failure ends the run with the partial
    report; the report's stop_reason says why the loop ended.

    Each refined mesh takes the rows of the elements and faces bisection
    kept from the previous mesh's cached arrays (the face rows of the
    `DualSystem` and of the field's face pairings, and the load rows,
    element means and element-dual pairings of the data) and computes only
    the new rows; `repriced_elements` and `repriced_faces` count those of
    the dual system.
    """
    from .dual_system import get_dual_system, project_pi, theta_factor

    if isinstance(problem.rhs, galerkin.PiecewiseFunctional):
        raise TypeError("adaptive refinement needs data that can move to "
                        "refined meshes; a mesh-bound right-hand side cannot")
    report = RunReport(problem.kappa, theta_mark)
    kappa = problem.kappa
    mesh = None
    for it in range(max_iter):
        # the previous mesh is held until the arrays cached on this mesh (the
        # data rows in the solve, the dual system and its face pairings)
        # have taken their kept rows from it
        parent, mesh = mesh, problem.mesh
        t0 = time.perf_counter()
        system = galerkin.assemble(mesh, kappa)
        dofs = int(len(system.free))
        try:
            U = galerkin.solve(problem, tol=solver_tol, quad_degree=quad_degree,
                               system=system)
        except SolverError as exc:
            report.stop_reason = f"solver failure: {exc}"
            break
        interpolated = project_pi(mesh, kappa, problem.rhs, quad_degree)
        duals = get_dual_system(mesh, kappa, quad_degree)
        del parent
        rd = residuals(problem, U, interpolated)
        E = vertex_indicators(rd)
        estimator = float(np.sqrt((E**2).sum()))
        record = {
            "iteration": it,
            "dofs": dofs,
            "n_vertices": mesh.n_vertices,
            "n_elements": mesh.n_elements,
            "estimator": estimator,
            "oscillation": None,
            "total": estimator,
            "error": None,
            "effectivity": None,
            "classic": float(np.sqrt(classic_indicators(problem, U,
                                                        quad_degree).sum())),
            "kappa": kappa,
            "theta_mark": theta_mark,
            "theta_min": float(theta_factor(mesh.h_elem, kappa).min()),
            "repriced_elements": duals.n_new_elements,
            "repriced_faces": duals.n_new_faces,
            "n_marked_vertices": 0,
            "n_marked_elements": 0,
            "seconds": 0.0,
        }
        if osc_every and it % osc_every == 0:
            osc = all_oscillations(problem, interpolated, depth, quad_degree)
            record["oscillation"] = float(np.sqrt((osc**2).sum()))
            record["total"] = float(np.sqrt((E**2).sum() + (osc**2).sum()))
        if problem.exact is not None and problem.exact.grad is not None:
            err = float(np.sqrt(energy_error_sq_elements(
                problem, U, quad_degree).sum()))
            record["error"] = err
            if err > 0.0:
                record["effectivity"] = record["total"] / err
        report.records.append(record)
        if keep_meshes:
            report.meshes.append(mesh)
            report.solutions.append(U)
        if dofs > max_dof:
            report.stop_reason = "max_dof reached"
            record["seconds"] = time.perf_counter() - t0
            break
        if estimator == 0.0:
            report.stop_reason = "estimator vanished"
            record["seconds"] = time.perf_counter() - t0
            break
        verts = dorfler_vertices(E, theta_mark)
        elems = star_union(mesh, verts)
        record["n_marked_vertices"] = int(len(verts))
        record["n_marked_elements"] = int(len(elems))
        report.marked.append(elems)
        refined = bisect(mesh, elems)
        problem = problem.on_mesh(refined)
        record["seconds"] = time.perf_counter() - t0
    else:
        report.stop_reason = "max_iter reached"
    return report


STUDY_COLUMNS = ("kappa", "iteration", "dofs", "estimator", "oscillation",
                 "error", "effectivity")


class StudyReport:
    """Per-kappa adaptive trajectories with effectivity bookkeeping."""

    def __init__(self):
        self.runs = {}

    def rows(self):
        out = []
        for kappa in sorted(self.runs):
            for r in self.runs[kappa].records:
                out.append({key: (kappa if key == "kappa" else r[key])
                            for key in STUDY_COLUMNS})
        return out

    def effectivities(self):
        out = {}
        for kappa, run in self.runs.items():
            vals = [r["effectivity"] for r in run.records
                    if r["effectivity"] is not None]
            out[kappa] = vals
        return out

    def spread(self):
        """max/min of all recorded effectivities across kappa and iteration."""
        vals = [v for vs in self.effectivities().values() for v in vs]
        if not vals:
            return None
        return max(vals) / min(vals)

    def classic_spread(self):
        """Same ratio for the classical indicator, recorded for comparison."""
        vals = []
        for run in self.runs.values():
            for r in run.records:
                if r["error"] not in (None, 0.0):
                    vals.append(r["classic"] / r["error"])
        if not vals:
            return None
        return max(vals) / min(vals)

    def summary(self):
        eff = self.effectivities()
        per_kappa = {
            kappa: {
                "iterations": len(run.records),
                "final_dofs": run.final["dofs"],
                "final_estimator": run.final["estimator"],
                "final_effectivity": eff[kappa][-1] if eff[kappa] else None,
                "stop_reason": run.stop_reason,
            }
            for kappa, run in self.runs.items()
        }
        return {"per_kappa": per_kappa, "effectivity_spread": self.spread(),
                "classic_spread": self.classic_spread()}


def reference_errors(run, problem, quad_degree=DEFAULT_DEGREE, sweeps=2):
    """Energy distances of the stored solutions to a refined reference solve.

    The reference lives on a uniform refinement of the final mesh; every
    stored solution prolongates there exactly (the meshes are nested), so
    this is the discrete stand-in for the true error when none is known.
    """
    if not run.meshes:
        raise ValueError("run was not made with keep_meshes=True")
    chain = []
    mesh = run.meshes[-1]
    for _ in range(sweeps):
        mesh = bisect(mesh, np.arange(mesh.n_elements))
        chain.append(mesh)
    ref_mesh = chain[-1]
    ref_problem = problem.on_mesh(ref_mesh)
    U_ref = galerkin.solve(ref_problem, quad_degree=quad_degree)
    errors = []
    for i, U in enumerate(run.solutions):
        V = U
        for finer in run.meshes[i + 1:]:
            V = prolongate(V, finer)
        for finer in chain:
            V = prolongate(V, finer)
        diff = galerkin.DiscreteFunction(ref_mesh, U_ref.values - V.values)
        errors.append(energy_norm(ref_mesh, run.kappa, diff))
    return errors


def robustness_study(family, kappas, max_dof=2000, theta_mark=0.5, depth=2,
                     osc_every=1, quad_degree=DEFAULT_DEGREE, mesh=None,
                     max_iter=100):
    """Adaptive runs across a kappa sweep with per-iteration effectivities.

    `family` is either a preset name (then `mesh` provides the initial mesh)
    or a callable kappa -> Problem.  Families without a usable exact solution
    get a reference proxy: the final mesh is refined twice more, solved, and
    the stored solutions are compared against that solve.
    """
    report = StudyReport()
    for kappa in kappas:
        if callable(family):
            problem = family(kappa)
        else:
            if mesh is None:
                raise ValueError("preset families need an initial mesh")
            problem = galerkin.make_problem(mesh, kappa, family)
        has_exact = problem.exact is not None and problem.exact.grad is not None
        run = adaptive_loop(problem, theta_mark=theta_mark, max_dof=max_dof,
                            depth=depth, osc_every=osc_every,
                            quad_degree=quad_degree, max_iter=max_iter,
                            keep_meshes=not has_exact)
        if not has_exact and run.solutions:
            errors = reference_errors(run, problem, quad_degree)
            for rec, err in zip(run.records, errors):
                rec["error"] = err
                if err > 0.0:
                    rec["effectivity"] = rec["total"] / err
        report.runs[kappa] = run
    return report
