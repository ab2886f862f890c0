"""The three workloads: seeded start meshes, the call each runs, output checks.

Each workload is a start mesh made from the seed (the program only sees the
mesh file) plus one call into rdafem's public entry points.  `observe` turns
the program's outputs into integers, floats and a list of broken invariants;
run.py compares the first two with the values recorded in expected.json.
"""

import csv
import json
import math
import os

import numpy as np

import meshgen

NAMES = ("study-osc", "adapt-layer", "solve-fine")
KAPPAS = ("1", "1e2", "1e4")
# a paper property, also used by the acceptance suite: effectivities stay in it
EFFECTIVITY_WINDOW = (0.1, 30.0)
# Recorded floats must match to this relative tolerance.  Congruent copies of
# one start mesh, which differ only in numbering and orientation, already
# differ by up to 7.1e-7 (adapt-layer: ties in the marking broken in another
# order); a correct change to the order of operations can flip such a tie too.
FLOAT_RTOL = 1e-5
# const1 has f = Pi f, so its oscillation is rounding noise (about 1e-17 of
# an estimator of order 1) and is checked as negligible, not compared
OSC_NEGLIGIBLE = 1e-10
# |U|_E^2 + |u - U|_E^2 = |u|_E^2 (Galerkin orthogonality), up to quadrature
PYTHAGORAS_RTOL = 1e-6

# The adaptive workloads start from one fixed random-marked NVB mesh; the
# workload seed picks a congruent copy of it (meshgen.congruent_copy).  Start
# meshes drawn afresh per seed changed the adaptive work by up to 25%.
BASE_SEED = 20110
SIZES = {
    "full": {
        "study-osc": {"uniform": 3, "random_steps": 2, "max_dof": 150},
        "adapt-layer": {"uniform": 5, "random_steps": 3, "max_dof": 5000,
                        "symmetries": 4},
        "solve-fine": {"uniform": 14, "graded": (0.5, 0.5, 0.5)},
    },
    "smoke": {
        "study-osc": {"uniform": 2, "random_steps": 1, "max_dof": 12},
        "adapt-layer": {"uniform": 3, "random_steps": 1, "max_dof": 200,
                        "symmetries": 4},
        "solve-fine": {"uniform": 8, "graded": (0.5,)},
    },
}


def make_mesh(name, scale, seed):
    """The start mesh (vertices, elements) of a workload for a seed."""
    size = SIZES[scale][name]
    rng = np.random.default_rng([seed, NAMES.index(name)])
    vertices, elements = meshgen.refine_uniform(*meshgen.unit_square(),
                                                size["uniform"])
    if "graded" in size:
        return meshgen.refine_graded(vertices, elements, rng, size["graded"])
    base = np.random.default_rng([BASE_SEED, NAMES.index(name)])
    vertices, elements = meshgen.refine_random(vertices, elements, base,
                                               size["random_steps"], 0.25)
    # layer1d is symmetric under x -> 1-x and y -> 1-y only
    return meshgen.congruent_copy(vertices, elements, rng,
                                  size.get("symmetries", 8))


def worker_spec(name, scale, mesh_path, out_dir):
    """The entry point and arguments of one sample."""
    size = SIZES[scale][name]
    if name == "study-osc":
        return {"entry": "cli", "argv": [
            "study", "--preset", "const1", "--kappas", ",".join(KAPPAS),
            "--mesh", mesh_path, "--max-dof", str(size["max_dof"]),
            "--out", out_dir]}
    if name == "adapt-layer":
        return {"entry": "adaptive_loop", "mesh": mesh_path, "kappa": 1e4,
                "preset": "layer1d", "max_dof": size["max_dof"], "osc_every": 0}
    return {"entry": "cli", "argv": [
        "solve", "--preset", "sinsin", "--kappa", "1", "--mesh", mesh_path,
        "--out", out_dir]}


def _in_window(values):
    lo, hi = EFFECTIVITY_WINDOW
    return all(v is not None and lo <= v <= hi for v in values)


def _observe_study(size, out_dir):
    ints, floats, broken = {}, {}, []
    with open(os.path.join(out_dir, "study.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "study.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    effs = []
    for label in KAPPAS:
        key = format(float(label), ".17g")
        run = summary["per_kappa"][key]
        mine = [r for r in rows if float(r["kappa"]) == float(label)]
        last = mine[-1]
        ints[f"kappa={label}.iterations"] = run["iterations"]
        ints[f"kappa={label}.final_dofs"] = run["final_dofs"]
        floats[f"kappa={label}.final_estimator"] = float(last["estimator"])
        floats[f"kappa={label}.final_effectivity"] = float(last["effectivity"])
        effs += [float(r["effectivity"]) for r in mine]
        if len(mine) != run["iterations"]:
            broken.append(f"kappa={label}: {len(mine)} csv rows, "
                          f"{run['iterations']} iterations")
        if run["stop_reason"] != "max_dof reached" or run["final_dofs"] <= size["max_dof"]:
            broken.append(f"kappa={label}: stopped with {run['final_dofs']} dofs "
                          f"({run['stop_reason']})")
        if any(r["oscillation"] == "" for r in mine):
            broken.append(f"kappa={label}: an iteration has no oscillation")
        elif not all(0.0 <= float(r["oscillation"])
                     <= OSC_NEGLIGIBLE * float(r["estimator"]) for r in mine):
            broken.append(f"kappa={label}: oscillation above {OSC_NEGLIGIBLE:g} "
                          f"times the estimator, although f = Pi f")
    floats["effectivity_spread"] = summary["effectivity_spread"]
    if not _in_window(effs):
        broken.append(f"effectivity outside {EFFECTIVITY_WINDOW}")
    elif not math.isclose(max(effs) / min(effs), summary["effectivity_spread"],
                          rel_tol=1e-12):
        broken.append("effectivity_spread disagrees with study.csv")
    return ints, floats, broken


def _observe_adapt(size, report):
    records = report["records"]
    final = records[-1]
    ints = {"iterations": len(records), "final_dofs": final["dofs"]}
    floats = {key: final[key] for key in ("estimator", "error", "effectivity",
                                          "classic")}
    broken = []
    if report["stop_reason"] != "max_dof reached" or final["dofs"] <= size["max_dof"]:
        broken.append(f"stopped with {final['dofs']} dofs ({report['stop_reason']})")
    if any(r["oscillation"] is not None for r in records):
        broken.append("oscillation was priced although osc_every=0")
    if not _in_window([r["effectivity"] for r in records]):
        broken.append(f"effectivity outside {EFFECTIVITY_WINDOW}")
    if not final["error"] < records[0]["error"]:
        broken.append("the energy error did not decrease")
    return ints, floats, broken


def _observe_solve(out_dir, n_elements):
    with open(os.path.join(out_dir, "solve.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "solution.csv"), newline="") as fh:
        n_rows = sum(1 for _ in fh) - 1
    ints = {key: summary[key] for key in ("n_vertices", "n_elements", "dofs")}
    floats = {key: summary[key] for key in ("energy_norm", "error")}
    broken = []
    if summary["n_elements"] != n_elements:
        broken.append(f"{summary['n_elements']} elements read, {n_elements} written")
    if n_rows != summary["n_vertices"]:
        broken.append(f"solution.csv has {n_rows} rows for "
                      f"{summary['n_vertices']} vertices")
    # exact solution sin(pi x) sin(pi y), kappa = 1
    exact_sq = math.pi**2 / 2.0 + 0.25
    split = summary["energy_norm"]**2 + summary["error"]**2
    if not math.isclose(split, exact_sq, rel_tol=PYTHAGORAS_RTOL):
        broken.append(f"|U|^2 + |u-U|^2 = {split!r}, |u|^2 = {exact_sq!r}")
    return ints, floats, broken


def observe(name, scale, out_dir, result, n_elements):
    """(ints, floats, broken invariants) of one finished sample."""
    size = SIZES[scale][name]
    if name == "study-osc":
        ints, floats, broken = _observe_study(size, out_dir)
    elif name == "adapt-layer":
        ints, floats, broken = _observe_adapt(size, result["adapt"])
    else:
        ints, floats, broken = _observe_solve(out_dir, n_elements)
    ints["exit_code"] = result["exit_code"]
    return ints, floats, broken


def mismatches(ints, floats, reference):
    """Differences from a reference observation; [] when they agree."""
    out = [f"{key}: {ints.get(key)} != {want}"
           for key, want in reference["ints"].items() if ints.get(key) != want]
    for key, want in reference["floats"].items():
        got = floats.get(key)
        if got is None or not math.isclose(got, want, rel_tol=FLOAT_RTOL):
            out.append(f"{key}: {got!r} != {want!r} (rtol {FLOAT_RTOL:g})")
    return out


# per-layer cells that must read zero, or must not, on each workload
ZERO = {
    "study-osc": (),
    "adapt-layer": ("estimator.star_solves", "estimator.osc_s",
                    "adapt.reference_s", "galerkin.prolongate_s"),
    "solve-fine": ("estimator.star_solves", "estimator.osc_s",
                   "dual_system.build_s", "dual_system.pi_s",
                   "dual_system.cache_hits", "dual_system.cache_misses",
                   "mesh.bisect_s", "adapt.iterations"),
}
NONZERO = {
    "study-osc": ("estimator.osc_s", "estimator.star_solves", "adapt.reference_s",
                  "galerkin.prolongate_s", "mesh.bisect_s", "mesh.build_s",
                  "mesh.load_s", "dual_system.build_s", "dual_system.pi_s",
                  "galerkin.solve_s", "galerkin.cg_iters", "adapt.iterations",
                  "cli.write_s", "cli.bytes_written"),
    "adapt-layer": ("mesh.load_s", "mesh.build_s", "mesh.bisect_s",
                    "galerkin.assemble_s", "galerkin.solve_s", "galerkin.cg_iters",
                    "galerkin.error_s", "dual_system.build_s", "dual_system.pi_s",
                    "dual_system.cache_misses", "estimator.indicators_s",
                    "estimator.classic_s", "adapt.mark_s", "adapt.iterations"),
    "solve-fine": ("mesh.load_s", "mesh.build_s", "galerkin.assemble_s",
                   "galerkin.solve_s", "galerkin.cg_iters", "galerkin.error_s",
                   "cli.write_s", "cli.bytes_written"),
}
