"""Command line front end: solve, estimate, adapt, study and verify.

Heavy imports happen inside `run` so that a `--threads` cap can land in the
environment before the numerics stack loads.
"""

import argparse
import json
import math
import os
import sys

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

BUILTIN_MESHES = ("square2", "crisscross", "lshape")
PRESET_NAMES = ("sinsin", "const1", "layer1d")

DEFAULTS = {
    "mesh": "square2",
    "preset": "sinsin",
    "kappa": 1.0,
    "kappas": None,
    "theta_mark": 0.5,
    "max_dof": 2000,
    "quad_degree": 8,
    "dual_depth": 2,
    "out": ".",
    "seed": 0,
    "threads": 0,
    "config": None,
}

RUN_COLUMNS = ("iteration", "dofs", "n_vertices", "n_elements", "estimator",
               "oscillation", "total", "error", "effectivity", "classic",
               "kappa", "theta_mark", "theta_min", "n_marked_vertices",
               "n_marked_elements", "seconds")

INDICATOR_COLUMNS = ("vertex_id", "x", "y", "E", "osc", "n_elements_in_star")


class UsageError(Exception):
    pass


def build_parser():
    p = argparse.ArgumentParser(
        prog="rdafem",
        description="P1 solver and kappa-robust a posteriori error estimation "
                    "for -div grad u + kappa^2 u = f with zero Dirichlet data.")
    p.add_argument("command", choices=["solve", "estimate", "adapt", "study",
                                       "verify"])
    p.add_argument("--mesh", help="mesh file path or one of: "
                                  + ", ".join(BUILTIN_MESHES))
    p.add_argument("--preset", help="problem preset: " + ", ".join(PRESET_NAMES))
    p.add_argument("--kappa", type=float, help="reaction coefficient (> 0)")
    p.add_argument("--kappas", help="comma separated kappa list (study)")
    p.add_argument("--theta-mark", dest="theta_mark", type=float,
                   help="marking fraction in (0,1)")
    p.add_argument("--max-dof", dest="max_dof", type=int,
                   help="stop refining once the dof count exceeds this")
    p.add_argument("--quad-degree", dest="quad_degree", type=int,
                   help="quadrature degree for analytic data")
    p.add_argument("--dual-depth", dest="dual_depth", type=int,
                   help="red-refinement depth of the patch dual-norm solves")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="seed for verify's sampling")
    p.add_argument("--threads", type=int,
                   help="BLAS thread cap (0 = library default)")
    p.add_argument("--config", help="key=value file; explicit flags win")
    return p


def read_config(path):
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, val = (part.strip() for part in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in DEFAULTS or key == "config":
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = val
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    return values


def merge_options(args):
    """Flags beat config values beat defaults; validates ranges."""
    opts = dict(DEFAULTS)
    if args.config:
        raw = read_config(args.config)
        for key, val in raw.items():
            base = DEFAULTS[key]
            try:
                if isinstance(base, int) and not isinstance(base, bool):
                    opts[key] = int(val)
                elif isinstance(base, float):
                    opts[key] = float(val)
                else:
                    opts[key] = val
            except ValueError:
                raise UsageError(f"config key {key!r}: bad value {val!r}")
    for key in DEFAULTS:
        given = getattr(args, key, None)
        if given is not None:
            opts[key] = given
    if opts["preset"] not in PRESET_NAMES:
        raise UsageError(f"unknown preset {opts['preset']!r} "
                         f"(have: {', '.join(PRESET_NAMES)})")
    if not 0.0 < opts["kappa"] < math.inf:
        raise UsageError(f"--kappa must be positive and finite, got {opts['kappa']!r}")
    if not 0.0 < opts["theta_mark"] < 1.0:
        raise UsageError("--theta-mark must lie in (0, 1)")
    if opts["quad_degree"] < 1 or opts["quad_degree"] > 30:
        raise UsageError("--quad-degree out of range [1, 30]")
    if opts["dual_depth"] < 0 or opts["dual_depth"] > 6:
        raise UsageError("--dual-depth out of range [0, 6]")
    for key in ("max_dof", "seed", "threads"):
        if opts[key] < 0:
            raise UsageError(f"--{key.replace('_', '-')} must be nonnegative, "
                             f"got {opts[key]}")
    if opts["kappas"] is not None:
        try:
            kappas = [float(part) for part in str(opts["kappas"]).split(",")]
        except ValueError:
            raise UsageError(f"--kappas: cannot parse {opts['kappas']!r}")
        if not kappas or not all(0.0 < k < math.inf for k in kappas):
            raise UsageError("--kappas must be a nonempty list of positive, finite "
                             f"values, got {opts['kappas']!r}")
        opts["kappas"] = kappas
    return opts


def fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        from .mesh import format_floats

        return format_floats(value)[0]
    return str(value)


def format_column(values):
    """The cells of one CSV column: a float array in one pass, anything else
    value by value through `fmt`."""
    import numpy as np

    if isinstance(values, np.ndarray):
        if values.dtype.kind == "f":
            from .mesh import format_floats

            return format_floats(values)
        values = values.tolist()
    return [fmt(v) for v in values]


def write_csv(path, columns):
    """Write a CSV file from {header: column values}, one array or list each."""
    import csv

    cells = [format_column(values) for values in columns.values()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*cells))


def record_columns(records, header):
    """{header: column} of a list of record dicts; missing keys are blank."""
    return {col: [row.get(col) for row in records] for col in header}


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_mesh_arg(name):
    from . import mesh as mesh_mod

    if name == "square2":
        return mesh_mod.unit_square_2tri(), name
    if name == "crisscross":
        return mesh_mod.unit_square_crisscross(), name
    if name == "lshape":
        return mesh_mod.l_shape(), name
    if not os.path.exists(name):
        raise UsageError(f"mesh file not found: {name}")
    return mesh_mod.load_mesh(name), name


def cmd_solve(opts, outdir):
    import numpy as np

    from . import galerkin

    mesh, label = load_mesh_arg(opts["mesh"])
    problem = galerkin.make_problem(mesh, opts["kappa"], opts["preset"])
    system = galerkin.assemble(mesh, opts["kappa"])
    U = galerkin.solve(problem, quad_degree=opts["quad_degree"], system=system)
    write_csv(os.path.join(outdir, "solution.csv"), {
        "vertex_id": np.arange(mesh.n_vertices), "x": mesh.vertices[:, 0],
        "y": mesh.vertices[:, 1], "u": U.values})
    summary = {
        "command": "solve", "mesh": label, "preset": opts["preset"],
        "kappa": opts["kappa"], "n_vertices": mesh.n_vertices,
        "n_elements": mesh.n_elements, "dofs": int(len(system.free)),
        "energy_norm": galerkin.energy_norm(mesh, opts["kappa"], U),
        "error": None,
    }
    if problem.exact is not None and problem.exact.grad is not None:
        summary["error"] = galerkin.energy_error(problem, U,
                                                 quad_degree=opts["quad_degree"])
    summary.update(U.solver_stats)
    write_json(os.path.join(outdir, "solve.json"), summary)
    return EXIT_OK


def cmd_estimate(opts, outdir):
    from . import galerkin
    from .estimator import build_report

    mesh, label = load_mesh_arg(opts["mesh"])
    problem = galerkin.make_problem(mesh, opts["kappa"], opts["preset"])
    U = galerkin.solve(problem, quad_degree=opts["quad_degree"])
    import numpy as np

    report = build_report(problem, U, depth=opts["dual_depth"],
                          quad_degree=opts["quad_degree"])
    star_sizes = np.bincount(mesh.elements.ravel(), minlength=mesh.n_vertices)
    write_csv(os.path.join(outdir, "indicators.csv"), dict(zip(INDICATOR_COLUMNS, (
        np.arange(mesh.n_vertices), mesh.vertices[:, 0], mesh.vertices[:, 1],
        report.E, report.osc, star_sizes))))
    summary = {
        "command": "estimate", "mesh": label, "preset": opts["preset"],
        "kappa": opts["kappa"], "estimator": report.estimator,
        "oscillation": report.oscillation, "total": report.total,
        "classic": report.classic, "error": report.true_error,
        "effectivity": report.effectivity,
    }
    write_json(os.path.join(outdir, "estimate.json"), summary)
    return EXIT_OK


def cmd_adapt(opts, outdir):
    from . import galerkin
    from .adapt import adaptive_loop

    mesh, label = load_mesh_arg(opts["mesh"])
    problem = galerkin.make_problem(mesh, opts["kappa"], opts["preset"])
    report = adaptive_loop(problem, theta_mark=opts["theta_mark"],
                           max_dof=opts["max_dof"], depth=opts["dual_depth"],
                           quad_degree=opts["quad_degree"])
    write_csv(os.path.join(outdir, "run.csv"),
              record_columns(report.records, RUN_COLUMNS))
    summary = {
        "command": "adapt", "mesh": label, "preset": opts["preset"],
        "kappa": opts["kappa"], "theta_mark": opts["theta_mark"],
        "max_dof": opts["max_dof"], "iterations": len(report.records),
        "stop_reason": report.stop_reason,
        "final": report.records[-1] if report.records else None,
    }
    write_json(os.path.join(outdir, "adapt.json"), summary)
    if report.stop_reason and report.stop_reason.startswith("solver failure"):
        print(f"rdafem adapt: {report.stop_reason}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_study(opts, outdir):
    from .adapt import STUDY_COLUMNS, robustness_study

    mesh, label = load_mesh_arg(opts["mesh"])
    kappas = opts["kappas"] or [opts["kappa"]]
    report = robustness_study(opts["preset"], kappas, max_dof=opts["max_dof"],
                              theta_mark=opts["theta_mark"],
                              depth=opts["dual_depth"],
                              quad_degree=opts["quad_degree"], mesh=mesh)
    write_csv(os.path.join(outdir, "study.csv"),
              record_columns(report.rows(), STUDY_COLUMNS))
    summary = report.summary()
    summary.update({"command": "study", "mesh": label, "preset": opts["preset"],
                    "kappas": kappas})
    summary["per_kappa"] = {fmt(k): v for k, v in summary["per_kappa"].items()}
    write_json(os.path.join(outdir, "study.json"), summary)
    failed = [run.stop_reason for run in report.runs.values()
              if run.stop_reason and run.stop_reason.startswith("solver failure")]
    if failed:
        print(f"rdafem study: {failed[0]}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_verify(opts, outdir):
    from .verify import run_verify

    mesh, label = load_mesh_arg(opts["mesh"])
    report = run_verify(mesh, opts["kappa"], preset=opts["preset"],
                        seed=opts["seed"], depth=opts["dual_depth"],
                        quad_degree=opts["quad_degree"], mesh_label=label)
    write_json(os.path.join(outdir, "verify.json"), report)
    for check in report["checks"]:
        state = "pass" if check["pass"] else "FAIL"
        print(f"{state}  {check['name']}: {check['measured']:.6g} "
              f"(bound {check['bound']:.6g})")
    if not report["pass"]:
        print("rdafem verify: checks failed", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


COMMANDS = {
    "solve": cmd_solve,
    "estimate": cmd_estimate,
    "adapt": cmd_adapt,
    "study": cmd_study,
    "verify": cmd_verify,
}


def run(args):
    opts = merge_options(args)
    if opts["threads"]:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(opts["threads"])
    outdir = opts["out"]
    os.makedirs(outdir, exist_ok=True)

    from .galerkin import SolverError
    from .mesh import MeshError

    try:
        return COMMANDS[args.command](opts, outdir)
    except UsageError:
        raise
    except MeshError as exc:
        print(f"rdafem: bad mesh: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"rdafem: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = run(args)
    except UsageError as exc:
        print(f"rdafem: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()
