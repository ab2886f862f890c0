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

# every option: key -> (type, default, help).  The flag is the key with '-'
# for '_', and the type converts flag and config values alike.
OPTIONS = {
    "mesh": (str, "square2", "mesh file path or one of: " + ", ".join(BUILTIN_MESHES)),
    "preset": (str, "sinsin", "problem preset: " + ", ".join(PRESET_NAMES)),
    "kappa": (float, 1.0, "reaction coefficient (> 0)"),
    "kappas": (str, None, "comma separated kappa list (study)"),
    "theta_mark": (float, 0.5, "marking fraction in (0,1)"),
    "max_dof": (int, 2000, "stop refining once the dof count exceeds this"),
    "quad_degree": (int, 8, "quadrature degree for analytic data"),
    "dual_depth": (int, 2, "red-refinement depth of the patch dual-norm solves"),
    "out": (str, ".", "output directory"),
    "seed": (int, 0, "seed for verify's sampling"),
    "threads": (int, 0, "BLAS thread cap (0 = library default)"),
    "config": (str, None, "key=value file; explicit flags win"),
}

RUN_COLUMNS = ("iteration", "dofs", "n_vertices", "n_elements", "estimator",
               "oscillation", "total", "error", "effectivity", "classic",
               "kappa", "theta_mark", "theta_min", "n_marked_vertices",
               "n_marked_elements", "seconds")

INDICATOR_COLUMNS = ("vertex_id", "x", "y", "E", "osc", "n_elements_in_star")


class UsageError(Exception):
    pass


def _valid_kappa(kappa):
    return 0.0 < kappa and kappa * kappa < math.inf  # kappa^2 may underflow


def build_parser():
    p = argparse.ArgumentParser(
        prog="rdafem",
        description="P1 solver and kappa-robust a posteriori error estimation "
                    "for -div grad u + kappa^2 u = f with zero Dirichlet data.")
    p.add_argument("command", choices=list(COMMANDS))
    for key, (kind, _, text) in OPTIONS.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind, help=text)
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
                if key not in OPTIONS or key == "config":
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = val
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    return values


def merge_options(args):
    """Flags beat config values beat defaults; validates ranges."""
    opts = {key: default for key, (_, default, _) in OPTIONS.items()}
    if args.config:
        for key, val in read_config(args.config).items():
            try:
                opts[key] = OPTIONS[key][0](val)
            except ValueError:
                raise UsageError(f"config key {key!r}: bad value {val!r}")
    for key in OPTIONS:
        given = getattr(args, key, None)
        if given is not None:
            opts[key] = given
    if opts["preset"] not in PRESET_NAMES:
        raise UsageError(f"unknown preset {opts['preset']!r} "
                         f"(have: {', '.join(PRESET_NAMES)})")
    if not _valid_kappa(opts["kappa"]):
        raise UsageError(f"--kappa must be positive and finite, with a finite square, "
                         f"got {opts['kappa']!r}")
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
        if not kappas or not all(_valid_kappa(k) for k in kappas):
            raise UsageError("--kappas must be a nonempty list of positive, finite "
                             f"values with finite squares, got {opts['kappas']!r}")
        repeated = sorted({k for i, k in enumerate(kappas) if k in kappas[:i]})
        if repeated:
            raise UsageError(f"--kappas lists {', '.join(map(repr, repeated))} "
                             f"more than once, got {opts['kappas']!r}")
        opts["kappas"] = kappas
    return opts


def fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        from .mesh import format_floats

        return format_floats(value)[0]
    return str(value)


def write_csv(path, columns):
    """Write a CSV file from {header: column values}, one array or list each,
    in blocks of rows (`row_blocks`, a cell for a point), one `%` format a
    block: `%.17g` for a float array, `%d` for an integer array, `%s` over
    `fmt` for anything else.  No cell, a number or blank, needs quoting."""
    import csv

    import numpy as np

    from .galerkin import check_finite
    from .mesh import row_blocks

    check_finite(columns)  # no NaN or infinity reaches an artefact
    n_rows = min((len(values) for values in columns.values()), default=0)
    codes = [{"f": "%.17g", "i": "%d", "u": "%d"}.get(values.dtype.kind, "%s")
             if isinstance(values, np.ndarray) else "%s" for values in columns.values()]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(columns)
        for block in row_blocks(n_rows, len(columns)):
            rows = len(range(n_rows)[block])
            cells = [None] * (rows * len(columns))
            for j, (code, values) in enumerate(zip(codes, columns.values())):
                cells[j::len(columns)] = (values[block].tolist() if code != "%s"
                                          else [fmt(v) for v in values[block]])
            fh.write((",".join(codes) + "\r\n") * rows % tuple(cells))


def record_columns(records, header):
    """{header: column} of a list of record dicts; missing keys are blank."""
    return {col: [row.get(col) for row in records] for col in header}


def write_json(path, payload):
    from .galerkin import check_finite

    check_finite(payload)  # no NaN or infinity reaches an artefact
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
    dofs = len(system.free)
    U = galerkin.solve(problem, quad_degree=opts["quad_degree"], system=system)
    del system  # the matrix goes before the output is written
    write_csv(os.path.join(outdir, "solution.csv"), {
        "vertex_id": np.arange(mesh.n_vertices), "x": mesh.vertices[:, 0],
        "y": mesh.vertices[:, 1], "u": U.values})
    summary = {
        "command": "solve", "mesh": label, "preset": opts["preset"],
        "kappa": opts["kappa"], "n_vertices": mesh.n_vertices,
        "n_elements": mesh.n_elements, "dofs": dofs,
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
    import numpy as np

    from . import galerkin
    from .adapt import adaptive_loop

    mesh, label = load_mesh_arg(opts["mesh"])
    problem = galerkin.make_problem(mesh, opts["kappa"], opts["preset"])
    # every dof count exceeds -1 (a budget of 0 would refine a mesh without
    # dofs): one solve and estimate of the loop, no refinement
    run = adaptive_loop(problem, max_dof=-1, depth=opts["dual_depth"],
                        quad_degree=opts["quad_degree"])
    if run.failed:
        print(f"rdafem estimate: {run.stop_reason}", file=sys.stderr)
        return EXIT_NUMERICAL
    summary = {"command": "estimate", "mesh": label, "preset": opts["preset"],
               "kappa": opts["kappa"]}
    summary.update({key: run.final[key] for key in (
        "estimator", "oscillation", "total", "classic", "error", "effectivity")})
    write_json(os.path.join(outdir, "estimate.json"), summary)
    star_sizes = np.bincount(mesh.elements.ravel(), minlength=mesh.n_vertices)
    write_csv(os.path.join(outdir, "indicators.csv"), dict(zip(INDICATOR_COLUMNS, (
        np.arange(mesh.n_vertices), mesh.vertices[:, 0], mesh.vertices[:, 1],
        run.E, run.osc, star_sizes))))
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
        "stop_reason": report.stop_reason, "final": report.final,
    }
    write_json(os.path.join(outdir, "adapt.json"), summary)
    if report.failed:
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
    failed = [run.stop_reason for run in report.runs.values() if run.failed]
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
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {outdir}: {exc}") from None

    from .galerkin import SolverError
    from .mesh import MeshError

    try:
        return COMMANDS[args.command](opts, outdir)
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
