import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from rdafem import cli
from rdafem.mesh import save_mesh, unit_square_crisscross


def run_cli(*argv):
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    return info.value.code


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_solve_artifacts(tmp_path):
    code = run_cli("solve", "--mesh", "crisscross", "--kappa", "3",
                   "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    header, rows = read_csv(tmp_path / "solution.csv")
    assert header == ["vertex_id", "x", "y", "u"]
    assert len(rows) == 5
    summary = json.loads((tmp_path / "solve.json").read_text())
    assert summary["command"] == "solve"
    assert summary["dofs"] == 1
    assert summary["error"] > 0


def test_python_m_rdafem_runs_the_cli(tmp_path):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "rdafem", "solve", "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert json.loads((tmp_path / "solve.json").read_text())["command"] == "solve"


def test_solve_json_reports_solver_numerics(tmp_path):
    from rdafem import galerkin as g
    from rdafem.mesh import load_mesh

    path = os.path.join(os.path.dirname(__file__), os.pardir, "meshes", "square_64.msh")
    assert run_cli("solve", "--mesh", path, "--out", str(tmp_path)) == cli.EXIT_OK
    summary = json.loads((tmp_path / "solve.json").read_text())
    assert set(summary) == {
        "command", "mesh", "preset", "kappa", "n_vertices", "n_elements", "dofs",
        "energy_norm", "error", "cg_iterations", "cg_residual", "preconditioner"}
    U = g.solve(g.make_problem(load_mesh(path), 1.0, "sinsin"))
    assert {key: summary[key] for key in U.solver_stats} == U.solver_stats
    assert summary["preconditioner"] == "jacobi"


def test_solution_floats_roundtrip(tmp_path):
    # values are printed with enough digits to reproduce the exact float
    from rdafem import galerkin as g

    run_cli("solve", "--mesh", "crisscross", "--kappa", "3", "--out",
            str(tmp_path))
    _, rows = read_csv(tmp_path / "solution.csv")
    m = unit_square_crisscross()
    U = g.solve(g.make_problem(m, 3.0, "sinsin"))
    for row in rows:
        z = int(row[0])
        assert float(row[3]) == U.values[z]


def test_estimate_artifacts(tmp_path):
    code = run_cli("estimate", "--mesh", "lshape", "--kappa", "10",
                   "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    header, rows = read_csv(tmp_path / "indicators.csv")
    assert tuple(header) == cli.INDICATOR_COLUMNS
    assert len(rows) == 8
    assert all(int(r[5]) >= 1 for r in rows)
    summary = json.loads((tmp_path / "estimate.json").read_text())
    assert summary["estimator"] > 0
    assert summary["total"] >= summary["estimator"]


@pytest.mark.parametrize("preset", ["sinsin", "const1"])
@pytest.mark.parametrize("mesh", ["square2", "crisscross", "lshape"])
def test_estimate_is_the_first_record_of_adapt(tmp_path, monkeypatch, mesh, preset):
    # one pass of the adaptive loop, also on square2, which has no dofs
    from rdafem import adapt

    runs = []
    loop = adapt.adaptive_loop

    def capture(*args, **kwargs):
        runs.append(loop(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(adapt, "adaptive_loop", capture)
    flags = ("--mesh", mesh, "--preset", preset, "--kappa", "10", "--dual-depth", "1")
    assert run_cli("estimate", *flags, "--out", str(tmp_path / "estimate")) == cli.EXIT_OK
    assert [len(run.records) for run in runs] == [1]
    assert run_cli("adapt", *flags, "--max-dof", "0",
                   "--out", str(tmp_path / "adapt")) == cli.EXIT_OK
    summary = json.loads((tmp_path / "estimate" / "estimate.json").read_text())
    header, rows = read_csv(tmp_path / "adapt" / "run.csv")
    first = dict(zip(header, rows[0]))
    for key in ("estimator", "oscillation", "total", "classic", "error", "effectivity"):
        # the CSV's 17 digits give back the float that the JSON holds
        assert summary[key] == (float(first[key]) if first[key] else None), key


def test_estimate_solver_failure_writes_nothing(tmp_path, monkeypatch, capsys):
    from rdafem import galerkin

    def fail(*args, **kwargs):
        raise galerkin.SolverError("PCG did not converge")

    monkeypatch.setattr(galerkin, "solve", fail)
    assert run_cli("estimate", "--mesh", "crisscross",
                   "--out", str(tmp_path)) == cli.EXIT_NUMERICAL
    assert "solver failure" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_adapt_artifacts(tmp_path):
    code = run_cli("adapt", "--mesh", "square2", "--kappa", "1",
                   "--max-dof", "60", "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    header, rows = read_csv(tmp_path / "run.csv")
    assert tuple(header) == cli.RUN_COLUMNS
    assert len(rows) >= 3
    summary = json.loads((tmp_path / "adapt.json").read_text())
    assert summary["stop_reason"] == "max_dof reached"
    assert summary["iterations"] == len(rows)
    assert int(rows[-1][1]) > 60  # final dof count exceeded the budget


def test_study_artifacts(tmp_path):
    code = run_cli("study", "--mesh", "square2", "--kappas", "1,100",
                   "--max-dof", "50", "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    header, rows = read_csv(tmp_path / "study.csv")
    assert tuple(header) == ("kappa", "iteration", "dofs", "estimator",
                             "oscillation", "error", "effectivity")
    kappas = {float(r[0]) for r in rows}
    assert kappas == {1.0, 100.0}
    summary = json.loads((tmp_path / "study.json").read_text())
    assert summary["effectivity_spread"] >= 1.0
    assert set(summary["per_kappa"]) == {"1", "100"}


def test_verify_command_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        code = run_cli("verify", "--mesh", "crisscross", "--kappa", "100",
                       "--seed", "7", "--out", str(out))
        assert code == cli.EXIT_OK
    printed = capsys.readouterr().out
    assert "pass" in printed and "FAIL" not in printed
    assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()


def test_layer1d_off_the_unit_square_is_a_bad_mesh(tmp_path, capsys):
    code = run_cli("estimate", "--preset", "layer1d", "--kappa", "1e4",
                   "--mesh", "lshape", "--out", str(tmp_path))
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "bad mesh" in err and "layer1d" in err
    assert not (tmp_path / "estimate.json").exists()


def test_threads_flag_overrides_environment(tmp_path, monkeypatch):
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for name in names:
        monkeypatch.setenv(name, "4")
    assert run_cli("solve", "--mesh", "crisscross", "--out", str(tmp_path)) == cli.EXIT_OK
    assert all(os.environ[name] == "4" for name in names)
    assert run_cli("solve", "--mesh", "crisscross", "--threads", "1",
                   "--out", str(tmp_path)) == cli.EXIT_OK
    assert all(os.environ[name] == "1" for name in names)


def test_mesh_file_argument(tmp_path):
    path = tmp_path / "cross.msh"
    save_mesh(unit_square_crisscross(), path)
    code = run_cli("solve", "--mesh", str(path), "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    summary = json.loads((tmp_path / "solve.json").read_text())
    assert summary["n_elements"] == 4


def test_missing_mesh_file_names_path(tmp_path, capsys):
    code = run_cli("solve", "--mesh", str(tmp_path / "nope.msh"),
                   "--out", str(tmp_path))
    assert code == cli.EXIT_USAGE
    assert "nope.msh" in capsys.readouterr().err


def test_mesh_without_elements_is_a_bad_mesh(tmp_path, capsys):
    path = tmp_path / "none.msh"
    path.write_text("0 0\n")
    code = run_cli("solve", "--mesh", str(path), "--out", str(tmp_path / "out"))
    assert code == cli.EXIT_USAGE == 2
    err = capsys.readouterr().err
    assert "bad mesh" in err and "none.msh: mesh has no elements" in err
    assert not (tmp_path / "out" / "solution.csv").exists()


def test_usage_errors(tmp_path, capsys):
    assert run_cli("solve", "--preset", "bogus",
                   "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert "bogus" in capsys.readouterr().err
    assert run_cli("adapt", "--theta-mark", "1.5",
                   "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert run_cli("solve", "--kappa", "-3",
                   "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert run_cli("estimate", "--dual-depth", "9",
                   "--out", str(tmp_path)) == cli.EXIT_USAGE


def test_non_finite_kappa_is_a_usage_error(tmp_path, capsys):
    for value in ("nan", "inf"):
        assert run_cli("estimate", "--kappa", value,
                       "--out", str(tmp_path)) == cli.EXIT_USAGE
        assert "--kappa must be positive and finite" in capsys.readouterr().err
    assert run_cli("study", "--kappas", "1,nan", "--max-dof", "20",
                   "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert "--kappas" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    for line in ("kappa = nan\n", "kappas = 1,inf\n"):
        cfg.write_text(line)
        assert run_cli("study", "--config", str(cfg),
                       "--out", str(tmp_path)) == cli.EXIT_USAGE
        assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "estimate.json").exists()


def test_kappa_with_overflowing_square_is_a_usage_error(tmp_path, capsys):
    assert run_cli("estimate", "--kappa", "1e155", "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert "--kappa must be positive and finite, with a finite square" in (
        capsys.readouterr().err)
    assert run_cli("study", "--kappas", "1,1e155", "--max-dof", "20",
                   "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert "finite squares" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappa = 1e155\n")
    assert run_cli("adapt", "--config", str(cfg), "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert "finite square" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_repeated_kappa_is_a_usage_error(tmp_path, capsys):
    # a study runs each kappa once; a repeat would run twice and keep one
    for value in ("1,1,1e2", "1,1.0", "1e2,1,100"):
        assert run_cli("study", "--kappas", value, "--max-dof", "20",
                       "--out", str(tmp_path)) == cli.EXIT_USAGE == 2
        err = capsys.readouterr().err
        assert "more than once" in err and value in err
        assert ("100.0" if value.startswith("1e2") else "1.0") in err.split("once")[0]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappas = 1,1,1e2\n")
    assert run_cli("study", "--config", str(cfg), "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert "--kappas lists 1.0 more than once" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def assert_finite_artifacts(outdir):
    """Every number in the JSON and CSV files of outdir is finite."""
    def refuse(constant):
        raise AssertionError(f"{constant} in a JSON artefact")

    for path in outdir.iterdir():
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=refuse)
        elif path.suffix == ".csv":
            for row in read_csv(path)[1]:
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert np.isfinite(value), (path.name, row)


@pytest.mark.parametrize("command", ["estimate", "adapt", "study"])
def test_non_finite_results_are_numerical_failures(tmp_path, capsys, command):
    # kappa^2 U overflows in the squared residual norms
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = run_cli(command, "--mesh", "crisscross", "--kappa", "1e100",
                       "--max-dof", "30", "--out", str(tmp_path))
    assert code == cli.EXIT_NUMERICAL
    assert "numerical failure: non-finite estimator" in capsys.readouterr().err
    assert_finite_artifacts(tmp_path)
    if command == "adapt":
        summary = json.loads((tmp_path / "adapt.json").read_text())
        assert summary["stop_reason"] == "numerical failure: non-finite estimator"
        assert summary["iterations"] == 0 and summary["final"] is None
        assert read_csv(tmp_path / "run.csv") == (list(cli.RUN_COLUMNS), [])
    if command == "estimate":
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["estimate", "adapt"])
def test_kappa_whose_square_underflows_still_runs(tmp_path, command):
    assert run_cli(command, "--mesh", "crisscross", "--kappa", "1e-300",
                   "--max-dof", "30", "--out", str(tmp_path)) == cli.EXIT_OK
    assert_finite_artifacts(tmp_path)


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    assert run_cli("verify", "--seed", "-1", "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert "--seed must be nonnegative" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -4\n")
    assert run_cli("verify", "--config", str(cfg), "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert "--seed must be nonnegative" in capsys.readouterr().err


def test_negative_threads_is_a_usage_error(tmp_path, capsys):
    assert run_cli("solve", "--threads", "-3", "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert "--threads must be nonnegative" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads = -1\n")
    assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert "--threads must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "solution.csv").exists()


def test_config_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# study defaults\nkappa = 100\nmax-dof = 60\n")
    run_cli("adapt", "--config", str(cfg), "--max-dof", "30",
            "--out", str(tmp_path))
    summary = json.loads((tmp_path / "adapt.json").read_text())
    assert summary["kappa"] == 100.0  # from the config file
    assert summary["max_dof"] == 30  # flag beats config


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kappa = 1\nspeed = fast\n")
    code = run_cli("solve", "--config", str(cfg), "--out", str(tmp_path))
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{cfg}:2" in err and "speed" in err


def test_config_bad_syntax(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n")
    assert run_cli("solve", "--config", str(cfg),
                   "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert "key=value" in capsys.readouterr().err


def test_bad_option_values_are_usage_errors(tmp_path, capsys):
    assert run_cli("solve", "--quad-degree", "0",
                   "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert "rdafem: --quad-degree out of range [1, 30]" in capsys.readouterr().err
    assert run_cli("study", "--kappas", "1,x", "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert "rdafem: --kappas: cannot parse '1,x'" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max-dof = ten\n")
    assert run_cli("adapt", "--config", str(cfg), "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert "rdafem: config key 'max_dof': bad value 'ten'" in capsys.readouterr().err
    missing = tmp_path / "missing.cfg"
    assert run_cli("solve", "--config", str(missing),
                   "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert f"rdafem: cannot read config file {missing}: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_fmt_shortest_roundtrip():
    assert cli.fmt(None) == ""
    assert cli.fmt(0.1) == "0.10000000000000001"
    assert float(cli.fmt(np.pi)) == np.pi
    assert cli.fmt(7) == "7"


# -- CSV bytes against the dict-per-row writer ---------------------------------


def fmt_by_value(value):
    """Reference cell format of the dict-per-row writer."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv_by_rows(path, columns, rows):
    """Reference writer: one dict per row, one format call per cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt_by_value(row.get(col)) for col in columns])


def solution_rows(args, U):
    mesh = U.mesh
    return [{"vertex_id": z, "x": mesh.vertices[z, 0], "y": mesh.vertices[z, 1],
             "u": U.values[z]} for z in range(mesh.n_vertices)]


def indicator_rows(args, run):
    mesh = args[0].mesh
    star_sizes = np.bincount(mesh.elements.ravel(), minlength=mesh.n_vertices)
    return [{"vertex_id": z, "x": mesh.vertices[z, 0], "y": mesh.vertices[z, 1],
             "E": run.E[z], "osc": run.osc[z],
             "n_elements_in_star": int(star_sizes[z])}
            for z in range(mesh.n_vertices)]


MESH_ARGS = ("crisscross", "lshape", os.path.join(
    os.path.dirname(__file__), os.pardir, "meshes", "square_64.msh"))
# command -> (flags, CSV file, its columns, the call whose result the rows
# come from, the dict rows the command used to build from that call)
CSV_COMMANDS = {
    "solve": ((), "solution.csv", ("vertex_id", "x", "y", "u"),
              ("rdafem.galerkin", "solve"), solution_rows),
    "estimate": ((), "indicators.csv", cli.INDICATOR_COLUMNS,
                 ("rdafem.adapt", "adaptive_loop"), indicator_rows),
    "adapt": (("--max-dof", "60"), "run.csv", cli.RUN_COLUMNS,
              ("rdafem.adapt", "adaptive_loop"),
              lambda args, report: report.records),
    "study": (("--kappas", "1,100", "--max-dof", "40"), "study.csv", None,
              ("rdafem.adapt", "robustness_study"),
              lambda args, report: report.rows()),
}


@pytest.mark.parametrize("mesh", MESH_ARGS, ids=("crisscross", "lshape", "square_64"))
@pytest.mark.parametrize("command", sorted(CSV_COMMANDS))
def test_csv_bytes_match_row_writer(tmp_path, monkeypatch, command, mesh):
    import importlib

    from rdafem.adapt import STUDY_COLUMNS

    flags, name, columns, (module, attr), rows_of = CSV_COMMANDS[command]
    calls = []
    owner = importlib.import_module(module)
    original = getattr(owner, attr)

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, attr, capture)
    assert run_cli(command, "--mesh", mesh, "--kappa", "10", *flags,
                   "--out", str(tmp_path)) == cli.EXIT_OK
    assert len(calls) == 1
    reference = tmp_path / "reference.csv"
    write_csv_by_rows(reference, columns or STUDY_COLUMNS, rows_of(*calls[0]))
    written = (tmp_path / name).read_bytes()
    assert written.count(b"\n") > 1
    assert written == reference.read_bytes()
