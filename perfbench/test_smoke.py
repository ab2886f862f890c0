"""Smoke tests of the benchmark runner on tiny inputs, for every workload.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import meshgen  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def run_bench(cwd, workload, trace, seed=0):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_runner_prints_checked_metrics(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= (2 if trace else 1)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert result["metrics"]["wall_s"]["value"] > 0
        assert "failed_frac 0.000" in proc.stdout


def test_smoke_seed_is_recorded():
    # the recorded-value comparison itself runs in the smoke tests
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    for workload in workloads.NAMES:
        assert "0" in expected["smoke"][workload]


def test_same_seed_same_mesh_bytes():
    for workload in workloads.NAMES:
        first = meshgen.mesh_text(*workloads.make_mesh(workload, "smoke", 3))
        again = meshgen.mesh_text(*workloads.make_mesh(workload, "smoke", 3))
        other = meshgen.mesh_text(*workloads.make_mesh(workload, "smoke", 4))
        assert first == again
        assert first != other


def test_refuses_without_the_program(tmp_path):
    # only BENCHMARK.json and the benchmark's files: no rdafem to measure
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench(str(tmp_path), "solve-fine", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
