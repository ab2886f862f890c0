"""Benchmark runner: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload study-osc --seed 1 --seconds 20 --trace 0

Run it from the repository root; rdafem is imported from ./src.  The seed
makes the start mesh (written under perfbench/_work/); every sample is the
workload's call in a fresh single-threaded process.  With --trace 0 it
reports the end-to-end metrics, their times scaled by a reference process
timed around each sample (calibrate.py); with --trace 1 the per-layer ones from
traced samples that alternate with untraced ones.  Every sample's outputs
are checked; the last line of stdout is one JSON object.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import meshgen
import workloads
from calibrate import REFERENCE_S
from tracer import COUNTS, TIMES

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
EXPECTED = os.path.join(HERE, "expected.json")
DEADLINE_S = 170.0
# before each untraced sample: reference processes, then import-only ones
CALS_PER_GAP = 2
SETUP_PROBES = 1
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def machine_info(root):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)),
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "rdafem")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu, "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": BLAS_THREADS, "git_revision": rev,
        "src_sha256": digest.hexdigest(),
    }


class Bench:
    """Samples of one workload and seed, and their checks."""

    def __init__(self, root, name, seed, scale):
        self.root, self.name, self.seed, self.scale = root, name, seed, scale
        self.work = os.path.join(HERE, "_work", f"{name}-{scale}-{seed}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.update({var: BLAS_THREADS for var in THREAD_VARS})
        self.deadline = time.monotonic() + DEADLINE_S
        self.samples = []
        # gaps[i]: the reference processes' times just before sample i
        self.gaps = []
        self.probes = []  # (gap index, setup_s) of the import-only processes
        self.reference = None
        with open(EXPECTED) as fh:
            self.expected = json.load(fh).get(scale, {}).get(name, {}).get(str(seed))

    def make_mesh(self):
        t0 = time.perf_counter()
        self.mesh_path = os.path.join(self.work, "start.msh")
        vertices, elements = workloads.make_mesh(self.name, self.scale, self.seed)
        self.mesh_sha256, self.n_elements = meshgen.write_mesh(
            self.mesh_path, vertices, elements)
        return time.perf_counter() - t0

    def _timed(self, argv, tag):
        """Run one process to its end; (wall seconds, exit code, log path)."""
        log_path = os.path.join(self.work, f"log-{tag}.txt")
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=self.root,
                                    env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            # a blocking wait returns at exit; wait(timeout=...) polls in
            # steps of up to 50 ms, which would quantize the times
            timer = threading.Timer(max(1.0, self.time_left()), proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            return time.perf_counter() - t0, code, log_path

    def _worker(self, spec, tag):
        """Run one worker; (wall seconds, result dict or None, error or None)."""
        spec = dict(spec, src=os.path.join(self.root, "src"),
                    result=os.path.join(self.work, f"result-{tag}.json"),
                    spans=os.path.join(self.work, f"spans-{tag}.json"))
        wall, code, log_path = self._timed([WORKER, json.dumps(spec)], tag)
        if self.time_left() <= 0:
            return wall, None, "timed out"
        if code != 0:
            with open(log_path, errors="replace") as fh:
                tail = fh.read()[-400:].strip()
            return wall, None, f"worker exited with code {code}: {tail}"
        with open(spec["result"]) as fh:
            return wall, json.load(fh), None

    def gap(self, probes):
        """Reference processes, then `probes` import-only processes."""
        walls = []
        for _ in range(CALS_PER_GAP):
            wall, code, _ = self._timed([CALIBRATE], f"cal-{len(self.gaps)}")
            if code != 0:
                raise RuntimeError(f"reference process exited with code {code}")
            walls.append(wall)
        self.gaps.append(walls)
        for _ in range(probes):
            self.probes.append((len(self.gaps) - 1, self.probe(f"setup-{len(self.probes)}")))

    def speed_factor(self, i):
        """REFERENCE_S over the reference time around sample i."""
        return REFERENCE_S / statistics.median(self.gaps[i] + self.gaps[i + 1])

    def probe(self, tag):
        _, result, error = self._worker({"entry": "probe"}, tag)
        if error:
            raise RuntimeError(f"import probe failed: {error}")
        return result["setup_s"]

    def sample(self, traced):
        """Run and check one sample; returns its record."""
        n = len(self.samples)
        out_dir = os.path.join(self.work, f"out-{n}")
        spec = workloads.worker_spec(self.name, self.scale, self.mesh_path, out_dir)
        wall, result, error = self._worker(dict(spec, trace=traced), str(n))
        record = {"traced": traced, "wall_s": wall, "problems": []}
        if error:
            record["problems"].append(error)
        else:
            record.update(setup_s=result["setup_s"], maxrss_mb=result["maxrss_mb"],
                          run_s=result["run_s"])
            record["problems"] += self._check(result, out_dir, record)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.samples.append(record)
        return record

    def _check(self, result, out_dir, record):
        try:
            ints, floats, broken = workloads.observe(
                self.name, self.scale, out_dir, result, self.n_elements)
        except (OSError, KeyError, IndexError, ValueError, TypeError) as exc:
            return [f"outputs unreadable: {exc!r}"]
        record["ints"], record["floats"] = ints, floats
        problems = list(broken)
        if self.expected is not None:
            problems += [f"recorded: {m}" for m in
                         workloads.mismatches(ints, floats, self.expected)]
        if self.reference is None:
            self.reference = {"ints": ints, "floats": floats}
        else:
            problems += [f"first sample: {m}" for m in
                         workloads.mismatches(ints, floats, self.reference)]
        if "layers" in result:
            layers = result["layers"]
            record["layers"] = layers
            problems += [f"lookup: {p}" for p in result["lookup_problems"]]
            problems += [f"{m} is {layers[m]}, predicted 0"
                         for m in workloads.ZERO[self.name] if layers[m] != 0]
            problems += [f"{m} reads 0" for m in workloads.NONZERO[self.name]
                         if layers[m] == 0]
        return problems

    def time_left(self):
        return self.deadline - time.monotonic()


def median_of(records, key):
    values = [r[key] for r in records if key in r]
    return (statistics.median(values), len(values)) if values else (0.0, 0)


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(bench):
    """The end-to-end metrics; times are scaled to the reference speed."""
    ok = [i for i, r in enumerate(bench.samples) if not r["problems"]]
    walls = [bench.samples[i]["wall_s"] for i in ok]
    setups = ([value for _, value in bench.probes]
              + [bench.samples[i]["setup_s"] for i in ok])
    scaled_walls = [bench.samples[i]["wall_s"] * bench.speed_factor(i) for i in ok]
    scaled_setups = ([value * bench.speed_factor(g) for g, value in bench.probes]
                     + [bench.samples[i]["setup_s"] * bench.speed_factor(i)
                        for i in ok])
    rss = [bench.samples[i]["maxrss_mb"] for i in ok]
    attempted = len(bench.samples)
    failed = attempted - len(ok)
    reference = [wall for walls_ in bench.gaps for wall in walls_]
    print(f"  wall_s {median(scaled_walls):.4f} s (median of {len(walls)}; "
          f"unscaled {median(walls):.4f} s) | setup_s {median(scaled_setups):.4f} s "
          f"(median of {len(setups)}; unscaled {median(setups):.4f} s) | "
          f"peak_rss_mb {median(rss):.1f} MB | "
          f"failed_frac {failed / attempted:.3f} ({failed}/{attempted})")
    print(f"  reference process {median(reference):.4f} s (median of "
          f"{len(reference)}; the unit is {REFERENCE_S} s)")
    return {
        "wall_s": (median(scaled_walls), "s"),
        "setup_s": (median(scaled_setups), "s"),
        "peak_rss_mb": (median(rss), "MB"),
        "ok_frac": (len(ok) / attempted, "fraction"),
    }


def per_layer(bench, problems):
    traced = [r for r in bench.samples if r["traced"] and "layers" in r]
    plain = [r for r in bench.samples if not r["traced"] and not r["problems"]]
    if not traced:
        problems.append("no traced sample finished")
        return {}
    out = {}
    for metric in TIMES:
        out[metric] = (statistics.median(r["layers"][metric] for r in traced), "s")
    for metric in COUNTS:
        values = {r["layers"][metric] for r in traced}
        if len(values) > 1:
            problems.append(f"{metric} differs between traced samples: {sorted(values)}")
        out[metric] = (traced[0]["layers"][metric], "count")
    stars = out["estimator.star_solves"][0]
    out["estimator.star_ms"] = (1e3 * out["estimator.osc_s"][0] / stars
                                if stars else 0.0, "ms")
    overhead = median_of(traced, "wall_s")[0] - median_of(plain, "wall_s")[0]
    out["trace.overhead_s"] = (overhead, "s")
    for metric, (value, unit) in sorted(out.items()):
        print(f"  {metric:26s} {value:12.6g} {unit}")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, to test this runner itself")
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rdafem", "__init__.py")):
        print("run.py: no ./src/rdafem here; run from the repository root",
              file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed, "smoke" if args.smoke else "full")
    gen_s = bench.make_mesh()
    problems = []
    if bench.expected and bench.expected["mesh_sha256"] != bench.mesh_sha256:
        problems.append(f"start mesh {bench.mesh_sha256} differs from the "
                        f"recorded {bench.expected['mesh_sha256']}")
    if not args.trace:
        # the first import writes bytecode caches; it is not counted
        bench.probe("warmup")
    t0 = time.monotonic()
    cycles = []
    while True:
        start = time.monotonic()
        if not args.trace:
            # the host's speed drifts in phases of tens of seconds: time the
            # reference process right before and after every sample
            bench.gap(SETUP_PROBES)
        traced = bool(args.trace) and len(bench.samples) % 2 == 1
        bench.sample(traced)
        cycles.append(time.monotonic() - start)
        # stop where one more sample would end past --seconds
        ends_at = time.monotonic() - t0 + statistics.median(cycles)
        enough = ends_at > args.seconds and len(bench.samples) >= (2 if args.trace else 1)
        if enough or bench.time_left() < 2.0 * max(cycles):
            break
    if not args.trace:
        bench.gap(0)

    print(f"perfbench {args.workload} seed={args.seed} scale={bench.scale} "
          f"elements={bench.n_elements} mesh_sha256={bench.mesh_sha256[:16]} "
          f"mesh_gen_s={gen_s:.3f} recorded={bench.expected is not None}")
    metrics = per_layer(bench, problems) if args.trace else end_to_end(bench)
    failed = sum(1 for r in bench.samples if r["problems"])
    for i, r in enumerate(bench.samples):
        for problem in r["problems"]:
            print(f"  sample {i}: {problem}")
    for problem in problems:
        print(f"  {problem}")
    record = {
        "workload": args.workload, "seed": args.seed, "scale": bench.scale,
        "seconds": args.seconds, "trace": args.trace,
        "mesh_sha256": bench.mesh_sha256, "n_elements": bench.n_elements,
        "machine": machine_info(root), "reference_s": REFERENCE_S,
        "reference_runs": bench.gaps, "setup_probes": bench.probes,
        "samples": bench.samples, "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(bench.work, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(bench.samples), "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
