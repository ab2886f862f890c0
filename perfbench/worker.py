"""One sample of a workload, in a fresh process.

    python3 perfbench/worker.py '<json spec>'

The spec names the entry point ("cli" with an argv, "adaptive_loop" with a
mesh file, or "probe" for an import-only process), the source directory the
package must come from, and where to write the result.  Only the standard
library is loaded before the import of rdafem is timed.
"""

import json
import os
import sys
import time


def import_stack():
    """Import rdafem's layers and their numpy/scipy stack; seconds taken."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    import rdafem.adapt  # noqa: F401
    import rdafem.cli  # noqa: F401
    import rdafem.dual_system  # noqa: F401
    import rdafem.estimator  # noqa: F401
    import rdafem.galerkin  # noqa: F401
    import rdafem.mesh  # noqa: F401
    return time.perf_counter() - t0


def run_cli(argv):
    import rdafem.cli

    try:
        rdafem.cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def run_adaptive_loop(spec):
    import rdafem.adapt
    import rdafem.galerkin
    import rdafem.mesh

    mesh = rdafem.mesh.load_mesh(spec["mesh"])
    problem = rdafem.galerkin.make_problem(mesh, spec["kappa"], spec["preset"])
    report = rdafem.adapt.adaptive_loop(problem, max_dof=spec["max_dof"],
                                        osc_every=spec["osc_every"])
    return {"stop_reason": report.stop_reason, "records": report.records}


def peak_rss_mb():
    """This process's own peak resident memory.

    Not ru_maxrss: after a spawn that is at least the parent's peak, so the
    runner's own memory would show in a sample that needs less.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    spec = json.loads(sys.argv[1])
    setup_s = import_stack()
    import rdafem

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(rdafem.__file__).startswith(src + os.sep):
        raise SystemExit(f"rdafem was imported from {rdafem.__file__}, not {src}")
    result = {"setup_s": setup_s}
    if spec["entry"] != "probe":
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            result["lookup_problems"] = tracer.check_lookups()
        t0 = time.perf_counter()
        if spec["entry"] == "cli":
            result["exit_code"] = run_cli(spec["argv"])
        else:
            result["exit_code"] = 0
            result["adapt"] = run_adaptive_loop(spec)
        result["run_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            with open(spec["spans"], "w") as fh:
                json.dump(tracer.spans, fh)
    result["maxrss_mb"] = peak_rss_mb()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
