"""Record the checked outputs of each workload for a range of seeds.

    python3 perfbench/record.py --seeds 0-63 [--workload NAME] [--smoke]

Run from the repository root at the commit whose outputs are the reference.
Each seed runs one untraced sample; a sample that breaks an invariant is not
recorded.  The values merge into perfbench/expected.json, which run.py
compares every later sample with.
"""

import argparse
import json
import os
import sys

import run
import workloads


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="first-last, inclusive")
    p.add_argument("--workload", choices=workloads.NAMES, action="append")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))
    scale = "smoke" if args.smoke else "full"
    with open(run.EXPECTED) as fh:
        expected = json.load(fh)
    for name in args.workload or workloads.NAMES:
        table = expected.setdefault(scale, {}).setdefault(name, {})
        for seed in range(first, last + 1):
            bench = run.Bench(os.getcwd(), name, seed, scale)
            bench.expected = None
            bench.make_mesh()
            record = bench.sample(traced=False)
            if record["problems"]:
                print(f"{name} seed {seed}: not recorded: {record['problems']}",
                      file=sys.stderr)
                return 1
            table[str(seed)] = {"mesh_sha256": bench.mesh_sha256,
                                "ints": record["ints"], "floats": record["floats"]}
            print(f"{name} seed {seed}: {record['ints']}", flush=True)
            with open(run.EXPECTED, "w") as fh:
                json.dump(expected, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
