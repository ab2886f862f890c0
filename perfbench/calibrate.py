"""A fixed reference process that measures how fast the host runs right now.

    python3 perfbench/calibrate.py

The benchmark's host is a share of a machine whose speed drifts by up to a
half over tens of seconds, in phases that reach every fresh process alike.
run.py times this script, spawn to exit, between the samples, and scales each
sample's times by REFERENCE_S over the median time of the calibrations just
before and just after it: the reported times read as on a host that runs
this script in REFERENCE_S.  The script imports only numpy and scipy, never
rdafem, so no change to the program moves it.  Like a sample it pays a fresh
interpreter, the numpy/scipy import and fresh memory; its kernel mirrors
rdafem's hot loops: Python dict work over mesh edges, numpy index
arithmetic, a sparse matrix-vector loop and many small dense solves.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg  # noqa: F401  (imported by every sample)

# the median time of this script, spawn to exit, on a 2-core shared Xeon VM;
# only a unit: a comparison of two runs does not depend on it
REFERENCE_S = 0.65


def kernel(seed=7):
    rng = np.random.default_rng(seed)
    n = 40_000
    edges = {}
    for a, b, c in rng.integers(0, 8_000, size=(16_000, 3)).tolist():
        for e in ((a, b), (b, c), (c, a)):
            key = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
            edges[key] = edges.get(key, 0) + 1
    index = rng.integers(0, n, size=200_000)
    counts = np.bincount(index, minlength=n)
    order = np.argsort(index, kind="stable")
    off = np.full(n - 1, -1.0)
    matrix = sp.diags([off, np.full(n, 4.0), off, off[:-199], off[:-199]],
                      [-1, 0, 1, -200, 200], format="csr")
    x = rng.random(n)
    for _ in range(150):
        x = matrix @ x
        x /= np.abs(x).max()
    blocks = rng.random((1_200, 12, 12)) + 12.0 * np.eye(12)
    total = 0.0
    for block, rhs in zip(blocks, rng.random((1_200, 12))):
        total += float(np.linalg.solve(block, rhs)[0])
    # 48 MB of fresh pages, as a sample's first assembly faults in
    fresh = np.zeros(6_000_000)
    fresh[::512] = 1.0
    return len(edges) + int(counts[index[order[0]]]) + float(x[0]) + total + fresh[0]


if __name__ == "__main__":
    kernel()
