"""Time physical.monte_carlo_hitting in process, and trace its memory, on
this checkout and on a baseline checkout, and write the results as JSON.

    python scripts/bench_monte_carlo.py --baseline ../parent/src --out BENCH.json

Each round runs every case once in a fresh interpreter per checkout, with
OPENBLAS_NUM_THREADS=1; the checkout that runs first swaps every round. After
the rounds, one more interpreter per checkout runs every case under
tracemalloc, so the tracing does not slow the timed calls. The JSON gives, per
checkout and case, the median, min and max seconds over the rounds, the
tracemalloc peak of the call, the checkout's git sha and whether its source
tree had uncommitted changes, and the (mean, stderr) the case returned, which
must be the same for both checkouts and both passes.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

import sweep

# name, vertices, edge probability (None: a path), walks
CASES = [
    ("verify_path", 6, None, 1_000_000),
    ("sparse_25", 25, 0.15, 100_000),
    ("sparse_100", 100, 0.05, 50_000),
    ("sparse_300", 300, 0.02, 20_000),
    ("dense_300", 300, 0.5, 20_000),
    ("dense_1000", 1000, 0.5, 5_000),
]


def _graph(np, Graph, n, p, seed):
    """A path through all vertices in random order plus random edges with
    weights in [0.1, 1); p None gives the unit-weight path 0-1-...-(n-1)."""
    w = np.zeros((n, n))
    if p is None:
        w[np.arange(n - 1), np.arange(1, n)] = 1.0
    else:
        rng = np.random.default_rng(seed)
        w = np.triu(rng.random((n, n)) < p, 1) * rng.uniform(0.1, 1.0, (n, n))
        order = rng.permutation(n)
        a, b = np.minimum(order[:-1], order[1:]), np.maximum(order[:-1], order[1:])
        w[a, b] = rng.uniform(0.1, 1.0, n - 1)
    return Graph.from_weights(w + w.T)


def worker(src: str, measure: str) -> None:
    """Run every case once on the graphtopo under src and print JSON: per
    case the seconds ("time") or the tracemalloc peak bytes ("memory") of the
    call, and its result."""
    sys.path.insert(0, src)
    import numpy as np
    from graphtopo.core import Graph
    from graphtopo.physical import monte_carlo_hitting

    out = {}
    for i, (name, n, p, walks) in enumerate(CASES):
        g = _graph(np, Graph, n, p, seed=i)
        if measure == "memory":
            tracemalloc.start()
            result = monte_carlo_hitting(g, 0, n - 1, walks=walks, seed=3)
            value = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        else:
            t0 = time.perf_counter()
            result = monte_carlo_hitting(g, 0, n - 1, walks=walks, seed=3)
            value = time.perf_counter() - t0
        out[name] = [value, list(result)]
    print(json.dumps(out))


def main(argv=None) -> int:
    args = sweep.parser(__doc__).parse_args(argv)
    checkouts = sweep.checkouts(args.baseline)
    runs = sweep.rounds(__file__, checkouts, args.rounds, "time")
    peaks = {label: sweep.spawn(__file__, src, "memory") for label, src in checkouts.items()}
    rows = []
    for label, src in checkouts.items():
        for name, n, p, walks in CASES:
            seconds = [run[name][0] for run in runs[label]]
            results = {tuple(run[name][1]) for run in [*runs[label], peaks[label]]}
            if len(results) != 1:
                raise RuntimeError(f"{label} {name} gave different results across rounds")
            rows.append({"kernel": "physical.monte_carlo_hitting", "checkout": label,
                         **sweep.checkout_info(src), "case": {"name": name, "n": n, "p": p,
                                                              "walks": walks},
                         **sweep.spread(seconds),
                         "tracemalloc_peak_mb": round(peaks[label][name][0] / 1e6, 2),
                         "result": list(results.pop())})
    same = all(a["result"] == b["result"] for a, b in zip(rows, rows[len(CASES):]))
    return sweep.write_report(args.out, "in process; peaks from a separate tracemalloc pass",
                              same, rows)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2], sys.argv[3])
    else:
        sys.exit(main())
