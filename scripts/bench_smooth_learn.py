"""Time learning.smooth_learn in process on this checkout and on a baseline
checkout, and write the results as JSON.

    python scripts/bench_smooth_learn.py --baseline ../parent/src --out BENCH.json

Each case draws P = 2000 diffusion or sources signals on a random connected
graph of n vertices (a random spanning tree plus about n more edges, weights
in [0.5, 1.5)) and runs smooth_learn at alpha = beta = 1 with its default cap
of 20 outer iterations. Each round runs the chosen cases once in a fresh
interpreter per checkout, with OPENBLAS_NUM_THREADS=1; the checkout that runs
first swaps every round. The JSON gives, per checkout and case, the median,
min and max seconds over the rounds, the outer iterations computed (the
length of the objective trace), the checkout's git sha and whether its
source tree had uncommitted changes, and the result: a SHA-256 of the bytes
of L and Y, and the last objective value. The results must be the same for
both checkouts and every round.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import sweep

P = 2000
ALPHA = BETA = 1.0
# name: (vertices, signal mode)
CASES = {f"{mode}_{n}": (n, mode) for n in (25, 50, 100, 300)
         for mode in ("diffusion", "sources")}
PARAMS = {"diffusion": {"h": (0.3, 0.2, 0.5)}, "sources": {}}


def worker(src: str, *names: str) -> None:
    """Run the named cases once on the graphtopo under src and print JSON:
    per case the seconds of the call, the outer iterations and the result."""
    sys.path.insert(0, src)
    import numpy as np
    from graphtopo.core import Graph
    from graphtopo.learning import smooth_learn
    from graphtopo.simulate import SimSpec, simulate

    out = {}
    for name in names:
        n, mode = CASES[name]
        x = simulate(sweep.connected_graph(np, Graph, n, seed=n),
                     SimSpec(mode, seed=1, p=P, params=PARAMS[mode])).x
        trace: list = []
        t0 = time.perf_counter()
        l, y = smooth_learn(x, ALPHA, BETA, objective_trace=trace)
        seconds = time.perf_counter() - t0
        digest = hashlib.sha256(np.ascontiguousarray(l.l).tobytes()
                                + np.ascontiguousarray(y.x).tobytes()).hexdigest()
        out[name] = [seconds, len(trace), [digest, trace[-1]]]
    print(json.dumps(out))


def main(argv=None) -> int:
    ap = sweep.parser(__doc__)
    ap.add_argument("--case", action="append", choices=list(CASES),
                    help="run only this case (repeatable; default: all)")
    args = ap.parse_args(argv)
    names = args.case or list(CASES)
    checkouts = sweep.checkouts(args.baseline)
    runs = sweep.rounds(__file__, checkouts, args.rounds, *names)
    rows = []
    for label, src in checkouts.items():
        for name in names:
            n, mode = CASES[name]
            iterations, result = runs[label][0][name][1:]
            if any(run[name][1:] != [iterations, result] for run in runs[label]):
                raise RuntimeError(f"{label} {name} gave different results across rounds")
            rows.append({"kernel": "learning.smooth_learn", "checkout": label,
                         **sweep.checkout_info(src),
                         "case": {"name": name, "n": n, "signals": mode, "p": P,
                                  "alpha": ALPHA, "beta": BETA},
                         **sweep.spread([run[name][0] for run in runs[label]]),
                         "outer_iterations": iterations, "result": result})
    same = all(a["result"] == b["result"] for a, b in zip(rows, rows[len(names):]))
    return sweep.write_report(args.out, "in process", same, rows)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:])
    else:
        sys.exit(main())
