"""Time physical.effective_resistance and physical.hitting_times in process
on this checkout and on a baseline checkout, and write the results as JSON.

    python scripts/bench_grounded.py --baseline ../parent/src --out BENCH.json

Each case builds the seeded connected graph of `sweep.connected_graph` on n
vertices (seed n). `resistance_<n>` calls effective_resistance on PAIRS
ordered pairs (m, k), m != k, drawn from default_rng(n); `hitting_<n>` calls
hitting_times once for every target. Both are one grounded circuit_solve per
call. Each round runs the chosen cases once in a fresh interpreter per
checkout, with OPENBLAS_NUM_THREADS=1; the checkout that runs first swaps
every round. The JSON gives, per checkout and case, the median, min and max
seconds over the rounds, the number of calls, the checkout's git sha and
whether its source tree had uncommitted changes, and the result: a SHA-256
of the bytes of all answers of the case, and their sum. The results must be
the same for both checkouts and every round.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import sweep

PAIRS = 500
KERNELS = {"resistance": "physical.effective_resistance", "hitting": "physical.hitting_times"}
# name: (kernel, vertices)
CASES = {f"{kernel}_{n}": (kernel, n) for kernel in KERNELS for n in (25, 50, 100, 300)}


def worker(src: str, *names: str) -> None:
    """Run the named cases once on the graphtopo under src and print JSON:
    per case the seconds of all its calls, the call count and the result."""
    sys.path.insert(0, src)
    import numpy as np
    from graphtopo.core import Graph
    from graphtopo.physical import effective_resistance, hitting_times

    out = {}
    for name in names:
        kernel, n = CASES[name]
        g = sweep.connected_graph(np, Graph, n, seed=n)
        if kernel == "resistance":
            rng = np.random.default_rng(n)
            m = rng.integers(n, size=PAIRS)
            k = (m + rng.integers(1, n, size=PAIRS)) % n
            t0 = time.perf_counter()
            answers = [effective_resistance(g, int(a), int(b)) for a, b in zip(m, k)]
        else:
            t0 = time.perf_counter()
            answers = [hitting_times(g, t) for t in range(n)]
        seconds = time.perf_counter() - t0
        answers = np.asarray(answers, dtype=float)
        digest = hashlib.sha256(answers.tobytes()).hexdigest()
        out[name] = [seconds, len(answers), [digest, float(answers.sum())]]
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
            kernel, n = CASES[name]
            calls, result = runs[label][0][name][1:]
            if any(run[name][1:] != [calls, result] for run in runs[label]):
                raise RuntimeError(f"{label} {name} gave different results across rounds")
            rows.append({"kernel": KERNELS[kernel], "checkout": label,
                         **sweep.checkout_info(src),
                         "case": {"name": name, "n": n, "calls": calls},
                         **sweep.spread([run[name][0] for run in runs[label]]),
                         "result": result})
    same = all(a["result"] == b["result"] for a, b in zip(rows, rows[len(names):]))
    return sweep.write_report(args.out, "in process", same, rows)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:])
    else:
        sys.exit(main())
