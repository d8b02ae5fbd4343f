"""Rounds of in-process kernel timings on two checkouts, shared by the
per-kernel sweep scripts (`bench_monte_carlo.py`, `bench_smooth_learn.py`,
`bench_grounded.py`).

A sweep script runs as its own worker: `script --worker SRC ARGS...` imports
graphtopo from SRC, runs its cases and prints one JSON object. `rounds` runs
that worker once per round and checkout, each in a fresh interpreter with
OPENBLAS_NUM_THREADS=1, and swaps which checkout runs first every round.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE_SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def parser(doc: str) -> argparse.ArgumentParser:
    """--baseline, --rounds and --out; a script adds its own arguments."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--baseline", required=True, help="src directory of the baseline checkout")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--out", required=True, help="JSON file to write")
    return ap


def checkouts(baseline: str) -> dict[str, Path]:
    return {"baseline": Path(baseline).resolve(), "change": CHANGE_SRC}


def spawn(script: str, src: Path, *args: str) -> dict:
    """Run `script --worker src args...` in a fresh interpreter and return
    the JSON it prints."""
    proc = subprocess.run([sys.executable, script, "--worker", str(src), *args],
                          env=ENV, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def rounds(script: str, srcs: dict[str, Path], count: int, *args: str) -> dict[str, list]:
    """Each checkout's worker output, one per round; the checkout that runs
    first swaps every round."""
    runs: dict[str, list] = {label: [] for label in srcs}
    for r in range(count):
        for label, src in list(srcs.items())[::1 if r % 2 == 0 else -1]:
            runs[label].append(spawn(script, src, *args))
            print(f"round {r + 1} {label} done", file=sys.stderr)
    return runs


def connected_graph(np, Graph, n: int, seed: int):
    """A seeded random connected graph: a random spanning tree plus about n
    more edges, weights in [0.5, 1.5). np and Graph come from the worker's
    imports."""
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    order = rng.permutation(n)
    parents = order[[rng.integers(k) for k in range(1, n)]]
    w[order[1:], parents] = rng.uniform(0.5, 1.5, n - 1)
    extra = np.triu(rng.random((n, n)) < 2.0 / n, 1) * rng.uniform(0.5, 1.5, (n, n))
    w = np.maximum(w + w.T, extra + extra.T)
    return Graph.from_weights(w)


def checkout_info(src: Path) -> dict:
    """The checkout's git sha and whether its source tree has uncommitted
    changes."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    return {"git_sha": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "."))}


def spread(seconds: list[float]) -> dict:
    return {"median_s": round(statistics.median(seconds), 4),
            "min_s": round(min(seconds), 4), "max_s": round(max(seconds), 4),
            "rounds": len(seconds)}


def write_report(path, machine: str, same: bool, rows: list[dict]) -> int:
    """Write the sweep's JSON; the exit status is 1 when the checkouts'
    results differ."""
    report = {"machine": f"{os.cpu_count()} CPUs, OPENBLAS_NUM_THREADS=1, {machine}",
              "same_results": same, "timings": rows}
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if same else 1
