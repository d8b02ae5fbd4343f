"""Seeded inputs of the benchmark workloads.

Inputs depend only on the seed. Run as a script, this module imports
graphtopo and writes one workload's inputs into a directory with
graphtopo's own writers; `run.py` times that as the set-up:

    PYTHONPATH=src python3 benchmarks/inputs.py --workload learn --seed 1 --dir inputs
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("learn", "metro", "solve")

# learn: diffusion signals on a sparse connected graph
LEARN_N = 60
LEARN_EDGES = 120
LEARN_P = 2000
LEARN_H = (0.3, 0.2, 0.5)
GLASSO_RHO = 0.05
REGRESS_RHO = 100.0
SMOOTH_ALPHA = 1.0
SMOOTH_BETA = 1.0

# metro: lines threaded through a pool of stations
METRO_N = 90
METRO_EDGES = 225
METRO_LINE_STOPS = 12
METRO_K = 2.0

# solve: many short commands on mid-size graphs
SWISS_N = 200
SWISS_TAU = 1.0
PAGES_N = 200
PAGES_OUT_DEGREE = 4
PAGERANK_DAMPING = (0.15, 0.85)
PAGERANK_TOL = 1e-9
DENOISE_K = 4
GDFT_DIMS = (6, 6, 6)
PORTFOLIO_PERIODS = 500
PORTFOLIO_ASSETS = 40
PORTFOLIO_CUTS = 6

def _connected_random_graph(rng: np.random.Generator, n: int, edges: int) -> np.ndarray:
    """Random spanning tree plus uniformly drawn extra edges, weights in [0.5, 1.5]."""
    w = np.zeros((n, n))
    order = rng.permutation(n)
    for k in range(1, n):
        i, j = order[k], order[rng.integers(k)]
        w[i, j] = w[j, i] = rng.uniform(0.5, 1.5)
    count = n - 1
    while count < edges:
        i, j = rng.choice(n, size=2, replace=False)
        if w[i, j] == 0.0:
            w[i, j] = w[j, i] = rng.uniform(0.5, 1.5)
            count += 1
    return w


def _is_connected(w: np.ndarray) -> bool:
    reached = np.zeros(w.shape[0], dtype=bool)
    reached[0] = True
    while True:
        grown = reached | (w[reached].sum(axis=0) > 0)
        if np.array_equal(grown, reached):
            return bool(reached.all())
        reached = grown


def _metro_graph(rng: np.random.Generator) -> np.ndarray:
    """Unit-weight lines of METRO_LINE_STOPS distinct stations each, added
    until the network has exactly METRO_EDGES edges; redrawn if disconnected."""
    n = METRO_N
    while True:
        w = np.zeros((n, n))
        count = 0
        while count < METRO_EDGES:
            stops = rng.choice(n, size=METRO_LINE_STOPS, replace=False)
            for a, b in zip(stops, stops[1:]):
                if w[a, b] == 0.0 and count < METRO_EDGES:
                    w[a, b] = w[b, a] = 1.0
                    count += 1
        if _is_connected(w):
            return w


def _pages_graph(rng: np.random.Generator) -> dict:
    """Directed link graph in which every page links to PAGES_OUT_DEGREE others."""
    links = []
    for src in range(PAGES_N):
        others = np.delete(np.arange(PAGES_N), src)
        for dst in rng.choice(others, size=PAGES_OUT_DEGREE, replace=False):
            links.append([src, int(dst), 1.0])
    return {"n": PAGES_N, "edges": links}


def write_inputs(workload: str, seed: int, out: Path) -> None:
    """Write the seeded input files of one workload into `out`."""
    from graphtopo import io
    from graphtopo.core import Graph

    rng = np.random.default_rng(np.random.SeedSequence((seed, 7919)))
    out.mkdir(parents=True, exist_ok=True)
    if workload == "learn":
        w = _connected_random_graph(rng, LEARN_N, LEARN_EDGES)
        io.write_graph_json(out / "graph.json", Graph.from_weights(w))
    elif workload == "metro":
        io.write_graph_json(out / "metro.json", Graph.from_weights(_metro_graph(rng)))
        q = rng.standard_normal(METRO_N)
        io.write_vector_csv(out / "flows.csv", q - q.mean())
    elif workload == "solve":
        pins = rng.choice(SWISS_N, size=3, replace=False)
        io.write_matrix_csv(out / "pins.csv",
                            [[pins[0], 1.0], [pins[1], 0.0], [pins[2], -0.5]])
        io.write_matrix_csv(out / "absorb.csv", [[pins[0], 1.0], [pins[1], 0.0]])
        io.write_vector_csv(out / "currents.csv", rng.standard_normal(SWISS_N))
        labels = rng.choice(SWISS_N, size=10, replace=False)
        io.write_matrix_csv(out / "labels.csv",
                            np.column_stack([labels, rng.integers(0, 2, size=10)]))
        io.write_vector_csv(out / "noisy.csv", rng.standard_normal(SWISS_N))
        # written as ordered pairs: io.write_graph_json keeps only i < j
        io.atomic_write_text(out / "pages.json", json.dumps(_pages_graph(rng)) + "\n")
        factors = rng.standard_normal((PORTFOLIO_PERIODS, 4))
        loadings = rng.standard_normal((4, PORTFOLIO_ASSETS))
        noise = rng.standard_normal((PORTFOLIO_PERIODS, PORTFOLIO_ASSETS))
        io.write_matrix_csv(out / "returns.csv", 0.01 * (factors @ loadings + noise))
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    args = parser.parse_args(argv)
    write_inputs(args.workload, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
