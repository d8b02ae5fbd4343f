"""Time graphtopo kernels in process on this checkout and on a baseline
checkout, and write the results as JSON.

    python scripts/sweep.py --baseline ../parent/src --out BENCH.json \\
        [--rounds 5] [--case NAME]...

CASES is the table, one row per case; --case picks rows by name (default:
all). A row names the graphtopo function it times ("module.function"), its
parameters (n sizes the input), a seeded builder of the calls' arguments,
run untimed, and an outcome function that digests the answers. To time a
new kernel, add one `rows(...)` entry to CASES: a name prefix (cases are
named prefix_n), the function, a builder and, unless the answers are float
arrays, an outcome function.

Each round runs the chosen cases once in a fresh interpreter per checkout,
with OPENBLAS_NUM_THREADS=1; the checkout that runs first swaps every round.
Rows marked `traced` run once more per checkout under tracemalloc after the
rounds, so the tracing does not slow the timed calls.

The JSON holds "machine", "same_results" and "timings": one entry per
checkout and case, giving the kernel, the checkout's git sha and whether its
source tree had uncommitted changes (both null for a baseline outside a git
work tree, such as a `git archive` export), the case (name and parameters), the
median, min and max seconds over the rounds and the round count, the
tracemalloc peak of traced rows, "iterations" and "converged" where the
kernel reports them, and "result": a SHA-256 of the answers' bytes and one
scalar of them (for Monte Carlo hitting, the (mean, stderr) it returns).
A result must repeat in every round and pass; the exit status is 1 when the
two checkouts' results differ.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

CHANGE_SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
P = 2000  # signals per case
SIGNAL_PARAMS = {"diffusion": {"h": (0.3, 0.2, 0.5)}, "sources": {}}


def connected_graph(n: int):
    """A seeded random connected graph (seed n): a random spanning tree plus
    about n more edges, weights in [0.5, 1.5)."""
    from graphtopo.core import Graph
    rng = np.random.default_rng(n)
    w = np.zeros((n, n))
    order = rng.permutation(n)
    parents = order[[rng.integers(k) for k in range(1, n)]]
    w[order[1:], parents] = rng.uniform(0.5, 1.5, n - 1)
    extra = np.triu(rng.random((n, n)) < 2.0 / n, 1) * rng.uniform(0.5, 1.5, (n, n))
    w = np.maximum(w + w.T, extra + extra.T)
    return Graph.from_weights(w)


def signals(c: dict) -> np.ndarray:
    """P seeded signals of c["signals"] mode on connected_graph(c["n"])."""
    from graphtopo.simulate import SimSpec, simulate
    mode = c["signals"]
    return simulate(connected_graph(c["n"]), SimSpec(mode, seed=1, p=c["p"],
                                                     params=SIGNAL_PARAMS[mode])).x


# ------------------------------------------------------------ call builders
# Each takes the case parameters and returns the timed calls' arguments, a
# list of (args, kwargs).

def walks_calls(c: dict, seed: int):
    """A path through all vertices in random order plus random edges with
    weights in [0.1, 1); p None gives the unit-weight path 0-1-...-(n-1)."""
    from graphtopo.core import Graph
    n, p = c["n"], c["p"]
    w = np.zeros((n, n))
    if p is None:
        w[np.arange(n - 1), np.arange(1, n)] = 1.0
    else:
        rng = np.random.default_rng(seed)
        w = np.triu(rng.random((n, n)) < p, 1) * rng.uniform(0.1, 1.0, (n, n))
        order = rng.permutation(n)
        a, b = np.minimum(order[:-1], order[1:]), np.maximum(order[:-1], order[1:])
        w[a, b] = rng.uniform(0.1, 1.0, n - 1)
    return [((Graph.from_weights(w + w.T), 0, n - 1), {"walks": c["walks"], "seed": 3})]


def graph_calls(c: dict):
    return [((connected_graph(c["n"]),), {})]


def laplacian_calls(c: dict):
    return [((connected_graph(c["n"]), c["kind"]), {})] * c["calls"]


def cuts_calls(c: dict):
    return [((connected_graph(c["n"]), c["cuts"]), {})]


def resistance_calls(c: dict):
    """c["calls"] ordered pairs (m, k), m != k, drawn from default_rng(n)."""
    n = c["n"]
    g, rng = connected_graph(n), np.random.default_rng(n)
    m = rng.integers(n, size=c["calls"])
    k = (m + rng.integers(1, n, size=c["calls"])) % n
    return [((g, int(a), int(b)), {}) for a, b in zip(m, k)]


def hitting_calls(c: dict):
    g = connected_graph(c["n"])
    return [((g, t), {}) for t in range(c["n"])]


def circuit_calls(c: dict):
    """The block solve of simulate's grounded modes: vertex 0 grounded, a
    unit current into each vertex."""
    from graphtopo.core import laplacian
    from graphtopo.physical import BoundaryCondition
    n = c["n"]
    return [((laplacian(connected_graph(n)), BoundaryCondition({0: 0.0}), np.eye(n)), {})]


def simulate_calls(c: dict):
    from graphtopo.simulate import SimSpec
    return [((connected_graph(c["n"]), SimSpec(c["signals"], seed=1, p=c["p"])), {})]


def smooth_calls(c: dict):
    return [((signals(c), c["alpha"], c["beta"]), {"objective_trace": []})]


def glasso_calls(c: dict):
    from graphtopo.learning import correlation_matrix
    from graphtopo.solvers import GlassoConfig
    return [((correlation_matrix(signals(c)), GlassoConfig(c["rho"])), {"report": {}})]


def regress_calls(c: dict):
    return [((signals(c), c["rho"]), {"report": {}})]


def polyfit_calls(c: dict):
    from graphtopo.learning import PolyFitConfig, correlation_matrix
    return [((correlation_matrix(signals(c)), PolyFitConfig(c["order"])), {})]


def lattice_calls(c: dict):
    from graphtopo.lattice import Lattice
    return [((Lattice(c["dims"]),), {})]


def csv_write_calls(c: dict):
    return [(("signals.csv", signals(c)), {})]


def csv_read_calls(c: dict):
    from graphtopo.io import write_matrix_csv
    write_matrix_csv("signals.csv", signals(c))
    return [(("signals.csv",), {})]


# ---------------------------------------------------------------- outcomes
# Each takes the answers of the calls and the first call's (args, kwargs),
# and returns the JSON fields "result" and, where reported, "iterations" and
# "converged".

def digest(arrays, scalar) -> list:
    data = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
    return [hashlib.sha256(data).hexdigest(), float(scalar)]


def sums(answers, call) -> dict:
    """All answers as one float array: its bytes and the sum of its finite
    entries (closeness vitality is infinite at a cut vertex)."""
    a = np.asarray(answers, dtype=float)
    return {"result": digest([a], a[np.isfinite(a)].sum())}


def walks_outcome(answers, call) -> dict:
    return {"result": list(answers[0])}


def reported(answers, call) -> dict:
    report = call[1]["report"]
    return {**sums(answers, call), "iterations": report["iterations"],
            "converged": report["converged"]}


def unwrapped(value, attr: str):
    """value's array `attr` when value is a wrapper of a baseline that still
    has one (BetaMatrix.b, ObservationMatrix.x), else value itself."""
    return getattr(value, attr, value)


def regress_outcome(answers, call) -> dict:
    return reported([unwrapped(b, "b") for b in answers], call)


def smooth_outcome(answers, call) -> dict:
    fit, trace = answers[0], call[1]["objective_trace"]
    return {"result": digest([fit.laplacian.l, unwrapped(fit.signal, "x")], trace[-1]),
            "iterations": len(trace), "converged": fit.converged}


def polyfit_outcome(answers, call) -> dict:
    eigenvalues, l = answers[0]
    return {"result": digest([eigenvalues, l.l], eigenvalues.sum())}


def simulate_outcome(answers, call) -> dict:
    return sums([a.x for a in answers], call)


def cuts_outcome(answers, call) -> dict:
    """Each vertex labelled with the index of its leaf."""
    labels = np.zeros(call[0][0].n)
    for i, leaf in enumerate(answers[0].leaves()):
        labels[list(leaf.vertices)] = i
    return sums([labels], call)


def laplacian_outcome(answers, call) -> dict:
    l = answers[0].l
    return {"result": digest([l], l.sum())}


def adjacency_outcome(answers, call) -> dict:
    w = answers[0].w
    return {"result": digest([w], w.sum())}


def gdft_outcome(answers, call) -> dict:
    d = answers[0]
    return {"result": digest([d.eigenvalues, d.eigenvectors], d.eigenvalues.sum())}


def written_outcome(answers, call) -> dict:
    data = Path(call[0][0]).read_bytes()
    return {"result": digest([np.frombuffer(data, np.uint8)], len(data))}


# ------------------------------------------------------------------- table

@dataclass(frozen=True)
class Case:
    kernel: str  # "module.function" under graphtopo, the function timed
    params: dict  # recorded as the case; n sizes the input
    build: Callable[[dict], list]  # params -> [(args, kwargs)] of the calls, untimed
    outcome: Callable[[list, tuple], dict] = sums
    traced: bool = False  # also measure the tracemalloc peak, in a separate pass


SIZES = (25, 50, 100, 300)
UP_TO_1000 = (*SIZES, 1000)


def rows(prefix: str, kernel: str, build, outcome=sums, sizes=SIZES, traced=False,
         **params) -> dict[str, Case]:
    """One case per size n, named prefix_n."""
    return {f"{prefix}_{n}": Case(kernel, {"n": n, **params}, build, outcome, traced)
            for n in sizes}


WALKS = [("verify_path", 6, None, 1_000_000), ("sparse_25", 25, 0.15, 100_000),
         ("sparse_100", 100, 0.05, 50_000), ("sparse_300", 300, 0.02, 20_000),
         ("dense_300", 300, 0.5, 20_000), ("dense_1000", 1000, 0.5, 5_000)]
CASES: dict[str, Case] = {
    name: Case("physical.monte_carlo_hitting", {"n": n, "p": p, "walks": walks},
               partial(walks_calls, seed=i), walks_outcome, traced=True)
    for i, (name, n, p, walks) in enumerate(WALKS)}
for mode in SIGNAL_PARAMS:
    CASES.update(rows(mode, "learning.smooth_learn", smooth_calls, smooth_outcome,
                      UP_TO_1000, signals=mode, p=P, alpha=1.0, beta=1.0))
CASES.update(rows("resistance", "physical.effective_resistance", resistance_calls, calls=500))
CASES.update({f"hitting_{n}": Case("physical.hitting_times", {"n": n, "calls": n},
                                   hitting_calls) for n in SIZES})
for mode in SIGNAL_PARAMS:
    CASES.update(rows(f"glasso_{mode}", "solvers.glasso", glasso_calls, reported,
                      signals=mode, p=P, rho=0.05))
for mode, rho in (("diffusion", 0.05), ("sources", 100.0)):
    CASES.update(rows(f"regress_{mode}", "learning.neighborhood_regression", regress_calls,
                      regress_outcome, signals=mode, p=P, rho=rho))
CASES.update({
    **rows("polyfit", "learning.polynomial_fit_eigenvalues", polyfit_calls, polyfit_outcome,
           UP_TO_1000, signals="diffusion", p=P, order=2),
    **rows("betweenness", "metro.betweenness", graph_calls, sizes=UP_TO_1000),
    **rows("vitality", "metro.closeness_vitality", graph_calls, sizes=UP_TO_1000),
    **rows("simulate", "simulate.simulate", simulate_calls, simulate_outcome, UP_TO_1000,
           signals="sources", p=P),
    **rows("cuts", "portfolio.repeated_cuts", cuts_calls, cuts_outcome, UP_TO_1000, cuts=6),
    **rows("circuit", "physical.circuit_solve", circuit_calls, sizes=UP_TO_1000),
    **rows("laplacian_combinatorial", "core.laplacian", laplacian_calls, laplacian_outcome,
           UP_TO_1000, kind="combinatorial", calls=10),
    **rows("laplacian_normalized", "core.laplacian", laplacian_calls, laplacian_outcome,
           UP_TO_1000, kind="normalized", calls=10),
    **rows("csv_write", "io.write_matrix_csv", csv_write_calls, written_outcome, UP_TO_1000,
           traced=True, signals="diffusion", p=P),
    **rows("csv_read", "io.read_matrix_csv", csv_read_calls, sizes=UP_TO_1000, traced=True,
           signals="diffusion", p=P),
})

LATTICE_DIMS = {25: (5, 5), 50: (5, 10), 100: (10, 10), 300: (10, 30), 1000: (10, 10, 10)}
for prefix, kernel, outcome in (
        ("lattice_adjacency", "lattice.kron_sum_adjacency", adjacency_outcome),
        ("lattice_gdft", "lattice.separable_gdft", gdft_outcome)):
    CASES.update({f"{prefix}_{n}": Case(kernel, {"n": n, "dims": dims}, lattice_calls,
                                        outcome, traced=True)
                  for n, dims in LATTICE_DIMS.items()})


# ------------------------------------------------------------------ runner

def worker(src: str, measure: str, *names: str) -> None:
    """Run the named cases once on the graphtopo under src, in a scratch
    working directory, and print JSON: per case the seconds ("time") or the
    tracemalloc peak bytes ("memory") of its calls, and its outcome."""
    sys.path.insert(0, src)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name in names:
            c = CASES[name]
            module, function = c.kernel.split(".")
            fn = getattr(importlib.import_module(f"graphtopo.{module}"), function)
            calls = c.build(c.params)
            if measure == "memory":
                tracemalloc.start()
            t0 = time.perf_counter()
            answers = [fn(*args, **kwargs) for args, kwargs in calls]
            value = time.perf_counter() - t0
            if measure == "memory":
                value = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            out[name] = [value, c.outcome(answers, calls[0])]
    print(json.dumps(out))


def spawn(src: Path, measure: str, names: list[str]) -> dict:
    """Run the worker in a fresh interpreter and return the JSON it prints."""
    proc = subprocess.run([sys.executable, __file__, "--worker", str(src), measure, *names],
                          env=ENV, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def checkout_info(src: Path) -> dict:
    """The git sha of src's checkout and whether its tree under src has
    uncommitted changes; both None for a directory outside a git work tree,
    such as a `git archive` export."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode:
        return {"git_sha": None, "dirty": None}
    return {"git_sha": head.stdout.strip(),
            "dirty": bool(git("status", "--porcelain", ".").stdout.strip())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True, help="src directory of the baseline checkout")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--case", action="append", choices=list(CASES), metavar="NAME",
                    help="run only this case (repeatable; default: all)")
    args = ap.parse_args(argv)
    names = args.case or list(CASES)
    traced = [name for name in names if CASES[name].traced]
    srcs = {"baseline": Path(args.baseline).resolve(), "change": CHANGE_SRC}
    infos = {label: checkout_info(src) for label, src in srcs.items()}
    runs: dict[str, list] = {label: [] for label in srcs}
    for r in range(args.rounds):
        for label, src in list(srcs.items())[::1 if r % 2 == 0 else -1]:
            runs[label].append(spawn(src, "time", names))
            print(f"round {r + 1} {label} done", file=sys.stderr)
    peaks = {label: spawn(src, "memory", traced) if traced else {}
             for label, src in srcs.items()}
    timings = []
    for label, info in infos.items():
        for name in names:
            passes = runs[label] + ([peaks[label]] if name in peaks[label] else [])
            outcome = passes[0][name][1]
            if any(run[name][1] != outcome for run in passes):
                raise RuntimeError(f"{label} {name} gave different results across rounds")
            seconds = [run[name][0] for run in runs[label]]
            row = {"kernel": CASES[name].kernel, "checkout": label, **info,
                   "case": {"name": name, **CASES[name].params},
                   "median_s": round(statistics.median(seconds), 4),
                   "min_s": round(min(seconds), 4), "max_s": round(max(seconds), 4),
                   "rounds": len(seconds)}
            if name in peaks[label]:
                row["tracemalloc_peak_mb"] = round(peaks[label][name][0] / 1e6, 2)
            timings.append({**row, **outcome})
    same = all(a["result"] == b["result"] for a, b in zip(timings, timings[len(names):]))
    machine = "in process" + ("; peaks from a separate tracemalloc pass" if traced else "")
    report = {"machine": f"{os.cpu_count()} CPUs, OPENBLAS_NUM_THREADS=1, {machine}",
              "same_results": same, "timings": timings}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if same else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:])
    else:
        sys.exit(main())
