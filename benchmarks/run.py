"""Benchmark of graphtopo CLI pipelines.

    python3 benchmarks/run.py --workload learn --seed 1 --seconds 25 --trace 0

Writes the workload's seeded inputs (timed as set-up), then starts whole
passes of its command sequence until --seconds seconds have passed, one
`python -m graphtopo.cli` process per command, in a scratch directory
under .bench_work/. Every command's outputs are checked after timing.
With --trace 1 one more pass runs each command through traced_cli.py and
the per-layer metrics are reported instead of the end-to-end ones. The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUPS = 5
STARTUP_PROBES = 3
COMMAND_TIMEOUT_S = 150.0

# One BLAS thread and one simulate thread keep runs steady on a shared machine.
ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "GRAPHTOPO_THREADS": "1",
}

# The names in graphtopo.verify.CHECKS, fixed here so that the list of
# per-layer metrics does not change with the program.
VERIFY_CHECKS = (
    "laplacian_row_sums", "psd_floors", "soft_threshold_contraction",
    "ista_objective_monotonicity", "hitting_time_monte_carlo",
    "label_propagation_fixed_point", "worked_example_precision",
    "worked_example_pagerank", "worked_example_absorbing",
    "worked_example_hitting_commute",
)
PHYSICAL = ("circuit_solve", "absorbing_probabilities", "hitting_times",
            "effective_resistance", "commute_time", "pagerank", "label_propagation",
            "sparse_source_denoise", "monte_carlo_hitting")
# Functions whose inclusive span time is reported as <module>.<function>_s.
SPAN_TIMES = (
    "simulate.simulate", "solvers.lasso_ista",
    "learning.neighborhood_regression", "learning.polynomial_fit_eigenvalues",
    "learning.smooth_learn", "learning.correlation_matrix",
    "core.eig_sym", "core.laplacian",
    "metro.closeness_vitality", "metro.betweenness", "metro.fick_population",
    *(f"physical.{fn}" for fn in PHYSICAL),
    "lattice.separable_gdft", "portfolio.repeated_cuts", "geometric.swiss_roll_graph",
    *(f"verify.{name}" for name in VERIFY_CHECKS),
)
END_TO_END = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units(step_names) -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"cli.startup_s": "s"}
    units.update({f"cli.{name}_s": "s" for name in step_names})
    units.update({"io.read_s": "s", "io.write_s": "s",
                  "io.bytes_read": "bytes", "io.bytes_written": "bytes",
                  "solvers.glasso_s": "s"})
    units.update({f"{name}_s": "s" for name in SPAN_TIMES})
    units.update({"solvers.lasso_ista.calls": "count",
                  "solvers.lasso_ista.iterations": "count",
                  "solvers.lasso_ista.converged_per_call": "ratio",
                  "core.eig_sym.calls": "count",
                  "physical.pagerank.iterations": "count",
                  "portfolio.spectral_bisect.calls": "count",
                  "trace.overhead_s": "s"})
    return units


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclass
class Process:
    wall_s: float
    returncode: int
    peak_rss_mb: float


def run_process(argv, cwd: Path, stdout: Path, stderr: Path) -> Process:
    """Run argv to completion; wall time and peak RSS come from wait4."""
    env = {**os.environ, **ENV}
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(wall, proc.returncode, usage.ru_maxrss / 1024.0)


@dataclass
class Pass:
    wall_s: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0

    @property
    def pipeline_s(self) -> float:
        return sum(self.wall_s.values())


def run_pass(steps, work: Path, inputs: set[str], refs: dict, launch) -> Pass:
    """Run every step once, then check each step's outputs."""
    for path in work.iterdir():
        if path.name not in inputs:
            path.unlink()
    result = Pass()
    codes = {}
    for step in steps:
        proc = run_process(launch(step), work, work / f"{step.name}.stdout",
                           work / f"{step.name}.stderr")
        result.wall_s[step.name] = proc.wall_s
        result.peak_rss_mb = max(result.peak_rss_mb, proc.peak_rss_mb)
        codes[step.name] = proc.returncode
        if proc.returncode == 0 and step.after is not None:
            step.after(work)
    for step in steps:
        result.attempted += 1
        if codes[step.name] != 0:
            problems = [f"exit code {codes[step.name]}: "
                        + (work / f"{step.name}.stderr").read_text().strip()[-300:]]
        else:
            try:
                problems = step.check(work, refs)
            except Exception as exc:  # a check that cannot run fails its operation
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            result.failed += 1
            log(f"FAIL {step.name}: " + "; ".join(problems))
    return result


def set_up(workload: str, seed: int, work: Path) -> list[float]:
    """Write the inputs SETUPS times in fresh processes; return the times."""
    times = []
    for _ in range(SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        proc = run_process([sys.executable, str(HERE / "inputs.py"), "--workload", workload,
                            "--seed", str(seed), "--dir", "."], work,
                           work.parent / "setup.stdout", work.parent / "setup.stderr")
        if proc.returncode != 0:
            err = (work.parent / "setup.stderr").read_text()
            raise RuntimeError(f"set-up failed with exit code {proc.returncode}:\n{err}")
        times.append(proc.wall_s)
    return times


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times and counts from one command's spans. A function's
    time counts only its outermost span; glasso's is its self time."""
    from traced_cli import io_kind

    out: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        name = span["name"]
        duration = span["end"] - span["start"]
        ancestors = set()
        parent = span["parent"]
        while parent is not None:
            ancestors.add(spans[parent]["name"])
            parent = spans[parent]["parent"]
        if name == "solvers.glasso":
            duration -= sum(s["end"] - s["start"] for s in spans if s["parent"] == index)
        if name not in ancestors:
            out[f"{name}_s"] += duration
        kind = io_kind(name)
        if kind and not any(io_kind(a) for a in ancestors):
            out[f"io.{kind}_s"] += duration
            out["io.bytes_read" if kind == "read" else "io.bytes_written"] += span["bytes"]
        if name == "solvers.lasso_ista":
            out["solvers.lasso_ista.calls"] += 1
            out["solvers.lasso_ista.iterations"] += span["iterations"]
            out["solvers.lasso_ista.converged"] += span["converged"]
        elif name == "core.eig_sym":
            out["core.eig_sym.calls"] += 1
        elif name == "physical.pagerank":
            out["physical.pagerank.iterations"] += span["iterations"]
        elif name == "portfolio.spectral_bisect":
            out["portfolio.spectral_bisect.calls"] += 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "graphtopo" / "__init__.py").is_file():
        log(f"error: no graphtopo sources under {SRC}")
        return 1
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; "
            f"expected one of {sorted(workloads.WORKLOADS)}")
        return 1
    steps = workloads.steps(args.workload, args.seed)
    run_dir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, steps, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is still using it
            pass


def measure(args, steps, run_dir: Path) -> int:
    work = run_dir / "work"
    setup_times = set_up(args.workload, args.seed, work)
    inputs = {path.name for path in work.iterdir()}
    refs: dict = {}

    def untraced(step):
        return [sys.executable, "-m", "graphtopo.cli", *step.argv]

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(steps, work, inputs, refs, untraced))
    log(f"{args.workload}: {len(passes)} passes, pipeline_s "
        + ", ".join(f"{p.pipeline_s:.3f}" for p in passes) + "; per command "
        + ", ".join(f"{step.name} {statistics.median(p.wall_s[step.name] for p in passes):.3f}"
                    for step in steps))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    pipeline_s = statistics.median(p.pipeline_s for p in passes)

    if args.trace:
        metrics, traced = traced_metrics(steps, run_dir, inputs, refs, passes, pipeline_s)
        attempted += traced.attempted
        failed += traced.failed
        units = per_layer_units(workloads.ALL_STEP_NAMES)
    else:
        metrics = {
            "pipeline_s": pipeline_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def traced_metrics(steps, run_dir: Path, inputs, refs, passes, pipeline_s):
    """One traced pass and the startup probes; returns per-layer metrics."""
    work = run_dir / "work"
    spans_dir = run_dir / "spans"
    spans_dir.mkdir()

    def traced(step):
        return [sys.executable, str(HERE / "traced_cli.py"),
                str(spans_dir / f"{step.name}.json"), step.name, *step.argv]

    traced_pass = run_pass(steps, work, inputs, refs, traced)
    metrics: dict[str, float] = defaultdict(float)
    for step in steps:
        dump = spans_dir / f"{step.name}.json"
        if dump.exists():  # a command that failed early leaves none; it is counted failed
            for name, value in layer_metrics(json.loads(dump.read_text())).items():
                metrics[name] += value
        metrics[f"cli.{step.name}_s"] = statistics.median(p.wall_s[step.name] for p in passes)
    calls = metrics["solvers.lasso_ista.calls"]
    converged = metrics.pop("solvers.lasso_ista.converged", 0.0)
    metrics["solvers.lasso_ista.converged_per_call"] = converged / calls if calls else 0.0
    metrics["trace.overhead_s"] = traced_pass.pipeline_s - pipeline_s
    probes = []
    for _ in range(STARTUP_PROBES):
        proc = run_process([sys.executable, "-m", "graphtopo.cli", "verify", "--dry-run",
                            "--report", ""], work, work / "startup.stdout",
                           work / "startup.stderr")
        if proc.returncode != 0:
            raise RuntimeError("verify --dry-run failed")
        probes.append(proc.wall_s)
    metrics["cli.startup_s"] = statistics.median(probes)
    return metrics, traced_pass


if __name__ == "__main__":
    sys.exit(main())
