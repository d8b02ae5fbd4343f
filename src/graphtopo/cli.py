"""File-driven command line: generate, learn, solve, and report.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure.
Every run writes its outputs atomically and, unless suppressed, a JSON run
report recording the command, parameters, seed, wall time, and metrics.
Identical invocations with identical seeds produce byte-identical data
files; the report is excluded from that guarantee because it records wall
time.

Each command is one row of COMMANDS: its flags, a read step that loads and
validates the inputs, and a compute step that returns a Result. `_run` is
the one runner that takes every row through --dry-run, --strict, the
output writes and the run report. Only core and io load with this module;
each read and compute step imports the graphtopo modules it runs, so a
command loads no module it does not use.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import io
from .core import SIGNAL_MODES, NumericalError, laplacian

GENERATOR_NAME = "numpy.random.Generator(PCG64)"

_CUT_KINDS = {"cutn": "normalized", "cutv": "volume"}


class UsageError(Exception):
    """Bad flags or malformed inputs; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}")


def _read_bc(path):
    """Boundary/label CSV: one `index,value` row per fixed vertex. A
    non-integral or repeated index is refused, naming its row, counted from 1
    as read_matrix_csv counts them."""
    from .physical import BoundaryCondition
    m = np.atleast_2d(io.read_matrix_csv(path))
    if m.shape[1] != 2:
        raise UsageError(f"{path}: expected two columns (index, value)")
    fixed: dict[int, float] = {}
    for row, (index, value) in enumerate(m.tolist(), 1):
        if index != int(index):
            raise UsageError(f"{path}: row {row}: vertex index {index!r} is not an integer")
        if int(index) in fixed:
            raise UsageError(f"{path}: row {row} repeats vertex {int(index)}")
        fixed[int(index)] = value
    return BoundaryCondition(fixed)


def _write_plot_data(path, series: dict[str, np.ndarray]) -> None:
    """Tidy long-format CSV (x, y, series) for external plotters."""
    lines = ["x,y,series"]
    for name, values in series.items():
        for x, y in enumerate(np.asarray(values, dtype=float).ravel()):
            lines.append(f"{x},{float(y)!r},{name}")
    io.atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class Result:
    """What a compute step hands to the runner. `outputs` maps a report name
    to (path, data); the runner writes a graph as JSON, a 1-D array as a
    vector CSV and a 2-D array as a matrix CSV. `converged` is None for
    commands that do not iterate. A `failure` is raised as NumericalError
    once the outputs and the report are written."""

    outputs: dict[str, tuple[str, object]]
    metrics: dict | None = None
    plot_series: dict[str, np.ndarray] | None = None
    converged: bool | None = None
    failure: str | None = None


@dataclass(frozen=True)
class Command:
    """One CLI command. `read(args)` loads and validates the inputs and
    raises UsageError; `compute(args, inputs)` returns a Result; `plan`
    gives the lines --dry-run prints in place of "dry-run ok"."""

    group: str
    name: str | None  # None: the group itself is the command
    help: str
    flags: tuple
    read: Callable
    compute: Callable
    plan: Callable[[], list[str]] | None = None

    @property
    def label(self) -> str:
        return self.group if self.name is None else f"{self.group} {self.name}"


def _arg(*names, **kwargs):
    return names, kwargs


_COMMON = (
    _arg("--dry-run", action="store_true",
         help="validate inputs and exit without computing"),
    _arg("--report", default="report.json", help="run-report JSON path ('' to skip)"),
    _arg("--emit-plot-data", default=None, metavar="CSV",
         help="write tidy (x,y,series) plot data"),
)


def _write(path, data) -> None:
    if not isinstance(data, np.ndarray):
        io.write_graph_json(path, data)
    elif data.ndim == 1:
        io.write_vector_csv(path, data)
    else:
        io.write_matrix_csv(path, data)


def _finish(args, command: str, outputs: dict[str, str], *, wall_time_s: float,
            seed: int | None, converged: bool | None, metrics: dict | None) -> None:
    if args.report:
        parameters = {k: v for k, v in sorted(vars(args).items()) if not callable(v)}
        report = {
            "command": command,
            "parameters": parameters,
            "seed": seed,
            "generator": GENERATOR_NAME if seed is not None else None,
            "wall_time_s": round(wall_time_s, 6),
            "converged": converged,
            "metrics": metrics or {},
            "outputs": outputs,
        }
        io.atomic_write_text(args.report,
                             json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, path in outputs.items():
        print(f"wrote {name}: {path}")


def _run(cmd: Command, args) -> int:
    """Read, then stop on --dry-run; compute, then stop on --strict before
    anything is written; write the outputs and the report; then raise the
    Result's failure, if any."""
    t0 = time.perf_counter()
    inputs = cmd.read(args)
    if args.dry_run:
        print("\n".join(cmd.plan() if cmd.plan else [f"dry-run ok: {cmd.label}"]))
        return 0
    res = cmd.compute(args, inputs)
    if getattr(args, "strict", False) and not res.converged:
        raise NumericalError(f"{cmd.name} did not converge in {args.max_iter} iterations")
    outputs = {}
    for name, (path, data) in res.outputs.items():
        _write(path, data)
        outputs[name] = path
    if args.emit_plot_data and res.plot_series:
        _write_plot_data(args.emit_plot_data, res.plot_series)
        outputs["plot_data"] = args.emit_plot_data
    _finish(args, cmd.label, outputs, wall_time_s=time.perf_counter() - t0,
            seed=getattr(args, "seed", None), converged=res.converged, metrics=res.metrics)
    if res.failure:
        raise NumericalError(res.failure)
    return 0


def _read_obs(args):
    return io.read_matrix_csv(args.obs)


def _read_returns(args):
    from .portfolio import ReturnSeries
    return ReturnSeries(io.read_matrix_csv(args.returns))


def _read_lattice(args):
    from .lattice import Lattice
    return Lattice(_parse_ints(args.dims))


# ---------------------------------------------------------------- gen

def _read_swiss_roll(args):
    from .geometric import KernelSpec
    kernel = KernelSpec(kind=args.kernel, tau=args.tau, kappa=args.kappa)
    if args.n < 2:
        raise UsageError("--n must be >= 2")
    return kernel


def _gen_swiss_roll(args, kernel) -> Result:
    from .geometric import swiss_roll_graph
    g, cloud = swiss_roll_graph(args.n, args.seed, kernel)
    return Result({"graph": (args.out_graph, g), "coords": (args.out_coords, cloud.coords)},
                  {"vertices": g.n, "edges": int(np.count_nonzero(g.w) // 2)},
                  {f"coord_{d}": cloud.coords[:, d] for d in range(cloud.coords.shape[1])})


def _read_signal(args):
    from .simulate import SimSpec
    g = io.read_graph_json(args.graph)
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise UsageError("--params must be a JSON object")
    return g, SimSpec(args.mode, seed=args.seed, p=args.p, params=params)


def _gen_signal(args, inputs) -> Result:
    from .simulate import simulate
    x = simulate(*inputs)
    return Result({"signal": (args.out, x.x)},
                  {"mode": args.mode, "snapshots": args.p},
                  {"snapshot_0": x.x[:, 0]})


def _gen_lattice(args, lat) -> Result:
    from .lattice import kron_sum_adjacency
    g = kron_sum_adjacency(lat)
    return Result({"graph": (args.out, g)}, {"dims": list(lat.dims), "vertices": g.n},
                  {"degree": g.degrees()})


# ---------------------------------------------------------------- learn

def _read_lasso(args):
    from .solvers import LassoConfig
    obs = io.read_matrix_csv(args.obs)
    if args.target:
        a = obs
        y = io.read_vector_csv(args.target)
    else:
        # without --target, the first column is the response
        if obs.shape[1] < 2:
            raise UsageError("--obs needs >= 2 columns when --target is absent")
        y, a = obs[:, 0], obs[:, 1:]
    return a, y, LassoConfig(rho=args.rho, max_iter=args.max_iter, tol=args.tol)


def _learn_lasso(args, inputs) -> Result:
    from .solvers import lasso_ista
    a, y, cfg = inputs
    res = lasso_ista(a, y, cfg)
    objective = float(np.sum((y - a @ res.coefficients) ** 2)
                      + args.rho * np.sum(np.abs(res.coefficients)))
    return Result({"coefficients": (args.out, res.coefficients)},
                  {"iterations": res.iterations, "objective": objective,
                   "nonzeros": int(np.count_nonzero(res.coefficients))},
                  {"coefficient": res.coefficients}, res.converged)


def _read_glasso(args):
    from .solvers import GlassoConfig
    return io.read_matrix_csv(args.corr), GlassoConfig(rho=args.rho)


def _learn_glasso(args, inputs) -> Result:
    from .solvers import glasso
    r, cfg = inputs
    details: dict = {}
    q = glasso(r, cfg, report=details)
    off = q[~np.eye(q.shape[0], dtype=bool)]
    converged = details.pop("converged")
    return Result({"precision": (args.out, q)},
                  {"nonzero_offdiag": int(np.count_nonzero(off)), **details},
                  {"diagonal": np.diag(q)}, converged)


def _learned(args, w: np.ndarray, l: np.ndarray, metrics: dict,
             plot_series: dict | None = None, converged: bool | None = None) -> Result:
    """The Laplacian and weight outputs shared by the learn commands."""
    if args.truth:
        from .learning import weight_mse_db
        metrics["mse_db"] = weight_mse_db(w, io.read_matrix_csv(args.truth))
    if plot_series is None:
        plot_series = {"weight": w[np.triu_indices(w.shape[0], k=1)]}
    return Result({"laplacian": (args.out_l, l), "weights": (args.out_w, w)},
                  metrics, plot_series, converged)


def _learn_regress(args, x) -> Result:
    from .learning import neighborhood_regression, symmetrize_geometric
    details: dict = {}
    b = neighborhood_regression(x, args.rho, max_iter=args.max_iter, tol=args.tol,
                                report=details)
    g = symmetrize_geometric(b, clamp_negative=args.clamp_negative)
    return _learned(args, g.w, laplacian(g).l,
                    {"rho": args.rho, "unconverged_rows": details["unconverged_rows"],
                     "iterations": details["iterations"]},
                    converged=details["converged"])


def _learn_smooth(args, x) -> Result:
    from .learning import laplacian_to_weights, smooth_learn
    trace: list = []
    fit = smooth_learn(x, args.alpha, args.beta, outer_iters=args.outer_iters,
                       objective_trace=trace)
    l = fit.laplacian
    return _learned(args, laplacian_to_weights(l), l.l,
                    {"objective_trace": [float(v) for v in trace],
                     "iterations": fit.iterations},
                    {"objective": np.asarray(trace)}, converged=fit.converged)


def _read_polyfit(args):
    from .learning import PolyFitConfig
    return io.read_matrix_csv(args.obs), PolyFitConfig(m=args.order)


def _learn_polyfit(args, inputs) -> Result:
    from .learning import correlation_matrix, laplacian_to_weights, polynomial_fit_eigenvalues
    x, cfg = inputs
    eigenvalues, l = polynomial_fit_eigenvalues(correlation_matrix(x), cfg)
    return _learned(args, laplacian_to_weights(l), l.l,
                    {"order": args.order, "eigenvalues": [float(v) for v in eigenvalues]},
                    {"eigenvalue": eigenvalues})


def _learn_sources(args, inputs) -> Result:
    from .learning import laplacian_to_weights, learn_from_sources
    x, j = inputs
    details: dict = {}
    l = learn_from_sources(x, j, rho=args.rho, report=details)
    converged = details.pop("converged", None)
    return _learned(args, laplacian_to_weights(l), l.l, details, converged=converged)


# ---------------------------------------------------------------- solve

def _read_graph_bc(args):
    return io.read_graph_json(args.graph), _read_bc(args.bc)


def _read_circuit(args):
    g, bc = _read_graph_bc(args)
    return g, bc, io.read_vector_csv(args.sources) if args.sources else None


def _solve_circuit(args, inputs) -> Result:
    from .physical import circuit_solve
    g, bc, sources = inputs
    x = circuit_solve(laplacian(g), bc, sources)
    return Result({"potentials": (args.out, x)}, plot_series={"potential": x})


def _solve_absorb(args, inputs) -> Result:
    from .physical import absorbing_probabilities
    x = absorbing_probabilities(*inputs)
    return Result({"probabilities": (args.out, x)}, plot_series={"probability": x})


def _read_hitting(args):
    g = io.read_graph_json(args.graph)
    if not 0 <= args.target < g.n:
        raise UsageError(f"--target out of range for n={g.n}")
    return g


def _solve_hitting(args, g) -> Result:
    from .physical import hitting_times
    h = hitting_times(g, args.target)
    return Result({"hitting_times": (args.out, h)}, {"target": args.target},
                  {"hitting_time": h})


def _read_commute(args):
    g = io.read_graph_json(args.graph)
    if not (0 <= args.m < g.n and 0 <= args.n < g.n):
        raise UsageError(f"--m/--n out of range for n={g.n}")
    return g


def _solve_commute(args, g) -> Result:
    from .physical import effective_resistance
    r = effective_resistance(g, args.m, args.n)
    ct = float(g.degrees().sum()) * r
    return Result({"resistance_commute": (args.out, np.array([r, ct]))},
                  {"effective_resistance": r, "commute_time": ct})


def _read_pagerank(args):
    g = io.read_directed_graph_json(args.graph)
    damping = None
    if args.damping:
        parts = _parse_floats(args.damping)
        if len(parts) != 2:
            raise UsageError("--damping expects two numbers: teleport,scale")
        damping = (parts[0], parts[1])
    return g, damping


def _solve_pagerank(args, inputs) -> Result:
    from .physical import pagerank
    g, damping = inputs
    res = pagerank(g, damping=damping, tol=args.tol, max_iter=args.max_iter)
    return Result({"scores": (args.out, res.scores)}, {"iterations": res.iterations},
                  {"score": res.scores}, res.converged)


def _solve_propagate(args, inputs) -> Result:
    from .physical import label_propagation
    x = label_propagation(*inputs)
    return Result({"labels": (args.out, x)}, plot_series={"label": x})


def _solve_denoise(args, inputs) -> Result:
    from .physical import sparse_source_denoise
    g, y = inputs
    x = sparse_source_denoise(laplacian(g), y, k=args.k, reference=args.reference)
    return Result({"denoised": (args.out, x)}, {"k": args.k, "reference": args.reference},
                  {"denoised": x, "observed": y})


# ---------------------------------------------------------------- lattice

def _lattice_gdft(args, lat) -> Result:
    from .lattice import separable_gdft
    d = separable_gdft(lat)
    return Result({"eigenvectors": (args.out_u, d.eigenvectors),
                   "eigenvalues": (args.out_lam, d.eigenvalues)},
                  {"dims": list(lat.dims)}, {"eigenvalue": d.eigenvalues})


def _read_subsample(args):
    from .lattice import SamplingMap
    return io.read_graph_json(args.graph), SamplingMap(_parse_ints(args.keep))


def _lattice_subsample(args, inputs) -> Result:
    from .lattice import subsample
    g, sampling = inputs
    return Result({"graph": (args.out, subsample(g, sampling))},
                  {"kept": list(sampling.kept)})


# ---------------------------------------------------------------- portfolio

def _portfolio_cut(args, r) -> Result:
    from .portfolio import cut_value, market_graph, spectral_bisect
    kind = _CUT_KINDS[args.kind]
    g = market_graph(r)
    cut = spectral_bisect(g, kind=kind)
    value = cut_value(g, cut.side_one, kind)
    indicator = np.zeros(g.n)
    indicator[list(cut.side_one)] = 1.0
    indicator[list(cut.side_two)] = -1.0
    return Result({"partition": (args.out, indicator)},
                  {"cut_value": value, "side_one": list(cut.side_one),
                   "side_two": list(cut.side_two), "from_components": cut.from_components},
                  {"side": indicator})


def _portfolio_allocate(args, r) -> Result:
    from .portfolio import allocate, market_graph, repeated_cuts
    scheme = args.scheme.upper()
    tree = repeated_cuts(market_graph(r), args.cuts, kind=_CUT_KINDS[args.kind])
    w = allocate(tree, scheme)
    leaves = [sorted(leaf.vertices) for leaf in tree.leaves()]
    return Result({"weights": (args.out, w)},
                  {"scheme": scheme, "cuts": args.cuts, "leaves": leaves}, {"weight": w})


def _read_backtest(args):
    r = _read_returns(args)
    if not 0.1 <= args.split <= 0.9:
        raise UsageError("--split must lie in [0.1, 0.9]")
    t_fit = int(round(r.periods * args.split))
    if t_fit < 2 or r.periods - t_fit < 2:
        raise UsageError("not enough periods on one side of the split")
    return r, t_fit


def _portfolio_backtest(args, inputs) -> Result:
    from .portfolio import (ReturnSeries, allocate, market_graph, min_variance_weights,
                            repeated_cuts, sharpe)
    r, t_fit = inputs
    fit = ReturnSeries(r.returns[:t_fit])
    held = ReturnSeries(r.returns[t_fit:])
    tree = repeated_cuts(market_graph(fit), args.cuts, kind=_CUT_KINDS[args.kind])
    w = allocate(tree, args.scheme.upper())
    uniform = np.full(r.assets, 1.0 / r.assets)
    metrics = {
        "split_period": t_fit,
        "sharpe": sharpe(held, w, periods_per_year=args.periods_per_year),
        "sharpe_uniform": sharpe(held, uniform,
                                 periods_per_year=args.periods_per_year),
    }
    try:
        w_mv = min_variance_weights(np.cov(fit.returns, rowvar=False))
        metrics["sharpe_min_variance"] = sharpe(
            held, w_mv, periods_per_year=args.periods_per_year)
    except NumericalError as e:
        metrics["sharpe_min_variance"] = None
        metrics["min_variance_note"] = str(e)
    series = held.returns @ w
    return Result({"held_returns": (args.out, series)}, metrics,
                  {"cumulative": np.cumsum(series),
                   "cumulative_uniform": np.cumsum(held.returns @ uniform)})


# ---------------------------------------------------------------- metro

def _metro_centrality(args, g) -> Result:
    from .metro import betweenness, closeness_vitality
    b = betweenness(g)
    v = closeness_vitality(g)
    return Result({"centrality": (args.out, np.column_stack([b, v]))},
                  {"columns": ["betweenness", "closeness_vitality"],
                   "max_betweenness_vertex": int(np.argmax(b))},
                  {"betweenness": b, "closeness_vitality": v})


def _read_population(args):
    g = io.read_graph_json(args.graph)
    q = io.read_vector_csv(args.flows)
    if args.k <= 0:
        raise UsageError("--k must be positive")
    return g, q


def _metro_population(args, inputs) -> Result:
    from .metro import fick_population
    g, q = inputs
    phi = fick_population(laplacian(g), q, k=args.k)
    return Result({"population": (args.out, phi)}, {"k": args.k}, {"population": phi})


# ---------------------------------------------------------------- verify

def _verify_plan() -> list[str]:
    from .verify import CHECKS
    return [f"would run {name}" for name, _ in CHECKS]


def _verify(args, _) -> Result:
    from .verify import run_suite
    check_s = {}
    ok = run_suite(check_s=check_s)
    return Result({}, {"check_s": check_s}, converged=ok,
                  failure=None if ok else "verification suite reported failures")


# ---------------------------------------------------------------- table

_GRAPH = _arg("--graph", required=True)
_CUT_KIND = _arg("--kind", default="cutn", choices=tuple(_CUT_KINDS))
_LASSO = (
    _arg("--rho", type=float, required=True),
    _arg("--max-iter", type=int, default=1000),
    _arg("--tol", type=float, default=1e-8),
)
_MARKET = (
    _arg("--returns", required=True),
    _arg("--cuts", type=int, required=True),
    _CUT_KIND,
    _arg("--scheme", default="as1", choices=("as1", "as2", "AS1", "AS2")),
)
_LEARNED = (
    _arg("--obs", required=True),
    _arg("--out-l", default="laplacian.csv"),
    _arg("--out-w", default="weights.csv"),
    _arg("--truth", default=None, help="true weight CSV; adds MSE in dB to the report"),
)

GROUPS = {
    "gen": "generate graphs and signals",
    "learn": "learn topology from data",
    "solve": "solve physically defined systems",
    "lattice": "lattice transforms",
    "portfolio": "market-graph portfolio tools",
    "metro": "transit-network analytics",
}

COMMANDS = (
    Command("gen", "swiss-roll", "random swiss-roll graph", (
        _arg("--n", type=int, required=True),
        _arg("--seed", type=int, required=True),
        _arg("--tau", type=float, default=1.0),
        _arg("--kappa", type=float, default=float("inf")),
        _arg("--kernel", default="gauss_sq",
             choices=("gauss_sq", "exp_lin", "inv_dist", "binary")),
        _arg("--out-graph", default="graph.json"),
        _arg("--out-coords", default="coords.csv"),
    ), _read_swiss_roll, _gen_swiss_roll),
    Command("gen", "signal", "simulate graph signals", (
        _GRAPH,
        _arg("--mode", required=True, choices=SIGNAL_MODES),
        _arg("--seed", type=int, required=True),
        _arg("--p", type=int, required=True, help="snapshot count"),
        _arg("--params", default=None, help="JSON object of mode parameters"),
        _arg("--out", default="signal.csv"),
    ), _read_signal, _gen_signal),
    Command("gen", "lattice", "lattice graph from axis sizes",
            (_arg("--dims", required=True, help="comma-separated axis sizes"),
             _arg("--out", default="lattice.json")),
            _read_lattice, _gen_lattice),

    Command("learn", "lasso", "sparse regression by ISTA", (
        _arg("--obs", required=True,
             help="CSV; first column is the response unless --target is given"),
        _arg("--target", default=None, help="response vector CSV"),
        *_LASSO,
        _arg("--strict", action="store_true", help="exit 2 if the iteration cap is hit"),
        _arg("--out", default="coefficients.csv"),
    ), _read_lasso, _learn_lasso),
    Command("learn", "glasso", "sparse precision matrix", (
        _arg("--corr", required=True),
        _arg("--rho", type=float, required=True),
        _arg("--out", default="precision.csv"),
    ), _read_glasso, _learn_glasso),
    Command("learn", "regress", "neighborhood regression topology",
            _LEARNED + _LASSO + (_arg("--clamp-negative", action="store_true"),),
            _read_obs, _learn_regress),
    Command("learn", "smooth", "smoothness-regularized topology", _LEARNED + (
        _arg("--alpha", type=float, required=True),
        _arg("--beta", type=float, required=True),
        _arg("--outer-iters", type=int, default=20,
             help="cap on the outer iterations; the run stops earlier at its fixed point"),
    ), _read_obs, _learn_smooth),
    Command("learn", "polyfit", "eigenvalue polynomial fit topology", _LEARNED + (
        _arg("--order", type=int, required=True),
    ), _read_polyfit, _learn_polyfit),
    Command("learn", "sources", "topology from known sources", _LEARNED + (
        _arg("--sources", required=True, help="source matrix CSV"),
        _arg("--rho", type=float, default=None),
    ), lambda args: (io.read_matrix_csv(args.obs), io.read_matrix_csv(args.sources)),
        _learn_sources),

    Command("solve", "circuit", "pinned-potential circuit", (
        _GRAPH,
        _arg("--bc", required=True, help="CSV of index,value pins"),
        _arg("--sources", default=None, help="injected current CSV"),
        _arg("--out", default="potentials.csv"),
    ), _read_circuit, _solve_circuit),
    Command("solve", "absorb", "absorbing-walk probabilities",
            (_GRAPH, _arg("--bc", required=True), _arg("--out", default="probabilities.csv")),
            _read_graph_bc, _solve_absorb),
    Command("solve", "hitting", "expected hitting times", (
        _GRAPH,
        _arg("--target", type=int, required=True),
        _arg("--out", default="hitting.csv"),
    ), _read_hitting, _solve_hitting),
    Command("solve", "commute", "effective resistance and commute time", (
        _GRAPH,
        _arg("--m", type=int, required=True),
        _arg("--n", type=int, required=True),
        _arg("--out", default="commute.csv"),
    ), _read_commute, _solve_commute),
    Command("solve", "pagerank", "page scores by power iteration", (
        _GRAPH,
        _arg("--damping", default=None, help="teleport,scale"),
        _arg("--tol", type=float, default=1e-6),
        _arg("--max-iter", type=int, default=1000),
        _arg("--strict", action="store_true"),
        _arg("--out", default="scores.csv"),
    ), _read_pagerank, _solve_pagerank),
    Command("solve", "propagate", "semi-supervised label spread", (
        _GRAPH,
        _arg("--bc", required=True, help="CSV of index,label pins"),
        _arg("--out", default="labels.csv"),
    ), _read_graph_bc, _solve_propagate),
    Command("solve", "denoise", "sparse-source signal cleanup", (
        _GRAPH,
        _arg("--obs", required=True, help="noisy signal CSV"),
        _arg("--k", type=int, required=True, help="source count"),
        _arg("--reference", type=int, required=True),
        _arg("--out", default="denoised.csv"),
    ), lambda args: (io.read_graph_json(args.graph), io.read_vector_csv(args.obs)),
        _solve_denoise),

    Command("lattice", "gdft", "separable lattice Fourier basis", (
        _arg("--dims", required=True),
        _arg("--out-u", default="gdft_u.csv"),
        _arg("--out-lam", default="gdft_lambda.csv"),
    ), _read_lattice, _lattice_gdft),
    Command("lattice", "subsample", "keep a vertex subset", (
        _GRAPH,
        _arg("--keep", required=True, help="comma-separated kept vertices"),
        _arg("--out", default="subsampled.json"),
    ), _read_subsample, _lattice_subsample),

    Command("portfolio", "cut", "one spectral bisection of the market", (
        _arg("--returns", required=True, help="periods x assets CSV"),
        _CUT_KIND,
        _arg("--out", default="partition.csv"),
    ), _read_returns, _portfolio_cut),
    Command("portfolio", "allocate", "repeated cuts to weights",
            _MARKET + (_arg("--out", default="weights.csv"),),
            _read_returns, _portfolio_allocate),
    Command("portfolio", "backtest", "fit on early periods, hold later ones", _MARKET + (
        _arg("--split", type=float, default=0.5, help="fraction of periods used for fitting"),
        _arg("--periods-per-year", type=int, default=None),
        _arg("--out", default="held_returns.csv"),
    ), _read_backtest, _portfolio_backtest),

    Command("metro", "centrality", "betweenness and closeness vitality",
            (_GRAPH, _arg("--out", default="centrality.csv")),
            lambda args: io.read_graph_json(args.graph), _metro_centrality),
    Command("metro", "population", "population profile from flows", (
        _GRAPH,
        _arg("--flows", required=True, help="net outflow vector CSV"),
        _arg("--k", type=float, default=1.0, help="diffusivity"),
        _arg("--out", default="population.csv"),
    ), _read_population, _metro_population),

    Command("verify", None, "run the built-in verification suite", (),
            lambda args: None, _verify, plan=_verify_plan),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="graphtopo",
                     description="Graph topology learning and graph-system solvers")
    groups = parser.add_subparsers(dest="group", required=True)
    subcommands = {}
    for cmd in COMMANDS:
        if cmd.name is None:
            p = groups.add_parser(cmd.group, help=cmd.help)
        else:
            if cmd.group not in subcommands:
                group = groups.add_parser(cmd.group, help=GROUPS[cmd.group])
                subcommands[cmd.group] = group.add_subparsers(dest="command", required=True)
            p = subcommands[cmd.group].add_parser(cmd.name, help=cmd.help)
        for names, kwargs in cmd.flags + _COMMON:
            p.add_argument(*names, **kwargs)
        p.set_defaults(func=functools.partial(_run, cmd))
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so it must be caught first
    except (NumericalError, np.linalg.LinAlgError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (UsageError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
