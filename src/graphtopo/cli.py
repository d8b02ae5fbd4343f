"""File-driven command line: generate, learn, solve, and report.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure.
Every run writes its outputs atomically and, unless suppressed, a JSON run
report recording the command, parameters, seed, wall time, and metrics.
Identical invocations with identical seeds produce byte-identical data
files; the report is excluded from that guarantee because it records wall
time. GRAPHTOPO_THREADS overrides --threads when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import io
from .core import NumericalError, laplacian
from .geometric import KernelSpec, swiss_roll_graph
from .lattice import Lattice, SamplingMap, kron_sum_adjacency, separable_gdft, subsample
from .learning import (
    correlation_matrix,
    laplacian_to_weights,
    learn_from_sources,
    neighborhood_regression,
    polynomial_fit_eigenvalues,
    smooth_learn,
    symmetrize_geometric,
    weight_mse_db,
    PolyFitConfig,
)
from .metro import betweenness, closeness_vitality, fick_population
from .physical import (
    BoundaryCondition,
    absorbing_probabilities,
    circuit_solve,
    commute_time,
    effective_resistance,
    hitting_times,
    label_propagation,
    pagerank,
    sparse_source_denoise,
)
from .portfolio import (
    ReturnSeries,
    allocate,
    cut_value,
    market_graph,
    min_variance_weights,
    repeated_cuts,
    sharpe,
    spectral_bisect,
)
from .simulate import MODES, SimSpec, simulate
from .solvers import GlassoConfig, LassoConfig, glasso, lasso_ista
from .verify import run_suite

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


def _threads(args) -> int:
    env = os.environ.get("GRAPHTOPO_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"GRAPHTOPO_THREADS must be an integer, got {env!r}")
    if args.threads is not None:
        return max(1, args.threads)
    return os.cpu_count() or 1


def _read_bc(path) -> BoundaryCondition:
    """Boundary/label CSV: one `index,value` row per fixed vertex."""
    m = np.atleast_2d(io.read_matrix_csv(path))
    if m.shape[1] != 2:
        raise UsageError(f"{path}: expected two columns (index, value)")
    return BoundaryCondition({int(row[0]): float(row[1]) for row in m})


def _write_plot_data(path, series: dict[str, np.ndarray]) -> None:
    """Tidy long-format CSV (x, y, series) for external plotters."""
    lines = ["x,y,series"]
    for name, values in series.items():
        for x, y in enumerate(np.asarray(values, dtype=float).ravel()):
            lines.append(f"{x},{float(y)!r},{name}")
    io.atomic_write_text(path, "\n".join(lines) + "\n")


def _finish(args, command: str, outputs: dict[str, str], *, t0: float,
            seed: int | None = None, converged: bool | None = None,
            metrics: dict | None = None,
            plot_series: dict[str, np.ndarray] | None = None) -> int:
    if args.emit_plot_data and plot_series:
        _write_plot_data(args.emit_plot_data, plot_series)
        outputs = dict(outputs)
        outputs["plot_data"] = args.emit_plot_data
    if args.report:
        parameters = {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("func",) and not callable(v)
        }
        report = {
            "command": command,
            "parameters": parameters,
            "seed": seed,
            "generator": GENERATOR_NAME if seed is not None else None,
            "wall_time_s": round(time.perf_counter() - t0, 6),
            "converged": converged,
            "metrics": metrics or {},
            "outputs": outputs,
        }
        io.atomic_write_text(args.report,
                             json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, path in outputs.items():
        print(f"wrote {name}: {path}")
    return 0


def _dry_run_ok(command: str) -> int:
    print(f"dry-run ok: {command}")
    return 0


# ---------------------------------------------------------------- gen

def _run_gen_swiss_roll(args) -> int:
    t0 = time.perf_counter()
    kernel = KernelSpec(kind=args.kernel, tau=args.tau, kappa=args.kappa)
    if args.n < 2:
        raise UsageError("--n must be >= 2")
    if args.dry_run:
        return _dry_run_ok("gen swiss-roll")
    g, cloud = swiss_roll_graph(args.n, args.seed, kernel)
    io.write_graph_json(args.out_graph, g)
    io.write_matrix_csv(args.out_coords, cloud.coords)
    series = {f"coord_{d}": cloud.coords[:, d] for d in range(cloud.coords.shape[1])}
    return _finish(args, "gen swiss-roll",
                   {"graph": args.out_graph, "coords": args.out_coords},
                   t0=t0, seed=args.seed,
                   metrics={"vertices": g.n, "edges": int(np.count_nonzero(g.w) // 2)},
                   plot_series=series)


def _run_gen_signal(args) -> int:
    t0 = time.perf_counter()
    g = io.read_graph_json(args.graph)
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise UsageError("--params must be a JSON object")
    spec = SimSpec(args.mode, seed=args.seed, p=args.p, params=params)
    threads = _threads(args)
    if args.dry_run:
        return _dry_run_ok("gen signal")
    x = simulate(g, spec, threads=threads)
    io.write_matrix_csv(args.out, x.x)
    return _finish(args, "gen signal", {"signal": args.out}, t0=t0,
                   seed=args.seed,
                   metrics={"mode": args.mode, "snapshots": args.p, "threads": threads},
                   plot_series={"snapshot_0": x.x[:, 0]})


def _run_gen_lattice(args) -> int:
    t0 = time.perf_counter()
    lat = Lattice(_parse_ints(args.dims))
    if args.dry_run:
        return _dry_run_ok("gen lattice")
    g = kron_sum_adjacency(lat)
    io.write_graph_json(args.out, g)
    return _finish(args, "gen lattice", {"graph": args.out}, t0=t0,
                   metrics={"dims": list(lat.dims), "vertices": g.n},
                   plot_series={"degree": g.degrees()})


# ---------------------------------------------------------------- learn

def _run_learn_lasso(args) -> int:
    t0 = time.perf_counter()
    obs = io.read_matrix_csv(args.obs)
    if args.target:
        a = obs
        y = io.read_vector_csv(args.target)
    else:
        # without --target, the first column is the response
        if obs.shape[1] < 2:
            raise UsageError("--obs needs >= 2 columns when --target is absent")
        y, a = obs[:, 0], obs[:, 1:]
    cfg = LassoConfig(rho=args.rho, max_iter=args.max_iter, tol=args.tol)
    if args.dry_run:
        return _dry_run_ok("learn lasso")
    res = lasso_ista(a, y, cfg)
    if args.strict and not res.converged:
        raise NumericalError(f"lasso did not converge in {cfg.max_iter} iterations")
    io.write_vector_csv(args.out, res.coefficients)
    objective = float(np.sum((y - a @ res.coefficients) ** 2)
                      + args.rho * np.sum(np.abs(res.coefficients)))
    return _finish(args, "learn lasso", {"coefficients": args.out}, t0=t0,
                   converged=res.converged,
                   metrics={"iterations": res.iterations, "objective": objective,
                            "nonzeros": int(np.count_nonzero(res.coefficients))},
                   plot_series={"coefficient": res.coefficients})


def _run_learn_glasso(args) -> int:
    t0 = time.perf_counter()
    r = io.read_matrix_csv(args.corr)
    cfg = GlassoConfig(rho=args.rho, max_sweeps=args.max_sweeps, eps=args.eps)
    if args.dry_run:
        return _dry_run_ok("learn glasso")
    details: dict = {}
    q = glasso(r, cfg, report=details)
    io.write_matrix_csv(args.out, q)
    off = q[~np.eye(q.shape[0], dtype=bool)]
    return _finish(args, "learn glasso", {"precision": args.out}, t0=t0,
                   converged=details["converged"],
                   metrics={"nonzero_offdiag": int(np.count_nonzero(off)),
                            "sweeps": details["sweeps"],
                            "unconverged_inner": details["unconverged_inner"]},
                   plot_series={"diagonal": np.diag(q)})


def _learn_outputs(args, w: np.ndarray, l: np.ndarray, t0: float, command: str,
                   metrics: dict, plot_series: dict | None = None,
                   converged: bool | None = None) -> int:
    io.write_matrix_csv(args.out_l, l)
    io.write_matrix_csv(args.out_w, w)
    if args.truth:
        w_true = io.read_matrix_csv(args.truth)
        metrics["mse_db"] = weight_mse_db(w, w_true)
    if plot_series is None:
        iu = np.triu_indices(w.shape[0], k=1)
        plot_series = {"weight": w[iu]}
    return _finish(args, command, {"laplacian": args.out_l, "weights": args.out_w},
                   t0=t0, converged=converged, metrics=metrics, plot_series=plot_series)


def _run_learn_regress(args) -> int:
    t0 = time.perf_counter()
    x = io.read_matrix_csv(args.obs)
    if args.dry_run:
        return _dry_run_ok("learn regress")
    details: dict = {}
    b = neighborhood_regression(x, args.rho, max_iter=args.max_iter, tol=args.tol,
                                report=details)
    g = symmetrize_geometric(b, clamp_negative=args.clamp_negative)
    return _learn_outputs(args, g.w, laplacian(g).l, t0, "learn regress",
                          {"rho": args.rho, "unconverged_rows": details["unconverged_rows"]},
                          converged=details["converged"])


def _run_learn_smooth(args) -> int:
    t0 = time.perf_counter()
    x = io.read_matrix_csv(args.obs)
    if args.dry_run:
        return _dry_run_ok("learn smooth")
    trace: list = []
    l, _ = smooth_learn(x, args.alpha, args.beta, outer_iters=args.outer_iters,
                        objective_trace=trace)
    w = laplacian_to_weights(l)
    return _learn_outputs(args, w, l.l, t0, "learn smooth",
                          {"objective_trace": [float(v) for v in trace]},
                          plot_series={"objective": np.asarray(trace)})


def _run_learn_polyfit(args) -> int:
    t0 = time.perf_counter()
    x = io.read_matrix_csv(args.obs)
    cfg = PolyFitConfig(m=args.order, grid_points=args.grid_points)
    if args.dry_run:
        return _dry_run_ok("learn polyfit")
    r = correlation_matrix(x)
    eigenvalues, l = polynomial_fit_eigenvalues(r, cfg)
    w = laplacian_to_weights(l)
    return _learn_outputs(args, w, l.l, t0, "learn polyfit",
                          {"order": args.order,
                           "eigenvalues": [float(v) for v in eigenvalues]},
                          plot_series={"eigenvalue": eigenvalues})


def _run_learn_sources(args) -> int:
    t0 = time.perf_counter()
    x = io.read_matrix_csv(args.obs)
    j = io.read_matrix_csv(args.sources)
    if args.dry_run:
        return _dry_run_ok("learn sources")
    details: dict = {}
    l = learn_from_sources(x, j, rho=args.rho, report=details)
    w = laplacian_to_weights(l)
    return _learn_outputs(args, w, l.l, t0, "learn sources", details)


# ---------------------------------------------------------------- solve

def _run_solve_circuit(args) -> int:
    t0 = time.perf_counter()
    g = io.read_graph_json(args.graph)
    bc = _read_bc(args.bc)
    sources = io.read_vector_csv(args.sources) if args.sources else None
    if args.dry_run:
        return _dry_run_ok("solve circuit")
    x = circuit_solve(laplacian(g), bc, sources)
    io.write_vector_csv(args.out, x)
    return _finish(args, "solve circuit", {"potentials": args.out}, t0=t0,
                   plot_series={"potential": x})


def _run_solve_absorb(args) -> int:
    t0 = time.perf_counter()
    g = io.read_graph_json(args.graph)
    bc = _read_bc(args.bc)
    if args.dry_run:
        return _dry_run_ok("solve absorb")
    x = absorbing_probabilities(g, bc)
    io.write_vector_csv(args.out, x)
    return _finish(args, "solve absorb", {"probabilities": args.out}, t0=t0,
                   plot_series={"probability": x})


def _run_solve_hitting(args) -> int:
    t0 = time.perf_counter()
    g = io.read_graph_json(args.graph)
    if not 0 <= args.target < g.n:
        raise UsageError(f"--target out of range for n={g.n}")
    if args.dry_run:
        return _dry_run_ok("solve hitting")
    h = hitting_times(g, args.target)
    io.write_vector_csv(args.out, h)
    return _finish(args, "solve hitting", {"hitting_times": args.out}, t0=t0,
                   metrics={"target": args.target}, plot_series={"hitting_time": h})


def _run_solve_commute(args) -> int:
    t0 = time.perf_counter()
    g = io.read_graph_json(args.graph)
    if not (0 <= args.m < g.n and 0 <= args.n < g.n):
        raise UsageError(f"--m/--n out of range for n={g.n}")
    if args.dry_run:
        return _dry_run_ok("solve commute")
    r = effective_resistance(g, args.m, args.n)
    ct = commute_time(g, args.m, args.n)
    io.write_vector_csv(args.out, np.array([r, ct]))
    return _finish(args, "solve commute", {"resistance_commute": args.out}, t0=t0,
                   metrics={"effective_resistance": r, "commute_time": ct})


def _run_solve_pagerank(args) -> int:
    t0 = time.perf_counter()
    g = io.read_directed_graph_json(args.graph)
    damping = None
    if args.damping:
        parts = _parse_floats(args.damping)
        if len(parts) != 2:
            raise UsageError("--damping expects two numbers: teleport,scale")
        damping = (parts[0], parts[1])
    if args.dry_run:
        return _dry_run_ok("solve pagerank")
    res = pagerank(g, damping=damping, tol=args.tol, max_iter=args.max_iter)
    if args.strict and not res.converged:
        raise NumericalError(f"pagerank did not converge in {args.max_iter} iterations")
    io.write_vector_csv(args.out, res.scores)
    return _finish(args, "solve pagerank", {"scores": args.out}, t0=t0,
                   converged=res.converged,
                   metrics={"iterations": res.iterations},
                   plot_series={"score": res.scores})


def _run_solve_propagate(args) -> int:
    t0 = time.perf_counter()
    g = io.read_graph_json(args.graph)
    labels = _read_bc(args.bc)
    if args.dry_run:
        return _dry_run_ok("solve propagate")
    x = label_propagation(g, labels)
    io.write_vector_csv(args.out, x)
    return _finish(args, "solve propagate", {"labels": args.out}, t0=t0,
                   plot_series={"label": x})


def _run_solve_denoise(args) -> int:
    t0 = time.perf_counter()
    g = io.read_graph_json(args.graph)
    y = io.read_vector_csv(args.obs)
    if args.dry_run:
        return _dry_run_ok("solve denoise")
    x = sparse_source_denoise(laplacian(g), y, k=args.k, reference=args.reference)
    io.write_vector_csv(args.out, x)
    return _finish(args, "solve denoise", {"denoised": args.out}, t0=t0,
                   metrics={"k": args.k, "reference": args.reference},
                   plot_series={"denoised": x, "observed": y})


# ---------------------------------------------------------------- lattice

def _run_lattice_gdft(args) -> int:
    t0 = time.perf_counter()
    lat = Lattice(_parse_ints(args.dims))
    if args.dry_run:
        return _dry_run_ok("lattice gdft")
    d = separable_gdft(lat)
    io.write_matrix_csv(args.out_u, d.eigenvectors)
    io.write_vector_csv(args.out_lam, d.eigenvalues)
    return _finish(args, "lattice gdft",
                   {"eigenvectors": args.out_u, "eigenvalues": args.out_lam},
                   t0=t0, metrics={"dims": list(lat.dims)},
                   plot_series={"eigenvalue": d.eigenvalues})


def _run_lattice_subsample(args) -> int:
    t0 = time.perf_counter()
    g = io.read_graph_json(args.graph)
    sampling = SamplingMap(_parse_ints(args.keep))
    if args.dry_run:
        return _dry_run_ok("lattice subsample")
    sub = subsample(g, sampling)
    io.write_graph_json(args.out, sub)
    return _finish(args, "lattice subsample", {"graph": args.out}, t0=t0,
                   metrics={"kept": list(sampling.kept)})


# ---------------------------------------------------------------- portfolio

def _read_returns(path) -> ReturnSeries:
    return ReturnSeries(io.read_matrix_csv(path))


def _run_portfolio_cut(args) -> int:
    t0 = time.perf_counter()
    r = _read_returns(args.returns)
    kind = _CUT_KINDS[args.kind]
    if args.dry_run:
        return _dry_run_ok("portfolio cut")
    g = market_graph(r)
    cut = spectral_bisect(g, kind=kind)
    value = cut_value(g, cut.side_one, kind)
    indicator = np.zeros(g.n)
    indicator[list(cut.side_one)] = 1.0
    indicator[list(cut.side_two)] = -1.0
    io.write_vector_csv(args.out, indicator)
    return _finish(args, "portfolio cut", {"partition": args.out}, t0=t0,
                   metrics={"cut_value": value,
                            "side_one": list(cut.side_one),
                            "side_two": list(cut.side_two),
                            "from_components": cut.from_components},
                   plot_series={"side": indicator})


def _run_portfolio_allocate(args) -> int:
    t0 = time.perf_counter()
    r = _read_returns(args.returns)
    kind = _CUT_KINDS[args.kind]
    scheme = args.scheme.upper()
    if args.dry_run:
        return _dry_run_ok("portfolio allocate")
    g = market_graph(r)
    tree = repeated_cuts(g, args.cuts, kind=kind)
    w = allocate(tree, scheme)
    io.write_vector_csv(args.out, w)
    leaves = [sorted(leaf.vertices) for leaf in tree.leaves()]
    return _finish(args, "portfolio allocate", {"weights": args.out}, t0=t0,
                   metrics={"scheme": scheme, "cuts": args.cuts, "leaves": leaves},
                   plot_series={"weight": w})


def _run_portfolio_backtest(args) -> int:
    t0 = time.perf_counter()
    r = _read_returns(args.returns)
    kind = _CUT_KINDS[args.kind]
    scheme = args.scheme.upper()
    if not 0.1 <= args.split <= 0.9:
        raise UsageError("--split must lie in [0.1, 0.9]")
    t_fit = int(round(r.periods * args.split))
    if t_fit < 2 or r.periods - t_fit < 2:
        raise UsageError("not enough periods on one side of the split")
    if args.dry_run:
        return _dry_run_ok("portfolio backtest")
    fit = ReturnSeries(r.returns[:t_fit])
    held = ReturnSeries(r.returns[t_fit:])
    g = market_graph(fit)
    tree = repeated_cuts(g, args.cuts, kind=kind)
    w = allocate(tree, scheme)
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
    io.write_vector_csv(args.out, series)
    plot = {
        "cumulative": np.cumsum(series),
        "cumulative_uniform": np.cumsum(held.returns @ uniform),
    }
    return _finish(args, "portfolio backtest", {"held_returns": args.out}, t0=t0,
                   metrics=metrics, plot_series=plot)


# ---------------------------------------------------------------- metro

def _run_metro_centrality(args) -> int:
    t0 = time.perf_counter()
    g = io.read_graph_json(args.graph)
    if args.dry_run:
        return _dry_run_ok("metro centrality")
    b = betweenness(g)
    v = closeness_vitality(g)
    io.write_matrix_csv(args.out, np.column_stack([b, v]))
    return _finish(args, "metro centrality", {"centrality": args.out}, t0=t0,
                   metrics={"columns": ["betweenness", "closeness_vitality"],
                            "max_betweenness_vertex": int(np.argmax(b))},
                   plot_series={"betweenness": b, "closeness_vitality": v})


def _run_metro_population(args) -> int:
    t0 = time.perf_counter()
    g = io.read_graph_json(args.graph)
    q = io.read_vector_csv(args.flows)
    if args.k <= 0:
        raise UsageError("--k must be positive")
    if args.dry_run:
        return _dry_run_ok("metro population")
    phi = fick_population(laplacian(g), q, k=args.k)
    io.write_vector_csv(args.out, phi)
    return _finish(args, "metro population", {"population": args.out}, t0=t0,
                   metrics={"k": args.k}, plot_series={"population": phi})


# ---------------------------------------------------------------- verify

def _run_verify(args) -> int:
    t0 = time.perf_counter()
    if args.dry_run:
        from .verify import CHECKS
        for name, _ in CHECKS:
            print(f"would run {name}")
        return 0
    ok = run_suite()
    if args.report:
        report = {
            "command": "verify",
            "parameters": {},
            "seed": None,
            "generator": None,
            "wall_time_s": round(time.perf_counter() - t0, 6),
            "converged": ok,
            "metrics": {},
            "outputs": {},
        }
        io.atomic_write_text(args.report,
                             json.dumps(report, indent=2, sort_keys=True) + "\n")
    if not ok:
        raise NumericalError("verification suite reported failures")
    return 0


# ---------------------------------------------------------------- wiring

def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dry-run", action="store_true",
                     help="validate inputs and exit without computing")
    sub.add_argument("--report", default="report.json",
                     help="run-report JSON path ('' to skip)")
    sub.add_argument("--emit-plot-data", default=None, metavar="CSV",
                     help="write tidy (x,y,series) plot data")
    sub.add_argument("--threads", type=int, default=None,
                     help="parallelism cap (GRAPHTOPO_THREADS overrides)")


def build_parser() -> _Parser:
    parser = _Parser(prog="graphtopo",
                     description="Graph topology learning and graph-system solvers")
    groups = parser.add_subparsers(dest="group", required=True)

    gen = groups.add_parser("gen", help="generate graphs and signals")
    gen_sub = gen.add_subparsers(dest="command", required=True)

    p = gen_sub.add_parser("swiss-roll", help="random swiss-roll graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=float("inf"))
    p.add_argument("--kernel", default="gauss_sq",
                   choices=("gauss_sq", "exp_lin", "inv_dist", "binary"))
    p.add_argument("--out-graph", default="graph.json")
    p.add_argument("--out-coords", default="coords.csv")
    _common(p)
    p.set_defaults(func=_run_gen_swiss_roll)

    p = gen_sub.add_parser("signal", help="simulate graph signals")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p", type=int, required=True, help="snapshot count")
    p.add_argument("--params", default=None, help="JSON object of mode parameters")
    p.add_argument("--out", default="signal.csv")
    _common(p)
    p.set_defaults(func=_run_gen_signal)

    p = gen_sub.add_parser("lattice", help="lattice graph from axis sizes")
    p.add_argument("--dims", required=True, help="comma-separated axis sizes")
    p.add_argument("--out", default="lattice.json")
    _common(p)
    p.set_defaults(func=_run_gen_lattice)

    learn = groups.add_parser("learn", help="learn topology from data")
    learn_sub = learn.add_subparsers(dest="command", required=True)

    p = learn_sub.add_parser("lasso", help="sparse regression by ISTA")
    p.add_argument("--obs", required=True,
                   help="CSV; first column is the response unless --target is given")
    p.add_argument("--target", default=None, help="response vector CSV")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--strict", action="store_true",
                   help="exit 2 if the iteration cap is hit")
    p.add_argument("--out", default="coefficients.csv")
    _common(p)
    p.set_defaults(func=_run_learn_lasso)

    p = learn_sub.add_parser("glasso", help="sparse precision matrix")
    p.add_argument("--corr", required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--max-sweeps", type=int, default=100)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--out", default="precision.csv")
    _common(p)
    p.set_defaults(func=_run_learn_glasso)

    def learn_lw(sub, name, helptext):
        q = sub.add_parser(name, help=helptext)
        q.add_argument("--obs", required=True)
        q.add_argument("--out-l", default="laplacian.csv")
        q.add_argument("--out-w", default="weights.csv")
        q.add_argument("--truth", default=None,
                       help="true weight CSV; adds MSE in dB to the report")
        return q

    p = learn_lw(learn_sub, "regress", "neighborhood regression topology")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--clamp-negative", action="store_true")
    _common(p)
    p.set_defaults(func=_run_learn_regress)

    p = learn_lw(learn_sub, "smooth", "smoothness-regularized topology")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--outer-iters", type=int, default=20)
    _common(p)
    p.set_defaults(func=_run_learn_smooth)

    p = learn_lw(learn_sub, "polyfit", "eigenvalue polynomial fit topology")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--grid-points", type=int, default=None)
    _common(p)
    p.set_defaults(func=_run_learn_polyfit)

    p = learn_lw(learn_sub, "sources", "topology from known sources")
    p.add_argument("--sources", required=True, help="source matrix CSV")
    p.add_argument("--rho", type=float, default=None)
    _common(p)
    p.set_defaults(func=_run_learn_sources)

    solve = groups.add_parser("solve", help="solve physically defined systems")
    solve_sub = solve.add_subparsers(dest="command", required=True)

    p = solve_sub.add_parser("circuit", help="pinned-potential circuit")
    p.add_argument("--graph", required=True)
    p.add_argument("--bc", required=True, help="CSV of index,value pins")
    p.add_argument("--sources", default=None, help="injected current CSV")
    p.add_argument("--out", default="potentials.csv")
    _common(p)
    p.set_defaults(func=_run_solve_circuit)

    p = solve_sub.add_parser("absorb", help="absorbing-walk probabilities")
    p.add_argument("--graph", required=True)
    p.add_argument("--bc", required=True)
    p.add_argument("--out", default="probabilities.csv")
    _common(p)
    p.set_defaults(func=_run_solve_absorb)

    p = solve_sub.add_parser("hitting", help="expected hitting times")
    p.add_argument("--graph", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--out", default="hitting.csv")
    _common(p)
    p.set_defaults(func=_run_solve_hitting)

    p = solve_sub.add_parser("commute", help="effective resistance and commute time")
    p.add_argument("--graph", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default="commute.csv")
    _common(p)
    p.set_defaults(func=_run_solve_commute)

    p = solve_sub.add_parser("pagerank", help="page scores by power iteration")
    p.add_argument("--graph", required=True)
    p.add_argument("--damping", default=None, help="teleport,scale")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", default="scores.csv")
    _common(p)
    p.set_defaults(func=_run_solve_pagerank)

    p = solve_sub.add_parser("propagate", help="semi-supervised label spread")
    p.add_argument("--graph", required=True)
    p.add_argument("--bc", required=True, help="CSV of index,label pins")
    p.add_argument("--out", default="labels.csv")
    _common(p)
    p.set_defaults(func=_run_solve_propagate)

    p = solve_sub.add_parser("denoise", help="sparse-source signal cleanup")
    p.add_argument("--graph", required=True)
    p.add_argument("--obs", required=True, help="noisy signal CSV")
    p.add_argument("--k", type=int, required=True, help="source count")
    p.add_argument("--reference", type=int, required=True)
    p.add_argument("--out", default="denoised.csv")
    _common(p)
    p.set_defaults(func=_run_solve_denoise)

    lattice = groups.add_parser("lattice", help="lattice transforms")
    lattice_sub = lattice.add_subparsers(dest="command", required=True)

    p = lattice_sub.add_parser("gdft", help="separable lattice Fourier basis")
    p.add_argument("--dims", required=True)
    p.add_argument("--out-u", default="gdft_u.csv")
    p.add_argument("--out-lam", default="gdft_lambda.csv")
    _common(p)
    p.set_defaults(func=_run_lattice_gdft)

    p = lattice_sub.add_parser("subsample", help="keep a vertex subset")
    p.add_argument("--graph", required=True)
    p.add_argument("--keep", required=True, help="comma-separated kept vertices")
    p.add_argument("--out", default="subsampled.json")
    _common(p)
    p.set_defaults(func=_run_lattice_subsample)

    portfolio = groups.add_parser("portfolio", help="market-graph portfolio tools")
    portfolio_sub = portfolio.add_subparsers(dest="command", required=True)

    p = portfolio_sub.add_parser("cut", help="one spectral bisection of the market")
    p.add_argument("--returns", required=True, help="periods x assets CSV")
    p.add_argument("--kind", default="cutn", choices=tuple(_CUT_KINDS))
    p.add_argument("--out", default="partition.csv")
    _common(p)
    p.set_defaults(func=_run_portfolio_cut)

    p = portfolio_sub.add_parser("allocate", help="repeated cuts to weights")
    p.add_argument("--returns", required=True)
    p.add_argument("--cuts", type=int, required=True)
    p.add_argument("--kind", default="cutn", choices=tuple(_CUT_KINDS))
    p.add_argument("--scheme", default="as1", choices=("as1", "as2", "AS1", "AS2"))
    p.add_argument("--out", default="weights.csv")
    _common(p)
    p.set_defaults(func=_run_portfolio_allocate)

    p = portfolio_sub.add_parser("backtest", help="fit on early periods, hold later ones")
    p.add_argument("--returns", required=True)
    p.add_argument("--cuts", type=int, required=True)
    p.add_argument("--kind", default="cutn", choices=tuple(_CUT_KINDS))
    p.add_argument("--scheme", default="as1", choices=("as1", "as2", "AS1", "AS2"))
    p.add_argument("--split", type=float, default=0.5,
                   help="fraction of periods used for fitting")
    p.add_argument("--periods-per-year", type=int, default=None)
    p.add_argument("--out", default="held_returns.csv")
    _common(p)
    p.set_defaults(func=_run_portfolio_backtest)

    metro = groups.add_parser("metro", help="transit-network analytics")
    metro_sub = metro.add_subparsers(dest="command", required=True)

    p = metro_sub.add_parser("centrality", help="betweenness and closeness vitality")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", default="centrality.csv")
    _common(p)
    p.set_defaults(func=_run_metro_centrality)

    p = metro_sub.add_parser("population", help="population profile from flows")
    p.add_argument("--graph", required=True)
    p.add_argument("--flows", required=True, help="net outflow vector CSV")
    p.add_argument("--k", type=float, default=1.0, help="diffusivity")
    p.add_argument("--out", default="population.csv")
    _common(p)
    p.set_defaults(func=_run_metro_population)

    p = groups.add_parser("verify", help="run the built-in verification suite")
    _common(p)
    p.set_defaults(func=_run_verify)

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
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
