"""Command sequences of the benchmark workloads.

Each workload is a list of steps. A step is one `graphtopo` CLI command
plus the check that its outputs are correct; `run.py` times the command
and checks the outputs afterwards. The inputs the commands read are
written by `inputs.py`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from inputs import (
    DENOISE_K, GDFT_DIMS, GLASSO_RHO, LEARN_H, LEARN_P, METRO_K, PAGERANK_DAMPING,
    PAGERANK_TOL, PORTFOLIO_ASSETS, PORTFOLIO_CUTS, REGRESS_RHO, SMOOTH_ALPHA,
    SMOOTH_BETA, SWISS_N, SWISS_TAU,
)


# ---------------------------------------------------------------- steps

@dataclass(frozen=True)
class Step:
    """One CLI command, its metric name and the check of its outputs.

    `check(work, refs)` returns a list of failures; `work` is the directory
    the command ran in and `refs` caches references computed from inputs.
    `after(work)` runs untimed once the command has succeeded.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[Path, dict], list[str]]
    after: Callable[[Path], None] | None = None


def _matrix(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", ndmin=2))


def _vector(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=1).reshape(-1)


def _graph(path: Path) -> np.ndarray:
    return checks.weights_from_json(json.loads(path.read_text()))


def _report(path: Path) -> dict:
    return json.loads(path.read_text())


def _cached(refs: dict, key: str, make):
    if key not in refs:
        refs[key] = make()
    return refs[key]


def _write_correlation(work: Path) -> None:
    from graphtopo import io
    x = _matrix(work / "signal.csv")
    io.write_matrix_csv(work / "corr.csv", x @ x.T / x.shape[1])


def _learn_steps(seed: int) -> list[Step]:
    def signal(work, refs):
        return checks.check_signal(_matrix(work / "signal.csv"),
                                   _graph(work / "graph.json"), LEARN_H, seed, LEARN_P)

    def glasso(work, refs):
        return checks.check_glasso(_matrix(work / "corr.csv"),
                                   _matrix(work / "precision.csv"), GLASSO_RHO)

    def regress(work, refs):
        x = _matrix(work / "signal.csv")
        w_ref = _cached(refs, "regress",
                        lambda: checks.symmetrize_clamped(
                            checks.lasso_rows_reference(x, REGRESS_RHO)))
        return checks.check_regress(_matrix(work / "reg_w.csv"),
                                    _matrix(work / "reg_l.csv"), w_ref)

    def polyfit(work, refs):
        x = _matrix(work / "signal.csv")
        return checks.check_polyfit(x @ x.T / x.shape[1], _matrix(work / "poly_l.csv"),
                                    _matrix(work / "poly_w.csv"),
                                    _report(work / "poly.json")["metrics"]["eigenvalues"])

    def smooth(work, refs):
        return checks.check_smooth(_matrix(work / "smooth_l.csv"),
                                   _matrix(work / "smooth_w.csv"),
                                   _report(work / "smooth.json")["metrics"]["objective_trace"])

    h = json.dumps({"h": list(LEARN_H)})
    return [
        Step("gen_signal", ("gen", "signal", "--graph", "graph.json", "--mode", "diffusion",
                            "--seed", str(seed), "--p", str(LEARN_P), "--params", h,
                            "--out", "signal.csv"), signal, after=_write_correlation),
        Step("learn_glasso", ("learn", "glasso", "--corr", "corr.csv",
                              "--rho", str(GLASSO_RHO), "--out", "precision.csv"), glasso),
        Step("learn_regress", ("learn", "regress", "--obs", "signal.csv",
                               "--rho", str(REGRESS_RHO), "--clamp-negative",
                               "--out-l", "reg_l.csv", "--out-w", "reg_w.csv"), regress),
        Step("learn_polyfit", ("learn", "polyfit", "--obs", "signal.csv", "--order", "2",
                               "--out-l", "poly_l.csv", "--out-w", "poly_w.csv",
                               "--report", "poly.json"), polyfit),
        Step("learn_smooth", ("learn", "smooth", "--obs", "signal.csv",
                              "--alpha", str(SMOOTH_ALPHA), "--beta", str(SMOOTH_BETA),
                              "--out-l", "smooth_l.csv", "--out-w", "smooth_w.csv",
                              "--report", "smooth.json"), smooth),
    ]


def _metro_steps(seed: int) -> list[Step]:
    def centrality(work, refs):
        w = _graph(work / "metro.json")
        b_ref = _cached(refs, "betweenness", lambda: checks.betweenness_reference(w))
        v_ref = _cached(refs, "vitality", lambda: checks.vitality_reference(w))
        return checks.check_centrality(_matrix(work / "centrality.csv"), b_ref, v_ref)

    def population(work, refs):
        return checks.check_population(_graph(work / "metro.json"), _vector(work / "flows.csv"),
                                       METRO_K, _vector(work / "population.csv"))

    return [
        Step("metro_centrality", ("metro", "centrality", "--graph", "metro.json",
                                  "--out", "centrality.csv"), centrality),
        Step("metro_population", ("metro", "population", "--graph", "metro.json",
                                  "--flows", "flows.csv", "--k", str(METRO_K),
                                  "--out", "population.csv"), population),
    ]


def _solve_steps(seed: int) -> list[Step]:
    def swiss(work, refs):
        return checks.check_swiss_roll(_graph(work / "swiss.json"),
                                       _matrix(work / "coords.csv"), seed, SWISS_TAU)

    def circuit(work, refs):
        return checks.check_circuit(_graph(work / "swiss.json"), _matrix(work / "pins.csv"),
                                    _vector(work / "currents.csv"),
                                    _vector(work / "potentials.csv"))

    def absorb(work, refs):
        return checks.check_absorb(_graph(work / "swiss.json"), _matrix(work / "absorb.csv"),
                                   _vector(work / "probabilities.csv"))

    def hitting(work, refs):
        return checks.check_hitting(_graph(work / "swiss.json"), 0,
                                    _vector(work / "hitting.csv"))

    def commute(work, refs):
        return checks.check_commute(_graph(work / "swiss.json"), 1, SWISS_N - 1,
                                    _vector(work / "commute.csv"))

    def pagerank(work, refs):
        links = checks.weights_from_json(json.loads((work / "pages.json").read_text()),
                                         directed=True)
        return checks.check_pagerank(links, PAGERANK_DAMPING, PAGERANK_TOL,
                                     _vector(work / "scores.csv"))

    def propagate(work, refs):
        return checks.check_propagate(_graph(work / "swiss.json"), _matrix(work / "labels.csv"),
                                      _vector(work / "propagated.csv"))

    def denoise(work, refs):
        return checks.check_denoise(_graph(work / "swiss.json"), DENOISE_K, 0,
                                    _vector(work / "denoised.csv"))

    def gdft(work, refs):
        return checks.check_gdft(GDFT_DIMS, _matrix(work / "gdft_u.csv"),
                                 _vector(work / "gdft_lambda.csv"))

    def allocate(work, refs):
        leaves = _report(work / "allocate.json")["metrics"]["leaves"]
        return checks.check_allocation(_vector(work / "allocation.csv"), leaves,
                                       "AS1", PORTFOLIO_CUTS, PORTFOLIO_ASSETS)

    def verify(work, refs):
        from graphtopo.verify import CHECKS
        return checks.check_verify((work / "verify.stdout").read_text(),
                                   [name for name, _ in CHECKS])

    damping = ",".join(str(v) for v in PAGERANK_DAMPING)
    return [
        Step("gen_swiss_roll", ("gen", "swiss-roll", "--n", str(SWISS_N), "--seed", str(seed),
                                "--tau", str(SWISS_TAU), "--out-graph", "swiss.json",
                                "--out-coords", "coords.csv"), swiss),
        Step("solve_circuit", ("solve", "circuit", "--graph", "swiss.json", "--bc", "pins.csv",
                               "--sources", "currents.csv", "--out", "potentials.csv"), circuit),
        Step("solve_absorb", ("solve", "absorb", "--graph", "swiss.json", "--bc", "absorb.csv",
                              "--out", "probabilities.csv"), absorb),
        Step("solve_hitting", ("solve", "hitting", "--graph", "swiss.json", "--target", "0",
                               "--out", "hitting.csv"), hitting),
        Step("solve_commute", ("solve", "commute", "--graph", "swiss.json", "--m", "1",
                               "--n", str(SWISS_N - 1), "--out", "commute.csv"), commute),
        Step("solve_pagerank", ("solve", "pagerank", "--graph", "pages.json",
                                "--damping", damping, "--tol", str(PAGERANK_TOL),
                                "--strict", "--out", "scores.csv"), pagerank),
        Step("solve_propagate", ("solve", "propagate", "--graph", "swiss.json",
                                 "--bc", "labels.csv", "--out", "propagated.csv"), propagate),
        Step("solve_denoise", ("solve", "denoise", "--graph", "swiss.json", "--obs", "noisy.csv",
                               "--k", str(DENOISE_K), "--reference", "0",
                               "--out", "denoised.csv"), denoise),
        Step("lattice_gdft", ("lattice", "gdft", "--dims", ",".join(map(str, GDFT_DIMS)),
                              "--out-u", "gdft_u.csv", "--out-lam", "gdft_lambda.csv"), gdft),
        Step("portfolio_allocate", ("portfolio", "allocate", "--returns", "returns.csv",
                                    "--cuts", str(PORTFOLIO_CUTS), "--scheme", "as1",
                                    "--out", "allocation.csv", "--report", "allocate.json"),
             allocate),
        Step("verify", ("verify",), verify),
    ]


WORKLOADS = {"learn": _learn_steps, "metro": _metro_steps, "solve": _solve_steps}

# Every CLI command any workload runs, in a fixed order, for the per-layer metrics.
ALL_STEP_NAMES = tuple(step.name for make in WORKLOADS.values() for step in make(0))


def steps(workload: str, seed: int) -> list[Step]:
    return WORKLOADS[workload](seed)
