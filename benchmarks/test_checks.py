"""Each output check accepts graphtopo's output and rejects a corrupted copy.

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import run
import workloads
from graphtopo import (
    BoundaryCondition,
    DirectedGraph,
    GlassoConfig,
    Graph,
    KernelSpec,
    Lattice,
    PolyFitConfig,
    absorbing_probabilities,
    betweenness,
    circuit_solve,
    closeness_vitality,
    commute_time,
    correlation_matrix,
    effective_resistance,
    fick_population,
    glasso,
    hitting_times,
    label_propagation,
    laplacian,
    laplacian_to_weights,
    neighborhood_regression,
    pagerank,
    polynomial_fit_eigenvalues,
    separable_gdft,
    smooth_learn,
    sparse_source_denoise,
    swiss_roll_graph,
    symmetrize_geometric,
)
from graphtopo.portfolio import ReturnSeries, allocate, market_graph, repeated_cuts
from graphtopo.simulate import SimSpec, simulate

H = (0.3, 0.2, 0.5)


def bumped(a: np.ndarray, index, by: float = 1e-3) -> np.ndarray:
    """Copy of a with one entry moved by `by` times the largest magnitude."""
    out = np.array(a, dtype=float)
    out[index] += by * max(np.max(np.abs(out)), 1.0)
    return out


@pytest.fixture(scope="module")
def small_graph():
    return inputs._connected_random_graph(np.random.default_rng(3), 12, 20)


@pytest.fixture(scope="module")
def signal(small_graph):
    spec = SimSpec("diffusion", seed=5, p=400, params={"h": H})
    return simulate(Graph.from_weights(small_graph), spec).x


# ---------------------------------------------------------------- learn

def test_signal(small_graph, signal):
    assert checks.check_signal(signal, small_graph, H, 5, 400) == []
    assert checks.check_signal(bumped(signal, (3, 250), 1e-9), small_graph, H, 5, 400)
    assert checks.check_signal(signal, small_graph, H, 6, 400)


def test_glasso(signal):
    r = correlation_matrix(signal)
    rho = 0.05
    q = glasso(r, GlassoConfig(rho=rho))
    assert checks.check_glasso(r, q, rho) == []
    assert checks.check_glasso(r, bumped(q, (0, 1), 1e-2), rho)
    # feasible but not optimal: V = R + rho I leaves the duality gap open
    assert checks.check_glasso(r, np.linalg.inv(r + rho * np.eye(r.shape[0])), rho)


def test_regress(signal):
    rho = 20.0
    g = symmetrize_geometric(neighborhood_regression(signal, rho, max_iter=20000),
                             clamp_negative=True)
    w_ref = checks.symmetrize_clamped(checks.lasso_rows_reference(signal, rho))
    l = laplacian(g).l
    assert np.count_nonzero(w_ref) < w_ref.size - w_ref.shape[0]
    assert checks.check_regress(g.w, l, w_ref) == []
    assert checks.check_regress(bumped(g.w, (0, 1)), l, w_ref)
    assert checks.check_regress(g.w, bumped(l, (2, 2)), w_ref)


def test_lasso_reference_meets_kkt(signal):
    rho = 20.0
    b = checks.lasso_rows_reference(signal, rho)
    s = signal @ signal.T
    grad = 2.0 * (b @ s - s)
    off = ~np.eye(b.shape[0], dtype=bool)
    active = (b != 0) & off
    assert np.allclose(grad[active], -rho * np.sign(b[active]), atol=1e-6 * rho)
    assert np.all(np.abs(grad[off & ~active]) <= rho * (1 + 1e-9))


def test_polyfit(signal):
    r = correlation_matrix(signal)
    lam, lap = polynomial_fit_eigenvalues(r, PolyFitConfig(m=2))
    w = laplacian_to_weights(lap)
    assert checks.check_polyfit(r, lap.l, w, lam) == []
    assert checks.check_polyfit(r, bumped(lap.l, (0, 1)), w, lam)
    flipped = np.array(lam)
    flipped[-1] = -flipped[-1]
    assert checks.check_polyfit(r, lap.l, w, flipped)
    assert checks.check_polyfit(r, lap.l, bumped(w, (1, 2)), lam)


def test_smooth(signal):
    trace: list = []
    lap, _ = smooth_learn(signal, 1.0, 1.0, outer_iters=3, objective_trace=trace)
    w = laplacian_to_weights(lap)
    assert checks.check_smooth(lap.l, w, trace) == []
    assert checks.check_smooth(bumped(lap.l, (0, 1)), w, trace)
    assert checks.check_smooth(lap.l, bumped(w, (0, 1)), trace)
    assert checks.check_smooth(lap.l, w, [trace[0], trace[0] * 1.01 + 1.0])


# ---------------------------------------------------------------- metro

@pytest.fixture(scope="module")
def metro_graph():
    rng = np.random.default_rng(11)
    w = np.zeros((20, 20))
    for line in (range(0, 10), range(9, 20), (3, 12, 15, 1), (18, 5)):
        line = list(line)
        for a, b in zip(line, line[1:]):
            w[a, b] = w[b, a] = 1.0
    w[19, 0] = w[0, 19] = float(rng.integers(0, 2))
    return w


def test_centrality(metro_graph):
    g = Graph.from_weights(metro_graph)
    c = np.column_stack([betweenness(g), closeness_vitality(g)])
    b_ref = checks.betweenness_reference(metro_graph)
    v_ref = checks.vitality_reference(metro_graph)
    assert np.isinf(v_ref).any() and np.isfinite(v_ref).any()
    assert checks.check_centrality(c, b_ref, v_ref) == []
    assert checks.check_centrality(bumped(c, (4, 0)), b_ref, v_ref)
    finite = int(np.flatnonzero(np.isfinite(v_ref))[0])
    assert checks.check_centrality(bumped(c, (finite, 1)), b_ref, v_ref)
    negated = c.copy()
    negated[np.isinf(negated)] = -np.inf
    assert checks.check_centrality(negated, b_ref, v_ref)


def test_vitality_reference_drops_a_removed_edge(metro_graph):
    dropped = metro_graph.copy()
    dropped[3, 4] = dropped[4, 3] = 0.0
    g = Graph.from_weights(metro_graph)
    c = np.column_stack([betweenness(g), closeness_vitality(g)])
    assert checks.check_centrality(c, checks.betweenness_reference(dropped),
                                   checks.vitality_reference(dropped))


def test_population(metro_graph):
    q = np.random.default_rng(2).standard_normal(20)
    q -= q.mean()
    phi = fick_population(laplacian(Graph.from_weights(metro_graph)), q, k=2.0)
    assert checks.check_population(metro_graph, q, 2.0, phi) == []
    assert checks.check_population(metro_graph, q, 2.0, bumped(phi, 7))
    assert checks.check_population(metro_graph, q, 2.0, phi + 0.5)


# ---------------------------------------------------------------- solve

@pytest.fixture(scope="module")
def swiss():
    g, cloud = swiss_roll_graph(30, 4, KernelSpec(tau=1.0))
    return g.w, cloud.coords


def test_swiss_roll(swiss):
    w, coords = swiss
    assert checks.check_swiss_roll(w, coords, 4, 1.0) == []
    dropped = w.copy()
    dropped[0, 1] = dropped[1, 0] = 0.0
    assert checks.check_swiss_roll(dropped, coords, 4, 1.0)
    assert checks.check_swiss_roll(w, bumped(coords, (2, 1)), 4, 1.0)


def test_circuit_and_absorb(swiss):
    w, _ = swiss
    lap = laplacian(Graph.from_weights(w))
    pins = np.array([[0, 1.0], [5, 0.0], [9, -0.5]])
    currents = np.random.default_rng(1).standard_normal(30)
    x = circuit_solve(lap, BoundaryCondition({0: 1.0, 5: 0.0, 9: -0.5}), currents)
    assert checks.check_circuit(w, pins, currents, x) == []
    assert checks.check_circuit(w, pins, currents, bumped(x, 3))
    assert checks.check_circuit(w, pins, currents, bumped(x, 5))

    two = pins[:2]
    p = absorbing_probabilities(Graph.from_weights(w), BoundaryCondition({0: 1.0, 5: 0.0}))
    assert checks.check_absorb(w, two, p) == []
    assert checks.check_absorb(w, two, bumped(p, 4))


def test_hitting(swiss):
    w, _ = swiss
    h = hitting_times(Graph.from_weights(w), 0)
    assert checks.check_hitting(w, 0, h) == []
    assert checks.check_hitting(w, 0, bumped(h, 6, 1e-6))
    assert checks.check_hitting(w, 0, h - h[1])


def test_commute(swiss):
    w, _ = swiss
    g = Graph.from_weights(w)
    out = np.array([effective_resistance(g, 1, 29), commute_time(g, 1, 29)])
    assert checks.check_commute(w, 1, 29, out) == []
    assert checks.check_commute(w, 1, 29, bumped(out, 0, 1e-6))
    assert checks.check_commute(w, 1, 29, bumped(out, 1, 1e-6))


def test_pagerank():
    links = checks.weights_from_json(inputs._pages_graph(np.random.default_rng(0)),
                                     directed=True)
    res = pagerank(DirectedGraph.from_weights(links), damping=(0.15, 0.85), tol=1e-9)
    assert checks.check_pagerank(links, (0.15, 0.85), 1e-9, res.scores) == []
    assert checks.check_pagerank(links, (0.15, 0.85), 1e-9, bumped(res.scores, 3, 1e-6))
    dropped = links.copy()
    src, dst = np.argwhere(links > 0)[0]
    dropped[src, dst] = 0.0
    assert checks.check_pagerank(dropped, (0.15, 0.85), 1e-9, res.scores)


def test_propagate(swiss):
    w, _ = swiss
    labels = np.array([[2, 1.0], [7, 0.0], [20, 1.0]])
    x = label_propagation(Graph.from_weights(w), BoundaryCondition({2: 1.0, 7: 0.0, 20: 1.0}))
    assert checks.check_propagate(w, labels, x) == []
    assert checks.check_propagate(w, labels, bumped(x, 11, 1e-6))
    assert checks.check_propagate(w, labels, bumped(x, 7, 1e-6))


def test_denoise(swiss):
    w, _ = swiss
    y = np.random.default_rng(8).standard_normal(30)
    x = sparse_source_denoise(laplacian(Graph.from_weights(w)), y, k=3, reference=0)
    assert checks.check_denoise(w, 3, 0, x) == []
    assert checks.check_denoise(w, 3, 0, bumped(x, 12))
    assert checks.check_denoise(w, 3, 0, bumped(x, 0))


def test_gdft():
    dims = (3, 4, 2)
    d = separable_gdft(Lattice(dims))
    u, lam = d.eigenvectors, d.eigenvalues
    assert checks.check_gdft(dims, u, lam) == []
    assert checks.check_gdft(dims, bumped(u, (5, 7)), lam)
    assert checks.check_gdft(dims, u, bumped(lam, 10, 1e-6))
    assert checks.check_gdft((4, 3, 2), u, lam)


def test_allocation():
    rng = np.random.default_rng(9)
    r = ReturnSeries(rng.standard_normal((120, 4)) @ rng.standard_normal((4, 12))
                     + rng.standard_normal((120, 12)))
    tree = repeated_cuts(market_graph(r), 4)
    leaves = [sorted(leaf.vertices) for leaf in tree.leaves()]
    w = allocate(tree, "AS1")
    assert checks.check_allocation(w, leaves, "AS1", 4, 12) == []
    assert checks.check_allocation(bumped(w, 0, 1e-3), leaves, "AS1", 4, 12)
    assert checks.check_allocation(allocate(tree, "AS2"), leaves, "AS1", 4, 12)
    assert checks.check_allocation(w, leaves[1:], "AS1", 4, 12)


def test_verify():
    names = ["a", "b"]
    assert checks.check_verify("ok a\nok b\n", names) == []
    assert checks.check_verify("ok a\nFAIL b: off target\n", names)
    assert checks.check_verify("ok a\n", names)


# ---------------------------------------------------------------- harness

def test_inputs_depend_only_on_seed(tmp_path):
    assert inputs.WORKLOADS == tuple(workloads.WORKLOADS)
    for workload in inputs.WORKLOADS:
        for name, seed in (("a", 1), ("b", 1), ("c", 2)):
            inputs.write_inputs(workload, seed, tmp_path / workload / name)
        files = sorted(p.name for p in (tmp_path / workload / "a").iterdir())
        read = {name: [(tmp_path / workload / name / f).read_bytes() for f in files]
                for name in "abc"}
        assert read["a"] == read["b"]
        assert read["a"] != read["c"]


def test_benchmark_json_lists_every_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    per_layer = run.per_layer_units(workloads.ALL_STEP_NAMES)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_layer_metrics_self_time_and_outermost_io():
    spans = [
        {"name": "cli.dispatch", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "io.read_matrix_csv", "start": 0.0, "end": 2.0, "parent": 0, "bytes": 100},
        {"name": "solvers.glasso", "start": 2.0, "end": 8.0, "parent": 0},
        {"name": "solvers.lasso_ista", "start": 3.0, "end": 4.0, "parent": 2,
         "iterations": 7, "converged": True},
        {"name": "solvers.lasso_ista", "start": 5.0, "end": 7.0, "parent": 2,
         "iterations": 9, "converged": False},
        {"name": "io.write_matrix_csv", "start": 8.0, "end": 9.5, "parent": 0, "bytes": 40},
        {"name": "io.atomic_write_text", "start": 8.5, "end": 9.5, "parent": 5, "bytes": 40},
    ]
    m = run.layer_metrics(spans)
    assert m["solvers.glasso_s"] == pytest.approx(3.0)
    assert m["solvers.lasso_ista_s"] == pytest.approx(3.0)
    assert m["solvers.lasso_ista.calls"] == 2
    assert m["solvers.lasso_ista.iterations"] == 16
    assert m["solvers.lasso_ista.converged"] == 1
    assert m["io.read_s"] == pytest.approx(2.0)
    assert m["io.write_s"] == pytest.approx(1.5)
    assert m["io.bytes_read"] == 100 and m["io.bytes_written"] == 40


def test_verify_check_names_match_the_program():
    from graphtopo.verify import CHECKS
    assert run.VERIFY_CHECKS == tuple(name for name, _ in CHECKS)


def test_traced_cli_records_nested_spans(tmp_path):
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(Path(run.HERE) / "traced_cli.py"), str(spans_path), "gen_lattice",
         "gen", "lattice", "--dims", "3,2", "--out", "lattice.json", "--report", ""],
        cwd=tmp_path, env={**os.environ, **run.ENV}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())
    names = [s["name"] for s in spans]
    assert names[0] == "cli.dispatch" and spans[0]["parent"] is None
    assert "lattice.kron_sum_adjacency" in names
    write = names.index("io.write_graph_json")
    assert spans[names.index("io.atomic_write_text")]["parent"] == write
    assert spans[write]["bytes"] == (tmp_path / "lattice.json").stat().st_size
    assert all(s["command"] == "gen_lattice" and s["end"] >= s["start"] for s in spans)
