"""Built-in verification: golden worked examples plus property sweeps.

Every check is deterministic (fixed seeds) and cheap enough that the whole
suite finishes in well under two minutes; `graphtopo verify` runs it and
reports one line per check.
"""

from __future__ import annotations

import time

import numpy as np

from .core import DirectedGraph, Graph, NumericalError, connected_components, eig_sym, laplacian
from .learning import correlation_matrix
from .physical import (
    BoundaryCondition,
    absorbing_probabilities,
    commute_time,
    hitting_times,
    label_propagation,
    monte_carlo_hitting,
    pagerank,
)
from .solvers import LassoConfig, lasso_ista, normalize_precision, precision_matrix, soft_threshold

# 8-vertex golden graphs used by the worked examples.
_BENCH8_EDGES = [
    (0, 1, 0.23), (0, 2, 0.74), (0, 3, 0.24),
    (1, 2, 0.35), (1, 4, 0.23),
    (2, 3, 0.26), (2, 4, 0.24),
    (3, 6, 0.32),
    (4, 5, 0.51), (4, 7, 0.14),
    (5, 7, 0.15),
    (6, 7, 0.32),
]
_SOCIAL8_EDGES = [
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 3),
    (2, 4), (3, 6), (4, 5), (4, 7), (5, 7), (6, 7),
]
_PAGES8_LINKS = {
    0: [1], 1: [2], 2: [0, 3, 4, 7], 3: [0],
    4: [1, 2, 5], 5: [7], 6: [3, 7], 7: [2, 6],
}

_PAGES8_SCORES = [1.33, 1.52, 2.18, 0.79, 0.55, 0.18, 0.48, 0.97]
_SOCIAL8_ABSORB = [0.375, 0.625, 0.5, 0.0, 1.0, 0.875, 0.375, 0.75]
_BENCH8_HITTING_TO_3 = [9.0155, 11.3003, 9.5942, 0.0, 12.6594, 13.1427, 6.193, 10.386]
_BENCH8_RESISTANCE_70 = 4.0745
_BENCH8_COMMUTE_70 = 30.3960


def _weights_from_edges(n: int, edges) -> np.ndarray:
    w = np.zeros((n, n))
    for e in edges:
        if len(e) == 3:
            i, j, wt = e
        else:
            (i, j), wt = e, 1.0
        w[i, j] = wt
        w[j, i] = wt
    return w


def _bench8() -> Graph:
    return Graph.from_weights(_weights_from_edges(8, _BENCH8_EDGES))


def _random_connected(rng: np.random.Generator, n: int) -> Graph:
    while True:
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    w[i, j] = w[j, i] = rng.uniform(0.1, 1.0)
        if len(connected_components(w)) == 1:
            return Graph.from_weights(w)


def _check_laplacian_row_sums() -> str | None:
    rng = np.random.default_rng(101)
    for _ in range(20):
        g = _random_connected(rng, int(rng.integers(3, 12)))
        l = laplacian(g).l
        if np.max(np.abs(l @ np.ones(g.n))) > 1e-12:
            return "row sums exceed 1e-12"
        off = l - np.diag(np.diag(l))
        if np.max(off) > 0:
            return "positive off-diagonal entry"
        if np.max(np.abs(l - l.T)) > 0:
            return "asymmetric Laplacian"
    return None


def _check_psd_floors() -> str | None:
    rng = np.random.default_rng(102)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        g = _random_connected(rng, n)
        if eig_sym(laplacian(g).l).eigenvalues[0] < -1e-10:
            return "Laplacian eigenvalue below -1e-10"
        x = rng.normal(size=(n, 5 * n))
        if eig_sym(correlation_matrix(x)).eigenvalues[0] < -1e-10:
            return "correlation eigenvalue below -1e-10"
    return None


def _check_soft_threshold_contraction() -> str | None:
    rng = np.random.default_rng(103)
    a = rng.normal(size=10_000) * 10
    b = rng.normal(size=10_000) * 10
    t = rng.uniform(0, 5, size=10_000)
    gap = np.abs(soft_threshold(a, t) - soft_threshold(b, t))
    # 1-Lipschitz up to float rounding on operands of magnitude ~10
    if np.any(gap > np.abs(a - b) * (1 + 1e-12) + 1e-12):
        return "non-contractive pair found"
    direct = np.sign(a) * np.maximum(np.abs(a) - t, 0.0)
    if np.max(np.abs(soft_threshold(a, t) - direct)) > 0:
        return "dead-zone identity broken"
    return None


def _check_ista_monotonicity() -> str | None:
    rng = np.random.default_rng(104)
    for _ in range(5):
        a = rng.normal(size=(30, 20))
        y = rng.normal(size=30)
        try:
            # debug mode raises if the objective ever increases
            lasso_ista(a, y, LassoConfig(rho=0.5, max_iter=300, debug=True))
        except NumericalError as e:
            return str(e)
    return None


def _check_monte_carlo_hitting() -> str | None:
    w = np.zeros((6, 6))
    for i in range(5):
        w[i, i + 1] = w[i + 1, i] = 1.0
    g = Graph.from_weights(w)
    exact = hitting_times(g, target=5)[0]
    mean, stderr = monte_carlo_hitting(g, start=0, target=5, walks=1_000_000, seed=105)
    if abs(mean - exact) > 3.0 * stderr:
        return f"MC mean {mean:.4f} vs exact {exact:.4f} outside 3 sigma ({stderr:.4f})"
    return None


def _check_label_propagation_fixed_point() -> str | None:
    rng = np.random.default_rng(106)
    for _ in range(10):
        n = int(rng.integers(4, 10))
        g = _random_connected(rng, n)
        labels = BoundaryCondition({0: 0.0, n - 1: 1.0})
        x = label_propagation(g, labels)
        s = g.w / g.w.sum(axis=1, keepdims=True)
        free = np.arange(1, n - 1)
        if np.max(np.abs(x[free] - (s @ x)[free])) > 1e-8:
            return "fixed-point residual above 1e-8"
    return None


def _check_precision_example() -> str | None:
    idx = np.arange(4)
    r = np.minimum.outer(idx, idx) + 1.0
    q = precision_matrix(r)
    expected = np.array([
        [2.0, -1.0, 0.0, 0.0],
        [-1.0, 2.0, -1.0, 0.0],
        [0.0, -1.0, 2.0, -1.0],
        [0.0, 0.0, -1.0, 1.0],
    ])
    if np.max(np.abs(q - expected)) > 1e-10:
        return "precision matrix off the integer target"
    p = normalize_precision(q)
    half = 1.0 / np.sqrt(2.0)
    expected_p = np.array([
        [1.0, -0.5, 0.0, 0.0],
        [-0.5, 1.0, -0.5, 0.0],
        [0.0, -0.5, 1.0, -half],
        [0.0, 0.0, -half, 1.0],
    ])
    if np.max(np.abs(p - expected_p)) > 1e-12:
        return "normalized precision off target"
    return None


def _check_pagerank_example() -> str | None:
    w = np.zeros((8, 8))
    for src, targets in _PAGES8_LINKS.items():
        for t in targets:
            w[src, t] = 1.0
    res = pagerank(DirectedGraph.from_weights(w))
    gap = np.max(np.abs(res.scores - np.array(_PAGES8_SCORES)))
    if gap > 0.01:
        return f"score gap {gap:.4f} exceeds 0.01"
    return None


def _check_absorbing_example() -> str | None:
    g = Graph.from_weights(_weights_from_edges(8, _SOCIAL8_EDGES))
    x = absorbing_probabilities(g, BoundaryCondition({4: 1.0, 3: 0.0}))
    if np.max(np.abs(x - np.array(_SOCIAL8_ABSORB))) > 1e-3:
        return "absorbing probabilities off target"
    return None


def _check_hitting_commute_example() -> str | None:
    g = _bench8()
    h = hitting_times(g, target=3)
    if np.max(np.abs(h - np.array(_BENCH8_HITTING_TO_3))) > 1e-3:
        return "hitting times off target"
    from .physical import effective_resistance
    r = effective_resistance(g, 7, 0)
    if abs(r - _BENCH8_RESISTANCE_70) > 1e-3:
        return f"effective resistance {r:.4f} off target"
    ct = commute_time(g, 7, 0)
    if abs(ct - _BENCH8_COMMUTE_70) > 1e-3:
        return f"commute time {ct:.4f} off target"
    round_trip = hitting_times(g, target=7)[0] + hitting_times(g, target=0)[7]
    if abs(ct - round_trip) > 1e-6:
        return "commute time is not the hitting-time round trip"
    return None


CHECKS = [
    ("laplacian_row_sums", _check_laplacian_row_sums),
    ("psd_floors", _check_psd_floors),
    ("soft_threshold_contraction", _check_soft_threshold_contraction),
    ("ista_objective_monotonicity", _check_ista_monotonicity),
    ("hitting_time_monte_carlo", _check_monte_carlo_hitting),
    ("label_propagation_fixed_point", _check_label_propagation_fixed_point),
    ("worked_example_precision", _check_precision_example),
    ("worked_example_pagerank", _check_pagerank_example),
    ("worked_example_absorbing", _check_absorbing_example),
    ("worked_example_hitting_commute", _check_hitting_commute_example),
]


def run_suite(check_s: dict | None = None) -> bool:
    """Run every check; print one line each; True iff all pass. A `check_s`
    dict receives each check's wall time in seconds under its name."""
    all_ok = True
    for name, fn in CHECKS:
        t0 = time.perf_counter()
        detail = fn()
        if check_s is not None:
            check_s[name] = round(time.perf_counter() - t0, 6)
        if detail is None:
            print(f"ok {name}")
        else:
            all_ok = False
            print(f"FAIL {name}: {detail}")
    return all_ok
