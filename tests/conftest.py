"""Shared fixtures: small benchmark graphs and generators used across suites."""

from __future__ import annotations

import numpy as np
import pytest

from graphtopo.core import DirectedGraph, Graph

# 8-vertex resistive-network benchmark; also the diffusion testbed.
BENCH8_EDGES = [
    (0, 1, 0.23), (0, 2, 0.74), (0, 3, 0.24),
    (1, 2, 0.35), (1, 4, 0.23),
    (2, 3, 0.26), (2, 4, 0.24),
    (3, 6, 0.32),
    (4, 5, 0.51), (4, 7, 0.14),
    (5, 7, 0.15),
    (6, 7, 0.32),
]

# 8-vertex unit-weight social network used by the absorbing-walk example.
SOCIAL8_EDGES = [
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 3),
    (2, 4), (3, 6), (4, 5), (4, 7), (5, 7), (6, 7),
]

# 8-page hyperlink graph; row n lists pages that page n links to.
PAGES8_LINKS = {
    0: [1],
    1: [2],
    2: [0, 3, 4, 7],
    3: [0],
    4: [1, 2, 5],
    5: [7],
    6: [3, 7],
    7: [2, 6],
}


def weights_from_edges(n: int, edges) -> np.ndarray:
    w = np.zeros((n, n))
    for e in edges:
        if len(e) == 3:
            i, j, wt = e
        else:
            (i, j), wt = e, 1.0
        w[i, j] = wt
        w[j, i] = wt
    return w


@pytest.fixture
def bench8() -> Graph:
    return Graph.from_weights(weights_from_edges(8, BENCH8_EDGES))


@pytest.fixture
def social8() -> Graph:
    return Graph.from_weights(weights_from_edges(8, SOCIAL8_EDGES))


@pytest.fixture
def pages8() -> DirectedGraph:
    w = np.zeros((8, 8))
    for src, targets in PAGES8_LINKS.items():
        for t in targets:
            w[src, t] = 1.0
    return DirectedGraph.from_weights(w)


def chain4_correlation() -> np.ndarray:
    """Correlation of the 4-stage running-sum chain: R[m, n] = min(m, n) + 1."""
    idx = np.arange(4)
    return np.minimum.outer(idx, idx) + 1.0


def chain4_observations(p: int = 4) -> np.ndarray:
    """A 4 x p matrix whose sample correlation (1/p) X X' is exactly the
    chain correlation, built from a scaled Cholesky factor."""
    r = chain4_correlation()
    c = np.linalg.cholesky(r)
    x = np.zeros((4, p))
    x[:, :4] = c * np.sqrt(p)
    return x


def random_connected_graph(rng: np.random.Generator, n: int,
                           p_edge: float = 0.5,
                           w_low: float = 0.1, w_high: float = 1.0) -> Graph:
    """Rejection-sample a connected random weighted graph."""
    for _ in range(1000):
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p_edge:
                    w[i, j] = w[j, i] = rng.uniform(w_low, w_high)
        if _is_connected(w):
            return Graph.from_weights(w)
    raise RuntimeError("failed to sample a connected graph")


def two_block_graph(rng: np.random.Generator, n: int) -> Graph:
    """Two dense blocks with a few weak bridges; the block split is the
    planted optimum."""
    n1 = n // 2
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if (i < n1) == (j < n1):
                w[i, j] = w[j, i] = rng.uniform(0.8, 1.2)
    for _ in range(max(1, n // 6)):
        a = int(rng.integers(0, n1))
        b = int(rng.integers(n1, n))
        w[a, b] = w[b, a] = rng.uniform(0.05, 0.15)
    return Graph.from_weights(w)


def barbell_graph(k: int, bridge: float) -> Graph:
    """Two unit-weight k-cliques joined by one edge of weight `bridge`
    between vertices k - 1 and k. The effective resistance from vertex 0 to
    vertex 2k - 1 is 2/k inside each clique plus 1/bridge across."""
    w = np.zeros((2 * k, 2 * k))
    w[:k, :k] = w[k:, k:] = 1.0
    np.fill_diagonal(w, 0.0)
    w[k - 1, k] = w[k, k - 1] = bridge
    return Graph.from_weights(w)


def _is_connected(w: np.ndarray) -> bool:
    n = w.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for u in np.flatnonzero(w[v] > 0):
            if not seen[u]:
                seen[u] = True
                stack.append(int(u))
    return bool(seen.all())
