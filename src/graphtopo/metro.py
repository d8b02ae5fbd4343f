"""Transport-network analysis: hop-count centralities and the diffusion
population estimate.

Distances use the unweighted skeleton of the graph (an edge wherever
W > 0); the schematic reading of a transit map has no meaningful edge
lengths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import shortest_path

from .core import Graph, Laplacian, NumericalError, connected_components, pseudo_inverse

__all__ = ["FlowVector", "betweenness", "closeness_vitality", "fick_population"]


@dataclass(frozen=True)
class FlowVector:
    """Net outflow per vertex (out minus in, per unit time)."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float).reshape(-1)
        if not np.all(np.isfinite(q)):
            raise ValueError("flows contain non-finite values")
        object.__setattr__(self, "q", q)


def _neighbor_lists(w: np.ndarray) -> list[np.ndarray]:
    return [np.flatnonzero(w[v] > 0) for v in range(w.shape[0])]


def betweenness(g: Graph) -> np.ndarray:
    """Shortest-path betweenness over unordered vertex pairs.

    B(n) sums, over all pairs (k, m) with k, m != n, the fraction of
    hop-count shortest k-m paths that pass through n.
    """
    n = g.n
    adj = _neighbor_lists(g.w)
    scores = np.zeros(n)
    for s in range(n):
        # single-source shortest-path counts (breadth first)
        dist = np.full(n, -1)
        sigma = np.zeros(n)
        dist[s] = 0
        sigma[s] = 1.0
        order = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in adj[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(int(u))
                if dist[u] == dist[v] + 1:
                    sigma[u] += sigma[v]
        # back-propagate pair dependencies
        delta = np.zeros(n)
        for v in reversed(order):
            for u in adj[v]:
                if dist[u] == dist[v] + 1:
                    delta[v] += sigma[v] / sigma[u] * (1.0 + delta[u])
            if v != s:
                scores[v] += delta[v]
    # every unordered pair was counted from both endpoints
    return scores / 2.0


def _hop_pairs(hops: np.ndarray) -> tuple[np.ndarray, float, int]:
    """All-pairs hop distances, their finite pair sum and the finite pair count."""
    dist = shortest_path(hops, unweighted=True, directed=False)
    finite = np.isfinite(dist)
    np.fill_diagonal(finite, False)
    # hop counts are integers, so the float sum is exact in any order
    return dist, float(dist[finite].sum()) / 2.0, int(np.count_nonzero(finite)) // 2


def closeness_vitality(g: Graph) -> np.ndarray:
    """Drop in the total pairwise distance when each vertex is removed.

    A removal that disconnects previously reachable vertices scores +inf.
    Pairs already unreachable in the base graph are ignored throughout.
    """
    n = g.n
    hops = g.w > 0
    dist, base_sum, base_pairs = _hop_pairs(hops)
    # base pairs that involve each vertex: its finite distances, itself excluded
    reach = np.count_nonzero(np.isfinite(dist), axis=1) - 1
    out = np.zeros(n)
    keep = np.ones(n, dtype=bool)
    for v in range(n):
        keep[v] = False
        _, reduced_sum, reduced_pairs = _hop_pairs(hops[np.ix_(keep, keep)])
        keep[v] = True
        # pairs not involving v that were finite in the base graph
        if reduced_pairs < base_pairs - reach[v]:
            out[v] = np.inf
        else:
            out[v] = base_sum - reduced_sum
    return out


def fick_population(l: Laplacian, q, k: float) -> np.ndarray:
    """Population profile implied by diffusion flows: -(1/k) L^+ q,
    shifted so the smallest entry is zero."""
    if k <= 0:
        raise ValueError("diffusivity k must be positive")
    if isinstance(q, FlowVector):
        q = q.q
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.size != l.n:
        raise ValueError("flow length does not match the graph")
    w = -np.asarray(l.l, dtype=float)
    np.fill_diagonal(w, 0.0)
    if len(connected_components(w)) > 1:
        raise NumericalError("population estimate needs a connected graph")
    phi = -pseudo_inverse(l.l) @ q / k
    return phi - phi.min()
