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


def _popcount(bits: np.ndarray, axis=None):
    # set bits per row (axis=1) or in all; np.bitwise_count needs numpy 2
    return np.count_nonzero(np.unpackbits(bits.view(np.uint8), axis=-1), axis=axis)


def _hop_sum(cols: np.ndarray, starts: np.ndarray, frontier: np.ndarray,
             unseen: np.ndarray) -> tuple[int, int]:
    """Breadth-first search from every source at once, one bit per source.

    Row u of ``frontier`` holds the sources whose search reached u at the
    current level and row u of ``unseen`` those that have not reached it
    yet; ``unseen`` is updated in place. Vertex u's neighbours are
    ``cols[starts[u]:starts[u + 1]]``, and no segment may be empty.
    Returns the hop sum and the count over the ordered (source, vertex)
    pairs reached, the source itself excluded.
    """
    pairs = int(_popcount(unseen))
    # each pair is first reached at exactly one level, so the hop sum is
    # sum_b 2^b |pairs first reached at a level with bit b set|, and
    # acc[b] collects those pairs: no popcount per level
    acc = []
    level = 0
    while True:
        level += 1
        frontier = np.bitwise_or.reduceat(np.take(frontier, cols, axis=0), starts, axis=0)
        frontier &= unseen
        if not frontier.any():
            break
        unseen ^= frontier
        if level.bit_length() > len(acc):
            acc.append(np.zeros_like(frontier))
        for b in range(level.bit_length()):
            if level >> b & 1:
                acc[b] |= frontier
    total = sum(int(_popcount(a)) << b for b, a in enumerate(acc))
    return total, pairs - int(_popcount(unseen))


def closeness_vitality(g: Graph) -> np.ndarray:
    """Drop in the total pairwise distance when each vertex is removed.

    A removal that disconnects previously reachable vertices scores +inf.
    Pairs already unreachable in the base graph are ignored throughout.
    """
    out = np.zeros(g.n)
    # an isolated vertex lies on no path, so its removal changes nothing
    live = np.flatnonzero(np.any(g.w > 0, axis=1))
    n = live.size
    if not n:
        return out
    rows, cols = np.nonzero(g.w[np.ix_(live, live)] > 0)
    starts = np.searchsorted(rows, np.arange(n))
    # row s holds the bit of source s alone; the bits past n stay unused
    eye = np.packbits(np.eye(n, -(-n // 64) * 64, dtype=bool), axis=1).view(np.uint64)
    unseen = ~eye
    # totals over ordered pairs, so every unordered pair counts twice
    base_sum, base_pairs = _hop_sum(cols, starts, eye, unseen)
    # base pairs that involve each vertex, itself excluded
    reach = _popcount(~unseen, axis=1) - 1
    for v in range(n):
        # delete v: its search never starts and no search enters it
        frontier, unseen = eye.copy(), ~eye
        frontier[v] = 0
        unseen[v] = 0
        reduced_sum, reduced_pairs = _hop_sum(cols, starts, frontier, unseen)
        # pairs not involving v that were finite in the base graph
        if reduced_pairs < base_pairs - 2 * reach[v]:
            out[live[v]] = np.inf
        else:
            out[live[v]] = (base_sum - reduced_sum) / 2
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
