"""Transport-network analysis: hop-count centralities and the diffusion
population estimate.

Distances use the unweighted skeleton of the graph (an edge wherever
W > 0); the schematic reading of a transit map has no meaningful edge
lengths.
"""

from __future__ import annotations

import numpy as np

from .core import Graph, Laplacian

__all__ = ["betweenness", "closeness_vitality", "fick_population"]


# The most floats one neighbour gather may hold. betweenness takes its
# sources in blocks no wider than this allows, since a gather over all n
# sources of a dense graph would hold about n^3 floats.
_GATHER_FLOATS = 1 << 20


class _Skeleton:
    """The unweighted skeleton of W (an edge wherever W > 0) on its
    non-isolated vertices ``live``, as a CSR neighbour index: vertex u's
    neighbours are ``cols[starts[u]:starts[u + 1]]``. Dropping the isolated
    vertices keeps every segment non-empty, which ``reduceat`` needs."""

    def __init__(self, w: np.ndarray):
        self.live = np.flatnonzero(np.any(w > 0, axis=1))
        rows, self.cols = np.nonzero(w[np.ix_(self.live, self.live)] > 0)
        self.starts = np.searchsorted(rows, np.arange(self.live.size))

    def gather(self, ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
        """Row u combines, by ``ufunc``, the rows of ``a`` at u's neighbours."""
        return ufunc.reduceat(np.take(a, self.cols, axis=0), self.starts, axis=0)


def _dependencies(sk: _Skeleton, sources: np.ndarray) -> np.ndarray:
    """Brandes' dependency sums for a block of sources, level by level.

    Column j of the vertex x source arrays belongs to source ``sources[j]``.
    Returns, per vertex v, the sum over the block of the dependency of the
    source on v, the source itself excluded.
    """
    n, b = sk.live.size, sources.size
    dist = np.full((n, b), -1)
    sigma = np.zeros((n, b))
    dist[sources, np.arange(b)] = 0
    sigma[sources, np.arange(b)] = 1.0
    frontier = dist == 0
    level = 0
    while frontier.any():
        # shortest-path counts of the next level: sums over its predecessors
        counts = sk.gather(np.add, np.where(frontier, sigma, 0.0))
        level += 1
        frontier = (dist < 0) & (counts > 0)
        dist[frontier] = level
        sigma[frontier] = counts[frontier]
    # back up a level at a time: a vertex v at level k - 1 gets
    # sigma_v * sum of (1 + delta_u) / sigma_u over its neighbours u at level k.
    # The deepest level is level - 1, and level 1 only feeds the sources.
    delta = np.zeros((n, b))
    for k in range(level - 1, 1, -1):
        t = np.divide(1.0 + delta, sigma, out=np.zeros((n, b)), where=dist == k)
        delta += np.where(dist == k - 1, sigma * sk.gather(np.add, t), 0.0)
    return delta.sum(axis=1)


def betweenness(g: Graph) -> np.ndarray:
    """Shortest-path betweenness over unordered vertex pairs.

    B(n) sums, over all pairs (k, m) with k, m != n, the fraction of
    hop-count shortest k-m paths that pass through n.
    """
    out = np.zeros(g.n)
    sk = _Skeleton(g.w)
    n = sk.live.size
    if not n:
        return out
    block = max(1, _GATHER_FLOATS // sk.cols.size)
    scores = np.zeros(n)
    for first in range(0, n, block):
        scores += _dependencies(sk, np.arange(first, min(first + block, n)))
    # every unordered pair was counted from both endpoints
    out[sk.live] = scores / 2.0
    return out


def _hop_sum(sk: _Skeleton, frontier: np.ndarray, unseen: np.ndarray) -> tuple[int, int]:
    """Breadth-first search from every source at once, one bit per source.

    Row u of ``frontier`` holds the sources whose search reached u at the
    current level and row u of ``unseen`` those that have not reached it
    yet; ``unseen`` is updated in place. Returns the hop sum and the count
    over the ordered (source, vertex) pairs reached, the source itself
    excluded.
    """
    pairs = int(np.bitwise_count(unseen).sum())
    total = level = 0
    while True:
        level += 1
        frontier = sk.gather(np.bitwise_or, frontier)
        frontier &= unseen
        reached = int(np.bitwise_count(frontier).sum())
        if not reached:
            break
        unseen ^= frontier
        total += level * reached
    return total, pairs - int(np.bitwise_count(unseen).sum())


def closeness_vitality(g: Graph) -> np.ndarray:
    """Drop in the total pairwise distance when each vertex is removed.

    A removal that disconnects previously reachable vertices scores +inf.
    Pairs already unreachable in the base graph are ignored throughout.
    """
    out = np.zeros(g.n)
    # an isolated vertex lies on no path, so its removal changes nothing
    sk = _Skeleton(g.w)
    n = sk.live.size
    if not n:
        return out
    # row s holds the bit of source s alone; the bits past n stay unused
    eye = np.packbits(np.eye(n, -(-n // 64) * 64, dtype=bool), axis=1).view(np.uint64)
    unseen = ~eye
    # totals over ordered pairs, so every unordered pair counts twice
    base_sum, base_pairs = _hop_sum(sk, eye, unseen)
    # base pairs that involve each vertex, itself excluded
    reach = np.bitwise_count(~unseen).sum(axis=1, dtype=np.int64) - 1
    for v in range(n):
        # delete v: its search never starts and no search enters it
        frontier, unseen = eye.copy(), ~eye
        frontier[v] = 0
        unseen[v] = 0
        reduced_sum, reduced_pairs = _hop_sum(sk, frontier, unseen)
        # pairs not involving v that were finite in the base graph
        if reduced_pairs < base_pairs - 2 * reach[v]:
            out[sk.live[v]] = np.inf
        else:
            out[sk.live[v]] = (base_sum - reduced_sum) / 2
    return out


def fick_population(l: Laplacian, q, k: float) -> np.ndarray:
    """Population profile implied by diffusion flows: -(1/k) L^+ q, shifted
    so the smallest entry is zero.

    q is centred first: L^+ drops its mean on a connected graph, and the
    centred flows balance, so the grounded solve L x = q - mean(q) through
    circuit_solve, with vertex 0 pinned to 0, gives L^+ q up to a constant
    that the shift removes. l must be the combinatorial Laplacian D - W.
    circuit_solve's NumericalError if a component holds no vertex 0."""
    if k <= 0:
        raise ValueError("diffusivity k must be positive")
    if l.kind != "combinatorial":
        raise ValueError("population estimate needs the combinatorial laplacian")
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.size != l.n:
        raise ValueError("flow length does not match the graph")
    if not np.all(np.isfinite(q)):
        raise ValueError("flows contain non-finite values")
    # each command loads only the modules it runs (cli's lazy loading, see
    # test_metro_centrality_loads_only_metro), so physical is imported here
    from .physical import BoundaryCondition, circuit_solve
    phi = -circuit_solve(l, BoundaryCondition({0: 0.0}), q - q.mean()) / k
    return phi - phi.min()
