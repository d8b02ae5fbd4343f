"""Market graphs, spectral portfolio cuts, and cut-tree asset allocation."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import Graph, NumericalError, connected_components, eig_sym, laplacian

__all__ = [
    "Bisection",
    "CutNode",
    "CutTree",
    "ReturnSeries",
    "allocate",
    "cut_value",
    "market_graph",
    "min_variance_weights",
    "repeated_cuts",
    "sharpe",
    "spectral_bisect",
]


@dataclass(frozen=True)
class ReturnSeries:
    """T x N matrix of per-period asset returns."""

    returns: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.returns, dtype=float)
        if r.ndim != 2:
            raise ValueError("returns must be a T x N matrix")
        if r.shape[0] < 2:
            raise ValueError("need at least two return periods")
        if not np.all(np.isfinite(r)):
            raise ValueError("returns contain non-finite values")
        object.__setattr__(self, "returns", r)

    @property
    def periods(self) -> int:
        return self.returns.shape[0]

    @property
    def assets(self) -> int:
        return self.returns.shape[1]


@dataclass
class CutNode:
    """Node of a cut tree: a vertex subset and the cut count to reach it."""

    vertices: tuple[int, ...]
    depth: int
    left: "CutNode | None" = None
    right: "CutNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


@dataclass
class CutTree:
    """Binary tree of repeated bisections; leaves partition the root set."""

    root: CutNode
    cuts: int

    def leaves(self) -> list[CutNode]:
        out: list[CutNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.append(node.right)
                stack.append(node.left)
        return out


@dataclass(frozen=True)
class Bisection:
    """Two-sided vertex split; from_components marks a connectivity split."""

    side_one: tuple[int, ...]
    side_two: tuple[int, ...]
    from_components: bool = False


def market_graph(r: ReturnSeries) -> Graph:
    """Fully connected asset graph weighted by absolute correlation."""
    x = r.returns
    sigma = np.cov(x, rowvar=False)
    var = np.diag(sigma)
    bad = np.flatnonzero(var <= 0)
    if bad.size:
        raise ValueError(f"asset {bad[0]} has zero variance")
    w = np.abs(sigma) / np.sqrt(np.outer(var, var))
    np.fill_diagonal(w, 0.0)
    return Graph.from_weights(w)


def min_variance_weights(sigma) -> np.ndarray:
    """Minimum-variance portfolio weights Sigma^-1 1 / (1' Sigma^-1 1)."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("sigma must be square")
    ones = np.ones(sigma.shape[0])
    try:
        s = np.linalg.solve(sigma, ones)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "covariance matrix is singular; a pseudo-inverse is deliberately "
            "not substituted because the inversion would be unstable") from exc
    total = float(ones @ s)
    if not np.isfinite(total) or total == 0.0:
        raise NumericalError("covariance inversion produced a degenerate solution")
    return s / total


def _split_sides(g: Graph, side) -> tuple[np.ndarray, np.ndarray]:
    side = np.asarray(side, dtype=int).reshape(-1)
    if side.size == 0:
        raise ValueError("one side of the cut is empty")
    ordered = np.sort(side)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("cut side contains duplicate vertices")
    if ordered[0] < 0 or ordered[-1] >= g.n:
        raise ValueError("cut side contains out-of-range vertices")
    other = np.delete(np.arange(g.n), side)
    if other.size == 0:
        raise ValueError("one side of the cut is empty")
    return side, other


def cut_value(g: Graph, side, kind: str = "normalized") -> float:
    """Cut cost of the bipartition (side, complement).

    ``normalized`` scales the cross weight by 1/N1 + 1/N2; ``volume``
    scales by 1/V1 + 1/V2 with V the sum of degrees in each side.
    """
    s1, s2 = _split_sides(g, side)
    cross = float(g.w[np.ix_(s1, s2)].sum())
    if kind == "normalized":
        return (1.0 / s1.size + 1.0 / s2.size) * cross
    if kind == "volume":
        d = g.degrees()
        v1, v2 = float(d[s1].sum()), float(d[s2].sum())
        if v1 <= 0 or v2 <= 0:
            raise NumericalError("volume cut undefined for a zero-volume side")
        return (1.0 / v1 + 1.0 / v2) * cross
    raise ValueError(f"unknown cut kind {kind!r}")


def spectral_bisect(g: Graph, kind: str = "normalized") -> Bisection:
    """Split a graph by the sign of its first nontrivial (generalized)
    Laplacian eigenvector; zero entries join the positive side.

    A disconnected graph is split into its first component versus the rest,
    flagged via ``from_components`` (that cut costs zero).
    """
    if kind not in ("normalized", "volume"):
        raise ValueError(f"unknown cut kind {kind!r}")
    if g.n < 2:
        raise ValueError("cannot bisect a single vertex")
    comps = connected_components(g.w)
    if len(comps) > 1:
        side_one = tuple(comps[0])
        side_two = tuple(sorted(v for c in comps[1:] for v in c))
        return Bisection(side_one, side_two, from_components=True)

    lap = laplacian(g).l
    if kind == "normalized":
        x = eig_sym(lap).eigenvectors[:, 1]
    else:
        d = g.degrees()
        inv_sqrt = 1.0 / np.sqrt(d)
        sym = inv_sqrt[:, None] * lap * inv_sqrt[None, :]
        y = eig_sym(sym).eigenvectors[:, 1]
        x = inv_sqrt * y
    positive = np.flatnonzero(x >= 0)
    negative = np.flatnonzero(x < 0)
    return Bisection(tuple(positive.tolist()), tuple(negative.tolist()))


def _leaf_metric(g: Graph, node: CutNode, select: str) -> float:
    if select == "largest_size":
        return float(len(node.vertices))
    idx = np.asarray(node.vertices, dtype=int)
    sub = g.w[np.ix_(idx, idx)]
    return float(sub.sum())


def repeated_cuts(g: Graph, k: int, select: str = "largest_size",
                  kind: str = "normalized") -> CutTree:
    """Apply k spectral bisections, each to the leaf ranked first by the
    selection rule (ties go to the leaf whose smallest vertex is lowest).

    Single-vertex leaves cannot be cut; if one is selected it is skipped
    with a warning and the next-ranked leaf is used.
    """
    if select not in ("largest_size", "largest_volume"):
        raise ValueError(f"unknown selection rule {select!r}")
    if not 1 <= k <= g.n - 1:
        raise ValueError(f"cut count must be between 1 and {g.n - 1}")

    root = CutNode(tuple(range(g.n)), depth=0)
    leaves = [root]
    for _ in range(k):
        ranked = sorted(leaves,
                        key=lambda node: (-_leaf_metric(g, node, select),
                                          min(node.vertices)))
        chosen = None
        for node in ranked:
            if len(node.vertices) >= 2:
                chosen = node
                break
            warnings.warn(
                f"leaf {node.vertices} has a single vertex and cannot be cut; "
                "using the next-ranked leaf", UserWarning, stacklevel=2)
        idx = np.asarray(chosen.vertices, dtype=int)
        sub = Graph.from_weights(g.w[np.ix_(idx, idx)])
        split = spectral_bisect(sub, kind=kind)
        one = tuple(sorted(int(idx[v]) for v in split.side_one))
        two = tuple(sorted(int(idx[v]) for v in split.side_two))
        chosen.left = CutNode(one, depth=chosen.depth + 1)
        chosen.right = CutNode(two, depth=chosen.depth + 1)
        leaves.remove(chosen)
        leaves.extend([chosen.left, chosen.right])
    return CutTree(root, cuts=k)


def allocate(tree: CutTree, scheme: str = "AS1") -> np.ndarray:
    """Per-asset weights from a cut tree.

    AS1 gives leaf i the weight 2^(-K_i) where K_i is its cut depth; AS2
    splits 1/(K+1) evenly across the K+1 leaves. Within a leaf the weight
    is shared equally. Both schemes sum to one over all assets.
    """
    scheme = scheme.upper()
    if scheme not in ("AS1", "AS2"):
        raise ValueError(f"unknown allocation scheme {scheme!r}")
    leaves = tree.leaves()
    members = sorted(v for leaf in leaves for v in leaf.vertices)
    n = len(members)
    if members != list(range(n)):
        raise ValueError("tree leaves do not partition a 0..N-1 vertex set")

    out = np.zeros(n)
    for leaf in leaves:
        if scheme == "AS1":
            w = 2.0 ** (-leaf.depth)
        else:
            w = 1.0 / len(leaves)
        out[list(leaf.vertices)] = w / len(leaf.vertices)
    total = float(out.sum())
    if abs(total - 1.0) > 1e-12:
        raise NumericalError(f"allocation sums to {total!r}, not 1")
    return out


def sharpe(r: ReturnSeries, w, periods_per_year: int | None = None) -> float:
    """Mean over standard deviation of the portfolio return series.

    periods_per_year annualizes by sqrt(periods_per_year) when given.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.size != r.assets:
        raise ValueError("weight length does not match asset count")
    series = r.returns @ w
    std = float(series.std(ddof=1))
    if std == 0.0:
        raise NumericalError("portfolio return series is constant; "
                             "sharpe ratio undefined")
    value = float(series.mean()) / std
    if periods_per_year is not None:
        value *= np.sqrt(periods_per_year)
    return value
