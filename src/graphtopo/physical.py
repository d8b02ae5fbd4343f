"""Solvers on physically defined graphs: circuits and heat flow, random
walks, PageRank, label propagation, and sparse source recovery."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping

import numpy as np

from .core import (DirectedGraph, Graph, Laplacian, NumericalError, SourceVector,
                   connected_components, laplacian, pseudo_inverse)

__all__ = [
    "BoundaryCondition",
    "PageRankResult",
    "WalkKind",
    "circuit_solve",
    "pagerank",
    "absorbing_probabilities",
    "hitting_times",
    "monte_carlo_hitting",
    "effective_resistance",
    "commute_time",
    "label_propagation",
    "sparse_source_denoise",
    "walk_steady_state",
]

WalkKind = Literal["vertex_centric", "edge_centric"]


@dataclass(frozen=True)
class BoundaryCondition:
    """Fixed vertex values (potentials, probabilities, or label scores)."""

    fixed: Mapping[int, float]

    def __post_init__(self):
        if len(self.fixed) < 1:
            raise ValueError("at least one vertex must be fixed")
        object.__setattr__(self, "fixed",
                           {int(k): float(v) for k, v in self.fixed.items()})

    def indices(self, n: int) -> np.ndarray:
        idx = np.array(sorted(self.fixed), dtype=int)
        if idx[0] < 0 or idx[-1] >= n:
            raise ValueError(f"fixed vertex out of range for n={n}")
        return idx

    def values(self, n: int) -> np.ndarray:
        return np.array([self.fixed[i] for i in self.indices(n)], dtype=float)


@dataclass(frozen=True)
class PageRankResult:
    scores: np.ndarray
    iterations: int
    converged: bool

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.scores, dtype=dtype)


def circuit_solve(l: Laplacian, bc: BoundaryCondition, sources=None) -> np.ndarray:
    """Potentials on a graph with pinned vertices and injected currents.

    Fixed rows and columns move to the right-hand side; the reduced system
    solves (L x)_n = i_n on the free vertices.
    """
    mat = np.asarray(l.l, dtype=float)
    n = mat.shape[0]
    fixed_idx = bc.indices(n)
    fixed_val = bc.values(n)
    if sources is None:
        i_vec = np.zeros(n)
    elif isinstance(sources, SourceVector):
        i_vec = np.asarray(sources.i, dtype=float)
    else:
        i_vec = np.asarray(sources, dtype=float).reshape(-1)
    if i_vec.size != n:
        raise ValueError("source vector length mismatch")

    x = np.zeros(n)
    x[fixed_idx] = fixed_val
    free = np.setdiff1d(np.arange(n), fixed_idx)
    if free.size == 0:
        return x
    a = mat[np.ix_(free, free)]
    rhs = i_vec[free] - mat[np.ix_(free, fixed_idx)] @ fixed_val
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "reduced system is singular; a component has no fixed vertex") from exc
    scale = max(1.0, float(np.max(np.abs(rhs))))
    residual = float(np.max(np.abs(a @ sol - rhs)))
    if residual > 1e-8 * scale:
        raise NumericalError(
            f"reduced solve residual {residual:.3e} exceeds tolerance; "
            "a component may have no fixed vertex")
    x[free] = sol
    return x


def pagerank(g: DirectedGraph, damping: tuple[float, float] | None = None,
             tol: float = 1e-6, max_iter: int = 1000) -> PageRankResult:
    """Iterative page scores x <- W_N x with W_N the out-degree
    column-normalized transpose of the link matrix.

    damping (teleport, scale) switches to x <- teleport + scale * W_N x.
    The undamped result is normalized to mean 1.
    """
    w = np.asarray(g.w, dtype=float)
    n = w.shape[0]
    out = w.sum(axis=1)
    dangling = np.flatnonzero(out == 0)
    if dangling.size:
        raise ValueError(f"vertex {dangling[0]} has no outgoing links")
    w_n = w.T / out[None, :]
    x = np.ones(n)
    iterations = 0
    converged = False
    for k in range(max_iter):
        iterations = k + 1
        if damping is None:
            x_new = w_n @ x
        else:
            teleport, scale = damping
            x_new = teleport + scale * (w_n @ x)
        if np.max(np.abs(x_new - x)) < tol:
            x = x_new
            converged = True
            break
        x = x_new
    if damping is None:
        x = x / x.mean()
    return PageRankResult(x, iterations, converged)


def absorbing_probabilities(g: Graph, bc: BoundaryCondition) -> np.ndarray:
    """Probability that a random walk reaches one absorbing set before the
    other: the harmonic extension of the pinned values."""
    return circuit_solve(laplacian(g), bc)


def hitting_times(g: Graph, target: int) -> np.ndarray:
    """Expected steps for a random walker to first reach the target."""
    if len(connected_components(g.w)) > 1:
        raise NumericalError("hitting times are infinite on a disconnected graph")
    n = g.n
    if not 0 <= target < n:
        raise ValueError("target out of range")
    mat = laplacian(g).l
    keep = np.setdiff1d(np.arange(n), [target])
    reduced = mat[np.ix_(keep, keep)]
    d = g.degrees()[keep]
    h = np.zeros(n)
    h[keep] = np.linalg.solve(reduced, d)
    return h


def monte_carlo_hitting(g: Graph, start: int, target: int, walks: int,
                        seed: int, max_steps: int = 1_000_000) -> tuple[float, float]:
    """Empirical mean and standard error of the hitting time by simulating
    weighted random walks in parallel."""
    if start == target:
        return 0.0, 0.0
    w = np.asarray(g.w, dtype=float)
    n = w.shape[0]
    rows = w / w.sum(axis=1, keepdims=True)
    cum = np.cumsum(rows, axis=1)
    cum[:, -1] = 1.0
    # an isolated vertex has a NaN row; read as 1.0 it keeps the table sorted
    # and sends walkers there to vertex 0
    np.nan_to_num(cum, copy=False, nan=1.0)
    # row s shifted to [2s, 2s + 1]: the flat table is sorted and a query
    # 2s + u never lands in another row, even where the sum rounds
    table = (cum + 2.0 * np.arange(n)[:, None]).ravel()
    rng = np.random.default_rng(seed)
    state = np.full(walks, start, dtype=np.int64)
    steps = np.zeros(walks, dtype=np.int64)
    active = np.arange(walks)
    for _ in range(max_steps):
        u = rng.random(active.size)
        s = state[active]
        # next vertex: the number of entries of cum[s] below u
        nxt = np.searchsorted(table, u + 2.0 * s) - n * s
        state[active] = nxt
        steps[active] += 1
        still = nxt != target
        active = active[still]
        if active.size == 0:
            break
    if active.size:
        raise NumericalError("walkers not absorbed within the step cap")
    mean = float(steps.mean())
    stderr = float(steps.std(ddof=1) / np.sqrt(walks))
    return mean, stderr


def effective_resistance(g: Graph, m: int, n: int) -> float:
    """Two-point resistance (e_m - e_n)' L^+ (e_m - e_n)."""
    if m == n:
        return 0.0
    if len(connected_components(g.w)) > 1:
        raise NumericalError("effective resistance is infinite across components")
    lp = pseudo_inverse(laplacian(g).l)
    e = np.zeros(g.n)
    e[m], e[n] = 1.0, -1.0
    return float(e @ lp @ e)


def commute_time(g: Graph, m: int, n: int) -> float:
    """Expected round-trip steps m -> n -> m: total degree times the
    effective resistance."""
    return float(g.degrees().sum()) * effective_resistance(g, m, n)


def label_propagation(g: Graph, labels: BoundaryCondition,
                      max_iter: int = 10_000, tol: float = 1e-10) -> np.ndarray:
    """Diffuse known labels through the row-normalized weight matrix,
    re-pinning the labeled vertices each sweep; NumericalError if the
    sweeps still move by tol or more after max_iter of them."""
    w = np.asarray(g.w, dtype=float)
    n = w.shape[0]
    labeled = labels.indices(n)
    values = labels.values(n)
    labeled_set = set(labeled.tolist())
    for comp in connected_components(w):
        if not labeled_set.intersection(comp):
            raise ValueError(f"component containing vertex {comp[0]} has no label")

    x = np.full(n, values.mean())
    x[labeled] = values
    if len(labeled) == n:
        return x
    deg = w.sum(axis=1)
    s = np.zeros_like(w)
    nz = deg > 0
    s[nz] = w[nz] / deg[nz, None]
    for _ in range(max_iter):
        x_new = s @ x
        x_new[labeled] = values
        if np.max(np.abs(x_new - x)) < tol:
            return x_new
        x = x_new
    raise NumericalError(f"label propagation did not converge in {max_iter} sweeps")


def sparse_source_denoise(l: Laplacian, y, k: int, reference: int) -> np.ndarray:
    """Denoise a signal assumed to be driven by k point sources.

    The k largest entries of L y (excluding the reference) locate the
    sources; the signal is refit by least squares on the corresponding
    columns of the inverse reduced Laplacian, with the reference pinned
    at zero.
    """
    mat = np.asarray(l.l, dtype=float)
    n = mat.shape[0]
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != n:
        raise ValueError("signal length mismatch")
    if not 0 <= reference < n:
        raise ValueError("reference out of range")
    if k < 1 or k >= n:
        raise ValueError("k must satisfy 1 <= k <= N-1")

    initial = mat @ y
    keep = np.setdiff1d(np.arange(n), [reference])
    order = np.argsort(-np.abs(initial[keep]), kind="stable")
    chosen = keep[order[:k]]

    reduced = mat[np.ix_(keep, keep)]
    inv_reduced = np.linalg.inv(reduced)
    pos_in_reduced = np.searchsorted(keep, chosen)
    l_k = inv_reduced[:, pos_in_reduced]
    j_k = np.linalg.pinv(l_k) @ y[keep]
    x = np.zeros(n)
    x[keep] = l_k @ j_k
    return x


def walk_steady_state(g: Graph, kind: WalkKind = "vertex_centric",
                      normalize: bool = False) -> np.ndarray:
    """Stationary shape of the random walk: sqrt(d_n / N) for the
    vertex-centric walk, constant for the edge-centric walk."""
    n = g.n
    if kind == "vertex_centric":
        x = np.sqrt(g.degrees() / n)
    elif kind == "edge_centric":
        x = np.full(n, 1.0 / np.sqrt(n))
    else:
        raise ValueError(f"unknown walk kind {kind!r}")
    if normalize:
        norm = np.linalg.norm(x)
        if norm == 0:
            raise NumericalError("zero steady state; graph has no edges")
        x = x / norm
    return x
