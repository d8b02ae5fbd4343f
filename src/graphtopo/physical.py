"""Solvers on physically defined graphs: circuits and heat flow, random
walks, PageRank, label propagation, and sparse source recovery."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping

import numpy as np

from .core import (DirectedGraph, Graph, Laplacian, NumericalError, connected_components,
                   laplacian)

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


def circuit_solve(l: Laplacian, bc: BoundaryCondition, sources=None) -> np.ndarray:
    """Potentials on a graph with pinned vertices and injected currents.

    Fixed rows and columns move to the right-hand side; the reduced system
    solves (L x)_n = i_n on the free vertices. NumericalError if a
    component holds no fixed vertex and so leaves the system singular.

    A 2-D `sources` is a block of k source columns: the n x k potentials come
    from one factorisation, each column pinned and checked on its own.
    """
    mat = np.asarray(l.l, dtype=float)
    n = mat.shape[0]
    fixed_idx = bc.indices(n)
    fixed_val = bc.values(n)
    if sources is None:
        i_vec = np.zeros(n)
    else:
        i_vec = np.asarray(sources, dtype=float)
        i_vec = i_vec if i_vec.ndim == 2 else i_vec.reshape(-1)
    if i_vec.shape[0] != n:
        raise ValueError("source vector length mismatch")

    pins = fixed_val if i_vec.ndim == 1 else fixed_val[:, None]
    x = np.zeros(i_vec.shape)
    x[fixed_idx] = pins
    free = np.delete(np.arange(n), fixed_idx)
    if free.size == 0:
        return x
    # a component with no fixed vertex is singular, unless the rows of a
    # generalized Laplacian carry an excess there. This is read off the
    # structure: rounding can leave a singular solve a small residual.
    fixed = set(fixed_idx.tolist())
    excess_tol = 1e-8 * max(1.0, float(np.max(np.abs(mat))))
    for comp in connected_components(np.abs(mat)):
        if fixed.isdisjoint(comp) and (l.kind != "generalized"
                                       or mat[comp].sum() <= excess_tol):
            raise NumericalError("reduced system is singular; the component "
                                 f"containing vertex {comp[0]} has no fixed vertex")
    a = mat[np.ix_(free, free)]
    rhs = i_vec[free] - mat[np.ix_(free, fixed_idx)] @ pins
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("reduced system is numerically singular") from exc
    # the backward error, against ||a|| ||sol||: across a weak bridge the
    # potentials, and the rounding in a @ sol, grow far beyond rhs (per column)
    residual = np.max(np.abs(a @ sol - rhs), axis=0)
    bound = 1e-8 * np.maximum(1.0, np.abs(a).sum(axis=1).max() * np.max(np.abs(sol), axis=0))
    if not np.all(residual <= bound):
        raise NumericalError(f"reduced solve residual {np.max(residual):.3e} exceeds tolerance")
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
    """Expected steps for a random walker to first reach the target: the
    grounded solve L h = d through circuit_solve, with the target pinned
    to 0 and each vertex injecting its degree. ValueError for a target out
    of range; circuit_solve's NumericalError if a component holds no target,
    where the times are infinite."""
    if not 0 <= target < g.n:
        raise ValueError("target out of range")
    return circuit_solve(laplacian(g), BoundaryCondition({target: 0.0}), g.degrees())


# cells of the Monte Carlo guide table (int32, so 4 MB at most), and the
# buckets it aims for per step of a row's CDF: a draw needs the binary search
# only when its bucket holds a step, so for about 1/128 of the draws while the
# cap leaves room for that many buckets
_GUIDE_CELLS = 1 << 20
_GUIDE_BUCKETS_PER_STEP = 128
# walkers stepped at once: each step's temporaries are some 30 bytes per
# walker of a block, not of the whole population. Under glibc malloc, blocks
# of 2**15 made verify's check page-fault about 54,000 times in a fresh
# process, against 4,000 for 2**14, and take about a fifth longer
_WALK_BLOCK = 1 << 14


def _guide_table(table: np.ndarray, n: int, max_neighbors: int) -> tuple[int, np.ndarray]:
    """Index table over the shifted CDF rows of monte_carlo_hitting (Chen &
    Asau 1974): u in [0, 1) falls in one of `width` equal buckets, and cell
    width*s + k holds width times the next vertex from s of every draw in
    bucket k, or -1 where the bucket straddles a step of the CDF. fl(u + 2s)
    and searchsorted are both monotone in u, so a bucket whose lowest and
    highest draws lead to the same vertex leads there for every draw in it."""
    want = 1 << (_GUIDE_BUCKETS_PER_STEP * max_neighbors - 1).bit_length()
    width = min(want, 1 << (max(_GUIDE_CELLS // n, 1).bit_length() - 1))
    lowest = np.arange(width) / width
    # the highest draw of a bucket: draws are multiples of 2**-53
    highest = lowest + (1.0 / width - 2.0 ** -53)
    guide = np.empty((n, width), dtype=np.int32)
    for s in range(n):
        # queries lie in [2s, 2s + 1], so row s alone gives the flat
        # table's count less n*s
        row = table[n * s:n * (s + 1)]
        first = np.searchsorted(row, lowest + 2.0 * s)
        last = np.searchsorted(row, highest + 2.0 * s)
        guide[s] = np.where(first == last, width * first, -1)
    return width, guide.ravel()


def _step(table: np.ndarray, n: int, width: int, guide: np.ndarray,
          rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw and one step for every walker. A walker at vertex s is held
    as its guide-table row width*s, and so is its next vertex: from the guide
    table where it decides the draw's bucket, else the number of entries of
    cum[s] below the draw, found by binary search in the flat table."""
    u = rng.random(rows.size)
    # u is a multiple of 2**-53 and width a power of two: u * width is exact
    u *= width
    idx = u.astype(np.int32)
    idx += rows
    nxt = guide.take(idx)
    undecided = np.flatnonzero(nxt < 0)
    if undecided.size:
        s = rows[undecided] // width
        vertex = np.searchsorted(table, u[undecided] / width + 2.0 * s) - n * s
        nxt[undecided] = width * vertex
    return nxt


def monte_carlo_hitting(g: Graph, start: int, target: int, walks: int,
                        seed: int, max_steps: int = 1_000_000) -> tuple[float, float]:
    """Empirical mean and standard error of the hitting time by simulating
    weighted random walks in parallel; ValueError for fewer than two walks,
    no steps, or a vertex out of range, NumericalError if target lies in
    another component than start or a walker is still out after max_steps.

    The walkers step in blocks of _WALK_BLOCK, which draw the same numbers
    in the same order as one draw for all of them. Memory is about 12 bytes
    per walker: an int32 index, guide row and step count while walking, then
    the step counts and one float64 array for the statistics. On top come
    the guide table (4 MB at most) and one block's temporaries (about 0.5 MB).
    """
    n = g.n
    if walks < 2:
        raise ValueError("walks must be at least 2 for a standard error")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    if not (0 <= start < n and 0 <= target < n):
        raise ValueError(f"start and target must be vertices in [0, {n})")
    if start == target:
        return 0.0, 0.0
    if not any(start in c and target in c for c in connected_components(g.w)):
        raise NumericalError(f"vertex {target} cannot be reached from vertex {start}")
    w = np.asarray(g.w, dtype=float)
    deg = w.sum(axis=1)
    moves = deg > 0
    # no walker reaches an isolated vertex; its row of 1.0 keeps the table sorted
    cum = np.ones((n, n))
    cum[moves] = np.cumsum(w[moves] / deg[moves, None], axis=1)
    cum[:, -1] = 1.0
    # row s shifted to [2s, 2s + 1]: the flat table is sorted and a query
    # 2s + u never lands in another row, even where the sum rounds
    table = (cum + 2.0 * np.arange(n)[:, None]).ravel()
    width, guide = _guide_table(table, n, int((w > 0).sum(axis=1).max()))
    rng = np.random.default_rng(seed)
    # the walkers not yet absorbed, first `live` entries: their index and
    # their vertex's guide row
    active = np.arange(walks, dtype=np.int32)
    rows = np.full(walks, width * start, dtype=np.int32)
    steps = np.zeros(walks, dtype=np.int32 if max_steps < 2 ** 31 else np.int64)
    goal = width * target
    live = walks
    for t in range(1, max_steps + 1):
        kept = 0
        for lo in range(0, live, _WALK_BLOCK):
            hi = min(lo + _WALK_BLOCK, live)
            nxt = _step(table, n, width, guide, rows[lo:hi], rng)
            block = active[lo:hi]
            hit = nxt == goal
            if hit.any():
                steps[block[hit]] = t
                miss = ~hit
                block, nxt = block[miss], nxt[miss]
            # the survivors move down in place: kept <= lo, so no entry is
            # overwritten before it is read
            active[kept:kept + block.size] = block
            rows[kept:kept + block.size] = nxt
            kept += block.size
        live = kept
        if not live:
            break
    del active, rows
    if live:
        raise NumericalError("walkers not absorbed within the step cap")
    mean = float(steps.mean())
    stderr = float(steps.std(ddof=1) / np.sqrt(walks))
    return mean, stderr


def effective_resistance(g: Graph, m: int, n: int) -> float:
    """Two-point resistance (e_m - e_n)' L^+ (e_m - e_n): the potential at m
    when a unit current enters at m and leaves at n, with n grounded at 0,
    solved through circuit_solve. For m != n, circuit_solve's NumericalError
    if a component holds no n, where the resistance is infinite."""
    if not (0 <= m < g.n and 0 <= n < g.n):
        raise ValueError(f"m and n must be vertices in [0, {g.n})")
    if m == n:
        return 0.0
    current = np.zeros(g.n)
    current[m], current[n] = 1.0, -1.0
    return float(circuit_solve(laplacian(g), BoundaryCondition({n: 0.0}), current)[m])


def commute_time(g: Graph, m: int, n: int) -> float:
    """Expected round-trip steps m -> n -> m: total degree times the
    effective resistance."""
    return float(g.degrees().sum()) * effective_resistance(g, m, n)


def label_propagation(g: Graph, labels: BoundaryCondition) -> np.ndarray:
    """Harmonic spread of known labels (Zhu, Ghahramani & Lafferty 2003):
    each unlabeled value is the weighted mean of its neighbours, the fixed
    point of sweeps through the row-normalized weight matrix, solved
    exactly as the grounded system L x = 0 through circuit_solve.
    ValueError if a component holds no label."""
    labeled_set = set(labels.indices(g.n).tolist())
    for comp in connected_components(g.w):
        if not labeled_set.intersection(comp):
            raise ValueError(f"component containing vertex {comp[0]} has no label")
    return circuit_solve(laplacian(g), labels)


def sparse_source_denoise(l: Laplacian, y, k: int, reference: int) -> np.ndarray:
    """Denoise a signal assumed to be driven by k point sources.

    The k largest entries of L y (excluding the reference) locate the
    sources; the signal is refit by least squares on their potentials,
    the circuit solves for unit currents into them with the reference
    pinned at zero. NumericalError if a component holds no reference.
    """
    n = l.n
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != n:
        raise ValueError("signal length mismatch")
    if not 0 <= reference < n:
        raise ValueError("reference out of range")
    if k < 1 or k >= n:
        raise ValueError("k must satisfy 1 <= k <= N-1")

    keep = np.delete(np.arange(n), reference)
    chosen = keep[np.argsort(-np.abs((l.l @ y)[keep]), kind="stable")[:k]]

    units = np.zeros((n, k))
    units[chosen, np.arange(k)] = 1.0
    cols = circuit_solve(l, BoundaryCondition({reference: 0.0}), units)[keep]
    # written into zeros, so x[reference] stays +0.0
    x = np.zeros(n)
    x[keep] = cols @ (np.linalg.pinv(cols) @ y[keep])
    return x


def walk_steady_state(g: Graph, kind: WalkKind = "vertex_centric") -> np.ndarray:
    """Stationary shape of the random walk: sqrt(d_n / N) for the
    vertex-centric walk, constant for the edge-centric walk."""
    n = g.n
    if kind == "vertex_centric":
        x = np.sqrt(g.degrees() / n)
    elif kind == "edge_centric":
        x = np.full(n, 1.0 / np.sqrt(n))
    else:
        raise ValueError(f"unknown walk kind {kind!r}")
    return x
