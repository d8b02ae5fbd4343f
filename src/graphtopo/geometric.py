"""Weight matrices from vertex geometry or raw signal similarity."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import Graph, as_symmetric

__all__ = [
    "KernelSpec",
    "VertexCloud",
    "DegenerateSimilarityWarning",
    "geometric_weights",
    "similarity_weights",
    "similarity_distances",
    "generalized_distance",
    "swiss_roll_graph",
    "spiral_arclength",
]

KernelKind = Literal["gauss_sq", "exp_lin", "inv_dist", "binary"]


class DegenerateSimilarityWarning(UserWarning):
    """All observations identical; the similarity graph is uninformative."""


@dataclass(frozen=True)
class VertexCloud:
    """Vertex positions, one row per vertex."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coords, dtype=float))
        if not np.all(np.isfinite(c)):
            raise ValueError("coordinates must be finite")
        if c.shape[1] < 1:
            raise ValueError("dimension must be >= 1")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def n(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class KernelSpec:
    """Distance kernel with scale tau and hard cutoff kappa.

    kind "gauss_sq": exp(-r^2 / tau^2); "exp_lin": exp(-r / tau);
    "inv_dist": 1 / r; "binary": 1. Weights are zero for r > kappa and on
    the diagonal.
    """

    kind: KernelKind = "gauss_sq"
    tau: float = 1.0
    kappa: float = np.inf

    def __post_init__(self):
        if self.kind not in ("gauss_sq", "exp_lin", "inv_dist", "binary"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not self.tau > 0:
            raise ValueError("tau must be > 0")
        if not self.kappa > 0:
            raise ValueError("kappa must be > 0")

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.kind == "gauss_sq":
            return np.exp(-(r ** 2) / self.tau ** 2)
        if self.kind == "exp_lin":
            return np.exp(-r / self.tau)
        if self.kind == "binary":
            return np.ones_like(r)
        with np.errstate(divide="ignore"):
            return 1.0 / r


def _weights_from_distances(r: np.ndarray, kernel: KernelSpec) -> Graph:
    n = r.shape[0]
    off = ~np.eye(n, dtype=bool)
    if kernel.kind == "inv_dist" and np.any((r <= 0) & off):
        raise ValueError("coincident vertices make the inverse-distance kernel singular")
    w = kernel.evaluate(r)
    w[r > kernel.kappa] = 0.0
    np.fill_diagonal(w, 0.0)
    return Graph.from_weights(w)


def geometric_weights(cloud: VertexCloud, kernel: KernelSpec) -> Graph:
    """Weights from pairwise Euclidean distances: W_mn = kernel(r_mn) for
    r_mn <= kappa and m != n, else 0."""
    c = cloud.coords
    return _weights_from_distances(np.sqrt(((c[:, None] - c[None]) ** 2).sum(-1)), kernel)


def similarity_distances(x, norm: Literal["global", "unit_variance"] = "global") -> np.ndarray:
    """Squared similarity distances between vertex signal rows.

    "global" divides each pairwise sum of squared sample differences by the
    total over all ordered pairs, so the entries sum to 1. "unit_variance"
    divides pairwise by sqrt(sum x(m)^2 * sum x(n)^2), which for zero-mean
    unit-variance signals approaches 2(1 - R_x(m, n)).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    sq = np.sum(x ** 2, axis=1)
    cross = x @ x.T
    d2 = sq[:, None] + sq[None, :] - 2 * cross
    np.fill_diagonal(d2, 0.0)
    d2 = np.maximum(d2, 0.0)
    if norm == "global":
        total = d2.sum()
        if total <= 0:
            return np.zeros_like(d2)
        return d2 / total
    if norm == "unit_variance":
        denom = np.sqrt(np.outer(sq, sq))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(denom > 0, d2 / denom, 0.0)
        np.fill_diagonal(out, 0.0)
        return out
    raise ValueError(f"unknown normalization {norm!r}")


def similarity_weights(x, kernel: KernelSpec,
                       norm: Literal["global", "unit_variance"] = "global") -> Graph:
    """Graph built by applying a kernel to signal-similarity distances.

    All-identical observations produce zero distances everywhere; a complete
    graph with uniform weights is returned with a warning instead of erroring.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    d2 = similarity_distances(x, norm=norm)
    if n > 1 and not np.any(d2 > 0):
        warnings.warn("all observations identical; returning a uniform complete graph",
                      DegenerateSimilarityWarning)
        w = np.ones((n, n)) - np.eye(n)
        return Graph.from_weights(w)
    return _weights_from_distances(np.sqrt(d2), kernel)


def generalized_distance(a, b, h) -> float:
    """Inner-product distance (a - b)' H (a - b) with a PSD matrix H."""
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    h = np.asarray(h, dtype=float)
    if a.shape != b.shape or h.shape != (a.size, a.size):
        raise ValueError("dimension mismatch")
    h = as_symmetric(h, "inner-product matrix")
    d = a - b
    val = float(d @ h @ d)
    if val < -1e-9 * max(1.0, float(d @ d)):
        raise ValueError("inner-product matrix is not positive semidefinite")
    return max(val, 0.0)


_SPIRAL_SCALE = 1.0 / (4.0 * np.pi)


def _spiral_antiderivative(v):
    """Closed-form antiderivative of sqrt(1 + v^2), elementwise."""
    s = np.sqrt(v * v + 1.0)
    return 0.5 * v * s + 0.5 * np.log(s + v)


def spiral_arclength(v0: float, v1: float) -> float:
    """Arc length of the spiral (v cos v, v sin v) / (4 pi) between v0 and v1."""
    return _SPIRAL_SCALE * abs(_spiral_antiderivative(v1) - _spiral_antiderivative(v0))


def swiss_roll_graph(n: int, seed: int, kernel: KernelSpec) -> tuple[Graph, VertexCloud]:
    """Random swiss-roll point cloud plus its geodesic-distance graph.

    Vertices sample u in [-1, 1] and v in [pi, 4 pi]; 3-D coordinates are
    (v cos v / 4 pi, u, v sin v / 4 pi). Distances unroll the surface:
    r^2 = arclength(v_m, v_n)^2 + (u_m - u_n)^2.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, n)
    v = rng.uniform(np.pi, 4.0 * np.pi, n)
    coords = np.column_stack([
        _SPIRAL_SCALE * v * np.cos(v),
        u,
        _SPIRAL_SCALE * v * np.sin(v),
    ])

    anti = _spiral_antiderivative(v)
    arc = _SPIRAL_SCALE * np.abs(anti[:, None] - anti[None, :])
    r = np.sqrt(arc ** 2 + (u[:, None] - u[None, :]) ** 2)
    return _weights_from_distances(r, kernel), VertexCloud(coords)
