"""Graph primitives: weight matrices, Laplacians, spectral decompositions.

All operations are pure functions on immutable inputs; dense storage is used
throughout (the intended scale is a few thousand vertices at most).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

__all__ = [
    "SIGNAL_MODES",
    "SYM_TOL",
    "Graph",
    "DirectedGraph",
    "Laplacian",
    "LaplacianKind",
    "SpectralDecomp",
    "NumericalError",
    "RankDeficiencyWarning",
    "as_symmetric",
    "connected_components",
    "laplacian",
    "eig_sym",
    "pseudo_inverse",
    "smoothness",
]

# Relative tolerance below which a matrix is accepted as symmetric.
SYM_TOL = 1e-9

# Relative size at or below which a singular value counts as zero.
RANK_TOL = 1e-10

# The generation modes of graphtopo.simulate. They are named here so that
# the CLI can offer them as choices without loading simulate.
SIGNAL_MODES = ("sources", "dipole", "pinned_pair", "diffusion",
                "adjacency_shift", "bandlimited")

LaplacianKind = Literal["combinatorial", "normalized", "generalized"]


class NumericalError(RuntimeError):
    """A solver hit a singular or numerically unusable system."""


class RankDeficiencyWarning(UserWarning):
    """An inversion fell back to a pseudo-inverse because of rank deficiency."""


def _as_square(m, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def _max_abs(m: np.ndarray) -> float:
    return float(max(m.max(), -m.min())) if m.size else 0.0


def as_symmetric(m, name: str = "matrix") -> np.ndarray:
    """(M + M') / 2 of a finite square M with max|M - M'| <= SYM_TOL * max(1, max|M|);
    any other M raises a ValueError that names the input ``name``."""
    m = _as_square(m, name)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")
    # the asymmetry and the average share one n x n buffer
    out = np.subtract(m, m.T)
    if _max_abs(out) > SYM_TOL * max(_max_abs(m), 1.0):
        raise ValueError(f"{name} must be symmetric")
    np.add(m, m.T, out=out)
    return np.divide(out, 2.0, out=out)


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph.

    Parameters
    ----------
    n : int
        Number of vertices.
    w : (n, n) ndarray
        Symmetric non-negative weight matrix with zero diagonal. Inputs
        symmetric within ``SYM_TOL`` (relative) are symmetrized on entry.
    """

    n: int
    w: np.ndarray

    def __post_init__(self):
        w = as_symmetric(self.w, "weight matrix")
        if w.shape[0] != self.n:
            raise ValueError(f"n={self.n} does not match matrix shape {w.shape}")
        scale = max(_max_abs(w), 1.0)
        if _max_abs(np.diag(w)) > SYM_TOL * scale:
            raise ValueError("weight matrix must have a zero diagonal")
        np.fill_diagonal(w, 0.0)
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @classmethod
    def from_weights(cls, w) -> "Graph":
        w = _as_square(w, "weight matrix")
        return cls(w.shape[0], w)

    def degrees(self) -> np.ndarray:
        """Vertex degrees d_n = sum_m W[n, m]."""
        return self.w.sum(axis=1)


@dataclass(frozen=True)
class DirectedGraph:
    """Directed weighted graph; ``w[m, n]`` is the weight of the edge m -> n."""

    n: int
    w: np.ndarray

    def __post_init__(self):
        w = _as_square(self.w, "weight matrix")
        if not np.all(np.isfinite(w)):
            raise ValueError("weight matrix must be finite")
        if w.shape[0] != self.n:
            raise ValueError(f"n={self.n} does not match matrix shape {w.shape}")
        if _max_abs(np.diag(w)) > 0:
            raise ValueError("weight matrix must have a zero diagonal")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @classmethod
    def from_weights(cls, w) -> "DirectedGraph":
        w = _as_square(w, "weight matrix")
        return cls(w.shape[0], w)


@dataclass(frozen=True)
class Laplacian:
    """A Laplacian matrix together with its kind.

    ``combinatorial``: zero row sums, non-positive off-diagonals, PSD.
    ``normalized``: unit diagonal on non-isolated vertices, eigenvalues in [0, 2].
    ``generalized``: PSD with non-positive off-diagonals and non-negative row
    sums (diagonal self-loop excess allowed).

    ``check=True`` averages a matrix symmetric within ``SYM_TOL`` with its
    transpose and validates the kind's invariants. ``check=False`` takes the
    caller's array as it is, read-only, and validates nothing: the caller
    promises a finite, exactly symmetric, square float array.
    """

    l: np.ndarray
    kind: LaplacianKind = "combinatorial"
    check: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        m = self.l
        if self.check:
            m = as_symmetric(m, "laplacian")
            self._validate(m, max(_max_abs(m), 1.0))
        m.flags.writeable = False
        object.__setattr__(self, "l", m)

    def _validate(self, m: np.ndarray, scale: float) -> None:
        tol = 1e-8 * scale
        off = m - np.diag(np.diag(m))
        if self.kind == "combinatorial":
            if _max_abs(m.sum(axis=1)) > tol:
                raise ValueError("combinatorial laplacian must have zero row sums")
            if np.any(off > tol):
                raise ValueError("combinatorial laplacian off-diagonals must be <= 0")
        elif self.kind == "normalized":
            diag = np.diag(m)
            active = np.abs(m).sum(axis=1) > tol
            if np.any(np.abs(diag[active] - 1.0) > 1e-8):
                raise ValueError("normalized laplacian must have a unit diagonal")
            vals = np.linalg.eigvalsh(m)
            if vals[0] < -1e-8 or vals[-1] > 2.0 + 1e-8:
                raise ValueError("normalized laplacian eigenvalues must lie in [0, 2]")
        elif self.kind == "generalized":
            if np.any(off > tol):
                raise ValueError("generalized laplacian off-diagonals must be <= 0")
            if np.any(m.sum(axis=1) < -tol):
                raise ValueError("generalized laplacian row sums must be >= 0")
            if np.linalg.eigvalsh(m)[0] < -1e-8 * scale:
                raise ValueError("generalized laplacian must be PSD")
        else:
            raise ValueError(f"unknown laplacian kind {self.kind!r}")

    @property
    def n(self) -> int:
        return self.l.shape[0]


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` ascend; ``eigenvectors`` holds orthonormal columns with the
    deterministic sign convention of :func:`eig_sym`.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.eigenvectors, dtype=float)
        if vals.ndim != 1 or vecs.ndim != 2 or vecs.shape[1] != vals.shape[0]:
            raise ValueError("eigenvalue/eigenvector shapes do not agree")
        vals.flags.writeable = False
        vecs.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.T


def connected_components(w) -> list[list[int]]:
    """Vertex sets of the connected components of the skeleton W > 0.

    Each component is sorted and the components are ordered by their
    smallest vertex; an isolated vertex is a component of its own.
    """
    w = _as_square(w, "weight matrix")
    adj = (w > 0) | (w > 0).T
    label = np.full(w.shape[0], -1)
    comps = []
    # each search starts at the smallest vertex no earlier search reached, so
    # the components come out ordered by their smallest vertex
    for v in range(w.shape[0]):
        if label[v] >= 0:
            continue
        k = len(comps)
        label[v] = k
        frontier = np.array([v])
        while frontier.size:
            frontier = np.flatnonzero(adj[frontier].any(axis=0) & (label < 0))
            label[frontier] = k
        comps.append(np.flatnonzero(label == k).tolist())
    return comps


def laplacian(g: Graph, kind: LaplacianKind = "combinatorial") -> Laplacian:
    """Build the Laplacian of an undirected graph.

    Parameters
    ----------
    g : Graph
    kind : {"combinatorial", "normalized"}
        ``combinatorial`` returns D - W; ``normalized`` returns
        I - D^{-1/2} W D^{-1/2} and refuses an isolated vertex. Generalized
        Laplacians are caller-supplied: ``Laplacian(q, kind="generalized")``.
    """
    # D - W and I - D^-1/2 W D^-1/2 of a validated graph are exactly symmetric
    # and meet every invariant Laplacian._validate tests, so they are trusted
    d = g.degrees()
    if kind == "combinatorial":
        return Laplacian(np.diag(d) - g.w, kind="combinatorial", check=False)
    if kind == "normalized":
        isolated = np.flatnonzero(d <= 0)
        if isolated.size:
            raise ValueError(f"vertex {isolated[0]} is isolated; normalized laplacian undefined")
        inv_sqrt = 1.0 / np.sqrt(d)
        ln = -np.outer(inv_sqrt, inv_sqrt) * g.w
        np.fill_diagonal(ln, 1.0)
        return Laplacian(ln, kind="normalized", check=False)
    if kind == "generalized":
        raise ValueError("generalized laplacians are caller-supplied; "
                         'use Laplacian(q, kind="generalized")')
    raise ValueError(f"unknown laplacian kind {kind!r}")


def eig_sym(m) -> SpectralDecomp:
    """Eigendecomposition of a symmetric matrix with a fixed sign convention.

    Eigenvalues ascend. Each eigenvector is flipped so that its
    largest-magnitude entry is positive; ties break to the lowest index.
    Inputs symmetric within ``SYM_TOL`` (relative) are symmetrized as
    (M + M') / 2 first; anything farther from symmetric is rejected.
    """
    vals, vecs = np.linalg.eigh(as_symmetric(m))
    if vecs.size:
        # argmax returns the first occurrence, which is the tie rule.
        lead = np.argmax(np.abs(vecs), axis=0)
        vecs *= np.where(vecs[lead, np.arange(vecs.shape[1])] < 0, -1.0, 1.0)
    return SpectralDecomp(vals, vecs)


def pseudo_inverse(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse.

    Singular values at most ``RANK_TOL`` times the largest are treated as zero.
    """
    return np.linalg.pinv(_as_square(m), rcond=RANK_TOL)


def smoothness(l: Laplacian, x) -> float:
    """Quadratic form x' L x.

    For a combinatorial Laplacian this equals
    (1/2) sum_{m,n} W_mn (x(m) - x(n))^2.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (l.n,):
        raise ValueError(f"expected a length-{l.n} vector, got shape {x.shape}")
    return float(x @ l.l @ x)
