"""Lattice graphs as Kronecker structure.

A regular lattice of extents I_1 x ... x I_M is the Cartesian product of M
path graphs. Vertices are linearized with the first index fastest:
n = i_1 + I_1*(i_2 + I_2*(i_3 + ...)). Under that order the adjacency is
the Kronecker sum A_M (+) ... (+) A_1 and its eigenvectors are Kronecker
products of the per-axis path eigenvectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import Graph, SpectralDecomp, eig_sym

__all__ = [
    "Lattice",
    "SamplingMap",
    "path_adjacency",
    "kron_sum_adjacency",
    "separable_gdft",
    "separability_check",
    "subsample",
]

# One n x n float64 array at this size is 128 MiB. `lattice gdft` peaks at
# about 17 bytes per entry, 287 MB here: U is written as CSV a block of rows
# at a time, so the dense arrays set the peak.
_MAX_VERTICES = 4_096


@dataclass(frozen=True)
class Lattice:
    """Extents of a regular lattice; product is the vertex count."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(i) for i in self.dims)
        if not dims:
            raise ValueError("lattice needs at least one dimension")
        if any(i < 1 for i in dims):
            raise ValueError("lattice extents must be positive")
        object.__setattr__(self, "dims", dims)

    @property
    def n(self) -> int:
        return math.prod(self.dims)


@dataclass(frozen=True)
class SamplingMap:
    """Strictly increasing linear vertex indices to keep when subsampling."""

    kept: tuple[int, ...]

    def __post_init__(self):
        kept = tuple(int(k) for k in self.kept)
        if not kept:
            raise ValueError("sampling map keeps no vertices")
        if kept[0] < 0:
            raise ValueError("vertex indices must be non-negative")
        if any(b <= a for a, b in zip(kept, kept[1:])):
            raise ValueError("kept indices must be strictly increasing")
        object.__setattr__(self, "kept", kept)


def _check_size(lat: Lattice) -> int:
    n = lat.n
    if n > _MAX_VERTICES:
        raise ValueError(f"lattice has {n} vertices; limit is {_MAX_VERTICES}")
    return n


def path_adjacency(i: int) -> Graph:
    """Unweighted path graph on i vertices."""
    if i < 1:
        raise ValueError("extent must be at least 1")
    return kron_sum_adjacency(Lattice((i,)))


def kron_sum_adjacency(lat: Lattice) -> Graph:
    """Adjacency of the lattice, the Kronecker sum of path adjacencies.

    Along axis j, vertex v links to v + stride_j (stride_j = I_1 ... I_{j-1})
    unless its coordinate on that axis is the last one.
    """
    n = _check_size(lat)
    w = np.zeros((n, n))
    v = np.arange(n)
    stride = 1
    for i in lat.dims:
        head = v[(v // stride) % i < i - 1]
        w[head, head + stride] = 1.0
        w[head + stride, head] = 1.0
        stride *= i
    return Graph.from_weights(w)


def separable_gdft(lat: Lattice) -> SpectralDecomp:
    """Lattice adjacency eigendecomposition assembled axis by axis.

    U is the Kronecker product of the per-axis path eigenvector matrices
    and the eigenvalues are all sums of per-axis eigenvalues; both are
    co-sorted ascending (stable order on ties).
    """
    _check_size(lat)
    decomps = [eig_sym(path_adjacency(i).w) for i in lat.dims]
    u = reduce(np.kron, [d.eigenvectors for d in reversed(decomps)])
    # summed in axis order, ((0 + lam_1) + lam_2) + ..., for reproducible ties
    lam = reduce(lambda acc, d: np.add.outer(d.eigenvalues, acc).ravel(), decomps, np.zeros(1))
    order = np.argsort(lam, kind="stable")
    return SpectralDecomp(lam[order], u[:, order])


def separability_check(x, lat: Lattice):
    """Test whether a two-axis lattice signal factors as x = b (x) a.

    Returns (is_rank1, factors). The signal is reshaped to I_1 x I_2 (first
    index fastest) and judged by its second singular value; factors come
    from the leading singular pair, scaled symmetrically and signed so the
    first factor's largest-magnitude entry is positive. A zero signal is
    degenerate: (False, None).
    """
    if len(lat.dims) != 2:
        raise ValueError("separability check is defined for two-axis lattices")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != lat.n:
        raise ValueError(f"expected a length-{lat.n} signal, got {x.size}")
    if not np.any(x):
        return False, None

    mat = x.reshape(lat.dims, order="F")
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    is_rank1 = s.size == 1 or s[1] < 1e-8 * s[0]
    a = u[:, 0] * np.sqrt(s[0])
    b = vt[0] * np.sqrt(s[0])
    lead = int(np.argmax(np.abs(a)))
    if a[lead] < 0:
        a, b = -a, -b
    return bool(is_rank1), (a, b)


def subsample(g: Graph, sampling: SamplingMap) -> Graph:
    """Restrict a graph to the kept vertices."""
    kept = np.asarray(sampling.kept, dtype=int)
    if kept[-1] >= g.n:
        raise ValueError(f"vertex index {kept[-1]} out of range for {g.n} vertices")
    return Graph.from_weights(g.w[np.ix_(kept, kept)])
