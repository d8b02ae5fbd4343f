"""Seeded random graph-signal generators.

Six generation modes share one seeding contract: column p of the output is
drawn from numpy's Generator(PCG64) seeded with SeedSequence((seed, p)).
Snapshots are therefore independent, and a run's prefix does not depend on
the total snapshot count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .core import SIGNAL_MODES, Graph, eig_sym, laplacian

__all__ = ["MODES", "ObservationMatrix", "SimSpec", "simulate"]

MODES = SIGNAL_MODES

_REQUIRED = {
    "sources": frozenset(),
    "dipole": frozenset(),
    "pinned_pair": frozenset(),
    "diffusion": frozenset({"h"}),
    "adjacency_shift": frozenset({"shifts", "count"}),
    "bandlimited": frozenset({"indices"}),
}
_OPTIONAL = {
    "adjacency_shift": frozenset({"amplitudes"}),
    "bandlimited": frozenset({"amplitudes"}),
}


@dataclass(frozen=True)
class ObservationMatrix:
    """N x P matrix of vertex signals, one snapshot per column."""

    x: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if x.shape[1] < 1:
            raise ValueError("need at least one snapshot")
        if not np.all(np.isfinite(x)):
            raise ValueError("observations must be finite")
        x = x.copy()
        x.flags.writeable = False
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class SimSpec:
    """Recipe for one batch of random graph signals.

    mode
        ``sources``: solve L x = eps with i.i.d. normal sources and one
        randomly chosen compensating source so the sources sum to zero.
        ``dipole``: a single +/- eps source pair at two random vertices.
        ``pinned_pair``: pin two random vertices to independent normals and
        extend harmonically.
        ``diffusion``: x = sum_m h_m L_N^m eps with L_N the normalized
        Laplacian (params: ``h``).
        ``adjacency_shift``: place ``count`` spikes at random vertices and
        shift ``shifts`` times by the adjacency matrix (optional
        ``amplitudes``, default all ones).
        ``bandlimited``: combine the Laplacian eigenvectors listed in
        ``indices``; ``amplitudes`` fixes the coefficients, otherwise they
        are drawn i.i.d. normal per snapshot.
    seed, p
        Base seed and snapshot count. Column p uses its own generator
        seeded with SeedSequence((seed, p)).
    """

    mode: str
    seed: int
    p: int
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in _REQUIRED:
            raise ValueError(
                f"unknown mode {self.mode!r}; expected one of {sorted(_REQUIRED)}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.p < 1:
            raise ValueError("snapshot count p must be at least 1")
        object.__setattr__(self, "params", dict(self.params))

        required = _REQUIRED[self.mode]
        allowed = required | _OPTIONAL.get(self.mode, frozenset())
        missing = required - self.params.keys()
        if missing:
            raise ValueError(f"mode {self.mode!r} requires params {sorted(missing)}")
        extra = self.params.keys() - allowed
        if extra:
            raise ValueError(
                f"mode {self.mode!r} does not accept params {sorted(extra)}")

        if self.mode == "diffusion":
            h = np.asarray(self.params["h"], dtype=float).reshape(-1)
            if h.size == 0 or not np.all(np.isfinite(h)):
                raise ValueError("h must be a nonempty sequence of finite coefficients")
            self.params["h"] = tuple(h.tolist())
        elif self.mode == "adjacency_shift":
            shifts = self.params["shifts"]
            count = self.params["count"]
            if shifts != int(shifts) or int(shifts) < 0:
                raise ValueError("shifts must be a non-negative integer")
            if count != int(count) or int(count) < 1:
                raise ValueError("count must be a positive integer")
            self.params["shifts"] = int(shifts)
            self.params["count"] = int(count)
            if "amplitudes" in self.params:
                amps = np.asarray(self.params["amplitudes"], dtype=float).reshape(-1)
                if amps.size != int(count):
                    raise ValueError("amplitudes length must equal count")
                self.params["amplitudes"] = tuple(amps.tolist())
        elif self.mode == "bandlimited":
            indices = [int(k) for k in self.params["indices"]]
            if not indices:
                raise ValueError("indices must be nonempty")
            if any(k < 0 for k in indices):
                raise ValueError("indices must be non-negative")
            if len(set(indices)) != len(indices):
                raise ValueError("indices must be unique")
            self.params["indices"] = tuple(indices)
            if "amplitudes" in self.params:
                amps = np.asarray(self.params["amplitudes"], dtype=float).reshape(-1)
                if amps.size != len(indices):
                    raise ValueError("amplitudes length must equal indices length")
                self.params["amplitudes"] = tuple(amps.tolist())


def _prepare(g: Graph, spec: SimSpec):
    """Validate the spec against the graph and return a per-snapshot draw.

    The grounded modes (sources, dipole, pinned_pair) pin vertex 0, so
    circuit_solve's NumericalError refuses a graph with a component that
    does not hold it."""
    n = g.n
    mode = spec.mode

    if mode in ("sources", "dipole", "pinned_pair"):
        if n < 2:
            raise ValueError(f"mode {mode!r} needs at least 2 vertices")
        # Column a of K is the potential of a unit current into a, grounded at
        # vertex 0 (row and column 0 are zero), so L K[:, a] = e_a - e_0.
        from .physical import BoundaryCondition, circuit_solve
        k = circuit_solve(laplacian(g), BoundaryCondition({0: 0.0}), np.eye(n))

    if mode == "sources":
        def draw(rng):
            eps = rng.standard_normal(n)
            c = int(rng.integers(n))
            eps[c] = -float(np.sum(np.delete(eps, c)))
            return k @ eps

        return draw

    if mode == "dipole":
        def draw(rng):
            a, b = rng.choice(n, size=2, replace=False)
            amp = float(rng.standard_normal())
            # scaling before the difference keeps x[0] at +0.0 when amp < 0
            return amp * k[:, a] - amp * k[:, b]

        return draw

    if mode == "pinned_pair":
        def draw(rng):
            a, b = rng.choice(n, size=2, replace=False)
            va, vb = rng.standard_normal(2)
            # L u = e_a - e_b: u is harmonic off the pair, and so is any
            # affine map of it
            u = k[:, a] - k[:, b]
            x = vb + (va - vb) * (u - u[b]) / (u[a] - u[b])
            x[a], x[b] = va, vb
            return x

        return draw

    if mode == "diffusion":
        h = spec.params["h"]
        ln = laplacian(g, kind="normalized").l
        filt = h[-1] * np.eye(n)
        for coeff in reversed(h[:-1]):
            filt = filt @ ln + coeff * np.eye(n)

        def draw(rng):
            return filt @ rng.standard_normal(n)

        return draw

    if mode == "adjacency_shift":
        count = spec.params["count"]
        if count > n:
            raise ValueError(f"count {count} exceeds vertex count {n}")
        amps = np.asarray(spec.params.get("amplitudes", np.ones(count)), dtype=float)
        power = np.linalg.matrix_power(g.w, spec.params["shifts"])

        def draw(rng):
            sites = rng.choice(n, size=count, replace=False)
            s = np.zeros(n)
            s[sites] = amps
            return power @ s

        return draw

    indices = spec.params["indices"]
    if max(indices) >= n:
        raise ValueError(f"eigenindex {max(indices)} out of range for {n} vertices")
    basis = eig_sym(laplacian(g).l).eigenvectors[:, list(indices)]
    fixed = spec.params.get("amplitudes")
    if fixed is not None:
        fixed = np.asarray(fixed, dtype=float)

    def draw(rng):
        a = fixed if fixed is not None else rng.standard_normal(len(indices))
        return basis @ a

    return draw


def simulate(g: Graph, spec: SimSpec) -> ObservationMatrix:
    """Generate spec.p snapshots of a random signal on g, one per column.

    The output depends only on (g, spec): each column has its own seeded
    generator, so the total snapshot count changes no column's bytes.
    """
    draw = _prepare(g, spec)
    cols = [draw(np.random.default_rng(np.random.SeedSequence((spec.seed, p))))
            for p in range(spec.p)]
    return ObservationMatrix(np.column_stack(cols))
