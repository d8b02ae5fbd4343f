"""Seeded random graph-signal generators.

Six generation modes share one seeding contract: column p of the output is
drawn from numpy's Generator(PCG64) seeded with SeedSequence((seed, p)).
Snapshots are therefore independent, a run's prefix does not depend on the
total snapshot count, and threaded generation reproduces serial generation
byte for byte.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .core import Graph, NumericalError, connected_components, eig_sym, laplacian
from .learning import ObservationMatrix
from .physical import BoundaryCondition, circuit_solve

__all__ = ["MODES", "SimSpec", "simulate"]

MODES = ("sources", "dipole", "pinned_pair", "diffusion",
         "adjacency_shift", "bandlimited")

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
    """Validate the spec against the graph and return a per-snapshot draw."""
    n = g.n
    mode = spec.mode

    if mode in ("sources", "dipole", "pinned_pair"):
        if n < 2:
            raise ValueError(f"mode {mode!r} needs at least 2 vertices")
        if len(connected_components(g.w)) > 1:
            raise NumericalError(f"mode {mode!r} requires a connected graph")

    if mode in ("sources", "dipole"):
        from scipy.linalg import cho_factor, cho_solve

        # x(0) = 0 is the reference; the reduced Laplacian is positive
        # definite on a connected graph.
        fac = cho_factor(laplacian(g).l[1:, 1:])

    if mode == "sources":
        def draw(rng):
            eps = rng.standard_normal(n)
            c = int(rng.integers(n))
            eps[c] = -float(np.sum(np.delete(eps, c)))
            x = np.zeros(n)
            x[1:] = cho_solve(fac, eps[1:])
            return x

        return draw

    if mode == "dipole":
        def draw(rng):
            pair = rng.choice(n, size=2, replace=False)
            amp = float(rng.standard_normal())
            i_vec = np.zeros(n)
            i_vec[pair[0]] = amp
            i_vec[pair[1]] = -amp
            x = np.zeros(n)
            x[1:] = cho_solve(fac, i_vec[1:])
            return x

        return draw

    if mode == "pinned_pair":
        lap = laplacian(g)

        def draw(rng):
            pair = rng.choice(n, size=2, replace=False)
            vals = rng.standard_normal(2)
            bc = BoundaryCondition({int(pair[0]): float(vals[0]),
                                    int(pair[1]): float(vals[1])})
            return circuit_solve(lap, bc)

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


def simulate(g: Graph, spec: SimSpec, threads: int = 1) -> ObservationMatrix:
    """Generate spec.p snapshots of a random signal on g, one per column.

    The output depends only on (g, spec): each column has its own seeded
    generator, so neither the total snapshot count nor the thread count
    changes any column's bytes.
    """
    draw = _prepare(g, spec)

    def column(p: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, p)))
        return draw(rng)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            cols = list(pool.map(column, range(spec.p)))
    else:
        cols = [column(p) for p in range(spec.p)]
    return ObservationMatrix(np.column_stack(cols))
