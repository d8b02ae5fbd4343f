"""Proximal L1 machinery: soft-thresholding, ISTA, graphical LASSO,
precision matrices."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import NumericalError, RankDeficiencyWarning, as_symmetric

__all__ = [
    "LassoConfig",
    "GlassoConfig",
    "LassoResult",
    "soft_threshold",
    "lasso_gram",
    "lasso_ista",
    "glasso",
    "precision_matrix",
    "normalize_precision",
]


@dataclass(frozen=True)
class LassoConfig:
    """ISTA settings: L1 weight rho, iteration cap, relative-change tol."""

    rho: float = 0.0
    max_iter: int = 1000
    tol: float = 1e-8
    debug: bool = False

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")


@dataclass(frozen=True)
class GlassoConfig:
    rho: float = 0.0
    max_sweeps: int = 100
    eps: float = 0.0001

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if not self.eps > 0:
            raise ValueError("eps must be > 0")


@dataclass(frozen=True)
class LassoResult:
    coefficients: np.ndarray
    iterations: int
    converged: bool

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.coefficients, dtype=dtype)


def soft_threshold(y, t):
    """Shrink toward zero: y+t below -t, 0 inside [-t, t], y-t above t."""
    if np.any(np.asarray(t) < 0):
        raise ValueError("threshold must be >= 0")
    return _shrink(np.asarray(y, dtype=float), t)


def _shrink(y: np.ndarray, t) -> np.ndarray:
    # soft_threshold without its checks, for the ISTA loop (LassoConfig keeps rho >= 0)
    return np.sign(y) * np.maximum(np.abs(y) - t, 0.0)


def _largest_eigenvalue(g: np.ndarray) -> float:
    # power iteration; deterministic start breaks eigenvector orthogonality
    n = g.shape[0]
    z = np.ones(n) + 1e-4 * np.arange(n)
    z /= np.linalg.norm(z)
    lam = 0.0
    for _ in range(500):
        gz = g @ z
        norm = np.linalg.norm(gz)
        if norm == 0.0:
            return 0.0
        z = gz / norm
        lam_new = float(z @ g @ z)
        if abs(lam_new - lam) <= 1e-6 * max(abs(lam_new), 1e-300):
            return lam_new
        lam = lam_new
    return lam


def lasso_gram(g, c, cfg: LassoConfig) -> LassoResult:
    """Minimize x'Gx - 2c'x + rho ||x||_1 by iterative soft-thresholding.

    With G = A'A and c = A'y this is the lasso ||y - Ax||^2 + rho ||x||_1 less
    its constant y'y. Step size is 1/(2 lambda_max(G)); the iterate starts at
    c and the loop stops on relative change below cfg.tol or at cfg.max_iter.
    """
    g = np.atleast_2d(np.asarray(g, dtype=float))
    c = np.asarray(c, dtype=float).reshape(-1)
    if g.shape != (c.size, c.size):
        raise ValueError("g must be square with one row per entry of c")
    if not np.any(g):
        raise ValueError("g must have at least one nonzero entry")

    alpha = 1.0 / (2.0 * _largest_eigenvalue(g))
    x = c
    obj_prev = np.inf
    for iterations in range(1, cfg.max_iter + 1):
        x_new = _shrink(x + 2.0 * alpha * (c - g @ x), alpha * cfg.rho)
        if cfg.debug:
            # without y'y the objective can be negative, hence the |.| scale
            obj = float(x_new @ g @ x_new - 2.0 * c @ x_new + cfg.rho * np.sum(np.abs(x_new)))
            if obj > obj_prev + 1e-12 * max(1.0, abs(obj_prev)):
                raise NumericalError(
                    f"objective increased at iteration {iterations}: "
                    f"{obj_prev!r} -> {obj!r}")
            obj_prev = obj
        converged = bool(np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1e-12) < cfg.tol)
        x = x_new
        if converged:
            break
    return LassoResult(x, iterations, converged)


def lasso_ista(a, y, cfg: LassoConfig) -> LassoResult:
    """Minimize ||y - A x||_2^2 + rho ||x||_1 by iterative soft-thresholding,
    through :func:`lasso_gram` on G = A'A and c = A'y."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    if a.shape[0] != y.size:
        raise ValueError("row count of a must match length of y")
    if not np.any(a):
        raise ValueError("a must have at least one nonzero entry")
    return lasso_gram(a.T @ a, a.T @ y, cfg)


def glasso(r, cfg: GlassoConfig, report: dict | None = None) -> np.ndarray:
    """Sparse precision estimate by coordinate sweeps over an augmented
    covariance V = R + rho I.

    Each sweep updates one row/column at a time from an L1-penalized
    regression on the remaining block, :func:`lasso_gram` on (V11, r12);
    sweeping stops when the mean absolute change falls below eps scaled by
    the mean off-diagonal magnitude of R. Returns the inverse of the final V.
    A given ``report`` dict receives ``sweeps``, ``unconverged_inner`` and
    ``converged`` (sweep test met and every column lasso converged).
    """
    r = as_symmetric(r, "r")
    n = r.shape[0]
    scale = max(np.max(np.abs(r)), 1.0)
    eigs = np.linalg.eigvalsh(r)
    if eigs[0] < -1e-8 * scale:
        raise ValueError("r must be positive semidefinite")

    c_p = np.mean(np.abs(r - np.diag(np.diag(r)))) * cfg.eps
    v = r + cfg.rho * np.eye(n)
    inner = LassoConfig(rho=cfg.rho, max_iter=1000, tol=1e-8)
    # a single vertex has no off-diagonal column to update
    sweeps, swept, unconverged = 0, n == 1, 0
    while not swept and sweeps < cfg.max_sweeps:
        sweeps += 1
        v_start = v.copy()
        for j in range(n - 1, -1, -1):
            idx = np.delete(np.arange(n), j)
            v11 = v[np.ix_(idx, idx)]
            r12 = r[idx, j]
            if not np.any(v11) or not np.any(r12):
                beta = np.zeros(n - 1)
            else:
                res = lasso_gram(v11, r12, inner)
                beta = res.coefficients
                unconverged += not res.converged
            v12 = v11 @ beta
            v[idx, j] = v12
            v[j, idx] = v12
        swept = np.mean(np.abs(v - v_start)) < c_p
    if report is not None:
        report.update(sweeps=sweeps, unconverged_inner=unconverged,
                      converged=bool(swept) and not unconverged)
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > 1e14:
        raise NumericalError(
            f"augmented covariance is numerically singular (condition number {cond:.3e})")
    return np.linalg.inv(v)


def precision_matrix(r, rank_tol: float = 1e-10) -> np.ndarray:
    """Inverse of a symmetric matrix; falls back to the pseudo-inverse with a
    RankDeficiencyWarning when the spectrum indicates rank deficiency."""
    r = as_symmetric(r, "r")
    eigs = np.abs(np.linalg.eigvalsh(r))
    if eigs.max() == 0.0 or eigs.min() <= rank_tol * eigs.max():
        warnings.warn("matrix is rank deficient; returning the pseudo-inverse",
                      RankDeficiencyWarning)
        return np.linalg.pinv(r, rcond=rank_tol, hermitian=True)
    return np.linalg.inv(r)


def normalize_precision(q) -> np.ndarray:
    """Scale to unit diagonal: out_mn = q_mn / sqrt(q_mm q_nn)."""
    q = np.asarray(q, dtype=float)
    d = np.diag(q)
    if np.any(d <= 0):
        raise ValueError("diagonal entries must be positive")
    s = np.sqrt(d)
    return q / np.outer(s, s)
