"""Proximal L1 machinery: soft-thresholding, one proximal-gradient loop for the
lasso and the graphical LASSO, precision matrices."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import RANK_TOL, NumericalError, RankDeficiencyWarning, as_symmetric

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
    """Lasso settings: L1 weight rho, step cap, and tol, the stationarity (KKT)
    tolerance relative to max(1, max|c|) of each right-hand side."""

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

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be >= 0")


@dataclass(frozen=True)
class LassoResult:
    """Outcome of :func:`lasso_gram`; for a block of right-hand sides,
    ``iterations`` and ``converged`` hold one entry per column."""

    coefficients: np.ndarray
    iterations: int | np.ndarray
    converged: bool | np.ndarray


def soft_threshold(y, t):
    """Shrink toward zero: y+t below -t, 0 inside [-t, t], y-t above t."""
    if np.any(np.asarray(t) < 0):
        raise ValueError("threshold must be >= 0")
    return _shrink(np.asarray(y, dtype=float), t)


def _shrink(y: np.ndarray, t) -> np.ndarray:
    # soft_threshold without its checks, for the proximal steps (their thresholds are >= 0)
    return np.sign(y) * np.maximum(np.abs(y) - t, 0.0)


def _colsum(a, b):
    return np.einsum("ij,ij->j", a, b)


def _l1_residual(x, g, lam):
    # entrywise distance of the gradient g of f from -lam times the subdifferential of |x|
    return np.where(x != 0, np.abs(g + lam * np.sign(x)), np.maximum(np.abs(g) - lam, 0.0))


def _prox_grad(x, t, f, grad, prox, kkt, max_iter):
    """Proximal gradient on a block of independent problems, one per column of x,
    each with its own step t, stop and freeze.

    The callers' functions get the live columns and their indices j: ``f(x, j)``
    is the smooth part per column (inf off its domain) with an aux array, one
    column per column of x, for ``grad(x, aux, j)`` at an accepted point;
    ``prox(y, t, j)`` is the proximal map of t times the penalty and ``kkt(x, g, j)``
    tests stationarity. A step goes to prox(x - t grad, t), with t halved until f
    has sufficient decrease, so f plus the penalty never rises; t then takes
    alternating Barzilai-Borwein guesses, long then short. Returns x, the steps
    per column and whether each column's KKT test held before max_iter ran out.
    """
    iterations = np.full(x.shape[1], max_iter)
    converged = np.zeros(x.shape[1], dtype=bool)
    live, xl = np.arange(x.shape[1]), x
    fx, aux = f(xl, live)
    g = grad(xl, aux, live)

    def trial(b):
        cand = prox(xl[:, b] - t[b] * g[:, b], t[b], live[b])
        fc, ac = f(cand, live[b])
        dx = cand - xl[:, b]
        # the slack lets a step that only rounding moves pass
        ok = fc <= (fx[b] + _colsum(g[:, b], dx) + _colsum(dx, dx) / (2.0 * t[b])
                    + 1e-12 * np.maximum(1.0, np.abs(fx[b])))
        return cand, dx, fc, ac, ok

    for it in range(max_iter + 1):
        done = kkt(xl, g, live)
        if done.any():
            x[:, live[done]] = xl[:, done]
            iterations[live[done]], converged[live[done]] = it, True
            live, xl, g, fx, t = live[~done], xl[:, ~done], g[:, ~done], fx[~done], t[~done]
        if not live.size or it == max_iter:
            break
        cand, dx, f_new, aux, ok = trial(slice(None))
        for _ in range(60):
            if ok.all():
                break
            b = np.flatnonzero(~ok)
            t[b] /= 2.0
            cand[:, b], dx[:, b], f_new[b], aux[:, b], ok[b] = trial(b)
        if not ok.all():
            raise NumericalError(f"step {it + 1} failed its decrease test after 60 halvings")
        g_new = grad(cand, aux, live)
        dg = g_new - g
        curv = _colsum(dx, dg)
        num, den = (curv, _colsum(dg, dg)) if it % 2 else (_colsum(dx, dx), curv)
        np.divide(num, den, out=t, where=curv > 0)
        xl, g, fx = cand, g_new, f_new
    x[:, live] = xl
    return x, iterations, converged


def lasso_gram(g, c, cfg: LassoConfig, leave_one_out: bool = False) -> LassoResult:
    """Minimize x'Gx - 2c'x + rho ||x||_1 by proximal gradient.

    With G = A'A and c = A'y this is the lasso ||y - Ax||^2 + rho ||x||_1 less its
    constant y'y. A 2-D c is a block of right-hand sides, one problem per column;
    a 1-D c runs as a block of one. With ``leave_one_out`` the block is square and
    column k is solved on G without row and column k, so x[k, k] stays 0.

    A column starts at 0 with the step 1/max G_ii of its own problem. It stops once
    |Gx - c + (rho/2) s| <= cfg.tol max(1, max|c|) for an s in the subdifferential
    of ||x||_1, or after cfg.max_iter steps. cfg.debug raises if the objective rises.
    """
    g = np.atleast_2d(np.asarray(g, dtype=float))
    c = np.asarray(c, dtype=float)
    if c.ndim > 2:
        raise ValueError("c must be a vector or a matrix")
    vector = c.ndim < 2
    c = c.reshape(-1, 1) if vector else c
    m, k = c.shape
    if g.shape != (m, m):
        raise ValueError("g must be square with one row per entry of c")
    d, ca = np.diag(g), np.abs(c)
    top = np.full(k, d.max())  # the largest diagonal entry of each column's Gram
    if leave_one_out:
        if vector or k != m:
            raise ValueError("leave_one_out needs one column of c per row of g")
        top[np.argmax(d)] = np.max(np.delete(d, np.argmax(d)), initial=0.0)
        ca[np.diag_indices(m)] = 0.0
    if not np.all(top > 0):
        where = f" without row and column {np.argmin(top)}" if leave_one_out else ""
        raise ValueError(f"g{where} must have a nonzero diagonal entry")
    tol = cfg.tol * np.maximum(1.0, ca.max(axis=0))
    obj_prev = np.full(k, np.inf)

    def f(x, j):  # half the objective: x'Gx/2 - c'x, with the penalty (rho/2) ||x||_1
        gx = g @ x
        return _colsum(x, 0.5 * gx - c[:, j]), gx

    def grad(x, gx, j):
        gr = gx - c[:, j]
        if leave_one_out:
            gr[j, np.arange(j.size)] = 0.0
        if cfg.debug:
            # without y'y the objective can be negative, hence the |.| scale
            obj = _colsum(x, g @ x - 2.0 * c[:, j]) + cfg.rho * np.sum(np.abs(x), axis=0)
            up = np.flatnonzero(obj > obj_prev[j] + 1e-12 * np.maximum(1.0, np.abs(obj_prev[j])))
            if up.size:
                raise NumericalError(f"objective increased in column {j[up[0]]}: "
                                     f"{obj_prev[j[up[0]]]!r} -> {obj[up[0]]!r}")
            obj_prev[j] = obj
        return gr

    x, iterations, converged = _prox_grad(
        np.zeros((m, k)), 1.0 / top, f, grad,
        lambda y, t, j: _shrink(y, t * (cfg.rho / 2.0)),
        lambda x, gr, j: _l1_residual(x, gr, cfg.rho / 2.0).max(axis=0) <= tol[j],
        cfg.max_iter)
    if vector:
        return LassoResult(x[:, 0], int(iterations[0]), bool(converged[0]))
    return LassoResult(x, iterations, converged)


def lasso_ista(a, y, cfg: LassoConfig) -> LassoResult:
    """Minimize ||y - A x||_2^2 + rho ||x||_1 through :func:`lasso_gram` on
    G = A'A and c = A'y."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    if a.shape[0] != y.size:
        raise ValueError("row count of a must match length of y")
    if not np.any(a):
        raise ValueError("a must have at least one nonzero entry")
    return lasso_gram(a.T @ a, a.T @ y, cfg)


GLASSO_MAX_ITER = 5000  # glasso's step cap; reaching it is reported as converged=False


def glasso(r, cfg: GlassoConfig, report: dict | None = None) -> np.ndarray:
    """Sparse precision estimate: minimise -log det Q + tr((R + rho I) Q)
    + (rho/2) sum_{i != j} |Q_ij| by G-ISTA (Rolfs et al., NIPS 2012).

    This is :func:`lasso_gram`'s loop on Q as one column: each step Q <- soft(Q -
    t (R + rho I - Q^-1), t rho/2) thresholds the off-diagonal only, so absent edges
    come out exactly 0, and a Q with no Cholesky factor is rejected. It stops on
    the KKT conditions at V = Q^-1 or after GLASSO_MAX_ITER steps; rho = 0 returns
    inv(R). A given ``report`` dict receives ``iterations``, ``converged`` (KKT met)
    and ``kkt_residual``, the larger KKT violation at exit (max|RQ - I| at rho = 0).
    """
    r = as_symmetric(r, "r")
    n = r.shape[0]
    scale = max(np.max(np.abs(r)), 1.0)
    if np.linalg.eigvalsh(r)[0] < -1e-8 * scale:
        raise ValueError("r must be positive semidefinite")
    if cfg.rho == 0.0:
        cond = np.linalg.cond(r)
        if not np.isfinite(cond) or cond > 1e14:
            raise NumericalError(f"r is numerically singular (condition number {cond:.3e})")
        q = np.linalg.inv(r)
        if report is not None:
            report.update(iterations=0, converged=True,
                          kkt_residual=float(np.max(np.abs(r @ q - np.eye(n)))))
        return q

    half = cfg.rho / 2.0
    s = r + cfg.rho * np.eye(n)
    lam = half * (1.0 - np.eye(n)).reshape(-1, 1)  # the penalty weight of each Q_ij

    def f(x, j):  # -log det Q + tr(SQ), with the Cholesky factor of Q
        try:
            chol = np.linalg.cholesky(x.reshape(n, n))
        except np.linalg.LinAlgError:
            return np.array([np.inf]), np.full_like(x, np.nan)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        return np.array([np.sum(s.reshape(-1, 1) * x) - logdet]), chol.reshape(-1, 1)

    def grad(x, chol, j):  # S - Q^-1 from the Cholesky factor of Q
        inv = np.linalg.inv(chol.reshape(n, n))
        return (s - inv.T @ inv).reshape(-1, 1)  # inv' inv is exactly symmetric

    # KKT at V = Q^-1, where the gradient is S - V: V_ii - R_ii = rho on the diagonal,
    # to 1e-12 max(1, max|R|), and V_ij - R_ij in [-rho/2, rho/2] off it, to 1e-6 rho/2
    unit = np.where(lam > 0, half, scale)
    tol = unit * np.where(lam > 0, 1e-6, 1e-12)
    x, iterations, converged = _prox_grad(
        np.diag(1.0 / np.diag(s)).reshape(-1, 1), np.array([1.0 / np.max(np.diag(s)) ** 2]),
        f, grad, lambda y, t, j: _shrink(y, t * lam),
        lambda x, gr, j: (_l1_residual(x, gr, lam) <= tol).all(axis=0), GLASSO_MAX_ITER)
    if report is not None:
        res = _l1_residual(x, grad(x, np.linalg.cholesky(x.reshape(n, n)), None), lam)
        report.update(iterations=int(iterations[0]), converged=bool(converged[0]),
                      kkt_residual=float(np.max(res / unit)))
    return x.reshape(n, n)


def precision_matrix(r) -> np.ndarray:
    """Inverse of a symmetric matrix; the pseudo-inverse, with a RankDeficiencyWarning,
    when its smallest eigenvalue magnitude is at most RANK_TOL times the largest."""
    r = as_symmetric(r, "r")
    eigs = np.abs(np.linalg.eigvalsh(r))
    if eigs.max() == 0.0 or eigs.min() <= RANK_TOL * eigs.max():
        warnings.warn("matrix is rank deficient; returning the pseudo-inverse",
                      RankDeficiencyWarning)
        return np.linalg.pinv(r, rcond=RANK_TOL, hermitian=True)
    return np.linalg.inv(r)


def normalize_precision(q) -> np.ndarray:
    """Scale to unit diagonal: out_mn = q_mn / sqrt(q_mm q_nn)."""
    q = np.asarray(q, dtype=float)
    d = np.diag(q)
    if np.any(d <= 0):
        raise ValueError("diagonal entries must be positive")
    s = np.sqrt(d)
    return q / np.outer(s, s)
