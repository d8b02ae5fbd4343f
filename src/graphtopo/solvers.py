"""Proximal L1 machinery: soft-thresholding, ISTA, graphical LASSO,
precision matrices."""

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
    # soft_threshold without its checks, for the ISTA loop (LassoConfig keeps rho >= 0)
    return np.sign(y) * np.maximum(np.abs(y) - t, 0.0)


def lasso_gram(g, c, cfg: LassoConfig, leave_one_out: bool = False) -> LassoResult:
    """Minimize x'Gx - 2c'x + rho ||x||_1 by iterative soft-thresholding.

    With G = A'A and c = A'y this is the lasso ||y - Ax||^2 + rho ||x||_1 less its
    constant y'y. A 2-D c is a block of right-hand sides solved in one loop, one
    problem per column: each column has its own step, stops on its own and is frozen
    from then on; a 1-D c runs as a block of one column. With ``leave_one_out`` the
    block is square and column k is solved on G without row and column k, so x[k, k]
    stays 0.

    A column's step is 1/(2 lambda_max) of its Gram. The iterate starts at c
    and each column stops on relative change below cfg.tol or at cfg.max_iter.
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
    x = np.array(c)
    if leave_one_out:
        if vector or k != m:
            raise ValueError("leave_one_out needs one column of c per row of g")
        nz = g != 0
        # nonzero entries of g without row and column j
        rest = np.count_nonzero(nz) - nz.sum(axis=0) - nz.sum(axis=1) + nz.diagonal()
        if not rest.all():
            j = int(np.argmin(rest))
            raise ValueError(f"g without row and column {j} must have at least one nonzero entry")
        lam = _leave_one_out_lmax(g)
        x[np.diag_indices(m)] = 0.0
    else:
        if not np.any(g):
            raise ValueError("g must have at least one nonzero entry")
        lam = np.linalg.eigvalsh(g)[-1:]
    alpha = np.broadcast_to(1.0 / (2.0 * lam), (k,))
    def sq(v): return np.einsum("ij,ij->j", v, v)

    iterations = np.full(k, cfg.max_iter)
    converged = np.zeros(k, dtype=bool)
    # the columns still iterating: their index, iterate, c, step 2 alpha,
    # threshold alpha rho, last objective and the bound on ||x_new - x||^2
    live, xl, cl, a2, thr = np.arange(k), x, c, 2.0 * alpha, alpha * cfg.rho
    obj_prev = np.full(k, np.inf)
    # the stop test ||x_new - x|| / max(||x||, 1e-12) < tol, squared; <= lets
    # an exact fixed point stop where tol^2 underflows
    tol2 = cfg.tol * cfg.tol
    lim = tol2 * (sq(xl) + 1e-24)
    for it in range(1, cfg.max_iter + 1):
        y = cl - g @ xl
        y *= a2
        y += xl
        x_new = _shrink(y, thr)
        if leave_one_out:
            x_new[live, np.arange(live.size)] = 0.0
        if cfg.debug:
            # without y'y the objective can be negative, hence the |.| scale
            obj = (np.einsum("ij,ij->j", x_new, g @ x_new - 2.0 * cl)
                   + cfg.rho * np.sum(np.abs(x_new), axis=0))
            up = np.flatnonzero(obj > obj_prev + 1e-12 * np.maximum(1.0, np.abs(obj_prev)))
            if up.size:
                j = up[0]
                where = "" if vector else f" in column {live[j]}"
                raise NumericalError(
                    f"objective increased at iteration {it}{where}: "
                    f"{obj_prev[j]!r} -> {obj[j]!r}")
            obj_prev = obj
        done = sq(x_new - xl) <= lim
        xl = x_new
        lim = tol2 * (sq(xl) + 1e-24)
        if np.count_nonzero(done):
            x[:, live[done]] = xl[:, done]
            iterations[live[done]] = it
            converged[live[done]] = True
            keep = ~done
            live, xl, cl, a2, thr, obj_prev, lim = (
                live[keep], xl[:, keep], cl[:, keep], a2[keep], thr[keep],
                obj_prev[keep], lim[keep])
            if not live.size:
                break
    x[:, live] = xl
    if vector:
        return LassoResult(x[:, 0], int(iterations[0]), bool(converged[0]))
    return LassoResult(x, iterations, converged)


def _leave_one_out_lmax(g: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of g without row and column i, for every i.

    With g = U diag(lam) U' (lam ascending) it lies in [lam[-2], lam[-1]]
    by interlacing, and there it is the root of the increasing function
    sum_k U[i, k]^2 / (lam[k] - mu), found for all i by one bisection. Where
    U[i, -1] is 0 the largest eigenvalue of g is left in place.
    """
    lam, u = np.linalg.eigh(g)
    u2 = u * u
    lo = np.full(lam.size, lam[-2])
    hi = np.full(lam.size, lam[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.all((mid == lo) | (mid == hi)):
                break
            below = np.sum(u2 / (lam - mid[:, None]), axis=1) < 0
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
    return np.where(u2[:, -1] == 0, lam[-1], hi)


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


GLASSO_MAX_ITER = 5000  # glasso's step cap; reaching it is reported as converged=False


def glasso(r, cfg: GlassoConfig, report: dict | None = None) -> np.ndarray:
    """Sparse precision estimate: minimise -log det Q + tr((R + rho I) Q)
    + (rho/2) sum_{i != j} |Q_ij| by G-ISTA (Rolfs et al., NIPS 2012).

    Each step Q <- soft(Q - t (R + rho I - Q^-1), t rho/2) thresholds the off-diagonal
    only, so absent edges come out exactly 0; t is a Barzilai-Borwein step, halved until
    Q has a Cholesky factor (which gives Q^-1) and the sufficient-decrease test holds.
    It stops on the KKT conditions at V = Q^-1 or after GLASSO_MAX_ITER steps; rho = 0
    returns inv(R). A given ``report`` dict receives ``iterations``, ``converged`` (KKT
    met) and ``kkt_residual``, the larger KKT violation at exit (max|RQ - I| at rho = 0).
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
    q, w = np.diag(1.0 / np.diag(s)), np.diag(np.diag(s))
    f = n + np.sum(np.log(np.diag(s)))  # -log det Q + tr(SQ)
    t = 1.0 / np.max(np.diag(s)) ** 2
    for iterations in range(GLASSO_MAX_ITER + 1):
        # KKT at V = Q^-1, over max(1, max|R|) on the diagonal (V_ii - R_ii = rho) and rho/2
        # off it (V_ij - R_ij in [-rho/2, rho/2], = (rho/2) sign Q_ij on the support)
        d = w - r
        diag = np.max(np.abs(np.diag(d) - cfg.rho)) / scale
        np.fill_diagonal(d, 0.0)
        sign = np.sign(q - np.diag(np.diag(q)))
        off = np.max(np.abs(d - np.where(sign != 0, half * sign, np.clip(d, -half, half)))) / half
        converged = bool(diag <= 1e-12 and off <= 1e-6)
        if converged or iterations == GLASSO_MAX_ITER:
            break
        grad = s - w
        for _ in range(60):
            y = q - t * grad
            q_new = _shrink(y, t * half)
            np.fill_diagonal(q_new, np.diag(y))
            dq = q_new - q
            try:
                chol = np.linalg.cholesky(q_new)
                f_new = np.sum(s * q_new) - 2.0 * np.sum(np.log(np.diag(chol)))
            except np.linalg.LinAlgError:
                f_new = np.inf
            # the slack lets a step that only rounding moves pass
            if f_new <= (f + np.sum(grad * dq) + np.sum(dq * dq) / (2.0 * t)
                         + 1e-12 * max(1.0, abs(f))):
                break
            t /= 2.0
        else:
            raise NumericalError(f"glasso step {iterations + 1} failed its test after 60 halvings")
        inv = np.linalg.inv(chol)
        w_new = inv.T @ inv
        # alternating Barzilai-Borwein steps, long then short; the gradient changes by w - w_new
        dg = w - w_new
        curv = np.sum(dq * dg)
        if curv > 0:
            t = curv / np.sum(dg * dg) if iterations % 2 else np.sum(dq * dq) / curv
        q, w, f = q_new, w_new, f_new
    if report is not None:
        report.update(iterations=iterations, converged=converged,
                      kkt_residual=float(max(diag, off)))
    return q


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
