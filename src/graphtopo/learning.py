"""Topology inference from vertex observations: regression, smoothness,
spectral and polynomial-fit methods, and learning with known sources."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import Graph, Laplacian, NumericalError, eig_sym
from .solvers import LassoConfig, lasso_gram

__all__ = [
    "ObservationMatrix",
    "BetaMatrix",
    "PolyFitConfig",
    "correlation_matrix",
    "neighborhood_regression",
    "symmetrize_geometric",
    "smooth_learn",
    "polynomial_fit_eigenvalues",
    "learn_from_sources",
    "laplacian_to_weights",
    "weight_mse_db",
]


@dataclass(frozen=True)
class ObservationMatrix:
    """N x P matrix of vertex signals, one snapshot per column."""

    x: np.ndarray
    center: bool = False

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
class BetaMatrix:
    """Per-vertex regression coefficients; entry (n, m) regresses vertex n
    on vertex m, diagonal structurally zero."""

    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("coefficient matrix must be square")
        if np.any(np.diag(b) != 0):
            raise ValueError("diagonal must be zero")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.b.shape[0]


@dataclass(frozen=True)
class PolyFitConfig:
    """Settings for the eigenvalue polynomial fit: system order m and the
    number of grid points per free interior knot."""

    m: int = 2
    grid_points: int | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.grid_points is not None and self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")

    def resolved_grid_points(self) -> int:
        if self.grid_points is not None:
            return self.grid_points
        return 50 if self.m <= 2 else 25


def _as_signal(x) -> tuple[np.ndarray, bool]:
    if isinstance(x, ObservationMatrix):
        return x.x, x.center
    arr = np.atleast_2d(np.asarray(x, dtype=float))
    return arr, False


def correlation_matrix(x, center: bool | None = None) -> np.ndarray:
    """Sample second-moment matrix X X' / P; subtracts per-vertex means
    first when centering is requested."""
    arr, default_center = _as_signal(x)
    if center is None:
        center = default_center
    if center:
        arr = arr - arr.mean(axis=1, keepdims=True)
    return arr @ arr.T / arr.shape[1]


def neighborhood_regression(x, rho: float, max_iter: int = 1000,
                            tol: float = 1e-8, report: dict | None = None) -> BetaMatrix:
    """Regress each vertex signal on all the others with an L1 penalty.

    Row n holds the coefficients of the remaining vertices in their original
    order; the diagonal stays zero. A given ``report`` dict receives
    ``converged`` (every row lasso converged) and ``unconverged_rows``.
    """
    arr, _ = _as_signal(x)
    n = arr.shape[0]
    b = np.zeros((n, n))
    unconverged: list[int] = []
    # a single vertex has nothing to regress on
    if n > 1:
        cfg = LassoConfig(rho=rho, max_iter=max_iter, tol=tol)
        s = arr @ arr.T
        for row in range(n):
            others = np.delete(np.arange(n), row)
            try:
                res = lasso_gram(s[np.ix_(others, others)], s[others, row], cfg)
            except (ValueError, NumericalError) as exc:
                raise type(exc)(f"vertex {row}: {exc}") from exc
            b[row, others] = res.coefficients
            if not res.converged:
                unconverged.append(row)
    if report is not None:
        report["converged"] = not unconverged
        report["unconverged_rows"] = unconverged
    return BetaMatrix(b)


def symmetrize_geometric(b: BetaMatrix, clamp_negative: bool = False) -> Graph:
    """Geometric-mean symmetrization W_nm = sqrt(b_nm * b_mn).

    A pair with a negative member is an error unless clamp_negative is set,
    in which case it becomes 0.
    """
    mat = b.b
    forward = mat
    backward = mat.T
    neg = (forward < 0) | (backward < 0)
    if np.any(neg):
        if not clamp_negative:
            m, n = np.argwhere(neg)[0]
            raise ValueError(
                f"negative coefficient pair at ({m}, {n}); pass clamp_negative to zero it")
        w = np.where(neg, 0.0, np.sqrt(np.maximum(forward * backward, 0.0)))
    else:
        w = np.sqrt(forward * backward)
    np.fill_diagonal(w, 0.0)
    return Graph.from_weights(w)


def _project_laplacian_set(l: np.ndarray, n: int, passes: int = 10) -> np.ndarray:
    # alternating projection onto {symmetric, offdiag <= 0, zero row sums,
    # trace == n}; the diagonal is rebuilt from the off-diagonal part
    for _ in range(passes):
        l = (l + l.T) / 2.0
        off = np.minimum(l - np.diag(np.diag(l)), 0.0)
        np.fill_diagonal(off, 0.0)
        l = off - np.diag(off.sum(axis=1))
        tr = np.trace(l)
        if tr > 1e-12:
            l = l * (n / tr)
    return l


def smooth_learn(x, alpha: float, beta: float, outer_iters: int = 20,
                 l_step_iters: int = 20,
                 objective_trace: list | None = None) -> tuple[Laplacian, ObservationMatrix]:
    """Alternating minimization of ||Y - X||_F^2 / 2 + alpha tr(Y'LY)
    + beta ||L||_F^2 over a valid Laplacian L and a smoothed signal Y.

    The L-step runs projected gradient descent on the Laplacian constraint
    set (trace N, zero row sums, non-positive off-diagonals); the Y-step is
    the closed form Y = (I + alpha L)^{-1} X.
    """
    if alpha < 0 or beta <= 0:
        raise ValueError("alpha must be >= 0 and beta > 0")
    if outer_iters < 1:
        raise ValueError("outer_iters must be >= 1")
    arr, _ = _as_signal(x)
    n = arr.shape[0]
    y = arr.copy()
    l = _project_laplacian_set(-(alpha / (2.0 * beta)) * (y @ y.T), n)

    def l_objective(mat, yyt):
        return alpha * np.sum(yyt * mat) + beta * np.sum(mat ** 2)

    for _ in range(outer_iters):
        yyt = y @ y.T
        current = l_objective(l, yyt)
        step = 1.0 / (4.0 * beta)
        for _ in range(l_step_iters):
            grad = alpha * yyt + 2.0 * beta * l
            # accept a projected step only if it lowers the L objective,
            # otherwise halve; keeps the outer objective non-increasing
            improved = False
            for _ in range(20):
                cand = _project_laplacian_set(l - step * grad, n)
                val = l_objective(cand, yyt)
                if val <= current:
                    l, current, improved = cand, val, True
                    break
                step /= 2.0
            if not improved:
                break
        y = np.linalg.solve(np.eye(n) + alpha * l, arr)
        if objective_trace is not None:
            obj = (0.5 * np.sum((y - arr) ** 2)
                   + alpha * np.trace(y.T @ l @ y)
                   + beta * np.sum(l ** 2))
            objective_trace.append(float(obj))
    return Laplacian(l, kind="combinatorial", check=False), ObservationMatrix(y)


def polynomial_fit_eigenvalues(r, cfg: PolyFitConfig) -> tuple[np.ndarray, Laplacian]:
    """Recover Laplacian eigenvalues from a correlation matrix by fitting a
    monotone polynomial to the sorted eigenvalue magnitudes.

    The square roots of the eigenvalues of r are interpolated at evenly
    spaced knot indices; interior knot positions are grid searched for the
    candidate whose implied Laplacian is sparsest (entrywise L1 normalized
    by the square root of the Frobenius energy). Each eigenvalue maps back
    through the monotone polynomial by bisection, then the set rescales to
    sum N.
    """
    from scipy.interpolate import BarycentricInterpolator

    r = np.asarray(r, dtype=float)
    n = r.shape[0]
    decomp = eig_sym(r)
    vals = decomp.eigenvalues
    scale = max(np.max(np.abs(vals)), 1.0)
    if vals[0] < -1e-8 * scale:
        raise ValueError("r must be positive semidefinite")
    h = np.sqrt(np.maximum(vals, 0.0))
    u = decomp.eigenvectors

    m = cfg.m
    knots = np.rint(np.arange(m + 1) * (n - 1) / m).astype(int)
    if len(set(knots.tolist())) != m + 1:
        raise ValueError("knot indices collide; reduce m or use a larger matrix")

    if m == 1:
        candidates = [()]
    else:
        grid = np.linspace(0.0, 1.0, cfg.resolved_grid_points() + 2)[1:-1]
        mesh = np.meshgrid(*([grid] * (m - 1)), indexing="ij")
        stacked = np.column_stack([g.ravel() for g in mesh])
        candidates = [tuple(row) for row in stacked
                      if np.all(np.diff(row) > 0) or row.size == 1]

    check_grid = np.linspace(0.0, 1.0, 1001)
    best_score = np.inf
    best_lam = None
    found_monotone = False
    for xi in candidates:
        xs = np.concatenate([[0.0], np.asarray(xi, dtype=float), [1.0]])
        poly = BarycentricInterpolator(xs, h[knots])
        pv = poly(check_grid)
        if np.any(np.diff(pv) < -1e-12) or pv[-1] - pv[0] <= 1e-12:
            continue
        found_monotone = True
        lam_bar = np.empty(n)
        p0, p1 = pv[0], pv[-1]
        for k in range(n):
            target = h[k]
            if target <= p0:
                lam_bar[k] = 0.0
            elif target >= p1:
                lam_bar[k] = 1.0
            else:
                lo, hi = 0.0, 1.0
                for _ in range(60):
                    mid = (lo + hi) / 2.0
                    if poly(mid) < target:
                        lo = mid
                    else:
                        hi = mid
                lam_bar[k] = (lo + hi) / 2.0
        total = lam_bar.sum()
        if total <= 0:
            continue
        lam_hat = n * lam_bar / total
        l_cand = (u * lam_hat) @ u.T
        score = np.sum(np.abs(l_cand)) / np.sqrt(np.linalg.norm(l_cand))
        if score < best_score:
            best_score = score
            best_lam = lam_hat
    if best_lam is None:
        if not found_monotone:
            raise NumericalError(
                "no interior-knot candidate gives a monotone polynomial; "
                "increase grid_points or reduce m")
        raise NumericalError("eigenvalue fit degenerated to all zeros")
    l = (u * best_lam) @ u.T
    return best_lam, Laplacian(l, kind="combinatorial", check=False)


def learn_from_sources(x, j, rho: float | None = None,
                       report: dict | None = None) -> Laplacian:
    """Solve L X = J for L given signals and their sources, using the last
    vertex as potential reference.

    With P >= N-1 snapshots the reduced Laplacian comes from a pseudo-inverse;
    with fewer it is built row by row with an L1 penalty (rho required). The
    final row and column complete the zero row/column sums, and the output is
    symmetrized by averaging. A given ``report`` dict receives ``asymmetry``;
    the sparse branch adds ``converged`` (every row lasso converged) and
    ``unconverged_rows``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    j = np.atleast_2d(np.asarray(j, dtype=float))
    if x.shape != j.shape:
        raise ValueError("signal and source matrices must share a shape")
    n, p = x.shape
    if n < 2:
        raise ValueError("need at least two vertices")
    x_ref = x - x[n - 1]
    x_red = x_ref[: n - 1]
    j_red = j[: n - 1]

    if p >= n - 1:
        if np.linalg.matrix_rank(x_red) < n - 1:
            raise NumericalError(
                "signal matrix is rank deficient for the pseudo-inverse branch; "
                "use the sparse branch (fewer snapshots than vertices) with rho")
        l_red = j_red @ np.linalg.pinv(x_red)
    else:
        if rho is None:
            raise ValueError("rho is required when P < N-1")
        cfg = LassoConfig(rho=rho)
        gram = x_red @ x_red.T
        cross = x_red @ j_red.T
        l_red = np.empty((n - 1, n - 1))
        unconverged: list[int] = []
        for k in range(n - 1):
            res = lasso_gram(gram, cross[:, k], cfg)
            l_red[k] = res.coefficients
            if not res.converged:
                unconverged.append(k)
        if report is not None:
            report["converged"] = not unconverged
            report["unconverged_rows"] = unconverged

    l = np.zeros((n, n))
    l[: n - 1, : n - 1] = l_red
    l[: n - 1, n - 1] = -l_red.sum(axis=1)
    l[n - 1, : n - 1] = -l_red.sum(axis=0)
    l[n - 1, n - 1] = l_red.sum()
    asymmetry = float(np.max(np.abs(l - l.T)))
    if report is not None:
        report["asymmetry"] = asymmetry
    if asymmetry > 1e-6 * max(np.max(np.abs(l)), 1.0):
        warnings.warn(f"learned Laplacian asymmetry {asymmetry:.3e}; averaging",
                      UserWarning)
    l = (l + l.T) / 2.0
    return Laplacian(l, kind="combinatorial", check=False)


def laplacian_to_weights(l: Laplacian) -> np.ndarray:
    """Weight matrix implied by a Laplacian: negated off-diagonal part,
    clipped at zero."""
    w = -np.asarray(l.l, dtype=float).copy()
    np.fill_diagonal(w, 0.0)
    return np.maximum((w + w.T) / 2.0, 0.0)


def weight_mse_db(w_est, w_true) -> float:
    """Mean squared off-diagonal weight error, in dB."""
    w_est = np.asarray(w_est, dtype=float)
    w_true = np.asarray(w_true, dtype=float)
    if w_est.shape != w_true.shape:
        raise ValueError("shape mismatch")
    n = w_est.shape[0]
    off = ~np.eye(n, dtype=bool)
    mse = float(np.mean((w_est[off] - w_true[off]) ** 2))
    if mse == 0.0:
        return -np.inf
    return 10.0 * np.log10(mse)
