"""Topology inference from vertex observations: regression, smoothness,
spectral and polynomial-fit methods, and learning with known sources."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import RANK_TOL, Graph, Laplacian, NumericalError, eig_sym

__all__ = [
    "PolyFitConfig",
    "correlation_matrix",
    "neighborhood_regression",
    "symmetrize_geometric",
    "SmoothFit",
    "smooth_learn",
    "polynomial_fit_eigenvalues",
    "learn_from_sources",
    "laplacian_to_weights",
    "weight_mse_db",
]


@dataclass(frozen=True)
class PolyFitConfig:
    """Settings for the eigenvalue polynomial fit: the system order m."""

    m: int = 2

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")


def _as_signal(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=float))


def correlation_matrix(x) -> np.ndarray:
    """Sample second-moment matrix X X' / P."""
    arr = _as_signal(x)
    return arr @ arr.T / arr.shape[1]


def neighborhood_regression(x, rho: float, max_iter: int = 1000,
                            tol: float = 1e-8, report: dict | None = None) -> np.ndarray:
    """Regress each vertex signal on all the others with an L1 penalty.

    Returns the n x n coefficient matrix: entry (n, m) regresses vertex n on
    vertex m, and the diagonal stays zero. All rows are solved in one
    :func:`lasso_gram` block on the Gram S = XX', row n on S without row and
    column n. A given ``report`` dict receives ``converged`` (every row lasso
    converged), ``unconverged_rows`` and ``iterations`` (the rows' total).
    """
    arr = _as_signal(x)
    n = arr.shape[0]
    b = np.zeros((n, n))
    unconverged: list[int] = []
    iterations = 0
    # a single vertex has nothing to regress on
    if n > 1:
        signalled = np.flatnonzero(np.any(arr, axis=1))
        if signalled.size < 2:
            row = signalled[0] if signalled.size else 0
            raise ValueError(f"vertex {row}: every other vertex signal is zero")
        # each command loads only the modules it runs (cli's lazy loading, see
        # test_learning_without_a_lasso_loads_no_solvers), so the lasso routes
        # import solvers here
        from .solvers import LassoConfig, lasso_gram
        s = arr @ arr.T
        res = lasso_gram(s, s, LassoConfig(rho=rho, max_iter=max_iter, tol=tol),
                         leave_one_out=True)
        b = res.coefficients.T
        unconverged = np.flatnonzero(~res.converged).tolist()
        iterations = int(res.iterations.sum())
    if report is not None:
        report["converged"] = not unconverged
        report["unconverged_rows"] = unconverged
        report["iterations"] = iterations
    return b


def symmetrize_geometric(b, clamp_negative: bool = False) -> Graph:
    """Geometric-mean symmetrization W_nm = sqrt(b_nm * b_mn) of a square
    coefficient matrix with a zero diagonal.

    A pair with a negative member is an error unless clamp_negative is set,
    in which case it becomes 0.
    """
    forward = np.asarray(b, dtype=float)
    if forward.ndim != 2 or forward.shape[0] != forward.shape[1]:
        raise ValueError("coefficient matrix must be square")
    if np.any(np.diag(forward) != 0):
        raise ValueError("diagonal must be zero")
    backward = forward.T
    neg = (forward < 0) | (backward < 0)
    if np.any(neg):
        if not clamp_negative:
            m, n = np.argwhere(neg)[0]
            raise ValueError(
                f"negative coefficient pair at ({m}, {n}); pass clamp_negative to zero it")
        w = np.where(neg, 0.0, np.sqrt(np.maximum(forward * backward, 0.0)))
    else:
        w = np.sqrt(forward * backward)
    return Graph.from_weights(w)


def _project_laplacian_set(l: np.ndarray, n: int, passes: int = 10) -> np.ndarray:
    # alternating projection onto {symmetric, offdiag <= 0, zero row sums,
    # trace == n}; the diagonal is rebuilt from the off-diagonal part. Each
    # pass works in one fresh buffer. The diagonal is 0.0 - rowsum, not
    # -rowsum, so that an empty row keeps a +0.0 diagonal.
    for _ in range(passes):
        l = l + l.T
        l /= 2.0
        np.minimum(l, 0.0, out=l)
        np.fill_diagonal(l, 0.0)
        np.fill_diagonal(l, 0.0 - l.sum(axis=1))
        tr = np.trace(l)
        if tr > 1e-12:
            l *= n / tr
    return l


@dataclass(frozen=True)
class SmoothFit:
    """What `smooth_learn` returns; it unpacks as ``(laplacian, signal)``.

    ``iterations`` counts the outer iterations computed, and ``converged``
    is True when the alternation stopped at its fixed point rather than at
    the ``outer_iters`` cap.
    """

    laplacian: Laplacian
    signal: np.ndarray
    iterations: int
    converged: bool

    def __iter__(self):
        return iter((self.laplacian, self.signal))


def smooth_learn(x, alpha: float, beta: float, outer_iters: int = 20,
                 objective_trace: list | None = None) -> SmoothFit:
    """Alternating minimization of ||Y - X||_F^2 / 2 + alpha tr(Y'LY)
    + beta ||L||_F^2 over a valid Laplacian L and a smoothed signal Y.

    The L-step runs up to 20 steps of projected gradient descent on the
    Laplacian constraint set (trace N, zero row sums, non-positive
    off-diagonals); the Y-step is the closed form Y = (I + alpha L)^{-1} X.

    ``outer_iters`` is a cap. From the second outer iteration on, an L-step
    that accepts no candidate leaves L equal to the L that produced the
    current Y, so every later iteration would repeat it: the run stops
    there, at its fixed point. ``objective_trace``, if given, receives one
    objective value per outer iteration computed.
    """
    if alpha < 0 or beta <= 0:
        raise ValueError("alpha must be >= 0 and beta > 0")
    if outer_iters < 1:
        raise ValueError("outer_iters must be >= 1")
    arr = _as_signal(x)
    n = arr.shape[0]
    y = arr.copy()
    l = _project_laplacian_set(-(alpha / (2.0 * beta)) * (y @ y.T), n)

    def l_objective(mat, yyt):
        return alpha * np.sum(yyt * mat) + beta * np.sum(mat ** 2)

    converged = False
    for iterations in range(1, outer_iters + 1):
        yyt = y @ y.T
        current = l_objective(l, yyt)
        step = 1.0 / (4.0 * beta)
        moved = False
        for _ in range(20):
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
            moved = True
        # the first Y is X, not a solve, so only later iterations can stop
        if iterations > 1 and not moved:
            converged = True
            if objective_trace is not None:
                objective_trace.append(objective_trace[-1])
            break
        y = np.linalg.solve(np.eye(n) + alpha * l, arr)
        if objective_trace is not None:
            obj = (0.5 * np.sum((y - arr) ** 2)
                   + alpha * np.sum((l @ y) * y)
                   + beta * np.sum(l ** 2))
            objective_trace.append(float(obj))
    return SmoothFit(Laplacian(l, kind="combinatorial", check=False), y, iterations, converged)


def polynomial_fit_eigenvalues(r, cfg: PolyFitConfig) -> tuple[np.ndarray, Laplacian]:
    """Recover Laplacian eigenvalues from a correlation matrix by fitting a
    monotone polynomial to the sorted eigenvalue magnitudes.

    The square roots of the eigenvalues of r are interpolated at evenly
    spaced knot indices; interior knot positions are grid searched for the
    candidate whose implied Laplacian is sparsest (entrywise L1 normalized
    by the square root of the Frobenius energy). Each eigenvalue maps back
    through the monotone polynomial by bisection, then the set rescales to
    sum N. Eigenvalues of r at most RANK_TOL times the largest count as 0.
    """
    r = np.asarray(r, dtype=float)
    n = r.shape[0]
    decomp = eig_sym(r)
    vals = decomp.eigenvalues
    scale = max(np.max(np.abs(vals)), 1.0)
    if vals[0] < -1e-8 * scale:
        raise ValueError("r must be positive semidefinite")
    # eigenvalues at R's noise floor are 0, so its null space maps to lambda = 0
    # whatever basis of it the eigensolver returns
    h = np.sqrt(np.where(vals > RANK_TOL * np.max(np.abs(vals)), vals, 0.0))
    u = decomp.eigenvectors

    m = cfg.m
    knots = np.rint(np.arange(m + 1) * (n - 1) / m).astype(int)
    if len(set(knots.tolist())) != m + 1:
        raise ValueError("knot indices collide; reduce m or use a larger matrix")

    if m == 1:
        candidates = [()]
    else:
        # grid points per free interior knot
        points = 50 if m <= 2 else 25
        grid = np.linspace(0.0, 1.0, points + 2)[1:-1]
        mesh = np.meshgrid(*([grid] * (m - 1)), indexing="ij")
        stacked = np.column_stack([g.ravel() for g in mesh])
        candidates = [tuple(row) for row in stacked
                      if np.all(np.diff(row) > 0) or row.size == 1]

    poly = np.polynomial.polynomial
    check_grid = np.linspace(0.0, 1.0, 1001)
    best_score = np.inf
    best_lam = None
    found_monotone = False
    for xi in candidates:
        xs = np.concatenate([[0.0], np.asarray(xi, dtype=float), [1.0]])
        coef = poly.polyfit(xs, h[knots], m)
        pv = poly.polyval(check_grid, coef)
        if np.any(np.diff(pv) < -1e-12) or pv[-1] - pv[0] <= 1e-12:
            continue
        found_monotone = True
        # one bisection for all targets; those outside [p(0), p(1)] clamp to 0 or 1
        lo, hi = np.zeros(n), np.ones(n)
        for _ in range(60):
            mid = (lo + hi) / 2.0
            below = poly.polyval(mid, coef) < h
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        lam_bar = np.select([h <= pv[0], h >= pv[-1]], [0.0, 1.0], (lo + hi) / 2.0)
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
                "no interior-knot candidate gives a monotone polynomial; reduce m")
        raise NumericalError("eigenvalue fit degenerated to all zeros")
    l = (u * best_lam) @ u.T
    # (u lam) u' is symmetric only to rounding, and check=False needs it exact
    return best_lam, Laplacian((l + l.T) / 2.0, kind="combinatorial", check=False)


def learn_from_sources(x, j, rho: float | None = None,
                       report: dict | None = None) -> Laplacian:
    """Solve L X = J for L given signals and their sources, using the last
    vertex as potential reference.

    With P >= N-1 snapshots the reduced Laplacian comes from a pseudo-inverse;
    with fewer it is built row by row with an L1 penalty (rho required). The
    final row and column complete the zero row/column sums, and the output is
    symmetrized by averaging. A given ``report`` dict receives ``asymmetry``;
    the sparse branch adds ``converged`` (every row lasso converged),
    ``unconverged_rows`` and ``iterations`` (the rows' total).
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
        from .solvers import LassoConfig, lasso_gram
        # row k of the reduced Laplacian is column k of one lasso block
        res = lasso_gram(x_red @ x_red.T, x_red @ j_red.T, LassoConfig(rho=rho))
        l_red = res.coefficients.T
        if report is not None:
            report["converged"] = bool(np.all(res.converged))
            report["unconverged_rows"] = np.flatnonzero(~res.converged).tolist()
            report["iterations"] = int(res.iterations.sum())

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
    w = -l.l
    np.fill_diagonal(w, 0.0)
    return np.maximum(w, 0.0, out=w)


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
