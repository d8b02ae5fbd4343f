import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphtopo import solvers
from graphtopo.core import Graph, NumericalError, RankDeficiencyWarning, laplacian
from graphtopo.solvers import (
    GlassoConfig,
    LassoConfig,
    glasso,
    lasso_gram,
    lasso_ista,
    normalize_precision,
    precision_matrix,
    soft_threshold,
)

from conftest import chain4_correlation, weights_from_edges


def _grid_lasso(a, y, rho, rounds=6, points=21, half_width=2.0):
    """Nested grid search over the LASSO objective, independent of lasso_gram."""
    n = a.shape[1]
    center = np.zeros(n)
    for _ in range(rounds):
        axes = [np.linspace(c - half_width, c + half_width, points) for c in center]
        mesh = np.meshgrid(*axes, indexing="ij")
        cand = np.column_stack([m.ravel() for m in mesh])
        resid = y[None, :] - cand @ a.T
        obj = np.sum(resid ** 2, axis=1) + rho * np.sum(np.abs(cand), axis=1)
        center = cand[int(np.argmin(obj))]
        step = 2.0 * half_width / (points - 1)
        half_width = 1.05 * step
    return center


def _cd_lasso(a, b, rho, max_iter=10_000, tol=1e-12):
    """Cyclic coordinate descent on ||b - A beta||^2 + rho ||beta||_1."""
    n = a.shape[1]
    beta = np.zeros(n)
    col_sq = np.sum(a ** 2, axis=0)
    for _ in range(max_iter):
        biggest = 0.0
        for i in range(n):
            if col_sq[i] == 0.0:
                continue
            r_i = b - a @ beta + a[:, i] * beta[i]
            target = a[:, i] @ r_i
            new = np.sign(target) * max(abs(target) - rho / 2.0, 0.0) / col_sq[i]
            biggest = max(biggest, abs(new - beta[i]))
            beta[i] = new
        if biggest < tol:
            break
    return beta


def _cd_glasso(r, rho, max_sweeps=100, eps=1e-4):
    """Reference sweep solver with a coordinate-descent inner LASSO."""
    n = r.shape[0]
    off = r.copy()
    np.fill_diagonal(off, 0.0)
    c_p = np.mean(np.abs(off)) * eps
    v = r + rho * np.eye(n)
    for _ in range(max_sweeps):
        v_start = v.copy()
        for j in range(n - 1, -1, -1):
            idx = np.delete(np.arange(n), j)
            v11 = v[np.ix_(idx, idx)]
            vals, vecs = np.linalg.eigh((v11 + v11.T) / 2)
            vals = np.maximum(vals, 0.0)
            a_mat = (vecs * np.sqrt(vals)) @ vecs.T
            inv_root = np.where(vals > 0, 1.0 / np.sqrt(np.maximum(vals, 1e-300)), 0.0)
            b = (vecs * inv_root) @ vecs.T @ r[idx, j]
            beta = _cd_lasso(a_mat, b, rho)
            v12 = v11 @ beta
            v[idx, j] = v12
            v[j, idx] = v12
        if np.mean(np.abs(v - v_start)) < c_p:
            break
    return np.linalg.inv(v)


def chain_precision(n):
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    g = Graph.from_weights(weights_from_edges(n, edges))
    return laplacian(g).l + np.eye(n)


CSIM = np.array([
    [2.0, -1.0, 0.0, 0.0],
    [-1.0, 2.0, -1.0, 0.0],
    [0.0, -1.0, 2.0, -1.0],
    [0.0, 0.0, -1.0, 1.0],
])


class TestSoftThreshold:
    def test_dead_zone(self):
        assert soft_threshold(0.5, 1.0) == 0.0

    def test_positive_shift(self):
        assert soft_threshold(2.0, 0.5) == pytest.approx(1.5)

    def test_odd_symmetry(self):
        assert soft_threshold(-2.0, 0.5) == pytest.approx(-1.5)

    def test_array_input(self):
        out = soft_threshold(np.array([-3.0, 0.2, 1.0]), 0.5)
        np.testing.assert_allclose(out, [-2.5, 0.0, 0.5])

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(0, 1e6))
    def test_contraction(self, a, b, t):
        assert abs(soft_threshold(a, t) - soft_threshold(b, t)) <= abs(a - b) + 1e-9


class TestLassoIsta:
    def test_rho_zero_matches_least_squares(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 4))
        y = rng.normal(size=8)
        res = lasso_ista(a, y, LassoConfig(rho=0.0))
        expect, *_ = np.linalg.lstsq(a, y, rcond=None)
        np.testing.assert_allclose(res.coefficients, expect, atol=1e-5)
        assert res.converged

    def test_total_shrinkage_gives_zero(self):
        a = np.eye(3)
        y = np.array([1.0, -2.0, 0.5])
        res = lasso_ista(a, y, LassoConfig(rho=100.0))
        np.testing.assert_array_equal(res.coefficients, np.zeros(3))

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            lasso_ista(np.zeros((3, 2)), np.ones(3), LassoConfig(rho=0.1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lasso_ista(np.ones((3, 2)), np.ones(4), LassoConfig())

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        res = lasso_ista(a, y, LassoConfig(rho=0.1, max_iter=5000, tol=1e-12))
        oracle = _grid_lasso(a, y, 0.1)
        np.testing.assert_allclose(res.coefficients, oracle, atol=1e-3)

    def test_debug_monotonicity_holds(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(20, 10))
        y = rng.normal(size=20)
        res = lasso_ista(a, y, LassoConfig(rho=0.05, debug=True))
        assert res.converged

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(40, 60)) / np.sqrt(40)
        y = rng.normal(size=40)
        res = lasso_ista(a, y, LassoConfig(rho=0.01, max_iter=1))
        assert res.iterations == 1
        assert not res.converged

    def test_sparse_recovery(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(40, 60)) / np.sqrt(40)
        truth = np.zeros(60)
        truth[[5, 12, 31, 45]] = [1.0, 0.5, 0.9, -0.75]
        y = a @ truth
        res = lasso_ista(a, y, LassoConfig(rho=0.01, max_iter=1000))
        support = np.flatnonzero(np.abs(res.coefficients) > 0.05)
        np.testing.assert_array_equal(support, [5, 12, 31, 45])
        np.testing.assert_allclose(res.coefficients[support], truth[support], atol=0.05)


class TestGlasso:
    def test_identity_input(self):
        q = glasso(np.eye(4), GlassoConfig(rho=0.7))
        np.testing.assert_allclose(q, np.eye(4) / 1.7, atol=1e-6)

    def test_rho_zero_inverts_chain_correlation(self):
        r = chain4_correlation()
        q = glasso(r, GlassoConfig(rho=0.0))
        np.testing.assert_allclose(q, CSIM, atol=1e-4)

    def test_rho_zero_well_conditioned_inverse(self):
        rng = np.random.default_rng(12)
        b = rng.normal(size=(10, 10))
        r = b @ b.T / 10.0 + np.eye(10)
        q = glasso(r, GlassoConfig(rho=0.0))
        assert np.max(np.abs(q @ r - np.eye(10))) < 1e-4

    def test_output_symmetric(self):
        rng = np.random.default_rng(5)
        b = rng.normal(size=(6, 6))
        r = b @ b.T / 6.0 + 0.5 * np.eye(6)
        q = glasso(r, GlassoConfig(rho=0.2))
        assert np.max(np.abs(q - q.T)) < 1e-8

    def test_chain_support_against_coordinate_descent(self):
        n = 6
        q_true = chain_precision(n)
        r = np.linalg.inv(q_true)
        q = glasso(r, GlassoConfig(rho=0.3))
        q_cd = _cd_glasso(r, 0.3)
        np.testing.assert_allclose(q, q_cd, atol=1e-4)
        scale = np.max(np.abs(q - np.diag(np.diag(q))))
        chain_mask = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]) == 1
        found = np.abs(q - np.diag(np.diag(q))) > 1e-6 * scale
        np.fill_diagonal(found, False)
        np.testing.assert_array_equal(found, chain_mask)

    def test_exact_zeros_off_the_chain(self):
        n = 6
        q = glasso(np.linalg.inv(chain_precision(n)), GlassoConfig(rho=0.3))
        far = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]) > 1
        assert np.all(q[far] == 0.0)

    def test_single_vertex(self):
        q = glasso(np.array([[2.0]]), GlassoConfig(rho=0.5))
        assert q[0, 0] == pytest.approx(0.4)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            glasso(np.array([[1.0, 0.5], [0.0, 1.0]]), GlassoConfig())

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="semidefinite"):
            glasso(np.diag([1.0, -1.0]), GlassoConfig())


class TestLassoGram:
    def test_debug_accepts_large_negative_objective(self):
        # the Gram-form objective drops y'y, so near the optimum it is about
        # -8.6e6 here and rounding moves it by a few 1e-9 between iterations
        rng = np.random.default_rng(7)
        a = rng.normal(size=(40, 10))
        y = 1e3 * rng.normal(size=40)
        res = lasso_gram(a.T @ a, a.T @ y,
                         LassoConfig(rho=1.0, max_iter=3000, tol=1e-15, debug=True))
        expect = lasso_ista(a, y, LassoConfig(rho=1.0, max_iter=3000, tol=1e-15))
        np.testing.assert_allclose(res.coefficients, expect.coefficients)

    def test_zero_gram_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            lasso_gram(np.zeros((2, 2)), np.ones(2), LassoConfig(rho=0.1))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="square"):
            lasso_gram(np.eye(3), np.ones(2), LassoConfig())

    @staticmethod
    def _block(seed=11):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(30, 12))
        return a.T @ a, a.T @ rng.normal(size=(30, 6))

    @pytest.mark.parametrize("max_iter", [1000, 5])
    def test_block_matches_column_calls(self, max_iter):
        g, c = self._block()
        cfg = LassoConfig(rho=2.0, max_iter=max_iter)
        res = lasso_gram(g, c, cfg)
        cols = [lasso_gram(g, c[:, k], cfg) for k in range(c.shape[1])]
        expect = np.column_stack([col.coefficients for col in cols])
        assert np.max(np.abs(res.coefficients - expect)) <= 1e-12 * np.max(np.abs(expect))
        np.testing.assert_array_equal(res.iterations, [col.iterations for col in cols])
        np.testing.assert_array_equal(res.converged, [col.converged for col in cols])
        assert res.converged.all() == (max_iter == 1000)

    def test_leave_one_out_matches_reduced_grams(self):
        g, _ = self._block()
        cfg = LassoConfig(rho=2.0)
        res = lasso_gram(g, g, cfg, leave_one_out=True)
        np.testing.assert_array_equal(np.diag(res.coefficients), 0.0)
        for k in range(12):
            others = np.delete(np.arange(12), k)
            col = lasso_gram(g[np.ix_(others, others)], g[others, k], cfg)
            np.testing.assert_allclose(res.coefficients[others, k], col.coefficients,
                                       rtol=0, atol=1e-12 * np.max(np.abs(col.coefficients)))
            assert res.iterations[k] == col.iterations

    def test_leave_one_out_rejects_a_zero_sub_gram(self):
        g = np.zeros((3, 3))
        g[0, 1] = g[1, 0] = 1.0
        with pytest.raises(ValueError, match="without row and column 0 must have"):
            lasso_gram(g, g, LassoConfig(), leave_one_out=True)
        with pytest.raises(ValueError, match="without row and column 0 must have"):
            lasso_gram(np.ones((1, 1)), np.ones((1, 1)), LassoConfig(), leave_one_out=True)

    @pytest.mark.parametrize("leave_one_out", [False, True])
    def test_debug_names_the_column_whose_objective_rises(self, monkeypatch, leave_one_out):
        # with the prox replaced by the identity each step lowers x'Gx - 2c'x
        # but not the penalty, which rho = 10 makes the larger part wherever c
        # is nonzero; column 0 is stationary at x = 0 and never steps
        g, c = self._block()
        c[:, 0] = 0.0
        if leave_one_out:
            g, c = g[:6, :6], c[:6]
        monkeypatch.setattr(solvers, "_shrink", lambda y, t: y)
        cfg = LassoConfig(rho=10.0, debug=True)
        with pytest.raises(NumericalError, match="in column 1"):
            lasso_gram(g, c, cfg, leave_one_out=leave_one_out)
        with pytest.raises(NumericalError, match="objective increased"):
            lasso_gram(g, c[:, 1], cfg)


class TestGlassoOptimality:
    def _correlation(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(30, 200))
        x[1:] += 0.5 * x[:-1]
        return np.corrcoef(x)

    def test_box_conditions(self):
        # stationarity of -log det Q + tr(RQ) + rho sum_i Q_ii
        # + (rho/2) sum_{i != j} |Q_ij| at V = Q^{-1}
        r = self._correlation()
        rho = 0.05
        v = np.linalg.inv(glasso(r, GlassoConfig(rho=rho)))
        np.testing.assert_allclose(np.diag(v), np.diag(r) + rho, rtol=1e-12)
        off = ~np.eye(30, dtype=bool)
        assert np.max(np.abs(v - r)[off]) <= rho / 2 * (1 + 1e-4)

    def test_duality_certificate(self):
        # duality certificate of -log det Q + tr(RQ) + rho tr(Q)
        # + (rho/2) sum_{i != j} |Q_ij|: Q symmetric positive definite,
        # V = Q^{-1} with V_ii = R_ii + rho, and a gap small next to n
        r = self._correlation()
        rho, n = 0.05, 30
        q = glasso(r, GlassoConfig(rho=rho))
        scale = np.max(np.abs(q))
        assert np.max(np.abs(q - q.T)) <= 1e-10 * scale
        assert np.linalg.eigvalsh(q)[0] > 0
        v = np.linalg.inv(q)
        assert np.max(np.abs(np.diag(v) - np.diag(r) - rho)) <= 1e-6 * max(np.max(np.abs(r)), 1.0)
        off = ~np.eye(n, dtype=bool)
        gap = rho / 2 * np.sum(np.abs(q[off])) - np.sum((v - r)[off] * q[off])
        assert abs(gap) <= 1e-3 * n

    def test_report_converged(self):
        report: dict = {}
        glasso(self._correlation(), GlassoConfig(rho=0.05), report=report)
        assert report["converged"] is True
        assert 1 <= report["iterations"] < solvers.GLASSO_MAX_ITER
        assert 0.0 <= report["kkt_residual"] <= 1e-6

    def test_report_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(solvers, "GLASSO_MAX_ITER", 1)
        report: dict = {}
        glasso(self._correlation(), GlassoConfig(rho=0.05), report=report)
        assert report["iterations"] == 1
        assert report["converged"] is False
        assert report["kkt_residual"] > 1e-6

    def test_report_at_zero_penalty(self):
        report: dict = {}
        glasso(chain4_correlation(), GlassoConfig(rho=0.0), report=report)
        assert report["iterations"] == 0
        assert report["converged"] is True
        assert report["kkt_residual"] < 1e-10


class TestPrecisionMatrix:
    def test_chain_correlation_exact_inverse(self):
        q = precision_matrix(chain4_correlation())
        np.testing.assert_allclose(q, CSIM, atol=1e-10)

    def test_identity(self):
        np.testing.assert_allclose(precision_matrix(np.eye(3)), np.eye(3))

    def test_rank_deficient_falls_back_to_pinv(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 2))
        r = x @ x.T / 2.0
        with pytest.warns(RankDeficiencyWarning):
            q = precision_matrix(r)
        np.testing.assert_allclose(q @ r @ q, q, atol=1e-8)
        np.testing.assert_allclose(r @ q @ r, r, atol=1e-8)
        np.testing.assert_allclose((q @ r).T, q @ r, atol=1e-8)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            precision_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestNormalizePrecision:
    def test_chain_values(self):
        out = normalize_precision(CSIM)
        np.testing.assert_allclose(np.diag(out), np.ones(4), atol=1e-12)
        assert out[0, 1] == pytest.approx(-0.5, abs=1e-12)
        assert out[1, 2] == pytest.approx(-0.5, abs=1e-12)
        assert out[2, 3] == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-12)
        assert out[0, 2] == 0.0

    def test_identity(self):
        np.testing.assert_allclose(normalize_precision(np.eye(5)), np.eye(5))

    def test_two_by_two(self):
        q = np.array([[4.0, 3.0], [3.0, 9.0]])
        out = normalize_precision(q)
        assert out[0, 1] == pytest.approx(0.5)

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError, match="positive"):
            normalize_precision(np.diag([1.0, 0.0]))
