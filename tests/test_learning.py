import numpy as np
import pytest

from graphtopo import learning
from graphtopo.core import Graph, Laplacian, NumericalError, eig_sym, laplacian
from graphtopo.learning import (
    PolyFitConfig,
    correlation_matrix,
    laplacian_to_weights,
    learn_from_sources,
    neighborhood_regression,
    polynomial_fit_eigenvalues,
    smooth_learn,
    symmetrize_geometric,
    weight_mse_db,
)
from graphtopo.simulate import SimSpec, simulate
from graphtopo.solvers import LassoConfig, lasso_gram

from conftest import (
    chain4_correlation,
    chain4_observations,
    random_connected_graph,
    weights_from_edges,
)

BETA_CHAIN = np.array([
    [0.0, 0.5, 0.0, 0.0],
    [0.5, 0.0, 0.5, 0.0],
    [0.0, 0.5, 0.0, 0.5],
    [0.0, 0.0, 1.0, 0.0],
])

W_CHAIN = np.array([
    [0.0, 0.5, 0.0, 0.0],
    [0.5, 0.0, 0.5, 0.0],
    [0.0, 0.5, 0.0, 1.0 / np.sqrt(2.0)],
    [0.0, 0.0, 1.0 / np.sqrt(2.0), 0.0],
])


def path_graph(n, weight=1.0):
    return Graph.from_weights(
        weights_from_edges(n, [(i, i + 1, weight) for i in range(n - 1)]))


class TestCorrelationMatrix:
    def test_repeated_basis_column(self):
        x = np.zeros((4, 3))
        x[0] = 1.0
        r = correlation_matrix(x)
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        np.testing.assert_allclose(r, expect)

    def test_running_sum_chain_statistics(self):
        rng = np.random.default_rng(0)
        eps = rng.normal(size=(4, 100_000))
        x = np.cumsum(eps, axis=0)
        r = correlation_matrix(x)
        np.testing.assert_allclose(r, chain4_correlation(), atol=0.05)

    def test_exact_from_constructed_observations(self):
        r = correlation_matrix(chain4_observations(12))
        np.testing.assert_allclose(r, chain4_correlation(), atol=1e-12)

    def test_symmetric_psd(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(6, 9))
            r = correlation_matrix(x)
            assert np.max(np.abs(r - r.T)) < 1e-10
            assert np.linalg.eigvalsh(r)[0] > -1e-10


class TestNeighborhoodRegression:
    def test_chain_first_row(self):
        x = chain4_observations(400)
        b = neighborhood_regression(x, rho=0.01)
        np.testing.assert_allclose(b[0], [0.0, 0.5, 0.0, 0.0], atol=0.05)

    def test_chain_full_matrix_and_symmetrization(self):
        x = chain4_observations(400)
        b = neighborhood_regression(x, rho=0.0)
        np.testing.assert_allclose(b, BETA_CHAIN, atol=1e-5)
        g = symmetrize_geometric(b, clamp_negative=True)
        np.testing.assert_allclose(g.w, W_CHAIN, atol=1e-4)

    def test_rho_zero_matches_least_squares(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 50))
        b = neighborhood_regression(x, rho=0.0)
        for n in range(4):
            others = np.delete(np.arange(4), n)
            expect, *_ = np.linalg.lstsq(x[others].T, x[n], rcond=None)
            np.testing.assert_allclose(b[n, others], expect, atol=1e-5)

    def test_single_vertex(self):
        b = neighborhood_regression(np.array([[1.0, 2.0, 3.0]]), rho=0.1)
        assert b.shape == (1, 1)
        assert b[0, 0] == 0.0

    def test_report_flags_unconverged_rows(self):
        x = np.random.default_rng(12).normal(size=(6, 200))
        report: dict = {}
        neighborhood_regression(x, rho=0.05, max_iter=5, report=report)
        assert report["converged"] is False
        assert report["unconverged_rows"] == list(range(6))

    def test_report_converged(self):
        report: dict = {}
        neighborhood_regression(chain4_observations(400), rho=0.0, report=report)
        iterations = report.pop("iterations")
        assert report == {"converged": True, "unconverged_rows": []}
        assert 4 <= iterations < 4 * 1000

    @pytest.mark.parametrize("max_iter", [1000, 200])
    def test_matches_row_lassos(self, max_iter):
        # at the cap of 200 iterations rows 0, 1, 3 and 6 converge, the rest do not
        x = np.random.default_rng(5).normal(size=(8, 40))
        x[1:] += 0.8 * x[:-1]
        report: dict = {}
        b = neighborhood_regression(x, rho=5.0, max_iter=max_iter, report=report)
        s = x @ x.T
        cfg = LassoConfig(rho=5.0, max_iter=max_iter)
        unconverged, iterations = [], 0
        for row in range(8):
            others = np.delete(np.arange(8), row)
            res = lasso_gram(s[np.ix_(others, others)], s[others, row], cfg)
            np.testing.assert_allclose(b[row, others], res.coefficients, rtol=0,
                                       atol=1e-12 * np.max(np.abs(res.coefficients)))
            iterations += res.iterations
            if not res.converged:
                unconverged.append(row)
        assert report["unconverged_rows"] == unconverged
        assert report["iterations"] == iterations
        assert unconverged == ([] if max_iter == 1000 else [2, 4, 5, 7])

    def test_row_error_carries_vertex_index(self):
        x = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="vertex 0"):
            neighborhood_regression(x, rho=0.1)


class TestSymmetrizeGeometric:
    def test_chain_coefficients(self):
        g = symmetrize_geometric(BETA_CHAIN)
        np.testing.assert_allclose(g.w, W_CHAIN, atol=1e-12)
        assert g.w[2, 3] == pytest.approx(1.0 / np.sqrt(2.0))

    def test_symmetric_input_passes_through(self):
        b = np.array([[0.0, 0.3], [0.3, 0.0]])
        g = symmetrize_geometric(b)
        np.testing.assert_allclose(g.w, b)

    def test_zero_annihilates(self):
        b = np.array([[0.0, 0.2], [0.0, 0.0]])
        g = symmetrize_geometric(b)
        assert g.w[0, 1] == 0.0

    def test_negative_pair_rejected(self):
        b = np.array([[0.0, -0.2], [0.3, 0.0]])
        with pytest.raises(ValueError, match="clamp_negative"):
            symmetrize_geometric(b)

    def test_negative_pair_clamped(self):
        b = np.array([[0.0, -0.2], [0.3, 0.0]])
        g = symmetrize_geometric(b, clamp_negative=True)
        assert g.w[0, 1] == 0.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="coefficient matrix must be square"):
            symmetrize_geometric(np.zeros((2, 3)))

    def test_rejects_nonzero_diagonal(self):
        b = np.array([[0.1, 0.2], [0.2, 0.0]])
        with pytest.raises(ValueError, match="diagonal must be zero"):
            symmetrize_geometric(b)


class TestSmoothLearn:
    def test_feasibility_on_constant_columns(self):
        rng = np.random.default_rng(2)
        x = np.ones((4, 5)) * rng.normal(size=5)
        l, _ = smooth_learn(x, alpha=0.5, beta=0.2, outer_iters=10)
        assert np.trace(l.l) == pytest.approx(4.0, abs=1e-6)
        assert np.max(np.abs(l.l.sum(axis=1))) < 1e-6
        off = l.l - np.diag(np.diag(l.l))
        assert np.max(off) <= 1e-9

    def test_objective_non_increasing(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(5, 8))
            trace = []
            smooth_learn(x, alpha=1.0, beta=0.5, outer_iters=15,
                         objective_trace=trace)
            diffs = np.diff(trace)
            assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_alpha_zero_returns_input(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 6))
        _, y = smooth_learn(x, alpha=0.0, beta=1.0, outer_iters=1)
        np.testing.assert_array_equal(y, x)

    def test_invalid_parameters(self):
        x = np.ones((3, 3))
        with pytest.raises(ValueError):
            smooth_learn(x, alpha=1.0, beta=0.0)
        with pytest.raises(ValueError):
            smooth_learn(x, alpha=-0.1, beta=1.0)


def _reference_projection(l, n, passes=10):
    # the whole-array projection pass that the in-place one must match
    for _ in range(passes):
        l = (l + l.T) / 2.0
        off = np.minimum(l - np.diag(np.diag(l)), 0.0)
        np.fill_diagonal(off, 0.0)
        l = off - np.diag(off.sum(axis=1))
        tr = np.trace(l)
        if tr > 1e-12:
            l = l * (n / tr)
    return l


def _reference_smooth_learn(arr, alpha, beta, outer_iters=20, l_step_iters=20):
    """The alternation run to its cap: every outer iteration recomputes Y
    and appends its objective, whether or not the L-step moved."""
    n = arr.shape[0]
    y = arr.copy()
    l = _reference_projection(-(alpha / (2.0 * beta)) * (y @ y.T), n)
    trace = []

    def l_objective(mat, yyt):
        return alpha * np.sum(yyt * mat) + beta * np.sum(mat ** 2)

    for _ in range(outer_iters):
        yyt = y @ y.T
        current = l_objective(l, yyt)
        step = 1.0 / (4.0 * beta)
        for _ in range(l_step_iters):
            grad = alpha * yyt + 2.0 * beta * l
            improved = False
            for _ in range(20):
                cand = _reference_projection(l - step * grad, n)
                val = l_objective(cand, yyt)
                if val <= current:
                    l, current, improved = cand, val, True
                    break
                step /= 2.0
            if not improved:
                break
        y = np.linalg.solve(np.eye(n) + alpha * l, arr)
        trace.append(float(0.5 * np.sum((y - arr) ** 2)
                           + alpha * np.sum((l @ y) * y)
                           + beta * np.sum(l ** 2)))
    return l, y, trace


def _smooth_signals(seed, mode, p=200):
    if mode == "normal":
        return np.random.default_rng(seed).normal(size=(5, 8))
    g = random_connected_graph(np.random.default_rng(seed), 25, p_edge=0.2,
                               w_low=0.5, w_high=1.5)
    params = {"h": (0.3, 0.2, 0.5)} if mode == "diffusion" else {}
    return simulate(g, SimSpec(mode, seed=1, p=p, params=params)).x


class TestSmoothLearnFixedPoint:
    # (seed, signal mode, alpha, beta, outer iterations to the fixed point);
    # 20 is the cap, which that case reaches with L still moving. The
    # L-step of the "normal" case accepts nothing from the start.
    CASES = [
        (1, "diffusion", 1.0, 1.0, 8),
        (1, "diffusion", 2.0, 10.0, 10),
        (2, "diffusion", 0.5, 0.2, 7),
        (0, "diffusion", 0.5, 0.2, 4),
        (0, "sources", 2.0, 10.0, 3),
        (2, "sources", 0.5, 0.2, 20),
        (0, "sources", 1.0, 1.0, 2),
        (1, "sources", 0.5, 0.2, 2),
        (3, "sources", 1.0, 1.0, 2),
        (3, "normal", 0.5, 0.2, 2),
    ]

    @pytest.mark.parametrize("seed,mode,alpha,beta,iterations", CASES)
    def test_matches_the_run_to_the_cap(self, seed, mode, alpha, beta, iterations):
        x = _smooth_signals(seed, mode)
        l_ref, y_ref, trace_ref = _reference_smooth_learn(x, alpha, beta)
        trace: list = []
        fit = smooth_learn(x, alpha, beta, objective_trace=trace)
        np.testing.assert_array_equal(fit.laplacian.l, l_ref, strict=True)
        np.testing.assert_array_equal(fit.signal, y_ref, strict=True)
        assert (fit.iterations, fit.converged) == (iterations, iterations < 20)
        assert trace == trace_ref[:iterations]
        # the run to the cap only repeats the value it stopped at
        assert trace_ref[iterations:] == [trace[-1]] * (20 - iterations)

    def test_stalled_input_projects_at_most_41_times(self, monkeypatch):
        # one projection to start, then each L-step rejects all 20 halvings;
        # the run stops after the second, where the run to the cap makes
        # 20 L-steps and 401 projections
        calls = []
        project = learning._project_laplacian_set

        def counted(l, n, passes=10):
            calls.append(n)
            return project(l, n, passes)

        monkeypatch.setattr(learning, "_project_laplacian_set", counted)
        fit = smooth_learn(_smooth_signals(3, "normal"), 0.5, 0.2)
        assert (fit.iterations, fit.converged) == (2, True)
        assert len(calls) == 1 + 2 * 20

    def test_cap_is_not_convergence(self):
        fit = smooth_learn(_smooth_signals(2, "sources"), 0.5, 0.2, outer_iters=3)
        assert (fit.iterations, fit.converged) == (3, False)
        # the first iteration's Y is X, so one iteration never converges
        fit = smooth_learn(_smooth_signals(0, "sources"), 1.0, 1.0, outer_iters=1)
        assert (fit.iterations, fit.converged) == (1, False)

    def test_fixed_point_at_the_cap_converges(self):
        fit = smooth_learn(_smooth_signals(0, "sources"), 1.0, 1.0, outer_iters=2)
        assert (fit.iterations, fit.converged) == (2, True)


class TestProjectLaplacianSet:
    @staticmethod
    def matrices():
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6))
        zero_row = a.copy()
        zero_row[2, :] = zero_row[:, 2] = 0.0
        sparse = np.where(rng.random((30, 30)) < 0.5, 0.0, rng.normal(size=(30, 30)))
        signed_zeros = np.where(rng.random((5, 5)) < 0.5, -0.0, 0.0)
        return [a, zero_row, -np.abs(a), -np.abs(rng.normal(size=(30, 30))), sparse,
                signed_zeros, np.zeros((4, 4)), np.array([[3.0]]), np.array([[-2.0]])]

    def test_bitwise_equal_to_whole_array_pass(self):
        for m in self.matrices():
            n = m.shape[0]
            for passes in (1, 10):
                got = learning._project_laplacian_set(m, n, passes)
                want = _reference_projection(m, n, passes)
                np.testing.assert_array_equal(got, want, strict=True)
                # equal bits, so +0.0 and -0.0 also sit in the same places
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_input_left_unchanged(self):
        m = np.random.default_rng(8).normal(size=(5, 5))
        before = m.copy()
        learning._project_laplacian_set(m, 5)
        np.testing.assert_array_equal(m, before)


class TestPolynomialFitEigenvalues:
    def test_linear_system_on_scaled_path(self):
        n = 5
        g = path_graph(n)
        l_true = laplacian(g).l
        l_true = l_true * (n / np.trace(l_true))
        dec = eig_sym(l_true)
        h = 0.2 + 0.5 * dec.eigenvalues
        r = (dec.eigenvectors * h ** 2) @ dec.eigenvectors.T
        lam, _ = polynomial_fit_eigenvalues(r, PolyFitConfig(m=2))
        assert np.max(np.abs(lam - dec.eigenvalues)) < 0.1

    def test_normalization_invariants(self):
        n = 5
        g = path_graph(n)
        l_true = laplacian(g).l * (n / (2.0 * (n - 1)))
        dec = eig_sym(l_true)
        h = 0.2 + 0.5 * dec.eigenvalues
        r = (dec.eigenvectors * h ** 2) @ dec.eigenvectors.T
        lam, lhat = polynomial_fit_eigenvalues(r, PolyFitConfig(m=2))
        assert lam[0] == pytest.approx(0.0, abs=1e-9)
        assert lam.sum() == pytest.approx(n, abs=1e-9)
        assert np.trace(lhat.l) == pytest.approx(n, abs=1e-9)

    def test_m1_deterministic(self):
        rng = np.random.default_rng(4)
        b = rng.normal(size=(6, 6))
        r = b @ b.T / 6.0
        lam1, l1 = polynomial_fit_eigenvalues(r, PolyFitConfig(m=1))
        lam2, l2 = polynomial_fit_eigenvalues(r, PolyFitConfig(m=1))
        np.testing.assert_array_equal(lam1, lam2)
        np.testing.assert_array_equal(l1.l, l2.l)
        assert lam1[0] == pytest.approx(0.0, abs=1e-9)
        assert lam1.sum() == pytest.approx(6.0, abs=1e-9)

    def test_m1_is_the_linear_map(self):
        # with knots at the ends the fit is the line through (0, h_0) and
        # (1, h_{n-1}), so each eigenvalue maps back in closed form
        rng = np.random.default_rng(11)
        b = rng.normal(size=(9, 30))
        r = b @ b.T / 30.0
        h = np.sqrt(np.maximum(np.linalg.eigvalsh(r), 0.0))
        lam_bar = np.clip((h - h[0]) / (h[-1] - h[0]), 0.0, 1.0)
        lam, _ = polynomial_fit_eigenvalues(r, PolyFitConfig(m=1))
        np.testing.assert_allclose(lam, 9 * lam_bar / lam_bar.sum(), rtol=0, atol=1e-12)

    def test_no_monotone_candidate(self):
        r = np.diag([0.0, 0.0, 0.0, 0.0, 1.0])
        with pytest.raises(NumericalError, match="monotone"):
            polynomial_fit_eigenvalues(r, PolyFitConfig(m=2))

    def test_colliding_knots(self):
        with pytest.raises(ValueError, match="collide"):
            polynomial_fit_eigenvalues(np.eye(3), PolyFitConfig(m=3))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="semidefinite"):
            polynomial_fit_eigenvalues(np.diag([1.0, -0.5, 2.0]), PolyFitConfig(m=1))


class TestLearnFromSources:
    def test_exact_four_vertex(self):
        edges = [(0, 1, 0.5), (1, 2, 0.7), (2, 3, 0.3), (0, 3, 0.4)]
        g = Graph.from_weights(weights_from_edges(4, edges))
        l_true = laplacian(g).l
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 3))
        j = l_true @ x
        l_hat = learn_from_sources(x, j)
        np.testing.assert_allclose(l_hat.l, l_true, atol=1e-8)

    def test_exact_recovery_medium(self):
        rng = np.random.default_rng(42)
        g = random_connected_graph(rng, 50, p_edge=0.12)
        l_true = laplacian(g).l
        x = rng.normal(size=(50, 60))
        j = l_true @ x
        l_hat = learn_from_sources(x, j)
        assert np.max(np.abs(l_hat.l - l_true)) < 1e-6

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_sparse_branch_support_recovery(self):
        for seed in (100, 101):
            rng = np.random.default_rng(seed)
            g = random_connected_graph(rng, 50, p_edge=0.08, w_low=0.3)
            l_true = laplacian(g).l
            x = rng.normal(size=(50, 40))
            j = l_true @ x
            l_hat = learn_from_sources(x, j, rho=5.0)
            w_est = laplacian_to_weights(l_hat)
            est = w_est > 0.15
            true = g.w > 0
            tp = np.sum(est & true) / 2
            fp = np.sum(est & ~true) / 2
            fn = np.sum(~est & true) / 2
            f1 = 2 * tp / (2 * tp + fp + fn)
            assert f1 >= 0.9
            assert np.max(np.abs(l_hat.l.sum(axis=1))) < 1e-9
            assert np.max(np.abs(l_hat.l.sum(axis=0))) < 1e-9

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_sparse_branch_reports_unconverged_rows(self):
        # the input of test_sparse_branch_support_recovery at seed 100, where
        # most row lassos stop at the default cap of 1000 iterations
        rng = np.random.default_rng(100)
        g = random_connected_graph(rng, 50, p_edge=0.08, w_low=0.3)
        x = rng.normal(size=(50, 40))
        report = {}
        learn_from_sources(x, laplacian(g).l @ x, rho=5.0, report=report)
        assert report["converged"] is False
        rows = report["unconverged_rows"]
        assert 0 < len(rows) < 49
        assert rows == sorted(set(rows)) and set(rows) <= set(range(49))

    def test_pinv_branch_reports_no_convergence_flag(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 3))
        report = {}
        learn_from_sources(x, np.zeros((4, 3)), report=report)
        assert set(report) == {"asymmetry"}

    def test_zero_row_and_column_sums(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 6))
        j = rng.normal(size=(4, 6))
        with pytest.warns(UserWarning, match="asymmetry"):
            report = {}
            l_hat = learn_from_sources(x, j, report=report)
        assert report["asymmetry"] > 0
        assert np.max(np.abs(l_hat.l.sum(axis=1))) < 1e-9
        assert np.max(np.abs(l_hat.l.sum(axis=0))) < 1e-9
        np.testing.assert_allclose(l_hat.l, l_hat.l.T)

    def test_rank_deficient_directed_to_sparse_branch(self):
        x = np.ones((4, 5))
        with pytest.raises(NumericalError, match="sparse branch"):
            learn_from_sources(x, np.zeros((4, 5)))

    def test_rho_required_for_sparse_branch(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 3))
        with pytest.raises(ValueError, match="rho"):
            learn_from_sources(x, np.zeros((6, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            learn_from_sources(np.ones((3, 4)), np.ones((3, 5)))

    def test_sparse_branch_rejects_identical_signals(self):
        # every vertex carries the same signal, so X_red = 0 and so is its Gram
        x = np.tile(np.random.default_rng(3).normal(size=3), (6, 1))
        with pytest.raises(ValueError, match="nonzero"):
            learn_from_sources(x, np.zeros((6, 3)), rho=0.1)


class TestWeightHelpers:
    def test_laplacian_roundtrip(self):
        g = Graph.from_weights(weights_from_edges(4, [(0, 1, 0.5), (2, 3, 1.2)]))
        w = laplacian_to_weights(laplacian(g))
        np.testing.assert_allclose(w, g.w)

    def test_mse_db_values(self):
        w = np.zeros((3, 3))
        assert weight_mse_db(w, w) == -np.inf
        w2 = np.full((3, 3), 0.1)
        np.fill_diagonal(w2, 0.0)
        assert weight_mse_db(w2, np.zeros((3, 3))) == pytest.approx(-20.0)
