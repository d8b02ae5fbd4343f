import numpy as np
import pytest

from graphtopo.core import Graph, Laplacian, NumericalError, eig_sym, laplacian
from graphtopo.learning import (
    BetaMatrix,
    ObservationMatrix,
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

    def test_centering_is_shift_invariant(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 60))
        offset = rng.normal(size=5)
        r0 = correlation_matrix(x, center=True)
        r1 = correlation_matrix(x + offset[:, None], center=True)
        np.testing.assert_allclose(r0, r1, atol=1e-10)

    def test_symmetric_psd(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(6, 9))
            r = correlation_matrix(x)
            assert np.max(np.abs(r - r.T)) < 1e-10
            assert np.linalg.eigvalsh(r)[0] > -1e-10

    def test_observation_matrix_flag(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 20)) + 2.0
        om = ObservationMatrix(x, center=True)
        np.testing.assert_allclose(correlation_matrix(om),
                                   correlation_matrix(x, center=True))
        np.testing.assert_allclose(correlation_matrix(om, center=False),
                                   correlation_matrix(x))


class TestNeighborhoodRegression:
    def test_chain_first_row(self):
        x = chain4_observations(400)
        b = neighborhood_regression(x, rho=0.01)
        np.testing.assert_allclose(b.b[0], [0.0, 0.5, 0.0, 0.0], atol=0.05)

    def test_chain_full_matrix_and_symmetrization(self):
        x = chain4_observations(400)
        b = neighborhood_regression(x, rho=0.0)
        np.testing.assert_allclose(b.b, BETA_CHAIN, atol=1e-5)
        g = symmetrize_geometric(b, clamp_negative=True)
        np.testing.assert_allclose(g.w, W_CHAIN, atol=1e-4)

    def test_rho_zero_matches_least_squares(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 50))
        b = neighborhood_regression(x, rho=0.0)
        for n in range(4):
            others = np.delete(np.arange(4), n)
            expect, *_ = np.linalg.lstsq(x[others].T, x[n], rcond=None)
            np.testing.assert_allclose(b.b[n, others], expect, atol=1e-5)

    def test_single_vertex(self):
        b = neighborhood_regression(np.array([[1.0, 2.0, 3.0]]), rho=0.1)
        assert b.b.shape == (1, 1)
        assert b.b[0, 0] == 0.0

    def test_report_flags_unconverged_rows(self):
        x = np.random.default_rng(12).normal(size=(6, 200))
        report: dict = {}
        neighborhood_regression(x, rho=0.05, max_iter=5, report=report)
        assert report["converged"] is False
        assert report["unconverged_rows"] == list(range(6))

    def test_report_converged(self):
        report: dict = {}
        neighborhood_regression(chain4_observations(400), rho=0.0, report=report)
        assert report == {"converged": True, "unconverged_rows": []}

    def test_row_error_carries_vertex_index(self):
        x = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="vertex 0"):
            neighborhood_regression(x, rho=0.1)


class TestSymmetrizeGeometric:
    def test_chain_coefficients(self):
        g = symmetrize_geometric(BetaMatrix(BETA_CHAIN))
        np.testing.assert_allclose(g.w, W_CHAIN, atol=1e-12)
        assert g.w[2, 3] == pytest.approx(1.0 / np.sqrt(2.0))

    def test_symmetric_input_passes_through(self):
        b = np.array([[0.0, 0.3], [0.3, 0.0]])
        g = symmetrize_geometric(BetaMatrix(b))
        np.testing.assert_allclose(g.w, b)

    def test_zero_annihilates(self):
        b = np.array([[0.0, 0.2], [0.0, 0.0]])
        g = symmetrize_geometric(BetaMatrix(b))
        assert g.w[0, 1] == 0.0

    def test_negative_pair_rejected(self):
        b = np.array([[0.0, -0.2], [0.3, 0.0]])
        with pytest.raises(ValueError, match="clamp_negative"):
            symmetrize_geometric(BetaMatrix(b))

    def test_negative_pair_clamped(self):
        b = np.array([[0.0, -0.2], [0.3, 0.0]])
        g = symmetrize_geometric(BetaMatrix(b), clamp_negative=True)
        assert g.w[0, 1] == 0.0


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
        np.testing.assert_array_equal(y.x, x)

    def test_invalid_parameters(self):
        x = np.ones((3, 3))
        with pytest.raises(ValueError):
            smooth_learn(x, alpha=1.0, beta=0.0)
        with pytest.raises(ValueError):
            smooth_learn(x, alpha=-0.1, beta=1.0)


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
