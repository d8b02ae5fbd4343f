"""Tests for circuit solves, random-walk quantities, PageRank, label
propagation, and sparse source recovery."""

import numpy as np
import pytest

from graphtopo.core import DirectedGraph, Graph, NumericalError, laplacian
from graphtopo.physical import (
    BoundaryCondition,
    absorbing_probabilities,
    circuit_solve,
    commute_time,
    effective_resistance,
    hitting_times,
    label_propagation,
    monte_carlo_hitting,
    pagerank,
    sparse_source_denoise,
    walk_steady_state,
)

from conftest import random_connected_graph

PAGES_SCORES = np.array([1.33, 1.52, 2.18, 0.79, 0.55, 0.18, 0.48, 0.97])

BENCH_HITTING_TO_3 = np.array(
    [9.0155, 11.3003, 9.5942, 0.0, 12.6594, 13.1427, 6.193, 10.386])


def path_graph(n, weights=None):
    w = np.zeros((n, n))
    for i in range(n - 1):
        wt = 1.0 if weights is None else weights[i]
        w[i, i + 1] = w[i + 1, i] = wt
    return Graph.from_weights(w)


class TestBoundaryCondition:
    def test_requires_at_least_one_pin(self):
        with pytest.raises(ValueError):
            BoundaryCondition({})

    def test_indices_sorted_and_checked(self):
        bc = BoundaryCondition({4: 1.0, 1: 2.0})
        assert bc.indices(6).tolist() == [1, 4]
        assert bc.values(6).tolist() == [2.0, 1.0]
        with pytest.raises(ValueError):
            bc.indices(3)


class TestCircuitSolve:
    def test_three_pinned_vertices_recover_benchmark_potentials(self, bench8):
        bc = BoundaryCondition({2: 7.13, 5: 8.18, 7: 0.0})
        x = circuit_solve(laplacian(bench8), bc)
        expected = np.array([6.71, 6.88, 7.13, 5.25, 6.67, 8.18, 2.62, 0.0])
        np.testing.assert_allclose(x, expected, atol=5e-3)
        # free vertices carry no external current
        flux = laplacian(bench8).l @ x
        free = [0, 1, 3, 4, 6]
        assert np.max(np.abs(flux[free])) < 1e-10

    def test_all_vertices_fixed_returns_pins(self, bench8):
        bc = BoundaryCondition({i: float(i) for i in range(8)})
        x = circuit_solve(laplacian(bench8), bc)
        np.testing.assert_array_equal(x, np.arange(8.0))

    def test_injected_current_across_single_edge(self):
        g = Graph.from_weights(np.array([[0.0, 2.0], [2.0, 0.0]]))
        x = circuit_solve(laplacian(g), BoundaryCondition({0: 0.0}),
                          sources=[0.0, 1.0])
        assert x[1] == pytest.approx(1.0 / 2.0, abs=1e-12)

    def test_maximum_principle_without_sources(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_connected_graph(rng, 7)
            pins = {0: rng.uniform(-3, 3), 4: rng.uniform(-3, 3)}
            x = circuit_solve(laplacian(g), BoundaryCondition(pins))
            lo, hi = min(pins.values()), max(pins.values())
            assert np.all(x >= lo - 1e-10)
            assert np.all(x <= hi + 1e-10)

    def test_unpinned_component_raises(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        g = Graph.from_weights(w)
        with pytest.raises(NumericalError):
            circuit_solve(laplacian(g), BoundaryCondition({0: 1.0}))

    def test_source_length_mismatch(self, bench8):
        with pytest.raises(ValueError):
            circuit_solve(laplacian(bench8), BoundaryCondition({0: 1.0}),
                          sources=[1.0, 2.0])


class TestPageRank:
    def test_converged_scores_match_published_ranking(self, pages8):
        res = pagerank(pages8, tol=1e-6)
        assert res.converged
        np.testing.assert_allclose(res.scores, PAGES_SCORES, atol=0.01)
        assert res.scores.mean() == pytest.approx(1.0, abs=1e-12)

    def test_twenty_iterations_already_within_a_percent(self, pages8):
        res = pagerank(pages8, tol=1e-6, max_iter=20)
        np.testing.assert_allclose(res.scores, PAGES_SCORES, atol=0.01)

    def test_scores_are_the_unit_eigenvector(self, pages8):
        res = pagerank(pages8, tol=1e-10, max_iter=5000)
        w = pages8.w
        w_n = w.T / w.sum(axis=1)[None, :]
        assert np.max(np.abs(w_n @ res.scores - res.scores)) < 1e-8

        vals, vecs = np.linalg.eig(w_n)
        k = np.argmin(np.abs(vals - 1.0))
        v = np.real(vecs[:, k])
        v = v / v.mean()
        np.testing.assert_allclose(res.scores, v, atol=1e-6)

    def test_directed_cycle_is_uniform(self):
        w = np.zeros((4, 4))
        for i in range(4):
            w[i, (i + 1) % 4] = 1.0
        res = pagerank(DirectedGraph.from_weights(w))
        assert res.converged
        assert res.iterations == 1
        np.testing.assert_allclose(res.scores, np.ones(4), atol=1e-12)

    def test_damped_fixed_point(self, pages8):
        teleport, scale = 0.15, 0.85
        res = pagerank(pages8, damping=(teleport, scale), tol=1e-12,
                       max_iter=5000)
        assert res.converged
        w = pages8.w
        w_n = w.T / w.sum(axis=1)[None, :]
        exact = np.linalg.solve(np.eye(8) - scale * w_n,
                                np.full(8, teleport))
        np.testing.assert_allclose(res.scores, exact, atol=1e-9)

    def test_dangling_vertex_is_named(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        with pytest.raises(ValueError, match="vertex 2"):
            pagerank(DirectedGraph.from_weights(w))

    def test_result_supports_array_protocol(self, pages8):
        res = pagerank(pages8)
        np.testing.assert_array_equal(np.asarray(res), res.scores)


class TestAbsorbing:
    def test_social_graph_absorption_probabilities(self, social8):
        bc = BoundaryCondition({3: 0.0, 4: 1.0})
        x = absorbing_probabilities(social8, bc)
        expected = np.array([0.375, 0.625, 0.5, 0.0, 1.0, 0.875, 0.375, 0.75])
        np.testing.assert_allclose(x, expected, atol=1e-9)

    def test_complement_sums_to_one(self, social8):
        a = absorbing_probabilities(social8, BoundaryCondition({3: 0.0, 4: 1.0}))
        b = absorbing_probabilities(social8, BoundaryCondition({3: 1.0, 4: 0.0}))
        np.testing.assert_allclose(a + b, np.ones(8), atol=1e-12)

    def test_weighted_path_splits_by_conductance(self):
        g = path_graph(3, weights=[1.0, 3.0])
        x = absorbing_probabilities(g, BoundaryCondition({0: 0.0, 2: 1.0}))
        # middle vertex reaches the right absorber with odds 3 : 1
        assert x[1] == pytest.approx(0.75, abs=1e-12)


class TestHittingTimes:
    def test_benchmark_times_to_vertex_3(self, bench8):
        h = hitting_times(bench8, 3)
        np.testing.assert_allclose(h, BENCH_HITTING_TO_3, atol=1e-3)
        assert h[3] == 0.0

    def test_single_edge_takes_one_step(self):
        g = Graph.from_weights(np.array([[0.0, 0.7], [0.7, 0.0]]))
        h = hitting_times(g, 1)
        assert h[0] == pytest.approx(1.0, abs=1e-12)

    def test_first_step_recursion(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_connected_graph(rng, 6)
            h = hitting_times(g, 2)
            p = g.w / g.w.sum(axis=1, keepdims=True)
            for v in range(6):
                if v == 2:
                    continue
                assert h[v] == pytest.approx(1.0 + p[v] @ h, abs=1e-8)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(21)
        g = random_connected_graph(rng, 5, p_edge=0.6)
        exact = hitting_times(g, 0)[3]
        mean, stderr = monte_carlo_hitting(g, 3, 0, walks=200_000, seed=99)
        assert stderr > 0
        assert abs(mean - exact) < 4 * stderr

    def test_disconnected_graph_raises(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        with pytest.raises(NumericalError):
            hitting_times(Graph.from_weights(w), 0)

    def test_target_out_of_range(self, bench8):
        with pytest.raises(ValueError):
            hitting_times(bench8, 8)


class TestMonteCarloHitting:
    def test_start_equals_target(self, bench8):
        assert monte_carlo_hitting(bench8, 2, 2, walks=10, seed=0) == (0.0, 0.0)

    def test_seed_reproducibility(self, bench8):
        a = monte_carlo_hitting(bench8, 7, 0, walks=500, seed=42)
        b = monte_carlo_hitting(bench8, 7, 0, walks=500, seed=42)
        c = monte_carlo_hitting(bench8, 7, 0, walks=500, seed=43)
        assert a == b
        assert a != c

    def test_step_cap_raises(self, bench8):
        with pytest.raises(NumericalError):
            monte_carlo_hitting(bench8, 7, 0, walks=50, seed=1, max_steps=2)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_unreached_isolated_vertex_changes_nothing(self, bench8):
        # vertex 3 of the padded graph has no edges; the walks on the other
        # vertices draw the same numbers and take the same steps
        keep = [0, 1, 2, 4, 5, 6, 7, 8]
        w = np.zeros((9, 9))
        w[np.ix_(keep, keep)] = bench8.w
        padded = Graph.from_weights(w)
        assert (monte_carlo_hitting(padded, 8, 0, walks=2000, seed=7)
                == monte_carlo_hitting(bench8, 7, 0, walks=2000, seed=7))


class TestResistanceAndCommute:
    def test_single_edge_is_reciprocal_weight(self):
        g = Graph.from_weights(np.array([[0.0, 4.0], [4.0, 0.0]]))
        assert effective_resistance(g, 0, 1) == pytest.approx(0.25, abs=1e-12)

    def test_unit_triangle(self):
        w = np.ones((3, 3)) - np.eye(3)
        g = Graph.from_weights(w)
        for m in range(3):
            for n in range(m + 1, 3):
                assert effective_resistance(g, m, n) == pytest.approx(
                    2.0 / 3.0, abs=1e-12)

    def test_series_and_parallel_reduction(self):
        # path 0-1-2: resistances add in series
        g = path_graph(3, weights=[2.0, 4.0])
        assert effective_resistance(g, 0, 2) == pytest.approx(
            1.0 / 2.0 + 1.0 / 4.0, abs=1e-12)
        # unit 4-cycle: one edge in parallel with three in series
        w = np.zeros((4, 4))
        for i in range(4):
            j = (i + 1) % 4
            w[i, j] = w[j, i] = 1.0
        g4 = Graph.from_weights(w)
        assert effective_resistance(g4, 0, 1) == pytest.approx(0.75, abs=1e-12)

    def test_benchmark_resistance_and_commute(self, bench8):
        r = effective_resistance(bench8, 7, 0)
        assert r == pytest.approx(4.0745, abs=1e-3)
        ct = commute_time(bench8, 7, 0)
        assert ct == pytest.approx(30.3960, abs=1e-3)
        h_to_0 = hitting_times(bench8, 0)
        h_to_7 = hitting_times(bench8, 7)
        assert ct == pytest.approx(h_to_0[7] + h_to_7[0], abs=1e-6)

    def test_commute_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = random_connected_graph(rng, 7)
            assert commute_time(g, 1, 5) == pytest.approx(
                commute_time(g, 5, 1), abs=1e-9)

    def test_resistance_triangle_inequality(self):
        rng = np.random.default_rng(17)
        g = random_connected_graph(rng, 8)
        for a, b, c in [(0, 3, 6), (1, 2, 7), (4, 0, 5), (2, 6, 1)]:
            r_ac = effective_resistance(g, a, c)
            r_ab = effective_resistance(g, a, b)
            r_bc = effective_resistance(g, b, c)
            assert r_ac <= r_ab + r_bc + 1e-12

    def test_same_vertex_and_disconnected(self, bench8):
        assert effective_resistance(bench8, 4, 4) == 0.0
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        with pytest.raises(NumericalError):
            effective_resistance(Graph.from_weights(w), 0, 2)


class TestLabelPropagation:
    def test_all_labeled_returns_labels(self, bench8):
        bc = BoundaryCondition({i: float(i % 3) for i in range(8)})
        x = label_propagation(bench8, bc)
        np.testing.assert_array_equal(x, np.array([i % 3 for i in range(8)], float))

    def test_path_midpoint(self):
        g = path_graph(3)
        x = label_propagation(g, BoundaryCondition({0: 0.0, 2: 1.0}))
        assert x[1] == pytest.approx(0.5, abs=1e-8)

    def test_matches_harmonic_closed_form(self):
        rng = np.random.default_rng(14)
        g = random_connected_graph(rng, 10)
        labeled = np.array([0, 4, 9])
        vals = np.array([1.0, -2.0, 0.5])
        x = label_propagation(g, BoundaryCondition(dict(zip(labeled.tolist(),
                                                            vals.tolist()))))
        s = g.w / g.w.sum(axis=1, keepdims=True)
        free = np.setdiff1d(np.arange(10), labeled)
        closed = np.linalg.solve(np.eye(free.size) - s[np.ix_(free, free)],
                                 s[np.ix_(free, labeled)] @ vals)
        np.testing.assert_allclose(x[free], closed, atol=1e-8)
        np.testing.assert_array_equal(x[labeled], vals)

    def test_stays_inside_label_range(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            g = random_connected_graph(rng, 9)
            x = label_propagation(g, BoundaryCondition({0: -1.0, 8: 1.0}))
            assert np.all(x >= -1.0 - 1e-12)
            assert np.all(x <= 1.0 + 1e-12)

    def test_unlabeled_component_raises(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        with pytest.raises(ValueError, match="component"):
            label_propagation(Graph.from_weights(w), BoundaryCondition({0: 1.0}))

    def test_sweep_cap_raises(self):
        # the free end starts at the label mean 0.5 and the first sweep moves it to 1
        with pytest.raises(NumericalError, match="did not converge in 1 sweeps"):
            label_propagation(path_graph(3), BoundaryCondition({0: 0.0, 1: 1.0}),
                              max_iter=1)


class TestSparseSourceDenoise:
    @staticmethod
    def _planted_signal(n, chosen, mags, reference=0):
        g = path_graph(n)
        lap = laplacian(g)
        keep = np.setdiff1d(np.arange(n), [reference])
        inv_red = np.linalg.inv(lap.l[np.ix_(keep, keep)])
        pos = np.searchsorted(keep, chosen)
        x = np.zeros(n)
        x[keep] = inv_red[:, pos] @ mags
        return lap, x

    def test_noiseless_sources_recovered_exactly(self):
        lap, x = self._planted_signal(8, np.array([2, 5]), np.array([1.0, -0.6]))
        out = sparse_source_denoise(lap, x, k=2, reference=0)
        np.testing.assert_allclose(out, x, atol=1e-8)

    def test_full_rank_fit_reproduces_signal(self):
        rng = np.random.default_rng(2)
        g = path_graph(6)
        lap = laplacian(g)
        y = rng.normal(size=6)
        out = sparse_source_denoise(lap, y, k=5, reference=3)
        # with every column available the fit interpolates y off the pin
        assert out[3] == 0.0
        others = np.arange(6) != 3
        np.testing.assert_allclose(out[others], y[others], atol=1e-10)

    def test_snr_improves_on_noisy_signal(self):
        lap, x = self._planted_signal(
            100,
            np.array([10, 30, 55, 70, 90]),
            np.array([1.0, -0.8, 1.3, 0.9, -1.1]))
        rng = np.random.default_rng(7)
        y = x + rng.normal(0, 0.1, 100)

        def snr(est):
            return 10 * np.log10(np.sum(x ** 2) / np.sum((x - est) ** 2))

        out = sparse_source_denoise(lap, y, k=5, reference=0)
        assert snr(out) - snr(y) >= 6.0

    def test_argument_validation(self):
        g = path_graph(5)
        lap = laplacian(g)
        y = np.zeros(5)
        with pytest.raises(ValueError):
            sparse_source_denoise(lap, y, k=0, reference=0)
        with pytest.raises(ValueError):
            sparse_source_denoise(lap, y, k=5, reference=0)
        with pytest.raises(ValueError):
            sparse_source_denoise(lap, y, k=1, reference=9)
        with pytest.raises(ValueError):
            sparse_source_denoise(lap, np.zeros(4), k=1, reference=0)


class TestWalkSteadyState:
    def test_star_amplitudes(self):
        w = np.zeros((4, 4))
        for leaf in (1, 2, 3):
            w[0, leaf] = w[leaf, 0] = 1.0
        x = walk_steady_state(Graph.from_weights(w))
        assert x[0] == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
        np.testing.assert_allclose(x[1:], 0.5, atol=1e-12)

    def test_regular_graph_is_constant(self):
        w = np.zeros((5, 5))
        for i in range(5):
            j = (i + 1) % 5
            w[i, j] = w[j, i] = 1.0
        x = walk_steady_state(Graph.from_weights(w))
        np.testing.assert_allclose(x, np.sqrt(2.0 / 5.0), atol=1e-12)

    def test_squared_mass_equals_mean_degree(self, bench8):
        x = walk_steady_state(bench8)
        assert np.sum(x ** 2) == pytest.approx(bench8.degrees().sum() / 8,
                                               abs=1e-12)

    def test_edge_centric_and_normalize(self, bench8):
        x = walk_steady_state(bench8, kind="edge_centric")
        np.testing.assert_allclose(x, 1.0 / np.sqrt(8), atol=1e-15)
        y = walk_steady_state(bench8, normalize=True)
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_kind(self, bench8):
        with pytest.raises(ValueError):
            walk_steady_state(bench8, kind="sideways")
