"""Tests for circuit solves, random-walk quantities, PageRank, label
propagation, and sparse source recovery."""

import warnings

import numpy as np
import pytest

from graphtopo.core import (DirectedGraph, Graph, Laplacian, NumericalError, laplacian,
                            pseudo_inverse)
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

from conftest import barbell_graph, random_connected_graph

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
        for sources in (None, np.eye(4)):
            with pytest.raises(NumericalError, match="vertex 2 has no fixed vertex"):
                circuit_solve(laplacian(g), BoundaryCondition({0: 1.0}), sources)

    def test_unpinned_component_raises_where_rounding_hides_it(self):
        # with uneven weights the unpinned block is singular only up to
        # rounding: LAPACK mostly factors it and the residual stays small
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = np.zeros((12, 12))
            w[:6, :6] = random_connected_graph(rng, 6).w
            w[6:, 6:] = random_connected_graph(rng, 6).w
            with pytest.raises(NumericalError, match="vertex 6 has no fixed vertex"):
                circuit_solve(laplacian(Graph.from_weights(w)), BoundaryCondition({0: 1.0}),
                              sources=rng.normal(size=12))

    def test_generalized_excess_grounds_an_unpinned_component(self):
        # a self-loop excess on the second component makes its block regular
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        q = Laplacian(laplacian(Graph.from_weights(w)).l + np.diag([0, 0, 0, 0.5]),
                      kind="generalized")
        x = circuit_solve(q, BoundaryCondition({0: 1.0}), sources=[0.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(x, [1.0, 1.0, 3.0, 2.0], rtol=1e-12)

    def test_source_length_mismatch(self, bench8):
        with pytest.raises(ValueError):
            circuit_solve(laplacian(bench8), BoundaryCondition({0: 1.0}),
                          sources=[1.0, 2.0])
        with pytest.raises(ValueError):
            circuit_solve(laplacian(bench8), BoundaryCondition({0: 1.0}),
                          sources=np.eye(7))

    def test_block_columns_match_single_solves(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(4, 30)))
            bc = BoundaryCondition({0: rng.normal(), g.n - 1: rng.normal()})
            block = rng.normal(size=(g.n, 5))
            x = circuit_solve(laplacian(g), bc, block)
            assert x.shape == (g.n, 5)
            for j in range(5):
                np.testing.assert_allclose(x[:, j], circuit_solve(laplacian(g), bc, block[:, j]),
                                           rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(x[[0, g.n - 1]],
                                          np.repeat(bc.values(g.n)[:, None], 5, axis=1))

    def test_block_of_unit_currents_is_the_reduced_inverse(self):
        # both are LAPACK gesv on identity columns: simulate's K, grounded
        # at vertex 0, keeps the bytes of inv(L[1:, 1:])
        for g in _grounded_cases():
            k = circuit_solve(laplacian(g), BoundaryCondition({0: 0.0}), np.eye(g.n))
            np.testing.assert_array_equal(k[1:, 1:], np.linalg.inv(laplacian(g).l[1:, 1:]))
            assert not k[0].any() and not k[:, 0].any()


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
        # the draws and their order are part of the result: a seed gives the
        # same walks in every version
        assert a[0] == 10.41
        assert a[1] == pytest.approx(0.3346577230293159, rel=1e-12)

    def test_step_cap_raises(self, bench8):
        with pytest.raises(NumericalError):
            monte_carlo_hitting(bench8, 7, 0, walks=50, seed=1, max_steps=2)

    def test_unreachable_target_raises(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = w[1, 2] = w[2, 1] = 1.0
        g = Graph.from_weights(w)
        with pytest.raises(NumericalError, match="cannot be reached"):
            monte_carlo_hitting(g, 3, 2, walks=1000, seed=0)
        with pytest.raises(NumericalError, match="cannot be reached"):
            monte_carlo_hitting(g, 0, 3, walks=1000, seed=0)

    @pytest.mark.parametrize("walks", [0, 1])
    def test_too_few_walks_raise(self, bench8, walks):
        with pytest.raises(ValueError, match="walks"):
            monte_carlo_hitting(bench8, 7, 0, walks=walks, seed=0)

    def test_no_steps_raises(self, bench8):
        with pytest.raises(ValueError, match="max_steps"):
            monte_carlo_hitting(bench8, 7, 0, walks=10, seed=0, max_steps=0)

    @pytest.mark.parametrize("start, target", [(5, 0), (0, 3), (-1, 0), (0, -1)])
    def test_vertex_out_of_range_raises(self, start, target):
        with pytest.raises(ValueError, match="in \\[0, 3\\)"):
            monte_carlo_hitting(path_graph(3), start, target, walks=10, seed=0)

    def test_memory_per_walker(self):
        # blocks of walkers keep each step's temporaries small: measured
        # 2.96 MB here, 12.0 bytes per walker above a 0.56 MB intercept (a
        # loop over the whole population needed 9.3 MB, 47 bytes per
        # walker); the bound allows 15 bytes per walker plus 2 MB
        import tracemalloc
        walks = 200_000
        tracemalloc.start()
        try:
            monte_carlo_hitting(path_graph(6), 0, 5, walks=walks, seed=105)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 15 * walks + 2_000_000

    def test_isolated_vertex_raises_no_warning(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = w[1, 2] = w[2, 1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, _ = monte_carlo_hitting(Graph.from_weights(w), 0, 2, walks=100, seed=0)
        assert mean >= 2

    def test_unreached_isolated_vertex_changes_nothing(self, bench8):
        # vertex 3 of the padded graph has no edges; the walks on the other
        # vertices draw the same numbers and take the same steps
        keep = [0, 1, 2, 4, 5, 6, 7, 8]
        w = np.zeros((9, 9))
        w[np.ix_(keep, keep)] = bench8.w
        padded = Graph.from_weights(w)
        assert (monte_carlo_hitting(padded, 8, 0, walks=2000, seed=7)
                == monte_carlo_hitting(bench8, 7, 0, walks=2000, seed=7))


def _reference_walk(g, start, target, walks, seed, max_steps=1_000_000):
    """monte_carlo_hitting as one binary search per walker and step over the
    flat table of shifted CDF rows: the walks the guide table must reproduce."""
    if start == target:
        return 0.0, 0.0
    w = np.asarray(g.w, dtype=float)
    n = w.shape[0]
    deg = w.sum(axis=1)
    moves = deg > 0
    cum = np.ones((n, n))
    cum[moves] = np.cumsum(w[moves] / deg[moves, None], axis=1)
    cum[:, -1] = 1.0
    table = (cum + 2.0 * np.arange(n)[:, None]).ravel()
    rng = np.random.default_rng(seed)
    active = np.arange(walks)
    state = np.full(walks, start, dtype=np.int64)
    steps = np.zeros(walks, dtype=np.int64)
    for t in range(1, max_steps + 1):
        u = rng.random(active.size)
        state = np.searchsorted(table, u + 2.0 * state) - n * state
        hit = state == target
        if hit.any():
            steps[active[hit]] = t
            active, state = active[~hit], state[~hit]
            if not active.size:
                break
    assert not active.size
    return float(steps.mean()), float(steps.std(ddof=1) / np.sqrt(walks))


def _connected_random_graph(rng, n, p):
    """Random edges plus a path through all vertices in random order, with
    weights in [0.1, 1)."""
    w = np.triu(rng.random((n, n)) < p, 1) * rng.uniform(0.1, 1.0, (n, n))
    order = rng.permutation(n)
    a, b = np.minimum(order[:-1], order[1:]), np.maximum(order[:-1], order[1:])
    w[a, b] = rng.uniform(0.1, 1.0, n - 1)
    return Graph.from_weights(w + w.T)


def _oracle_cases():
    rng = np.random.default_rng(14)
    yield "verify-path", path_graph(6), 0, 5, 50_000
    for n, p in [(25, 0.15), (60, 0.06), (150, 0.03), (300, 0.01)]:
        yield f"sparse-{n}", _connected_random_graph(rng, n, p), 0, n - 1, 1000
    yield "dense-300", _connected_random_graph(rng, 300, 0.5), 1, 2, 1000
    # a weight of 1e-9 next to weights of 1 puts a CDF step inside a bucket
    tiny = _connected_random_graph(rng, 12, 0.4)
    w = np.where(rng.random(tiny.w.shape) < 0.5, 1e-9, 1.0) * (tiny.w > 0)
    yield "tiny-weights", Graph.from_weights(np.triu(w, 1) + np.triu(w, 1).T), 0, 11, 20_000
    padded = np.zeros((9, 9))
    keep = [0, 1, 2, 4, 5, 6, 7, 8]
    padded[np.ix_(keep, keep)] = path_graph(8, np.linspace(0.2, 1.0, 7)).w
    yield "isolated-vertex", Graph.from_weights(padded), 8, 0, 5000


ORACLE_CASES = list(_oracle_cases())


class TestMonteCarloOracle:
    """The guide table changes how the next vertex is found, not which one."""

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_matches_binary_search_walk(self, case):
        _, g, start, target, walks = case
        assert (monte_carlo_hitting(g, start, target, walks=walks, seed=5)
                == _reference_walk(g, start, target, walks=walks, seed=5))

    def test_narrow_table_falls_back_on_most_draws(self, monkeypatch):
        # a 300-cell cap leaves one bucket per vertex on a 300-vertex graph:
        # every vertex with two or more neighbours goes through the fallback
        import graphtopo.physical as physical
        monkeypatch.setattr(physical, "_GUIDE_CELLS", 300)
        _, g, start, target, walks = next(c for c in ORACLE_CASES if c[0] == "dense-300")
        assert (monte_carlo_hitting(g, start, target, walks=walks, seed=6)
                == _reference_walk(g, start, target, walks=walks, seed=6))

    def test_verify_check_value(self):
        # the walks behind `graphtopo verify`'s Monte Carlo check
        assert monte_carlo_hitting(path_graph(6), 0, 5, walks=1_000_000, seed=105) \
            == (24.988006, 0.01998963260616302)


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

    @pytest.mark.parametrize("m, n", [(-1, 0), (0, -1), (8, 0), (0, 8), (8, 8)])
    def test_vertex_out_of_range(self, bench8, m, n):
        # a negative index would otherwise read another vertex's potential
        with pytest.raises(ValueError, match="vertices"):
            effective_resistance(bench8, m, n)
        with pytest.raises(ValueError, match="vertices"):
            commute_time(bench8, m, n)


def _reduced_solve_hitting_times(g, target):
    """hitting_times as its own reduced solve, before it called circuit_solve."""
    n = g.n
    mat = laplacian(g).l
    keep = np.delete(np.arange(n), target)
    reduced = mat[np.ix_(keep, keep)]
    d = g.degrees()[keep]
    h = np.zeros(n)
    h[keep] = np.linalg.solve(reduced, d)
    return h


def _pinv_resistance(g, m, n, lp=None):
    """effective_resistance through the full pseudo-inverse lp of L,
    computed here unless given."""
    if lp is None:
        lp = pseudo_inverse(laplacian(g).l)
    e = np.zeros(g.n)
    e[m], e[n] = 1.0, -1.0
    return float(e @ lp @ e)


def _grounded_cases():
    rng = np.random.default_rng(2020)
    for _ in range(20):
        n = int(rng.integers(4, 41))
        yield random_connected_graph(rng, n, p_edge=float(rng.uniform(0.1, 0.6)))


class TestGroundedSolveOracle:
    """The grounded solves against the formulas they replace, on 20 seeded
    random connected graphs of 4 to 40 vertices."""

    def test_hitting_times_bit_identical(self):
        for g in _grounded_cases():
            for target in range(g.n):
                np.testing.assert_array_equal(hitting_times(g, target),
                                              _reduced_solve_hitting_times(g, target))

    def test_resistance_matches_pseudo_inverse(self):
        for g in _grounded_cases():
            lp = pseudo_inverse(laplacian(g).l)
            for m in range(g.n):
                for n in range(g.n):
                    if m != n:
                        assert effective_resistance(g, m, n) == pytest.approx(
                            _pinv_resistance(g, m, n, lp), rel=1e-12, abs=0)


class TestWeakBridge:
    """Two unit 50-cliques joined by one edge of weight 1e-5 or 1e-7. The
    hitting times into the far clique (about 2.5e8 and 2.5e10) and the
    resistances across (about 1/bridge) dwarf the degrees and unit currents
    on the right-hand side of the grounded solve."""

    @pytest.mark.parametrize("bridge", [1e-5, 1e-7])
    def test_hitting_times_bit_identical(self, bridge):
        g = barbell_graph(50, bridge)
        for target in (0, 49, 50, 99):
            np.testing.assert_array_equal(hitting_times(g, target),
                                          _reduced_solve_hitting_times(g, target))

    @pytest.mark.parametrize("bridge", [1e-5, 1e-7])
    def test_resistance_is_in_series(self, bridge):
        # the forward error grows with the condition number, about 1/bridge
        g = barbell_graph(50, bridge)
        assert effective_resistance(g, 0, 99) == pytest.approx(
            1.0 / bridge + 0.08, rel=1e-12 / bridge, abs=0)
        assert commute_time(g, 0, 99) == pytest.approx(
            g.degrees().sum() * (1.0 / bridge + 0.08), rel=1e-12 / bridge, abs=0)

    def test_resistance_matches_pseudo_inverse_where_it_keeps_lambda2(self):
        # lambda2 / lambdamax is about 1e-8, above the pseudo-inverse's 1e-10
        # cut; its own error here is about 1.6e-8 relative
        g = barbell_graph(50, 1e-5)
        assert effective_resistance(g, 0, 99) == pytest.approx(
            _pinv_resistance(g, 0, 99), rel=1e-7, abs=0)


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

    def test_long_path_is_linear(self):
        # the harmonic labels on a unit path are linear in the position
        x = label_propagation(path_graph(100), BoundaryCondition({0: 0.0, 99: 1.0}))
        np.testing.assert_allclose(x, np.linspace(0.0, 1.0, 100), rtol=0, atol=1e-12)


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

    def test_component_without_reference_raises(self):
        # nothing grounds the second component, so its potentials are
        # undetermined, whatever rounding lets the solve return
        rng = np.random.default_rng(3)
        for _ in range(5):
            w = np.zeros((8, 8))
            w[:4, :4] = random_connected_graph(rng, 4).w
            w[4:, 4:] = random_connected_graph(rng, 4).w
            with pytest.raises(NumericalError, match="vertex 4 has no fixed vertex"):
                sparse_source_denoise(laplacian(Graph.from_weights(w)), rng.normal(size=8),
                                      k=3, reference=0)

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

    def test_edge_centric(self, bench8):
        x = walk_steady_state(bench8, kind="edge_centric")
        np.testing.assert_allclose(x, 1.0 / np.sqrt(8), atol=1e-15)

    def test_unknown_kind(self, bench8):
        with pytest.raises(ValueError):
            walk_steady_state(bench8, kind="sideways")
