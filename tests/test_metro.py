"""Tests for network centrality, vitality, and flow-based population."""

import tracemalloc
from collections import deque

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from graphtopo import metro
from graphtopo.core import Graph, NumericalError, laplacian, pseudo_inverse
from graphtopo.metro import betweenness, closeness_vitality, fick_population

from conftest import barbell_graph, random_connected_graph


def path_graph(n):
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return Graph.from_weights(w)


def complete_graph(n):
    w = np.ones((n, n)) - np.eye(n)
    return Graph.from_weights(w)


def pair_dependency_betweenness(g):
    """Independent oracle: B_n = sum over pairs (k, m) of
    sigma(k, n) sigma(n, m) / sigma(k, m) whenever n lies on a shortest
    k-m path, with path counts from per-source BFS layering."""
    n = g.n
    adj = [np.flatnonzero(g.w[v] > 0) for v in range(n)]
    dist = np.full((n, n), np.inf)
    sigma = np.zeros((n, n))
    for s in range(n):
        dist[s, s] = 0
        sigma[s, s] = 1
        frontier = [s]
        d = 0
        while frontier:
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if np.isinf(dist[s, u]):
                        dist[s, u] = d + 1
                        nxt.append(int(u))
                    if dist[s, u] == d + 1:
                        sigma[s, u] += sigma[s, v]
            frontier = nxt
            d += 1
    scores = np.zeros(n)
    for k in range(n):
        for m in range(k + 1, n):
            if not np.isfinite(dist[k, m]):
                continue
            for v in range(n):
                if v in (k, m):
                    continue
                if dist[k, v] + dist[v, m] == dist[k, m]:
                    scores[v] += sigma[k, v] * sigma[v, m] / sigma[k, m]
    return scores


class TestBetweenness:
    def test_star_center_carries_all_pairs(self):
        w = np.zeros((5, 5))
        w[0, 1:] = w[1:, 0] = 1.0
        b = betweenness(Graph.from_weights(w))
        np.testing.assert_allclose(b, [6.0, 0, 0, 0, 0], atol=1e-12)

    def test_path_of_four(self):
        b = betweenness(path_graph(4))
        np.testing.assert_allclose(b, [0.0, 2.0, 2.0, 0.0], atol=1e-12)

    def test_complete_graph_has_no_intermediaries(self):
        np.testing.assert_allclose(betweenness(complete_graph(5)),
                                   np.zeros(5), atol=1e-12)

    def test_matches_pair_dependency_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            g = random_connected_graph(rng, 8, p_edge=0.35)
            np.testing.assert_allclose(betweenness(g),
                                       pair_dependency_betweenness(g),
                                       atol=1e-10)

    def test_only_hop_structure_matters(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 7)
        boosted = Graph.from_weights(np.where(g.w > 0, g.w * 7.5, 0.0))
        np.testing.assert_allclose(betweenness(g), betweenness(boosted),
                                   atol=1e-12)

    def test_disconnected_counts_within_components(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[1, 2] = w[2, 1] = 1.0
        b = betweenness(Graph.from_weights(w))
        np.testing.assert_allclose(b, [0.0, 1.0, 0.0, 0.0], atol=1e-12)


def csgraph_vitality(g):
    """Reference: one csgraph all-pairs search for the graph and one for
    each removal, summed over the pairs with a finite distance."""
    hops = g.w > 0

    def pairs(h):
        dist = shortest_path(h, unweighted=True, directed=False)
        finite = np.isfinite(dist)
        np.fill_diagonal(finite, False)
        return dist, dist[finite].sum() / 2, np.count_nonzero(finite) // 2

    dist, base_sum, base_pairs = pairs(hops)
    reach = np.count_nonzero(np.isfinite(dist), axis=1) - 1
    out = np.zeros(g.n)
    for v in range(g.n):
        keep = np.arange(g.n) != v
        _, reduced_sum, reduced_pairs = pairs(hops[np.ix_(keep, keep)])
        out[v] = np.inf if reduced_pairs < base_pairs - reach[v] else base_sum - reduced_sum
    return out


def random_graph(rng, n, p_edge, isolated=()):
    upper = np.triu(rng.random((n, n)) < p_edge, 1)
    w = (upper | upper.T) * rng.uniform(0.5, 2.0, size=(n, n))
    w = np.maximum(w, w.T)
    w[list(isolated)] = 0.0
    w[:, list(isolated)] = 0.0
    return Graph.from_weights(w)


def vitality_cases():
    """Seeded graphs with isolated vertices (also last), edgeless graphs,
    vertex counts on either side of the 64-bit word size, and a long path."""
    rng = np.random.default_rng(70)
    cases = []
    for k in range(30):
        n = int(rng.integers(2, 25))
        isolated = rng.choice(n, size=int(rng.integers(0, 3)), replace=False)
        cases.append((f"random{k}", random_graph(rng, n, rng.uniform(0.05, 0.6), isolated)))
    cases.append(("trailing_isolated", random_graph(rng, 12, 0.3, isolated=(9, 10, 11))))
    cases.append(("one_edge_then_isolated",
                  Graph.from_weights(np.pad(np.ones((2, 2)) - np.eye(2), (0, 8)))))
    for n in (1, 5):
        cases.append((f"edgeless{n}", Graph.from_weights(np.zeros((n, n)))))
    for n in (1, 63, 64, 65, 128, 129):
        cases.append((f"n{n}", random_graph(rng, n, 3.0 / n, isolated=(0, n - 1))))
    cases.append(("path200", path_graph(200)))
    return [pytest.param(g, id=name) for name, g in cases]


def loop_betweenness(g):
    """Reference: Brandes' algorithm with one breadth-first search per
    source and a Python loop over every neighbour."""
    n = g.n
    adj = [np.flatnonzero(g.w[v] > 0) for v in range(n)]
    scores = np.zeros(n)
    for s in range(n):
        dist = np.full(n, -1)
        sigma = np.zeros(n)
        dist[s] = 0
        sigma[s] = 1.0
        order = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in adj[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(int(u))
                if dist[u] == dist[v] + 1:
                    sigma[u] += sigma[v]
        delta = np.zeros(n)
        for v in reversed(order):
            for u in adj[v]:
                if dist[u] == dist[v] + 1:
                    delta[v] += sigma[v] / sigma[u] * (1.0 + delta[u])
            if v != s:
                scores[v] += delta[v]
    return scores / 2.0


def betweenness_cases():
    """Seeded graphs, some disconnected and some with isolated vertices,
    and the graphs on 0, 1 and 2 vertices."""
    rng = np.random.default_rng(80)
    cases = []
    for k in range(20):
        n = int(rng.integers(3, 30))
        isolated = rng.choice(n, size=int(rng.integers(0, 3)), replace=False)
        cases.append((f"random{k}", random_graph(rng, n, rng.uniform(0.05, 0.5), isolated)))
    for n in (0, 1, 2):
        cases.append((f"edgeless{n}", Graph.from_weights(np.zeros((n, n)))))
    cases.append(("edge2", Graph.from_weights(np.ones((2, 2)) - np.eye(2))))
    return [pytest.param(g, id=name) for name, g in cases]


class TestBetweennessBlocks:
    # sources per block; 2, 3 and 7 do not divide most vertex counts
    @pytest.mark.parametrize("block", [1, 2, 3, 7, None])
    @pytest.mark.parametrize("g", betweenness_cases())
    def test_matches_loop(self, g, block, monkeypatch):
        nnz = np.count_nonzero(g.w)
        if block is not None and nnz:
            monkeypatch.setattr(metro, "_GATHER_FLOATS", block * nnz)
        np.testing.assert_allclose(betweenness(g), loop_betweenness(g), rtol=0, atol=1e-12)

    def test_blocks_bound_memory(self):
        # one gather over all 300 sources would hold about 45,000 x 300
        # floats (107 MB); blocks keep it near _GATHER_FLOATS (8 MB)
        g = random_graph(np.random.default_rng(90), 300, 0.5)
        tracemalloc.start()
        try:
            betweenness(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestClosenessVitality:
    @pytest.mark.parametrize("g", vitality_cases())
    def test_equals_csgraph_reference(self, g):
        got = closeness_vitality(g)
        assert np.array_equal(got, csgraph_vitality(g))

    def test_path_of_three(self):
        v = closeness_vitality(path_graph(3))
        assert v[0] == pytest.approx(3.0)
        assert v[2] == pytest.approx(3.0)
        assert np.isinf(v[1])

    def test_complete_graph_is_uniform(self):
        np.testing.assert_allclose(closeness_vitality(complete_graph(4)),
                                   np.full(4, 3.0), atol=1e-12)

    def test_matches_recomputation_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(5):
            g = random_connected_graph(rng, 8, p_edge=0.4)
            hops = (g.w > 0).astype(float)
            base = shortest_path(hops, unweighted=True)
            base_total = base[np.isfinite(base)].sum() / 2
            expected = np.zeros(8)
            for v in range(8):
                keep = [u for u in range(8) if u != v]
                sub = shortest_path(hops[np.ix_(keep, keep)], unweighted=True)
                if np.isinf(sub).any():
                    expected[v] = np.inf
                else:
                    expected[v] = base_total - sub.sum() / 2
            np.testing.assert_allclose(closeness_vitality(g), expected)

    def test_disconnected_base_graph(self):
        w = np.zeros((6, 6))
        for a, b in [(0, 1), (1, 2), (3, 4), (4, 5)]:
            w[a, b] = w[b, a] = 1.0
        v = closeness_vitality(Graph.from_weights(w))
        assert v[0] == pytest.approx(3.0)
        assert np.isinf(v[1])
        assert v[3] == pytest.approx(3.0)
        assert np.isinf(v[4])


class TestFickPopulation:
    def test_zero_flow_means_flat_population(self, bench8):
        out = fick_population(laplacian(bench8), np.zeros(8), k=2.0)
        np.testing.assert_allclose(out, np.zeros(8), atol=1e-12)

    def test_two_vertex_exchange(self):
        g = path_graph(2)
        out = fick_population(laplacian(g), [1.0, -1.0], k=1.0)
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_round_trip_recovers_planted_profile(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(4, 12))
            g = random_connected_graph(rng, n)
            lap = laplacian(g)
            phi = rng.normal(size=n)
            q = -2.5 * (lap.l @ phi)
            out = fick_population(lap, q, k=2.5)
            np.testing.assert_allclose(out, phi - phi.min(), atol=1e-8)

    def test_residual_of_estimate(self, bench8):
        rng = np.random.default_rng(9)
        lap = laplacian(bench8)
        q = rng.normal(size=8)
        q -= q.mean()
        out = fick_population(lap, q, k=0.7)
        np.testing.assert_allclose(lap.l @ out, -q / 0.7, atol=1e-10)

    def test_minimum_is_zero(self, bench8):
        rng = np.random.default_rng(2)
        q = rng.normal(size=8)
        q -= q.mean()
        out = fick_population(laplacian(bench8), q, k=1.0)
        assert out.min() == 0.0

    def test_argument_validation(self, bench8):
        lap = laplacian(bench8)
        with pytest.raises(ValueError):
            fick_population(lap, np.zeros(8), k=0.0)
        with pytest.raises(ValueError):
            fick_population(lap, np.zeros(8), k=-1.0)
        with pytest.raises(ValueError):
            fick_population(lap, np.zeros(5), k=1.0)
        with pytest.raises(ValueError, match="non-finite"):
            fick_population(lap, np.array([1.0, np.nan, *np.zeros(6)]), k=1.0)

    def test_disconnected_graph_is_rejected(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        lap = laplacian(Graph.from_weights(w))
        with pytest.raises(NumericalError):
            fick_population(lap, np.zeros(4), k=1.0)


def _pinv_population(l, q, k):
    """fick_population through the full pseudo-inverse."""
    phi = -pseudo_inverse(l.l) @ q / k
    return phi - phi.min()


class TestFickPopulationOracle:
    def test_matches_pseudo_inverse(self):
        # 20 seeded random connected graphs of 4 to 40 vertices, with
        # balanced flows and with flows of mean 3. The shift to a zero
        # minimum cancels, so the tolerance is relative to the largest entry.
        rng = np.random.default_rng(2020)
        for _ in range(20):
            n = int(rng.integers(4, 41))
            lap = laplacian(random_connected_graph(rng, n,
                                                   p_edge=float(rng.uniform(0.1, 0.6))))
            balanced = rng.normal(size=n)
            balanced -= balanced.mean()
            for q in (balanced, rng.normal(size=n) + 3.0):
                old = _pinv_population(lap, q, 1.7)
                np.testing.assert_allclose(fick_population(lap, q, 1.7), old,
                                           rtol=1e-12, atol=1e-12 * np.max(np.abs(old)))

    @pytest.mark.parametrize("bridge", [1e-5, 1e-7])
    def test_weak_bridge(self, bridge):
        # a unit flow from vertex 0 to vertex 99 of a barbell: the population
        # rises by the effective resistance 1/bridge + 0.08 between them
        lap = laplacian(barbell_graph(50, bridge))
        q = np.zeros(100)
        q[0], q[99] = 1.0, -1.0
        p = fick_population(lap, q, 1.0)
        assert p[0] == 0.0
        assert p[99] == pytest.approx(1.0 / bridge + 0.08, rel=1e-12 / bridge, abs=0)
        if bridge == 1e-5:
            # the pseudo-inverse keeps lambda2 here, and errs by about 1.6e-8
            np.testing.assert_allclose(p, _pinv_population(lap, q, 1.0), rtol=0,
                                       atol=1e-7 * p.max())

    def test_other_laplacian_kinds_are_refused(self, bench8):
        with pytest.raises(ValueError, match="combinatorial"):
            fick_population(laplacian(bench8, kind="normalized"), np.zeros(8), k=1.0)


def terminus_graph(rng, n_core=45, n_lines=5, line_len=3):
    """Connected random core with short branch lines hanging off it; every
    vertex on a branch line except its terminus is a cut vertex."""
    core = random_connected_graph(rng, n_core, p_edge=0.08)
    n = n_core + n_lines * line_len
    w = np.zeros((n, n))
    w[:n_core, :n_core] = core.w
    v = n_core
    for _ in range(n_lines):
        prev = int(rng.integers(n_core))
        for _ in range(line_len):
            w[prev, v] = w[v, prev] = 1.0
            prev, v = v, v + 1
    return Graph.from_weights(w)


class TestNetworkxOracle:
    @pytest.fixture(scope="class")
    def case(self):
        nx = pytest.importorskip("networkx")
        g = terminus_graph(np.random.default_rng(60))
        return g, nx.from_numpy_array((g.w > 0).astype(int))

    def test_betweenness(self, case):
        import networkx as nx
        g, ref = case
        expected = nx.betweenness_centrality(ref, normalized=False)
        np.testing.assert_allclose(betweenness(g), [expected[v] for v in range(g.n)],
                                   rtol=0, atol=1e-12)

    def test_closeness_vitality(self, case):
        import networkx as nx
        g, ref = case
        expected = nx.closeness_vitality(ref)
        expected = np.array([expected[v] for v in range(g.n)])
        got = closeness_vitality(g)
        # networkx scores a disconnecting removal -inf (finite minus infinite
        # Wiener index); this module scores it +inf
        assert np.any(np.isinf(got))
        assert np.array_equal(np.isposinf(got), np.isinf(expected))
        finite = np.isfinite(got)
        np.testing.assert_allclose(got[finite], expected[finite], rtol=0, atol=1e-12)
