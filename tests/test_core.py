from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtopo import core
from graphtopo.core import (
    Graph,
    Laplacian,
    as_symmetric,
    connected_components,
    eig_sym,
    laplacian,
    pseudo_inverse,
    smoothness,
)
from graphtopo.learning import (PolyFitConfig, learn_from_sources, polynomial_fit_eigenvalues,
                                smooth_learn)
from graphtopo.physical import BoundaryCondition, label_propagation
from graphtopo.portfolio import spectral_bisect

from conftest import random_connected_graph, weights_from_edges


def chain4_graph() -> Graph:
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 0.5
    w[1, 2] = w[2, 1] = 0.5
    w[2, 3] = w[3, 2] = 1 / np.sqrt(2)
    return Graph.from_weights(w)


def path_graph(n: int) -> Graph:
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return Graph.from_weights(w)


class TestGraphType:
    def test_rejects_asymmetric(self):
        w = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            Graph.from_weights(w)

    def test_rejects_negative(self):
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="non-negative"):
            Graph.from_weights(w)

    def test_rejects_nonzero_diagonal(self):
        w = np.eye(3)
        with pytest.raises(ValueError, match="diagonal"):
            Graph.from_weights(w)

    def test_weights_frozen(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            g.w[0, 1] = 2.0


class TestLaplacian:
    def test_chain_diagonal(self):
        # printed diagonal of the 4-vertex chain: [0.5, 1, 1.207, 0.707]
        l = laplacian(chain4_graph())
        assert np.allclose(np.diag(l.l), [0.5, 1.0, 1.2071, 0.7071], atol=5e-4)
        assert np.allclose(l.l.sum(axis=1), 0.0, atol=1e-12)

    def test_zero_graph(self):
        g = Graph.from_weights(np.zeros((3, 3)))
        assert np.array_equal(laplacian(g).l, np.zeros((3, 3)))

    def test_row_sums_random(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(0, 1, (6, 6))
        w = np.triu(w, 1)
        w = w + w.T
        l = laplacian(Graph.from_weights(w))
        assert np.max(np.abs(l.l.sum(axis=1))) < 1e-12

    def test_normalized_unit_diagonal(self):
        l = laplacian(chain4_graph(), kind="normalized")
        assert np.allclose(np.diag(l.l), 1.0)
        vals = np.linalg.eigvalsh(l.l)
        assert vals[0] > -1e-10 and vals[-1] < 2 + 1e-10

    def test_normalized_rejects_isolated(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        with pytest.raises(ValueError, match="isolated"):
            laplacian(Graph.from_weights(w), kind="normalized")

    def test_generalized_validation(self):
        q = np.array([[2.0, -1.0], [-1.0, 2.0]])
        assert Laplacian(q, kind="generalized").kind == "generalized"
        bad = np.array([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError, match="off-diag"):
            Laplacian(bad, kind="generalized")
        with pytest.raises(ValueError, match=r'Laplacian\(q, kind="generalized"\)'):
            laplacian(chain4_graph(), kind="generalized")

    def test_default_check_averages_and_refuses(self):
        m = laplacian(chain4_graph()).l.copy()
        m[0, 1] += 1e-12
        l = Laplacian(m)
        assert np.array_equal(l.l, l.l.T) and l.l[0, 1] == (m[0, 1] + m[1, 0]) / 2
        assert m.flags.writeable and not l.l.flags.writeable
        m[0, 1] += 1e-3
        with pytest.raises(ValueError, match="laplacian must be symmetric"):
            Laplacian(m)


class TestTrustedLaplacian:
    """The Laplacians graphtopo builds are exactly symmetric already, so they
    are taken as built: no as_symmetric re-check and no averaged copy."""

    @pytest.fixture
    def checked(self, monkeypatch):
        names = []

        def counting(m, name="matrix"):
            names.append(name)
            return as_symmetric(m, name)
        monkeypatch.setattr(core, "as_symmetric", counting)
        return names

    def test_built_laplacians_skip_the_check(self, checked):
        rng = np.random.default_rng(5)
        g = random_connected_graph(rng, 7)
        x = rng.normal(size=(7, 40))
        j = laplacian(g).l @ x
        checked.clear()
        built = {"combinatorial": laplacian(g), "normalized": laplacian(g, kind="normalized")}
        assert checked == []
        built["smooth"] = smooth_learn(x, alpha=1.0, beta=1.0).laplacian
        built["polyfit"] = polynomial_fit_eigenvalues(x @ x.T / 40, PolyFitConfig(m=2))[1]
        built["sources"] = learn_from_sources(x, j)
        # the polynomial fit's eig_sym checks its input r, which is no Laplacian
        assert "laplacian" not in checked
        for name, lap in built.items():
            assert np.array_equal(lap.l, lap.l.T), name
            assert not lap.l.flags.writeable, name


class TestEigSym:
    def test_analytic_2x2(self):
        dec = eig_sym(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert np.allclose(dec.eigenvalues, [1.0, 3.0])

    def test_path4_spectrum(self):
        # closed form for the n-vertex path Laplacian: 2 - 2cos(k pi / n)
        l = laplacian(path_graph(4))
        expected = 2 - 2 * np.cos(np.arange(4) * np.pi / 4)
        dec = eig_sym(l.l)
        assert np.allclose(dec.eigenvalues, np.sort(expected), atol=1e-12)

    def test_chain_null_eigenvalue(self):
        dec = eig_sym(laplacian(chain4_graph()).l)
        assert abs(dec.eigenvalues[0]) < 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((7, 7))
        m = (m + m.T) / 2
        dec = eig_sym(m)
        err = np.linalg.norm(dec.reconstruct() - m) / np.linalg.norm(m)
        assert err < 1e-9
        assert np.allclose(dec.eigenvectors.T @ dec.eigenvectors, np.eye(7), atol=1e-9)

    def test_sign_convention(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((6, 6))
        m = (m + m.T) / 2
        vecs = eig_sym(m).eigenvectors
        for k in range(6):
            col = vecs[:, k]
            assert col[np.argmax(np.abs(col))] > 0

    def test_sign_convention_deterministic_on_ties(self):
        # two entries share the largest magnitude; the lower index decides
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        vecs = eig_sym(m).eigenvectors
        for k in range(2):
            assert vecs[0, k] > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestAsSymmetric:
    def test_averages_within_tolerance(self):
        m = np.array([[2.0, 1.0 + 1e-10], [1.0, 3.0]])
        np.testing.assert_array_equal(as_symmetric(m), (m + m.T) / 2)

    def test_tolerance_scales_with_magnitude(self):
        m = np.array([[1e6, 1.0], [1.0 + 1e-4, 0.0]])
        assert as_symmetric(m)[0, 1] == pytest.approx(1.0 + 5e-5)

    def test_rejection_names_the_input(self):
        with pytest.raises(ValueError, match="^widget must be symmetric$"):
            as_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]), "widget")

    def test_graph_construction_holds_one_n_by_n_buffer(self):
        # the symmetrized weights are one n x n float array; the asymmetry
        # is measured in that same buffer, and the finite and sign checks
        # hold n x n bools (1/8 of a float each)
        n = 500
        x = np.random.default_rng(8).random((n, n))
        w = x + x.T
        np.fill_diagonal(w, 0.0)
        tracemalloc.start()
        try:
            g = Graph.from_weights(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(g.w, w)
        assert peak <= 1.25 * n * n * 8


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))

    def test_laplacian_projector(self):
        g = path_graph(5)
        l = laplacian(g).l
        lp = pseudo_inverse(l)
        proj = np.eye(5) - np.ones((5, 5)) / 5
        assert np.max(np.abs(l @ lp - proj)) < 1e-8

    def test_rank_deficient_diagonal(self):
        m = np.diag([2.0, 0.0])
        assert np.allclose(pseudo_inverse(m), np.diag([0.5, 0.0]))

    def test_moore_penrose(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
        mp = pseudo_inverse(m)
        assert np.max(np.abs(m @ mp @ m - m)) < 1e-8
        assert np.max(np.abs(mp @ m @ mp - mp)) < 1e-8


class TestSmoothness:
    def test_constant_vector(self):
        l = laplacian(chain4_graph())
        assert abs(smoothness(l, np.ones(4) * 3.7)) < 1e-12

    def test_pairwise_oracle(self):
        rng = np.random.default_rng(9)
        w = rng.uniform(0, 1, (6, 6))
        w = np.triu(w, 1)
        w = w + w.T
        g = Graph.from_weights(w)
        x = rng.standard_normal(6)
        direct = 0.0
        for m in range(6):
            for n in range(6):
                direct += 0.5 * w[m, n] * (x[m] - x[n]) ** 2
        assert abs(smoothness(laplacian(g), x) - direct) < 1e-10

    def test_path_ordering_comparison(self):
        # visiting vertices in sorted-signal order is smoother than a zigzag
        x = np.array([0.7, 0.2, 0.6, 1.1, -0.3, -1.1, 1.3, -0.7])
        order_smooth = np.argsort(x)
        order_rough = np.empty(8, dtype=int)
        order_rough[0::2] = order_smooth[:4]
        order_rough[1::2] = order_smooth[4:][::-1]

        def path_energy(order):
            w = np.zeros((8, 8))
            for a, b in zip(order[:-1], order[1:]):
                w[a, b] = w[b, a] = 1.0
            return smoothness(laplacian(Graph.from_weights(w)), x)

        assert path_energy(order_smooth) < path_energy(order_rough)

    def test_nonnegative_for_normalized(self):
        g = chain4_graph()
        rng = np.random.default_rng(2)
        for kind in ("combinatorial", "normalized"):
            l = laplacian(g, kind=kind)
            for _ in range(20):
                assert smoothness(l, rng.standard_normal(4)) >= -1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_laplacian_row_sums_property(n, seed):
    rng = np.random.default_rng(seed)
    w = np.triu(rng.uniform(0, 2, (n, n)), 1)
    w = w + w.T
    l = laplacian(Graph.from_weights(w))
    assert np.max(np.abs(l.l.sum(axis=1))) < 1e-12
    assert np.linalg.eigvalsh(l.l)[0] > -1e-10


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_connected_graph_null_space_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    w = rng.uniform(0.2, 1.0, (n, n))
    np.fill_diagonal(w, 0.0)
    w = (w + w.T) / 2  # complete graph, connected by construction
    vals = np.linalg.eigvalsh(laplacian(Graph.from_weights(w)).l)
    assert abs(vals[0]) < 1e-10
    assert vals[1] > 1e-8


def interleaved_components() -> np.ndarray:
    """Components {0, 3}, {1, 2, 5} and the isolated vertex 4."""
    return weights_from_edges(6, [(0, 3, 1.0), (5, 1, 0.5), (2, 5, 2.0)])


class TestConnectedComponents:
    def test_sorted_ordered_by_smallest_vertex_and_isolated_singleton(self):
        assert connected_components(interleaved_components()) == [[0, 3], [1, 2, 5], [4]]

    def test_no_edges_gives_singletons(self):
        assert connected_components(np.zeros((5, 5))) == [[0], [1], [2], [3], [4]]

    def test_connected_graph_is_one_component(self):
        assert connected_components(path_graph(4).w) == [[0, 1, 2, 3]]

    def test_only_positive_weights_are_edges(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1e-300
        assert connected_components(w) == [[0, 1], [2]]

    def test_label_propagation_names_the_smallest_unlabeled_component(self):
        g = Graph.from_weights(interleaved_components())
        with pytest.raises(ValueError, match="component containing vertex 1 has no label"):
            label_propagation(g, BoundaryCondition({3: 1.0}))
        with pytest.raises(ValueError, match="component containing vertex 4 has no label"):
            label_propagation(g, BoundaryCondition({0: 1.0, 2: 0.0}))

    def test_spectral_bisect_splits_first_component_from_the_rest(self):
        cut = spectral_bisect(Graph.from_weights(interleaved_components()))
        assert cut.from_components
        assert cut.side_one == (0, 3)
        assert cut.side_two == (1, 2, 4, 5)


def csgraph_components(w) -> list[list[int]]:
    """Oracle: scipy's undirected components of W > 0, in the same layout."""
    from scipy.sparse import csgraph

    count, labels = csgraph.connected_components(np.asarray(w) > 0, directed=False)
    comps = [np.flatnonzero(labels == k).tolist() for k in range(count)]
    return sorted(comps, key=lambda c: c[0])


def random_weights(rng: np.random.Generator) -> np.ndarray:
    """Sparse random weights, asymmetric in every third draw, with some
    negative and NaN entries and isolated vertices."""
    n = int(rng.integers(2, 40))
    w = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.0, 0.15))
    if rng.integers(3):
        w = np.triu(w, 1) + np.triu(w, 1).T
    w[rng.random((n, n)) < 0.03] = -1.0
    w[rng.random((n, n)) < 0.03] = np.nan
    isolated = rng.choice(n, size=int(rng.integers(0, n // 4 + 1)), replace=False)
    w[isolated, :] = 0.0
    w[:, isolated] = 0.0
    return w


class TestConnectedComponentsOracle:
    def test_matches_csgraph_on_random_graphs(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            w = random_weights(rng)
            assert connected_components(w) == csgraph_components(w)

    @pytest.mark.parametrize("w", [np.zeros((0, 0)), np.zeros((1, 1)), np.ones((1, 1)),
                                   np.full((1, 1), np.nan)], ids=["0x0", "1x1", "loop", "nan"])
    def test_tiny_matrices(self, w):
        assert connected_components(w) == csgraph_components(w)

    def test_long_path(self):
        w = path_graph(1000).w
        assert connected_components(w) == csgraph_components(w) == [list(range(1000))]
