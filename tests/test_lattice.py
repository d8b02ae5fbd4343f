"""Tests for lattice graphs, separable spectra, and subsampling."""

import numpy as np
import pytest

from graphtopo.core import eig_sym
from graphtopo.lattice import (
    Lattice,
    SamplingMap,
    kron_sum_adjacency,
    path_adjacency,
    separability_check,
    separable_gdft,
    subsample,
)


def edge_count(w):
    return int(np.count_nonzero(np.triu(w, 1)))


class TestPathAdjacency:
    def test_single_vertex(self):
        assert path_adjacency(1).w.tolist() == [[0.0]]

    def test_three_vertices(self):
        w = path_adjacency(3).w
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        np.testing.assert_array_equal(w, expected)

    def test_closed_form_spectrum(self):
        vals = eig_sym(path_adjacency(5).w).eigenvalues
        expected = np.sort([2 * np.cos(k * np.pi / 6) for k in range(1, 6)])
        np.testing.assert_allclose(vals, expected, atol=1e-10)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            path_adjacency(0)


class TestLatticeTypes:
    def test_dims_validated(self):
        with pytest.raises(ValueError):
            Lattice(())
        with pytest.raises(ValueError):
            Lattice((3, 0))
        assert Lattice((2, 3, 2)).n == 12

    def test_sampling_map_validated(self):
        with pytest.raises(ValueError):
            SamplingMap(())
        with pytest.raises(ValueError):
            SamplingMap((2, 2))
        with pytest.raises(ValueError):
            SamplingMap((3, 1))
        with pytest.raises(ValueError):
            SamplingMap((-1, 2))


class TestKronSumAdjacency:
    def test_two_by_two_is_four_cycle(self):
        w = kron_sum_adjacency(Lattice((2, 2))).w
        expected = np.array([
            [0, 1, 1, 0],
            [1, 0, 0, 1],
            [1, 0, 0, 1],
            [0, 1, 1, 0],
        ], dtype=float)
        np.testing.assert_array_equal(w, expected)

    def test_three_axis_counts(self):
        g = kron_sum_adjacency(Lattice((2, 3, 2)))
        assert g.n == 12
        assert edge_count(g.w) == 20

    def test_interior_degree_is_twice_the_axis_count(self):
        g = kron_sum_adjacency(Lattice((4, 5)))
        # vertex (2, 2) is interior on both axes
        n = 2 + 4 * 2
        assert g.degrees()[n] == 4.0
        g3 = kron_sum_adjacency(Lattice((3, 4, 5)))
        n3 = 1 + 3 * (1 + 4 * 1)
        assert g3.degrees()[n3] == 6.0

    def test_eigenvalues_are_pairwise_sums(self):
        g = kron_sum_adjacency(Lattice((3, 4)))
        vals = eig_sym(g.w).eigenvalues
        a = eig_sym(path_adjacency(3).w).eigenvalues
        b = eig_sym(path_adjacency(4).w).eigenvalues
        sums = np.sort(np.add.outer(a, b).ravel())
        np.testing.assert_allclose(vals, sums, atol=1e-9)

    def test_vertex_guard(self):
        with pytest.raises(ValueError, match="limit"):
            kron_sum_adjacency(Lattice((400, 300)))

    @pytest.mark.parametrize("build", [kron_sum_adjacency, separable_gdft])
    def test_dense_limit_is_4096_vertices(self, build):
        # one n x n float64 array is 128 MiB at the limit
        with pytest.raises(ValueError, match="limit") as err:
            build(Lattice((65, 65)))
        assert "4225" in str(err.value)


class TestSeparableGdft:
    def test_single_axis_matches_direct_decomposition(self):
        direct = eig_sym(path_adjacency(2).w)
        sep = separable_gdft(Lattice((2,)))
        np.testing.assert_allclose(sep.eigenvalues, direct.eigenvalues, atol=1e-12)
        np.testing.assert_allclose(sep.eigenvectors, direct.eigenvectors, atol=1e-12)

    def test_orthonormal_basis(self):
        u = separable_gdft(Lattice((3, 3))).eigenvectors
        np.testing.assert_allclose(u.T @ u, np.eye(9), atol=1e-10)

    def test_reconstructs_adjacency(self):
        lat = Lattice((3, 4))
        d = separable_gdft(lat)
        rebuilt = d.eigenvectors @ np.diag(d.eigenvalues) @ d.eigenvectors.T
        np.testing.assert_allclose(rebuilt, kron_sum_adjacency(lat).w, atol=1e-9)

    def test_spectrum_matches_direct_decomposition(self):
        lat = Lattice((2, 3, 2))
        sep = np.sort(separable_gdft(lat).eigenvalues)
        direct = eig_sym(kron_sum_adjacency(lat).w).eigenvalues
        np.testing.assert_allclose(sep, direct, atol=1e-9)

    def test_eigenvalues_ascend(self):
        vals = separable_gdft(Lattice((4, 5))).eigenvalues
        assert np.all(np.diff(vals) >= -1e-12)


class TestSeparabilityCheck:
    def test_product_signal_is_rank_one(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=3)
        b = rng.normal(size=4)
        x = np.kron(b, a)
        ok, (fa, fb) = separability_check(x, Lattice((3, 4)))
        assert ok
        np.testing.assert_allclose(np.outer(fa, fb), np.outer(a, b), atol=1e-10)
        np.testing.assert_allclose(np.kron(fb, fa), x, atol=1e-10)

    def test_factor_sign_convention(self):
        a = np.array([-2.0, 1.0, 0.5])
        b = np.array([1.0, 3.0])
        ok, (fa, fb) = separability_check(np.kron(b, a), Lattice((3, 2)))
        assert ok
        assert fa[np.argmax(np.abs(fa))] > 0

    def test_sum_of_two_products_is_not(self):
        rng = np.random.default_rng(1)
        x = (np.kron(rng.normal(size=4), rng.normal(size=3))
             + np.kron(rng.normal(size=4), rng.normal(size=3)))
        ok, factors = separability_check(x, Lattice((3, 4)))
        assert not ok
        assert factors is not None

    def test_constant_signal_is_rank_one(self):
        ok, _ = separability_check(np.ones(12), Lattice((3, 4)))
        assert ok

    def test_zero_signal_is_degenerate(self):
        ok, factors = separability_check(np.zeros(12), Lattice((3, 4)))
        assert not ok
        assert factors is None

    def test_requires_two_axes(self):
        with pytest.raises(ValueError):
            separability_check(np.ones(8), Lattice((2, 2, 2)))
        with pytest.raises(ValueError):
            separability_check(np.ones(11), Lattice((3, 4)))


class TestSubsample:
    def test_keep_all_is_identity(self):
        g = kron_sum_adjacency(Lattice((3, 3)))
        out = subsample(g, SamplingMap(tuple(range(9))))
        np.testing.assert_array_equal(out.w, g.w)

    def test_keep_one_vertex(self):
        g = kron_sum_adjacency(Lattice((2, 2)))
        out = subsample(g, SamplingMap((0,)))
        assert out.w.tolist() == [[0.0]]

    def test_entries_match_pairwise_lookup(self):
        g = kron_sum_adjacency(Lattice((3, 4)))
        kept = (0, 2, 5, 7, 10)
        out = subsample(g, SamplingMap(kept))
        for a, i in enumerate(kept):
            for b, j in enumerate(kept):
                assert out.w[a, b] == g.w[i, j]

    def test_out_of_range(self):
        g = kron_sum_adjacency(Lattice((2, 2)))
        with pytest.raises(ValueError, match="out of range"):
            subsample(g, SamplingMap((0, 4)))
