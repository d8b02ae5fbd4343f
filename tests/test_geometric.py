import sys

import numpy as np
import pytest
from scipy.integrate import quad

from graphtopo.core import Graph, eig_sym
from graphtopo.geometric import (
    DegenerateSimilarityWarning,
    KernelSpec,
    VertexCloud,
    generalized_distance,
    geometric_weights,
    similarity_distances,
    similarity_weights,
    spiral_arclength,
    swiss_roll_graph,
)


class TestKernelSpec:
    def test_gauss_sq_at_tau(self):
        k = KernelSpec("gauss_sq", tau=0.7)
        assert k.evaluate(np.array(0.7)) == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_exp_lin_at_tau(self):
        k = KernelSpec("exp_lin", tau=2.5)
        assert k.evaluate(np.array(2.5)) == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_inv_dist(self):
        k = KernelSpec("inv_dist")
        assert k.evaluate(np.array(4.0)) == pytest.approx(0.25)

    def test_binary(self):
        k = KernelSpec("binary")
        assert np.all(k.evaluate(np.array([0.3, 9.9])) == 1.0)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            KernelSpec("box")

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            KernelSpec(tau=0.0)


class TestGeometricWeights:
    def test_runs_with_scipy_blocked(self, monkeypatch):
        for name in ["scipy", *(m for m in sys.modules if m.startswith("scipy."))]:
            monkeypatch.setitem(sys.modules, name, None)
        coords = np.random.default_rng(3).normal(size=(20, 3))
        g = geometric_weights(VertexCloud(coords), KernelSpec("inv_dist"))
        r = np.linalg.norm(coords[:, None] - coords[None], axis=-1)
        np.fill_diagonal(r, np.inf)
        np.testing.assert_allclose(g.w, 1.0 / r, rtol=1e-14)

    def test_two_points_gauss(self):
        cloud = VertexCloud(np.array([[0.0, 0.0], [3.0, 4.0]]))
        g = geometric_weights(cloud, KernelSpec("gauss_sq", tau=5.0))
        assert g.w[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)
        assert g.w[0, 0] == 0.0

    def test_cutoff_zeroes_far_pairs(self):
        cloud = VertexCloud(np.array([[0.0], [1.0], [10.0]]))
        g = geometric_weights(cloud, KernelSpec("exp_lin", tau=1.0, kappa=2.0))
        assert g.w[0, 1] > 0
        assert g.w[0, 2] == 0.0
        assert g.w[1, 2] == 0.0

    def test_binary_matches_radius_oracle(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(12, 3))
        kappa = 1.4
        g = geometric_weights(VertexCloud(pts), KernelSpec("binary", kappa=kappa))
        for m in range(12):
            for n in range(12):
                if m == n:
                    assert g.w[m, n] == 0.0
                else:
                    d = np.linalg.norm(pts[m] - pts[n])
                    assert g.w[m, n] == (1.0 if d <= kappa else 0.0)

    def test_inv_dist_coincident_raises(self):
        cloud = VertexCloud(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="singular"):
            geometric_weights(cloud, KernelSpec("inv_dist"))

    def test_inv_dist_values(self):
        cloud = VertexCloud(np.array([[0.0], [2.0]]))
        g = geometric_weights(cloud, KernelSpec("inv_dist"))
        assert g.w[0, 1] == pytest.approx(0.5)


class TestSimilarityDistances:
    def test_global_sums_to_one(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 40))
        d2 = similarity_distances(x, norm="global")
        assert d2.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diag(d2) == 0.0)
        assert np.max(np.abs(d2 - d2.T)) < 1e-15

    def test_global_pairwise_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 9))
        d2 = similarity_distances(x, norm="global")
        raw = np.zeros((4, 4))
        for m in range(4):
            for n in range(4):
                raw[m, n] = np.sum((x[m] - x[n]) ** 2)
        np.testing.assert_allclose(d2, raw / raw.sum(), atol=1e-12)

    def test_unit_variance_approaches_correlation_distance(self):
        rng = np.random.default_rng(5)
        p = 10_000
        base = rng.normal(size=p)
        x = np.vstack([
            base + 0.4 * rng.normal(size=p),
            base + 0.4 * rng.normal(size=p),
            rng.normal(size=p),
        ])
        x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
        d2 = similarity_distances(x, norm="unit_variance")
        r = np.corrcoef(x)
        np.testing.assert_allclose(d2, 2.0 * (1.0 - r), atol=0.05)

    def test_bad_norm(self):
        with pytest.raises(ValueError):
            similarity_distances(np.eye(2), norm="rowwise")


class TestSimilarityWeights:
    def test_gauss_kernel_applied_to_sqrt_distance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 30))
        k = KernelSpec("gauss_sq", tau=0.3)
        g = similarity_weights(x, k)
        d2 = similarity_distances(x)
        expect = np.exp(-d2 / k.tau ** 2)
        np.fill_diagonal(expect, 0.0)
        np.testing.assert_allclose(g.w, expect, atol=1e-12)

    def test_identical_observations_warn_uniform(self):
        x = np.tile(np.arange(6.0), (4, 1))
        with pytest.warns(DegenerateSimilarityWarning):
            g = similarity_weights(x, KernelSpec("gauss_sq", tau=1.0))
        assert isinstance(g, Graph)
        np.testing.assert_allclose(g.w, np.ones((4, 4)) - np.eye(4))


class TestGeneralizedDistance:
    def test_identity_is_euclidean(self):
        assert generalized_distance([0.0, 0.0], [3.0, 4.0], np.eye(2)) == pytest.approx(25.0)

    def test_zero_matrix_gives_zero(self):
        assert generalized_distance([1.0, 2.0], [5.0, -1.0], np.zeros((2, 2))) == 0.0

    def test_projector_oracle(self):
        # H = U U' with orthonormal U projects the difference before measuring
        rng = np.random.default_rng(9)
        m = rng.normal(size=(5, 5))
        u = eig_sym((m + m.T) / 2).eigenvectors[:, :2]
        h = u @ u.T
        a, b = rng.normal(size=5), rng.normal(size=5)
        proj = u.T @ (a - b)
        assert generalized_distance(a, b, h) == pytest.approx(float(proj @ proj), abs=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="semidefinite"):
            generalized_distance([1.0, 0.0], [0.0, 0.0], np.diag([-1.0, 1.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            generalized_distance([1.0, 0.0], [0.0, 0.0], np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestSwissRoll:
    def test_arclength_matches_quadrature(self):
        for v0, v1 in [(np.pi, 4 * np.pi), (4.0, 7.5), (np.pi, np.pi)]:
            num, _ = quad(lambda t: np.sqrt(1 + t * t) / (4 * np.pi), v0, v1)
            assert spiral_arclength(v0, v1) == pytest.approx(num, abs=1e-8)

    def test_deterministic_per_seed(self):
        g1, c1 = swiss_roll_graph(30, seed=42, kernel=KernelSpec("gauss_sq", tau=0.2))
        g2, c2 = swiss_roll_graph(30, seed=42, kernel=KernelSpec("gauss_sq", tau=0.2))
        assert np.array_equal(g1.w, g2.w)
        assert np.array_equal(c1.coords, c2.coords)
        g3, _ = swiss_roll_graph(30, seed=43, kernel=KernelSpec("gauss_sq", tau=0.2))
        assert not np.array_equal(g1.w, g3.w)

    def test_weights_recoverable_from_coords(self):
        # unrolled distance can be rebuilt from the returned 3-D coordinates
        k = KernelSpec("gauss_sq", tau=0.25, kappa=0.6)
        g, cloud = swiss_roll_graph(25, seed=1, kernel=k)
        x, u, z = cloud.coords[:, 0], cloud.coords[:, 1], cloud.coords[:, 2]
        v = 4 * np.pi * np.hypot(x, z)
        n = cloud.n
        expect = np.zeros((n, n))
        for m in range(n):
            for j in range(n):
                if m == j:
                    continue
                r = np.hypot(spiral_arclength(v[m], v[j]), u[m] - u[j])
                expect[m, j] = np.exp(-r ** 2 / k.tau ** 2) if r <= k.kappa else 0.0
        np.testing.assert_allclose(g.w, expect, atol=1e-9)

    def test_coordinate_ranges(self):
        _, cloud = swiss_roll_graph(200, seed=0, kernel=KernelSpec("binary"))
        x, u, z = cloud.coords[:, 0], cloud.coords[:, 1], cloud.coords[:, 2]
        v = 4 * np.pi * np.hypot(x, z)
        assert np.all(u >= -1) and np.all(u <= 1)
        assert np.all(v >= np.pi - 1e-9) and np.all(v <= 4 * np.pi + 1e-9)

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            swiss_roll_graph(1, seed=0, kernel=KernelSpec("binary"))
