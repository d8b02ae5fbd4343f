"""Tests for the seeded graph-signal generators."""

import numpy as np
import pytest

from graphtopo.core import Graph, NumericalError, eig_sym, laplacian, smoothness
from graphtopo.physical import BoundaryCondition, circuit_solve
from graphtopo.simulate import MODES, SimSpec, simulate


def two_component_graph():
    w = np.zeros((5, 5))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    w[3, 4] = w[4, 3] = 1.0
    return Graph.from_weights(w)


def snapshot_rng(seed, p):
    return np.random.default_rng(np.random.SeedSequence((seed, p)))


class TestSimSpec:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            SimSpec("heat", seed=0, p=1)

    def test_basic_bounds(self):
        with pytest.raises(ValueError):
            SimSpec("sources", seed=0, p=0)
        with pytest.raises(ValueError):
            SimSpec("sources", seed=-1, p=1)

    def test_required_params(self):
        with pytest.raises(ValueError, match="requires params"):
            SimSpec("diffusion", seed=0, p=1)
        with pytest.raises(ValueError, match="requires params"):
            SimSpec("adjacency_shift", seed=0, p=1, params={"shifts": 1})
        with pytest.raises(ValueError, match="requires params"):
            SimSpec("bandlimited", seed=0, p=1)

    def test_unexpected_params_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            SimSpec("sources", seed=0, p=1, params={"h": (1.0,)})
        with pytest.raises(ValueError, match="does not accept"):
            SimSpec("diffusion", seed=0, p=1, params={"h": (1.0,), "count": 2})

    def test_diffusion_coefficients_checked(self):
        with pytest.raises(ValueError):
            SimSpec("diffusion", seed=0, p=1, params={"h": ()})
        with pytest.raises(ValueError):
            SimSpec("diffusion", seed=0, p=1, params={"h": (np.nan,)})

    def test_shift_params_checked(self):
        with pytest.raises(ValueError):
            SimSpec("adjacency_shift", seed=0, p=1,
                    params={"shifts": -1, "count": 2})
        with pytest.raises(ValueError):
            SimSpec("adjacency_shift", seed=0, p=1,
                    params={"shifts": 1, "count": 0})
        with pytest.raises(ValueError, match="amplitudes"):
            SimSpec("adjacency_shift", seed=0, p=1,
                    params={"shifts": 1, "count": 2, "amplitudes": (1.0,)})

    def test_bandlimited_indices_checked(self):
        with pytest.raises(ValueError):
            SimSpec("bandlimited", seed=0, p=1, params={"indices": ()})
        with pytest.raises(ValueError, match="unique"):
            SimSpec("bandlimited", seed=0, p=1, params={"indices": (1, 1)})
        with pytest.raises(ValueError):
            SimSpec("bandlimited", seed=0, p=1, params={"indices": (-1,)})
        with pytest.raises(ValueError, match="amplitudes"):
            SimSpec("bandlimited", seed=0, p=1,
                    params={"indices": (0, 1), "amplitudes": (1.0,)})

    def test_mode_list_is_exported(self):
        assert set(MODES) == {"sources", "dipole", "pinned_pair", "diffusion",
                              "adjacency_shift", "bandlimited"}


class TestReproducibility:
    @pytest.mark.parametrize("mode,params", [
        ("sources", {}),
        ("dipole", {}),
        ("pinned_pair", {}),
        ("diffusion", {"h": (0.3, 0.2, 0.5)}),
        ("adjacency_shift", {"shifts": 2, "count": 3}),
        ("bandlimited", {"indices": (1, 2)}),
    ])
    def test_same_spec_is_byte_identical(self, bench8, mode, params):
        a = simulate(bench8, SimSpec(mode, seed=9, p=6, params=params))
        b = simulate(bench8, SimSpec(mode, seed=9, p=6, params=params))
        assert a.x.tobytes() == b.x.tobytes()
        c = simulate(bench8, SimSpec(mode, seed=10, p=6, params=params))
        assert a.x.tobytes() != c.x.tobytes()

    def test_prefix_independent_of_total_count(self, bench8):
        spec_long = SimSpec("diffusion", seed=5, p=50, params={"h": (0.3, 0.2, 0.5)})
        spec_short = SimSpec("diffusion", seed=5, p=20, params={"h": (0.3, 0.2, 0.5)})
        long = simulate(bench8, spec_long).x
        short = simulate(bench8, spec_short).x
        np.testing.assert_array_equal(long[:, :20], short)


class TestSourcesMode:
    def test_reference_vertex_and_zero_sum(self, bench8):
        obs = simulate(bench8, SimSpec("sources", seed=3, p=8))
        assert np.all(obs.x[0] == 0.0)
        recovered = laplacian(bench8).l @ obs.x
        assert np.max(np.abs(recovered.sum(axis=0))) < 1e-10

    def test_solution_matches_drawn_sources(self, bench8):
        obs = simulate(bench8, SimSpec("sources", seed=3, p=4))
        recovered = laplacian(bench8).l @ obs.x
        for p in range(4):
            rng = snapshot_rng(3, p)
            eps = rng.standard_normal(8)
            c = int(rng.integers(8))
            eps[c] = -float(np.sum(np.delete(eps, c)))
            np.testing.assert_allclose(recovered[:, p], eps, atol=1e-9)

    def test_disconnected_raises(self):
        with pytest.raises(NumericalError):
            simulate(two_component_graph(), SimSpec("sources", seed=0, p=1))


class TestDipoleMode:
    def test_two_opposite_sources(self, bench8):
        obs = simulate(bench8, SimSpec("dipole", seed=6, p=10))
        assert np.all(obs.x[0] == 0.0)
        recovered = laplacian(bench8).l @ obs.x
        for p in range(10):
            col = recovered[:, p]
            order = np.argsort(-np.abs(col))
            top, second = col[order[0]], col[order[1]]
            assert abs(top + second) < 1e-9
            assert np.max(np.abs(col[order[2:]])) < 1e-9 * max(1.0, abs(top))

    def test_disconnected_raises(self):
        with pytest.raises(NumericalError):
            simulate(two_component_graph(), SimSpec("dipole", seed=0, p=1))


class TestPinnedPairMode:
    def test_harmonic_off_the_pins(self, bench8):
        obs = simulate(bench8, SimSpec("pinned_pair", seed=4, p=10))
        flux = laplacian(bench8).l @ obs.x
        for p in range(10):
            col = obs.x[:, p]
            support = np.flatnonzero(np.abs(flux[:, p]) > 1e-9)
            assert support.size <= 2
            # harmonic functions attain their extremes on the pinned pair
            assert np.argmax(col) in support or col.max() == col.min()
            assert np.argmin(col) in support or col.max() == col.min()

    def test_exact_pins_and_circuit_solve_reference(self, bench8):
        obs = simulate(bench8, SimSpec("pinned_pair", seed=4, p=10))
        lap = laplacian(bench8)
        for p in range(10):
            rng = snapshot_rng(4, p)
            pair = rng.choice(8, size=2, replace=False)
            vals = rng.standard_normal(2)
            col = obs.x[:, p]
            assert col[pair].tobytes() == vals.tobytes()
            bc = BoundaryCondition({int(pair[0]): float(vals[0]), int(pair[1]): float(vals[1])})
            np.testing.assert_allclose(col, circuit_solve(lap, bc), rtol=0, atol=1e-12)

    def test_disconnected_raises(self):
        with pytest.raises(NumericalError):
            simulate(two_component_graph(), SimSpec("pinned_pair", seed=0, p=1))


class TestDiffusionMode:
    def test_identity_filter_returns_white_noise(self, bench8):
        obs = simulate(bench8, SimSpec("diffusion", seed=11, p=5, params={"h": (1.0,)}))
        for p in range(5):
            expected = snapshot_rng(11, p).standard_normal(8)
            np.testing.assert_array_equal(obs.x[:, p], expected)

    def test_empirical_correlation_matches_filter(self, bench8):
        h = (0.3, 0.2, 0.5)
        p_count = 10_000
        obs = simulate(bench8, SimSpec("diffusion", seed=5, p=p_count, params={"h": h}))
        empirical = obs.x @ obs.x.T / p_count

        decomp = eig_sym(laplacian(bench8, kind="normalized").l)
        response = sum(c * decomp.eigenvalues ** m for m, c in enumerate(h))
        theory = (decomp.eigenvectors * response ** 2) @ decomp.eigenvectors.T
        rel = np.linalg.norm(empirical - theory) / np.linalg.norm(theory)
        assert rel < 3.0 / np.sqrt(p_count)
        assert rel < 0.05

    def test_works_on_disconnected_graph(self):
        obs = simulate(two_component_graph(),
                       SimSpec("diffusion", seed=1, p=3, params={"h": (0.5, 0.5)}))
        assert np.all(np.isfinite(obs.x))


class TestAdjacencyShiftMode:
    def test_all_vertices_spiked_is_deterministic(self, bench8):
        spec = SimSpec("adjacency_shift", seed=2, p=4,
                       params={"shifts": 3, "count": 8})
        obs = simulate(bench8, spec)
        expected = np.linalg.matrix_power(bench8.w, 3) @ np.ones(8)
        for p in range(4):
            np.testing.assert_allclose(obs.x[:, p], expected, atol=1e-12)

    def test_zero_shifts_places_spikes(self, bench8):
        spec = SimSpec("adjacency_shift", seed=7, p=6,
                       params={"shifts": 0, "count": 2, "amplitudes": (2.0, -1.0)})
        obs = simulate(bench8, spec)
        for p in range(6):
            col = obs.x[:, p]
            nz = col[col != 0]
            assert sorted(nz.tolist()) == [-1.0, 2.0]

    def test_count_exceeding_vertices(self, bench8):
        with pytest.raises(ValueError, match="count"):
            simulate(bench8, SimSpec("adjacency_shift", seed=0, p=1,
                                     params={"shifts": 1, "count": 9}))


class TestBandlimitedMode:
    def test_single_component_is_the_eigenvector(self, bench8):
        spec = SimSpec("bandlimited", seed=0, p=3,
                       params={"indices": (2,), "amplitudes": (1.0,)})
        obs = simulate(bench8, spec)
        lap = laplacian(bench8)
        decomp = eig_sym(lap.l)
        for p in range(3):
            np.testing.assert_allclose(obs.x[:, p], decomp.eigenvectors[:, 2],
                                       atol=1e-12)
            assert smoothness(lap, obs.x[:, p]) == pytest.approx(
                decomp.eigenvalues[2], abs=1e-10)

    def test_random_amplitudes_stay_in_span(self, bench8):
        spec = SimSpec("bandlimited", seed=8, p=6, params={"indices": (1, 2, 4)})
        obs = simulate(bench8, spec)
        basis = eig_sym(laplacian(bench8).l).eigenvectors[:, [1, 2, 4]]
        residual = obs.x - basis @ (basis.T @ obs.x)
        assert np.max(np.abs(residual)) < 1e-10
        assert not np.array_equal(obs.x[:, 0], obs.x[:, 1])

    def test_index_out_of_range(self, bench8):
        with pytest.raises(ValueError, match="out of range"):
            simulate(bench8, SimSpec("bandlimited", seed=0, p=1,
                                     params={"indices": (8,)}))


def test_small_graph_guard():
    g = Graph.from_weights(np.zeros((1, 1)))
    with pytest.raises(ValueError):
        simulate(g, SimSpec("dipole", seed=0, p=1))
