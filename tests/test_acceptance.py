"""Acceptance gate: thirteen end-to-end criteria at their stated tolerances.

Each criterion is one test that prints a single PASS line (visible with
pytest -s); a failing criterion reads as that test's failure line.
"""

import shutil
import subprocess
import sys
import time
from itertools import combinations

import numpy as np
import pytest

from graphtopo.core import DirectedGraph, Graph, laplacian
from graphtopo.lattice import Lattice, kron_sum_adjacency, path_adjacency, separable_gdft
from graphtopo.core import eig_sym
from graphtopo.learning import (
    PolyFitConfig,
    correlation_matrix,
    laplacian_to_weights,
    neighborhood_regression,
    polynomial_fit_eigenvalues,
    symmetrize_geometric,
    weight_mse_db,
)
from graphtopo.metro import fick_population
from graphtopo.physical import (
    BoundaryCondition,
    absorbing_probabilities,
    commute_time,
    effective_resistance,
    hitting_times,
    pagerank,
)
from graphtopo.portfolio import CutNode, CutTree, allocate, cut_value, repeated_cuts, spectral_bisect
from graphtopo.simulate import SimSpec, simulate
from graphtopo.solvers import GlassoConfig, LassoConfig, glasso, lasso_ista, normalize_precision, precision_matrix

from conftest import (
    chain4_correlation,
    chain4_observations,
    random_connected_graph,
    two_block_graph,
)

PAGES_SCORES = [1.33, 1.52, 2.18, 0.79, 0.55, 0.18, 0.48, 0.97]
SOCIAL8_ABSORB = [0.375, 0.625, 0.5, 0.0, 1.0, 0.875, 0.375, 0.75]
BENCH_HITTING_TO_3 = [9.0155, 11.3003, 9.5942, 0.0, 12.6594, 13.1427, 6.193, 10.386]

CHAIN_PRECISION = np.array([
    [2.0, -1.0, 0.0, 0.0],
    [-1.0, 2.0, -1.0, 0.0],
    [0.0, -1.0, 2.0, -1.0],
    [0.0, 0.0, -1.0, 1.0],
])
HALF_ROOT2 = 1.0 / np.sqrt(2.0)
CHAIN_PRECISION_NORM = np.array([
    [1.0, -0.5, 0.0, 0.0],
    [-0.5, 1.0, -0.5, 0.0],
    [0.0, -0.5, 1.0, -HALF_ROOT2],
    [0.0, 0.0, -HALF_ROOT2, 1.0],
])
W_CHAIN = np.array([
    [0.0, 0.5, 0.0, 0.0],
    [0.5, 0.0, 0.5, 0.0],
    [0.0, 0.5, 0.0, HALF_ROOT2],
    [0.0, 0.0, HALF_ROOT2, 0.0],
])


def test_criterion_01_precision_matrix_example():
    r = chain4_correlation()
    q = precision_matrix(r)
    np.testing.assert_allclose(q, CHAIN_PRECISION, atol=1e-10)
    p = normalize_precision(q)
    np.testing.assert_allclose(p, CHAIN_PRECISION_NORM, atol=1e-12)
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        normalize_precision(precision_matrix(r))
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3
    print(f"PASS criterion 1: precision example exact, {best * 1e6:.0f} us < 1 ms")


def test_criterion_02_regression_example():
    x = chain4_observations(12)
    b = neighborhood_regression(x, rho=0.0, max_iter=20_000, tol=1e-12)
    np.testing.assert_allclose(b[0, 1:], [0.5, 0.0, 0.0], atol=1e-6)
    g = symmetrize_geometric(b, clamp_negative=True)
    np.testing.assert_allclose(g.w, W_CHAIN, atol=1e-6)
    print("PASS criterion 2: rho=0 regression (0.5, 0, 0) and symmetrized "
          "weights within 1e-6")


def test_criterion_03_pagerank(pages8):
    full = pagerank(pages8, tol=1e-6)
    assert full.converged
    np.testing.assert_allclose(full.scores, PAGES_SCORES, atol=0.01)
    capped = pagerank(pages8, tol=1e-6, max_iter=20)
    np.testing.assert_allclose(capped.scores, PAGES_SCORES, atol=0.01)
    print("PASS criterion 3: page scores within 0.01 at convergence (tol 1e-6) "
          "and already at the 20-iteration cap")


def test_criterion_04_absorbing_probabilities(social8):
    x = absorbing_probabilities(social8, BoundaryCondition({4: 1.0, 3: 0.0}))
    np.testing.assert_allclose(x, SOCIAL8_ABSORB, atol=1e-3)
    print("PASS criterion 4: absorbing probabilities within 1e-3")


def test_criterion_05_hitting_and_commute(bench8):
    h = hitting_times(bench8, target=3)
    np.testing.assert_allclose(h, BENCH_HITTING_TO_3, atol=1e-3)
    r = effective_resistance(bench8, 7, 0)
    assert r == pytest.approx(4.0745, abs=1e-3)
    ct = commute_time(bench8, 7, 0)
    assert ct == pytest.approx(30.3960, abs=1e-3)
    round_trip = hitting_times(bench8, target=7)[0] + hitting_times(bench8, target=0)[7]
    assert ct == pytest.approx(round_trip, abs=1e-6)
    print("PASS criterion 5: hitting column 1e-3, R_eff(7,0)=4.0745, "
          "CT(7,0)=30.3960, CT equals the round trip within 1e-6")


def test_criterion_06_lasso_recovery():
    t0 = time.perf_counter()
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(40, 60)) / np.sqrt(40)
        support = np.sort(rng.choice(60, size=4, replace=False))
        truth = np.zeros(60)
        truth[support] = rng.uniform(0.5, 1.5, size=4) * rng.choice([-1.0, 1.0], size=4)
        res = lasso_ista(a, a @ truth, LassoConfig(rho=0.01, max_iter=1000))
        got = np.flatnonzero(np.abs(res.coefficients) > 0.05)
        if np.array_equal(got, support) and np.max(np.abs(res.coefficients - truth)) < 0.05:
            wins += 1
    elapsed = time.perf_counter() - t0
    assert wins >= 9
    assert elapsed < 5.0
    print(f"PASS criterion 6: support + coefficients recovered on {wins}/10 "
          f"seeds in {elapsed:.2f} s < 5 s")


def test_criterion_07_glasso_inverts_at_zero_penalty():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        basis, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        r = basis @ np.diag(rng.uniform(0.5, 2.0, size=10)) @ basis.T
        r = (r + r.T) / 2.0
        q = glasso(r, GlassoConfig(rho=0.0))
        worst = max(worst, float(np.max(np.abs(q @ r - np.eye(10)))))
    assert worst < 1e-3
    print(f"PASS criterion 7: glasso(rho=0) inverse, worst |QR - I| = {worst:.1e} < 1e-3")


def test_criterion_08_topology_recovery(bench8):
    t0 = time.perf_counter()
    x = simulate(bench8, SimSpec("diffusion", seed=8, p=10_000,
                                 params={"h": (0.3, 0.2, 0.5)})).x
    d = bench8.degrees()
    w_norm = bench8.w / np.sqrt(np.outer(d, d))

    r = correlation_matrix(x)
    _, l_fit = polynomial_fit_eigenvalues(r, PolyFitConfig(m=2))
    poly_db = weight_mse_db(laplacian_to_weights(l_fit), w_norm)
    assert poly_db <= -20.0

    b = neighborhood_regression(x, rho=0.05)
    regress_db = weight_mse_db(symmetrize_geometric(b, clamp_negative=True).w, w_norm)
    assert regress_db <= -8.0

    q = glasso(r, GlassoConfig(rho=0.02))
    dq = np.sqrt(np.diag(q))
    w_glasso = np.abs(q) / np.outer(dq, dq)
    np.fill_diagonal(w_glasso, 0.0)
    glasso_db = weight_mse_db(w_glasso, w_norm)
    assert glasso_db <= -8.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 8: polyfit {poly_db:.1f} dB <= -20, regression "
          f"{regress_db:.1f} dB and glasso {glasso_db:.1f} dB <= -8, "
          f"{elapsed:.1f} s < 30 s")


def test_criterion_09_spectral_cut_optimality():
    rng = np.random.default_rng(909)
    hits = 0
    worst_rayleigh = 0.0
    for t in range(100):
        n = int(rng.integers(4, 13))
        g = (two_block_graph(rng, n) if t % 5 < 3
             else random_connected_graph(rng, n, p_edge=0.3))
        lap = laplacian(g).l
        spectral = cut_value(g, spectral_bisect(g).side_one, "normalized")
        best = np.inf
        for r in range(1, n // 2 + 1):
            for side in combinations(range(n), r):
                value = cut_value(g, side, "normalized")
                other = [u for u in range(n) if u not in side]
                x = np.zeros(n)
                x[list(side)] = 1.0 / len(side)
                x[other] = -1.0 / len(other)
                rayleigh = (x @ lap @ x) / (x @ x)
                worst_rayleigh = max(worst_rayleigh, abs(value - rayleigh))
                best = min(best, value)
        tol = 1e-9 * max(1.0, spectral)
        assert spectral >= best - tol, "spectral cut below the brute-force optimum"
        if spectral <= best + tol:
            hits += 1
    assert hits >= 70
    assert worst_rayleigh < 1e-10
    print(f"PASS criterion 9: spectral == brute force on {hits}/100 graphs "
          f"(never below), Rayleigh identity within {worst_rayleigh:.1e}")


def _allocation_figure_tree() -> CutTree:
    """Five leaves at depths (2, 2, 2, 3, 3) over ten assets."""
    leaf = CutNode
    g6 = leaf((6, 7, 8, 9), 2, left=leaf((6, 7), 3), right=leaf((8, 9), 3))
    g1 = leaf((0, 1, 2, 3), 1, left=leaf((0, 1), 2), right=leaf((2, 3), 2))
    g2 = leaf((4, 5, 6, 7, 8, 9), 1, left=leaf((4, 5), 2), right=g6)
    return CutTree(leaf(tuple(range(10)), 0, left=g1, right=g2), cuts=4)


def test_criterion_10_allocation_invariants():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 65))
        g = random_connected_graph(rng, n, p_edge=0.5 if n <= 12 else 0.15)
        k = int(rng.integers(1, min(8, n - 1) + 1))
        tree = repeated_cuts(g, k)
        for scheme in ("AS1", "AS2"):
            worst = max(worst, abs(float(allocate(tree, scheme).sum()) - 1.0))
    assert worst <= 1e-12

    tree = _allocation_figure_tree()
    w = allocate(tree, "AS1")
    leaf_totals = [w[list(leaf.vertices)].sum() for leaf in tree.leaves()]
    np.testing.assert_allclose(leaf_totals, [0.25, 0.25, 0.25, 0.125, 0.125],
                               atol=1e-15)
    print(f"PASS criterion 10: 1000 trees sum to 1 within {worst:.1e} <= 1e-12; "
          "figure tree gives (1/4, 1/4, 1/4, 1/8, 1/8)")


def test_criterion_11_fick_round_trip():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 16))
        g = random_connected_graph(rng, n)
        lap = laplacian(g)
        phi = rng.normal(size=n)
        k = float(rng.uniform(0.5, 3.0))
        recovered = fick_population(lap, -k * (lap.l @ phi), k=k)
        worst = max(worst, float(np.max(np.abs(recovered - (phi - phi.min())))))
    assert worst < 1e-8
    print(f"PASS criterion 11: population round trip on 100 graphs, "
          f"worst error {worst:.1e} < 1e-8")


def test_criterion_12_lattice_spectra():
    for dims in ((3, 4), (2, 3, 2)):
        lat = Lattice(dims)
        assembled = separable_gdft(lat).eigenvalues
        dense = eig_sym(kron_sum_adjacency(lat).w).eigenvalues
        np.testing.assert_allclose(np.sort(assembled), dense, atol=1e-9)
    for size in (3, 4, 5, 7):
        got = eig_sym(path_adjacency(size).w).eigenvalues
        k = np.arange(1, size + 1)
        expected = np.sort(2.0 * np.cos(k * np.pi / (size + 1)))
        np.testing.assert_allclose(got, expected, atol=1e-10)
    print("PASS criterion 12: lattice spectra match dense eigensolver within "
          "1e-9 and path spectra match 2cos(k pi/(I+1)) within 1e-10")


def test_criterion_13_verify_suite():
    exe = shutil.which("graphtopo")
    cmd = [exe, "verify"] if exe else [sys.executable, "-m", "graphtopo.cli", "verify"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().split("\n")
    suite_lines = [ln for ln in lines if ln.startswith(("ok ", "FAIL "))]
    assert suite_lines and all(ln.startswith("ok ") for ln in suite_lines)
    assert elapsed < 120.0
    print(f"PASS criterion 13: verify suite all green, {len(suite_lines)} "
          f"checks in {elapsed:.1f} s < 120 s")
