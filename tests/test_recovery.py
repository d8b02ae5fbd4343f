"""Recovery: does a learning route find the graph that made the data?

Each case pairs a route with the signal model it is derived for, at a fixed
seed and a small size, and holds the top-k edge F1 (k = the number of true
edges) to a floor: the measured value less a margin of 0.05, about three
of the 64 edges swapped.
"""

import numpy as np

from graphtopo.core import laplacian, pseudo_inverse
from graphtopo.learning import (PolyFitConfig, correlation_matrix, learn_from_sources,
                                neighborhood_regression, polynomial_fit_eigenvalues)
from graphtopo.simulate import SimSpec, simulate
from graphtopo.solvers import GlassoConfig, glasso

from conftest import random_connected_graph


def top_k_edge_f1(score: np.ndarray, w: np.ndarray) -> float:
    """F1 of the k highest-scoring vertex pairs against the k edges of w."""
    iu = np.triu_indices(w.shape[0], k=1)
    true = w[iu] > 0
    pred = np.zeros(true.size, dtype=bool)
    pred[np.argsort(-score[iu], kind="stable")[: np.count_nonzero(true)]] = True
    return 2.0 * np.count_nonzero(pred & true) / (pred.sum() + true.sum())


def graph30():
    """30 vertices, 64 edges."""
    return random_connected_graph(np.random.default_rng(1), 30, p_edge=0.15,
                                  w_low=0.5, w_high=1.5)


def diffusion_signals(g):
    return simulate(g, SimSpec("diffusion", seed=1, p=2000,
                               params={"h": (0.3, 0.2, 0.5)})).x


def test_glasso_recovers_diffusion_graph():
    # Measured: glasso |Q| 0.969 (62 of 64 edges), against 0.906 for |XX'|
    # on the same data.
    g = graph30()
    q = glasso(correlation_matrix(diffusion_signals(g)), GlassoConfig(rho=0.05))
    assert top_k_edge_f1(np.abs(q), g.w) >= 0.969 - 0.05


def test_glasso_recovers_sources_graph():
    # Sources signals solve L x = eps, so their precision is close to L and
    # edges are negative entries of Q. Measured: -Q 0.938 (60 of 64 edges).
    g = graph30()
    x = simulate(g, SimSpec("sources", seed=1, p=2000)).x
    q = glasso(correlation_matrix(x), GlassoConfig(rho=0.05))
    assert top_k_edge_f1(-q, g.w) >= 0.938 - 0.05


def test_polyfit_recovers_diffusion_graph():
    # Measured: -L 1.000 (64 of 64 edges).
    g = graph30()
    _, l = polynomial_fit_eigenvalues(correlation_matrix(diffusion_signals(g)),
                                      PolyFitConfig(m=2))
    assert top_k_edge_f1(-l.l, g.w) >= 1.0 - 0.05


def test_regress_recovers_diffusion_graph():
    # Diffusion signals here are high-pass, not smooth: h(lambda) = 0.3 +
    # 0.2 lambda + 0.5 lambda^2 rises over the normalized spectrum, so
    # neighbours are anti-correlated and a vertex is regressed on them with
    # negative weight. Measured: -(B + B') 0.922 (59 of 64 edges), with all
    # 30 row lassos converged.
    g = graph30()
    report: dict = {}
    b = neighborhood_regression(diffusion_signals(g), rho=0.05, report=report)
    assert report["converged"] is True
    assert top_k_edge_f1(-(b + b.T), g.w) >= 0.922 - 0.05


def test_dense_sources_recover_graph():
    # x = L^+ j with j a column-centred Gaussian; p = 60 >= n - 1 takes the
    # pseudo-inverse branch. Measured: -L 1.000 (64 of 64 edges).
    g = graph30()
    j = np.random.default_rng(3).normal(size=(30, 60))
    j -= j.mean(axis=0)
    l = learn_from_sources(pseudo_inverse(laplacian(g).l) @ j, j)
    assert top_k_edge_f1(-l.l, g.w) >= 1.0 - 0.05
