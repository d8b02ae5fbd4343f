"""Recovery: does a learning route find the graph that made the data?

Each case pairs a route with the signal model it is derived for, at a fixed
seed and a small size, and holds the top-k edge F1 (k = the number of true
edges) to a floor: the measured value less a stated margin.
"""

import numpy as np

from graphtopo.learning import correlation_matrix
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


def test_glasso_recovers_diffusion_graph():
    # 30 vertices, 64 edges. Measured: glasso |Q| 0.969 (62 of 64 edges),
    # against 0.906 for |XX'| on the same data. The margin of 0.05 is about
    # three edges swapped.
    g = random_connected_graph(np.random.default_rng(1), 30, p_edge=0.15,
                               w_low=0.5, w_high=1.5)
    x = simulate(g, SimSpec("diffusion", seed=1, p=2000,
                            params={"h": (0.3, 0.2, 0.5)})).x
    q = glasso(correlation_matrix(x), GlassoConfig(rho=0.05))
    assert top_k_edge_f1(np.abs(q), g.w) >= 0.969 - 0.05
