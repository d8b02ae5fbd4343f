"""Graph topology learning and physically defined graph solvers.

Learn weight matrices and Laplacians from vertex signals (correlation,
sparse regression, graphical LASSO, smoothness, spectral fits), solve
systems defined on graphs (circuits, random walks, diffusion, label
spread), and run the two application pipelines: spectral portfolio cuts
and flow-based population inference.

Every name below is imported from its submodule on first use (PEP 562), so
`import graphtopo` loads no submodule and a CLI command loads only the
modules it runs.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("DirectedGraph", "Graph", "Laplacian", "NumericalError",
             "RankDeficiencyWarning", "SpectralDecomp", "eig_sym", "laplacian",
             "pseudo_inverse", "smoothness"),
    "geometric": ("KernelSpec", "VertexCloud", "generalized_distance", "geometric_weights",
                  "similarity_distances", "similarity_weights", "swiss_roll_graph"),
    "io": ("read_graph_json", "read_directed_graph_json", "read_matrix_csv",
           "read_vector_csv", "write_graph_json", "write_matrix_csv", "write_vector_csv"),
    "lattice": ("Lattice", "SamplingMap", "kron_sum_adjacency", "path_adjacency",
                "separability_check", "separable_gdft", "subsample"),
    "learning": ("PolyFitConfig", "SmoothFit", "correlation_matrix", "laplacian_to_weights",
                 "learn_from_sources", "neighborhood_regression", "polynomial_fit_eigenvalues",
                 "smooth_learn", "symmetrize_geometric", "weight_mse_db"),
    "metro": ("betweenness", "closeness_vitality", "fick_population"),
    "physical": ("BoundaryCondition", "PageRankResult", "absorbing_probabilities",
                 "circuit_solve", "commute_time", "effective_resistance", "hitting_times",
                 "label_propagation", "monte_carlo_hitting", "pagerank",
                 "sparse_source_denoise", "walk_steady_state"),
    "portfolio": ("Bisection", "CutNode", "CutTree", "ReturnSeries", "allocate", "cut_value",
                  "market_graph", "min_variance_weights", "repeated_cuts", "sharpe",
                  "spectral_bisect"),
    "simulate": ("MODES", "ObservationMatrix", "SimSpec", "simulate"),
    "solvers": ("GlassoConfig", "LassoConfig", "LassoResult", "glasso", "lasso_gram",
                "lasso_ista", "normalize_precision", "precision_matrix", "soft_threshold"),
    "verify": ("run_suite",),
}
# exported name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Loading a submodule binds it on the package under its own name.
        # The export `simulate` is the function in graphtopo.simulate, so
        # that binding must not shadow it.
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
