"""End-to-end command-line tests, driven in process through dispatch()."""

import argparse
import contextlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtopo import io, solvers
from graphtopo.cli import build_parser, dispatch
from graphtopo.core import Graph, NumericalError, laplacian
from graphtopo.physical import (BoundaryCondition, circuit_solve, hitting_times,
                                sparse_source_denoise)
from graphtopo.solvers import GlassoConfig, glasso

from conftest import BENCH8_EDGES, PAGES8_LINKS, random_connected_graph, weights_from_edges

PAGES_SCORES = [1.33, 1.52, 2.18, 0.79, 0.55, 0.18, 0.48, 0.97]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_inputs")
    rng = np.random.default_rng(42)

    bench = Graph.from_weights(weights_from_edges(8, BENCH8_EDGES))
    io.write_graph_json(d / "bench8.json", bench)

    edges = [[s, t, 1.0] for s, ts in PAGES8_LINKS.items() for t in ts]
    (d / "pages.json").write_text(json.dumps({"n": 8, "edges": edges}))

    x = rng.normal(size=(8, 60))
    io.write_matrix_csv(d / "obs.csv", x)
    io.write_matrix_csv(d / "corr.csv", (x @ x.T) / 60)
    io.write_matrix_csv(d / "sources.csv", laplacian(bench).l @ x)

    a = rng.normal(size=(30, 12))
    coef = np.zeros(12)
    coef[[2, 7]] = [1.5, -0.9]
    io.write_matrix_csv(d / "design.csv", a)
    io.write_vector_csv(d / "target.csv", a @ coef)

    (d / "bc.csv").write_text("2,7.13\n5,8.18\n7,0.0\n")

    q = rng.normal(size=8)
    io.write_vector_csv(d / "flows.csv", q - q.mean())
    io.write_vector_csv(d / "noisy.csv", rng.normal(size=8))

    io.write_matrix_csv(d / "returns.csv", rng.normal(0.001, 0.02, size=(80, 5)))
    return d


def run(*argv) -> int:
    return dispatch([str(a) for a in argv])


def two_components(rng, a: int, b: int):
    """Weights of two random connected components of a and b vertices, in
    shuffled order, and the vertex lists of the first and the second."""
    n = a + b
    w = np.zeros((n, n))
    w[:a, :a] = random_connected_graph(rng, a).w
    w[a:, a:] = random_connected_graph(rng, b).w
    perm = rng.permutation(n)
    w = w[np.ix_(perm, perm)]
    return w, np.flatnonzero(perm < a).tolist(), np.flatnonzero(perm >= a).tolist()


def _edge_fault(change):
    """A fault that rewrites one edge, picked at random, of the list."""
    def fault(rng, n, edges):
        k = int(rng.integers(len(edges)))
        edges = [*edges[:k], change(rng, n, list(edges[k])), *edges[k + 1:]]
        return json.dumps({"n": n, "edges": edges})
    return fault


def _truncated(rng, n, edges):
    text = json.dumps({"n": n, "edges": edges})
    return text[:int(rng.integers(len(text)))]


# Each takes (rng, n, edges) of a well-formed graph and returns graph JSON
# text that every graph-reading command must refuse.
GRAPH_FAULTS = {
    "truncated": _truncated,
    "top-level-list": lambda rng, n, edges: json.dumps(edges),
    "missing-n": lambda rng, n, edges: json.dumps({"edges": edges}),
    "negative-n": lambda rng, n, edges: json.dumps({"n": -n, "edges": edges}),
    "fractional-n": lambda rng, n, edges: json.dumps({"n": n + 0.5, "edges": edges}),
    "repeated-pair": lambda rng, n, edges: json.dumps(
        {"n": n, "edges": [*edges, [*edges[0][:2], edges[0][2] + 1.0]]}),
    "no-weight": _edge_fault(lambda rng, n, e: e[:2]),
    "null-weight": _edge_fault(lambda rng, n, e: [*e[:2], None]),
    "string-weight": _edge_fault(lambda rng, n, e: [*e[:2], "1.0"]),
    "non-finite-weight": _edge_fault(
        lambda rng, n, e: [*e[:2], float(rng.choice([np.nan, np.inf, -np.inf]))]),
    "negative-weight": _edge_fault(lambda rng, n, e: [*e[:2], -e[2] - 0.1]),
    "self-loop": _edge_fault(lambda rng, n, e: [e[0], e[0], 1.0]),
    "out-of-range": _edge_fault(
        lambda rng, n, e: [e[0], int(rng.choice([-1, n + int(rng.integers(3))])), e[2]]),
    "fractional-index": _edge_fault(lambda rng, n, e: [e[0], e[1] + 0.5, e[2]]),
    "boolean-index": _edge_fault(lambda rng, n, e: [e[0], True, e[2]]),
}
GRAPH_COMMANDS = [("metro", "centrality"), ("solve", "pagerank"),
                  ("solve", "hitting", "--target", "0"),
                  ("lattice", "subsample", "--keep", "0")]


def _csv(rows) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def _row_fault(change):
    """A fault that rewrites one row, picked at random, of the tokens."""
    def fault(rng, tokens):
        k = int(rng.integers(len(tokens)))
        return _csv([*tokens[:k], change(rng, list(tokens[k])), *tokens[k + 1:]])
    return fault


def _entry_fault(bad):
    """A change that replaces one entry, picked at random, of a list by a bad token."""
    def change(rng, items):
        items = list(items)
        items[int(rng.integers(len(items)))] = str(rng.choice(bad))
        return items
    return change


def _token_fault(bad):
    return _row_fault(_entry_fault(bad))


# Each takes (rng, tokens) of a well-formed matrix, at least 2 x 2, and
# returns CSV text that every matrix reader must refuse.
CSV_FAULTS = {
    "blank": lambda rng, tokens: "\n" * int(rng.integers(3)),
    "short-row": _row_fault(lambda rng, row: row[:-1]),
    "long-row": _row_fault(lambda rng, row: [*row, "1.0"]),
    "non-finite": _token_fault(["nan", "inf", "-inf", "NaN", "Infinity"]),
    "not-a-number": _token_fault(["", "x", "1e", ".", "1 2", "0x1"]),
}
CSV_COMMANDS = [
    ("learn", "glasso", "--rho", "0.1", "--corr", "{d}/bad.csv", "--out", "{d}/out.csv"),
    ("learn", "regress", "--rho", "0.1", "--obs", "{d}/bad.csv", "--out-w", "{d}/w.csv"),
    ("learn", "smooth", "--alpha", "1", "--beta", "1", "--obs", "{d}/bad.csv",
     "--out-w", "{d}/w.csv"),
    ("portfolio", "cut", "--returns", "{d}/bad.csv", "--out", "{d}/out.csv"),
]


# Each takes (rng, rows) of well-formed --bc pins, [index, value] string rows
# with distinct indices among the 8 vertices of the bench graph, and returns
# CSV text that every pinning command must refuse.
BC_FAULTS = {
    "repeated-index": lambda rng, rows: _csv([*rows, [rows[int(rng.integers(len(rows)))][0],
                                                      "0.5"]]),
    "fractional-index": _row_fault(lambda rng, row: [f"{row[0]}.5", row[1]]),
    "out-of-range-index": _row_fault(lambda rng, row: [
        str(rng.choice([-1 - int(rng.integers(3)), 8 + int(rng.integers(3))])), row[1]]),
    "one-column": lambda rng, rows: _csv(row[:1] for row in rows),
    "three-columns": lambda rng, rows: _csv([*row, "1.0"] for row in rows),
    "non-finite-value": _row_fault(
        lambda rng, row: [row[0], str(rng.choice(["nan", "inf", "-inf"]))]),
}
BC_COMMANDS = ["circuit", "absorb", "propagate"]


# Each takes (rng, kept) of a well-formed --keep list, strictly increasing
# vertex indices of the 8-vertex bench graph as strings, and returns a list
# that `lattice subsample` must refuse.
KEEP_FAULTS = {
    "non-integer": _entry_fault(["1.5", "x", "", "2e0"]),
    "not-increasing": lambda rng, kept: [*kept, rng.choice(kept)],
    "negative": lambda rng, kept: [str(-1 - int(rng.integers(3))), *kept],
    "out-of-range": lambda rng, kept: [*kept, str(8 + int(rng.integers(3)))],
}


def _over_limit(rng, dims):
    # one more extent that takes the vertex count past 4,096
    n = int(np.prod([int(d) for d in dims]))
    return [*dims, str(-(-4097 // n) + int(rng.integers(3)))]


# Each takes (rng, dims) of a well-formed --dims list, extents from 1 to 6 as
# strings, and returns a list that `gen lattice` and `lattice gdft` must refuse.
DIMS_FAULTS = {
    "non-integer": _entry_fault(["2.5", "x", "", "3e0"]),
    "zero": _entry_fault(["0"]),
    "over-vertex-limit": _over_limit,
}
DIMS_COMMANDS = [("gen", "lattice", "--out", "{d}/out.json"),
                 ("lattice", "gdft", "--out-u", "{d}/u.csv", "--out-lam", "{d}/lam.csv")]


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run("--bogus") == 1
        assert capsys.readouterr().err.strip()

    def test_missing_subcommand(self, capsys):
        assert run("solve") == 1

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "graphtopo" in capsys.readouterr().out

    def test_missing_input_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run("solve", "hitting", "--graph", "nope.json", "--target", "0") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()

    def test_numerical_failure_exits_two(self, tmp_path, monkeypatch, capsys, inputs):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "disc.json").write_text(
            json.dumps({"n": 4, "edges": [[0, 1, 1.0], [2, 3, 1.0]]}))
        io.write_vector_csv(tmp_path / "q.csv", np.zeros(4))
        code = run("metro", "population", "--graph", "disc.json",
                   "--flows", "q.csv", "--k", "1.0")
        assert code == 2

    def test_strict_nonconvergence_exits_two(self, tmp_path, monkeypatch, inputs, capsys):
        monkeypatch.chdir(tmp_path)
        code = run("learn", "lasso", "--obs", inputs / "design.csv",
                   "--target", inputs / "target.csv", "--rho", "0.001",
                   "--max-iter", "1", "--tol", "1e-14", "--strict",
                   "--out", "c.csv")
        assert code == 2

    def test_bad_flag_value(self, tmp_path, monkeypatch, inputs, capsys):
        monkeypatch.chdir(tmp_path)
        assert run("lattice", "gdft", "--dims", "3,x") == 1

    @pytest.mark.parametrize("command", [("gen", "lattice", "--out", "g.json"),
                                         ("lattice", "gdft", "--out-u", "u.csv",
                                          "--out-lam", "lam.csv")], ids=["gen", "gdft"])
    def test_lattice_over_vertex_limit_exits_one(self, command, tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.chdir(tmp_path)
        assert run(*command, "--dims", "65,65", "--report", "r.json") == 1
        assert "4225" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,edges", [
        (["solve", "hitting", "--target", "2"], [[0, 1, 1.0], [1, 2, np.nan]]),
        (["solve", "pagerank"], [[0, 1, 1.0], [1, 2, np.nan], [2, 0, 1.0]]),
    ], ids=["hitting", "pagerank"])
    def test_non_finite_weight_exits_one(self, argv, edges, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.json").write_text(json.dumps({"n": 3, "edges": edges}))
        assert run(*argv, "--graph", "g.json", "--out", "out.csv") == 1
        assert "must be finite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json"]

    @pytest.mark.parametrize("text", [
        '{"n": 3, "edges": [[0, 1]]}',
        '{"n": 3, "edges": [[0, 1, null]]}',
        '[[0, 1, 1.0]]',
        '{"edges": [[0, 1, 1.0]]}',
        '{"n": 3, "edges": [[0, 1.7, 1.0]]}',
        '{"n": 3.9, "edges": [[0, 1, 1.0]]}',
        '{"n": 3, "edges": [[0, true, 1.0]]}',
        '{"n": 3, "edges": [[0, 1, 1.0], [1, 0, 2.0]]}',
    ], ids=["no-weight", "null-weight", "top-level-list", "missing-n", "fractional-index",
            "fractional-n", "boolean-index", "repeated-pair"])
    def test_malformed_graph_json_exits_one(self, text, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.json").write_text(text)
        assert run("metro", "centrality", "--graph", "g.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: graph ") and "\n" not in err.strip()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json"]

    def test_linalg_error_exits_two(self, tmp_path, monkeypatch, inputs, capsys):
        # LinAlgError subclasses ValueError; it is still a numerical failure
        import graphtopo.physical

        def singular(*_):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(graphtopo.physical, "hitting_times", singular)
        monkeypatch.chdir(tmp_path)
        assert run("solve", "hitting", "--graph", inputs / "bench8.json", "--target", "3",
                   "--out", "h.csv", "--report", "r.json") == 2
        assert capsys.readouterr().err == "error: Singular matrix\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,bad", [
        (["learn", "lasso", "--obs", "bad.csv", "--rho", "0.1", "--out", "out.csv"],
         "design.csv"),
        (["learn", "regress", "--obs", "bad.csv", "--rho", "0.1", "--out-w", "out.csv"],
         "obs.csv"),
        (["learn", "polyfit", "--obs", "bad.csv", "--order", "2", "--out-w", "out.csv"],
         "obs.csv"),
        (["learn", "smooth", "--obs", "bad.csv", "--alpha", "1", "--beta", "1",
          "--out-w", "out.csv"], "obs.csv"),
        (["learn", "glasso", "--corr", "bad.csv", "--rho", "0.1", "--out", "out.csv"],
         "corr.csv"),
        (["solve", "circuit", "--graph", "{d}/bench8.json", "--bc", "{d}/bc.csv",
          "--sources", "bad.csv", "--out", "out.csv"], "flows.csv"),
    ], ids=["lasso", "regress", "polyfit", "smooth", "glasso", "circuit"])
    def test_non_finite_csv_exits_one(self, argv, bad, tmp_path, monkeypatch, inputs, capsys):
        monkeypatch.chdir(tmp_path)
        m = io.read_matrix_csv(inputs / bad)
        m[-1, 0] = np.nan
        io.write_matrix_csv("bad.csv", m)
        argv = [a.format(d=inputs) for a in argv]
        assert run(*argv, "--report", "r.json") == 1
        assert capsys.readouterr().err == f"error: bad.csv: non-finite value in row {len(m)}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.sampled_from(sorted(GRAPH_FAULTS)),
           st.sampled_from(GRAPH_COMMANDS), st.integers(0, 2**32 - 1))
    def test_any_malformed_graph_json_exits_one(self, n, fault, command, seed):
        rng = np.random.default_rng(seed)
        edges = [[i, i + 1, float(rng.uniform(0.1, 2.0))] for i in range(n - 1)]
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "g.json").write_text(GRAPH_FAULTS[fault](rng, n, edges))
            err = StringIO()
            with contextlib.redirect_stderr(err):
                assert run(*command, "--graph", d / "g.json", "--out", d / "out.csv",
                           "--report", d / "r.json") == 1
            assert err.getvalue().startswith("error: ") and "\n" not in err.getvalue().strip()
            assert sorted(p.name for p in d.iterdir()) == ["g.json"]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 6), st.sampled_from(sorted(CSV_FAULTS)),
           st.sampled_from(CSV_COMMANDS), st.integers(0, 2**32 - 1))
    def test_any_malformed_matrix_csv_exits_one(self, rows, cols, fault, command, seed):
        rng = np.random.default_rng(seed)
        tokens = [[repr(float(v)) for v in row] for row in rng.normal(size=(rows, cols))]
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "bad.csv").write_text(CSV_FAULTS[fault](rng, tokens))
            err = StringIO()
            with contextlib.redirect_stderr(err):
                assert run(*(a.format(d=d) for a in command), "--report", d / "r.json") == 1
            assert err.getvalue().startswith("error: ") and "\n" not in err.getvalue().strip()
            assert sorted(p.name for p in d.iterdir()) == ["bad.csv"]

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_denoise_without_reference_in_a_component_exits_two(self, a, b, seed):
        # two random connected components, the reference in the first; the
        # second has no grounded vertex until one edge bridges them
        rng = np.random.default_rng(seed)
        n = a + b
        w, first, second = two_components(rng, a, b)
        reference = int(rng.choice(first))
        k = int(rng.integers(1, n))
        y = rng.normal(size=n)

        with pytest.raises(NumericalError) as err:
            sparse_source_denoise(laplacian(Graph.from_weights(w)), y, k, reference)
        assert int(re.search(r"vertex (\d+)", str(err.value)).group(1)) in second

        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            io.write_graph_json(d / "g.json", Graph.from_weights(w))
            io.write_vector_csv(d / "y.csv", y)
            argv = ("solve", "denoise", "--graph", d / "g.json", "--obs", d / "y.csv",
                    "--k", k, "--reference", reference,
                    "--out", d / "x.csv", "--report", d / "r.json")
            assert run(*argv) == 2
            assert sorted(p.name for p in d.iterdir()) == ["g.json", "y.csv"]
            i, j = int(rng.choice(first)), int(rng.choice(second))
            w[i, j] = w[j, i] = rng.uniform(0.1, 1.0)
            io.write_graph_json(d / "g.json", Graph.from_weights(w))
            assert run(*argv) == 0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_grounded_commands_without_pin_in_a_component_exit_two(self, a, b, seed):
        # every command pins one vertex of the component that holds vertex 0:
        # hitting its --target, commute its --n, population and the sources
        # signal vertex 0. circuit_solve refuses the other component, until
        # one edge bridges them
        rng = np.random.default_rng(seed)
        n = a + b
        w, first, second = two_components(rng, a, b)
        if 0 in second:
            first, second = second, first
        t = int(rng.choice(first))
        m = int(rng.choice([v for v in range(n) if v != t]))
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            io.write_vector_csv(d / "q.csv", rng.normal(size=n))
            commands = [
                ("solve", "hitting", "--target", t),
                ("solve", "commute", "--m", m, "--n", t),
                ("metro", "population", "--flows", d / "q.csv", "--k", 1.0),
                ("gen", "signal", "--mode", "sources", "--seed", seed, "--p", 3),
            ]
            outputs = ("--graph", d / "g.json", "--out", d / "out.csv", "--report", d / "r.json")
            io.write_graph_json(d / "g.json", Graph.from_weights(w))
            for argv in commands:
                err = StringIO()
                with contextlib.redirect_stderr(err):
                    assert run(*argv, *outputs) == 2
                assert int(re.search(r"vertex (\d+)", err.getvalue()).group(1)) in second
                assert sorted(p.name for p in d.iterdir()) == ["g.json", "q.csv"]
            i, j = int(rng.choice(first)), int(rng.choice(second))
            w[i, j] = w[j, i] = rng.uniform(0.1, 1.0)
            io.write_graph_json(d / "g.json", Graph.from_weights(w))
            for argv in commands:
                assert run(*argv, *outputs) == 0

    @pytest.mark.parametrize("command", ["circuit", "absorb", "propagate"])
    @pytest.mark.parametrize("rows,err", [
        ("0,0\n0,1\n7,1\n", "row 2 repeats vertex 0"),
        ("0.7,0\n7,1\n", "row 1: vertex index 0.7 is not an integer"),
    ], ids=["repeated-index", "fractional-index"])
    def test_bad_bc_index_exits_one(self, command, rows, err, tmp_path, monkeypatch,
                                    inputs, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bc.csv").write_text(rows)
        assert run("solve", command, "--graph", inputs / "bench8.json", "--bc", "bc.csv",
                   "--out", "out.csv", "--report", "r.json") == 1
        assert capsys.readouterr().err == f"error: bc.csv: {err}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bc.csv"]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.sampled_from(sorted(BC_FAULTS)), st.sampled_from(BC_COMMANDS),
           st.integers(0, 2**32 - 1))
    def test_any_malformed_bc_rows_exit_one(self, pins, fault, command, seed):
        # the well-formed rows pin distinct vertices of the 8-vertex bench
        # graph, and the command runs on them
        rng = np.random.default_rng(seed)
        rows = [[str(v), repr(float(rng.integers(2)))]
                for v in rng.choice(8, size=pins, replace=False).tolist()]
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            io.write_graph_json(d / "g.json", Graph.from_weights(weights_from_edges(8, BENCH8_EDGES)))
            argv = ("solve", command, "--graph", d / "g.json", "--bc", d / "bc.csv",
                    "--out", d / "out.csv", "--report", d / "r.json")
            (d / "bc.csv").write_text(_csv(rows))
            assert run(*argv) == 0
            (d / "out.csv").unlink()
            (d / "r.json").unlink()
            (d / "bc.csv").write_text(BC_FAULTS[fault](rng, rows))
            err = StringIO()
            with contextlib.redirect_stderr(err):
                assert run(*argv) == 1
            assert err.getvalue().startswith("error: ") and "\n" not in err.getvalue().strip()
            assert sorted(p.name for p in d.iterdir()) == ["bc.csv", "g.json"]

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.integers(0, 7), min_size=1), st.sampled_from(sorted(KEEP_FAULTS)),
           st.integers(0, 2**32 - 1))
    def test_any_malformed_keep_list_exits_one(self, kept, fault, seed):
        rng = np.random.default_rng(seed)
        keep = KEEP_FAULTS[fault](rng, [str(k) for k in sorted(kept)])
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            io.write_graph_json(d / "g.json", Graph.from_weights(weights_from_edges(8, BENCH8_EDGES)))
            err = StringIO()
            with contextlib.redirect_stderr(err):
                assert run("lattice", "subsample", "--graph", d / "g.json",
                           f"--keep={','.join(keep)}", "--out", d / "out.json",
                           "--report", d / "r.json") == 1
            assert err.getvalue().startswith("error: ") and "\n" not in err.getvalue().strip()
            assert sorted(p.name for p in d.iterdir()) == ["g.json"]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=3),
           st.sampled_from(sorted(DIMS_FAULTS)), st.sampled_from(DIMS_COMMANDS),
           st.integers(0, 2**32 - 1))
    def test_any_malformed_dims_list_exits_one(self, dims, fault, command, seed):
        rng = np.random.default_rng(seed)
        text = ",".join(DIMS_FAULTS[fault](rng, [str(i) for i in dims]))
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            err = StringIO()
            with contextlib.redirect_stderr(err):
                assert run(*(a.format(d=d) for a in command), f"--dims={text}",
                           "--report", d / "r.json") == 1
            assert err.getvalue().startswith("error: ") and "\n" not in err.getvalue().strip()
            assert list(d.iterdir()) == []


class TestRegressReport:
    def test_unconverged_rows_reported(self, tmp_path, monkeypatch, inputs):
        monkeypatch.chdir(tmp_path)
        code = run("learn", "regress", "--obs", inputs / "obs.csv", "--rho", "0.05",
                   "--max-iter", "5", "--clamp-negative")
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is False
        assert report["metrics"]["unconverged_rows"] == list(range(8))
        # every row runs to the cap of 5 iterations
        assert report["metrics"]["iterations"] == 8 * 5

    def test_converged_run(self, tmp_path, monkeypatch, inputs):
        monkeypatch.chdir(tmp_path)
        assert run("learn", "regress", "--obs", inputs / "obs.csv", "--rho", "0.05",
                   "--clamp-negative") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is True
        assert report["metrics"]["unconverged_rows"] == []


class TestSourcesReport:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_sparse_branch_reports_iterations(self, tmp_path, monkeypatch, inputs):
        # five snapshots of eight vertices take the sparse branch, one lasso a row
        monkeypatch.chdir(tmp_path)
        for name in ("obs.csv", "sources.csv"):
            io.write_matrix_csv(name, io.read_matrix_csv(inputs / name)[:, :5])
        assert run("learn", "sources", "--obs", "obs.csv", "--sources", "sources.csv",
                   "--rho", "0.1") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is True
        assert report["metrics"]["unconverged_rows"] == []
        assert 7 <= report["metrics"]["iterations"] < 7 * 1000


class TestSmoothReport:
    def test_iterations_and_convergence(self, tmp_path, monkeypatch, inputs):
        from graphtopo.learning import smooth_learn
        monkeypatch.chdir(tmp_path)
        trace: list = []
        fit = smooth_learn(io.read_matrix_csv(inputs / "obs.csv"), 1.0, 0.5,
                           objective_trace=trace)
        assert fit.converged and fit.iterations < 20
        for outer_iters, converged in ((20, True), (1, False)):
            assert run("learn", "smooth", "--obs", inputs / "obs.csv", "--alpha", "1",
                       "--beta", "0.5", "--outer-iters", outer_iters) == 0
            report = json.loads((tmp_path / "report.json").read_text())
            assert report["converged"] is converged
            assert report["metrics"]["iterations"] == min(fit.iterations, outer_iters)
            assert report["metrics"]["objective_trace"] == trace[:outer_iters]


class TestGlassoReport:
    def test_converged_run(self, tmp_path, monkeypatch, inputs):
        monkeypatch.chdir(tmp_path)
        assert run("learn", "glasso", "--corr", inputs / "corr.csv", "--rho", "0.1",
                   "--out", "q.csv") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is True
        details: dict = {}
        glasso(io.read_matrix_csv(inputs / "corr.csv"), GlassoConfig(rho=0.1), report=details)
        assert report["metrics"]["iterations"] == details["iterations"] >= 1
        assert report["metrics"]["kkt_residual"] == details["kkt_residual"] <= 1e-6

    def test_iteration_cap_reported(self, tmp_path, monkeypatch, inputs):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(solvers, "GLASSO_MAX_ITER", 1)
        assert run("learn", "glasso", "--corr", inputs / "corr.csv", "--rho", "0.1",
                   "--out", "q.csv") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is False
        assert report["metrics"]["iterations"] == 1

    def test_exact_zeros(self, tmp_path, monkeypatch, inputs):
        monkeypatch.chdir(tmp_path)
        assert run("learn", "glasso", "--corr", inputs / "corr.csv", "--rho", "0.1",
                   "--out", "q.csv") == 0
        n = io.read_matrix_csv(inputs / "corr.csv").shape[0]
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["metrics"]["nonzero_offdiag"] < n * (n - 1)


def readme_cli_lines() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("graphtopo ")]


class TestReadme:
    def test_cli_block_is_not_empty(self):
        assert len(readme_cli_lines()) >= 5

    @pytest.mark.parametrize("line", readme_cli_lines())
    def test_cli_line_parses(self, line):
        args = build_parser().parse_args(shlex.split(line)[1:])
        if getattr(args, "params", None) is not None:
            assert isinstance(json.loads(args.params), dict)

    def test_signal_and_regress_lines_run(self, tmp_path, monkeypatch, capsys):
        # the example's learning pipeline on the bench8 graph and its weights
        monkeypatch.chdir(tmp_path)
        w = weights_from_edges(8, BENCH8_EDGES)
        io.write_graph_json("bench8.json", Graph.from_weights(w))
        io.write_matrix_csv("wtrue.csv", w)
        lines = [line for line in readme_cli_lines()
                 if line.startswith(("graphtopo gen signal ", "graphtopo learn regress "))]
        assert len(lines) == 2
        for line in lines:
            assert dispatch(shlex.split(line)[1:]) == 0, line


class TestGlassoWiring:
    def test_outputs_and_report(self, tmp_path, monkeypatch, inputs, capsys):
        monkeypatch.chdir(tmp_path)
        code = run("learn", "glasso", "--corr", inputs / "corr.csv",
                   "--rho", "0.0", "--out", "Q.csv")
        assert code == 0
        q = io.read_matrix_csv("Q.csv")
        r = io.read_matrix_csv(inputs / "corr.csv")
        assert np.max(np.abs(q @ r - np.eye(8))) < 1e-3
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["command"] == "learn glasso"
        assert report["outputs"]["precision"] == "Q.csv"
        assert "wall_time_s" in report
        assert report["parameters"]["rho"] == 0.0

    def test_no_temp_files_left(self, tmp_path, monkeypatch, inputs):
        monkeypatch.chdir(tmp_path)
        run("learn", "glasso", "--corr", inputs / "corr.csv",
            "--rho", "0.1", "--out", "Q.csv")
        assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]


class TestPageRankCommand:
    def test_matches_published_scores(self, tmp_path, monkeypatch, inputs):
        monkeypatch.chdir(tmp_path)
        assert run("solve", "pagerank", "--graph", inputs / "pages.json",
                   "--out", "scores.csv") == 0
        scores = io.read_vector_csv("scores.csv")
        np.testing.assert_allclose(scores, PAGES_SCORES, atol=0.01)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is True
        assert report["metrics"]["iterations"] >= 1


class TestDeterminism:
    ARGS = ("gen", "signal", "--mode", "diffusion", "--seed", "11", "--p", "25",
            "--params", '{"h": [0.3, 0.2, 0.5]}')

    def test_identical_invocations_are_byte_identical(self, tmp_path, monkeypatch, inputs):
        monkeypatch.chdir(tmp_path)
        run(*self.ARGS, "--graph", inputs / "bench8.json", "--out", "a.csv")
        run(*self.ARGS, "--graph", inputs / "bench8.json", "--out", "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_and_generator_recorded(self, tmp_path, monkeypatch, inputs):
        monkeypatch.chdir(tmp_path)
        run(*self.ARGS, "--graph", inputs / "bench8.json", "--out", "a.csv")
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["seed"] == 11
        assert report["generator"] == "numpy.random.Generator(PCG64)"

    def test_polyfit_across_blas_thread_counts(self, tmp_path):
        # BLAS sums in an order that depends on its thread count, so a seeded
        # run is byte-identical only at one thread count; across counts the
        # README's contract is a relative 1e-10 of max|L|. p = n is the fewest
        # snapshots with a full-rank correlation; at p = 50 R has a 50-dimensional
        # null space, which polyfit maps to 0 whatever basis LAPACK gives it. On a
        # 2-CPU x86-64 host with OpenBLAS 0.3.31, 1 and 2 threads gave 9,996 of the
        # 10,000 entries of L different at p = 100, by up to 2.8e-14 of max|L|.
        g = random_connected_graph(np.random.default_rng(100), 100, p_edge=0.04,
                                   w_low=0.5, w_high=1.5)
        io.write_graph_json(tmp_path / "g.json", g)
        for p in ("100", "50"):
            gen = ["gen", "signal", "--graph", "g.json", "--mode", "diffusion", "--seed", "1",
                   "--p", p, "--params", '{"h": [0.3, 0.2, 0.5]}', "--out", "x.csv"]
            laplacians = []
            for threads in ("1", "2"):
                learn = ["learn", "polyfit", "--obs", "x.csv", "--order", "2",
                         "--out-l", f"l{threads}.csv", "--out-w", "w.csv"]
                proc = run_python(dispatch_code(gen) + "; " + dispatch_code(learn),
                                  cwd=tmp_path, env={"OPENBLAS_NUM_THREADS": threads})
                assert proc.returncode == 0, proc.stderr
                laplacians.append(io.read_matrix_csv(tmp_path / f"l{threads}.csv"))
            one, two = laplacians
            assert np.max(np.abs(one - two)) <= 1e-10 * np.max(np.abs(one)), p


class TestCsvRoundTrip:
    def test_shortest_repr_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        v = np.array([np.pi, 1 / 3, 1e-17, -2.5000000000000004])
        io.write_vector_csv("v.csv", v)
        np.testing.assert_array_equal(io.read_vector_csv("v.csv"), v)


class TestCircuitCommand:
    def test_matches_library_solution(self, tmp_path, monkeypatch, inputs):
        monkeypatch.chdir(tmp_path)
        assert run("solve", "circuit", "--graph", inputs / "bench8.json",
                   "--bc", inputs / "bc.csv", "--out", "x.csv") == 0
        g = io.read_graph_json(inputs / "bench8.json")
        expected = circuit_solve(laplacian(g),
                                 BoundaryCondition({2: 7.13, 5: 8.18, 7: 0.0}))
        np.testing.assert_allclose(io.read_vector_csv("x.csv"), expected,
                                   atol=1e-12)


class TestPropagateCommand:
    def test_long_path_matches_absorb(self, tmp_path, monkeypatch):
        # a 100-vertex path pinned at both ends: the labels are the
        # absorbing probabilities, the same grounded solve
        monkeypatch.chdir(tmp_path)
        assert run("gen", "lattice", "--dims", "100", "--out", "path.json") == 0
        (tmp_path / "pins.csv").write_text("0,0\n99,1\n")
        assert run("solve", "propagate", "--graph", "path.json", "--bc", "pins.csv",
                   "--out", "labels.csv") == 0
        assert run("solve", "absorb", "--graph", "path.json", "--bc", "pins.csv",
                   "--out", "absorb.csv") == 0
        assert (tmp_path / "labels.csv").read_bytes() == (tmp_path / "absorb.csv").read_bytes()

    def test_unlabeled_component_exits_one(self, tmp_path, monkeypatch, capsys):
        # label_propagation refuses the input before any solve: exit 1, not 2
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.json").write_text(
            json.dumps({"n": 4, "edges": [[0, 1, 1.0], [2, 3, 1.0]]}))
        (tmp_path / "pins.csv").write_text("0,0\n1,1\n")
        assert run("solve", "propagate", "--graph", "g.json", "--bc", "pins.csv",
                   "--out", "labels.csv", "--report", "r.json") == 1
        assert capsys.readouterr().err == "error: component containing vertex 2 has no label\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "pins.csv"]


class TestPlotData:
    def test_tidy_format(self, tmp_path, monkeypatch, inputs):
        monkeypatch.chdir(tmp_path)
        assert run("solve", "hitting", "--graph", inputs / "bench8.json",
                   "--target", "3", "--out", "h.csv",
                   "--emit-plot-data", "plot.csv") == 0
        lines = (tmp_path / "plot.csv").read_text().strip().split("\n")
        assert lines[0] == "x,y,series"
        g = io.read_graph_json(inputs / "bench8.json")
        h = hitting_times(g, 3)
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == h[0]
        assert first[2] == "hitting_time"
        assert len(lines) == 1 + 8


class TestBacktestCommand:
    def test_report_carries_sharpe_comparison(self, tmp_path, monkeypatch, inputs):
        monkeypatch.chdir(tmp_path)
        assert run("portfolio", "backtest", "--returns", inputs / "returns.csv",
                   "--cuts", "2", "--scheme", "as2", "--out", "held.csv") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for key in ("sharpe", "sharpe_uniform", "sharpe_min_variance"):
            assert key in report["metrics"]
        held = io.read_vector_csv("held.csv")
        assert held.size == 40


DRY_RUNS = [
    ("gen-swiss-roll", lambda d: ["gen", "swiss-roll", "--n", "12", "--seed", "1"]),
    ("gen-signal", lambda d: ["gen", "signal", "--graph", d / "bench8.json",
                              "--mode", "sources", "--seed", "0", "--p", "3"]),
    ("gen-lattice", lambda d: ["gen", "lattice", "--dims", "3,4"]),
    ("learn-lasso", lambda d: ["learn", "lasso", "--obs", d / "design.csv",
                               "--target", d / "target.csv", "--rho", "0.1"]),
    ("learn-glasso", lambda d: ["learn", "glasso", "--corr", d / "corr.csv",
                                "--rho", "0.1"]),
    ("learn-regress", lambda d: ["learn", "regress", "--obs", d / "obs.csv",
                                 "--rho", "0.1"]),
    ("learn-smooth", lambda d: ["learn", "smooth", "--obs", d / "obs.csv",
                                "--alpha", "1.0", "--beta", "0.5"]),
    ("learn-polyfit", lambda d: ["learn", "polyfit", "--obs", d / "obs.csv",
                                 "--order", "2"]),
    ("learn-sources", lambda d: ["learn", "sources", "--obs", d / "obs.csv",
                                 "--sources", d / "sources.csv"]),
    ("solve-circuit", lambda d: ["solve", "circuit", "--graph", d / "bench8.json",
                                 "--bc", d / "bc.csv"]),
    ("solve-absorb", lambda d: ["solve", "absorb", "--graph", d / "bench8.json",
                                "--bc", d / "bc.csv"]),
    ("solve-hitting", lambda d: ["solve", "hitting", "--graph", d / "bench8.json",
                                 "--target", "3"]),
    ("solve-commute", lambda d: ["solve", "commute", "--graph", d / "bench8.json",
                                 "--m", "7", "--n", "0"]),
    ("solve-pagerank", lambda d: ["solve", "pagerank", "--graph", d / "pages.json"]),
    ("solve-propagate", lambda d: ["solve", "propagate", "--graph", d / "bench8.json",
                                   "--bc", d / "bc.csv"]),
    ("solve-denoise", lambda d: ["solve", "denoise", "--graph", d / "bench8.json",
                                 "--obs", d / "noisy.csv", "--k", "2",
                                 "--reference", "0"]),
    ("lattice-gdft", lambda d: ["lattice", "gdft", "--dims", "2,3,2"]),
    ("lattice-subsample", lambda d: ["lattice", "subsample",
                                     "--graph", d / "bench8.json",
                                     "--keep", "0,1,2"]),
    ("portfolio-cut", lambda d: ["portfolio", "cut", "--returns", d / "returns.csv"]),
    ("portfolio-allocate", lambda d: ["portfolio", "allocate",
                                      "--returns", d / "returns.csv",
                                      "--cuts", "2"]),
    ("portfolio-backtest", lambda d: ["portfolio", "backtest",
                                      "--returns", d / "returns.csv",
                                      "--cuts", "2"]),
    ("metro-centrality", lambda d: ["metro", "centrality",
                                    "--graph", d / "bench8.json"]),
    ("metro-population", lambda d: ["metro", "population",
                                    "--graph", d / "bench8.json",
                                    "--flows", d / "flows.csv"]),
    ("verify", lambda d: ["verify"]),
]


class TestDryRun:
    @pytest.mark.parametrize("name,argv", DRY_RUNS, ids=[n for n, _ in DRY_RUNS])
    def test_validates_without_writing(self, name, argv, tmp_path, monkeypatch,
                                       inputs, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(*argv(inputs), "--dry-run") == 0
        assert list(tmp_path.iterdir()) == []

    def test_dry_run_still_validates(self, tmp_path, monkeypatch, inputs, capsys):
        monkeypatch.chdir(tmp_path)
        code = run("gen", "signal", "--graph", inputs / "bench8.json",
                   "--mode", "no_such_mode", "--seed", "0", "--p", "1",
                   "--dry-run")
        assert code == 1


def parser_commands() -> set[str]:
    """Every runnable command of build_parser(), named as in DRY_RUNS."""
    def subcommands(parser):
        return next((a.choices for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)), {})
    names = set()
    for group, parser in subcommands(build_parser()).items():
        inner = subcommands(parser)
        if inner:
            names.update(f"{group}-{name}" for name in inner)
        else:
            names.add(group)
    return names


class TestRunnerContract:
    def test_every_command_has_a_dry_run_case(self):
        assert parser_commands() == {name for name, _ in DRY_RUNS}

    @pytest.mark.parametrize("argv,out", [
        (lambda d: ["learn", "lasso", "--obs", d / "design.csv", "--target",
                    d / "target.csv", "--rho", "0.001", "--max-iter", "1"], "c.csv"),
        (lambda d: ["solve", "pagerank", "--graph", d / "pages.json",
                    "--max-iter", "1"], "s.csv"),
    ], ids=["learn-lasso", "solve-pagerank"])
    def test_strict_nonconvergence_writes_nothing(self, argv, out, tmp_path, monkeypatch,
                                                  inputs, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(*argv(inputs), "--out", out, "--report", "r.json") == 0
        assert json.loads((tmp_path / "r.json").read_text())["converged"] is False
        for p in tmp_path.iterdir():
            p.unlink()
        assert run(*argv(inputs), "--out", out, "--report", "r.json", "--strict") == 2
        assert "did not converge" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_verify_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run("verify", "--report", "r.json") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("ok ") for line in lines)
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["command"] == "verify"
        assert report["converged"] is True
        assert report["outputs"] == {}

    def test_verify_report_times_each_check(self, tmp_path, monkeypatch, capsys):
        import graphtopo.verify
        checks = [("first", lambda: None), ("second", lambda: "off target")]
        monkeypatch.setattr(graphtopo.verify, "CHECKS", checks)
        monkeypatch.chdir(tmp_path)
        assert run("verify", "--report", "r.json") == 2
        # stdout keeps one line per check and nothing else
        assert capsys.readouterr().out == "ok first\nFAIL second: off target\n"
        check_s = json.loads((tmp_path / "r.json").read_text())["metrics"]["check_s"]
        assert list(check_s) == ["first", "second"]
        assert all(isinstance(t, float) and t >= 0 for t in check_s.values())


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str, *args, cwd=None, env=None) -> subprocess.CompletedProcess:
    """Run `python -c code args` in a fresh interpreter that imports graphtopo
    from src, with the variables in `env` added to its environment."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **(env or {})}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=150)


# Runs each (name, argv) through cli.main with scipy made unimportable and
# prints {name: exit code or the exception raised} as its last line.
BLOCKED_RUN = """
import json, sys
sys.modules["scipy"] = None
from graphtopo import cli
codes = {}
for name, argv in json.loads(sys.argv[1]):
    sys.argv = ["graphtopo", *argv]
    try:
        cli.main()
    except SystemExit as e:
        codes[name] = e.code
    except Exception as e:
        codes[name] = repr(e)
print(json.dumps(codes))
"""

# Every command runs for real with scipy blocked: each DRY_RUNS row without
# --dry-run (regress with --clamp-negative, which its input needs), and gen
# signal in each mode that solves L x = i.
SCIPY_BLOCKED_RUNS = [
    *((name, argv) for name, argv in DRY_RUNS if name != "learn-regress"),
    ("learn-regress", lambda d: ["learn", "regress", "--obs", d / "obs.csv",
                                 "--rho", "0.1", "--clamp-negative"]),
    *((f"gen-signal-{mode}",
       lambda d, mode=mode: ["gen", "signal", "--graph", d / "bench8.json",
                             "--mode", mode, "--seed", "0", "--p", "5"])
      for mode in ("sources", "dipole", "pinned_pair")),
]


class TestScipyFree:
    def test_import_loads_no_scipy(self):
        proc = run_python("import sys, graphtopo, graphtopo.cli; "
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_commands_run_with_scipy_blocked(self, tmp_path, inputs):
        cases = [(name, [str(a) for a in argv(inputs)]) for name, argv in SCIPY_BLOCKED_RUNS]
        proc = run_python(BLOCKED_RUN, json.dumps(cases), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        codes = json.loads(proc.stdout.splitlines()[-1])
        assert codes == {name: 0 for name, _ in cases}, proc.stderr


# Prints the graphtopo modules loaded after running the code in argv[1].
LOADED = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "graphtopo")))
"""


def loaded_modules(code: str, cwd=None) -> list[str]:
    proc = run_python(LOADED, code, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def graphtopo_modules(*names: str) -> list[str]:
    return sorted(["graphtopo", *(f"graphtopo.{name}" for name in names)])


def dispatch_code(argv) -> str:
    return f"from graphtopo.cli import dispatch; assert dispatch({argv!r}) == 0"


class TestLazyLoading:
    def test_package_import_loads_no_submodule(self):
        assert loaded_modules("import graphtopo") == ["graphtopo"]

    def test_cli_import_loads_core_and_io(self):
        assert loaded_modules("import graphtopo.cli") == graphtopo_modules("cli", "core", "io")

    def test_metro_centrality_loads_only_metro(self, inputs, tmp_path):
        argv = ["metro", "centrality", "--graph", str(inputs / "bench8.json")]
        assert loaded_modules(dispatch_code(argv), cwd=tmp_path) \
            == graphtopo_modules("cli", "core", "io", "metro")

    def test_solve_circuit_dry_run_loads_only_physical(self, inputs):
        argv = ["solve", "circuit", "--graph", str(inputs / "bench8.json"),
                "--bc", str(inputs / "bc.csv"), "--dry-run"]
        assert loaded_modules(dispatch_code(argv)) \
            == graphtopo_modules("cli", "core", "io", "physical")

    def test_solve_circuit_loads_no_numpy_ma(self, inputs, tmp_path):
        # np.setdiff1d and np.unique import numpy.ma (8-9 ms cold) to ask
        # whether their input is masked
        argv = ["solve", "circuit", "--graph", str(inputs / "bench8.json"),
                "--bc", str(inputs / "bc.csv")]
        code = dispatch_code(argv) + "; assert 'numpy.ma' not in sys.modules"
        assert "graphtopo.physical" in loaded_modules(code, cwd=tmp_path)

    def test_gen_signal_diffusion_loads_no_physical_and_no_thread_pool(self, inputs, tmp_path):
        argv = ["gen", "signal", "--graph", str(inputs / "bench8.json"),
                "--mode", "diffusion", "--params", '{"h": [0.3, 0.2, 0.5]}',
                "--seed", "0", "--p", "3"]
        code = dispatch_code(argv) + "; assert 'concurrent.futures' not in sys.modules"
        assert "graphtopo.physical" not in loaded_modules(code, cwd=tmp_path)

    def test_gen_signal_grounded_mode_loads_physical_and_no_thread_pool(self, inputs,
                                                                       tmp_path):
        # the grounded modes draw from one block circuit_solve
        argv = ["gen", "signal", "--graph", str(inputs / "bench8.json"),
                "--mode", "pinned_pair", "--seed", "0", "--p", "3"]
        code = dispatch_code(argv) + "; assert 'concurrent.futures' not in sys.modules"
        assert "graphtopo.physical" in loaded_modules(code, cwd=tmp_path)

    def test_learn_glasso_loads_no_unused_modules(self, inputs, tmp_path):
        argv = ["learn", "glasso", "--corr", str(inputs / "corr.csv"), "--rho", "0.1"]
        loaded = loaded_modules(dispatch_code(argv), cwd=tmp_path)
        assert "graphtopo.solvers" in loaded
        assert not {"graphtopo.physical", "graphtopo.simulate", "graphtopo.verify"} & set(loaded)

    @pytest.mark.parametrize("argv,uses_learning", [
        (("learn", "polyfit", "--obs", "{d}/obs.csv", "--order", "2"), True),
        (("learn", "smooth", "--obs", "{d}/obs.csv", "--alpha", "1.0", "--beta", "0.5"), True),
        # gen signal loads no learning either: ObservationMatrix lives in simulate
        (("gen", "signal", "--graph", "{d}/bench8.json", "--mode", "diffusion",
          "--params", '{{"h": [0.3, 0.2, 0.5]}}', "--seed", "0", "--p", "3"), False),
        (("gen", "signal", "--graph", "{d}/bench8.json", "--mode", "pinned_pair",
          "--seed", "0", "--p", "3"), False),
    ], ids=["polyfit", "smooth", "diffusion-signal", "pinned-pair-signal"])
    def test_learning_without_a_lasso_loads_no_solvers(self, argv, uses_learning, inputs,
                                                       tmp_path):
        argv = [a.format(d=inputs) for a in argv]
        loaded = loaded_modules(dispatch_code(argv), cwd=tmp_path)
        assert ("graphtopo.learning" in loaded) == uses_learning
        assert "graphtopo.solvers" not in loaded

    def test_exports_resolve_to_submodule_attributes(self):
        # graphtopo.simulate is loaded before any package name is read, and
        # the package name `simulate` must still mean the function
        code = """
import importlib, graphtopo, graphtopo.simulate
for name, module in graphtopo._HOME.items():
    home = importlib.import_module("graphtopo." + module)
    assert getattr(graphtopo, name) is getattr(home, name), name
    assert name in dir(graphtopo), name
namespace = {}
exec("from graphtopo import *", namespace)
assert set(graphtopo.__all__) <= set(namespace) and callable(namespace["simulate"])
"""
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr
