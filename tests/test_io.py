from __future__ import annotations

import json
import os
import tracemalloc

import numpy as np
import pytest

from graphtopo.cli import dispatch
from graphtopo.core import DirectedGraph, Graph
from graphtopo.io import (
    atomic_write_text,
    directed_graph_from_json,
    format_csv,
    graph_from_json,
    graph_to_json,
    read_directed_graph_json,
    read_matrix_csv,
    read_vector_csv,
    write_graph_json,
    write_matrix_csv,
    write_vector_csv,
)


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 3))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    assert np.array_equal(read_matrix_csv(path), m)  # repr round-trips exactly


def test_vector_round_trip(tmp_path):
    v = np.array([1.5, -2.25, 1e-17])
    path = tmp_path / "v.csv"
    write_vector_csv(path, v)
    assert np.array_equal(read_vector_csv(path), v)


def test_csv_has_no_header_and_shortest_repr():
    text = format_csv(np.array([[0.1, 2.0]]))
    assert text == "0.1,2.0\n"


def test_ragged_csv_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="ragged"):
        read_matrix_csv(path)


def test_bad_token_names_file_and_row(tmp_path):
    # the row is counted from 1 over the non-blank lines, as for a non-finite value
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n\n3,x\n")
    with pytest.raises(ValueError, match=r"^.*bad\.csv: could not convert string 'x' "
                                         r"to float64 in row 2, column 2$"):
        read_matrix_csv(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_csv_rejected(tmp_path, token):
    path = tmp_path / "bad.csv"
    path.write_text(f"1,2\n\n3,4\n5,{token}\n")
    with pytest.raises(ValueError, match=r"bad.csv: non-finite value in row 3$"):
        read_matrix_csv(path)
    path.write_text(f"1\n{token}\n")
    with pytest.raises(ValueError, match="non-finite value in row 2"):
        read_vector_csv(path)


def test_graph_json_round_trip():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 0.5
    w[1, 2] = w[2, 1] = 2.0
    g = Graph.from_weights(w)
    g2 = graph_from_json(graph_to_json(g))
    assert g2.n == 3
    assert np.array_equal(g2.w, g.w)


def test_directed_json_keeps_orientation():
    g = directed_graph_from_json('{"n":2,"edges":[[0,1,1.0]]}')
    assert g.w[0, 1] == 1.0
    assert g.w[1, 0] == 0.0


def test_directed_graph_json_round_trip(tmp_path, monkeypatch):
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 2] = w[2, 0] = 1.0
    write_graph_json(tmp_path / "cycle.json", DirectedGraph.from_weights(w))
    g = read_directed_graph_json(tmp_path / "cycle.json")
    assert np.array_equal(g.w, w)
    assert g.w[2, 0] == 1.0
    monkeypatch.chdir(tmp_path)
    assert dispatch(["solve", "pagerank", "--graph", "cycle.json", "--report", ""]) == 0
    assert np.allclose(read_vector_csv(tmp_path / "scores.csv"), 1.0)


def test_undirected_json_lists_each_edge_once():
    g = Graph.from_weights(np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.5], [0.0, 0.5, 0.0]]))
    assert graph_to_json(g) == '{"n":3,"edges":[[0,1,2.0],[1,2,0.5]]}'


def test_json_range_check():
    with pytest.raises(ValueError, match="out of range"):
        graph_from_json('{"n":2,"edges":[[0,5,1.0]]}')


@pytest.mark.parametrize("text,message", [
    ('{"n":3,"edges":[[0,1.7,1.0]]}', "graph edge [0, 1.7, 1.0]: vertex indices must be"),
    ('{"n":3,"edges":[[0,1,1.0],[2.5,1,1.0]]}', "graph edge [2.5, 1, 1.0]: vertex"),
    ('{"n":3.9,"edges":[[0,1,1.0]]}', 'graph JSON "n" must be a non-negative integer, got 3.9'),
    ('{"n":true,"edges":[]}', 'graph JSON "n" must be a non-negative integer, got True'),
    ('{"n":3,"edges":[[0,true,1.0]]}', "graph edge [0, True, 1.0] is not [i, j, w] with"),
    ('{"n":3,"edges":[[0,1,false]]}', "graph edge [0, 1, False] is not [i, j, w] with"),
    ('{"n":3,"edges":[[0,1,1.0],[1,2,1.0],[1,0,2.0]]}', "graph edge [1, 0, 2.0] gives pair"),
    ('{"n":3,"edges":[[0,1,1.0],[0,1,2.0],[0,1,1.0]]}', "graph edge [0, 1, 2.0] gives pair"),
], ids=["fractional-index", "second-entry", "fractional-n", "boolean-n", "boolean-index",
        "boolean-weight", "repeated-pair", "repeated-then-restored"])
def test_graph_json_refuses_malformed_numbers(text, message):
    with pytest.raises(ValueError) as err:
        graph_from_json(text)
    assert str(err.value).startswith(message)


def test_graph_json_accepts_integral_floats_and_equal_repeats():
    g = graph_from_json('{"n":3.0,"edges":[[0,1.0,2.0],[1,0,2.0],[2.0,1,1]]}')
    assert g.n == 3
    np.testing.assert_array_equal(g.w, [[0, 2, 0], [2, 0, 1], [0, 1, 0]])


def test_directed_json_pairs_are_ordered():
    g = directed_graph_from_json('{"n":2,"edges":[[0,1,1.0],[1,0,2.0]]}')
    np.testing.assert_array_equal(g.w, [[0, 1], [2, 0]])
    with pytest.raises(ValueError, match=r"graph edge \[0, 1, 3.0\] gives pair \(0, 1\)"):
        directed_graph_from_json('{"n":2,"edges":[[0,1,1.0],[0,1,3.0]]}')


def _elementwise_graph_json(g) -> str:
    # one int()/float() call per edge: the bulk writer must match its bytes
    mask = g.w > 0
    if not isinstance(g, DirectedGraph):
        mask = np.triu(mask, 1)
    edges = [[int(i), int(j), float(g.w[i, j])] for i, j in np.argwhere(mask)]
    return json.dumps({"n": g.n, "edges": edges}, indent=None, separators=(",", ":"))


@pytest.mark.parametrize("seed", range(4))
def test_graph_to_json_bytes_match_elementwise_writer(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    w = np.where(rng.random((n, n)) < 0.3, rng.lognormal(0.0, 3.0, (n, n)), 0.0)
    np.fill_diagonal(w, 0.0)
    for g in (Graph.from_weights(np.triu(w, 1) + np.triu(w, 1).T),
              DirectedGraph.from_weights(w)):
        assert graph_to_json(g) == _elementwise_graph_json(g)


def _elementwise_csv(m) -> str:
    # one float() call per entry: the bulk formatter must match its bytes
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return "\n".join(",".join(repr(float(v)) for v in row) for row in m) + "\n"


def test_format_csv_bytes_match_elementwise_formatter():
    edge = np.array([[-0.0, 0.0, 5e-324, -5e-324],
                     [1e308, -1e308, 3.0, -7.0],
                     [1e16, 2.0 ** 60, 0.1, 1 / 3]])
    rng = np.random.default_rng(5)
    for m in (edge, edge[0], rng.lognormal(0.0, 30.0, (7, 9)) * rng.choice([-1, 1], (7, 9)),
              rng.integers(-50, 50, (4, 6)), np.array(2.5)):
        assert format_csv(m) == _elementwise_csv(m)
    assert format_csv(edge[:1]) == "-0.0,0.0,5e-324,-5e-324\n"


@pytest.mark.parametrize("shape", [(3000, 3), (9, 1000), (5000, 1), (0, 3), (1, 0), (4,)],
                         ids=["many-blocks", "wide", "column", "no-rows", "no-columns", "1-d"])
def test_streamed_csv_writes_match_format_csv(shape, tmp_path):
    # rows go to the file a block at a time; the bytes are those of the
    # whole-matrix text, including the lone newline of a matrix without rows
    m = np.random.default_rng(6).normal(size=shape)
    write_matrix_csv(tmp_path / "m.csv", m)
    assert (tmp_path / "m.csv").read_text() == format_csv(m) == _elementwise_csv(m)
    write_vector_csv(tmp_path / "v.csv", m)
    assert (tmp_path / "v.csv").read_text() == format_csv(m.reshape(-1, 1))


@pytest.mark.parametrize("write,shape", [(write_matrix_csv, (100, 500)),
                                         (write_vector_csv, (50_000,))],
                         ids=["matrix", "vector"])
def test_csv_write_holds_a_block_not_the_matrix(write, shape, tmp_path):
    # the whole matrix as Python floats, row strings and joined text would
    # take several times the array's own bytes
    m = np.random.default_rng(7).normal(size=shape)
    tracemalloc.start()
    try:
        write(tmp_path / "m.csv", m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m.nbytes / 2


def test_csv_read_holds_about_the_array(tmp_path):
    # the parsed rows go straight into the array: no list of Python floats
    m = np.random.default_rng(9).normal(size=(200, 1000))
    write_matrix_csv(tmp_path / "m.csv", m)
    tracemalloc.start()
    try:
        back = read_matrix_csv(tmp_path / "m.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, m)
    assert peak <= 2 * m.nbytes


def test_outputs_get_the_mode_open_gives_under_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        write_matrix_csv(tmp_path / "m.csv", np.eye(2))
        write_graph_json(tmp_path / "g.json", Graph.from_weights(np.ones((2, 2)) - np.eye(2)))
        atomic_write_text(tmp_path / "report.json", "{}\n")
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["m.csv", "g.json", "report.json", "plain.txt"], 0o640)
