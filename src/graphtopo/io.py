"""File interfaces: CSV matrices/vectors, graph JSON, atomic writes.

CSV is comma-separated, one row per line, no header. Numbers are written with
Python's repr (shortest round-trip form), so golden files are stable across
platforms. Graph JSON is {"n": int, "edges": [[i, j, w], ...]} with 0-based
vertex indices.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
from io import StringIO
from pathlib import Path

import numpy as np

from .core import DirectedGraph, Graph

__all__ = [
    "atomic_write_text",
    "format_csv",
    "write_matrix_csv",
    "write_vector_csv",
    "read_matrix_csv",
    "read_vector_csv",
    "graph_to_json",
    "graph_from_json",
    "directed_graph_from_json",
    "write_graph_json",
    "read_graph_json",
    "read_directed_graph_json",
]


@contextlib.contextmanager
def _atomic_file(path):
    """A text file whose content replaces path only when the block exits
    without an error: written to a temp file in the same directory, with the
    mode open(path, "w") would give (0666 less the umask), then renamed over path."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file + rename in the same directory."""
    with _atomic_file(path) as fh:
        fh.write(text)


# The most values one CSV write formats at once, so that writing a matrix
# holds a block of rows as Python objects, never the whole matrix.
_CSV_BLOCK = 1 << 10


def _write_csv(fh, m) -> None:
    """m as CSV rows, a block of rows per write; no rows is one blank line."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if not m.shape[0]:
        fh.write("\n")
    step = max(1, _CSV_BLOCK // max(1, m.shape[1]))
    for first in range(0, m.shape[0], step):
        fh.write("".join(",".join(map(repr, row)) + "\n"
                         for row in m[first:first + step].tolist()))


def format_csv(m) -> str:
    buf = StringIO()
    _write_csv(buf, m)
    return buf.getvalue()


def write_matrix_csv(path, m) -> None:
    with _atomic_file(path) as fh:
        _write_csv(fh, m)


def write_vector_csv(path, v) -> None:
    """Vectors are written one value per line."""
    write_matrix_csv(path, np.asarray(v, dtype=float).reshape(-1, 1))


def read_matrix_csv(path) -> np.ndarray:
    """Rows of floats; ValueError naming the file on an empty or ragged file, a
    token that is no number, or a NaN or infinity, whose row is counted from 1
    over the non-blank lines."""
    def rows(fh):
        commas = None
        for line in filter(None, map(str.strip, fh)):
            if commas is None:
                commas = line.count(",")
            elif line.count(",") != commas:
                raise ValueError(f"{path}: ragged CSV rows")
            yield line
        if commas is None:
            raise ValueError(f"{path}: empty CSV")
    with open(path) as fh:
        try:
            m = np.loadtxt(rows(fh), delimiter=",", ndmin=2, comments=None)
        except ValueError as e:
            # numpy names no file and counts the rows it was given from 0
            bad = re.fullmatch(r"(.*) at row (\d+), (column \d+)\.", str(e))
            if bad is None:
                raise
            raise ValueError(f"{path}: {bad[1]} in row {int(bad[2]) + 1}, {bad[3]}") from None
    bad = np.flatnonzero(~np.isfinite(m).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: non-finite value in row {bad[0] + 1}")
    return m


def read_vector_csv(path) -> np.ndarray:
    m = read_matrix_csv(path)
    if 1 not in m.shape and m.ndim == 2:
        raise ValueError(f"{path}: expected a vector, got shape {m.shape}")
    return m.reshape(-1)


def graph_to_json(g: Graph | DirectedGraph) -> str:
    """An undirected edge is written once, as [i, j, w] with i < j; every
    edge of a DirectedGraph is written as an ordered pair [from, to, w]."""
    mask = g.w > 0
    if not isinstance(g, DirectedGraph):
        mask = np.triu(mask, 1)
    i, j = np.nonzero(mask)
    edges = list(zip(i.tolist(), j.tolist(), g.w[i, j].tolist()))
    return json.dumps({"n": g.n, "edges": edges}, indent=None, separators=(",", ":"))


_GRAPH_JSON = '{"n": int, "edges": [[i, j, w], ...]}'
_NUMBERS = {int, float}  # JSON numbers; a JSON true or false is a bool


def _weights_from_json(text: str, directed: bool) -> np.ndarray:
    """Check the edge list as a whole: each entry is a list [i, j, w] of
    numbers, i and j are integral and in range, and no pair is given two
    different weights ({i, j} is one pair when undirected). The first entry
    that fails a check is named in the ValueError."""
    data = json.loads(text)
    try:
        n = data["n"]
        edges = list(data.get("edges", []))
    except (AttributeError, KeyError, TypeError, ValueError):
        raise ValueError(f"graph JSON must be an object {_GRAPH_JSON}") from None
    if not (type(n) is int or type(n) is float and n.is_integer()) or n < 0:
        raise ValueError(f'graph JSON "n" must be a non-negative integer, got {n!r}')
    n = int(n)
    if not (set(map(type, edges)) <= {list} and set(map(len, edges)) <= {3}):
        entry = next(e for e in edges if type(e) is not list or len(e) != 3)
        raise ValueError(f"graph edge {entry!r} is not a list [i, j, w]")
    flat = list(itertools.chain.from_iterable(edges))
    if not set(map(type, flat)) <= _NUMBERS:
        entry = next(e for e in edges if not set(map(type, e)) <= _NUMBERS)
        raise ValueError(f"graph edge {entry!r} is not [i, j, w] with numbers")
    i, j, weight = np.array(flat, dtype=float).reshape(-1, 3).T
    first = np.flatnonzero((i != np.floor(i)) | (j != np.floor(j)))
    if first.size:
        raise ValueError(f"graph edge {edges[first[0]]!r}: vertex indices must be integers")
    first = np.flatnonzero((i < 0) | (i >= n) | (j < 0) | (j >= n))
    if first.size:
        a, b = edges[first[0]][:2]
        raise ValueError(f"edge ({a}, {b}) out of range for n={n}")
    i, j = i.astype(np.intp), j.astype(np.intp)
    key = i * n + j if directed else np.minimum(i, j) * n + np.maximum(i, j)
    # a stable sort keeps each pair's entries in file order
    order = np.argsort(key, kind="stable")
    key, sorted_w = key[order], weight[order]
    clash = order[1:][(key[1:] == key[:-1]) & (sorted_w[1:] != sorted_w[:-1])]
    if clash.size:
        entry = edges[clash.min()]
        raise ValueError(f"graph edge {entry!r} gives pair ({entry[0]}, {entry[1]}) "
                         "a second, different weight")
    w = np.zeros((n, n))
    w[i, j] = weight
    if not directed:
        w[j, i] = weight
    return w


def graph_from_json(text: str) -> Graph:
    return Graph.from_weights(_weights_from_json(text, directed=False))


def directed_graph_from_json(text: str) -> DirectedGraph:
    """Edges are read as ordered pairs [from, to, w]."""
    return DirectedGraph.from_weights(_weights_from_json(text, directed=True))


def write_graph_json(path, g: Graph | DirectedGraph) -> None:
    atomic_write_text(path, graph_to_json(g) + "\n")


def read_graph_json(path) -> Graph:
    return graph_from_json(Path(path).read_text())


def read_directed_graph_json(path) -> DirectedGraph:
    return directed_graph_from_json(Path(path).read_text())
