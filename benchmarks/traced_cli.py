"""Run one graphtopo CLI command with a span around every call into a
module's public functions, then write the spans as JSON.

    PYTHONPATH=src python3 benchmarks/traced_cli.py SPANS.json COMMAND_ID <graphtopo args>

The spans are recorded from outside the program: each public function is
wrapped and every module attribute bound to it is rebound to the wrapper,
so calls between graphtopo modules are traced too. A span is (name, start,
end, parent, command) plus a few counts; they stay in memory until the
command returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

import graphtopo
import graphtopo.cli
import graphtopo.verify

MODULES = ("core", "geometric", "io", "lattice", "learning", "metro", "physical",
           "portfolio", "simulate", "solvers")
# soft_threshold runs once per ISTA iteration; a span per call would swamp the trace
UNTRACED = frozenset({"solvers.soft_threshold"})


def io_kind(name: str) -> str | None:
    """'read' or 'write' for the io functions that take a file path first."""
    if name.startswith("io.read_"):
        return "read"
    if name.startswith("io.write_") or name == "io.atomic_write_text":
        return "write"
    return None


def _counts(name: str, args, result) -> dict:
    if io_kind(name):
        return {"bytes": os.path.getsize(args[0])}
    if name == "solvers.lasso_ista":
        return {"iterations": result.iterations, "converged": bool(result.converged)}
    if name == "physical.pagerank":
        return {"iterations": result.iterations}
    return {}


class Tracer:
    def __init__(self, command: str):
        self.command = command
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._open[-1] if self._open else None,
                    "command": self.command}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span.update(_counts(name, args, result))
                return result
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
        return traced


def install(tracer: Tracer) -> None:
    """Wrap the public functions of MODULES and the verify checks, and
    rebind every graphtopo module attribute that refers to one of them."""
    wrapped = {}
    for short in MODULES:
        module = importlib.import_module(f"graphtopo.{short}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            name = f"{short}.{attr}"
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ \
                    and name not in UNTRACED:
                wrapped[id(fn)] = tracer.wrap(name, fn)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").partition(".")[0] != "graphtopo":
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped and inspect.isfunction(value):
                setattr(module, attr, wrapped[id(value)])
    graphtopo.verify.CHECKS[:] = [(name, tracer.wrap(f"verify.{name}", fn))
                                  for name, fn in graphtopo.verify.CHECKS]


def main(argv: list[str]) -> int:
    spans_path, command, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(command)
    install(tracer)
    try:
        return tracer.wrap("cli.dispatch", graphtopo.cli.dispatch)(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
