"""End-to-end command-line tests, driven in process through dispatch()."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphtopo import io
from graphtopo.cli import build_parser, dispatch
from graphtopo.core import Graph, laplacian
from graphtopo.physical import BoundaryCondition, circuit_solve, hitting_times

from conftest import BENCH8_EDGES, PAGES8_LINKS, weights_from_edges

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


class TestRegressReport:
    def test_unconverged_rows_reported(self, tmp_path, monkeypatch, inputs):
        monkeypatch.chdir(tmp_path)
        code = run("learn", "regress", "--obs", inputs / "obs.csv", "--rho", "0.05",
                   "--max-iter", "5", "--clamp-negative")
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is False
        assert report["metrics"]["unconverged_rows"] == list(range(8))

    def test_converged_run(self, tmp_path, monkeypatch, inputs):
        monkeypatch.chdir(tmp_path)
        assert run("learn", "regress", "--obs", inputs / "obs.csv", "--rho", "0.05",
                   "--clamp-negative") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is True
        assert report["metrics"]["unconverged_rows"] == []


class TestGlassoReport:
    def test_converged_run(self, tmp_path, monkeypatch, inputs):
        monkeypatch.chdir(tmp_path)
        assert run("learn", "glasso", "--corr", inputs / "corr.csv", "--rho", "0.1",
                   "--out", "q.csv") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is True
        assert report["metrics"]["sweeps"] >= 1
        assert report["metrics"]["unconverged_inner"] == 0

    def test_sweep_cap_reported(self, tmp_path, monkeypatch, inputs):
        monkeypatch.chdir(tmp_path)
        assert run("learn", "glasso", "--corr", inputs / "corr.csv", "--rho", "0.1",
                   "--max-sweeps", "1", "--out", "q.csv") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is False
        assert report["metrics"]["sweeps"] == 1


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

    def test_env_thread_override_keeps_bytes(self, tmp_path, monkeypatch, inputs):
        monkeypatch.chdir(tmp_path)
        run(*self.ARGS, "--graph", inputs / "bench8.json", "--out", "a.csv")
        monkeypatch.setenv("GRAPHTOPO_THREADS", "4")
        run(*self.ARGS, "--graph", inputs / "bench8.json", "--out", "c.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()

    def test_seed_and_generator_recorded(self, tmp_path, monkeypatch, inputs):
        monkeypatch.chdir(tmp_path)
        run(*self.ARGS, "--graph", inputs / "bench8.json", "--out", "a.csv")
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["seed"] == 11
        assert report["generator"] == "numpy.random.Generator(PCG64)"


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


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str, *args, cwd=None) -> subprocess.CompletedProcess:
    """Run `python -c code args` in a fresh interpreter that imports graphtopo from src."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
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

# Commands that must run without scipy; the others import it inside the
# function that needs it.
SCIPY_FREE = [
    ("gen-signal", lambda d: [*TestDeterminism.ARGS, "--graph", d / "bench8.json"]),
    ("learn-regress", lambda d: ["learn", "regress", "--obs", d / "obs.csv",
                                 "--rho", "0.1", "--clamp-negative"]),
    *((name, argv) for name, argv in DRY_RUNS if name in {
        "learn-glasso", "learn-smooth", "solve-circuit", "solve-absorb", "solve-hitting",
        "solve-commute", "solve-pagerank", "solve-propagate", "solve-denoise",
        "lattice-gdft", "portfolio-allocate", "verify"}),
]


class TestScipyFree:
    def test_import_loads_no_scipy(self):
        proc = run_python("import sys, graphtopo, graphtopo.cli; "
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_commands_run_with_scipy_blocked(self, tmp_path, inputs):
        cases = [(name, [str(a) for a in argv(inputs)]) for name, argv in SCIPY_FREE]
        proc = run_python(BLOCKED_RUN, json.dumps(cases), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        codes = json.loads(proc.stdout.splitlines()[-1])
        assert codes == {name: 0 for name, _ in cases}, proc.stderr
