"""tools/: one digest over a seeded corpus of grid solves, and the
per-phase timing table."""

import importlib.util
import pathlib
import re

import pytest

from spincollapse import contour, solver

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


solve_digest = load_tool("solve_digest")
phase_times = load_tool("phase_times")


def digest(capsys, *argv):
    assert solve_digest.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(r"[0-9a-f]{64}\n", out)
    return out


def test_digest_is_a_function_of_the_corpus(capsys):
    first = digest(capsys, "--seed", "3", "--grids", "64:4,128:2")
    assert digest(capsys, "--seed", "3", "--grids", "64:4,128:2") == first
    assert digest(capsys, "--seed", "4", "--grids", "64:4,128:2") != first
    assert digest(capsys, "--seed", "3", "--grids", "64:4,128:1") != first


def test_floats_are_hashed_by_their_bytes():
    zero, minus_zero = solve_digest.Digest(), solve_digest.Digest()
    zero.floats(0.0)
    minus_zero.floats(-0.0)
    assert zero.hash.digest() != minus_zero.hash.digest()


@pytest.mark.parametrize("text, plan", [
    ("256:300,1024:100,4096:12", [(256, 300), (1024, 100), (4096, 12)]),
    ("64:1", [(64, 1)])])
def test_parse_grids(text, plan):
    assert solve_digest.parse_grids(text) == plan


def test_phase_times_prints_one_row_per_grid(capsys):
    bindings = {name: getattr(solver, name) for name in phase_times.WRAPPED}
    assert phase_times.main(["--grids", "64", "--solves", "1",
                             "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"# \d+ CPUs, Python \S+, numpy \S+; .*", lines[0])
    assert lines[1] == "| `grid_n` | " + " | ".join(phase_times.PHASES) + " |"
    assert re.fullmatch(r"\| 64 \|( \d+\.\d+ ms \|){5}", lines[3])
    assert len(lines) == 4
    # the solver's bindings are the originals again
    assert {name: getattr(solver, name) for name in bindings} == bindings
    assert solver.marching_squares is contour.marching_squares
