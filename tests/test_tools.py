"""tools/: one digest over a seeded corpus solved by both routes, and the
per-phase timing table with its closed-form row."""

import dataclasses
import importlib.util
import math
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


def test_digest_covers_the_closed_form(capsys, monkeypatch):
    first = digest(capsys, "--seed", "3", "--grids", "64:4")
    closed_form = solver.solve_collapse_closed_form

    def shifted(axis, state):
        sol = closed_form(axis, state)
        return dataclasses.replace(sol, s_i=math.nextafter(sol.s_i, 1.0))

    monkeypatch.setattr(solver, "solve_collapse_closed_form", shifted)
    assert digest(capsys, "--seed", "3", "--grids", "64:4") != first


def test_digest_covers_the_closed_form_candidates(capsys, monkeypatch):
    first = digest(capsys, "--seed", "3", "--grids", "64:4")
    closed_form = solver.solve_collapse_closed_form
    shifted_any = []

    def shifted(axis, state):
        sol = closed_form(axis, state)
        sol.candidates = [c._replace(overlap=math.nextafter(c.overlap, 0.0))
                          for c in sol.candidates]
        shifted_any.append(bool(sol.candidates))
        return sol

    monkeypatch.setattr(solver, "solve_collapse_closed_form", shifted)
    assert digest(capsys, "--seed", "3", "--grids", "64:4") != first
    assert any(shifted_any)


def test_digest_covers_the_label_swap(capsys, monkeypatch):
    first = digest(capsys, "--seed", "3", "--grids", "64:4")
    grid_route = solver.solve_collapse

    def swapped(axis, state, cfg):
        sol = grid_route(axis, state, cfg)
        sol.candidates = [c._replace(axis=dataclasses.replace(
            c.axis, labels_swapped=not c.axis.labels_swapped))
            for c in sol.candidates]
        return sol

    monkeypatch.setattr(solver, "solve_collapse", swapped)
    assert digest(capsys, "--seed", "3", "--grids", "64:4") != first


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
    assert re.fullmatch(r"\| closed form \| \d+\.\d\d µs \|( – \|){4}",
                        lines[4])
    assert len(lines) == 5
    # the solver's bindings are the originals again
    assert {name: getattr(solver, name) for name in bindings} == bindings
    assert solver.marching_squares is contour.marching_squares
