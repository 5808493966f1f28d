"""tools/: one digest over a seeded corpus solved by both routes and run by
the automaton, the per-phase timing table with its closed-form row, and the
CLI start-up table."""

import importlib.util
import math
import os
import pathlib
import re

import numpy as np
import pytest

from spincollapse import automaton, contour, solver
from spincollapse.bloch import SpinState, canonicalize_axis

from conftest import missed_rows, run_python

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


solve_digest = load_tool("solve_digest")
phase_times = load_tool("phase_times")


def digest(capsys, *argv, code=0):
    assert solve_digest.main(list(argv)) == code
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
        return sol._replace(s_i=math.nextafter(sol.s_i, 1.0))

    monkeypatch.setattr(solver, "solve_collapse_closed_form", shifted)
    # an s_i split is a value split, so the run fails after the digest
    assert digest(capsys, "--seed", "3", "--grids", "64:4", code=1) != first


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
        sol.candidates = [c._replace(axis=c.axis._replace(
            labels_swapped=not c.axis.labels_swapped))
            for c in sol.candidates]
        return sol

    monkeypatch.setattr(solver, "solve_collapse", swapped)
    assert digest(capsys, "--seed", "3", "--grids", "64:4") != first


def test_digest_covers_the_automaton_jsonl(capsys, monkeypatch):
    first = digest(capsys, "--seed", "3", "--grids", "64:4")
    eigenstate = automaton.eigenstate_as_state
    moved = []

    def shifted(axis, outcome):
        state = eigenstate(axis, outcome)
        moved.append(state)
        return state._replace(rho=math.nextafter(state.rho, 0.5))

    # the runs' collapsed states move by one ulp; the solves are unchanged
    monkeypatch.setattr(automaton, "eigenstate_as_state", shifted)
    assert digest(capsys, "--seed", "3", "--grids", "64:4") != first
    assert moved


def splits(capsys, *argv, code=0) -> tuple[int, int]:
    """The last two counts of the digest's stderr line, status_splits and
    value_splits, from a run that exits with code."""
    assert solve_digest.main(list(argv)) == code
    err = capsys.readouterr().err
    found = re.search(r", (\d+) status_splits, (\d+) value_splits; "
                      r"[\d.]+ s\n$", err)
    return int(found[1]), int(found[2])


def test_digest_counts_route_disagreements(capsys, monkeypatch):
    # the routes agree on this corpus; a closed form that flips the swap
    # flag of every Normal answer and turns every other status into
    # Trivial then splits a value on each Normal instance and the status
    # on each other one, and the value splits fail the run
    assert splits(capsys, "--seed", "3", "--grids", "64:20") == (0, 0)
    closed_form = solver.solve_collapse_closed_form
    normal = []

    def changed(axis, state):
        sol = closed_form(axis, state)
        if sol.status is solver.Status.NORMAL:
            normal.append(sol)
            return sol._replace(axis_f=sol.axis_f._replace(
                labels_swapped=not sol.axis_f.labels_swapped))
        return sol._replace(status=solver.Status.TRIVIAL)

    monkeypatch.setattr(solver, "solve_collapse_closed_form", changed)
    assert splits(capsys, "--seed", "3", "--grids", "64:20", code=1) == \
        (20 - len(normal), len(normal))
    assert 0 < len(normal) < 20
    # a grid answer one ulp off the closed form's s_up is a value split
    monkeypatch.setattr(solver, "solve_collapse_closed_form", closed_form)
    grid_route = solver.solve_collapse

    def nudged(axis, state, cfg):
        sol = grid_route(axis, state, cfg)
        return sol._replace(s_up=math.nextafter(sol.s_up, 1.0))

    monkeypatch.setattr(solver, "solve_collapse", nudged)
    assert splits(capsys, "--seed", "3", "--grids", "64:20", code=1) == \
        (0, len(normal))


def test_digest_counts_an_s_i_split_of_any_status(capsys, monkeypatch):
    # both routes take p_same from one formula: a grid s_i one ulp off the
    # closed form's is a value split on every instance, whatever its status
    grid_route = solver.solve_collapse

    def nudged(axis, state, cfg):
        sol = grid_route(axis, state, cfg)
        return sol._replace(s_i=math.nextafter(sol.s_i, 1.0))

    monkeypatch.setattr(solver, "solve_collapse", nudged)
    assert splits(capsys, "--seed", "3", "--grids", "64:20", code=1) == \
        (0, 20)


def test_digest_corpus_reaches_missed_split_rows():
    # every fourth instance has its axis on node angles, which puts its
    # levels at about node values; the draws are those of a uniform corpus
    rng = np.random.default_rng(7)
    missed = 0
    corpus = solve_digest.instances(7, [(64, 20), (128, 20)])
    for index, (grid, theta, phi, rho, tau) in enumerate(corpus):
        drawn = [rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi),
                 rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)]
        assert [rho, tau] == drawn[2:]
        if index % 4 != 3:
            assert theta == drawn[0]
            assert phi == drawn[1] or index % 8 == 1
            continue
        step = math.pi / grid
        assert theta == round(drawn[0] / step) * step
        assert phi == round(drawn[1] / step) * step
        axis, state = canonicalize_axis(theta, phi), SpinState(rho, tau)
        _, _, a, b, c = solver._overlap_grid(state, grid)
        for level in solver.constraint_levels(axis, state):
            missed += missed_rows(a, b, c, level)
    assert missed > 0


def test_digest_corpus_reaches_two_antipodal_folds():
    # every eighth instance has phi a few ulps below 0, taking no draw; at
    # 1 ulp the first antipodal fold rounds phi onto pi and a second fold
    # returns the axis unswapped, where one fold would swap its labels
    rng = np.random.default_rng(7)
    double = single = 0
    corpus = solve_digest.instances(7, [(64, 40), (128, 40)])
    for index, (grid, theta, phi, rho, tau) in enumerate(corpus):
        drawn = [rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi),
                 rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)]
        assert [rho, tau] == drawn[2:]
        if index % 8 != 1:
            continue
        assert -4.0 * math.ulp(2.0 * math.pi) < phi < 0.0
        assert theta == drawn[0]
        axis = canonicalize_axis(theta, phi)
        if axis.labels_swapped:
            single += 1
        else:
            assert axis.phi == 0.0 and abs(axis.theta - theta) < 1e-15
            double += 1
    assert double > 0 and single > 0


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
    assert lines[1] == ("| `grid_n` | " + " | ".join(phase_times.PHASES)
                        + " | minor faults | peak KiB |")
    # five phase times, the median minor page faults per solve, then the
    # transient peak of one solve
    assert re.fullmatch(r"\| 64 \|( \d+\.\d+ ms \|){5} \d+(\.\d+)? \| "
                        r"[1-9]\d* \|", lines[3])
    assert re.fullmatch(r"\| closed form \| \d+\.\d\d µs \|( – \|){6}",
                        lines[4])
    assert len(lines) == 5
    # the solver's bindings are the originals again
    assert {name: getattr(solver, name) for name in bindings} == bindings
    assert solver.marching_squares is contour.marching_squares


def test_every_phase_takes_time():
    # a wrapped binding that the solve no longer calls through would read
    # 0 s, a stale column, rather than fail
    phases = phase_times.solve_phases(
        solver, canonicalize_axis(math.pi / 4, math.pi / 2),
        SpinState(0.4, 0.0), solver.SolverConfig(grid_n=64))
    assert set(phases) == set(phase_times.PHASES)
    assert all(seconds > 0.0 for seconds in phases.values()), phases


def test_cli_times_prints_one_row_per_request():
    # a fresh process, since the tool pins itself to one CPU
    src = str(TOOLS.parent / "src")
    code, out, err = run_python(str(TOOLS / "cli_times.py"), "--rounds", "1",
                                "--src", src, "--src", src)
    assert code == 0, err.decode()
    lines = out.decode().splitlines()
    # the requests inherit this process's environment
    cache = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    assert re.fullmatch(r"# \d+ CPUs, (cpu \d+|unpinned), Python \S+, "
                        rf"bytecode cache {cache}; median \[quartiles\] of 1 "
                        r"rounds, ms, and median peak RSS", lines[0])
    assert lines[1] == f"| command | {src} | {src} |"
    assert [line.split(" | ")[0] for line in lines[3:]] == [
        "| bare python", "| import numpy", "| solve",
        "| solve --method closed", "| run (grid)", "| pfn table",
        "| pfn prob --method mc", "| trace"]
    for line in lines[3:]:
        assert re.fullmatch(r"\| [^|]+( \| \d+\.\d, \d+\.\d MB){2} \|",
                            line)
    # a fresh python holds some megabytes; Monte Carlo at 10^6 samples more
    rss = {line.split(" | ")[0]: float(line.split(", ")[1].split()[0])
           for line in lines[3:]}
    assert 1.0 < rss["| bare python"] < rss["| pfn prob --method mc"]
