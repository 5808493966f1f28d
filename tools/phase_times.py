"""Per-phase wall time of grid solves, and the time of a closed-form solve.

    PYTHONPATH=src python tools/phase_times.py --grids 256,1024,4096 --solves 5 --rounds 3

The generic instance is the worked example of the README: initial axis
(pi/4, pi/2), state rho = 0.4, tau = 0.  Each solve is
`solve_collapse(axis, state, SolverConfig(grid_n=G))` of whichever
`spincollapse` is first on `PYTHONPATH`.  The phases are timed by wrapping
the bindings in `spincollapse.solver` that the solve calls through; the
originals are put back when the measurement ends:

    total            solve_collapse
    field            _overlap_grid (the row and column factors)
    marching squares marching_squares: one call traces both levels
                     (tables made before the levels shared a pass sum one
                     call per level)
    rest of tracing  trace_level_sets minus the field and marching squares:
                     chiefly the pass that gives every vertex of both
                     levels its overlap and its tangency (tables made
                     before that pass was shared count the tangency under
                     candidates)
    candidates       _candidates: one pass over the vertices of all curves,
                     the sign scan of their tangency, and which of its
                     circle's two known extrema each bracket holds (tables
                     made before that pass summed _curve_candidates, one
                     call per curve)

Each round solves every grid --solves times, grid after grid, and keeps
each phase's minimum over those solves; the table gives the median of each
phase over --rounds rounds.  Phases are minimised separately, so they need
not add up to the total.  The column `minor faults` is the median, over
all solves of a grid, of the minor page faults the process took during one
solve: `resource.getrusage(RUSAGE_SELF).ru_minflt` read before and after
it, the process's own counter.  A grid whose temporaries the allocator
hands back to the OS after each solve pages them in again on the next.

The last row, `closed form`, is the time per
`solve_collapse_closed_form(axis, state)` over a fixed sweep of
CLOSED_SWEEP unfiltered instances (drawn as `tools/solve_digest.py` draws
them, from `numpy.random.default_rng(CLOSED_SEED)`, and built before the
clock starts).  Each round times the sweep --solves times and keeps the
fastest; the row gives the median over the rounds, in microseconds per
solve.  The first line names the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

MS, CANDIDATES = "marching squares (both levels)", "candidates"
PHASES = ("total", "field", MS, "rest of tracing", CANDIDATES)
FAULTS = "minor faults"
# solver binding -> the phase its time is added to
WRAPPED = {"solve_collapse": "total", "_overlap_grid": "field",
           "marching_squares": MS, "trace_level_sets": "tracing",
           "_candidates": CANDIDATES}
CLOSED_SEED, CLOSED_SWEEP = 0, 2000


@contextlib.contextmanager
def timed_bindings(module, phases: dict[str, str], sink: dict[str, float]):
    """Replace module.<name> for each name in phases by a wrapper that adds
    the call's wall time to sink[phases[name]]; restore them on exit."""
    originals = {name: getattr(module, name) for name in phases}

    def wrap(fn, phase):
        def timed_call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sink[phase] += time.perf_counter() - start
        return timed_call

    try:
        for name, fn in originals.items():
            setattr(module, name, wrap(fn, phases[name]))
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def solve_phases(solver, axis, state, cfg) -> dict[str, float]:
    """Seconds spent in each phase by one solve."""
    sink = dict.fromkeys(WRAPPED.values(), 0.0)
    with timed_bindings(solver, WRAPPED, sink):
        solver.solve_collapse(axis, state, cfg)
    sink["rest of tracing"] = sink.pop("tracing") - sink["field"] - sink[MS]
    return sink


def minor_faults() -> int:
    """The minor page faults this process has taken so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(grids: list[int], solves: int, rounds: int
            ) -> dict[int, dict[str, float]]:
    """grid -> phase -> median over rounds of the best of solves, in s, and
    grid -> FAULTS -> median over all solves of the faults per solve."""
    from spincollapse import solver
    from spincollapse.bloch import SpinState, canonicalize_axis

    axis = canonicalize_axis(math.pi / 4, math.pi / 2)
    state = SpinState(0.4, 0.0)
    best: dict[int, dict[str, list[float]]] = {
        g: {p: [] for p in (*PHASES, FAULTS)} for g in grids}
    for _ in range(rounds):
        for grid in grids:
            cfg = solver.SolverConfig(grid_n=grid)
            runs = []
            for _ in range(solves):
                before = minor_faults()
                runs.append(solve_phases(solver, axis, state, cfg))
                best[grid][FAULTS].append(minor_faults() - before)
            for phase in PHASES:
                best[grid][phase].append(min(r[phase] for r in runs))
    return {g: {p: statistics.median(v) for p, v in phases.items()}
            for g, phases in best.items()}


def closed_form_sweep() -> list[tuple]:
    """The CLOSED_SWEEP (axis, state) pairs of the closed-form row."""
    from spincollapse.bloch import SpinState, canonicalize_axis

    rng = np.random.default_rng(CLOSED_SEED)
    sweep = []
    for _ in range(CLOSED_SWEEP):
        theta, phi = rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)
        rho, tau = rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)
        sweep.append((canonicalize_axis(theta, phi), SpinState(rho, tau)))
    return sweep


def measure_closed_form(solves: int, rounds: int) -> float:
    """Median over rounds of the best of solves sweeps, in s per solve."""
    from spincollapse.solver import solve_collapse_closed_form

    sweep = closed_form_sweep()
    best = []
    for _ in range(rounds):
        times = []
        for _ in range(solves):
            start = time.perf_counter()
            for axis, state in sweep:
                solve_collapse_closed_form(axis, state)
            times.append(time.perf_counter() - start)
        best.append(min(times) / len(sweep))
    return statistics.median(best)


def fmt_ms(seconds: float) -> str:
    ms = seconds * 1e3
    return f"{ms:.{2 if ms < 1 else 1 if ms < 100 else 0}f} ms"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--grids", default="256,1024,4096",
                        help="comma-separated grid_n values")
    parser.add_argument("--solves", type=int, default=5,
                        help="solves per grid and round; the best is kept")
    parser.add_argument("--rounds", type=int, default=3,
                        help="rounds; the median of their bests is printed")
    args = parser.parse_args(argv)
    grids = [int(g) for g in args.grids.split(",")]
    if args.solves < 1 or args.rounds < 1:
        parser.error("--solves and --rounds must be at least 1")

    table = measure(grids, args.solves, args.rounds)
    closed = measure_closed_form(args.solves, args.rounds)
    print(f"# {os.cpu_count()} CPUs, Python {platform.python_version()}, "
          f"numpy {np.__version__}; generic instance; best of "
          f"{args.solves} solves, median of {args.rounds} rounds")
    print("| `grid_n` | " + " | ".join((*PHASES, FAULTS)) + " |")
    print("|---" * (len(PHASES) + 2) + "|")
    for grid, phases in table.items():
        print(f"| {grid} | "
              + " | ".join(fmt_ms(phases[p]) for p in PHASES)
              + f" | {phases[FAULTS]:g} |")
    print(f"| closed form | {closed * 1e6:.2f} µs |"
          + " – |" * len(PHASES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
