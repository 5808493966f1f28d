"""One SHA-256 over the results of both solver routes on a seeded corpus.

    PYTHONPATH=src python tools/solve_digest.py --seed 7 --grids 256:300,1024:100,4096:12

Instances are drawn unfiltered, as `tests/conftest.random_instance` draws
them, from one `numpy.random.default_rng(seed)` stream: the first 300 are
solved at grid 256, the next 100 at grid 1024, and so on.  Every fourth
instance of the stream has its axis angles rounded to multiples of pi/G,
the node angles of its grid G, before they are canonicalised.  That puts
its levels at about node values, where marching squares' analytic lookup
of a split rank can miss and the row is scanned instead; uniform draws
almost never reach that path.  Every eighth instance, from the second on,
has its phi replaced by k ulps of 2pi below 0, with k = 1, 2, 3 in turn:
canonicalize_axis reduces it to just below 2pi and folds it to the
antipodal axis, whose phi lands just below pi or, for k = 1, rounds onto
pi, so that a second fold brings the axis back.  Neither change takes a
draw, so the stream is the same as without them.  Each instance is solved
by both
`solve_collapse(axis, state, SolverConfig(grid_n=G))` and
`solve_collapse_closed_form(axis, state)` of whichever `spincollapse` is
first on `PYTHONPATH`.  For both routes the digest covers every field of
the result: the status, the final axis, `s_up`, `s_i`, every candidate
(axis, overlap, `s_up`, component) and every curve (level, component, the
zero-entropy mark and every vertex).  An axis goes in as its angles and its
`labels_swapped` flag.  Each float goes in as its 8 IEEE-754 bytes (so -0.0
and 0.0 differ); a solve that raises contributes the exception's type and
message instead.

Two source trees give the same digest exactly when every compared output is
bit-identical.  To compare a change with its parent, run this script once
per tree, with the same flags:

    git worktree add ../parent HEAD~1
    PYTHONPATH=../parent/src python tools/solve_digest.py --seed 7
    PYTHONPATH=src python tools/solve_digest.py --seed 7
    git worktree remove ../parent

The digest goes to stdout; the package path and the counts go to stderr.
The last two counts are the routes' splits: status_splits, the instances
where the two routes' statuses differ, and value_splits, those where both
are Normal and their final axes (angles and `labels_swapped`) or `s_up`
are not bit-identical.  An instance where a route raised is counted among
the errors instead.  Both routes name a Normal answer through one
reflection, so a value split is a bug: the script then exits 1, after
printing the digest and the counts.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import struct
import sys
import time

import numpy as np


def parse_grids(text: str) -> list[tuple[int, int]]:
    """'256:300,1024:100' -> [(256, 300), (1024, 100)]."""
    plan = []
    for item in text.split(","):
        grid, _, count = item.partition(":")
        plan.append((int(grid), int(count)))
    return plan


def instances(seed: int, plan: list[tuple[int, int]]):
    """(grid, theta, phi, rho, tau) of the corpus, in order: every fourth
    has theta and phi rounded to multiples of pi / grid, and every eighth,
    from the second on, a phi of 1, 2 or 3 ulps of 2pi below 0."""
    rng = np.random.default_rng(seed)
    ulp = math.ulp(2.0 * math.pi)
    index = 0
    for grid, count in plan:
        step = math.pi / grid
        for _ in range(count):
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(0.0, math.pi)
            rho = rng.uniform(0.0, 1.0)
            tau = rng.uniform(0.0, 2.0 * math.pi)
            if index % 4 == 3:
                theta = round(theta / step) * step
                phi = round(phi / step) * step
            if index % 8 == 1:
                phi = -(index // 8 % 3 + 1) * ulp
            index += 1
            yield grid, theta, phi, rho, tau


class Digest:
    def __init__(self):
        self.hash = hashlib.sha256()

    def floats(self, *values: float) -> None:
        self.hash.update(struct.pack(f"<{len(values)}d", *values))

    def text(self, value: object) -> None:
        data = str(value).encode()
        self.hash.update(struct.pack("<q", len(data)) + data)


def add_axis(digest: Digest, axis) -> None:
    digest.floats(axis.theta, axis.phi)
    digest.text(axis.labels_swapped)


def add_solution(digest: Digest, sol, counts: dict) -> None:
    digest.text(sol.status.value)
    add_axis(digest, sol.axis_f)
    digest.floats(sol.s_up, sol.s_i)
    digest.text(len(sol.candidates))
    for c in sol.candidates:
        add_axis(digest, c.axis)
        digest.floats(c.overlap, c.s_up)
        digest.text(c.component_id)
    digest.text(len(sol.curves))
    for curve in sol.curves:
        vertices = curve.vertices  # built anew on each access
        digest.floats(curve.level)
        digest.text((len(vertices), curve.component_id,
                     curve.contains_zero_entropy))
        for vertex in vertices:
            digest.floats(*vertex)
        counts["vertices"] += len(vertices)
    counts["curves"] += len(sol.curves)
    counts["candidates"] += len(sol.candidates)


def answer_bytes(sol) -> bytes:
    """The IEEE-754 bytes of a solution's final axis and s_up."""
    axis = sol.axis_f
    return struct.pack("<3d?", axis.theta, axis.phi, sol.s_up,
                       axis.labels_swapped)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--grids", default="256:300,1024:100,4096:12",
                        help="comma-separated grid_n:count, solved in order")
    args = parser.parse_args(argv)

    import spincollapse
    from spincollapse.bloch import SpinState, canonicalize_axis
    from spincollapse.solver import (SolverConfig, Status, solve_collapse,
                                     solve_collapse_closed_form)

    digest = Digest()
    counts = {"instances": 0, "errors": 0, "curves": 0, "vertices": 0,
              "candidates": 0, "status_splits": 0, "value_splits": 0}
    start = time.perf_counter()
    for grid, theta, phi, rho, tau in instances(args.seed,
                                                 parse_grids(args.grids)):
        axis, state = canonicalize_axis(theta, phi), SpinState(rho, tau)
        digest.text(grid)
        sol = closed = None
        try:
            sol = solve_collapse(axis, state, SolverConfig(grid_n=grid))
        except Exception as exc:  # part of the compared behaviour
            digest.text(f"{type(exc).__name__}: {exc}")
            counts["errors"] += 1
        else:
            add_solution(digest, sol, counts)
        try:
            closed = solve_collapse_closed_form(axis, state)
        except Exception as exc:
            digest.text(f"{type(exc).__name__}: {exc}")
            counts["errors"] += 1
        else:
            add_solution(digest, closed, counts)
        if sol is not None and closed is not None:
            if sol.status is not closed.status:
                counts["status_splits"] += 1
            elif (sol.status is Status.NORMAL
                  and answer_bytes(sol) != answer_bytes(closed)):
                counts["value_splits"] += 1
        counts["instances"] += 1
    print(digest.hash.hexdigest())
    print(f"spincollapse from {spincollapse.__file__}; "
          + ", ".join(f"{v} {k}" for k, v in counts.items())
          + f"; {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 1 if counts["value_splits"] else 0


if __name__ == "__main__":
    sys.exit(main())
