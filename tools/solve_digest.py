"""One SHA-256 over the grid-route results of a seeded corpus of instances.

    PYTHONPATH=src python tools/solve_digest.py --seed 7 --grids 256:300,1024:100,4096:12

Instances are drawn unfiltered, as `tests/conftest.random_instance` draws
them, from one `numpy.random.default_rng(seed)` stream: the first 300 are
solved at grid 256, the next 100 at grid 1024, and so on.  Each is solved by
`solve_collapse(axis, state, SolverConfig(grid_n=G))` of whichever
`spincollapse` is first on `PYTHONPATH`.  The digest covers the status, the
final axis, `s_up`, `s_i`, every candidate and every curve vertex, each
float as its 8 IEEE-754 bytes (so -0.0 and 0.0 differ); an instance whose
solve raises contributes the exception's type and message instead.

Two source trees give the same digest exactly when every compared output is
bit-identical.  To compare a change with its parent, run this script once
per tree, with the same flags:

    git worktree add ../parent HEAD~1
    PYTHONPATH=../parent/src python tools/solve_digest.py --seed 7
    PYTHONPATH=src python tools/solve_digest.py --seed 7
    git worktree remove ../parent

The digest goes to stdout; the package path and the counts go to stderr.
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


class Digest:
    def __init__(self):
        self.hash = hashlib.sha256()

    def floats(self, *values: float) -> None:
        self.hash.update(struct.pack(f"<{len(values)}d", *values))

    def text(self, value: object) -> None:
        data = str(value).encode()
        self.hash.update(struct.pack("<q", len(data)) + data)


def add_solution(digest: Digest, sol, counts: dict) -> None:
    digest.text(sol.status.value)
    digest.floats(sol.axis_f.theta, sol.axis_f.phi, sol.s_up, sol.s_i)
    digest.text(len(sol.candidates))
    for c in sol.candidates:
        digest.floats(c.axis.theta, c.axis.phi, c.overlap, c.s_up)
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--grids", default="256:300,1024:100,4096:12",
                        help="comma-separated grid_n:count, solved in order")
    args = parser.parse_args(argv)

    import spincollapse
    from spincollapse.bloch import SpinState, canonicalize_axis
    from spincollapse.solver import SolverConfig, solve_collapse

    rng = np.random.default_rng(args.seed)
    digest = Digest()
    counts = {"instances": 0, "errors": 0, "curves": 0, "vertices": 0,
              "candidates": 0}
    start = time.perf_counter()
    for grid, count in parse_grids(args.grids):
        cfg = SolverConfig(grid_n=grid)
        for _ in range(count):
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(0.0, math.pi)
            rho = rng.uniform(0.0, 1.0)
            tau = rng.uniform(0.0, 2.0 * math.pi)
            axis, state = canonicalize_axis(theta, phi), SpinState(rho, tau)
            digest.text(grid)
            try:
                sol = solve_collapse(axis, state, cfg)
            except Exception as exc:  # part of the compared behaviour
                digest.text(f"{type(exc).__name__}: {exc}")
                counts["errors"] += 1
            else:
                add_solution(digest, sol, counts)
            counts["instances"] += 1
    print(digest.hash.hexdigest())
    print(f"spincollapse from {spincollapse.__file__}; "
          + ", ".join(f"{v} {k}" for k, v in counts.items())
          + f"; {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
