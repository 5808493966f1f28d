"""Binary entropy and the constraint level sets behind a collapse.

The admissible final axes are the level curves of the up-overlap field at
the two values allowed by entropy conservation.  This script traces them
for a generic instance and writes a CSV you can plot externally.

Run:  python3 demos/02_entropy_level_sets.py
"""

import csv
import math

from spincollapse import (
    SpinState,
    binary_entropy,
    canonicalize_axis,
    constraint_levels,
    entropy_pair_solutions,
    solve_collapse,
)
from spincollapse.solver import SolverConfig

PI = math.pi


def main():
    print("== Binary entropy f(p) = -p ln p - (1-p) ln(1-p) ==")
    for p in (0.02, 0.5, 0.98):
        print(f"f({p:4}) = {binary_entropy(p):.4f} nats")
    lo, hi = entropy_pair_solutions(0.0980)
    print(f"inverse: f(p) = 0.0980  ->  p in {{{lo:.4f}, {hi:.4f}}}")

    print("\n== Level sets of a collapse instance ==")
    axis = canonicalize_axis(PI / 4, PI / 2)
    state = SpinState(0.4, 0.0)
    p_same, p_flip = constraint_levels(axis, state)
    print(f"initial overlap p = {p_same:.4f}; the final axis must satisfy")
    print(f"overlap in {{{p_same:.4f}, {p_flip:.4f}}}  (f is two-to-one)")

    cfg = SolverConfig(grid_n=512)
    # solve_collapse traces both level sets and marks the components it
    # drops: those with a zero-entropy overlap extremum, such as the one
    # through the initial axis (overlap 1)
    curves = solve_collapse(axis, state, cfg).curves
    out = "level_sets.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "phi", "level", "component"])
        for cv in curves:
            for th, ph in zip(cv.theta.tolist(), cv.phi.tolist()):
                w.writerow([f"{th:.6f}", f"{ph:.6f}", f"{cv.level:.6f}",
                            cv.component_id])
    for cv in curves:
        print(f"component {cv.component_id}: level {cv.level:.4f}, "
              f"{cv.theta.size} vertices, "
              f"zero-entropy point={cv.contains_zero_entropy}")
    print(f"wrote {out} (plot theta vs phi, colored by component)")


if __name__ == "__main__":
    main()
