"""The collapse solver on its three regimes: a generic (Normal) instance,
a death point, and the trivial no-collapse exception.  The grid route and
the closed-form route are compared on each.

Run:  python3 demos/03_collapse_solver.py
"""

import math

from spincollapse import (
    SpinState,
    canonicalize_axis,
    eigenstate_as_state,
    solve_collapse,
    solve_collapse_closed_form,
)
from spincollapse.solver import SolverConfig, Status

PI = math.pi


def show(name, axis, state):
    cfg = SolverConfig(grid_n=512)
    g = solve_collapse(axis, state, cfg)
    c = solve_collapse_closed_form(axis, state, cfg)
    print(f"\n== {name} ==")
    print(f"input axis ({axis.theta:.4f}, {axis.phi:.4f}), "
          f"state (rho={state.rho:.4f}, tau={state.tau:.4f})")
    for label, sol in (("grid  ", g), ("closed", c)):
        line = f"{label}: {sol.status.value}"
        if sol.status is Status.NORMAL:
            line += (f"  axis_f=({sol.axis_f.theta:.4f}, "
                     f"{sol.axis_f.phi:.4f})  S_up={sol.s_up:.4f}")
        print(line)
    if g.candidates:
        print("grid candidates (extrema on the level curves):")
        for cand in g.candidates:
            print(f"  component {cand.component_id}: "
                  f"({cand.axis.theta:.4f}, {cand.axis.phi:.4f}) "
                  f"overlap={cand.overlap:.4f} s_up={cand.s_up:.4f}")


def main():
    show("Generic instance (Normal)",
         canonicalize_axis(PI / 4, PI / 2), SpinState(0.4, 0.0))
    show("Death point (the axis cannot move)",
         canonicalize_axis(0.862, 1.197),
         SpinState(math.cos(PI / 8) ** 2, PI / 2))
    axis = canonicalize_axis(PI / 4, PI / 2)
    show("Trivial (measuring an eigenstate: no collapse)",
         axis, eigenstate_as_state(axis, 1))


if __name__ == "__main__":
    main()
