"""Iterated measurements as a Mealy automaton, ending in the death point.

Each collapse feeds its eigenstate back as the next input.  Starting from
the generic worked instance the machine halts after two steps: the first
collapse lands on an eigenstate of the new axis, so the second measurement
has nothing left to do.

Run:  python3 demos/05_automaton_death_point.py
"""

import math

from spincollapse import ObserverAutomaton, SpinState, canonicalize_axis
from spincollapse.pfn import P_AND, P_OR
from spincollapse.solver import SolverConfig

PI = math.pi


def main():
    machine = ObserverAutomaton(canonicalize_axis(PI / 4, PI / 2), P_OR,
                                solver_cfg=SolverConfig(grid_n=512))
    result = machine.run(SpinState(0.4, 0.0), max_steps=10)

    print("== Run from the generic instance under the OR policy ==")
    for rec in result.records:
        line = (f"step {rec.step_index}: {rec.status.value:10} "
                f"axis ({rec.axis_before.theta:.3f}, {rec.axis_before.phi:.3f})"
                f" -> ({rec.axis_after.theta:.3f}, {rec.axis_after.phi:.3f})")
        if rec.outcome is not None:
            line += f"  outcome={'up' if rec.outcome else 'down'}"
        print(line)
    print(f"halted={result.halted} reason={result.halt_reason} "
          f"after {len(result.records)} steps")

    print("\n== The JSON-lines trace (replayable byte-for-byte) ==")
    print(result.to_jsonl().rstrip())

    print("\n== World switching cannot revive a death point ==")
    dead = ObserverAutomaton(canonicalize_axis(0.862, 1.197), P_OR,
                             solver_cfg=SolverConfig(grid_n=512))
    state = SpinState(math.cos(PI / 8) ** 2, PI / 2)
    _, rec = dead.step(state)
    print(f"in {rec.world_id}: status={rec.status.value}")
    dead.switch_world(P_AND, "world-1")
    _, rec = dead.step(state)
    print(f"after switching policy, in {rec.world_id}: "
          f"status={rec.status.value}")
    print("(the transition never depends on the policy, so no choice of")
    print(" policy brings the collapse back)")


if __name__ == "__main__":
    main()
