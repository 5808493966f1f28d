"""Iterated-measurement automaton.

A Mealy-style transducer: the internal state is the observer's measurement
axis, the transition is the entropy-constrained collapse solve, and the
output is chosen by the boolean outcome policy.  Each collapse feeds its
eigenstate back in as the next input, so a run traces the recurrence until a
trivial or death-point configuration halts it.
"""

from __future__ import annotations

import json
from typing import Optional

from ._values import Record, check_integer
from .bloch import Axis, SpinState, eigenstate_as_state
from .pfn import BoolExpr, BoolProjection, HistoryError, decide_outcome, \
    project_axis, to_truth_table
from .solver import CollapseSolution, SolverConfig, Status, \
    solve_collapse, solve_collapse_closed_form


class StepRecord(Record):
    __slots__ = ("step_index", "state_before", "axis_before", "status",
                 "axis_after", "outcome", "state_after", "s_i", "s_up",
                 "world_id")

    def __init__(self, step_index: int, state_before: SpinState,
                 axis_before: Axis, status: Status, axis_after: Axis,
                 outcome: Optional[int], state_after: SpinState, s_i: float,
                 s_up: float, world_id: str):
        self.step_index = step_index
        self.state_before = state_before
        self.axis_before = axis_before
        self.status = status
        self.axis_after = axis_after
        self.outcome = outcome
        self.state_after = state_after
        self.s_i = s_i
        self.s_up = s_up
        self.world_id = world_id

    def to_json_dict(self) -> dict:
        return {
            "step": self.step_index,
            "status": self.status.value,
            "theta_i": self.axis_before.theta,
            "phi_i": self.axis_before.phi,
            "theta_f": self.axis_after.theta,
            "phi_f": self.axis_after.phi,
            "outcome": self.outcome,
            "rho_before": self.state_before.rho,
            "tau_before": self.state_before.tau,
            "rho_after": self.state_after.rho,
            "tau_after": self.state_after.tau,
            "s_i": self.s_i,
            "s_up": self.s_up,
            "world_id": self.world_id,
        }


class RunResult(Record):
    __slots__ = ("records", "halted", "halt_reason", "death_step")

    def __init__(self, records: list[StepRecord], halted: bool,
                 halt_reason: str, death_step: Optional[int] = None):
        self.records = records
        self.halted = halted
        self.halt_reason = halt_reason  # death_point | trivial | max_steps
        self.death_step = death_step

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r.to_json_dict(), sort_keys=False) + "\n"
                       for r in self.records)


_HALT_REASONS = {Status.TRIVIAL: "trivial", Status.DEATH_POINT: "death_point"}


class ObserverAutomaton:
    """Single-writer state machine; concurrent runs need separate instances."""

    def __init__(self, axis: Axis, pfn: BoolExpr, memory_depth: int = 0,
                 solver_cfg: SolverConfig | None = None,
                 seed_history: list[tuple[BoolProjection, int]] | None = None):
        # validates the depth and the variable arity before the depth is used
        to_truth_table(pfn, memory_depth)
        if memory_depth > 0 and len(seed_history or []) < memory_depth:
            raise HistoryError(
                f"memory depth {memory_depth} requires seeded history")
        self.current_axis = axis
        self.pfn = pfn
        self.memory_depth = memory_depth
        self.solver_cfg = solver_cfg or SolverConfig()
        self.world_id = "world-0"
        self.history: list[tuple[BoolProjection, int]] = \
            list(seed_history or [])[:memory_depth]
        self._step_count = 0

    def _solve(self, state: SpinState) -> CollapseSolution:
        if self.solver_cfg.method == "closed_form":
            return solve_collapse_closed_form(self.current_axis, state,
                                              self.solver_cfg)
        return solve_collapse(self.current_axis, state, self.solver_cfg)

    def step(self, input_state: SpinState) -> tuple[SpinState, StepRecord]:
        """One measurement: transition the axis, decide the outcome, collapse
        the state.  A Trivial or DeathPoint step halts: it passes the state
        through unchanged and leaves the axis and history as they were.
        Halting is the step's status, not the machine's: a later step on
        another input may be Normal."""
        self._step_count += 1
        axis_before = self.current_axis
        sol = self._solve(input_state)
        if sol.status is Status.NORMAL:
            outcome = decide_outcome(self.pfn, sol.axis_f, self.history,
                                     self.memory_depth)
            output_state = eigenstate_as_state(sol.axis_f, outcome)
            if self.memory_depth > 0:
                self.history = ([(project_axis(sol.axis_f), outcome)]
                                + self.history)[:self.memory_depth]
            self.current_axis = sol.axis_f
        else:
            outcome = None
            output_state = input_state
        record = StepRecord(
            step_index=self._step_count,
            state_before=input_state,
            axis_before=axis_before,
            status=sol.status,
            axis_after=sol.axis_f,
            outcome=outcome,
            state_after=output_state,
            s_i=sol.s_i,
            s_up=sol.s_up,
            world_id=self.world_id,
        )
        return output_state, record

    def run(self, initial_state: SpinState, max_steps: int) -> RunResult:
        """Iterate step, feeding each output state back as the next input,
        until a step of this run is not Normal or max_steps steps are made.
        The result reports this run's steps only: its halted, halt_reason
        and death_step come from the last of them."""
        check_integer("max_steps", max_steps)
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        records: list[StepRecord] = []
        state = initial_state
        reason = "max_steps"
        for _ in range(max_steps):
            state, record = self.step(state)
            records.append(record)
            if record.status is not Status.NORMAL:
                reason = _HALT_REASONS[record.status]
                break
        death_step = records[-1].step_index if reason == "death_point" \
            else None
        return RunResult(records, reason != "max_steps", reason, death_step)

    def switch_world(self, new_pfn: BoolExpr, new_world_id: str) -> None:
        """Move to another Everett world: replace the outcome policy and the
        world_id that later step records carry.  The axis and history are
        untouched, and the transition does not depend on the policy, so an
        input that halted a step halts it again after the switch."""
        to_truth_table(new_pfn, self.memory_depth)  # arity check
        self.pfn = new_pfn
        self.world_id = new_world_id
