"""Iterated-measurement automaton: stepping, halting, memory, world
switching, and trace replay."""

import json
import math

import numpy as np
import pytest

from spincollapse.automaton import ObserverAutomaton
from spincollapse.bloch import SpinState, canonicalize_axis, eigenstate_as_state
from spincollapse.entropy import collapse_entropies
from spincollapse.pfn import (
    BoolProjection,
    Const,
    ExprArityError,
    HistoryError,
    P_AND,
    P_OR,
    TruthTable,
    parse_expr,
    project_axis,
    to_dnf,
)
from spincollapse.solver import SolverConfig, Status

from conftest import random_instance

PI = math.pi

START_AXIS = canonicalize_axis(PI / 4, PI / 2)
START_STATE = SpinState(0.4, 0.0)
CFG = SolverConfig(grid_n=256)


def machine(pfn=P_OR, **kw):
    return ObserverAutomaton(START_AXIS, pfn, solver_cfg=CFG, **kw)


class TestStep:
    def test_normal_step_pinned(self):
        out, rec = machine().step(START_STATE)
        assert rec.status is Status.NORMAL
        assert rec.axis_after.theta == pytest.approx(0.862, abs=1e-3)
        assert rec.axis_after.phi == pytest.approx(1.197, abs=1e-3)
        assert rec.outcome == 1  # projection (1,1), OR -> up
        assert out.rho == pytest.approx(0.8254, abs=1e-3)
        assert out.tau == pytest.approx(1.197, abs=1e-3)

    def test_death_step_halts_and_passes_state_through(self):
        axis = canonicalize_axis(0.862, 1.197)
        m = ObserverAutomaton(axis, P_OR, solver_cfg=CFG)
        state = SpinState(math.cos(PI / 8) ** 2, PI / 2)
        out, rec = m.step(state)
        assert rec.status is Status.DEATH_POINT
        assert rec.outcome is None
        assert out == state
        assert m.current_axis == axis

    def test_trivial_step_halts(self):
        m = machine()
        state = eigenstate_as_state(START_AXIS, 1)
        out, rec = m.step(state)
        assert rec.status is Status.TRIVIAL
        assert out == state
        assert m.current_axis == START_AXIS

    def test_outcome_is_policy_dependent_but_axis_is_not(self):
        # this instance resolves to an axis projecting to (1, 0), where
        # OR says up and AND says down
        axis = canonicalize_axis(2.738322973997666, 1.7088423086219473)
        state = SpinState(0.9022150797159884, 2.9980440102554655)
        m_or = ObserverAutomaton(axis, P_OR, solver_cfg=CFG)
        m_and = ObserverAutomaton(axis, P_AND, solver_cfg=CFG)
        out_or, rec_or = m_or.step(state)
        out_and, rec_and = m_and.step(state)
        assert rec_or.status is Status.NORMAL
        assert rec_or.axis_after == rec_and.axis_after
        assert rec_or.outcome == 1 and rec_and.outcome == 0
        assert out_or != out_and
        # one step from a fresh machine under each of the 16 memoryless
        # truth tables, on seeded unfiltered draws: the status, the new axis
        # and the entropies never depend on the table, and a Normal outcome
        # does (tables 0 and f)
        policies = [to_dnf(TruthTable.from_hex(f"{k:x}", 0))
                    for k in range(16)]
        rng = np.random.default_rng(29)
        for cfg, draws in ((SolverConfig(method="closed_form"), 200),
                           (CFG, 20)):
            statuses = set()
            for _ in range(draws):
                axis, state = random_instance(rng)
                recs = [ObserverAutomaton(axis, p, 0, cfg).step(state)[1]
                        for p in policies]
                first = recs[0]
                for rec in recs[1:]:
                    assert (rec.status, rec.axis_after, rec.s_i, rec.s_up) == \
                        (first.status, first.axis_after, first.s_i, first.s_up)
                if first.status is Status.NORMAL:
                    assert {rec.outcome for rec in recs} == {0, 1}
                statuses.add(first.status)
            assert Status.NORMAL in statuses


class TestRun:
    def test_death_within_two_steps_from_the_worked_instance(self):
        result = machine().run(START_STATE, max_steps=10)
        assert len(result.records) == 2
        assert result.halted
        assert result.halt_reason in ("trivial", "death_point")
        assert result.records[0].status is Status.NORMAL
        assert result.records[1].status in (Status.TRIVIAL,
                                            Status.DEATH_POINT)

    @pytest.mark.parametrize("cfg, runs", [
        (SolverConfig(method="closed_form"), 300),
        (SolverConfig(grid_n=64), 40)])
    def test_run_without_inputs_halts_by_step_two(self, cfg, runs):
        # each collapse feeds back an eigenstate of the new axis, so a run
        # that does not die at step 1 is Trivial at step 2 (c = +-1): no
        # run cycles or reaches max_steps
        policies = [parse_expr(t) for t in ("x|y", "x&y", "x^y", "!x",
                                            "x|!y")]
        rng = np.random.default_rng(5)
        halts = set()
        for k in range(runs):
            axis, state = random_instance(rng)
            result = ObserverAutomaton(axis, policies[k % len(policies)], 0,
                                       cfg).run(state, max_steps=50)
            statuses = [rec.status for rec in result.records]
            assert statuses in ([Status.DEATH_POINT],
                                [Status.NORMAL, Status.TRIVIAL]), statuses
            assert result.halted
            halts.add(result.halt_reason)
        assert halts == {"death_point", "trivial"}

    def test_trivial_start_halts_at_step_one(self):
        result = machine().run(eigenstate_as_state(START_AXIS, 1),
                               max_steps=5)
        assert len(result.records) == 1
        assert result.halt_reason == "trivial"

    def test_max_steps_reason(self):
        result = machine().run(START_STATE, max_steps=1)
        assert not result.halted
        assert result.halt_reason == "max_steps"

    def test_second_run_reports_its_own_steps(self):
        # the first run halts the machine; a second run from a state that
        # collapses Normally goes on until one of its own steps halts, and
        # reports that step's reason, not the first run's
        m = ObserverAutomaton(START_AXIS, P_OR, 0,
                              SolverConfig(method="closed_form"))
        first = m.run(START_STATE, 10)
        assert first.halt_reason == "trivial"
        second = m.run(SpinState(0.3, 1.0), 10)
        assert [rec.step_index for rec in second.records] == [3, 4]
        assert [rec.status for rec in second.records] == [Status.NORMAL,
                                                          Status.TRIVIAL]
        assert second.halted and second.halt_reason == "trivial"
        assert second.death_step is None

    def test_death_run_sets_the_death_step(self):
        m = ObserverAutomaton(canonicalize_axis(0.862, 1.197), P_OR,
                              solver_cfg=CFG)
        result = m.run(SpinState(math.cos(PI / 8) ** 2, PI / 2), 10)
        assert len(result.records) == 1
        assert result.halted and result.halt_reason == "death_point"
        assert result.death_step == 1

    def test_max_steps_validation(self):
        with pytest.raises(ValueError):
            machine().run(START_STATE, max_steps=0)

    def test_replay_is_identical(self):
        r1 = machine().run(START_STATE, max_steps=10)
        r2 = machine().run(START_STATE, max_steps=10)
        assert r1.to_jsonl() == r2.to_jsonl()

    def test_entropy_conservation_on_every_normal_record(self):
        result = machine().run(START_STATE, max_steps=10)
        for rec in result.records:
            if rec.status is Status.NORMAL:
                s_i, s_f = collapse_entropies(
                    rec.axis_before, rec.axis_after, rec.state_before)[:2]
                assert abs(s_f - s_i) <= 1e-6

    @pytest.mark.parametrize("method", ["grid", "closed_form"])
    def test_replay_recomputes_s_i_exactly(self, method):
        cfg = SolverConfig(grid_n=256, method=method)
        rng = np.random.default_rng(28)
        records = 0
        for _ in range(20):
            state = SpinState(rng.uniform(0.0, 1.0),
                              rng.uniform(0.0, 2.0 * PI))
            m = ObserverAutomaton(START_AXIS, P_OR, solver_cfg=cfg)
            for rec in m.run(state, max_steps=10).records:
                assert collapse_entropies(
                    rec.axis_before, rec.axis_after,
                    rec.state_before)[0] == rec.s_i, rec
                records += 1
        assert records > 20


class TestTraceSchema:
    def test_jsonl_field_names_and_types(self):
        result = machine().run(START_STATE, max_steps=10)
        lines = result.to_jsonl().strip().split("\n")
        assert len(lines) == len(result.records)
        expected = ["step", "status", "theta_i", "phi_i", "theta_f", "phi_f",
                    "outcome", "rho_before", "tau_before", "rho_after",
                    "tau_after", "s_i", "s_up", "world_id"]
        for k, line in enumerate(lines, start=1):
            rec = json.loads(line)
            assert list(rec.keys()) == expected
            assert rec["step"] == k
            assert rec["status"] in ("Normal", "DeathPoint", "Trivial")
            assert rec["world_id"] == "world-0"
            assert (rec["outcome"] is not None) == (rec["status"] == "Normal")


class TestMemory:
    def test_requires_seeded_history(self):
        # the call cmd_run makes: it passes no seed_history, so a run
        # config with memory_depth >= 1 cannot reach the memory window
        with pytest.raises(HistoryError,
                           match="^memory depth 1 requires seeded history$"):
            ObserverAutomaton(START_AXIS, parse_expr("s1", 1), 1)

    def test_arity_checked_against_depth(self):
        with pytest.raises(ExprArityError):
            ObserverAutomaton(START_AXIS, parse_expr("s1", 1),
                              memory_depth=0, solver_cfg=CFG)

    def test_history_window_sees_previous_outcome(self):
        seed = [(BoolProjection(0, 0), 0)]
        m = ObserverAutomaton(START_AXIS, parse_expr("s1", 1),
                              memory_depth=1, solver_cfg=CFG,
                              seed_history=seed)
        out, rec = m.step(START_STATE)
        # policy repeats the previous outcome: seeded 0 -> down
        assert rec.outcome == 0
        # the new record replaces the seed in the window
        assert m.history[0][1] == 0
        assert m.history[0][0] == project_axis(rec.axis_after)


class TestWorldSwitch:
    def test_switch_changes_subsequent_outcomes(self):
        # under OR this step's outcome is up (test_normal_step_pinned)
        m = machine()
        m.switch_world(Const(0), "world-down")
        result = m.run(START_STATE, max_steps=1)
        rec = result.records[0]
        assert rec.status is Status.NORMAL
        assert rec.outcome == 0
        assert rec.world_id == "world-down"
        assert json.loads(result.to_jsonl())["world_id"] == "world-down"

    def test_switch_to_equivalent_policy_is_inert(self):
        m1 = machine()
        m2 = machine()
        m2.switch_world(parse_expr("y|x"), "world-1")  # same truth table
        r1 = m1.run(START_STATE, max_steps=10)
        r2 = m2.run(START_STATE, max_steps=10)
        assert [rec.outcome for rec in r1.records] == \
            [rec.outcome for rec in r2.records]

    def test_switch_cannot_unhalt(self):
        m = ObserverAutomaton(canonicalize_axis(0.862, 1.197), P_OR,
                              solver_cfg=CFG)
        state = SpinState(math.cos(PI / 8) ** 2, PI / 2)
        _, rec = m.step(state)
        assert rec.status is Status.DEATH_POINT
        # replacing the policy does not revive the collapse
        m.switch_world(Const(1), "world-up")
        out, rec = m.step(state)
        assert rec.status is Status.DEATH_POINT
        assert out == state
        assert rec.world_id == "world-up"

    def test_switch_arity_mismatch(self):
        m = machine()
        with pytest.raises(Exception):
            m.switch_world(parse_expr("s1", 1), "world-bad")
