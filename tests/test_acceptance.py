"""Acceptance suite: the eight release criteria, each with pinned tolerances.

Every test prints a single PASS line on success (run with -s or read the
captured output) so the suite doubles as a release checklist.
"""

import itertools
import json
import math
import struct
import time

import numpy as np
import pytest

from spincollapse.automaton import ObserverAutomaton
from spincollapse.bloch import (
    SpinState,
    axes_up_overlap,
    canonicalize_axis,
    overlap_from_angles,
    up_overlap_prob,
)
from spincollapse.entropy import binary_entropy, entropy_pair_solutions
from spincollapse.pfn import (
    CHART_UNIFORM,
    P_AND,
    P_OR,
    SPHERE_AREA,
    TruthTable,
    outcome_probability,
    parse_expr,
    render,
    to_cnf,
    to_dnf,
    to_truth_table,
    variable_order,
)
from spincollapse.solver import (
    SolverConfig,
    Status,
    solve_collapse,
    solve_collapse_closed_form,
    trace_level_sets,
    constraint_levels,
)

from conftest import nondegenerate_instances
from test_pfn import random_expr
from test_solver import answer_bytes

PI = math.pi

GENERIC_AXIS = canonicalize_axis(PI / 4, PI / 2)
GENERIC_STATE = SpinState(0.4, 0.0)
DEATH_AXIS = canonicalize_axis(0.862, 1.197)
DEATH_STATE = SpinState(math.cos(PI / 8) ** 2, PI / 2)

ORACLE_SEED = 20240817
ORACLE_GRID = SolverConfig(grid_n=256)


@pytest.fixture(scope="module")
def oracle_corpus():
    """1000 seeded non-degenerate instances solved by both routes, timed."""
    instances = nondegenerate_instances(seed=ORACLE_SEED, count=1000)
    t0 = time.perf_counter()
    results = []
    for axis, state in instances:
        g = solve_collapse(axis, state, ORACLE_GRID)
        c = solve_collapse_closed_form(axis, state, ORACLE_GRID)
        results.append((axis, state, g, c))
    elapsed = time.perf_counter() - t0
    return results, elapsed


def test_criterion_1_generic_instance_reproduction():
    t0 = time.perf_counter()
    sol = solve_collapse(GENERIC_AXIS, GENERIC_STATE, SolverConfig(grid_n=1024))
    elapsed = time.perf_counter() - t0
    assert sol.status is Status.NORMAL
    assert abs(sol.axis_f.theta - 0.862) <= 1e-3
    assert abs(sol.axis_f.phi - 1.197) <= 1e-3
    assert abs(sol.s_up - 0.0980) <= 1e-4
    discarded = [cv for cv in sol.curves if cv.contains_zero_entropy]
    assert discarded
    assert any(math.hypot(th - 0.785, ph - 1.571) <= 1e-3
               for cv in discarded for th, ph, _, _ in cv.vertices)
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: solve -> Normal "
          f"({sol.axis_f.theta:.4f}, {sol.axis_f.phi:.4f}), "
          f"S_up={sol.s_up:.4f}, Z on discarded component, {elapsed:.2f}s")


def test_criterion_2_death_point_reproduction():
    t0 = time.perf_counter()
    sol = solve_collapse(DEATH_AXIS, DEATH_STATE, SolverConfig(grid_n=1024))
    elapsed = time.perf_counter() - t0
    assert sol.status is Status.DEATH_POINT
    assert sol.axis_f == DEATH_AXIS  # unchanged, exactly
    levels = constraint_levels(DEATH_AXIS, DEATH_STATE)
    curves = trace_level_sets(DEATH_STATE, levels, SolverConfig(grid_n=1024),
                              axis_i=DEATH_AXIS)
    assert len({cv.component_id for cv in curves}) == 1
    assert elapsed < 1.0
    print(f"\nPASS criterion 2: solve -> DeathPoint at input axis, "
          f"1 component, {elapsed:.2f}s")


def test_criterion_3_oracle_equivalence(oracle_corpus):
    results, elapsed = oracle_corpus
    max_axis = 0.0
    max_sup = 0.0
    for axis, state, g, c in results:
        assert g.status == c.status, (axis, state)
        if g.status is Status.NORMAL:
            d = math.hypot(g.axis_f.theta - c.axis_f.theta,
                           g.axis_f.phi - c.axis_f.phi)
            max_axis = max(max_axis, d)
            max_sup = max(max_sup, abs(g.s_up - c.s_up))
    assert max_axis <= 1e-4
    assert max_sup <= 1e-6
    assert elapsed < 60.0
    print(f"\nPASS criterion 3: 1000 instances, statuses agree, "
          f"max axis gap {max_axis:.2e} rad, max S_up gap {max_sup:.2e}, "
          f"{elapsed:.1f}s")


def test_oracle_corpus_answers_are_bit_identical(oracle_corpus):
    # criterion 3's bounds would pass a one-ulp value split
    results, _ = oracle_corpus
    normal = 0
    for axis, state, g, c in results:
        assert g.status is c.status, (axis, state)
        if g.status is Status.NORMAL:
            assert answer_bytes(g) == answer_bytes(c), (axis, state)
            normal += 1
    assert normal > 0
    print(f"\nPASS oracle corpus: 1000 statuses agree, {normal} Normal "
          f"answers bit-identical")


def test_oracle_corpus_s_i_is_bit_identical(oracle_corpus):
    # both routes take p_same from one formula, so s_i agrees whatever the
    # status
    results, _ = oracle_corpus
    for axis, state, g, c in results:
        assert struct.pack("<d", g.s_i) == struct.pack("<d", c.s_i), \
            (axis, state)
    print("\nPASS oracle corpus: 1000 s_i bit-identical")


def test_criterion_4_entropy_conservation_properties(oracle_corpus):
    results, _ = oracle_corpus
    checked = 0
    for axis, state, g, _ in results:
        if g.status is not Status.NORMAL:
            continue
        s_i = binary_entropy(up_overlap_prob(axis, state))
        s_f = binary_entropy(up_overlap_prob(g.axis_f, state))
        assert abs(s_f - s_i) <= 1e-6
        q = axes_up_overlap(g.axis_f, axis)
        assert 1e-6 <= q <= 1.0 - 1e-6
        checked += 1
    assert checked > 0
    print(f"\nPASS criterion 4: |S_f - S_i| <= 1e-6 and overlap clears "
          f"{{0,1}} by 1e-6 on all {checked} Normal solutions")


def test_criterion_5_entropy_identities():
    rng = np.random.default_rng(101)
    for p in rng.uniform(0.0, 1.0, 10_000):
        assert abs(binary_entropy(p) - binary_entropy(1.0 - p)) <= 1e-14
    for _ in range(1000):
        theta = rng.uniform(1e-6, PI - 1e-6)
        phi = rng.uniform(0.0, PI)
        rho = rng.uniform(1e-6, 1.0 - 1e-6)
        tau = rng.uniform(0.0, 2.0 * PI)
        p = overlap_from_angles(theta, phi, rho, tau)
        p_anti = overlap_from_angles(PI - theta, phi + PI, rho, tau)
        assert abs(binary_entropy(p) - binary_entropy(p_anti)) <= 1e-12
        # S_up under the antipodal relabeling: f(q) = f(1-q)
        q = rng.uniform(0.0, 1.0)
        assert abs(binary_entropy(q) - binary_entropy(1.0 - q)) <= 1e-12
    for p in rng.uniform(1e-6, 1.0 - 1e-6, 1000):
        lo, hi = entropy_pair_solutions(binary_entropy(p))
        recovered = lo if p <= 0.5 else hi
        assert abs(recovered - p) <= 1e-9
    print("\nPASS criterion 5: f-symmetry to 1e-14 (1e4 pts), antipodal "
          "entropy invariance to 1e-12 (1e3 pairs), inverse round-trip "
          "to 1e-9")


def test_criterion_6_outcome_probabilities():
    assert outcome_probability(P_OR) == 0.75
    assert outcome_probability(P_AND) == 0.25
    worst = 0.0
    for expr, p in ((P_OR, 0.75), (P_AND, 0.25)):
        for measure in (CHART_UNIFORM, SPHERE_AREA):
            est = outcome_probability(expr, measure, "monte_carlo",
                                      samples=1_000_000, seed=42)
            worst = max(worst, abs(est - p))
            assert abs(est - p) <= 0.0015
    assert outcome_probability(P_OR) != 0.5  # the induced measure is biased
    print(f"\nPASS criterion 6: analytic 0.75/0.25 exact; Monte Carlo at "
          f"1e6 within {worst:.4f} (<= 0.0015) under both measures")


def test_criterion_7_boolean_round_trips():
    t0 = time.perf_counter()
    for bits in itertools.product((0, 1), repeat=4):
        t = TruthTable(0, bits)
        assert to_truth_table(to_dnf(t), 0) == t
        assert to_truth_table(to_cnf(t), 0) == t
    rng = np.random.default_rng(55)
    for _ in range(200):
        t = TruthTable(1, tuple(rng.integers(0, 2, 32).tolist()))
        assert to_truth_table(to_dnf(t), 1) == t
        assert to_truth_table(to_cnf(t), 1) == t
    names = variable_order(1)
    for _ in range(500):
        e = random_expr(rng, names)
        assert to_truth_table(parse_expr(render(e), 1), 1) == \
            to_truth_table(e, 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 7: 16 + 200 table round-trips and 500 "
          f"parse/print round-trips, {elapsed:.1f}s")


def test_criterion_8_death_within_two_steps_and_replay():
    def run_once():
        machine = ObserverAutomaton(GENERIC_AXIS, P_OR,
                                    solver_cfg=SolverConfig(grid_n=256))
        return machine.run(GENERIC_STATE, max_steps=10)

    result = run_once()
    assert result.halted
    assert result.halt_reason in ("trivial", "death_point")
    assert len(result.records) == 2
    assert result.records[1].status in (Status.TRIVIAL, Status.DEATH_POINT)
    trace = result.to_jsonl()
    assert trace == run_once().to_jsonl()  # byte-identical replay
    for line in trace.strip().split("\n"):
        json.loads(line)
    print(f"\nPASS criterion 8: halt ({result.halt_reason}) at step 2, "
          f"trace replays byte-identically")
