"""Outcome policies: parsing, truth tables, DNF/CNF synthesis, projections,
and geometric outcome probabilities.  Round trips are verified against an
exhaustive-evaluation oracle."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincollapse.bloch import Axis, canonicalize_axis
from spincollapse.pfn import (
    MAX_NESTING,
    MC_BLOCK,
    BoolProjection,
    CHART_UNIFORM,
    Const,
    ExprArityError,
    ExprSyntaxError,
    Measure,
    Not,
    Op,
    P_AND,
    P_OR,
    SPHERE_AREA,
    TruthTable,
    Var,
    decide_outcome,
    outcome_probability,
    parse_expr,
    project_axis,
    render,
    to_cnf,
    to_dnf,
    to_truth_table,
    variable_order,
)

PI = math.pi


def random_expr(rng, names, depth=0):
    """Random expression tree over the given variable names."""
    if depth > 4 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return Const(int(rng.integers(0, 2)))
        return Var(str(rng.choice(names)))
    op = rng.integers(0, 4)
    if op == 0:
        return Not(random_expr(rng, names, depth + 1))
    return Op("&|^"[op - 1], (random_expr(rng, names, depth + 1),
                              random_expr(rng, names, depth + 1)))


class TestParser:
    def test_basic_policies(self):
        assert to_truth_table(parse_expr("x|y")).bits == (0, 1, 1, 1)
        assert to_truth_table(parse_expr("x&y")).bits == (0, 0, 0, 1)
        assert to_truth_table(parse_expr("x^y")).bits == (0, 1, 1, 0)

    def test_memory_expression(self):
        e = parse_expr("s1 & !x1 | y", 1)
        assert e == Op("|", (Op("&", (Var("s1"), Not(Var("x1")))), Var("y")))

    def test_precedence_not_over_and_over_xor_over_or(self):
        x, y = Var("x"), Var("y")
        assert parse_expr("!x&y") == Op("&", (Not(x), y))
        assert parse_expr("x&y^y") == Op("^", (Op("&", (x, y)), y))
        assert parse_expr("x^y|y") == Op("|", (Op("^", (x, y)), y))
        assert parse_expr("x|y&x") == Op("|", (x, Op("&", (y, x))))

    def test_parentheses(self):
        x, y = Var("x"), Var("y")
        assert parse_expr("x&(y|x)") == Op("&", (x, Op("|", (y, x))))
        e = parse_expr("(x|y)|x1", 1)
        assert e == Op("|", (Op("|", (x, y)), Var("x1")))
        assert render(e) == "x|y|x1"

    def test_constants(self):
        assert to_truth_table(parse_expr("1")).bits == (1, 1, 1, 1)
        assert to_truth_table(parse_expr("0")).bits == (0, 0, 0, 0)

    def test_syntax_errors_carry_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("x|")
        assert err.value.position == 2
        with pytest.raises(ExprSyntaxError):
            parse_expr("(x|y")
        with pytest.raises(ExprSyntaxError):
            parse_expr("")
        with pytest.raises(ExprSyntaxError):
            parse_expr("x y")

    @pytest.mark.parametrize("text", ["(" * 2000 + "x" + ")" * 2000,
                                      "!" * 5000 + "x"],
                             ids=["parentheses", "nots"])
    def test_over_deep_nesting_is_a_syntax_error(self, text):
        with pytest.raises(ExprSyntaxError,
                           match="expression nests too deeply") as info:
            parse_expr(text)
        assert 0 < info.value.position < len(text)

    def test_nesting_error_position_depends_on_the_text_only(self):
        text = "!" * 5000 + "x"

        def position(frames):
            if frames:
                return position(frames - 1)
            with pytest.raises(ExprSyntaxError) as info:
                parse_expr(text)
            return info.value.position

        assert position(0) == position(300) == MAX_NESTING - 2

    @pytest.mark.parametrize("unit, close", [
        ("!", ""), ("(", ")"), ("x|y^x&(", ")"), ("x|y^x&!(", ")")],
        ids=["nots", "parentheses", "every-level", "every-level-and-not"])
    def test_deepest_admitted_policy_evaluates_from_a_deep_stack(
            self, unit, close):
        def nested(k):
            return unit * k + "x" + close * k

        k = 0
        while True:
            try:
                parse_expr(nested(k + 1))
            except ExprSyntaxError:
                break
            k += 1
        text = nested(k)

        def evaluate(frames):
            if frames:
                return evaluate(frames - 1)
            e = parse_expr(text)
            return (render(e), to_truth_table(e),
                    outcome_probability(e, method="monte_carlo", samples=10),
                    decide_outcome(e, Axis(1.0, 1.0)))

        rendered, table, _, outcome = evaluate(300)
        assert to_truth_table(parse_expr(rendered)) == table
        assert outcome == table.bits[3]  # (x, y) = (1, 1) at this axis

    def test_arity_errors(self):
        with pytest.raises(ExprArityError):
            parse_expr("x1", 0)
        with pytest.raises(ExprArityError):
            parse_expr("s3 & x", 2)
        parse_expr("s2 & x", 2)  # in range: fine

    def test_memory_cap(self):
        with pytest.raises(ValueError):
            parse_expr("x", 5)


class TestTruthTable:
    def test_variable_order(self):
        assert variable_order(0) == ["x", "y"]
        assert variable_order(2) == ["x", "y", "x1", "y1", "s1",
                                     "x2", "y2", "s2"]

    def test_row_packing_big_endian(self):
        # x is the most significant bit: row 2 is (x,y) = (1,0)
        table = to_truth_table(parse_expr("x&!y"))
        assert table.bits == (0, 0, 1, 0)

    @pytest.mark.parametrize("n, count", [(0, 200), (1, 200), (2, 50),
                                          (3, 10), (4, 3)])
    def test_all_rows_at_once_equal_row_by_row(self, n, count):
        # to_truth_table evaluates every row in one pass over bit columns;
        # decide_outcome evaluates one row of 0/1 values
        rng = np.random.default_rng(31 + n)
        names = variable_order(n)
        for _ in range(count):
            e = random_expr(rng, names)
            assert to_truth_table(e, n).bits == tuple(
                e(dict(zip(names, row)))
                for row in itertools.product((0, 1), repeat=len(names)))

    def test_hex_round_trip(self):
        t = to_truth_table(parse_expr("x|y"))
        assert t.to_hex() == "7"
        assert TruthTable.from_hex("7", 0) == t
        t1 = to_truth_table(parse_expr("s1 & !x1 | y", 1), 1)
        assert TruthTable.from_hex(t1.to_hex(), 1) == t1

    def test_hex_is_minimal_lowercase(self):
        t = TruthTable(1, tuple([0] * 31 + [1]))
        assert t.to_hex() == "1"
        t = TruthTable(0, (1, 0, 1, 0))
        assert t.to_hex() == "a"

    def test_validation(self):
        with pytest.raises(ValueError):
            TruthTable(0, (0, 1, 1))  # wrong length
        with pytest.raises(ValueError):
            TruthTable(0, (0, 1, 2, 1))  # non-bit
        with pytest.raises(ValueError):
            TruthTable(5, tuple([0] * (1 << 17)))  # depth cap
        with pytest.raises(ValueError):
            TruthTable.from_hex("1ff", 0)  # too long for depth

    @pytest.mark.parametrize("text, n", [
        ("0x3", 0), (" 3", 0), ("3 ", 0), ("1_0", 1), ("+3", 0),
        ("\uff18", 0), ("", 0)])
    def test_hex_rejects_what_is_not_hex_digits(self, text, n):
        # int(text, 16) reads each of these as a number
        with pytest.raises(ValueError, match=r"must be ASCII hex digits"):
            TruthTable.from_hex(text, n)

    def test_hex_rejects_any_leading_minus(self):
        for text in ("-0", "-1", "-"):
            with pytest.raises(ValueError, match="must not be negative"):
                TruthTable.from_hex(text, 0)

    def test_hex_takes_both_cases(self):
        assert TruthTable.from_hex("A", 0) == TruthTable.from_hex("a", 0)


class TestNormalForms:
    def test_pinned_dnf(self):
        t = TruthTable(0, (0, 1, 1, 1))
        assert render(to_dnf(t)) == "!x&y|x&!y|x&y"
        t = TruthTable(0, (1, 0, 0, 1))
        assert render(to_dnf(t)) == "!x&!y|x&y"

    def test_degenerate_tables(self):
        assert to_dnf(TruthTable(0, (0, 0, 0, 0))) == Const(0)
        assert to_cnf(TruthTable(0, (1, 1, 1, 1))) == Const(1)

    def test_all_16_memoryless_tables_round_trip(self):
        for bits in itertools.product((0, 1), repeat=4):
            t = TruthTable(0, bits)
            assert to_truth_table(to_dnf(t), 0) == t
            assert to_truth_table(to_cnf(t), 0) == t

    def test_random_depth1_tables_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            t = TruthTable(1, tuple(rng.integers(0, 2, 32).tolist()))
            assert to_truth_table(to_dnf(t), 1) == t
            assert to_truth_table(to_cnf(t), 1) == t

    def test_long_chains_are_one_flat_node(self):
        # 3000 operands: a left-deep chain would recurse 3000 deep when
        # evaluated or rendered
        for op, fold in (("|", any), ("&", all),
                         ("^", lambda bits: sum(bits) % 2)):
            text = op.join(["x", "y", "!x"] * 1000)
            e = parse_expr(text)
            assert isinstance(e, Op) and len(e.args) == 3000
            assert render(e) == text
            assert to_truth_table(e).bits == tuple(
                int(fold([x, y, 1 - x] * 1000)) for x in (0, 1) for y in (0, 1))

    def test_chains_are_flat(self):
        x, y = Var("x"), Var("y")
        assert parse_expr("x|y|x1", 1) == Op("|", (x, y, Var("x1")))
        assert parse_expr("x^y") == Op("^", (x, y))
        assert parse_expr("x&y&!x") == Op("&", (x, y, Not(x)))

    def test_parse_render_round_trip(self):
        rng = np.random.default_rng(29)
        names = variable_order(1)
        for _ in range(500):
            e = random_expr(rng, names)
            t = to_truth_table(e, 1)
            assert to_truth_table(parse_expr(render(e), 1), 1) == t


class TestProjection:
    def test_pinned_values(self):
        assert project_axis(Axis(PI / 4, PI / 4)) == BoolProjection(1, 1)
        assert project_axis(Axis(PI / 2, 0.3)) == BoolProjection(0, 1)
        assert project_axis(Axis(0.862, 1.197)) == BoolProjection(1, 1)
        assert project_axis(Axis(2.0, 2.0)) == BoolProjection(0, 0)

    def test_step_at_zero_is_zero(self):
        # cos(pi/2) = 0 falls in the "x <= 0" branch
        assert project_axis(canonicalize_axis(PI / 2, PI / 2)) == \
            BoolProjection(0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BoolProjection(2, 0)


class TestDecideOutcome:
    def test_memoryless(self):
        axis = Axis(0.862, 1.197)
        assert decide_outcome(P_OR, axis) == 1
        assert decide_outcome(P_AND, Axis(2.0, 2.0)) == 0
        assert decide_outcome(Const(1), Axis(2.0, 2.0)) == 1

    def test_memory_uses_most_recent_first(self):
        e = parse_expr("s1", 1)
        hist = [(BoolProjection(0, 0), 1), (BoolProjection(0, 0), 0)]
        assert decide_outcome(e, Axis(1.0, 1.0), hist, 1) == 1
        e2 = parse_expr("s2", 2)
        assert decide_outcome(e2, Axis(1.0, 1.0), hist, 2) == 0

    def test_insufficient_history(self):
        from spincollapse.pfn import HistoryError
        with pytest.raises(HistoryError):
            decide_outcome(parse_expr("s1", 1), Axis(1.0, 1.0), [], 1)


# policies over memory variables and their up-probabilities
MEMORY_POLICIES = [("s1", 1, 0.5), ("x&s1&!y2", 2, 0.125), ("x1^y1|s1", 1, 0.75)]


def monte_carlo_reference(e, measure, samples, seed, n=0):
    """The Monte Carlo estimate by evaluating the policy over whole sample
    arrays, one int64 per sample and variable: the draws in the library's
    order (every theta, every phi, then x1, y1, s1, x2, ...) and the mean of
    the policy's values."""
    rng = np.random.default_rng(seed)
    if measure.kind == "chart_uniform":
        thetas = rng.uniform(0.0, PI, samples)
    else:
        thetas = np.arccos(rng.uniform(-1.0, 1.0, samples))
    phis = rng.uniform(0.0, PI, samples)
    env = {
        "x": (np.cos(thetas) > 0.0).astype(np.int64),
        "y": (np.cos(phis) > 0.0).astype(np.int64),
    }
    for k in range(1, n + 1):
        env[f"x{k}"] = rng.integers(0, 2, samples)
        env[f"y{k}"] = rng.integers(0, 2, samples)
        env[f"s{k}"] = rng.integers(0, 2, samples)
    return float(np.mean(e(env)))


# sample counts on both sides of a block edge, and the benchmark's count
BLOCK_EDGE_SAMPLES = [1, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1,
                      3 * MC_BLOCK + 7, 200_000]
# every memoryless table, and policies at memory depths 1, 2 and 4
REFERENCE_POLICIES = [
    (to_dnf(TruthTable(0, bits)), 0)
    for bits in itertools.product((0, 1), repeat=4)] + [
    (parse_expr(text, n), n) for text, n in (
        ("s1", 1), ("x1^y1|s1", 1), ("x&s1&!y2", 2),
        ("!(x4|y4)^x&y1|s3&x2", 4))]


class TestOutcomeProbability:
    def test_analytic_pinned(self):
        assert outcome_probability(P_OR) == 0.75
        assert outcome_probability(P_AND) == 0.25
        assert outcome_probability(parse_expr("x^y")) == 0.5

    @pytest.mark.parametrize("text, n, p", MEMORY_POLICIES)
    def test_analytic_counts_memory_rows(self, text, n, p):
        # the share of 1-rows, memory variables being fair coins
        for measure in (CHART_UNIFORM, SPHERE_AREA):
            assert outcome_probability(parse_expr(text, n), measure,
                                       n=n) == p

    def test_measures_coincide_for_memoryless(self):
        for bits in itertools.product((0, 1), repeat=4):
            e = to_dnf(TruthTable(0, bits))
            assert outcome_probability(e, CHART_UNIFORM) == \
                outcome_probability(e, SPHERE_AREA)

    def test_monte_carlo_agrees_with_analytic(self):
        for expr, expected in ((P_OR, 0.75), (P_AND, 0.25)):
            for measure in (CHART_UNIFORM, SPHERE_AREA):
                est = outcome_probability(expr, measure, "monte_carlo",
                                          samples=200_000, seed=42)
                assert est == pytest.approx(expected, abs=0.004)

    def test_monte_carlo_deterministic(self):
        a = outcome_probability(P_OR, CHART_UNIFORM, "monte_carlo",
                                samples=10_000, seed=7)
        b = outcome_probability(P_OR, CHART_UNIFORM, "monte_carlo",
                                samples=10_000, seed=7)
        assert a == b

    def test_all_16_tables_within_3_sigma(self):
        samples = 100_000
        for bits in itertools.product((0, 1), repeat=4):
            e = to_dnf(TruthTable(0, bits))
            p = sum(bits) / 4.0
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / samples)
            for measure in (CHART_UNIFORM, SPHERE_AREA):
                est = outcome_probability(e, measure, "monte_carlo",
                                          samples=samples, seed=13)
                assert abs(est - p) <= max(3 * sigma, 1e-9)

    @pytest.mark.parametrize("text, n, p", MEMORY_POLICIES)
    def test_monte_carlo_samples_memory_variables(self, text, n, p):
        # memory variables are fair coins, independent of the axis and of
        # each other
        samples = 100_000
        sigma = math.sqrt(p * (1 - p) / samples)
        for measure in (CHART_UNIFORM, SPHERE_AREA):
            est = outcome_probability(parse_expr(text, n), measure,
                                      "monte_carlo", samples=samples,
                                      seed=17, n=n)
            assert abs(est - p) <= 3 * sigma

    def test_induced_measure_is_not_uniform(self):
        assert outcome_probability(P_OR) != 0.5

    @pytest.mark.parametrize("samples", BLOCK_EDGE_SAMPLES)
    def test_monte_carlo_equals_array_evaluation(self, samples):
        # counting truth-table rows block by block gives the estimate of
        # evaluating the policy over whole arrays, bit for bit
        for measure in (CHART_UNIFORM, SPHERE_AREA):
            for e, n in REFERENCE_POLICIES:
                assert outcome_probability(
                    e, measure, "monte_carlo", samples, 42, n) == \
                    monte_carlo_reference(e, measure, samples, 42, n), \
                    (render(e), n, measure, samples)

    def test_monte_carlo_holds_about_two_bytes_a_sample(self):
        # evaluating the policy over whole arrays peaked at 40.1 MB
        tracemalloc.start()
        try:
            outcome_probability(P_OR, SPHERE_AREA, "monte_carlo",
                                samples=1_000_000, seed=42)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 10**6

    def test_monte_carlo_checks_the_policy_as_analytic_does(self):
        for method in ("analytic", "monte_carlo"):
            with pytest.raises(ValueError, match="memory depth must be in"):
                outcome_probability(P_OR, method=method, samples=10, n=5)
            with pytest.raises(ExprArityError,
                               match="x1 exceeds memory depth 0"):
                outcome_probability(parse_expr("x|x1", 1), method=method,
                                    samples=10, n=0)

    @pytest.mark.parametrize("field, value", [
        ("samples", 2.5), ("samples", True), ("samples", 1000.0),
        ("seed", True), ("seed", 1.0), ("seed", "1"),
        ("n", True), ("n", 1.0)])
    def test_non_integer_counts_are_rejected(self, field, value):
        kwargs = {"samples": 10, "seed": 0, "n": 0, field: value}
        with pytest.raises(ValueError, match="must be an integer"):
            outcome_probability(P_OR, method="monte_carlo", **kwargs)
        if field == "n":
            with pytest.raises(ValueError, match="must be an integer"):
                outcome_probability(P_OR, n=value)

    def test_numpy_integer_counts_are_taken(self):
        assert outcome_probability(P_OR, method="monte_carlo",
                                   samples=np.int64(1000), seed=np.int64(3),
                                   n=np.int64(0)) == \
            outcome_probability(P_OR, method="monte_carlo", samples=1000,
                                seed=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            outcome_probability(P_OR, method="quadrature")
        with pytest.raises(ValueError):
            outcome_probability(P_OR, method="monte_carlo", samples=0)
        # checked before any draw is allocated
        with pytest.raises(ValueError, match=r"samples must be in \[1, 10000000\]"):
            outcome_probability(P_OR, method="monte_carlo",
                                samples=10_000_000_000_000)
        with pytest.raises(ValueError):
            Measure("banana")
