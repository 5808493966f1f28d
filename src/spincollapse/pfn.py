"""Boolean outcome policies.

The collapse outcome (1 = up, 0 = down) is chosen by a boolean function of
the step-projected final angles (x, y) and, with memory depth n > 0, of the
projections and outcomes of the n previous measurements (x1, y1, s1, ...,
index 1 being the most recent).  Policies are built from expression text,
truth tables, or canonical DNF/CNF forms, and induce a geometric probability
of the up outcome under a measure on the axis chart.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .bloch import Axis

MAX_MEMORY_DEPTH = 4
MC_SAMPLES_MAX = 10**7  # ten times the default Monte Carlo sample count
# precedence levels, parentheses and NOTs a policy may nest: the deepest
# policy admitted still renders and evaluates within the interpreter's
# default recursion limit when called from 300 frames deep
MAX_NESTING = 150
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


# ---------------------------------------------------------------------------
# expression AST

class BoolExpr:
    def __call__(self, env: dict[str, int]) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(BoolExpr):
    value: int

    def __call__(self, env):
        return self.value

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class Var(BoolExpr):
    name: str

    def __call__(self, env):
        return env[self.name]

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Not(BoolExpr):
    arg: BoolExpr

    def __call__(self, env):
        return 1 - self.arg(env)

    def __str__(self):
        return f"!({self.arg})" if isinstance(self.arg, Op) \
            else f"!{self.arg}"


# the binary operators, loosest first: the one table that both parsing and
# rendering take precedence from
_OPERATORS = (("|", operator.or_), ("^", operator.xor), ("&", operator.and_))
_RANK = {sym: rank for rank, (sym, _) in enumerate(_OPERATORS)}
_APPLY = dict(_OPERATORS)


@dataclass(frozen=True)
class Op(BoolExpr):
    """The operator op folded left to right over two or more operands."""

    op: str
    args: tuple[BoolExpr, ...]

    def __call__(self, env):
        return reduce(_APPLY[self.op], (a(env) for a in self.args))

    def __str__(self):
        # each operator is associative, so only a looser operand needs
        # parentheses
        rank = _RANK[self.op]
        return self.op.join(
            f"({a})" if isinstance(a, Op) and _RANK[a.op] < rank else str(a)
            for a in self.args)


P_OR = Op("|", (Var("x"), Var("y")))
P_AND = Op("&", (Var("x"), Var("y")))


# ---------------------------------------------------------------------------
# parsing

class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class ExprArityError(ValueError):
    pass


def variable_order(n: int) -> list[str]:
    """Fixed variable order: current projections first, then per-memory-slot
    (projection pair, outcome), most recent slot first."""
    names = ["x", "y"]
    for k in range(1, n + 1):
        names += [f"x{k}", f"y{k}", f"s{k}"]
    return names


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.pos = 0

    def error(self, msg: str):
        raise ExprSyntaxError(msg, self.pos)

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> BoolExpr:
        e = self.expr(0)
        if self.peek():
            self.error(f"unexpected {self.text[self.pos]!r}")
        return e

    def expr(self, depth: int, rank: int = 0) -> BoolExpr:
        """The chain of _OPERATORS[rank] operands, or a factor past the last
        rank; depth counts the precedence levels, parentheses and NOTs
        entered, which bounds both this recursion and the tree's depth."""
        if depth > MAX_NESTING:
            self.error("expression nests too deeply")
        if rank == len(_OPERATORS):
            return self.factor(depth)
        sym = _OPERATORS[rank][0]
        items = [self.expr(depth + 1, rank + 1)]
        while self.peek() == sym:
            self.pos += 1
            items.append(self.expr(depth + 1, rank + 1))
        return items[0] if len(items) == 1 else Op(sym, tuple(items))

    def factor(self, depth: int) -> BoolExpr:
        ch = self.peek()
        if ch == "!":
            self.pos += 1
            return Not(self.expr(depth + 1, len(_OPERATORS)))
        if ch == "(":
            self.pos += 1
            e = self.expr(depth + 1)
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return e
        if ch and ch in "01":
            self.pos += 1
            return Const(int(ch))
        if ch and ch in "xys":
            start = self.pos
            self.pos += 1
            digits = ""
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                digits += self.text[self.pos]
                self.pos += 1
            if digits:
                k = int(digits)
                if k < 1 or k > self.n:
                    raise ExprArityError(
                        f"variable {ch}{k} exceeds memory depth {self.n}")
                return Var(f"{ch}{k}")
            if ch == "s":
                self.pos = start
                self.error("bare 's' needs a memory index")
            return Var(ch)
        self.error(f"unexpected {ch!r}" if ch else "unexpected end of input")


def _check_memory_depth(n: int) -> None:
    if not 0 <= n <= MAX_MEMORY_DEPTH:
        raise ValueError(f"memory depth must be in [0, {MAX_MEMORY_DEPTH}]")


def parse_expr(text: str, n: int = 0) -> BoolExpr:
    """Parse an outcome-policy expression.

    Grammar: OR is the loosest operator, then XOR, then AND, then NOT.
    Variables are x, y and (for memory depth n >= 1) x1..xn, y1..yn, s1..sn.
    A chain of one operator is one flat node however long it is.  Past
    MAX_NESTING precedence levels, parentheses and NOTs the expression is a
    syntax error at the position the parser reached.
    """
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    _check_memory_depth(n)
    return _Parser(text, n).parse()


def render(e: BoolExpr) -> str:
    return str(e)


# ---------------------------------------------------------------------------
# truth tables

@dataclass(frozen=True)
class TruthTable:
    """Exhaustive value table over the fixed variable order, row 0 being the
    all-zero assignment and x the most significant bit."""

    memory_depth: int
    bits: tuple[int, ...]

    def __post_init__(self):
        n = self.memory_depth
        _check_memory_depth(n)
        if len(self.bits) != 1 << (2 + 3 * n):
            raise ValueError(
                f"table for depth {n} needs {1 << (2 + 3 * n)} rows, "
                f"got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("table entries must be bits")

    def to_hex(self) -> str:
        value = 0
        for b in self.bits:
            value = (value << 1) | b
        return f"{value:x}"

    @classmethod
    def from_hex(cls, text: str, n: int) -> "TruthTable":
        _check_memory_depth(n)  # before the shift below can fail on it
        length = 1 << (2 + 3 * n)
        if text.startswith("-"):
            raise ValueError(f"hex table must not be negative: {text!r}")
        # int(text, 16) alone would also take "0x3", " 3", "1_0" and non-ASCII
        # digits
        if not text or not _HEX_DIGITS.issuperset(text):
            raise ValueError(
                f"hex table must be ASCII hex digits [0-9a-fA-F]: {text!r}")
        value = int(text, 16)
        if value >= 1 << length:
            raise ValueError(f"hex table too long for memory depth {n}")
        bits = tuple((value >> (length - 1 - k)) & 1 for k in range(length))
        return cls(n, bits)


def _row_env(row: int, names: list[str]) -> dict[str, int]:
    width = len(names)
    return {name: (row >> (width - 1 - k)) & 1 for k, name in enumerate(names)}


def to_truth_table(e: BoolExpr, n: int = 0) -> TruthTable:
    _check_memory_depth(n)
    names = variable_order(n)
    try:
        bits = tuple(e(_row_env(row, names)) for row in range(1 << len(names)))
    except KeyError as exc:
        raise ExprArityError(
            f"variable {exc.args[0]} exceeds memory depth {n}") from None
    return TruthTable(n, bits)


def _canonical(t: TruthTable, bit: int) -> BoolExpr:
    """One term per row of value bit, its literals true exactly on that row
    (bit 1) or false exactly on it (bit 0): minterms joined by | for bit 1,
    maxterms joined by & for bit 0."""
    inner, outer = ("&", "|") if bit else ("|", "&")
    names = variable_order(t.memory_depth)
    literals = {name: (Not(Var(name)), Var(name)) for name in names}
    terms = []
    for row, b in enumerate(t.bits):
        if b == bit:
            env = _row_env(row, names)
            terms.append(Op(inner, tuple(literals[name][env[name] == bit]
                                         for name in names)))
    if not terms:
        return Const(1 - bit)
    return terms[0] if len(terms) == 1 else Op(outer, tuple(terms))


def to_dnf(t: TruthTable) -> BoolExpr:
    """Canonical minterm expansion: one conjunct per 1-row."""
    return _canonical(t, 1)


def to_cnf(t: TruthTable) -> BoolExpr:
    """Canonical maxterm expansion: one disjunct per 0-row."""
    return _canonical(t, 0)


# ---------------------------------------------------------------------------
# projections and outcomes

@dataclass(frozen=True)
class BoolProjection:
    xi: int
    eta: int

    def __post_init__(self):
        if self.xi not in (0, 1) or self.eta not in (0, 1):
            raise ValueError("projection bits must be 0 or 1")


def _step(x: float) -> int:
    # angles at exactly pi/2 must project to 0; snap cosine rounding noise
    if abs(x) < 1e-12:
        x = 0.0
    return 1 if x > 0.0 else 0


def project_axis(a: Axis) -> BoolProjection:
    """Step projections of the axis angles: 1 iff the cosine is positive."""
    return BoolProjection(_step(math.cos(a.theta)), _step(math.cos(a.phi)))


class HistoryError(ValueError):
    pass


def decide_outcome(e: BoolExpr, axis_f: Axis,
                   history: list[tuple[BoolProjection, int]] | None = None,
                   n: int = 0) -> int:
    """Evaluate the policy at the final axis; history is most recent first."""
    history = history or []
    if len(history) < n:
        raise HistoryError(
            f"memory depth {n} needs {n} history records, got {len(history)}")
    proj = project_axis(axis_f)
    env = {"x": proj.xi, "y": proj.eta}
    for k in range(1, n + 1):
        p, outcome = history[k - 1]
        env[f"x{k}"] = p.xi
        env[f"y{k}"] = p.eta
        env[f"s{k}"] = outcome
    return e(env)


# ---------------------------------------------------------------------------
# geometric outcome probabilities

@dataclass(frozen=True)
class Measure:
    kind: str  # chart_uniform | sphere_area

    def __post_init__(self):
        if self.kind not in ("chart_uniform", "sphere_area"):
            raise ValueError(f"unknown measure {self.kind!r}")


CHART_UNIFORM = Measure("chart_uniform")
SPHERE_AREA = Measure("sphere_area")


def outcome_probability(e: BoolExpr, measure: Measure = CHART_UNIFORM,
                        method: str = "analytic", samples: int = 1_000_000,
                        seed: int = 0, n: int = 0) -> float:
    """Probability of the up outcome for a random axis under the measure.

    Analytic route: the chart splits into four quadrants at theta = pi/2
    and phi = pi/2 on which the projections are constant, both measures
    weight each quadrant 1/4, and the memory variables are fair coins, so
    the probability is the share of 1-rows in the truth table.  Monte Carlo
    draws axes from the measure with a seeded generator; memory variables
    are sampled uniformly.
    """
    if method == "analytic":
        bits = to_truth_table(e, n).bits
        return sum(bits) / len(bits)
    if method != "monte_carlo":
        raise ValueError(f"unknown method {method!r}")
    if not 1 <= samples <= MC_SAMPLES_MAX:
        raise ValueError(f"samples must be in [1, {MC_SAMPLES_MAX}]")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, not {seed}")

    rng = np.random.default_rng(seed)
    if measure.kind == "chart_uniform":
        thetas = rng.uniform(0.0, math.pi, samples)
    else:
        thetas = np.arccos(rng.uniform(-1.0, 1.0, samples))
    phis = rng.uniform(0.0, math.pi, samples)
    env = {
        "x": (np.cos(thetas) > 0.0).astype(np.int64),
        "y": (np.cos(phis) > 0.0).astype(np.int64),
    }
    for k in range(1, n + 1):
        env[f"x{k}"] = rng.integers(0, 2, samples)
        env[f"y{k}"] = rng.integers(0, 2, samples)
        env[f"s{k}"] = rng.integers(0, 2, samples)
    values = e(env)
    return float(np.mean(values))
