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
from collections import namedtuple
from functools import reduce

from ._values import Value, check_integer
from .bloch import Axis

MAX_MEMORY_DEPTH = 4
MC_SAMPLES_MAX = 10**7  # ten times the default Monte Carlo sample count
MC_BLOCK = 1 << 16  # Monte Carlo samples drawn and counted at a time
# precedence levels, parentheses and NOTs a policy may nest: the deepest
# policy admitted still renders and evaluates within the interpreter's
# default recursion limit when called from 300 frames deep
MAX_NESTING = 150
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


# ---------------------------------------------------------------------------
# expression AST

# The env key of the value true.  A policy evaluated on one row of
# variables, each 0 or 1, needs no such key: true is 1.  to_truth_table
# evaluates it on every row at once: each variable is an int whose bit r is
# its value on row r, and true is the int with every row's bit set.
_TRUE = "true"


class BoolExpr:
    __slots__ = ()

    def __call__(self, env: dict[str, int]) -> int:
        raise NotImplementedError


class Const(BoolExpr, Value, namedtuple("Const", ("value",))):
    __slots__ = ()

    def __call__(self, env):
        return env.get(_TRUE, 1) if self.value else 0

    def __str__(self):
        return str(self.value)


class Var(BoolExpr, Value, namedtuple("Var", ("name",))):
    __slots__ = ()

    def __call__(self, env):
        return env[self.name]

    def __str__(self):
        return self.name


class Not(BoolExpr, Value, namedtuple("Not", ("arg",))):
    __slots__ = ()

    def __call__(self, env):
        return env.get(_TRUE, 1) ^ self.arg(env)

    def __str__(self):
        return f"!({self.arg})" if isinstance(self.arg, Op) \
            else f"!{self.arg}"


# the binary operators, loosest first: the one table that both parsing and
# rendering take precedence from
_OPERATORS = (("|", operator.or_), ("^", operator.xor), ("&", operator.and_))
_RANK = {sym: rank for rank, (sym, _) in enumerate(_OPERATORS)}
_APPLY = dict(_OPERATORS)


class Op(BoolExpr, Value, namedtuple("Op", ("op", "args"))):
    """The operator op folded left to right over two or more operands."""

    __slots__ = ()

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
    check_integer("memory depth", n)
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

class TruthTable(Value, namedtuple("TruthTable", ("memory_depth", "bits"))):
    """Exhaustive value table over the fixed variable order, row 0 being the
    all-zero assignment and x the most significant bit."""

    __slots__ = ()

    def __new__(cls, memory_depth: int, bits: tuple[int, ...]):
        n = memory_depth
        _check_memory_depth(n)
        if len(bits) != 1 << (2 + 3 * n):
            raise ValueError(
                f"table for depth {n} needs {1 << (2 + 3 * n)} rows, "
                f"got {len(bits)}")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("table entries must be bits")
        return tuple.__new__(cls, (memory_depth, bits))

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
    """The policy evaluated once on all rows, as the _TRUE key describes."""
    _check_memory_depth(n)
    names = variable_order(n)
    rows = 1 << len(names)
    every = (1 << rows) - 1
    env = {_TRUE: every}
    for k, name in enumerate(names):
        # on row r the variable is bit len(names) - 1 - k of r: runs of
        # `run` 0s and `run` 1s in turn, one period repeated over every row
        run = rows >> (k + 1)
        period = ((1 << run) - 1) << run
        env[name] = period * (every // ((1 << 2 * run) - 1))
    try:
        value = e(env)
    except KeyError as exc:
        raise ExprArityError(
            f"variable {exc.args[0]} exceeds memory depth {n}") from None
    return TruthTable(n, tuple((value >> row) & 1 for row in range(rows)))


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

class BoolProjection(Value, namedtuple("BoolProjection", ("xi", "eta"))):
    __slots__ = ()

    def __new__(cls, xi: int, eta: int):
        if xi not in (0, 1) or eta not in (0, 1):
            raise ValueError("projection bits must be 0 or 1")
        return tuple.__new__(cls, (xi, eta))


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

class Measure(Value, namedtuple("Measure", ("kind",))):
    __slots__ = ()

    def __new__(cls, kind: str):  # chart_uniform | sphere_area
        if kind not in ("chart_uniform", "sphere_area"):
            raise ValueError(f"unknown measure {kind!r}")
        return tuple.__new__(cls, (kind,))


CHART_UNIFORM = Measure("chart_uniform")
SPHERE_AREA = Measure("sphere_area")


def outcome_probability(e: BoolExpr, measure: Measure = CHART_UNIFORM,
                        method: str = "analytic", samples: int = 1_000_000,
                        seed: int = 0, n: int = 0) -> float:
    """Probability of the up outcome for a random axis under the measure:
    the summed weight of the 1-rows of the policy's truth table at memory
    depth n.

    The analytic route computes the weights.  The chart splits into four
    quadrants at theta = pi/2 and phi = pi/2 on which the projections are
    constant, both measures weight each quadrant 1/4, and the memory
    variables are fair coins, so every row weighs 1/len(bits) and the
    probability is the share of 1-rows.  Monte Carlo counts them: it draws
    axes from the measure with a seeded generator and the memory variables
    as fair coins, packs each sample into its row index, counts the samples
    per row, and returns (samples on 1-rows) / samples.  It draws and counts
    MC_BLOCK samples at a time and holds one uint16 row index per sample,
    about 2 bytes a sample.  The generator's stream is that of one call per
    variable over all samples (every theta, every phi, then x1, y1, s1, x2,
    ...), so the estimates are those of evaluating the policy over whole
    sample arrays, bit for bit.
    """
    if method not in ("analytic", "monte_carlo"):
        raise ValueError(f"unknown method {method!r}")
    bits = to_truth_table(e, n).bits
    if method == "analytic":
        return sum(bits) / len(bits)
    check_integer("samples", samples)
    check_integer("seed", seed)
    if not 1 <= samples <= MC_SAMPLES_MAX:
        raise ValueError(f"samples must be in [1, {MC_SAMPLES_MAX}]")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, not {seed}")

    import numpy as np  # only this branch needs it

    rng = np.random.default_rng(seed)

    def draw(name: str, size: int):
        if name == "x" and measure.kind == "sphere_area":
            return np.cos(np.arccos(rng.uniform(-1.0, 1.0, size))) > 0.0
        if name in ("x", "y"):
            return np.cos(rng.uniform(0.0, math.pi, size)) > 0.0
        return rng.integers(0, 2, size)

    names = variable_order(n)
    rows = np.zeros(samples, np.uint16)
    blocks = [slice(start, start + MC_BLOCK)
              for start in range(0, samples, MC_BLOCK)]
    # each variable over all samples in turn, setting its bit of the row
    # index as _row_env reads it, x being the most significant
    for k, name in enumerate(names):
        shift = len(names) - 1 - k
        for block in blocks:
            bit = draw(name, len(rows[block]))
            rows[block] |= bit.astype(np.uint16) << shift
    # per block: bincount copies its input to intp
    counts = sum(np.bincount(rows[block], minlength=len(bits))
                 for block in blocks)
    return int(counts[np.flatnonzero(bits)].sum()) / samples
