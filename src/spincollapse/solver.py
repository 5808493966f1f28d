"""Post-measurement axis solver.

The admissible final axes form the level sets of the up-overlap probability at
the two values allowed by entropy conservation.  The final axis extremizes the
eigenbasis overlap on those curves, excluding the zero-entropy points (overlap
0 or 1).  Two independent routes are provided: a grid solver and a
closed-form solver working directly on the Bloch sphere.  On the sphere the
level sets are two circles whose overlap extrema are four known points: n_i
and -n* on the same-level circle, n* and -n_i on the flip circle, with n*
the reflection of n_i that the closed form answers; both routes name n*
through one helper.  The grid solver traces the curves by marching
squares, and the trace alone decides which of the four lie on the chart
and on which component: a sign change of the tangency condition between
consecutive polyline vertices brackets an extremum, and the bracket's
vertex overlaps say which of its circle's two it is.  So the trace decides
the chart presence of each extremum, the dropped components and the
status, and a Normal answer of either route is the same axis.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .bloch import (
    Axis,
    SpinState,
    canonicalize_axis,
    overlap_terms,
    up_overlap_prob,
)
from ._values import Record, Value, check_integer
from .contour import marching_squares
from .entropy import binary_entropy

CHART_EDGE = 1e-12  # angles this close to 0 or pi lie on the chart edge
EPS_TRIVIAL = 1e-9  # an outcome this improbable makes the state an eigenstate
EPS_Z = 1e-6  # eigenbasis entropy at or below this is a zero-entropy point
SAME_VERTEX = 1e-12  # consecutive curve vertices closer than this are one
GRID_N_MAX = 8192  # time, grid factors and vertex lists grow with grid_n


class Status(enum.Enum):
    NORMAL = "Normal"
    DEATH_POINT = "DeathPoint"
    TRIVIAL = "Trivial"


class SolverConfig(Value, namedtuple("SolverConfig", ("grid_n", "method"))):
    """grid_n is the grid route's samples per chart dimension; method is
    the route the automaton solves with, grid or closed_form."""

    __slots__ = ()

    def __new__(cls, grid_n: int = 1024, method: str = "grid"):
        # a float or a string would pass or fail the range test by accident
        # and break the solve later; a bool is not a grid size
        check_integer("grid_n", grid_n)
        grid_n = operator.index(grid_n)
        if not 64 <= grid_n <= GRID_N_MAX:
            raise ValueError(f"grid_n must be in [64, {GRID_N_MAX}]")
        if method not in ("grid", "closed_form"):
            raise ValueError(f"unknown method {method!r}")
        return tuple.__new__(cls, (grid_n, method))


class LevelSetCurve(Record):
    """One polyline of a level set, as four float arrays over its vertices:
    the chart angles theta and phi, the eigenbasis overlap with the initial
    axis, and the tangency n . (n_i x m), whose sign changes between
    vertices bracket the overlap's extrema along the curve.  A closed loop
    repeats its first vertex at the end.  contains_zero_entropy is set by
    solve_collapse, for a component with a zero-entropy extremum;
    trace_level_sets leaves it False.  Curves are equal only to
    themselves."""

    __slots__ = ("level", "theta", "phi", "overlap", "tangency",
                 "component_id", "contains_zero_entropy")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, level: float, theta: np.ndarray, phi: np.ndarray,
                 overlap: np.ndarray, tangency: np.ndarray,
                 component_id: int, contains_zero_entropy: bool = False):
        self.level = level
        self.theta = theta
        self.phi = phi
        self.overlap = overlap
        self.tangency = tangency
        self.component_id = component_id
        self.contains_zero_entropy = contains_zero_entropy

    @property
    def vertices(self) -> list[tuple[float, float, float, float]]:
        """The vertex tuples (theta, phi, overlap, s_up), with s_up the
        entropy of the overlap; built anew on every access."""
        qs = self.overlap.tolist()
        return list(zip(self.theta.tolist(), self.phi.tolist(), qs,
                        map(binary_entropy, qs)))


class Candidate(NamedTuple):
    """One overlap extremum: an immutable, hashable tuple."""

    axis: Axis
    overlap: float
    s_up: float
    component_id: int


class CollapseSolution(Record):
    """A solve's answer.  Each solution has its own candidates and curves
    lists, empty unless given."""

    __slots__ = ("status", "axis_f", "s_up", "s_i", "candidates", "curves")

    def __init__(self, status: Status, axis_f: Axis, s_up: float, s_i: float,
                 candidates: list[Candidate] | None = None,
                 curves: list[LevelSetCurve] | None = None):
        self.status = status
        self.axis_f = axis_f
        self.s_up = s_up
        self.s_i = s_i
        self.candidates = [] if candidates is None else candidates
        self.curves = [] if curves is None else curves


class DegenerateGridError(RuntimeError):
    """Never raised: a level strictly inside the grid's node range always has
    a crossed edge.  Kept while perfbench still names it."""


def constraint_levels(i: Axis, s: SpinState) -> tuple[float, float]:
    """The two admissible values of the final-axis overlap probability."""
    p_same = up_overlap_prob(i, s)
    return p_same, 1.0 - p_same


def is_trivial(p_same: float) -> bool:
    """Whether the state is an eigenstate of the initial axis: one of the two
    outcomes has probability at most EPS_TRIVIAL, so nothing can change."""
    return min(p_same, 1.0 - p_same) <= EPS_TRIVIAL


@functools.lru_cache(maxsize=8)
def _node_factors(n: int) -> tuple[np.ndarray, ...]:
    """(thetas, phis, cos(theta), sin(theta)) of the (n + 1)^2 chart grid,
    which depend on n alone; the arrays are read-only, since every solve at
    this n shares them."""
    thetas = np.linspace(0.0, math.pi, n + 1)
    phis = np.linspace(0.0, math.pi, n + 1)
    factors = (thetas, phis, np.cos(thetas), np.sin(thetas))
    for x in factors:
        x.flags.writeable = False
    return factors


def _overlap_grid(s: SpinState, n: int) -> tuple[np.ndarray, ...]:
    """(thetas, phis, a, b, c) of the (n + 1)^2 chart grid, where the
    up-overlap field (1 + n . m) / 2 is p[i, j] = b[i] * c[j] + a[i], each
    operation rounded once, a being (1 + m_z cos(theta)) / 2; the field
    itself is never built.  thetas and phis are read-only."""
    thetas, phis, cos, sin = _node_factors(n)
    rho, tau = s.rho, s.tau
    a = 0.5 * (1.0 + (2.0 * rho - 1.0) * cos)
    b = math.sqrt(rho * (1.0 - rho)) * sin
    return thetas, phis, a, b, np.cos(phis - tau)


# On the Bloch sphere a level set is the circle n . m = 2 level - 1, and the
# overlap (1 + n . n_i) / 2 is extremal on it where n, n_i and m are
# coplanar: where the tangency n . w, with w = n_i x m, changes sign.  So
# every vertex quantity is a dot product n . v.  _axes_dot forms it for
# vertex arrays from their sines and cosines (st, ct, sp, cp).  Each sum is
# accumulated in place into its first product, so the pass allocates fewer
# temporaries.

def _axes_dot(st, ct, sp, cp, v: tuple[float, float, float]):
    """n(theta, phi) . v = st cp v[0] + st sp v[1] + ct v[2]."""
    dot = st * cp
    dot *= v[0]
    term = st * sp
    term *= v[1]
    dot += term
    dot += ct * v[2]
    return dot


def on_chart_edge(theta, phi):
    """Whether a chart point lies on the edge of [0, pi] x [0, pi];
    elementwise for arrays."""
    return ((theta < CHART_EDGE) | (theta > math.pi - CHART_EDGE)
            | (phi < CHART_EDGE) | (phi > math.pi - CHART_EDGE))


def trace_level_sets(s: SpinState, levels: tuple[float, ...], cfg: SolverConfig,
                     axis_i: Axis) -> list[LevelSetCurve]:
    """Extract the chart-restricted level curves of the up-overlap field.

    Every level is checked before any is traced, and all are traced in one
    marching-squares pass; the curves come level by level, with component
    ids numbered across levels.  An empty result for a level is allowed:
    the level may be unattained on the chart.  The initial axis axis_i is
    required: every vertex carries its eigenbasis overlap with it and the
    tangency condition.
    """
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be in (0,1): {level}")
    thetas, phis, a, b, c = _overlap_grid(s, cfg.grid_n)
    polys = [(level, poly) for level, level_polys in
             zip(levels, marching_squares(a, b, c, thetas, phis, levels))
             for poly in level_polys]
    if not polys:
        return []
    # the overlap and tangency of every vertex of both levels at once, from
    # one evaluation of each sine and cosine; each curve holds contiguous
    # slices of these arrays.  The angles are gathered column by column: a
    # (k, 2) temporary at grid 4096 is large enough that freeing it lets
    # malloc trim the heap, which is then paged in again
    ni, m = overlap_terms(axis_i.theta, axis_i.phi, s.rho, s.tau)[:2]
    w = (ni[1] * m[2] - ni[2] * m[1], ni[2] * m[0] - ni[0] * m[2],
         ni[0] * m[1] - ni[1] * m[0])  # n_i x m
    th = np.concatenate([poly[:, 0] for _, poly in polys])
    ph = np.concatenate([poly[:, 1] for _, poly in polys])
    st, ct, sp, cp = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
    qs = _axes_dot(st, ct, sp, cp, ni)
    qs += 1.0
    qs *= 0.5
    np.minimum(1.0, np.maximum(0.0, qs, out=qs), out=qs)
    tangs = _axes_dot(st, ct, sp, cp, w)
    curves: list[LevelSetCurve] = []
    start = 0
    for cid, (level, poly) in enumerate(polys):
        end = start + len(poly)
        curves.append(LevelSetCurve(level, th[start:end], ph[start:end],
                                    qs[start:end], tangs[start:end], cid))
        start = end
    return curves


def _drop_repeats(th: np.ndarray, ph: np.ndarray, *more: np.ndarray
                  ) -> tuple[np.ndarray, ...]:
    """The vertices left when every vertex within SAME_VERTEX of its
    predecessor is dropped (crossings collapsing onto a grid node): th and
    ph, then each array of more filtered by the same mask."""
    dth, dph = th[1:] - th[:-1], ph[1:] - ph[:-1]
    far = dth * dth + dph * dph > SAME_VERTEX ** 2
    if far.all():
        return th, ph, *more
    keep = np.concatenate(([True], far))
    return th[keep], ph[keep], *(x[keep] for x in more)


def _curve_candidates(curve: LevelSetCurve,
                      extrema: tuple[Candidate, Candidate]) -> list[Candidate]:
    """Which of its level circle's two overlap extrema, extrema = (highest,
    lowest), lie on one curve, as candidates with its component id.

    A segment between consecutive vertices brackets an extremum where the
    tangency n . w changes sign along it (vertex overlap values alone are
    too noisy to bracket one where the overlap is flat).  Along the circle
    the overlap is affine in t . n, t the part of n_i orthogonal to m, and
    largest at the highest extremum, so a bracket holds that one when its
    end vertices' overlaps sum to at least the two extrema's.  Each
    extremum is a candidate once, in the order of its first bracket.
    """
    th, ph, qs, tangs = curve.theta, curve.phi, curve.overlap, curve.tangency
    closed = th.size > 2 and th[0] == th[-1] and ph[0] == ph[-1]
    if closed:
        th, ph, qs, tangs = th[:-1], ph[:-1], qs[:-1], tangs[:-1]
    th, ph, qs, tangs = _drop_repeats(th, ph, qs, tangs)

    # segment j joins vertices j and j + 1 (vertex 0 after the last one on a
    # closed curve) and brackets an extremum when the tangency changes sign
    # along it, or leaves zero
    cur, nxt = (tangs, np.roll(tangs, -1)) if closed else (tangs[:-1], tangs[1:])
    j = np.flatnonzero((cur * nxt < 0.0) | ((cur == 0.0) & (nxt != 0.0)))
    high, low = extrema
    ends = qs[j] + qs[(j + 1) % qs.size]
    return [(high if above else low)._replace(component_id=curve.component_id)
            for above in dict.fromkeys(
                (ends >= high.overlap + low.overlap).tolist())]


def _reflection(ni: tuple[float, float, float], m: tuple[float, float, float],
                c: float) -> Axis:
    """The chart axis of n* = n_i - 2 c m, c = n_i . m, with labels_swapped
    when that is -n*.  theta = atan2(hypot(x, y), z) is exact at the poles,
    where acos(z) loses half the digits; canonicalize_axis reduces the raw
    angles as bloch_to_axis_angles would."""
    x, y, z = (ni[0] - 2.0 * c * m[0], ni[1] - 2.0 * c * m[1],
               ni[2] - 2.0 * c * m[2])
    nrm = math.sqrt(x ** 2 + y ** 2 + z ** 2)
    x, y, z = x / nrm, y / nrm, z / nrm
    return canonicalize_axis(math.atan2(math.hypot(x, y), z), math.atan2(y, x))


def solve_collapse(i: Axis, s: SpinState, cfg: SolverConfig | None = None
                   ) -> CollapseSolution:
    """Grid route: trace both admissible level sets, drop components with a
    zero-entropy extremum, and return the overlap extremum with minimal
    eigenbasis entropy.

    The extrema are four known points, built once per solve.  With
    c = n_i . m and n* = n_i - 2 c m, the same-level circle {n . m = c}
    has n_i (overlap 1, s_up 0) and -n* (overlap c^2, s_up f(c^2)); the
    flip circle {n . m = -c} has n* (overlap 1 - c^2, s_up f(c^2)) and -n_i
    (overlap 0, s_up 0).  Both directions of a line carry its chart axis,
    (theta_i, phi_i) or _reflection's, with opposite labels_swapped.  The
    trace alone decides which extrema lie on the chart and on which
    component (see _curve_candidates; a curve's open ends on the chart edge
    are never candidates), and so the drops and the status.  A component
    is dropped, and marked by LevelSetCurve.contains_zero_entropy, when
    one of its candidates has s_up <= EPS_Z, the rule the closed form
    applies to n*.  If no component survives, or no candidate anywhere is
    admissible (s_up > EPS_Z), the configuration is a death point and the
    axis cannot move.  Otherwise every admissible candidate is n* or -n*,
    one line with one s_up, and the answer is n*: the closed form's.  The
    curves of the answer are what `spincollapse trace` writes.
    """
    cfg = cfg or SolverConfig()
    ni, m, c, p_same = overlap_terms(i.theta, i.phi, s.rho, s.tau)
    s_i = binary_entropy(p_same)
    if is_trivial(p_same):
        return CollapseSolution(Status.TRIVIAL, i, 0.0, s_i)

    curves = trace_level_sets(s, (p_same, 1.0 - p_same), cfg, axis_i=i)
    s_star = binary_entropy(min(1.0, max(0.0, c * c)))
    star = _reflection(ni, m, c)
    # (highest, lowest) per circle; _curve_candidates sets component ids
    same = (Candidate(Axis(i.theta, i.phi), 1.0, 0.0, -1),
            Candidate(Axis(star.theta, star.phi, not star.labels_swapped),
                      c * c, s_star, -1))
    flip = (Candidate(star, 1.0 - c * c, s_star, -1),
            Candidate(Axis(i.theta, i.phi, True), 0.0, 0.0, -1))
    all_cands = [cand for curve in curves for cand in _curve_candidates(
        curve, same if curve.level == p_same else flip)]
    zero_ids = {cand.component_id for cand in all_cands
                if cand.s_up <= EPS_Z}
    for curve in curves:
        curve.contains_zero_entropy = curve.component_id in zero_ids

    retained_ids = {curve.component_id for curve in curves} - zero_ids
    if not retained_ids or not any(cand.s_up > EPS_Z for cand in all_cands):
        return CollapseSolution(Status.DEATH_POINT, i, 0.0, s_i,
                                all_cands, curves)
    return CollapseSolution(Status.NORMAL, star, s_star, s_i, all_cands,
                            curves)


def solve_collapse_closed_form(i: Axis, s: SpinState,
                               cfg: SolverConfig | None = None
                               ) -> CollapseSolution:
    """Closed-form route on the Bloch sphere.

    With m the state vector, n_i the axis and c = n_i . m, the retained
    constraint circle is {n : n . m = -c}; the overlap-maximizing direction on
    it is the reflection n* = n_i - 2 c m, with eigenbasis overlap 1 - c^2.
    The configuration is a death point when that circle has no chart
    representative, or when the extremum is itself a zero-entropy point
    (f(c^2) <= EPS_Z).  The circle misses the chart hemisphere y >= 0 when
    its highest point, y = -c m_y + sqrt(1 - c^2) sqrt(1 - m_y^2), is
    negative, which holds exactly when c m_y > 0 and c^2 + m_y^2 > 1
    (square both sides of c m_y > sqrt((1 - c^2)(1 - m_y^2))); the test is
    made in that polynomial form, with no square root to clamp.  In real
    arithmetic c^2 + m_y^2 > 1 implies c m_y > 0 on a chart axis
    (n_i . y >= 0), but the clause c m_y > 0 is still needed: on the seam
    (n_i . y = 0) with m in the plane of n_i and y, c^2 + m_y^2 = 1 exactly,
    and when c m_y < 0 the highest point is 2|c m_y| > 0, well inside the
    chart, while the float sum can round above 1.  The clause alone keeps
    those instances Normal.  n_i, m, c and p_same = (1 + c) / 2 come from
    bloch.overlap_terms, the one copy of that arithmetic, as in the grid
    route, so s_i and the Trivial decision (is_trivial) are the grid
    route's bit for bit.  The zero-entropy rule is the grid route's, EPS_Z:
    it drops the component through n* then, and always the other circle
    {n : n . m = c}, whose extremum n_i has overlap 1.

    The answer is n*'s chart axis by _reflection: -n* with the labels
    swapped when n* lies off the chart.

    cfg is accepted so that one SolverConfig can be passed to either route;
    the closed form reads none of its fields.
    """
    ni, m, c, p_same = overlap_terms(i.theta, i.phi, s.rho, s.tau)
    s_i = binary_entropy(p_same)
    if is_trivial(p_same):
        return CollapseSolution(Status.TRIVIAL, i, 0.0, s_i, [], [])

    s_up = binary_entropy(min(1.0, max(0.0, c * c)))
    m_y = m[1]
    if (c * m_y > 0.0 and c * c + m_y * m_y > 1.0) or s_up <= EPS_Z:
        return CollapseSolution(Status.DEATH_POINT, i, 0.0, s_i, [], [])

    axis_f = _reflection(ni, m, c)
    return CollapseSolution(Status.NORMAL, axis_f, s_up, s_i,
                            [Candidate(axis_f, 1.0 - c * c, s_up, 0)], [])
