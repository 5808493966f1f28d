"""Post-measurement axis solver.

The admissible final axes form the level sets of the up-overlap probability at
the two values allowed by entropy conservation.  The final axis extremizes the
eigenbasis overlap on those curves, excluding the zero-entropy points (overlap
0 or 1).  Two independent routes are provided: a grid solver and a
closed-form solver working directly on the Bloch sphere.  The grid solver
traces the curves by marching squares; a sign change of the tangency
condition between consecutive polyline vertices brackets an extremum, and
the extremum itself is the tangent point of its level circle, in closed
form.  The trace decides which tangent points lie on which component, so
which components are dropped and the status; the grid route never forms
the closed form's reflection n*.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bloch import (
    Axis,
    SpinState,
    axis_to_bloch,
    canonicalize_axis,
    state_to_bloch,
    up_overlap_prob,
)
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


@dataclass(frozen=True)
class SolverConfig:
    grid_n: int = 1024
    method: str = "grid"  # grid | closed_form: the automaton's route

    def __post_init__(self):
        # a float or a string would pass or fail the range test by accident
        # and break the solve later; a bool is not a grid size
        if (isinstance(self.grid_n, bool)
                or not isinstance(self.grid_n, (int, np.integer))):
            raise ValueError(f"grid_n must be an integer, not {self.grid_n!r}")
        if not 64 <= self.grid_n <= GRID_N_MAX:
            raise ValueError(f"grid_n must be in [64, {GRID_N_MAX}]")
        if self.method not in ("grid", "closed_form"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(eq=False)
class LevelSetCurve:
    """One polyline of a level set, as four float arrays over its vertices:
    the chart angles theta and phi, the eigenbasis overlap with the initial
    axis, and the tangency n . (n_i x m), whose sign changes between
    vertices bracket the overlap's extrema along the curve.  A closed loop
    repeats its first vertex at the end.  contains_zero_entropy is set by
    solve_collapse, for a component with a zero-entropy extremum;
    trace_level_sets leaves it False."""

    level: float
    theta: np.ndarray
    phi: np.ndarray
    overlap: np.ndarray
    tangency: np.ndarray
    component_id: int
    contains_zero_entropy: bool = False

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


@dataclass(slots=True)
class CollapseSolution:
    status: Status
    axis_f: Axis
    s_up: float
    s_i: float
    candidates: list[Candidate] = field(default_factory=list)
    curves: list[LevelSetCurve] = field(default_factory=list)


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
    """(thetas, phis, cos(theta / 2)^2, sin(theta / 2)^2, sin(theta)) of
    the (n + 1)^2 chart grid, which depend on n alone; the arrays are
    read-only, since every solve at this n shares them."""
    thetas = np.linspace(0.0, math.pi, n + 1)
    phis = np.linspace(0.0, math.pi, n + 1)
    factors = (thetas, phis, np.cos(thetas / 2.0) ** 2,
               np.sin(thetas / 2.0) ** 2, np.sin(thetas))
    for x in factors:
        x.flags.writeable = False
    return factors


def _overlap_grid(s: SpinState, n: int) -> tuple[np.ndarray, ...]:
    """(thetas, phis, a, b, c) of the (n + 1)^2 chart grid, where the
    up-overlap field is p[i, j] = b[i] * c[j] + a[i], each operation rounded
    once; the field itself is never built.  thetas and phis are read-only."""
    thetas, phis, cos2, sin2, sin = _node_factors(n)
    rho, tau = s.rho, s.tau
    a = rho * cos2 + (1.0 - rho) * sin2
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


def _cross(u: tuple[float, float, float], v: tuple[float, float, float]
           ) -> tuple[float, float, float]:
    """The cross product u x v."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _bloch_vectors(i: Axis, s: SpinState) -> tuple[tuple[float, float, float], ...]:
    """(n_i, m, w): the axis and state Bloch vectors and w = n_i x m."""
    ni, m = axis_to_bloch(i), state_to_bloch(s)
    return ni, m, _cross(ni, m)


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
    ni, _, w = _bloch_vectors(axis_i, s)
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
    """The vertices left when every vertex within SAME_VERTEX of the last
    vertex kept before it is dropped (crossings collapsing onto a grid node):
    th and ph, then each array of more filtered by the same mask.

    A vertex more than 3 SAME_VERTEX from its predecessor is always kept:
    the predecessor is either kept or within SAME_VERTEX of the last kept
    vertex, so the last kept vertex is more than 2 SAME_VERTEX away.  The
    scalar comparison with the last kept vertex therefore runs only on the
    vertices close to their predecessor.
    """
    dth, dph = th[1:] - th[:-1], ph[1:] - ph[:-1]
    close = np.flatnonzero(dth * dth + dph * dph <= (3.0 * SAME_VERTEX) ** 2)
    if not close.size:
        return th, ph, *more
    keep = np.ones(th.size, dtype=bool)
    last = 0
    for k in (close + 1).tolist():
        if keep[k - 1]:
            last = k - 1
        keep[k] = math.hypot(th[k] - th[last], ph[k] - ph[last]) > SAME_VERTEX
    return th[keep], ph[keep], *(x[keep] for x in more)


def _curve_candidates(curve: LevelSetCurve, ni: tuple[float, float, float],
                      m: tuple[float, float, float],
                      t: tuple[float, float, float]) -> list[Candidate]:
    """The overlap extrema along one curve, each in closed form.

    On the level circle n . m = k, k = 2 level - 1, the overlap is extremal
    at the two tangent points k m +- sqrt(1 - k^2) t / |t|, with t = m x w
    the part of n_i orthogonal to m.  The trace decides which of them lie
    on this curve: a segment between consecutive vertices brackets one
    where the tangency n . w changes sign along it (vertex overlap values
    alone are too noisy to bracket an extremum where the overlap is flat),
    and the sign of t . (n0 + n1) over its end vertices names which.  Each
    tangent point is a candidate once, in the order of its first bracket.
    """
    th, ph, tangs = curve.theta, curve.phi, curve.tangency
    closed = th.size > 2 and th[0] == th[-1] and ph[0] == ph[-1]
    if closed:
        th, ph, tangs = th[:-1], ph[:-1], tangs[:-1]
    th, ph, tangs = _drop_repeats(th, ph, tangs)

    # segment j joins vertices j and j + 1 (vertex 0 after the last one on a
    # closed curve) and brackets an extremum when the tangency changes sign
    # along it, or leaves zero
    cur, nxt = (tangs, np.roll(tangs, -1)) if closed else (tangs[:-1], tangs[1:])
    j = np.flatnonzero((cur * nxt < 0.0) | ((cur == 0.0) & (nxt != 0.0)))
    # t . n at the segments' first vertices, then at their second ones: a
    # curve has few brackets (at most two on uniform draws), so in floats
    ends = np.concatenate((j, (j + 1) % th.size))
    along = [math.sin(a) * (math.cos(b) * t[0] + math.sin(b) * t[1])
             + math.cos(a) * t[2]
             for a, b in zip(th[ends].tolist(), ph[ends].tolist())]
    k = 2.0 * curve.level - 1.0
    scale = math.sqrt(1.0 - k * k) / math.hypot(*t)
    cands = []
    for s in dict.fromkeys(scale if first + second >= 0.0 else -scale
                           for first, second in zip(along[:j.size],
                                                    along[j.size:])):
        x, y, z = k * m[0] + s * t[0], k * m[1] + s * t[1], k * m[2] + s * t[2]
        q = min(1.0, max(0.0, 0.5 * (1.0 + x * ni[0] + y * ni[1] + z * ni[2])))
        cands.append(Candidate(
            canonicalize_axis(math.atan2(math.hypot(x, y), z), math.atan2(y, x)),
            q, binary_entropy(q), curve.component_id))
    return cands


def solve_collapse(i: Axis, s: SpinState, cfg: SolverConfig | None = None
                   ) -> CollapseSolution:
    """Grid route: trace both admissible level sets, drop components with a
    zero-entropy extremum, and return the overlap extremum with minimal
    eigenbasis entropy.

    The candidates are the interior extrema of every curve: each tangent
    point k m +- sqrt(1 - k^2) t / |t| of a level circle n . m = k, with
    t = m x (n_i x m), that a sign change of the traced tangency brackets on
    the curve (see _curve_candidates).  The trace decides which tangent
    points lie on which component, and so the drops and the status; the
    route never forms the reflection n* = n_i - 2 c m.  A curve's open ends
    on the chart edge are never candidates.  A component
    is dropped when one of its candidates has s_up <= EPS_Z, the rule the
    closed form applies to its extremum n*; the dropped components are
    marked by LevelSetCurve.contains_zero_entropy.  The answer is the least
    (s_up, theta, phi) among the admissible candidates, those with
    s_up > EPS_Z, wherever they lie.  One list suffices: with c = n_i . m,
    the extrema on the flip circle {n . m = -c} are n* (overlap 1 - c^2) and
    -n_i (overlap 0), and on the same-level circle {n . m = c} they are n_i
    (overlap 1) and -n* (overlap c^2).  So every admissible candidate is n*
    or its chart representative -n*, both with s_up = f(c^2), whether its
    component is kept or not; a dropped component holds -n* when n* lies
    off the chart.  If no component survives the drop, or no candidate is
    admissible, the configuration is a death point and the axis cannot
    move.
    """
    cfg = cfg or SolverConfig()
    p_same, p_flip = constraint_levels(i, s)
    s_i = binary_entropy(p_same)
    if is_trivial(p_same):
        return CollapseSolution(Status.TRIVIAL, i, 0.0, s_i)

    curves = trace_level_sets(s, (p_same, p_flip), cfg, axis_i=i)
    ni, m, w = _bloch_vectors(i, s)
    t = _cross(m, w)
    all_cands = [c for curve in curves
                 for c in _curve_candidates(curve, ni, m, t)]
    zero_ids = {c.component_id for c in all_cands if c.s_up <= EPS_Z}
    for curve in curves:
        curve.contains_zero_entropy = curve.component_id in zero_ids

    retained_ids = {c.component_id for c in curves} - zero_ids
    admissible = [c for c in all_cands if c.s_up > EPS_Z]
    if not retained_ids or not admissible:
        return CollapseSolution(Status.DEATH_POINT, i, 0.0, s_i,
                                all_cands, curves)
    chosen = min(admissible, key=lambda c: (c.s_up, c.axis.theta, c.axis.phi))
    return CollapseSolution(Status.NORMAL, chosen.axis, chosen.s_up, s_i,
                            all_cands, curves)


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
    those instances Normal.  The
    zero-entropy rule is the grid route's, which drops every component with
    a zero-entropy extremum: the one through n* then, and always the other
    circle {n : n . m = c}, whose extremum n_i has overlap 1.  The Trivial
    and zero-entropy rules are the grid route's: is_trivial and EPS_Z.

    The answer is n*'s chart representative, by canonicalize_axis: -n* with
    the labels swapped when n* lies off the chart.

    cfg is accepted so that one SolverConfig can be passed to either route;
    the closed form reads none of its fields.
    """
    # state_to_bloch, axis_to_bloch and is_trivial inlined: the same
    # operations in the same order, so the same bits.  The raw angles of n*,
    # theta = atan2(hypot(x, y), z) (exact at the poles, where acos(z) loses
    # half the digits) and phi = atan2(y, x), go straight to
    # canonicalize_axis, whose mod-2pi reduction and pole rule are those of
    # bloch_to_axis_angles.
    rho = s.rho
    r = math.sqrt(rho * (1.0 - rho))
    m0, m1, m2 = (2.0 * r * math.cos(s.tau), 2.0 * r * math.sin(s.tau),
                  2.0 * rho - 1.0)
    st = math.sin(i.theta)
    n0, n1, n2 = st * math.cos(i.phi), st * math.sin(i.phi), math.cos(i.theta)
    c = n0 * m0 + n1 * m1 + n2 * m2
    p_same = min(1.0, max(0.0, 0.5 * (1.0 + c)))
    s_i = binary_entropy(p_same)
    if min(p_same, 1.0 - p_same) <= EPS_TRIVIAL:
        return CollapseSolution(Status.TRIVIAL, i, 0.0, s_i, [], [])

    s_up = binary_entropy(min(1.0, max(0.0, c * c)))
    if (c * m1 > 0.0 and c * c + m1 * m1 > 1.0) or s_up <= EPS_Z:
        return CollapseSolution(Status.DEATH_POINT, i, 0.0, s_i, [], [])

    x, y, z = n0 - 2.0 * c * m0, n1 - 2.0 * c * m1, n2 - 2.0 * c * m2
    nrm = math.sqrt(x ** 2 + y ** 2 + z ** 2)
    x, y, z = x / nrm, y / nrm, z / nrm
    axis_f = canonicalize_axis(math.atan2(math.hypot(x, y), z),
                               math.atan2(y, x))
    return CollapseSolution(Status.NORMAL, axis_f, s_up, s_i,
                            [Candidate(axis_f, 1.0 - c * c, s_up, 0)], [])
