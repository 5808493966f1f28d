"""Post-measurement axis solver.

The admissible final axes form the level sets of the up-overlap probability at
the two values allowed by entropy conservation.  The final axis extremizes the
eigenbasis overlap on those curves, excluding the zero-entropy points (overlap
0 or 1).  Two independent routes are provided: a grid solver (marching-squares
tracing, then a Brent root of the tangency condition between the polyline
vertices that bracket each extremum) and a closed-form solver working
directly on the Bloch sphere.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bloch import (
    TWO_PI,
    Axis,
    SpinState,
    axis_to_bloch,
    canonicalize_axis,
    overlap_from_angles,
    up_overlap_prob,
)
from .contour import marching_squares
from .entropy import binary_entropy

CHART_EDGE = 1e-12  # angles this close to 0 or pi lie on the chart edge
EPS_TRIVIAL = 1e-9  # an outcome this improbable makes the state an eigenstate
EPS_Z = 1e-6  # eigenbasis entropy at or below this is a zero-entropy point
DEDUP_RADIUS = 1e-6  # refined extrema closer than this are one extremum
SAME_VERTEX = 1e-12  # consecutive curve vertices closer than this are one
BRENT_RTOL = 4.0 * sys.float_info.epsilon
BRENT_MAXITER = 100
GRID_N_MAX = 8192  # time, grid factors and vertex lists grow with grid_n


class Status(enum.Enum):
    NORMAL = "Normal"
    DEATH_POINT = "DeathPoint"
    TRIVIAL = "Trivial"


@dataclass(frozen=True)
class SolverConfig:
    grid_n: int = 1024
    method: str = "both"  # grid | closed_form | both

    def __post_init__(self):
        # a float or a string would pass or fail the range test by accident
        # and break the solve later; a bool is not a grid size
        if (isinstance(self.grid_n, bool)
                or not isinstance(self.grid_n, (int, np.integer))):
            raise ValueError(f"grid_n must be an integer, not {self.grid_n!r}")
        if not 64 <= self.grid_n <= GRID_N_MAX:
            raise ValueError(f"grid_n must be in [64, {GRID_N_MAX}]")
        if self.method not in ("grid", "closed_form", "both"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(eq=False)
class LevelSetCurve:
    """One polyline of a level set, as three float arrays over its vertices:
    the chart angles theta and phi and the eigenbasis overlap with the
    initial axis.  A closed loop repeats its first vertex at the end.
    contains_zero_entropy is set by solve_collapse, for a component with a
    zero-entropy extremum; trace_level_sets leaves it False."""

    level: float
    theta: np.ndarray
    phi: np.ndarray
    overlap: np.ndarray
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
    """One refined overlap extremum: an immutable, hashable tuple."""

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


def _overlap_grid(s: SpinState, n: int) -> tuple[np.ndarray, ...]:
    """(thetas, phis, a, b, c) of the (n + 1)^2 chart grid, where the
    up-overlap field is p[i, j] = b[i] * c[j] + a[i], each operation rounded
    once; the field itself is never built."""
    thetas = np.linspace(0.0, math.pi, n + 1)
    phis = np.linspace(0.0, math.pi, n + 1)
    rho, tau = s.rho, s.tau
    a = rho * np.cos(thetas / 2.0) ** 2 + (1.0 - rho) * np.sin(thetas / 2.0) ** 2
    b = math.sqrt(rho * (1.0 - rho)) * np.sin(thetas)
    return thetas, phis, a, b, np.cos(phis - tau)


def _axes_dot(theta, phi, ni: tuple[float, float, float], xp=math):
    """n(theta, phi) . ni; with xp=np, elementwise over arrays, with the
    same operations in the same order as the scalar form."""
    st = xp.sin(theta)
    return st * xp.cos(phi) * ni[0] + st * xp.sin(phi) * ni[1] + xp.cos(theta) * ni[2]


def _axes_overlap_at(theta: float, phi: float, ni: tuple[float, float, float]) -> float:
    return min(1.0, max(0.0, 0.5 * (1.0 + _axes_dot(theta, phi, ni))))


def on_chart_edge(theta, phi):
    """Whether a chart point lies on the edge of [0, pi] x [0, pi];
    elementwise for arrays."""
    return ((theta < CHART_EDGE) | (theta > math.pi - CHART_EDGE)
            | (phi < CHART_EDGE) | (phi > math.pi - CHART_EDGE))


def trace_level_sets(s: SpinState, levels: tuple[float, ...], cfg: SolverConfig,
                     axis_i: Axis) -> list[LevelSetCurve]:
    """Extract the chart-restricted level curves of the up-overlap field.

    An empty result for a level is allowed: the level may be unattained on the
    chart.  The initial axis axis_i is required: every vertex carries its
    eigenbasis overlap with it.
    """
    thetas, phis, a, b, c = _overlap_grid(s, cfg.grid_n)
    ni = axis_to_bloch(axis_i)
    curves: list[LevelSetCurve] = []
    cid = 0
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be in (0,1): {level}")
        polys = marching_squares(a, b, c, thetas, phis, level)
        if not polys:
            continue
        # the overlap of every vertex of the level at once; each curve holds
        # contiguous slices of the level's arrays
        th, ph = np.concatenate(polys).T.copy()
        qs = np.minimum(1.0, np.maximum(0.0, 0.5 * (1.0 + _axes_dot(th, ph, ni, np))))
        start = 0
        for poly in polys:
            end = start + len(poly)
            curves.append(LevelSetCurve(level, th[start:end], ph[start:end],
                                        qs[start:end], cid))
            cid += 1
            start = end
    return curves


def _grad_overlap(theta, phi, s: SpinState, xp=math):
    r = math.sqrt(s.rho * (1.0 - s.rho))
    dth = 0.5 * (1.0 - 2.0 * s.rho) * xp.sin(theta) \
        + r * xp.cos(theta) * xp.cos(phi - s.tau)
    dph = -r * xp.sin(theta) * xp.sin(phi - s.tau)
    return dth, dph


def _brentq(f, xa: float, xb: float, fa: float, fb: float, xtol: float
            ) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    fa and fb are f(xa) and f(xb), which every caller has already computed to
    find the bracket.  Inverse quadratic or secant steps are taken while they
    stay short, else the bracket is bisected; converged when half the bracket
    is below (xtol + 4 eps |x|) / 2.  Raises ValueError when fa and fb have
    the same sign and RuntimeError after BRENT_MAXITER iterations.
    """
    xpre, xcur = xa, xb
    fpre, fcur = fa, fb
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the better end as xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise RuntimeError(
        f"no convergence after {BRENT_MAXITER} iterations, value is {xcur}")


def _project_to_level(theta: float, phi: float, s: SpinState, level: float,
                      h: float) -> tuple[float, float]:
    """Move transverse to the curve (along the field gradient) onto the exact
    level set.  Returns the input point if no bracketing root is found."""
    gth, gph = _grad_overlap(theta, phi, s)
    norm = math.hypot(gth, gph)
    if norm < 1e-14:
        return theta, phi

    def res(t: float) -> float:
        return overlap_from_angles(theta + t * gth / norm,
                                   phi + t * gph / norm, s.rho, s.tau) - level

    lo, hi = -h, h
    for _ in range(6):
        rlo, rhi = res(lo), res(hi)
        if rlo * rhi <= 0.0:
            break
        lo *= 2.0
        hi *= 2.0
    else:
        return theta, phi
    t = _brentq(res, lo, hi, rlo, rhi, 1e-14)
    return theta + t * gth / norm, phi + t * gph / norm


def _grad_axes_overlap(theta, phi, ni: tuple[float, float, float], xp=math):
    ct, st = xp.cos(theta), xp.sin(theta)
    cp, sp = xp.cos(phi), xp.sin(phi)
    dth = 0.5 * (ct * cp * ni[0] + ct * sp * ni[1] - st * ni[2])
    dph = 0.5 * (-st * sp * ni[0] + st * cp * ni[1])
    return dth, dph


def _tangency(theta, phi, s: SpinState, ni: tuple[float, float, float],
              xp=math):
    """Cross product of the overlap and constraint gradients; zero exactly at
    an extremum of the overlap along the level curve.  With xp=np it is
    evaluated elementwise over arrays of angles by the same operations in the
    same order as the scalar form."""
    gth, gph = _grad_overlap(theta, phi, s, xp)
    hth, hph = _grad_axes_overlap(theta, phi, ni, xp)
    return hth * gph - hph * gth


def _refine_between(p0: tuple[float, float], p1: tuple[float, float],
                    s: SpinState, level: float,
                    ni: tuple[float, float, float]
                    ) -> tuple[float, float, float]:
    """Locate the overlap extremum on the curve between two polyline vertices.

    The extremum is the root of the tangency condition along the chord,
    re-projected onto the exact level set at every probe, found by Brent's
    method.  The overlap itself can be extremely flat in chart coordinates
    (near a pole), where only the tangency condition pins the position.  When
    the projected ends do not change sign, the end nearer tangency is taken.
    """
    total = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
    h = max(total, 1e-6)

    def point_at(t: float) -> tuple[float, float]:
        u = t / total if total > 0 else 0.0
        raw = (p0[0] + u * (p1[0] - p0[0]), p0[1] + u * (p1[1] - p0[1]))
        return _project_to_level(raw[0], raw[1], s, level, h)

    def tang(t: float) -> float:
        th, ph = point_at(t)
        return _tangency(th, ph, s, ni)

    ta, tb = tang(0.0), tang(total)
    if ta * tb < 0.0:
        t_best = _brentq(tang, 0.0, total, ta, tb, 1e-13)
    else:
        t_best = 0.0 if abs(ta) <= abs(tb) else total
    th, ph = point_at(t_best)
    return th, ph, _axes_overlap_at(th, ph, ni)


def _drop_repeats(th: np.ndarray, ph: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The vertices left when every vertex within SAME_VERTEX of the last
    vertex kept before it is dropped (crossings collapsing onto a grid node).

    A vertex more than 3 SAME_VERTEX from its predecessor is always kept:
    the predecessor is either kept or within SAME_VERTEX of the last kept
    vertex, so the last kept vertex is more than 2 SAME_VERTEX away.  The
    scalar comparison with the last kept vertex therefore runs only on the
    vertices close to their predecessor.
    """
    dth, dph = th[1:] - th[:-1], ph[1:] - ph[:-1]
    close = np.flatnonzero(dth * dth + dph * dph <= (3.0 * SAME_VERTEX) ** 2)
    if not close.size:
        return th, ph
    keep = np.ones(th.size, dtype=bool)
    last = 0
    for k in (close + 1).tolist():
        if keep[k - 1]:
            last = k - 1
        keep[k] = math.hypot(th[k] - th[last], ph[k] - ph[last]) > SAME_VERTEX
    return th[keep], ph[keep]


def _curve_candidates(curve: LevelSetCurve, s: SpinState, i: Axis
                      ) -> list[Candidate]:
    """Refined interior extrema of the eigenbasis overlap along one curve.

    Interior extrema are detected as sign changes of the tangency condition
    between consecutive vertices; vertex overlap values alone are too noisy to
    bracket an extremum where the overlap is flat along the curve.
    """
    ni = axis_to_bloch(i)
    th, ph = curve.theta, curve.phi
    closed = th.size > 2 and th[0] == th[-1] and ph[0] == ph[-1]
    if closed:
        th, ph = th[:-1], ph[:-1]
    th, ph = _drop_repeats(th, ph)
    n = th.size

    # segment k joins vertices k and k + 1 (vertex 0 after the last one on a
    # closed curve) and brackets an extremum when the tangency changes sign
    # along it, or leaves zero
    tangs = _tangency(th, ph, s, ni, np)
    cur, nxt = (tangs, np.roll(tangs, -1)) if closed else (tangs[:-1], tangs[1:])
    k = np.flatnonzero((cur * nxt < 0.0) | ((cur == 0.0) & (nxt != 0.0)))
    kp = (k + 1) % n
    found = [_refine_between(p0, p1, s, curve.level, ni)
             for p0, p1 in zip(zip(th[k].tolist(), ph[k].tolist()),
                               zip(th[kp].tolist(), ph[kp].tolist()))]
    # adjacent segments can both straddle the same root through vertex noise
    uniq: list[tuple[float, float, float]] = []
    for theta, phi, q in found:
        if all(math.hypot(theta - a, phi - b) > DEDUP_RADIUS
               for a, b, _ in uniq):
            uniq.append((theta, phi, q))
    return [Candidate(canonicalize_axis(theta, phi), q, binary_entropy(q),
                      curve.component_id) for theta, phi, q in uniq]


def solve_collapse(i: Axis, s: SpinState, cfg: SolverConfig | None = None
                   ) -> CollapseSolution:
    """Grid route: trace both admissible level sets, drop components with a
    zero-entropy extremum, and return the overlap extremum with minimal
    eigenbasis entropy.

    The candidates are the refined interior extrema of every curve; a
    curve's open ends on the chart edge are never candidates.  A component
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
    all_cands = [c for curve in curves for c in _curve_candidates(curve, s, i)]
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

    cfg is accepted so that one SolverConfig can be passed to either route;
    the closed form reads none of its fields.
    """
    # state_to_bloch, axis_to_bloch, is_trivial and bloch_to_axis_angles,
    # inlined: the same operations in the same order, so the same bits
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
    theta = math.acos(min(1.0, max(-1.0, z)))
    phi = math.atan2(y, x) % TWO_PI
    if theta == 0.0 or theta == math.pi:
        phi = 0.0
    axis_f = canonicalize_axis(theta, phi)
    return CollapseSolution(Status.NORMAL, axis_f, s_up, s_i,
                            [Candidate(axis_f, 1.0 - c * c, s_up, 0)], [])
