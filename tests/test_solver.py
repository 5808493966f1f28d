"""Collapse solver: level-set tracing, status classification, grid vs
closed-form agreement, and the pinned worked instances."""

import math
import os
import struct
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from spincollapse.bloch import (
    Axis,
    SpinState,
    axes_up_overlap,
    axis_to_bloch,
    bloch_to_axis_angles,
    canonicalize_axis,
    eigenstate_as_state,
    state_to_bloch,
    up_overlap_prob,
)
import spincollapse
from spincollapse import solver
from spincollapse.entropy import binary_entropy
from spincollapse.solver import (
    EPS_TRIVIAL,
    EPS_Z,
    SolverConfig,
    Status,
    constraint_levels,
    is_trivial,
    solve_collapse,
    solve_collapse_closed_form,
    trace_level_sets,
)

from conftest import (
    CHART_EDGE_INSTANCES,
    REFINEMENT_GAP_INSTANCES,
    nondegenerate_instances,
    random_instance,
)

PI = math.pi
# an azimuth within this of 0 or pi, in radians, names a line next to the
# seam, where the chart's phi = 0 and phi = pi edges meet
SEAM_WINDOW = 1e-4

GENERIC_AXIS = canonicalize_axis(PI / 4, PI / 2)
GENERIC_STATE = SpinState(0.4, 0.0)
DEATH_AXIS = canonicalize_axis(0.862, 1.197)
DEATH_STATE = SpinState(math.cos(PI / 8) ** 2, PI / 2)


class TestConstraintLevels:
    def test_pinned_values(self):
        assert constraint_levels(GENERIC_AXIS, GENERIC_STATE) == \
            pytest.approx((0.4293, 0.5707), abs=5e-5)
        assert constraint_levels(DEATH_AXIS, DEATH_STATE) == \
            pytest.approx((0.9799, 0.0201), abs=2e-4)

    def test_eigenstate_is_degenerate(self):
        s = eigenstate_as_state(GENERIC_AXIS, 1)
        p_same, p_flip = constraint_levels(GENERIC_AXIS, s)
        assert p_same == pytest.approx(1.0, abs=1e-12)
        assert p_flip == pytest.approx(0.0, abs=1e-12)

    def test_levels_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = canonicalize_axis(rng.uniform(0, PI), rng.uniform(0, PI))
            s = SpinState(rng.uniform(0, 1), rng.uniform(0, 2 * PI))
            p_same, p_flip = constraint_levels(a, s)
            assert p_same + p_flip == pytest.approx(1.0, abs=1e-12)


class TestTraceLevelSets:
    CFG = SolverConfig(grid_n=256)

    def test_two_components_for_the_generic_instance(self):
        levels = constraint_levels(GENERIC_AXIS, GENERIC_STATE)
        curves = trace_level_sets(GENERIC_STATE, levels, self.CFG,
                                  axis_i=GENERIC_AXIS)
        assert len({c.component_id for c in curves}) == 2

    def test_one_component_for_the_death_instance(self):
        levels = constraint_levels(DEATH_AXIS, DEATH_STATE)
        curves = trace_level_sets(DEATH_STATE, levels, self.CFG,
                                  axis_i=DEATH_AXIS)
        assert len({c.component_id for c in curves}) == 1

    def test_field_rows_never_fall(self):
        # marching_squares traces only fields with b >= 0: b is
        # sqrt(rho (1 - rho)) sin(theta) with theta in [0, pi]
        for n in range(64, solver.GRID_N_MAX + 1):
            b = solver._overlap_grid(GENERIC_STATE, n)[3]
            assert (b >= 0.0).all(), n
        for rho in (0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53):
            b = solver._overlap_grid(SpinState(rho, 0.0), solver.GRID_N_MAX)[3]
            assert (b >= 0.0).all(), rho

    def test_grid_factors_are_shared_and_unchanged(self):
        # the node factors depend on grid_n alone and are built once; a and
        # b come out bit for bit as from the node angles directly
        for n in (64, 256, 1000):
            thetas, phis, a, b, c = solver._overlap_grid(GENERIC_STATE, n)
            again = solver._overlap_grid(SpinState(0.7, 1.0), n)
            assert again[0] is thetas and again[1] is phis
            assert not thetas.flags.writeable and not phis.flags.writeable
            rho, tau = GENERIC_STATE.rho, GENERIC_STATE.tau
            assert np.array_equal(thetas, np.linspace(0.0, PI, n + 1))
            assert np.array_equal(
                a, 0.5 * (1.0 + (2.0 * rho - 1.0) * np.cos(thetas)))
            assert np.array_equal(
                b, math.sqrt(rho * (1.0 - rho)) * np.sin(thetas))
            assert np.array_equal(c, np.cos(phis - tau))

    def test_node_factors_are_unchanged_by_solves(self):
        # the grid route writes in place only into its own temporaries; the
        # factors that every solve at a grid shares stay read-only and
        # bit for bit as they were built
        for n in (256, 1024):
            before = [x.copy() for x in solver._node_factors(n)]
            for axis, state in ((GENERIC_AXIS, GENERIC_STATE),
                                (DEATH_AXIS, DEATH_STATE)):
                solve_collapse(axis, state, SolverConfig(grid_n=n))
            after = solver._node_factors(n)
            assert not any(x.flags.writeable for x in after)
            assert [x.tobytes() for x in after] == \
                [x.tobytes() for x in before]

    def test_polar_state_level_half_is_the_equator(self):
        curves = trace_level_sets(SpinState(1.0, 0.0), (0.5,), self.CFG,
                                  axis_i=GENERIC_AXIS)
        assert len(curves) == 1
        cv = curves[0]
        assert solver.on_chart_edge(cv.theta, cv.phi).any()
        for th, ph, _, _ in cv.vertices:
            assert th == pytest.approx(PI / 2, abs=1e-9)

    def test_vertices_sit_on_the_level(self):
        levels = constraint_levels(GENERIC_AXIS, GENERIC_STATE)
        curves = trace_level_sets(GENERIC_STATE, levels, self.CFG,
                                  axis_i=GENERIC_AXIS)
        for cv in curves:
            for th, ph, _, _ in cv.vertices:
                a = canonicalize_axis(th, min(ph, PI - 1e-12))
                assert up_overlap_prob(a, GENERIC_STATE) == \
                    pytest.approx(cv.level, abs=1e-3)

    def test_out_of_range_level_rejected(self):
        with pytest.raises(ValueError):
            trace_level_sets(GENERIC_STATE, (0.0,), self.CFG, GENERIC_AXIS)
        with pytest.raises(ValueError):
            trace_level_sets(GENERIC_STATE, (1.0,), self.CFG, GENERIC_AXIS)

    def test_out_of_range_level_rejected_before_tracing(self, monkeypatch):
        traced = []

        def spy(*args):
            traced.append(args)
            return solver.marching_squares(*args)

        monkeypatch.setattr(solver, "marching_squares", spy)
        for levels in ((0.4, 1.0), (1.5, 0.4), (0.4, float("nan"))):
            with pytest.raises(ValueError, match="level must be in"):
                trace_level_sets(GENERIC_STATE, levels, self.CFG, GENERIC_AXIS)
        assert traced == []

    def test_curves_come_level_by_level(self):
        # both levels are traced in one pass; the first level's curves come
        # first, whichever level that is, and component ids count on across
        # the levels
        p_same, p_flip = constraint_levels(GENERIC_AXIS, GENERIC_STATE)
        for levels in ((p_same, p_flip), (p_flip, p_same)):
            curves = trace_level_sets(GENERIC_STATE, levels, self.CFG,
                                      axis_i=GENERIC_AXIS)
            assert [cv.level for cv in curves] == [levels[0], levels[1]]
            assert [cv.component_id for cv in curves] == [0, 1]
        rng = np.random.default_rng(4)
        for axis, state in [random_instance(rng) for _ in range(30)]:
            levels = constraint_levels(axis, state)
            if is_trivial(levels[0]):
                continue
            curves = trace_level_sets(state, levels, self.CFG, axis_i=axis)
            index = [levels.index(cv.level) for cv in curves]
            assert index == sorted(index)
            assert [cv.component_id for cv in curves] == \
                list(range(len(curves)))

    def test_empty_level_is_allowed(self):
        # the flip level of the death instance has no chart representative
        levels = constraint_levels(DEATH_AXIS, DEATH_STATE)
        curves = trace_level_sets(DEATH_STATE, (levels[1],), self.CFG,
                                  axis_i=DEATH_AXIS)
        assert curves == []


class TestArrayCurves:
    """Curves hold numpy arrays; the entropy of a vertex is evaluated only
    where it is read."""

    def test_solve_evaluates_few_entropies(self, monkeypatch):
        calls = []

        def counted(q):
            calls.append(q)
            return binary_entropy(q)

        monkeypatch.setattr(solver, "binary_entropy", counted)
        sol = solve_collapse(GENERIC_AXIS, GENERIC_STATE,
                             SolverConfig(grid_n=1024))
        assert sol.status is Status.NORMAL
        vertices = sum(cv.theta.size for cv in sol.curves)
        assert vertices > 3000
        assert len(calls) < 50

    def test_vertices_are_a_view_of_the_arrays(self):
        instances = [(GENERIC_AXIS, GENERIC_STATE), (DEATH_AXIS, DEATH_STATE),
                     *nondegenerate_instances(seed=5, count=5)]
        for axis, state in instances:
            levels = constraint_levels(axis, state)
            for cv in trace_level_sets(state, levels, SolverConfig(grid_n=256),
                                       axis):
                expected = list(zip(cv.theta, cv.phi, cv.overlap,
                                    map(binary_entropy, cv.overlap)))
                assert cv.vertices == expected
                assert all(type(x) is float for v in cv.vertices for x in v)


def _axes_dot_array(theta, phi, ni):
    """The per-level overlap pass that the shared trigonometry replaced:
    the former _axes_dot(theta, phi, ni, xp=np)."""
    st = np.sin(theta)
    return st * np.cos(phi) * ni[0] + st * np.sin(phi) * ni[1] + np.cos(theta) * ni[2]


def _tangency_array(theta, phi, s, ni):
    """The chart tangency that n . (n_i x m) replaced: the cross product of
    the chart gradients of the overlap with n_i and of the up-overlap
    field, equal to (sin theta / 4) n . (n_i x m)."""
    r = math.sqrt(s.rho * (1.0 - s.rho))
    gth = 0.5 * (1.0 - 2.0 * s.rho) * np.sin(theta) \
        + r * np.cos(theta) * np.cos(phi - s.tau)
    gph = -r * np.sin(theta) * np.sin(phi - s.tau)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    hth = 0.5 * (ct * cp * ni[0] + ct * sp * ni[1] - st * ni[2])
    hph = 0.5 * (-st * sp * ni[0] + st * cp * ni[1])
    return hth * gph - hph * gth


class TestVertexGeometry:
    """Every curve's overlap and tangency arrays are, by IEEE bytes, what
    separate numpy passes compute on the same vertices: the overlap
    (1 + n . n_i) / 2 and the tangency n . (n_i x m)."""

    @staticmethod
    def vertices(axis, state, grid):
        """(theta, phi, overlap, tangency) of each level's curves, joined."""
        levels = [q for q in constraint_levels(axis, state) if 0.0 < q < 1.0]
        curves = trace_level_sets(state, tuple(levels),
                                  SolverConfig(grid_n=grid), axis)
        for level in levels:
            mine = [cv for cv in curves if cv.level == level]
            if mine:
                yield tuple(np.concatenate([getattr(cv, name) for cv in mine])
                            for name in ("theta", "phi", "overlap", "tangency"))

    @classmethod
    def check(cls, axis, state, grid):
        ni = axis_to_bloch(axis)
        w = tuple(np.cross(ni, state_to_bloch(state)).tolist())
        levels = 0
        for th, ph, overlap, tangency in cls.vertices(axis, state, grid):
            qs = np.minimum(1.0, np.maximum(
                0.0, 0.5 * (1.0 + _axes_dot_array(th, ph, ni))))
            assert overlap.tobytes() == qs.tobytes()
            assert tangency.tobytes() == _axes_dot_array(th, ph, w).tobytes()
            levels += 1
        return levels

    @pytest.mark.parametrize("grid", [256, 1024, 4096])
    def test_pinned_instances(self, grid):
        assert self.check(GENERIC_AXIS, GENERIC_STATE, grid) > 0
        assert self.check(DEATH_AXIS, DEATH_STATE, grid) > 0

    @pytest.mark.parametrize("grid", [64, 256, 1024])
    def test_unfiltered_draws(self, grid):
        rng = np.random.default_rng(17)
        levels = sum(self.check(*random_instance(rng), grid)
                     for _ in range(200))
        assert levels > 200

    @pytest.mark.parametrize("grid", [64, 256, 1024])
    def test_tangency_signs_match_the_chart_cross_product(self, grid):
        # the chart tangency is (sin theta / 4) n . (n_i x m), so off the
        # poles both bracket the same extrema
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(200):
            axis, state = random_instance(rng)
            ni = axis_to_bloch(axis)
            for th, ph, _, tangency in self.vertices(axis, state, grid):
                off_pole = np.sin(th) > 1e-9
                chart = _tangency_array(th, ph, state, ni)
                assert np.array_equal(np.sign(tangency[off_pole]),
                                      np.sign(chart[off_pole]))
                checked += int(off_pole.sum())
        assert checked > 10000

    def test_axes_on_node_angles(self):
        rng = np.random.default_rng(18)
        for grid in (64, 256):
            step = math.pi / grid
            for _ in range(30):
                theta = round(rng.uniform(0.0, math.pi) / step) * step
                phi = round(rng.uniform(0.0, math.pi) / step) * step
                state = SpinState(rng.uniform(0.0, 1.0),
                                  rng.uniform(0.0, 2.0 * math.pi))
                self.check(canonicalize_axis(theta, phi), state, grid)


def _drop_repeats_loop(th, ph):
    """The first vertex, then each vertex more than 1e-12 from its
    predecessor, one vertex at a time."""
    pts = [(th[0], ph[0])]
    for k in range(1, len(th)):
        if math.hypot(th[k] - th[k - 1], ph[k] - ph[k - 1]) > 1e-12:
            pts.append((th[k], ph[k]))
    return pts


def _drop_repeats(th, ph, *more):
    """The vertices left when every vertex within SAME_VERTEX of its
    predecessor is dropped: th and ph, then each array of more filtered by
    the same mask.  The per-curve form of the solver's drop, kept as the
    reference of _curve_candidates."""
    dth, dph = th[1:] - th[:-1], ph[1:] - ph[:-1]
    far = dth * dth + dph * dph > solver.SAME_VERTEX ** 2
    if far.all():
        return th, ph, *more
    keep = np.concatenate(([True], far))
    return th[keep], ph[keep], *(x[keep] for x in more)


def _curve_candidates(curve, extrema):
    """Which of its level circle's two overlap extrema, extrema = (highest,
    lowest), lie on one curve, one curve at a time: the reference of
    solver._candidates, which takes every curve of a trace in one pass."""
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


def level_sets(curves):
    """A LevelSets as trace_level_sets builds it, from one (level, theta,
    phi, overlap, tangency) tuple per curve, component ids in order."""
    out = solver.LevelSets()
    out.arrays = arrays = tuple(np.concatenate(x)
                                for x in zip(*(c[1:] for c in curves)))
    start = 0
    for cid, (level, theta, *_) in enumerate(curves):
        end = start + len(theta)
        out.append(solver.LevelSetCurve(
            level, *(x[start:end] for x in arrays), cid))
        start = end
    return out


def reference_candidates(curves, extrema):
    return [cand for curve, pair in zip(curves, extrema)
            for cand in _curve_candidates(curve, pair)]


class TestCandidatePass:
    """solver._candidates, one pass over a trace, against the per-curve
    reference, candidate for candidate and so curve by curve."""

    def test_solver_traces(self, monkeypatch):
        # the pinned instances and unfiltered draws, as the solve passes
        # them: their curves and the extrema of each curve's circle
        calls = []
        candidates = solver._candidates

        def recorded(curves, extrema):
            out = candidates(curves, extrema)
            calls.append((curves, extrema, out))
            return out

        monkeypatch.setattr(solver, "_candidates", recorded)
        rng = np.random.default_rng(11)
        instances = [(GENERIC_AXIS, GENERIC_STATE), (DEATH_AXIS, DEATH_STATE),
                     *(random_instance(rng) for _ in range(20))]
        for grid in (64, 256):
            for axis, state in instances:
                solve_collapse(axis, state, SolverConfig(grid_n=grid))
        kinds = {"closed": 0, "open": 0, "repeats": 0, "candidates": 0}
        for curves, extrema, out in calls:
            assert out == reference_candidates(curves, extrema)
            kinds["candidates"] += len(out)
            for curve in curves:
                th, ph = curve.theta, curve.phi
                loop = th.size > 2 and th[0] == th[-1] and ph[0] == ph[-1]
                kinds["closed" if loop else "open"] += 1
                kinds["repeats"] += len(_drop_repeats(th, ph)[0]) < th.size
        assert min(kinds.values()) > 0, kinds

    def test_synthetic_curves(self):
        # random walks with near repeats, some closed (with a random
        # tangency at the repeated last vertex, which must not be read),
        # tangencies that are often zero, one to five curves a trace
        rng = np.random.default_rng(21)
        axis = Axis(1.0, 2.0)
        for _ in range(300):
            curves, extrema = [], []
            for _ in range(rng.integers(1, 6)):
                size = int(rng.integers(1, 12))
                steps = rng.choice([0.0, 3e-13, 9e-13, 1.1e-12, 1e-3],
                                   size=(size, 2))
                th, ph = 0.5 + np.cumsum(steps, axis=0).T
                if size > 2 and rng.random() < 0.5:
                    th[-1], ph[-1] = th[0], ph[0]
                tang = rng.choice([-1.0, -1e-3, 0.0, 1e-3, 1.0], size=size)
                curves.append((0.3, th, ph, rng.uniform(0.0, 1.0, size), tang))
                high = solver.Candidate(axis, rng.uniform(0.5, 1.0), 0.1, -1)
                extrema.append((high, high._replace(overlap=1.0 - high.overlap,
                                                    s_up=0.2)))
            traced = level_sets(curves)
            assert solver._candidates(traced, extrema) == \
                reference_candidates(traced, extrema)


class TestDropRepeats:
    @staticmethod
    def kept(th, ph):
        th, ph = _drop_repeats(np.array(th), np.array(ph))
        return list(zip(th.tolist(), ph.tolist()))

    def test_chain_of_sub_threshold_steps(self):
        # each step is 0.6e-12: a vertex is dropped against its
        # predecessor, dropped or not, so only the first vertex stays
        th = (0.5 + 0.6e-12 * np.arange(21)).tolist()
        ph = [1.0] * 21
        assert self.kept(th, ph) == _drop_repeats_loop(th, ph)
        assert self.kept(th, ph) == [(0.5, 1.0)]

    def test_random_walks_with_near_repeats(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            steps = rng.choice([0.0, 3e-13, 9e-13, 1.1e-12, 2.9e-12, 3.1e-12,
                                1e-3], size=(40, 2))
            th, ph = (0.5 + np.cumsum(steps * rng.choice([-1, 1], (40, 2)),
                                      axis=0)).T.tolist()
            assert self.kept(th, ph) == _drop_repeats_loop(th, ph)

    def test_solver_curves(self):
        for axis, state in nondegenerate_instances(seed=9, count=10):
            levels = constraint_levels(axis, state)
            for curve in trace_level_sets(state, levels, SolverConfig(grid_n=256),
                                          axis):
                th = [v[0] for v in curve.vertices]
                ph = [v[1] for v in curve.vertices]
                assert self.kept(th, ph) == _drop_repeats_loop(th, ph)

    def test_more_arrays_share_the_mask(self):
        # a closed curve as _curve_candidates passes it, without its
        # repeated last vertex, and with a near-repeat after vertex 3
        t = np.linspace(0.0, 2.0 * math.pi, 13)
        th, ph = 1.0 + 0.3 * np.cos(t), 1.5 + 0.3 * np.sin(t)
        th, ph = np.insert(th, 4, th[3] + 4e-13), np.insert(ph, 4, ph[3])
        th[-1], ph[-1] = th[0], ph[0]
        th, ph = th[:-1], ph[:-1]
        index = np.arange(th.size, dtype=float)
        tang = np.sin(7.0 * index)
        kth, kph, kindex, ktang = _drop_repeats(th, ph, index, tang)
        assert list(zip(kth.tolist(), kph.tolist())) == _drop_repeats_loop(th, ph)
        assert kindex.tolist() == [0, 1, 2, 3, *range(5, 13)]
        keep = kindex.astype(int)
        assert ktang.tobytes() == tang[keep].tobytes()
        assert kth.tobytes() == th[keep].tobytes()

    def test_more_arrays_pass_through_without_repeats(self):
        th, ph = np.linspace(0.1, 1.0, 8), np.linspace(2.0, 1.0, 8)
        tang = np.cos(th)
        out = _drop_repeats(th, ph, tang)
        assert len(out) == 3
        assert all(x is y for x, y in zip(out, (th, ph, tang)))


class TestWorkedInstances:
    def test_generic_instance_solution(self):
        t0 = time.perf_counter()
        sol = solve_collapse(GENERIC_AXIS, GENERIC_STATE, SolverConfig(grid_n=1024))
        elapsed = time.perf_counter() - t0
        assert sol.status is Status.NORMAL
        assert sol.axis_f.theta == pytest.approx(0.862, abs=1e-3)
        assert sol.axis_f.phi == pytest.approx(1.197, abs=1e-3)
        assert sol.s_up == pytest.approx(0.0980, abs=1e-4)
        assert elapsed < 1.0

    def test_generic_instance_discarded_component_contains_z(self):
        sol = solve_collapse(GENERIC_AXIS, GENERIC_STATE, SolverConfig(grid_n=1024))
        discarded = {c.component_id for c in sol.curves
                     if c.contains_zero_entropy}
        assert discarded
        hit = False
        for cv in sol.curves:
            if cv.component_id not in discarded:
                continue
            for th, ph, _, _ in cv.vertices:
                if math.hypot(th - 0.785, ph - 1.571) < 1e-3:
                    hit = True
        assert hit

    def test_dropped_components_have_a_zero_entropy_extremum(self):
        cfg = SolverConfig(grid_n=256)
        for axis, state in [(GENERIC_AXIS, GENERIC_STATE),
                            (DEATH_AXIS, DEATH_STATE),
                            *nondegenerate_instances(seed=5, count=20)]:
            sol = solve_collapse(axis, state, cfg)
            assert {cv.component_id for cv in sol.curves
                    if cv.contains_zero_entropy} == \
                {c.component_id for c in sol.candidates if c.s_up <= EPS_Z}
            levels = constraint_levels(axis, state)
            assert not any(cv.contains_zero_entropy for cv in
                           trace_level_sets(state, levels, cfg, axis))

    def test_death_instance(self):
        sol = solve_collapse(DEATH_AXIS, DEATH_STATE, SolverConfig(grid_n=1024))
        assert sol.status is Status.DEATH_POINT
        assert sol.axis_f == DEATH_AXIS  # unchanged, exactly
        assert len({c.component_id for c in sol.curves}) == 1

    def test_death_instance_surfaces_the_rejected_extremum(self):
        sol = solve_collapse(DEATH_AXIS, DEATH_STATE, SolverConfig(grid_n=1024))
        assert any(abs(c.overlap - 0.921) < 2e-3 for c in sol.candidates)

    def test_trivial_instance(self):
        s = eigenstate_as_state(GENERIC_AXIS, 1)
        sol = solve_collapse(GENERIC_AXIS, s, SolverConfig(grid_n=256))
        assert sol.status is Status.TRIVIAL
        assert sol.axis_f == GENERIC_AXIS
        sol = solve_collapse_closed_form(GENERIC_AXIS, s)
        assert sol.status is Status.TRIVIAL

    def test_closed_form_generic_instance(self):
        sol = solve_collapse_closed_form(GENERIC_AXIS, GENERIC_STATE)
        assert sol.status is Status.NORMAL
        assert sol.axis_f.theta == pytest.approx(0.862, abs=1e-3)
        assert sol.axis_f.phi == pytest.approx(1.197, abs=1e-3)
        assert sol.s_up == pytest.approx(binary_entropy(0.98), abs=1e-6)

    def test_closed_form_death_instance(self):
        sol = solve_collapse_closed_form(DEATH_AXIS, DEATH_STATE)
        assert sol.status is Status.DEATH_POINT
        assert sol.axis_f == DEATH_AXIS


class TestSolutionInvariants:
    def test_entropy_conservation_and_exclusion_hold(self):
        cfg = SolverConfig(grid_n=256)
        for axis, state in nondegenerate_instances(seed=31, count=50):
            sol = solve_collapse(axis, state, cfg)
            if sol.status is not Status.NORMAL:
                continue
            s_i = binary_entropy(up_overlap_prob(axis, state))
            s_f = binary_entropy(up_overlap_prob(sol.axis_f, state))
            assert abs(s_f - s_i) <= 1e-6
            q = axes_up_overlap(sol.axis_f, axis)
            assert 1e-6 < q < 1.0 - 1e-6

    def test_determinism(self):
        cfg = SolverConfig(grid_n=256)
        a = solve_collapse(GENERIC_AXIS, GENERIC_STATE, cfg)
        b = solve_collapse(GENERIC_AXIS, GENERIC_STATE, cfg)
        assert a.status == b.status
        assert (a.axis_f.theta, a.axis_f.phi) == (b.axis_f.theta, b.axis_f.phi)
        assert a.s_up == b.s_up
        assert [(c.axis.theta, c.axis.phi) for c in a.candidates] == \
            [(c.axis.theta, c.axis.phi) for c in b.candidates]

    def test_raw_antipodal_input_gives_same_solution(self):
        raw_theta = PI - GENERIC_AXIS.theta
        raw_phi = GENERIC_AXIS.phi + PI
        axis = canonicalize_axis(raw_theta, raw_phi)
        sol = solve_collapse(axis, GENERIC_STATE, SolverConfig(grid_n=256))
        ref = solve_collapse(GENERIC_AXIS, GENERIC_STATE, SolverConfig(grid_n=256))
        assert sol.axis_f.theta == pytest.approx(ref.axis_f.theta, abs=1e-9)
        assert sol.axis_f.phi == pytest.approx(ref.axis_f.phi, abs=1e-9)

    def test_grid_matches_closed_form_on_sample(self):
        cfg = SolverConfig(grid_n=256)
        for axis, state in nondegenerate_instances(seed=77, count=100):
            g = solve_collapse(axis, state, cfg)
            c = solve_collapse_closed_form(axis, state, cfg)
            assert g.status is c.status
            assert answer_bytes(g) == answer_bytes(c), (axis, state)

    @pytest.mark.parametrize("delta", [1e-12, -1e-12, 1e-9, -1e-9,
                                       1e-6, -1e-6])
    def test_grid_matches_closed_form_next_to_the_seam(self, delta):
        rng = np.random.default_rng(3)
        cfg = SolverConfig(grid_n=256)
        for _ in range(30):
            axis, state = seam_instance(rng, delta)
            g = solve_collapse(axis, state, cfg)
            c = solve_collapse_closed_form(axis, state, cfg)
            assert g.status is c.status
            assert answer_bytes(g) == answer_bytes(c), (axis, state)

    def test_routes_name_one_line_on_the_seam(self):
        # with n* on the seam its line has two chart names, (theta, 0) and
        # (pi - theta, just below pi), 3 rad apart in chart angles, and the
        # draws reach both; both routes take the name of one reflection
        rng = np.random.default_rng(3)
        instances = [seam_instance(rng, 0.0) for _ in range(400)]
        assert routes_agree_exactly(instances, 256) == 400
        phis = [solve_collapse_closed_form(a, s).axis_f.phi
                for a, s in instances]
        assert min(phis) < SEAM_WINDOW and max(phis) > PI - SEAM_WINDOW


def answer_bytes(sol) -> bytes:
    """The IEEE-754 bytes of a solution's final axis, its labels_swapped
    flag included, and s_up."""
    return struct.pack("<3d?", sol.axis_f.theta, sol.axis_f.phi, sol.s_up,
                       sol.axis_f.labels_swapped)


def routes_agree_exactly(instances, grid) -> int:
    """Assert that wherever both routes are Normal they return one final
    axis and one s_up, bit for bit (both name n* through one reflection);
    return how many such instances there were."""
    cfg = SolverConfig(grid_n=grid)
    normal = 0
    for axis, state in instances:
        g = solve_collapse(axis, state, cfg)
        c = solve_collapse_closed_form(axis, state, cfg)
        if g.status is c.status is Status.NORMAL:
            assert answer_bytes(g) == answer_bytes(c), (axis, state, grid)
            normal += 1
    return normal


@pytest.mark.parametrize("grid", [64, 256])
def test_normal_answers_are_bit_identical(grid):
    rng = np.random.default_rng(12)
    assert routes_agree_exactly([random_instance(rng) for _ in range(300)],
                                grid) > 220


def trivial_threshold_states(axis: Axis) -> tuple[SpinState, SpinState]:
    """The axis's down eigenstate with rho moved by bisection to two
    adjacent floats between which up_overlap_prob crosses EPS_TRIVIAL: the
    first state is Trivial by is_trivial, the second is not."""
    down = eigenstate_as_state(axis, 0)
    lo = down.rho
    hi = lo + 1e-3 if lo < 0.5 else lo - 1e-3

    def p_same(rho):
        return up_overlap_prob(axis, SpinState(rho, down.tau))

    assert p_same(lo) <= EPS_TRIVIAL < p_same(hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if p_same(mid) <= EPS_TRIVIAL:
            lo = mid
        else:
            hi = mid
    return SpinState(lo, down.tau), SpinState(hi, down.tau)


class TestOneUpOverlap:
    """Both routes take p_same from bloch.overlap_terms, as up_overlap_prob
    does, so their s_i and their Trivial decisions agree bit for bit."""

    def test_routes_take_p_same_from_up_overlap_prob(self, monkeypatch):
        # the first entropy a solve takes is s_i = f(p_same): record its
        # argument
        seen = []
        monkeypatch.setattr(solver, "binary_entropy",
                            lambda p: seen.append(p) or binary_entropy(p))
        rng = np.random.default_rng(28)
        instances = [random_instance(rng) for _ in range(200)]
        for _ in range(20):
            axis = canonicalize_axis(rng.uniform(0.0, PI),
                                     rng.uniform(0.0, PI))
            instances += [(axis, s) for s in trivial_threshold_states(axis)]
        cfg = SolverConfig(grid_n=64)
        for axis, state in instances:
            want = struct.pack("<d", up_overlap_prob(axis, state))
            for route in (solve_collapse, solve_collapse_closed_form):
                seen.clear()
                route(axis, state, cfg)
                assert struct.pack("<d", seen[0]) == want, (route, axis, state)

    def test_routes_split_no_trivial_decision_at_the_threshold(self):
        # small grids can split Normal from DeathPoint here, on circles
        # smaller than a cell, so only the Trivial decision is compared
        rng = np.random.default_rng(29)
        cfg = SolverConfig(grid_n=64)
        for _ in range(60):
            axis = canonicalize_axis(rng.uniform(0.0, PI),
                                     rng.uniform(0.0, PI))
            for state, trivial in zip(trivial_threshold_states(axis),
                                      (True, False)):
                g = solve_collapse(axis, state, cfg)
                c = solve_collapse_closed_form(axis, state, cfg)
                assert (g.status is Status.TRIVIAL) is trivial, (axis, state)
                assert (c.status is Status.TRIVIAL) is trivial, (axis, state)


def assert_routes_agree(instance) -> Status:
    """Solve a raw (theta_i, phi_i, rho, tau) by both routes at grid 256,
    require the same status and the same answer, bit for bit, as the CLI's
    agreement does; return the status."""
    theta, phi, rho, tau = instance
    axis, state = canonicalize_axis(theta, phi), SpinState(rho, tau)
    cfg = SolverConfig(grid_n=256)
    g = solve_collapse(axis, state, cfg)
    c = solve_collapse_closed_form(axis, state, cfg)
    assert g.status is c.status
    assert answer_bytes(g) == answer_bytes(c)
    return g.status


@pytest.mark.parametrize("instance", CHART_EDGE_INSTANCES.values(),
                         ids=CHART_EDGE_INSTANCES.keys())
def test_routes_agree_on_axes_next_to_the_chart_edge(instance):
    assert assert_routes_agree(instance) is Status.NORMAL


@pytest.mark.parametrize("instance", REFINEMENT_GAP_INSTANCES.values(),
                         ids=REFINEMENT_GAP_INSTANCES.keys())
def test_routes_agree_where_refinement_left_the_level(instance):
    assert_routes_agree(instance)


def test_no_admissible_extremum_is_a_death_point():
    # an axis on the seam with c = n_i . m = 1.5e-7: n* lies just off the
    # chart, so the flip-level arc on it has no extremum and is kept, and
    # -n* on the other component has zero entropy like n_i beside it
    axis = canonicalize_axis(1.3892157769068338, 0.0)
    state = SpinState(0.025108339322997386, 0.9796686429823828)
    cfg = SolverConfig(grid_n=256)
    g = solve_collapse(axis, state, cfg)
    assert g.status is Status.DEATH_POINT
    assert solve_collapse_closed_form(axis, state, cfg).status is \
        Status.DEATH_POINT
    kept = [cv for cv in g.curves if not cv.contains_zero_entropy]
    assert kept and not {cv.component_id for cv in kept} & \
        {c.component_id for c in g.candidates}
    assert all(c.s_up <= EPS_Z for c in g.candidates)


def flip_max_y(c: float, m_y: float) -> float:
    """The highest y-component on the flip circle {n : n . m = -c}, by the
    two square roots of its parametrization: the reference that the closed
    form's polynomial death test must reproduce."""
    return (-c * m_y + math.sqrt(max(0.0, 1.0 - c * c))
            * math.sqrt(max(0.0, 1.0 - m_y * m_y)))


class TestClosedFormDeathTest:
    """The closed form dies when c m_y > 0 and c^2 + m_y^2 > 1, which is
    flip_max_y < 0 squared out, or when f(c^2) <= EPS_Z."""

    def test_matches_the_square_root_reference(self):
        rng = np.random.default_rng(41)
        deaths = normals = 0
        for _ in range(20000):
            axis, state = random_instance(rng)
            sol = solve_collapse_closed_form(axis, state)
            ni, m = axis_to_bloch(axis), state_to_bloch(state)
            c = ni[0] * m[0] + ni[1] * m[1] + ni[2] * m[2]
            if is_trivial(min(1.0, max(0.0, 0.5 * (1.0 + c)))):
                assert sol.status is Status.TRIVIAL
                continue
            dies = (flip_max_y(c, m[1]) < 0.0
                    or binary_entropy(min(1.0, max(0.0, c * c))) <= EPS_Z)
            assert (sol.status is Status.DEATH_POINT) == dies, (axis, state)
            deaths += dies
            normals += not dies
        # about a fifth of the draws die
        assert 3000 < deaths < 5000 and normals > 14000

    @pytest.mark.parametrize("c, status", [(0.8 + 1e-6, Status.DEATH_POINT),
                                           (0.8 - 1e-6, Status.NORMAL)])
    def test_either_side_of_the_unit_circle(self, c, status):
        # m = (0, 0.6, 0.8) and n_i = c m + sqrt(1 - c^2) x, so c m_y > 0 and
        # c^2 + m_y^2 = 1 at c = 0.8; f(c^2) is far above EPS_Z
        m = (0.0, 0.6, 0.8)
        ni = (math.sqrt(1.0 - c * c), c * m[1], c * m[2])
        axis = canonicalize_axis(*bloch_to_axis_angles(ni))
        state = SpinState(0.5 * (1.0 + m[2]), PI / 2)
        m_y = state_to_bloch(state)[1]
        assert (flip_max_y(c, m_y) < 0.0) == (status is Status.DEATH_POINT)
        assert (c * c + m_y * m_y > 1.0) == (status is Status.DEATH_POINT)
        assert solve_collapse_closed_form(axis, state).status is status


class TestSignClause:
    """On the seam (n_i . y = 0), with m in the plane of n_i and y,
    c^2 + m_y^2 = 1 in real arithmetic.  When c m_y < 0 the flip circle's
    highest point is 2|c m_y| > 0, inside the chart, but the float sum can
    round above 1: the clause c m_y > 0 alone keeps these Normal."""

    def test_pinned_seam_instance(self):
        axis = canonicalize_axis(0.43482675595414105, 0.0)
        state = SpinState(0.09059742078626132, 2.294931346852765)
        ni, m = axis_to_bloch(axis), state_to_bloch(state)
        c = ni[0] * m[0] + ni[1] * m[1] + ni[2] * m[2]
        assert ni[1] == 0.0
        assert c * c + m[1] * m[1] > 1.0 and c * m[1] < 0.0
        sol = solve_collapse_closed_form(axis, state)
        assert sol.status is Status.NORMAL
        assert axis_to_bloch(sol.axis_f)[1] == pytest.approx(0.776, abs=1e-3)

    def test_seam_plane_draws_stay_normal(self):
        rng = np.random.default_rng(5)
        rounded_over = 0
        for _ in range(2000):
            axis = canonicalize_axis(rng.uniform(0.0, PI), 0.0)
            ni = axis_to_bloch(axis)
            a = rng.uniform(0.0, 2.0 * PI)
            # m = cos(a) n_i + sin(a) y, with cos(a) sin(a) < 0
            if math.cos(a) * math.sin(a) > -0.05:
                continue
            mx, my, mz = (math.cos(a) * ni[0], math.sin(a),
                          math.cos(a) * ni[2])
            state = SpinState(0.5 * (1.0 + mz), math.atan2(my, mx) % (2 * PI))
            m = state_to_bloch(state)
            c = ni[0] * m[0] + ni[1] * m[1] + ni[2] * m[2]
            rounded_over += c * c + m[1] * m[1] > 1.0
            assert solve_collapse_closed_form(axis, state).status is \
                Status.NORMAL, (axis, state)
        # without the clause these would be DeathPoints
        assert rounded_over > 50


def closed_form_by_helpers(axis, state) -> tuple:
    """The closed form written through the bloch helpers and is_trivial:
    (status, axis_f, s_up, s_i, candidate overlap or None).
    solve_collapse_closed_form, through overlap_terms and _reflection, must
    reproduce it bit for bit."""
    m, ni = state_to_bloch(state), axis_to_bloch(axis)
    c = ni[0] * m[0] + ni[1] * m[1] + ni[2] * m[2]
    p_same = min(1.0, max(0.0, 0.5 * (1.0 + c)))
    s_i = binary_entropy(p_same)
    if is_trivial(p_same):
        return Status.TRIVIAL, axis, 0.0, s_i, None
    s_up = binary_entropy(min(1.0, max(0.0, c * c)))
    if (c * m[1] > 0.0 and c * c + m[1] * m[1] > 1.0) or s_up <= EPS_Z:
        return Status.DEATH_POINT, axis, 0.0, s_i, None
    nstar = tuple(ni[k] - 2.0 * c * m[k] for k in range(3))
    nrm = math.sqrt(nstar[0] ** 2 + nstar[1] ** 2 + nstar[2] ** 2)
    theta, phi = bloch_to_axis_angles(tuple(x / nrm for x in nstar))
    return (Status.NORMAL, canonicalize_axis(theta, phi), s_up, s_i,
            1.0 - c * c)


def result_bytes(status, axis_f, s_up, s_i, overlap) -> bytes:
    """The IEEE-754 bytes of a closed-form answer (so -0.0 differs from 0.0)."""
    return status.value.encode() + struct.pack(
        "<4d?d", axis_f.theta, axis_f.phi, s_up, s_i, axis_f.labels_swapped,
        math.nan if overlap is None else overlap)


class TestClosedFormArithmetic:
    """solve_collapse_closed_form takes n_i, m, c and p_same from
    bloch.overlap_terms, which repeats the formulas of state_to_bloch and
    axis_to_bloch, and hands n*'s raw atan2 angles to canonicalize_axis,
    whose reduction repeats bloch_to_axis_angles'; its answers must stay
    those of the helpers, by IEEE bytes."""

    # rho at 0 and 1, the pole, the seam and the last float below pi
    EDGES = [(0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0),
             (0.0, 0.0, 0.5, 1.0), (PI / 2, 0.0, 0.3, 0.0),
             (PI / 2, 0.0, 0.3, PI), (math.nextafter(PI, 0.0), 0.0, 0.7, 2.0),
             (1.0, math.nextafter(PI, 0.0), 0.5, PI / 2),
             (PI / 4, PI / 2, 0.4, 0.0), (0.862, 1.197, 0.8535533905932737,
                                          PI / 2)]

    def test_matches_the_helpers_on_an_unfiltered_sweep(self):
        rng = np.random.default_rng(14)
        instances = [random_instance(rng) for _ in range(20000)]
        instances += [(canonicalize_axis(theta, phi), SpinState(rho, tau))
                      for theta, phi, rho, tau in self.EDGES]
        statuses = dict.fromkeys(Status, 0)
        for axis, state in instances:
            sol = solve_collapse_closed_form(axis, state)
            overlap = sol.candidates[0].overlap if sol.candidates else None
            expected = closed_form_by_helpers(axis, state)
            assert result_bytes(sol.status, sol.axis_f, sol.s_up, sol.s_i,
                                overlap) == result_bytes(*expected), \
                (axis, state)
            assert sol.candidates == ([] if overlap is None else [
                solver.Candidate(sol.axis_f, overlap, sol.s_up, 0)])
            statuses[sol.status] += 1
        # every branch of the closed form is taken, and some answers swap
        # their labels
        assert all(count > 0 for count in statuses.values())
        assert statuses[Status.NORMAL] > 14000
        assert sum(solve_collapse_closed_form(a, s).axis_f.labels_swapped
                   for a, s in instances[:2000]) > 100


class TestRecords:
    """Candidate is a NamedTuple, Axis an immutable value and
    CollapseSolution a slotted record; these pin what callers may rely
    on."""

    AXIS = canonicalize_axis(0.862, 1.197)

    def test_candidate_fields_and_repr(self):
        cand = solver.Candidate(self.AXIS, 0.9, 0.2, 3)
        assert solver.Candidate._fields == ("axis", "overlap", "s_up",
                                            "component_id")
        assert (cand.axis, cand.overlap, cand.s_up, cand.component_id) == \
            (self.AXIS, 0.9, 0.2, 3)
        assert repr(cand) == (f"Candidate(axis={self.AXIS!r}, overlap=0.9, "
                              "s_up=0.2, component_id=3)")

    def test_candidate_and_axis_reject_assignment(self):
        cand = solver.Candidate(self.AXIS, 0.9, 0.2, 3)
        with pytest.raises(AttributeError):
            cand.overlap = 0.5
        with pytest.raises(AttributeError):
            cand.axis.theta = 0.5
        with pytest.raises(AttributeError):
            self.AXIS.labels_swapped = True
        assert (cand.overlap, self.AXIS.theta) == (0.9, 0.862)

    def test_equal_by_value_and_hashable(self):
        a = solver.Candidate(canonicalize_axis(0.862, 1.197), 0.9, 0.2, 3)
        b = solver.Candidate(canonicalize_axis(0.862, 1.197), 0.9, 0.2, 3)
        assert a.axis is not b.axis
        assert a.axis == b.axis and hash(a.axis) == hash(b.axis)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != b._replace(component_id=4)
        assert a.axis != a.axis._replace(labels_swapped=True)

    def test_solutions_do_not_share_default_lists(self):
        first = solver.CollapseSolution(Status.TRIVIAL, self.AXIS, 0.0, 0.5)
        second = solver.CollapseSolution(Status.TRIVIAL, self.AXIS, 0.0, 0.5)
        first.candidates.append(solver.Candidate(self.AXIS, 0.9, 0.2, 0))
        first.curves.append(None)
        assert second.candidates == [] and second.curves == []
        with pytest.raises(AttributeError):
            first.note = "slots take no new attributes"

    @pytest.mark.parametrize("theta, phi", [
        (PI, 0.5), (-0.1, 0.5), (math.nan, 0.5),  # theta out of chart
        (0.5, PI), (0.5, -0.1), (0.5, math.nan),  # phi out of chart
        (0.0, 0.3)])  # the pole has phi = 0
    def test_axis_validations(self, theta, phi):
        with pytest.raises(ValueError):
            solver.Axis(theta, phi)
        with pytest.raises(ValueError):
            self.AXIS._replace(theta=theta, phi=phi)


EPS = sys.float_info.epsilon
# bounds on the line error of a Normal answer (line_error against
# reference_nstar), which is the same axis on both routes; the largest
# measured at grid 256 was 6.1 EPS (uniform draws, rng 7), and 8.7 EPS
# between mirrored answers
LINE_ERR = 8.0 * EPS
MIRROR_LINE_ERR = 16.0 * EPS


def bloch_at(theta: float, phi: float) -> tuple[float, float, float]:
    """The unit vector at raw chart angles, which may lie off the chart."""
    st = math.sin(theta)
    return st * math.cos(phi), st * math.sin(phi), math.cos(theta)


def dot3(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def angle_between(u, v) -> float:
    """The angle between two unit vectors, accurate near 0 and pi."""
    cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
             u[0] * v[1] - u[1] * v[0])
    return math.atan2(math.sqrt(dot3(cross, cross)), dot3(u, v))


class TestTangentPoints:
    def test_candidates_are_tangent_points_of_their_own_curves(self):
        # every grid candidate is a tangent point k m +- sqrt(1 - k^2) t / |t|
        # of its level circle n . m = k: on the circle, where n . w = 0,
        # within two cell diagonals of a traced vertex of its own component,
        # and at most one per curve on each side of m
        rng = np.random.default_rng(8)
        instances = [(GENERIC_AXIS, GENERIC_STATE),
                     *(random_instance(rng) for _ in range(200))]
        seen = 0
        for grid in (64, 256):
            reach = 2.0 * math.sqrt(2.0) * PI / grid
            for axis, state in instances:
                sol = solve_collapse(axis, state, SolverConfig(grid_n=grid))
                ni, m = axis_to_bloch(axis), state_to_bloch(state)
                w = np.cross(ni, m)
                t = np.cross(m, w)
                curves = {c.component_id: c for c in sol.curves}
                sides = {}
                for cand in sol.candidates:
                    curve = curves[cand.component_id]
                    n = np.array(axis_to_bloch(cand.axis))
                    if cand.axis.labels_swapped:
                        n = -n
                    assert abs(n.dot(m) - (2.0 * curve.level - 1.0)) \
                        <= 4.0 * EPS, (axis, state, grid)
                    assert abs(n.dot(w)) <= 4.0 * EPS, (axis, state, grid)
                    st = np.sin(curve.theta)
                    vertices = np.stack((st * np.cos(curve.phi),
                                         st * np.sin(curve.phi),
                                         np.cos(curve.theta)), axis=1)
                    assert np.linalg.norm(vertices - n, axis=1).min() \
                        <= reach, (axis, state, grid)
                    sides.setdefault(cand.component_id, []).append(
                        n.dot(t) > 0.0)
                    seen += 1
                for side in sides.values():
                    assert len(side) == len(set(side)), (axis, state, grid)
        assert seen > 700

    def test_vertex_noise_gives_one_candidate_per_tangent_point(self):
        # five vertices around one of the flip circle's extrema, n* or -n_i,
        # with a tangency that changes sign at every segment, as vertex
        # noise can make it: four brackets, all on one side of m, name one
        # candidate, the extremum they surround
        ni = axis_to_bloch(GENERIC_AXIS)
        m = state_to_bloch(GENERIC_STATE)
        _, level = constraint_levels(GENERIC_AXIS, GENERIC_STATE)
        k = 2.0 * level - 1.0
        r = math.sqrt(1.0 - k * k)
        t = np.cross(m, np.cross(ni, m))
        nstar = solve_collapse_closed_form(GENERIC_AXIS, GENERIC_STATE).axis_f
        high = solver.Candidate(nstar, 1.0 - k * k, binary_entropy(k * k), -1)
        low = solver.Candidate(solver.Axis(GENERIC_AXIS.theta,
                                           GENERIC_AXIS.phi, True),
                               0.0, 0.0, -1)
        for side, extremum in ((1.0, high), (-1.0, low)):
            u = side * t / np.linalg.norm(t)
            v = np.cross(m, u)
            points = [k * np.array(m) + r * (math.cos(a) * u + math.sin(a) * v)
                      for a in (-0.02, -0.01, 0.0, 0.01, 0.02)]
            theta = np.array([math.atan2(math.hypot(x, y), z)
                              for x, y, z in points])
            phi = np.array([math.atan2(y, x) for x, y, _ in points])
            overlap = np.array([0.5 * (1.0 + p.dot(ni)) for p in points])
            curve = solver.LevelSetCurve(
                level, theta, phi, overlap,
                np.array([1.0, -1.0, 1.0, -1.0, 1.0]), 3)
            traced = solver.LevelSets([curve])
            traced.arrays = (theta, phi, overlap, curve.tangency)
            assert solver._candidates(traced, [(high, low)]) == \
                [extremum._replace(component_id=3)]
        # n* is the middle vertex of its five, on the chart
        assert np.linalg.norm(np.array(axis_to_bloch(nstar)) - k * np.array(m)
                              - r * t / np.linalg.norm(t)) <= 4.0 * EPS


def pole_axis_instances(rng, count):
    """The pole axis (0, 0) with uniform states: n_i and -n_i both lie on
    the chart edge theta in {0, pi}, so one solve can hold both."""
    return [(canonicalize_axis(0.0, 0.0),
             SpinState(rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * PI)))
            for _ in range(count)]


class TestFourExtrema:
    """Every candidate is one of the four extrema, built once per solve:
    n_i and -n* on the same-level circle, n* and -n_i on the flip circle."""

    @staticmethod
    def instances(seed):
        rng = np.random.default_rng(seed)
        return ([random_instance(rng) for _ in range(200)]
                + pole_axis_instances(rng, 100))

    @pytest.mark.parametrize("grid", [64, 256])
    def test_axis_candidates_are_exact(self, grid):
        # a candidate on the axis's line is n_i (overlap 1) or -n_i (overlap
        # 0), with s_up 0 and named (theta_i, phi_i), labels swapped for -n_i
        exact = 0
        for axis, state in self.instances(13):
            sol = solve_collapse(axis, state, SolverConfig(grid_n=grid))
            ni = axis_to_bloch(axis)
            for cand in sol.candidates:
                if abs(dot3(axis_to_bloch(cand.axis), ni)) < 1.0 - 1e-9:
                    continue
                assert cand.overlap in (0.0, 1.0), (axis, state)
                assert cand.s_up == 0.0
                assert cand.axis == solver.Axis(axis.theta, axis.phi,
                                                cand.overlap == 0.0)
                exact += 1
        assert exact > 200

    def test_components_through_the_axis_hold_it(self):
        # away from the chart edge n_i lies inside the chart, on a traced
        # same-level component, and that component holds n_i's candidate
        for grid in (64, 256):
            for axis, state in nondegenerate_instances(seed=14, count=60):
                sol = solve_collapse(axis, state, SolverConfig(grid_n=grid))
                assert solver.Candidate(solver.Axis(axis.theta, axis.phi),
                                        1.0, 0.0, 0) in [
                    c._replace(component_id=0) for c in sol.candidates], \
                    (axis, state, grid)

    @pytest.mark.parametrize("grid", [64, 256])
    def test_one_line_has_one_name(self, grid):
        # two candidates on one line have equal angles, and opposite flags
        # when they are its two directions; pole axes hold +-n_i at once
        pairs = 0
        for axis, state in self.instances(15):
            sol = solve_collapse(axis, state, SolverConfig(grid_n=grid))
            for i, a in enumerate(sol.candidates):
                for b in sol.candidates[i + 1:]:
                    na, nb = axis_to_bloch(a.axis), axis_to_bloch(b.axis)
                    if abs(dot3(na, nb)) < 1.0 - 1e-9:
                        continue
                    assert (a.axis.theta, a.axis.phi) == \
                        (b.axis.theta, b.axis.phi), (axis, state)
                    assert (a.axis.labels_swapped != b.axis.labels_swapped) \
                        == (a.overlap != b.overlap), (axis, state)
                    pairs += a.overlap != b.overlap
        assert pairs > 3


def reference_nstar(axis, state) -> tuple[Fraction, Fraction, Fraction]:
    """The closed form's answer line n* = n_i - 2 c m, c = n_i . m, from the
    float Bloch vectors of axis_to_bloch and state_to_bloch: the reflection
    in exact rational arithmetic, normalized with 40-digit decimals."""
    ni = [Fraction(x) for x in axis_to_bloch(axis)]
    m = [Fraction(x) for x in state_to_bloch(state)]
    c = sum(a * b for a, b in zip(ni, m))
    v = [a - 2 * c * b for a, b in zip(ni, m)]
    norm2 = sum(x * x for x in v)
    with localcontext() as ctx:
        ctx.prec = 40
        norm = (Decimal(norm2.numerator) / Decimal(norm2.denominator)).sqrt()
        return tuple(Fraction(Decimal(x.numerator) / Decimal(x.denominator)
                              / norm) for x in v)


def line_error(u, v) -> float:
    """|u x v|, computed exactly: for unit vectors, the sine of the angle
    between their lines, whatever their signs."""
    u, v = [Fraction(x) for x in u], [Fraction(x) for x in v]
    cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
             u[0] * v[1] - u[1] * v[0])
    return math.sqrt(float(sum(x * x for x in cross)))


def near_pole_instance(rng):
    """An (axis, state) pair whose reflection n* = n_i - 2 (n_i . m) m lies
    1e-9 to 1e-4 rad from a pole: n* is drawn there (log-uniform distance,
    uniform azimuth, either pole), m uniformly, and the axis is the
    reflection n_i = n* - 2 (n* . m) m, canonicalized."""
    delta = 10.0 ** rng.uniform(-9.0, -4.0)
    psi = rng.uniform(0.0, 2.0 * PI)
    nstar = np.array([math.sin(delta) * math.cos(psi),
                      math.sin(delta) * math.sin(psi),
                      rng.choice([-1.0, 1.0]) * math.cos(delta)])
    m = rng.normal(size=3)
    m /= np.linalg.norm(m)
    ni = nstar - 2.0 * nstar.dot(m) * m
    axis = canonicalize_axis(*bloch_to_axis_angles(tuple(ni.tolist())))
    tau = math.atan2(m[1], m[0]) % (2.0 * PI)
    return axis, SpinState(0.5 * (1.0 + float(m[2])), tau)


class TestLineError:
    """Every Normal answer of either route names the line of n*, computed
    from the same float inputs, to a few EPS: on uniform draws, where n*
    lies next to a pole (there acos(z) lost half the digits), and where the
    grid route's refinement used to leave the level set."""

    @staticmethod
    def check(instances, cfg=SolverConfig(grid_n=256)) -> int:
        """Assert the bounds on every Normal answer; return their number."""
        normal = 0
        for axis, state in instances:
            ref = None
            for route in (solve_collapse, solve_collapse_closed_form):
                sol = route(axis, state, cfg)
                if sol.status is Status.NORMAL:
                    ref = ref or reference_nstar(axis, state)
                    assert line_error(axis_to_bloch(sol.axis_f), ref) \
                        <= LINE_ERR, (route.__name__, axis, state)
                    normal += 1
        return normal

    def test_uniform_draws(self):
        rng = np.random.default_rng(7)
        assert self.check(random_instance(rng) for _ in range(700)) > 1000

    def test_near_pole_draws(self):
        rng = np.random.default_rng(4)
        assert self.check(near_pole_instance(rng) for _ in range(100)) > 190

    def test_refinement_gap_instances(self):
        # "corpus11:6577" is a death point on both routes
        assert self.check((canonicalize_axis(theta, phi),
                           SpinState(rho, tau)) for theta, phi, rho, tau
                          in REFINEMENT_GAP_INSTANCES.values()) == 6

    def test_former_fallback_instance_at_grid_64(self):
        # the old projection found no bracket for eight probes of this
        # instance at grid 64 and left them off the level set
        axis = canonicalize_axis(3.11944084003499, 0.4649184809692558)
        state = SpinState(0.7126756760614649, 5.185659862436709)
        assert self.check([(axis, state)], SolverConfig(grid_n=64)) == 2


def mirror_x(axis, state):
    """x -> -x: (phi_i, tau) -> (pi - phi_i, pi - tau), and the sign flips
    that carry an answer to the mirrored instance's answer."""
    return (canonicalize_axis(axis.theta, PI - axis.phi),
            SpinState(state.rho, (PI - state.tau) % (2.0 * PI)),
            (-1.0, 1.0, 1.0))


def mirror_z(axis, state):
    """z -> -z: (theta_i, rho) -> (pi - theta_i, 1 - rho)."""
    return (canonicalize_axis(PI - axis.theta, axis.phi),
            SpinState(1.0 - state.rho, state.tau), (1.0, 1.0, -1.0))


@pytest.mark.parametrize("mirror", [mirror_x, mirror_z], ids=["x", "z"])
@pytest.mark.parametrize("route", [solve_collapse, solve_collapse_closed_form],
                         ids=["grid", "closed"])
def test_mirrored_instance_has_the_mirrored_answer(route, mirror):
    rng = np.random.default_rng(21)
    cfg = SolverConfig(grid_n=256)
    normal = 0
    for _ in range(300):
        axis, state = random_instance(rng)
        axis2, state2, signs = mirror(axis, state)
        a, b = route(axis, state, cfg), route(axis2, state2, cfg)
        assert a.status is b.status, (axis, state)
        if a.status is Status.NORMAL:
            mirrored = [s * x for s, x in zip(signs, axis_to_bloch(a.axis_f))]
            assert line_error(mirrored, axis_to_bloch(b.axis_f)) \
                <= MIRROR_LINE_ERR, (axis, state)
            normal += 1
    assert normal > 200


def instance_at_overlap(rng, c: float):
    """An (axis, state) pair whose Bloch vectors have dot product c.

    The state vector is m = c n_i + sqrt(1 - c^2) u, with u a random unit
    vector orthogonal to the axis vector n_i.
    """
    axis = canonicalize_axis(rng.uniform(0.0, PI), rng.uniform(0.0, PI))
    ni = np.array(axis_to_bloch(axis))
    u = rng.normal(size=3)
    u -= u.dot(ni) * ni
    u /= np.linalg.norm(u)
    m = c * ni + math.sqrt(1.0 - c * c) * u
    tau = math.atan2(m[1], m[0]) % (2.0 * PI)
    return axis, SpinState(0.5 * (1.0 + m[2]), tau)


def seam_instance(rng, delta: float):
    """An (axis, state) pair whose reflection n* = n_i - 2 (n_i . m) m, the
    closed form's answer, has y-component +-delta: it lies next to the chart
    seam y = 0, which is_nondegenerate rejects.

    n* is drawn with y-component delta and z uniform, m uniformly, and the
    axis is n_i = n* - 2 (n* . m) m, canonicalized (which flips the sign of
    n* when it flips n_i).  Draws that is_nondegenerate rejects for another
    reason, except an axis grazing the chart edge, are redrawn: c = n_i . m
    near 0 or +-1, a flip circle tangent to the chart edge.
    """
    while True:
        m = rng.normal(size=3)
        m /= np.linalg.norm(m)
        z = rng.uniform(-1.0, 1.0)
        nstar = np.array([rng.choice([-1.0, 1.0])
                          * math.sqrt(1.0 - delta * delta - z * z), delta, z])
        ni = nstar - 2.0 * nstar.dot(m) * m
        if ni[1] < 0.0:
            ni = -ni
        c = float(ni.dot(m))
        flip_max_y = (-c * m[1] + math.sqrt(max(0.0, 1.0 - c * c))
                      * math.sqrt(max(0.0, 1.0 - m[1] * m[1])))
        if 2e-3 < abs(c) < 0.95 and abs(flip_max_y) > 1e-3:
            break
    axis = canonicalize_axis(*bloch_to_axis_angles(tuple(ni.tolist())))
    tau = math.atan2(m[1], m[0]) % (2.0 * PI)
    return axis, SpinState(0.5 * (1.0 + float(m[2])), tau)


class TestStatusThresholds:
    """Both routes apply the same Trivial and zero-entropy rules, so they
    agree on status on either side of each threshold."""

    def statuses(self, seed, draw_c, count=100):
        rng = np.random.default_rng(seed)
        cfg = SolverConfig(grid_n=256)
        out = []
        for _ in range(count):
            c = draw_c(rng) * rng.choice((-1.0, 1.0))
            axis, state = instance_at_overlap(rng, c)
            g = solve_collapse(axis, state, cfg)
            f = solve_collapse_closed_form(axis, state, cfg)
            out.append((g.status, f.status, c))
        return out

    def test_zero_entropy_threshold(self):
        # f(c^2) crosses EPS_Z at |c| = 2.38e-4, inside this range
        out = self.statuses(31, lambda rng: 10.0 ** rng.uniform(-6.0, -2.5))
        assert [(g, c) for g, f, c in out if g != f] == []
        zero = [binary_entropy(c * c) <= EPS_Z for _, _, c in out]
        assert [g is Status.DEATH_POINT for g, _, _ in out] == zero
        assert any(zero) and not all(zero)

    def test_trivial_threshold(self):
        # one outcome has probability (1 - |c|) / 2, just below EPS_TRIVIAL
        out = self.statuses(32, lambda rng: 1.0 - rng.uniform(1.1e-9, 1.9e-9))
        assert all(g is f is Status.TRIVIAL for g, f, _ in out)

    def test_is_trivial(self):
        assert is_trivial(0.0) and is_trivial(1.0)
        assert is_trivial(EPS_TRIVIAL) and is_trivial(1.0 - 0.5 * EPS_TRIVIAL)
        assert not is_trivial(2.0 * EPS_TRIVIAL)
        assert not is_trivial(0.5)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(grid_n=32)
        with pytest.raises(ValueError):
            SolverConfig(method="newton")
        # the automaton, the field's one reader, runs one route
        with pytest.raises(ValueError, match="unknown method 'both'"):
            SolverConfig(method="both")

    def test_grid_n_upper_bound(self):
        # validated before any field is allocated
        assert SolverConfig(grid_n=solver.GRID_N_MAX).grid_n == 8192
        with pytest.raises(ValueError, match=r"grid_n must be in \[64, 8192\]"):
            SolverConfig(grid_n=solver.GRID_N_MAX + 1)

    def test_grid_n_must_be_an_integer(self):
        # a float or string grid_n used to construct and then fail in the
        # solve with a TypeError, or in the range comparison
        for bad in (256.5, 300.0, "256", True, np.float64(256.0)):
            with pytest.raises(ValueError, match="grid_n must be an integer"):
                SolverConfig(grid_n=bad)
        # anything with __index__ is an integer, as for the policy counts,
        # and is stored as the int it stands for
        class Index:
            def __index__(self):
                return 256

        for good in (256, np.int64(256), np.int32(256), Index()):
            grid_n = SolverConfig(grid_n=good).grid_n
            assert grid_n == 256 and type(grid_n) is int

    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.grid_n == 1024
        assert cfg.method == "grid"
        assert cfg._fields == ("grid_n", "method")


def test_solving_does_not_import_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(spincollapse.__file__)))
    code = ("import math, sys\n"
            "import spincollapse\n"
            "from spincollapse import SpinState, canonicalize_axis, solve_collapse\n"
            "sol = solve_collapse(canonicalize_axis(math.pi / 4, math.pi / 2),\n"
            "                     SpinState(0.4, 0.0))\n"
            "assert sol.status.value == 'Normal'\n"
            "print('scipy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_solve_does_not_import_logging():
    # diagnostics are plain prints to stderr
    src = os.path.dirname(os.path.dirname(os.path.abspath(spincollapse.__file__)))
    code = ("import sys\n"
            "from spincollapse.cli import main\n"
            "code = main(['solve', '--theta-i', '0.7853981633974483',\n"
            "             '--phi-i', '1.5707963267948966', '--rho', '0.4',\n"
            "             '--tau', '0', '--grid', '256'])\n"
            "assert code == 0\n"
            "print('logging' in sys.modules, file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "False"


def test_grid_solves_do_not_import_numpy_ma():
    # numpy.ma comes in with some numpy functions (np.unique among them)
    # and adds about 1.5 MB of resident memory to every process that
    # solves on the grid
    src = os.path.dirname(os.path.dirname(os.path.abspath(spincollapse.__file__)))
    code = ("import math, sys\n"
            "from spincollapse import SpinState, canonicalize_axis, solve_collapse\n"
            "from spincollapse.solver import SolverConfig\n"
            "axis = canonicalize_axis(math.pi / 4, math.pi / 2)\n"
            "for n in (256, 4096):\n"
            "    sol = solve_collapse(axis, SpinState(0.4, 0.0),\n"
            "                         SolverConfig(grid_n=n, method='grid'))\n"
            "    assert sol.status.value == 'Normal'\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
