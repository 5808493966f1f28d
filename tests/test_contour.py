"""Marching-squares contour extraction on separable analytic fields with
known level sets, bit-for-bit agreement with a per-cell reference loop over
the dense field, and a level set for every level inside the node range."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spincollapse import solver
from spincollapse.bloch import SpinState, canonicalize_axis
from spincollapse.contour import _crossed_edges, _runs, marching_squares
from spincollapse.solver import (
    SolverConfig,
    _overlap_grid,
    constraint_levels,
    solve_collapse,
)

from conftest import missed_rows, random_instance


def _reference_marching_squares(values, xs, ys):
    """The zero level set by a Python loop over the crossed cells, with
    tuple edge keys ("H"|"V", i, j) chained through a dict; the vectorized
    marching_squares must return exactly these polylines."""
    vals = np.array(values, dtype=float)
    vals[vals == 0.0] = 1e-30  # break exact-zero corners deterministically
    pos = vals > 0.0
    cross_h = pos[:-1, :] != pos[1:, :]      # H edge (i, j), i < n-1
    cross_v = pos[:, :-1] != pos[:, 1:]      # V edge (i, j), j < m-1
    cell_any = (cross_h[:, :-1] | cross_h[:, 1:] |
                cross_v[:-1, :] | cross_v[1:, :])

    segments = []
    for i, j in np.argwhere(cell_any):
        bottom = ("H", i, j) if cross_h[i, j] else None
        top = ("H", i, j + 1) if cross_h[i, j + 1] else None
        left = ("V", i, j) if cross_v[i, j] else None
        right = ("V", i + 1, j) if cross_v[i + 1, j] else None
        crossed = [e for e in (bottom, right, top, left) if e is not None]
        if len(crossed) == 2:
            segments.append((crossed[0], crossed[1]))
        elif len(crossed) == 4:
            center = 0.25 * (vals[i, j] + vals[i + 1, j] +
                             vals[i, j + 1] + vals[i + 1, j + 1])
            if (center > 0.0) == pos[i, j]:
                segments.append((bottom, right))
                segments.append((top, left))
            else:
                segments.append((bottom, left))
                segments.append((top, right))

    adj = {}
    for a, b in segments:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    def point(kind, i, j):
        if kind == "H":
            va, vb = vals[i, j], vals[i + 1, j]
            t = va / (va - vb)
            return (xs[i] + t * (xs[i + 1] - xs[i]), ys[j])
        va, vb = vals[i, j], vals[i, j + 1]
        t = va / (va - vb)
        return (xs[i], ys[j] + t * (ys[j + 1] - ys[j]))

    points = {e: point(*e) for e in adj}
    visited = set()

    def walk(start):
        chain = [start]
        visited.add(start)
        prev, node = None, start
        while True:
            nxt = next((nb for nb in adj[node]
                        if nb != prev and nb not in visited), None)
            if nxt is None:
                return chain
            chain.append(nxt)
            visited.add(nxt)
            prev, node = node, nxt

    keys = sorted(adj)
    polylines = [[points[k] for k in walk(e)] for e in keys
                 if e not in visited and len(adj[e]) == 1]
    for e in keys:
        if e not in visited:
            chain = walk(e)
            poly = [points[k] for k in chain]
            if len(chain) > 2:
                poly.append(points[chain[0]])
            polylines.append(poly)
    return polylines


def _as_tuples(polys):
    """marching_squares' polylines, each a (k, 2) float array, as lists of
    (x, y) tuples for exact comparison."""
    assert all(p.dtype == np.float64 and p.ndim == 2 and p.shape[1] == 2
               for p in polys)
    return [list(map(tuple, p.tolist())) for p in polys]


def _dense(a, b, c):
    """The dense field the triple (a, b, c) stands for, each node rounded
    as marching_squares rounds it: the product, then the sum."""
    return b[:, None] * c[None, :] + a[:, None]


def _triple(fa, fb, fc, n=128, lo=-2.0, hi=2.0):
    """(a, b, c, xs, ys) of the field fb(x) * fc(y) + fa(x) on an
    (n + 1)^2 grid."""
    xs = np.linspace(lo, hi, n + 1)
    ys = np.linspace(lo, hi, n + 1)
    zero = np.zeros(n + 1)
    return fa(xs) + zero, fb(xs) + zero, fc(ys) + zero, xs, ys


def _one(x):
    return 1.0


class TestMarchingSquares:
    def test_circle_is_one_closed_loop(self):
        a, b, c, xs, ys = _triple(lambda x: x * x - 1.0, _one, lambda y: y * y)
        polys = _as_tuples(marching_squares(a, b, c, xs, ys, (0.0,))[0])
        assert len(polys) == 1
        poly = polys[0]
        assert poly[0] == poly[-1]  # closed
        for x, y in poly:
            assert math.hypot(x, y) == pytest.approx(1.0, abs=2e-3)

    def test_line_is_one_open_polyline(self):
        # b == 0 on every row: each row is constant
        a, b, c, xs, ys = _triple(lambda x: x - 0.25, lambda x: 0.0,
                                  lambda y: y)
        polys = _as_tuples(marching_squares(a, b, c, xs, ys, (0.0,))[0])
        assert len(polys) == 1
        poly = polys[0]
        assert poly[0] != poly[-1]
        for x, _ in poly:
            assert x == pytest.approx(0.25, abs=1e-9)

    def test_two_components(self):
        # y^2 + min((x - 1)^2, (x + 1)^2) - 0.16: two circles of radius 0.4
        a, b, c, xs, ys = _triple(
            lambda x: np.minimum((x - 1.0) ** 2, (x + 1.0) ** 2) - 0.16,
            _one, lambda y: y * y)
        polys = marching_squares(a, b, c, xs, ys, (0.0,))[0]
        assert len(polys) == 2

    def test_empty_level_set(self):
        a, b, c, xs, ys = _triple(lambda x: x * x + 1.0, _one, lambda y: y * y)
        assert marching_squares(a, b, c, xs, ys, (0.0,))[0] == []

    def test_vertices_interpolate_the_zero(self):
        a, b, c, xs, ys = _triple(lambda x: np.sin(x) - 0.3, _one, np.cos,
                                  n=256)
        polys = marching_squares(a, b, c, xs, ys, (0.0,))[0]
        assert polys
        for poly in polys:
            for x, y in poly:
                assert abs(math.sin(x) + math.cos(y) - 0.3) < 5e-4

    def test_deterministic(self):
        a, b, c, xs, ys = _triple(lambda x: -0.1,
                                  lambda x: np.sin(3 * x) + 1.0,
                                  lambda y: np.cos(2 * y))
        first = marching_squares(a, b, c, xs, ys, (0.0,))[0]
        again = marching_squares(a.copy(), b.copy(), c.copy(), xs.copy(),
                                 ys.copy(), (0.0,))[0]
        assert _as_tuples(first) == _as_tuples(again)


PINNED = [(canonicalize_axis(math.pi / 4, math.pi / 2), SpinState(0.4, 0.0)),
          (canonicalize_axis(0.862, 1.197),
           SpinState(math.cos(math.pi / 8) ** 2, math.pi / 2))]


def _solver_fields():
    """(id, (a, b, c), thetas, phis, levels) with both levels of the two
    pinned instances and 20 seeded unfiltered ones, at grids 64 and 256."""
    rng = np.random.default_rng(11)
    instances = PINNED + [random_instance(rng) for _ in range(20)]
    for k, (axis, state) in enumerate(instances):
        for n in (64, 256):
            thetas, phis, a, b, c = _overlap_grid(state, n)
            yield (f"{k}-{n}", (a, b, c), thetas, phis,
                   constraint_levels(axis, state))


def _agrees_with_reference(a, b, c, xs, ys, level=0.0):
    polys = _as_tuples(marching_squares(a, b, c, xs, ys, (level,))[0])
    assert polys == _reference_marching_squares(_dense(a, b, c) - level, xs, ys)
    return polys


def _levels_agree_with_reference(a, b, c, xs, ys, levels):
    """Trace all levels in one call; each level's polylines must be the
    reference's for that level alone."""
    traced = marching_squares(a, b, c, xs, ys, levels)
    assert len(traced) == len(levels)
    dense = _dense(a, b, c)
    for level, polys in zip(levels, traced):
        assert _as_tuples(polys) == \
            _reference_marching_squares(dense - level, xs, ys), level
    return traced


class TestReferenceOracle:
    def test_solver_fields(self):
        count = 0
        for case, abc, thetas, phis, levels in _solver_fields():
            traced = marching_squares(*abc, thetas, phis, levels)
            for level, polys in zip(levels, traced):
                assert _as_tuples(polys) == _reference_marching_squares(
                    _dense(*abc) - level, thetas, phis), (case, level)
                count += 1
        assert count == 22 * 2 * 2

    def test_solver_field_at_1024(self):
        axis, state = random_instance(np.random.default_rng(12))
        thetas, phis, a, b, c = _overlap_grid(state, 1024)
        for level in constraint_levels(axis, state):
            assert _agrees_with_reference(a, b, c, thetas, phis, level)

    def test_solver_fields_with_axes_on_node_angles(self):
        # an axis on node angles puts a level at about a node value, where
        # the analytic root can land one rank off, so some rows are scanned
        rng = np.random.default_rng(16)
        missed = {}
        for n in (64, 128):
            step = math.pi / n
            missed[n] = 0
            for _ in range(30):
                theta = round(rng.uniform(0.0, math.pi) / step) * step
                phi = round(rng.uniform(0.0, math.pi) / step) * step
                axis = canonicalize_axis(theta, phi)
                state = SpinState(rng.uniform(0.0, 1.0),
                                  rng.uniform(0.0, 2.0 * math.pi))
                thetas, phis, a, b, c = _overlap_grid(state, n)
                for level in constraint_levels(axis, state):
                    _agrees_with_reference(a, b, c, thetas, phis, level)
                    missed[n] += missed_rows(a, b, c, level)
        assert min(missed.values()) > 0, missed

    @pytest.mark.parametrize("fa, fb, fc", [
        # b rises and falls, down to about 0 on some rows
        (lambda x: -0.1, lambda x: np.sin(3 * x) + 1.0,
         lambda y: np.cos(2 * y)),
        # exact-zero plateaus and nodes; b == 0 rows
        (lambda x: 0.0, lambda x: np.abs(np.round(2 * x)),
         lambda y: np.round(2 * y)),
        # zero nodes along one row (b == 0) and one column (c == 0)
        (lambda x: 0.0, np.abs, lambda y: y),
        (lambda x: x * x + 1.0, _one, lambda y: y * y),  # no crossing
        # c in six monotone runs
        (lambda x: 0.3 * x, lambda x: np.sin(2 * x) + 1.2,
         lambda y: np.cos(5 * y)),
        # b == 0 on the middle rows only
        (lambda x: 0.2 - x * x, lambda x: np.where(abs(x) < 0.7, 0.0, 1.0),
         np.sin),
        # b so small against a that only a few rows' values differ at all
        (lambda x: 0.6 + 0.0 * x, lambda x: 1e-16 * (x + 2.0), lambda y: y),
    ], ids=["turning-b", "zero-nodes", "node-saddle", "empty", "runs",
            "flat-rows", "tiny-b"])
    def test_analytic_fields(self, fa, fb, fc):
        a, b, c, xs, ys = _triple(fa, fb, fc)
        _agrees_with_reference(a, b, c, xs, ys)
        for level in (-0.3, 0.45, float(_dense(a, b, c)[40, 70])):
            _agrees_with_reference(a, b, c, xs, ys, level)

    def test_tiny_b_levels_between_roundings(self):
        a, b, c, xs, ys = _triple(lambda x: 0.6 + 0.0 * x,
                                  lambda x: 1e-16 * (x + 2.0), lambda y: y)
        values = np.unique(_dense(a, b, c))
        assert values.size > 2
        for level in values[1:]:  # at the minimum every node is positive
            assert _agrees_with_reference(a, b, c, xs, ys, float(level))

    def test_coarse_random_fields(self):
        # many short chains and loops on grids down to 2 x 2, at levels that
        # hit node values: pieces of one or two runs, joined at shared
        # columns, and loops starting at adjacent edge ids
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n, m = rng.integers(2, 12, size=2)
            a = rng.choice([-1.0, -0.5, 0.0, 0.5], n)
            b = rng.choice([0.0, 1.0, 2.0], n)
            c = rng.choice([-1.0, -0.4, 0.3, 1.0], m)
            _levels_agree_with_reference(a, b, c, np.arange(n, dtype=float),
                                         np.arange(m, dtype=float),
                                         (0.0, 0.5, -0.3))

    @pytest.mark.parametrize("fb", [_one, lambda x: 1.0 + 0.5 * np.sin(3 * x)],
                             ids=["b-one", "b-wavy"])
    def test_loops_across_many_runs(self, fb):
        # c = cos(5y) + y^2 has eight monotone runs on [-2, 2] and a = x^2
        # closes the level sets around the origin, so one loop is joined
        # from pieces of at least three runs
        a, b, c, xs, ys = _triple(lambda x: x * x, fb,
                                  lambda y: np.cos(5 * y) + y * y)
        runs = _runs(c)
        assert len(runs) == 8
        widest = 0
        for level in (0.5, 1.0, 1.4):
            for poly in _agrees_with_reference(a, b, c, xs, ys, level):
                if poly[0] == poly[-1]:
                    y0 = min(y for _, y in poly)
                    y1 = max(y for _, y in poly)
                    widest = max(widest, sum(ys[s] < y1 and ys[e] > y0
                                             for s, e, _ in runs))
        assert widest >= 3

    def test_levels_at_nodes_of_shared_columns(self):
        # a level equal to a node value on a column two runs share puts an
        # exact zero where the pieces of both runs meet
        a, b, c, xs, ys = _triple(lambda x: 0.3 * x,
                                  lambda x: np.sin(2 * x) + 1.2,
                                  lambda y: np.cos(5 * y))
        shared = [e for _, e, _ in _runs(c)[:-1]]
        assert len(shared) == 7
        values = _dense(a, b, c)
        for j in shared:
            for i in (20, 64, 100):
                _agrees_with_reference(a, b, c, xs, ys, float(values[i, j]))

    def test_noisy_c(self):
        # c goes up and down at random: a run of one or two nodes each
        rng = np.random.default_rng(5)
        a, b, c, xs, ys = _triple(lambda x: 0.1 * x,
                                  lambda x: np.cos(2 * x) + 1.0,
                                  lambda y: rng.standard_normal(y.size), n=64)
        assert _agrees_with_reference(a, b, c, xs, ys)


class TestLevels:
    """Several levels traced in one pass, each checked against the
    reference for that level alone."""

    def test_level_without_crossings_beside_one_with(self):
        a, b, c, xs, ys = _triple(lambda x: x * x - 1.0, _one, lambda y: y * y)
        # an empty level between two traced ones starts where the next begins
        for levels in ((-2.0, 0.0), (0.0, -2.0), (-2.0, 0.0, 9.0),
                       (0.0, -2.0, 0.5)):
            traced = _levels_agree_with_reference(a, b, c, xs, ys, levels)
            assert [len(polys) for polys in traced] == \
                [0 if level in (-2.0, 9.0) else 1 for level in levels]
        assert marching_squares(a, b, c, xs, ys, (9.0, -2.0)) == [[], []]
        assert marching_squares(a, b, c, xs, ys, ()) == []

    def test_rows_missed_in_one_level_only(self):
        # an axis on node angles puts one level at about a node value, where
        # the analytic root can land one rank off; the other level's lookup
        # hits every row
        rng = np.random.default_rng(16)
        step = math.pi / 64
        found = 0
        for _ in range(40):
            theta = round(rng.uniform(0.0, math.pi) / step) * step
            phi = round(rng.uniform(0.0, math.pi) / step) * step
            axis = canonicalize_axis(theta, phi)
            state = SpinState(rng.uniform(0.0, 1.0),
                              rng.uniform(0.0, 2.0 * math.pi))
            thetas, phis, a, b, c = _overlap_grid(state, 64)
            levels = constraint_levels(axis, state)
            missed = [missed_rows(a, b, c, level) for level in levels]
            if min(missed) == 0 < max(missed):
                found += 1
                _levels_agree_with_reference(a, b, c, thetas, phis, levels)
        assert found > 0

    def test_flat_rows(self):
        # b == 0 on the middle rows, and on every row; levels at the flat
        # rows' values put exact zeros on whole rows
        a, b, c, xs, ys = _triple(lambda x: 0.2 - x * x,
                                  lambda x: np.where(abs(x) < 0.7, 0.0, 1.0),
                                  np.sin)
        flat = float(a[b == 0.0][5])
        _levels_agree_with_reference(a, b, c, xs, ys, (flat, 0.0, 0.1, flat))
        zero = np.zeros_like(b)
        _levels_agree_with_reference(a, zero, c, xs, ys, (0.0, float(a[60])))

    def test_levels_crossing_the_same_edges(self):
        # levels a hair apart cross the same grid edges, which are told
        # apart by level in the chaining; each level keeps its own points
        a, b, c, xs, ys = _triple(lambda x: 0.3 * x,
                                  lambda x: np.sin(2 * x) + 1.2,
                                  lambda y: np.cos(5 * y))
        levels = (0.25, 0.25 + 1e-9, 0.25)
        traced = _levels_agree_with_reference(a, b, c, xs, ys, levels)
        row, col, is_v, level_start, _ = _crossed_edges(
            a, b, c, np.array(levels))
        edges = np.column_stack((row, col, is_v))
        first, second, third = np.split(edges, level_start[1:])
        assert first.size and np.array_equal(first, second)
        assert np.array_equal(first, third)
        assert not any(np.array_equal(p, q)
                       for p, q in zip(traced[0], traced[1]))
        assert all(np.array_equal(p, q) for p, q in zip(traced[0], traced[2]))


class TestEdgeCases:
    XS = np.array([0.0, 1.0])
    C = np.array([0.0, 1.0])  # values[:, 0] = a, values[:, 1] = a + b

    def test_negative_b_is_rejected(self):
        # a row with b < 0 would fall where c rises, which the split-rank
        # search does not handle; the solver's b is never negative
        for b in ([-2.0, 3.0], [0.0, -5e-324], [-1.0]):
            with pytest.raises(ValueError, match="b >= 0"):
                marching_squares(np.zeros(len(b)), np.array(b), self.C,
                                 np.arange(len(b), dtype=float), self.XS,
                                 (0.0,))

    def test_nan_b_is_rejected(self):
        # a NaN row is neither below nor at or above 0; let through, it
        # traced NaN vertices and split the curve
        a, b, c, xs, ys = _triple(lambda x: x * x - 1.0, _one,
                                  lambda y: y * y, n=32)
        assert len(marching_squares(a, b, c, xs, ys, (0.0,))[0]) == 1
        b[10] = np.nan
        with pytest.raises(ValueError, match="b >= 0"):
            marching_squares(a, b, c, xs, ys, (0.0,))

    def test_level_equals_shifted_field(self):
        # tracing at a level is tracing the field minus the level at 0,
        # also at levels equal to node values
        a, b, c, xs, ys = _triple(lambda x: 0.0,
                                  lambda x: np.sin(3 * x) + 1.0,
                                  lambda y: np.cos(2 * y))
        values = _dense(a, b, c)
        for level in (0.3, -0.45, float(values[40, 70]), float(values[64, 64])):
            assert _agrees_with_reference(a, b, c, xs, ys, level)

    def test_input_is_not_changed(self):
        a, b, c, xs, ys = _triple(lambda x: 0.0,
                                  lambda x: np.abs(np.round(2 * x)),
                                  lambda y: np.round(2 * y))
        levels = np.array([0.0, 0.25])
        inputs = (a, b, c, xs, ys, levels)
        before = [arr.copy() for arr in inputs]
        for arr in inputs:
            arr.flags.writeable = False
        assert marching_squares(*inputs)[1]
        assert all(np.array_equal(x, y) for x, y in zip(inputs, before))

    def test_strided_and_int_input(self):
        a, b, c, xs, ys = _triple(lambda x: -1.0,
                                  lambda x: np.abs(np.round(2 * x)),
                                  lambda y: np.round(2 * y))
        expected = _as_tuples(marching_squares(a, b, c, xs, ys, (0.0,))[0])
        assert expected
        assert _as_tuples(marching_squares(
            *(np.repeat(v, 2)[::2] for v in (a, b, c)), xs, ys, (0.0,))[0]) \
            == expected
        assert _as_tuples(marching_squares(
            *(v.astype(np.int64) for v in (a, b, c)), xs, ys, (0.0,))[0]) \
            == expected


def test_fine_grid_tracing_builds_no_field():
    # a (4096 + 1)^2 float64 field alone would be 134 MB.  The first solve
    # at the grid, which builds and caches the grid's node factors, must
    # stay under 16 MiB of transient memory, so that no field is built,
    # cached or not.  A warm solve's transient peak, its growth of traced
    # memory beyond what it started with, is held to 80 bytes per traced
    # vertex: the four vertex arrays it returns take 32
    axis, state = PINNED[0]
    cfg = SolverConfig(grid_n=4096)
    solver._node_factors.cache_clear()  # the first solve is a cold one

    def traced_solve():
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        curves = solve_collapse(axis, state, cfg).curves
        return curves, tracemalloc.get_traced_memory()[1] - before

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        _, cold_peak = traced_solve()
        curves, peak = traced_solve()
    finally:
        if started:
            tracemalloc.stop()
    assert cold_peak < 16 * 2 ** 20
    vertices = sum(len(curve.theta) for curve in curves)
    assert vertices > 10_000
    assert peak <= 80 * vertices


@given(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi, exclude_max=True),
       st.integers(64, 512),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@settings(max_examples=100, deadline=None)
def test_every_level_inside_the_node_range_is_traced(rho, tau, n, u):
    # a level strictly between the least and the greatest node value has
    # nodes on both sides of it, so the connected grid has a crossed edge;
    # the solver relies on this to read an empty level set as unattained
    state = SpinState(rho, tau if 0.0 < rho < 1.0 else 0.0)
    thetas, phis, a, b, c = _overlap_grid(state, n)
    values = _dense(a, b, c)
    lo, hi = float(values.min()), float(values.max())
    assume(lo < hi)
    for level in (np.nextafter(lo, hi), lo + u * (hi - lo),
                  np.nextafter(hi, lo)):
        if lo < level < hi:
            assert marching_squares(a, b, c, thetas, phis, (float(level),))[0]
