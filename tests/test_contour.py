"""Marching-squares contour extraction on separable analytic fields with
known level sets, bit-for-bit agreement with a per-cell reference loop over
the dense field, and a level set for every level inside the node range."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spincollapse.bloch import SpinState, canonicalize_axis
from spincollapse.contour import _runs, marching_squares
from spincollapse.solver import (
    SolverConfig,
    _overlap_grid,
    constraint_levels,
    trace_level_sets,
)

from conftest import random_instance


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
        polys = _as_tuples(marching_squares(a, b, c, xs, ys))
        assert len(polys) == 1
        poly = polys[0]
        assert poly[0] == poly[-1]  # closed
        for x, y in poly:
            assert math.hypot(x, y) == pytest.approx(1.0, abs=2e-3)

    def test_line_is_one_open_polyline(self):
        # b == 0 on every row: each row is constant
        a, b, c, xs, ys = _triple(lambda x: x - 0.25, lambda x: 0.0,
                                  lambda y: y)
        polys = _as_tuples(marching_squares(a, b, c, xs, ys))
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
        polys = marching_squares(a, b, c, xs, ys)
        assert len(polys) == 2

    def test_empty_level_set(self):
        a, b, c, xs, ys = _triple(lambda x: x * x + 1.0, _one, lambda y: y * y)
        assert marching_squares(a, b, c, xs, ys) == []

    def test_vertices_interpolate_the_zero(self):
        a, b, c, xs, ys = _triple(lambda x: np.sin(x) - 0.3, _one, np.cos,
                                  n=256)
        polys = marching_squares(a, b, c, xs, ys)
        assert polys
        for poly in polys:
            for x, y in poly:
                assert abs(math.sin(x) + math.cos(y) - 0.3) < 5e-4

    def test_deterministic(self):
        a, b, c, xs, ys = _triple(lambda x: -0.1,
                                  lambda x: np.sin(3 * x) + 1.0,
                                  lambda y: np.cos(2 * y))
        first = marching_squares(a, b, c, xs, ys)
        again = marching_squares(a.copy(), b.copy(), c.copy(), xs.copy(),
                                 ys.copy())
        assert _as_tuples(first) == _as_tuples(again)


PINNED = [(canonicalize_axis(math.pi / 4, math.pi / 2), SpinState(0.4, 0.0)),
          (canonicalize_axis(0.862, 1.197),
           SpinState(math.cos(math.pi / 8) ** 2, math.pi / 2))]


def _solver_fields():
    """(id, (a, b, c), thetas, phis, level) for both levels of the two pinned
    instances and 20 seeded unfiltered ones, at grids 64 and 256."""
    rng = np.random.default_rng(11)
    instances = PINNED + [random_instance(rng) for _ in range(20)]
    for k, (axis, state) in enumerate(instances):
        for n in (64, 256):
            thetas, phis, a, b, c = _overlap_grid(state, n)
            for level in constraint_levels(axis, state):
                yield f"{k}-{n}-{level:.6f}", (a, b, c), thetas, phis, level


def _agrees_with_reference(a, b, c, xs, ys, level=0.0):
    polys = _as_tuples(marching_squares(a, b, c, xs, ys, level))
    assert polys == _reference_marching_squares(_dense(a, b, c) - level, xs, ys)
    return polys


class TestReferenceOracle:
    def test_solver_fields(self):
        count = 0
        for case, abc, thetas, phis, level in _solver_fields():
            assert _as_tuples(marching_squares(*abc, thetas, phis, level)) \
                == _reference_marching_squares(_dense(*abc) - level, thetas,
                                               phis), case
            count += 1
        assert count == 22 * 2 * 2

    def test_solver_field_at_1024(self):
        axis, state = random_instance(np.random.default_rng(12))
        thetas, phis, a, b, c = _overlap_grid(state, 1024)
        for level in constraint_levels(axis, state):
            assert _agrees_with_reference(a, b, c, thetas, phis, level)

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
            for level in (0.0, 0.5, -0.3):
                _agrees_with_reference(a, b, c, np.arange(n, dtype=float),
                                       np.arange(m, dtype=float), level)

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


class TestEdgeCases:
    XS = np.array([0.0, 1.0])
    C = np.array([0.0, 1.0])  # values[:, 0] = a, values[:, 1] = a + b

    def test_negative_b_is_rejected(self):
        # a row with b < 0 would fall where c rises, which the split-rank
        # search does not handle; the solver's b is never negative
        for b in ([-2.0, 3.0], [0.0, -5e-324], [-1.0]):
            with pytest.raises(ValueError, match="b >= 0"):
                marching_squares(np.zeros(len(b)), np.array(b), self.C,
                                 np.arange(len(b), dtype=float), self.XS)

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
        before = [arr.copy() for arr in (a, b, c)]
        for arr in (a, b, c):
            arr.flags.writeable = False
        marching_squares(a, b, c, xs, ys)
        marching_squares(a, b, c, xs, ys, 0.25)
        assert all(np.array_equal(x, y) for x, y in zip((a, b, c), before))

    def test_strided_and_int_input(self):
        a, b, c, xs, ys = _triple(lambda x: -1.0,
                                  lambda x: np.abs(np.round(2 * x)),
                                  lambda y: np.round(2 * y))
        expected = _as_tuples(marching_squares(a, b, c, xs, ys))
        assert expected
        assert _as_tuples(marching_squares(
            *(np.repeat(v, 2)[::2] for v in (a, b, c)), xs, ys)) == expected
        assert _as_tuples(marching_squares(
            *(v.astype(np.int64) for v in (a, b, c)), xs, ys)) == expected


def test_fine_grid_tracing_builds_no_field():
    # a (4096 + 1)^2 float64 field alone would be 134 MB
    axis, state = PINNED[0]
    levels = constraint_levels(axis, state)
    cfg = SolverConfig(grid_n=4096)
    tracemalloc.start()
    try:
        curves = trace_level_sets(state, levels, cfg, axis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert curves
    assert peak < 16 * 2 ** 20


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
            assert marching_squares(a, b, c, thetas, phis, float(level))
