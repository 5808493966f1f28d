"""Marching-squares contour extraction on analytic fields with known level
sets, and bit-for-bit agreement with a per-cell reference loop."""

import math

import numpy as np
import pytest

from spincollapse.bloch import SpinState, canonicalize_axis
from spincollapse.contour import marching_squares
from spincollapse.solver import _overlap_grid, constraint_levels

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


def _grid(f, n=128, lo=-2.0, hi=2.0):
    xs = np.linspace(lo, hi, n + 1)
    ys = np.linspace(lo, hi, n + 1)
    vals = f(xs[:, None], ys[None, :])
    return vals, xs, ys


class TestMarchingSquares:
    def test_circle_is_one_closed_loop(self):
        vals, xs, ys = _grid(lambda x, y: x * x + y * y - 1.0)
        polys = marching_squares(vals, xs, ys)
        assert len(polys) == 1
        poly = polys[0]
        assert poly[0] == poly[-1]  # closed
        for x, y in poly:
            assert math.hypot(x, y) == pytest.approx(1.0, abs=2e-3)

    def test_line_is_one_open_polyline(self):
        vals, xs, ys = _grid(lambda x, y: x - 0.25 + 0.0 * y)
        polys = marching_squares(vals, xs, ys)
        assert len(polys) == 1
        poly = polys[0]
        assert poly[0] != poly[-1]
        for x, _ in poly:
            assert x == pytest.approx(0.25, abs=1e-9)

    def test_two_components(self):
        vals, xs, ys = _grid(
            lambda x, y: ((x - 1.0) ** 2 + y ** 2 - 0.16)
            * ((x + 1.0) ** 2 + y ** 2 - 0.16) / 4.0)
        # product of two circle fields is positive outside both and inside
        # both; its zero set is the union of the two circles
        polys = marching_squares(vals, xs, ys)
        assert len(polys) == 2

    def test_empty_level_set(self):
        vals, xs, ys = _grid(lambda x, y: x * x + y * y + 1.0)
        assert marching_squares(vals, xs, ys) == []

    def test_vertices_interpolate_the_zero(self):
        vals, xs, ys = _grid(lambda x, y: np.sin(x) + np.cos(y) - 0.3,
                             n=256)
        polys = marching_squares(vals, xs, ys)
        assert polys
        for poly in polys:
            for x, y in poly:
                assert abs(math.sin(x) + math.cos(y) - 0.3) < 5e-4

    def test_deterministic(self):
        vals, xs, ys = _grid(lambda x, y: np.sin(3 * x) * np.cos(2 * y) - 0.1)
        a = marching_squares(vals, xs, ys)
        b = marching_squares(vals.copy(), xs.copy(), ys.copy())
        assert a == b


def _solver_fields():
    """(id, field, thetas, phis, level) for both levels of the two pinned
    instances and 20 seeded unfiltered ones, at grids 64 and 256."""
    rng = np.random.default_rng(11)
    instances = [(canonicalize_axis(math.pi / 4, math.pi / 2), SpinState(0.4, 0.0)),
                 (canonicalize_axis(0.862, 1.197),
                  SpinState(math.cos(math.pi / 8) ** 2, math.pi / 2))]
    instances += [random_instance(rng) for _ in range(20)]
    for k, (axis, state) in enumerate(instances):
        for n in (64, 256):
            thetas, phis, p = _overlap_grid(state, n)
            for level in constraint_levels(axis, state):
                yield f"{k}-{n}-{level:.6f}", p, thetas, phis, level


class TestReferenceOracle:
    def test_solver_fields(self):
        count = 0
        for case, p, thetas, phis, level in _solver_fields():
            assert marching_squares(p, thetas, phis, level) == \
                _reference_marching_squares(p - level, thetas, phis), case
            count += 1
        assert count == 22 * 2 * 2

    @pytest.mark.parametrize("f", [
        lambda x, y: np.sin(3 * x) * np.cos(2 * y) - 0.1,  # many saddles
        lambda x, y: np.round(4 * x * y) / 4,  # many exact-zero nodes
        lambda x, y: x * y,  # a saddle on a node
        lambda x, y: x * x + y * y + 1.0,  # no crossing
    ], ids=["saddles", "zero-nodes", "node-saddle", "empty"])
    def test_analytic_fields(self, f):
        vals, xs, ys = _grid(f)
        polys = marching_squares(vals, xs, ys)
        assert polys == _reference_marching_squares(vals, xs, ys)


class TestEdgeCases:
    XS = np.array([0.0, 1.0])

    def test_saddle_centre_positive_joins_through_the_centre(self):
        # corners (0,0) and (1,1) positive, centre 0.25 > 0: each negative
        # corner is cut off on its own
        vals = np.array([[1.0, -1.0], [-1.0, 2.0]])
        third = -1.0 / (-1.0 - 2.0)
        expected = [[(0.5, 0.0), (1.0, third)], [(third, 1.0), (0.0, 0.5)]]
        assert marching_squares(vals, self.XS, self.XS) == expected
        assert _reference_marching_squares(vals, self.XS, self.XS) == expected

    def test_saddle_centre_negative_cuts_off_the_positive_corners(self):
        vals = np.array([[1.0, -1.0], [-1.0, 0.5]])
        two_thirds = -1.0 / (-1.0 - 0.5)
        expected = [[(0.5, 0.0), (0.0, 0.5)], [(two_thirds, 1.0), (1.0, two_thirds)]]
        assert marching_squares(vals, self.XS, self.XS) == expected
        assert _reference_marching_squares(vals, self.XS, self.XS) == expected

    def test_saddle_centre_zero_is_negative(self):
        vals = np.array([[1.0, -1.0], [-1.0, 1.0]])
        expected = [[(0.5, 0.0), (0.0, 0.5)], [(0.5, 1.0), (1.0, 0.5)]]
        assert marching_squares(vals, self.XS, self.XS) == expected
        assert _reference_marching_squares(vals, self.XS, self.XS) == expected

    def test_level_equals_shifted_field(self):
        vals, xs, ys = _grid(lambda x, y: np.sin(3 * x) * np.cos(2 * y))
        for level in (0.3, -0.45, float(vals[40, 70]), float(vals[64, 64])):
            polys = marching_squares(vals, xs, ys, level)
            assert polys
            assert polys == marching_squares(vals - level, xs, ys)

    def test_input_is_not_changed(self):
        vals, xs, ys = _grid(lambda x, y: np.round(4 * x * y) / 4)
        before = vals.copy()
        vals.flags.writeable = False
        marching_squares(vals, xs, ys)
        marching_squares(vals, xs, ys, 0.25)
        assert np.array_equal(vals, before)

    def test_fortran_order_and_int_input(self):
        vals, xs, ys = _grid(lambda x, y: np.round(4 * x * y) - 1.0)
        expected = marching_squares(vals, xs, ys)
        assert expected
        assert marching_squares(np.asfortranarray(vals), xs, ys) == expected
        assert marching_squares(vals.astype(np.int64), xs, ys) == expected
