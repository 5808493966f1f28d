"""Marching-squares contour extraction with deterministic polyline chaining.

Extracts the level set values == level of a scalar field sampled on a
rectangular grid (Lorensen & Cline 1987) and chains the per-cell segments
into connected polylines.  Everything but the final walk along the chains
is whole-array numpy work over the crossed edges and cells only:

- A node is positive when values >= level, so a node exactly at the level
  counts as positive; the input array is neither copied nor changed.
- Grid edges carry integer ids: H edge (i, j), joining nodes (i, j) and
  (i+1, j), is i*m + j; V edge (i, j), joining (i, j) and (i, j+1), is
  (n-1)*m + i*(m-1) + j.  The crossed edges (ends of opposite sign) come out
  of np.flatnonzero already sorted, all H ids before all V ids.
- A cell is crossed when one of its edges is; a 16-entry table maps its four
  corner signs to its segment.  A saddle cell (four crossed edges) is split
  by the sign of its centre, the mean of its four corner offsets.
- A crossing lies where the linear interpolation of values - level along its
  edge is zero; an offset of exactly zero is taken as 1e-30.
- Each crossed edge borders at most two cells and has one neighbour edge in
  each.  The neighbour from the earlier cell (row-major) comes first; a walk
  steps to the first neighbour not yet visited.  Open chains start from the
  edges of degree one, then closed loops, each in edge id order, so the
  output is bit-reproducible.
"""

from __future__ import annotations

import numpy as np

# cell sides, in the order a cell lists its crossed edges
BOTTOM, RIGHT, TOP, LEFT = range(4)


def _segment_table() -> np.ndarray:
    """The segment (two sides) of a cell for each case index c00 + 2 c10 +
    4 c01 + 8 c11 of corner signs; the saddles 6 and 9 are split later."""
    table = np.zeros((16, 2), dtype=np.intp)
    for case in range(16):
        c00, c10, c01, c11 = ((case >> k) & 1 for k in range(4))
        crossed = [side for side, hit in
                   zip((BOTTOM, RIGHT, TOP, LEFT),
                       (c00 != c10, c10 != c11, c01 != c11, c00 != c01)) if hit]
        if len(crossed) == 2:
            table[case] = crossed
    return table


SEGMENT_TABLE = _segment_table()


def _offset(values: np.ndarray, i: np.ndarray, j: np.ndarray,
            level: float) -> np.ndarray:
    """values[i, j] - level, with an exact zero taken as 1e-30."""
    d = values[i, j] - level
    d[d == 0.0] = 1e-30
    return d


def _interpolate(a: np.ndarray, b: np.ndarray, k: np.ndarray,
                 coords: np.ndarray) -> np.ndarray:
    """coords[k] + t (coords[k+1] - coords[k]) where offsets a, b at nodes k,
    k+1 interpolate to zero."""
    t = a / (a - b)
    return coords[k] + t * (coords[k + 1] - coords[k])


def marching_squares(values: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                     level: float = 0.0) -> list[list[tuple[float, float]]]:
    """Polylines of the level set values == level, with values[i, j] =
    F(xs[i], ys[j]).

    Returns a list of polylines, each a list of (x, y) vertices.  Open
    polylines end on the grid boundary; a closed loop of more than two
    vertices repeats its first vertex at the end.
    """
    values = np.asarray(values, dtype=float)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n, m = values.shape
    if n < 2 or m < 2:
        return []
    pos = values >= level
    h_ids = np.flatnonzero(pos[:-1, :] != pos[1:, :])
    v_ids = np.flatnonzero(pos[:, :-1] != pos[:, 1:])
    n_h = (n - 1) * m
    edges = np.concatenate((h_ids, v_ids + n_h))

    # crossing points of the crossed edges, in edge id order
    hi, hj = np.divmod(h_ids, m)
    vi, vj = np.divmod(v_ids, m - 1)
    px = np.concatenate((
        _interpolate(_offset(values, hi, hj, level),
                     _offset(values, hi + 1, hj, level), hi, xs),
        xs[vi]))
    py = np.concatenate((
        ys[hj],
        _interpolate(_offset(values, vi, vj, level),
                     _offset(values, vi, vj + 1, level), vj, ys)))

    # crossed cells, row-major; cell (i, j) has id i*(m-1) + j
    marked = np.zeros((n - 1) * (m - 1), dtype=bool)
    marked[(hi * (m - 1) + hj - 1)[hj > 0]] = True
    marked[(hi * (m - 1) + hj)[hj < m - 1]] = True
    marked[(v_ids - (m - 1))[vi > 0]] = True
    marked[v_ids[vi < n - 1]] = True
    ci, cj = np.divmod(np.flatnonzero(marked), m - 1)
    c00 = pos[ci, cj]
    case = (c00 + 2 * pos[ci + 1, cj] + 4 * pos[ci, cj + 1]
            + 8 * pos[ci + 1, cj + 1])

    # per side of each crossed cell: its edge id, and its neighbour slot
    # (1 when the edge's other cell comes earlier in row-major order)
    side_edge = np.stack((ci * m + cj,
                          n_h + (ci + 1) * (m - 1) + cj,
                          ci * m + cj + 1,
                          n_h + ci * (m - 1) + cj))
    zeros = np.zeros_like(ci)
    side_slot = np.stack((cj > 0, zeros, zeros, ci > 0)).astype(np.intp)

    sides = SEGMENT_TABLE[case]
    saddle = np.flatnonzero((case == 6) | (case == 9))
    si, sj = ci[saddle], cj[saddle]
    centre = 0.25 * (_offset(values, si, sj, level)
                     + _offset(values, si + 1, sj, level)
                     + _offset(values, si, sj + 1, level)
                     + _offset(values, si + 1, sj + 1, level))
    # the corner pair sharing c00's sign is joined through the centre when
    # the centre has that sign too; a saddle cell has a second segment
    joined = ((centre > 0.0) == c00[saddle])[:, None]
    sides[saddle] = np.where(joined, (BOTTOM, RIGHT), (BOTTOM, LEFT))
    sides = np.concatenate((sides, np.where(joined, (TOP, LEFT), (TOP, RIGHT))))
    cells = np.concatenate((np.arange(ci.size), saddle))

    # neighbour lists: slot 0 then slot 1; k (one past the last edge) is
    # "none", and counts as visited
    k = edges.size
    ends = np.searchsorted(edges, side_edge[sides.T, cells])
    slots = side_slot[sides.T, cells]
    nb = np.full((2, k), k, dtype=np.intp)
    nb[slots[0], ends[0]] = ends[1]
    nb[slots[1], ends[1]] = ends[0]

    first, second = nb.tolist()
    xl, yl = px.tolist(), py.tolist()
    visited = bytearray(k + 1)
    visited[k] = 1

    def walk(start: int) -> list[int]:
        chain = [start]
        visited[start] = 1
        node = start
        while True:
            if not visited[first[node]]:
                node = first[node]
            elif not visited[second[node]]:
                node = second[node]
            else:
                return chain
            chain.append(node)
            visited[node] = 1

    polylines: list[list[tuple[float, float]]] = []
    # open chains first: start from degree-1 edges
    for e in np.flatnonzero(nb[1] == k).tolist():
        if not visited[e]:
            polylines.append([(xl[c], yl[c]) for c in walk(e)])
    # remaining are closed loops
    for e in range(k):
        if not visited[e]:
            chain = walk(e)
            poly = [(xl[c], yl[c]) for c in chain]
            if len(chain) > 2:
                poly.append(poly[0])  # close the loop
            polylines.append(poly)
    return polylines
