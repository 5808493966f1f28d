"""Matrix-free marching squares on a separable field, with deterministic
polyline chaining.

Extracts the level set values == level of the field values[i, j] =
b[i] * c[j] + a[i], sampled at (xs[i], ys[j]) and evaluated as numpy does
it elementwise (the product, then the sum, each rounded once), without ever
building the (len(xs), len(ys)) array (Lorensen & Cline 1987).  b must be
>= 0 on every row, as it is for the solver's overlap field, where b[i] =
sqrt(rho (1 - rho)) sin(theta_i) with theta_i in [0, pi]:

- A node is positive when its value >= level, so a node exactly at the
  level counts as positive.
- Rounding is monotone, so along a row the predicate b[i] * c[j] + a[i]
  >= level is a non-decreasing function of c[j] (constant when b[i] == 0).
  c splits into runs of consecutive nodes along which it never decreases
  (or never increases); on the run's nodes taken in ascending order of c, a
  row's nodes are negative up to a split rank and positive from it on.  The
  split rank is looked up at the analytic root (level - a[i]) / b[i] by one
  searchsorted per run and confirmed by evaluating the node predicate at the
  two ranks around it; a row where the root is off (tiny b[i] against
  a[i]) is bisected on the predicate.
- Grid edges carry integer ids: H edge (i, j), joining nodes (i, j) and
  (i+1, j), is i*m + j; V edge (i, j), joining (i, j) and (i, j+1), is
  (n-1)*m + i*(m-1) + j.  In each run a row has at most one crossed V edge,
  at its split rank, and rows i and i+1 have crossed H edges at the nodes
  between their two split ranks, which is one interval of j per run.  The
  crossed edges are listed in id order, all H ids before all V ids.
- The crossed cells are the cells next to a crossed edge, sorted.  A
  16-entry table maps a cell's four corner signs to its segment.  Cases 6
  and 9 (four crossed edges, two segments) cannot occur: between columns j
  and j+1 both rows of a cell can change sign only in the direction that
  c[j+1] - c[j] gives them, and cases 6 and 9 need one row to rise and the
  other to fall.  So every crossed cell has exactly one segment.
- A crossing lies where the linear interpolation of values - level along its
  edge is zero; an offset of exactly zero is taken as 1e-30.
- Each crossed edge borders at most two cells and has one neighbour edge in
  each.  The neighbour from the earlier cell (row-major) comes first; a walk
  steps to the first neighbour not yet visited.  Open chains start from the
  edges of degree one, then closed loops, each in edge id order, so the
  output is bit-reproducible.
- The polylines come back as (k, 2) arrays of (x, y) vertices, gathered
  from the crossing points in one pass after the walk.

Node values are computed only where they are read: at the probed split
ranks, at the ends of the crossed edges and at the corners of the crossed
cells.  The cost per level is O(n log m) for the split ranks plus
O(crossings) for the rest, against O(n m) for a scan of the whole field.
"""

from __future__ import annotations

import numpy as np

# cell sides, in the order a cell lists its crossed edges
BOTTOM, RIGHT, TOP, LEFT = range(4)
_LOW = np.array([-np.inf])
_HIGH = np.array([np.inf])
_BELOW_AT = np.array([1, 0])  # base + k minus these: ranks k - 1 and k


def _segment_table() -> np.ndarray:
    """The segment (two sides) of a cell for each case index c00 + 2 c10 +
    4 c01 + 8 c11 of corner signs; cases 6 and 9 do not occur."""
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


def _offset(a: np.ndarray, b: np.ndarray, c: np.ndarray, i: np.ndarray,
            j: np.ndarray, level: float) -> np.ndarray:
    """values[i, j] - level, with an exact zero taken as 1e-30."""
    d = b[i] * c[j] + a[i] - level
    d[d == 0.0] = 1e-30
    return d


def _interpolate(a: np.ndarray, b: np.ndarray, k: np.ndarray,
                 coords: np.ndarray) -> np.ndarray:
    """coords[k] + t (coords[k+1] - coords[k]) where offsets a, b at nodes k,
    k+1 interpolate to zero."""
    t = a / (a - b)
    return coords[k] + t * (coords[k + 1] - coords[k])


def _runs(c: np.ndarray) -> list[tuple[int, int, bool]]:
    """(s, e, rising) of each maximal run of nodes s..e along which c never
    decreases (rising) or never increases; consecutive runs share a node."""
    steps = np.flatnonzero(c[1:] != c[:-1])
    rising = c[steps + 1] > c[steps]
    turns = np.flatnonzero(rising[1:] != rising[:-1]) + 1
    bounds = [0, *steps[turns].tolist(), c.size - 1]
    ups = rising[:1].tolist() + rising[turns].tolist() or [True]
    return list(zip(bounds, bounds[1:], ups))


def _crossed_edges(a: np.ndarray, b: np.ndarray, c: np.ndarray, level: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The sorted ids of the crossed H edges and of the crossed V edges (the
    latter counted from 0, not from the first V id)."""
    n, m = a.size, c.size
    runs = _runs(c)
    # every run in ascending order between -inf and +inf: rank t of run r is
    # at base[r] + t, so rank -1 reads -inf and rank size[r] reads +inf.
    # Rank t is node origin[r] + step[r] * t on a rising run and that minus
    # 1 on a falling one.  The run owns the nodes up to end[r] - 1: its last
    # node is the next run's first
    views, meta, offset = [], [], 1
    for s, e, rising in runs:
        views.append(c[s:e + 1] if rising else c[s:e + 1][::-1])
        meta.append((offset, e - s + 1, s if rising else e + 1,
                     1 if rising else -1, e + 1 if e == m - 1 else e))
        offset += e - s + 3
    base, size, origin, step, end = np.array(meta).T[:, :, None]
    pad = np.concatenate([x for v in views for x in (_LOW, v, _HIGH)])

    # along every run the predicate value >= level is false, then true; a
    # row's split rank k is its first true rank.  It is looked up at the
    # analytic root and confirmed at ranks k - 1 and k.  Flat rows (b == 0)
    # are searched as if b were 1, then set to all true or false
    flat = np.flatnonzero(b == 0.0)
    b1 = b.copy()
    b1[flat] = 1.0
    root = (level - a) / b1
    k = np.array([np.searchsorted(pad[o:o + v.size], root)
                  for o, v in zip(base[:, 0].tolist(), views)])
    q = b1[:, None] * pad[(k + base)[..., None] - _BELOW_AT] + a[:, None] >= level
    below, above = q[..., 0], q[..., 1]
    ok = above > below
    if not ok.all():
        # true at rank k - 1: k is in [0, k - 1]; else false at rank k: k is
        # in [k + 1, size]
        rb, ib = np.nonzero(~ok)
        kb, low = k[rb, ib], below[rb, ib]
        lo = np.where(low, 0, kb + 1)
        hi = np.where(low, kb - 1, size[rb, 0])
        at, ab, bb = base[rb, 0], a[ib], b1[ib]
        while True:
            open_ = lo < hi
            if not open_.any():
                break
            mid = (lo + hi) // 2
            true = bb * pad[at + mid] + ab >= level
            hi = np.where(open_ & true, mid, hi)
            lo = np.where(open_ & ~true, mid + 1, lo)
        k[rb, ib] = lo
    if flat.size:
        k[:, flat] = np.where(a[flat] >= level, 0, size)

    # split[r, i]: the later node of the two around row i's split in run r
    split = origin + step * k
    # V: in each run, the edge between the two nodes around the split
    inner = (k > 0) & (k < size)
    v_ids = (split + np.arange(-1, n * (m - 1) - 1, m - 1)).T[inner.T]

    # H: rows i and i+1 differ on the nodes between their splits, clipped
    # to the nodes each run owns; the intervals are listed by pair, then run
    j0 = np.minimum(split[:, :-1], split[:, 1:])
    j1 = np.minimum(np.maximum(split[:, :-1], split[:, 1:]), end)
    lens = np.maximum(j1 - j0, 0).T.ravel()
    starts = (j0 + np.arange(0, (n - 1) * m, m)).T.ravel()
    h_ids = (np.repeat(starts - np.cumsum(lens) + lens, lens)
             + np.arange(lens.sum()))
    return h_ids, v_ids


def marching_squares(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                     xs: np.ndarray, ys: np.ndarray, level: float = 0.0
                     ) -> list[np.ndarray]:
    """Polylines of the level set values == level of the separable field
    values[i, j] = b[i] * c[j] + a[i] = F(xs[i], ys[j]).

    Returns a list of polylines, each a (k, 2) float array of (x, y)
    vertices; the polylines are views into one array.  Open polylines end
    on the grid boundary; a closed loop of more than two vertices repeats
    its first vertex at the end.  Raises ValueError when some b[i] < 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if (b < 0.0).any():
        raise ValueError("marching_squares needs b >= 0 on every row")
    c = np.asarray(c, dtype=float)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n, m = a.size, c.size
    if n < 2 or m < 2:
        return []
    h_ids, v_ids = _crossed_edges(a, b, c, level)
    n_h = (n - 1) * m
    edges = np.concatenate((h_ids, v_ids + n_h))

    # crossing points of the crossed edges, in edge id order
    hi, hj = np.divmod(h_ids, m)
    vi, vj = np.divmod(v_ids, m - 1)
    px = np.concatenate((
        _interpolate(_offset(a, b, c, hi, hj, level),
                     _offset(a, b, c, hi + 1, hj, level), hi, xs),
        xs[vi]))
    py = np.concatenate((
        ys[hj],
        _interpolate(_offset(a, b, c, vi, vj, level),
                     _offset(a, b, c, vi, vj + 1, level), vj, ys)))

    # crossed cells, the cells next to a crossed edge; cell (i, j) has id
    # i*(m-1) + j.  Sorted, a repeated id follows its first copy
    h_cell = hi * (m - 1) + hj
    cell_ids = np.sort(np.concatenate((
        h_cell[hj > 0] - 1, h_cell[hj < m - 1],
        v_ids[vi > 0] - (m - 1), v_ids[vi < n - 1])))
    first_copy = np.concatenate(([True], cell_ids[1:] != cell_ids[:-1]))
    ci, cj = np.divmod(cell_ids[first_copy[:cell_ids.size]], m - 1)
    b0, a0, b1, a1 = b[ci], a[ci], b[ci + 1], a[ci + 1]
    y0, y1 = c[cj], c[cj + 1]
    case = ((b0 * y0 + a0 >= level) + 2 * (b1 * y0 + a1 >= level)
            + 4 * (b0 * y1 + a0 >= level) + 8 * (b1 * y1 + a1 >= level))

    # per side of each crossed cell: its edge id, and its neighbour slot
    # (1 when the edge's other cell comes earlier in row-major order)
    side_edge = np.stack((ci * m + cj,
                          n_h + (ci + 1) * (m - 1) + cj,
                          ci * m + cj + 1,
                          n_h + ci * (m - 1) + cj))
    zeros = np.zeros_like(ci)
    side_slot = np.stack((cj > 0, zeros, zeros, ci > 0)).astype(np.intp)

    sides = SEGMENT_TABLE[case]
    cells = np.arange(ci.size)

    # neighbour lists: slot 0 then slot 1; k (one past the last edge) is
    # "none", and counts as visited
    k = edges.size
    ends = np.searchsorted(edges, side_edge[sides.T, cells])
    slots = side_slot[sides.T, cells]
    nb = np.full((2, k), k, dtype=np.intp)
    nb[slots[0], ends[0]] = ends[1]
    nb[slots[1], ends[1]] = ends[0]

    first, second = nb.tolist()
    visited = bytearray(k + 1)
    visited[k] = 1
    # the walked edges of every polyline, one after another; stops[p] is
    # one past the last position of polyline p
    order: list[int] = []
    stops: list[int] = []

    def walk(node: int) -> None:
        order.append(node)
        visited[node] = 1
        while True:
            if not visited[first[node]]:
                node = first[node]
            elif not visited[second[node]]:
                node = second[node]
            else:
                return
            order.append(node)
            visited[node] = 1

    # open chains first: start from degree-1 edges
    for e in np.flatnonzero(nb[1] == k).tolist():
        if not visited[e]:
            walk(e)
            stops.append(len(order))
    # remaining are closed loops
    e = visited.find(0)
    while e >= 0:
        start = len(order)
        walk(e)
        if len(order) - start > 2:
            order.append(e)  # close the loop
        stops.append(len(order))
        e = visited.find(0, e + 1)

    xy = np.column_stack((px, py))[order]
    return [xy[lo:hi] for lo, hi in zip([0, *stops], stops)]
