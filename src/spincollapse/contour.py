"""Matrix-free marching squares on a separable field, emitted in curve order.

Extracts the level sets values == level, for each level of a sequence, of
the field values[i, j] = b[i] * c[j] + a[i], sampled at (xs[i], ys[j]) and
evaluated as numpy does it elementwise (the product, then the sum, each
rounded once), without ever building the (len(xs), len(ys)) array
(Lorensen & Cline 1987).  b must be >= 0 on every row, as it is for the
solver's overlap field, where b[i] = sqrt(rho (1 - rho)) sin(theta_i) with
theta_i in [0, pi]:

- A node is positive when its value >= level, so a node exactly at the
  level counts as positive.
- Rounding is monotone, so along a row the predicate b[i] * c[j] + a[i]
  >= level is a non-decreasing function of c[j] (constant when b[i] == 0).
  c splits into runs of consecutive nodes s..e along which it never
  decreases (or never increases); consecutive runs share a node.  On the
  run's nodes taken in ascending order of c, a row's nodes are negative up
  to a split rank and positive from it on.  The split rank is looked up at
  the analytic root (level - a[i]) / b[i] by one searchsorted per run and
  confirmed by evaluating the node predicate at the two ranks around it; a
  row where the root is off (tiny b[i] against a[i], or a level at a node
  value) is scanned along the run for its first positive node, in O(m).
- So in each run, row i changes sign once, at a column split[i] in
  [s, e + 1]: its nodes before split[i] and from split[i] on have opposite
  signs.  One side of the run is a staircase, and the level curve inside
  the run is its edge, taken from row 0 down to row n - 1.  For each row i
  the curve crosses the V edge (i, split[i] - 1) when the split is inner
  (s < split[i] <= e), then the H edges between rows i and i + 1 column by
  column, from split[i] toward split[i + 1].  No cell is a saddle (a
  saddle needs one row of the cell to rise and the other to fall between
  two columns, while both can change sign only in the direction that c
  moves), so this path is the whole level set inside the run.
- The staircase breaks only at rows whose split is not inner (all of the
  row's nodes in the run have one sign): the curve leaves the run there
  through an H edge on the run's first or last column.  Cut at those rows
  and at each run's row 0, the emission falls into pieces.  A piece ends
  on the grid boundary or on an H edge of a column that two runs share;
  each such shared edge ends exactly two pieces, which are joined through
  it.  Only the pieces are chained in Python, never the edges.
- A crossing lies where the linear interpolation of values - level along
  its edge is zero; an offset of exactly zero is taken as 1e-30.  The
  crossings are interpolated once, in emission order.
- Grid edges carry integer ids: H edge (i, j), joining nodes (i, j) and
  (i+1, j), is i*m + j; V edge (i, j), joining (i, j) and (i, j+1), is
  (n-1)*m + i*(m-1) + j.  Open chains come first, each starting at its
  smaller-id end, sorted by that id.  Then come the closed loops in order
  of their smallest id, which is an H edge (i, j) since a loop must cross
  columns.  A loop starts at that edge, steps first into the cell (i, j-1)
  on its lower-column side, and repeats its first vertex at the end.  So
  the output is bit-reproducible.
- The polylines come back as (k, 2) arrays of (x, y) vertices, views into
  one array gathered from the crossing points.
- All levels are traced in one pass.  What does not depend on the level
  is done once: the runs of c, their padded ascending copy and the flat
  rows (b == 0).  Everything else carries a leading level axis: the split
  ranks, the missed-row scan, and the emission, whose blocks are ordered
  (level, run, row), so that each level's emission is the one it would
  have alone, shifted by the emissions of the levels before it.  Edge ids
  are offset by the level's index times the edges per level, so pieces of
  two levels never join, and the one sort of the chains by (level, open
  or loop, id) gives, level by level, the order above.

Node values are computed only where they are read: at the probed split
ranks, along the runs of the rows the lookup misses, and at the ends of the
crossed edges.  A call costs O(m) once for the runs, then per level O(n
log m) for the split ranks, O(m) more per missed row, plus O(crossings)
for the rest, against O(n m) per level for a scan of the whole field.  On
small grids the fixed cost of the numpy calls weighs most, so it is paid
once per call, not once per level, and only for arrays that grow with the
grid or the crossings: the runs, the levels' starts, the missed rows and
the few non-empty pieces, their end ids and partners, are Python ints.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate

import numpy as np

_LOW = np.array([-np.inf])
_HIGH = np.array([np.inf])


def _offset(a: np.ndarray, b: np.ndarray, c: np.ndarray, i: np.ndarray,
            j: np.ndarray, level: np.ndarray) -> np.ndarray:
    """values[i, j] - level, with an exact zero taken as 1e-30."""
    d = b[i] * c[j] + a[i] - level
    d[d == 0.0] = 1e-30
    return d


def _runs(c: np.ndarray) -> list[tuple[int, int, bool]]:
    """(s, e, rising) of each maximal run of nodes s..e along which c never
    decreases (rising) or never increases; consecutive runs share a node."""
    steps = (c[1:] != c[:-1]).nonzero()[0]
    rising = c[steps + 1] > c[steps]
    turns = (rising[1:] != rising[:-1]).nonzero()[0] + 1
    bounds = [0, *steps[turns].tolist(), c.size - 1]
    ups = rising[:1].tolist() + rising[turns].tolist() or [True]
    return list(zip(bounds, bounds[1:], ups))


def _splits(a: np.ndarray, b: np.ndarray, c: np.ndarray, levels: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """(split, inner), each of shape (levels, runs, n): at level l, row i
    changes sign in run r at column split[l, r, i], and inner[l, r, i]
    tells whether that column is inside the run (s < split <= e) rather
    than at one of its sides."""
    runs = _runs(c)
    n, r_n = a.size, len(runs)
    # every run in ascending order between -inf and +inf: rank t of run r is
    # at base[r] + t, so rank -1 reads -inf and rank size[r] reads +inf.
    # Rank t is node origin[r] + step[r] * t on a rising run and that minus
    # 1 on a falling one
    views, meta, offset = [], [], 1
    for s, e, rising in runs:
        views.append(c[s:e + 1] if rising else c[s:e + 1][::-1])
        meta.append((offset, e - s + 1, s if rising else e + 1,
                     1 if rising else -1))
        offset += e - s + 3
    base, size, origin, step = np.array(meta).T[:, :, None]
    pad = np.concatenate([x for v in views for x in (_LOW, v, _HIGH)])

    # along every run the predicate value >= level is false, then true; a
    # row's split rank k is its first true rank.  It is looked up at the
    # analytic root and confirmed at ranks k - 1 and k; a row where the
    # lookup missed is scanned along the run.  Flat rows (b == 0) are
    # searched as if b were 1, then set to all true or false
    flat = b == 0.0
    b1 = np.where(flat, 1.0, b)
    lev = levels[:, None, None]
    root = (levels[:, None] - a) / b1
    k = np.empty((levels.size, r_n, n), dtype=np.intp)
    for r, (o, m, _, _) in enumerate(meta):
        k[:, r] = pad[o:o + m].searchsorted(root)
    at = k + base
    below = b1 * pad[at - 1] + a >= lev
    above = b1 * pad[at] + a >= lev
    flat_k = k.reshape(-1)
    for f in (above <= below).ravel().nonzero()[0].tolist():  # missed rows
        l, r, i = f // (r_n * n), f // n % r_n, f % n
        o, m = meta[r][:2]
        true = b1[i] * pad[o:o + m] + a[i] >= levels[l]
        flat_k[f] = true.argmax() if true[-1] else m
    k[:, :, flat] = np.where(a[flat] >= lev, 0, size)
    # the later node of the two around the split; rank 0 or size means
    # the whole row has one sign in the run
    return origin + step * k, (k > 0) & (k < size)


def _crossed_edges(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                   levels: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                np.ndarray, list[int],
                                                list[int]]:
    """(row, col, is_v, level_start, bounds): the grid edge (row, col) of
    every crossing of every level in emission order, whether it is a V
    edge, where each level's emission starts, and the bounds of the
    non-empty pieces, piece p spanning bounds[p]:bounds[p + 1].

    The (level, run, row) blocks are emitted levels in order, runs in
    column order and rows in order, so each level's emission is the one it
    would have alone, shifted.  Block (l, r, i) is the V edge at the split
    when it is inner, then the H edges between rows i and i + 1 from
    split[l, r, i] toward split[l, r, i + 1].
    """
    split, inner = _splits(a, b, c, levels)
    gap = np.zeros(split.shape, split.dtype)
    gap[..., :-1] = split[..., 1:] - split[..., :-1]
    size = (inner + np.abs(gap)).ravel()
    start = size.cumsum() - size
    block = np.arange(size.size).repeat(size)
    # an element's rank in its block, counted as if every block began with
    # its V edge: rank 0 is the V edge at column at - 1, ranks 1.. the H
    # edges at columns at, at + 1, .. going up and at - 1, at - 2, .. not
    u = np.arange(block.size) - (start - 1 + inner.ravel())[block]
    at = split.ravel()[block]
    row = block % a.size
    is_v = u == 0
    col = np.where(gap.ravel()[block] > 0, at - 1 + u, at - np.maximum(u, 1))
    # cut at each run's row 0 and at every row whose split is not inner; a
    # level's first block is its first run's row 0, so no piece spans two
    # levels.  An empty piece starts where the next one does
    cut = ~inner
    cut[..., 0] = True
    starts = np.zeros(block.size + 1, dtype=bool)
    starts[start[cut.ravel()]] = True
    starts[-1] = True
    return (row, col, is_v, start[::size.size // levels.size].tolist(),
            starts.nonzero()[0].tolist())


def _crossings(a: np.ndarray, b: np.ndarray, c: np.ndarray, xs: np.ndarray,
               ys: np.ndarray, levels: np.ndarray, level_start: list[int],
               row: np.ndarray, col: np.ndarray, is_v: np.ndarray
               ) -> np.ndarray:
    """The (k, 2) crossing points of the edges (row, col), each where the
    linear interpolation of values - level along it is zero, with level the
    level of the element's own emission.  An H edge joins (row, col) and
    (row + 1, col), a V edge joins (row, col) and (row, col + 1)."""
    stops = level_start[1:] + [row.size]
    at_level = levels.repeat([e - s for s, e in zip(level_start, stops)])
    is_h = ~is_v
    row1, col1 = row + is_h, col + is_v
    d0 = _offset(a, b, c, row, col, at_level)
    d1 = _offset(a, b, c, row1, col1, at_level)
    t = d0 / (d0 - d1)
    x, y = xs[row], ys[col]
    xy = np.empty((row.size, 2))
    xy[:, 0] = np.where(is_h, x + t * (xs[row1] - x), x)
    xy[:, 1] = np.where(is_v, y + t * (ys[col1] - y), y)
    return xy


def marching_squares(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                     xs: np.ndarray, ys: np.ndarray, levels: Sequence[float]
                     ) -> list[list[np.ndarray]]:
    """Polylines of the level sets values == level of the separable field
    values[i, j] = b[i] * c[j] + a[i] = F(xs[i], ys[j]), for each level of
    levels, all traced in one pass.

    Returns one list of polylines per level, in the order of levels; the
    levels do not interact, so a level's list does not depend on the
    others.  Each polyline is a (k, 2) float array of (x, y) vertices, and
    all are views into one array.  Open polylines end on the grid boundary;
    a closed loop repeats its first vertex at the end.  Raises ValueError
    when some b[i] < 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if (b < 0.0).any():
        raise ValueError("marching_squares needs b >= 0 on every row")
    c = np.asarray(c, dtype=float)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    levels = np.asarray(levels, dtype=float).ravel()
    n, m = a.size, c.size
    out: list[list[np.ndarray]] = [[] for _ in levels]
    if n < 2 or m < 2 or not levels.size:
        return out
    row, col, is_v, level_start, bounds = _crossed_edges(a, b, c, levels)
    if row.size == 0:
        return out
    xy = _crossings(a, b, c, xs, ys, levels, level_start, row, col, is_v)

    # piece p has end slots 2p (its first element) and 2p + 1 (its last).
    # An end is on the grid boundary or is an H edge on a shared column;
    # the two slots that hold a shared edge are neighbours sorted by id.
    # Edge ids are offset by level, so no two levels share one and the
    # levels keep their order in a sort by id
    per_level = (n - 1) * m + n * (m - 1)
    lo, hi = bounds[:-1], bounds[1:]
    ends = [e for p in zip(lo, hi) for e in (p[0], p[1] - 1)]
    at = np.array(ends)
    end_ids, on_boundary = [], []
    for e, i, j, v in zip(ends, row[at].tolist(), col[at].tolist(),
                          is_v[at].tolist()):
        end_ids.append((bisect_right(level_start, e) - 1) * per_level
                       + ((n - 1) * m + i * (m - 1) + j if v else i * m + j))
        on_boundary.append(v or j == 0 or j == m - 1)
    by_id = sorted(range(len(ends)), key=end_ids.__getitem__)
    shared = [s for s in by_id if not on_boundary[s]]
    partner = [-1] * len(ends)
    for s, t in zip(shared[0::2], shared[1::2]):
        partner[s], partner[t] = t, s
    visited = bytearray(len(lo))

    def chain(slot: int) -> np.ndarray:
        """Emission positions from the piece entered at slot until the
        curve reaches the boundary or its first piece again; a shared edge
        is kept once."""
        parts = []
        while slot >= 0 and not visited[slot >> 1]:
            p = slot >> 1
            visited[p] = 1
            skip = 1 if parts else 0
            if slot & 1:
                parts.append(np.arange(hi[p] - 1 - skip, lo[p] - 1, -1))
            else:
                parts.append(np.arange(lo[p] + skip, hi[p]))
            slot = partner[slot ^ 1]
        return np.concatenate(parts)

    # open chains from their smaller-id boundary end, keyed (level, 0, id)
    found = [(end_ids[s] // per_level, 0, end_ids[s], chain(s))
             for s in by_id if on_boundary[s] and not visited[s >> 1]]
    # then the loops, keyed (level, 1, smallest id), each starting at that
    # edge and stepping first into its lower-column cell.  A loop already
    # runs that way: it is entered at the top piece of its lowest run,
    # where its inside lies toward the higher columns, and followed down
    # that piece, so it keeps its inside on that hand and passes its
    # smallest edge (on its top row, inside below) toward the lower columns.
    # That edge is an H edge, whose id is below every V edge's, so the ring's
    # ids are taken within its level, with each V edge's as per_level
    p = visited.find(0)
    while p >= 0:
        ring = chain(2 * p)[:-1]  # its last element is its first again
        ids = row[ring] * m + col[ring]
        ids[is_v[ring]] = per_level
        k = int(ids.argmin())
        found.append((end_ids[2 * p] // per_level, 1, int(ids[k]),
                      np.concatenate((ring[k:], ring[:k + 1]))))
        p = visited.find(0, p + 1)
    # each level's open chains in id order, then its loops in id order
    found.sort(key=lambda f: f[:3])

    stops = list(accumulate(len(f[3]) for f in found))
    xy = xy.take(np.concatenate([f[3] for f in found]), axis=0)
    for f, i, j in zip(found, [0, *stops], stops):
        out[f[0]].append(xy[i:j])
    return out
