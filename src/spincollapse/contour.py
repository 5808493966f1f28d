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
  crossings are interpolated once, in chain order: the crossed edges are
  gathered into the order of the polylines first.
- Grid edges carry integer ids: H edge (i, j), joining nodes (i, j) and
  (i+1, j), is i*m + j; V edge (i, j), joining (i, j) and (i, j+1), is
  (n-1)*m + i*(m-1) + j.  Open chains come first, each starting at its
  smaller-id end, sorted by that id.  Then come the closed loops in order
  of their smallest id, which is an H edge (i, j) since a loop must cross
  columns.  A loop starts at that edge, steps first into the cell (i, j-1)
  on its lower-column side, and repeats its first vertex at the end.  So
  the output is bit-reproducible.
- The polylines come back as (k, 2) arrays of (x, y) vertices, views into
  the one array of the crossing points.
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

A call's transient memory is what the allocator may hand back to the OS
when the call ends, and page in again on the next, so the passes keep few
arrays alive at once.  The rule: an array is computed in place, into a
temporary of its own pass, where that takes no more numpy calls than a
new array would, and is dropped after its last read.  A numpy call costs
about a microsecond whatever its size, which is felt on small grids, so an
extra call is made only where it lowers the peak at fine grids.  Over the
crossings that leaves at most six 8-byte numbers per crossing alive at
once, besides masks of one byte: while the far ends' offsets are formed,
the edges (row, col), the near ends' offsets, each crossing's level and
two gathered node factors; while the points are interpolated, the edges,
the parameter t, both far-end coordinates and one near-end one.  The
arrays of the split ranks grow with levels x runs x rows and not with the
crossings; when c has two runs they set the call's peak, so the rank
array is also the index of the probed nodes.  No pass builds a field, and
the points are built once, in chain order.
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
    """values[i, j] - level, with an exact zero taken as 1e-30; each
    operation rounded once, as b[i] * c[j] + a[i] - level would round it."""
    d = b[i]
    d *= c[j]
    d += a[i]
    d -= level
    d[d == 0.0] = 1e-30
    return d


def _runs(c: np.ndarray) -> list[tuple[int, int, bool]]:
    """(s, e, rising) of each maximal run of nodes s..e along which c never
    decreases (rising) or never increases; consecutive runs share a node."""
    steps = (c[1:] != c[:-1]).nonzero()[0]
    rising = (c[1:] > c[:-1])[steps]
    turns = (rising[1:] != rising[:-1]).nonzero()[0] + 1
    bounds = [0, *steps[turns].tolist(), c.size - 1]
    # the direction changes at every turn
    first = bool(rising[0]) if rising.size else True
    return [(s, e, first != k % 2) for k, (s, e) in
            enumerate(zip(bounds, bounds[1:]))]


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
    del root
    k += base  # where rank k is in pad
    node = pad[k - 1]
    node *= b1
    node += a
    below = node >= lev
    del node
    node = pad[k]
    k -= base
    node *= b1
    node += a
    above = node >= lev
    del node
    flat_k = k.reshape(-1)
    for f in (above <= below).ravel().nonzero()[0].tolist():  # missed rows
        l, r, i = f // (r_n * n), f // n % r_n, f % n
        o, m = meta[r][:2]
        true = b1[i] * pad[o:o + m] + a[i] >= levels[l]
        flat_k[f] = true.argmax() if true[-1] else m
    flat = flat.nonzero()[0]  # by index, which is quicker than by mask here
    k[:, :, flat] = np.where(a[flat] >= lev, 0, size)
    # the later node of the two around the split; rank 0 or size means
    # the whole row has one sign in the run
    inner = (k > 0) & (k < size)
    k *= step
    k += origin
    return k, inner


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
    at, inner = (x.ravel() for x in _splits(a, b, c, levels))
    n = a.size
    # gap[l, r, i] = split[l, r, i + 1] - split[l, r, i], 0 on the last row
    gap = np.empty_like(at)
    np.subtract(at[1:], at[:-1], out=gap[:-1])
    gap[n - 1::n] = 0
    up = gap > 0
    size = np.abs(gap, out=gap)
    size += inner
    start = size.cumsum()
    total = start.item(-1)
    start -= size
    # cut at each run's row 0 and at every row whose split is not inner; a
    # level's first block is its first run's row 0, so no piece spans two
    # levels.  An empty piece starts where the next one does
    cut = ~inner
    cut[::n] = True
    starts = np.zeros(total + 1, dtype=bool)
    starts[start[cut]] = True
    starts[-1] = True
    bounds = starts.nonzero()[0].tolist()
    del cut, starts
    level_start = start[::size.size // levels.size].tolist()
    # an element's rank u in its block, counted as if every block began
    # with its V edge: rank 0 is the V edge at column at - 1, ranks 1.. the
    # H edges at columns at, at + 1, .. going up and at - 1, at - 2, .. not.
    # So col = at - 1 + u going up and at - u not, except at the V edge of
    # a block that goes down.  A block's own values are repeated over its
    # elements
    start += inner  # where the block's rank 1 is
    del inner
    u = np.arange(1, total + 1)
    u -= start.repeat(size)
    del start
    is_v = u == 0
    u *= np.where(up, 1, -1).repeat(size)
    at -= up
    col = at.repeat(size)
    del at
    col += u
    del u
    col -= is_v > up.repeat(size)  # the V edge of a block going down
    del up
    row = np.empty((size.size // n, n), np.intp)
    row[...] = np.arange(n)
    return (row.ravel().repeat(size), col, is_v, level_start, bounds)


def _crossings(a: np.ndarray, b: np.ndarray, c: np.ndarray, xs: np.ndarray,
               ys: np.ndarray, levels: np.ndarray, level_start: list[int],
               row: np.ndarray, col: np.ndarray, is_v: np.ndarray
               ) -> np.ndarray:
    """The (k, 2) crossing points of the edges (row, col), each where the
    linear interpolation of values - level along it is zero, with level
    levels[l] for the elements from level_start[l] on.  An H edge joins
    (row, col) and (row + 1, col), a V edge joins (row, col) and
    (row, col + 1).  row and col are read and written in place, and left
    as they came.

    Each coordinate is interpolated as x + t * (x1 - x): along an edge the
    other coordinate's difference is an exact 0, and t, whose denominator
    d0 - d1 is at least |d0| since the two ends lie on opposite sides of
    the level, is finite for finite node values, so that coordinate comes
    out exactly x."""
    stops = level_start[1:] + [row.size]
    at_level = levels.repeat([e - s for s, e in zip(level_start, stops)])
    d0 = _offset(a, b, c, row, col, at_level)
    is_h = ~is_v
    row += is_h
    col += is_v
    t = _offset(a, b, c, row, col, at_level)
    del at_level
    # t = d0 / (d0 - d1), in the buffer of d1
    np.subtract(d0, t, out=t)
    np.divide(d0, t, out=t)
    del d0
    far = xs[row], ys[col]
    row -= is_h
    col -= is_v
    for coords, near, x1 in zip((xs, ys), (row, col), far):
        x = coords[near]
        x1 -= x
        x1 *= t
        x1 += x
        del x
    del t
    xy = np.empty((row.size, 2))
    xy[:, 0], xy[:, 1] = far
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
    when some b[i] < 0 or is NaN.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (b >= 0.0).all():  # also false at a NaN
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
    def loop(p: int) -> tuple[int, int, int, np.ndarray]:
        """The key and emission positions of the loop through piece p."""
        ring = chain(2 * p)[:-1]  # its last element is its first again
        ids = row[ring] * m + col[ring]
        ids[is_v[ring]] = per_level
        k = int(ids.argmin())
        return (end_ids[2 * p] // per_level, 1, int(ids[k]),
                np.concatenate((ring[k:], ring[:k + 1])))

    p = visited.find(0)
    while p >= 0:
        found.append(loop(p))
        p = visited.find(0, p + 1)
    # each level's open chains in id order, then its loops in id order
    found.sort(key=lambda f: f[:3])

    # the edges are gathered into chain order and the crossings
    # interpolated there, so that no emission-order copy of the points is
    # built
    order = np.concatenate([f[3] for f in found])
    found = [(f[0], f[3].size) for f in found]
    row = row[order]
    col = col[order]
    is_v = is_v[order]
    del order
    per_level_size = [0] * levels.size
    for level, size in found:
        per_level_size[level] += size
    xy = _crossings(a, b, c, xs, ys, levels,
                    [0, *accumulate(per_level_size)][:-1], row, col, is_v)
    stops = list(accumulate(size for _, size in found))
    for (level, _), i, j in zip(found, [0, *stops], stops):
        out[level].append(xy[i:j])
    return out
