"""Matrix-free marching squares on a separable field, emitted in curve order.

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

Node values are computed only where they are read: at the probed split
ranks, along the runs of the rows the lookup misses, and at the ends of the
crossed edges.  The cost per level is O(n log m) for the split ranks, O(m)
more per missed row, plus O(crossings) for the rest, against O(n m) for a
scan of the whole field.
"""

from __future__ import annotations

import numpy as np

_LOW = np.array([-np.inf])
_HIGH = np.array([np.inf])


def _offset(a: np.ndarray, b: np.ndarray, c: np.ndarray, i: np.ndarray,
            j: np.ndarray, level: float) -> np.ndarray:
    """values[i, j] - level, with an exact zero taken as 1e-30."""
    d = b[i] * c[j] + a[i] - level
    d[d == 0.0] = 1e-30
    return d


def _runs(c: np.ndarray) -> list[tuple[int, int, bool]]:
    """(s, e, rising) of each maximal run of nodes s..e along which c never
    decreases (rising) or never increases; consecutive runs share a node."""
    steps = np.flatnonzero(c[1:] != c[:-1])
    rising = c[steps + 1] > c[steps]
    turns = np.flatnonzero(rising[1:] != rising[:-1]) + 1
    bounds = [0, *steps[turns].tolist(), c.size - 1]
    ups = rising[:1].tolist() + rising[turns].tolist() or [True]
    return list(zip(bounds, bounds[1:], ups))


def _splits(a: np.ndarray, b: np.ndarray, c: np.ndarray, level: float
            ) -> tuple[np.ndarray, np.ndarray]:
    """(split, inner), each of shape (runs, n): row i changes sign in run
    r at column split[r, i], and inner[r, i] tells whether that column is
    inside the run (s < split[r, i] <= e) rather than at one of its sides."""
    runs = _runs(c)
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
    flat = np.flatnonzero(b == 0.0)
    b1 = b.copy()
    b1[flat] = 1.0
    root = (level - a) / b1
    k = np.array([np.searchsorted(pad[o:o + v.size], root)
                  for o, v in zip(base[:, 0].tolist(), views)])
    at = k + base
    below = b1 * pad[at - 1] + a >= level
    above = b1 * pad[at] + a >= level
    for r, i in zip(*np.nonzero(above <= below)):  # missed rows
        o, m = base[r, 0], size[r, 0]
        true = b1[i] * pad[o:o + m] + a[i] >= level
        k[r, i] = true.argmax() if true[-1] else m
    if flat.size:
        k[:, flat] = np.where(a[flat] >= level, 0, size)
    # the later node of the two around the split; rank 0 or size means
    # the whole row has one sign in the run
    return origin + step * k, (k > 0) & (k < size)


def marching_squares(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                     xs: np.ndarray, ys: np.ndarray, level: float = 0.0
                     ) -> list[np.ndarray]:
    """Polylines of the level set values == level of the separable field
    values[i, j] = b[i] * c[j] + a[i] = F(xs[i], ys[j]).

    Returns a list of polylines, each a (k, 2) float array of (x, y)
    vertices; the polylines are views into one array.  Open polylines end
    on the grid boundary; a closed loop repeats its first vertex at the
    end.  Raises ValueError when some b[i] < 0.
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
    split, inner = _splits(a, b, c, level)

    # emit the (run, row) blocks, runs in column order and rows in order.
    # Block (r, i) is the V edge at the split when it is inner, then the H
    # edges between rows i and i + 1 from split[r, i] toward split[r, i + 1]
    gap = np.zeros_like(split)
    gap[:, :-1] = split[:, 1:] - split[:, :-1]
    size = (inner + np.abs(gap)).ravel()
    stop = np.cumsum(size)
    total = int(stop[-1])
    if total == 0:
        return []
    start = stop - size
    block = np.repeat(np.arange(size.size), size)
    # an element's rank in its block, counted as if every block began with
    # its V edge: rank 0 is the V edge at column at - 1, ranks 1.. the H
    # edges at columns at, at + 1, .. going up and at - 1, at - 2, .. not
    u = np.arange(total) - (start - 1 + inner.ravel())[block]
    at = split.ravel()[block]
    row = np.tile(np.arange(n), split.shape[0])[block]
    is_v = u == 0
    col = np.where(gap.ravel()[block] > 0, at - 1 + u, at - np.maximum(u, 1))

    # crossing points in emission order: an H edge joins (row, col) and
    # (row + 1, col), a V edge joins (row, col) and (row, col + 1)
    is_h = ~is_v
    row1, col1 = row + is_h, col + is_v
    d0 = _offset(a, b, c, row, col, level)
    d1 = _offset(a, b, c, row1, col1, level)
    t = d0 / (d0 - d1)
    x, y = xs[row], ys[col]
    xy = np.column_stack((np.where(is_h, x + t * (xs[row1] - x), x),
                          np.where(is_v, y + t * (ys[col1] - y), y)))

    def edge_ids(k: np.ndarray) -> np.ndarray:
        return np.where(is_v[k], (n - 1) * m + row[k] * (m - 1) + col[k],
                        row[k] * m + col[k])

    # cut at each run's row 0 and at every row whose split is not inner
    cut = ~inner
    cut[:, 0] = True
    bounds = np.append(start[cut.ravel()], total)
    nonempty = bounds[:-1] < bounds[1:]
    lo, hi = bounds[:-1][nonempty], bounds[1:][nonempty]

    # piece p has end slots 2p (its first element) and 2p + 1 (its last).
    # An end is on the grid boundary or is an H edge on a shared column;
    # the two slots that hold a shared edge are neighbours sorted by id
    ends = np.column_stack((lo, hi - 1)).ravel()
    ec = col[ends]
    on_boundary = is_v[ends] | (ec == 0) | (ec == m - 1)
    by_id = np.argsort(edge_ids(ends))
    shared = by_id[~on_boundary[by_id]]
    partner = np.full(ends.size, -1)
    partner[shared[0::2]] = shared[1::2]
    partner[shared[1::2]] = shared[0::2]

    lo, hi, partner = lo.tolist(), hi.tolist(), partner.tolist()
    visited = bytearray(len(lo))

    def chain(slot: int) -> np.ndarray:
        """Emission positions from the piece entered at slot until the
        curve reaches the boundary or its first piece again; a shared edge
        is kept once."""
        parts = []
        while True:
            p = slot >> 1
            visited[p] = 1
            skip = 1 if parts else 0
            if slot & 1:
                parts.append(np.arange(hi[p] - 1 - skip, lo[p] - 1, -1))
            else:
                parts.append(np.arange(lo[p] + skip, hi[p]))
            slot = partner[slot ^ 1]
            if slot < 0 or visited[slot >> 1]:
                return np.concatenate(parts)

    # open chains from their smaller-id boundary end, in id order
    polylines = [chain(s) for s in by_id[on_boundary[by_id]].tolist()
                 if not visited[s >> 1]]
    # then the loops in order of their smallest edge id, each starting at
    # that edge and stepping first into its lower-column cell.  A loop
    # already runs that way: it is entered at the top piece of its lowest
    # run, where its inside lies toward the higher columns, and followed
    # down that piece, so it keeps its inside on that hand and passes its
    # smallest edge (on its top row, inside below) toward the lower columns
    loops = []
    p = visited.find(0)
    while p >= 0:
        ring = chain(2 * p)[:-1]  # its last element is its first again
        ids = edge_ids(ring)
        k = int(ids.argmin())
        loops.append((ids[k], np.concatenate((ring[k:], ring[:k + 1]))))
        p = visited.find(0, p + 1)
    polylines += [ring for _, ring in sorted(loops, key=lambda x: x[0])]

    stops = np.cumsum([len(q) for q in polylines]).tolist()
    xy = np.take(xy, np.concatenate(polylines), axis=0)
    return [xy[i:j] for i, j in zip([0, *stops], stops)]
