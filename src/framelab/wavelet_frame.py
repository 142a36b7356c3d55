"""Continuously parametrized wavelet reconstruction on Lp via grid snapping.

The family here is the dilation-translation orbit of a step wavelet:
primal members carry the Lp normalization 2^(a/p) psi(2^a t - b), dual
members the conjugate-exponent normalization of the dual wavelet.  The
continuous parameters (a, b) are snapped to a resolution-N lattice whose
translation step scales with the integer part of a; on each lattice cell
the snapped member is constant, so the double integral of coefficient
times member over the box [-M, M]^2 collapses to an exact finite sum, the
box sum (``_box_sums``).

An independent route to the same sum conjugates the target by the
fractional dilation-translation pair, applies the plain integer-grid
partial reconstruction, transforms back and averages (``_averaged_sums``).
The two agree up to float rounding; the Lp distance between them is the
identity check the experiments report.
The reconstruction error of the box sum is bounded by the worst conjugated
partial-sum error, which is what ``convergence_study`` tabulates.

A job runs all its boxes (p, M, N) in one pass of one lattice kernel, which
works on rows: each box sum is a row, and so is each conjugate y_{r,s} of
each box.  Each coefficient is the rise of a target's antiderivative across
a member's cells, read by np.interp once per target row; each row's sum of
members is one sort of their jumps and one cumulative sum along the row
(``_jump_sum``); and every Lp distance, from a sum to its target or between
the two routes' sums, is one merge for all rows and one np.add.reduce per
row (``_lp_distances``).  The box sums take the fractional lattices
a = l + r/N, b = m + s 2^l / N against x.  The oracle bounds and the
averaged route take the integer lattices (l, m) against the conjugates; the
averaged route then moves every member back by its row's pair.  Each member
carries its row's exponent.  Rows go in groups of a fixed size, and a group
builds each lattice it uses once; at the sizes the experiments use a group
holds every row of a job, so a job makes as many kernel calls at nine boxes
as at one and builds each lattice once.
"""

import dataclasses
import functools
import math

import numpy as np

from .stepfn import MERGE_ULPS, StepFunction, _widths, haar_mother


@dataclasses.dataclass(frozen=True)
class WaveletSystem:
    """Mother wavelet, dual wavelet and the exponent pair they act on."""
    mother: StepFunction
    dual_mother: StepFunction
    p: float

    def __post_init__(self):
        # a NaN fails both comparisons; an infinite p has no finite conjugate
        if not 1.0 < self.p < math.inf:
            raise ValueError("p must exceed 1 and be finite")

    @classmethod
    def haar(cls, p):
        """Self-dual Haar system; the default for every experiment."""
        return cls(haar_mother(), haar_mother(), float(p))

    @functools.cached_property
    def _unit_cells(self):
        """Cells (breakpoints, values) of the primal and the dual member at (0, 0),
        the same at every exponent: each is its mother's own cells, for
        translating by 0 adds +0.0 to each breakpoint, turning a -0.0 into
        0.0, and dilating by 0 scales by 2^0 = 1."""
        return {side: (f.breakpoints + 0.0, f.values)
                for side, f in (("primal", self.mother), ("dual", self.dual_mother))}


# -- the lattice kernel -----------------------------------------------------------
#
# Targets sit in the rows of 2-D arrays of cells (breakpoints, values).  Each
# lattice member names the target row it analyses and carries its exponent p,
# and each sum of members is a row of the output.  Sums are held as row-tagged
# cells (rows, points, values), three flat arrays ordered by row, then point:
# values[j] is held from points[j] to the next point of its row, a zero after
# the row's last point.  One merge builds every grid (``_placed``): an
# unstable argsort of the points, then a stable argsort of their rows, and
# each point is placed at the grid point it merged into.  The float sort may
# put -0.0 and 0.0 in either order, so a grid point at zero takes the sign
# of whichever came first; no result reads that sign, for both zeros merge
# into that one point and give the same widths and mids.
# Members come in row order, so a row's members, and its cells of a merged
# grid, are one contiguous run: the per-row steps, np.interp and
# np.add.reduce, take each run (``_runs``).  One row takes the same code as
# many: a single target's sums and distances are the one-row case of it.
#
# A job is a list of boxes (ws, M, N): the system, whose p is the box's
# exponent, the box [-M, M]^2 and the resolution N.  Its boxes share one
# mother and one dual wavelet.

# Target breakpoints and lattice members, over all its rows, that one kernel
# call takes at most: box sums and conjugates go in groups of as many rows as
# that allows, and at least one, so that no call holds many copies of a
# many-cell target or several large lattices at once.  Every row costs at
# least one, so a call's row ids stay below 2^13, well inside the np.uint16
# that ``_placed`` sorts them as: numpy radix-sorts 16-bit integers.
_GROUP_SIZE = 2 ** 13

# Row 0 for every member: the ``rows`` of a single target.
_ROW_0 = np.zeros(1, dtype=np.intp)
_ROW_0.setflags(write=False)


def _pairs(lo, hi):
    """Every (u, v) with lo <= u, v < hi as two float arrays, u outer."""
    side = np.arange(lo, hi, dtype=float)
    # np.tile(side, side.size), without its wrapper cost
    return side.repeat(side.size), side[None].repeat(side.size, axis=0).ravel()


def _check(M, N):
    if M < 1:
        raise ValueError("M must be a positive integer")
    if N < 1:
        raise ValueError("N must be a positive integer")


def _box_lattice(M, N):
    """Snapped parameters (a, b) of every box cell, in the order r, l, s, m."""
    _check(M, N)
    r, l, s, m = np.indices((N, 2 * M, N, 2 * M)).reshape(4, -1)
    l -= M
    m -= M
    return l + r / N, m + s * 2.0 ** l / N


def _groups(costs):
    """Runs [lo, hi) of consecutive rows whose ``costs`` sum to at most
    ``_GROUP_SIZE``, or of a single row."""
    lo, total = 0, 0
    for i, cost in enumerate(costs):
        if total + cost > _GROUP_SIZE and i > lo:
            yield lo, i
            lo, total = i, 0
        total += cost
    if costs:
        yield lo, len(costs)


def _per_member(values, sizes):
    """``values[i]`` for each of the ``sizes[i]`` members of row i, or the one value
    that every row holds, so that no array of copies is made."""
    return values[0] if len(set(values)) == 1 else np.repeat(values, sizes)


def _conjugate_groups(x, boxes):
    """The conjugates y_{r,s} of x for every box, in the order box, r, s, in groups
    of rows, each conjugate with the integer lattice (l, m) of [-M, M]^2.

    y_{r,s} is x dilated by -r/N at the box's exponent, then translated by
    -s/N.  A group holds as many conjugates as ``_GROUP_SIZE`` allows.
    Yields, per group, the cells (yb, yv) with one row per conjugate; the
    lattice (l, m, rows, p), each member with the row it analyses and its
    exponent; and per row its box, and the shift s/N, the scale 2^(-(r/N)),
    the weight 2^((r/N)/p) and the box's 1/N^2 that move that row's members
    back and average them.  Each factor is computed as a Python float, as for
    one conjugate at a time.  Each M's lattice is built once.
    """
    for _, M, N in boxes:
        _check(M, N)
    offsets = np.array([(2.0 ** (r / N), -s / N, 2.0 ** ((-r / N) / ws.p), s / N,
                         2.0 ** (-(r / N)), 2.0 ** ((r / N) / ws.p), 1.0 / (N * N))
                        for ws, _, N in boxes
                        for r in range(N) for s in range(N)]).reshape(-1, 7).T[:, :, None]
    box = [i for i, (_, _, N) in enumerate(boxes) for _ in range(N * N)]
    lattices = {M: _pairs(-M, M) for M in dict.fromkeys(M for _, M, _ in boxes)}
    sizes = [lattices[boxes[i][1]][0].size for i in box]
    for lo, hi in _groups([x.breakpoints.size + size for size in sizes]):
        l, m = (np.concatenate([lattices[boxes[i][1]][k] for i in box[lo:hi]]) for k in (0, 1))
        grow, shift, shrink, *back = offsets[:, lo:hi]
        yield ((x.breakpoints * grow + shift, x.values * shrink),
               (l, m, np.arange(hi - lo).repeat(sizes[lo:hi]),
                _per_member([boxes[i][0].p for i in box[lo:hi]], sizes[lo:hi])),
               (np.array(box[lo:hi]), *back))


def _runs(a, rows, count):
    """``a`` cut into the runs of rows 0 .. count - 1, ``rows`` nondecreasing:
    ``np.split`` at the row starts, without its per-run wrapper cost."""
    cuts = [0, *rows.searchsorted(np.arange(1, count)).tolist(), len(a)]
    return [a[i:j] for i, j in zip(cuts, cuts[1:])]


def _coefficients(ws, xb, xv, a, b, rows, q):
    """<x, dual(a_k, b_k)> for every k, the dual member at the conjugate exponent
    q_k (one per member or one for all), x the target with cells
    (xb, xv)[rows[k]]; ``rows`` does not decrease.

    Over each cell of a dual member, the integral of x is the rise of its
    piecewise linear antiderivative, read at the member's breakpoints
    (b_k + t_j) 2^(-a_k) by np.interp, once per target row; each coefficient
    sums value times rise in cell order.
    """
    if xv.shape[1] == 0:
        return np.zeros(a.size)
    db, dv = ws._unit_cells["dual"]
    X = np.zeros(xb.shape)
    (xv * _widths(xb)).cumsum(axis=1, out=X[:, 1:])
    points = (b[:, None] + db) * 2.0 ** (-a[:, None])
    runs = _runs(points, rows, xb.shape[0])
    rise = _widths(np.concatenate([np.interp(*row) for row in zip(runs, xb, X)]))
    return np.add.reduce(rise * dv, axis=1) * 2.0 ** (a / q)


def _members(ws, xb, xv, a, b, rows, p, weight):
    """Cells of weight_k * <x, dual_k> primal_k at exponent p_k for each k whose
    coefficient is not 0, x the target rows[k]; ``p`` and ``weight`` hold one
    value per member or one for all.

    Returns ``(kept, breakpoints, values)``: the kept k, in order, and one
    row of cells for each.
    """
    coef = _coefficients(ws, xb, xv, a, b, rows, p / (p - 1.0))
    kept = coef.nonzero()[0]
    a, b = a[kept, None], b[kept, None]
    p, weight = (v[kept, None] if np.ndim(v) else v for v in (p, weight))
    pb, pv = ws._unit_cells["primal"]
    return (kept, (b + pb) * 2.0 ** (-a), (pv * 2.0 ** (a / p)) * (coef[kept, None] * weight))


def _kept(rows, points):
    """Which of the row-tagged ``points``, sorted by row, then point, stay when
    each row is merged as ``stepfn._merge`` merges, and where each row starts
    among them.  A row's magnitude is its largest |point|."""
    keep = np.empty(points.size, dtype=bool)
    keep[:1] = True
    keep[1:] = rows[1:] != rows[:-1]
    starts = keep.nonzero()[0]
    tol = MERGE_ULPS * np.spacing(np.maximum.reduceat(np.abs(points), starts))
    # repeated over each row's points, with no per-point row index: two cap-sized
    # rows peak at 6.7 MB traced this way, 7.2 MB through such an index
    tol = tol.repeat(_widths(np.concatenate((starts, [points.size]))))
    keep[1:] |= _widths(points) > tol[1:]
    return keep, starts


def _placed(rows, points):
    """``stepfn._merge`` within each row of the row-tagged ``points``:
    ``(rows, grid, starts, at)``, the grid's rows and points, where each row
    starts among them, and for each point the index of the grid point it
    merged into, the last of its row at or below it.  One order gives both:
    an unstable argsort of the points, then a stable argsort of their rows
    as np.uint16 (see ``_GROUP_SIZE``)."""
    order = points.argsort()
    order = order[rows[order].astype(np.uint16).argsort(kind="stable")]
    rows, points = rows[order], points[order]
    keep, starts = _kept(rows, points)
    index = keep.cumsum() - 1
    at = np.empty(order.size, dtype=np.intp)
    at[order] = index
    return rows[keep], points[keep], index[starts], at


def _jump_sum(rows, bp, vals):
    """Row-tagged cells of the sums of the step functions with cells (bp[k], vals[k]):
    row i sums the functions k with rows[k] = i.

    Each function turns into jumps at its breakpoints.  Each row's
    breakpoints are merged into one grid, and each breakpoint is placed at
    the grid point it merged into, both from one order (``_placed``).
    ``np.bincount`` adds the jumps at their grid points in input order, and
    a cumulative sum along each row of a zero-padded table, so that each
    row's running sum starts at 0, gives the values.  A cell that no function
    covers is exactly 0: an integer count of covering functions decides.  A
    row whose grid has fewer than two points has no cell and is dropped.
    """
    rows, grid, starts, at = _placed(rows.repeat(bp.shape[1]), bp.ravel())
    lengths = _widths(np.concatenate((starts, [grid.size])))
    at = at.reshape(bp.shape)
    padded = np.zeros((vals.shape[0], vals.shape[1] + 2))
    padded[:, 1:-1] = vals
    jumps = np.bincount(at.ravel(), _widths(padded).ravel(), grid.size)
    covering = (np.bincount(at[:, 0], minlength=grid.size)
                - np.bincount(at[:, -1], minlength=grid.size)).cumsum()
    width = np.maximum.reduce(lengths, initial=0)
    cell = np.arange(grid.size) + (np.arange(lengths.size) * width - starts).repeat(lengths)
    table = np.zeros(lengths.size * width)
    table[cell] = jumps
    running = table.reshape(lengths.size, width).cumsum(axis=1).ravel()[cell]
    values = np.where(covering > 0, running, 0.0)
    if np.minimum.reduce(lengths, initial=2) == 1:
        kept = (lengths > 1).repeat(lengths)
        rows, grid, values = rows[kept], grid[kept], values[kept]
    return rows, grid, values


def _canonical(cells):
    """Row-tagged cells with equal neighbours merged and zero cells trimmed at both
    ends of each row, as ``stepfn._canonicalize`` takes one row.

    A point stays where its value differs from the one before it in its row,
    0 before the row's first point: so a NaN cell always stays, and 0.0 and
    -0.0 count as equal.  A row of zeros keeps no point.
    """
    rows, points, values = cells
    before = np.empty(values.size)
    before[:1] = 0.0
    before[1:] = values[:-1]
    before[1:][rows[1:] != rows[:-1]] = 0.0
    keep = values != before
    return rows[keep], points[keep], values[keep]


def _lp_distances(f, g, exponents):
    """||f_i - g_i||_p for every row i of the row-tagged cells f and g, p the
    row's exponent in ``exponents``, each on the merged grid of its two rows,
    as ``stepfn._combined`` takes one pair.

    Each side's value on a cell is read off the merge's placement: a point
    placed at grid point i counts from cell i if it is at or below that
    cell's mid, and from cell i + 1 otherwise, so the running count of a
    side's points is, on each cell, the number of them at or below its mid,
    the index of its value there.  A run of rows that share an exponent takes
    one array power."""
    points = np.concatenate((f[1], g[1]))
    rows, grid, _, at = _placed(np.concatenate((f[0], g[0])), points)
    # the last grid point starts no cell: no point counts past it
    mids = np.full(grid.size, math.inf)
    mids[:-1] = 0.5 * (grid[:-1] + grid[1:])
    after, split = at + (points > mids[at]), f[1].size
    cell = rows[:-1] == rows[1:]
    fm, gm = (np.concatenate(([0.0], v))[np.bincount(i, minlength=grid.size).cumsum()[:-1][cell]]
              for i, v in ((after[:split], f[2]), (after[split:], g[2])))
    terms, rows = np.abs(fm - gm), rows[:-1][cell]
    firsts = [i for i, p in enumerate(exponents) if i == 0 or p != exponents[i - 1]]
    cuts = [*rows.searchsorted(firsts).tolist(), rows.size]
    for i, lo, hi in zip(firsts, cuts, cuts[1:]):
        terms[lo:hi] **= exponents[i]
    terms *= _widths(grid)[cell]
    # numpy's scalar power, as for one pair: its array power may round otherwise
    return [float(np.add.reduce(run) ** (1.0 / p))
            for p, run in zip(exponents, _runs(terms, rows, len(exponents)))]


def _cells(xb, xv):
    """Row-tagged cells of the step functions with cells (xb[i], xv[i]) in row i."""
    values = np.zeros(xb.shape)
    values[:, :xv.shape[1]] = xv
    return np.arange(xb.shape[0]).repeat(xb.shape[1]), xb.ravel(), values.ravel()


def _lattice_sums(ws, x, lattices):
    """Canonical row-tagged cells of sum_k weight <x, dual(a_k, b_k)> primal(a_k, b_k)
    at exponent p, one row for each lattice (a, b, p, weight), in one kernel call."""
    sizes = [lattice[0].size for lattice in lattices]
    a, b, p, weight = zip(*lattices)
    # one lattice is taken as it is: a copy of a large one costs memory
    a, b = (side[0] if len(side) == 1 else np.concatenate(side) for side in (a, b))
    p, weight = _per_member(p, sizes), _per_member(weight, sizes)
    kept, bp, vals = _members(ws, x.breakpoints[None], x.values[None], a, b, _ROW_0, p, weight)
    rows = np.arange(len(lattices)).repeat(sizes)
    return _canonical(_jump_sum(rows[kept], bp, vals))


def _box_sums(x, boxes):
    """The box sums of x, canonical, one row per box, in groups of boxes whose
    lattices hold at most ``_GROUP_SIZE`` members together, or of one box:
    yields (lo, hi, cells) for boxes[lo:hi].

    Each sum is N^-2 * sum over r, s, l, m of coefficient times primal member,
    with the snapped parameters a = l + r/N and b = m + s * 2^l / N.  A group
    builds each of its lattices once, whatever the exponents or repeats that
    share it.
    """
    for lo, hi in _groups([(2 * M * N) ** 2 for _, M, N in boxes]):
        lattices = {box: _box_lattice(*box) for box in dict.fromkeys(
            (M, N) for _, M, N in boxes[lo:hi])}
        yield lo, hi, _lattice_sums(boxes[0][0], x, [(*lattices[M, N], ws.p, 1.0 / (N * N))
                                                   for ws, M, N in boxes[lo:hi]])


def _averaged_sums(x, boxes):
    """The averaged route's sum of x for each box, canonical, one row per box.

    Each conjugated partial sum stays a set of member cells; translating
    them by s/N and dilating by r/N moves every member back, and all the
    boxes' sets are summed by one jump sort.
    """
    bps, vals, out = [], [], []
    for y, (l, m, rows, p), (box, shift, scale, grow, weight) in _conjugate_groups(x, boxes):
        kept, bp, v = _members(boxes[0][0], *y, l, m, rows, p, 1.0)
        rows = rows[kept]
        bps.append((bp + shift[rows]) * scale[rows])
        vals.append(v * grow[rows] * weight[rows])
        out.append(box[rows])
    return _canonical(_jump_sum(np.concatenate(out), np.concatenate(bps), np.concatenate(vals)))


# -- reconstructions ---------------------------------------------------------------


def reconstruction_identity_gaps(systems, x, M_list, N_list):
    """Lp distance between the direct box sum and the conjugate-averaged route
    for every system, M and N, in that order, in one pass.

    The systems share their mother and dual wavelet.  Each gap is the
    ``_lp_distances`` of the two routes' canonical sums at its system's
    exponent, as ``convergence_study`` takes its errors, and has the bits of
    the one-pair distance between the two routes' step functions.
    """
    if len({(ws.mother, ws.dual_mother) for ws in systems}) > 1:
        raise ValueError("the systems must share their mother and dual wavelet")
    boxes = [(ws, M, N) for ws in systems for M in M_list for N in N_list]
    gaps = []
    for lo, hi, direct in _box_sums(x, boxes):
        gaps += _lp_distances(direct, _averaged_sums(x, boxes[lo:hi]),
                              [ws.p for ws, _, _ in boxes[lo:hi]])
    return gaps


@dataclasses.dataclass(frozen=True)
class StudyRow:
    M: int
    N: int
    p: float
    error: float
    oracle_bound: float


def convergence_study(ws, x, M_list, N_list):
    """Error table for box reconstruction of x over a grid of (M, N).

    ``error`` is ||x - box sum||_p.  ``oracle_bound`` is the worst
    conjugated partial-sum error max_{r,s} ||y_{r,s} - P_M y_{r,s}||_p,
    which dominates the error because the fractional dilation-translation
    pair is an isometry of Lp.  The box sums of all rows take their sums and
    distances in one kernel call each, and so do the conjugates of all rows.
    """
    boxes = [(ws, M, N) for M in M_list for N in N_list]
    errors = []
    for lo, hi, sums in _box_sums(x, boxes):
        target = _cells(x.breakpoints[None].repeat(hi - lo, axis=0), x.values[None])
        errors += _lp_distances(target, sums, [ws.p] * (hi - lo))
    bounds = []
    for (yb, yv), (l, m, targets, p), _ in _conjugate_groups(x, boxes):
        count = yb.shape[0]
        kept, bp, vals = _members(ws, yb, yv, l, m, targets, p, 1.0)
        bounds += _lp_distances(_cells(yb, yv),
                                _jump_sum(targets[kept], bp, vals), [ws.p] * count)
    ends = np.cumsum([N * N for _, _, N in boxes]).tolist()
    # np.max keeps a NaN, which Python's max would drop
    return [StudyRow(M=M, N=N, p=ws.p, error=error,
                     oracle_bound=float(np.max(bounds[end - N * N:end])))
            for (_, M, N), error, end in zip(boxes, errors, ends)]
