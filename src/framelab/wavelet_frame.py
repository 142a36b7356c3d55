"""Continuously parametrized wavelet reconstruction on Lp via grid snapping.

The family here is the dilation-translation orbit of a step wavelet:
primal members carry the Lp normalization 2^(a/p) psi(2^a t - b), dual
members the conjugate-exponent normalization of the dual wavelet.  The
continuous parameters (a, b) are snapped to a resolution-N lattice whose
translation step scales with the integer part of a; on each lattice cell
the snapped member is constant, so the double integral of coefficient
times member over the box [-M, M]^2 collapses to an exact finite sum
(``box_reconstruct``).

An independent route to the same sum conjugates the target by the
fractional dilation-translation pair, applies the plain integer-grid
partial reconstruction, transforms back and averages
(``averaged_conjugate_reconstruction``).  The two agree up to float
rounding; their difference is the identity check the experiments report.
The reconstruction error of the box sum is bounded by the worst conjugated
partial-sum error, which is what ``convergence_study`` tabulates.

Every route runs on one lattice kernel, which works on rows of targets: x
alone, or a group of its conjugates y_{r,s} in one call.  Each coefficient
is the rise of a target's antiderivative across a member's cells, read by
np.interp once per target row; each row's sum of members is one sort of
their jumps and one cumulative sum along the row (``_jump_sum``); and the
distance from each sum to its target is one merge for all rows and one
np.add.reduce per row (``_lp_distances``).  The box
sum takes the fractional lattice a = l + r/N, b = m + s 2^l / N against x.
The oracle bound and the averaged route take the integer lattice (l, m)
against the conjugates, as many rows a call as a fixed size allows (all
N^2 of them at the sizes the experiments use); the averaged route then
moves every member back by its row's pair.
"""

import dataclasses
import functools

import numpy as np

from .stepfn import MERGE_ULPS, StepFunction, _merge, _widths, haar_mother


@dataclasses.dataclass(frozen=True)
class WaveletSystem:
    """Mother wavelet, dual wavelet and the exponent pair they act on."""
    mother: StepFunction
    dual_mother: StepFunction
    p: float

    def __post_init__(self):
        if not 1.0 < self.p:
            raise ValueError("p must exceed 1")

    @property
    def p_conj(self):
        return self.p / (self.p - 1.0)

    @classmethod
    def haar(cls, p):
        """Self-dual Haar system; the default for every experiment."""
        return cls(haar_mother(), haar_mother(), float(p))

    @functools.cached_property
    def _unit_cells(self):
        """Cells (breakpoints, values) of the primal and the dual member at (0, 0)."""
        cells = {}
        for side in ("primal", "dual"):
            f = member(self, 0.0, 0.0, side)
            cells[side] = (f.breakpoints, f.values)
        return cells


def member(ws, a, b, side="primal"):
    """Family member at parameters (a, b): dilate by a after translating by b.

    ``side="primal"`` uses the mother and exponent p, ``side="dual"`` the
    dual mother and the conjugate exponent.
    """
    if side == "primal":
        return ws.mother.translate(b).dilate(a, ws.p)
    if side == "dual":
        return ws.dual_mother.translate(b).dilate(a, ws.p_conj)
    raise ValueError("side must be 'primal' or 'dual'")


# -- the lattice kernel -----------------------------------------------------------
#
# Targets sit in the rows of 2-D arrays of cells (breakpoints, values).  Each
# lattice member names the target row it analyses and each sum of members is
# a row of the output.  Sums are held as row-tagged cells (keys, values):
# complex keys row + i point (``_keys``), which numpy sorts by row, then point,
# and values[j] held from point j to the next point of its row, 0 after the
# row's last point.  ``rows`` names the row of each member or function, or
# holds one row for them all (``_ROW_0``).  Members come in row order, so a
# row's members, and its cells of a merged grid, are one contiguous run: the
# per-row steps, np.interp and np.add.reduce, take each run (``_runs``).  A
# single target is the one-row case, in which the merge is ``_merge`` of the
# points, and a search and the cumulative sum take the points alone.

# Target breakpoints and lattice members, over all its rows, that one kernel
# call takes at most: a row's N^2 conjugates go in groups of as many as that
# allows, and at least one, so that no call holds N^2 copies of a many-cell
# target or of a large lattice at once.
_GROUP_SIZE = 2 ** 13

# Row 0 for every member or function: ``rows`` of a single row.
_ROW_0 = np.zeros(1, dtype=np.intp)
_ROW_0.setflags(write=False)


def _pairs(lo, hi):
    """Every (u, v) with lo <= u, v < hi as two float arrays, u outer."""
    side = np.arange(lo, hi, dtype=float)
    return side.repeat(side.size), _tile(side, side.size)


def _tile(a, n):
    """``np.tile(a, n)`` for a 1-D ``a``, without its wrapper cost."""
    return a[None].repeat(n, axis=0).ravel()


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


def _conjugate_groups(ws, x, M, N):
    """The conjugates y_{r,s} of x in the order r, s, in groups of rows, each
    with the integer lattice (l, m) of [-M, M]^2 against every row.

    y_{r,s} is x dilated by -r/N, then translated by -s/N.  A group holds
    as many conjugates as ``_GROUP_SIZE`` allows.  Yields, per group, the
    cells (yb, yv) with one row per conjugate; the lattice
    (l, m, rows), each member with the row it analyses; and per row the
    shift s/N, the scale 2^(-(r/N)) and the weight 2^((r/N)/p) that move
    that row's members back.  Each factor is computed as a Python float,
    as for one conjugate at a time.
    """
    _check(M, N)
    offsets = np.array([(2.0 ** (r / N), -s / N, 2.0 ** ((-r / N) / ws.p),
                         s / N, 2.0 ** (-(r / N)), 2.0 ** ((r / N) / ws.p))
                        for r in range(N) for s in range(N)]).T[:, :, None]
    l, m = _pairs(-M, M)
    size = min(N * N, max(1, _GROUP_SIZE // (x.breakpoints.size + l.size)))
    lattice = _tile(l, size), _tile(m, size), np.arange(size).repeat(l.size)
    for lo in range(0, N * N, size):
        grow, shift, shrink, *back = offsets[:, lo:lo + size]
        n = grow.shape[0] * l.size
        yield ((x.breakpoints * grow + shift, x.values * shrink),
               (lattice[0][:n], lattice[1][:n], lattice[2][:n]), back)


def _keys(rows, points):
    """Complex keys rows + i points, flat, for ``rows`` that broadcast to ``points``."""
    keys = np.empty(points.shape, dtype=complex)
    keys.real = rows
    keys.imag = points
    return keys.ravel()


def _runs(a, rows, count):
    """``a`` cut into the runs of rows 0 .. count - 1, ``rows`` nondecreasing:
    ``np.split`` at the row starts, without its per-run wrapper cost."""
    cuts = [0, *rows.searchsorted(np.arange(1, count)).tolist(), len(a)]
    return [a[i:j] for i, j in zip(cuts, cuts[1:])]


def _coefficients(ws, xb, xv, a, b, rows):
    """<x, dual(a_k, b_k)> for every k, x the target with cells (xb, xv)[rows[k]];
    ``rows`` does not decrease.

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
    q = (b[:, None] + db) * 2.0 ** (-a[:, None])
    runs = _runs(q, rows, xb.shape[0])
    rise = _widths(np.concatenate([np.interp(*row) for row in zip(runs, xb, X)]))
    return np.add.reduce(rise * dv, axis=1) * 2.0 ** (a / ws.p_conj)


def _members(ws, xb, xv, a, b, rows, weight):
    """Cells of weight * <x, dual_k> primal_k for each k whose coefficient is not
    0, x the target rows[k].

    Returns ``(kept, breakpoints, values)``: the kept k, in order, and one
    row of cells for each.
    """
    coef = _coefficients(ws, xb, xv, a, b, rows)
    kept = coef.nonzero()[0]
    a, b = a[kept, None], b[kept, None]
    pb, pv = ws._unit_cells["primal"]
    return (kept, (b + pb) * 2.0 ** (-a),
            (pv * 2.0 ** (a / ws.p)) * (coef[kept, None] * weight))


def _merged(keys, count):
    """``_merge`` within each of the ``count`` rows of the points in ``keys``.

    Returns ``(grid, starts)``: the row-tagged grid points and where each
    row starts among them.  A row's magnitude is its largest |point|; one
    row is ``_merge`` of its points.
    """
    if count == 1:
        return _keys(0, _merge(keys.imag)), _ROW_0[:keys.size]
    grid = np.sort(keys)
    rows, points = grid.real, grid.imag
    keep = np.empty(grid.size, dtype=bool)
    keep[:1] = True
    keep[1:] = rows[1:] != rows[:-1]
    starts = keep.nonzero()[0]
    tol = MERGE_ULPS * np.spacing(np.maximum.reduceat(np.abs(points), starts))
    keep[1:] |= _widths(points) > tol[keep.cumsum()[1:] - 1]
    return grid[keep], keep.cumsum()[starts] - 1


def _search(keys, queries, count):
    """How many of the sorted ``keys`` lie at or below each of ``queries``, both
    row-tagged, in ``count`` rows; one row is searched by its points alone."""
    if count == 1:
        return keys.imag.searchsorted(queries.imag, side="right")
    return keys.searchsorted(queries, side="right")


def _jump_sum(rows, bp, vals, count):
    """Row-tagged cells of the sums of the step functions with cells (bp[k], vals[k]):
    row i < count sums the functions k with rows[k] = i.

    Each function turns into jumps at its breakpoints.  Each row's
    breakpoints are merged into one grid by ``_merged``, and each breakpoint
    is placed at the last grid point at or below it, the one it merged into.
    ``np.bincount`` adds the jumps at their grid points in input order and a
    cumulative sum along each row gives the values.  A cell that no function
    covers is exactly 0: an integer count of covering functions decides.  A
    row whose grid has fewer than two points has no cell and is dropped.
    """
    keys = _keys(rows[:, None], bp)
    grid, starts = _merged(keys, count)
    lengths = _widths(np.concatenate((starts, [grid.size])))
    at = (_search(grid, keys, count) - 1).reshape(bp.shape)
    del keys     # a batch of rows holds many points
    padded = np.zeros((vals.shape[0], vals.shape[1] + 2))
    padded[:, 1:-1] = vals
    jumps = np.bincount(at.ravel(), _widths(padded).ravel(), grid.size)
    covering = (np.bincount(at[:, 0], minlength=grid.size)
                - np.bincount(at[:, -1], minlength=grid.size)).cumsum()
    if count == 1:
        running = jumps.cumsum()
    else:
        # each row's running sum starts at 0: take it along a zero-padded table's rows
        width = np.maximum.reduce(lengths, initial=0)
        cell = np.arange(grid.size) + (np.arange(lengths.size) * width - starts).repeat(lengths)
        table = np.zeros(lengths.size * width)
        table[cell] = jumps
        running = table.reshape(lengths.size, width).cumsum(axis=1).ravel()[cell]
    values = np.where(covering > 0, running, 0.0)
    if np.minimum.reduce(lengths, initial=2) == 1:
        kept = (lengths > 1).repeat(lengths)
        grid, values = grid[kept], values[kept]
    return grid, values


def _lp_distances(f, g, p, count):
    """||f_i - g_i||_p for every row i < count of the row-tagged cells f and g,
    each on the merged grid of its two rows, as ``_combined`` takes one pair."""
    grid, _ = _merged(np.concatenate((f[0], g[0])), count)
    rows, points = grid.real, grid.imag
    cell = rows[:-1] == rows[1:]
    mids = _keys(rows[:-1], 0.5 * (points[:-1] + points[1:]))[cell]
    fm = np.concatenate(([0.0], f[1]))[_search(f[0], mids, count)]
    gm = np.concatenate(([0.0], g[1]))[_search(g[0], mids, count)]
    terms = np.abs(fm - gm) ** p * _widths(points)[cell]
    # numpy's scalar power, as for one pair: its array power may round otherwise
    return [np.add.reduce(run) ** (1.0 / p) for run in _runs(terms, mids.real, count)]


def _cells(rows, xb, xv):
    """Row-tagged cells of the step functions with cells (xb[i], xv[i]) in rows[i]."""
    values = np.zeros(xb.shape)
    values[:, :xv.shape[1]] = xv
    return _keys(rows, xb), values.ravel()


def _function(cells):
    """Row-tagged cells of a single row as a StepFunction."""
    keys, values = cells
    return StepFunction(keys.imag, values[:-1])


def _lattice_sum(ws, x, a, b, weight):
    """weight * sum_k <x, dual(a_k, b_k)> primal(a_k, b_k) as one step function."""
    _, bp, vals = _members(ws, x.breakpoints[None], x.values[None], a, b, _ROW_0, weight)
    return _function(_jump_sum(_ROW_0, bp, vals, 1))


# -- reconstructions ---------------------------------------------------------------


def box_reconstruct(ws, x, M, N):
    """Exact value of the snapped reconstruction integral over the box [-M, M]^2.

    The snapped member is constant on each parameter lattice cell of area
    1/N^2, so the double integral equals the cell sum
    N^-2 * sum over r, s, l, m of coefficient times primal member, with the
    snapped parameters a = l + r/N and b = m + s * 2^l / N.
    """
    return _lattice_sum(ws, x, *_box_lattice(M, N), 1.0 / (N * N))


def averaged_conjugate_reconstruction(ws, x, M, N):
    """Second route to the box sum: conjugate, reconstruct on the integer grid,
    transform back, average over the N^2 fractional offsets.

    Each conjugated partial sum stays a set of member cells; translating
    them by s/N and dilating by r/N moves every member back, and all N^2
    sets are summed by one jump sort.
    """
    bps, vals = [], []
    for y, (l, m, rows), (shift, scale, grow) in _conjugate_groups(ws, x, M, N):
        kept, bp, v = _members(ws, *y, l, m, rows, 1.0)
        rows = rows[kept]
        bps.append((bp + shift[rows]) * scale[rows])
        vals.append(v * grow[rows] * (1.0 / (N * N)))
    return _function(_jump_sum(_ROW_0, np.concatenate(bps), np.concatenate(vals), 1))


def reconstruction_identity_gap(ws, x, M, N):
    """Lp distance between the direct box sum and the conjugate-averaged route."""
    direct = box_reconstruct(ws, x, M, N)
    averaged = averaged_conjugate_reconstruction(ws, x, M, N)
    return direct.add(averaged.scale(-1.0)).lp_norm(ws.p)


@dataclasses.dataclass(frozen=True)
class StudyRow:
    M: int
    N: int
    p: float
    error: float
    oracle_bound: float


def convergence_study(ws, x, M_list, N_list):
    """Error table for box reconstruction of x over a grid of (M, N).

    ``error`` is ||x - box_reconstruct||_p.  ``oracle_bound`` is the worst
    conjugated partial-sum error max_{r,s} ||y_{r,s} - P_M y_{r,s}||_p,
    which dominates the error because the fractional dilation-translation
    pair is an isometry of Lp.  Each group of conjugates takes its partial
    sums and their distances in one kernel call each.
    """
    target = _cells(0, x.breakpoints[None], x.values[None])
    rows = []
    for M in M_list:
        for N in N_list:
            approx = box_reconstruct(ws, x, M, N)
            [error] = _lp_distances(
                target, _cells(0, approx.breakpoints[None], approx.values[None]), ws.p, 1)
            bounds = []
            for (yb, yv), (l, m, targets), _ in _conjugate_groups(ws, x, M, N):
                count = yb.shape[0]
                kept, bp, vals = _members(ws, yb, yv, l, m, targets, 1.0)
                bounds += _lp_distances(_cells(np.arange(count)[:, None], yb, yv),
                                        _jump_sum(targets[kept], bp, vals, count),
                                        ws.p, count)
            # np.max keeps a NaN, which Python's max would drop
            rows.append(StudyRow(M=M, N=N, p=ws.p, error=float(error),
                                 oracle_bound=float(np.max(bounds))))
    return rows
