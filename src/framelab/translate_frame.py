"""Integer-translate frames of lp built from a single step function.

A generator f with unit L2 norm against its own integer translates gives
the frame family t -> (coefficient vector (f(t-n))_n used both as vector
and functional).  Validation computes the certificates that make the
construction work: the L1 norm, the sup of the 1-periodized |f|, and the
worst biorthogonality residual over integer lags.  The suppression
constant certificate is the product of the first two.

Integer translates line up unit by unit, so every quantity here works on
the unit fold of f (``stepfn._folded``): one fractional grid G on [0, 1)
and a table F[j, i] = f(k0 + j + mid_i).  The fold is built once, when a
generator is certified, and travels with it as ``Generator.fold``; a
Rademacher generator hands over the rows it is filled from.  A translate
series is a sum of shifted rows of F, the Gram lags are an autocorrelation
of its rows, and synthesis is a correlation of the weighted series with F.
Every certificate comes from the fold: the L1 norm is one np.add.reduce of
|F| times the cell widths (``_l1_norm``), the periodized sup the largest
column sum of |F|, and f gives only a step generator's default lag range.
Every sum runs in a fixed order (explicit row loops, ``np.add.reduce``
along a chosen axis), never through a BLAS reduction.

One certifier (``_signs``, ``_gram_lags``, ``_l1_norm``,
``stepfn._periodized_sup``) serves a generator and a young-fuzz chunk of
draws (``_young_chunk``), one array program with no Generator,
StepFunction or CoordinateVector per draw; the sign fill, the lags and the
sup take a stack of folds along leading axes.  Its draws go in groups of
one depth s on their own 2^s cells, and each group's folds and series are
zero-padded; x + 0 is x, so the padding moves no bit of a row-by-row sum.
A sum whose order depends on its length runs on its own cells (a run's
lhs; a draw's L1 norm, on its own fold rows), so every bound equals the
per-draw code's.  Only the Gram lags run padded, within a few roundings
of a draw's own: they just gate the chunk, which a failure certifies again
draw by draw, so a reported residual is always summed on a generator's own
cells.
"""

import dataclasses
import itertools
import math

import numpy as np

from .lp import CoordinateVector, _norm
from .reports import GeneratorRejected
from .stepfn import StepFunction, _folded, _periodized_sup, _widths

VALIDATION_TOL = 1e-10


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    """Per-condition residuals from generator validation."""
    l1_norm: float
    periodized_sup: float
    ortho_residual: float
    lag_range: int
    tol: float
    failures: tuple

    @property
    def ok(self):
        return not self.failures

    @property
    def suppression_constant(self):
        return self.l1_norm * self.periodized_sup

    def to_dict(self):
        return {**dataclasses.asdict(self), "failures": list(self.failures), "ok": self.ok}


@dataclasses.dataclass(frozen=True)
class Generator:
    """Validated generator plus the report that certifies it.

    ``fold`` is the unit fold ``(k0, grid, table)`` of ``f``, built once at
    certification; every translate-frame consumer reads it from here.  Its
    arrays are made read-only.
    """
    f: StepFunction
    report: ValidationReport
    fold: tuple = dataclasses.field(repr=False, compare=False)

    def __post_init__(self):
        for array in self.fold[1:]:
            array.setflags(write=False)

    @property
    def suppression_constant(self):
        return self.report.suppression_constant


@dataclasses.dataclass(frozen=True)
class RademacherSpec:
    """Coefficients (unit l2 norm) and dyadic depth offset for the coarsest sign pattern."""
    coefficients: CoordinateVector
    resolution: int = 1


def _check_lag_range(lag_range):
    if not (lag_range is None or isinstance(lag_range, (int, np.integer)) and lag_range >= 0):
        raise ValueError(f"lag_range must be a nonnegative integer or None, got {lag_range!r}")


def _l1_norm(lens, table):
    """||f||_1 from the unit fold table of f on cells of widths ``lens``: one
    np.add.reduce over the raveled table, grouped by its length."""
    return float(np.add.reduce((np.abs(table) * lens).ravel()))


def _certified(f, fold, lag_range, tol):
    """f, whose unit fold is ``fold``, certified as a Generator over Gram lags
    up to ``lag_range`` (None: the width of the support) at ``tol``, or raise
    GeneratorRejected with the report.  Every certificate is read from the
    fold; f only gives a default ``lag_range``."""
    _, grid, table = fold
    lens = _widths(grid)
    l1 = _l1_norm(lens, table)
    if l1 == 0.0:
        raise GeneratorRejected(ValidationReport(
            l1, 0.0, math.inf, 0, tol, ("generator is the zero function",)))
    if lag_range is None:
        lo, hi = f.support()
        lag_range = int(math.ceil(hi - lo))
    # the lag -m equals the lag m, and lags past the table's rows are exactly 0
    lags = _gram_lags(lens, table, min(lag_range + 1, table.shape[0]))
    lags[0] -= 1.0
    residual = float(np.max(np.abs(lags)))
    failures = () if residual <= tol else (
        f"translates are not orthonormal: residual {residual!r} exceeds {tol!r}",)
    report = ValidationReport(l1, float(_periodized_sup(table)), residual, lag_range, tol,
                              failures)
    if failures:
        raise GeneratorRejected(report)
    return Generator(f, report, fold)


def validate_generator(f, lag_range=None, tol=VALIDATION_TOL):
    """A Generator certified over Gram lags up to ``lag_range`` (None: the width
    of the support) at ``tol``, or raise GeneratorRejected."""
    _check_lag_range(lag_range)
    return _certified(f, _folded(f), lag_range, tol)


def _signs(depth, ranks, resolution):
    """One row of 2^depth cells for each rank r of array ``ranks``: the sign
    pattern of dyadic depth r + resolution, +1 on its even cells and -1 on
    its odd ones."""
    return 1 - 2 * (np.arange(2 ** depth) >> (depth - resolution - ranks[:, None]) & 1)


def build_rademacher_generator(spec, lag_range=None, tol=VALIDATION_TOL):
    """The generator sum_n a_n * (sign pattern translated to [n, n+1)),
    certified as by :func:`validate_generator`, or raise GeneratorRejected.

    The active coefficient of rank j (by increasing index) gets the pattern
    of dyadic depth j + resolution, so distinct ranks are orthogonal on a
    shared unit interval and disjoint translates never interact.  Each unit
    is filled directly as a row of the finest depth's cells; the fold is
    those rows, on the finest depth's grid, starting at the first index of
    the support.  All breakpoints are dyadic rationals, hence exact in
    floats.  An empty or non-unit coefficient vector is rejected before
    certification, with a report at ``lag_range`` (None: the units the
    support spans) and ``tol``.
    """
    _check_lag_range(lag_range)
    coeffs = spec.coefficients
    if not isinstance(coeffs, CoordinateVector):
        coeffs = CoordinateVector(dict(coeffs))
    support = coeffs.support()
    if lag_range is None:
        lag_range = support[-1] - support[0] + 1 if support else 0
    if coeffs.is_zero():
        raise GeneratorRejected(ValidationReport(
            0.0, 0.0, math.inf, lag_range, tol, ("coefficient vector is empty",)))
    if not isinstance(spec.resolution, int) or spec.resolution < 1:
        raise ValueError("resolution must be a positive integer")
    l2 = coeffs.norm(2)
    if not (abs(l2 - 1.0) <= 1e-12):
        raise GeneratorRejected(ValidationReport(
            0.0, 0.0, math.inf, lag_range, tol,
            (f"coefficients must have unit l2 norm, got {l2!r}",)))
    depth = len(support) - 1 + spec.resolution
    rows = np.zeros((support[-1] - support[0] + 1, 2 ** depth))
    ranks, values = np.arange(len(support)), [[float(coeffs[n])] for n in support]
    rows[np.array(support) - support[0]] = _signs(depth, ranks, spec.resolution) * values
    k0 = float(support[0])
    grid = np.arange(rows.shape[1] + 1) / rows.shape[1]
    return _certified(_unfold(k0, grid, rows), (k0, grid, rows), lag_range, tol)


def _runs(x, units):
    """Dense runs (n0, a), a[k] = x_(n0 + k), of the support of a nonzero x.

    The support is cut wherever two consecutive indices lie 2 * units or
    more apart.  Translates of a generator with ``units`` rows from
    different runs then share no unit of their series and no coordinate of
    their synthesis, so each run is computed on its own, and a run holds at
    most 2 * units entries per support index.
    """
    support = np.array(x.support())
    for run in np.split(support, np.flatnonzero(_widths(support) >= 2 * units) + 1):
        a = np.zeros(run[-1] - run[0] + 1)
        a[run - run[0]] = [x[n] for n in run.tolist()]
        yield int(run[0]), a


def _series(table, a):
    """Rows of sum_k a[k] * f(. - k) on the units of the fold of f, one series
    for each index of the leading axes that ``table`` and ``a`` share.

    Row u holds unit k0 + u of the series (k0 from the fold of f), summed in
    increasing k.  One short run adds a[k] * table to rows k.., a contiguous
    block a coefficient; a stack of runs or a long one adds table row j
    times a to rows j.. for falling j, an outer product a row, whose
    elements cost about twice a block's.  With a numpy call worth about 3000
    added elements, the blocks win while n * (3000 - block) < units * 3000.
    """
    units, n = table.shape[-2], a.shape[-1]
    rows = np.zeros(a.shape[:-1] + (n + units - 1, table.shape[-1]))
    if a.ndim == 1 and n * (3000 - table.size) < units * 3000:
        # a Python float scales a table faster than a numpy scalar does
        for k, c in enumerate(a.tolist()):
            rows[k:k + units] += c * table
    else:
        for j in range(units - 1, -1, -1):
            rows[..., j:j + n, :] += a[..., None] * table[..., j, None, :]
    return rows


def _unfold(k, grid, rows):
    """The step function holding rows[u] on [k + u, k + u + 1), cut by grid."""
    units = k + np.arange(rows.shape[0], dtype=float)
    return StepFunction(np.concatenate(((units[:, None] + grid[:-1]).ravel(),
                                        [k + rows.shape[0]])), rows.ravel())


def _gram_lags(lens, tables, count):
    """<f, f(. - m)> for m = 0 .. count - 1 (the leading axis of the result),
    from the rows of the fold table of f on cells of widths ``lens``; one f
    for each table (units, cells) along the leading axes of ``tables``.
    Each lag is one ``np.add.reduce`` over that table's raveled products,
    whose grouping depends on the number of rows."""
    units = tables.shape[-2]
    return np.array([np.add.reduce((tables[..., m:, :] * tables[..., :units - m, :] * lens)
                                   .reshape(tables.shape[:-2] + (-1,)), axis=-1)
                     for m in range(count)])


def _synthesis(g, n0, a, window):
    """Coordinates m = -window .. window, at m + window, of the synthesis of
    the dense run x_(n0 + k) = a[k]: as in :func:`synthesis_over_set`."""
    _, grid, table = g.fold
    units = table.shape[0]
    # pad the series with units - 1 zero rows on both sides; coordinate
    # n0 - (units - 1) + k reads the padded rows k .. k + units - 1
    # against the table rows 0 .. units - 1
    count = a.size + 2 * (units - 1)
    weighted = np.zeros((count + units - 1, table.shape[1]))
    weighted[units - 1:count] = _series(table, a) * _widths(grid)
    coords = np.zeros(count)
    for j in range(units):
        coords += np.add.reduce(weighted[j:j + count] * table[j], axis=1)
    ms = np.arange(count) + (n0 - (units - 1))
    keep = np.abs(ms) <= window
    out = np.zeros(2 * window + 1)
    out[ms[keep] + window] = coords[keep]
    return out


def synthesis_over_set(g, x, window):
    """Reconstruction of x from its analysis function, over the whole line.

    Coordinate m is the integral of the analysis function times f(. - m),
    for |m| <= window.  With a validated generator this returns x.  The
    dense runs of x go through :func:`_synthesis` on disjoint coordinates.
    """
    if x.is_zero():
        return CoordinateVector()
    coords = np.zeros(2 * window + 1)
    for n0, a in _runs(x, g.fold[2].shape[0]):
        coords += _synthesis(g, n0, a, window)
    return CoordinateVector(zip(range(-window, window + 1), coords.tolist()))


def biorthogonality_matrix(g, window):
    """Matrix of inner products of integer translates; identity certifies the frame.

    Entry (i, j) is the Gram lag |i - j|, so the matrix is Toeplitz.
    """
    _, grid, table = g.fold
    size = 2 * window + 1
    lags = np.zeros(size)
    count = min(size, table.shape[0])
    lags[:count] = _gram_lags(_widths(grid), table, count)
    offsets = np.arange(size)
    return lags[np.abs(offsets[:, None] - offsets[None, :])]


def young_check(f, a, p):
    """Both sides of the translated-series norm bound.

    Returns (lhs, rhs) with lhs the p-th power of the Lp norm of
    sum_n a_n f(. - n) and rhs the certified bound
    ||f||_1 * ||a||_p^p * (periodized sup of |f|)^(p/p'), where p' is the
    conjugate exponent.  lhs <= rhs always; equality holds for a unit
    indicator generator with a single coefficient.
    """
    # a NaN fails both comparisons; an infinite p has no finite conjugate
    if not 1.0 < p < math.inf:
        raise ValueError("young_check requires 1 < p < inf")
    _, grid, table = _folded(f)
    lhs = 0.0
    # the zero function folds to a table with no rows
    if not (a.is_zero() or table.shape[0] == 0):
        for _, run in _runs(a, table.shape[0]):
            series = _series(table, run)
            lhs += float(np.add.reduce((np.abs(series) ** p * _widths(grid)).ravel()))
    pconj = p / (p - 1.0)
    rhs = (_l1_norm(_widths(grid), table) * a.norm(p) ** p
           * float(_periodized_sup(table)) ** (p / pconj))
    return lhs, rhs


# Draws one young-fuzz kernel call holds.  A draw's fold is at most 7 x 128
# cells and its series 19 x 128: about 70 KB with temporaries, under 20 MB a call.
_YOUNG_CHUNK = 256


def _young_bounds(draws):
    """:func:`young_check`'s (lhs, rhs) of each draw of an iterable, computed
    :data:`_YOUNG_CHUNK` draws at a time by :func:`_young_chunk`."""
    draws = iter(draws)
    while chunk := list(itertools.islice(draws, _YOUNG_CHUNK)):
        yield from zip(*_young_chunk(chunk)[:2])


def _entries(dicts):
    """(dict, key, value) arrays of the nonzero entries of ``dicts``, by dict
    and then by key: the order a CoordinateVector holds them in."""
    which = np.repeat(np.arange(len(dicts)), [len(d) for d in dicts])
    keys = np.fromiter(itertools.chain.from_iterable(dicts), int, which.size)
    values = np.fromiter(itertools.chain.from_iterable(d.values() for d in dicts), float,
                         which.size)
    order = np.lexsort((keys, which))
    order = order[values[order] != 0]
    return which[order], keys[order], values[order]


def _young_chunk(chunk):
    """Lists (lhs, rhs, ||f||_1, periodized sup of |f|) of :func:`young_check`
    over draws (coefficients, a, p): f the Rademacher generator of the dict
    ``coefficients`` at resolution 1, a a dict of finite entries.

    Every float is the per-draw code's.  Draws go in groups of one depth s
    (number of coefficients) on 2^s cells, by p within a group; zero padding
    of a group's folds and runs (``_runs``) moves no bit, as x + 0 is x, and
    each sum whose order depends on its length runs on its own cells (lhs
    per run, ||f||_1 per draw).  If an array certificate fails, each draw is
    certified again by build_rademacher_generator, which raises.
    """
    def recertify():
        for coefficients, _, _ in chunk:
            build_rademacher_generator(RademacherSpec(coefficients), None, VALIDATION_TOL)

    order = sorted(range(len(chunk)),
                   key=lambda i: (sum(c != 0 for c in chunk[i][0].values()), chunk[i][2]))
    ps = np.array([chunk[i][2] for i in order])
    # (draw, index, value) of each generator coefficient, and of each entry of a
    gd, gi, gv = _entries([chunk[i][0] for i in order])
    sd, si, sv = _entries([chunk[i][1] for i in order])
    if not np.all(np.abs(np.sqrt(np.bincount(gd, gv * gv, ps.size)) - 1.0) <= 1e-12):
        recertify()
    depth = np.bincount(gd, minlength=ps.size)
    first = np.cumsum(depth) - depth
    unit = gi - gi[first][gd]
    units = unit[first + depth - 1] + 1
    # a run of a starts at each draw's first entry and after each gap of 2 units or more
    starts = np.ones(sd.size, dtype=bool)
    starts[1:] = (sd[1:] != sd[:-1]) | (_widths(si) >= 2 * units[sd[1:]])
    run = np.cumsum(starts) - 1
    run_draw, offset = sd[starts], si - si[starts][run]
    length = np.maximum.reduceat(offset, np.flatnonzero(starts)) + 1
    sums, l1, sup, residual = (np.zeros(n) for n in (run_draw.size, *[ps.size] * 3))
    for s in sorted(set(depth.tolist())):
        # the group's draws, generator coefficients, runs and entries of a
        lo, hi = np.searchsorted(depth, [s, s + 1]).tolist()
        (e0, e1), (r0, r1), (f0, f1) = (np.searchsorted(k, [lo, hi]).tolist()
                                        for k in (gd, run_draw, sd))
        rows = np.zeros((hi - lo, units[lo:hi].max(), 2 ** s))
        rank = np.arange(e0, e1) - first[gd[e0:e1]]
        rows[gd[e0:e1] - lo, unit[e0:e1]] = _signs(s, rank, 1) * gv[e0:e1, None]
        lens = np.full(2 ** s, 2.0 ** -s)
        sup[lo:hi] = _periodized_sup(rows)
        l1[lo:hi] = [_l1_norm(lens, r[:n]) for r, n in zip(rows, units[lo:hi].tolist())]
        lags = _gram_lags(lens, rows, rows.shape[1])
        lags[0] -= 1.0
        residual[lo:hi] = np.max(np.abs(lags), axis=0)
        a = np.zeros((r1 - r0, length[r0:r1].max(initial=1)))
        a[run[f0:f1] - r0, offset[f0:f1]] = sv[f0:f1]
        series = _series(rows[run_draw[r0:r1] - lo], a)
        rp = ps[run_draw[r0:r1]]
        # |series| ** p * width in place; ** p takes np.square at p = 2, as before
        np.abs(series, out=series)
        for p in sorted(set(rp.tolist())):
            q = series[np.searchsorted(rp, p):np.searchsorted(rp, p, "right")]
            q **= p
        series *= 2.0 ** -s
        counts = (length[r0:r1] + units[run_draw[r0:r1]] - 1) * 2 ** s
        sums[r0:r1] = [np.add.reduce(x.ravel()[:n]) for x, n in zip(series, counts.tolist())]
    if not np.all(residual <= VALIDATION_TOL):
        recertify()
    cuts = np.cumsum(np.bincount(sd, minlength=ps.size)).tolist()
    values = sv.tolist()
    rhs = [f1 * _norm(values[lo:hi], p) ** p
           * top ** (p / (p / (p - 1.0)))
           for f1, top, p, lo, hi in zip(l1.tolist(), sup.tolist(), ps.tolist(),
                                          [0] + cuts[:-1], cuts)]
    back = np.argsort(order)
    return [np.asarray(x)[back].tolist()
            for x in (np.bincount(run_draw, sums, ps.size), rhs, l1, sup)]

