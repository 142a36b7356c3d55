"""Integer-translate frames of lp built from a single step function.

A generator f with unit L2 norm against its own integer translates gives
the frame family t -> (coefficient vector (f(t-n))_n used both as vector
and functional).  Validation computes the certificates that make the
construction work: the L1 norm, the sup of the 1-periodized |f|, and the
worst biorthogonality residual over integer lags.  The suppression
constant certificate is the product of the first two.

Integer translates line up unit by unit, so every quantity here works on
the unit fold of f (``stepfn._folded``): one fractional grid G on [0, 1)
and a table F[j, i] = f(k0 + j + mid_i).  A translate series is a sum of
shifted rows of F, the Gram lags are an autocorrelation of its rows, and
synthesis is a correlation of the weighted series with F.  Every sum runs
in a fixed order (explicit row loops, ``np.add.reduce`` along a chosen
axis), never through a BLAS reduction.
"""

import dataclasses
import math

import numpy as np

from .intervals import IntervalSet
from .lp import CoordinateVector
from .stepfn import StepFunction, _folded, _periodized_sup

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

    def to_dict(self):
        return {
            "l1_norm": self.l1_norm,
            "periodized_sup": self.periodized_sup,
            "ortho_residual": self.ortho_residual,
            "lag_range": self.lag_range,
            "tol": self.tol,
            "failures": list(self.failures),
            "ok": self.ok,
        }


class GeneratorRejected(ValueError):
    """Raised when a candidate generator fails a validation condition."""

    def __init__(self, report):
        super().__init__("; ".join(report.failures))
        self.report = report


@dataclasses.dataclass(frozen=True)
class Generator:
    """Validated generator plus its frame certificates."""
    f: StepFunction
    l1_norm: float
    periodized_sup: float
    ortho_residual: float
    suppression_constant: float
    lag_range: int


@dataclasses.dataclass(frozen=True)
class RademacherSpec:
    """Coefficients (unit l2 norm) and dyadic depth offset for the coarsest sign pattern."""
    coefficients: CoordinateVector
    resolution: int = 1


def generator_certificates(f, lag_range=None, tol=VALIDATION_TOL):
    """Compute the validation report for a candidate generator."""
    failures = []
    l1 = f.abs_integral()
    if f.is_zero() or l1 == 0.0:
        failures.append("generator is the zero function")
        return ValidationReport(l1, 0.0, math.inf, 0, tol, tuple(failures))
    if lag_range is None:
        lo, hi = f.support()
        lag_range = int(math.ceil(hi - lo))
    _, grid, table = _folded(f)
    # the lag -m equals the lag m, and lags past the table's rows are exactly 0
    lags = _gram_lags(grid, table, min(lag_range + 1, table.shape[0]))
    lags[0] -= 1.0
    residual = float(np.max(np.abs(lags)))
    if not (residual <= tol):
        failures.append(
            f"translates are not orthonormal: residual {residual:.3e} > {tol:.1e}")
    sup = _periodized_sup(table)
    return ValidationReport(l1, sup, residual, lag_range, tol, tuple(failures))


def validate_generator(f, lag_range=None, tol=VALIDATION_TOL):
    """Return a certified Generator or raise GeneratorRejected."""
    report = generator_certificates(f, lag_range, tol)
    if not report.ok:
        raise GeneratorRejected(report)
    return Generator(
        f=f,
        l1_norm=report.l1_norm,
        periodized_sup=report.periodized_sup,
        ortho_residual=report.ortho_residual,
        suppression_constant=report.l1_norm * report.periodized_sup,
        lag_range=report.lag_range,
    )


def rademacher_function(spec):
    """The uncertified step function sum_n a_n * (sign pattern translated to [n, n+1)).

    The active coefficient of rank j (by increasing index) gets the pattern
    of dyadic depth j + resolution, so distinct ranks are orthogonal on a
    shared unit interval and disjoint translates never interact.  Each unit
    is filled directly as a row of the finest depth's cells.  All
    breakpoints are dyadic rationals, hence exact in floats.  Raises
    GeneratorRejected for an empty or non-unit coefficient vector.
    """
    coeffs = spec.coefficients
    if not isinstance(coeffs, CoordinateVector):
        coeffs = CoordinateVector({int(n): v for n, v in dict(coeffs).items()})
    if coeffs.is_zero():
        raise GeneratorRejected(ValidationReport(
            0.0, 0.0, math.inf, 0, VALIDATION_TOL,
            ("coefficient vector is empty",)))
    if not isinstance(spec.resolution, int) or spec.resolution < 1:
        raise ValueError("resolution must be a positive integer")
    l2 = coeffs.norm(2)
    if not (abs(l2 - 1.0) <= 1e-12):
        raise GeneratorRejected(ValidationReport(
            0.0, 0.0, math.inf, 0, VALIDATION_TOL,
            (f"coefficients must have unit l2 norm, got {l2!r}",)))
    support = coeffs.support()
    depth = len(support) - 1 + spec.resolution
    fine = np.arange(2 ** depth)
    rows = np.zeros((support[-1] - support[0] + 1, fine.size))
    for rank, (n, a) in enumerate(coeffs.items()):
        coarse = fine >> (depth - rank - spec.resolution)
        rows[n - support[0]] = np.where(coarse % 2 == 0, 1.0, -1.0) * float(a)
    return _unfold(np.arange(fine.size + 1) / fine.size, [(float(support[0]), rows)])


def build_rademacher_generator(spec):
    """Certify :func:`rademacher_function` of ``spec`` as a Generator."""
    return validate_generator(rademacher_function(spec))


def _runs(x, units):
    """Dense runs (n0, a), a[k] = x_(n0 + k), of the support of a nonzero x.

    The support is cut wherever two consecutive indices lie 2 * units or
    more apart.  Translates of a generator with ``units`` rows from
    different runs then share no unit of their series and no coordinate of
    their synthesis, so each run is computed on its own, and a run holds at
    most 2 * units entries per support index.
    """
    support = np.array(x.support())
    for run in np.split(support, np.flatnonzero(np.diff(support) >= 2 * units) + 1):
        a = np.zeros(run[-1] - run[0] + 1)
        a[run - run[0]] = [x[n] for n in run.tolist()]
        yield int(run[0]), a


def _series(table, a):
    """Rows of sum_k a[k] * f(. - k) on the units of the fold of f.

    Row u holds unit k0 + u of the series (k0 from the fold of f).  Each
    row is summed in increasing k: for a fixed row, k = u - j rises as the
    table row j falls.
    """
    rows = np.zeros((a.size + table.shape[0] - 1, table.shape[1]))
    for j in range(table.shape[0] - 1, -1, -1):
        rows[j:j + a.size] += a[:, None] * table[j]
    return rows


def _unfold(grid, runs):
    """The step function holding rows[u] on [k + u, k + u + 1), cut by grid,
    for each (k, rows) of ``runs`` (increasing, disjoint), and 0 between them."""
    bps, vals = [], []
    for k, rows in runs:
        units = k + np.arange(rows.shape[0], dtype=float)
        bps += [(units[:, None] + grid[:-1]).ravel(), [k + rows.shape[0]]]
        vals += [rows.ravel(), [0.0]]
    return StepFunction(np.concatenate(bps), np.concatenate(vals)[:-1])


def _gram_lags(grid, table, count):
    """<f, f(. - m)> for m = 0 .. count - 1, from the rows of the fold of f."""
    lens = np.diff(grid)
    units = table.shape[0]
    return np.array([np.add.reduce((table[m:] * table[:units - m] * lens).ravel())
                     for m in range(count)])


def _cell_weights(start, units, grid, region):
    """Measure of ``region`` in each cell [start + u + G_i, start + u + G_(i+1)).

    ``region=None`` means the whole line: every cell weighs its length.
    """
    lens = np.diff(grid)
    if region is None:
        return lens
    base = start + np.arange(units, dtype=float)[:, None]
    left = base + grid[:-1]
    right = base + grid[1:]
    weights = np.zeros(left.shape)
    for l, r in region.intervals:
        weights += np.clip(np.minimum(right, r) - np.maximum(left, l), 0.0, None)
    return weights


def synthesis_over_set(g, x, region, window):
    """Candidate restricted reconstruction of x over a parameter set.

    Coordinate m is the integral over ``region`` of the analysis function
    times f(. - m), for |m| <= window.  ``region=None`` means the whole
    line; with full coverage and a validated generator this returns x.
    """
    if region is not None and not isinstance(region, IntervalSet):
        raise TypeError("region must be an IntervalSet or None")
    if x.is_zero() or g.f.is_zero():
        return CoordinateVector()
    k0, grid, table = _folded(g.f)
    units = table.shape[0]
    out = {}
    for n0, a in _runs(x, units):
        series = _series(table, a)
        # pad the series with units - 1 zero rows on both sides; padded row v
        # is the unit first + v, and coordinate n0 - (units - 1) + k reads the
        # padded rows k .. k + units - 1 against the table rows 0 .. units - 1
        padded = np.zeros((series.shape[0] + 2 * (units - 1), series.shape[1]))
        padded[units - 1:units - 1 + series.shape[0]] = series
        first = k0 + n0 - (units - 1)
        weighted = padded * _cell_weights(first, padded.shape[0], grid, region)
        count = a.size + 2 * (units - 1)
        coords = np.zeros(count)
        for j in range(units):
            coords += np.add.reduce(weighted[j:j + count] * table[j], axis=1)
        ms = np.arange(count) + (n0 - (units - 1))
        keep = (np.abs(ms) <= window) & (coords != 0.0)
        out.update(zip(ms[keep].tolist(), coords[keep].tolist()))
    return CoordinateVector(out)


def biorthogonality_matrix(g, window):
    """Matrix of inner products of integer translates; identity certifies the frame.

    Entry (i, j) is the Gram lag |i - j|, so the matrix is Toeplitz.
    """
    _, grid, table = _folded(g.f)
    size = 2 * window + 1
    lags = np.zeros(size)
    count = min(size, table.shape[0])
    lags[:count] = _gram_lags(grid, table, count)
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
    if not p > 1:
        raise ValueError("young_check requires p > 1")
    _, grid, table = _folded(f)
    lhs = 0.0
    if not (a.is_zero() or f.is_zero()):
        for _, run in _runs(a, table.shape[0]):
            series = _series(table, run)
            lhs += float(np.add.reduce((np.abs(series) ** p * np.diff(grid)).ravel()))
    pconj = p / (p - 1.0)
    rhs = f.abs_integral() * a.norm(p) ** p * _periodized_sup(table) ** (p / pconj)
    return lhs, rhs
