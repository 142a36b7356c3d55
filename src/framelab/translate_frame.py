"""Integer-translate frames of lp built from a single step function.

A generator f with unit L2 norm against its own integer translates gives
the frame family t -> (coefficient vector (f(t-n))_n used both as vector
and functional).  Validation computes the certificates that make the
construction work: the L1 norm, the sup of the 1-periodized |f|, and the
worst biorthogonality residual over integer lags.  The suppression
constant certificate is the product of the first two.
"""

import dataclasses
import math

import numpy as np

from .intervals import IntervalSet
from .lp import CoordinateVector
from .stepfn import StepFunction

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
    residual = 0.0
    for m in range(-lag_range, lag_range + 1):
        val = f.inner(f.translate(m))
        target = 1.0 if m == 0 else 0.0
        residual = max(residual, abs(val - target))
    if residual > tol:
        failures.append(
            f"translates are not orthonormal: residual {residual:.3e} > {tol:.1e}")
    sup = f.periodized_l1_sup()
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


def sign_pattern(depth):
    """Alternating +1/-1 step function on [0,1) with 2^depth cells, starting at +1."""
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    cells = 2 ** depth
    bp = np.arange(cells + 1) / cells
    vals = np.where(np.arange(cells) % 2 == 0, 1.0, -1.0)
    return StepFunction(bp, vals)


def rademacher_function(spec):
    """The uncertified step function sum_n a_n * (sign pattern translated to [n, n+1)).

    The active coefficient of rank j (by increasing index) gets the pattern
    of dyadic depth j + resolution, so distinct ranks are orthogonal on a
    shared unit interval and disjoint translates never interact.  All
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
    if abs(l2 - 1.0) > 1e-12:
        raise GeneratorRejected(ValidationReport(
            0.0, 0.0, math.inf, 0, VALIDATION_TOL,
            (f"coefficients must have unit l2 norm, got {l2!r}",)))
    pieces = []
    for rank, (n, a) in enumerate(coeffs.items()):
        pieces.append(sign_pattern(rank + spec.resolution).translate(n).scale(a))
    return StepFunction.sum(pieces)


def build_rademacher_generator(spec):
    """Certify :func:`rademacher_function` of ``spec`` as a Generator."""
    return validate_generator(rademacher_function(spec))


def frame_vector(g, t, window):
    """Coefficient vector (f(t - n))_n for |n| <= window; vector and functional alike."""
    ns = np.arange(-window, window + 1)
    vals = g.f.evaluate(float(t) - ns)
    return CoordinateVector({int(n): float(v) for n, v in zip(ns, vals) if v != 0.0})


def translate_series(f, x):
    """sum_n x_n * f(. - n) as a step function."""
    return StepFunction.sum([f.translate(n).scale(c) for n, c in x.items()])


def analysis_function(g, x):
    """The frame coefficient function t -> sum_n x_n f(t - n)."""
    return translate_series(g.f, x)


def synthesis_over_set(g, x, region, window):
    """Candidate restricted reconstruction of x over a parameter set.

    Coordinate m is the integral over ``region`` of the analysis function
    times f(. - m), for |m| <= window.  ``region=None`` means the whole
    line; with full coverage and a validated generator this returns x.
    """
    if region is not None and not isinstance(region, IntervalSet):
        raise TypeError("region must be an IntervalSet or None")
    c = analysis_function(g, x)
    out = {}
    for m in range(-window, window + 1):
        val = c.multiply(g.f.translate(m)).integrate(region)
        if val != 0.0:
            out[m] = val
    return CoordinateVector(out)


def biorthogonality_matrix(g, window):
    """Matrix of inner products of integer translates; identity certifies the frame."""
    ns = range(-window, window + 1)
    translates = [g.f.translate(n) for n in ns]
    size = 2 * window + 1
    mat = np.zeros((size, size))
    for i, fi in enumerate(translates):
        for j, fj in enumerate(translates):
            if j < i:
                mat[i, j] = mat[j, i]
            else:
                mat[i, j] = fi.inner(fj)
    return mat


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
    series = translate_series(f, a)
    lhs = series.lp_norm(p) ** p
    pconj = p / (p - 1.0)
    rhs = f.abs_integral() * a.norm(p) ** p * f.periodized_l1_sup() ** (p / pconj)
    return lhs, rhs
