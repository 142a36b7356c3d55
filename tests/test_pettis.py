"""Tests for set-restricted integral suprema and unconditionality scans.

The sup over measurable sets E of |integral_E c*d| is the larger of the
two sign parts of the product (``pettis._sign_parts``).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from framelab import (
    CoordinateVector,
    RademacherSpec,
    StepFunction,
    build_rademacher_generator,
    haar_mother,
    unconditionality_scan,
)
from framelab import pettis
from framelab.pettis import _sign_parts
from framelab.stepfn import _combined, _folded
from framelab.translate_frame import Generator

import exact
from reference_orbit import scale


def pointwise_product(c, d):
    """The pointwise product c*d."""
    return StepFunction(*_combined((c.breakpoints, c.values), (d.breakpoints, d.values),
                                   np.multiply))


def sign_parts(c, d):
    """(positive part, negative part) of the integral of c*d."""
    cd = pointwise_product(c, d)
    # _sign_parts scales its cells in place, and a StepFunction's are read-only
    return _sign_parts(cd.values.copy(), np.diff(cd.breakpoints))


def integral_over(f, pairs):
    """Integral of f over the union of the disjoint intervals [l, r) in ``pairs``."""
    left, right = f.breakpoints[:-1], f.breakpoints[1:]
    return sum(float(np.dot(f.values, np.clip(np.minimum(right, r) - np.maximum(left, l),
                                              0.0, None)))
               for l, r in pairs)


def test_haar_against_indicator():
    # product is +1 on [0, 1/2) and -1 on [1/2, 1): both parts are 1/2
    assert sign_parts(haar_mother(), StepFunction.indicator(0.0, 1.0)) == (0.5, 0.5)
    assert sign_parts(haar_mother(), StepFunction.indicator(0.0, 0.75)) == (0.5, 0.25)


def test_witness_attains_supremum():
    # each part is attained on the cells where the product has that sign
    rng = np.random.default_rng(17)
    for _ in range(60):
        c = random_step(rng)
        d = random_step(rng)
        cd = pointwise_product(c, d)
        cells = list(zip(cd.breakpoints[:-1], cd.breakpoints[1:], cd.values))
        positive = [(l, r) for l, r, v in cells if v > 0]
        negative = [(l, r) for l, r, v in cells if v < 0]
        pos, neg = sign_parts(c, d)
        assert integral_over(cd, positive) == pytest.approx(pos, rel=1e-12, abs=1e-12)
        assert -integral_over(cd, negative) == pytest.approx(neg, rel=1e-12, abs=1e-12)


def test_random_sets_stay_below_supremum():
    rng = np.random.default_rng(18)
    c = random_step(rng)
    d = random_step(rng)
    cd = pointwise_product(c, d)
    sup = max(sign_parts(c, d))
    for _ in range(1000):
        # up to four disjoint intervals inside [-6, 6)
        points = np.sort(rng.uniform(-6.0, 6.0, size=2 * int(rng.integers(1, 5))))
        assert abs(integral_over(cd, points.reshape(-1, 2))) <= sup + 1e-10


def test_supremum_symmetry_and_homogeneity():
    rng = np.random.default_rng(19)
    for _ in range(30):
        c = random_step(rng)
        d = random_step(rng)
        alpha = float(rng.uniform(0.1, 3.0))
        s1 = max(sign_parts(c, d))
        s2 = max(sign_parts(d, c))
        s3 = max(sign_parts(scale(c, alpha), d))
        assert s1 == pytest.approx(s2, rel=1e-12, abs=1e-14)
        assert s3 == pytest.approx(alpha * s1, rel=1e-12, abs=1e-14)


def test_zero_product_gives_empty_witness():
    # disjoint supports: the product has no cell and both parts are 0
    assert sign_parts(StepFunction.indicator(0.0, 1.0),
                      StepFunction.indicator(2.0, 3.0)) == (0.0, 0.0)


def test_scan_ordering_on_shared_draws():
    g = build_rademacher_generator(
        RademacherSpec(coefficients={0: 0.6, 1: 0.8}))
    bs, bu = unconditionality_scan(g, trials=60, window=6, p=2.0, seed=0)
    assert 0.0 < bs <= bu <= 2.0 * bs + 1e-12
    assert bs <= g.suppression_constant + 1e-8


def test_scan_is_deterministic():
    g = build_rademacher_generator(RademacherSpec(coefficients={0: 1.0}))
    a = unconditionality_scan(g, trials=40, window=5, p=1.5, seed=7)
    b = unconditionality_scan(g, trials=40, window=5, p=1.5, seed=7)
    assert a == b


@pytest.mark.parametrize("p", [1.0, math.inf, math.nan])
def test_scan_rejects_an_exponent_outside_one_to_inf(p):
    # at p = inf the conjugate is NaN, and the scan died inside the lp norm
    g = build_rademacher_generator(RademacherSpec(coefficients={0: 1.0}))
    with pytest.raises(ValueError, match="unconditionality_scan requires 1 < p < inf"):
        unconditionality_scan(g, trials=2, window=1, p=p)


def random_step(rng):
    n = int(rng.integers(1, 6))
    grid = np.sort(rng.choice(np.arange(-80, 81), size=n + 1, replace=False)) / 16.0
    return StepFunction(grid, rng.standard_normal(n))


def test_scan_keeps_a_nan_ratio(monkeypatch):
    g = build_rademacher_generator(RademacherSpec(coefficients={0: 1.0}))
    calls = [0]
    original = pettis._sign_parts

    def one_nan(vals, lens):
        calls[0] += 1
        return (math.nan, math.nan) if calls[0] == 2 else original(vals, lens)

    monkeypatch.setattr(pettis, "_sign_parts", one_nan)
    bs, bu = unconditionality_scan(g, trials=5, window=2, p=2.0, seed=0)
    assert calls[0] == 5
    assert math.isnan(bs) and math.isnan(bu)


def test_scan_of_a_nan_generator_reports_nan():
    f = StepFunction([0.0, 0.5, 1.0], [math.nan, 1.0])
    bs, bu = unconditionality_scan(Generator(f, None, _folded(f)), trials=3,
                                   window=1, p=2.0)
    assert math.isnan(bs) and math.isnan(bu)


# -- the exact rational oracle ---------------------------------------------------


def exact_parts(c, d):
    """(positive part, negative part) of the integral of c d, for exact cells c and d."""
    pos = neg = Fraction(0)
    for lo, hi, mid in exact.cells(c[0] + d[0]):
        v = (hi - lo) * exact.value(c, mid) * exact.value(d, mid)
        pos += max(v, 0)
        neg += max(-v, 0)
    return pos, neg


# breakpoints on (1/8)Z and values on (1/2)Z: every product and sum is exact
dyadic_steps = exact.integer_cells((-40, 40), (-6, 6)).map(
    lambda drawn: exact.dyadic(drawn, 0.0, 1 / 8, 1 / 2))


@settings(max_examples=60, deadline=None)
@given(dyadic_steps, dyadic_steps)
def test_sign_parts_equal_the_fraction_oracle(c, d):
    assert sign_parts(c, d) == exact_parts(exact.of(c), exact.of(d))


def test_a_suppression_scan_ratio_equals_the_fraction_oracle():
    # one trial: the scan's two bounds are that trial's ratios.  The draws are
    # Gaussian and f takes 0.6 and 0.8, so each numerator is held within 2^-44
    # of the integral of |series| * |series|, its rounding scale
    g = build_rademacher_generator(RademacherSpec(coefficients={0: 0.6, 1: 0.8}))
    window, p, seed = 3, 1.5, 11
    suppression, unconditional = unconditionality_scan(g, 1, window, p, seed)
    rng = np.random.default_rng(seed)
    x, xs = (rng.standard_normal(2 * window + 1).tolist() for _ in range(2))
    denom = Fraction(CoordinateVector(enumerate(x)).norm(p)
                     * CoordinateVector(enumerate(xs)).norm(p / (p - 1.0)))
    f = exact.of(g.f)
    pos, neg = exact_parts(exact.series(f, enumerate(x)), exact.series(f, enumerate(xs)))
    # the integral of |series| * |series|, each summing the magnitudes of its terms
    f = f[0], [abs(v) for v in f[1]]
    size = sum(exact_parts(exact.series(f, enumerate(map(abs, x))),
                           exact.series(f, enumerate(map(abs, xs)))))
    slack = Fraction(1, 2 ** 44) * size / denom
    assert abs(Fraction(suppression) - max(pos, neg) / denom) <= slack
    assert abs(Fraction(unconditional) - (pos + neg) / denom) <= slack
    assert 0 < slack < 1e-12 * suppression
