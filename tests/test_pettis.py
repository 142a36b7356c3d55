"""Tests for set-restricted integral suprema and unconditionality scans.

The sup over measurable sets E of |integral_E c*d| is the larger of the
two sign parts of the product (``pettis._sign_parts``).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def exact_cells(f):
    """(left, right, value) of each cell of f, in Fractions."""
    bp = [Fraction(t) for t in f.breakpoints.tolist()]
    return list(zip(bp[:-1], bp[1:], map(Fraction, f.values.tolist())))


def exact_at(cells, t):
    return next((v for a, b, v in cells if a <= t < b), Fraction(0))


def exact_parts(c, d, points):
    """(positive part, negative part, integral of |c| |d|) of c*d over the
    cells between ``points``; c and d map a Fraction to a pair (value, |value|)."""
    pos = neg = size = Fraction(0)
    points = sorted(set(points))
    for lo, hi in zip(points, points[1:]):
        (cv, ca), (dv, da) = c((lo + hi) / 2), d((lo + hi) / 2)
        pos += max((hi - lo) * cv * dv, 0)
        neg += max(-(hi - lo) * cv * dv, 0)
        size += (hi - lo) * ca * da
    return pos, neg, size


# breakpoints on (1/8)Z and values on (1/2)Z: every product and sum is exact
dyadic_steps = st.lists(st.integers(-40, 40), min_size=2, max_size=6, unique=True).flatmap(
    lambda qs: st.lists(st.integers(-6, 6), min_size=len(qs) - 1, max_size=len(qs) - 1).map(
        lambda hs: StepFunction(sorted(q / 8 for q in qs), [h / 2 for h in hs])))


@settings(max_examples=60, deadline=None)
@given(dyadic_steps, dyadic_steps)
def test_sign_parts_equal_the_fraction_oracle(c, d):
    cc, dc = exact_cells(c), exact_cells(d)
    pos, neg, _ = exact_parts(lambda t: (exact_at(cc, t),) * 2,
                              lambda t: (exact_at(dc, t),) * 2,
                              [t for a, b, _ in cc + dc for t in (a, b)])
    assert sign_parts(c, d) == (pos, neg)


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
    cells = exact_cells(g.f)

    def series(coefficients):
        def at(t):
            terms = [Fraction(a) * exact_at(cells, t - k) for k, a in enumerate(coefficients)]
            return sum(terms, Fraction(0)), sum(map(abs, terms), Fraction(0))
        return at

    pos, neg, size = exact_parts(series(x), series(xs),
                                 [t + k for a, b, _ in cells for t in (a, b)
                                  for k in range(len(x))])
    slack = Fraction(1, 2 ** 44) * size / denom
    assert abs(Fraction(suppression) - max(pos, neg) / denom) <= slack
    assert abs(Fraction(unconditional) - (pos + neg) / denom) <= slack
    assert 0 < slack < 1e-12 * suppression
