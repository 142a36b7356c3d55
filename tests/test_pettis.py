"""Tests for set-restricted integral suprema and unconditionality scans."""

import math

import numpy as np
import pytest

from framelab import (
    IntervalSet,
    RademacherSpec,
    StepFunction,
    build_rademacher_generator,
    exact_set_supremum,
    haar_mother,
    unconditionality_scan,
)
from framelab import pettis
from framelab.intervals import random_interval_set
from framelab.translate_frame import Generator


def test_haar_against_indicator():
    # product is +1 on [0, 1/2) and -1 on [1/2, 1); the positive part wins
    sup, witness = exact_set_supremum(haar_mother(),
                                      StepFunction.indicator(0.0, 1.0))
    assert sup == 0.5
    assert witness.to_pairs() == ((0.0, 0.5),)


def test_witness_attains_supremum():
    rng = np.random.default_rng(17)
    for _ in range(60):
        c = random_step(rng)
        d = random_step(rng)
        sup, witness = exact_set_supremum(c, d)
        attained = abs(c.multiply(d).integrate(witness))
        assert attained == pytest.approx(sup, rel=1e-12, abs=1e-12)


def test_random_sets_stay_below_supremum():
    rng = np.random.default_rng(18)
    c = random_step(rng)
    d = random_step(rng)
    sup, _ = exact_set_supremum(c, d)
    lo, hi = (-6.0, 6.0)
    for _ in range(1000):
        region = random_interval_set(rng, lo, hi)
        assert abs(c.multiply(d).integrate(region)) <= sup + 1e-10


def test_supremum_symmetry_and_homogeneity():
    rng = np.random.default_rng(19)
    for _ in range(30):
        c = random_step(rng)
        d = random_step(rng)
        alpha = float(rng.uniform(0.1, 3.0))
        s1, _ = exact_set_supremum(c, d)
        s2, _ = exact_set_supremum(d, c)
        s3, _ = exact_set_supremum(c.scale(alpha), d)
        assert s1 == pytest.approx(s2, rel=1e-12, abs=1e-14)
        assert s3 == pytest.approx(alpha * s1, rel=1e-12, abs=1e-14)


def test_zero_product_gives_empty_witness():
    sup, witness = exact_set_supremum(StepFunction.indicator(0.0, 1.0),
                                      StepFunction.indicator(2.0, 3.0))
    assert sup == 0.0
    assert witness.is_empty()


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
    bs, bu = unconditionality_scan(Generator(f, 0.0, 0.0, 0.0, 0.0, 0), trials=3,
                                   window=1, p=2.0)
    assert math.isnan(bs) and math.isnan(bu)
