"""Tests for sparse sequence-space vectors."""

import math

import numpy as np
import pytest

from framelab import CoordinateVector


def random_vector(rng, max_support=8, span=20):
    size = int(rng.integers(1, max_support + 1))
    idx = rng.choice(np.arange(-span, span), size=size, replace=False)
    return CoordinateVector({int(i): float(v)
                             for i, v in zip(idx, rng.standard_normal(size))})


def test_zero_entries_dropped():
    v = CoordinateVector({0: 1.0, 3: 0.0, 5: -2.0})
    assert v.support() == (0, 5)
    assert len(v) == 2
    assert v[3] == 0 and v[100] == 0


def test_integer_entries_stay_integers():
    v = CoordinateVector({1: 3, 2: -2})
    assert isinstance(v[1], int)
    w = v.add(CoordinateVector({1: 1}))
    assert w[1] == 4 and isinstance(w[1], int)
    assert v.pair(v) == 13 and isinstance(v.pair(v), int)


def test_unit_and_to_entries():
    e = CoordinateVector.unit(4)
    assert e[4] == 1 and e.support() == (4,)
    v = CoordinateVector([(0, 1.0), (2, 3.0)])
    assert v[2] == 3.0
    assert v.to_entries() == ((0, 1.0), (2, 3.0))


def test_norm_values():
    v = CoordinateVector({0: 3.0, 1: -4.0})
    assert v.norm(1) == 7.0
    assert v.norm(2) == 5.0
    assert v.norm(math.inf) == 4.0
    assert v.norm(3) == pytest.approx(91.0 ** (1.0 / 3.0))
    assert CoordinateVector({}).norm(2) == 0.0
    with pytest.raises(ValueError):
        v.norm(0.5)


def test_add_sub_scale_shift_restrict():
    v = CoordinateVector({0: 1.0, 1: 2.0})
    w = CoordinateVector({1: -2.0, 3: 4.0})
    assert v.add(w).support() == (0, 3)       # coordinate 1 cancels exactly
    assert v.sub(v).is_zero()
    assert v.scale(0.0).is_zero()
    assert v.scale(2.0)[1] == 4.0
    assert v.shift(5).support() == (5, 6)
    assert v.restrict([1, 7])[1] == 2.0
    assert v.restrict([1, 7])[0] == 0


def test_pair_is_symmetric_and_bilinear():
    rng = np.random.default_rng(13)
    for _ in range(40):
        u, v, w = (random_vector(rng) for _ in range(3))
        alpha = float(rng.standard_normal())
        assert u.pair(v) == v.pair(u)
        lhs = u.add(v.scale(alpha)).pair(w)
        assert lhs == pytest.approx(u.pair(w) + alpha * v.pair(w), abs=1e-12)


def test_unit_pairing_is_kronecker():
    assert CoordinateVector.unit(3).pair(CoordinateVector.unit(3)) == 1
    assert CoordinateVector.unit(3).pair(CoordinateVector.unit(4)) == 0


def test_holder_and_triangle():
    rng = np.random.default_rng(14)
    for _ in range(50):
        u = random_vector(rng)
        v = random_vector(rng)
        p = float(rng.uniform(1.1, 4.0))
        q = p / (p - 1.0)
        assert abs(u.pair(v)) <= u.norm(p) * v.norm(q) + 1e-12
        assert u.add(v).norm(p) <= u.norm(p) + v.norm(p) + 1e-12


def test_items_sorted_and_equality():
    v = CoordinateVector({5: 1.0, -2: 2.0, 3: 3.0})
    assert [i for i, _ in v.items()] == [-2, 3, 5]
    assert v == CoordinateVector({3: 3.0, 5: 1.0, -2: 2.0})
    assert hash(v) == hash(CoordinateVector({-2: 2.0, 3: 3.0, 5: 1.0}))
    assert v != CoordinateVector({3: 3.0})


def test_norm_survives_float_overflow():
    # a p-th power past the float range rescales instead of raising or giving inf
    assert CoordinateVector({0: 1e308}).norm(2) == 1e308
    assert CoordinateVector({0: 1e200, 3: -1e200}).norm(2) == pytest.approx(
        math.sqrt(2.0) * 1e200, rel=1e-15)
    assert CoordinateVector({0: 1e300, 1: 2e300}).norm(3.5) == pytest.approx(
        (1.0 + 2.0 ** 3.5) ** (1 / 3.5) * 1e300, rel=1e-14)
    # integer entries keep their exact sums
    assert CoordinateVector({0: 3, 1: 4}).norm(2) == 5.0
    assert CoordinateVector({n: 1 for n in range(10 ** 3)}).norm(1) == 1000.0
