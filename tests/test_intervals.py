"""Tests for half-open interval sets."""

import numpy as np
import pytest

from framelab import IntervalSet


def test_normalization_merges_touching_pieces():
    s = IntervalSet([(1.0, 2.0), (0.0, 1.0)])
    assert s.to_pairs() == ((0.0, 2.0),)
    t = IntervalSet([(0.0, 1.5), (1.0, 2.0)])
    assert t.to_pairs() == ((0.0, 2.0),)


def test_degenerate_pieces_dropped():
    assert IntervalSet([(1.0, 1.0)]).is_empty()
    with pytest.raises(ValueError):
        IntervalSet([(2.0, 1.0)])


@pytest.mark.parametrize("pair", [(0.0, float("nan")), (float("nan"), 1.0),
                                  (float("nan"), float("nan"))])
def test_nan_endpoint_raises(pair):
    # neither r < l nor r > l holds for a NaN, which once made the set empty
    with pytest.raises(ValueError, match="NaN"):
        IntervalSet([(0.0, 1.0), pair])


def test_measure_and_contains():
    s = IntervalSet([(0.0, 1.0), (2.0, 4.0)])
    assert s.measure() == 3.0
    assert s.contains(0.0) and not s.contains(1.0)   # half-open
    assert s.contains(3.5) and not s.contains(4.0)
    assert not s.contains(1.5)


def test_union_intersect_difference():
    a = IntervalSet([(0.0, 2.0)])
    b = IntervalSet([(1.0, 3.0)])
    assert a.union(b).to_pairs() == ((0.0, 3.0),)
    assert a.intersect(b).to_pairs() == ((1.0, 2.0),)
    assert a.difference(b).to_pairs() == ((0.0, 1.0),)
    assert b.difference(a).to_pairs() == ((2.0, 3.0),)
    assert a.intersect(IntervalSet.empty()).is_empty()


def test_hull_and_shift():
    s = IntervalSet([(0.0, 1.0), (4.0, 5.0)])
    assert s.hull() == (0.0, 5.0)
    assert s.shift(2.0).to_pairs() == ((2.0, 3.0), (6.0, 7.0))
    assert IntervalSet.empty().hull() is None


def test_boolean_ops_match_pointwise_membership(random_interval_set):
    rng = np.random.default_rng(11)
    probes = rng.uniform(-0.5, 10.5, 400)
    for _ in range(40):
        a = random_interval_set(rng, 0.0, 10.0)
        b = random_interval_set(rng, 0.0, 10.0)
        for t in probes:
            t = float(t)
            assert a.union(b).contains(t) == (a.contains(t) or b.contains(t))
            assert a.intersect(b).contains(t) == (a.contains(t) and b.contains(t))
            assert a.difference(b).contains(t) == (a.contains(t) and not b.contains(t))


def test_measure_additivity_for_disjoint_sets(random_interval_set):
    rng = np.random.default_rng(12)
    for _ in range(40):
        a = random_interval_set(rng, 0.0, 10.0)
        b = random_interval_set(rng, 0.0, 10.0)
        union = a.union(b).measure()
        inter = a.intersect(b).measure()
        assert union + inter == pytest.approx(a.measure() + b.measure(), abs=1e-12)
