"""Tests for sparse sequence-space vectors.

``SortingVector`` below is the implementation that sorted its keys on every
query, kept verbatim apart from its name; the order-invariant tests compare
the kept-in-order vector with it bit for bit on random ``hypothesis`` input.
``lp._power_sum`` and ``lp._norm``, behind every lp norm, are held within
stated ulp bounds of the decimal oracle of ``tests/exact.py``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import CoordinateVector
from framelab.lp import _norm, _power_sum, sup_abs

import exact


def random_vector(rng, max_support=8, span=20):
    size = int(rng.integers(1, max_support + 1))
    idx = rng.choice(np.arange(-span, span), size=size, replace=False)
    return CoordinateVector({int(i): float(v)
                             for i, v in zip(idx, rng.standard_normal(size))})


def test_zero_entries_dropped():
    v = CoordinateVector({0: 1.0, 3: 0.0, 5: -2.0})
    assert v.support() == (0, 5)
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
    assert list(v._entries.items()) == [(0, 1.0), (2, 3.0)]


def test_norm_values():
    v = CoordinateVector({0: 3.0, 1: -4.0})
    assert v.norm(1) == 7.0
    assert v.norm(2) == 5.0
    assert v.norm(math.inf) == 4.0
    assert v.norm(3) == pytest.approx(91.0 ** (1.0 / 3.0))
    assert CoordinateVector({}).norm(2) == 0.0
    with pytest.raises(ValueError):
        v.norm(0.5)


def test_add_sub_scale():
    v = CoordinateVector({0: 1.0, 1: 2.0})
    w = CoordinateVector({1: -2.0, 3: 4.0})
    assert v.add(w).support() == (0, 3)       # coordinate 1 cancels exactly
    assert v.sub(v).is_zero()
    assert v.scale(0.0).is_zero()
    assert v.scale(2.0)[1] == 4.0


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
    assert list(v._entries) == [-2, 3, 5]
    assert v == CoordinateVector({3: 3.0, 5: 1.0, -2: 2.0})
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


@pytest.mark.parametrize("p", [1, 1.5, 2, 2.0, 3.0, math.inf])
def test_integer_entries_past_the_float_range(p):
    # an int sum past the float range rescales as a float one does; an entry past it gives inf
    assert CoordinateVector({0: 10 ** 200}).norm(p) == CoordinateVector({0: 1e200}).norm(p) \
        == pytest.approx(1e200, rel=1e-12)
    assert CoordinateVector({0: 10 ** 400}).norm(p) == math.inf


# -- indices are integers ------------------------------------------------------


@pytest.mark.parametrize("entries", [
    {1.2: 1.0, 1.7: 5.0},
    {"3": 1},
    [(2.0, 1.0)],
    [(None, 1.0)],
    {np.float64(4.0): 1.0},
    {1.5: 0.0},
], ids=["fractional", "string", "integral-float", "none", "numpy-float", "zero-entry"])
def test_non_integral_index_raises(entries):
    with pytest.raises(TypeError):
        CoordinateVector(entries)


def test_unit_checks_its_index_and_drops_a_zero():
    with pytest.raises(TypeError):
        CoordinateVector.unit(1.0)
    with pytest.raises(TypeError):
        CoordinateVector.unit(1.0, 0)
    assert CoordinateVector.unit(3, 0).is_zero()
    assert CoordinateVector.unit(3, 0.0) == CoordinateVector()
    e = CoordinateVector.unit(np.int64(3), 2.5)
    assert e.support() == (3,) and type(e.support()[0]) is int
    assert e == CoordinateVector({3: 2.5})
    assert isinstance(CoordinateVector.unit(-2)[-2], int)


def test_numpy_integer_indices_become_python_ints():
    v = CoordinateVector({np.int64(3): 1.0, np.int32(-1): 2.0})
    assert v.support() == (-1, 3)
    assert all(type(n) is int for n in v.support())
    assert v == CoordinateVector({-1: 2.0, 3: 1.0})


# -- the order invariant against the sorting implementation ---------------------


class SortingVector:
    """Immutable sparse vector {index: value} with exact zero dropping."""

    __slots__ = ("_entries",)

    def __init__(self, entries=None):
        data = {}
        if entries is not None:
            items = entries.items() if hasattr(entries, "items") else entries
            for n, c in items:
                if c != 0:
                    data[int(n)] = c
        object.__setattr__(self, "_entries", data)

    def __setattr__(self, name, value):
        raise AttributeError("SortingVector is immutable")

    @classmethod
    def unit(cls, n, value=1):
        return cls({n: value})

    # -- queries -------------------------------------------------------------

    def support(self):
        return tuple(sorted(self._entries))

    def items(self):
        """Entries in increasing index order (deterministic iteration)."""
        for n in sorted(self._entries):
            yield n, self._entries[n]

    def __getitem__(self, n):
        return self._entries.get(n, 0)

    def is_zero(self):
        return not self._entries

    # -- algebra -------------------------------------------------------------

    def add(self, other):
        data = dict(self._entries)
        for n, c in other._entries.items():
            data[n] = data.get(n, 0) + c
        return SortingVector(data)

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, c):
        if c == 0:
            return SortingVector()
        return SortingVector({n: c * v for n, v in self._entries.items()})

    # -- norms and pairing -----------------------------------------------------

    def norm(self, p):
        """lp norm; p may be any real >= 1 or math.inf (the sup norm)."""
        if not self._entries:
            return 0.0
        if p == math.inf:
            return float(sup_abs(self._entries.values()))
        if not p >= 1:
            raise ValueError("norm requires p >= 1 or p = inf")
        try:
            total = sum(abs(self._entries[n]) ** p for n in sorted(self._entries))
        except OverflowError:
            total = math.inf
        if total == math.inf:
            # a p-th power left the float range: rescale by the largest entry
            big = float(sup_abs(self._entries.values()))
            if big < math.inf:
                return big * SortingVector(
                    {n: v / big for n, v in self._entries.items()}).norm(p)
        return float(total ** (1.0 / p))

    def pair(self, other):
        """Duality pairing sum_n x_n f_n; exact for integer entries."""
        if len(other._entries) < len(self._entries):
            small, big = other._entries, self._entries
        else:
            small, big = self._entries, other._entries
        total = 0
        for n in sorted(small):
            if n in big:
                total += small[n] * big[n]
        return total

    # -- comparisons -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SortingVector):
            return NotImplemented
        return self._entries == other._entries


def _bits(value):
    """A number with its type, floats spelled by their bits (so -0.0 != 0.0)."""
    return type(value), value.hex() if isinstance(value, float) else value


# large magnitudes overflow a p-th power (the rescaled norm) and cancel in sums
entry_values = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 0.5, -1.25, 0.1, 1e16, -1e16, 1e200, -1e300,
                     5e-324]),
    st.floats(-1e6, 1e6))
entry_lists = st.lists(st.tuples(st.integers(-6, 6), entry_values), max_size=10)
NORM_EXPONENTS = (1, 1.5, 2, 3, math.inf)


def _constructions(cls, entries, other, c, k):
    """The same vectors of ``cls`` by every construction path."""
    a = cls(dict(entries))
    b = cls(dict(other))
    return [a, b, cls(entries), cls((n, v) for n, v in entries),
            a.add(b), a.sub(b), a.scale(c), cls.unit(k, c)]


@settings(max_examples=200, deadline=None)
@given(entry_lists, entry_lists, entry_values, st.integers(-5, 5))
def test_every_construction_keeps_entries_in_index_order(entries, other, c, k):
    for v, ref in zip(_constructions(CoordinateVector, entries, other, c, k),
                      _constructions(SortingVector, entries, other, c, k)):
        assert list(v._entries) == sorted(v._entries)
        assert [(n, _bits(x)) for n, x in v._entries.items()] == \
            [(n, _bits(x)) for n, x in ref.items()]
        assert v.support() == ref.support()
        for p in NORM_EXPONENTS:
            assert _bits(v.norm(p)) == _bits(ref.norm(p))


@settings(max_examples=200, deadline=None)
@given(entry_lists, entry_lists)
def test_pairing_and_equality_match_the_sorting_vector(entries, other):
    u, w = CoordinateVector(entries), CoordinateVector(other[::-1])
    ref_u, ref_w = SortingVector(entries), SortingVector(other[::-1])
    assert _bits(u.pair(w)) == _bits(ref_u.pair(ref_w))
    assert _bits(w.pair(u)) == _bits(ref_w.pair(ref_u))
    assert (u == w) == (ref_u == ref_w)
    items = u._entries.items()
    assert u == CoordinateVector(items) == CoordinateVector(reversed(items))


# -- the lp kernels against the exact oracle ---------------------------------------
#
# ``_power_sum`` of n values is within n + 1 ulps of the 60-digit sum: each
# power is within an ulp of its term (2 ulps of the sum in all), and each of
# the n - 1 additions rounds by an ulp of the sum at most.  ``_norm`` is
# within 2 (n + 1) / p + 3 + |ln T| / 2 ulps of the 60-digit root: the root
# takes 1 / p of the sum's relative error, and rounds once, as do the
# division by the largest entry and the product with it after an overflow;
# the float 1.0 / p, within 2^-54 of 1 / p, moves T ** (1 / p) by a
# relative |ln T| 2^-54, T the sum the root is taken of.

LP_EXPONENTS = (1.5, 2.0, 3.0, 1.7)      # 1.7 takes decimal's ``**``, not a square root


def lp_values(seed, count=40, scale=1.0):
    """Lists of 1-20 Gaussian values over six decades, times ``scale``."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 21))
        yield (rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n) * scale).tolist()


def norm_bound(values, p):
    if _power_sum(values, p) == math.inf:
        # the root is taken of the entries over the largest, whose sum lies in [1, n]
        log = math.log(len(values))
    else:
        log = abs(float(exact.power_sum(values, p).ln()))
    return 2 * (len(values) + 1) / p + 3 + log / 2


@pytest.mark.parametrize("p", LP_EXPONENTS)
def test_power_sum_is_within_n_plus_one_ulps_of_the_exact_sum(p):
    for values in lp_values(41):
        assert exact.ulps(_power_sum(values, p), exact.power_sum(values, p)) <= len(values) + 1


@pytest.mark.parametrize("p", LP_EXPONENTS)
def test_norm_is_within_its_bound_of_the_exact_norm(p):
    # random values past the float range take the rescale, as do the cases
    # of test_norm_survives_float_overflow at most exponents
    overflowing = list(lp_values(43, 10, 1e300))
    assert all(_power_sum(values, p) == math.inf for values in overflowing)
    overflowing += [[1e308], [1e200, -1e200], [1e300, 2e300], [1e300, -3e-300, 5e299]]
    for values in list(lp_values(42)) + overflowing:
        want = exact.root(exact.power_sum(values, p), p)
        assert exact.ulps(_norm(values, p), want) <= norm_bound(values, p)
