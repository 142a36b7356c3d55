"""Tests for discrete frame diagnostics and the sign-cancellation frame.

The batched tail norms (``tail_dual_norms``) and the increment-only probe
are compared exactly with the per-set code they replaced, kept below as
``reference_*``, on random integer frames from ``hypothesis``.
"""

import dataclasses
import functools
import gc
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framelab import (
    CompletenessReport,
    CoordinateVector,
    DiscreteFrame,
    SpaceTag,
    boundedly_complete_probe,
    counterexample_frame,
    counterexample_report,
    tail_dual_norm,
    unit_vector_frame,
)
from framelab import cli, diagnostics, lp
from framelab.diagnostics import _restricted_dual_functional, tail_dual_norms


def test_space_tag_validation():
    with pytest.raises(ValueError):
        SpaceTag("lp")
    with pytest.raises(ValueError):
        SpaceTag("c0", p=2.0)
    with pytest.raises(ValueError):
        SpaceTag("linf")


def test_space_tag_norms():
    v = CoordinateVector({0: 3.0, 1: -4.0})
    assert SpaceTag.lp(2.0).norm(v) == 5.0
    assert SpaceTag.c0().norm(v) == 4.0
    assert SpaceTag.l1().norm(v) == 7.0
    # duals: lq for lp, l1 for c0, sup for l1
    assert SpaceTag.lp(2.0).dual_norm(v) == 5.0
    assert SpaceTag.c0().dual_norm(v) == 7.0
    assert SpaceTag.l1().dual_norm(v) == 4.0


def test_unit_frame_reconstructs_exactly():
    frame = unit_vector_frame(SpaceTag.lp(2.0), range(1, 9))
    x = CoordinateVector({1: 2.0, 5: -3.5})
    assert frame.reconstruct(x) == x
    for n in range(1, 9):
        e = CoordinateVector.unit(n)
        assert frame.reconstruct(e) == e


def test_reconstruct_positions_index_pairs_not_coordinates():
    frame = unit_vector_frame(SpaceTag.lp(2.0), range(1, 5))
    x = CoordinateVector({1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0})
    # position j holds the pair for coordinate j+1
    assert frame.reconstruct(x, [0, 1]) == CoordinateVector({1: 1.0, 2: 1.0})


def _reconstruct_by_definition(frame, x, positions=None):
    """sum over the given positions of f_j(x) * x_j, pairing every pair."""
    if positions is None:
        positions = range(len(frame.pairs))
    total = {}
    for j in positions:
        vec, fun = frame.pairs[j]
        c = fun.pair(x)
        if c != 0:
            for n, v in vec._entries.items():
                total[n] = total.get(n, 0) + c * v
    return CoordinateVector(total)


def test_indexed_reconstruct_matches_definition():
    frame = frame_of_pairs((
        (CoordinateVector({1: 1.5, 4: -2.0}), CoordinateVector({1: 0.5, 2: 0.5})),
        (CoordinateVector({2: 3.0}), CoordinateVector({3: 1.0})),
        (CoordinateVector({1: -1.0, 3: 0.25}), CoordinateVector({2: 2.0, 4: -1.0})),
        (CoordinateVector({5: 7.0}), CoordinateVector({1: 1.0, 3: 1.0})),
        (CoordinateVector({4: 1.0}), CoordinateVector()),
        # coordinate 7 sums to 0.0 in increasing position order, 1.0 reversed
        (CoordinateVector({7: 1.0}), CoordinateVector({1: 1.0})),
        (CoordinateVector({7: 1e16}), CoordinateVector({1: 1.0})),
        (CoordinateVector({7: -1e16}), CoordinateVector({1: 1.0})),
    ), SpaceTag.lp(2.0))
    several = CoordinateVector({1: 1.0, 2: -1.0, 3: 0.5, 4: 4.0})
    # reaches pairs 2 and 3 only through their functionals' later coordinates
    late = CoordinateVector({3: 2.0, 4: -0.5})
    # f_0(x) = 0.5 - 0.5 cancels to exactly 0.0 and the pair is skipped
    cancelling = CoordinateVector({1: 1.0, 2: -1.0})
    missing = CoordinateVector({6: 1.0, 9: -3.0})
    orders = [None, [3, 0, 3, 2, 0, 1], [4, 2, -1, 2], [7, 5, 6, 5], []]
    for x in (several, late, cancelling, missing):
        for positions in orders:
            assert frame.reconstruct(x, positions) == \
                _reconstruct_by_definition(frame, x, positions)
    assert frame.reconstruct(cancelling, [0]).is_zero()
    assert frame.reconstruct(missing).is_zero()
    with pytest.raises(IndexError):
        frame.reconstruct(several, [0, 8])


def _plain_reconstruct(pairs, x, positions=None):
    """sum over positions of f_j(x) * x_j on plain {index: value} dicts.

    Each sum runs in increasing index, sorted here, and starts from 0;
    ``pairs[j]`` resolves a position as a tuple does.  Returns the
    coefficients {j: f_j(x)} of the pairs whose functional meets x and the
    result's nonzero entries in increasing index order.
    """
    coefficients = {}
    for j, (_, fun) in enumerate(pairs):
        common = sorted(set(fun) & set(x))
        if common:
            c = 0
            for n in common:
                c += fun[n] * x[n]
            coefficients[j] = c
    if positions is None:
        positions = range(len(pairs))
    total = {}
    for j in positions:
        vec, _ = pairs[j]
        c = coefficients.get(j % len(pairs), 0)
        if c != 0:
            for n in sorted(vec):
                total[n] = total.get(n, 0) + c * vec[n]
    return coefficients, [(n, total[n]) for n in sorted(total) if total[n] != 0]


def _bits(value):
    """A number with its type, floats spelled by their bits (so -0.0 != 0.0)."""
    return type(value), value.hex() if isinstance(value, float) else value


# few coordinates, so that functionals overlap; +-1e16 cancels 1.0 in one
# summation order and not in another
float_entries = st.sampled_from([1.0, -1.0, 0.5, -0.25, 3.0, 0.1, 1e16, -1e16,
                                 -0.0, 0])
fraction_entries = st.sampled_from([Fraction(1, 3), Fraction(-2, 7), Fraction(5),
                                    Fraction(-1, 2), 0])


@st.composite
def plain_frames(draw, entries):
    """(pool, pairs, x, positions): plain dicts, zero entries dropped.

    Each pair names a vector and a functional in a small pool of dicts, so
    that one object serves several pairs; positions repeat and run past
    both ends.
    """
    plain = st.dictionaries(st.integers(0, 5), entries, max_size=4).map(
        lambda d: {n: v for n, v in d.items() if v != 0})
    pool = draw(st.lists(plain, min_size=1, max_size=4))
    slots = st.integers(0, len(pool) - 1)
    size = draw(st.integers(1, 8))
    pairs = [(draw(slots), draw(slots)) for _ in range(size)]
    positions = draw(st.none() | st.lists(st.integers(-size - 2, size + 1),
                                          max_size=12))
    return pool, pairs, draw(plain), positions


def _check_indexed_reconstruct(pool, pairs, plain_x, positions):
    shared = [CoordinateVector(d) for d in pool]
    frame = frame_of_pairs([(shared[v], shared[f]) for v, f in pairs], SpaceTag.c0())
    x = CoordinateVector(plain_x)
    if positions is not None and any(not -len(pairs) <= j < len(pairs)
                                      for j in positions):
        with pytest.raises(IndexError):
            frame.reconstruct(x, positions)
        return None
    coefficients, expected = _plain_reconstruct(
        [(pool[v], pool[f]) for v, f in pairs], plain_x, positions)
    assert sorted((j, _bits(c)) for j, c in frame._coefficients(x).items()) == \
        [(j, _bits(c)) for j, c in sorted(coefficients.items())]
    got = frame.reconstruct(x, positions)
    assert [(n, _bits(v)) for n, v in got._entries.items()] == \
        [(n, _bits(v)) for n, v in expected]
    return got


# f_0(x) is 0.0 summed in increasing coordinate order and 1.0 in decreasing
# order; coordinate 0 of the result is 1.0 in the listed order and 0.0 sorted
@example(([{0: 1.0}, {0: 1.0, 1: 1e16, 2: -1e16}], [(0, 1), (0, 1)],
          {0: 1.0, 1: 1.0, 2: 1.0}, None))
@example(([{0: 1.0}, {0: 1e16}, {0: -1e16}], [(0, 0), (1, 0), (2, 0)],
          {0: 1.0}, [1, 2, 0]))
@settings(max_examples=300, deadline=None)
@given(plain_frames(float_entries))
def test_indexed_reconstruct_matches_plain_dicts_bit_for_bit(case):
    _check_indexed_reconstruct(*case)


@settings(max_examples=200, deadline=None)
@given(plain_frames(fraction_entries))
def test_indexed_reconstruct_is_exact_on_fractions(case):
    got = _check_indexed_reconstruct(*case)
    if got is not None:
        assert all(isinstance(v, (Fraction, int)) for v in got._entries.values())


# -- the tuple-based frame that the columns replaced ---------------------------------


@dataclasses.dataclass(frozen=True)
class TupleFrame:
    """Finite family of (vector, functional) pairs over a tagged space."""
    pairs: tuple
    space: SpaceTag

    @functools.cached_property
    def _coordinate_index(self):
        """Coordinate n -> [j, f_j[n], j', f_j'[n], ...] over the pairs whose
        functional is nonzero at n, in increasing position; built on first
        use and kept with the frame, unless its builder handed it over with
        the pairs.  One flat list per coordinate rather than a tuple per pair
        leaves the garbage collector one object per coordinate to track."""
        index = {}
        for j, (_, fun) in enumerate(self.pairs):
            for n, c in fun._entries.items():
                column = index.get(n)
                if column is None:
                    index[n] = [j, c]
                else:
                    column += (j, c)
        return index

    def _coefficients(self, x):
        """Position j -> f_j(x) for every pair whose functional meets the
        support of x.

        Each f_j(x) adds f_j[n] * x[n] to 0 in increasing n, the terms and
        the order of ``CoordinateVector.pair``, so floats round alike.
        """
        index = self._coordinate_index
        coef = {}
        for n, v in x._entries.items():
            column = iter(index.get(n, ()))
            for j, c in zip(column, column):
                coef[j] = coef.get(j, 0) + c * v
        return coef

    def reconstruct(self, x, positions=None):
        """sum over j of f_j(x) * x_j, restricted to the given pair positions.

        Positions default to all pairs in increasing order; explicit positions
        keep their order and repeats, a negative one counts from the end and
        an out-of-range one raises IndexError.  Every coefficient f_j(x) comes
        from one pass over the coordinate index, walking x in increasing
        coordinate order; a pair whose functional misses the support of x, or
        pairs with x to 0, adds nothing and is skipped.
        """
        return self._synthesize(self._coefficients(x), positions)

    def _synthesize(self, coef, positions=None):
        """sum over the positions j of coef[j] * x_j, positions as in ``reconstruct``."""
        if positions is None:
            positions = sorted(coef)
        elif not (isinstance(positions, range) and positions.step > 0
                  and positions.start >= 0 and positions.stop <= len(self.pairs)):
            # an increasing range of in-range positions is already resolved;
            # range(...)[j] counts back from the end or raises, as pairs[j] does
            slots = range(len(self.pairs))
            positions = [slots[j] for j in positions]
        pairs = self.pairs
        total = {}
        for j in positions:
            c = coef.get(j, 0)
            if c != 0:
                for n, v in pairs[j][0]._entries.items():
                    total[n] = total.get(n, 0) + c * v
        return CoordinateVector(total)


def frame_of_pairs(pairs, space):
    """The DiscreteFrame of the pairs: their entries dicts as its columns, and
    the coordinate index that ``TupleFrame`` derives from the pairs."""
    pairs = tuple(pairs)
    return DiscreteFrame([v._entries for v, _ in pairs], [f._entries for _, f in pairs],
                         TupleFrame(pairs, space)._coordinate_index, space)


def _entry_bits(vec):
    return [(n, _bits(v)) for n, v in vec._entries.items()]


@settings(max_examples=300, deadline=None)
@given(plain_frames(float_entries | fraction_entries))
def test_column_frames_equal_the_tuple_frame_bit_for_bit(case):
    pool, pairs, plain_x, positions = case
    shared = [CoordinateVector(d) for d in pool]
    tuple_pairs = tuple((shared[v], shared[f]) for v, f in pairs)
    reference = TupleFrame(pairs=tuple_pairs, space=SpaceTag.c0())
    frame = frame_of_pairs(tuple_pairs, SpaceTag.c0())
    x = CoordinateVector(plain_x)
    assert [(_entry_bits(vec), _entry_bits(fun)) for vec, fun in frame.pairs] == \
        [(_entry_bits(vec), _entry_bits(fun)) for vec, fun in reference.pairs]
    assert [(j, _bits(c)) for j, c in frame._coefficients(x).items()] == \
        [(j, _bits(c)) for j, c in reference._coefficients(x).items()]
    try:
        expected = _entry_bits(reference.reconstruct(x, positions))
    except IndexError:
        with pytest.raises(IndexError):
            frame.reconstruct(x, positions)
    else:
        assert _entry_bits(frame.reconstruct(x, positions)) == expected


def test_the_report_builds_no_vector_per_pair(monkeypatch):
    # every CoordinateVector is built by the constructor, by ``unit`` or by
    # the wrapper that adopts an entries dict, counted where it is looked up
    built = {}

    def counted(name, build):
        def count(*args, **kwargs):
            built[name] = built.get(name, 0) + 1
            return build(*args, **kwargs)
        return count

    monkeypatch.setattr(CoordinateVector, "__init__",
                        counted("init", CoordinateVector.__init__))
    monkeypatch.setattr(CoordinateVector, "unit",
                        classmethod(counted("unit", CoordinateVector.unit.__func__)))
    for module in (lp, diagnostics):
        monkeypatch.setattr(module, "_adopt", counted("adopt", module._adopt))
    counts = []
    for K in (60, 10000):
        built.clear()
        assert counterexample_report(K, 50).ok
        counts.append(dict(built))
    # e_1 .. e_50 (a unit each, which adopts its dict) and one result per
    # reconstruction and check: 155, at any K
    assert counts[0] == counts[1]
    assert sum(counts[1].values()) <= 200


@diagnostics._collector_paused()
def reference_counterexample_frame(K):
    """The per-block loop that built the triple frame before the slice build."""
    if K < 1:
        raise ValueError("K must be a positive integer")
    # no entries dict is written to: block j's {j: 1} is its three vectors and
    # its first functional, and every block shares one -e_1* and one e_1*
    minus_e_1_star, e_1_star = {1: -1}, {1: 1}
    vectors, functionals = [], []
    # the coordinate index, filled alongside: block j meets coordinate j at its
    # first position and coordinate 1 (``ones``) at its second and third
    coordinate_index, ones = {}, []
    for j in range(1, K + 1):
        e_j = {j: 1}
        vectors += (e_j, e_j, e_j)
        functionals += (e_j, minus_e_1_star, e_1_star)
        coordinate_index[j] = [3 * j - 3, 1]
        ones += (3 * j - 2, -1, 3 * j - 1, 1)
    coordinate_index[1] += ones
    return DiscreteFrame(vectors, functionals, coordinate_index, SpaceTag.c0())


@pytest.mark.parametrize("K", [2, 3, 50, 10000])
def test_the_slice_built_frame_equals_the_loop_build(K):
    frame, reference = counterexample_frame(K), reference_counterexample_frame(K)
    assert frame._vectors == reference._vectors
    assert frame._functionals == reference._functionals
    assert frame._coordinate_index == reference._coordinate_index
    assert list(frame._coordinate_index) == list(reference._coordinate_index)
    # block j's {j: 1} is its three vectors and its first functional; every
    # second functional is one -e_1* and every third one e_1*
    vectors, functionals = frame._vectors, frame._functionals
    minus_e_1_star, e_1_star = functionals[1], functionals[2]
    assert (minus_e_1_star, e_1_star) == ({1: -1}, {1: 1})
    for b in range(0, 3 * K, 3):
        e_j = vectors[b]
        assert vectors[b + 1] is e_j and vectors[b + 2] is e_j and functionals[b] is e_j
        assert functionals[b + 1] is minus_e_1_star and functionals[b + 2] is e_1_star
    assert len({id(v) for v in vectors}) == K


def test_analysis_operator_pairs_no_vectors(monkeypatch):
    # f_j(x) comes from the coordinate index and the report's f(x_n) weights
    # from the vector column; CoordinateVector.pair is left to one check
    K = 10000
    calls = [0]
    pair = CoordinateVector.pair

    def counted(self, other):
        calls[0] += 1
        return pair(self, other)

    monkeypatch.setattr(CoordinateVector, "pair", counted)
    e_1 = CoordinateVector.unit(1)
    assert counterexample_frame(K).reconstruct(e_1) == e_1
    assert calls[0] == 0
    assert counterexample_report(K, 50).ok
    assert calls[0] <= 1


def test_indexed_reconstruct_matches_definition_on_triple_frame():
    for K in (1, 2, 3, 50):
        frame = counterexample_frame(K)
        size = len(frame.pairs)
        thirds = [j for j in range(size) if (j + 1) % 3 == 0]
        shuffled = [(7 * j) % size for j in range(size)] + thirds[::-1]
        xs = [CoordinateVector.unit(j) for j in range(1, K + 2)]
        xs.append(CoordinateVector({1: 5, 2: -7, K: 2, K + 3: 11}))
        for x in xs:
            for positions in (None, thirds, shuffled):
                got = frame.reconstruct(x, positions)
                assert got == _reconstruct_by_definition(frame, x, positions)
                assert all(isinstance(v, int) for v in got._entries.values())


def _generic_index(frame):
    """The coordinate index that ``frame_of_pairs`` derives from the frame's pairs."""
    return frame_of_pairs(frame.pairs, frame.space)._coordinate_index


@pytest.mark.parametrize("coordinates", [range(400), range(-5, 6), range(-20, 40, 3),
                                         [7, -2, 40, 0, 3], np.arange(3), []])
def test_the_unit_frame_hands_over_the_generic_index(coordinates):
    frame = unit_vector_frame(SpaceTag.c0(), coordinates)
    assert list(frame._coordinate_index.items()) == list(_generic_index(frame).items())


def test_the_unit_frame_refuses_a_repeated_or_non_integer_coordinate():
    with pytest.raises(ValueError, match="listed twice"):
        unit_vector_frame(SpaceTag.c0(), [0, 1, 0])
    with pytest.raises(TypeError):
        unit_vector_frame(SpaceTag.c0(), [0, 1.0])


@pytest.mark.parametrize("K", [1, 2, 3, 50, 2000])
def test_handed_index_equals_the_generic_index(K):
    frame = counterexample_frame(K)
    assert frame._coordinate_index == _generic_index(frame)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300))
def test_handed_index_equals_the_generic_index_for_any_K(K):
    frame = counterexample_frame(K)
    assert frame._coordinate_index == _generic_index(frame)


@pytest.mark.parametrize("entry", [0, 1, 2, 7, -1])
def test_a_wrong_sign_in_the_handed_index_fails_the_report(monkeypatch, entry):
    # entry i of coordinate 1's column: 0 is e_1* of block 1, 1 and 2 are the
    # -e_1* and e_1* of block 1, 7 the -e_1* of block 4, -1 the e_1* of block K
    K = 20
    build = diagnostics.counterexample_frame

    def planted(K):
        frame = build(K)
        column = frame._coordinate_index[1]
        column[2 * entry + 1 if entry >= 0 else entry] *= -1
        return frame

    assert counterexample_report(K).ok
    monkeypatch.setattr(diagnostics, "counterexample_frame", planted)
    assert not counterexample_report(K).ok


def test_ranges_resolve_as_their_lists():
    frame = counterexample_frame(5)
    x = CoordinateVector({1: 3, 2: -1, 4: 5})
    for positions in (range(2, 15, 3), range(15), range(0, 15, 4), range(3, 3),
                      range(14, -1, -1), range(-6, 0), range(-1, -16, -2)):
        assert frame.reconstruct(x, positions) == frame.reconstruct(x, list(positions))
        assert frame.reconstruct(x, positions) == _reconstruct_by_definition(
            frame, x, list(positions))
    for positions in (range(16), range(2, 18, 3), range(-16, 0)):
        with pytest.raises(IndexError):
            frame.reconstruct(x, positions)


@pytest.mark.parametrize("K, limit", [(300, 20), (10, 50)])
def test_report_reads_each_coefficient_set_once(monkeypatch, K, limit):
    # e_2..e_limit, e_1 once for both of its checks, and x
    coefficient_calls = [0]
    coefficients = DiscreteFrame._coefficients

    def counted_coefficients(self, x):
        coefficient_calls[0] += 1
        return coefficients(self, x)

    monkeypatch.setattr(DiscreteFrame, "_coefficients", counted_coefficients)
    assert counterexample_report(K, limit).ok
    assert coefficient_calls[0] == min(K, limit) + 1


def _count_norms_and_builds(monkeypatch):
    """Calls of ``lp._norm``, ``CoordinateVector.__init__`` and ``_adopt`` (as
    each module looks it up), counted by name into the dict returned."""
    calls = {}

    def counted(name, call):
        def count(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return call(*args, **kwargs)
        return count

    monkeypatch.setattr(lp, "_norm", counted("norm", lp._norm))
    monkeypatch.setattr(CoordinateVector, "__init__",
                        counted("init", CoordinateVector.__init__))
    for module in (lp, diagnostics):
        monkeypatch.setattr(module, "_adopt", counted("adopt", module._adopt))
    return calls


@pytest.mark.parametrize("space", [SpaceTag.lp(1.5), SpaceTag.lp(4.0), SpaceTag.c0()])
def test_the_tail_walk_sums_a_tail_only_when_it_changes(monkeypatch, space):
    # the diagnostics runner's lp chain: window 400, a functional of support
    # 6; only the steps that add a pair inside the support change the tail
    window, support = 400, 6
    frame = unit_vector_frame(space, range(window))
    f = CoordinateVector({n: 1.0 / (n + 1) for n in range(support)})
    nesting = [range(j + 1) for j in range(window)]
    expected = [reference_tail_dual_norm(frame, f, positions) for positions in nesting]
    calls = _count_norms_and_builds(monkeypatch)
    assert tail_dual_norms(frame, f, nesting) == expected
    assert calls.get("norm", 0) <= support + 1
    assert calls.get("init", 0) <= support + 1
    assert "adopt" not in calls


def test_the_walkers_build_no_vector_per_pairing_step(monkeypatch):
    # 400 pairings over three steps: a vector per step at most, none per pairing
    window = 400
    nesting = [range(0), range(100), range(200), range(window)]
    ones = CoordinateVector({n: 1 for n in range(window)})
    frames = {tag: unit_vector_frame(tag, range(window))
              for tag in (SpaceTag.lp(2.0), SpaceTag.c0(), SpaceTag.l1())}
    calls = _count_norms_and_builds(monkeypatch)
    for frame in frames.values():
        calls.clear()
        assert tail_dual_norms(frame, ones, nesting) != []
        assert calls.get("init", 0) <= len(nesting)
        assert "adopt" not in calls
    calls.clear()
    probe = boundedly_complete_probe(frames[SpaceTag.c0()], ones, nesting)
    assert probe.increments == (1.0, 1.0, 1.0)
    assert calls.get("init", 0) <= len(nesting) - 1
    assert "adopt" not in calls


def test_tail_functional_of_unit_frame_is_restriction():
    frame = unit_vector_frame(SpaceTag.lp(2.0), range(1, 5))
    f = CoordinateVector({1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0})
    tail = reference_tail_functional(frame, f, positions={0, 1})
    assert tail == CoordinateVector({3: 3.0, 4: 4.0})


def test_tail_dual_norm_integer_case():
    # tail past the first two pairs keeps coordinates 3 and 4 with a 3-4-5 norm
    frame = unit_vector_frame(SpaceTag.lp(2.0), range(1, 5))
    f = CoordinateVector({1: 7.0, 2: -2.0, 3: 3.0, 4: 4.0})
    assert tail_dual_norm(frame, f, {0, 1}) == 5.0


def test_tail_vanishes_past_support():
    frame = unit_vector_frame(SpaceTag.lp(1.5), range(1, 9))
    f = CoordinateVector({1: 1.0, 2: -2.0})
    assert tail_dual_norm(frame, f, {0, 1}) == 0.0


def test_l1_tail_of_all_ones_never_decays():
    frame = unit_vector_frame(SpaceTag.l1(), range(1, 9))
    f = CoordinateVector({n: 1.0 for n in range(1, 9)})
    # dual of l1 carries the sup norm, so every nonempty tail has norm one
    for k in range(8):
        assert tail_dual_norm(frame, f, set(range(k))) == 1.0


def test_tail_monotone_under_growing_positions():
    rng = np.random.default_rng(27)
    frame = unit_vector_frame(SpaceTag.lp(2.5), range(1, 11))
    f = CoordinateVector({n: float(v) for n, v in
                          zip(range(1, 11), rng.standard_normal(10))})
    norms = [tail_dual_norm(frame, f, set(range(k))) for k in range(11)]
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-12
    assert norms[-1] == 0.0


def test_completeness_probe_flags_flat_increments():
    K = 10
    frame = counterexample_frame(K)
    thirds = [j for j in range(len(frame.pairs)) if (j + 1) % 3 == 0]
    nesting = [thirds[:k] for k in range(K + 1)]
    report = boundedly_complete_probe(frame, CoordinateVector.unit(1), nesting)
    # each step adds one fresh block vector of sup norm one
    assert report.increments == tuple([1.0] * K)
    assert report.non_cauchy


def test_completeness_probe_decaying_case():
    frame = unit_vector_frame(SpaceTag.lp(2.0), range(1, 6))
    xss = CoordinateVector({1: 1.0, 2: 0.5})
    nesting = [list(range(k)) for k in range(6)]
    report = boundedly_complete_probe(frame, xss, nesting)
    assert report.increments[-1] == 0.0
    assert not report.non_cauchy


def suppression_ratio_scan(frame, trials, seed=0):
    """Max of ||restricted reconstruction|| / ||x|| over random x and index subsets."""
    coordinates = sorted({n for vec, _ in frame.pairs for n in vec.support()})
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = CoordinateVector(zip(coordinates, rng.standard_normal(len(coordinates))))
        positions = np.flatnonzero(rng.integers(0, 2, size=len(frame.pairs)))
        restricted = frame.reconstruct(x, positions.tolist())
        worst = max(worst, frame.space.norm(restricted) / frame.space.norm(x))
    return worst


def test_suppression_scan_unit_frames():
    for space in (SpaceTag.lp(2.0), SpaceTag.c0(), SpaceTag.l1()):
        frame = unit_vector_frame(space, range(1, 9))
        # restricted reconstruction is a coordinate projection, never expansive
        assert suppression_ratio_scan(frame, trials=100) <= 1.0 + 1e-12


def test_suppression_bound_of_triple_frame():
    frame = counterexample_frame(6)
    # coordinate j of a restricted sum is x_j*a + x_1*b with a in {0,1} and
    # b in {-1,0,1}, so the ratio can never exceed 2 ...
    assert suppression_ratio_scan(frame, trials=300) <= 2.0 + 1e-12
    # ... and 2 is attained: keep the two positive e_1* pairs of block one
    doubled = frame.reconstruct(CoordinateVector.unit(1), [0, 2])
    assert doubled == CoordinateVector({1: 2})


def test_counterexample_frame_structure():
    frame = counterexample_frame(3)
    assert len(frame.pairs) == 9
    assert frame.space == SpaceTag.c0()
    with pytest.raises(ValueError):
        counterexample_frame(0)


def _block_by_block_frame(K):
    """The triple frame's pairs built plainly, one new functional per pair."""
    pairs = []
    for j in range(1, K + 1):
        e_j = CoordinateVector({j: 1})
        pairs += [(e_j, CoordinateVector({j: 1})), (e_j, CoordinateVector({1: -1})),
                  (e_j, CoordinateVector({1: 1}))]
    return tuple(pairs)


@pytest.mark.parametrize("K", [1, 2, 3, 50, 2000])
def test_counterexample_frame_equals_the_block_by_block_frame(K):
    frame = counterexample_frame(K)
    pairs = frame.pairs
    assert pairs == _block_by_block_frame(K)
    assert all(isinstance(v, int) for vec, fun in pairs for v in (*vec._entries.values(),
                                                                 *fun._entries.values()))
    # block j's entries dict {j: 1} is its three vectors and its first
    # functional; every block shares one {1: -1} and one {1: 1}
    vectors, functionals = frame._vectors, frame._functionals
    assert all(vectors[3 * j] is functionals[3 * j] is vectors[3 * j + 1] is vectors[3 * j + 2]
               for j in range(K))
    assert len({id(fun) for fun in functionals[1::3]}) == 1
    assert len({id(fun) for fun in functionals[2::3]}) == 1


def test_counterexample_report_runs_no_garbage_collection():
    assert gc.isenabled()
    # A tuple freed onto a free list leaves the young generation's count
    # raised, so a report run while the lists are empty ends with one young
    # collection of its few survivors, after the frame is gone.  A first
    # report fills the lists; a young collection, unlike a full one, leaves
    # them filled and zeroes the count.
    counterexample_report(10000, 50)
    gc.collect(0)
    generations = []

    def count(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.callbacks.append(count)
    try:
        assert counterexample_report(10000, 50).ok
    finally:
        gc.callbacks.remove(count)
    assert generations == []
    assert gc.isenabled()


@pytest.mark.parametrize("run", [counterexample_frame, counterexample_report])
def test_a_collector_the_caller_paused_stays_paused(run):
    gc.disable()
    try:
        run(20)
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("run", [counterexample_frame, counterexample_report])
def test_the_collector_is_restored_when_the_build_raises(monkeypatch, run):
    # the build steps through its blocks with the module's ``range``; the
    # planted one fails on the step to block 7
    enabled_during_build = []

    def failing_range(*bounds):
        for j in range(*bounds):
            enabled_during_build.append(gc.isenabled())
            if j == 7:
                raise RuntimeError("planted failure at block 7")
            yield j

    monkeypatch.setattr(diagnostics, "range", failing_range, raising=False)
    with pytest.raises(RuntimeError, match="block 7"):
        run(20)
    assert enabled_during_build and not any(enabled_during_build)
    assert gc.isenabled()


def test_counterexample_full_reconstruction_is_exact_integers():
    frame = counterexample_frame(12)
    x = CoordinateVector({1: 5, 3: -7, 12: 2})
    y = frame.reconstruct(x)
    assert y == x
    assert all(isinstance(v, int) for v in y._entries.values())


def test_counterexample_restricted_sum_is_all_ones():
    K = 40
    frame = counterexample_frame(K)
    thirds = [j for j in range(len(frame.pairs)) if (j + 1) % 3 == 0]
    candidate = frame.reconstruct(CoordinateVector.unit(1), thirds)
    assert len(candidate.support()) == K
    assert all(candidate[j] == 1 for j in range(1, K + 1))


def test_restricted_dual_functional_matches_direct_sum():
    rng = np.random.default_rng(28)
    K = 15
    frame = counterexample_frame(K)
    for _ in range(25):
        f = CoordinateVector({int(n): int(v) for n, v in zip(
            rng.integers(1, K + 1, size=4), rng.integers(-9, 10, size=4))})
        subset = [int(n) for n in range(1, 3 * K + 1) if rng.random() < 0.4]
        series = _restricted_dual_functional(f, subset, K)
        direct = {}
        for n in subset:
            vec, fun = frame.pairs[n - 1]
            w = f.pair(vec)
            for idx, v in fun._entries.items():
                direct[idx] = direct.get(idx, 0) + w * v
        assert series == CoordinateVector(direct)
    with pytest.raises(ValueError):
        _restricted_dual_functional(CoordinateVector.unit(1), [3 * K + 1], K)


def test_counterexample_report_all_green():
    report = counterexample_report(50)
    assert report.ok
    assert report.K == 50
    assert report.full_reconstruction_exact
    assert report.restricted_coordinates_all_one
    assert report.restricted_escapes_c0
    assert report.dual_series_matches_direct
    assert report.dual_action_matches_sum


def test_one_block_fails_only_the_escape_check():
    # the CLI refuses K = 1; the report says why: e_1 stays in c0
    report = counterexample_report(1)
    assert not report.ok
    assert [name for name in report.CHECKS if not getattr(report, name)] == [
        "restricted_escapes_c0"]


# -- the replaced per-set code ---------------------------------------------------


def reference_tail_functional(frame, f, positions):
    """Coordinates of x -> f(sum_{j outside positions} f_j(x) x_j).

    Positions resolve as in ``reconstruct``: a negative one counts from the
    end and an out-of-range one raises IndexError.
    """
    slots = range(len(frame.pairs))
    inside = {slots[j] for j in positions}
    total = {}
    for j in range(len(frame.pairs)):
        if j in inside:
            continue
        vec, fun = frame.pairs[j]
        weight = f.pair(vec)
        if weight != 0:
            for n, v in fun._entries.items():
                total[n] = total.get(n, 0) + weight * v
    return CoordinateVector(total)


def reference_tail_dual_norm(frame, f, positions):
    return frame.space.dual_norm(reference_tail_functional(frame, f, positions))


def reference_boundedly_complete_probe(frame, xss, nesting, tol=1e-10):
    partials = []
    for positions in nesting:
        total = {}
        for j in positions:
            vec, fun = frame.pairs[j]
            c = xss.pair(fun)
            if c != 0:
                for n, v in vec._entries.items():
                    total[n] = total.get(n, 0) + c * v
        partials.append(CoordinateVector(total))
    increments = tuple(
        float(frame.space.norm(b.sub(a)))
        for a, b in zip(partials[:-1], partials[1:]))
    return CompletenessReport(increments=increments, tol=tol)


# -- batched tails and increments against the references -----------------------------

ORACLE = settings(max_examples=150, deadline=None)
SPACES = (SpaceTag.lp(1.5), SpaceTag.lp(2.0), SpaceTag.lp(3.0), SpaceTag.c0(),
          SpaceTag.l1())

# few coordinates, so that functionals overlap and a step often changes a
# coordinate the tail already holds
small_ints = st.integers(-4, 4)
vectors = st.dictionaries(st.integers(0, 4), small_ints, max_size=3).map(
    CoordinateVector)


@st.composite
def frames_and_chains(draw):
    """A random integer frame with a nested chain of its positions.

    The chain is either step-1 ranges with one start or prefixes of a random
    order of the positions, each given as a list, a set or (when it is one)
    a range.
    """
    size = draw(st.integers(0, 9))
    pairs = tuple(draw(st.tuples(vectors, vectors)) for _ in range(size))
    frame = frame_of_pairs(pairs, draw(st.sampled_from(SPACES)))
    if draw(st.booleans()):
        start = draw(st.integers(0, size))
        stops = sorted(draw(st.lists(st.integers(start, size), max_size=6)))
        chain = [range(start, stop) for stop in stops]
    else:
        order = draw(st.permutations(range(size)))
        cuts = sorted(draw(st.lists(st.integers(0, size), max_size=6)))
        chain = []
        for cut in cuts:
            prefix = list(order[:cut])
            form = draw(st.sampled_from(("list", "set", "range")))
            if form == "set":
                prefix = set(prefix)
            elif form == "range" and prefix and \
                    sorted(prefix) == list(range(min(prefix), max(prefix) + 1)):
                prefix = range(min(prefix), max(prefix) + 1)
            chain.append(prefix)
    return frame, chain


@ORACLE
@given(frames_and_chains(), vectors)
def test_tail_dual_norms_equal_the_per_set_reference(frame_chain, f):
    frame, chain = frame_chain
    assert tail_dual_norms(frame, f, chain) == \
        [reference_tail_dual_norm(frame, f, positions) for positions in chain]
    for positions in chain:
        assert tail_dual_norm(frame, f, positions) == \
            reference_tail_dual_norm(frame, f, positions)


@ORACLE
@given(frames_and_chains(), vectors)
def test_probe_increments_equal_the_from_scratch_reference(frame_chain, xss):
    frame, chain = frame_chain
    assert boundedly_complete_probe(frame, xss, chain) == \
        reference_boundedly_complete_probe(frame, xss, chain)


@ORACLE
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12),
       st.sampled_from(SPACES), st.data())
def test_float_unit_frames_equal_the_reference(values, space, data):
    # each coordinate meets one pair, so no float sum changes order
    frame = unit_vector_frame(space, range(len(values)))
    f = CoordinateVector(dict(enumerate(values)))
    stops = sorted(data.draw(st.lists(st.integers(0, len(values)), max_size=6)))
    chain = [range(stop) for stop in stops]
    assert tail_dual_norms(frame, f, chain) == \
        [reference_tail_dual_norm(frame, f, positions) for positions in chain]
    assert boundedly_complete_probe(frame, f, chain) == \
        reference_boundedly_complete_probe(frame, f, chain)


def test_single_set_keeps_the_increasing_position_order():
    # coordinate 1 sums to 0.0 in increasing position order and to 1.0 in
    # decreasing order; one set is summed in increasing order, as before
    frame = frame_of_pairs((
        (CoordinateVector.unit(0), CoordinateVector({1: 1.0})),
        (CoordinateVector.unit(0), CoordinateVector({1: 1e16})),
        (CoordinateVector.unit(0), CoordinateVector({1: -1e16})),
    ), SpaceTag.l1())
    f = CoordinateVector.unit(0)
    assert reference_tail_functional(frame, f, []).is_zero()
    assert tail_dual_norm(frame, f, []) == 0.0
    assert tail_dual_norm(frame, f, []) == reference_tail_dual_norm(frame, f, [])


def test_running_sup_recomputes_when_a_held_coordinate_drops():
    # the tail outside {0} holds -3 at coordinate 0; adding pair 0 cancels it,
    # so the sup norm falls from 3 to 1 and must be recomputed, not kept
    frame = frame_of_pairs((
        (CoordinateVector.unit(0), CoordinateVector({0: 3})),
        (CoordinateVector.unit(0), CoordinateVector({0: -3, 1: 1})),
    ), SpaceTag.l1())
    f = CoordinateVector.unit(0)
    chain = [range(0), range(1), range(2)]
    assert tail_dual_norms(frame, f, chain) == [1.0, 3.0, 0.0]
    assert tail_dual_norms(frame, f, chain) == \
        [reference_tail_dual_norm(frame, f, positions) for positions in chain]


def test_cli_diagnostics_payload_equals_the_reference(tmp_path, monkeypatch):
    def run(name, p):
        out = tmp_path / f"{name}_{p}"
        assert cli.main(["diagnostics", "--window", "37", "--p", str(p),
                         "--out", str(out), "--quiet"]) == 0
        return (tmp_path / f"{name}_{p}.json").read_bytes()

    batched = {p: run("batched", p) for p in (1.5, 2, 2.5, 3, 4)}
    # the runner imports these names from the diagnostics module at call time
    monkeypatch.setattr(diagnostics, "tail_dual_norms", lambda frame, f, nesting: [
        reference_tail_dual_norm(frame, f, positions) for positions in nesting])
    monkeypatch.setattr(diagnostics, "boundedly_complete_probe",
                        reference_boundedly_complete_probe)
    for p, artifact in batched.items():
        assert artifact == run("reference", p)
        assert json.loads(artifact)["passed"] is True


# -- positions resolve as in reconstruct ----------------------------------------------


def _three_pair_l1_frame():
    return (unit_vector_frame(SpaceTag.l1(), range(3)),
            CoordinateVector({0: 1, 1: 2, 2: 5}))


def test_negative_positions_count_from_the_end():
    frame, f = _three_pair_l1_frame()
    # -1 is the last pair, as in reconstruct, so the tail keeps coordinates 0, 1
    assert frame.reconstruct(f, [-1]) == CoordinateVector.unit(2, 5)
    assert tail_dual_norm(frame, f, [-1]) == 2.0
    assert reference_tail_functional(frame, f, [-1]) == CoordinateVector({0: 1, 1: 2})
    assert tail_dual_norms(frame, f, [[-1], [-1, 0]]) == [2.0, 2.0]
    assert boundedly_complete_probe(frame, f, [[-1], [2, 1]]).increments == (2.0,)


@pytest.mark.parametrize("call", [
    lambda frame, f: frame.reconstruct(f, [7]),
    lambda frame, f: tail_dual_norm(frame, f, [7]),
    lambda frame, f: reference_tail_functional(frame, f, [0, -4]),
    lambda frame, f: tail_dual_norms(frame, f, [range(1), range(4)]),
    lambda frame, f: boundedly_complete_probe(frame, f, [[0], [0, 3]]),
], ids=["reconstruct", "tail_dual_norm", "tail_functional", "tail_dual_norms",
        "probe"])
def test_out_of_range_positions_raise(call):
    frame, f = _three_pair_l1_frame()
    with pytest.raises(IndexError):
        call(frame, f)


@pytest.mark.parametrize("chain", [
    [[0, 1], [0]],
    [range(2), range(1)],
    [range(1, 3), range(0, 2)],
    [{0}, {1}],
    [[0], [0, 1], [1, 2]],
], ids=["lists", "ranges", "shifted-ranges", "sets", "late-break"])
def test_a_chain_that_is_not_nested_raises(chain):
    frame, f = _three_pair_l1_frame()
    with pytest.raises(ValueError, match="not a chain"):
        boundedly_complete_probe(frame, f, chain)
    with pytest.raises(ValueError, match="not a chain"):
        tail_dual_norms(frame, f, chain)


# -- NaN fails closed ---------------------------------------------------------------


def test_sup_norm_keeps_a_nan_in_any_place():
    assert math.isnan(CoordinateVector({0: 1.0, 1: math.nan}).norm(math.inf))
    assert math.isnan(CoordinateVector({0: math.nan, 1: 1.0}).norm(math.inf))
    assert math.isnan(CoordinateVector({0: 1.0, 1: math.nan, 2: 5.0}).norm(math.inf))
    assert CoordinateVector({0: 1.0, 1: -7.0}).norm(math.inf) == 7.0


def test_nan_increment_is_not_cauchy():
    frame = unit_vector_frame(SpaceTag.c0(), range(3))
    xss = CoordinateVector({0: 1, 1: 1, 2: math.nan})
    report = boundedly_complete_probe(frame, xss, [range(1), range(2), range(3)])
    assert report.increments[0] == 1.0
    assert math.isnan(report.increments[1])
    assert report.non_cauchy
    assert CompletenessReport(increments=(math.nan,), tol=1.0).non_cauchy
    assert not CompletenessReport(increments=(0.5,), tol=1.0).non_cauchy


def test_running_sup_keeps_a_nan():
    frame = unit_vector_frame(SpaceTag.l1(), range(4))
    # NaN first in the tail, then behind larger entries
    f = CoordinateVector({0: 1.0, 1: 9.0, 2: math.nan, 3: 2.0})
    norms = tail_dual_norms(frame, f, [range(j) for j in range(5)])
    assert all(math.isnan(v) for v in norms[:3])
    assert norms[3:] == [2.0, 0.0]
    # a NaN made by inf - inf at a coordinate the tail already holds
    frame = frame_of_pairs((
        (CoordinateVector.unit(0), CoordinateVector({0: -math.inf})),
        (CoordinateVector.unit(0), CoordinateVector({0: math.inf, 1: 1.0})),
    ), SpaceTag.l1())
    norms = tail_dual_norms(frame, CoordinateVector.unit(0), [range(0), range(1)])
    assert math.isnan(norms[0])
    assert norms[1] == math.inf
