"""The unit-folded translate calculus against two references.

Every translate-frame quantity is computed on the unit fold of the
generator (``stepfn._folded``).  Each folded path is compared with

* the per-translate ``StepFunction`` code it replaced, kept verbatim below
  as the reference (``reference_*``), on Gaussian and non-dyadic data;
  where it summed with the deleted ``StepFunction.sum`` it now adds one
  term at a time (``left_fold``), and where it used the deleted
  ``multiply`` it takes the product from ``stepfn._combined``
  (``pointwise_product``), and it takes each translate from the deleted
  ``StepFunction.translate``, kept in ``reference_orbit``;
* the exact oracle of ``tests/exact.py``: the Gram lags, the
  biorthogonality matrix, synthesis and the young lhs on the same data,
  within the bounds the deleted ``StepFunction.inner`` and ``lp_norm``
  were held to; and on dyadic generators, driven by ``hypothesis``, where
  few bits keep every float sum exact, so the folded results must equal
  the oracle.  On tenths grids cell widths round, and a sum is held within
  a stated bound instead.

The fold keeps every distinct fractional part.  The fold that merged parts
within 64 ulps of 1 is kept verbatim too, with the CLI check that refused
the records it merged, and the two folds agree byte for byte on every
record that check admits.

A cost guard counts ``StepFunction`` constructions, so that a return to
one object per translate or per trial shows without relying on wall time,
and a fold guard counts ``_folded`` calls, so that a consumer that folds
the generator again instead of reading ``Generator.fold`` shows too.
"""

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framelab import (
    CoordinateVector,
    RademacherSpec,
    StepFunction,
    biorthogonality_matrix,
    build_rademacher_generator,
    synthesis_over_set,
    unconditionality_scan,
    validate_generator,
    young_check,
)
from framelab.pettis import _sign_parts
from framelab.stepfn import _combined, _evaluate, _folded, _merge, _periodized_sup, _widths
from framelab import cli, translate_frame
from framelab.translate_frame import (VALIDATION_TOL, Generator, GeneratorRejected,
                                      _certified, _series, _synthesis)

import exact
from reference_orbit import scale, translate


def translate_series(f, x):
    """sum_n x_n * f(. - n) as a step function, from the fold kernels.

    The dense runs of x are summed as rows of the fold of f and unfolded
    one run at a time; the runs are disjoint, so their sum is the series.
    The kernels are looked up on the module, so a patched one is used.
    """
    if x.is_zero() or f.values.size == 0:
        return StepFunction()
    k0, grid, table = _folded(f)
    return left_fold([translate_frame._unfold(k0 + n0, grid, translate_frame._series(table, a))
                      for n0, a in translate_frame._runs(x, table.shape[0])])


# -- the replaced per-translate code, verbatim ----------------------------------


def left_fold(funcs):
    """The sum of step functions, added one at a time from the left."""
    total = StepFunction()
    for f in funcs:
        total = total.add(f)
    return total


def reference_translate_series(f, x):
    """sum_n x_n * f(. - n) as a step function."""
    return left_fold([scale(translate(f, n), c) for n, c in x._entries.items()])


def reference_periodized_l1_sup(self):
    if self.values.size == 0:
        return 0.0
    frags = []
    for s, e, v in zip(self.breakpoints[:-1], self.breakpoints[1:],
                       np.abs(self.values)):
        if v == 0.0:
            continue
        pos = s
        while pos < e:
            k = math.floor(pos)
            seg_end = min(e, k + 1.0)
            frags.append((pos - k, seg_end - k, v))
            pos = seg_end
    if not frags:
        return 0.0
    points = {0.0, 1.0}
    for fs, fe, _ in frags:
        points.add(fs)
        points.add(fe)
    grid = np.array(sorted(points))
    acc = np.zeros(grid.size - 1)
    for fs, fe, v in frags:
        i0 = np.searchsorted(grid, fs)
        i1 = np.searchsorted(grid, fe)
        acc[i0:i1] += v
    return float(acc.max())


def pointwise_product(c, d):
    """The pointwise product c*d."""
    return StepFunction(*_combined((c.breakpoints, c.values), (d.breakpoints, d.values),
                                   np.multiply))


def periodized_sup(f):
    """sup over t of the 1-periodization of |f|, from the unit fold of f."""
    return _periodized_sup(_folded(f)[2])


def reference_sign_parts(c, d):
    """(positive part, negative part) of integral c*d."""
    product = pointwise_product(c, d)
    if product.values.size == 0:
        return 0.0, 0.0
    lens = np.diff(product.breakpoints)
    vals = product.values
    pos = float(np.dot(np.where(vals > 0, vals, 0.0), lens))
    neg = float(-np.dot(np.where(vals < 0, vals, 0.0), lens))
    return pos, neg


def reference_sign_pattern(depth):
    """Alternating +1/-1 step function on [0,1) with 2^depth cells, starting at +1."""
    cells = 2 ** depth
    bp = np.arange(cells + 1) / cells
    vals = np.where(np.arange(cells) % 2 == 0, 1.0, -1.0)
    return StepFunction(bp, vals)


def reference_rademacher_function(spec):
    coeffs = spec.coefficients
    pieces = []
    for rank, (n, a) in enumerate(coeffs._entries.items()):
        pieces.append(scale(translate(reference_sign_pattern(rank + spec.resolution), n), a))
    return left_fold(pieces)


def reference_scan(g, trials, window, p, seed=0):
    q = p / (p - 1.0)
    rng = np.random.default_rng(seed)
    best_suppression = 0.0
    best_unconditional = 0.0
    for _ in range(trials):
        vals = rng.standard_normal(2 * window + 1)
        x = CoordinateVector({n - window: float(v) for n, v in enumerate(vals)})
        vals = rng.standard_normal(2 * window + 1)
        xs = CoordinateVector({n - window: float(v) for n, v in enumerate(vals)})
        denom = x.norm(p) * xs.norm(q)
        if denom < 1e-9:
            continue
        c = reference_translate_series(g.f, x)
        d = reference_translate_series(g.f, xs)
        best_suppression = max(best_suppression, max(reference_sign_parts(c, d)) / denom)
        # the integral of |c d| is the sum of its sign parts
        best_unconditional = max(best_unconditional, sum(reference_sign_parts(c, d)) / denom)
    return best_suppression, best_unconditional


# -- shared data -----------------------------------------------------------------


def uncertified(f):
    """f as a Generator with no report, on its own unit fold."""
    return Generator(f, None, _folded(f))


def certificates(g, lag_range):
    """The validation report of g's function at ``lag_range``, passed or not."""
    try:
        return _certified(g.f, g.fold, lag_range, VALIDATION_TOL).report
    except GeneratorRejected as rejected:
        return rejected.report


def gaussian_generator(rng, terms=8):
    vals = rng.standard_normal(terms)
    vals /= math.sqrt(float(np.dot(vals, vals)))
    return build_rademacher_generator(RademacherSpec(
        coefficients={n: float(v) for n, v in enumerate(vals)}))


def gaussian_vector(rng, window):
    vals = rng.standard_normal(2 * window + 1)
    return CoordinateVector({n - window: float(v) for n, v in enumerate(vals)})


# 0.1 and 1.1 - 1 (= 2.1 - 2) differ in the last bit: the fold keeps the sliver
NON_DYADIC = StepFunction([0.1, 0.6, 1.1, 1.35, 2.1], [0.5, -1.0, 0.75, 0.25])


def max_gap(f, g):
    """Largest |f - g| over the cells of the union of their grids."""
    grid = np.union1d(f.breakpoints, g.breakpoints)
    if grid.size < 2:
        return 0.0
    mids = 0.5 * (grid[:-1] + grid[1:])
    return float(np.max(np.abs(f.evaluate(mids) - g.evaluate(mids))))


def fold_cell_gap(f, x):
    """Largest |series - exact| of sum_n x_n f(. - n) over the fold's cells:
    the rows the fold kernels sum for each run of x against a ``Fraction``
    series at the exact midpoint of each cell k0 + n0 + u + [G_i, G_(i+1))."""
    series = exact.series(exact.of(f), x)
    k0, grid, table = _folded(f)
    mids = [mid for _, _, mid in exact.cells(map(Fraction, grid.tolist()))]
    gap = 0.0
    for n0, a in translate_frame._runs(x, table.shape[0]):
        for u, row in enumerate(translate_frame._series(table, a).tolist()):
            start = int(k0) + n0 + u
            gap = max([gap] + [abs(v - float(exact.value(series, start + mid)))
                               for v, mid in zip(row, mids)])
    return gap


def vector_gap(x, y):
    keys = set(x.support()) | set(y.support())
    return max((abs(x[n] - y[n]) for n in keys), default=0.0)


# -- folded paths against the replaced code --------------------------------------


def test_fold_keeps_every_fractional_part():
    k0, grid, table = _folded(NON_DYADIC)
    assert k0 == 0.0
    # every fractional part, 0.1 and 1.1 - 1 (8.3e-17 apart) among them
    assert grid.tolist() == [0.0, 0.1, 1.1 - 1.0, 1.35 - 1.0, 0.6, 1.0]
    assert 1.1 - 1.0 > 0.1
    assert table.shape == (3, 5)
    # on the sliver [0.1, 1.1 - 1) the three units read 0.5, |-1| and 0.25
    assert periodized_sup(NON_DYADIC) == 1.75 == reference_periodized_l1_sup(NON_DYADIC)
    assert exact_periodized_sup(exact.of(NON_DYADIC)) == Fraction(7, 4)
    # shifted past the binade at 65536, 65535.1 and 65536.1 have fractional
    # parts 7.3e-12 apart.  Fractional parts past 1 are exact, so the fold
    # keeps that sliver, where three units overlap, and reads it by cell
    # number although one ulp of 65536 is wider than the sliver.
    far = translate(NON_DYADIC, 65535.0)
    k0, grid, table = _folded(far)
    assert (k0, grid.size, table.shape) == (65535.0, 6, (3, 5))
    assert periodized_sup(far) == reference_periodized_l1_sup(far) == 1.75
    # the one inexact case: -0.3 + 1 rounds onto the fractional part of 0.7
    assert _folded(StepFunction([-0.3, 0.7], [1.0]))[1].tolist() == [0.0, 0.7, 1.0]


def test_rademacher_rows_match_summed_patterns_bit_for_bit():
    rng = np.random.default_rng(31)
    for terms in range(1, 8):
        idx = np.sort(rng.choice(np.arange(-6, 7), size=terms, replace=False))
        vals = rng.standard_normal(terms)
        vals /= math.sqrt(float(np.dot(vals, vals)))
        for resolution in (1, 2):
            spec = RademacherSpec(
                coefficients=CoordinateVector(
                    {int(n): float(v) for n, v in zip(idx, vals)}),
                resolution=resolution)
            assert build_rademacher_generator(spec).f == reference_rademacher_function(spec)


def test_translate_series_matches_reference():
    rng = np.random.default_rng(32)
    for _ in range(10):
        g = gaussian_generator(rng)
        x = gaussian_vector(rng, 8)
        assert max_gap(translate_series(g.f, x),
                       reference_translate_series(g.f, x)) <= 1e-14
    # unfolded, NON_DYADIC's cells 1 + 0.1 and 1 + (1.1 - 1) round to one
    # point, so its series is compared on the fold's own cells
    x = CoordinateVector({-2: 0.3, 0: 1.7, 3: -0.9})
    assert fold_cell_gap(NON_DYADIC, x) <= 1e-15


def test_gram_residual_and_biorthogonality_match_reference():
    rng = np.random.default_rng(33)
    for _ in range(3):
        g = gaussian_generator(rng)
        report = g.report
        assert report.lag_range == 8
        lags = exact_lags(g.f)
        assert abs(report.ortho_residual - ortho_residual(lags[:9])) <= 1e-15
        assert np.max(np.abs(biorthogonality_matrix(g, 16) - gram_matrix(lags, 16))) <= 1e-15
    wide = uncertified(NON_DYADIC)
    report = certificates(wide, None)
    lags = exact_lags(NON_DYADIC)
    assert report.ortho_residual == pytest.approx(
        ortho_residual(lags[:report.lag_range + 1]), rel=1e-14)
    assert np.max(np.abs(biorthogonality_matrix(wide, 4) - gram_matrix(lags, 4))) <= 1e-15


def test_periodized_sup_matches_reference():
    rng = np.random.default_rng(34)
    for _ in range(20):
        g = gaussian_generator(rng, int(rng.integers(1, 8)))
        # same cells, same per-column order (increasing unit): bit for bit
        assert periodized_sup(g.f) == reference_periodized_l1_sup(g.f)
        shifted = scale(translate(g.f, 0.375), -1.5)
        assert periodized_sup(shifted) == reference_periodized_l1_sup(shifted)


def test_synthesis_matches_reference():
    rng = np.random.default_rng(35)
    for _ in range(4):
        g = gaussian_generator(rng)
        x = gaussian_vector(rng, 4)
        assert vector_gap(synthesis_over_set(g, x, 12), exact_synthesis(g.f, x, 12)) <= 1e-14
    g = uncertified(NON_DYADIC)
    x = CoordinateVector({-1: 0.3, 2: -1.1})
    assert vector_gap(synthesis_over_set(g, x, 6), exact_synthesis(g.f, x, 6)) <= 1e-14


def test_scan_sign_parts_and_bounds_match_reference():
    rng = np.random.default_rng(36)
    g = gaussian_generator(rng)
    _, grid, table = _folded(g.f)
    for _ in range(5):
        x = gaussian_vector(rng, 8)
        xs = gaussian_vector(rng, 8)
        pos, neg = _sign_parts(
            _series(table, np.array([x[n] for n in range(-8, 9)]))
            * _series(table, np.array([xs[n] for n in range(-8, 9)])), np.diff(grid))
        ref_pos, ref_neg = reference_sign_parts(reference_translate_series(g.f, x),
                                                reference_translate_series(g.f, xs))
        assert pos == pytest.approx(ref_pos, rel=1e-13)
        assert neg == pytest.approx(ref_neg, rel=1e-13)
    new = unconditionality_scan(g, 40, 8, 1.5, seed=3)
    old = reference_scan(g, 40, 8, 1.5, seed=3)
    assert new == pytest.approx(old, rel=1e-13)


def test_young_lhs_matches_reference():
    rng = np.random.default_rng(37)
    for i in range(10):
        f = gaussian_generator(rng, 4).f
        a = CoordinateVector({int(n): float(v) for n, v in
                              zip(rng.choice(np.arange(-6, 7), size=3, replace=False),
                                  rng.standard_normal(3))})
        p = (1.5, 2.0, 3.0)[i % 3]
        lhs, _ = young_check(f, a, p)
        assert lhs == pytest.approx(
            float(exact.power_integral(exact.series(exact.of(f), a), p)), rel=1e-13)


def test_far_apart_coefficients_fold_in_separate_runs(monkeypatch):
    # runs split where indices lie 2 * units (16) or more apart:
    # {-100, -97}, {0}, {100, 110}; 110 - 100 is under 16, so synthesis
    # coordinates of 100 and 110 overlap and must stay in one run
    g = gaussian_generator(np.random.default_rng(39))
    x = CoordinateVector({-100: 1.5, -97: -0.25, 0: 0.5, 100: -2.0, 110: 0.75})
    sizes = []

    def recording(table, a):
        sizes.append(a.size)
        return _series(table, a)

    monkeypatch.setattr(translate_frame, "_series", recording)
    series = translate_series(g.f, x)
    y = synthesis_over_set(g, x, 120)
    lhs, _ = young_check(g.f, x, 3.0)
    assert sizes == [4, 1, 11] * 3
    assert max_gap(series, reference_translate_series(g.f, x)) <= 1e-14
    assert vector_gap(y, exact_synthesis(g.f, x, 120)) <= 1e-14
    assert lhs == pytest.approx(
        float(exact.power_integral(exact.series(exact.of(g.f), x), 3)), rel=1e-13)


# -- the exact rational oracle ---------------------------------------------------


def exact_lags(f):
    """The Gram lags <f, f(. - m)> of a StepFunction f, for every m below the
    width of its support; every later lag is 0."""
    lo, hi = f.support()
    f = exact.of(f)
    return [exact.inner(f, exact.translate(f, m)) for m in range(math.ceil(hi - lo))]


def ortho_residual(lags):
    return float(max(abs(lag - (m == 0)) for m, lag in enumerate(lags)))


def gram_matrix(lags, window):
    """The biorthogonality matrix at ``window``: entry (i, j) is lag |i - j|."""
    index = np.arange(2 * window + 1)
    return np.array([float(v) for v in lags] + [0.0] * index.size)[abs(index[:, None] - index)]


def exact_synthesis(f, x, window):
    """Coordinates m of the synthesis of x, |m| <= window: sum_n x_n times
    the lag m - n, exact, each rounded once."""
    lags = exact_lags(f) + [0] * (window + max(map(abs, x.support())))
    terms = x._entries.items()
    return CoordinateVector({m: float(sum(Fraction(c) * lags[abs(m - n)] for n, c in terms))
                             for m in range(-window, window + 1)})


def lag_and_size(series, f, m):
    """<series, f(. - m)> and the integral of |series f(. - m)|, the scale of
    its rounding, for exact cells."""
    shifted = exact.translate(f, m)
    terms = [(b - a) * exact.value(series, mid) * exact.value(shifted, mid)
             for a, b, mid in exact.cells(series[0] + shifted[0])]
    return sum(terms, Fraction(0)), sum(map(abs, terms), Fraction(0))


def exact_periodized_sup(f):
    """sup of the 1-periodization of |f| for the exact cells f."""
    points = {Fraction(0), Fraction(1)} | {b - math.floor(b) for b in f[0]}
    units = range(math.floor(f[0][0]), math.ceil(f[0][-1]))
    return max(sum(abs(exact.value(f, mid + k)) for k in units)
               for _, _, mid in exact.cells(points))


# breakpoints on (1/4)Z, values and coefficients on (1/2)Z: every float sum stays exact
dyadic_generators = exact.integer_cells(nonzero=True)
dyadic_vectors = st.dictionaries(st.integers(-4, 4), st.integers(-4, 4).filter(bool),
                                 min_size=1, max_size=5)


# (offset, scale) that put the breakpoints on offset + scale * q instead: cells
# of 2^-42 (2.3e-13), narrower than 1e-12, a negative offset, and offsets of
# 1e5 and across the binade at 65536, where one ulp is wider than 1e-12.
# Sums stay exact on these, so the folded results equal the oracle.
FOLD_GRIDS = [(0.0, 0.25), (0.0, 2.0 ** -42), (-3.0, 0.25), (65536.0, 2.0 ** -28),
              (65536.0, 0.25), (1e5, 0.25)]
# Tenths, at negative offsets too, with no breakpoint in (-0.5, 0), where the
# fold moves a point (test_the_fold_moves_only_points_in_minus_half_to_zero).
# Tenths from 65535 on cross the binade at 65536, where fractional parts of
# different units lie 7.3e-12 apart: slivers narrower than an ulp of the
# unfolded points.  Cell widths round on tenths, so a sum of products is held
# to within SLACK of the sum of its terms' magnitudes; sums of |values| stay
# exact on any breakpoints.
TENTHS_GRIDS = [(1.5, 0.1), (-2.0, 0.1), (65535.0, 0.1), (-65537.0, 0.1)]
SLACK = Fraction(1, 2 ** 45)
fold_grids = st.sampled_from(FOLD_GRIDS + TENTHS_GRIDS)


def slack(grid):
    """Error allowed on ``grid``, relative to the sum of the terms' magnitudes."""
    return SLACK if grid in TENTHS_GRIDS else 0


def build(drawn, offset=0.0, step=0.25):
    f = exact.dyadic(drawn, offset, step)
    return f, uncertified(f)


def vector(raw):
    return CoordinateVector({n: c / 2 for n, c in raw.items()})


ORACLE = settings(max_examples=40, deadline=None)


@ORACLE
@given(dyadic_generators, dyadic_vectors)
def test_translate_series_is_exact(gen, raw):
    f, _ = build(gen)
    x = vector(raw)
    want = exact.series(exact.of(f), x)
    series = translate_series(f, x)
    for _, _, mid in exact.cells(want[0]):
        assert Fraction(float(series(float(mid)))) == exact.value(want, mid)


@ORACLE
@given(dyadic_generators, fold_grids)
@example(([-9, 1], [2]), (1.5, 0.1))        # lag 1 is the sliver [0.6 + 1, 1.6)
def test_gram_lags_and_residual_are_exact(gen, grid):
    f, g = build(gen, *grid)
    window = 4
    lags, sizes = zip(*(lag_and_size(exact.of(f), exact.of(f), m)
                        for m in range(2 * window + 1)))
    mat = biorthogonality_matrix(g, window)
    for i in range(2 * window + 1):
        for j in range(2 * window + 1):
            lag = abs(i - j)
            assert abs(Fraction(float(mat[i, j])) - lags[lag]) <= slack(grid) * sizes[lag]
    report = certificates(g, window)
    expected = max(abs(lag - (1 if m == 0 else 0)) for m, lag in enumerate(lags))
    assert abs(Fraction(report.ortho_residual) - expected) <= slack(grid) * max(sizes)


@ORACLE
@given(dyadic_generators, fold_grids)
@example(([1, 11], [1]), (65535.0, 0.1))    # units 0 and 1 overlap on the sliver
@example(([-9, 1], [2]), (1.5, 0.1))        # 0.6 and 1.6 - 1 differ in the last bit
def test_periodized_sup_is_exact(gen, grid):
    f, _ = build(gen, *grid)
    assert Fraction(periodized_sup(f)) == exact_periodized_sup(exact.of(f))


@ORACLE
@given(dyadic_generators, dyadic_vectors, fold_grids)
def test_synthesis_is_exact(gen, raw, grid):
    f, g = build(gen, *grid)
    x = vector(raw)
    series = exact.series(exact.of(f), x)
    window = 10
    y = synthesis_over_set(g, x, window)
    for m in range(-window, window + 1):
        total, size = lag_and_size(series, exact.of(f), m)
        assert abs(Fraction(y[m]) - total) <= slack(grid) * size


# runs of x from a negative index on, after gaps of 0-16 zero entries: a gap
# of 2 * units or more splits the runs (``_runs``), a shorter one does not
gapped_runs = st.tuples(st.integers(-24, -1), st.lists(
    st.tuples(st.integers(0, 16), st.lists(st.integers(-4, 4).filter(bool), min_size=1,
                                           max_size=3)), min_size=1, max_size=3))


@ORACLE
@given(dyadic_generators, gapped_runs, fold_grids)
@example(([0, 24], [1]), (-20, [(0, [1, -2]), (12, [3]), (11, [-1])]), (0.0, 0.25))
def test_synthesis_of_gapped_dense_runs_is_exact(gen, drawn, grid):
    # the 6-unit example splits at its gap of 12 and not at its gap of 11
    f, g = build(gen, *grid)
    n0, runs = drawn
    entries, n = {}, n0
    for gap, values in runs:
        n += gap
        for v in values:
            entries[n] = Fraction(v, 2)
            n += 1
    x = CoordinateVector({n: float(c) for n, c in entries.items()})
    span = g.fold[2].shape[0]
    window = max(-n0, n) + span
    y = synthesis_over_set(g, x, window)
    # the dense core over the whole span of x, its gaps included
    dense = _synthesis(g, n0, np.array([x[k] for k in range(n0, n)]), window)
    for m in range(-window, window + 1):
        near = {k: c for k, c in entries.items() if abs(k - m) <= span}
        if not near:
            assert y[m] == dense[m + window] == 0.0
            continue
        total, size = lag_and_size(exact.series(exact.of(f), near), exact.of(f), m)
        assert abs(Fraction(y[m]) - total) <= slack(grid) * size
        assert abs(Fraction(float(dense[m + window])) - total) <= slack(grid) * size


@ORACLE
@given(dyadic_generators, st.lists(st.integers(-4, 4), min_size=5, max_size=5),
       st.lists(st.integers(-4, 4), min_size=5, max_size=5))
def test_scan_sign_parts_are_exact(gen, xa, xb):
    f, _ = build(gen)
    _, grid, table = _folded(f)
    a = np.array(xa) / 2
    b = np.array(xb) / 2
    pos, neg = _sign_parts(_series(table, a) * _series(table, b), np.diff(grid))
    ca, cb = (exact.series(exact.of(f), dict(enumerate(c.tolist()))) for c in (a, b))
    exact_pos = exact_neg = Fraction(0)
    for lo, hi, mid in exact.cells(ca[0] + cb[0]):
        v = (hi - lo) * exact.value(ca, mid) * exact.value(cb, mid)
        exact_pos += max(v, 0)
        exact_neg += max(-v, 0)
    assert Fraction(pos) == exact_pos
    assert Fraction(neg) == exact_neg


def unfolded(fold):
    """(breakpoints, values) of the function a fold describes, in Fractions:
    table row j on the cells k0 + j + [G_i, G_(i+1)), with equal neighbours
    joined and zero cells trimmed at both ends, as StepFunction holds f."""
    k0, grid, table = fold
    starts = [(Fraction(int(k0) + j) + Fraction(a), v) for j, row in enumerate(table.tolist())
              for a, v in zip(grid[:-1].tolist(), row)]
    runs = [(a, v) for n, (a, v) in enumerate(starts) if n == 0 or v != starts[n - 1][1]]
    points = [a for a, _ in runs] + [Fraction(int(k0) + table.shape[0])]
    values = [v for _, v in runs]
    while values and values[0] == 0:
        del points[0], values[0]
    while values and values[-1] == 0:
        del points[-1], values[-1]
    return points, values


# breakpoints in (-0.5, 0), where t + 1 may round (tenths, and floats down to
# 1e-300), among tenths elsewhere in [-2, 2], none within 1e-15 of another
rounding_points = st.lists(
    st.one_of(st.integers(-4, -1).map(lambda q: q / 10),
              st.floats(-0.5, 0.0, exclude_min=True, exclude_max=True)),
    min_size=1, max_size=3)
other_points = st.lists(st.integers(-20, 20).filter(lambda q: not -5 < q < 0)
                        .map(lambda q: q / 10), max_size=4)
spaced_points = st.tuples(rounding_points, other_points).map(
    lambda drawn: sorted(set(drawn[0] + drawn[1]))).filter(
    lambda bp: len(bp) >= 2 and all(b - a > 1e-15 for a, b in zip(bp, bp[1:])))


@ORACLE
@given(spaced_points, st.lists(st.integers(-4, 4).filter(bool), min_size=8, max_size=8))
@example([-0.3, 0.7], [1] * 8)          # -0.3 + 1 rounds onto the part of 0.7
@example([-1e-17, 1.0], [1] * 8)        # -1e-17 + 1 rounds to 1: the next unit's start
@example([-0.45, -0.1, 0.0], [1, -1] * 4)
def test_the_fold_moves_only_points_in_minus_half_to_zero(breakpoints, weights):
    f = StepFunction(breakpoints, weights[:len(breakpoints) - 1])
    points, values = unfolded(_folded(f))
    assert values == f.values.tolist()
    assert len(points) == f.breakpoints.size
    for got, t in zip(points, f.breakpoints.tolist()):
        if -0.5 < t < 0.0:
            assert abs(got - Fraction(t)) <= Fraction(1, 2 ** 54)
        else:
            assert got == Fraction(t)


# -- the merged fold against the exact one ---------------------------------------


def merged_folded(f):
    """The unit fold as it was when it merged fractional parts, verbatim."""
    if f.values.size == 0:
        return 0.0, np.array([0.0, 1.0]), np.zeros((0, 1))
    bp = f.breakpoints
    whole = np.floor(bp)
    k0 = float(whole[0])
    units = int(np.ceil(bp[-1]) - k0)
    frac = bp - whole
    grid = _merge(np.concatenate((frac, (0.0, 1.0))))
    grid[-1] = 1.0      # a part just below 1 may have absorbed the end point
    cells = grid.size - 1
    starts = (whole - k0) * cells + np.searchsorted(grid, frac, side="right") - 1
    table = _evaluate(starts, f.values, np.arange(units * cells, dtype=float))
    return k0, grid, table.reshape(units, cells)


def merged_fold_admits(breakpoints):
    """The check that refused a step-function generator record whose distinct
    fractional parts the merged fold would join, verbatim but for its name."""
    bp = np.array(breakpoints, dtype=float)
    parts = np.sort(np.concatenate((bp - np.floor(bp), (0.0, 1.0))))
    try:
        cli._require_separated("distinct fractional parts",
                               parts[np.append(True, parts[1:] != parts[:-1])])
    except cli.ConfigError:
        return False
    return True


def lattice_records(offsets, scale, lo, hi):
    """Sorted breakpoints offset + q * scale, q distinct in [lo, hi]."""
    return st.tuples(offsets, st.lists(st.integers(lo, hi), min_size=2, max_size=7,
                                       unique=True)).map(
        lambda drawn: [drawn[0] + q * scale for q in sorted(drawn[1])])


# tenths with negative offsets, hundredths around 0, tenths past the binade at
# 65536 and uniform reals, each with values of either sign
step_records = st.one_of(
    lattice_records(st.integers(-5, 0), 0.1, -30, 30),
    lattice_records(st.just(0), 0.01, -150, 150),
    lattice_records(st.integers(65530, 65540), 0.1, 0, 30),
    st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=7, unique=True).map(sorted),
).flatmap(lambda bp: st.tuples(
    st.just(bp), st.lists(st.integers(-4, 4).filter(bool), min_size=len(bp) - 1,
                          max_size=len(bp) - 1)))


@settings(max_examples=300, deadline=None)
@given(step_records)
@example(([0.1, 0.6, 1.1, 1.35, 2.1], [1, -2, 3, 1]))   # NON_DYADIC: refused
@example(([0.1, 1.1], [1]))                             # refused
@example(([-0.3, 0.7], [1]))                            # admitted; -0.3 + 1 rounds
@example(([-1e-17, 1.0], [1]))                          # -1e-17 + 1 rounds to 1
def test_the_fold_equals_the_merged_fold_wherever_the_cli_admitted_it(record):
    breakpoints, values = record
    try:
        f = cli._check_step_record("record", {"breakpoints": breakpoints, "values": values})
    except cli.ConfigError:
        return      # refused before any fold
    k0, grid, table = _folded(f)
    old_k0, old_grid, old_table = merged_folded(f)
    assert np.all(_widths(grid) > 0)
    if merged_fold_admits(breakpoints):
        assert type(k0) is type(old_k0) and k0 == old_k0
        for new, old in ((grid, old_grid), (table, old_table)):
            assert (new.dtype, new.shape) == (old.dtype, old.shape)
            assert new.tobytes() == old.tobytes()
    elif not merged_fold_admits(f.breakpoints):
        # f keeps the record's breakpoints but those between equal values; the
        # check refused only breakpoints whose fold the merge changes
        assert grid.size > old_grid.size


# -- cost guard ------------------------------------------------------------------


def constructions(monkeypatch, run):
    """StepFunction objects built while ``run()`` executes."""
    count = [0]
    original = StepFunction.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(StepFunction, "__init__", counting)
    try:
        run()
    finally:
        monkeypatch.setattr(StepFunction, "__init__", original)
    return count[0]


def test_translate_paths_build_a_bounded_number_of_step_functions(monkeypatch):
    g = build_rademacher_generator(RademacherSpec(
        coefficients={n: 1 / math.sqrt(8.0) for n in range(8)}))
    x = gaussian_vector(np.random.default_rng(38), 8)
    small = [lambda: biorthogonality_matrix(g, 1),
             lambda: unconditionality_scan(g, 2, 1, 2.0),
             lambda: synthesis_over_set(g, CoordinateVector.unit(0), 1)]
    large = [lambda: biorthogonality_matrix(g, 16),
             lambda: unconditionality_scan(g, 500, 8, 2.0),
             lambda: synthesis_over_set(g, x, 16)]
    for run_small, run_large in zip(small, large):
        built = constructions(monkeypatch, run_large)
        assert built <= 2
        assert built == constructions(monkeypatch, run_small)


# -- fold guard ------------------------------------------------------------------


def folds(monkeypatch, run):
    """``_folded`` calls made while ``run()`` executes, through any module's binding."""
    count = [0]
    original = _folded

    def counting(f):
        count[0] += 1
        return original(f)

    with monkeypatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.startswith("framelab") and getattr(module, "_folded", None) is original:
                patch.setattr(module, "_folded", counting)
        run()
    return count[0]


STEP_GENERATOR = {"step_function": {"breakpoints": [0.0, 0.5, 1.0], "values": [1.0, -1.0]}}


@pytest.mark.parametrize("generator, expected", [
    (None, 0),                  # the default Rademacher record hands its rows over
    (STEP_GENERATOR, 1),        # a step function is folded once, at certification
])
def test_reconstruct_folds_its_generator_at_most_once(monkeypatch, tmp_path, generator,
                                                      expected):
    argv = ["reconstruct", "--num-vectors", "8", "--out", str(tmp_path / "r"), "--quiet"]
    if generator is not None:
        argv += ["--generator", json.dumps(generator)]
    codes = []
    assert folds(monkeypatch, lambda: codes.append(cli.main(argv))) == expected
    assert codes == [0]


@pytest.mark.parametrize("generator, expected", [
    ({"rademacher": {"coefficients": [[0, 0.6], [1, 0.8]]}}, 0),
    ({"rademacher": {"coefficients": [[-2, 0.5], [0, -0.5], [1, 0.5], [4, 0.5]],
                     "resolution": 2}}, 0),
    (STEP_GENERATOR, 1),
], ids=["rademacher", "rademacher-gapped", "step-function"])
def test_validate_generator_folds_only_a_step_function_record(monkeypatch, tmp_path,
                                                              generator, expected):
    argv = ["validate-generator", "--generator", json.dumps(generator), "--lag-range", "7",
            "--out", str(tmp_path / "v"), "--quiet"]
    codes = []
    assert folds(monkeypatch, lambda: codes.append(cli.main(argv))) == expected
    assert codes == [0]


def test_young_fuzz_folds_none_of_its_rademacher_draws(monkeypatch, tmp_path):
    # the only folds left are the unit indicator's, one per exponent
    def fuzz(draws):
        return lambda: cli.main(["young-fuzz", "--draws", str(draws), "--p-list", "1.5,3",
                                 "--out", str(tmp_path / "y"), "--quiet"])
    assert folds(monkeypatch, fuzz(3)) == folds(monkeypatch, fuzz(40)) == 2


def test_consumers_read_the_fold_the_generator_carries(monkeypatch):
    g = gaussian_generator(np.random.default_rng(40))
    x = gaussian_vector(np.random.default_rng(41), 4)
    runs = [lambda: biorthogonality_matrix(g, 8),
            lambda: unconditionality_scan(g, 5, 4, 2.0),
            lambda: synthesis_over_set(g, x, 12)]
    assert [folds(monkeypatch, run) for run in runs] == [0] * len(runs)


# 1-7 distinct indices in -9..9 (gaps, negative indices) and nonzero weights
rademacher_specs = st.tuples(
    st.lists(st.integers(-9, 9), min_size=1, max_size=7, unique=True),
    st.lists(st.integers(-8, 8).filter(bool), min_size=7, max_size=7),
    st.integers(1, 3))


@ORACLE
@given(rademacher_specs)
@example(([-4, -1, 0, 5], [3, -1, 2, 7, 1, 1, 1], 3))
def test_rademacher_fold_is_the_fold_of_its_function_bit_for_bit(drawn):
    indices, weights, resolution = drawn
    vals = np.array(weights[:len(indices)], dtype=float)
    vals /= math.sqrt(float(np.dot(vals, vals)))
    spec = RademacherSpec(coefficients=CoordinateVector(
        {n: float(v) for n, v in zip(indices, vals)}), resolution=resolution)
    g = build_rademacher_generator(spec)
    f = reference_rademacher_function(spec)
    assert g.f == f
    assert g.report == validate_generator(f).report
    k0, grid, table = g.fold
    want_k0, want_grid, want_table = _folded(f)
    assert type(k0) is float and k0 == want_k0 == min(indices)
    for got, want in ((grid, want_grid), (table, want_table)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
