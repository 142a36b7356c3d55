"""The unit-folded translate calculus against two references.

Every translate-frame quantity is computed on the unit fold of the
generator (``stepfn._folded``).  Each folded path is compared with

* the per-translate ``StepFunction`` code it replaced, kept verbatim below
  as the reference (``reference_*``), on Gaussian and non-dyadic data;
  where it summed with the deleted ``StepFunction.sum`` it now adds one
  term at a time (``left_fold``);
* exact ``fractions.Fraction`` arithmetic on dyadic generators, driven by
  ``hypothesis``; dyadic data with few bits keeps every float sum exact,
  so the folded results must equal the oracle exactly.

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
    IntervalSet,
    RademacherSpec,
    StepFunction,
    biorthogonality_matrix,
    build_rademacher_generator,
    synthesis_over_set,
    unconditionality_scan,
    young_check,
)
from framelab.pettis import _sign_parts
from framelab.stepfn import _folded, _merge
from framelab import cli, translate_frame
from framelab.translate_frame import (VALIDATION_TOL, Generator, _certificates,
                                      _rademacher, _series)


def translate_series(f, x):
    """sum_n x_n * f(. - n) as a step function, from the fold kernels.

    The dense runs of x are summed as rows of the fold of f and unfolded
    one run at a time; the runs are disjoint, so their sum is the series.
    The kernels are looked up on the module, so a patched one is used.
    """
    if x.is_zero() or f.is_zero():
        return StepFunction.zero()
    k0, grid, table = _folded(f)
    return left_fold([translate_frame._unfold(k0 + n0, grid, translate_frame._series(table, a))
                      for n0, a in translate_frame._runs(x, table.shape[0])])


# -- the replaced per-translate code, verbatim ----------------------------------


def left_fold(funcs):
    """The sum of step functions, added one at a time from the left."""
    total = StepFunction.zero()
    for f in funcs:
        total = total.add(f)
    return total


def reference_translate_series(f, x):
    """sum_n x_n * f(. - n) as a step function."""
    return left_fold([f.translate(n).scale(c) for n, c in x.items()])


def reference_ortho_residual(f, lag_range):
    residual = 0.0
    for m in range(-lag_range, lag_range + 1):
        val = f.inner(f.translate(m))
        target = 1.0 if m == 0 else 0.0
        residual = max(residual, abs(val - target))
    return residual


def reference_biorthogonality_matrix(g, window):
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


def reference_synthesis_over_set(g, x, region, window):
    c = reference_translate_series(g.f, x)
    out = {}
    for m in range(-window, window + 1):
        val = c.multiply(g.f.translate(m)).integrate(region)
        if val != 0.0:
            out[m] = val
    return CoordinateVector(out)


def reference_sign_parts(c, d):
    """(positive part, negative part) of integral c*d."""
    product = c.multiply(d)
    if product.is_zero():
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
    for rank, (n, a) in enumerate(coeffs.items()):
        pieces.append(reference_sign_pattern(rank + spec.resolution).translate(n).scale(a))
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
        best_unconditional = max(best_unconditional,
                                 c.multiply(d).abs_integral() / denom)
    return best_suppression, best_unconditional


# -- shared data -----------------------------------------------------------------


def gaussian_generator(rng, terms=8):
    vals = rng.standard_normal(terms)
    vals /= math.sqrt(float(np.dot(vals, vals)))
    return build_rademacher_generator(RademacherSpec(
        coefficients={n: float(v) for n, v in enumerate(vals)}))


def gaussian_vector(rng, window):
    vals = rng.standard_normal(2 * window + 1)
    return CoordinateVector({n - window: float(v) for n, v in enumerate(vals)})


# 0.1 and 1.1 - 1 differ in the last bit: the fold must merge them
NON_DYADIC = StepFunction([0.1, 0.6, 1.1, 1.35, 2.1], [0.5, -1.0, 0.75, 0.25])


def max_gap(f, g):
    """Largest |f - g| over the cells of the union of their grids."""
    grid = np.union1d(f.breakpoints, g.breakpoints)
    if grid.size < 2:
        return 0.0
    mids = 0.5 * (grid[:-1] + grid[1:])
    return float(np.max(np.abs(f.evaluate(mids) - g.evaluate(mids))))


def vector_gap(x, y):
    keys = set(x.support()) | set(y.support())
    return max((abs(x[n] - y[n]) for n in keys), default=0.0)


# -- folded paths against the replaced code --------------------------------------


def test_fold_merges_non_dyadic_fractional_parts():
    k0, grid, table = _folded(NON_DYADIC)
    assert k0 == 0.0
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert np.array_equal(_merge(grid), grid)
    # fractional parts 0.1, 0.35, 0.6 (0.1 and 1.1 - 1 merged) plus 0 and 1
    assert grid.size == 5
    assert table.shape == (3, 4)
    # |f| folds to 1.25 on [0, 0.1), [0.1, 0.35) and [0.6, 1), 0.75 on
    # [0.35, 0.6).  The replaced loop kept the 9e-17 wide sliver
    # [0.1, 1.1 - 1) where three units overlap and read 1.75 there.
    assert NON_DYADIC.periodized_l1_sup() == 1.25
    assert reference_periodized_l1_sup(NON_DYADIC) == 1.75
    # shifted past the binade at 65536, 65535.1 and 65536.1 have fractional
    # parts 7.3e-12 apart.  Fractional parts past 1 are exact and the fold
    # merges at magnitude 1, so it keeps that sliver, where three units
    # overlap, and reads it by cell number although one ulp of 65536 is
    # wider than the sliver.
    far = NON_DYADIC.translate(65535.0)
    k0, grid, table = _folded(far)
    assert (k0, grid.size, table.shape) == (65535.0, 6, (3, 5))
    assert np.array_equal(_merge(grid), grid)
    assert far.periodized_l1_sup() == reference_periodized_l1_sup(far) == 1.75


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
            assert _rademacher(spec)[0] == reference_rademacher_function(spec)


def test_translate_series_matches_reference():
    rng = np.random.default_rng(32)
    for _ in range(10):
        g = gaussian_generator(rng)
        x = gaussian_vector(rng, 8)
        assert max_gap(translate_series(g.f, x),
                       reference_translate_series(g.f, x)) <= 1e-14
    x = CoordinateVector({-2: 0.3, 0: 1.7, 3: -0.9})
    assert max_gap(translate_series(NON_DYADIC, x),
                   reference_translate_series(NON_DYADIC, x)) <= 1e-14


def test_gram_residual_and_biorthogonality_match_reference():
    rng = np.random.default_rng(33)
    for _ in range(3):
        g = gaussian_generator(rng)
        report = g.report
        assert report.lag_range == 8
        assert abs(report.ortho_residual
                   - reference_ortho_residual(g.f, report.lag_range)) <= 1e-15
        assert np.max(np.abs(biorthogonality_matrix(g, 16)
                             - reference_biorthogonality_matrix(g, 16))) <= 1e-15
    report = _certificates(NON_DYADIC, _folded(NON_DYADIC), None, VALIDATION_TOL)
    assert report.ortho_residual == pytest.approx(
        reference_ortho_residual(NON_DYADIC, report.lag_range), rel=1e-14)
    wide = Generator(NON_DYADIC, None)
    assert np.max(np.abs(biorthogonality_matrix(wide, 4)
                         - reference_biorthogonality_matrix(wide, 4))) <= 1e-15


def test_periodized_sup_matches_reference():
    rng = np.random.default_rng(34)
    for _ in range(20):
        g = gaussian_generator(rng, int(rng.integers(1, 8)))
        # same cells, same per-column order (increasing unit): bit for bit
        assert g.f.periodized_l1_sup() == reference_periodized_l1_sup(g.f)
        shifted = g.f.translate(0.375).scale(-1.5)
        assert shifted.periodized_l1_sup() == reference_periodized_l1_sup(shifted)


@pytest.mark.parametrize("region", [None, IntervalSet([(-2.3, 0.7), (1.25, 5.1)])])
def test_synthesis_matches_reference(region):
    rng = np.random.default_rng(35)
    for _ in range(4):
        g = gaussian_generator(rng)
        x = gaussian_vector(rng, 4)
        assert vector_gap(synthesis_over_set(g, x, region, 12),
                          reference_synthesis_over_set(g, x, region, 12)) <= 1e-14
    g = Generator(NON_DYADIC, None)
    x = CoordinateVector({-1: 0.3, 2: -1.1})
    assert vector_gap(synthesis_over_set(g, x, region, 6),
                      reference_synthesis_over_set(g, x, region, 6)) <= 1e-14


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
            reference_translate_series(f, a).lp_norm(p) ** p, rel=1e-13)


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
    y = synthesis_over_set(g, x, None, 120)
    lhs, _ = young_check(g.f, x, 3.0)
    assert sizes == [4, 1, 11] * 3
    reference = reference_translate_series(g.f, x)
    assert max_gap(series, reference) <= 1e-14
    assert vector_gap(y, reference_synthesis_over_set(g, x, None, 120)) <= 1e-14
    assert lhs == pytest.approx(reference.lp_norm(3.0) ** 3.0, rel=1e-13)


# -- the exact rational oracle ---------------------------------------------------


def exact_value(bp, vals, t):
    for left, right, v in zip(bp[:-1], bp[1:], vals):
        if left <= t < right:
            return v
    return Fraction(0)


def exact_series(bp, vals, x):
    return lambda t: sum((c * exact_value(bp, vals, t - n) for n, c in x.items()),
                         Fraction(0))


def cells(points):
    pts = sorted(set(points))
    return [(a, b, (a + b) / 2) for a, b in zip(pts[:-1], pts[1:])]


def shifted_points(bp, shifts):
    return [b + n for b in bp for n in shifts]


def as_fractions(f):
    return ([Fraction(float(t)) for t in f.breakpoints],
            [Fraction(float(v)) for v in f.values])


# breakpoints on (1/4)Z, values and coefficients on (1/2)Z: every float sum stays exact
dyadic_generators = st.lists(st.integers(-12, 12), min_size=2, max_size=6,
                             unique=True).flatmap(
    lambda qs: st.tuples(
        st.just(sorted(qs)),
        st.lists(st.integers(-4, 4), min_size=len(qs) - 1,
                 max_size=len(qs) - 1).filter(any)))
dyadic_vectors = st.dictionaries(st.integers(-4, 4), st.integers(-4, 4).filter(bool),
                                 min_size=1, max_size=5)


# (offset, scale) that put the breakpoints on offset + scale * q instead: cells
# of 2^-42 (2.3e-13), narrower than 1e-12, and offsets of 1e5 and across the
# binade at 65536, where one ulp is wider than 1e-12.  Sums stay exact, and
# every cell is wider than the merge distance, so the fold keeps each one.
FOLD_GRIDS = [(0.0, 0.25), (0.0, 2.0 ** -42), (65536.0, 2.0 ** -28), (65536.0, 0.25),
              (1e5, 0.25)]
fold_grids = st.sampled_from(FOLD_GRIDS)
# Sums of |values| stay exact on any breakpoints.  Tenths from 65535 on cross
# the binade at 65536, where fractional parts of different units lie 7.3e-12
# apart: slivers narrower than an ulp of the unfolded points.
sup_grids = st.sampled_from(FOLD_GRIDS + [(65535.0, 0.1)])


def build(quarters, halves, offset=0.0, scale=0.25):
    f = StepFunction([offset + q * scale for q in quarters], [h / 2 for h in halves])
    return f, Generator(f, None)


def vector(raw):
    return CoordinateVector({n: c / 2 for n, c in raw.items()})


ORACLE = settings(max_examples=40, deadline=None)


@ORACLE
@given(dyadic_generators, dyadic_vectors)
def test_translate_series_is_exact(gen, raw):
    f, _ = build(*gen)
    x = vector(raw)
    bp, vals = as_fractions(f)
    exact = exact_series(bp, vals, {n: Fraction(c) for n, c in x.items()})
    series = translate_series(f, x)
    for _, _, mid in cells(shifted_points(bp, x.support())):
        assert Fraction(float(series(float(mid)))) == exact(mid)


@ORACLE
@given(dyadic_generators, fold_grids)
def test_gram_lags_and_residual_are_exact(gen, grid):
    f, g = build(*gen, *grid)
    bp, vals = as_fractions(f)
    window = 4
    lags = []
    for m in range(2 * window + 1):
        lags.append(sum(((b - a) * exact_value(bp, vals, mid)
                         * exact_value(bp, vals, mid - m)
                         for a, b, mid in cells(bp + [t + m for t in bp])),
                        Fraction(0)))
    mat = biorthogonality_matrix(g, window)
    for i in range(2 * window + 1):
        for j in range(2 * window + 1):
            assert Fraction(float(mat[i, j])) == lags[abs(i - j)]
    report = _certificates(f, g.fold, window, VALIDATION_TOL)
    expected = max(abs(lag - (1 if m == 0 else 0)) for m, lag in enumerate(lags))
    assert Fraction(report.ortho_residual) == expected


@ORACLE
@given(dyadic_generators, sup_grids)
@example(([1, 11], [1]), (65535.0, 0.1))    # units 0 and 1 overlap on the sliver
def test_periodized_sup_is_exact(gen, grid):
    f, _ = build(*gen, *grid)
    bp, vals = as_fractions(f)
    points = {Fraction(0), Fraction(1)} | {b - math.floor(b) for b in bp}
    units = range(math.floor(bp[0]), math.ceil(bp[-1]))
    exact = max(sum(abs(exact_value(bp, vals, mid + k)) for k in units)
                for _, _, mid in cells(points))
    assert Fraction(f.periodized_l1_sup()) == exact


@ORACLE
@given(dyadic_generators, dyadic_vectors,
       st.one_of(st.none(), st.lists(st.integers(-24, 24), min_size=2, max_size=6,
                                     unique=True)))
def test_synthesis_is_exact(gen, raw, region_quarters):
    f, g = build(*gen)
    x = vector(raw)
    bp, vals = as_fractions(f)
    exact = exact_series(bp, vals, {n: Fraction(c) for n, c in x.items()})
    region = None
    ends = []
    if region_quarters is not None:
        q = sorted(region_quarters)
        pairs = [(q[i] / 4, q[i + 1] / 4) for i in range(0, len(q) - 1, 2)]
        region = IntervalSet(pairs)
        ends = [Fraction(t) for pair in pairs for t in pair]
    window = 10
    y = synthesis_over_set(g, x, region, window)
    for m in range(-window, window + 1):
        total = Fraction(0)
        for a, b, mid in cells(shifted_points(bp, x.support()) + [t + m for t in bp]
                               + ends):
            if region is None or region.contains(float(mid)):
                total += (b - a) * exact(mid) * exact_value(bp, vals, mid - m)
        assert Fraction(y[m]) == total


@ORACLE
@given(dyadic_generators, st.lists(st.integers(-4, 4), min_size=5, max_size=5),
       st.lists(st.integers(-4, 4), min_size=5, max_size=5))
def test_scan_sign_parts_are_exact(gen, xa, xb):
    f, _ = build(*gen)
    bp, vals = as_fractions(f)
    _, grid, table = _folded(f)
    a = np.array(xa) / 2
    b = np.array(xb) / 2
    pos, neg = _sign_parts(_series(table, a) * _series(table, b), np.diff(grid))
    ca = exact_series(bp, vals, {n: Fraction(c) for n, c in enumerate(a.tolist())})
    cb = exact_series(bp, vals, {n: Fraction(c) for n, c in enumerate(b.tolist())})
    exact_pos = exact_neg = Fraction(0)
    for lo, hi, mid in cells(shifted_points(bp, range(5))):
        v = (hi - lo) * ca(mid) * cb(mid)
        exact_pos += max(v, 0)
        exact_neg += max(-v, 0)
    assert Fraction(pos) == exact_pos
    assert Fraction(neg) == exact_neg


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
             lambda: synthesis_over_set(g, CoordinateVector.unit(0), None, 1)]
    large = [lambda: biorthogonality_matrix(g, 16),
             lambda: unconditionality_scan(g, 500, 8, 2.0),
             lambda: synthesis_over_set(g, x, None, 16)]
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
            lambda: synthesis_over_set(g, x, None, 12),
            lambda: synthesis_over_set(g, x, IntervalSet([(-1.5, 3.25)]), 12)]
    assert [folds(monkeypatch, run) for run in runs] == [0] * len(runs)
    # a Generator built without its fold folds f once, on construction
    assert folds(monkeypatch, lambda: Generator(g.f, None)) == 1


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
    f = _rademacher(spec)[0]
    assert g.f == f
    assert g.report == _certificates(f, _folded(f), None, VALIDATION_TOL)
    k0, grid, table = g.fold
    want_k0, want_grid, want_table = _folded(f)
    assert type(k0) is float and k0 == want_k0 == min(indices)
    for got, want in ((grid, want_grid), (table, want_table)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
