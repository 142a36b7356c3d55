"""Unit and property tests for the exact step-function calculus.

``reference_merge`` below is the cell-grid merge that deduplicated with
``np.unique`` before masking the gaps, kept verbatim apart from its name;
``_merge`` must return the same grid bit for bit on random ``hypothesis``
input.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import StepFunction, haar_mother
from framelab.stepfn import MERGE_ULPS, _folded, _merge, _periodized_sup

import exact
from exact import random_dyadic_step as dyadic_step
from reference_orbit import dilate, scale, translate


def test_construction_validation():
    with pytest.raises(ValueError):
        StepFunction([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        StepFunction([0.0, 1.0, 0.5], [1.0, 2.0])
    with pytest.raises(ValueError):
        StepFunction([0.0, 0.0, 1.0], [1.0, 2.0])


@pytest.mark.parametrize("breakpoints, values", [
    ([0.0, math.inf], [1.0]),          # its sum with itself read as the zero function
    ([-math.inf, 0.0], [2.0]),         # accepted with an infinite norm
    ([0.0, 1.0, math.inf], [1.0, 2.0]),
    ([-math.inf, 0.0, math.inf], [1.0, 2.0]),
])
def test_non_finite_breakpoints_are_rejected(breakpoints, values):
    with pytest.raises(ValueError, match="breakpoints must be finite"):
        StepFunction(breakpoints, values)


def test_equal_functions_hash_equal_across_signed_zeros():
    # __eq__ holds -0.0 and 0.0 equal, in a breakpoint and in an interior value
    pairs = [(StepFunction([-0.0, 1.0], [1.0]), StepFunction([0.0, 1.0], [1.0])),
             (StepFunction([0.0, 1.0, 2.0, 3.0], [1.0, -0.0, 2.0]),
              StepFunction([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 2.0]))]
    for f, g in pairs:
        assert f == g
        assert hash(f) == hash(g)
        assert len({f, g}) == 1


def test_haar_mother_is_one_immutable_object():
    f = haar_mother()
    assert f is haar_mother()
    assert f == StepFunction([0.0, 0.5, 1.0], [1.0, -1.0])
    for array in (f.breakpoints, f.values):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 2.0
    with pytest.raises(AttributeError):
        f.values = np.zeros(2)


def test_zero_function_is_empty_cell_list():
    z = StepFunction()
    assert z.breakpoints.size == z.values.size == 0
    assert z.support() is None
    assert z.evaluate(0.3) == 0.0
    assert StepFunction([0.0, 1.0], [0.0]) == z


def test_canonicalization_trims_and_merges():
    f = StepFunction([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 5.0, 5.0, 0.0])
    assert f.support() == (1.0, 3.0)
    assert f.values.size == 1
    # interior zero cells must survive
    g = StepFunction([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 2.0])
    assert g.values.size == 3
    assert g.evaluate(1.5) == 0.0


def test_evaluate_half_open_cells():
    f = StepFunction([0.0, 1.0, 2.0], [3.0, -1.0])
    assert f(0.0) == 3.0
    assert f(1.0) == -1.0      # cell boundary belongs to the right cell
    assert f(2.0) == 0.0       # right endpoint is outside
    assert f(-0.1) == 0.0
    out = f(np.array([0.5, 1.5, 2.5]))
    assert out.tolist() == [3.0, -1.0, 0.0]


def test_add():
    f = StepFunction.indicator(0.0, 2.0)
    g = StepFunction.indicator(1.0, 3.0)
    s = f.add(g)
    assert s(0.5) == 1.0 and s(1.5) == 2.0 and s(2.5) == 1.0


def test_combine_merges_close_breakpoints():
    # points within MERGE_ULPS ulps of the largest |point| are one grid point
    f = StepFunction([0.0, 1.0], [1.0])
    s = f.add(StepFunction([MERGE_ULPS * np.spacing(1.0), 1.0], [1.0]))
    assert s.values.size == 1
    assert s(0.5) == 2.0
    # at magnitude 1, a 1e-13 wide cell is far wider than that and is kept
    s = f.add(StepFunction([1e-13, 1.0], [1.0]))
    assert s.breakpoints.tolist() == [0.0, 1e-13, 1.0]
    assert s.values.tolist() == [1.0, 2.0]
    # the distance scales with the points: 5e-10 is under 64 ulps of 1e5
    big = StepFunction([1e5, 1e5 + 1.0], [1.0])
    assert big.add(StepFunction([1e5 + 5e-10, 1e5 + 1.0], [1.0])).values.size == 1
    assert big.add(StepFunction([1e5 + 1e-8, 1e5 + 1.0], [1.0])).values.size == 2


def test_a_narrow_spike_keeps_its_mass():
    # 1e13 on a 1e-13 wide cell: no grid may merge the cell away
    f = StepFunction([0.0, 1e-13], [1e13])
    total = f.add(StepFunction.indicator(0.0, 1.0))
    assert total.breakpoints.tolist() == [0.0, 1e-13, 1.0]
    assert exact.l1(exact.of(total)) == exact.l1(exact.of(f)) + 1


def test_scale_and_subtract():
    f = StepFunction.indicator(0.0, 1.0)
    assert scale(f, 0.0) == StepFunction()
    assert scale(f, 2.0)(0.5) == 2.0
    assert f.add(scale(f, -1.0)) == StepFunction()
    assert scale(f, -1.0)(0.5) == -1.0


def test_translate_preserves_values():
    f = haar_mother()
    g = translate(f, 3.0)
    assert g.support() == (3.0, 4.0)
    assert g(3.25) == 1.0 and g(3.75) == -1.0
    assert np.array_equal(g.values, f.values)


def test_dilate_haar_example():
    # 2^(1/2) f(2t): +sqrt(2) on [0, 1/4), -sqrt(2) on [1/4, 1/2)
    d = dilate(haar_mother(), 1, 2)
    assert d.breakpoints.tolist() == [0.0, 0.25, 0.5]
    assert d.values.tolist() == [math.sqrt(2.0), -math.sqrt(2.0)]


def test_dilate_requires_p_above_one():
    with pytest.raises(ValueError):
        dilate(haar_mother(), 1, 1.0)


def test_dilate_zero_is_identity():
    f = haar_mother()
    assert dilate(f, 0, 2) == f


def test_integral_linearity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        f = dyadic_step(rng)
        g = dyadic_step(rng)
        alpha, beta = rng.standard_normal(2)
        # the integral over [lo, hi) is the inner product with its indicator
        window = exact.of(StepFunction.indicator(*np.sort(rng.uniform(-5, 5, 2))))
        lhs = exact.inner(exact.of(scale(f, alpha).add(scale(g, beta))), window)
        rhs = (Fraction(alpha) * exact.inner(exact.of(f), window)
               + Fraction(beta) * exact.inner(exact.of(g), window))
        assert float(lhs) == pytest.approx(float(rhs), rel=1e-12, abs=1e-12)


def test_dilate_translate_commutation():
    # dilating after translating by b equals translating by 2^-a b after dilating
    rng = np.random.default_rng(7)
    ts = np.linspace(-6.0, 6.0, 241)
    for _ in range(25):
        f = dyadic_step(rng)
        a = float(rng.uniform(-3, 3))
        b = float(rng.uniform(-2, 2))
        p = float(rng.uniform(1.5, 4.0))
        lhs = dilate(translate(f, b), a, p)
        rhs = translate(dilate(f, a, p), 2.0 ** (-a) * b)
        assert np.allclose(lhs(ts), rhs(ts), rtol=0, atol=1e-12)


def periodized_sup(f):
    return _periodized_sup(_folded(f)[2])


def test_periodized_sup_haar():
    assert periodized_sup(haar_mother()) == 1.0


def test_periodized_sup_overlapping_folds():
    # f = 2 on [-0.75, 0.25) stacked with +1 on [0.25, 1.5)
    # folding |f| onto [0, 1): [0, .25) gets 2+1=3, [.25, .5) gets 3+2+1=6,
    # [.5, 1) gets 1+2=3, so the sup is 6
    f = scale(StepFunction.indicator(-0.75, 0.25), 2.0).add(
        StepFunction([0.25, 0.5, 1.5], [3.0, 1.0]))
    # pointwise: [-0.75, 0.25) holds 2, [0.25, 0.5) holds 3, [0.5, 1.5) holds 1
    assert periodized_sup(f) == 6.0


def test_periodized_sup_integer_translation_invariant():
    rng = np.random.default_rng(9)
    for _ in range(20):
        f = dyadic_step(rng)
        k = int(rng.integers(-7, 8))
        assert periodized_sup(translate(f, k)) == pytest.approx(periodized_sup(f), rel=1e-12)


# -- the cell-grid merge against the np.unique merge it replaced -------------------------


def reference_merge(points, magnitude=None):
    """Sorted grid of ``points``, each point within MERGE_ULPS * np.spacing(magnitude)
    of the one before it merged into that one; ``magnitude`` defaults to the
    largest |point|.  Every cell grid is built here, and nowhere else."""
    grid = np.unique(points)
    if grid.size < 2:
        return grid
    if magnitude is None:
        magnitude = max(-grid[0], grid[-1])
    keep = np.ones(grid.size, dtype=bool)
    keep[1:] = np.diff(grid) > MERGE_ULPS * np.spacing(magnitude)
    return grid[keep]


def assert_same_merge(points, magnitude=None):
    got, want = _merge(points, magnitude), reference_merge(points, magnitude)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# anchors with exact copies, both zeros, and neighbours a number of ulps of
# the anchor set's magnitude away: just inside, at and just outside the merge
# distance, so the gap mask decides each neighbour as the unique merge did
ULP_STEPS = [0, 1, MERGE_ULPS - 1, MERGE_ULPS, MERGE_ULPS + 1, 4 * MERGE_ULPS]
anchors = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e5, 65536.0]),
                             st.floats(-1e6, 1e6)), min_size=1, max_size=6)
merge_inputs = st.tuples(anchors, st.lists(st.tuples(st.integers(0, 5),
                                                     st.sampled_from(ULP_STEPS),
                                                     st.sampled_from([-1, 1])),
                                           max_size=12))


def merge_points(drawn):
    """The anchors, then one neighbour (anchor index, ulps, side) per entry."""
    base, moves = drawn
    unit = np.spacing(max(abs(t) for t in base))
    near = [base[i % len(base)] + side * ulps * unit for i, ulps, side in moves]
    return np.array(base + near, dtype=float)


MERGE = settings(max_examples=300, deadline=None)


@MERGE
@given(merge_inputs)
def test_merge_matches_the_unique_merge(drawn):
    assert_same_merge(merge_points(drawn))


@MERGE
@given(merge_inputs, st.sampled_from([0.0, 1.0, 1e-3, 2.0 ** 20, 1e7]))
def test_merge_matches_the_unique_merge_at_a_given_magnitude(drawn, magnitude):
    assert_same_merge(merge_points(drawn), magnitude)


@MERGE
@given(merge_inputs)
def test_merge_matches_the_unique_merge_on_rows(drawn):
    points = merge_points(drawn)
    if points.size % 2:
        points = np.append(points, points[0])
    assert_same_merge(points.reshape(2, -1))
    assert_same_merge(points.reshape(-1, 2).T)


def test_merge_matches_the_unique_merge_on_edge_cases():
    for points in ([], [3.0], [-0.0, 0.0], [0.0, -0.0, 0.0], [1.0, 1.0, 1.0],
                   [math.nan], [math.nan, math.nan], [1.0, math.nan, 0.0, math.nan],
                   [2, 1, 2, 5]):
        assert_same_merge(np.array(points))
    # the gap between two equal infinities is NaN, not 0, so the mask drops
    # the copy all the same; numpy flags that subtraction as invalid, which
    # the unique merge never made (the CLI runs its jobs with it silenced)
    with np.errstate(invalid="ignore"):
        assert_same_merge(np.array([math.inf, math.inf, -math.inf, 0.0, -math.inf]))
    # a duplicate of the first copy of a pair 64 ulps apart
    within = MERGE_ULPS * np.spacing(1.0)
    assert_same_merge(np.array([1.0, 1.0, 1.0 - within, 1.0 + within + np.spacing(1.0)]))


# -- the exact rational oracle for add ---------------------------------------------


def exact_steps_on(offset, scale):
    """Step functions with breakpoints on offset + scale * Z and values on (1/4)Z."""
    return exact.integer_cells((-32, 32), (-8, 8), 7).map(
        lambda drawn: exact.dyadic(drawn, offset, scale, 1 / 4))


# values on (1/4)Z and (offset, scale of f, scale of g): breakpoints on (1/8)Z;
# cells of 2^-42 (2.3e-13), narrower than 1e-12, alone and beside (1/8)Z;
# and offsets of 1e5 and across the binade at
# 65536, where one ulp is wider than 1e-12.  Every sum stays exact, and every
# cell is wider than the merge distance, so no grid drops one.
exact_pairs = st.sampled_from([
    (0.0, 1 / 8, 1 / 8), (0.0, 2.0 ** -42, 2.0 ** -42), (0.0, 2.0 ** -42, 1 / 8),
    (65536.0, 2.0 ** -28, 1 / 8), (65536.0, 1 / 8, 1 / 8), (1e5, 1 / 8, 1 / 8),
]).flatmap(lambda g: st.tuples(exact_steps_on(g[0], g[1]), exact_steps_on(g[0], g[2])))


@settings(max_examples=60, deadline=None)
@given(exact_pairs)
def test_add_is_exact(pair):
    f, g = pair
    total, f, g = exact.of(f.add(g)), exact.of(f), exact.of(g)
    for _, _, mid in exact.cells(f[0] + g[0] + [0]):
        assert exact.value(total, mid) == exact.value(f, mid) + exact.value(g, mid)
