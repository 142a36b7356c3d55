"""Unit and property tests for the exact step-function calculus."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import IntervalSet, StepFunction, haar_mother
from framelab.stepfn import MERGE_ULPS


def dyadic_step(rng, max_cells=6, depth=4, span=4):
    """Random step function on a dyadic grid; exact under float arithmetic."""
    n_cells = int(rng.integers(1, max_cells + 1))
    grid = rng.choice(np.arange(-span * 2 ** depth, span * 2 ** depth),
                      size=n_cells + 1, replace=False)
    grid = np.sort(grid) / 2.0 ** depth
    vals = rng.standard_normal(n_cells)
    return StepFunction(grid, vals)


def test_construction_validation():
    with pytest.raises(ValueError):
        StepFunction([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        StepFunction([0.0, 1.0, 0.5], [1.0, 2.0])
    with pytest.raises(ValueError):
        StepFunction([0.0, 0.0, 1.0], [1.0, 2.0])


def test_zero_function_is_empty_cell_list():
    z = StepFunction.zero()
    assert z.is_zero()
    assert z.support() is None
    assert z.evaluate(0.3) == 0.0
    assert z.integrate() == 0.0
    assert z.lp_norm(2) == 0.0
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


def test_add_and_multiply():
    f = StepFunction.indicator(0.0, 2.0)
    g = StepFunction.indicator(1.0, 3.0)
    s = f.add(g)
    assert s(0.5) == 1.0 and s(1.5) == 2.0 and s(2.5) == 1.0
    prod = f.multiply(g)
    assert prod.support() == (1.0, 2.0)
    assert prod(1.5) == 1.0 and prod(0.5) == 0.0


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
    assert f.integrate() == 1.0
    assert f.inner(f) == 1e13
    assert (f + StepFunction.indicator(0.0, 1.0)).integrate() == 2.0


def test_scale_and_subtract():
    f = StepFunction.indicator(0.0, 1.0)
    assert f.scale(0.0).is_zero()
    assert (2.0 * f)(0.5) == 2.0
    assert (f - f).is_zero()
    assert (-f)(0.5) == -1.0


def test_translate_preserves_values():
    f = haar_mother()
    g = f.translate(3.0)
    assert g.support() == (3.0, 4.0)
    assert g(3.25) == 1.0 and g(3.75) == -1.0
    assert np.array_equal(g.values, f.values)


def test_dilate_haar_example():
    # 2^(1/2) f(2t): +sqrt(2) on [0, 1/4), -sqrt(2) on [1/4, 1/2)
    d = haar_mother().dilate(1, 2)
    assert d.breakpoints.tolist() == [0.0, 0.25, 0.5]
    assert d.values.tolist() == [math.sqrt(2.0), -math.sqrt(2.0)]


def test_dilate_requires_p_above_one():
    with pytest.raises(ValueError):
        haar_mother().dilate(1, 1.0)


def test_dilate_zero_is_identity():
    f = haar_mother()
    assert f.dilate(0, 2) == f


def test_integrate_over_interval_sets():
    f = StepFunction([0.0, 1.0, 2.0], [2.0, -1.0])
    assert f.integrate() == 1.0
    assert f.integrate(IntervalSet([(0.0, 0.5)])) == 1.0
    assert f.integrate(IntervalSet([(0.5, 1.5)])) == 0.5
    assert f.integrate(IntervalSet([(-5.0, -1.0)])) == 0.0
    assert f.integrate(IntervalSet([(0.25, 0.75), (1.25, 1.75)])) == 0.5
    with pytest.raises(TypeError):
        f.integrate((0.0, 1.0))


def test_integral_linearity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        f = dyadic_step(rng)
        g = dyadic_step(rng)
        alpha, beta = rng.standard_normal(2)
        region = IntervalSet([tuple(np.sort(rng.uniform(-5, 5, 2)))])
        lhs = f.scale(alpha).add(g.scale(beta)).integrate(region)
        rhs = alpha * f.integrate(region) + beta * g.integrate(region)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_lp_norm_translation_invariance_exact():
    rng = np.random.default_rng(4)
    for _ in range(30):
        f = dyadic_step(rng)
        k = int(rng.integers(-10, 11))
        # integer shifts of dyadic breakpoints are exact in floats
        assert f.translate(k).lp_norm(2) == f.lp_norm(2)
        assert f.translate(k).lp_norm(1.5) == f.lp_norm(1.5)


def test_dilation_isometry():
    rng = np.random.default_rng(5)
    for _ in range(40):
        f = dyadic_step(rng)
        a = float(rng.uniform(-4, 4))
        p = float(rng.uniform(1.1, 5.0))
        assert f.dilate(a, p).lp_norm(p) == pytest.approx(f.lp_norm(p), rel=1e-12)


def test_holder_inequality():
    rng = np.random.default_rng(6)
    for _ in range(60):
        f = dyadic_step(rng)
        g = dyadic_step(rng)
        p = float(rng.uniform(1.1, 4.0))
        q = p / (p - 1.0)
        assert abs(f.inner(g)) <= f.lp_norm(p) * g.lp_norm(q) + 1e-12


def test_dilate_translate_commutation():
    # dilating after translating by b equals translating by 2^-a b after dilating
    rng = np.random.default_rng(7)
    ts = np.linspace(-6.0, 6.0, 241)
    for _ in range(25):
        f = dyadic_step(rng)
        a = float(rng.uniform(-3, 3))
        b = float(rng.uniform(-2, 2))
        p = float(rng.uniform(1.5, 4.0))
        lhs = f.translate(b).dilate(a, p)
        rhs = f.dilate(a, p).translate(2.0 ** (-a) * b)
        assert np.allclose(lhs(ts), rhs(ts), rtol=0, atol=1e-12)


def test_inner_matches_multiply_integrate():
    rng = np.random.default_rng(8)
    for _ in range(40):
        f = dyadic_step(rng)
        g = dyadic_step(rng)
        assert f.inner(g) == pytest.approx(f.multiply(g).integrate(),
                                           rel=1e-12, abs=1e-14)


def test_periodized_sup_haar():
    assert haar_mother().periodized_l1_sup() == 1.0


def test_periodized_sup_overlapping_folds():
    # f = 2 on [-0.75, 0.25) stacked with +1 on [0.25, 1.5)
    # folding |f| onto [0, 1): [0, .25) gets 2+1=3, [.25, .5) gets 3+2+1=6,
    # [.5, 1) gets 1+2=3, so the sup is 6
    f = StepFunction.indicator(-0.75, 0.25).scale(2.0).add(
        StepFunction([0.25, 0.5, 1.5], [3.0, 1.0]))
    # pointwise: [-0.75, 0.25) holds 2, [0.25, 0.5) holds 3, [0.5, 1.5) holds 1
    assert f.periodized_l1_sup() == 6.0


def test_periodized_sup_integer_translation_invariant():
    rng = np.random.default_rng(9)
    for _ in range(20):
        f = dyadic_step(rng)
        k = int(rng.integers(-7, 8))
        assert f.translate(k).periodized_l1_sup() == pytest.approx(
            f.periodized_l1_sup(), rel=1e-12)


def test_abs_integral_and_lp_norm():
    f = StepFunction([0.0, 1.0, 3.0], [2.0, -1.0])
    assert f.abs_integral() == 4.0
    assert f.lp_norm(1) == 4.0
    assert f.lp_norm(2) == pytest.approx(math.sqrt(6.0))
    with pytest.raises(ValueError):
        f.lp_norm(0.5)


# -- the exact rational oracle for add, inner and integrate ----------------------------


def exact_value(f, t):
    for left, right, v in zip(f.breakpoints[:-1], f.breakpoints[1:], f.values):
        if Fraction(float(left)) <= t < Fraction(float(right)):
            return Fraction(float(v))
    return Fraction(0)


def exact_cells(*point_lists):
    pts = sorted({Fraction(float(t)) for points in point_lists for t in points})
    return [(a, b, (a + b) / 2) for a, b in zip(pts[:-1], pts[1:])]


def exact_steps_on(offset, scale):
    """Step functions with breakpoints on offset + scale * Z and values on (1/4)Z."""
    return st.lists(st.integers(-32, 32), min_size=2, max_size=7, unique=True).flatmap(
        lambda qs: st.tuples(st.just(sorted(qs)),
                             st.lists(st.integers(-8, 8), min_size=len(qs) - 1,
                                      max_size=len(qs) - 1))).map(
        lambda e: StepFunction([offset + q * scale for q in e[0]], [v / 4 for v in e[1]]))


# breakpoints on (1/8)Z, values on (1/4)Z: every float sum and product stays exact
exact_steps = exact_steps_on(0.0, 1 / 8)
# (offset, scale of f, scale of g): cells of 2^-42 (2.3e-13), narrower than
# 1e-12, alone and beside (1/8)Z; and offsets of 1e5 and across the binade at
# 65536, where one ulp is wider than 1e-12.  Every sum and product stays
# exact, and every cell is wider than the merge distance, so no grid drops one.
exact_pairs = st.sampled_from([
    (0.0, 1 / 8, 1 / 8), (0.0, 2.0 ** -42, 2.0 ** -42), (0.0, 2.0 ** -42, 1 / 8),
    (65536.0, 2.0 ** -28, 1 / 8), (65536.0, 1 / 8, 1 / 8), (1e5, 1 / 8, 1 / 8),
]).flatmap(lambda g: st.tuples(exact_steps_on(g[0], g[1]), exact_steps_on(g[0], g[2])))
exact_regions = st.lists(st.integers(-40, 40), min_size=0, max_size=8, unique=True).map(
    lambda q: IntervalSet([(sorted(q)[i] / 8, sorted(q)[i + 1] / 8)
                           for i in range(0, len(q) - 1, 2)]))

EXACT = settings(max_examples=60, deadline=None)


@EXACT
@given(exact_pairs)
def test_add_is_exact(pair):
    f, g = pair
    total = f.add(g)
    for _, _, mid in exact_cells(f.breakpoints, g.breakpoints, [0.0]):
        assert Fraction(total(float(mid))) == exact_value(f, mid) + exact_value(g, mid)


@EXACT
@given(exact_pairs)
def test_inner_is_exact(pair):
    f, g = pair
    exact = sum(((b - a) * exact_value(f, mid) * exact_value(g, mid)
                 for a, b, mid in exact_cells(f.breakpoints, g.breakpoints)), Fraction(0))
    assert Fraction(f.inner(g)) == exact


@EXACT
@given(exact_steps, exact_regions)
def test_integrate_over_a_region_is_exact(f, region):
    ends = [t for piece in region.intervals for t in piece]
    exact = sum(((b - a) * exact_value(f, mid)
                 for a, b, mid in exact_cells(f.breakpoints, ends)
                 if region.contains(float(mid))), Fraction(0))
    assert Fraction(f.integrate(region)) == exact
    assert Fraction(f.integrate()) == sum(
        ((b - a) * exact_value(f, mid) for a, b, mid in exact_cells(f.breakpoints)),
        Fraction(0))
