"""Tests for lattice sampling of translated-generator frames."""

import math
import types
from fractions import Fraction

import numpy as np
import pytest

from framelab import (
    CoordinateVector,
    RademacherSpec,
    SamplingPlan,
    SpaceTag,
    StepFunction,
    build_rademacher_generator,
    commensurate_step,
    default_window,
    reconstruction_matrix,
    sampling_sweep,
    synthesis_over_set,
    validate_generator,
)
from framelab.sampling import _coefficient_rows
from framelab.stepfn import _folded
from framelab.translate_frame import Generator

import exact
from reference_orbit import translate
from test_diagnostics import frame_of_pairs

WINDOW = 4


def two_coeff_generator():
    c = 1.0 / np.sqrt(2.0)
    return build_rademacher_generator(
        RademacherSpec(coefficients={0: float(c), 1: float(c)}))


def test_plan_validation():
    window = (0.0, 1.0)
    with pytest.raises(ValueError):
        SamplingPlan(step=0.0, window=window)
    with pytest.raises(TypeError):
        SamplingPlan(step=0.5, window=None)
    for bad in ((math.nan, 1.0), (0.0, math.nan), (1.0, 0.0)):
        with pytest.raises(ValueError, match="is NaN or of negative length"):
            SamplingPlan(step=0.5, window=bad)


@pytest.mark.parametrize("step, window", [
    (math.inf, (0.0, 1.0)),
    (math.nan, (0.0, 1.0)),
    (-math.inf, (0.0, 1.0)),
], ids=["inf", "nan", "-inf"])
def test_plan_rejects_a_non_finite_step(step, window):
    with pytest.raises(ValueError, match="must be positive and finite"):
        SamplingPlan(step=step, window=window)


@pytest.mark.parametrize("window", [(0.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf)],
                         ids=["inf-hi", "inf-lo", "both"])
def test_plan_rejects_a_non_finite_end(window):
    with pytest.raises(ValueError, match="within 2\\^53"):
        SamplingPlan(step=0.5, window=window)


@pytest.mark.parametrize("step, window", [
    (0.5, (0.0, 1e308)),                    # hi / step overflows to inf
    (5e-324, (0.0, 1.0)),                   # so does 1 / step
    (1.0, (-2.0 ** 53 - 2.0, 0.0)),         # past 2^53 not every index is a float
], ids=["1e308", "subnormal-step", "past-2^53"])
def test_plan_rejects_an_index_range_that_overflows(step, window):
    # each of these raised OverflowError (or allocated the range) in points()
    with pytest.raises(ValueError, match="within 2\\^53"):
        SamplingPlan(step=step, window=window)


def test_plan_admits_indices_up_to_2_to_the_53():
    edge = SamplingPlan(step=1.0, window=(2.0 ** 53 - 2.0, 2.0 ** 53))
    assert edge.points().tolist() == [2.0 ** 53 - 2.0, 2.0 ** 53 - 1.0]


def test_plan_points_half_open():
    plan = SamplingPlan(step=0.25, window=(0.0, 1.0))
    assert plan.points().tolist() == [0.0, 0.25, 0.5, 0.75]
    empty = SamplingPlan(step=0.25, window=(1.0, 1.0))
    assert empty.points().size == 0


def test_plan_points_outside_the_window_are_dropped():
    # lattice points on both sides of the window
    plan = SamplingPlan(step=0.5, window=(0.1, 2.6))
    assert plan.points().tolist() == [0.5, 1.0, 1.5, 2.0, 2.5]


def reference_points(plan):
    """The lattice filter SamplingPlan.points replaced: one test per point."""
    lo, hi = plan.window
    j_min = math.ceil(lo / plan.step - 1e-12)
    j_max = math.floor(hi / plan.step + 1e-12)
    ts = np.arange(j_min, j_max + 1) * plan.step
    return np.array([t for t in ts if lo <= t < hi])


@pytest.mark.parametrize("step, pairs", [
    # lattice points on both ends of the window: lo is in, hi is out
    (0.25, (0.0, 1.0)),
    (0.5, (-2.0, -1.0)),
    # ends off the lattice; decimal ends: -4 * 0.37 is -1.48, but 6 * 0.37
    # rounds below 2.22, so that point is in
    (0.25, (0.125, 0.625)),
    (0.37, (-1.48, 2.22)),
    # no lattice point falls in the narrow window
    (1.0, (2.2, 2.8)),
    (0.25, (0.5, 0.5)),
])
def test_plan_points_match_the_per_point_filter(step, pairs):
    plan = SamplingPlan(step=step, window=pairs)
    got, want = plan.points(), reference_points(plan)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    assert plan.points() is got and not got.flags.writeable


def test_plan_points_match_the_per_point_filter_on_random_windows():
    rng = np.random.default_rng(12)
    for _ in range(200):
        lo, hi = np.sort(rng.uniform(-5.0, 5.0, size=2)).tolist()
        step = float(rng.choice([0.125, 0.25, 0.3, 1.0 / 3.0, float(rng.uniform(0.01, 1))]))
        # put lattice points on the window's ends too
        if rng.random() < 0.5:
            lo, hi = (round(t / step) * step for t in (lo, hi))
        plan = SamplingPlan(step=step, window=(lo, hi))
        assert plan.points().tobytes() == reference_points(plan).tobytes()


def test_commensurate_step_values():
    assert commensurate_step(two_coeff_generator()) == 0.25
    single = build_rademacher_generator(RademacherSpec(coefficients={0: 1.0}))
    assert commensurate_step(single) == 0.5
    flat = validate_generator(StepFunction.indicator(0.0, 1.0))
    assert commensurate_step(flat) == 1.0
    # a narrowest cell of 3/8: halving it never reaches 1/8
    c = 1.0 / math.sqrt(0.75)
    three_eighths = validate_generator(StepFunction([0.0, 0.375, 0.75], [c, -c]))
    assert commensurate_step(three_eighths) == 0.125


def test_commensurate_step_rejects_irrational_grid():
    fake = types.SimpleNamespace(
        f=StepFunction([0.0, 1.0, np.sqrt(2.0)], [1.0, -1.0]))
    with pytest.raises(ValueError):
        commensurate_step(fake)


def sample_frame(g, plan, window):
    """Discrete frame of the samples: pair j is (f(t_j - .), h * f(t_j - .))."""
    ns, rows = _coefficient_rows(g, plan.points(), window)
    pairs = []
    for row in rows:
        vec = CoordinateVector(zip(ns.tolist(), row.tolist()))
        pairs.append((vec, vec.scale(plan.step)))
    return frame_of_pairs(pairs, SpaceTag.lp(2.0))


def test_sample_frame_pairs_carry_riemann_weight():
    # four samples of e_0 on [0, 1), each weighted by h = 1/4, sum to e_0
    g = validate_generator(StepFunction.indicator(0.0, 1.0))
    plan = SamplingPlan(step=0.25, window=(0.0, 1.0))
    _, rows = _coefficient_rows(g, plan.points(), window=2)
    assert rows.tolist() == [[0.0, 0.0, 1.0, 0.0, 0.0]] * 4
    mat = reconstruction_matrix(g, plan, window=2)
    assert mat.tolist() == np.diag([0.0, 0.0, 1.0, 0.0, 0.0]).tolist()


def test_empty_window_gives_empty_frame():
    g = validate_generator(StepFunction.indicator(0.0, 1.0))
    plan = SamplingPlan(step=0.25, window=(0.0, 0.0))
    _, rows = _coefficient_rows(g, plan.points(), window=2)
    assert rows.shape == (0, 5)
    assert not reconstruction_matrix(g, plan, window=2).any()


def test_default_window_covers_all_integrands():
    g = two_coeff_generator()
    assert default_window(g, WINDOW) == (-WINDOW, 2.0 + WINDOW)


def test_reconstruction_matrix_symmetric():
    g = two_coeff_generator()
    plan = SamplingPlan(step=0.25, window=default_window(g, WINDOW))
    mat = reconstruction_matrix(g, plan, WINDOW)
    assert mat.shape == (2 * WINDOW + 1, 2 * WINDOW + 1)
    assert np.array_equal(mat, mat.T)


def test_commensurate_lattice_reconstructs_exactly():
    # one sample per constant cell makes the Riemann sum equal the integral
    g = two_coeff_generator()
    h = commensurate_step(g)
    rows = sampling_sweep(g, [h], WINDOW)
    assert rows[0].exact
    assert rows[0].max_error <= 1e-12


def test_indicator_lattice_exact_at_offset_half():
    # the indicator of [-1/2, 1/2) sits half a step off the integer lattice
    g = validate_generator(StepFunction.indicator(-0.5, 0.5))
    rows = sampling_sweep(g, [1.0], WINDOW)
    assert rows[0].exact and rows[0].num_samples == 2 * WINDOW + 1


def test_lattice_sums_match_the_synthesis_integrals():
    # at a commensurate step the lattice sum over a window that covers
    # every integrand equals the synthesis integral over the line
    g = two_coeff_generator()
    h = commensurate_step(g)
    plan = SamplingPlan(step=h, window=default_window(g, WINDOW))
    mat = reconstruction_matrix(g, plan, WINDOW)
    ns = list(range(-WINDOW, WINDOW + 1))
    for i, n in enumerate(ns):
        syn = synthesis_over_set(g, CoordinateVector.unit(n), window=WINDOW)
        expected = np.array([syn[m] for m in ns])
        assert np.allclose(mat[i], expected, rtol=0, atol=1e-12)


def test_restricted_lattice_sums_respect_suppression_constant():
    # a subset of lattice cells is a measurable set, so restricted sums
    # inherit the generator's suppression certificate
    g = two_coeff_generator()
    h = commensurate_step(g)
    plan = SamplingPlan(step=h, window=default_window(g, WINDOW))
    frame = sample_frame(g, plan, WINDOW)
    rng = np.random.default_rng(29)
    for _ in range(50):
        coords = rng.choice(np.arange(-WINDOW, WINDOW + 1), 3, replace=False)
        x = CoordinateVector({int(n): float(v)
                              for n, v in zip(coords, rng.standard_normal(3))})
        positions = [j for j in range(len(frame.pairs)) if rng.random() < 0.5]
        restricted = frame.reconstruct(x, positions)
        assert frame.space.norm(restricted) <= (
            g.suppression_constant * x.norm(2.0) + 1e-8)


def test_incommensurate_refinement_shrinks_error():
    g = two_coeff_generator()
    steps = [0.37, 0.185, 0.0925]
    rows = sampling_sweep(g, steps, WINDOW)
    errors = [r.max_error for r in rows]
    assert errors[1] < errors[0] and errors[2] < errors[1]
    assert all(not r.exact for r in rows)
    counts = [r.num_samples for r in rows]
    assert counts[0] < counts[1] < counts[2]


def test_sweep_of_a_nan_generator_reports_nan():
    f = StepFunction([0.0, 0.5, 1.0], [np.nan, 1.0])
    g = Generator(f, None, _folded(f))
    for row in sampling_sweep(g, [0.25, 0.5], window=2):
        assert np.isnan(row.max_error)
        assert not row.exact


@pytest.mark.parametrize("p", [0.5, math.inf, math.nan])
def test_sweep_rejects_an_exponent_outside_one_to_inf(p):
    # p = inf would read every error as 1.0 and a NaN p as NaN; below 1 there is no norm
    with pytest.raises(ValueError, match="p must"):
        sampling_sweep(two_coeff_generator(), [0.25], WINDOW, p=p)


# dyadic cells of width 1/4 and more, values on (1/2)Z: every sample and sum is exact
DYADIC = StepFunction([-0.5, 0.0, 0.25, 1.0, 1.75], [0.5, -1.5, 1.0, 2.0])


@pytest.mark.parametrize("shift", [0.0, 0.125])
def test_rows_and_matrix_at_a_commensurate_step_equal_the_fraction_oracle(shift):
    # the Riemann sum over one sample a lattice cell is the integral itself,
    # the sample at the cell's left end or, shifted by h / 2, at its middle
    f = translate(DYADIC, shift)
    g = Generator(f, None, _folded(f))
    assert commensurate_step(g) == 0.25 - shift
    h = 0.25
    plan = SamplingPlan(step=h, window=default_window(g, WINDOW))
    f = exact.of(f)
    ts = [Fraction(t) for t in plan.points().tolist()]
    ns, rows = _coefficient_rows(g, plan.points(), WINDOW)
    assert ns.tolist() == list(range(-WINDOW, WINDOW + 1))
    assert rows.tolist() == [[exact.value(f, t - n) for n in ns.tolist()] for t in ts]
    mat = reconstruction_matrix(g, plan, WINDOW)
    for i, m in enumerate(ns.tolist()):
        for j, n in enumerate(ns.tolist()):
            riemann = Fraction(h) * sum((exact.value(f, t - m) * exact.value(f, t - n)
                                         for t in ts), Fraction(0))
            integral = exact.inner(exact.translate(f, m), exact.translate(f, n))
            assert mat[i, j] == riemann == integral
