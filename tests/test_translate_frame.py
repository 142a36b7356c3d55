"""Tests for integer-translate frames built from a compactly supported generator."""

import math
from fractions import Fraction

import numpy as np
import pytest

from framelab import (
    CoordinateVector,
    GeneratorRejected,
    RademacherSpec,
    StepFunction,
    biorthogonality_matrix,
    build_rademacher_generator,
    synthesis_over_set,
    validate_generator,
    young_check,
)
from framelab.sampling import _coefficient_rows
from framelab.stepfn import _folded
from framelab.translate_frame import _series, _unfold

import exact
from reference_orbit import translate


def single_coeff_generator():
    return build_rademacher_generator(RademacherSpec(coefficients={0: 1.0}))


def two_coeff_generator():
    c = 1.0 / math.sqrt(2.0)
    return build_rademacher_generator(RademacherSpec(coefficients={0: c, 1: c}))


def sign_pattern(depth):
    """The single-coefficient Rademacher function: the sign pattern of 2^depth cells."""
    return build_rademacher_generator(RademacherSpec(coefficients={0: 1.0},
                                                     resolution=depth)).f


def test_sign_pattern_structure():
    for depth in range(1, 6):
        r = sign_pattern(depth)
        assert r.values.size == 2 ** depth
        assert r.support() == (0.0, 1.0)
        assert set(r.values.tolist()) == {1.0, -1.0}
        assert r.values[0] == 1.0
        assert exact.inner(exact.of(r), exact.of(StepFunction.indicator(0.0, 1.0))) == 0
        assert exact.power_integral(exact.of(r), 2) == 1


def test_sign_patterns_orthogonal_across_depths():
    # exact on the shared dyadic grid
    for d1 in range(1, 5):
        for d2 in range(d1 + 1, 6):
            assert exact.inner(exact.of(sign_pattern(d1)), exact.of(sign_pattern(d2))) == 0


def test_single_coefficient_certificates():
    g = single_coeff_generator()
    assert g.report.l1_norm == pytest.approx(1.0, abs=1e-12)
    assert g.report.periodized_sup == pytest.approx(1.0, abs=1e-12)
    assert g.report.ortho_residual <= 1e-12
    assert g.suppression_constant == pytest.approx(1.0, abs=1e-12)
    assert g.f.support() == (0.0, 1.0)


def test_two_coefficient_suppression_constant():
    # certificate value is (sum of |coefficients|)^2 = (2/sqrt(2))^2 = 2
    g = two_coeff_generator()
    assert g.suppression_constant == pytest.approx(2.0, abs=1e-10)
    assert g.f.support() == (0.0, 2.0)


def test_unbalanced_coefficients():
    g = build_rademacher_generator(
        RademacherSpec(coefficients={0: 0.6, 1: 0.8}))
    assert g.suppression_constant == pytest.approx(1.96, abs=1e-10)


def test_resolution_refines_cells():
    base = build_rademacher_generator(RademacherSpec(coefficients={0: 1.0}))
    fine = build_rademacher_generator(
        RademacherSpec(coefficients={0: 1.0}, resolution=3))
    assert base.f.values.size == 2
    assert fine.f.values.size == 8
    assert fine.suppression_constant == pytest.approx(1.0, abs=1e-12)


def test_rademacher_spec_validation():
    with pytest.raises(ValueError):
        build_rademacher_generator(RademacherSpec(coefficients={}))
    with pytest.raises(ValueError):
        build_rademacher_generator(RademacherSpec(coefficients={0: 1.0, 1: 1.0}))
    with pytest.raises(ValueError):
        build_rademacher_generator(
            RademacherSpec(coefficients={0: 1.0}, resolution=0))


@pytest.mark.parametrize("coefficients", [{0: 0.6, 1: 0.6}, {0: 0.5}, {-3: 0.25, 2: -2.5}])
def test_a_non_unit_record_reports_the_certificates_of_its_fold(coefficients):
    # the record is filled before it is rejected, and its Gram lags are not taken
    with pytest.raises(GeneratorRejected) as rejected:
        build_rademacher_generator(RademacherSpec(coefficients))
    report = rejected.value.report
    assert report.failures[0].startswith("coefficients must have unit l2 norm")
    assert report.ortho_residual == math.inf
    # each coefficient c fills a unit with |c| on every cell
    assert exact.ulps(report.l1_norm, sum(abs(Fraction(c)) for c in coefficients.values())) <= 2
    assert report.periodized_sup == sum(abs(c) for c in coefficients.values())


def test_indicator_is_a_valid_generator():
    g = validate_generator(StepFunction.indicator(0.0, 1.0))
    assert g.suppression_constant == pytest.approx(1.0, abs=1e-12)


def test_wide_indicator_rejected():
    # translates of the width-two indicator overlap, so orthonormality fails
    with pytest.raises(GeneratorRejected) as exc:
        validate_generator(StepFunction.indicator(0.0, 2.0))
    report = exc.value.report
    assert not report.ok
    assert report.ortho_residual >= 1.0 - 1e-12
    assert report.failures


def test_zero_generator_rejected():
    with pytest.raises(GeneratorRejected):
        validate_generator(StepFunction())


@pytest.mark.parametrize("lag_range", [-1, 1.5, "2"])
def test_a_bad_lag_range_is_refused_by_name(lag_range):
    # a negative range would reach the Gram lags as an empty table, an IndexError
    with pytest.raises(ValueError, match="lag_range"):
        validate_generator(StepFunction.indicator(0.0, 1.0), lag_range)
    with pytest.raises(ValueError, match="lag_range"):
        build_rademacher_generator(RademacherSpec(coefficients={0: 1.0}), lag_range)


def test_certificates_report_shape():
    rep = validate_generator(StepFunction.indicator(0.0, 1.0)).report
    assert rep.ok
    assert rep.lag_range >= 1
    d = rep.to_dict()
    assert set(d) >= {"l1_norm", "periodized_sup", "ortho_residual", "failures"}


def test_frame_vector_values():
    # row j of the sampled coefficients is the frame vector (f(t_j - n))_n
    g = single_coeff_generator()
    ns, rows = _coefficient_rows(g, [0.1, 0.6, 1.2], window=4)
    assert ns.tolist() == list(range(-4, 5))
    assert rows[0].tolist() == [0.0] * 4 + [1.0] + [0.0] * 4
    # second half of the base pattern carries the opposite sign
    assert rows[1].tolist() == [0.0] * 4 + [-1.0] + [0.0] * 4
    assert rows[2].tolist() == [0.0] * 5 + [1.0] + [0.0] * 3
    _, rows = _coefficient_rows(g, [-3.9], window=2)
    assert not rows.any()   # clipped by the window


def test_analysis_of_unit_vector_recovers_generator():
    # the series of e_n is one row of the fold per unit, unfolded at unit n
    g = two_coeff_generator()
    k0, grid, table = _folded(g.f)
    for n in (0, 5):
        c = _unfold(k0 + n, grid, _series(table, np.ones(1)))
        gap = exact.add(exact.of(c), exact.scale(exact.of(translate(g.f, n)), -1))
        assert exact.power_integral(gap, 2) <= 1e-24     # an L2 norm of at most 1e-12


def test_full_line_synthesis_recovers_coordinates():
    rng = np.random.default_rng(15)
    g = two_coeff_generator()
    for _ in range(10):
        idx = rng.choice(np.arange(-6, 7), size=4, replace=False)
        x = CoordinateVector({int(i): float(v)
                              for i, v in zip(idx, rng.standard_normal(4))})
        y = synthesis_over_set(g, x, window=16)
        assert (y.sub(x)).norm(2) == pytest.approx(0.0, abs=1e-10)


def test_synthesis_hand_case():
    # generator = indicator of [0, 1); x = e_0
    # coordinate 0 integrates the indicator over the line, all others vanish
    g = validate_generator(StepFunction.indicator(0.0, 1.0))
    y = synthesis_over_set(g, CoordinateVector.unit(0), window=4)
    assert y == CoordinateVector({0: 1.0})


def test_synthesis_shift_covariance_exact():
    # dyadic data keeps every intermediate quantity exactly representable
    g = two_coeff_generator()
    x = CoordinateVector({0: 1.0, 1: -0.5, 3: 0.25})
    k = 3

    def shift(v):
        return CoordinateVector({n + k: c for n, c in v.items()})

    assert synthesis_over_set(g, shift(x), window=12) == shift(
        synthesis_over_set(g, x, window=12))


def test_biorthogonality_matrix_is_identity():
    for g in (single_coeff_generator(), two_coeff_generator()):
        mat = biorthogonality_matrix(g, window=5)
        assert np.max(np.abs(mat - np.eye(11))) <= 1e-10


def test_young_bound_random_draws():
    rng = np.random.default_rng(16)
    f = build_rademacher_generator(
        RademacherSpec(coefficients={0: 0.6, 1: 0.8})).f
    for _ in range(60):
        size = int(rng.integers(1, 6))
        idx = rng.choice(np.arange(-8, 9), size=size, replace=False)
        a = CoordinateVector({int(i): float(v)
                              for i, v in zip(idx, rng.standard_normal(size))})
        p = float(rng.uniform(1.1, 4.0))
        lhs, rhs = young_check(f, a, p)
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


def test_young_equality_for_unit_indicator():
    # disjoint translates make the series norm match the bound exactly
    f = StepFunction.indicator(0.0, 1.0)
    a = CoordinateVector({0: 1.0, 2: -2.0, 5: 0.5})
    for p in (1.5, 2.0, 3.0):
        lhs, rhs = young_check(f, a, p)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_young_check_rejects_bad_p():
    # at p = inf both sides read inf, which would pass any lhs <= rhs gate
    for p in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            young_check(StepFunction.indicator(0.0, 1.0),
                        CoordinateVector.unit(0), p)
