"""Tests for the grid-snapped wavelet reconstruction machinery."""

import dataclasses
import math

import numpy as np
import pytest

from framelab import (
    StepFunction,
    WaveletSystem,
    convergence_study,
    haar_mother,
)
from framelab.wavelet_frame import (
    _box_lattice,
    _lattice_sums,
    _pairs,
)

from reference_boxes import (averaged_conjugate_reconstruction, box_reconstruct, function,
                             reconstruction_identity_gap)
import exact
from reference_orbit import dilate, member, translate


def distance(f, g, p=2):
    """||f - g||_p of two StepFunctions, exact up to the decimal root."""
    return float(exact.lp_norm(exact.add(exact.of(f), exact.scale(exact.of(g), -1)), p))


def norm(f, p=2):
    return float(exact.lp_norm(exact.of(f), p))


def inner(f, g):
    return float(exact.inner(exact.of(f), exact.of(g)))


def _lattice_sum(ws, x, a, b, weight):
    """weight * sum_k <x, dual(a_k, b_k)> primal(a_k, b_k) as one step function."""
    return function(_lattice_sums(ws, x, [(a, b, ws.p, weight)]))


def discrete_partial_reconstruct(ws, x, M):
    """Integer-grid partial reconstruction over scales and shifts in [-M, M-1]."""
    return _lattice_sum(ws, x, *_pairs(-M, M), 1.0)


def test_system_validation():
    with pytest.raises(ValueError):
        WaveletSystem.haar(1.0)
    # an infinite p has a NaN conjugate p / (p - 1)
    for p in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            WaveletSystem.haar(p)


def test_mother_is_unit_norm_in_every_exponent():
    # |values| = 1 on a support of measure one
    for p in (1.5, 2.0, 3.0, 7.0):
        assert exact.lp_norm(exact.of(haar_mother()), p) == 1


def test_member_primal_and_dual_normalization():
    ws = WaveletSystem.haar(3.0)
    prim = member(ws, 1, 0, "primal")
    assert prim.breakpoints.tolist() == [0.0, 0.25, 0.5]
    assert prim.values.tolist() == pytest.approx(
        [2.0 ** (1.0 / 3.0), -(2.0 ** (1.0 / 3.0))])
    dual = member(ws, 1, 0, "dual")
    assert dual.values.tolist() == pytest.approx(
        [2.0 ** (2.0 / 3.0), -(2.0 ** (2.0 / 3.0))])
    with pytest.raises(ValueError):
        member(ws, 0, 0, "both")


def test_dilation_group_law():
    rng = np.random.default_rng(23)
    ts = np.linspace(-4.0, 4.0, 257)
    f = haar_mother()
    for _ in range(40):
        a1, a2 = rng.uniform(-3, 3, 2)
        p = float(rng.uniform(1.2, 4.0))
        twice = dilate(dilate(f, float(a1), p), float(a2), p)
        once = dilate(f, float(a1 + a2), p)
        assert np.allclose(twice(ts), once(ts), rtol=1e-12, atol=1e-12)


def test_adjoint_transfer_identity():
    # <u translated by b, dilated by a with exponent p ; v> equals
    # <u ; v dilated by -a with the conjugate exponent, translated by -b>
    rng = np.random.default_rng(24)
    for _ in range(60):
        grid_u = np.sort(rng.choice(np.arange(-48, 49), 4, replace=False)) / 8.0
        grid_v = np.sort(rng.choice(np.arange(-48, 49), 4, replace=False)) / 8.0
        u = StepFunction(grid_u, rng.standard_normal(3))
        v = StepFunction(grid_v, rng.standard_normal(3))
        a = float(rng.uniform(-3, 3))
        b = float(rng.uniform(-3, 3))
        p = float(rng.uniform(1.2, 4.0))
        q = p / (p - 1.0)
        lhs = inner(dilate(translate(u, b), a, p), v)
        rhs = inner(u, translate(dilate(v, -a, q), -b))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_biorthogonality_residual_haar():
    # <primal(n, k), dual(n', k')> = delta over |n|, |k|, |n'|, |k'| <= 2
    grid = [(n, k) for n in range(-2, 3) for k in range(-2, 3)]
    for p in (1.5, 2.0, 3.0):
        ws = WaveletSystem.haar(p)
        duals = [member(ws, n, k, "dual") for n, k in grid]
        for i, (n, k) in enumerate(grid):
            primal = member(ws, n, k, "primal")
            for j, dual in enumerate(duals):
                assert abs(inner(primal, dual) - (i == j)) <= 1e-12


def test_basis_member_reconstructs_exactly():
    ws = WaveletSystem.haar(2.0)
    x = haar_mother()
    approx = discrete_partial_reconstruct(ws, x, M=1)
    assert distance(x, approx) == 0.0
    # at N=1 the box sum degenerates to the integer-grid partial sum
    assert distance(x, box_reconstruct(ws, x, 1, 1)) == 0.0


def test_partial_reconstruction_error_frozen_value():
    # x = indicator of [0, 0.3), p = 2, M = 1.  The kept members are the
    # four Haar members with scale and shift in {-1, 0}; only (0, 0) and
    # (-1, 0) meet the support, with coefficients 0.3 and 0.15*sqrt(2).
    # The partial sum is then 0.45 on [0, 0.5), -0.15 on [0.5, 1),
    # -0.15 on [1, 2), so the squared error integrates to
    # 0.55^2*0.3 + 0.45^2*0.2 + 0.15^2*1.5 = 0.165.
    ws = WaveletSystem.haar(2.0)
    x = StepFunction.indicator(0.0, 0.3)
    err = distance(x, discrete_partial_reconstruct(ws, x, M=1))
    assert err == pytest.approx(math.sqrt(0.165), abs=1e-12)


def test_box_equals_discrete_at_unit_resolution():
    ws = WaveletSystem.haar(2.0)
    x = StepFunction([0.0, 0.5, 1.25], [1.0, -2.0])
    assert distance(box_reconstruct(ws, x, 2, 1), discrete_partial_reconstruct(ws, x, 2)) <= 1e-12


def test_two_reconstruction_routes_agree():
    x = StepFunction([0.0, 0.3, 1.0], [1.0, -0.5])
    for p in (1.5, 2.0, 3.0):
        ws = WaveletSystem.haar(p)
        assert reconstruction_identity_gap(ws, x, 2, 2) <= 1e-9


def test_convergence_rows_respect_oracle_bound():
    ws = WaveletSystem.haar(2.0)
    x = StepFunction.indicator(0.0, 0.3)
    rows = convergence_study(ws, x, M_list=[1, 2], N_list=[1, 2])
    assert len(rows) == 4
    for row in rows:
        assert row.error <= row.oracle_bound + 1e-9
        # a row holds the CSV columns and nothing that varies between reruns
        assert dataclasses.astuple(row) == (row.M, row.N, 2.0, row.error, row.oracle_bound)
    # at N=1 and p=2 the partial sums are nested orthogonal projections,
    # so enlarging the box cannot increase the error
    by_key = {(r.M, r.N): r.error for r in rows}
    assert by_key[(2, 1)] <= by_key[(1, 1)] + 1e-12
    assert by_key[(1, 1)] == pytest.approx(math.sqrt(0.165), abs=1e-12)


def test_grid_partial_sum_full_grid_matches_box():
    # the box lattice summed in reverse order gives the box sum
    ws = WaveletSystem.haar(2.0)
    x = StepFunction([0.0, 0.4, 1.0], [1.0, 0.5])
    a, b = _box_lattice(2, 2)
    assert a.size == 4 * 4 * 2 * 2
    total = _lattice_sum(ws, x, a[::-1], b[::-1], 1.0 / 4)
    assert distance(total, box_reconstruct(ws, x, 2, 2)) <= 1e-12


def test_grid_partial_sum_complement_additivity():
    ws = WaveletSystem.haar(2.0)
    x = StepFunction([0.0, 0.4, 1.0], [1.0, 0.5])
    a, b = _box_lattice(2, 2)
    rng = np.random.default_rng(25)
    for _ in range(10):
        mask = rng.random(a.size) < 0.5
        together = _lattice_sum(ws, x, a[mask], b[mask], 1.0 / 4).add(
            _lattice_sum(ws, x, a[~mask], b[~mask], 1.0 / 4))
        assert distance(together, box_reconstruct(ws, x, 2, 2)) <= 1e-12


def test_grid_partial_sum_triangle_bound():
    # dropping cells can never push the norm past the absolute cell sum
    ws = WaveletSystem.haar(2.0)
    x = StepFunction([0.0, 0.4, 1.0], [1.0, 0.5])
    M, N = 2, 2
    a, b = _box_lattice(M, N)
    budget = 0.0
    for ak, bk in zip(a, b):
        coef = inner(x, member(ws, ak, bk, "dual"))
        budget += abs(coef) * norm(member(ws, ak, bk, "primal")) / (N * N)
    rng = np.random.default_rng(26)
    for _ in range(25):
        mask = rng.random(a.size) < rng.uniform(0.2, 0.8)
        partial = _lattice_sum(ws, x, a[mask], b[mask], 1.0 / (N * N))
        assert norm(partial) <= budget + 1e-12


def test_grid_partial_sum_orthonormal_case_has_unit_constant():
    # at N=1 and p=2 the kept members are orthonormal, so every subset
    # partial sum satisfies |<g, P x>| <= ||g||_2 ||x||_2 with constant 1
    ws = WaveletSystem.haar(2.0)
    a, b = _box_lattice(2, 1)
    rng = np.random.default_rng(30)
    for _ in range(40):
        grid = np.sort(rng.choice(np.arange(-32, 33), 4, replace=False)) / 8.0
        x = StepFunction(grid, rng.standard_normal(3))
        grid = np.sort(rng.choice(np.arange(-32, 33), 4, replace=False)) / 8.0
        g = StepFunction(grid, rng.standard_normal(3))
        mask = rng.random(a.size) < 0.5
        partial = _lattice_sum(ws, x, a[mask], b[mask], 1.0)
        assert abs(inner(g, partial)) <= norm(g) * norm(x) * (1.0 + 1e-12) + 1e-12


def test_averaged_route_is_isometric_in_the_window():
    # both routes start from the same data; sanity-check the averaged one
    ws = WaveletSystem.haar(2.0)
    x = haar_mother()
    out = averaged_conjugate_reconstruction(ws, x, 1, 1)
    assert distance(x, out) <= 1e-12
