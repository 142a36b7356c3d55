"""Tests for the grid-snapped wavelet reconstruction machinery."""

import math

import numpy as np
import pytest

from framelab import (
    GridIndex,
    StepFunction,
    WaveletSystem,
    averaged_conjugate_reconstruction,
    box_reconstruct,
    convergence_study,
    discrete_partial_reconstruct,
    full_grid,
    grid_partial_sum,
    haar_mother,
    member,
    reconstruction_identity_gap,
    snap_to_grid,
)


def test_system_validation():
    with pytest.raises(ValueError):
        WaveletSystem.haar(1.0)
    ws = WaveletSystem.haar(3.0)
    assert ws.p_conj == pytest.approx(1.5)
    with pytest.raises(ValueError):
        GridIndex(l=0, r=5, m=0, s=0, N=4)
    with pytest.raises(ValueError):
        GridIndex(l=0, r=0, m=0, s=0, N=0)


def test_mother_is_unit_norm_in_every_exponent():
    # |values| = 1 on a support of measure one
    for p in (1.5, 2.0, 3.0, 7.0):
        assert haar_mother().lp_norm(p) == 1.0


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


def test_snap_examples():
    idx, a_snap, b_snap = snap_to_grid(1.3, 0.25, 10)
    assert idx == GridIndex(l=1, r=3, m=0, s=2, N=10)
    assert a_snap == pytest.approx(1.3)
    # translation step at scale cell l=1 is 2^1/10, so s=2 lands at 0.4
    assert b_snap == pytest.approx(0.4)

    idx, a_snap, _ = snap_to_grid(0.3, 0.7, 10)
    assert (idx.l, idx.r) == (0, 3)
    assert a_snap == pytest.approx(0.3)

    idx, a_snap, b_snap = snap_to_grid(-0.2, 0.3, 4)
    assert (idx.l, idx.r, idx.m, idx.s) == (-1, 3, 0, 1)
    assert a_snap == pytest.approx(-0.25)
    assert b_snap == pytest.approx(0.125)   # 1 * 2^-1 / 4


def test_snap_defining_inequalities():
    rng = np.random.default_rng(20)
    for _ in range(500):
        a = float(rng.uniform(-5, 5))
        b = float(rng.uniform(-5, 5))
        N = int(rng.integers(1, 17))
        idx, a_snap, _ = snap_to_grid(a, b, N)
        assert a_snap <= a < idx.l + (idx.r + 1) / N
        assert idx.m + idx.s / N <= b < idx.m + (idx.s + 1) / N
        assert a_snap == idx.l + idx.r / N


def test_snap_constant_on_lattice_cells():
    rng = np.random.default_rng(21)
    for _ in range(200):
        N = int(rng.integers(1, 13))
        l = int(rng.integers(-4, 5))
        r = int(rng.integers(0, N))
        m = int(rng.integers(-4, 5))
        s = int(rng.integers(0, N))
        # jitter strictly inside the cell; snapping must not move
        a = l + (r + float(rng.uniform(0.01, 0.99))) / N
        b = m + (s + float(rng.uniform(0.01, 0.99))) / N
        idx, _, _ = snap_to_grid(a, b, N)
        assert idx == GridIndex(l=l, r=r, m=m, s=s, N=N)


def test_dilation_group_law():
    rng = np.random.default_rng(23)
    ts = np.linspace(-4.0, 4.0, 257)
    f = haar_mother()
    for _ in range(40):
        a1, a2 = rng.uniform(-3, 3, 2)
        p = float(rng.uniform(1.2, 4.0))
        twice = f.dilate(float(a1), p).dilate(float(a2), p)
        once = f.dilate(float(a1 + a2), p)
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
        lhs = u.translate(b).dilate(a, p).inner(v)
        rhs = u.inner(v.dilate(-a, q).translate(-b))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_biorthogonality_residual_haar():
    for p in (1.5, 2.0, 3.0):
        assert WaveletSystem.haar(p).biorthogonality_residual(window=2) <= 1e-12


def test_validated_rejects_mismatched_dual():
    with pytest.raises(ValueError):
        WaveletSystem.validated(haar_mother(), haar_mother().scale(2.0), 2.0,
                                window=1)


def test_basis_member_reconstructs_exactly():
    ws = WaveletSystem.haar(2.0)
    x = haar_mother()
    approx = discrete_partial_reconstruct(ws, x, M=1)
    assert (x - approx).lp_norm(2) == 0.0
    # at N=1 the box sum degenerates to the integer-grid partial sum
    assert (x - box_reconstruct(ws, x, 1, 1)).lp_norm(2) == 0.0


def test_partial_reconstruction_error_frozen_value():
    # x = indicator of [0, 0.3), p = 2, M = 1.  The kept members are the
    # four Haar members with scale and shift in {-1, 0}; only (0, 0) and
    # (-1, 0) meet the support, with coefficients 0.3 and 0.15*sqrt(2).
    # The partial sum is then 0.45 on [0, 0.5), -0.15 on [0.5, 1),
    # -0.15 on [1, 2), so the squared error integrates to
    # 0.55^2*0.3 + 0.45^2*0.2 + 0.15^2*1.5 = 0.165.
    ws = WaveletSystem.haar(2.0)
    x = StepFunction.indicator(0.0, 0.3)
    err = (x - discrete_partial_reconstruct(ws, x, M=1)).lp_norm(2)
    assert err == pytest.approx(math.sqrt(0.165), abs=1e-12)


def test_box_equals_discrete_at_unit_resolution():
    ws = WaveletSystem.haar(2.0)
    x = StepFunction([0.0, 0.5, 1.25], [1.0, -2.0])
    diff = box_reconstruct(ws, x, 2, 1) - discrete_partial_reconstruct(ws, x, 2)
    assert diff.lp_norm(2) <= 1e-12


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
        assert row.runtime_ms >= 0.0
    # at N=1 and p=2 the partial sums are nested orthogonal projections,
    # so enlarging the box cannot increase the error
    by_key = {(r.M, r.N): r.error for r in rows}
    assert by_key[(2, 1)] <= by_key[(1, 1)] + 1e-12
    assert by_key[(1, 1)] == pytest.approx(math.sqrt(0.165), abs=1e-12)


def test_grid_partial_sum_full_grid_matches_box():
    ws = WaveletSystem.haar(2.0)
    x = StepFunction([0.0, 0.4, 1.0], [1.0, 0.5])
    cells = full_grid(2, 2)
    assert len(cells) == 4 * 4 * 2 * 2
    total = grid_partial_sum(ws, x, 2, 2, cells)
    assert (total - box_reconstruct(ws, x, 2, 2)).lp_norm(2) <= 1e-12


def test_grid_partial_sum_complement_additivity():
    ws = WaveletSystem.haar(2.0)
    x = StepFunction([0.0, 0.4, 1.0], [1.0, 0.5])
    cells = full_grid(2, 2)
    rng = np.random.default_rng(25)
    for _ in range(10):
        mask = rng.random(len(cells)) < 0.5
        kept = [c for c, keep in zip(cells, mask) if keep]
        rest = [c for c, keep in zip(cells, mask) if not keep]
        together = grid_partial_sum(ws, x, 2, 2, kept).add(
            grid_partial_sum(ws, x, 2, 2, rest))
        assert (together - box_reconstruct(ws, x, 2, 2)).lp_norm(2) <= 1e-12


def test_grid_partial_sum_triangle_bound():
    # dropping cells can never push the norm past the absolute cell sum
    ws = WaveletSystem.haar(2.0)
    x = StepFunction([0.0, 0.4, 1.0], [1.0, 0.5])
    M, N = 2, 2
    cells = full_grid(M, N)
    budget = 0.0
    for (l, m, r, s) in cells:
        a = l + r / N
        b = m + s * (2.0 ** l) / N
        coef = x.inner(member(ws, a, b, "dual"))
        budget += abs(coef) * member(ws, a, b, "primal").lp_norm(2) / (N * N)
    rng = np.random.default_rng(26)
    for _ in range(25):
        mask = rng.random(len(cells)) < rng.uniform(0.2, 0.8)
        kept = [c for c, keep in zip(cells, mask) if keep]
        assert grid_partial_sum(ws, x, M, N, kept).lp_norm(2) <= budget + 1e-12


def test_grid_partial_sum_orthonormal_case_has_unit_constant():
    # at N=1 and p=2 the kept members are orthonormal, so every subset
    # partial sum satisfies |<g, P x>| <= ||g||_2 ||x||_2 with constant 1
    ws = WaveletSystem.haar(2.0)
    M, N = 2, 1
    cells = full_grid(M, N)
    rng = np.random.default_rng(30)
    for _ in range(40):
        grid = np.sort(rng.choice(np.arange(-32, 33), 4, replace=False)) / 8.0
        x = StepFunction(grid, rng.standard_normal(3))
        grid = np.sort(rng.choice(np.arange(-32, 33), 4, replace=False)) / 8.0
        g = StepFunction(grid, rng.standard_normal(3))
        kept = [c for c in cells if rng.random() < 0.5]
        partial = grid_partial_sum(ws, x, M, N, kept)
        assert abs(g.inner(partial)) <= (
            g.lp_norm(2) * x.lp_norm(2) * (1.0 + 1e-12) + 1e-12)


def test_grid_partial_sum_rejects_out_of_range_cell():
    ws = WaveletSystem.haar(2.0)
    with pytest.raises(ValueError):
        grid_partial_sum(ws, haar_mother(), 1, 1, [(1, 0, 0, 0)])


def test_averaged_route_is_isometric_in_the_window():
    # both routes start from the same data; sanity-check the averaged one
    ws = WaveletSystem.haar(2.0)
    x = haar_mother()
    out = averaged_conjugate_reconstruction(ws, x, 1, 1)
    assert (x - out).lp_norm(2) <= 1e-12
