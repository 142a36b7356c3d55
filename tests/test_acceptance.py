"""Acceptance gate: ten end-to-end criteria at pinned tolerances.

Each test is one criterion and emits a single pass/fail line under
``pytest -v``.  The expected values are either exact invariants of the
constructions (integer arithmetic, dyadic grids), hand-derived closed
forms recorded next to the assertion, or inequality bounds that hold by
construction.  Runtime budgets are asserted where a criterion carries one.

Criteria:
  1. translate biorthogonality, 8-coefficient generator, window 16
  2. full-line reconstruction of 100 random vectors, three exponents
  3. suppression certificates and the scan bracket on 500 shared draws
  4. series norm bound on 200 random draws, equality for the unit indicator
  5. box-vs-conjugate reconstruction identity across the (M, N, p) grid
  6. box error dominated by the conjugated partial-sum oracle
  7. alternating triple frame: exact reconstruction, escaping candidate
  8. tail and completeness probes with exact expected values
  9. lattice sampling: commensurate exactness and refinement decay
 10. CLI artifact determinism, byte-for-byte
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from framelab import (
    CoordinateVector,
    RademacherSpec,
    SpaceTag,
    StepFunction,
    WaveletSystem,
    biorthogonality_matrix,
    boundedly_complete_probe,
    build_rademacher_generator,
    commensurate_step,
    convergence_study,
    counterexample_report,
    haar_mother,
    reconstruction_identity_gaps,
    sampling_sweep,
    synthesis_over_set,
    tail_dual_norm,
    unconditionality_scan,
    unit_vector_frame,
    young_check,
)

P_GRID = (1.5, 2.0, 3.0)


def eight_coefficient_generator():
    c = 1.0 / math.sqrt(8.0)
    return build_rademacher_generator(
        RademacherSpec(coefficients={n: c for n in range(8)}))


def test_criterion_01_biorthogonality():
    start = time.perf_counter()
    g = eight_coefficient_generator()
    mat = biorthogonality_matrix(g, window=16)
    deviation = float(np.max(np.abs(mat - np.eye(33))))
    elapsed = time.perf_counter() - start
    assert mat.shape == (33, 33)
    assert deviation <= 1e-10
    assert elapsed < 5.0
    print(f"PASS criterion 1: biorthogonality deviation {deviation:.3e} "
          f"on a 33x33 window in {elapsed:.2f}s")


def test_criterion_02_full_line_reconstruction():
    start = time.perf_counter()
    g = eight_coefficient_generator()
    rng = np.random.default_rng(0)
    window = 8
    out_window = 16
    worst = {p: 0.0 for p in P_GRID}
    for _ in range(100):
        vals = rng.standard_normal(2 * window + 1)
        x = CoordinateVector({n - window: float(v)
                              for n, v in enumerate(vals)})
        recon = synthesis_over_set(g, x, out_window)
        diff = recon.sub(x)
        for p in P_GRID:
            worst[p] = max(worst[p], diff.norm(p) / x.norm(p))
    elapsed = time.perf_counter() - start
    for p in P_GRID:
        assert worst[p] <= 1e-10
    assert elapsed < 10.0
    print("PASS criterion 2: worst relative reconstruction error "
          + ", ".join(f"{worst[p]:.2e} (p={p})" for p in P_GRID)
          + f" in {elapsed:.2f}s")


def test_criterion_03_suppression_certificates_and_scan():
    rng = np.random.default_rng(0)
    worst_gap = 0.0
    for _ in range(20):
        size = int(rng.integers(1, 7))
        idx = rng.choice(np.arange(-8, 9), size=size, replace=False)
        vals = rng.standard_normal(size)
        vals /= math.sqrt(float(np.dot(vals, vals)))
        g = build_rademacher_generator(RademacherSpec(
            coefficients={int(n): float(v) for n, v in zip(idx, vals)}))
        expected = float(np.sum(np.abs(vals))) ** 2
        worst_gap = max(worst_gap, abs(g.suppression_constant - expected))
    assert worst_gap <= 1e-10

    g = build_rademacher_generator(
        RademacherSpec(coefficients={0: 0.6, 1: 0.8}))
    bs, bu = unconditionality_scan(g, trials=500, window=8, p=2.0, seed=0)
    assert bs <= bu + 1e-12
    assert bu <= 2.0 * bs + 1e-12
    assert bs <= g.suppression_constant + 1e-8
    assert bu <= 2.0 * g.suppression_constant + 1e-8
    print(f"PASS criterion 3: certificate gap {worst_gap:.2e}; scan bracket "
          f"[{bs:.4f}, {g.suppression_constant:.4f}] with "
          f"unconditional bound {bu:.4f}")


def test_criterion_04_series_norm_bound():
    rng = np.random.default_rng(0)
    worst_ratio = 0.0
    for i in range(200):
        size = int(rng.integers(1, 5))
        idx = rng.choice(np.arange(-3, 4), size=size, replace=False)
        vals = rng.standard_normal(size)
        vals /= math.sqrt(float(np.dot(vals, vals)))
        g = build_rademacher_generator(RademacherSpec(
            coefficients={int(n): float(v) for n, v in zip(idx, vals)}))
        a_size = int(rng.integers(1, 7))
        a_idx = rng.choice(np.arange(-6, 7), size=a_size, replace=False)
        a = CoordinateVector({int(n): float(v) for n, v in
                              zip(a_idx, rng.standard_normal(a_size))})
        p = P_GRID[i % len(P_GRID)]
        lhs, rhs = young_check(g.f, a, p)
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-12
        if rhs > 0:
            worst_ratio = max(worst_ratio, lhs / rhs)

    equality_gap = 0.0
    a = CoordinateVector({0: 1.0, 2: -2.0, 5: 0.5})
    for p in P_GRID:
        lhs, rhs = young_check(StepFunction.indicator(0.0, 1.0), a, p)
        equality_gap = max(equality_gap, abs(lhs - rhs))
    assert equality_gap <= 1e-12
    print(f"PASS criterion 4: series bound held on 200 draws "
          f"(max ratio {worst_ratio:.4f}), unit indicator equality gap "
          f"{equality_gap:.2e}")


def test_criterion_05_reconstruction_identity():
    start = time.perf_counter()
    x = StepFunction.indicator(0.0, 0.3)
    gaps = reconstruction_identity_gaps([WaveletSystem.haar(p) for p in P_GRID], x,
                                        (1, 2, 3), (1, 2, 4))
    worst = max(gaps)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 60.0
    print(f"PASS criterion 5: worst identity gap {worst:.3e} over the "
          f"(M, N, p) grid in {elapsed:.2f}s")


def test_criterion_06_error_dominated_by_oracle():
    x = StepFunction.indicator(0.0, 0.3)
    for p in P_GRID:
        ws = WaveletSystem.haar(p)
        rows = convergence_study(ws, x, M_list=[1, 2, 3], N_list=[1, 2, 4])
        for row in rows:
            assert row.error <= row.oracle_bound + 1e-9

    # pinned closed form: at p=2, M=1, N=1 the partial sum of the
    # indicator of [0, 0.3) is 0.45 on [0, 1/2), -0.15 on [1/2, 2),
    # so the squared error is 0.55^2*0.3 + 0.45^2*0.2 + 0.15^2*1.5 = 0.165
    ws2 = WaveletSystem.haar(2.0)
    pinned = convergence_study(ws2, x, M_list=[1], N_list=[1])[0].error
    assert abs(pinned - math.sqrt(0.165)) <= 1e-12

    # a basis member is its own expansion: exact at integer resolution
    basis_rows = convergence_study(ws2, haar_mother(), M_list=[1], N_list=[1])
    assert basis_rows[0].error <= 1e-12
    print(f"PASS criterion 6: box error within oracle bound on all rows; "
          f"pinned error {pinned:.12f} matches sqrt(0.165); basis member "
          f"exact at N=1")


def test_criterion_07_triple_frame_counterexample():
    start = time.perf_counter()
    small = counterexample_report(50, reconstruction_limit=50)
    big = counterexample_report(10_000, reconstruction_limit=50)
    elapsed = time.perf_counter() - start
    assert small.ok
    assert big.ok
    assert big.restricted_coordinates_all_one
    assert big.restricted_escapes_c0
    assert elapsed < 1.0
    print(f"PASS criterion 7: exact reconstruction and escaping all-ones "
          f"candidate at K=10000 in {elapsed:.2f}s")


def test_criterion_08_tail_and_completeness_probes():
    window = 12

    frame_l1 = unit_vector_frame(SpaceTag.l1(), range(window))
    ones = CoordinateVector({n: 1 for n in range(window)})
    l1_tails = [tail_dual_norm(frame_l1, ones, range(j + 1))
                for j in range(window - 1)]
    assert all(v == 1.0 for v in l1_tails)

    frame_lp = unit_vector_frame(SpaceTag.lp(2.0), range(window))
    f = CoordinateVector({n: 1.0 / (n + 1) for n in range(6)})
    lp_tails = [tail_dual_norm(frame_lp, f, range(j + 1))
                for j in range(window)]
    assert all(v == 0.0 for v in lp_tails[5:])
    assert all(b <= a for a, b in zip(lp_tails, lp_tails[1:]))

    frame_c0 = unit_vector_frame(SpaceTag.c0(), range(window))
    probe = boundedly_complete_probe(
        frame_c0, ones, [range(j + 1) for j in range(window)])
    assert probe.increments == tuple([1.0] * (window - 1))
    assert probe.non_cauchy
    print("PASS criterion 8: l1 all-ones tails stay at 1, finite-support "
          "tails vanish, c0 all-ones increments stay at 1 (non-Cauchy)")


def test_criterion_09_lattice_sampling():
    g = build_rademacher_generator(RademacherSpec(
        coefficients={0: 1.0 / math.sqrt(2.0), 1: 1.0 / math.sqrt(2.0)}))
    h = commensurate_step(g)
    exact_rows = sampling_sweep(g, [h], window=4)
    assert exact_rows[0].max_error < 1e-10
    assert exact_rows[0].exact

    steps = [0.37 / 2 ** k for k in range(6)]
    rows = sampling_sweep(g, steps, window=4)
    errors = [r.max_error for r in rows]
    assert all(b <= a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < errors[0]
    print(f"PASS criterion 9: commensurate step {h} reconstructs exactly "
          f"(error {exact_rows[0].max_error:.1e}); refinement chain "
          f"{errors[0]:.3e} -> {errors[-1]:.3e} nonincreasing")


def test_criterion_10_cli_artifact_determinism(tmp_path, cli_env):
    def run(args, cwd):
        return subprocess.run([sys.executable, "-m", "framelab.cli", *args],
                              cwd=cwd, env=cli_env, capture_output=True, text=True)

    cases = [
        ["suppression-scan", "--trials", "50", "--window", "4", "--seed", "5"],
        ["wavelet-reconstruct", "--M-list", "1,2", "--N-list", "1,2"],
        ["sampling-sweep", "--steps", "0.5,0.25", "--window", "3"],
    ]
    for case in cases:
        for name in ("first", "second"):
            proc = run([*case, "--out", name, "--quiet"], cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
        first = json.loads((tmp_path / "first.json").read_text())
        assert first["config_digest"]
        assert (tmp_path / "first.json").read_bytes() == \
            (tmp_path / "second.json").read_bytes()
        for ext in ("csv",):
            a, b = tmp_path / f"first.{ext}", tmp_path / f"second.{ext}"
            if a.exists():
                assert a.read_bytes() == b.read_bytes()
        for leftover in tmp_path.iterdir():
            leftover.unlink()
    print("PASS criterion 10: reruns of three experiment kinds produced "
          "byte-identical JSON and CSV artifacts")
