"""The batched wavelet lattice kernel against two references.

Every wavelet sum runs on one kernel: coefficients from the target's
antiderivative (``_coefficients``) and synthesis by one jump sort
(``_jump_sum``).  Each path is compared with

* the per-member ``StepFunction`` code it replaced, kept verbatim below as
  the reference (``reference_*``, with the deleted balanced
  ``StepFunction.sum`` as ``reference_sum``), on Haar and non-Haar
  systems and on dyadic and non-dyadic targets;
* exact ``fractions.Fraction`` arithmetic on dyadic targets, mothers and
  lattices, driven by ``hypothesis``; scales are chosen so that every
  normalization 2^(a/p), 2^(a/q) is a power of two, which keeps every
  float sum exact, so the kernel must equal the oracle exactly.

A cost guard counts ``StepFunction`` constructions, so that a return to
one object per member shows without relying on wall time.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import (
    StepFunction,
    WaveletSystem,
    averaged_conjugate_reconstruction,
    box_reconstruct,
    convergence_study,
    haar_mother,
    member,
    reconstruction_identity_gap,
)
from framelab import wavelet_frame
from framelab.stepfn import MERGE_ULPS, _merge
from framelab.wavelet_frame import _coefficients, _jump_sum, _lattice_sum, _pairs


# -- the replaced per-member code, verbatim ---------------------------------------


def reference_sum(funcs):
    """Balanced pairwise summation of a sequence of step functions."""
    items = list(funcs)
    if not items:
        return StepFunction.zero()
    while len(items) > 1:
        nxt = [items[i].add(items[i + 1]) for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def reference_discrete_partial_reconstruct(ws, x, M):
    terms = []
    for l in range(-M, M):
        for m in range(-M, M):
            coef = x.inner(member(ws, l, m, "dual"))
            if coef != 0.0:
                terms.append(member(ws, l, m, "primal").scale(coef))
    return reference_sum(terms)


def reference_box_reconstruct(ws, x, M, N):
    weight = 1.0 / (N * N)
    terms = []
    for r in range(N):
        for l in range(-M, M):
            a = l + r / N
            for s in range(N):
                for m in range(-M, M):
                    b = m + s * (2.0 ** l) / N
                    coef = x.inner(member(ws, a, b, "dual"))
                    if coef != 0.0:
                        terms.append(member(ws, a, b, "primal").scale(coef * weight))
    return reference_sum(terms)


def reference_conjugated_targets(ws, x, M, N):
    out = []
    for r in range(N):
        for s in range(N):
            y = x.dilate(-r / N, ws.p).translate(-s / N)
            out.append((r, s, y, reference_discrete_partial_reconstruct(ws, y, M)))
    return out


def reference_averaged_conjugate_reconstruction(ws, x, M, N):
    weight = 1.0 / (N * N)
    terms = []
    for r, s, _, partial in reference_conjugated_targets(ws, x, M, N):
        back = partial.translate(s / N).dilate(r / N, ws.p)
        terms.append(back.scale(weight))
    return reference_sum(terms)


def reference_study_row(ws, x, M, N):
    """(error, oracle_bound) of one convergence_study row."""
    approx = reference_box_reconstruct(ws, x, M, N)
    error = x.add(approx.scale(-1.0)).lp_norm(ws.p)
    bound = 0.0
    for _, _, y, partial in reference_conjugated_targets(ws, x, M, N):
        bound = max(bound, y.add(partial.scale(-1.0)).lp_norm(ws.p))
    return error, bound


def reference_grid_partial_sum(ws, x, M, N, keep):
    keep = set(keep)
    weight = 1.0 / (N * N)
    terms = []
    for (l, m, r, s) in keep:
        if not (-M <= l < M and -M <= m < M and 0 <= r < N and 0 <= s < N):
            raise ValueError(f"cell {(l, m, r, s)} outside the box grid")
        a = l + r / N
        b = m + s * (2.0 ** l) / N
        coef = x.inner(member(ws, a, b, "dual"))
        if coef != 0.0:
            terms.append(member(ws, a, b, "primal").scale(coef * weight))
    return reference_sum(terms)


def reference_biorthogonality_residual(ws, window=4):
    rng = range(-window, window + 1)
    primal = {(n, k): member(ws, n, k, "primal") for n in rng for k in rng}
    dual = {(n, k): member(ws, n, k, "dual") for n in rng for k in rng}
    worst = 0.0
    for (n, k), fp in primal.items():
        for (n2, k2), fd in dual.items():
            target = 1.0 if (n, k) == (n2, k2) else 0.0
            worst = max(worst, abs(fp.inner(fd) - target))
    return worst


# -- shared data -----------------------------------------------------------------


# a mother and a dual that are not Haar (and not biorthogonal): the kernel
# reads both from the system, so every path must still match the reference
SKEWED = WaveletSystem(StepFunction([0.0, 0.25, 0.75, 1.0], [1.0, -0.5, 0.3]),
                       StepFunction([-0.5, 0.5, 1.5], [0.7, -1.1]), 2.5)
NON_DYADIC = StepFunction([-0.3, 0.1, 0.65, 1.7], [0.9, -1.3, 0.4])


def gap(f, g, p):
    return f.add(g.scale(-1.0)).lp_norm(p)


def systems():
    return [WaveletSystem.haar(1.5), WaveletSystem.haar(3.0), SKEWED]


def targets():
    return [haar_mother(), StepFunction.indicator(0.0, 0.3), NON_DYADIC]


# -- batched paths against the replaced code -------------------------------------


def test_discrete_and_box_sums_match_reference():
    for ws in systems():
        for x in targets():
            assert gap(_lattice_sum(ws, x, *_pairs(-2, 2), 1.0),
                       reference_discrete_partial_reconstruct(ws, x, 2), ws.p) <= 1e-13
            for M, N in ((1, 1), (2, 3), (3, 4)):
                assert gap(box_reconstruct(ws, x, M, N),
                           reference_box_reconstruct(ws, x, M, N), ws.p) <= 1e-13


def test_averaged_route_matches_reference():
    for ws in systems():
        for x in targets():
            for M, N in ((1, 1), (2, 2), (2, 3)):
                assert gap(averaged_conjugate_reconstruction(ws, x, M, N),
                           reference_averaged_conjugate_reconstruction(ws, x, M, N),
                           ws.p) <= 1e-13


def test_study_rows_match_reference():
    for ws in systems():
        for x in targets():
            for M, N in ((1, 1), (2, 3)):
                [row] = convergence_study(ws, x, [M], [N])
                error, bound = reference_study_row(ws, x, M, N)
                assert row.error == pytest.approx(error, rel=1e-12, abs=1e-14)
                assert row.oracle_bound == pytest.approx(bound, rel=1e-12, abs=1e-14)


def test_grid_partial_sum_matches_reference():
    rng = np.random.default_rng(40)
    cells = [(l, m, r, s) for l in range(-2, 2) for m in range(-2, 2)
             for r in range(3) for s in range(3)]
    for ws in systems():
        for x in targets():
            kept = [c for c in cells if rng.random() < 0.4]
            l, m, r, s = np.array(kept, dtype=float).T
            assert gap(_lattice_sum(ws, x, l + r / 3, m + s * 2.0 ** l / 3, 1.0 / 9),
                       reference_grid_partial_sum(ws, x, 2, 3, kept), ws.p) <= 1e-13


def test_biorthogonality_residual_matches_reference():
    # every primal member analysed against all dual members at once
    for ws in systems():
        n, k = _pairs(-2, 3)
        pb, pv = ws._unit_cells["primal"]
        gaps = []
        for i in range(n.size):
            gram = _coefficients(ws, (pb + k[i]) * 2.0 ** (-n[i]),
                                 pv * 2.0 ** (n[i] / ws.p), n, k)
            gram[i] -= 1.0
            gaps.append(np.abs(gram))
        assert float(np.max(gaps)) == pytest.approx(
            reference_biorthogonality_residual(ws, 2), rel=1e-12, abs=1e-15)


def test_exact_zeros_survive_the_batched_paths():
    ws = WaveletSystem.haar(2.0)
    x = haar_mother()
    # the basis member is its own expansion, bit for bit
    assert box_reconstruct(ws, x, 1, 1) == x
    assert _lattice_sum(ws, x, *_pairs(-1, 1), 1.0) == x
    assert averaged_conjugate_reconstruction(ws, x, 1, 1) == x
    [row] = convergence_study(ws, x, [1], [1])
    assert row.error == 0.0
    # the pinned closed form of criterion 6
    [row] = convergence_study(ws, StepFunction.indicator(0.0, 0.3), [1], [1])
    assert abs(row.error - math.sqrt(0.165)) <= 1e-12


def test_uncovered_cells_are_exactly_zero():
    # mother values 1 and -0.3 do not cancel in the running sum: after the
    # first member ends, its jumps leave float residue that only the
    # coverage count turns back into an exact 0 on the gap [1, 3)
    ws = WaveletSystem(StepFunction([0.0, 0.5, 1.0], [1.0, -0.3]),
                       StepFunction([0.0, 1.0], [1.0]), 2.0)
    x = StepFunction([0.0, 0.4, 4.0], [0.37, 1.3])
    total = _lattice_sum(ws, x, np.zeros(2), np.array([0.0, 3.0]), 0.1)
    assert total(2.0) == 0.0
    assert total.evaluate(np.array([-1.0, 1.5, 2.99, 4.5])).tolist() == [0.0] * 4


def test_jump_sum_merges_breakpoints_within_merge_tol():
    # the merge distance is MERGE_ULPS ulps of the largest |point|, here 2
    within = MERGE_ULPS * np.spacing(2.0)
    # the second row starts within it after the first ends: one grid point
    bp = np.array([[0.0, 1.0], [1.0 + within, 2.0]])
    grid, values = _jump_sum(bp, np.array([[1.0], [3.0]]))
    assert grid.tolist() == [0.0, 1.0, 2.0]
    assert values.tolist() == [1.0, 3.0]
    # a chain of points, each within it of the one before, is one grid point
    # even where the chain is longer than the distance
    bp = np.array([[0.0, 1.0], [1.0 + within, 2.0], [1.0 + 2 * within, 2.0]])
    grid, values = _jump_sum(bp, np.array([[1.0], [3.0], [5.0]]))
    assert grid.tolist() == [0.0, 1.0, 2.0]
    assert values.tolist() == [1.0, 8.0]
    # a 1e-13 gap is far wider at this magnitude: it stays, covered by no row
    bp = np.array([[0.0, 1.0], [1.0 + 1e-13, 2.0]])
    grid, values = _jump_sum(bp, np.array([[1.0], [3.0]]))
    assert grid.tolist() == [0.0, 1.0, 1.0 + 1e-13, 2.0]
    assert values.tolist() == [1.0, 0.0, 3.0]
    # members snapped to thirds meet at points that differ in the last bits
    for ws in systems():
        total = box_reconstruct(ws, NON_DYADIC, 3, 3)
        assert np.array_equal(_merge(total.breakpoints), total.breakpoints)


# -- the exact rational oracle -------------------------------------------------------


def exact_value(bp, vals, t):
    for left, right, v in zip(bp[:-1], bp[1:], vals):
        if left <= t < right:
            return v
    return Fraction(0)


def as_fractions(f):
    return ([Fraction(float(t)) for t in f.breakpoints],
            [Fraction(float(v)) for v in f.values])


def cells(points):
    pts = sorted(set(points))
    return [(a, b, (a + b) / 2) for a, b in zip(pts[:-1], pts[1:])]


def exact_member(shape, a, b, exponent):
    """Breakpoints and values of 2^(a/exponent) shape(2^a t - b), in Fractions."""
    bp, vals = shape
    power = Fraction(a) / exponent
    assert power.denominator == 1
    return ([(t + b) / Fraction(2) ** a for t in bp],
            [v * Fraction(2) ** int(power) for v in vals])


def exact_inner(f, g):
    return sum(((hi - lo) * exact_value(*f, mid) * exact_value(*g, mid)
                for lo, hi, mid in cells(f[0] + g[0])), Fraction(0))


def dyadic_step(quarters, halves):
    return StepFunction([q / 4 for q in quarters], [h / 2 for h in halves])


# breakpoints on (1/4)Z, values on (1/2)Z; with power-of-two normalizations
# every float sum below stays exact
dyadic_steps = st.lists(st.integers(-12, 12), min_size=2, max_size=6,
                        unique=True).flatmap(
    lambda qs: st.tuples(
        st.just(sorted(qs)),
        st.lists(st.integers(-4, 4), min_size=len(qs) - 1,
                 max_size=len(qs) - 1).filter(any)))
mothers = st.lists(st.integers(0, 8), min_size=2, max_size=4, unique=True).flatmap(
    lambda qs: st.tuples(
        st.just(sorted(qs)),
        st.lists(st.integers(-2, 2), min_size=len(qs) - 1,
                 max_size=len(qs) - 1).filter(any)))
# (p, q, scale step): 2^(a/p) and 2^(a/q) are powers of two for a in step * Z
exponents = st.sampled_from([(2, 2, 2), (Fraction(3, 2), 3, 3)])
lattices = st.lists(st.tuples(st.integers(-1, 1), st.integers(-8, 8)),
                    min_size=1, max_size=12)

ORACLE = settings(max_examples=40, deadline=None)


def exact_setup(target, mother, dual, exps, lattice):
    p, q, step = exps
    ws = WaveletSystem(dyadic_step(*mother), dyadic_step(*dual), float(p))
    assert ws.p_conj == float(q)
    a = np.array([float(step * u) for u, _ in lattice])
    b = np.array([v / 4 for _, v in lattice])
    return ws, dyadic_step(*target), a, b


@ORACLE
@given(dyadic_steps, mothers, mothers, exponents, lattices)
def test_coefficients_are_exact(target, mother, dual, exps, lattice):
    ws, x, a, b = exact_setup(target, mother, dual, exps, lattice)
    got = _coefficients(ws, x.breakpoints, x.values, a, b)
    xf = as_fractions(x)
    for k in range(a.size):
        dual_k = exact_member(as_fractions(ws.dual_mother), int(a[k]),
                              Fraction(float(b[k])), exps[1])
        assert Fraction(float(got[k])) == exact_inner(xf, dual_k)


@ORACLE
@given(dyadic_steps, mothers, mothers, exponents, lattices)
def test_synthesis_is_exact(target, mother, dual, exps, lattice):
    ws, x, a, b = exact_setup(target, mother, dual, exps, lattice)
    weight = 0.25
    total = _lattice_sum(ws, x, a, b, weight)
    xf = as_fractions(x)
    pieces = []
    for k in range(a.size):
        ak, bk = int(a[k]), Fraction(float(b[k]))
        coef = exact_inner(xf, exact_member(as_fractions(ws.dual_mother), ak, bk,
                                            exps[1]))
        bp, vals = exact_member(as_fractions(ws.mother), ak, bk, exps[0])
        pieces.append((bp, [v * coef * Fraction(weight) for v in vals]))
    points = [t for bp, _ in pieces for t in bp] + [Fraction(-100), Fraction(100)]
    for _, _, mid in cells(points):
        exact = sum((exact_value(bp, vals, mid) for bp, vals in pieces), Fraction(0))
        assert Fraction(total(float(mid))) == exact


# -- NaN keeps its way to the report -----------------------------------------------


def test_study_keeps_a_nan_oracle_distance(monkeypatch):
    calls = [0]
    original = wavelet_frame._lp_distance

    def one_nan(f, g, p):
        calls[0] += 1
        return math.nan if calls[0] == 3 else original(f, g, p)

    monkeypatch.setattr(wavelet_frame, "_lp_distance", one_nan)
    ws = WaveletSystem.haar(2.0)
    [row] = convergence_study(ws, StepFunction.indicator(0.0, 0.3), [1], [2])
    # call 1 is the box error, calls 2..5 the four conjugated distances
    assert calls[0] == 5
    assert math.isfinite(row.error)
    assert math.isnan(row.oracle_bound)


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


def test_wavelet_paths_build_a_bounded_number_of_step_functions(monkeypatch):
    # each run builds its own system, so the cached unit members count too
    x = StepFunction.indicator(0.0, 0.3)
    paths = [box_reconstruct, averaged_conjugate_reconstruction,
             reconstruction_identity_gap,
             lambda ws, x, M, N: convergence_study(ws, x, [M], [N])]
    for path in paths:
        built = constructions(
            monkeypatch, lambda: path(WaveletSystem.haar(2.0), x, 4, 8))
        assert built <= 10
        assert built == constructions(
            monkeypatch, lambda: path(WaveletSystem.haar(2.0), x, 1, 1))
