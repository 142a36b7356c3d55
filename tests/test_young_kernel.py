"""The batched young-fuzz kernel against the per-draw code it replaced.

``translate_frame._young_chunk`` takes a chunk of young-fuzz draws
(generator coefficients, coefficient sequence a, exponent p) in arrays.  It
is held to

* the per-draw loop of the young-fuzz runner and ``_young_sides``, kept
  verbatim below as the reference (``reference_draw``): every lhs, rhs,
  L1 norm and periodized sup equal bit for bit, driven by ``hypothesis``
  over Gaussian draws of 1-7 coefficients, sequences split into runs by
  gaps, one or several exponents, and chunk boundaries;
* one L1 norm, summed on the fold's own cells, for a draw, its generator
  and ``young_check``, near the exact integral where neighbouring units
  merge a cell of the canonical function (a_(n+1) = -a_n);
* exact ``fractions.Fraction`` arithmetic on dyadic draws.

A cost guard counts the objects a young-fuzz job builds, a memory test
bounds a job's traced peak by its chunk size, and a fresh interpreter shows
which modules a run loads.
"""

import itertools
import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framelab import CoordinateVector, RademacherSpec, StepFunction, build_rademacher_generator
from framelab import cli, translate_frame
from framelab.stepfn import _periodized_sup, _widths
from framelab.translate_frame import (GeneratorRejected, Generator, _runs, _series,
                                      _young_bounds, _young_chunk, young_check)


# -- the replaced per-draw code, verbatim ---------------------------------------


def reference_young_sides(fold, l1, sup, a, p):
    """:func:`young_check` of the f whose unit fold is ``fold``, L1 norm ``l1``
    and periodized sup of |f| ``sup``."""
    if not p > 1:
        raise ValueError("young_check requires p > 1")
    _, grid, table = fold
    lhs = 0.0
    # the zero function folds to a table with no rows
    if not (a.is_zero() or table.shape[0] == 0):
        for _, run in _runs(a, table.shape[0]):
            series = _series(table, run)
            lhs += float(np.add.reduce((np.abs(series) ** p * _widths(grid)).ravel()))
    pconj = p / (p - 1.0)
    rhs = l1 * a.norm(p) ** p * sup ** (p / pconj)
    return lhs, rhs


def reference_draw(coefficients, a, p):
    """(lhs, rhs, L1, sup) of one draw, as the young-fuzz loop took them."""
    coeffs = CoordinateVector(coefficients)
    spec = RademacherSpec(coefficients=coeffs, resolution=1)
    g = build_rademacher_generator(spec)
    a = CoordinateVector(a)
    lhs, rhs = reference_young_sides(g.fold, g.report.l1_norm, g.report.periodized_sup, a, p)
    return lhs, rhs, g.report.l1_norm, g.report.periodized_sup


def bits(values):
    return [float(v).hex() for v in values]


# -- per-draw oracle --------------------------------------------------------------


def gaussian_draw(indices, seed, shifts, p, negate):
    """A young-fuzz draw: unit-l2 Gaussian coefficients at ``indices``, the
    one at n + 1 set to minus the one at n wherever ``negate`` and both are
    there, and Gaussian a at ``shifts``."""
    rng = np.random.default_rng(seed)
    vals = dict(zip(indices, rng.standard_normal(len(indices)).tolist()))
    if negate:
        for n in sorted(vals):
            if n - 1 in vals:
                vals[n] = -vals[n - 1]
    norm = math.sqrt(sum(v * v for v in vals.values()))
    coefficients = {n: vals[n] / norm for n in indices}
    return coefficients, dict(zip(shifts, rng.standard_normal(len(shifts)).tolist())), p


young_draws = st.lists(st.builds(
    gaussian_draw,
    st.lists(st.integers(-3, 3), min_size=1, max_size=7, unique=True),
    st.integers(0, 2 ** 32 - 1),
    st.lists(st.integers(-6, 6), max_size=6, unique=True),
    st.sampled_from([1.5, 2.0, 3.0]),
    st.booleans()), min_size=1, max_size=9)


@settings(max_examples=60, deadline=None)
@given(young_draws, st.integers(1, 4))
@example([gaussian_draw([0], 1, [-6, 6], 2.0, False)], 1)             # one draw, two runs
@example([gaussian_draw([-3, -2, -1, 0, 1, 2, 3], 2, list(range(-6, 0)), p, True)
          for p in (1.5, 2.0, 3.0, 3.0)], 3)                           # every unit merges
# two units, so each gap of 4 starts a new run: four runs a draw
@example([gaussian_draw([0, 1], seed, [-6, -2, 2, 6], 3.0, False) for seed in range(5)], 2)
def test_batched_draws_match_the_per_draw_code_bit_for_bit(draws, chunk):
    want = [reference_draw(*draw) for draw in draws]
    got = _young_chunk(draws)
    for name, column, expected in zip(("lhs", "rhs", "l1", "sup"), got, zip(*want)):
        assert bits(column) == bits(expected), name
    # the same draws cut into chunks of ``chunk``
    with mock.patch.object(translate_frame, "_YOUNG_CHUNK", chunk):
        assert bits(itertools.chain(*_young_bounds(iter(draws)))) == bits(
            itertools.chain(*(w[:2] for w in want)))


def test_zero_entries_are_dropped_as_a_coordinate_vector_drops_them():
    draws = [({0: 0.0, 2: -1.0}, {1: 0.0, 3: 2.0, 5: -0.5}, 2.0),
             ({-1: 0.6, 0: 0.0, 1: -0.8}, {0: 0.0}, 3.0)]
    got = _young_chunk(draws)
    for column, expected in zip(got, zip(*(reference_draw(*d) for d in draws))):
        assert bits(column) == bits(expected)
    assert got[0][1] == 0.0 and got[1][1] == 0.0


@pytest.mark.parametrize("signs", [(1, -1), (1, -1, 1), (1, 1, -1, 1, 1, -1, 1)])
def test_merged_unit_boundaries_match_abs_integral(signs):
    # a_(n+1) = -a_n: the last cell of unit n and the first of unit n + 1
    # hold the same value, and the canonical function merges them, while
    # every L1 norm sums the fold's own cells
    c = 1.0 / math.sqrt(len(signs))
    spec = RademacherSpec({n: s * c for n, s in enumerate(signs)})
    g = build_rademacher_generator(spec)
    f = g.f
    merges = sum(b == -a for a, b in zip(signs, signs[1:]))
    assert merges and f.values.size == sum(2 ** (r + 1) for r in range(len(signs))) - merges
    original, seen = translate_frame._l1_norm, []

    def recording(lens, table):
        seen.append(original(lens, table))
        return seen[-1]

    with mock.patch.object(translate_frame, "_l1_norm", recording):
        young_check(f, CoordinateVector({0: 1.0}), 2.0)
    [l1_in_young_check] = seen
    l1 = g.report.l1_norm
    assert _young_chunk([(spec.coefficients, {0: 1.0}, 2.0)])[2][0].hex() == l1.hex()
    assert l1_in_young_check.hex() == l1.hex()
    # the exact integral of |f| over its canonical cells; the float sums of
    # the fold (896 cells at seven signs) and of those cells are within 2 ulps
    bp = [Fraction(float(t)) for t in f.breakpoints]
    exact = sum((hi - lo) * abs(Fraction(float(v)))
                for lo, hi, v in zip(bp, bp[1:], f.values))
    for value in (l1, f.abs_integral()):
        assert abs(Fraction(value) - exact) <= 2 * Fraction(math.ulp(float(exact)))


# dyadic unit-l2 generators: one coefficient +-1 or four of +-1/2; a on (1/4)Z
dyadic_draws = st.tuples(
    st.one_of(st.lists(st.integers(-3, 3), min_size=1, max_size=1, unique=True),
              st.lists(st.integers(-3, 3), min_size=4, max_size=4, unique=True)),
    st.lists(st.booleans(), min_size=4, max_size=4),
    st.dictionaries(st.integers(-6, 6), st.integers(-8, 8).filter(bool), max_size=6),
    st.sampled_from([2.0, 3.0]))


@settings(max_examples=30, deadline=None)
@given(st.lists(dyadic_draws, min_size=1, max_size=4))
def test_young_sides_are_exact_on_dyadic_draws(raw):
    draws = []
    for indices, negative, a, p in raw:
        c = 1.0 / math.sqrt(len(indices))
        draws.append(({n: -c if neg else c for n, neg in zip(indices, negative)},
                      {n: k / 4 for n, k in a.items()}, p))
    lhs, rhs, _, _ = _young_chunk(draws)
    for (coefficients, a, p), got_lhs, got_rhs in zip(draws, lhs, rhs):
        g = build_rademacher_generator(RademacherSpec(coefficients))
        f, (_, _, table) = g.f, g.fold
        bp = [Fraction(float(t)) for t in f.breakpoints]
        vals = [Fraction(float(v)) for v in f.values]

        def value(t):
            return next((v for lo, hi, v in zip(bp, bp[1:], vals) if lo <= t < hi),
                        Fraction(0))
        points = sorted({b + n for b in bp for n in a} | set(bp))
        q = int(p)
        exact_lhs = sum(((hi - lo) * abs(sum(Fraction(c) * value((lo + hi) / 2 - n)
                                             for n, c in a.items())) ** q
                         for lo, hi in zip(points, points[1:])), Fraction(0))
        l1 = sum((hi - lo) * abs(v) for lo, hi, v in zip(bp, bp[1:], vals))
        sup = Fraction(_periodized_sup(table))
        exact_rhs = l1 * sum(abs(Fraction(c)) ** q for c in a.values()) * sup ** (q - 1)
        assert Fraction(got_lhs) == exact_lhs
        assert abs(Fraction(got_rhs) - exact_rhs) <= exact_rhs * Fraction(4, 2 ** 52)
        assert exact_lhs <= exact_rhs


# -- rejection ----------------------------------------------------------------------


@pytest.mark.parametrize("coefficients, tol", [
    ({0: 0.6, 1: 0.6}, 1e-10),              # not unit l2: rejected before certification
    ({0: 0.6, 1: 0.8 + 1e-13}, 1e-14),      # unit within 1e-12; its lag 0 is off by 1.6e-13
], ids=["non-unit", "gram-residual"])
def test_a_rejected_draw_ends_the_job_as_a_rejected_generator(tmp_path, monkeypatch, capsys,
                                                              coefficients, tol):
    with pytest.raises(GeneratorRejected) as rejected:
        build_rademacher_generator(RademacherSpec(coefficients), None, tol)
    original = translate_frame._young_chunk

    def replacing_draw_2(chunk):
        chunk[2] = (coefficients, *chunk[2][1:])
        return original(chunk)

    monkeypatch.setattr(translate_frame, "_young_chunk", replacing_draw_2)
    monkeypatch.setattr(translate_frame, "VALIDATION_TOL", tol)
    assert cli.main(["young-fuzz", "--draws", "5", "--out", str(tmp_path / "y")]) == 2
    [failure] = rejected.value.report.failures
    assert capsys.readouterr().out.splitlines()[0] == f"FAIL young-fuzz: {failure}"
    payload = json.loads((tmp_path / "y.json").read_text())
    assert "passed" not in payload and "draws" not in payload
    report = payload["report"]
    want = rejected.value.report.to_dict()
    assert report["failures"] == [failure]
    assert (report["lag_range"], report["tol"], report["l1_norm"]) == (
        want["lag_range"], want["tol"], want["l1_norm"])


# -- cost guard and memory ------------------------------------------------------


def counted(monkeypatch, run):
    """StepFunction, Generator and CoordinateVector objects built, and
    ``_unfold`` calls made, while ``run()`` executes."""
    counts = dict.fromkeys(("StepFunction", "Generator", "CoordinateVector", "_unfold"), 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        for cls in (StepFunction, Generator, CoordinateVector):
            patch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
        patch.setattr(translate_frame, "_unfold",
                      counting("_unfold", translate_frame._unfold))
        run()
    return counts


def test_young_fuzz_builds_no_object_per_draw(monkeypatch, tmp_path):
    def fuzz(draws):
        return lambda: cli.main(["young-fuzz", "--draws", str(draws), "--p-list", "1.5,3",
                                 "--max-terms", "7", "--out", str(tmp_path / "y"),
                                 "--quiet"])
    # only the unit indicator of the equality check, one per exponent
    want = {"StepFunction": 2, "Generator": 0, "CoordinateVector": 0, "_unfold": 0}
    assert counted(monkeypatch, fuzz(3)) == counted(monkeypatch, fuzz(40)) == want


# the bytes a draw can hold at once: its fold (7 units of 128 cells) twice,
# and its series (19 rows of 128 cells) three times, 8 bytes a cell
WORST_DRAW_BYTES = 8 * 128 * (2 * 7 + 3 * 19)


def traced_peak(draws):
    tracemalloc.start()
    try:
        for _ in _young_bounds(draws):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_job_holds_one_chunk_of_draws_at_a_time():
    bound = translate_frame._YOUNG_CHUNK * WORST_DRAW_BYTES
    # the largest draw: 7 coefficients, a on 13 consecutive indices
    worst = ({n: 1.0 / math.sqrt(7.0) for n in range(-3, 4)},
             {n: 1.0 for n in range(-6, 7)}, 3.0)
    assert traced_peak(itertools.repeat(worst, 2 * translate_frame._YOUNG_CHUNK)) < bound
    # 20,000 draws of the job's own kind, drawn before tracing starts; held
    # at once, their folds and series would take many times the bound
    rng = np.random.default_rng(7)
    draws = [gaussian_draw(rng.choice(np.arange(-3, 4), size=int(rng.integers(1, 8)),
                                      replace=False).tolist(),
                           int(rng.integers(2 ** 32)),
                           rng.choice(np.arange(-6, 7), size=int(rng.integers(1, 7)),
                                      replace=False).tolist(),
                           (1.5, 2.0, 3.0)[i % 3], False)
             for i in range(500)]
    assert traced_peak(itertools.islice(itertools.cycle(draws), 20_000)) < bound


def test_a_young_fuzz_run_loads_the_modules_the_per_draw_code_loaded(tmp_path, cli_env):
    # numpy.ma among them would mean a numpy call that imports it (np.unique does)
    script = ("import json, sys, framelab.cli\n"
              "assert framelab.cli.main(['young-fuzz', '--quiet']) == 0\n"
              "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=cli_env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert sorted(m for m in loaded if m.split(".")[0] == "framelab") == [
        "framelab", "framelab.cli", "framelab.lp", "framelab.reports", "framelab.stepfn",
        "framelab.translate_frame"]
    assert "numpy.ma" not in loaded
