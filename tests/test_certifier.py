"""One certifier for a single generator and a young-fuzz batch.

``translate_frame._gram_lags`` and ``stepfn._periodized_sup`` take one fold
table or a stack of them along leading axes, and ``translate_frame._signs``
writes every Rademacher sign pattern.  They are held to

* the one-table code they replaced, kept verbatim below as the reference
  (``reference_*``): bit for bit on one table, driven by ``hypothesis`` over
  folds on non-uniform grids (tenths, non-dyadic breakpoints, gapped
  Rademacher generators at resolution 1-3);
* the per-table results on zero-padded stacks: the periodized sup bit for
  bit, and the Gram lags within the rounding bound of a sum, since padding
  changes the grouping of ``np.add.reduce``;
* the exact oracle (``tests/exact.py``): each Gram lag m within the
  summation bound gamma_(n + 2) sum |products| (and an underflow term) of
  ``inner(f, translate(f, m))``
  for the step function f its fold holds, and every ``_signs`` row equal to
  the sign pattern's definition, read at the exact midpoint of each cell;
* the per-draw certifier on the batched orthonormality gate of
  ``_young_chunk``: on every draw of the young-fuzz-bench pin and on both
  rejection cases of ``tests/test_young_kernel.py``, the batched residual
  passes or fails as the per-draw residual does.

A cost guard counts ``np.einsum`` and ``_signs`` calls.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framelab import RademacherSpec, StepFunction, build_rademacher_generator, cli
from framelab import translate_frame
from framelab.stepfn import _folded, _periodized_sup, _widths
from framelab.translate_frame import GeneratorRejected, _gram_lags, _signs, _young_chunk

import exact


# -- the replaced one-table code, verbatim -----------------------------------------


def reference_gram_lags(grid, table, count):
    """<f, f(. - m)> for m = 0 .. count - 1, from the rows of the fold of f."""
    lens = _widths(grid)
    units = table.shape[0]
    return np.array([np.add.reduce((table[m:] * table[:units - m] * lens).ravel())
                     for m in range(count)])


def reference_periodized_sup(table):
    """Largest column sum of |table|, summed in increasing row: for the
    table of the unit fold of f, the sup of the 1-periodization of |f|."""
    return float(np.add.reduce(np.abs(table), axis=0).max())


def bits(values):
    return [float(v).hex() for v in np.ravel(values)]


# -- folds on non-uniform grids -------------------------------------------------


def step_function(points, seed):
    """Gaussian values on the cells of the sorted distinct ``points``."""
    bp = sorted(set(points))
    values = np.random.default_rng(seed).standard_normal(len(bp) - 1)
    return StepFunction(bp, values)


# tenths at offsets 0, -3 and 65535 (past the binade at 65536 fractional
# parts of different units lie 7.3e-12 apart), and breakpoints anywhere
tenths = st.builds(lambda offset, qs, seed: step_function([offset + q / 10 for q in qs], seed),
                   st.sampled_from([0.0, -3.0, 65535.0]),
                   st.lists(st.integers(0, 45), min_size=2, max_size=9, unique=True),
                   st.integers(0, 2 ** 32 - 1))
non_dyadic = st.builds(step_function,
                       st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=9, unique=True),
                       st.integers(0, 2 ** 32 - 1))


def rademacher_fold(indices, weights, resolution):
    vals = np.array(weights[:len(indices)], dtype=float)
    vals /= math.sqrt(float(np.dot(vals, vals)))
    spec = RademacherSpec({n: float(v) for n, v in zip(indices, vals)}, resolution)
    return build_rademacher_generator(spec).fold


# 1-6 distinct indices in -9..9, so gaps; nonzero weights; resolution 1-3
gapped_rademacher = st.builds(
    rademacher_fold,
    st.lists(st.integers(-9, 9), min_size=1, max_size=6, unique=True),
    st.lists(st.integers(-8, 8).filter(bool), min_size=6, max_size=6),
    st.integers(1, 3))
folds = st.one_of(tenths.map(_folded), non_dyadic.map(_folded), gapped_rademacher)


@settings(max_examples=150, deadline=None)
@given(folds)
@example(_folded(StepFunction([0.1, 0.6, 1.1, 1.35, 2.1], [0.5, -1.0, 0.75, 0.25])))
@example(rademacher_fold([-4, -1, 0, 5], [3, -1, 2, 7, 1, 1], 3))
def test_one_table_lags_and_sup_equal_the_replaced_code_bit_for_bit(fold):
    _, grid, table = fold
    for count in {1, table.shape[0]}:
        got = _gram_lags(_widths(grid), table, count)
        want = reference_gram_lags(grid, table, count)
        assert (got.shape, bits(got)) == (want.shape, bits(want))
    assert bits([_periodized_sup(table)]) == bits([reference_periodized_sup(table)])


# -- the exact oracle ----------------------------------------------------------------


def fold_function(k0, grid, table):
    """The exact step function a fold holds: table[u, i] on
    [k0 + u + grid[i], k0 + u + grid[i + 1])."""
    return exact.add(*(([Fraction(k0) + u + Fraction(t) for t in grid.tolist()],
                        [Fraction(v) for v in row.tolist()])
                       for u, row in enumerate(table)))


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u) at u = 2^-53: the relative error bound
    of k roundings."""
    return Fraction(k, 2 ** 53 - k)


# 1-4 distinct indices in -4..4 and resolution 1-2: at most 9 units of 32 cells
small_rademacher = st.builds(
    rademacher_fold,
    st.lists(st.integers(-4, 4), min_size=1, max_size=4, unique=True),
    st.lists(st.integers(-8, 8).filter(bool), min_size=6, max_size=6),
    st.integers(1, 2))


@settings(max_examples=40, deadline=None)
@given(st.one_of(tenths.map(_folded), non_dyadic.map(_folded), small_rademacher))
@example(_folded(StepFunction([0.1, 0.6, 1.1, 1.35, 2.1], [0.5, -1.0, 0.75, 0.25])))
@example(_folded(StepFunction([-0.3, 0.7], [1.0])))
@example(_folded(StepFunction([0.0, 5e-324], [1.0])))
def test_gram_lags_are_the_exact_inner_products_within_a_summation_bound(fold):
    # a lag sums n = (units - m) * cells products a * b * width, each width a
    # rounded difference: three roundings a product and n - 1 in the sum, so
    # the error is within gamma_(n + 2) of the exact sum of |products|, plus
    # 2^-1073 a product for the two products' underflow (a 5e-324 wide cell)
    k0, grid, table = fold
    units, cells = table.shape
    f = fold_function(k0, grid, table)
    size = (f[0], [abs(v) for v in f[1]])
    lags = _gram_lags(_widths(grid), table, units)
    for m, lag in enumerate(lags.tolist()):
        n = (units - m) * cells
        want = exact.inner(f, exact.translate(f, m))
        bound = (gamma(n + 2) * exact.inner(size, exact.translate(size, m))
                 + Fraction(n, 2 ** 1073))
        assert abs(Fraction(lag) - want) <= bound, m


def test_signs_are_the_sign_patterns_at_each_cell_midpoint():
    # rank r's row is the pattern of dyadic depth d = r + resolution: +1 on
    # its even cells of width 2^-d, -1 on its odd ones, on 2^depth cells
    for depth in range(1, 11):
        for resolution in range(1, min(depth, 3) + 1):
            ranks = np.arange(depth - resolution + 1)
            rows = _signs(depth, ranks, resolution)
            assert rows.shape == (ranks.size, 2 ** depth)
            for r, row in zip(ranks.tolist(), rows.tolist()):
                mids = (Fraction(2 * i + 1, 2 ** (depth + 1)) for i in range(2 ** depth))
                assert row == [1 - 2 * (math.floor(t * 2 ** (r + resolution)) % 2)
                               for t in mids], (depth, resolution, r)


def padded(tables):
    """The tables stacked along a new leading axis, each padded with zero
    rows to the most units among them."""
    stack = np.zeros((len(tables), max(t.shape[0] for t in tables), tables[0].shape[1]))
    for i, table in enumerate(tables):
        stack[i, :table.shape[0]] = table
    return stack


def assert_lags_within_rounding(lens, stack, tables):
    """Each padded lag of ``stack`` against the one-table lag on its own rows:
    the same nonzero products grouped otherwise, so within the bound
    2 (n - 1) u sum |products| of two n-term float sums."""
    got = _gram_lags(lens, stack, stack.shape[1])
    for i, table in enumerate(tables):
        own = _gram_lags(lens, table, table.shape[0])
        for m in range(stack.shape[1]):
            if m >= table.shape[0]:
                assert got[m, i] == 0.0
                continue
            terms = np.abs(table[m:] * table[:table.shape[0] - m] * lens)
            n = (stack.shape[1] - m) * stack.shape[2]
            assert abs(got[m, i] - own[m]) <= 2 * (n - 1) * 2.0 ** -53 * terms.sum()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=6), st.integers(1, 9),
       st.integers(0, 2 ** 32 - 1))
def test_batched_sup_and_lags_on_zero_padded_tables(units, cells, seed):
    rng = np.random.default_rng(seed)
    tables = [rng.standard_normal((u, cells)) for u in units]
    lens = rng.uniform(0.01, 1.0, cells)
    stack = padded(tables)
    assert bits(_periodized_sup(stack)) == bits([reference_periodized_sup(t) for t in tables])
    assert_lags_within_rounding(lens, stack, tables)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=3, max_size=3, unique=True),
                          st.lists(st.integers(-8, 8).filter(bool), min_size=3, max_size=3)),
                min_size=1, max_size=6))
def test_batched_sup_of_rademacher_folds_of_one_depth(drawn):
    # three coefficients at resolution 1: 8 cells a unit, 3 to 7 units
    tables = [rademacher_fold(indices, weights, 1)[2] for indices, weights in drawn]
    stack = padded(tables)
    assert bits(_periodized_sup(stack)) == bits([reference_periodized_sup(t) for t in tables])
    assert_lags_within_rounding(np.full(8, 0.125), stack, tables)


# -- the batched gate against the per-draw certifier -----------------------------------


YOUNG_FUZZ_BENCH = {"kind": "young-fuzz", "seed": 775,
                    "params": {"draws": 60, "max_terms": 7, "p_list": [1.5, 2.0, 3.0]}}


def spied_young_fuzz_bench(monkeypatch, tmp_path):
    """The chunks of the young-fuzz-bench job, and the (tables, lags) of each
    batched ``_gram_lags`` call it makes; the job must pass."""
    chunks, calls = [], []
    chunk, lags = translate_frame._young_chunk, translate_frame._gram_lags

    def spy_chunk(draws):
        chunks.append(list(draws))
        return chunk(draws)

    def spy_lags(lens, tables, count):
        out = lags(lens, tables, count)
        calls.append((lens, tables.copy(), out.copy()))
        return out

    monkeypatch.setattr(translate_frame, "_young_chunk", spy_chunk)
    monkeypatch.setattr(translate_frame, "_gram_lags", spy_lags)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(YOUNG_FUZZ_BENCH))
    assert cli.main(["run", str(config), "--out", str(tmp_path / "y"), "--quiet"]) == 0
    monkeypatch.undo()
    return chunks, calls


def depth(coefficients):
    return sum(c != 0 for c in coefficients.values())


def rows_of(coefficients):
    """A draw's fold table at resolution 1, filled with ``_signs`` whether or
    not the draw has unit norm."""
    indices = sorted(n for n, c in coefficients.items() if c != 0)
    s = len(indices)
    table = np.zeros((indices[-1] - indices[0] + 1, 2 ** s))
    table[np.array(indices) - indices[0]] = translate_frame._signs(
        s, np.arange(s), 1) * [[coefficients[n]] for n in indices]
    return table


def residuals(lens, stack, count):
    """max over lags m of |lag m - [m = 0]| of each table of ``stack``."""
    lags = _gram_lags(lens, stack, count)
    lags[0] -= 1.0
    return np.max(np.abs(lags), axis=0)


def per_draw_passes(coefficients, tol):
    try:
        build_rademacher_generator(RademacherSpec(coefficients), None, tol)
    except GeneratorRejected:
        return False
    return True


def test_the_young_fuzz_bench_gate_runs_each_depth_group_padded(monkeypatch, tmp_path):
    [chunk], calls = spied_young_fuzz_bench(monkeypatch, tmp_path)
    # one batched call a depth group, in increasing depth, draws by p
    groups = itertools.groupby(sorted(chunk, key=lambda d: (depth(d[0]), d[2])),
                               key=lambda d: depth(d[0]))
    groups = [[draw[0] for draw in group] for _, group in groups]
    assert len(calls) == len(groups) and len(chunk) == 60
    for (lens, stack, lags), group in zip(calls, groups):
        assert stack.tobytes() == padded([rows_of(c) for c in group]).tobytes()
        lags[0] -= 1.0
        batched = np.max(np.abs(lags), axis=0)
        for coefficients, residual in zip(group, batched.tolist()):
            g = build_rademacher_generator(RademacherSpec(coefficients))
            own = g.report.ortho_residual
            assert (residual <= translate_frame.VALIDATION_TOL) == (
                own <= translate_frame.VALIDATION_TOL) == per_draw_passes(
                    coefficients, translate_frame.VALIDATION_TOL)
            assert abs(residual - own) <= 2 * stack[0].size * 2.0 ** -53


@pytest.mark.parametrize("coefficients, tol", [
    ({0: 0.6, 1: 0.6}, 1e-10),              # not unit l2: rejected before certification
    ({0: 0.6, 1: 0.8 + 1e-13}, 1e-14),      # unit within 1e-12; its lag 0 is off by 1.6e-13
], ids=["non-unit", "gram-residual"])
def test_the_batched_gate_rejects_what_the_per_draw_certifier_rejects(monkeypatch, tmp_path,
                                                                      coefficients, tol):
    [chunk], _ = spied_young_fuzz_bench(monkeypatch, tmp_path)
    assert not per_draw_passes(coefficients, tol)
    # padded among the bench draws of two coefficients, which span up to 7 units
    group = [c for c, _, _ in chunk if depth(c) == 2] + [coefficients]
    tables = [rows_of(c) for c in group]
    assert max(t.shape[0] for t in tables) > tables[-1].shape[0]
    batched = residuals(np.full(4, 0.25), padded(tables), max(t.shape[0] for t in tables))
    own = residuals(np.full(4, 0.25), tables[-1], tables[-1].shape[0])
    assert [r <= tol for r in batched.tolist()] == [
        per_draw_passes(c, tol) for c in group[:-1]] + [False]
    assert not own <= tol
    # and the chunk with the draw in it ends as the per-draw certifier does
    monkeypatch.setattr(translate_frame, "VALIDATION_TOL", tol)
    with pytest.raises(GeneratorRejected) as rejected:
        _young_chunk(chunk[:5] + [(coefficients, {0: 1.0}, 2.0)])
    with pytest.raises(GeneratorRejected) as want:
        build_rademacher_generator(RademacherSpec(coefficients), None, tol)
    assert rejected.value.report == want.value.report


# -- cost guard ------------------------------------------------------------------


def counting(monkeypatch, module, name):
    """A list that grows by one at each call of ``module.name``."""
    calls, original = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_a_young_fuzz_job_makes_no_einsum_call(monkeypatch, tmp_path):
    einsum = counting(monkeypatch, np, "einsum")
    signs = counting(monkeypatch, translate_frame, "_signs")
    assert cli.main(["young-fuzz", "--draws", "40", "--p-list", "1.5,3", "--max-terms", "7",
                     "--out", str(tmp_path / "y"), "--quiet"]) == 0
    assert einsum == []
    # at most one fill a depth: 7 depths, and 40 draws fit one chunk
    assert 1 <= len(signs) <= 7 and len({args[0] for args in signs}) == len(signs)


def test_signs_runs_once_per_generator_and_once_per_depth_group(monkeypatch):
    signs = counting(monkeypatch, translate_frame, "_signs")
    build_rademacher_generator(RademacherSpec({-2: 0.5, 0: -0.5, 1: 0.5, 4: 0.5}, 2))
    assert [args[0] for args in signs] == [5]
    signs.clear()
    c = 1.0 / math.sqrt(3.0)
    draws = [({0: 1.0}, {0: 1.0}, 2.0), ({0: c, 1: c, 2: -c}, {1: 0.5}, 3.0),
             ({-1: 1.0}, {2: 1.0}, 1.5), ({-3: c, 0: c, 3: c}, {0: 1.0}, 2.0)]
    _young_chunk(draws)
    assert [args[0] for args in signs] == [1, 3]
