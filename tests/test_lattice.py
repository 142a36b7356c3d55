"""The batched wavelet lattice kernel against four references.

Every wavelet job runs on one kernel, on rows: each box (p, M, N) of a job
is a row, and so is each of its conjugates.  Coefficients come from each
target's antiderivative (``_coefficients``, read by np.interp once per
row), synthesis from one jump sort per row (``_jump_sum``) and every row's
Lp distance from one merge and one np.add.reduce per row
(``_lp_distances``).  Each path is compared with

* the per-member sums it replaced (``reference_*``), taken by
  ``tests/exact.py`` on each member's float cells as the deleted ``member``,
  ``translate`` and ``dilate`` (kept in ``reference_orbit``) build them, on
  Haar and non-Haar systems and dyadic and non-dyadic targets: each sum
  within 1e-13 in L1, where a grid point merged a few ulps off counts an
  ulp (in Lp ulp^(1/p)), each study row within a relative 1e-12; the
  kernel's cells of the members at (0, 0), its only reading of the orbit,
  equal that ``member``'s bit for bit, driven by ``hypothesis``;
* the one-row code the row kernel replaced, bit for bit: ``_merge`` per
  row for the merge and its placements (``_placed``, blind to a zero's
  sign, which no result reads), and the one-row jump sum and Lp distance
  kept verbatim (``reference_jump_sum``, ``reference_lp_distance``), driven
  by ``hypothesis``: the distances also on drawn rows whose merge chains
  reach past a cell's mid, with NaN, signed zero and infinite values, and
  the sums on a call of 512 rows, more than a byte can name;
  ``np.split`` for the row runs (``_runs``); and
  ``stepfn._canonicalize`` for the row-wise canonical form (``_canonical``);
* the one-box results, bit for bit: every gap and study row of a job,
  boxes in any order and with repeats, against its box run alone, and a
  one-box gap against the one-pair distance between the two routes' step
  functions (``two_routes_gap``, by ``reference_lp_distance``);
* the exact oracle on dyadic targets, mothers and lattices, driven by
  ``hypothesis``, for one target and for several rows in one call; scales are chosen so that every normalization 2^(a/p),
  2^(a/q) is a power of two, which keeps every float sum exact, so the
  kernel must equal the oracle exactly.

The lattice itself is compared with the ``np.meshgrid`` code it replaced
(``reference_pairs``, ``reference_box_lattice``), array for array.

Cost guards show a regression without relying on wall time: two count
``StepFunction`` constructions, so that a return to one object per member,
or to a system built member by member, shows; one counts calls of
``np.diff``, ``np.unique`` and ``np.meshgrid``, whose wrappers cost more
than the arithmetic on these small arrays, and the wavelet paths and the
step-function algebra make none; two count the
kernel calls of a job, the same at N = 8 as at N = 1 and at nine boxes as
at one; one counts lattice builds, one per job and none kept between
jobs; and two bound the memory of schema-maximum rows, on a few-cell and
on a many-cell target, near the peak of the code that took one conjugate
at a time.
"""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framelab import (
    StepFunction,
    WaveletSystem,
    convergence_study,
    haar_mother,
    reconstruction_identity_gaps,
)
from framelab import wavelet_frame
from framelab.cli import main
from framelab.stepfn import _EMPTY, MERGE_ULPS, _canonicalize, _combined, _merge, _widths
from framelab.wavelet_frame import (_ROW_0, _box_lattice, _canonical, _cells, _coefficients,
                                    _conjugate_groups, _jump_sum, _lattice_sums, _lp_distances,
                                    _members, _pairs, _placed, _runs)

import exact
from reference_boxes import (averaged_conjugate_reconstruction, box_reconstruct, function,
                             reconstruction_identity_gap)
from reference_orbit import dilate, member, p_conj, translate


def _lattice_sum(ws, x, a, b, weight):
    """weight * sum_k <x, dual(a_k, b_k)> primal(a_k, b_k) as one step function."""
    return function(_lattice_sums(ws, x, [(a, b, ws.p, weight)]))


# -- the replaced per-member code, on the exact oracle ----------------------------------


def exact_lattice_sum(ws, x, params, weight=1):
    """weight * sum_k <x, dual(a_k, b_k)> primal(a_k, b_k) over the (a_k, b_k)
    of ``params``, exact on the cells of x and of each member as ``member``
    builds it in floats."""
    x = exact.of(x)
    terms = []
    for a, b in params:
        coef = exact.inner(x, exact.of(member(ws, a, b, "dual")))
        if coef:
            terms.append(exact.scale(exact.of(member(ws, a, b, "primal")), coef * weight))
    return exact.add(*terms)


def reference_discrete_partial_reconstruct(ws, x, M):
    return exact_lattice_sum(ws, x, zip(*reference_pairs(-M, M)))


def reference_box_reconstruct(ws, x, M, N):
    return exact_lattice_sum(ws, x, zip(*reference_box_lattice(M, N)), Fraction(1, N * N))


def reference_conjugated_targets(ws, x, M, N):
    out = []
    for r in range(N):
        for s in range(N):
            y = translate(dilate(x, -r / N, ws.p), -s / N)
            out.append((r, s, y, reference_discrete_partial_reconstruct(ws, y, M)))
    return out


def reference_averaged_conjugate_reconstruction(ws, x, M, N):
    # each partial sum taken back by the float factors that ``dilate`` reads
    terms = []
    for r, s, _, partial in reference_conjugated_targets(ws, x, M, N):
        back = exact.dilate(exact.translate(partial, Fraction(s, N)), Fraction(2.0 ** (r / N)))
        terms.append(exact.scale(back, Fraction(2.0 ** (r / N / ws.p)) / (N * N)))
    return exact.add(*terms)


def reference_study_row(ws, x, M, N):
    """(error, oracle_bound) of one convergence_study row."""
    def distance(f, g):
        return float(exact.lp_norm(exact.add(exact.of(f), exact.scale(g, -1)), ws.p))
    return distance(x, reference_box_reconstruct(ws, x, M, N)), max(
        distance(y, partial) for _, _, y, partial in reference_conjugated_targets(ws, x, M, N))


def reference_biorthogonality_residual(ws, window=4):
    rng = range(-window, window + 1)
    primal = {(n, k): exact.of(member(ws, n, k, "primal")) for n in rng for k in rng}
    dual = {(n, k): exact.of(member(ws, n, k, "dual")) for n in rng for k in rng}
    return float(max(abs(exact.inner(fp, fd) - (key == other))
                     for key, fp in primal.items() for other, fd in dual.items()))


def reference_jump_sum(bp, vals):
    """Cells (grid, values) of the sum of the step functions in the rows of
    (bp, vals): the one-row jump sum the row-tagged one replaced, verbatim."""
    grid = _merge(bp.ravel())
    if grid.size < 2:
        return _EMPTY, _EMPTY
    at = np.searchsorted(grid, bp, side="right") - 1
    padded = np.zeros((vals.shape[0], vals.shape[1] + 2))
    padded[:, 1:-1] = vals
    jumps = np.bincount(at.ravel(), _widths(padded).ravel(), grid.size)
    covering = np.cumsum(np.bincount(at[:, 0], minlength=grid.size)
                         - np.bincount(at[:, -1], minlength=grid.size))
    return grid, np.where(covering[:-1] > 0, np.cumsum(jumps)[:-1], 0.0)


def reference_lp_distance(f, g, p):
    """||f - g||_p for step functions given as cells (breakpoints, values): the
    one-pair distance the row-tagged pass replaced, verbatim."""
    grid, diff = _combined(f, g, np.subtract)
    return float(np.add.reduce(np.abs(diff) ** p * _widths(grid)) ** (1.0 / p))


def reference_pairs(lo, hi):
    """Every (u, v) with lo <= u, v < hi as two float arrays, u outer."""
    u, v = np.meshgrid(np.arange(lo, hi, dtype=float), np.arange(lo, hi, dtype=float),
                       indexing="ij")
    return u.ravel(), v.ravel()


def reference_box_lattice(M, N):
    """Snapped parameters (a, b) of every box cell, in the order r, l, s, m."""
    r, l, s, m = (v.ravel() for v in np.meshgrid(
        np.arange(N), np.arange(-M, M), np.arange(N), np.arange(-M, M), indexing="ij"))
    return l + r / N, m + s * 2.0 ** l / N


# -- shared data -----------------------------------------------------------------


# a mother and a dual that are not Haar (and not biorthogonal): the kernel
# reads both from the system, so every path must still match the reference
SKEWED = WaveletSystem(StepFunction([0.0, 0.25, 0.75, 1.0], [1.0, -0.5, 0.3]),
                       StepFunction([-0.5, 0.5, 1.5], [0.7, -1.1]), 2.5)
NON_DYADIC = StepFunction([-0.3, 0.1, 0.65, 1.7], [0.9, -1.3, 0.4])


def gap(f, g):
    """||f - g||_1 of a StepFunction f and exact cells g."""
    return float(exact.l1(exact.add(exact.of(f), exact.scale(g, -1))))


def systems():
    return [WaveletSystem.haar(1.5), WaveletSystem.haar(3.0), SKEWED]


def targets():
    return [haar_mother(), StepFunction.indicator(0.0, 0.3), NON_DYADIC]


# -- batched paths against the replaced code -------------------------------------


def test_discrete_and_box_sums_match_reference():
    for ws in systems():
        for x in targets():
            assert gap(_lattice_sum(ws, x, *_pairs(-2, 2), 1.0),
                       reference_discrete_partial_reconstruct(ws, x, 2)) <= 1e-13
            for M, N in ((1, 1), (2, 3), (3, 4)):
                assert gap(box_reconstruct(ws, x, M, N),
                           reference_box_reconstruct(ws, x, M, N)) <= 1e-13


def test_averaged_route_matches_reference():
    for ws in systems():
        for x in targets():
            for M, N in ((1, 1), (2, 2), (2, 3)):
                assert gap(averaged_conjugate_reconstruction(ws, x, M, N),
                           reference_averaged_conjugate_reconstruction(ws, x, M, N)) <= 1e-13


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
            a, b = l + r / 3, m + s * 2.0 ** l / 3
            assert gap(_lattice_sum(ws, x, a, b, 1.0 / 9),
                       exact_lattice_sum(ws, x, zip(a, b), Fraction(1, 9))) <= 1e-13


def test_biorthogonality_residual_matches_reference():
    # every primal member, one target row each, analysed against all dual
    # members in one kernel call
    for ws in systems():
        n, k = _pairs(-2, 3)
        pb, pv = ws._unit_cells["primal"]
        targets = ((pb + k[:, None]) * 2.0 ** (-n[:, None]),
                   pv * 2.0 ** (n[:, None] / ws.p))
        rows = np.arange(n.size).repeat(n.size)
        gram = _coefficients(ws, *targets, np.tile(n, n.size), np.tile(k, n.size), rows,
                             p_conj(ws))
        gaps = np.abs(gram.reshape(n.size, n.size) - np.eye(n.size))
        assert float(np.max(gaps)) == pytest.approx(
            reference_biorthogonality_residual(ws, 2), rel=1e-12, abs=1e-15)


def same_arrays(got, want):
    return all(g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
               for g, w in zip(got, want, strict=True))


# a mother on random non-dyadic breakpoints, zero cells and all
random_mothers = st.lists(st.floats(-8.0, 8.0), min_size=2, max_size=6, unique=True).flatmap(
    lambda bp: st.builds(StepFunction, st.just(sorted(bp)),
                         st.lists(st.floats(-4.0, 4.0), min_size=len(bp) - 1,
                                  max_size=len(bp) - 1)))
SIGNED_ZERO = StepFunction([-0.0, 0.5, 1.0], [1.0, -1.0])


@settings(max_examples=200, deadline=None)
@given(random_mothers, random_mothers, st.floats(1.0001, 16.0))
@example(haar_mother(), haar_mother(), 2.0)
@example(SKEWED.mother, SKEWED.dual_mother, SKEWED.p)
@example(SIGNED_ZERO, SIGNED_ZERO, 1.0001)
@example(SIGNED_ZERO, NON_DYADIC, 16.0)
def test_unit_cells_are_the_members_at_the_origin(mother, dual, p):
    ws = WaveletSystem(mother, dual, p)
    for side in ("primal", "dual"):
        f = member(ws, 0.0, 0.0, side)
        assert same_arrays(ws._unit_cells[side], (f.breakpoints, f.values))


def test_lattices_match_the_meshgrid_lattices():
    for M in range(1, 5):
        assert same_arrays(_pairs(-M, M), reference_pairs(-M, M))
        for N in range(1, 9):
            assert same_arrays(_box_lattice(M, N), reference_box_lattice(M, N))
    assert same_arrays(_pairs(-2, 3), reference_pairs(-2, 3))
    assert same_arrays(_pairs(0, 0), reference_pairs(0, 0))


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


def one_row_sum(bp, vals):
    """Cells (grid, values) of the sum of the step functions in the rows of (bp, vals)."""
    _, grid, values = _jump_sum(np.zeros(len(bp), dtype=np.intp), bp, vals)
    return grid, values[:-1]


def row_function(cells, row):
    """Row ``row`` of row-tagged cells as a StepFunction."""
    rows, points, values = cells
    mine = (rows == row).nonzero()[0]
    return StepFunction(points[mine], values[mine][:-1])


def test_jump_sum_merges_breakpoints_within_merge_tol():
    # the merge distance is MERGE_ULPS ulps of the largest |point|, here 2
    within = MERGE_ULPS * np.spacing(2.0)
    # the second function starts within it after the first ends: one grid point
    bp = np.array([[0.0, 1.0], [1.0 + within, 2.0]])
    grid, values = one_row_sum(bp, np.array([[1.0], [3.0]]))
    assert grid.tolist() == [0.0, 1.0, 2.0]
    assert values.tolist() == [1.0, 3.0]
    # a chain of points, each within it of the one before, is one grid point
    # even where the chain is longer than the distance
    bp = np.array([[0.0, 1.0], [1.0 + within, 2.0], [1.0 + 2 * within, 2.0]])
    grid, values = one_row_sum(bp, np.array([[1.0], [3.0], [5.0]]))
    assert grid.tolist() == [0.0, 1.0, 2.0]
    assert values.tolist() == [1.0, 8.0]
    # a 1e-13 gap is far wider at this magnitude: it stays, covered by no row
    bp = np.array([[0.0, 1.0], [1.0 + 1e-13, 2.0]])
    grid, values = one_row_sum(bp, np.array([[1.0], [3.0]]))
    assert grid.tolist() == [0.0, 1.0, 1.0 + 1e-13, 2.0]
    assert values.tolist() == [1.0, 0.0, 3.0]
    # members snapped to thirds meet at points that differ in the last bits
    for ws in systems():
        total = box_reconstruct(ws, NON_DYADIC, 3, 3)
        assert np.array_equal(_merge(total.breakpoints), total.breakpoints)


# -- the row kernel's building blocks, bit for bit ------------------------------


def same_bits(got, want):
    """Equal bit for bit, where a NaN matches any NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


def test_runs_are_np_split_at_the_row_starts():
    a = np.arange(12.0).reshape(6, 2)
    # rows 1 and 3 empty, and one row for every item (``_ROW_0``)
    for rows, count in [(np.array([0, 0, 2, 2, 2, 4]), 5), (np.array([0, 1, 2, 3, 4, 5]), 6),
                        (np.zeros(6, dtype=np.intp), 1), (_ROW_0, 1)]:
        want = np.split(a, rows.searchsorted(np.arange(1, count)))
        assert same_arrays(_runs(a, rows, count), want)


@st.composite
def tagged_points(draw):
    """Rows of points with runs a few ulps apart, some within the merge distance."""
    rows, points = [], []
    for row in range(draw(st.integers(1, 4))):
        for base in draw(st.lists(st.floats(-300.0, 300.0, allow_nan=False), min_size=1,
                                  max_size=5)):
            for ulps in draw(st.lists(st.sampled_from([0, 1, 40, 64, 65, 200]),
                                      max_size=3)) + [0]:
                rows.append(row)
                points.append(base + ulps * np.spacing(base))
    order = draw(st.permutations(range(len(points))))
    return np.array(rows)[order], np.array(points)[order]


@settings(max_examples=200, deadline=None)
@given(tagged_points())
# one row of signed zeros and of points within the merge distance of 1
@example((np.zeros(5, dtype=np.intp),
          np.array([1.0 + 40 * np.spacing(1.0), 0.0, 1.0, -0.0, 1.0 + 65 * np.spacing(1.0)])))
def test_row_merge_matches_merge_per_row(case):
    rows, points = case
    grid_rows, grid, starts, at = _placed(rows, points)
    assert starts.tolist() == [i for i in range(grid.size)
                               if i == 0 or grid_rows[i] != grid_rows[i - 1]]
    assert grid_rows[starts].tolist() == sorted(set(rows.tolist()))
    assert grid_rows.tolist() == sorted(grid_rows.tolist())
    for row in set(rows.tolist()):
        mine = rows == row
        want = _merge(points[mine])
        # a zero's sign follows the sort's order among equal points, which no
        # result reads
        assert (grid[grid_rows == row] + 0.0).tobytes() == (want + 0.0).tobytes()
        # each point is placed at the last grid point of its row at or below
        # it, the one it merged into
        first = starts[grid_rows[starts] == row][0]
        assert at[mine].tolist() == (want.searchsorted(points[mine], side="right") - 1
                                     + first).tolist()


# values whose merges and trims _canonicalize decides by ==: NaN never equals
# a neighbour, and 0.0 and -0.0 are one value
cell_values = st.sampled_from([0.0, -0.0, math.nan, 1.0, -2.5, math.inf])


@st.composite
def row_pairs(draw):
    """Cells (breakpoints, values) of two functions f and g in each of 1-4 rows,
    and each row's exponent.  In a row both draw their points from the same
    bases, each in a chain of steps a few ulps long, so that their points
    interleave, merge, and reach past the mid of the cell they merged into."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        bases = draw(st.lists(st.floats(-300.0, 300.0, allow_nan=False), max_size=4))
        sides = []
        for _ in "fg":
            points = {base + ulps * np.spacing(base) for base in bases for ulps in np.cumsum(
                [0] + draw(st.lists(st.sampled_from([1, 40, 64, 65, 200]), max_size=4)))}
            bp = np.array(sorted(points)) if len(points) > 1 else _EMPTY
            sides.append((bp, np.array(draw(st.lists(cell_values, min_size=max(bp.size - 1, 0),
                                                      max_size=max(bp.size - 1, 0))))))
        rows.append((*sides, draw(st.sampled_from([1.5, 2.0, 3.0]))))
    return rows


def tagged(cells):
    """Row-tagged cells of the functions with cells ``cells[i]`` in row i."""
    return tuple(np.concatenate(parts) for parts in zip(*[
        (np.full(bp.size, i), bp, np.append(vals, 0.0) if bp.size else _EMPTY)
        for i, (bp, vals) in enumerate(cells)]))


# in one row, f's points 1, 1 + 64u, 1 + 128u and 1 + 192u (u = spacing(1))
# merge into the grid point 1, whose cell ends at g's 1 + 257u: the mid of
# that cell is 1 + 128.5u, and f's value past it is read on the next cell
ULP = np.spacing(1.0)
PAST_THE_MID = [(1.0 + np.array([0.0, 64.0, 128.0, 192.0, 350.0]) * ULP,
                 np.array([1.0, -2.5, 3.0, 7.0])),
                (1.0 + np.array([0.0, 257.0, 450.0]) * ULP, np.array([0.5, -1.0])), 2.0]


@settings(max_examples=300, deadline=None)
@given(row_pairs())
@example([PAST_THE_MID])
@example([PAST_THE_MID, ((np.array([-0.0, 0.5]), np.array([math.nan])), (_EMPTY, _EMPTY), 3.0),
          ((_EMPTY, _EMPTY), (np.array([0.0, 2.0]), np.array([-0.0])), 1.5)])
def test_row_distances_match_the_one_pair_distance(rows):
    # each side's value on each cell, read off the merge's own placement, has
    # the bits the one-pair distance reads by searching each cell's mid
    f, g, exponents = zip(*rows)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _lp_distances(tagged(f), tagged(g), list(exponents))
        want = [reference_lp_distance(*row) for row in rows]
    assert same_bits(got, want)


def test_a_merge_chain_reaches_past_its_cells_mid():
    # the case above does what it says: a point placed at a grid point lies
    # past the mid of that grid point's cell
    f, g, _ = PAST_THE_MID
    points = np.concatenate((f[0], g[0]))
    _, grid, _, at = _placed(np.zeros(points.size, dtype=np.intp), points)
    assert grid.tolist() == [1.0, 1.0 + 257 * ULP, 1.0 + 350 * ULP, 1.0 + 450 * ULP]
    assert at[3] == 0 and points[3] > 0.5 * (grid[0] + grid[1])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(systems()), st.sampled_from(targets() + [StepFunction.indicator(
    -0.7, 2.1)]), st.integers(1, 3), st.integers(1, 4), st.sampled_from([1, 40, 2 ** 13]))
def test_row_sums_and_distances_match_the_one_row_code(ws, x, M, N, group):
    # every conjugate's partial sum and its distance, as the replaced code
    # took them one conjugate at a time, whatever the size of the groups
    # the conjugates go in
    saved, wavelet_frame._GROUP_SIZE = wavelet_frame._GROUP_SIZE, group
    try:
        groups = list(_conjugate_groups(x, [(ws, M, N)]))
        [row] = convergence_study(ws, x, [M], [N])
    finally:
        wavelet_frame._GROUP_SIZE = saved
    # one conjugate a group at the smallest size, all of them at the default
    assert len(groups) == {1: N * N, 40: len(groups), 2 ** 13: 1}[group]
    bounds = []
    for (xb, xv), (l, m, targets, p), _ in groups:
        count = xb.shape[0]
        kept, bp, vals = _members(ws, xb, xv, l, m, targets, p, 1.0)
        rows = targets[kept]
        total = _jump_sum(rows, bp, vals)
        sums = []
        for i in range(count):
            grid, cells = reference_jump_sum(bp[rows == i], vals[rows == i])
            mine = total[0] == i
            assert (total[1][mine] + 0.0).tobytes() == (grid + 0.0).tobytes()
            assert same_bits(total[2][mine][:-1], cells)
            sums.append((grid, cells))
        distances = _lp_distances(_cells(xb, xv), total, [ws.p] * count)
        want = [reference_lp_distance((xb[i], xv[i]), sums[i], ws.p) for i in range(count)]
        assert same_bits(distances, want)
        bounds += want
    # the study row: the box error as the one-pair distance took it, and the
    # worst of the conjugates' distances
    approx = box_reconstruct(ws, x, M, N)
    assert same_bits([row.error, row.oracle_bound],
                     [reference_lp_distance((x.breakpoints, x.values),
                                            (approx.breakpoints, approx.values), ws.p),
                      np.max(bounds)])


def test_a_call_of_more_rows_than_a_byte_names_sums_each_row_alone():
    # M = 1 and M = 2 at N = 16: the 512 conjugates of the study go in one
    # group, so one call sorts row ids past 2^8; each row's sum and distance
    # has the bits of the one-row code, and the study's bounds are theirs
    ws, x = WaveletSystem.haar(2.0), NON_DYADIC
    [((xb, xv), (l, m, targets, p), _)] = _conjugate_groups(x, [(ws, 1, 16), (ws, 2, 16)])
    count = xb.shape[0]
    assert count == 512
    kept, bp, vals = _members(ws, xb, xv, l, m, targets, p, 1.0)
    rows = targets[kept]
    total = _jump_sum(rows, bp, vals)
    want = []
    for i in range(count):
        grid, cells = reference_jump_sum(bp[rows == i], vals[rows == i])
        mine = total[0] == i
        assert (total[1][mine] + 0.0).tobytes() == (grid + 0.0).tobytes()
        assert same_bits(total[2][mine][:-1], cells)
        want.append(reference_lp_distance((xb[i], xv[i]), (grid, cells), ws.p))
    assert same_bits(_lp_distances(_cells(xb, xv), total, [ws.p] * count), want)
    study = convergence_study(ws, x, [1, 2], [16])
    assert same_bits([row.oracle_bound for row in study], [max(want[:256]), max(want[256:])])


def two_routes_gap(ws, x, M, N):
    """The identity gap as the one-pair distance between the two routes' step
    functions, as the study's errors are held to it."""
    f, g = box_reconstruct(ws, x, M, N), averaged_conjugate_reconstruction(ws, x, M, N)
    return reference_lp_distance((f.breakpoints, f.values), (g.breakpoints, g.values), ws.p)


# breakpoints on eighths, in whose sums the box and the averaged routes
# differ in their last bits, and a target that overflows at some boxes
OVERFLOWING = StepFunction([0.0, 0.25, 0.5, 0.75, 1.0], [1e308, -1e308, 1e308, -1e308])
MOTHERS = [(haar_mother(), haar_mother()), (SKEWED.mother, SKEWED.dual_mother)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MOTHERS),
       st.sampled_from(targets() + [StepFunction([-0.625, 0.125, 0.5, 1.875], [0.3, -1.1, 0.7]),
                                    OVERFLOWING]),
       st.lists(st.sampled_from([1.5, 2.0, 3.0, 2.5]), min_size=1, max_size=3),
       st.lists(st.integers(1, 3), min_size=1, max_size=3),
       st.lists(st.integers(1, 4), min_size=1, max_size=3),
       st.sampled_from([1, 40, 2 ** 13]))
def test_batched_gaps_and_study_rows_equal_the_one_box_results(mothers, x, ps, M_list, N_list,
                                                               group):
    # boxes in any order and with repeats, in groups of any size: each result
    # has the bits of its box run alone, and a one-box gap those of the
    # difference of the two routes
    systems = [WaveletSystem(*mothers, p) for p in ps]
    boxes = [(ws, M, N) for ws in systems for M in M_list for N in N_list]
    with np.errstate(over="ignore", invalid="ignore"):
        saved, wavelet_frame._GROUP_SIZE = wavelet_frame._GROUP_SIZE, group
        try:
            gaps = reconstruction_identity_gaps(systems, x, M_list, N_list)
            rows = convergence_study(systems[0], x, M_list, N_list)
        finally:
            wavelet_frame._GROUP_SIZE = saved
        assert same_bits(gaps, [reconstruction_identity_gap(*box[:1], x, *box[1:])
                                for box in boxes])
        assert same_bits(gaps, [two_routes_gap(ws, x, M, N) for ws, M, N in boxes])
        alone = [convergence_study(systems[0], x, [M], [N])[0]
                 for M in M_list for N in N_list]
    assert [(row.M, row.N, row.p) for row in rows] == [(row.M, row.N, row.p) for row in alone]
    assert same_bits([(row.error, row.oracle_bound) for row in rows],
                     [(row.error, row.oracle_bound) for row in alone])


def test_an_overflowing_box_leaves_every_other_box_unchanged():
    # some boxes stay finite, the others overflow to NaN or inf: at p = 3 a
    # cube of 5e102 overflows, so some distances do and some do not
    systems = [WaveletSystem.haar(2.0), WaveletSystem.haar(3.0)]
    near = StepFunction([0.0, 0.25, 0.5, 0.75, 1.0], [5e102, -5e102, 5e102, -5e102])
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = reconstruction_identity_gaps(systems, OVERFLOWING, [1, 2, 3], [1, 2])
        alone = [reconstruction_identity_gap(ws, OVERFLOWING, M, N)
                 for ws in systems for M in (1, 2, 3) for N in (1, 2)]
        rows = convergence_study(systems[1], near, [1, 2, 3], [1, 2])
        rows_alone = [convergence_study(systems[1], near, [M], [N])[0]
                      for M in (1, 2, 3) for N in (1, 2)]
    assert same_bits(gaps, alone)
    assert 0 < sum(map(math.isfinite, gaps)) < len(gaps)
    values = [(row.error, row.oracle_bound) for row in rows]
    assert same_bits(values, [(row.error, row.oracle_bound) for row in rows_alone])
    assert 0 < sum(math.isfinite(v) for pair in values for v in pair) < 2 * len(values)


def test_systems_of_one_job_share_their_wavelets():
    with pytest.raises(ValueError, match="share"):
        reconstruction_identity_gaps([WaveletSystem.haar(2.0), SKEWED], NON_DYADIC, [1], [1])


def test_mothers_equal_up_to_a_signed_zero_are_shared():
    # -0.0 and 0.0 are one breakpoint, so the systems share their mother
    systems = [WaveletSystem(SIGNED_ZERO, SIGNED_ZERO, 2.0), WaveletSystem.haar(3.0)]
    gaps = reconstruction_identity_gaps(systems, NON_DYADIC, [1, 2], [1, 2])
    assert same_bits(gaps, [reconstruction_identity_gap(WaveletSystem.haar(p), NON_DYADIC, M, N)
                            for p in (2.0, 3.0) for M in (1, 2) for N in (1, 2)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(cell_values, max_size=7), min_size=1, max_size=4))
def test_row_canonical_form_is_canonicalize_per_row(rows):
    tags, points, values, wanted = [], [], [], []
    for row, cells in enumerate(rows):
        bp = np.arange(len(cells) + 1) * 0.375 - 1.0 if cells else _EMPTY
        # each row's cells and the zero after its last point
        tags.append(np.full(bp.size, row))
        points.append(bp)
        values.append(np.array(cells + [0.0] if cells else []))
        wanted.append(_canonicalize(bp, np.array(cells, dtype=float)))
    got_rows, got_points, got_values = _canonical(tuple(map(np.concatenate,
                                                            (tags, points, values))))
    for row, (bp, vals) in enumerate(wanted):
        mine = got_rows == row
        assert got_points[mine].tobytes() == bp.tobytes()
        # same bits, each zero's sign included, and a zero after the last point
        assert same_bits(got_values[mine][:-1], vals)
        assert got_values[mine][-1:].tolist() in ([], [0.0])
    assert got_rows.tolist() == sorted(got_rows.tolist())


# -- the exact rational oracle -------------------------------------------------------


def exact_member(shape, a, b, exponent):
    """2^(a/exponent) shape(2^a t - b) of the exact cells ``shape``."""
    power = Fraction(a) / exponent
    assert power.denominator == 1
    return exact.scale(exact.dilate(exact.translate(shape, b), Fraction(2) ** a),
                       Fraction(2) ** int(power))


# breakpoints on (1/4)Z, values on (1/2)Z; with power-of-two normalizations
# every float sum below stays exact
dyadic_steps = exact.integer_cells(nonzero=True)
mothers = exact.integer_cells((0, 8), (-2, 2), 4, nonzero=True)
# (p, q, scale step): 2^(a/p) and 2^(a/q) are powers of two for a in step * Z
exponents = st.sampled_from([(2, 2, 2), (Fraction(3, 2), 3, 3)])
lattices = st.lists(st.tuples(st.integers(-1, 1), st.integers(-8, 8)),
                    min_size=1, max_size=12)

ORACLE = settings(max_examples=40, deadline=None)


def exact_setup(target, mother, dual, exps, lattice):
    p, q, step = exps
    ws = WaveletSystem(exact.dyadic(mother), exact.dyadic(dual), float(p))
    assert p_conj(ws) == float(q)
    a = np.array([float(step * u) for u, _ in lattice])
    b = np.array([v / 4 for _, v in lattice])
    return ws, exact.dyadic(target), a, b


def dyadic_rows(x, N):
    """Dyadic conjugates of x, for N in {1, 2, 4}: one row x(2^-u (t + s/N)) 2^-u
    for each u in {0, 1} and s < N, as 2-D cell arrays and as exact cells."""
    shifts = [(u, s / N) for u in (0, 1) for s in range(N)]
    xb = np.array([x.breakpoints * 2.0 ** u - t for u, t in shifts])
    xv = np.array([x.values * 2.0 ** -u for u, _ in shifts])
    return xb, xv, [exact.of(row) for row in zip(xb, xv)]


conjugate_counts = st.sampled_from([1, 2, 4])


@ORACLE
@given(dyadic_steps, mothers, mothers, exponents, lattices, conjugate_counts)
def test_coefficients_are_exact(target, mother, dual, exps, lattice, N):
    ws, x, a, b = exact_setup(target, mother, dual, exps, lattice)
    # one kernel call for x alone, one for all its rows
    alone = _coefficients(ws, x.breakpoints[None], x.values[None], a, b,
                          np.zeros(a.size, dtype=np.intp), p_conj(ws))
    xb, xv, rows = dyadic_rows(x, N)
    together = _coefficients(ws, xb, xv, np.tile(a, len(rows)), np.tile(b, len(rows)),
                             np.arange(len(rows)).repeat(a.size),
                             p_conj(ws)).reshape(len(rows), a.size)
    for got, xf in [(alone, exact.of(x))] + list(zip(together, rows)):
        for k in range(a.size):
            dual_k = exact_member(exact.of(ws.dual_mother), int(a[k]),
                                  Fraction(float(b[k])), exps[1])
            assert Fraction(float(got[k])) == exact.inner(xf, dual_k)


def exact_sum(ws, xf, a, b, exps, weight):
    """Exact pieces (breakpoints, values) of weight * <x, dual_k> primal_k for every k."""
    pieces = []
    for k in range(a.size):
        ak, bk = int(a[k]), Fraction(float(b[k]))
        coef = exact.inner(xf, exact_member(exact.of(ws.dual_mother), ak, bk, exps[1]))
        primal = exact_member(exact.of(ws.mother), ak, bk, exps[0])
        pieces.append(exact.scale(primal, coef * Fraction(weight)))
    return pieces


def assert_exact(total, pieces):
    want = exact.add(*pieces)
    for _, _, mid in exact.cells(want[0] + [-100, 100]):
        assert Fraction(total(float(mid))) == exact.value(want, mid)


@ORACLE
@given(dyadic_steps, mothers, mothers, exponents, lattices, conjugate_counts)
def test_synthesis_is_exact(target, mother, dual, exps, lattice, N):
    ws, x, a, b = exact_setup(target, mother, dual, exps, lattice)
    weight = 0.25
    assert_exact(_lattice_sum(ws, x, a, b, weight),
                 exact_sum(ws, exact.of(x), a, b, exps, weight))
    # every row's sum from one kernel call: each row is summed on its own
    xb, xv, rows = dyadic_rows(x, N)
    targets = np.arange(len(rows)).repeat(a.size)
    kept, bp, vals = _members(ws, xb, xv, np.tile(a, len(rows)), np.tile(b, len(rows)),
                              targets, ws.p, weight)
    sums = _jump_sum(targets[kept], bp, vals)
    for i, xf in enumerate(rows):
        assert_exact(row_function(sums, i), exact_sum(ws, xf, a, b, exps, weight))


# -- NaN keeps its way to the report -----------------------------------------------


def test_study_keeps_a_nan_oracle_distance(monkeypatch):
    passes = []
    original = wavelet_frame._lp_distances

    def one_nan(f, g, exponents):
        count = len(exponents)
        passes.append(count)
        distances = original(f, g, exponents)
        if count > 1:
            distances[2] = math.nan
        return distances

    monkeypatch.setattr(wavelet_frame, "_lp_distances", one_nan)
    ws = WaveletSystem.haar(2.0)
    [row] = convergence_study(ws, StepFunction.indicator(0.0, 0.3), [1], [2])
    # one pass takes the box error, one the four conjugated partial-sum
    # errors, of which the third reads NaN
    assert passes == [1, 4]
    assert math.isfinite(row.error)
    assert math.isnan(row.oracle_bound)


# -- cost guard ------------------------------------------------------------------


KERNEL = ("_coefficients", "_members", "_placed", "_jump_sum", "_lp_distances")


def kernel_calls(monkeypatch, run):
    """Calls of each kernel function while ``run()`` executes."""
    counts = dict.fromkeys(KERNEL, 0)
    for name in KERNEL:
        def counting(*args, _name=name, _original=getattr(wavelet_frame, name)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(wavelet_frame, name, counting)
    try:
        run()
    finally:
        monkeypatch.undo()
    return counts


def test_a_row_makes_one_kernel_pass_whatever_its_n(monkeypatch):
    # the N^2 conjugates ride in rows of the same calls: a study row takes
    # the box sum's coefficients, sum and distance once and the conjugates'
    # once, and the averaged route takes its coefficients and sum once
    for ws in (WaveletSystem.haar(2.0), SKEWED):
        for path, calls in [
                (lambda n: convergence_study(ws, NON_DYADIC, [3], [n]),
                 {"_coefficients": 2, "_members": 2, "_placed": 4, "_jump_sum": 2,
                  "_lp_distances": 2}),
                (lambda n: averaged_conjugate_reconstruction(ws, NON_DYADIC, 3, n),
                 {"_coefficients": 1, "_members": 1, "_placed": 1, "_jump_sum": 1,
                  "_lp_distances": 0})]:
            assert kernel_calls(monkeypatch, lambda: path(1)) == calls
            assert kernel_calls(monkeypatch, lambda: path(8)) == calls


def test_a_job_makes_as_many_kernel_calls_at_nine_boxes_as_at_one(monkeypatch):
    # every box of a job is a row of the same calls: a study takes its box
    # sums and their distances once and its conjugates once; an identity job
    # takes its box sums once, its averaged sums once and its gaps from one
    # merge and one distance pass, at every exponent
    study = {"_coefficients": 2, "_members": 2, "_placed": 4, "_jump_sum": 2,
             "_lp_distances": 2}
    identity = {"_coefficients": 2, "_members": 2, "_placed": 3, "_jump_sum": 2,
                "_lp_distances": 1}
    for ws in (WaveletSystem.haar(2.0), SKEWED):
        exponents = [WaveletSystem(ws.mother, ws.dual_mother, p) for p in (1.5, 2.0, 3.0)]
        for job, calls in [
                (lambda Ms, Ns: convergence_study(ws, NON_DYADIC, Ms, Ns), study),
                (lambda Ms, Ns: reconstruction_identity_gaps([ws], NON_DYADIC, Ms, Ns),
                 identity),
                (lambda Ms, Ns: reconstruction_identity_gaps(exponents, NON_DYADIC, Ms, Ns),
                 identity)]:
            assert kernel_calls(monkeypatch, lambda: job([1], [1])) == calls
            assert kernel_calls(monkeypatch, lambda: job([1, 2, 3], [1, 2, 4])) == calls


def test_each_lattice_is_built_once_per_row(monkeypatch, tmp_path, capsys):
    builds, pairs = [], []
    original, original_pairs = wavelet_frame._box_lattice, wavelet_frame._pairs
    monkeypatch.setattr(wavelet_frame, "_box_lattice",
                        lambda M, N: builds.append((M, N)) or original(M, N))
    monkeypatch.setattr(wavelet_frame, "_pairs",
                        lambda lo, hi: pairs.append((lo, hi)) or original_pairs(lo, hi))
    grid = ["--M-list", "1,2", "--N-list", "1,2", "--quiet"]
    # a job builds each box lattice and each integer lattice once, and nothing
    # is kept for the next job, which builds its own
    for run in range(2):
        assert main(["wavelet-reconstruct", "--p", "2", "--out",
                     str(tmp_path / f"study{run}")] + grid) == 0
        assert builds == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert pairs == [(-1, 1), (-2, 2)]
        builds.clear()
        pairs.clear()
    # an identity job builds each once for all its exponents, and a box that
    # repeats in the lists shares its lattice too
    assert main(["wavelet-identity", "--p-list", "1.5,2,3", "--M-list", "2,1,2",
                 "--N-list", "1,2", "--out", str(tmp_path / "gap"), "--quiet"]) == 0
    assert builds == [(2, 1), (2, 2), (1, 1), (1, 2)]
    assert pairs == [(-2, 2), (-1, 1)]
    # an integer lattice is built once, however many groups of conjugates read it
    for size in (1, 2 ** 13):
        monkeypatch.setattr(wavelet_frame, "_GROUP_SIZE", size)
        pairs.clear()
        averaged_conjugate_reconstruction(WaveletSystem.haar(2.0), NON_DYADIC, 2, 4)
        assert pairs == [(-2, 2)]
    capsys.readouterr()


@pytest.mark.parametrize("cells", [5, 2000])
def test_a_cap_sized_row_stays_near_the_one_conjugate_peak(cells):
    # M = 8, N = 16 is the schema's largest row: 2^16 box members, and 2^16
    # more for the 256 conjugates, each a copy of the target's cells.  Taking
    # one conjugate at a time, the replaced code peaked at 4.8 MB traced on
    # either target; the row as one batch of N^2 + 1 rows, the box sum among
    # them, took 37 MB on the few-cell target and 78 MB on the many-cell one
    x = StepFunction(np.linspace(0.0, 1.0, cells + 1), np.cos(np.arange(cells)))
    ws = WaveletSystem.haar(2.0)
    for path in (lambda: convergence_study(ws, x, [8], [16]),
                 lambda: averaged_conjugate_reconstruction(ws, x, 8, 16)):
        path()
        tracemalloc.start()
        try:
            path()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7e6


@pytest.mark.parametrize("cells", [5, 2000])
def test_a_study_of_two_cap_sized_rows_stays_near_the_one_conjugate_peak(cells):
    # two rows near the cap in one job: each box sum is a group of its own,
    # so the two lattices and their members are never held at once
    x = StepFunction(np.linspace(0.0, 1.0, cells + 1), np.cos(np.arange(cells)))
    ws = WaveletSystem.haar(2.0)
    convergence_study(ws, x, [8], [15, 16])
    tracemalloc.start()
    try:
        convergence_study(ws, x, [8], [15, 16])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7e6


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
    # each run builds its own system, which builds nothing: the Haar mother
    # is one object and the unit cells are its cells
    x = StepFunction.indicator(0.0, 0.3)
    paths = [box_reconstruct, averaged_conjugate_reconstruction,
             reconstruction_identity_gap,
             lambda ws, x, M, N: convergence_study(ws, x, [M], [N])]
    for path in paths:
        built = constructions(
            monkeypatch, lambda: path(WaveletSystem.haar(2.0), x, 4, 8))
        assert built <= 1
        assert built == constructions(
            monkeypatch, lambda: path(WaveletSystem.haar(2.0), x, 1, 1))


@pytest.mark.parametrize("kind, sizes", [
    ("wavelet-reconstruct", ["--p", "2", "--M-list", "1,2,3", "--N-list", "1,2,4"]),
    ("wavelet-reconstruct", ["--p", "3", "--M-list", "3", "--N-list", "8"]),
    ("wavelet-identity", ["--p-list", "1.5,2,3", "--M-list", "1,2", "--N-list", "1,2"]),
], ids=["reconstruct", "reconstruct-large", "identity"])
def test_a_wavelet_job_builds_only_its_target(monkeypatch, tmp_path, capsys, kind, sizes):
    # at the benchmark's sizes: the target once, by the check that hands it to
    # the runner; the Haar target is the Haar mother itself
    targets = [({"indicator": [0.0, 0.3]}, 1),
               ({"step_function": {"breakpoints": [-0.5, 0.25, 1.0], "values": [1.0, -2.0]}}, 1),
               ({"named": "haar"}, 0)]
    for i, (target, built) in enumerate(targets):
        args = [kind, "--target", json.dumps(target), "--out", str(tmp_path / f"job{i}"),
                "--quiet"] + sizes
        codes = []
        assert constructions(monkeypatch, lambda: codes.append(main(args))) == built
        assert codes == [0]
        capsys.readouterr()


def test_wavelet_paths_and_step_algebra_skip_the_numpy_wrappers(monkeypatch):
    calls = {}

    def counted(name):
        original = getattr(np, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    x = StepFunction.indicator(0.0, 0.3)
    f, g = NON_DYADIC, translate(haar_mother(), 0.25)
    for name in ("diff", "unique", "meshgrid"):
        monkeypatch.setattr(np, name, counted(name))
    for ws in (WaveletSystem.haar(2.0), SKEWED):
        box_reconstruct(ws, x, 3, 8)
        averaged_conjugate_reconstruction(ws, x, 2, 3)
        convergence_study(ws, x, [1, 2], [1, 3])
    f.add(g)
    monkeypatch.undo()
    assert calls == {}
