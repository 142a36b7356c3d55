"""Dense translate runs: the series kernel, the synthesis core and the runners.

``translate_frame._series`` adds a[k] * table into rows k .. k + units - 1,
one contiguous block per coefficient, for a short run, and keeps the row
loop for a long one.  ``translate_frame._synthesis`` is the dense core of
``synthesis_over_set``: it takes a run (n0, array) and returns the window's
coordinates as an array, and the reconstruct runner keeps each draw an
array from the draw to the report.  They are held to

* the row loop ``_series`` ran before, kept verbatim below as the reference
  (``reference_series``): bit for bit, driven by ``hypothesis`` over tables
  of 1-8 units and 1-256 cells, run lengths on both sides of the loop rule,
  the leading axes ``_young_chunk`` passes, and
  coefficients that are 0.0, -0.0 or NaN;
* the dict-based ``synthesis_over_set`` it replaced, kept verbatim too
  (``reference_synthesis_over_set``), and the dense core run over a whole
  gapped span: equal coordinates, bit for bit;
* the ``CoordinateVector`` route of the reconstruct runner: the same
  ``max_relative_error``, bit for bit.

The exact ``Fraction`` oracle for dense runs with gaps sits with the other
synthesis oracles in ``tests/test_folded.py``.  Two cost guards count the
numpy adds of a series and the ``CoordinateVector`` constructions of a job.
"""

import collections
import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framelab import CoordinateVector, cli
from framelab.stepfn import _widths
from framelab.translate_frame import _runs, _series, _synthesis, synthesis_over_set


# -- the replaced code, verbatim -------------------------------------------------


def reference_series(table, a):
    """Rows of sum_k a[k] * f(. - k) on the units of the fold of f, one series
    for each index of the leading axes that ``table`` and ``a`` share.

    Row u holds unit k0 + u of the series (k0 from the fold of f).  Each
    row is summed in increasing k: for a fixed row, k = u - j rises as the
    table row j falls.
    """
    rows = np.zeros(a.shape[:-1] + (a.shape[-1] + table.shape[-2] - 1, table.shape[-1]))
    for j in range(table.shape[-2] - 1, -1, -1):
        rows[..., j:j + a.shape[-1], :] += a[..., None] * table[..., j, None, :]
    return rows


def reference_synthesis_over_set(g, x, window):
    """Reconstruction of x from its analysis function, over the whole line.

    Coordinate m is the integral of the analysis function times f(. - m),
    for |m| <= window.  With a validated generator this returns x.
    """
    if x.is_zero() or g.f.values.size == 0:
        return CoordinateVector()
    _, grid, table = g.fold
    units = table.shape[0]
    lens = _widths(grid)
    out = {}
    for n0, a in _runs(x, units):
        series = reference_series(table, a)
        # pad the series with units - 1 zero rows on both sides; coordinate
        # n0 - (units - 1) + k reads the padded rows k .. k + units - 1
        # against the table rows 0 .. units - 1
        padded = np.zeros((series.shape[0] + 2 * (units - 1), series.shape[1]))
        padded[units - 1:units - 1 + series.shape[0]] = series
        weighted = padded * lens
        count = a.size + 2 * (units - 1)
        coords = np.zeros(count)
        for j in range(units):
            coords += np.add.reduce(weighted[j:j + count] * table[j], axis=1)
        ms = np.arange(count) + (n0 - (units - 1))
        keep = (np.abs(ms) <= window) & (coords != 0.0)
        out.update(zip(ms[keep].tolist(), coords[keep].tolist()))
    return CoordinateVector(out)


def reference_reconstruct_errors(g, window, num_vectors, p_list, seed):
    """The reconstruct runner's worst relative error at each p, by the
    ``CoordinateVector`` route it took before it kept its draws dense."""
    lo, hi = g.f.support()
    spread = int(math.ceil(hi - lo))
    out_window = window + spread
    worst = {p: 0.0 for p in p_list}
    rng = np.random.default_rng(seed)
    for _ in range(num_vectors):
        vals = rng.standard_normal(2 * window + 1)
        x = CoordinateVector({n - window: float(v) for n, v in enumerate(vals)})
        recon = reference_synthesis_over_set(g, x, out_window)
        diff = recon.sub(x)
        for p in p_list:
            denom = x.norm(p)
            if denom > 0:
                worst[p] = cli._worst(worst[p], diff.norm(p) / denom)
    return worst


# -- shared data -----------------------------------------------------------------


def bits(array):
    return array.dtype, array.shape, array.tobytes()


def gaussian_record(seed, terms):
    """A Rademacher generator record of ``terms`` Gaussian unit-l2 coefficients."""
    vals = np.random.default_rng(seed).standard_normal(terms)
    vals /= math.sqrt(float(np.dot(vals, vals)))
    return {"rademacher": {"coefficients": [[n, v] for n, v in enumerate(vals.tolist())]}}


def certified(record):
    """The Generator the CLI runs for a generator record."""
    return cli._certify(cli._check_generator("generator", record))


def gaussian_generator(seed, terms):
    return certified(gaussian_record(seed, terms))


def with_specials(rng, array, specials):
    """``array`` with about a quarter of its entries drawn from ``specials``."""
    mask = rng.random(array.shape) < 0.25
    array[mask] = rng.choice(specials, int(mask.sum()))
    return array


# -- the series kernel against the row loop ---------------------------------------


# leading axes: none; two runs over one table; and one table per run, as
# _young_chunk passes a depth group's runs
LEADS = {"none": ((), ()), "pair": ((2,), ()), "runs": ((3,), (3,))}


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(1, 256), st.integers(1, 80), st.sampled_from(sorted(LEADS)),
       st.integers(0, 2 ** 32 - 1))
@example(8, 256, 17, "none", 0)         # the benchmark's fold and window: coefficient loop
@example(8, 256, 26, "none", 0)         # the first run over that fold the row loop takes
@example(1, 2, 80, "pair", 0)           # the default generator: row loop
@example(7, 128, 13, "runs", 0)         # a young-fuzz depth group of 7 coefficients
def test_series_matches_the_row_loop_bit_for_bit(units, cells, n, lead, seed):
    rng = np.random.default_rng(seed)
    a_lead, table_lead = LEADS[lead]
    table = with_specials(rng, rng.standard_normal(table_lead + (units, cells)), [0.0, -0.0])
    a = with_specials(rng, rng.standard_normal(a_lead + (n,)), [0.0, -0.0, math.nan])
    assert bits(_series(table, a)) == bits(reference_series(table, a))


class CountingArray(np.ndarray):
    """An array that counts the ufunc calls it takes part in, by ufunc name.
    It computes as a plain array; a new array it returns counts on."""

    calls = collections.Counter()

    def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
        CountingArray.calls[ufunc.__name__] += 1

        def plain(x):
            return x.view(np.ndarray) if isinstance(x, CountingArray) else x
        if out:
            kwargs["out"] = tuple(map(plain, out))
        result = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
        return out[0] if out else result.view(CountingArray)


def numpy_calls(table, a):
    CountingArray.calls.clear()
    rows = _series(table.view(CountingArray), a)
    assert bits(rows) == bits(reference_series(table, a))
    return dict(CountingArray.calls)


def test_a_long_run_over_one_unit_takes_the_row_loop():
    rng = np.random.default_rng(1)
    table = rng.standard_normal((1, 2))
    # a window of 2^14 under the default generator: one outer product, one add
    assert numpy_calls(table, rng.standard_normal(2 ** 15 + 1)) == {"multiply": 1, "add": 1}
    # a stack of runs, as _young_chunk passes, whatever its length
    assert numpy_calls(table, rng.standard_normal((2, 3))) == {"multiply": 1, "add": 1}
    assert numpy_calls(rng.standard_normal((8, 256)),
                       rng.standard_normal((3, 17))) == {"multiply": 8, "add": 8}
    # the benchmark's fold and window: one block a coefficient
    table = rng.standard_normal((8, 256))
    assert numpy_calls(table, rng.standard_normal(17)) == {"multiply": 17, "add": 17}
    assert numpy_calls(table, rng.standard_normal(26)) == {"multiply": 8, "add": 8}


# -- the dense core against the dict-based synthesis ------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(-30, 10),
       st.lists(st.tuples(st.integers(0, 20), st.integers(1, 6)), min_size=1, max_size=4),
       st.integers(0, 2 ** 32 - 1))
@example(8, -20, [(0, 5), (16, 3), (15, 2)], 0)     # gaps of 2 units and just under
def test_dense_core_coordinates_equal_synthesis_over_set(terms, n0, runs, seed):
    # x: runs of Gaussian entries from n0 on, after gaps of 0-20 zero entries
    g = gaussian_generator(seed, terms)
    rng = np.random.default_rng(seed)
    a = np.concatenate([np.concatenate((np.zeros(gap), rng.standard_normal(size)))
                        for gap, size in runs])
    a = a[np.flatnonzero(a)[0]:]
    x = CoordinateVector(zip(range(n0, n0 + a.size), a.tolist()))
    window = max(abs(n0), abs(n0 + a.size)) + terms
    for w in (window, window // 2):
        want = reference_synthesis_over_set(g, x, w)
        assert synthesis_over_set(g, x, w) == want
        # the core over the whole span, gaps included, drops nothing but zeros
        dense = _synthesis(g, n0, a, w)
        assert dense.shape == (2 * w + 1,)
        assert CoordinateVector(zip(range(-w, w + 1), dense.tolist())) == want
        for m, v in want.items():
            assert dense[m + w].hex() == v.hex()


def test_reconstruct_error_equals_the_coordinate_vector_route(tmp_path):
    # Gaussian generators of 8 and 3 coefficients, and one of 1, a sign
    # pattern whose reconstruction is exact
    for terms, window, seed in ((8, 8, 5), (3, 40, 6), (1, 2, 7)):
        record = gaussian_record(seed, terms)
        p_list = [1.5, 2.0, 3.0, 16.0]
        config = {"kind": "reconstruct", "seed": seed,
                  "params": {"generator": record, "window": window, "num_vectors": 4,
                             "p_list": p_list}}
        path = tmp_path / f"r{terms}.json"
        path.write_text(json.dumps(config))
        assert cli.main(["run", str(path), "--out", str(tmp_path / f"out{terms}"),
                         "--quiet"]) == 0
        got = json.loads((tmp_path / f"out{terms}.json").read_text())["max_relative_error"]
        want = reference_reconstruct_errors(certified(record), window, 4, p_list, seed)
        assert got == {str(p): err for p, err in want.items()}
        assert all(err > 0.0 for err in want.values()) == (terms > 1)


# -- cost guard ------------------------------------------------------------------


def vector_constructions(monkeypatch, argv):
    """CoordinateVector objects built while ``cli.main(argv)`` runs."""
    count = [0]
    original = CoordinateVector.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(CoordinateVector, "__init__", counting)
        assert cli.main(argv) == 0
    return count[0]


def test_translate_runners_build_no_vector_per_draw(monkeypatch, tmp_path):
    record = json.dumps(gaussian_record(9, 4))
    for kind, flag in (("reconstruct", "--num-vectors"), ("suppression-scan", "--trials")):
        small, large = (vector_constructions(monkeypatch, [
            kind, "--generator", record, flag, str(count),
            "--out", str(tmp_path / f"{kind}-{count}"), "--quiet"]) for count in (2, 20))
        # the generator's coefficient vector only
        assert small == large == 1
