"""Command line experiment runner.

One subcommand per experiment kind plus ``run <config.json>``.  Every
experiment is described by a config record (kind, seed, tol, out, params);
subcommand flags assemble the same record, so a flag invocation and a
config file invocation of the same experiment are interchangeable and
produce byte-identical reports.  Each kind is declared once, in ``KINDS``,
by the decorator on its runner; config checks and flags derive from it.

Each record is parsed once: a param's check turns its value, given or
default, into what the runner takes (an uncertified ``RademacherSpec`` or
``StepFunction`` generator, a target ``StepFunction``), and the work caps
size a job from those objects.  The runner certifies a generator; the
config digest is taken over the JSON records.

A run imports the library modules, and numpy, when its kind uses them, so
the discrete kinds (``counterexample``, ``diagnostics``) never load numpy.
Runners and record checks import names from their library module at call
time, so a patch of the module's name reaches them.  A public library name
read from this module (``cli.StepFunction``) is looked up in its module on
each access, so it too follows a patch.

Exit codes: 0 success, 1 malformed config, 2 failed generator validation,
3 invariant breach (the breach message names the violated assertion).
"""

import argparse
import dataclasses
import functools
import importlib
import json
import math
import os
import sys

from .reports import (ARTIFACT_VERSION, GeneratorRejected, config_digest, write_csv,
                      write_json_report)

MAX_WINDOW = 2 ** 14
# the biorthogonality matrix is dense: (2 * 512 + 1)^2 entries is 8 MB
MAX_GRAM_WINDOW = 2 ** 9
# Cap on the work the unit fold of a generator costs one job, in cell
# products (see _fold_work).  It also bounds the tables the job holds:
# 2^22 float64 cells is 32 MB.
MAX_FOLD_WORK = 2 ** 22
# Cap on the lattice members one wavelet job evaluates (see _lattice_work):
# eight rows at the schema maximum M = 8, N = 16.
MAX_LATTICE_WORK = 2 ** 20
# Cap on the matrix entries one sampling-sweep job fills (see
# _sampling_work); 2^20 float64 entries is 8 MB.
MAX_SAMPLING_WORK = 2 ** 20
MAX_M = 8
MAX_N = 16
MAX_P = 16.0


class ConfigError(ValueError):
    """Malformed experiment config; maps to exit code 1."""


def __getattr__(name):
    """The public library name ``name``, read from the module that defines it.

    Nothing is cached here, so the value is the module's current binding,
    a patched or traced one included.  The first access imports the module.
    """
    from . import _MODULE_OF
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


# -- param checks ---------------------------------------------------------------


def _is_real(value):
    """True for a finite int or float; bools, strings, NaN and inf are not."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _check_int(name, value, lo, hi):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer")
    if not lo <= value <= hi:
        raise ConfigError(f"{name} must lie in [{lo}, {hi}], got {value}")
    return value


def _check_p(name, value):
    if not _is_real(value):
        raise ConfigError(f"{name} must be a number")
    value = float(value)
    if not (1.0 < value <= MAX_P):
        raise ConfigError(f"{name} must lie in (1, {MAX_P}], got {value}")
    return value


def _check_step(name, value):
    if not (_is_real(value) and value > 0):
        raise ConfigError(f"{name} must be a positive number")
    return float(value)


def _check_list(name, value, what, check, *bounds):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a nonempty list of {what}")
    return [check(f"{name}[{i}]", v, *bounds) for i, v in enumerate(value)]


def _check_generator(name, value):
    """The uncertified generator of a generator record: a ``RademacherSpec``
    or a ``StepFunction``."""
    if not isinstance(value, dict) or len(value) != 1:
        raise ConfigError(
            f"{name} must be an object with exactly one of 'rademacher' or 'step_function'")
    key = next(iter(value))
    body = value[key]
    if key == "step_function":
        return _check_step_record(f"{name}.step_function", body)
    if key != "rademacher":
        raise ConfigError(f"{name} kind must be 'rademacher' or 'step_function', got {key!r}")
    if not isinstance(body, dict):
        raise ConfigError(f"{name}.rademacher must be an object")
    unknown = set(body) - {"coefficients", "resolution"}
    if unknown:
        raise ConfigError(f"unknown rademacher fields: {sorted(unknown)}")
    coeffs = body.get("coefficients")
    if (not isinstance(coeffs, list) or not coeffs
            or not all(isinstance(e, list) and len(e) == 2 for e in coeffs)):
        raise ConfigError(
            f"{name}.rademacher.coefficients must be a list of [index, value] pairs")
    for i, (n, c) in enumerate(coeffs):
        _check_int(f"{name}.rademacher.coefficients[{i}] index", n,
                   -MAX_WINDOW, MAX_WINDOW)
        if not _is_real(c):
            raise ConfigError(f"{name}.rademacher.coefficients[{i}] value "
                              "must be a finite number")
    if len({n for n, _ in coeffs}) != len(coeffs):
        raise ConfigError(f"{name}.rademacher.coefficients repeats an index")
    resolution = body.get("resolution", 1)
    _check_int(f"{name}.rademacher.resolution", resolution, 1, 16)
    from .lp import CoordinateVector
    from .translate_frame import RademacherSpec
    return RademacherSpec(CoordinateVector({n: float(c) for n, c in coeffs}), resolution)


def _fold_shape(generator):
    """(units, cells) of the unit fold of a parsed generator: the unit
    intervals [n, n + 1) its support meets (none for an empty support), and
    the fractional cells per unit (a Rademacher spec's finest sign pattern's
    2^depth, a step function's at most one per breakpoint plus one)."""
    from .translate_frame import RademacherSpec
    if isinstance(generator, RademacherSpec):
        n = generator.coefficients.support()
        if not n:
            return 0, 0
        return n[-1] - n[0] + 1, 2 ** min(len(n) - 1 + generator.resolution, 64)
    lo, hi = generator.support() or (0.0, 0.0)
    return math.ceil(hi) - math.floor(lo), generator.breakpoints.size + 1


def _fold_work(generator, window):
    """Cell products the unit fold of a parsed generator costs a job.

    The fold holds units x cells entries (see _fold_shape).  Its Gram lags
    correlate each entry with up to ``units`` rows, and a series over the
    2 * window + 1 translates of a window adds one row per translate.
    """
    units, cells = _fold_shape(generator)
    return units * cells * (units + 2 * window + 1)


def _sampling_work(params):
    """Matrix entries a sampling-sweep job fills, a float that may be inf.

    Each step h fills one row of the 2 window + 1 coordinates for each of at
    most width / h + 1 samples, and one square matrix over the coordinates.
    """
    coords = 2 * params["window"] + 1
    width = _fold_shape(params["generator"])[0] + 2 * params["window"]
    return sum(width / h + 1 + coords for h in params["steps"]) * coords


def _lattice_work(params):
    """Lattice members a wavelet job evaluates.

    Each (M, N) row sums (2M)^2 N^2 members for the box, as many again for
    the conjugate route (the oracle bound or the averaged sum), once per
    exponent.
    """
    members = sum(2 * (2 * M) ** 2 * N ** 2
                  for M in params["M_list"] for N in params["N_list"])
    return members * len(params.get("p_list", [params.get("p")]))


def _cap(what, unit, work, cap):
    """Config error when a job's estimated ``work`` (an int, or a float that may
    be inf) exceeds ``cap``."""
    if work > cap:
        raise ConfigError(f"{what} too large: about 2^{math.log2(work):.1f} {unit}, "
                          f"over the cap of 2^{math.log2(cap):.0f}")


def _require_separated(name, points, reach=1.0):
    """Config error unless ``points`` increase and no two merge in a grid
    that reaches ``reach`` or their largest |point|."""
    import numpy as np
    from .stepfn import MERGE_ULPS, _merge
    points = np.array(points, dtype=float)
    magnitude = max(np.abs(points).max(initial=0.0), reach)
    if not np.array_equal(_merge(points, magnitude), points):
        raise ConfigError(f"{name} must rise by over {MERGE_ULPS} ulps of {magnitude:g}")


def _check_step_record(name, body):
    """The StepFunction of a {breakpoints, values} record."""
    if not isinstance(body, dict) or set(body) != {"breakpoints", "values"}:
        raise ConfigError(f"{name} must be {{breakpoints: [...], values: [...]}}")
    bp, vals = body["breakpoints"], body["values"]
    if not isinstance(bp, list) or not isinstance(vals, list):
        raise ConfigError(f"{name} fields must be lists")
    if not vals or len(bp) != len(vals) + 1:
        raise ConfigError(f"{name} needs n >= 1 values and n + 1 breakpoints")
    if not all(_is_real(v) for v in bp + vals):
        raise ConfigError(f"{name} breakpoints and values must be finite numbers")
    _require_separated(f"{name}.breakpoints", bp)
    from .stepfn import StepFunction
    return StepFunction(bp, vals)


def _check_target(name, value):
    """The StepFunction of a target record."""
    from .stepfn import StepFunction, haar_mother
    if not isinstance(value, dict) or len(value) != 1:
        raise ConfigError(
            f"{name} must be an object with exactly one of 'named', 'indicator', 'step_function'")
    key = next(iter(value))
    body = value[key]
    if key == "named":
        if body != "haar":
            raise ConfigError(f"{name}.named must be 'haar'")
        target = haar_mother()
    elif key == "indicator":
        if (not isinstance(body, list) or len(body) != 2
                or not all(_is_real(v) for v in body) or not float(body[0]) < float(body[1])):
            raise ConfigError(f"{name}.indicator must be [a, b] with finite a < b")
        target = StepFunction.indicator(float(body[0]), float(body[1]))
    elif key == "step_function":
        target = _check_step_record(f"{name}.step_function", body)
    else:
        raise ConfigError(f"{name} kind must be 'named', 'indicator' or 'step_function'")
    # The errors compare the target and its conjugates (scaled by up to 2,
    # shifted by up to 1) with lattice sums whose members reach 2^MAX_M past
    # them; at twice that magnitude no rounding closes a cell.
    lo, hi = target.support() or (0.0, 0.0)
    reach = 2.0 * (2.0 * max(-lo, hi) + 1.0 + 2.0 ** MAX_M)
    _require_separated(f"{name} breakpoints", target.breakpoints, reach)
    return target


def _worst(a, b):
    """max(a, b) that keeps a NaN from either side, so that its check fails."""
    return b if (b > a or b != b) else a


# -- the kind registry ------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Param:
    """One experiment parameter: config check, default, and flag text parser.

    Its flag is ``"--" + name.replace("_", "-")``; ``parse`` turns the flag
    text into the config value, and ``check(name, value)`` turns a config
    value, given or default, into the value the runner takes.
    """
    check: object
    default: object = None
    required: bool = False
    parse: object = None


@dataclasses.dataclass(frozen=True)
class Kind:
    """One experiment kind: its runner, default tolerance and parameters."""
    run: object
    tol: float
    params: dict


KINDS = {}


def _kind(name, tol, **params):
    """Register the decorated runner as experiment kind ``name``."""
    def register(run):
        KINDS[name] = Kind(run, tol, params)
        return run
    return register


def _flag(name):
    return "--" + name.replace("_", "-")


def _split(convert):
    return lambda text: [convert(tok) for tok in text.split(",") if tok]


def _int(lo, hi, default):
    return Param(lambda n, v: _check_int(n, v, lo, hi), default, parse=int)


def _int_list(lo, hi, default):
    return Param(lambda n, v: _check_list(n, v, "integers", _check_int, lo, hi),
                 default, parse=_split(int))


def _p():
    return Param(_check_p, 2.0, parse=float)


def _p_list():
    return Param(lambda n, v: _check_list(n, v, "exponents", _check_p),
                 [1.5, 2.0, 3.0], parse=_split(float))


def _generator(required=False):
    default = None if required else {
        "rademacher": {"coefficients": [[0, 1.0]], "resolution": 1}}
    return Param(_check_generator, default, required, parse=json.loads)


def _target():
    return Param(_check_target, {"named": "haar"}, parse=json.loads)


def validate_config(raw):
    """The checked config of a raw config dict: its params as the runners take
    them, and the digest of their JSON.  Unknown fields are rejected."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - {"kind", "seed", "tol", "out", "params"}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(
            f"kind must be one of {sorted(KINDS)}, got {kind!r}")
    seed = _check_int("seed", raw.get("seed", 0), 0, 2 ** 32 - 1)
    tol = raw.get("tol", KINDS[kind].tol)
    if not (_is_real(tol) and tol >= 0):
        raise ConfigError("tol must be a finite nonnegative number")
    tol = float(tol)
    out = raw.get("out", kind)
    if not isinstance(out, str) or not out:
        raise ConfigError("out must be a nonempty path string")
    schema = KINDS[kind].params
    raw_params = raw.get("params", {})
    if not isinstance(raw_params, dict):
        raise ConfigError("params must be an object")
    unknown = set(raw_params) - set(schema)
    if unknown:
        raise ConfigError(f"unknown params for {kind}: {sorted(unknown)}")
    params, records = {}, {}
    for name, spec in schema.items():
        value = raw_params.get(name, spec.default)
        if name in raw_params or value is not None:
            params[name] = spec.check(name, value)
        elif spec.required:
            raise ConfigError(f"missing required param: {name}")
        else:
            params[name] = None     # derived at run time
        # a record's own JSON, not its parsed object, goes into the digest
        records[name] = value if isinstance(value, dict) else params[name]
    if params.get("generator") is not None:
        _cap("generator", "unit fold cell products",
             _fold_work(params["generator"], params.get("window", 0)), MAX_FOLD_WORK)
    if "M_list" in params:
        _cap("wavelet job", "lattice members", _lattice_work(params), MAX_LATTICE_WORK)
    if "steps" in params:
        _cap("sampling job", "matrix entries", _sampling_work(params), MAX_SAMPLING_WORK)
    digest = config_digest({"kind": kind, "seed": seed, "tol": tol, "params": records})
    return {"kind": kind, "seed": seed, "tol": tol, "out": out, "params": params,
            "digest": digest}


def _certify(generator, *bounds):
    """The Generator of a parsed generator, certified over Gram lags up to
    ``bounds`` = (lag_range, tol) (the library's defaults where absent), or
    raise GeneratorRejected.  A Rademacher spec is never folded: its
    generator hands over the rows it is filled from."""
    from .translate_frame import RademacherSpec, build_rademacher_generator, validate_generator
    if isinstance(generator, RademacherSpec):
        return build_rademacher_generator(generator, *bounds)
    return validate_generator(generator, *bounds)


# -- experiment runners -----------------------------------------------------------


@dataclasses.dataclass
class ExperimentResult:
    payload: dict
    table: tuple | None = None       # (header, rows)
    failures: tuple = ()


def _gate(failures, check, value, bound):
    """Record a failure of ``check`` unless value <= bound and value is finite;
    a NaN on either side fails, and so does an infinite value under an
    infinite bound."""
    if not (math.isfinite(value) and value <= bound):
        failures.append(f"{check}: {value!r} exceeds {bound!r}")


def _verdict(payload, failures, table=None):
    """The result of a runner whose gates recorded ``failures``; it passed if none did."""
    return ExperimentResult(payload={**payload, "passed": not failures}, table=table,
                            failures=tuple(failures))


def _numpy_kind(run):
    """The runner of a kind that computes with numpy, run under ``np.errstate``:
    an overflow leaves inf or NaN, which the report's checks fail on."""
    @functools.wraps(run)
    def run_quietly(params, seed, tol):
        import numpy as np
        with np.errstate(over="ignore", invalid="ignore"):
            return run(params, seed, tol)
    return run_quietly


@_kind("validate-generator", 1e-10, generator=_generator(required=True),
       lag_range=_int(1, MAX_WINDOW, None))
@_numpy_kind
def _run_validate_generator(params, seed, tol):
    g = _certify(params["generator"], params["lag_range"], tol)
    return ExperimentResult(payload={"report": g.report.to_dict(),
                                     "suppression_constant": g.suppression_constant})


@_kind("biorthogonality", 1e-10, generator=_generator(),
       window=_int(1, MAX_GRAM_WINDOW, 8))
@_numpy_kind
def _run_biorthogonality(params, seed, tol):
    import numpy as np
    from .translate_frame import biorthogonality_matrix
    g = _certify(params["generator"])
    window = params["window"]
    mat = biorthogonality_matrix(g, window)
    deviation = float(np.max(np.abs(mat - np.eye(mat.shape[0]))))
    failures = []
    _gate(failures, "biorthogonality deviation", deviation, tol)
    return _verdict({"window": window, "matrix_size": mat.shape[0],
                     "max_abs_deviation": deviation}, failures)


@_kind("reconstruct", 1e-10, generator=_generator(), window=_int(1, MAX_WINDOW, 8),
       num_vectors=_int(1, 10 ** 6, 100), p_list=_p_list())
@_numpy_kind
def _run_reconstruct(params, seed, tol):
    import numpy as np
    from .lp import _norm
    from .translate_frame import _synthesis
    g = _certify(params["generator"])
    window = params["window"]
    # no coordinate of the synthesis lies a fold's row count or more past the window
    spread = g.fold[2].shape[0]
    worst = {p: 0.0 for p in params["p_list"]}
    rng = np.random.default_rng(seed)
    for _ in range(params["num_vectors"]):
        x = rng.standard_normal(2 * window + 1)
        diff = _synthesis(g, -window, x, window + spread)
        diff[spread:spread + x.size] -= x
        x, diff = x.tolist(), diff.tolist()
        for p in params["p_list"]:
            denom = _norm(x, p)
            if denom > 0:
                worst[p] = _worst(worst[p], _norm(diff, p) / denom)
    failures = []
    for p, err in worst.items():
        _gate(failures, f"reconstruction error at p={p}", err, tol)
    return _verdict({"window": window, "num_vectors": params["num_vectors"],
                     "max_relative_error": {str(p): err for p, err in worst.items()}},
                    failures)


@_kind("suppression-scan", 1e-8, generator=_generator(), window=_int(1, MAX_WINDOW, 8),
       trials=_int(1, 10 ** 6, 200), p=_p())
@_numpy_kind
def _run_suppression_scan(params, seed, tol):
    from .pettis import unconditionality_scan
    g = _certify(params["generator"])
    bs, bu = unconditionality_scan(g, params["trials"], params["window"],
                                   params["p"], seed)
    failures = []
    _gate(failures, "suppression lower bound over the certificate", bs,
          g.suppression_constant + tol)
    _gate(failures, "suppression lower bound over the unconditional bound", bs, bu + tol)
    _gate(failures, "unconditional bound over twice the suppression bound", bu,
          2.0 * bs + tol)
    return _verdict({
        "suppression_constant": g.suppression_constant,
        "suppression_lower_bound": bs,
        "unconditional_lower_bound": bu,
        "bracket": [bs, g.suppression_constant],
        "trials": params["trials"],
        "window": params["window"],
        "p": params["p"],
    }, failures)


# max_terms <= 7: a draw takes that many distinct generator indices from -3..3
@_kind("young-fuzz", 1e-12, draws=_int(1, 10 ** 6, 200), p_list=_p_list(),
       max_terms=_int(1, 7, 4))
@_numpy_kind
def _run_young_fuzz(params, seed, tol):
    import numpy as np
    from .lp import CoordinateVector
    from .stepfn import StepFunction
    from .translate_frame import _young_bounds, young_check
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    failures = []
    p_list = params["p_list"]

    def draws():
        """Each draw's random unit-l2 generator coefficients, its coefficient
        sequence a and its exponent p, drawn from one RNG stream."""
        for i in range(params["draws"]):
            size = int(rng.integers(1, params["max_terms"] + 1))
            idx = rng.choice(np.arange(-3, 4), size=size, replace=False)
            vals = rng.standard_normal(size)
            vals /= math.sqrt(float(np.add.reduce(vals * vals)))
            size = int(rng.integers(1, 7))
            shifts = rng.choice(np.arange(-6, 7), size=size, replace=False)
            yield (dict(zip(idx.tolist(), vals.tolist())),
                   dict(zip(shifts.tolist(), rng.standard_normal(size).tolist())),
                   p_list[i % len(p_list)])

    for i, (lhs, rhs) in enumerate(_young_bounds(draws())):
        _gate(failures, f"series bound at draw {i}", lhs, rhs * (1.0 + 1e-12) + 1e-12)
        if rhs > 0:
            worst_ratio = _worst(worst_ratio, lhs / rhs)
    equality_gap = 0.0
    for p in p_list:
        lhs, rhs = young_check(StepFunction.indicator(0.0, 1.0),
                               CoordinateVector.unit(0, 1.0), p)
        equality_gap = _worst(equality_gap, abs(lhs - rhs))
    _gate(failures, "unit indicator equality gap", equality_gap, tol)
    return _verdict({"draws": params["draws"], "max_ratio": worst_ratio,
                     "equality_gap": equality_gap}, failures)


@_kind("wavelet-reconstruct", 1e-9, target=_target(), p=_p(),
       M_list=_int_list(1, MAX_M, [1, 2, 3]), N_list=_int_list(1, MAX_N, [1, 2, 4]))
@_numpy_kind
def _run_wavelet_reconstruct(params, seed, tol):
    from .wavelet_frame import WaveletSystem, convergence_study
    ws = WaveletSystem.haar(params["p"])
    rows = convergence_study(ws, params["target"], params["M_list"], params["N_list"])
    failures = []
    for row in rows:
        _gate(failures, f"box error at M={row.M} N={row.N}", row.error,
              row.oracle_bound + tol)
    header = ["M", "N", "p", "error", "oracle_bound"]
    table_rows = [[row.M, row.N, row.p, row.error, row.oracle_bound] for row in rows]
    return _verdict({"p": params["p"],
                     "rows": [{"M": r.M, "N": r.N, "error": r.error,
                               "oracle_bound": r.oracle_bound} for r in rows]},
                    failures, table=(header, table_rows))


@_kind("wavelet-identity", 1e-9, target=_target(), p_list=_p_list(),
       M_list=_int_list(1, MAX_M, [1, 2]), N_list=_int_list(1, MAX_N, [1, 2]))
@_numpy_kind
def _run_wavelet_identity(params, seed, tol):
    from .wavelet_frame import WaveletSystem, reconstruction_identity_gaps
    p_list, M_list, N_list = params["p_list"], params["M_list"], params["N_list"]
    gaps = []
    max_gap = 0.0
    failures = []
    cells = [(p, M, N) for p in p_list for M in M_list for N in N_list]
    results = reconstruction_identity_gaps([WaveletSystem.haar(p) for p in p_list],
                                           params["target"], M_list, N_list)
    for (p, M, N), gap in zip(cells, results, strict=True):
        gaps.append({"p": p, "M": M, "N": N, "gap": gap})
        max_gap = _worst(max_gap, gap)
        _gate(failures, f"identity gap at p={p} M={M} N={N}", gap, tol)
    return _verdict({"gaps": gaps, "max_gap": max_gap}, failures)


@_kind("counterexample", 0.0, K=_int(1, MAX_WINDOW, 50),
       reconstruction_limit=_int(1, MAX_WINDOW, 50))
def _run_counterexample(params, seed, tol):
    from .diagnostics import counterexample_report
    report = counterexample_report(params["K"], params["reconstruction_limit"])
    failures = []
    for name in report.CHECKS:
        _gate(failures, name, int(not getattr(report, name)), 0)
    return _verdict(dataclasses.asdict(report), failures)


@_kind("diagnostics", 0.0, window=_int(2, MAX_WINDOW, 12), p=_p())
def _run_diagnostics(params, seed, tol):
    from .diagnostics import (DiscreteFrame, SpaceTag, boundedly_complete_probe,
                              tail_dual_norms, unit_vector_frame)
    from .lp import CoordinateVector
    window = params["window"]
    p = params["p"]
    failures = []
    nesting = [range(j + 1) for j in range(window)]

    frame_l1 = unit_vector_frame(SpaceTag.l1(), range(window))
    ones = CoordinateVector({n: 1 for n in range(window)})
    l1_tails = tail_dual_norms(frame_l1, ones, nesting[:-1])
    _gate(failures, "l1 all-ones tail norms other than 1", sum(v != 1.0 for v in l1_tails), 0)

    frame_lp = DiscreteFrame(frame_l1.pairs, SpaceTag.lp(p))
    support = min(6, window)
    f = CoordinateVector({n: 1.0 / (n + 1) for n in range(support)})
    lp_tails = tail_dual_norms(frame_lp, f, nesting)
    _gate(failures, "lp tail norms past the functional support other than 0",
          sum(v != 0.0 for v in lp_tails[support - 1:]), 0)

    frame_c0 = DiscreteFrame(frame_l1.pairs, SpaceTag.c0())
    probe = boundedly_complete_probe(frame_c0, ones, nesting)
    _gate(failures, "c0 all-ones increments other than 1",
          sum(v != 1.0 for v in probe.increments), 0)
    _gate(failures, "c0 all-ones probe nets not flagged non-Cauchy",
          int(not probe.non_cauchy), 0)

    return _verdict({
        "window": window,
        "p": p,
        "l1_allones_tail_norms": l1_tails,
        "lp_tail_norms": lp_tails,
        "c0_allones_increments": list(probe.increments),
        "c0_non_cauchy": probe.non_cauchy,
    }, failures)


@_kind("sampling-sweep", 1e-10, generator=_generator(),
       steps=Param(lambda n, v: _check_list(n, v, "lattice steps", _check_step),
                   [1 / 3, 1 / 6, 1 / 12, 1 / 24], parse=_split(float)),
       window=_int(1, 64, 4), p=_p())
@_numpy_kind
def _run_sampling_sweep(params, seed, tol):
    from .sampling import sampling_sweep
    g = _certify(params["generator"])
    rows = sampling_sweep(g, params["steps"], params["window"],
                          p=params["p"], exact_tol=tol)
    header = ["h", "num_samples", "max_error", "exact"]
    table_rows = [[r.step, r.num_samples, r.max_error, r.exact] for r in rows]
    errors = [r.max_error for r in rows]
    payload = {
        "window": params["window"],
        "p": params["p"],
        "rows": [dataclasses.asdict(r) for r in rows],
        "nonincreasing": all(b <= a + 1e-15 for a, b in zip(errors, errors[1:])),
    }
    return ExperimentResult(payload=payload, table=(header, table_rows))


def execute(config, quiet=False):
    """Run a validated config; write reports; return the process exit code."""
    kind = config["kind"]
    try:
        result = KINDS[kind].run(config["params"], config["seed"], config["tol"])
        code = 3 if result.failures else 0
    except GeneratorRejected as exc:
        result = ExperimentResult(payload={"report": exc.report.to_dict()},
                                  failures=tuple(exc.report.failures))
        code = 2
    payload = {
        "kind": kind,
        "artifact_version": ARTIFACT_VERSION,
        "config_digest": config["digest"],
        "seed": config["seed"],
        "tol": config["tol"],
    }
    payload.update(result.payload)
    json_path = config["out"] + ".json"
    write_json_report(json_path, payload)
    written = [json_path]
    if result.table is not None:
        csv_path = config["out"] + ".csv"
        write_csv(csv_path, *result.table, config["digest"], config["seed"])
        written.append(csv_path)
    if not quiet:
        if result.failures:
            for failure in result.failures:
                print(f"FAIL {kind}: {failure}")
        else:
            print(f"PASS {kind}")
        for path in written:
            print(f"wrote {path}")
    return code


# -- argument parsing -----------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--out", help="report path base (extension is appended)")
    sub.add_argument("--seed", type=int, help="RNG seed echoed into the report")
    sub.add_argument("--tol", type=float, help="tolerance override")
    sub.add_argument("--quiet", action="store_true", help="suppress stdout lines")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="framelab",
        description="Frame reconstruction experiments over exact step-function calculus")
    subs = parser.add_subparsers(dest="command", required=True)

    runner = subs.add_parser("run", help="run an experiment from a config file")
    runner.add_argument("config", help="path to a JSON experiment config")
    _add_common(runner)

    for kind, spec in KINDS.items():
        sub = subs.add_parser(kind, help=f"run the {kind} experiment")
        _add_common(sub)
        sub.add_argument("--config", dest="config",
                         help="JSON file holding config fields for this kind")
        for name in spec.params:
            sub.add_argument(_flag(name), dest=f"param_{name}")
    return parser


def _load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    # UnicodeDecodeError and json.JSONDecodeError are ValueErrors; a JSON text
    # nested past the interpreter's recursion limit raises RecursionError
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None


def _check_out(out_base, config_path):
    """Config error unless the artifacts <out>.json and <out>.csv can be
    written, checked before the run so that a job never runs only to fail its
    write.  Neither may land on the input config ``config_path``: that would
    destroy it and make the run unrepeatable."""
    directory = os.path.dirname(os.path.abspath(out_base))
    if not os.path.isdir(directory):
        raise ConfigError(f"out={out_base!r}: no directory {directory}")
    for path in (out_base + ".json", out_base + ".csv"):
        if os.path.isdir(path):
            raise ConfigError(f"out={out_base!r}: {path} is a directory")
        try:
            os.stat(path)
        except FileNotFoundError:
            pass
        # a name the system refuses: a NUL byte, or a name or path too long
        except (OSError, ValueError) as exc:
            raise ConfigError(f"out={out_base!r} cannot be written: {exc}") from None
        if config_path is not None and os.path.abspath(path) == os.path.abspath(config_path):
            raise ConfigError(f"out={out_base!r} would overwrite the config file {config_path}")


def _collect_config(args):
    if args.command == "run":
        raw = _load_config_file(args.config)
    else:
        raw = _load_config_file(args.config) if args.config else {}
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        raw = dict(raw)
        raw["kind"] = args.command
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params must be an object")
        params = dict(params)
        for name, spec in KINDS[args.command].params.items():
            text = getattr(args, f"param_{name}")
            if text is not None:
                try:
                    params[name] = spec.parse(text)
                except (ValueError, RecursionError) as exc:
                    raise ConfigError(f"{_flag(name)}: {exc}") from None
        raw["params"] = params
    if args.out is not None:
        raw["out"] = args.out
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.tol is not None:
        raw["tol"] = args.tol
    return raw


@functools.cache
def _parser():
    """The parser of :func:`main`, built on its first call and kept for the process."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        config = validate_config(_collect_config(args))
        _check_out(config["out"], args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return execute(config, quiet=args.quiet)


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
