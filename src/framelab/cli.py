"""Command line experiment runner.

One subcommand per experiment kind plus ``run <config.json>``.  Every
experiment is described by a config record (kind, seed, tol, out, params);
subcommand flags assemble the same record, so a flag invocation and a
config file invocation of the same experiment are interchangeable and
produce byte-identical reports.  Each kind is declared once, in ``KINDS``,
by the decorator on its runner; config checks and flags derive from it.

Exit codes: 0 success, 1 malformed config, 2 failed generator validation,
3 invariant breach (the breach message names the violated assertion).
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .diagnostics import (SpaceTag, boundedly_complete_probe, counterexample_report,
                          tail_dual_norms, unit_vector_frame)
from .lp import CoordinateVector
from .pettis import unconditionality_scan
from .reports import (ARTIFACT_VERSION, config_digest, write_csv, write_json_report)
from .sampling import sampling_sweep
from .stepfn import MERGE_ULPS, StepFunction, _merge, haar_mother
from .translate_frame import (GeneratorRejected, RademacherSpec, biorthogonality_matrix,
                              build_rademacher_generator, generator_certificates,
                              rademacher_function, synthesis_over_set,
                              validate_generator, young_check)
from .wavelet_frame import (WaveletSystem, convergence_study,
                            reconstruction_identity_gap)

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
MAX_M = 8
MAX_N = 16
MAX_P = 16.0


class ConfigError(ValueError):
    """Malformed experiment config; maps to exit code 1."""


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
    if not isinstance(value, dict) or len(value) != 1:
        raise ConfigError(
            f"{name} must be an object with exactly one of 'rademacher' or 'step_function'")
    key = next(iter(value))
    body = value[key]
    if key == "rademacher":
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
        resolution = body.get("resolution", 1)
        _check_int(f"{name}.rademacher.resolution", resolution, 1, 16)
    elif key == "step_function":
        _require_step_record(f"{name}.step_function", body)
        # the unit fold merges fractional parts at magnitude 1
        bp = np.array(body["breakpoints"], dtype=float)
        _require_separated(f"{name}.step_function's distinct fractional parts",
                           np.unique(np.concatenate((bp - np.floor(bp), (0.0, 1.0)))))
    else:
        raise ConfigError(f"{name} kind must be 'rademacher' or 'step_function', got {key!r}")
    return value


def _fold_work(generator, window):
    """Cell products the unit fold of a checked generator record costs a job.

    The fold holds units x cells entries, cells being the fractional cells
    per unit (for a Rademacher record the finest sign pattern's 2^depth, for
    a step function at most one per breakpoint plus one).  Its Gram lags
    correlate each entry with up to ``units`` rows, and a series over the
    2 * window + 1 translates of a window adds one row per translate.
    """
    [(key, body)] = generator.items()
    if key == "rademacher":
        indices = [n for n, _ in body["coefficients"]]
        units = max(indices) - min(indices) + 1
        cells = 2 ** min(len(indices) - 1 + body.get("resolution", 1), 64)
    else:
        bp = body["breakpoints"]
        units = math.ceil(bp[-1]) - math.floor(bp[0])
        cells = len(bp) + 1
    return units * cells * (units + 2 * window + 1)


def _lattice_work(params):
    """Lattice members a wavelet job evaluates.

    Each (M, N) row sums (2M)^2 N^2 members for the box, as many again for
    the conjugate route (the oracle bound or the averaged sum), once per
    exponent.
    """
    members = sum(2 * (2 * M) ** 2 * N ** 2
                  for M in params["M_list"] for N in params["N_list"])
    return members * len(params.get("p_list", [params.get("p")]))


def _require_separated(name, points, reach=1.0):
    """Config error unless ``points`` increase and no two merge in a grid
    that reaches ``reach`` or their largest |point|."""
    points = np.array(points, dtype=float)
    magnitude = max(np.abs(points).max(initial=0.0), reach)
    if not np.array_equal(_merge(points, magnitude), points):
        raise ConfigError(f"{name} must rise by over {MERGE_ULPS} ulps of {magnitude:g}")


def _require_step_record(name, body):
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


def _check_target(name, value):
    if not isinstance(value, dict) or len(value) != 1:
        raise ConfigError(
            f"{name} must be an object with exactly one of 'named', 'indicator', 'step_function'")
    key = next(iter(value))
    body = value[key]
    if key == "named":
        if body != "haar":
            raise ConfigError(f"{name}.named must be 'haar'")
    elif key == "indicator":
        if (not isinstance(body, list) or len(body) != 2
                or not all(_is_real(v) for v in body) or not body[0] < body[1]):
            raise ConfigError(f"{name}.indicator must be [a, b] with finite a < b")
    elif key == "step_function":
        _require_step_record(f"{name}.step_function", body)
    else:
        raise ConfigError(f"{name} kind must be 'named', 'indicator' or 'step_function'")
    # The errors compare the target and its conjugates (scaled by up to 2,
    # shifted by up to 1) with lattice sums whose members reach 2^MAX_M past
    # them; at twice that magnitude no rounding closes a cell.
    bp = _build_target(value).breakpoints
    reach = 2.0 * (2.0 * float(np.abs(bp).max(initial=0.0)) + 1.0 + 2.0 ** MAX_M)
    _require_separated(f"{name} breakpoints", bp, reach)
    return value


def _worst(a, b):
    """max(a, b) that keeps a NaN from either side, so that its check fails."""
    return b if (b > a or b != b) else a


# -- the kind registry ------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Param:
    """One experiment parameter: config check, default, and flag text parser.

    Its flag is ``"--" + name.replace("_", "-")``; ``parse`` turns the flag
    text into the config value, which then goes through ``check``.
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
    """Normalize a raw config dict; unknown fields are rejected."""
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
    params = {}
    for name, spec in schema.items():
        if name in raw_params:
            params[name] = spec.check(name, raw_params[name])
        elif spec.required:
            raise ConfigError(f"missing required param: {name}")
        else:
            params[name] = spec.default
    if params.get("generator") is not None:
        work = _fold_work(params["generator"], params.get("window", 0))
        if work > MAX_FOLD_WORK:
            raise ConfigError(
                f"generator too large: its unit fold needs about "
                f"2^{work.bit_length() - 1} cell products, over the cap of "
                f"2^{MAX_FOLD_WORK.bit_length() - 1}")
    if "M_list" in params:
        work = _lattice_work(params)
        if work > MAX_LATTICE_WORK:
            raise ConfigError(
                f"wavelet job too large: {work} lattice members, over the cap of "
                f"2^{MAX_LATTICE_WORK.bit_length() - 1}")
    return {"kind": kind, "seed": seed, "tol": float(tol), "out": out,
            "params": params}


# -- object construction from config ------------------------------------------


def _generator_function(obj):
    """The candidate generator step function of a checked generator record."""
    [(key, body)] = obj.items()
    if key == "rademacher":
        coeffs = CoordinateVector({n: float(c) for n, c in body["coefficients"]})
        return rademacher_function(RademacherSpec(coefficients=coeffs,
                                                  resolution=body.get("resolution", 1)))
    return StepFunction(body["breakpoints"], body["values"])


def _build_generator(obj):
    return validate_generator(_generator_function(obj))


def _build_target(obj):
    [(key, body)] = obj.items()
    if key == "named":
        return haar_mother()
    if key == "indicator":
        return StepFunction.indicator(float(body[0]), float(body[1]))
    return StepFunction(body["breakpoints"], body["values"])


# -- experiment runners -----------------------------------------------------------


@dataclasses.dataclass
class ExperimentResult:
    payload: dict
    table: tuple | None = None       # (header, rows)
    failures: tuple = ()
    generator_failure: bool = False


# wall-clock CSV column; execute blanks it unless timings are requested
TIMING_COLUMN = "runtime_ms"


@_kind("validate-generator", 1e-10, generator=_generator(required=True),
       lag_range=_int(1, MAX_WINDOW, None))
def _run_validate_generator(params, seed, tol, rng):
    f = _generator_function(params["generator"])
    report = generator_certificates(f, params["lag_range"], tol)
    if not report.ok:
        raise GeneratorRejected(report)
    return ExperimentResult(payload={
        "report": report.to_dict(),
        "suppression_constant": report.l1_norm * report.periodized_sup})


@_kind("biorthogonality", 1e-10, generator=_generator(),
       window=_int(1, MAX_GRAM_WINDOW, 8))
def _run_biorthogonality(params, seed, tol, rng):
    g = _build_generator(params["generator"])
    window = params["window"]
    mat = biorthogonality_matrix(g, window)
    deviation = float(np.max(np.abs(mat - np.eye(mat.shape[0]))))
    failures = []
    if not (deviation <= tol):
        failures.append(
            f"biorthogonality deviation {deviation!r} exceeds tol {tol!r}")
    payload = {"window": window, "matrix_size": mat.shape[0],
               "max_abs_deviation": deviation, "passed": not failures}
    return ExperimentResult(payload=payload, failures=tuple(failures))


@_kind("reconstruct", 1e-10, generator=_generator(), window=_int(1, MAX_WINDOW, 8),
       num_vectors=_int(1, 10 ** 6, 100), p_list=_p_list())
def _run_reconstruct(params, seed, tol, rng):
    g = _build_generator(params["generator"])
    window = params["window"]
    lo, hi = g.f.support()
    spread = int(math.ceil(hi - lo))
    out_window = window + spread
    worst = {p: 0.0 for p in params["p_list"]}
    for _ in range(params["num_vectors"]):
        vals = rng.standard_normal(2 * window + 1)
        x = CoordinateVector({n - window: float(v) for n, v in enumerate(vals)})
        recon = synthesis_over_set(g, x, None, out_window)
        diff = recon.sub(x)
        for p in params["p_list"]:
            denom = x.norm(p)
            if denom > 0:
                worst[p] = _worst(worst[p], diff.norm(p) / denom)
    failures = [
        f"reconstruction error {err!r} at p={p} exceeds tol {tol!r}"
        for p, err in worst.items() if not (err <= tol)]
    payload = {
        "window": window,
        "num_vectors": params["num_vectors"],
        "max_relative_error": {str(p): err for p, err in worst.items()},
        "passed": not failures,
    }
    return ExperimentResult(payload=payload, failures=tuple(failures))


@_kind("suppression-scan", 1e-8, generator=_generator(), window=_int(1, MAX_WINDOW, 8),
       trials=_int(1, 10 ** 6, 200), p=_p())
def _run_suppression_scan(params, seed, tol, rng):
    g = _build_generator(params["generator"])
    bs, bu = unconditionality_scan(g, params["trials"], params["window"],
                                   params["p"], seed)
    failures = []
    if not (bs <= g.suppression_constant + tol):
        failures.append(
            f"suppression lower bound {bs!r} exceeds certificate "
            f"{g.suppression_constant!r}")
    if not (bs <= bu + tol):
        failures.append("suppression bound exceeds unconditional bound")
    if not (bu <= 2.0 * bs + tol):
        failures.append("unconditional bound exceeds twice the suppression bound")
    payload = {
        "suppression_constant": g.suppression_constant,
        "suppression_lower_bound": bs,
        "unconditional_lower_bound": bu,
        "bracket": [bs, g.suppression_constant],
        "trials": params["trials"],
        "window": params["window"],
        "p": params["p"],
        "passed": not failures,
    }
    return ExperimentResult(payload=payload, failures=tuple(failures))


def _random_unit_l2(rng, max_terms):
    size = int(rng.integers(1, max_terms + 1))
    idx = rng.choice(np.arange(-3, 4), size=size, replace=False)
    vals = rng.standard_normal(size)
    vals /= math.sqrt(float(np.dot(vals, vals)))
    return CoordinateVector({int(n): float(v) for n, v in zip(idx, vals)})


# max_terms <= 7: _random_unit_l2 draws that many distinct indices from -3..3
@_kind("young-fuzz", 1e-12, draws=_int(1, 10 ** 6, 200), p_list=_p_list(),
       max_terms=_int(1, 7, 4))
def _run_young_fuzz(params, seed, tol, rng):
    worst_ratio = 0.0
    failures = []
    p_list = params["p_list"]
    for i in range(params["draws"]):
        coeffs = _random_unit_l2(rng, params["max_terms"])
        spec = RademacherSpec(coefficients=coeffs, resolution=1)
        g = build_rademacher_generator(spec)
        size = int(rng.integers(1, 7))
        idx = rng.choice(np.arange(-6, 7), size=size, replace=False)
        a = CoordinateVector({int(n): float(v)
                              for n, v in zip(idx, rng.standard_normal(size))})
        p = p_list[i % len(p_list)]
        lhs, rhs = young_check(g.f, a, p)
        if not (lhs <= rhs * (1.0 + 1e-12) + 1e-12):
            failures.append(
                f"series bound violated at draw {i}: lhs {lhs!r} > rhs {rhs!r}")
        if rhs > 0:
            worst_ratio = _worst(worst_ratio, lhs / rhs)
    equality_gap = 0.0
    for p in p_list:
        lhs, rhs = young_check(StepFunction.indicator(0.0, 1.0),
                               CoordinateVector.unit(0, 1.0), p)
        equality_gap = _worst(equality_gap, abs(lhs - rhs))
    if not (equality_gap <= tol):
        failures.append(
            f"unit indicator equality gap {equality_gap!r} exceeds tol {tol!r}")
    payload = {"draws": params["draws"], "max_ratio": worst_ratio,
               "equality_gap": equality_gap, "passed": not failures}
    return ExperimentResult(payload=payload, failures=tuple(failures))


@_kind("wavelet-reconstruct", 1e-9, target=_target(), p=_p(),
       M_list=_int_list(1, MAX_M, [1, 2, 3]), N_list=_int_list(1, MAX_N, [1, 2, 4]))
def _run_wavelet_reconstruct(params, seed, tol, rng):
    x = _build_target(params["target"])
    ws = WaveletSystem.haar(params["p"])
    rows = convergence_study(ws, x, params["M_list"], params["N_list"])
    failures = []
    for row in rows:
        if not (row.error <= row.oracle_bound + tol):
            failures.append(
                f"box error {row.error!r} exceeds oracle bound "
                f"{row.oracle_bound!r} at M={row.M} N={row.N}")
    header = ["M", "N", "p", "error", "oracle_bound", TIMING_COLUMN]
    table_rows = [[row.M, row.N, row.p, row.error, row.oracle_bound, row.runtime_ms]
                  for row in rows]
    payload = {
        "p": params["p"],
        "rows": [{"M": r.M, "N": r.N, "error": r.error,
                  "oracle_bound": r.oracle_bound} for r in rows],
        "passed": not failures,
    }
    return ExperimentResult(payload=payload, table=(header, table_rows),
                            failures=tuple(failures))


@_kind("wavelet-identity", 1e-9, target=_target(), p_list=_p_list(),
       M_list=_int_list(1, MAX_M, [1, 2]), N_list=_int_list(1, MAX_N, [1, 2]))
def _run_wavelet_identity(params, seed, tol, rng):
    x = _build_target(params["target"])
    gaps = []
    max_gap = 0.0
    failures = []
    for p in params["p_list"]:
        ws = WaveletSystem.haar(p)
        for M in params["M_list"]:
            for N in params["N_list"]:
                gap = reconstruction_identity_gap(ws, x, M, N)
                gaps.append({"p": p, "M": M, "N": N, "gap": gap})
                max_gap = _worst(max_gap, gap)
                if not (gap <= tol):
                    failures.append(
                        f"identity gap {gap!r} exceeds tol {tol!r} "
                        f"at p={p} M={M} N={N}")
    payload = {"gaps": gaps, "max_gap": max_gap, "passed": not failures}
    return ExperimentResult(payload=payload, failures=tuple(failures))


@_kind("counterexample", 0.0, K=_int(1, MAX_WINDOW, 50),
       reconstruction_limit=_int(1, MAX_WINDOW, 50))
def _run_counterexample(params, seed, tol, rng):
    report = counterexample_report(params["K"], params["reconstruction_limit"])
    failures = []
    if not report.ok:
        for field in ("full_reconstruction_exact", "restricted_coordinates_all_one",
                      "restricted_escapes_c0", "dual_series_matches_direct",
                      "dual_action_matches_sum"):
            if not getattr(report, field):
                failures.append(f"counterexample check failed: {field}")
    payload = dataclasses.asdict(report)
    payload["passed"] = report.ok
    return ExperimentResult(payload=payload, failures=tuple(failures))


@_kind("diagnostics", 0.0, window=_int(2, MAX_WINDOW, 12), p=_p())
def _run_diagnostics(params, seed, tol, rng):
    window = params["window"]
    p = params["p"]
    failures = []
    nesting = [range(j + 1) for j in range(window)]

    frame_l1 = unit_vector_frame(SpaceTag.l1(), range(window))
    ones = CoordinateVector({n: 1 for n in range(window)})
    l1_tails = tail_dual_norms(frame_l1, ones, nesting[:-1])
    if any(v != 1.0 for v in l1_tails):
        failures.append("l1 all-ones tail norms are not identically 1")

    frame_lp = unit_vector_frame(SpaceTag.lp(p), range(window))
    support = min(6, window)
    f = CoordinateVector({n: 1.0 / (n + 1) for n in range(support)})
    lp_tails = tail_dual_norms(frame_lp, f, nesting)
    if any(v != 0.0 for v in lp_tails[support - 1:]):
        failures.append("lp tail norms do not vanish past the functional support")

    frame_c0 = unit_vector_frame(SpaceTag.c0(), range(window))
    probe = boundedly_complete_probe(frame_c0, ones, nesting)
    if any(v != 1.0 for v in probe.increments):
        failures.append("c0 all-ones increments are not identically 1")
    if not probe.non_cauchy:
        failures.append("c0 all-ones probe failed to flag a non-Cauchy net")

    payload = {
        "window": window,
        "p": p,
        "l1_allones_tail_norms": l1_tails,
        "lp_tail_norms": lp_tails,
        "c0_allones_increments": list(probe.increments),
        "c0_non_cauchy": probe.non_cauchy,
        "passed": not failures,
    }
    return ExperimentResult(payload=payload, failures=tuple(failures))


@_kind("sampling-sweep", 1e-10, generator=_generator(),
       steps=Param(lambda n, v: _check_list(n, v, "lattice steps", _check_step),
                   [1 / 3, 1 / 6, 1 / 12, 1 / 24], parse=_split(float)),
       window=_int(1, 64, 4), p=_p())
def _run_sampling_sweep(params, seed, tol, rng):
    g = _build_generator(params["generator"])
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


def execute(config, quiet=False, timings=False):
    """Run a validated config; write reports; return the process exit code."""
    kind = config["kind"]
    digest = config_digest({"kind": kind, "seed": config["seed"],
                            "tol": config["tol"], "params": config["params"]})
    rng = np.random.default_rng(config["seed"])
    try:
        # an overflow leaves inf or NaN, which the report's checks fail on
        with np.errstate(over="ignore", invalid="ignore"):
            result = KINDS[kind].run(config["params"], config["seed"], config["tol"], rng)
    except GeneratorRejected as exc:
        result = ExperimentResult(payload={"report": exc.report.to_dict()},
                                  failures=tuple(exc.report.failures),
                                  generator_failure=True)
    payload = {
        "kind": kind,
        "artifact_version": ARTIFACT_VERSION,
        "config_digest": digest,
        "seed": config["seed"],
        "tol": config["tol"],
    }
    payload.update(result.payload)
    json_path = config["out"] + ".json"
    write_json_report(json_path, payload)
    written = [json_path]
    if result.table is not None:
        csv_path = config["out"] + ".csv"
        header, rows = result.table
        if not timings and TIMING_COLUMN in header:
            col = header.index(TIMING_COLUMN)
            rows = [[*row[:col], "", *row[col + 1:]] for row in rows]
        write_csv(csv_path, header, rows, digest, config["seed"])
        written.append(csv_path)
    if not quiet:
        if result.failures:
            for failure in result.failures:
                print(f"FAIL {kind}: {failure}")
        else:
            print(f"PASS {kind}")
        for path in written:
            print(f"wrote {path}")
    if result.generator_failure:
        return 2
    if result.failures:
        return 3
    return 0


# -- argument parsing -----------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--out", help="report path base (extension is appended)")
    sub.add_argument("--seed", type=int, help="RNG seed echoed into the report")
    sub.add_argument("--tol", type=float, help="tolerance override")
    sub.add_argument("--quiet", action="store_true", help="suppress stdout lines")
    sub.add_argument("--timings", action="store_true",
                     help="include wall-clock columns (breaks byte-identical reruns)")


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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None


def _reject_config_overwrite(config_path, out_base):
    # Artifacts land at <out>.json/<out>.csv; writing one over the input
    # config would destroy it and make the run unrepeatable.
    target = os.path.abspath(config_path)
    for path in (out_base + ".json", out_base + ".csv"):
        if os.path.abspath(path) == target:
            raise ConfigError(
                f"out={out_base!r} would overwrite the config file {config_path}")


def _collect_config(args):
    if args.command == "run":
        raw = _load_config_file(args.config)
    else:
        raw = _load_config_file(args.config) if args.config else {}
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        raw = dict(raw)
        raw["kind"] = args.command
        params = raw.get("params") or {}
        if not isinstance(params, dict):
            raise ConfigError("params must be an object")
        params = dict(params)
        for name, spec in KINDS[args.command].params.items():
            text = getattr(args, f"param_{name}")
            if text is not None:
                try:
                    params[name] = spec.parse(text)
                except ValueError as exc:
                    raise ConfigError(f"{_flag(name)}: {exc}") from None
        raw["params"] = params
    if args.out is not None:
        raw["out"] = args.out
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.tol is not None:
        raw["tol"] = args.tol
    return raw


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        config = validate_config(_collect_config(args))
        if args.config is not None:
            _reject_config_overwrite(args.config, config["out"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return execute(config, quiet=args.quiet, timings=args.timings)


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
