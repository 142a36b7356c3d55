"""Output checks for benchmark jobs.

A job passes when the program exited 0, its report says it passed, and
its result fields match reference values at the kind's own tolerance (the
``tol`` the report echoes).  References come from three places:

* ``reference.json`` beside this file, for configs that do not depend on
  the seed (the fixed wavelet targets), keyed by kind and params;
* closed forms of the constructions (certificates of a Rademacher
  generator, the counterexample flags, the diagnostics tails);
* independent re-computations with plain numpy: on the generator's
  dyadic grid (biorthogonality residual, suppression scan, young-fuzz
  ratios, sampling-sweep errors) and, for the Haar wavelet kinds, from the
  target's cumulative integral (box error and oracle bound).

Numbers are compared as ``|got - want| <= tol * max(1, |want|)``, never as
bytes, so a change of summation order that moves last bits still passes.
Kinds whose tolerance is 0 (counterexample, diagnostics) compare integers
and booleans exactly and floats at a 1e-12 relative floor.
"""

import json
import math
import os

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
FLOAT_FLOOR = 1e-12
# fields the runner or the program adds around every result
ENVELOPE = ("kind", "artifact_version", "config_digest", "seed", "tol")


# kinds whose results depend on the config seed (their RNG draws)
SEEDED_KINDS = ("reconstruct", "suppression-scan", "young-fuzz")


def reference_key(config):
    key = {"kind": config["kind"], "params": config["params"]}
    if config["kind"] in SEEDED_KINDS:
        key["seed"] = config["seed"]
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


def result_fields(payload):
    return {k: v for k, v in payload.items() if k not in ENVELOPE}


def load_references():
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def compare(got, want, tol, where="result"):
    """Problems found comparing a result tree against a reference tree."""
    if isinstance(want, bool) or isinstance(want, str) or want is None:
        return [] if got == want else [f"{where}: got {got!r}, want {want!r}"]
    if isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{where}: got {got!r}, want a number"]
        if isinstance(want, int) and isinstance(got, int):
            return [] if got == want else [f"{where}: got {got}, want {want}"]
        bound = max(tol, FLOAT_FLOOR) * max(1.0, abs(want))
        if not (math.isfinite(got) and abs(got - want) <= bound):
            return [f"{where}: got {got!r}, want {want!r} within {bound:.1e}"]
        return []
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: got {got!r}, want a list of {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, tol, f"{where}[{i}]")
        return out
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: got keys {sorted(got) if isinstance(got, dict) else got!r},"
                    f" want {sorted(want)}"]
        out = []
        for k in sorted(want):
            out += compare(got[k], want[k], tol, f"{where}.{k}")
        return out
    raise TypeError(f"unsupported reference value at {where}: {want!r}")


# -- independent grid computations for Rademacher generators ---------------------


def generator_cells(coefficients):
    """Values of the Rademacher generator on the uniform grid of its finest cell.

    Coefficient of rank j (by index) carries the alternating sign pattern of
    dyadic depth j + 1 on [n, n+1).  Returns (first index, cell width,
    values), with every cell of the generator an exact union of grid cells.
    """
    coeffs = sorted((int(n), float(c)) for n, c in coefficients)
    depth = len(coeffs)
    per_unit = 2 ** depth
    lo, hi = coeffs[0][0], coeffs[-1][0] + 1
    vals = np.zeros((hi - lo) * per_unit)
    cell = np.arange(per_unit)
    for rank, (n, c) in enumerate(coeffs):
        d = rank + 1
        signs = np.where((cell >> (depth - d)) % 2 == 0, 1.0, -1.0)
        vals[(n - lo) * per_unit:(n - lo + 1) * per_unit] = c * signs
    return lo, 1.0 / per_unit, vals


def translate_gram(width, vals, lags):
    """<f, f(. - m)> for m = 0..lags on the grid; 0 once the translate is disjoint."""
    per_unit = int(round(1.0 / width))
    out = []
    for m in range(lags + 1):
        shift = m * per_unit
        out.append(float(np.dot(vals[:vals.size - shift], vals[shift:])) * width
                   if shift < vals.size else 0.0)
    return out


def _span(coefficients):
    """Length of the generator's support; indices are contiguous here."""
    idx = [int(n) for n, _ in coefficients]
    return max(idx) + 1 - min(idx)


def scan_bounds(coefficients, trials, window, p, seed):
    """The suppression and unconditional scan bounds, on the shared grid.

    Draws the same Gaussian pairs as the program (same generator, same
    order), forms every analysis function as one matrix product against the
    translate table, and takes the positive and negative parts of c * d
    cell by cell.
    """
    _, width, f = generator_cells(coefficients)
    per_unit = int(round(1.0 / width))
    span = f.size // per_unit
    ns = np.arange(-window, window + 1)
    cells = (2 * window + span) * per_unit
    table = np.zeros((cells, ns.size))
    for i, n in enumerate(ns):
        # f(. - n) starts at n + lo; row 0 of the table is t = lo - window
        at = (n + window) * per_unit
        table[at:at + f.size, i] = f
    q = p / (p - 1.0)
    rng = np.random.default_rng(seed)
    best_s = best_u = 0.0
    for _ in range(trials):
        x = rng.standard_normal(ns.size)
        xs = rng.standard_normal(ns.size)
        denom = (np.sum(np.abs(x) ** p) ** (1.0 / p)) * (np.sum(np.abs(xs) ** q) ** (1.0 / q))
        if denom < 1e-9:
            continue
        prod = (table @ x) * (table @ xs) * width
        pos = float(np.sum(prod[prod > 0]))
        neg = float(-np.sum(prod[prod < 0]))
        best_s = max(best_s, max(pos, neg) / denom)
        best_u = max(best_u, (pos + neg) / denom)
    return best_s, best_u


def young_ratio(draws, max_terms, p_list, seed):
    """Worst lhs / rhs of the translated-series bound over the program's draws.

    Replays the program's RNG draw for draw: a unit-l2 Rademacher generator
    on a random index set in -3..3, then a coefficient vector on -6..6.
    lhs is ||sum_n a_n f(. - n)||_p^p on the generator's grid; rhs is
    ||f||_1 ||a||_p^p sup^(p/p'), where ||f||_1 and the periodized sup of
    |f| both equal sum |c_n|.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(draws):
        size = int(rng.integers(1, max_terms + 1))
        idx = rng.choice(np.arange(-3, 4), size=size, replace=False)
        vals = rng.standard_normal(size)
        vals /= math.sqrt(float(np.dot(vals, vals)))
        first, width, f = generator_cells(zip(idx, vals))
        per_unit = int(round(1.0 / width))
        size = int(rng.integers(1, 7))
        shifts = rng.choice(np.arange(-6, 7), size=size, replace=False)
        a = rng.standard_normal(size)
        p = p_list[i % len(p_list)]
        series = np.zeros(f.size + 12 * per_unit)
        for n, c in zip(shifts, a):
            at = (int(n) + 6) * per_unit
            series[at:at + f.size] += c * f
        l1 = math.fsum(abs(float(v)) for v in vals)
        rhs = l1 * float(np.sum(np.abs(a) ** p)) * l1 ** (p - 1.0)
        worst = max(worst, float(np.sum(np.abs(series) ** p)) * width / rhs)
    return worst


def sweep_errors(coefficients, steps, window, p):
    """(lattice points, worst lp reconstruction error) per step of a sampling sweep.

    The lattice is j*h in the half open parameter window, the sampled
    reconstruction matrix is h * F^T F with F[j, i] = f(t_j - n_i) read off
    the generator's grid, and the error of unit vector e_n is the lp norm
    of its row minus e_n.
    """
    first, width, f = generator_cells(coefficients)
    per_unit = int(round(1.0 / width))
    lo, hi = first - window, first + f.size // per_unit + window
    ns = np.arange(-window, window + 1)
    out = []
    for h in steps:
        ts = np.arange(math.ceil(lo / h), math.ceil(hi / h)) * h
        cell = np.floor((ts[:, None] - ns[None, :] - first) / width).astype(int)
        inside = (cell >= 0) & (cell < f.size)
        rows = np.where(inside, f[np.clip(cell, 0, f.size - 1)], 0.0)
        diff = h * (rows.T @ rows) - np.eye(ns.size)
        errors = np.sum(np.abs(diff) ** p, axis=1) ** (1.0 / p)
        out.append((ts.size, float(errors.max())))
    return out


# -- Haar wavelet box sums from the target's cumulative integral ------------------


def target_cells(target):
    """(breakpoints, values) of a wavelet-kind target record."""
    if "indicator" in target:
        return np.array(target["indicator"], dtype=float), np.ones(1)
    if "named" in target:
        return np.array([0.0, 0.5, 1.0]), np.array([1.0, -1.0])
    body = target["step_function"]
    return np.array(body["breakpoints"], dtype=float), np.array(body["values"], dtype=float)


def _haar_breakpoints(a, b):
    """Breakpoints (k, 3) of psi(2^a t - b) for Haar psi on [0, 1)."""
    return (b[:, None] + np.array([0.0, 0.5, 1.0])) * 2.0 ** (-a[:, None])


def haar_residual(xb, xv, a, b, weight, p):
    """||x - weight * sum_k <x, dual_k> primal_k||_p over Haar members (a_k, b_k).

    Primal members are 2^(a/p) psi(2^a t - b), duals the same with the
    conjugate exponent.  Each coefficient is read off the cumulative
    integral of x; the sum is accumulated as jumps on the union grid.
    """
    q = p / (p - 1.0)
    cum = np.concatenate([[0.0], np.cumsum(xv * np.diff(xb))])
    t = _haar_breakpoints(a, b)
    at = np.interp(t, xb, cum)
    coef = 2.0 ** (a / q) * (2.0 * at[:, 1] - at[:, 0] - at[:, 2]) * weight
    height = coef * 2.0 ** (a / p)
    grid = np.unique(np.concatenate([xb, t.ravel()]))
    jumps = np.zeros(grid.size)
    pos = np.searchsorted(grid, t)
    np.add.at(jumps, pos[:, 0], height)
    np.add.at(jumps, pos[:, 1], -2.0 * height)
    np.add.at(jumps, pos[:, 2], height)
    mids = 0.5 * (grid[:-1] + grid[1:])
    cell = np.searchsorted(xb, mids, side="right") - 1
    x_mid = np.where((cell >= 0) & (cell < xv.size), xv[np.clip(cell, 0, xv.size - 1)], 0.0)
    diff = x_mid - np.cumsum(jumps)[:-1]
    return float(np.dot(np.abs(diff) ** p, np.diff(grid)) ** (1.0 / p))


def haar_box_study(target, p, M, N):
    """(error, oracle_bound) of the snapped Haar box reconstruction of target.

    error is ||x - box sum||_p with a = l + r/N, b = m + s 2^l / N and
    weight N^-2; oracle_bound is the worst ||y - P_M y||_p over the
    conjugated targets y_{r,s}(t) = 2^(-r/(N p)) x(2^(-r/N) (t + s/N)).
    """
    xb, xv = target_cells(target)
    lm = np.arange(-M, M)
    r, l, s, m = (v.ravel() for v in np.meshgrid(np.arange(N), lm, np.arange(N), lm,
                                                  indexing="ij"))
    a = l + r / N
    b = m + s * (2.0 ** l) / N
    error = haar_residual(xb, xv, a, b, 1.0 / (N * N), p)
    ls, ms = (v.ravel().astype(float) for v in np.meshgrid(lm, lm, indexing="ij"))
    bound = 0.0
    for rr in range(N):
        for ss in range(N):
            yb = xb * 2.0 ** (rr / N) + (-ss / N)
            yv = xv * 2.0 ** (-(rr / N) / p)
            bound = max(bound, haar_residual(yb, yv, ls, ms, 1.0, p))
    return error, bound


# -- per-kind checks ---------------------------------------------------------------


def _coefficients(params):
    return params["generator"]["rademacher"]["coefficients"]


def _certificates(params):
    l1 = math.fsum(abs(c) for _, c in _coefficients(params))
    return l1, l1, l1 * l1


def _check_validate_generator(config, out, tol):
    report = out.get("report", {})
    l1, sup, constant = _certificates(config["params"])
    coeffs = _coefficients(config["params"])
    _, width, vals = generator_cells(coeffs)
    gram = translate_gram(width, vals, _span(coeffs))
    residual = max(abs(g - (1.0 if m == 0 else 0.0)) for m, g in enumerate(gram))
    problems = compare(report.get("ok"), True, tol, "report.ok")
    problems += compare(report.get("failures"), [], tol, "report.failures")
    problems += compare(report.get("l1_norm"), l1, tol, "report.l1_norm")
    problems += compare(report.get("periodized_sup"), sup, tol, "report.periodized_sup")
    problems += compare(report.get("ortho_residual"), residual, tol, "report.ortho_residual")
    problems += compare(report.get("lag_range"), len(gram) - 1, tol, "report.lag_range")
    problems += compare(out.get("suppression_constant"), constant, tol,
                        "suppression_constant")
    return problems


def _check_biorthogonality(config, out, tol):
    params = config["params"]
    coeffs = _coefficients(params)
    _, width, vals = generator_cells(coeffs)
    gram = translate_gram(width, vals, min(2 * params["window"], _span(coeffs)))
    deviation = max(abs(g - (1.0 if m == 0 else 0.0)) for m, g in enumerate(gram))
    problems = compare(out.get("matrix_size"), 2 * params["window"] + 1, tol, "matrix_size")
    problems += compare(out.get("max_abs_deviation"), deviation, tol, "max_abs_deviation")
    return problems


def _check_reconstruct(config, out, tol):
    # translates of a validated generator are orthonormal, so the exact
    # reconstruction error is 0 for every vector and exponent
    params = config["params"]
    want = {str(p): 0.0 for p in params["p_list"]}
    problems = compare(out.get("max_relative_error"), want, tol, "max_relative_error")
    problems += compare(out.get("num_vectors"), params["num_vectors"], tol, "num_vectors")
    return problems


def _check_suppression_scan(config, out, tol):
    params = config["params"]
    _, _, constant = _certificates(params)
    bs, bu = scan_bounds(_coefficients(params), params["trials"], params["window"],
                         params["p"], config["seed"])
    problems = compare(out.get("suppression_constant"), constant, tol,
                       "suppression_constant")
    problems += compare(out.get("suppression_lower_bound"), bs, tol,
                        "suppression_lower_bound")
    problems += compare(out.get("unconditional_lower_bound"), bu, tol,
                        "unconditional_lower_bound")
    problems += compare(out.get("bracket"), [bs, constant], tol, "bracket")
    return problems


def _check_young_fuzz(config, out, tol):
    # lhs <= rhs on every draw, with equality for the unit indicator
    params = config["params"]
    ratio = young_ratio(params["draws"], params["max_terms"], params["p_list"],
                        config["seed"])
    problems = compare(out.get("equality_gap"), 0.0, tol, "equality_gap")
    problems += compare(out.get("max_ratio"), ratio, tol, "max_ratio")
    problems += compare(out.get("draws"), params["draws"], tol, "draws")
    return problems


def _check_sampling_sweep(config, out, tol):
    params = config["params"]
    rows = out.get("rows")
    if not isinstance(rows, list) or len(rows) != len(params["steps"]):
        return [f"rows: got {rows!r}, want {len(params['steps'])} rows"]
    want = sweep_errors(_coefficients(params), params["steps"], params["window"],
                        params["p"])
    problems = []
    for i, (row, (points, error)) in enumerate(zip(rows, want)):
        problems += compare(row.get("num_samples"), points, tol, f"rows[{i}].num_samples")
        problems += compare(row.get("max_error"), error, tol, f"rows[{i}].max_error")
        problems += compare(row.get("exact"), error < tol, tol, f"rows[{i}].exact")
    return problems


def _check_wavelet_reconstruct(config, out, tol):
    params = config["params"]
    rows = out.get("rows")
    want = [(M, N) for M in params["M_list"] for N in params["N_list"]]
    if not isinstance(rows, list) or [(r.get("M"), r.get("N")) for r in rows] != want:
        return [f"rows: got {rows!r}, want (M, N) rows {want}"]
    problems = []
    for i, (row, (M, N)) in enumerate(zip(rows, want)):
        error, bound = haar_box_study(params["target"], params["p"], M, N)
        problems += compare(row.get("error"), error, tol, f"rows[{i}].error")
        problems += compare(row.get("oracle_bound"), bound, tol, f"rows[{i}].oracle_bound")
    return problems


def _check_wavelet_identity(config, out, tol):
    params = config["params"]
    gaps = out.get("gaps")
    want = [(p, M, N) for p in params["p_list"] for M in params["M_list"]
            for N in params["N_list"]]
    if not isinstance(gaps, list) or [(g.get("p"), g.get("M"), g.get("N"))
                                      for g in gaps] != want:
        return [f"gaps: got {gaps!r}, want (p, M, N) entries {want}"]
    problems = []
    for i, g in enumerate(gaps):
        problems += compare(g.get("gap"), 0.0, tol, f"gaps[{i}].gap")
    return problems


def _check_counterexample(config, out, tol):
    flags = ("full_reconstruction_exact", "restricted_coordinates_all_one",
             "restricted_escapes_c0", "dual_series_matches_direct",
             "dual_action_matches_sum")
    want = {flag: True for flag in flags}
    want["K"] = config["params"]["K"]
    return compare({k: out.get(k) for k in want}, want, tol, "report")


def _check_diagnostics(config, out, tol):
    window = config["params"]["window"]
    p = config["params"]["p"]
    q = p / (p - 1.0)
    support = min(6, window)
    lp_tails = []
    for j in range(window):
        tail = [(1.0 / (n + 1)) ** q for n in range(j + 1, support)]
        lp_tails.append(math.fsum(tail) ** (1.0 / q) if tail else 0.0)
    want = {
        "window": window,
        "p": p,
        "l1_allones_tail_norms": [1.0] * (window - 1),
        "lp_tail_norms": lp_tails,
        "c0_allones_increments": [1.0] * (window - 1),
        "c0_non_cauchy": True,
    }
    return compare({k: out.get(k) for k in want}, want, tol, "report")


KIND_CHECKS = {
    "validate-generator": _check_validate_generator,
    "biorthogonality": _check_biorthogonality,
    "reconstruct": _check_reconstruct,
    "suppression-scan": _check_suppression_scan,
    "young-fuzz": _check_young_fuzz,
    "sampling-sweep": _check_sampling_sweep,
    "wavelet-reconstruct": _check_wavelet_reconstruct,
    "wavelet-identity": _check_wavelet_identity,
    "counterexample": _check_counterexample,
    "diagnostics": _check_diagnostics,
}


def check_job(config, exit_code, payload, references):
    """Problems with one job's outcome; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if payload is None:
        return ["no JSON artifact"]
    problems = []
    if payload.get("kind") != config["kind"] or payload.get("seed") != config["seed"]:
        problems.append("artifact kind or seed does not echo the config")
    tol = payload.get("tol")
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not tol >= 0:
        return problems + [f"tol {tol!r} is not a nonnegative number"]
    out = result_fields(payload)
    # sampling-sweep reports no verdict of its own
    if config["kind"] != "sampling-sweep":
        verdict = out.get("report", {}).get("ok") if "report" in out else out.get("passed")
        problems += compare(verdict, True, tol, "verdict")
    problems += KIND_CHECKS[config["kind"]](config, out, tol)
    key = reference_key(config)
    if key in references:
        problems += compare(out, references[key], tol, "reference")
    return problems
