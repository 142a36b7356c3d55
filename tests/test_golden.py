"""Byte-identity of the CLI artifacts against pinned copies.

Each config below runs through ``main``; it must end with its exit code in
``EXIT_CODES`` (0 when absent), and its JSON artifact (and CSV, where the
kind writes one) must equal the file of the same name under
``tests/golden`` byte for byte.  The translate-frame files were written by
this same ``main`` before the unit fold of a generator moved onto
``Generator`` and before the lattice filter of ``SamplingPlan.points`` was
vectorised; the wavelet, counterexample and diagnostics files before the
cell-grid merge, the cell widths and the wavelet lattice dropped
``np.unique``, ``np.diff`` and ``np.meshgrid``; the validate-generator
files other than the contiguous record's before that kind certified its
generator through the same builder as the other generator kinds; the
counterexample and diagnostics runs at the discrete-frames benchmark's sizes
before the triple frame was built with its coordinate index; the young-fuzz
run at the translate-scan benchmark's size before a young-fuzz job ran as
one array program.  Six files were recorded again, in their last bits only,
when every sum of the library became an np.add.reduce of the products and
each identity gap the Lp distance the convergence study takes: the
validate-generator run's ``l1_norm`` and ``suppression_constant``, which
``np.dot`` had summed; the suppression-scan's ``suppression_constant`` and
upper bracket; the sampling-sweep's ``max_error`` at h = 1/64 and 0.185, in
its JSON and CSV; and the Haar and step wavelet-identity gaps.  Two were
recorded again, in their last bits only, when every generator's L1 norm
came to be summed on the cells of its unit fold: the validate-generator
run's ``l1_norm`` and ``suppression_constant``, and the suppression-scan's
``suppression_constant`` and upper bracket.  A change that claims to keep
every artifact is held to it here.

The generators are dyadic Rademacher generators like the benchmark's: six
Gaussian unit-l2 coefficients at 0..5 (64 cells a unit), and four at
-2, 0, 1, 4, which leaves gaps in the support.  validate-generator also
runs a step function that crosses a unit boundary, which reconstruct runs
at its defaults too, and three records it rejects: non-unit
coefficients, a record that passes only at a nonzero
tolerance, and the indicator of [0, 2); the last two were recorded again
when their orthonormality failure began to print the residual and the
tolerance in full.  The indicator of [-0.3, 0.7) was pinned before the unit
fold kept every distinct fractional part: -0.3 lies in (-0.5, 0), where the
fractional part t + 1 rounds.  Two records the CLI refused until then were
pinned after it: the indicator of [0.1, 1.1), whose translates overlap on
the 8.3e-17 between 0.1 and 1.1 - 1, and a non-dyadic record it rejects,
whose periodized sup (1.75) is read on such a sliver.  The wavelet targets are the benchmark's
three: the indicator of [0, 0.3), the Haar mother and a step function on
sixteenths of [0, 1).  The wavelet-reconstruct run at M = 3,
N = 8 is the benchmark's largest merge.

Every config runs a second time as subcommand flags (records as inline
JSON, lists as comma-joined ``repr`` texts), and must match the same pins.

Every config runs a third time with ``sum`` in each framelab module
replaced by an emulation of Python 3.12's compensated ``sum()``
(``compensated_sum``), and must match the same pins: no pinned float may
rest on where a Python float sum rounds.

Every config runs again in a subprocess under each profile of ``PROFILES``,
kernels that other CPUs pick, set by environment only, and must match the
same pins: OpenBLAS's Haswell kernel, and glibc's libm without its AVX2 and
FMA variants.  A profile the machine cannot take is skipped, with the reason.

Run as a script, ``python tests/test_golden.py`` writes every pinned file
again with this checkout's ``main``, after every config has ended with its
expected exit code; ``python tests/test_golden.py --check`` writes nothing
and exits nonzero, naming each config whose exit code or artifacts differ
from the pins.
"""

import builtins
import importlib
import json
import math
import os
import pathlib
import pkgutil
import shutil
import subprocess
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from framelab.cli import main  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"

CONTIGUOUS = {"rademacher": {"coefficients": [
    [0, -0.36416343372860027], [1, 0.029451595484672695], [2, -0.5375022521674642],
    [3, -0.6804625584011997], [4, 0.2717565893119529], [5, -0.20181176564545122]]}}
GAPPED = {"rademacher": {"coefficients": [[-2, 0.5], [0, -0.5], [1, 0.5], [4, 0.5]],
                         "resolution": 2}}
INDICATOR = {"indicator": [0.0, 0.3]}
HAAR = {"named": "haar"}
# unit norm, orthogonal to its translates, across the integer 0
STEP_GENERATOR = {"step_function": {
    "breakpoints": [-0.5, 0.0, 0.5, 1.0, 1.5],
    "values": [0.7071067811865476, 0.7071067811865476, 0.7071067811865476,
               -0.7071067811865476]}}
STEP = {"step_function": {"breakpoints": [0.0, 0.1875, 0.5, 0.625, 0.8125, 1.0],
                          "values": [0.42, -1.37, 0.8, 2.05, -0.61]}}

CONFIGS = {
    "validate-generator": {"kind": "validate-generator", "seed": 777,
                           "params": {"generator": CONTIGUOUS}},
    "validate-generator-gapped": {"kind": "validate-generator", "seed": 777,
                                  "params": {"generator": GAPPED, "lag_range": 7}},
    "validate-generator-step": {"kind": "validate-generator", "seed": 777,
                                "params": {"generator": STEP_GENERATOR}},
    "validate-generator-non-unit": {
        "kind": "validate-generator", "seed": 777,
        "params": {"generator": {"rademacher": {"coefficients": [[0, 0.6], [1, 0.6]]}}}},
    # squares sum to 1 + 1.6e-13: only a zero tolerance rejects it
    "validate-generator-tol-0": {
        "kind": "validate-generator", "seed": 777, "tol": 0.0,
        "params": {"generator": {"rademacher": {"coefficients": [[0, 0.6],
                                                                 [1, 0.8 + 1e-13]]}},
                   "lag_range": 5}},
    "validate-generator-indicator": {
        "kind": "validate-generator", "seed": 777,
        "params": {"generator": {"step_function": {"breakpoints": [0.0, 2.0],
                                                   "values": [1.0]}}}},
    # fractional parts 0.1 and 1.1 - 1, 8.3e-17 apart: translates overlap there
    "validate-generator-decimal": {
        "kind": "validate-generator", "seed": 777,
        "params": {"generator": {"step_function": {"breakpoints": [0.1, 1.1],
                                                   "values": [1.0]}}}},
    "validate-generator-non-dyadic": {
        "kind": "validate-generator", "seed": 777,
        "params": {"generator": {"step_function": {
            "breakpoints": [0.1, 0.6, 1.1, 1.35, 2.1], "values": [0.5, -1.0, 0.75, 0.25]}}}},
    # -0.3 + 1 rounds: the one kind of breakpoint whose fractional part is inexact
    "validate-generator-negative-decimal": {
        "kind": "validate-generator", "seed": 777,
        "params": {"generator": {"step_function": {"breakpoints": [-0.3, 0.7],
                                                   "values": [1.0]}}}},
    "biorthogonality": {"kind": "biorthogonality", "seed": 777,
                        "params": {"generator": CONTIGUOUS, "window": 6}},
    "reconstruct": {"kind": "reconstruct", "seed": 777,
                    "params": {"generator": CONTIGUOUS, "window": 4, "num_vectors": 5,
                               "p_list": [1.5, 2.0, 3.0]}},
    "reconstruct-gapped": {"kind": "reconstruct", "seed": 778,
                           "params": {"generator": GAPPED, "window": 5, "num_vectors": 3,
                                      "p_list": [2.0]}},
    # support [-0.5, 1.5]: two units wide, three fold rows
    "reconstruct-step": {"kind": "reconstruct", "seed": 777,
                         "params": {"generator": STEP_GENERATOR}},
    "suppression-scan": {"kind": "suppression-scan", "seed": 777,
                         "params": {"generator": CONTIGUOUS, "window": 4, "trials": 6,
                                    "p": 2.0}},
    "young-fuzz": {"kind": "young-fuzz", "seed": 777,
                   "params": {"draws": 15, "max_terms": 7, "p_list": [1.5, 2.0, 3.0]}},
    # the translate-scan benchmark's size; its max_ratio sits one ulp above 1,
    # so a moved last bit of any draw's lhs or rhs shows here
    "young-fuzz-bench": {"kind": "young-fuzz", "seed": 775,
                         "params": {"draws": 60, "max_terms": 7,
                                    "p_list": [1.5, 2.0, 3.0]}},
    "sampling-sweep": {"kind": "sampling-sweep", "seed": 777,
                       "params": {"generator": CONTIGUOUS, "window": 2,
                                  "steps": [1.0 / 64.0, 0.37, 0.185], "p": 2.0}},
    "sampling-sweep-gapped": {"kind": "sampling-sweep", "seed": 778,
                              "params": {"generator": GAPPED, "window": 1,
                                         "steps": [1.0 / 32.0, 0.3], "p": 3.0}},
    "wavelet-reconstruct-haar": {"kind": "wavelet-reconstruct", "seed": 777,
                                 "params": {"target": HAAR, "p": 1.5, "M_list": [1, 2, 3],
                                            "N_list": [1, 2, 4]}},
    "wavelet-reconstruct-indicator": {"kind": "wavelet-reconstruct", "seed": 777,
                                      "params": {"target": INDICATOR, "p": 3.0,
                                                 "M_list": [3], "N_list": [8]}},
    "wavelet-reconstruct-step": {"kind": "wavelet-reconstruct", "seed": 777,
                                 "params": {"target": STEP, "p": 2.0, "M_list": [1, 2],
                                            "N_list": [1, 3]}},
    "wavelet-identity-indicator": {"kind": "wavelet-identity", "seed": 777,
                                   "params": {"target": INDICATOR, "p_list": [1.5, 2.0, 3.0],
                                              "M_list": [1, 2], "N_list": [1, 2]}},
    "wavelet-identity-haar": {"kind": "wavelet-identity", "seed": 777,
                              "params": {"target": HAAR, "p_list": [2.0], "M_list": [2],
                                         "N_list": [3]}},
    "wavelet-identity-step": {"kind": "wavelet-identity", "seed": 777,
                              "params": {"target": STEP, "p_list": [1.5, 3.0],
                                         "M_list": [1, 2], "N_list": [2, 3]}},
    "counterexample": {"kind": "counterexample", "seed": 777,
                       "params": {"K": 50, "reconstruction_limit": 50}},
    "counterexample-large": {"kind": "counterexample", "seed": 777,
                             "params": {"K": 2000, "reconstruction_limit": 30}},
    "diagnostics": {"kind": "diagnostics", "seed": 777,
                    "params": {"window": 12, "p": 2.0}},
    "diagnostics-wide": {"kind": "diagnostics", "seed": 777,
                         "params": {"window": 60, "p": 3.0}},
    # the discrete-frames benchmark's sizes
    "counterexample-bench": {"kind": "counterexample", "seed": 777,
                             "params": {"K": 10000, "reconstruction_limit": 50}},
    "diagnostics-bench-p2": {"kind": "diagnostics", "seed": 777,
                             "params": {"window": 400, "p": 2.0}},
    "diagnostics-bench-p4": {"kind": "diagnostics", "seed": 777,
                             "params": {"window": 400, "p": 4.0}},
}


# the configs that end with an exit code other than 0
EXIT_CODES = {
    "validate-generator-non-unit": 2,
    "validate-generator-tol-0": 2,
    "validate-generator-indicator": 2,
    "validate-generator-non-dyadic": 2,
}


def flag_text(value):
    """The flag text of a config value: inline JSON for a record, comma-joined
    ``repr`` for a list, and ``repr`` for a number."""
    if isinstance(value, dict):
        return json.dumps(value)
    if isinstance(value, list):
        return ",".join(map(repr, value))
    return repr(value)


def run(name, out_dir, form="config"):
    """Run config ``name`` through ``main``, writing into ``out_dir``; its exit code.

    In the ``"config"`` form the config goes in a config file; in the
    ``"flags"`` form the same config goes as subcommand flags."""
    config = CONFIGS[name]
    if form == "config":
        path = out_dir / "config.json"
        path.write_text(json.dumps(config))
        argv = ["run", str(path)]
    else:
        argv = [config["kind"], "--seed", str(config["seed"])]
        if "tol" in config:
            argv += ["--tol", repr(config["tol"])]
        for param, value in config["params"].items():
            argv += ["--" + param.replace("_", "-"), flag_text(value)]
    return main([*argv, "--out", str(out_dir / name), "--quiet"])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_the_pinned_copies(tmp_path, name, form="config"):
    assert run(name, tmp_path, form) == EXIT_CODES.get(name, 0)
    pinned = sorted(p.name for p in GOLDEN.glob(f"{name}.*"))
    assert pinned, f"no pinned artifact for {name}"
    written = sorted(p.name for p in tmp_path.glob(f"{name}.*"))
    assert written == pinned
    for fname in pinned:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / fname).read_bytes(), fname


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_flag_runs_match_the_pinned_copies(tmp_path, name):
    # the flag texts go through each Param's parse before its check
    test_artifacts_match_the_pinned_copies(tmp_path, name, form="flags")


def compensated_sum(iterable, /, start=0):
    """``sum`` as Python 3.12 computes it ("Changed in version 3.12" in the docs
    of ``sum``), emulated: exact ints first, then Neumaier's compensated sum
    of exact floats, with ints added as floats, and the compensation added
    at the end only if it is nonzero and finite; any other item hands the
    rest to the plain left-to-right sum."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if not isinstance(item, int):
                break
    if type(total) is not float:
        return builtins.sum(items, total)
    c = 0.0
    for x in items:
        if type(x) is float:
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        elif isinstance(x, int):
            total += float(x)
        else:
            return builtins.sum(items, total + (c if c and math.isfinite(c) else 0.0) + x)
    return total + c if c and math.isfinite(c) else total


def test_the_emulated_sum_compensates():
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0
    assert compensated_sum([3, True, 2]) == 6 and type(compensated_sum([1, 2])) is int
    assert compensated_sum([]) == 0 and compensated_sum([-0.0], -0.0) == -0.0


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_under_a_compensated_sum(tmp_path, monkeypatch, name):
    package = importlib.import_module("framelab")
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"framelab.{info.name}")
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    test_artifacts_match_the_pinned_copies(tmp_path, name)


# Kernel profiles of other CPUs, each set by environment alone, and the CPU
# feature it needs, as numpy reports it, or None: OpenBLAS's Haswell kernel
# runs only on a CPU with AVX2.
PROFILES = {
    "openblas-haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, "AVX2"),
    "glibc-without-avx2-fma": ({"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"}, None),
}


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_artifacts_match_under_other_cpu_kernels(profile):
    from numpy._core._multiarray_umath import __cpu_features__
    env, needs = PROFILES[profile]
    if needs is not None and not __cpu_features__.get(needs):
        pytest.skip(f"profile {profile} needs {needs}, which this CPU lacks")
    done = subprocess.run([sys.executable, __file__, "--check"], env={**os.environ, **env},
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr


def run_every_config(tmp):
    """Run every config in the config form, each in its own directory under
    ``tmp``; yield its name, its exit code and the files it wrote."""
    for name in sorted(CONFIGS):
        out_dir = pathlib.Path(tmp) / name
        out_dir.mkdir()
        code = run(name, out_dir)
        yield name, code, sorted(out_dir.glob(f"{name}.*"))


def check():
    """Run every config; exit nonzero, naming each config whose exit code or
    artifacts differ from the pins."""
    def contents(paths):
        return {path.name: path.read_bytes() for path in paths}

    with tempfile.TemporaryDirectory() as tmp:
        differing = [name for name, code, written in run_every_config(tmp)
                     if code != EXIT_CODES.get(name, 0) or not written
                     or contents(written) != contents(GOLDEN.glob(f"{name}.*"))]
    if differing:
        sys.exit("differ from the pins: " + ", ".join(differing))


def record():
    """Write the pinned files of every config again; exit nonzero, writing
    nothing, if a config ends with an exit code other than its expected one."""
    with tempfile.TemporaryDirectory() as tmp:
        written = []
        for name, code, files in run_every_config(tmp):
            expected = EXIT_CODES.get(name, 0)
            if code != expected:
                sys.exit(f"{name}: exit code {code}, expected {expected}")
            written += files
        for name in CONFIGS:
            for old in GOLDEN.glob(f"{name}.*"):
                old.unlink()
        for path in written:
            shutil.copyfile(path, GOLDEN / path.name)
            print(f"pinned {GOLDEN / path.name}")


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: python tests/test_golden.py [--check]")
    check() if sys.argv[1:] else record()
