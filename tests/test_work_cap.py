"""One work model sizes every CLI job.

Each kind declares ``work(params)`` in ``cli.KINDS``, in cell operations, and
``validate_config`` refuses a job whose work exceeds ``cli.MAX_WORK``.  Held
here:

* no cap is looser than the three it replaced: every config that the former
  fold, lattice and sampling caps refused (copied below as ``former_*``)
  still exits 1;
* along each capped kind's costliest axis (``AXES``), one step past the cap
  exits 1 at once, writes nothing and allocates under 1 MB, and the largest
  admitted job ends with a verdict within 10 s in a subprocess;
* the benchmark's jobs (read from ``bench/workloads.py`` at seeds 0-20 and
  777), the README's examples and criterion 10's argvs are admitted;
* a fuzzer over the config schema: ``main`` ends with exit 0, 1, 2 or 3 and
  raises nothing, under an alarm that a hang would set off.
"""

import contextlib
import importlib.util
import io
import json
import math
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from framelab import cli
from framelab.cli import (KINDS, MAX_GRAM_WINDOW, MAX_LIST, MAX_M, MAX_N, MAX_WINDOW,
                          MAX_WORK, ConfigError, main, validate_config)
from framelab.translate_frame import RademacherSpec

ROOT = pathlib.Path(__file__).resolve().parent.parent


def parsed(kind, params):
    """A config's params as ``validate_config`` parses them, before its cap."""
    out = {}
    for name, spec in KINDS[kind].params.items():
        value = params.get(name, spec.default)
        out[name] = None if value is None else spec.check(name, value)
    return out


def work(kind, params):
    return KINDS[kind].work(parsed(kind, params))


def rademacher(terms):
    """The unit-l2 Rademacher record of ``terms`` equal coefficients at 0 .. terms - 1."""
    return {"rademacher": {"coefficients": [[n, 1 / math.sqrt(terms)] for n in range(terms)]}}


INDICATOR = {"indicator": [0.0, 0.3]}

# kind: (its params at n along its costliest axis, the axis' largest value).
# Measured on a 2-core x86-64 machine, the largest admitted job of each axis
# took 0.2-0.8 s of process wall time, and 3.2-3.4 s (reconstruct) and
# 3.4-4.8 s (suppression-scan) at window 1, where each vector or trial costs the same
# few dozen numpy calls however short it is; at windows 16, 256 and 2^14
# they took 0.7 s or less.
AXES = {
    "validate-generator": (lambda n: {"generator": rademacher(n)}, 16),
    "biorthogonality": (lambda n: {"generator": rademacher(n), "window": MAX_GRAM_WINDOW}, 16),
    "reconstruct": (lambda n: {"window": 1, "num_vectors": n}, 10 ** 6),
    "suppression-scan": (lambda n: {"window": 1, "trials": n}, 10 ** 6),
    "young-fuzz": (lambda n: {"max_terms": 1, "draws": n}, 10 ** 6),
    "wavelet-reconstruct": (lambda n: {"target": INDICATOR, "M_list": [MAX_M] * n,
                                       "N_list": [MAX_N]}, MAX_LIST),
    "wavelet-identity": (lambda n: {"target": INDICATOR, "p_list": [2.0],
                                    "M_list": [MAX_M] * n, "N_list": [MAX_N]}, MAX_LIST),
    "sampling-sweep": (lambda n: {"window": 64, "steps": [1 / n]}, 2 ** 40),
}


def largest(kind):
    """The largest n of ``AXES[kind]`` whose job's work is within MAX_WORK."""
    build, hi = AXES[kind]
    lo = 1
    assert work(kind, build(lo)) <= MAX_WORK < work(kind, build(hi))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if work(kind, build(mid)) <= MAX_WORK else (lo, mid - 1)
    return lo


def test_every_kind_declares_its_work_and_the_discrete_ones_stay_small():
    assert set(AXES) | {"counterexample", "diagnostics"} == set(KINDS)
    # the discrete kinds are linear in sizes the schema bounds by MAX_WINDOW
    assert work("counterexample", {"K": MAX_WINDOW, "reconstruction_limit": MAX_WINDOW}) \
        < MAX_WORK / 16
    assert work("diagnostics", {"window": MAX_WINDOW}) < MAX_WORK / 16


def test_the_one_pass_kinds_keep_the_fold_cap_and_the_repeated_ones_count_repetitions():
    # 14 and 8 equal terms fold to 14 x 2^14 and 8 x 2^8 cells
    assert (largest("validate-generator"), largest("biorthogonality")) == (14, 8)
    assert work("validate-generator", {"generator": rademacher(14)}) == 14 * 2 ** 14 * 15
    # eight schema-maximum rows sit exactly at the cap, as under the lattice cap
    assert (largest("wavelet-reconstruct"), largest("wavelet-identity")) == (8, 8)
    assert work("wavelet-reconstruct", AXES["wavelet-reconstruct"][0](8)) == MAX_WORK
    # at window 2^14 a unit generator's vector is one fold pass (2 x (1 + 2^15 + 1)
    # cells) and six norms of 2^15 + 1 and 2^15 + 3 entries: 15 vectors fit
    one = work("reconstruct", {"window": MAX_WINDOW, "num_vectors": 1})
    assert one == 2 * (2 + 2 * MAX_WINDOW) + 3 * 2 * (2 * MAX_WINDOW + 2)
    assert MAX_WORK // one == 15
    # the benchmark's tightest job: 30 trials of 8 units x 256 cells at window 8
    scan = {"generator": rademacher(8), "window": 8, "trials": 30}
    assert work("suppression-scan", scan) == 30 * (2 * 8 * 256 * 25 + 24 * 256 + 34)
    assert work("suppression-scan", scan) < MAX_WORK / 1.25


@pytest.mark.parametrize("kind", sorted(AXES))
def test_one_step_past_the_cap_is_a_config_error(tmp_path, capsys, kind):
    path = tmp_path / "over.json"
    path.write_text(json.dumps({"params": AXES[kind][0](largest(kind) + 1)}))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main([kind, "--config", str(path), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert re.fullmatch(rf"config error: {kind} job too large: about 2\^22\.\d cell "
                        r"operations, over the cap of 2\^22\n", capsys.readouterr().err)
    assert peak < 2 ** 20
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("kind", sorted(AXES))
def test_the_largest_admitted_job_ends_with_a_verdict(tmp_path, cli_env, kind):
    config = {"kind": kind, "params": AXES[kind][0](largest(kind)), "out": "max"}
    (tmp_path / "max.config.json").write_text(json.dumps(config))
    proc = subprocess.run([sys.executable, "-m", "framelab.cli", "run", "max.config.json",
                           "--quiet"], cwd=tmp_path, env=cli_env, capture_output=True,
                          text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "max.json").read_text())["kind"] == kind


# -- no cap is loosened -----------------------------------------------------------

FORMER_FOLD_CAP = 2 ** 22
FORMER_LATTICE_CAP = 2 ** 20
FORMER_SAMPLING_CAP = 2 ** 20


def former_fold_shape(generator):
    if isinstance(generator, RademacherSpec):
        n = generator.coefficients.support()
        if not n:
            return 0, 0
        return n[-1] - n[0] + 1, 2 ** min(len(n) - 1 + generator.resolution, 64)
    lo, hi = generator.support() or (0.0, 0.0)
    return math.ceil(hi) - math.floor(lo), generator.breakpoints.size + 1


def former_fold_work(generator, window):
    units, cells = former_fold_shape(generator)
    return units * cells * (units + 2 * window + 1)


def former_sampling_work(params):
    coords = 2 * params["window"] + 1
    width = former_fold_shape(params["generator"])[0] + 2 * params["window"]
    return sum(width / h + 1 + coords for h in params["steps"]) * coords


def former_lattice_work(params):
    members = sum(2 * (2 * M) ** 2 * N ** 2
                  for M in params["M_list"] for N in params["N_list"])
    return members * len(params.get("p_list", [params.get("p")]))


def formerly_refused(params):
    """Whether the three former caps refused parsed ``params``, in their order."""
    if params.get("generator") is not None and former_fold_work(
            params["generator"], params.get("window", 0)) > FORMER_FOLD_CAP:
        return True
    if "M_list" in params and former_lattice_work(params) > FORMER_LATTICE_CAP:
        return True
    return "steps" in params and former_sampling_work(params) > FORMER_SAMPLING_CAP


def generator_records():
    """Rademacher records of 1-16 terms, on spans near and far past the fold
    cap, at resolutions 1-16, and step records of 1-64 cells over spans of
    1 to 10^6 units."""
    def rademacher_record(indices, resolution):
        return {"rademacher": {"coefficients": [[n, 0.5] for n in indices],
                               "resolution": resolution}}

    def step_record(start, span, cells):
        return {"step_function": {"breakpoints": [start + span * i / cells
                                                  for i in range(cells + 1)],
                                  "values": [(-1.0) ** i for i in range(cells)]}}

    indices = st.one_of(st.lists(st.integers(-20, 20), min_size=1, max_size=16, unique=True),
                        st.lists(st.integers(-MAX_WINDOW, MAX_WINDOW), min_size=1,
                                 max_size=4, unique=True))
    return st.one_of(
        st.builds(rademacher_record, indices, st.integers(1, 16)),
        st.builds(step_record, st.integers(-8, 8), st.sampled_from([1, 3, 40, 1000, 10 ** 6]),
                  st.integers(1, 64)))


def window(hi):
    return st.one_of(st.integers(1, hi), st.sampled_from([1, 8, hi // 2, hi]))


def sizes(hi):
    return st.one_of(st.integers(1, 64), st.integers(1, hi))


def floats_list(*values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=MAX_LIST)


SIZED = {
    "validate-generator": {"generator": generator_records()},
    "biorthogonality": {"generator": generator_records(), "window": window(MAX_GRAM_WINDOW)},
    "reconstruct": {"generator": generator_records(), "window": window(MAX_WINDOW),
                    "num_vectors": sizes(10 ** 6), "p_list": floats_list(1.5, 2.0, 3.0)},
    "suppression-scan": {"generator": generator_records(), "window": window(MAX_WINDOW),
                         "trials": sizes(10 ** 6)},
    "young-fuzz": {"draws": sizes(10 ** 6), "max_terms": st.integers(1, 7)},
    "wavelet-reconstruct": {"M_list": st.lists(st.integers(1, MAX_M), min_size=1, max_size=16),
                            "N_list": st.lists(st.integers(1, MAX_N), min_size=1, max_size=4)},
    "wavelet-identity": {"p_list": floats_list(2.0, 3.0),
                         "M_list": st.lists(st.integers(1, MAX_M), min_size=1, max_size=16),
                         "N_list": st.lists(st.integers(1, MAX_N), min_size=1, max_size=4)},
    "sampling-sweep": {"generator": generator_records(), "window": window(64),
                       "steps": st.lists(st.floats(-24, 4).map(lambda e: 2.0 ** e),
                                         min_size=1, max_size=8)},
}
sized_configs = st.sampled_from(sorted(SIZED)).flatmap(
    lambda kind: st.fixed_dictionaries({"kind": st.just(kind),
                                        "params": st.fixed_dictionaries(SIZED[kind])}))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sized_configs)
@example({"kind": "biorthogonality", "params": {"generator": rademacher(9),
                                                "window": 451}})
@example({"kind": "sampling-sweep", "params": {"window": 64, "steps": [0.001]}})
@example({"kind": "wavelet-identity", "params": {"p_list": [1.5, 2.0, 3.0],
                                                 "M_list": [8, 8, 8], "N_list": [16]}})
@example({"kind": "sampling-sweep", "params": {
    "generator": {"step_function": {"breakpoints": [-1e308, 1e308], "values": [1.0]}},
    "steps": [1e-300]}})
def test_every_config_the_former_caps_refused_still_exits_1(config):
    try:
        params = parsed(config["kind"], config["params"])
    except ConfigError:
        return      # a record no cap sees
    if not formerly_refused(params):
        return
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        path = pathlib.Path(tmp) / "config.json"
        path.write_text(json.dumps({**config, "out": str(pathlib.Path(tmp) / "out")}))
        assert main(["run", str(path)]) == 1
        assert sorted(p.name for p in pathlib.Path(tmp).iterdir()) == ["config.json"]
    assert f"config error: {config['kind']} job too large" in err.getvalue()


# -- what stays admitted ------------------------------------------------------------


def load_workloads():
    """``bench/workloads.py``, loaded from its file without importing ``bench``."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_job_is_admitted():
    workloads = load_workloads()
    for seed in [*range(21), 777]:
        for workload in workloads.WORKLOADS:
            for job in workloads.make_jobs(workload, seed):
                validate_config(job["config"])


README_GENERATOR = '{"rademacher": {"coefficients": [[0, 0.6], [1, 0.8]]}}'
ADMITTED_ARGVS = [
    # the README's examples, as flags and as its config file's params
    ["suppression-scan", "--trials", "500", "--generator", README_GENERATOR, "--out", "scan"],
    ["suppression-scan", "--trials", "500", "--seed", "0", "--generator", README_GENERATOR],
    # criterion 10's
    ["suppression-scan", "--trials", "50", "--window", "4", "--seed", "5"],
    ["wavelet-reconstruct", "--M-list", "1,2", "--N-list", "1,2"],
    ["sampling-sweep", "--steps", "0.5,0.25", "--window", "3"],
]


@pytest.mark.parametrize("argv", ADMITTED_ARGVS)
def test_the_readme_and_criterion_10_argvs_are_admitted(argv):
    validate_config(cli._collect_config(cli.build_parser().parse_args(argv)))


# -- a fuzzer over the config schema -------------------------------------------------

EDGE_INTS = [-1, 0, 1, 2, 3, 7, 8, 9, 16, 17, 64, 65, 512, 513, MAX_WINDOW, MAX_WINDOW + 1,
             10 ** 6, 10 ** 6 + 1, 2 ** 32, 2 ** 63, 10 ** 400]
EDGE_FLOATS = [0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), 1.5, 2.0, 3.0, 16.0,
               math.nextafter(16.0, 17.0), 1e-9, 5e-324, 1 / 3, 0.37, 1e308, -1e308,
               math.nan, math.inf, -math.inf]
numbers = st.sampled_from(EDGE_INTS + EDGE_FLOATS)
nested = st.recursive(st.none() | st.booleans() | st.integers(-2, 2) | st.text(max_size=3),
                      lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                      max_leaves=8)
junk = st.one_of(nested, st.just("[" * 50), st.just({"": {"": {"": [[[]]]}}}))
values = st.one_of(numbers, junk)
lists = st.one_of(st.lists(numbers, max_size=4), st.lists(numbers, min_size=MAX_LIST,
                                                          max_size=MAX_LIST + 1))
step_records = st.fixed_dictionaries({"breakpoints": lists, "values": lists}).map(
    lambda body: {"step_function": body})
rademacher_records = st.fixed_dictionaries(
    {"coefficients": st.lists(st.tuples(numbers, numbers).map(list), max_size=4) | junk},
    optional={"resolution": values}).map(lambda body: {"rademacher": body})
records = {
    "generator": st.one_of(rademacher_records, step_records, junk, st.sampled_from([
        rademacher(1), rademacher(8), rademacher(14),
        {"rademacher": {"coefficients": [[0, 0.6], [1, 0.6]]}},
        {"step_function": {"breakpoints": [0.0, 2.0], "values": [1.0]}}])),
    "target": st.one_of(st.just({"named": "haar"}), st.just(INDICATOR), step_records,
                        st.tuples(numbers, numbers).map(lambda ab: {"indicator": list(ab)}),
                        junk),
}


def accepted(spec, name, value):
    try:
        spec.check(name, value)
    except ConfigError:
        return False
    return True


def mostly(usual, rare):
    """``usual`` in nine draws of ten, ``rare`` in the tenth."""
    return st.sampled_from([True] * 9 + [False]).flatmap(lambda ok: usual if ok else rare)


def param_values(kind, name):
    """Mostly a record or an edge value that the param accepts; else any value."""
    spec = KINDS[kind].params[name]
    if name in records:
        usual = records[name]
    elif isinstance(spec.default, list):
        entries = [v for v in EDGE_INTS + EDGE_FLOATS if accepted(spec, name, [v])]
        usual = st.one_of(st.lists(st.sampled_from(entries), min_size=1, max_size=4), lists)
    else:
        usual = st.sampled_from([v for v in EDGE_INTS + EDGE_FLOATS if accepted(spec, name, v)])
    return mostly(usual, values)


def fuzzed(kind):
    params = st.fixed_dictionaries(
        {}, optional={name: param_values(kind, name) for name in KINDS[kind].params})
    return st.fixed_dictionaries(
        {"kind": st.just(kind), "params": mostly(params, junk)},
        optional={"seed": mostly(st.sampled_from([0, 7, 2 ** 32 - 1]), values),
                  "tol": mostly(st.sampled_from([0.0, 1e-9]), values)})


configs = mostly(st.sampled_from(sorted(KINDS)).flatmap(fuzzed),
                 st.one_of(st.fixed_dictionaries({"kind": values}), junk))


class Hang(Exception):
    pass


def on_alarm(signum, frame):
    raise Hang("a config ran past its alarm")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs)
def test_a_fuzzed_config_ends_with_an_exit_code(config):
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        path = pathlib.Path(tmp) / "config.json"
        if isinstance(config, dict):
            config = {**config, "out": str(pathlib.Path(tmp) / "out")}
        path.write_text(json.dumps(config))
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, 30.0)
        try:
            code = main(["run", str(path), "--quiet"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2, 3)
