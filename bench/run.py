"""framelab benchmark: one workload, closed loop, checked outputs.

Usage (from the root of a checkout):

    python3 bench/run.py --workload translate-scan --seed 1 --seconds 20 --trace 0

One client runs the workload's job list in a closed loop: each job calls
``framelab.cli.main(["run", <config>, "--quiet"])`` in this process and
starts only after the previous job returned.  A pass is one run through
the list; passes repeat until ``--seconds`` have elapsed.  After every
pass each artifact is checked (checks.py) and one job, in rotation, is
rerun to confirm a byte-identical JSON artifact.  framelab is imported
from this checkout's ``src`` directory and nowhere else.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` first runs untraced passes, then traced passes in which
spans.Tracer wraps framelab's public functions, and prints the per-layer
metrics plus ``trace.overhead_frac``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files, the run record
and the span file go to ``.bench_work`` in the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11
# trace runs: share of --seconds spent on untraced passes, and a cap on
# traced passes, which bounds the spans held in memory
UNTRACED_SHARE = 0.4
MAX_TRACED_PASSES = 2
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
# Seconds the calibration kernel takes on the reference machine (a 2-vCPU
# Xeon VM at 2.0 GHz when its neighbours are idle).  Timings are rescaled to
# that speed; see speed_scale.
CALIBRATION_REF_S = 0.015


class BenchError(RuntimeError):
    """The benchmark cannot run here; exit nonzero without a result."""


def limit_blas_threads():
    """One BLAS thread (at most nproc); must run before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in BLAS_VARS}


def import_framelab():
    """framelab.cli from this checkout's src directory, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "framelab", "cli.py")):
        raise BenchError(f"no framelab source at {SRC}")
    sys.path.insert(0, SRC)
    import framelab.cli as cli
    imported = os.path.dirname(os.path.abspath(cli.__file__))
    if imported != os.path.join(SRC, "framelab"):
        raise BenchError(f"framelab imported from {imported}, not {SRC}")
    return cli


def measure_setup(workload, seed):
    """Fresh-process seconds from interpreter start until a job can be issued.

    Each probe is setup_probe.py in a new interpreter.  CLOCK_MONOTONIC is
    system wide on Linux, so the child's ready stamp and the parent's spawn
    stamp share a clock.  Returns (rescaled, raw) times; each probe is
    rescaled by the kernel time its own process measured.
    """
    times, raw = [], []
    workdir = tempfile.mkdtemp(prefix="setup-", dir=WORK_DIR)
    try:
        for _ in range(SETUP_PROBES):
            t0 = time.monotonic_ns()
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), workload,
                 str(seed), workdir],
                cwd=ROOT, capture_output=True, text=True, timeout=60)
            if proc.returncode != 0:
                raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
            ready, kernel = proc.stdout.split()[-2:]
            raw.append((int(ready) - t0) / 1e9)
            times.append(raw[-1] * CALIBRATION_REF_S / float(kernel))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return times, raw


def calibration_kernel():
    """Fixed interpreter-bound work that does not touch framelab.

    Small-array numpy merges and lookups plus dict and float work, the
    same kind of work framelab's calculus does.  Its duration tracks the
    speed the machine gives this process at the moment.
    """
    import numpy as np
    grid = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    table = {}
    for i in range(150):
        a = grid[:16 + i % 48]
        b = np.union1d(a, a * 0.5 + 0.25)
        mids = 0.5 * (b[:-1] + b[1:])
        idx = np.searchsorted(a, mids, side="right") - 1
        vals = np.where(idx >= 0, a[np.clip(idx, 0, a.size - 1)], 0.0)
        acc += float(np.dot(vals, np.diff(b)))
        for j in range(40):
            table[i, j] = table.get((i, j), 0.0) + j * 0.5
        acc += sum(list(table.values())[-40:])
    return acc


def timed_calibration():
    t = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t


def speed_scale(before, after):
    """Factor that rescales a time measured between two calibrations."""
    return CALIBRATION_REF_S / (0.5 * (before + after))


def call_main(cli, argv):
    """Exit code of one in-process CLI call; a raised exception is a failed job."""
    try:
        return cli.main(argv), None
    except Exception:  # a job that crashes must not stop the benchmark
        return None, traceback.format_exc(limit=3)


def run_pass(cli, jobs, paths, bases, tracer=None, pass_index=0):
    """One closed-loop pass with a calibration before and after every job.

    Returns (raw job seconds, rescaled job seconds, exit codes).
    """
    for base in bases:
        for ext in (".json", ".csv"):
            if os.path.exists(base + ext):
                os.unlink(base + ext)
    raw, scaled, codes = [], [], []
    clock = time.perf_counter
    calibration = timed_calibration()
    for i, path in enumerate(paths):
        argv = ["run", path, "--quiet"]
        t = clock()
        if tracer is None:
            code = call_main(cli, argv)
        else:
            tracer.job_id = pass_index * len(jobs) + i
            with tracer.span("bench.job"):
                code = call_main(cli, argv)
        raw.append(clock() - t)
        codes.append(code)
        after = timed_calibration()
        scaled.append(raw[-1] * speed_scale(calibration, after))
        calibration = after
    return raw, scaled, codes


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_artifact(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def check_pass(cli, jobs, paths, bases, codes, references, pass_index):
    """Problems per job index for one pass, including the rotating rerun."""
    from checks import check_job
    problems = {}
    for i, (job, base, (code, crash)) in enumerate(zip(jobs, bases, codes)):
        found = [f"raised {crash}"] if crash else check_job(
            job["config"], code, read_artifact(base + ".json"), references)
        if found:
            problems[i] = found
    k = pass_index % len(jobs)
    rerun = os.path.join(os.path.dirname(bases[k]), "rerun")
    code, crash = call_main(cli, ["run", paths[k], "--quiet", "--out", rerun])
    for ext in (".json", ".csv"):
        first, second = bases[k] + ext, rerun + ext
        if ext == ".csv" and not os.path.exists(first):
            continue
        same = (code == 0 and os.path.exists(first) and os.path.exists(second)
                and read_bytes(first) == read_bytes(second))
        if not same:
            problems.setdefault(k, []).append(f"rerun {ext} artifact is not byte-identical")
    return problems


def high_percentile(samples):
    """(label, value) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    best = None
    for q in PERCENTILES:
        rank = math.ceil(q / 100.0 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= 10:
            best = (f"p{q:g}", ordered[rank - 1])
    return best


def describe(name, samples):
    if not samples:
        return f"{name} no samples"
    hp = high_percentile(samples)
    tail = f"{hp[0]} {hp[1]:.6g} s" if hp else "no percentile has 10 samples beyond it"
    return (f"{name} {statistics.median(samples):.6g} s median, "
            f"n={len(samples)}, {tail}")


def source_digest():
    """sha256 over framelab's source files, so a run without git still names its code."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "framelab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0" + read_bytes(os.path.join(pkg, name)))
    return digest.hexdigest()


def git_revision():
    """HEAD of the checkout when it is a git repository, else None."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workload, seed, blas):
    import numpy
    return {
        "workload": workload,
        "seed": seed,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas,
        "framelab_path": SRC,
    }


def run(workload, seed, seconds, trace):
    blas = limit_blas_threads()
    cli = import_framelab()
    from checks import load_references
    from workloads import make_jobs, write_configs
    jobs = make_jobs(workload, seed)
    references = load_references()
    os.makedirs(WORK_DIR, exist_ok=True)
    setup, setup_raw = measure_setup(workload, seed)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    try:
        paths, bases = write_configs(jobs, workdir)
        record = loop(cli, jobs, paths, bases, references, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["setup"] = {"scaled": setup, "raw": setup_raw}
    record["env"] = environment(workload, seed, blas)
    return record


def loop(cli, jobs, paths, bases, references, seconds, trace):
    """Closed-loop passes (untraced, then traced when asked) with checks."""
    from spans import Tracer
    start = time.perf_counter()
    untraced_until = start + (seconds * UNTRACED_SHARE if trace else seconds)
    passes = []
    failures = {}
    tracer = Tracer() if trace else None
    while True:
        traced = bool(trace and passes and time.perf_counter() >= untraced_until)
        if traced:
            tracer.install()
        try:
            raw, scaled, codes = run_pass(cli, jobs, paths, bases,
                                          tracer if traced else None, len(passes))
        finally:
            if traced:
                tracer.uninstall()
        for i, found in check_pass(cli, jobs, paths, bases, codes, references,
                                   len(passes)).items():
            failures[(len(passes), i)] = found
        passes.append({"traced": traced, "raw": raw, "scaled": scaled})
        done = time.perf_counter() >= start + seconds
        if trace:
            n_traced = sum(p["traced"] for p in passes)
            if n_traced and (done or n_traced >= MAX_TRACED_PASSES):
                break
        elif done:
            break
    return {"passes": passes, "failures": failures, "tracer": tracer,
            "kinds": [job["config"]["kind"] for job in jobs]}


def pass_times(record, traced=False, key="scaled"):
    return [sum(p[key]) for p in record["passes"] if p["traced"] == traced]


def kind_latencies(record):
    """Rescaled latencies of untraced jobs, grouped by kind."""
    out = {}
    for p in record["passes"]:
        if not p["traced"]:
            for kind, t in zip(record["kinds"], p["scaled"]):
                out.setdefault(kind, []).append(t)
    return out


def end_to_end_metrics(record):
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(record["setup"]["scaled"]), "unit": "s"},
        "study_s": {"value": statistics.median(pass_times(record)), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def layer_metric_values(record, workload):
    from spans import layer_metrics
    tracer = record["tracer"]
    tracer.save(os.path.join(WORK_DIR, f"spans-{workload}.npz"))
    name_id, parent, _, start, end = tracer.arrays()
    traced = pass_times(record, traced=True)
    overhead = [statistics.mean(part) for part in zip(*tracer.overhead)]
    values = layer_metrics(tracer.names, name_id, parent, start, end, tracer.counts,
                           len(traced), overhead)
    values["trace.overhead_frac"] = (statistics.median(traced)
                                     / statistics.median(pass_times(record)) - 1.0)
    metrics = {}
    for name, value in values.items():
        if name.endswith("_s"):
            unit = "s"
        elif name.endswith("_frac"):
            unit = "ratio"
        elif name == "reports.bytes":
            unit = "bytes"
        else:
            unit = "count"
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def report(record, workload, seed, trace):
    """Print every metric with its unit, then the result line; returns it."""
    attempted = len(record["passes"]) * len(record["kinds"])
    failed = len(record["failures"])
    untraced = pass_times(record)
    print(f"workload {workload} seed {seed}: {len(untraced)} untraced passes, "
          f"{len(record['passes']) - len(untraced)} traced, "
          f"{len(record['kinds'])} jobs per pass")
    print("times are rescaled to the reference speed; *_wall lines are as measured")
    print(describe("setup_s", record["setup"]["scaled"]))
    print(describe("setup_wall_s", record["setup"]["raw"]))
    print(describe("study_s", untraced))
    print(describe("study_wall_s", pass_times(record, key="raw")))
    for kind, samples in kind_latencies(record).items():
        print(describe(kind.replace("-", "_") + "_s", samples))
    print(f"jobs_failed_frac {failed / attempted:.6g} ({failed} failed of "
          f"{attempted} attempted)")
    for (pass_index, i), found in sorted(record["failures"].items())[:5]:
        print(f"FAILED pass {pass_index} job {i}: {'; '.join(found)[:500]}")
    if trace:
        print(describe("study_traced_s", pass_times(record, traced=True)))
        metrics = layer_metric_values(record, workload)
    else:
        metrics = end_to_end_metrics(record)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    path = os.path.join(WORK_DIR, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "env": record["env"], "setup": record["setup"],
                   "kinds": record["kinds"], "passes": record["passes"]},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, ValueError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(record, args.workload, args.seed, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
