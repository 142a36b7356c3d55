"""Tests of the benchmark itself: configs, checks, spans and predicted zeros.

Run from the root of a checkout:

    python3 -m pytest -q bench/tests
"""

import json
import os
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
from checks import check_job, haar_box_study, load_references, reference_key  # noqa: E402
from spans import Tracer, call_overhead, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, make_jobs, write_configs  # noqa: E402

cli = run.import_framelab()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_configs_are_deterministic_and_valid(workload):
    for seed in (0, 1, 2 ** 31 + 7):
        jobs = make_jobs(workload, seed)
        assert jobs == make_jobs(workload, seed)
        assert len({job["name"] for job in jobs}) == len(jobs)
        for job in jobs:
            config = cli.validate_config(dict(job["config"], out="x"))
            assert config["kind"] == job["config"]["kind"]
    assert make_jobs(workload, 0) != make_jobs(workload, 1)


def test_job_sizes_do_not_depend_on_the_seed():
    for workload in WORKLOADS:
        shapes = {tuple(job["config"]["kind"] for job in make_jobs(workload, seed))
                  for seed in range(5)}
        assert len(shapes) == 1


def _toy_tree(tracer):
    def leaf():
        time.sleep(0.002)

    def middle():
        leaf()
        time.sleep(0.001)
        leaf()

    def top():
        middle()
        leaf()

    leaf = tracer.wrap("toy.leaf", leaf)
    middle = tracer.wrap("toy.middle", middle)
    top = tracer.wrap("toy.top", top)
    return top


def test_self_times_sum_to_traced_wall_time():
    tracer = Tracer()
    top = _toy_tree(tracer)
    for job in range(2):
        tracer.job_id = job
        with tracer.span("bench.job"):
            top()
    name_id, parent, job, start, end = tracer.arrays()
    selfs = self_times(parent, start, end)
    roots = parent < 0
    assert roots.sum() == 2
    assert selfs.sum() == (end[roots] - start[roots]).sum()
    assert (selfs >= 0).all()
    names = [tracer.names[i] for i in name_id]
    assert names.count("toy.leaf") == 6 and names.count("toy.middle") == 2
    leaf_self = selfs[[n == "toy.leaf" for n in names]]
    assert (leaf_self >= 2_000_000).all()
    assert sorted(set(job.tolist())) == [0, 1]


def test_layer_self_time_takes_out_tracer_overhead():
    # stepfn.a (10 us) calls stepfn.b (2 us) and stepfn.b (3 us)
    names = ["stepfn.a", "stepfn.b"]
    name_id = np.array([0, 1, 1])
    parent = np.array([-1, 0, 0])
    start = np.array([0, 1_000, 5_000])
    end = np.array([10_000, 3_000, 8_000])
    raw = layer_metrics(names, name_id, parent, start, end, {}, 1, (0.0, 0.0))
    assert raw["stepfn.self_s"] * 1e9 == pytest.approx(10_000)
    fixed = layer_metrics(names, name_id, parent, start, end, {}, 1, (100.0, 400.0))
    # three spans pay 100 ns inside; the parent pays 400 ns for each of two children
    assert fixed["stepfn.self_s"] * 1e9 == pytest.approx(10_000 - 3 * 100 - 2 * 400)
    inside, outside = call_overhead()
    assert 0 < inside + outside < 1e5


def test_install_wraps_lookup_sites_and_uninstall_restores():
    original_main = cli.main
    original_add = cli.StepFunction.add
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main is not original_main
        assert cli.StepFunction.add is not original_add
        # the name cli bound with "from .translate_frame import ..." is wrapped too
        assert cli.young_check.__wrapped__ is sys.modules[
            "framelab.translate_frame"].young_check.__wrapped__
    finally:
        tracer.uninstall()
    assert cli.main is original_main
    assert cli.StepFunction.add is original_add


def _traced_pass(workload, workdir):
    workdir.mkdir()
    jobs = make_jobs(workload, 3)
    paths, bases = write_configs(jobs, str(workdir))
    tracer = Tracer()
    tracer.install()
    try:
        _, _, codes = run.run_pass(cli, jobs, paths, bases, tracer)
    finally:
        tracer.uninstall()
    assert all(code == (0, None) for code in codes)
    name_id, parent, _, start, end = tracer.arrays()
    return layer_metrics(tracer.names, name_id, parent, start, end, tracer.counts, 1,
                         tracer.overhead[0])


def test_predicted_zero_counts(tmp_path):
    discrete = _traced_pass("discrete-frames", tmp_path / "d")
    assert discrete["stepfn.calls"] == 0
    assert discrete["wavelet_frame.members"] == 0
    assert discrete["lp.pair.calls"] > 0
    assert discrete["diagnostics.pairs_touched"] > 0

    scan = _traced_pass("translate-scan", tmp_path / "t")
    assert scan["wavelet_frame.members"] == 0
    assert scan["diagnostics.self_s"] == 0
    assert scan["stepfn.calls"] > 0 and scan["pettis.exact_set_supremum.calls"] > 0

    grid = _traced_pass("wavelet-grid", tmp_path / "w")
    assert grid["wavelet_frame.members"] > 0
    assert 0 < grid["wavelet_frame.useful_frac"] <= 1
    assert grid["pettis.self_s"] == 0 and grid["lp.self_s"] == 0


def test_checks_pass_real_outputs_and_catch_wrong_ones(tmp_path):
    references = load_references()
    jobs = make_jobs("translate-scan", 5)
    for job in jobs[:6]:
        base = str(tmp_path / job["name"])
        path = base + ".config.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(job["config"], out=base), fh)
        code = cli.main(["run", path, "--quiet"])
        with open(base + ".json", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert check_job(job["config"], code, payload, references) == []
        assert check_job(job["config"], 3, payload, references) != []

    scan = next(job for job in jobs if job["config"]["kind"] == "suppression-scan")
    base = str(tmp_path / scan["name"])
    with open(base + ".json", encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["suppression_lower_bound"] *= 1.0 + 1e-6
    assert check_job(scan["config"], 0, payload, references) != []


def _run_job(job, workdir):
    paths, bases = write_configs([job], str(workdir))
    code = cli.main(["run", paths[0], "--quiet"])
    with open(bases[0] + ".json", encoding="utf-8") as fh:
        return code, json.load(fh)


def test_seeded_results_are_recomputed(tmp_path):
    # results that depend on the seed have no stored reference; the checks
    # recompute them, so a small change is caught
    references = load_references()
    scan = make_jobs("translate-scan", 11)
    grid = make_jobs("wavelet-grid", 11)
    cases = [
        (next(j for j in scan if j["config"]["kind"] == "young-fuzz"),
         lambda out: out.__setitem__("max_ratio", out["max_ratio"] * (1 - 1e-9))),
        (next(j for j in scan if j["config"]["kind"] == "sampling-sweep"),
         lambda out: out["rows"][1].__setitem__("max_error",
                                                out["rows"][1]["max_error"] * (1 + 1e-7))),
        (next(j for j in grid if "step_function" in j["config"]["params"]["target"]),
         lambda out: out["rows"][-1].__setitem__("oracle_bound",
                                                 out["rows"][-1]["oracle_bound"] + 1e-7)),
    ]
    for job, spoil in cases:
        assert reference_key(job["config"]) not in references
        code, out = _run_job(job, tmp_path)
        assert check_job(job["config"], code, out, references) == []
        spoil(out)
        assert check_job(job["config"], code, out, references) != []


def test_haar_recomputation_matches_criterion_6():
    # squared error 0.55^2*0.3 + 0.45^2*0.2 + 0.15^2*1.5 = 0.165
    error, bound = haar_box_study({"indicator": [0.0, 0.3]}, 2.0, 1, 1)
    assert error == pytest.approx(0.165 ** 0.5, abs=1e-12)
    assert error <= bound


def test_reference_values_are_checked(tmp_path):
    references = load_references()
    job = next(j for j in make_jobs("wavelet-grid", 0)
               if j["config"]["params"]["target"] == {"indicator": [0.0, 0.3]})
    base = str(tmp_path / "ref")
    path = base + ".config.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(job["config"], out=base), fh)
    assert cli.main(["run", path, "--quiet"]) == 0
    with open(base + ".json", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert check_job(job["config"], 0, payload, references) == []
    payload["rows"][0]["error"] += 1e-6
    assert check_job(job["config"], 0, payload, references) != []


def test_percentile_needs_ten_samples_beyond_it():
    assert run.high_percentile(list(range(19))) is None
    label, value = run.high_percentile(list(range(20)))
    assert label == "p50" and value == 9
    label, _ = run.high_percentile(list(range(1000)))
    assert label == "p99"
