"""Tests for config validation, report determinism and CLI exit codes."""

import argparse
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from framelab import CoordinateVector, cli
from framelab.cli import (KINDS, MAX_FOLD_WORK, MAX_LATTICE_WORK, MAX_M, MAX_N,
                          MAX_WINDOW, ConfigError, build_parser, main, validate_config)
from framelab.reports import ARTIFACT_VERSION, canonical_json, config_digest


def run_cli(args, cwd, env, timeout=None):
    return subprocess.run([sys.executable, "-m", "framelab.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout)


def strict_json(text):
    """json.loads that refuses the bare NaN/Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=refuse)


# -- config validation ----------------------------------------------------------


def test_config_rejects_unknown_top_level_field():
    with pytest.raises(ConfigError):
        validate_config({"kind": "counterexample", "extra": 1})


def test_config_rejects_unknown_kind_and_params():
    with pytest.raises(ConfigError):
        validate_config({"kind": "nonsense"})
    with pytest.raises(ConfigError):
        validate_config({"kind": ["counterexample"]})
    with pytest.raises(ConfigError):
        validate_config({"kind": "counterexample", "params": {"bogus": 1}})


def test_config_requires_generator_for_validation_kind():
    with pytest.raises(ConfigError):
        validate_config({"kind": "validate-generator"})


def test_config_range_checks():
    with pytest.raises(ConfigError):
        validate_config({"kind": "suppression-scan", "params": {"p": 1.0}})
    with pytest.raises(ConfigError):
        validate_config({"kind": "suppression-scan", "params": {"p": 17.0}})
    with pytest.raises(ConfigError):
        validate_config({"kind": "wavelet-reconstruct",
                         "params": {"M_list": [9]}})
    with pytest.raises(ConfigError):
        validate_config({"kind": "wavelet-reconstruct",
                         "params": {"N_list": [17]}})
    with pytest.raises(ConfigError):
        validate_config({"kind": "biorthogonality",
                         "params": {"window": 2 ** 14 + 1}})
    with pytest.raises(ConfigError):
        validate_config({"kind": "sampling-sweep",
                         "params": {"steps": [0.5, -1.0]}})
    with pytest.raises(ConfigError):
        validate_config({"kind": "counterexample", "seed": -1})
    with pytest.raises(ConfigError):
        validate_config({"kind": "counterexample", "tol": -0.5})
    with pytest.raises(ConfigError):
        validate_config({"kind": "counterexample", "tol": float("nan")})
    # the draw takes max_terms distinct indices from the 7 values -3..3
    with pytest.raises(ConfigError):
        validate_config({"kind": "young-fuzz", "params": {"max_terms": 8}})


# -- the kind registry ----------------------------------------------------------

COMMON_FLAGS = {"-h", "--help", "--out", "--seed", "--tol", "--quiet", "--timings",
                "--config"}
UNIT_GENERATOR = {"rademacher": {"coefficients": [[0, 1.0]]}}


def test_each_kind_exposes_exactly_its_derived_flags():
    parser = build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices
    assert set(subs) == {"run", *KINDS}
    every_flag = set()
    for kind, spec in KINDS.items():
        flags = {"--" + name.replace("_", "-") for name in spec.params}
        exposed = {opt for action in subs[kind]._actions for opt in action.option_strings}
        assert exposed == COMMON_FLAGS | flags, kind
        every_flag |= flags
    assert every_flag == {
        "--generator", "--target", "--lag-range", "--window", "--num-vectors",
        "--p-list", "--p", "--trials", "--draws", "--max-terms", "--M-list",
        "--N-list", "--K", "--reconstruction-limit", "--steps"}


def test_each_kind_defaults_pass_their_own_check():
    for kind, spec in KINDS.items():
        required = {name: UNIT_GENERATOR for name, param in spec.params.items()
                    if param.required}
        # a None default means "derived at run time", not a value to check
        explicit = {name: param.default for name, param in spec.params.items()
                    if param.default is not None}
        assert (validate_config({"kind": kind, "tol": spec.tol,
                                 "params": {**required, **explicit}})
                == validate_config({"kind": kind, "params": required})), kind


def test_config_fills_defaults():
    config = validate_config({"kind": "counterexample"})
    assert config["params"]["K"] == 50
    assert config["seed"] == 0
    assert config["tol"] == 0.0
    assert config["out"] == "counterexample"


def test_digest_ignores_out_path_but_not_seed():
    base = validate_config({"kind": "counterexample"})
    moved = validate_config({"kind": "counterexample", "out": "elsewhere"})
    reseeded = validate_config({"kind": "counterexample", "seed": 1})

    def digest(c):
        return config_digest({"kind": c["kind"], "seed": c["seed"],
                              "tol": c["tol"], "params": c["params"]})

    assert digest(base) == digest(moved)
    assert digest(base) != digest(reseeded)


# -- in-process runs ------------------------------------------------------------


def test_counterexample_run_writes_report(tmp_path, capsys):
    out = tmp_path / "report"
    code = main(["counterexample", "--K", "20", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS counterexample" in captured.out
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["kind"] == "counterexample"
    assert payload["artifact_version"] == ARTIFACT_VERSION
    assert payload["seed"] == 0
    assert payload["K"] == 20
    assert payload["passed"] is True
    assert len(payload["config_digest"]) == 64


def test_seed_is_echoed(tmp_path):
    out = tmp_path / "seeded"
    assert main(["suppression-scan", "--seed", "7", "--trials", "10",
                 "--window", "3", "--out", str(out), "--quiet"]) == 0
    payload = json.loads((tmp_path / "seeded.json").read_text())
    assert payload["seed"] == 7


def test_quiet_suppresses_stdout(tmp_path, capsys):
    out = tmp_path / "quiet"
    code = main(["counterexample", "--K", "5", "--out", str(out), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_rejected_generator_exits_2_and_writes_report(tmp_path, capsys):
    out = tmp_path / "rejected"
    gen = json.dumps({"step_function": {"breakpoints": [0.0, 2.0],
                                        "values": [1.0]}})
    code = main(["validate-generator", "--generator", gen, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "FAIL validate-generator" in captured.out
    payload = json.loads((tmp_path / "rejected.json").read_text())
    assert payload["report"]["ok"] is False
    assert payload["report"]["failures"]


@pytest.mark.parametrize("kind, flag, record", [
    ("validate-generator", "--generator",
     {"rademacher": {"coefficients": [["a", 1]]}}),
    ("validate-generator", "--generator",
     {"step_function": {"breakpoints": ["x", 1], "values": [1.0]}}),
    ("validate-generator", "--generator",
     {"step_function": {"breakpoints": [1, 0], "values": [1.0]}}),
    ("validate-generator", "--generator",
     {"step_function": {"breakpoints": [0, 1], "values": [float("nan")]}}),
    ("wavelet-identity", "--target",
     {"step_function": {"breakpoints": [0, 1], "values": [float("inf")]}}),
    ("wavelet-identity", "--target", {"indicator": [0, float("inf")]}),
    # points closer than the merge distance would fold into one grid point;
    # below 1 the distance is that of the fold and of grids reaching 1
    ("validate-generator", "--generator",
     {"step_function": {"breakpoints": [0, 1e-15, 1], "values": [1e15, 1]}}),
    ("wavelet-identity", "--target", {"indicator": [1, 1 + 1e-15]}),
    ("validate-generator", "--generator",
     {"step_function": {"breakpoints": [0.25, 0.25 + 1e-14, 0.75],
                        "values": [1e14, 1.4142135623730951]}}),
    ("wavelet-identity", "--target", {"indicator": [0.5, 0.5 + 1e-14]}),
    # 1.5 - 2e-14 and 1.5 + 1e-14 are apart, but the fractional part of
    # 1.5 + 1e-14 folds into that of 0.5: the fold would read residual 0
    # where <f, f> is 1.25
    ("validate-generator", "--generator",
     {"step_function": {"breakpoints": [0.5, 1.5 - 2e-14, 1.5 + 1e-14],
                        "values": [0.7071067811865546, 5001999.393226282]}}),
], ids=["coefficient-index-text", "breakpoint-text", "breakpoints-decreasing",
        "generator-value-nan", "target-value-inf", "indicator-inf",
        "breakpoints-merge", "indicator-merges", "breakpoints-merge-below-1",
        "indicator-merges-below-1", "fractional-parts-merge"])
def test_malformed_record_is_a_config_error(tmp_path, capsys, kind, flag, record):
    code = main([kind, flag, json.dumps(record), "--out", str(tmp_path / "bad")])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_rademacher_validation_applies_lag_range_and_tol(tmp_path):
    # squares sum to 1 + 1.6e-13: unit norm within the spec's 1e-12, but the
    # orthonormality residual is nonzero, so only a zero tolerance rejects it
    gen = json.dumps({"rademacher": {"coefficients": [[0, 0.6], [1, 0.8 + 1e-13]]}})
    out = str(tmp_path / "lagged")
    args = ["validate-generator", "--generator", gen, "--lag-range", "5",
            "--out", out, "--quiet"]
    assert main([*args, "--tol", "1e-10"]) == 0
    report = json.loads((tmp_path / "lagged.json").read_text())["report"]
    assert (report["lag_range"], report["tol"], report["ok"]) == (5, 1e-10, True)
    assert 0.0 < report["ortho_residual"] < 1e-10
    assert main([*args, "--tol", "0"]) == 2
    report = json.loads((tmp_path / "lagged.json").read_text())["report"]
    assert (report["lag_range"], report["tol"], report["ok"]) == (5, 0.0, False)


def test_tolerance_failure_exits_3(tmp_path):
    # the 0.6/0.8 generator leaves float dust, so a zero tolerance must trip
    out = tmp_path / "strict"
    gen = json.dumps({"rademacher": {"coefficients": [[0, 0.6], [1, 0.8]]}})
    code = main(["reconstruct", "--tol", "0", "--window", "2",
                 "--num-vectors", "4", "--generator", gen,
                 "--out", str(out), "--quiet"])
    assert code == 3
    payload = json.loads((tmp_path / "strict.json").read_text())
    assert payload["passed"] is False


def test_run_subcommand_with_config_file(tmp_path):
    config = {"kind": "young-fuzz", "seed": 3, "out": str(tmp_path / "young"),
              "params": {"draws": 20, "max_terms": 3}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--quiet"]) == 0
    payload = json.loads((tmp_path / "young.json").read_text())
    assert payload["draws"] == 20
    assert payload["passed"] is True


def test_missing_config_file_exits_1(capsys):
    assert main(["run", "no-such-file.json"]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_refuses_to_overwrite_its_config(tmp_path, capsys):
    # out=scan makes the artifact path scan.json, the config file itself
    base = str(tmp_path / "scan")
    config = {"kind": "counterexample", "out": base, "params": {"K": 5}}
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "would overwrite the config file" in err
    assert json.loads(path.read_text()) == config
    assert main(["run", str(path), "--out", str(tmp_path / "ce")]) == 0
    capsys.readouterr()


def test_bad_flag_value_exits_1(tmp_path, capsys):
    assert main(["counterexample", "--K", "0"]) == 1
    capsys.readouterr()


def test_kind_config_file_params_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"params": [1]}))
    assert main(["counterexample", "--config", str(path), "--K", "3",
                 "--out", str(tmp_path / "cx")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "cx.json").exists()


# -- subprocess behaviour and artifact determinism --------------------------------


def test_console_entry_point(tmp_path, cli_env):
    proc = run_cli(["counterexample", "--K", "5", "--out", "cx"],
                   cwd=tmp_path, env=cli_env)
    assert proc.returncode == 0
    assert "PASS counterexample" in proc.stdout
    assert (tmp_path / "cx.json").exists()


def test_json_report_is_byte_identical_across_reruns(tmp_path, cli_env):
    args = ["suppression-scan", "--trials", "25", "--window", "4",
            "--seed", "11", "--quiet"]
    a = run_cli([*args, "--out", "first"], cwd=tmp_path, env=cli_env)
    b = run_cli([*args, "--out", "second"], cwd=tmp_path, env=cli_env)
    assert a.returncode == 0 and b.returncode == 0
    first = (tmp_path / "first.json").read_bytes()
    second = (tmp_path / "second.json").read_bytes()
    assert first == second


def test_csv_report_is_byte_identical_across_reruns(tmp_path, cli_env):
    args = ["wavelet-reconstruct", "--M-list", "1,2", "--N-list", "1,2",
            "--quiet"]
    a = run_cli([*args, "--out", "first"], cwd=tmp_path, env=cli_env)
    b = run_cli([*args, "--out", "second"], cwd=tmp_path, env=cli_env)
    assert a.returncode == 0 and b.returncode == 0
    assert (tmp_path / "first.csv").read_bytes() == \
        (tmp_path / "second.csv").read_bytes()
    assert (tmp_path / "first.json").read_bytes() == \
        (tmp_path / "second.json").read_bytes()


def test_csv_preamble_and_timings_column(tmp_path):
    out = tmp_path / "study"
    assert main(["wavelet-reconstruct", "--M-list", "1", "--N-list", "1",
                 "--out", str(out), "--quiet"]) == 0
    lines = (tmp_path / "study.csv").read_text().splitlines()
    assert lines[0].startswith(f"# artifact_version={ARTIFACT_VERSION} "
                               "config_digest=")
    assert "seed=0" in lines[0]
    assert lines[1] == "M,N,p,error,oracle_bound,runtime_ms"
    # runtime column stays empty unless timings are requested
    assert all(line.endswith(",") for line in lines[2:])

    timed = tmp_path / "timed"
    assert main(["wavelet-reconstruct", "--M-list", "1", "--N-list", "1",
                 "--out", str(timed), "--timings", "--quiet"]) == 0
    timed_lines = (tmp_path / "timed.csv").read_text().splitlines()
    assert all(float(line.rsplit(",", 1)[1]) >= 0.0 for line in timed_lines[2:])


def test_sampling_sweep_csv_has_exact_column(tmp_path):
    out = tmp_path / "sweep"
    gen = json.dumps({"rademacher":
                      {"coefficients": [[0, 1.0]], "resolution": 1}})
    assert main(["sampling-sweep", "--generator", gen, "--steps", "0.5,0.25",
                 "--window", "3", "--out", str(out), "--quiet"]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1] == "h,num_samples,max_error,exact"
    assert lines[2].endswith("true")
    payload = json.loads((tmp_path / "sweep.json").read_text())
    assert payload["nonincreasing"] is True


# -- bounded work and non-finite values ---------------------------------------------

EIGHT_TERMS = {"rademacher": {"coefficients": [[n, 1 / math.sqrt(8)] for n in range(8)]}}


@pytest.mark.parametrize("args", [
    ["validate-generator", "--generator",
     json.dumps({"step_function": {"breakpoints": [0, 1e308], "values": [1]}})],
    ["biorthogonality", "--window", "2", "--generator",
     json.dumps({"step_function": {"breakpoints": [0, 1e6], "values": [1e-3]}})],
    ["validate-generator", "--generator",
     json.dumps({"rademacher": {"coefficients": [[n, 1 / math.sqrt(30)]
                                                 for n in range(30)]}})],
], ids=["span-1e308", "span-1e6-biorthogonality", "rademacher-depth-30"])
def test_oversized_generator_is_a_config_error(tmp_path, cli_env, args):
    proc = run_cli([*args, "--out", "big"], cwd=tmp_path, env=cli_env, timeout=2)
    assert proc.returncode == 1
    assert "config error: generator too large" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_work_cap_admits_the_benchmark_and_test_generators():
    # the benchmark's 8-coefficient generator folds to 8 units x 256 cells
    assert cli._fold_work(EIGHT_TERMS, 16) == 8 * 256 * (8 + 33)
    for kind, window in (("biorthogonality", 16), ("reconstruct", 8),
                         ("suppression-scan", 8), ("sampling-sweep", 4)):
        validate_config({"kind": kind, "params": {"generator": EIGHT_TERMS,
                                                  "window": window}})
    validate_config({"kind": "validate-generator", "params": {"generator": EIGHT_TERMS}})
    step = {"step_function": {"breakpoints": [0, 1e6], "values": [1e-3]}}
    assert cli._fold_work(step, 0) > MAX_FOLD_WORK
    # the dense biorthogonality matrix bounds its own window
    validate_config({"kind": "biorthogonality", "params": {"window": 512}})
    with pytest.raises(ConfigError):
        validate_config({"kind": "biorthogonality", "params": {"window": 513}})


def test_huge_rademacher_coefficient_is_rejected_with_a_report(tmp_path, cli_env):
    gen = json.dumps({"rademacher": {"coefficients": [[0, 1e308]]}})
    proc = run_cli(["validate-generator", "--generator", gen, "--out", "huge"],
                   cwd=tmp_path, env=cli_env, timeout=2)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    report = strict_json((tmp_path / "huge.json").read_text())["report"]
    assert report["ok"] is False
    assert report["failures"] == ["coefficients must have unit l2 norm, got 1e+308"]
    assert report["ortho_residual"] == "inf"


def test_overflowing_generator_writes_finite_json(tmp_path, capsys):
    gen = json.dumps({"step_function": {"breakpoints": [0, 1, 2], "values": [1, 1e308]}})
    assert main(["validate-generator", "--generator", gen,
                 "--out", str(tmp_path / "over"), "--quiet"]) == 2
    report = strict_json((tmp_path / "over.json").read_text())["report"]
    assert report["ortho_residual"] == "inf"
    assert report["ok"] is False
    capsys.readouterr()


def test_overflowing_gram_lags_print_no_warning(tmp_path, cli_env):
    gen = json.dumps({"step_function": {"breakpoints": [0, 1, 2], "values": [1, 1e308]}})
    proc = run_cli(["validate-generator", "--generator", gen, "--out", "over", "--quiet"],
                   cwd=tmp_path, env=cli_env, timeout=5)
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert strict_json((tmp_path / "over.json").read_text())["report"][
        "ortho_residual"] == "inf"
    # the wavelet kinds overflow in the lattice sums and the Lp distances
    target = json.dumps({"step_function": {"breakpoints": [0, 0.25, 0.5, 0.75, 1],
                                           "values": [1e308, -1e308, 1e308, -1e308]}})
    proc = run_cli(["wavelet-identity", "--target", target, "--p-list", "2",
                    "--M-list", "1,2", "--N-list", "1", "--out", "gap", "--quiet"],
                   cwd=tmp_path, env=cli_env, timeout=5)
    assert proc.returncode == 3
    assert proc.stderr == ""
    assert strict_json((tmp_path / "gap.json").read_text())["max_gap"] == "nan"


@pytest.mark.parametrize("breakpoints, values, residual", [
    # <f, f> is about 1e13: the 1e-13 wide cell is wider than the merge
    # distance at magnitude 1, so no grid drops it
    ([0, 1e-13, 1], [1e13, 1], 1e13),
    # fractional parts 0.5 and 0.5 + 5e-10 from two units: the fold merges at
    # magnitude 1 wherever the units lie, so lags 1 + 5e-10 and 5e-10 show
    ([1e5 + 0.5, 1e5 + 1.5 + 5e-10], [1], 4.947651177644730e-10),
], ids=["spike", "far-sliver"])
def test_a_narrow_cell_generator_is_rejected(tmp_path, capsys, breakpoints, values,
                                             residual):
    gen = json.dumps({"step_function": {"breakpoints": breakpoints, "values": values}})
    assert main(["validate-generator", "--generator", gen,
                 "--out", str(tmp_path / "narrow"), "--quiet"]) == 2
    report = strict_json((tmp_path / "narrow.json").read_text())["report"]
    assert report["ok"] is False
    assert report["ortho_residual"] == pytest.approx(residual, rel=1e-12)
    capsys.readouterr()


def test_target_cells_must_outlast_the_lattice_merge_distance(tmp_path, capsys):
    # the errors compare the target with lattice sums reaching 2^M: at M = 8 a
    # 1e-12 wide cell of height 1e12 would merge away and the error read 5.7,
    # not 1e6; a 1e-11 wide cell is kept
    def run(width, out):
        target = {"step_function": {"breakpoints": [0.25, 0.25 + width, 0.75],
                                    "values": [1 / width, 1]}}
        return main(["wavelet-reconstruct", "--target", json.dumps(target),
                     "--M-list", "8", "--N-list", "1", "--quiet",
                     "--out", str(tmp_path / out)])

    assert run(1e-12, "narrow") == 1
    assert "config error: target breakpoints" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert run(1e-11, "wide") == 0
    rows = strict_json((tmp_path / "wide.json").read_text())["rows"]
    assert rows[0]["error"] == pytest.approx(math.sqrt(1e11), rel=1e-3)


@pytest.mark.parametrize("args", [
    ["wavelet-reconstruct", "--M-list", ",".join(["8"] * 9), "--N-list", "16"],
    ["wavelet-identity", "--p-list", "1.5,2,3", "--M-list", "8,8,8", "--N-list", "16"],
    ["wavelet-reconstruct", "--M-list", ",".join(["8"] * 1000), "--N-list", "16"],
], ids=["nine-max-rows", "identity-nine-max-rows", "thousand-max-rows"])
def test_oversized_wavelet_job_is_a_config_error(tmp_path, cli_env, args):
    proc = run_cli([*args, "--out", "big"], cwd=tmp_path, env=cli_env, timeout=5)
    assert proc.returncode == 1
    assert "config error: wavelet job too large" in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind, flags", [
    ("wavelet-reconstruct", ["--p", "2"]),
    ("wavelet-identity", ["--p-list", "2"]),
])
def test_schema_maximum_wavelet_row_runs_and_passes(tmp_path, cli_env, kind, flags):
    proc = run_cli([kind, *flags, "--M-list", str(MAX_M), "--N-list", str(MAX_N),
                    "--target", json.dumps({"indicator": [0.0, 0.3]}),
                    "--out", "max", "--quiet"], cwd=tmp_path, env=cli_env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert strict_json((tmp_path / "max.json").read_text())["passed"] is True


@pytest.mark.parametrize("kind, flags", [
    ("diagnostics", ["--window", str(MAX_WINDOW)]),
    ("counterexample", ["--K", str(MAX_WINDOW),
                        "--reconstruction-limit", str(MAX_WINDOW)]),
])
def test_schema_maximum_frame_job_runs_and_passes(tmp_path, cli_env, kind, flags):
    # the nested-chain probes are linear in the window, so no work cap is needed
    proc = run_cli([kind, *flags, "--out", "max", "--quiet"], cwd=tmp_path,
                   env=cli_env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert strict_json((tmp_path / "max.json").read_text())["passed"] is True


def test_lattice_cap_admits_the_benchmark_and_default_jobs():
    # one schema-maximum row, and eight of them, fit under the cap
    row = {"M_list": [MAX_M], "N_list": [MAX_N]}
    assert cli._lattice_work({**row, "p": 2.0}) == 2 * (2 * MAX_M) ** 2 * MAX_N ** 2
    validate_config({"kind": "wavelet-reconstruct",
                     "params": {"M_list": [MAX_M] * 8, "N_list": [MAX_N]}})
    assert cli._lattice_work({**row, "p_list": [1.5, 2.0]}) == \
        2 * cli._lattice_work({**row, "p": 2.0})
    # the benchmark's wavelet-grid jobs and every kind's defaults
    for params in ({"M_list": [1, 2, 3], "N_list": [1, 2, 4]},
                   {"M_list": [3], "N_list": [8]}):
        validate_config({"kind": "wavelet-reconstruct", "params": params})
    validate_config({"kind": "wavelet-identity",
                     "params": {"p_list": [1.5, 2.0, 3.0], "M_list": [1, 2],
                                "N_list": [1, 2]}})
    for kind in ("wavelet-reconstruct", "wavelet-identity"):
        config = validate_config({"kind": kind})
        assert cli._lattice_work(config["params"]) <= MAX_LATTICE_WORK


def test_non_finite_floats_are_written_as_strings():
    assert canonical_json({"a": math.nan, "b": [math.inf, -math.inf],
                           "c": np.float64(math.nan), "d": 0.5}) == \
        '{"a":"nan","b":["inf","-inf"],"c":"nan","d":0.5}'


@pytest.mark.parametrize("kind, target, fake", [
    ("biorthogonality", "biorthogonality_matrix", lambda g, w: np.full((3, 3), math.nan)),
    ("reconstruct", "synthesis_over_set",
     lambda g, x, region, w: CoordinateVector({0: math.nan})),
    ("young-fuzz", "young_check", lambda f, a, p: (math.nan, math.nan)),
    ("wavelet-identity", "reconstruction_identity_gap", lambda ws, x, M, N: math.nan),
])
def test_nan_results_fail_their_check(tmp_path, monkeypatch, capsys, kind, target, fake):
    monkeypatch.setattr(cli, target, fake)
    extra = {"reconstruct": ["--num-vectors", "2"], "young-fuzz": ["--draws", "2"]}
    assert main([kind, *extra.get(kind, []), "--out", str(tmp_path / "nan")]) == 3
    assert "FAIL" in capsys.readouterr().out
    payload = strict_json((tmp_path / "nan.json").read_text())
    assert payload["passed"] is False


def test_identity_max_gap_keeps_a_nan_in_any_place(tmp_path, capsys):
    # the gap at M = 1 is 0.0 and the gap at M = 2 overflows to NaN
    target = json.dumps({"step_function": {"breakpoints": [0, 0.25, 0.5, 0.75, 1],
                                           "values": [1e308, -1e308, 1e308, -1e308]}})
    assert main(["wavelet-identity", "--target", target, "--p-list", "2",
                 "--M-list", "1,2", "--N-list", "1", "--out", str(tmp_path / "gap")]) == 3
    capsys.readouterr()
    payload = strict_json((tmp_path / "gap.json").read_text())
    assert [g["gap"] for g in payload["gaps"]] == [0.0, "nan"]
    assert payload["max_gap"] == "nan"
