"""Tests for config validation, report determinism and CLI exit codes."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from framelab import cli, stepfn, translate_frame, wavelet_frame
from framelab.cli import (KINDS, MAX_M, MAX_N, MAX_WINDOW, MAX_WORK, ConfigError,
                          build_parser, main, validate_config)
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

COMMON_FLAGS = {"-h", "--help", "--out", "--seed", "--tol", "--quiet", "--config"}
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
    # a coefficient vector holds one value per index; no later one may win
    ("validate-generator", "--generator",
     {"rademacher": {"coefficients": [[0, 0.5], [0, 1.0]]}}),
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
], ids=["coefficient-index-text", "coefficient-index-repeated", "breakpoint-text", "breakpoints-decreasing",
        "generator-value-nan", "target-value-inf", "indicator-inf",
        "breakpoints-merge", "indicator-merges", "breakpoints-merge-below-1",
        "indicator-merges-below-1"])
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


@pytest.mark.parametrize("coefficients, failure", [
    ([[0, 0.6], [1, 0.6]], "coefficients must have unit l2 norm, got 0.848528137423857"),
    ([[0, 0.0]], "coefficient vector is empty"),
], ids=["non-unit", "empty"])
def test_rademacher_rejected_before_certification_reports_the_run(tmp_path, coefficients,
                                                                   failure):
    gen = json.dumps({"rademacher": {"coefficients": coefficients}})
    assert main(["validate-generator", "--generator", gen, "--tol", "1e-6",
                 "--lag-range", "5", "--out", str(tmp_path / "v"), "--quiet"]) == 2
    report = json.loads((tmp_path / "v.json").read_text())["report"]
    assert (report["lag_range"], report["tol"], report["failures"]) == (5, 1e-6, [failure])


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


def test_an_artifact_path_that_is_a_fifo_is_refused(tmp_path, capsys):
    # writing the report to a FIFO once blocked the run after its job, until killed
    os.mkfifo(tmp_path / "f.json")
    assert main(["counterexample", "--K", "2", "--out", str(tmp_path / "f")]) == 1
    assert "f.json is not a regular file" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["f.json"]


@pytest.mark.parametrize("link", ["symlinked-directory", "hard-link"])
def test_run_refuses_to_overwrite_its_config_under_another_name(tmp_path, capsys, link):
    # a path compared by its text once let link/cfg.json overwrite real/cfg.json
    real = tmp_path / "real"
    real.mkdir()
    path = real / "cfg.json"
    config = {"kind": "counterexample", "params": {"K": 5}}
    path.write_text(json.dumps(config))
    if link == "hard-link":
        os.link(path, real / "other.json")
        out = real / "other"
    else:
        (tmp_path / "link").symlink_to(real, target_is_directory=True)
        out = tmp_path / "link" / "cfg"
    before = sorted(tmp_path.rglob("*"))
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert "would overwrite the config file" in capsys.readouterr().err
    assert json.loads(path.read_text()) == config
    assert sorted(tmp_path.rglob("*")) == before


def test_bad_flag_value_exits_1(tmp_path, capsys):
    assert main(["counterexample", "--K", "0"]) == 1
    capsys.readouterr()


def test_one_block_is_a_config_error(tmp_path, capsys):
    # with one block the every-third candidate is e_1, which has finite
    # support and cannot leave c0: K = 1 once ran and could only fail
    out = tmp_path / "one"
    assert main(["counterexample", "--K", "1", "--out", str(out)]) == 1
    assert "K must lie in [2, " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main(["counterexample", "--K", "2", "--out", str(out), "--quiet"]) == 0


def test_kind_config_file_params_must_be_an_object(tmp_path, capsys):
    # a falsy non-object once fell back to the defaults and ran
    path = tmp_path / "params.json"
    for params in ([1], [], 0, None, "", False):
        path.write_text(json.dumps({"params": params}))
        assert main(["counterexample", "--config", str(path), "--K", "3",
                     "--out", str(tmp_path / "cx")]) == 1, params
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "cx.json").exists()


# -- subprocess behaviour and artifact determinism --------------------------------


def test_console_entry_point(tmp_path, cli_env):
    proc = run_cli(["counterexample", "--K", "5", "--out", "cx"],
                   cwd=tmp_path, env=cli_env)
    assert proc.returncode == 0
    assert "PASS counterexample" in proc.stdout
    assert (tmp_path / "cx.json").exists()


DEEP_JSON = "[" * 100_000


@pytest.mark.parametrize("args, config, directory", [
    (["validate-generator", "--generator", DEEP_JSON], None, None),
    (["run", "deep.json"], DEEP_JSON.encode(), None),
    (["run", "bad.json"], b"\xff\xfe", None),
    (["counterexample", "--out", "missing/x"], None, None),
    (["counterexample", "--out", "x"], None, "x.json"),
    (["run", "nul.json"], json.dumps({"kind": "counterexample", "out": "out/a\0b"}).encode(),
     "out"),
    (["counterexample", "--out", "a" * 300], None, None),
    # integer ends 2^53 and 2^53 + 1 round to one float
    (["wavelet-identity", "--target",
      json.dumps({"indicator": [9007199254740992, 9007199254740993]})], None, None),
], ids=["flag-nested-too-deep", "config-nested-too-deep", "config-not-utf8",
        "out-directory-missing", "out-artifact-is-a-directory", "out-null-byte",
        "out-name-too-long", "indicator-ends-round-to-one-float"])
def test_malformed_input_fails_closed(tmp_path, cli_env, args, config, directory):
    # each used to end in a traceback; the last four after running their job
    if config is not None:
        (tmp_path / args[1]).write_bytes(config)
    if directory is not None:
        (tmp_path / directory).mkdir()
    before = sorted(tmp_path.rglob("*"))
    proc = run_cli(args, cwd=tmp_path, env=cli_env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), proc.stderr
    assert sorted(tmp_path.rglob("*")) == before


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


def test_csv_preamble_and_columns(tmp_path, capsys):
    out = tmp_path / "study"
    assert main(["wavelet-reconstruct", "--M-list", "1", "--N-list", "1",
                 "--out", str(out), "--quiet"]) == 0
    lines = (tmp_path / "study.csv").read_text().splitlines()
    assert lines[0].startswith(f"# artifact_version={ARTIFACT_VERSION} "
                               "config_digest=")
    assert "seed=0" in lines[0]
    assert lines[1] == "M,N,p,error,oracle_bound"
    assert all(len(line.split(",")) == 5 and "" not in line.split(",")
               for line in lines[2:])
    # no wall-clock switch is left to break byte-identical reruns
    assert main(["wavelet-reconstruct", "--timings", "--out", str(out)]) == 1
    capsys.readouterr()


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


def parsed(record):
    """The uncertified generator the runners take for a generator record."""
    return cli._check_generator("generator", record)


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
    assert f"config error: {args[0]} job too large" in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind, param, entry", [
    ("reconstruct", "p_list", 2.0), ("wavelet-identity", "M_list", 1),
    ("sampling-sweep", "steps", 0.25)])
def test_a_list_param_longer_than_its_cap_is_a_config_error(tmp_path, capsys, kind, param,
                                                            entry):
    # each exponent costs reconstruct two norms a vector: 20,000 took 6.7 s
    assert cli.validate_config({"kind": kind, "params": {param: [entry] * cli.MAX_LIST}})
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"params": {param: [entry] * 65}}))
    start = time.perf_counter()
    assert main([kind, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert time.perf_counter() - start < 1.0
    assert f"config error: {param} must hold at most 64" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_work_cap_admits_the_benchmark_and_test_generators():
    # the benchmark's 8-coefficient generator folds to 8 units x 256 cells
    assert cli._fold_work(parsed(EIGHT_TERMS), 16) == 8 * 256 * (8 + 33)
    # at the benchmark's sizes: the cap counts every vector and trial, and the
    # default 100 vectors or 200 trials of this generator are over it
    for kind, params in (("biorthogonality", {"window": 16}),
                         ("reconstruct", {"window": 8, "num_vectors": 8}),
                         ("suppression-scan", {"window": 8, "trials": 30}),
                         ("sampling-sweep", {"window": 4})):
        validate_config({"kind": kind, "params": {"generator": EIGHT_TERMS, **params}})
    validate_config({"kind": "validate-generator", "params": {"generator": EIGHT_TERMS}})
    step = {"step_function": {"breakpoints": [0, 1e6], "values": [1e-3]}}
    assert cli._fold_work(parsed(step), 0) > MAX_WORK
    # the benchmark's sweep samples 16 / (1/256) + 1 points at 9 coordinates,
    # each matrix entry 4 cell operations on top of the fold's pass
    sweep = {"generator": EIGHT_TERMS, "window": 4, "steps": [1 / 256, 0.37, 0.185]}
    assert KINDS["sampling-sweep"].work({**sweep, "generator": parsed(EIGHT_TERMS)}) == \
        pytest.approx(8 * 256 * (8 + 9) + 4 * sum(16 / h + 1 + 9 for h in sweep["steps"]) * 9)
    validate_config({"kind": "sampling-sweep", "params": sweep})
    # criterion 9's steps, and the window's schema maximum at the default steps
    two_terms = {"rademacher": {"coefficients": [[0, 0.6], [1, 0.8]]}}
    validate_config({"kind": "sampling-sweep", "params": {
        "generator": two_terms, "steps": [0.25] + [0.37 / 2 ** k for k in range(6)]}})
    validate_config({"kind": "sampling-sweep", "params": {"window": 64}})
    # the dense biorthogonality matrix bounds its own window
    validate_config({"kind": "biorthogonality", "params": {"window": 512}})
    with pytest.raises(ConfigError):
        validate_config({"kind": "biorthogonality", "params": {"window": 513}})


@pytest.mark.parametrize("record, work, failure", [
    # one unit of 2 sign cells, and of at most 3 cells (0, 1 and one per breakpoint)
    ({"rademacher": {"coefficients": [[0, 1.0], [16384, 0.0]]}}, 1 * 2 * (1 + 1), None),
    ({"step_function": {"breakpoints": [0, 1, 1000000], "values": [1.0, 0.0]}},
     1 * 3 * (1 + 1), None),
    ({"rademacher": {"coefficients": [[0, 0.0]]}}, 0, "coefficient vector is empty"),
    ({"step_function": {"breakpoints": [0, 1], "values": [0.0]}}, 0,
     "generator is the zero function"),
], ids=["rademacher-trailing-zero", "step-trailing-zero-cell", "rademacher-zero",
        "step-zero"])
def test_work_cap_sizes_the_parsed_generator(tmp_path, record, work, failure):
    # the cap reads the function, not the record's text: zero coefficients and
    # zero end cells add no unit, and an empty support costs no work
    assert cli._fold_work(parsed(record), 0) == work
    out = tmp_path / "v"
    code = main(["validate-generator", "--generator", json.dumps(record),
                 "--out", str(out), "--quiet"])
    report = json.loads((tmp_path / "v.json").read_text())["report"]
    if failure is not None:
        assert (code, report["failures"]) == (2, [failure])
        return
    assert code == 0
    assert main(["validate-generator", "--generator", json.dumps(UNIT_GENERATOR),
                 "--out", str(tmp_path / "unit"), "--quiet"]) == 0
    assert report == json.loads((tmp_path / "unit.json").read_text())["report"]


@pytest.mark.parametrize("step", ["1e-9", "0.001"])
def test_oversized_sampling_lattice_is_a_config_error(tmp_path, capsys, step):
    # 1e-9 would ask for 961 GiB of samples, 0.001 for seconds of work
    tracemalloc.start()
    try:
        code = main(["sampling-sweep", "--window", "64", "--steps", step,
                     "--out", str(tmp_path / "big")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "config error: sampling-sweep job too large" in capsys.readouterr().err
    assert peak < 2 ** 20
    assert list(tmp_path.iterdir()) == []


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
    # an infinite error under an infinite oracle bound fails its gate as well
    target = json.dumps({"step_function": {"breakpoints": [0, 0.5, 1],
                                           "values": [1e308, 1e308]}})
    proc = run_cli(["wavelet-reconstruct", "--target", target, "--p", "2",
                    "--M-list", "1", "--N-list", "2", "--out", "box"],
                   cwd=tmp_path, env=cli_env, timeout=5)
    assert proc.returncode == 3
    assert proc.stderr == ""
    assert "FAIL wavelet-reconstruct: box error at M=1 N=2: inf exceeds inf" in \
        proc.stdout.splitlines()
    report = strict_json((tmp_path / "box.json").read_text())
    assert report["rows"] == [{"M": 1, "N": 2, "error": "inf", "oracle_bound": "inf"}]
    assert report["passed"] is False


@pytest.mark.parametrize("breakpoints, values, residual", [
    # <f, f> is about 1e13: the 1e-13 wide cell is wider than the merge
    # distance at magnitude 1, so no grid drops it
    ([0, 1e-13, 1], [1e13, 1], 1e13),
    # fractional parts 0.5 and 0.5 + 5e-10 from two units: the fold keeps every
    # distinct part wherever the units lie, so lags 1 + 5e-10 and 5e-10 show
    ([1e5 + 0.5, 1e5 + 1.5 + 5e-10], [1], 4.947651177644730e-10),
    # fractional parts 0.5 - 2e-14, 0.5 and 0.5 + 1e-14 from two units: the
    # fold keeps both slivers, where <f, f> is 1.25, so lag 0 reads 0.25
    ([0.5, 1.5 - 2e-14, 1.5 + 1e-14], [0.7071067811865546, 5001999.393226282], 0.25),
], ids=["spike", "far-sliver", "fractional-parts-merge"])
def test_a_narrow_cell_generator_is_rejected(tmp_path, capsys, breakpoints, values,
                                             residual):
    gen = json.dumps({"step_function": {"breakpoints": breakpoints, "values": values}})
    assert main(["validate-generator", "--generator", gen,
                 "--out", str(tmp_path / "narrow"), "--quiet"]) == 2
    report = strict_json((tmp_path / "narrow.json").read_text())["report"]
    assert report["ok"] is False
    assert report["ortho_residual"] == pytest.approx(residual, rel=1e-12)
    capsys.readouterr()


# records the CLI refused while the unit fold merged their distinct
# fractional parts, with each one's exit code now
ONCE_REFUSED = {
    "decimal": ({"breakpoints": [0.1, 1.1], "values": [1.0]}, 0),
    "non-dyadic": ({"breakpoints": [0.1, 0.6, 1.1, 1.35, 2.1],
                    "values": [0.5, -1.0, 0.75, 0.25]}, 2),
    "fractional-parts": ({"breakpoints": [0.5, 1.5 - 2e-14, 1.5 + 1e-14],
                          "values": [0.7071067811865546, 5001999.393226282]}, 2),
}


@pytest.mark.parametrize("kind", ["validate-generator", "biorthogonality", "reconstruct",
                                  "suppression-scan", "sampling-sweep"])
def test_a_once_refused_generator_ends_with_a_verdict(tmp_path, cli_env, kind):
    for name, (record, code) in ONCE_REFUSED.items():
        proc = run_cli([kind, "--generator", json.dumps({"step_function": record}),
                        "--out", name, "--quiet"], cwd=tmp_path, env=cli_env, timeout=60)
        assert proc.returncode == code, name
        assert "Traceback" not in proc.stderr
        assert strict_json((tmp_path / f"{name}.json").read_text())["kind"] == kind


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


@pytest.mark.parametrize("args, error", [
    (["wavelet-reconstruct", "--M-list", ",".join(["8"] * 9), "--N-list", "16"],
     "wavelet-reconstruct job too large"),
    (["wavelet-identity", "--p-list", "1.5,2,3", "--M-list", "8,8,8", "--N-list", "16"],
     "wavelet-identity job too large"),
    (["wavelet-reconstruct", "--M-list", ",".join(["8"] * 64), "--N-list", "16"],
     "wavelet-reconstruct job too large"),
    # a list past MAX_LIST is refused before its work is counted
    (["wavelet-reconstruct", "--M-list", ",".join(["8"] * 1000), "--N-list", "16"],
     "M_list must hold at most 64"),
], ids=["nine-max-rows", "identity-nine-max-rows", "sixty-four-max-rows", "thousand-max-rows"])
def test_oversized_wavelet_job_is_a_config_error(tmp_path, cli_env, args, error):
    proc = run_cli([*args, "--out", "big"], cwd=tmp_path, env=cli_env, timeout=5)
    assert proc.returncode == 1
    assert f"config error: {error}" in proc.stderr
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
    # one schema-maximum row, and eight of them, fit under the cap; a member
    # weighs 4 cell operations, so eight rows sit exactly at it
    row = {"M_list": [MAX_M], "N_list": [MAX_N]}
    assert KINDS["wavelet-reconstruct"].work(row) == 4 * 2 * (2 * MAX_M) ** 2 * MAX_N ** 2
    assert KINDS["wavelet-reconstruct"].work({"M_list": [MAX_M] * 8, "N_list": [MAX_N]}) \
        == MAX_WORK
    validate_config({"kind": "wavelet-reconstruct",
                     "params": {"M_list": [MAX_M] * 8, "N_list": [MAX_N]}})
    assert KINDS["wavelet-identity"].work({**row, "p_list": [1.5, 2.0]}) == \
        2 * KINDS["wavelet-reconstruct"].work(row)
    # the benchmark's wavelet-grid jobs and every kind's defaults
    for params in ({"M_list": [1, 2, 3], "N_list": [1, 2, 4]},
                   {"M_list": [3], "N_list": [8]}):
        validate_config({"kind": "wavelet-reconstruct", "params": params})
    validate_config({"kind": "wavelet-identity",
                     "params": {"p_list": [1.5, 2.0, 3.0], "M_list": [1, 2],
                                "N_list": [1, 2]}})
    for kind in ("wavelet-reconstruct", "wavelet-identity"):
        config = validate_config({"kind": kind})
        assert KINDS[kind].work(config["params"]) <= MAX_WORK


def test_non_finite_floats_are_written_as_strings():
    assert canonical_json({"a": math.nan, "b": [math.inf, -math.inf],
                           "c": np.float64(math.nan), "d": 0.5}) == \
        '{"a":"nan","b":["inf","-inf"],"c":"nan","d":0.5}'


def assert_gate_lines(kind, out):
    """Every FAIL line of ``out`` has the gate's form, and there is one."""
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails
    for line in fails:
        assert re.fullmatch(rf"FAIL {kind}: \S.*: \S+ exceeds \S+", line), line


def test_gate_fails_above_the_bound_and_on_nan():
    failures = []
    cli._gate(failures, "at the bound", 1.0, 1.0)
    assert failures == []
    cli._gate(failures, "error at p=2.0", 1.5, 1.0)
    cli._gate(failures, "nan value", math.nan, 1.0)
    cli._gate(failures, "nan bound", 0.0, math.nan)
    assert failures == ["error at p=2.0: 1.5 exceeds 1.0", "nan value: nan exceeds 1.0",
                        "nan bound: 0.0 exceeds nan"]


def test_gate_fails_an_infinite_value_whatever_the_bound():
    failures = []
    cli._gate(failures, "finite under an infinite bound", 1.0, math.inf)
    assert failures == []
    cli._gate(failures, "inf under inf", math.inf, math.inf)
    cli._gate(failures, "-inf under a finite bound", -math.inf, 1.0)
    assert failures == ["inf under inf: inf exceeds inf",
                        "-inf under a finite bound: -inf exceeds 1.0"]


NAN_GATES = {
    "biorthogonality_matrix": "biorthogonality deviation:",
    "_synthesis": "reconstruction error at p=",
    "young_check": "unit indicator equality gap:",
    "_young_bounds": "series bound at draw 0:",
    "reconstruction_identity_gaps": "identity gap at p=",
}


@pytest.mark.parametrize("kind, target, fake", [
    ("biorthogonality", "biorthogonality_matrix", lambda g, w: np.full((3, 3), math.nan)),
    ("reconstruct", "_synthesis", lambda g, n0, a, w: np.full(2 * w + 1, math.nan)),
    ("young-fuzz", "young_check", lambda f, a, p: (math.nan, math.nan)),
    ("young-fuzz", "_young_bounds", lambda draws: ((math.nan, math.nan) for _ in draws)),
    ("wavelet-identity", "reconstruction_identity_gaps",
     lambda systems, x, Ms, Ns: [math.nan] * (len(systems) * len(Ms) * len(Ns))),
])
def test_nan_results_fail_their_check(tmp_path, monkeypatch, capsys, kind, target, fake):
    # the runners import these names from their library module at call time
    module = wavelet_frame if kind == "wavelet-identity" else translate_frame
    monkeypatch.setattr(module, target, fake)
    extra = {"reconstruct": ["--num-vectors", "2"], "young-fuzz": ["--draws", "2"]}
    assert main([kind, *extra.get(kind, []), "--out", str(tmp_path / "nan")]) == 3
    out = capsys.readouterr().out
    assert_gate_lines(kind, out)
    # the gate fed by the patched name fails
    gate = NAN_GATES[target]
    assert any(line.startswith(f"FAIL {kind}: {gate}") for line in out.splitlines()), out
    payload = strict_json((tmp_path / "nan.json").read_text())
    assert payload["passed"] is False


def test_public_library_names_read_from_cli_follow_their_module(monkeypatch):
    assert cli.StepFunction is stepfn.StepFunction
    assert cli.young_check is translate_frame.young_check

    def fake(f, a, p):
        return 0.0, 0.0
    monkeypatch.setattr(translate_frame, "young_check", fake)
    assert cli.young_check is fake
    for name in ("no_such_name", "_young_bounds", "np"):
        with pytest.raises(AttributeError):
            getattr(cli, name)


def test_identity_max_gap_keeps_a_nan_in_any_place(tmp_path, capsys):
    # the gap at M = 1 is 0.0 and the gap at M = 2 overflows to NaN
    target = json.dumps({"step_function": {"breakpoints": [0, 0.25, 0.5, 0.75, 1],
                                           "values": [1e308, -1e308, 1e308, -1e308]}})
    assert main(["wavelet-identity", "--target", target, "--p-list", "2",
                 "--M-list", "1,2", "--N-list", "1", "--out", str(tmp_path / "gap")]) == 3
    out = capsys.readouterr().out
    assert_gate_lines("wavelet-identity", out)
    assert "FAIL wavelet-identity: identity gap at p=2.0 M=2 N=1: nan exceeds 1e-09" in out
    payload = strict_json((tmp_path / "gap.json").read_text())
    assert [g["gap"] for g in payload["gaps"]] == [0.0, "nan"]
    assert payload["max_gap"] == "nan"


# -- one parser per process -------------------------------------------------------


PARSER_SEQUENCE = [
    ["biorthogonality", "--window", "3", "--seed", "5", "--tol", "1e-9", "--quiet"],
    ["biorthogonality", "--window", "2"],
    ["counterexample", "--K", "20", "--reconstruction-limit", "5"],
    ["counterexample", "--K", "abc"],
    ["diagnostics", "--windoww", "5"],
    ["counterexample", "--quiet"],
    ["young-fuzz", "--draws", "4", "--p-list", "2,3", "--max-terms", "3", "--seed", "2"],
    ["young-fuzz", "--draws", "2", "--quiet"],
    ["validate-generator", "--generator", json.dumps(UNIT_GENERATOR), "--lag-range", "2"],
    ["validate-generator", "--generator", json.dumps(UNIT_GENERATOR)],
    ["diagnostics", "--window", "5", "--p", "3"],
    ["diagnostics"],
]
PARSER_CODES = [0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0]


def run_sequence(workdir, monkeypatch, capsys):
    """(exit code, stdout, stderr, artifacts) of each PARSER_SEQUENCE call, run in workdir."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    results = []
    for i, argv in enumerate(PARSER_SEQUENCE):
        code = main([*argv, "--out", f"a{i}"])
        out, err = capsys.readouterr()
        artifacts = {p.name: p.read_bytes() for p in sorted(workdir.glob(f"a{i}.*"))}
        results.append((code, out, err, artifacts))
    return results


def test_main_reuses_one_parser_without_leaking_options(tmp_path, monkeypatch, capsys):
    cli._parser.cache_clear()
    kept = run_sequence(tmp_path / "kept", monkeypatch, capsys)
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, len(PARSER_SEQUENCE) - 1)
    monkeypatch.setattr(cli, "_parser", build_parser)
    fresh = run_sequence(tmp_path / "fresh", monkeypatch, capsys)
    assert [r[0] for r in kept] == PARSER_CODES
    assert kept == fresh
    # --quiet, --window, --seed and --tol of one call do not reach the next
    first, second = (strict_json(kept[i][3][f"a{i}.json"]) for i in (0, 1))
    assert (first["window"], first["seed"], first["tol"]) == (3, 5, 1e-9)
    assert (second["window"], second["seed"], second["tol"]) == (2, 0, 1e-10)
    assert kept[0][1] == "" and kept[1][1].startswith("PASS biorthogonality")
    assert kept[5][1] == "" and kept[6][1].startswith("PASS young-fuzz")
    assert "--windoww" in kept[4][2] and kept[4][3] == {}


def test_import_builds_no_parser_and_main_builds_one(tmp_path, cli_env):
    code = "\n".join([
        "import argparse",
        "built = []",
        "init = argparse.ArgumentParser.__init__",
        "def counting(self, *args, **kwargs):",
        "    built.append(1)",
        "    init(self, *args, **kwargs)",
        "argparse.ArgumentParser.__init__ = counting",
        "import framelab.cli as cli",
        "print(len(built))",
        "for i in range(3):",
        "    cli.main(['counterexample', '--K', '3', '--out', f'c{i}', '--quiet'])",
        "    print(len(built))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=cli_env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # the root parser, the run subcommand and one subparser per kind
    assert proc.stdout.split() == ["0"] + [str(2 + len(KINDS))] * 3
