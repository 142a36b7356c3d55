"""A CLI run imports only the modules its kind uses.

Without cached bytecode every fresh process compiles each module it
imports, so start-up grows with the module count.  Each check runs in a
fresh interpreter and reads ``sys.modules``; none of them times anything.
"""

import json
import subprocess
import sys

import pytest

# what the discrete kinds (pure integer lp and diagnostics arithmetic) never load
NOT_DISCRETE = ("numpy", "framelab.stepfn", "framelab.translate_frame", "framelab.pettis",
                "framelab.wavelet_frame", "framelab.sampling")


def loaded_after(code, cwd, env):
    """The names in ``sys.modules`` of a fresh interpreter after it ran ``code``."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def framelab_modules(loaded):
    return sorted(m for m in loaded if m.split(".")[0] == "framelab")


def test_importing_the_package_or_the_cli_loads_no_library_module(tmp_path, cli_env):
    package = loaded_after("import framelab", tmp_path, cli_env)
    assert framelab_modules(package) == ["framelab"]
    assert "numpy" not in package
    cli = loaded_after("import framelab.cli", tmp_path, cli_env)
    assert framelab_modules(cli) == ["framelab", "framelab.cli", "framelab.reports"]
    assert "numpy" not in cli


def test_a_public_name_loads_only_its_own_modules(tmp_path, cli_env):
    loaded = loaded_after("import framelab\nframelab.CoordinateVector", tmp_path, cli_env)
    assert framelab_modules(loaded) == ["framelab", "framelab.lp"]
    loaded = loaded_after("from framelab import StepFunction", tmp_path, cli_env)
    assert framelab_modules(loaded) == ["framelab", "framelab.stepfn"]


# kind: (modules its run loads, modules its run never loads)
RUN_MODULES = {
    "counterexample": (("framelab.diagnostics", "framelab.lp"), NOT_DISCRETE),
    "diagnostics": (("framelab.diagnostics", "framelab.lp"), NOT_DISCRETE),
    "wavelet-identity": (("numpy", "framelab.stepfn", "framelab.wavelet_frame"),
                         ("framelab.translate_frame", "framelab.pettis",
                          "framelab.sampling", "framelab.diagnostics")),
}


@pytest.mark.parametrize("kind", sorted(RUN_MODULES))
def test_a_run_loads_only_the_modules_its_kind_uses(tmp_path, cli_env, kind):
    used, absent = RUN_MODULES[kind]
    loaded = loaded_after(f"import framelab.cli\nassert framelab.cli.main([{kind!r}]) == 0",
                          tmp_path, cli_env)
    assert (tmp_path / f"{kind}.json").exists()
    assert sorted(set(used) - loaded) == []
    assert sorted(set(absent) & loaded) == []


def test_a_step_function_record_loads_no_masked_arrays(tmp_path, cli_env):
    # np.unique imports numpy.ma, which a fresh process pays tens of ms to load
    record = json.dumps({"step_function": {"breakpoints": [0.5, 1.5], "values": [1.0]}})
    loaded = loaded_after(
        "import framelab.cli\n"
        f"assert framelab.cli.main(['validate-generator', '--generator', {record!r}]) == 0",
        tmp_path, cli_env)
    assert (tmp_path / "validate-generator.json").exists()
    assert "numpy" in loaded
    assert "numpy.ma" not in loaded
