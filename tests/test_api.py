"""The library holds only what the experiments and the acceptance criteria run.

Every name in ``framelab.__all__`` must be read, as a name or as an
attribute, somewhere in the library modules (which the CLI experiments
run) or in the acceptance criteria; a definition and an import do not count
as a use.  The package binds each name on first access (PEP 562), and a
name resolves to the object its own module defines.

Every function and method defined in ``src/framelab`` must be called when
every ``tests/test_golden.py`` config runs through that file's ``run`` and
acceptance criteria 1-9 run, all in one fresh interpreter under
``sys.setprofile`` (criterion 10 runs the CLI in subprocesses, which the
profiler does not see).  A fresh interpreter, so that what runs when a
module is imported counts.  ``EXEMPT`` names the functions no experiment
calls that stay, each with its reason; an exempt function that comes to be
called needs no exemption, and fails the rule too.

The library sums in one way, by np.add.reduce: no module in ``src/framelab``
may call a numpy product that sums through BLAS or in an order of its own
(``BLAS_SUMS``), as ``np.dot``, an array's ``.dot`` or the ``@`` operator;
their sums depend on the CPU's BLAS kernel.

Run as a script, ``python tests/test_api.py`` prints each function that was
never called, as ``module:line qualname``, exempt ones with their reason,
and exits nonzero if the rule fails; the rule's failure message is the
same lines.  ``python tests/test_api.py --lines`` runs the same experiments
in the same fresh interpreter under ``sys.settrace`` instead, and prints
each statement of ``src/framelab`` that never ran, as ``module:line text``,
with the count on stderr.  It only informs, and exits 0.
"""

import ast
import importlib
import json
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # the package is first imported under the script's profiler or tracer
    sys.path.insert(0, str(ROOT / "src"))
else:
    import framelab

PACKAGE = ROOT / "src" / "framelab"
USERS = [path for path in sorted(PACKAGE.glob("*.py"))
         if path.name != "__init__.py"] + [ROOT / "tests" / "test_acceptance.py"]
CRITERIA = [f"test_criterion_{i:02d}_" for i in range(1, 10)]

# functions no experiment or criterion calls, kept, as module:qualname
EXEMPT = {
    "framelab.stepfn:StepFunction.add":
        "the benchmark's tracer test wraps it (bench/tests/test_perfbench.py)",
    "framelab.stepfn:StepFunction.inner":
        "the exact integral of a product the wavelet and lattice kernels must match",
    "framelab.stepfn:_combined": "the one merge behind inner and add",
    "framelab.stepfn:StepFunction.lp_norm":
        "the Lp norm the wavelet and lattice tests measure reconstruction errors with",
    "framelab.stepfn:StepFunction.abs_integral":
        "the L1 norm on canonical cells the tests hold the fold's L1 certificate to",
    "framelab.stepfn:StepFunction.is_zero":
        "the zero test of the tests' reference code; certification reads the fold",
    "framelab.stepfn:StepFunction.__eq__":
        "reconstruction_identity_gaps compares mothers that are equal but distinct objects",
    "framelab.stepfn:StepFunction.__repr__": "a readable object in a failing test",
    "framelab.lp:CoordinateVector.__repr__": "a readable object in a failing test",
    "framelab.stepfn:StepFunction.__setattr__": "the immutability guard only refuses writes",
    "framelab.lp:CoordinateVector.__setattr__": "the immutability guard only refuses writes",
    "framelab.cli:console_main": "the installed entry point; a subprocess test runs it",
    "framelab:__dir__": "dir(framelab); a subprocess test reads it",
    "framelab.translate_frame:_young_chunk.<locals>.recertify":
        "runs only when a chunk's array certificate fails",
    "framelab.diagnostics:DiscreteFrame._coordinate_index":
        "indexes a frame whose builder hands no index over; no experiment builds one",
}


def used_names(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_is_used_by_an_experiment_or_a_criterion():
    used = set().union(*(used_names(path) for path in USERS))
    assert sorted(set(framelab.__all__) - used) == []


def defined_functions():
    """Every ``def`` in the package: (file, first line of its code) -> (module,
    def line, qualname).  A code object's first line is its first
    decorator's."""
    found = {}

    def visit(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[str(path), first] = (module, child.lineno, prefix + child.name)
                visit(child, module, path, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, module, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        module = "framelab" if path.stem == "__init__" else f"framelab.{path.stem}"
        visit(ast.parse(path.read_text(), filename=str(path)), module, path.resolve(), "")
    return found


def called_code(run):
    """(file, first line) of every Python function called while ``run()`` runs."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {(code.co_filename, code.co_firstlineno) for code in codes}


def run_experiments():
    """Every golden config, through ``test_golden.run``, then criteria 1-9."""
    import test_golden
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(test_golden.CONFIGS):
            out_dir = pathlib.Path(tmp) / name
            out_dir.mkdir()
            code = test_golden.run(name, out_dir)
            assert code == test_golden.EXIT_CODES.get(name, 0), (name, code)
    import test_acceptance
    for prefix in CRITERIA:
        [criterion] = [f for n, f in vars(test_acceptance).items() if n.startswith(prefix)]
        criterion()


def reachability():
    """(lines, ok): a ``module:line qualname`` line for each function never
    called, and for each exempt one that was, and whether the rule holds.
    An exemption that names no function fails the rule too."""
    called = called_code(run_experiments)
    defined = defined_functions()
    names = {f"{module}:{qualname}" for module, _, qualname in defined.values()}
    lines = [f"{name}  # exempt, but no such function" for name in EXEMPT if name not in names]
    ok = not lines
    for key, (module, line, qualname) in sorted(defined.items(), key=lambda item: item[1]):
        name = f"{module}:{qualname}"
        text = f"{module}:{line} {qualname}"
        if key not in called and name in EXEMPT:
            lines.append(f"{text}  # exempt: {EXEMPT[name]}")
        elif key not in called:
            lines.append(text)
            ok = False
        elif name in EXEMPT:
            lines.append(f"{text}  # exempt, but called")
            ok = False
    return lines, ok


def executed_lines(run):
    """(file, line) of every line of the package run while ``run()`` runs."""
    lines = set()
    package = str(PACKAGE.resolve())

    def line(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(package) else None

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return lines


def unrun_statements(lines):
    """(``module:line text`` of each statement of the package not in ``lines``,
    number of statements).  A statement ran if its first line did, or a
    decorated definition's decorator line; a docstring is no statement."""
    found, count = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        module = "framelab" if path.stem == "__init__" else f"framelab.{path.stem}"
        source, file = path.read_text(), str(path.resolve())
        for node in ast.walk(ast.parse(source, filename=str(path))):
            if not isinstance(node, ast.stmt) or (
                    isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue
            count += 1
            marks = [node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())]
            if not any((file, mark) in lines for mark in marks):
                text = source.splitlines()[node.lineno - 1].strip()
                found.append((module, node.lineno, text))
    return [f"{module}:{line} {text}" for module, line, text in sorted(found)], count


def test_every_function_runs_in_an_experiment_or_a_criterion(cli_env):
    # the modules are imported afresh under the profiler, so import-time
    # calls count, and criteria 1-9 print their PASS lines to a pipe
    proc = subprocess.run([sys.executable, __file__], env=cli_env,
                          capture_output=True, text=True, timeout=600)
    assert [line for line in proc.stdout.splitlines() if "# exempt: " not in line] == []
    assert proc.returncode == 0, proc.stderr


def test_the_lines_tool_prints_each_statement_that_never_ran(cli_env):
    proc = subprocess.run([sys.executable, __file__, "--lines"], env=cli_env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    unrun = proc.stdout.splitlines()
    assert all(re.fullmatch(r"framelab(\.\w+)?:\d+ \S.*", line) for line in unrun)
    # the installed entry point runs only in a subprocess test
    assert [line for line in unrun if line.startswith("framelab.cli:")
            and line.endswith(" sys.exit(main())")]
    unrun_count, total = map(int, re.fullmatch(r"(\d+) of (\d+) statements never ran\n",
                                               proc.stderr).groups())
    assert unrun_count == len(unrun) < total


# numpy products whose sums BLAS or an einsum path orders; ``inner`` counts
# only as numpy's, for StepFunction.inner sums by np.add.reduce
BLAS_SUMS = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot"}


def blas_sums(path):
    """``module:line: text`` of each BLAS-summing name or ``@`` in the module at
    ``path``, in source order."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in BLAS_SUMS:
            numpy = isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            hit = numpy or node.attr != "inner"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            hit = any(alias.name in BLAS_SUMS for alias in node.names)
        else:
            hit = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        if hit:
            found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"{path.name}:{line}: {text}" for line, _, text in sorted(found)]


def test_the_library_sums_without_blas():
    assert [hit for path in sorted(PACKAGE.glob("*.py")) for hit in blas_sums(path)] == []


def test_the_blas_guard_finds_each_form(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import numpy as np\nfrom numpy import einsum\n"
                    "a = np.dot(x, y)\nb = x.dot(y)\nc = x @ y\nx @= y\n"
                    "d = np.inner(x, y)\ne = f.inner(g)\n")
    assert [hit.split(": ")[1] for hit in blas_sums(path)] == [
        "from numpy import einsum", "np.dot", "x.dot", "x @ y", "x @= y", "np.inner"]


def test_every_public_name_resolves_to_the_object_its_module_defines():
    for name in framelab.__all__:
        value = getattr(framelab, name)
        assert value.__module__.startswith("framelab.")
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_star_import_and_dir_list_every_public_name(tmp_path, cli_env):
    # a fresh interpreter, where no name has been bound by an earlier access
    script = "\n".join([
        "import json, framelab",
        "listed = dir(framelab)",
        "namespace = {}",
        "exec('from framelab import *', namespace)",
        "print(json.dumps([listed, sorted(namespace)]))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=cli_env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    listed, bound = json.loads(proc.stdout)
    assert sorted(set(framelab.__all__) - set(listed)) == []
    assert sorted(set(bound) - {"__builtins__"}) == sorted(framelab.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        framelab.no_such_name


if __name__ == "__main__":
    import contextlib
    import io
    if sys.argv[1:] not in ([], ["--lines"]):
        sys.exit("usage: python tests/test_api.py [--lines]")
    if sys.argv[1:]:
        with contextlib.redirect_stdout(io.StringIO()):
            unrun, count = unrun_statements(executed_lines(run_experiments))
        print("\n".join(unrun))
        print(f"{len(unrun)} of {count} statements never ran", file=sys.stderr)
        sys.exit(0)
    with contextlib.redirect_stdout(io.StringIO()):
        lines, ok = reachability()
    print("\n".join(lines))
    sys.exit(0 if ok else 1)
