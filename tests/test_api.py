"""The public API holds only what the experiments and the acceptance criteria use.

Every name in ``framelab.__all__`` must be read, as a name or as an
attribute, somewhere in the library modules (which the CLI experiments
run) or in the acceptance criteria.  So must every public method of the
value types ``StepFunction`` and ``CoordinateVector``, read as an attribute
that is not numpy's (``np.multiply`` is not a read of a ``multiply``
method).  A definition and an import do not count as a use.  The package
binds each name on first access (PEP 562), and a name resolves to the
object its own module defines.
"""

import ast
import importlib
import json
import pathlib
import subprocess
import sys
import types

import pytest

import framelab
from framelab import CoordinateVector, StepFunction

ROOT = pathlib.Path(__file__).resolve().parent.parent
USERS = [path for path in sorted((ROOT / "src" / "framelab").glob("*.py"))
         if path.name != "__init__.py"] + [ROOT / "tests" / "test_acceptance.py"]


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


VALUE_TYPES = (StepFunction, CoordinateVector)

# methods no experiment reads, kept as the tests' named oracles
ORACLES = {
    "inner": "the exact integral of a product the wavelet and lattice kernels must match",
    "lp_norm": "the Lp norm the wavelet and lattice tests measure reconstruction errors with",
}


def public_methods(cls):
    return {name for name, value in vars(cls).items() if not name.startswith("_")
            and isinstance(value, (types.FunctionType, classmethod, staticmethod))}


def used_methods(path):
    """The attribute names read in ``path``, numpy's aside."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute)
            and not (isinstance(node.value, ast.Name) and node.value.id == "np")}


def test_every_public_method_is_used_by_an_experiment_or_a_criterion():
    used = set().union(*(used_methods(path) for path in USERS))
    methods = set().union(*(public_methods(cls) for cls in VALUE_TYPES))
    assert sorted(methods - used - set(ORACLES)) == []
    # an oracle that an experiment comes to read needs no exception
    assert sorted(set(ORACLES) & used) == []


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
