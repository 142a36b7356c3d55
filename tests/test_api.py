"""The public API holds only what the experiments and the acceptance criteria use.

Every name in ``framelab.__all__`` must be read, as a name or as an
attribute, somewhere in the library modules (which the CLI experiments
run) or in the acceptance criteria.  A definition and an import do not
count as a use.
"""

import ast
import pathlib

import framelab

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
