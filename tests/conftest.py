"""Shared fixtures for the test suite."""

import os
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def cli_env():
    """Environment for a ``python -m framelab.cli`` subprocess.

    The checkout's ``src`` goes ahead of any inherited PYTHONPATH as an
    absolute path, so the child imports this source tree from any working
    directory, whether or not the package is installed.
    """
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), inherited] if inherited else [str(SRC)])
    return env
