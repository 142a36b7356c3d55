"""Shared fixtures for the test suite."""

import os
import pathlib

import numpy as np
import pytest

from framelab import IntervalSet

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


@pytest.fixture
def random_interval_set():
    """Draw a random interval set inside [lo, hi): ``draw(rng, lo, hi)``."""
    def draw(rng, lo, hi, max_pieces=4):
        n = int(rng.integers(1, max_pieces + 1))
        points = np.sort(rng.uniform(lo, hi, size=2 * n))
        return IntervalSet((points[2 * i], points[2 * i + 1]) for i in range(n))
    return draw
