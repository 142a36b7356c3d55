"""Lattice sampling of translated-generator frames.

Replacing the reconstruction integral by a Riemann sum over the lattice
t_j = j*h turns the continuous family into a discrete frame with
weighted functionals h * f_t.  When h is commensurate with the cell grid
of every integrand, each lattice cell holds exactly one sample and the
Riemann sum IS the integral, so reconstruction is exact up to float
rounding.  Incommensurate steps leave a genuine discretization error that
the sweep quantifies against refinement.
"""

import dataclasses
import functools
import math

import numpy as np

from .stepfn import _widths


@dataclasses.dataclass(frozen=True)
class SamplingPlan:
    """Lattice step h and half open parameter window (lo, hi); the lattice is
    h * Z, and samples carry Riemann weight h."""
    step: float
    window: tuple

    def __post_init__(self):
        lo, hi = map(float, self.window)
        if not lo <= hi:
            raise ValueError(f"interval [{lo}, {hi}) is NaN or of negative length")
        # an infinite end has no last lattice index, and past 2^53 not every index is a float
        if not (0 < self.step < math.inf and max(-lo, hi) / self.step <= 2.0 ** 53):
            raise ValueError(f"lattice step {self.step!r} on [{lo}, {hi}) must be positive and "
                             "finite, with every lattice index in the window within 2^53")

    def points(self):
        """All lattice points inside the window, in increasing order (read-only)."""
        return self._points

    @functools.cached_property
    def _points(self):
        """The lattice of :meth:`points`, filtered once per plan."""
        lo, hi = map(float, self.window)
        j_min = math.ceil(lo / self.step - 1e-12)
        j_max = math.floor(hi / self.step + 1e-12)
        ts = np.arange(j_min, j_max + 1) * self.step
        ts = ts[(lo <= ts) & (ts < hi)]
        ts.setflags(write=False)
        return ts


def _coefficient_rows(g, ts, window):
    """Matrix F[j, i] = f(t_j - n_i) for the window coordinates n_i."""
    ns = np.arange(-window, window + 1)
    return ns, g.f.evaluate(np.asarray(ts)[:, None] - ns[None, :])


def default_window(g, window):
    """Parameter window wide enough to cover every integrand for |n| <= window."""
    lo, hi = g.f.support()
    return (lo - window, hi + window)


def reconstruction_matrix(g, plan, window):
    """Lattice reconstruction of every unit vector, as a matrix over the window.

    Row n holds the coordinates of sum_j h * f_{t_j}(e_n) * x_{t_j}, which
    is the Riemann sum approximation of the restricted reconstruction
    integral.  Each entry is one np.add.reduce of the products of two
    coefficient columns, along contiguous memory, so reruns are bit stable.
    """
    cols = _coefficient_rows(g, plan.points(), window)[1].T.copy()
    mat = np.zeros((len(cols), len(cols)))
    for i in range(len(cols)):
        mat[i, i:] = plan.step * np.add.reduce(cols[i] * cols[i:], axis=1)
        mat[i:, i] = mat[i, i:]
    return mat


@dataclasses.dataclass(frozen=True)
class SweepRow:
    step: float
    num_samples: int
    max_error: float
    exact: bool


def sampling_sweep(g, steps, window, p=2.0, exact_tol=1e-10):
    """Reconstruction error of the sampled frame for each lattice step.

    ``max_error`` is the worst lp error over all unit vectors in the
    window; ``exact`` flags errors below ``exact_tol``.  Steps commensurate
    with the generator grid come out exact; refining an incommensurate
    step shrinks the error.
    """
    # a NaN fails both comparisons; below 1 the sum is no norm
    if not 1.0 <= p < math.inf:
        raise ValueError("p must be at least 1 and finite")
    rows = []
    span = default_window(g, window)
    for h in steps:
        plan = SamplingPlan(step=float(h), window=span)
        mat = reconstruction_matrix(g, plan, window)
        size = mat.shape[0]
        errors = []
        for i in range(size):
            diff = mat[i].copy()
            diff[i] -= 1.0
            errors.append(float(np.sum(np.abs(diff) ** p) ** (1.0 / p)))
        # np.max keeps a NaN, which Python's max would drop
        worst = float(np.max(errors))
        rows.append(SweepRow(step=float(h),
                             num_samples=len(plan.points()),
                             max_error=worst,
                             exact=worst < exact_tol))
    return rows


MAX_HALVINGS = 40


def commensurate_step(g):
    """A lattice step h with every breakpoint of the generator in h*Z and 1/h integer.

    Starts from the narrowest cell and halves until the divisibility test
    passes; generators built on dyadic grids succeed immediately.
    """
    bp = g.f.breakpoints
    w = float(np.min(_widths(bp)))
    for _ in range(MAX_HALVINGS):
        ratios = bp / w
        unit = 1.0 / w
        if (np.all(np.abs(ratios - np.round(ratios)) < 1e-9)
                and abs(unit - round(unit)) < 1e-9):
            return w
        w /= 2.0
    raise ValueError("no commensurate lattice step found; generator grid is not dyadic")
