"""Exact calculus for compactly supported piecewise constant functions.

Every function here is a finite list of half open cells [t_i, t_{i+1})
carrying a constant value, and is identically zero outside its span.  All
integrals, norms and inner products reduce to finite sums over cells, so
results are exact up to float rounding; there is no quadrature error.
Dyadic breakpoints and dyadic translations therefore compose without any
drift, which is what the reconstruction experiments lean on.
"""

import math

import numpy as np

MERGE_ULPS = 64     # derived points (0.1 + 0.2 against 0.3) differ by a few ulps

_EMPTY = np.empty(0, dtype=float)


def _canonicalize(bp, vals):
    """Merge equal-value neighbours and trim zero cells at both ends."""
    if vals.size == 0:
        return _EMPTY, _EMPTY
    if vals.size > 1:
        change = np.empty(vals.size, dtype=bool)
        change[0] = True
        change[1:] = vals[1:] != vals[:-1]
        if not change.all():
            starts = np.flatnonzero(change)
            vals = vals[starts]
            bp = np.concatenate([bp[starts], bp[-1:]])
    nz = np.flatnonzero(vals)
    if nz.size == 0:
        return _EMPTY, _EMPTY
    lo, hi = nz[0], nz[-1]
    if lo > 0 or hi + 1 < vals.size:
        bp = bp[lo:hi + 2]
        vals = vals[lo:hi + 1]
    return bp, vals


def _evaluate(bp, vals, t):
    """Values at the points of array ``t`` of the step function with cells (bp, vals)."""
    return np.concatenate(([0.0], vals, [0.0]))[np.searchsorted(bp, t, side="right")]


def _widths(a):
    """Neighbour differences along the last axis: ``np.diff`` without its wrapper cost."""
    return a[..., 1:] - a[..., :-1]


def _merge(points, magnitude=None):
    """Sorted grid of ``points``, each point within MERGE_ULPS * np.spacing(magnitude)
    of the one before it merged into that one; ``magnitude`` defaults to the
    largest |point|.  Every cell grid but the unit fold's is built by this
    rule: here, or row by row in ``wavelet_frame._merged`` and ``_placed``,
    which sort several rows at once and which the tests hold equal to this.

    One sort and one gap mask: an exact duplicate has gap 0 and is dropped,
    and the point after it sees the same gap as after the first copy."""
    grid = np.sort(points, axis=None)
    if grid.size < 2:
        return grid
    if magnitude is None:
        magnitude = max(-grid[0], grid[-1])
    keep = np.empty(grid.size, dtype=bool)
    keep[0] = True
    keep[1:] = _widths(grid) > MERGE_ULPS * np.spacing(magnitude)
    return grid[keep]


def _combined(f, g, op):
    """Cells (grid, values) of op(f, g) on one merged grid; f, g are (breakpoints, values)."""
    grid = _merge(np.concatenate((f[0], g[0])))
    if grid.size < 2:
        return _EMPTY, _EMPTY
    mids = 0.5 * (grid[:-1] + grid[1:])
    return grid, op(_evaluate(*f, mids), _evaluate(*g, mids))


def _folded(f):
    """Cut f at the integers and fold it onto [0, 1).

    Returns ``(k0, grid, table)``: ``k0`` is the integer (held as a float)
    where the first unit of the support starts, ``grid`` is the grid
    0 = G[0] < ... < G[-1] = 1 of every distinct fractional part of a
    breakpoint, and ``table[j, i] = f(k0 + j + mid_i)`` holds one row per
    unit [k0 + j, k0 + j + 1) of the support and one column per cell of
    ``grid``.  The zero function folds to a table with no rows.

    No two parts merge, however close: a slice as narrow as the 8e-17
    between 0.1 and 1.1 - 1 is a cell, on which units may overlap.  Each part
    t - floor(t) is exact (Sterbenz's lemma for t in [-1, -0.5]) but for a t
    in (-0.5, 0) whose t + 1 rounds.  Such a breakpoint lands within 2^-54
    of its true place; one that rounds to 1.0 is the end point and starts
    the next unit.
    """
    if f.values.size == 0:
        return 0.0, np.array([0.0, 1.0]), np.zeros((0, 1))
    bp = f.breakpoints
    whole = np.floor(bp)
    k0 = float(whole[0])
    units = int(np.ceil(bp[-1]) - k0)
    frac = bp - whole
    grid = np.sort(np.concatenate((frac, (0.0, 1.0))))
    grid = grid[np.append(True, grid[1:] != grid[:-1])]
    # f evaluated at k0 + j + mid_i may round onto a breakpoint far from 0, so
    # evaluate it on cell numbers j * cells + i, the breakpoints' among them
    cells = grid.size - 1
    starts = (whole - k0) * cells + np.searchsorted(grid, frac, side="right") - 1
    table = _evaluate(starts, f.values, np.arange(units * cells, dtype=float))
    return k0, grid, table.reshape(units, cells)


def _periodized_sup(tables):
    """Largest column sum of |table| of each table (units, cells) along the
    leading axes, summed in increasing row: for the table of the unit fold
    of f, the sup of the 1-periodization of |f|.  A zero row adds nothing,
    so zero padding moves no bit."""
    return np.add.reduce(np.abs(tables), axis=-2).max(axis=-1)


class StepFunction:
    """Piecewise constant function, zero outside its breakpoint span.

    ``values[i]`` is held on ``[breakpoints[i], breakpoints[i+1])``.  The
    zero function is the empty cell list.  Instances are immutable and all
    operations return new objects.
    """

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints=(), values=()):
        bp = np.array(breakpoints, dtype=float)
        vals = np.array(values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1:
            raise ValueError("breakpoints and values must be one dimensional")
        expected = vals.size + 1 if vals.size else 0
        if bp.size != expected:
            raise ValueError(
                f"need {expected} breakpoints for {vals.size} cells, got {bp.size}")
        if bp.size:
            if not np.all(_widths(bp) > 0):
                raise ValueError("breakpoints must be strictly increasing")
            # once they increase only an end can be infinite, and an infinite
            # end would put its cell's midpoint at inf, where it reads 0
            if not (math.isfinite(bp[0]) and math.isfinite(bp[-1])):
                raise ValueError("breakpoints must be finite")
        bp, vals = _canonicalize(bp, vals)
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("StepFunction is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def indicator(cls, a, b):
        """Indicator of the half open interval [a, b)."""
        if not b > a:
            raise ValueError("indicator needs a < b")
        return cls((a, b), (1.0,))

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return self.values.size == 0

    def support(self):
        """(left, right) span of the nonzero cells, or None for the zero function."""
        if self.values.size == 0:
            return None
        return (float(self.breakpoints[0]), float(self.breakpoints[-1]))

    def evaluate(self, t):
        """Pointwise value; accepts a scalar or an array of points."""
        arr = np.asarray(t, dtype=float)
        out = _evaluate(self.breakpoints, self.values, arr)
        if arr.ndim == 0:
            return float(out)
        return out

    __call__ = evaluate

    # -- algebra -----------------------------------------------------------

    def add(self, other):
        return StepFunction(*_combined((self.breakpoints, self.values),
                                       (other.breakpoints, other.values), np.add))

    # -- integrals and norms -------------------------------------------------

    def abs_integral(self):
        """Integral of |f|; the L1 norm."""
        if self.values.size == 0:
            return 0.0
        return float(np.add.reduce(np.abs(self.values) * _widths(self.breakpoints)))

    def lp_norm(self, p):
        # a NaN fails both comparisons; at p = inf every nonzero norm would read 1
        if not 1.0 <= p < math.inf:
            raise ValueError("lp_norm requires 1 <= p < inf")
        if self.values.size == 0:
            return 0.0
        return float(np.add.reduce(np.abs(self.values) ** p * _widths(self.breakpoints))
                     ** (1.0 / p))

    def inner(self, other):
        """Exact integral of the pointwise product of two step functions."""
        if self.values.size == 0 or other.values.size == 0:
            return 0.0
        grid, product = _combined((self.breakpoints, self.values),
                                  (other.breakpoints, other.values), np.multiply)
        return float(np.add.reduce(product * _widths(grid)))

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        """Exact equality of the canonical representations."""
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (np.array_equal(self.breakpoints, other.breakpoints)
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which __eq__ holds equal
        return hash(((self.breakpoints + 0.0).tobytes(), (self.values + 0.0).tobytes()))

    def __repr__(self):
        if self.values.size == 0:
            return "StepFunction(zero)"
        lo, hi = self.support()
        return f"StepFunction({self.values.size} cells on [{lo}, {hi}))"


_HAAR = StepFunction((0.0, 0.5, 1.0), (1.0, -1.0))


def haar_mother():
    """The Haar step: +1 on [0, 1/2), -1 on [1/2, 1), one immutable object."""
    return _HAAR
