"""Exact calculus for compactly supported piecewise constant functions.

Every function here is a finite list of half open cells [t_i, t_{i+1})
carrying a constant value, and is identically zero outside its span.  All
integrals, norms and inner products reduce to finite sums over cells, so
results are exact up to float rounding; there is no quadrature error.
Dyadic breakpoints and dyadic translations therefore compose without any
drift, which is what the reconstruction experiments lean on.
"""

import numpy as np

from .intervals import IntervalSet

MERGE_ULPS = 64     # derived points (0.1 against 1.1 - 1) differ by a few ulps

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


def _merge(points, magnitude=None):
    """Sorted grid of ``points``, each point within MERGE_ULPS * np.spacing(magnitude)
    of the one before it merged into that one; ``magnitude`` defaults to the
    largest |point|.  Every cell grid is built here, and nowhere else."""
    grid = np.unique(points)
    if grid.size < 2:
        return grid
    if magnitude is None:
        magnitude = max(-grid[0], grid[-1])
    keep = np.ones(grid.size, dtype=bool)
    keep[1:] = np.diff(grid) > MERGE_ULPS * np.spacing(magnitude)
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
    where the first unit of the support starts, ``grid`` is the fractional
    grid 0 = G[0] < ... < G[-1] = 1 of every breakpoint's fractional part
    (exact but for a point in (-1, 0)), merged by :func:`_merge` at 1, and
    ``table[j, i] = f(k0 + j + mid_i)`` holds one row per unit
    [k0 + j, k0 + j + 1) of the support and one column per cell of ``grid``.
    The zero function folds to a table with no rows.
    """
    if f.values.size == 0:
        return 0.0, np.array([0.0, 1.0]), np.zeros((0, 1))
    bp = f.breakpoints
    whole = np.floor(bp)
    k0 = float(whole[0])
    units = int(np.ceil(bp[-1]) - k0)
    frac = bp - whole
    grid = _merge(np.concatenate((frac, (0.0, 1.0))))
    grid[-1] = 1.0      # a part just below 1 may have absorbed the end point
    # f evaluated at k0 + j + mid_i may round onto a breakpoint far from 0, so
    # evaluate it on cell numbers j * cells + i, the breakpoints' among them
    cells = grid.size - 1
    starts = (whole - k0) * cells + np.searchsorted(grid, frac, side="right") - 1
    table = _evaluate(starts, f.values, np.arange(units * cells, dtype=float))
    return k0, grid, table.reshape(units, cells)


def _periodized_sup(table):
    """Largest column sum of |table|, summed in increasing row: for the
    table of the unit fold of f, the sup of the 1-periodization of |f|."""
    return float(np.add.reduce(np.abs(table), axis=0).max())


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
        if bp.size and not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        bp, vals = _canonicalize(bp, vals)
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("StepFunction is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls((), ())

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

    def _combine(self, other, op):
        return StepFunction(*_combined((self.breakpoints, self.values),
                                       (other.breakpoints, other.values), op))

    def add(self, other):
        return self._combine(other, np.add)

    def multiply(self, other):
        """Pointwise product."""
        return self._combine(other, np.multiply)

    def scale(self, c):
        c = float(c)
        if c == 0.0 or self.values.size == 0:
            return StepFunction.zero()
        return StepFunction(self.breakpoints, self.values * c)

    def translate(self, b):
        """t -> f(t - b)."""
        if self.values.size == 0:
            return self
        return StepFunction(self.breakpoints + float(b), self.values)

    def dilate(self, a, p):
        """Lp normalized dyadic dilation t -> 2^(a/p) f(2^a t); needs p > 1."""
        if not p > 1:
            raise ValueError("dilation exponent requires p > 1")
        if self.values.size == 0:
            return self
        a = float(a)
        return StepFunction(self.breakpoints * 2.0 ** (-a),
                            self.values * 2.0 ** (a / p))

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1.0))

    def __neg__(self):
        return self.scale(-1.0)

    def __mul__(self, other):
        if isinstance(other, StepFunction):
            return self.multiply(other)
        return self.scale(other)

    __rmul__ = __mul__

    # -- integrals and norms -------------------------------------------------

    def integrate(self, region=None):
        """Integral over an IntervalSet, or over the whole line if None."""
        if self.values.size == 0:
            return 0.0
        lens = np.diff(self.breakpoints)
        if region is None:
            return float(np.dot(self.values, lens))
        if not isinstance(region, IntervalSet):
            raise TypeError("region must be an IntervalSet or None")
        total = 0.0
        left = self.breakpoints[:-1]
        right = self.breakpoints[1:]
        for l, r in region.intervals:
            overlap = np.minimum(right, r) - np.maximum(left, l)
            np.clip(overlap, 0.0, None, out=overlap)
            total += float(np.dot(self.values, overlap))
        return total

    def abs_integral(self):
        """Integral of |f|; the L1 norm."""
        if self.values.size == 0:
            return 0.0
        return float(np.dot(np.abs(self.values), np.diff(self.breakpoints)))

    def lp_norm(self, p):
        if not p >= 1:
            raise ValueError("lp_norm requires p >= 1")
        if self.values.size == 0:
            return 0.0
        lens = np.diff(self.breakpoints)
        return float(np.dot(np.abs(self.values) ** p, lens) ** (1.0 / p))

    def inner(self, other):
        """Exact integral of the pointwise product of two step functions."""
        if self.values.size == 0 or other.values.size == 0:
            return 0.0
        grid, product = _combined((self.breakpoints, self.values),
                                  (other.breakpoints, other.values), np.multiply)
        return float(np.dot(product, np.diff(grid)))

    def periodized_l1_sup(self):
        """sup over t of the 1-periodization of |f|.

        Finiteness is automatic for compactly supported step functions; the
        point of computing it exactly is that it certifies the frame bound of
        a translated generator.
        """
        return _periodized_sup(_folded(self)[2])

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        """Exact equality of the canonical representations."""
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (np.array_equal(self.breakpoints, other.breakpoints)
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((self.breakpoints.tobytes(), self.values.tobytes()))

    def __repr__(self):
        if self.values.size == 0:
            return "StepFunction(zero)"
        lo, hi = self.support()
        return f"StepFunction({self.values.size} cells on [{lo}, {hi}))"


def haar_mother():
    """The Haar step: +1 on [0, 1/2), -1 on [1/2, 1)."""
    return StepFunction((0.0, 0.5, 1.0), (1.0, -1.0))
