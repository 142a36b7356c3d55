"""The tests' exact oracle: step functions on ``Fraction`` cells, 60-digit
``decimal`` powers and roots, and the dyadic data the library is exact on.

An exact step function is a pair (points, values) of lists of Fractions,
values[i] on [points[i], points[i + 1]), zero elsewhere.  A float converts
exactly, so ``of`` takes the library's float cells as the oracle's input,
and every sum, product and integral is exact, and so is a power at integer
p.  At any other p it is a 60-digit decimal power (``DIGITS``), which the
decimal module rounds correctly, the same way on every CPU.
"""

import math
from bisect import bisect_right
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from framelab import StepFunction

DIGITS = Context(prec=60)


def of(f):
    """Exact cells of a StepFunction, or of a (breakpoints, values) pair of arrays."""
    bp, vals = (f.breakpoints, f.values) if isinstance(f, StepFunction) else f
    return ([Fraction(t) for t in np.asarray(bp, dtype=float).tolist()],
            [Fraction(v) for v in np.asarray(vals, dtype=float).tolist()])


def value(f, t):
    """f(t) for an exact t."""
    points, values = f
    i = bisect_right(points, t) - 1
    return values[i] if 0 <= i < len(values) else Fraction(0)


def cells(points):
    """(left, right, midpoint) of each cell between the distinct ``points``, in order."""
    pts = sorted(set(points))
    return [(a, b, (a + b) / 2) for a, b in zip(pts, pts[1:])]


def add(*fs):
    """The sum of exact step functions, from their jumps."""
    jumps = {}
    for points, values in fs:
        for t, jump in zip(points, [b - a for a, b in zip([0] + values, values + [0])]):
            jumps[t] = jumps.get(t, 0) + jump
    points = sorted(jumps)
    total, values = Fraction(0), []
    for t in points[:-1]:
        total += jumps[t]
        values.append(total)
    return points, values


def scale(f, c):
    return f[0], [c * v for v in f[1]]


def translate(f, b):
    """t -> f(t - b)."""
    return [t + b for t in f[0]], f[1]


def dilate(f, c):
    """t -> f(c t) for c > 0; c = 2^k is the dyadic dilation."""
    return [t / c for t in f[0]], f[1]


def series(f, x):
    """sum_n x_n f(. - n) for a dict or vector x, or (n, x_n) pairs."""
    items = x.items() if hasattr(x, "items") else x
    return add(*(scale(translate(f, n), Fraction(c)) for n, c in items))


def inner(f, g):
    """Integral of f g over the cells where both supports meet."""
    if not (f[1] and g[1]):
        return Fraction(0)
    lo, hi = max(f[0][0], g[0][0]), min(f[0][-1], g[0][-1])
    return sum(((b - a) * value(f, mid) * value(g, mid)
                for a, b, mid in cells(t for t in f[0] + g[0] if lo <= t <= hi)), Fraction(0))


def l1(f):
    return sum(((b - a) * abs(v) for a, b, v in zip(f[0], f[0][1:], f[1])), Fraction(0))


def power_integral(f, p):
    """Integral of |f|^p: a Fraction at integer p, a 60-digit Decimal otherwise."""
    if p == int(p):
        return sum(((b - a) * abs(v) ** int(p) for a, b, v in zip(f[0], f[0][1:], f[1])),
                   Fraction(0))
    with localcontext(DIGITS):
        return sum((decimal(b - a) * power(v, p) for a, b, v in zip(f[0], f[0][1:], f[1])),
                   Decimal(0))


# -- decimal powers and roots --------------------------------------------------------


def decimal(x):
    """A float, an int or a Fraction to 60 digits."""
    x = Fraction(x)
    return DIGITS.divide(x.numerator, x.denominator)


def power(x, p):
    """|x| ** p to 60 digits: integer powers and one square root at a
    half-integer p, decimal's ``**`` at any other p."""
    x = decimal(abs(x))
    with localcontext(DIGITS):
        if 2 * p != int(2 * p):
            return x ** decimal(p)
        return x ** int(p) * (x.sqrt() if p % 1 else 1)


def power_sum(values, p):
    with localcontext(DIGITS):
        return sum((power(v, p) for v in values), Decimal(0))


def root(x, p):
    """x ** (1 / p) to 60 digits, for x >= 0."""
    with localcontext(DIGITS):
        return decimal(x) ** (1 / decimal(p))


def lp_norm(f, p):
    return root(power_integral(f, p), p)


def ulps(got, want):
    """|got - want| in ulps of the float nearest ``want``."""
    with localcontext(DIGITS):
        return abs(decimal(got) - decimal(want)) / decimal(math.ulp(float(want)))


# -- dyadic data ---------------------------------------------------------------------


def integer_cells(points=(-12, 12), values=(-4, 4), max_points=6, nonzero=False):
    """(sorted distinct integer points, integer values) of a step function,
    which ``dyadic`` puts on a grid; ``nonzero`` draws no all-zero values."""
    def with_values(qs):
        vals = st.lists(st.integers(*values), min_size=len(qs) - 1, max_size=len(qs) - 1)
        return st.tuples(st.just(sorted(qs)), vals.filter(any) if nonzero else vals)
    return st.lists(st.integers(*points), min_size=2, max_size=max_points,
                    unique=True).flatmap(with_values)


def dyadic(drawn, offset=0.0, step=0.25, unit=0.5):
    """The StepFunction of ``integer_cells`` output: points offset + q * step,
    values v * unit."""
    points, values = drawn
    return StepFunction([offset + q * step for q in points], [v * unit for v in values])


def random_dyadic_step(rng, max_cells=6, depth=4, span=4):
    """A step function on a random grid of (2^-depth)Z in [-span, span) with
    Gaussian values, drawn from the numpy Generator ``rng``."""
    n_cells = int(rng.integers(1, max_cells + 1))
    grid = rng.choice(np.arange(-span * 2 ** depth, span * 2 ** depth),
                      size=n_cells + 1, replace=False)
    return StepFunction(np.sort(grid) / 2.0 ** depth, rng.standard_normal(n_cells))
