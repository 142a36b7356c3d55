"""Finitely supported coordinate vectors indexed by integers.

The same object models vectors in lp, c0 or l1 and their coordinate
functionals; which norm applies is decided by the caller.  Entries keep
the numeric type they were given, so integer constructions stay exact
(Python ints never round).

Order invariant: a vector holds its entries in increasing index order
from construction on (the constructor sorts only keys that arrive out of
order), so every query and every sum walks them in that order without
sorting.
"""

import math
from operator import index


def sup_abs(values):
    """Largest |v| over the values (0 when there are none), or NaN if any v is.

    Python's ``max`` keeps a NaN only when it comes first; here any NaN wins.
    """
    top = 0
    for v in values:
        a = abs(v)
        if not a <= top:
            top = a
            if a != a:
                break
    return top


def _power_sum(values, p):
    """sum of |v| ** p, left to right in an explicit loop (Python 3.12's sum()
    of floats compensates); inf when a power leaves the float range."""
    total = 0
    try:
        for v in values:
            total += abs(v) ** p
    except OverflowError:
        return math.inf
    return total


def _norm(values, p):
    """lp norm of a sequence of values; p is a real >= 1 or math.inf."""
    if p == math.inf:
        return float(sup_abs(values))
    if not p >= 1:
        raise ValueError("norm requires p >= 1 or p = inf")
    total = _power_sum(values, p)
    if total == math.inf:
        # a p-th power left the float range: rescale by the largest entry
        big = float(sup_abs(values))
        if big < math.inf:
            return big * _norm([v / big for v in values], p)
    return float(total ** (1.0 / p))


class CoordinateVector:
    """Immutable sparse vector {index: value} with exact zero dropping.

    Indices must be integers (Python or numpy ints); any other index raises
    TypeError instead of being truncated.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries=None):
        data = {}
        if entries is not None:
            items = entries.items() if hasattr(entries, "items") else entries
            ordered = True
            last = -math.inf
            for n, c in items:
                n = index(n)
                if c != 0:
                    if n <= last:
                        ordered = False
                    last = n
                    data[n] = c
            if not ordered:
                data = {n: data[n] for n in sorted(data)}
        _set_entries(self, data)

    def __setattr__(self, name, value):
        raise AttributeError("CoordinateVector is immutable")

    @classmethod
    def unit(cls, n, value=1):
        """``value`` at index n, set directly: one entry needs no ordering walk."""
        n = index(n)
        return _adopt({n: value} if value != 0 else {})

    # -- queries -------------------------------------------------------------

    def support(self):
        return tuple(self._entries)

    def items(self):
        """Entries in increasing index order: the order the vector holds them in."""
        return self._entries.items()

    def __getitem__(self, n):
        return self._entries.get(n, 0)

    def is_zero(self):
        return not self._entries

    # -- algebra -------------------------------------------------------------

    def add(self, other):
        data = dict(self._entries)
        for n, c in other._entries.items():
            data[n] = data.get(n, 0) + c
        return CoordinateVector(data)

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, c):
        if c == 0:
            return CoordinateVector()
        return CoordinateVector({n: c * v for n, v in self._entries.items()})

    # -- norms and pairing -----------------------------------------------------

    def norm(self, p):
        """lp norm; p may be any real >= 1 or math.inf (the sup norm)."""
        if not self._entries:
            return 0.0
        return _norm(self._entries.values(), p)

    def pair(self, other):
        """Duality pairing sum_n x_n f_n; exact for integer entries."""
        if len(other._entries) < len(self._entries):
            small, big = other._entries, self._entries
        else:
            small, big = self._entries, other._entries
        total = 0
        for n, c in small.items():
            if n in big:
                total += c * big[n]
        return total

    # -- comparisons -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, CoordinateVector):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self):
        body = ", ".join(f"{n}: {v}" for n, v in self.items())
        return f"CoordinateVector({{{body}}})"


# the slot's own setter: it writes past the immutability guard in __setattr__
# without object.__setattr__'s attribute lookup
_set_entries = CoordinateVector._entries.__set__


def _adopt(entries):
    """The vector over ``entries``, shared: a dict in increasing index order, no zeros."""
    vec = object.__new__(CoordinateVector)
    _set_entries(vec, entries)
    return vec
