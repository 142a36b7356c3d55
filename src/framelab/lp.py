"""Finitely supported coordinate vectors indexed by integers.

The same object models vectors in lp, c0 or l1 and their coordinate
functionals; which norm applies is decided by the caller.  Entries keep
the numeric type they were given, so integer constructions stay exact
(Python ints never round).
"""

import math


class CoordinateVector:
    """Immutable sparse vector {index: value} with exact zero dropping."""

    __slots__ = ("_entries",)

    def __init__(self, entries=None):
        data = {}
        if entries is not None:
            items = entries.items() if hasattr(entries, "items") else entries
            for n, c in items:
                if c != 0:
                    data[int(n)] = c
        object.__setattr__(self, "_entries", data)

    def __setattr__(self, name, value):
        raise AttributeError("CoordinateVector is immutable")

    @classmethod
    def unit(cls, n, value=1):
        return cls({n: value})

    def to_entries(self):
        return tuple((n, self._entries[n]) for n in self.support())

    # -- queries -------------------------------------------------------------

    def support(self):
        return tuple(sorted(self._entries))

    def items(self):
        """Entries in increasing index order (deterministic iteration)."""
        for n in sorted(self._entries):
            yield n, self._entries[n]

    def __getitem__(self, n):
        return self._entries.get(n, 0)

    def __len__(self):
        return len(self._entries)

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

    def shift(self, k):
        """Move every entry from index n to index n + k."""
        return CoordinateVector({n + k: v for n, v in self._entries.items()})

    def restrict(self, indices):
        keep = set(indices)
        return CoordinateVector({n: v for n, v in self._entries.items() if n in keep})

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __neg__(self):
        return self.scale(-1)

    # -- norms and pairing -----------------------------------------------------

    def norm(self, p):
        """lp norm; p may be any real >= 1 or math.inf (the sup norm)."""
        if not self._entries:
            return 0.0
        if p == math.inf:
            return float(max(abs(v) for v in self._entries.values()))
        if not p >= 1:
            raise ValueError("norm requires p >= 1 or p = inf")
        try:
            total = sum(abs(self._entries[n]) ** p for n in sorted(self._entries))
        except OverflowError:
            total = math.inf
        if total == math.inf:
            # a p-th power left the float range: rescale by the largest entry
            big = float(max(abs(v) for v in self._entries.values()))
            if big < math.inf:
                return big * CoordinateVector(
                    {n: v / big for n, v in self._entries.items()}).norm(p)
        return float(total ** (1.0 / p))

    def pair(self, other):
        """Duality pairing sum_n x_n f_n; exact for integer entries."""
        if len(other._entries) < len(self._entries):
            small, big = other._entries, self._entries
        else:
            small, big = self._entries, other._entries
        total = 0
        for n in sorted(small):
            if n in big:
                total += small[n] * big[n]
        return total

    # -- comparisons -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, CoordinateVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(tuple(sorted(self._entries.items())))

    def __repr__(self):
        body = ", ".join(f"{n}: {v}" for n, v in self.items())
        return f"CoordinateVector({{{body}}})"
