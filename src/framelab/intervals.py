"""Finite unions of half open intervals [l, r) with exact set algebra.

Interval sets stand in for the measurable parameter sets that restricted
reconstruction integrates over.  All operations are closed form on the
interval endpoints; no quadrature is involved anywhere.
"""


class IntervalSet:
    """Sorted disjoint half open intervals on the real line.

    Normalization merges overlapping and touching intervals, so
    ``[0,1) U [1,2)`` is stored as ``[0,2)``.  Instances are immutable.
    """

    __slots__ = ("intervals",)

    def __init__(self, pairs=()):
        cleaned = []
        for l, r in pairs:
            l = float(l)
            r = float(r)
            if not l <= r:
                raise ValueError(f"interval [{l}, {r}) is NaN or of negative length")
            if r > l:
                cleaned.append((l, r))
        cleaned.sort()
        merged = []
        for l, r in cleaned:
            if merged and l <= merged[-1][1]:
                # overlap or touch: extend the previous interval
                merged[-1] = (merged[-1][0], max(merged[-1][1], r))
            else:
                merged.append((l, r))
        object.__setattr__(self, "intervals", tuple(merged))

    def __setattr__(self, name, value):
        raise AttributeError("IntervalSet is immutable")

    @classmethod
    def empty(cls):
        return cls(())

    def to_pairs(self):
        return tuple(tuple(iv) for iv in self.intervals)

    def measure(self):
        return float(sum(r - l for l, r in self.intervals))

    def is_empty(self):
        return not self.intervals

    def contains(self, t):
        for l, r in self.intervals:
            if l <= t < r:
                return True
        return False

    def hull(self):
        """Smallest single interval covering the set, or None if empty."""
        if not self.intervals:
            return None
        return (self.intervals[0][0], self.intervals[-1][1])

    def shift(self, b):
        return IntervalSet((l + b, r + b) for l, r in self.intervals)

    def _boolean(self, other, keep):
        bounds = sorted({x for l, r in self.intervals for x in (l, r)}
                        | {x for l, r in other.intervals for x in (l, r)})
        out = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            mid = 0.5 * (a + b)
            if keep(self.contains(mid), other.contains(mid)):
                out.append((a, b))
        return IntervalSet(out)

    def union(self, other):
        return self._boolean(other, lambda a, b: a or b)

    def intersect(self, other):
        return self._boolean(other, lambda a, b: a and b)

    def difference(self, other):
        return self._boolean(other, lambda a, b: a and not b)

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        body = ", ".join(f"[{l}, {r})" for l, r in self.intervals)
        return f"IntervalSet({body})"
