"""Discrete frame diagnostics: tail functionals, completeness probes, and
an exact sign-cancellation counterexample.

A DiscreteFrame is a finite family of (vector, functional) pairs over a
tagged sequence space.  The probes mirror the structural dichotomies of
frame theory: decaying tail functional norms witness a shrinking family,
Cauchy partial sums against double-dual coefficients witness bounded
completeness, and the alternating triple frame below shows how a family
can reconstruct every vector from the full index set while a restricted
index set pushes the candidate limit out of c0 entirely.  That frame is
built from integer data and every check on it is exact integer arithmetic.
"""

import contextlib
import dataclasses
import functools
import gc
import math
from operator import index

from .lp import CoordinateVector, _adopt, _pair, sup_abs


@dataclasses.dataclass(frozen=True)
class SpaceTag:
    """Sequence space label: lp(p) with 1 < p < inf, or c0, or l1."""
    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind not in ("lp", "c0", "l1"):
            raise ValueError("kind must be 'lp', 'c0' or 'l1'")
        if self.kind == "lp":
            if self.p is None or not 1.0 < self.p < math.inf:
                raise ValueError("lp tag needs a finite p > 1")
        elif self.p is not None:
            raise ValueError(f"{self.kind} does not take an exponent")

    @classmethod
    def lp(cls, p):
        return cls("lp", float(p))

    @classmethod
    def c0(cls):
        return cls("c0")

    @classmethod
    def l1(cls):
        return cls("l1")

    def norm(self, v):
        return v.norm(self.p if self.kind == "lp" else math.inf if self.kind == "c0" else 1)

    def dual_norm(self, v):
        """Norm in the dual space: lq for lp, l1 for c0, sup for l1."""
        if self.kind == "lp":
            return v.norm(self.p / (self.p - 1.0))
        return v.norm(1 if self.kind == "c0" else math.inf)


@dataclasses.dataclass(frozen=True)
class DiscreteFrame:
    """Finite family of pairs (x_j, f_j), a vector and a functional, over a tagged space.

    It holds two columns, one entry per pair: ``_vectors[j]`` and
    ``_functionals[j]`` are the entries dicts of x_j and f_j, {n: value} in
    increasing n as a ``CoordinateVector`` keeps them; a dict may fill several
    entries.  The builder hands ``_coordinate_index`` over with them: n ->
    [j, f_j[n], j', f_j'[n], ...] over the pairs whose functional is nonzero at
    n, in increasing j, one flat list per coordinate for the collector to track.
    """
    _vectors: list
    _functionals: list
    _coordinate_index: dict
    space: SpaceTag

    @functools.cached_property
    def pairs(self):
        """(x_j, f_j) for each j, vectors over the column dicts."""
        return tuple(zip(map(_adopt, self._vectors), map(_adopt, self._functionals)))

    def _coefficients(self, x):
        """Position j -> f_j(x) for every pair whose functional meets the
        support of x, in one pass over the coordinate index.  Each f_j(x) adds
        f_j[n] * x[n] to 0 in increasing n, as ``CoordinateVector.pair`` does."""
        index = self._coordinate_index
        coef = {}
        for n, v in x._entries.items():
            column = iter(index.get(n, ()))
            for j, c in zip(column, column):
                coef[j] = coef.get(j, 0) + c * v
        return coef

    def reconstruct(self, x, positions=None):
        """sum over j of f_j(x) * x_j, restricted to the given pair positions.

        Positions default to all pairs in increasing order; explicit positions
        keep their order and repeats, a negative one counts from the end and
        an out-of-range one raises IndexError.  A pair with f_j(x) = 0 adds
        nothing and is skipped.
        """
        return self._synthesize(self._coefficients(x), positions)

    def _synthesize(self, coef, positions=None):
        """sum over the positions j of coef[j] * x_j, positions as in ``reconstruct``."""
        vectors, total = self._vectors, {}
        for j in sorted(coef) if positions is None else _slots(self, positions):
            c = coef.get(j, 0)
            if c != 0:
                for n, v in vectors[j].items():
                    total[n] = total.get(n, 0) + c * v
        return CoordinateVector(total)


def _slots(frame, positions):
    """Positions as ``reconstruct`` resolves them: an increasing in-range range as
    it is, others as a list through range(len)[j], which counts back or raises."""
    if (isinstance(positions, range) and positions.step > 0
            and positions.start >= 0 and positions.stop <= len(frame._vectors)):
        return positions
    slots = range(len(frame._vectors))
    return [slots[j] for j in positions]


def unit_vector_frame(space, coordinates):
    """The coordinate frame (e_n, e_n*) over the listed coordinates; one column
    is both.  A coordinate listed twice raises ValueError."""
    keys = list(map(index, coordinates))
    coordinate_index = {n: [j, 1] for j, n in enumerate(keys)}
    if len(coordinate_index) < len(keys):
        raise ValueError("a coordinate is listed twice")
    units = [{n: 1} for n in keys]
    return DiscreteFrame(units, units, coordinate_index, space)


# -- tail functionals ---------------------------------------------------------


_NOT_A_CHAIN = "nesting is not a chain: a set holds a position its successor lacks"


def _resolved(frame, positions):
    """Pair positions resolved as in ``reconstruct``, as a set, or as a nonempty
    step-1 range, so that two with one start are compared and diffed in O(1)."""
    positions = _slots(frame, positions)
    if isinstance(positions, range) and positions and positions.step == 1:
        return positions
    return frozenset(positions)


def _added(small, big):
    """Positions of ``big`` outside ``small`` in increasing order; ValueError
    unless ``small`` lies inside ``big``."""
    if (isinstance(small, range) and isinstance(big, range)
            and small.start == big.start):
        if small.stop > big.stop:
            raise ValueError(_NOT_A_CHAIN)
        return range(small.stop, big.stop)
    extra = set(big).difference(small)
    if len(big) - len(extra) != len(small):
        raise ValueError(_NOT_A_CHAIN)
    return sorted(extra)


def _accumulate(total, terms):
    """Add c * v_n to coordinate n of ``total`` for each (c, v) of ``terms``,
    skipping zero weights c; returns the coordinates touched and whether any
    of them was already held when it was touched."""
    touched = []
    held = False
    for c, vec in terms:
        if c != 0:
            for n, v in vec.items():
                held = held or n in total
                total[n] = total.get(n, 0) + c * v
                touched.append(n)
    return touched, held


def tail_dual_norms(frame, f, nesting):
    """Exact dual-space norms of the tail functionals outside each set of a chain.

    ``nesting`` must be nested, E_1 inside E_2 inside ..., or ValueError is
    raised; positions resolve as in ``reconstruct``.  Walked from the last
    set backwards, the tail outside E_k is the tail outside E_{k+1} plus the
    pairs in E_{k+1} but not in E_k, so f meets each frame vector once.  A
    step that changes no coordinate the tail holds keeps the last norm, which
    is exact: the tail holds the same entries in the same order.  The l1 tag's
    dual (sup) norm is a running maximum, recomputed over the tail only when a
    step changes a coordinate the tail already held; the other dual norms sum
    the whole tail in coordinate order.  Integer data stay exact; with floats,
    a coordinate that several pairs touch may sum in another order than for
    one set, whose tail adds its pairs in increasing position.
    """
    sets = [_resolved(frame, positions) for positions in nesting]
    steps = [_added(a, b) for a, b in zip(sets, sets[1:])]
    if not sets:
        return []
    space, vectors, functionals = frame.space, frame._vectors, frame._functionals
    outside_last = [j for j in range(len(vectors)) if j not in sets[-1]]
    total, top, norm, norms = {}, 0, 0.0, []
    for added in [outside_last, *reversed(steps)]:
        touched, held = _accumulate(
            total, ((_pair(f._entries, vectors[j]), functionals[j]) for j in added))
        if touched and space.kind != "l1":
            norm = space.dual_norm(CoordinateVector(total))
        elif touched:
            top = sup_abs(total.values() if held else [top, *(total[n] for n in touched)])
            norm = float(top)
        norms.append(norm)
    norms.reverse()
    return norms


def tail_dual_norm(frame, f, positions):
    """Exact dual-space norm of the tail functional outside the given positions:
    the one-set case of ``tail_dual_norms``, which builds each tail of a nested
    chain from the next.  For a unit-vector frame this is the dual norm of f
    restricted to the coordinates that ``positions`` leaves out."""
    return tail_dual_norms(frame, f, [positions])[0]


# -- bounded completeness probe ----------------------------------------------


@dataclasses.dataclass(frozen=True)
class CompletenessReport:
    increments: tuple
    tol: float

    @property
    def non_cauchy(self):
        """True unless the last nested increment has decayed to tol or below;
        a NaN increment counts as not decayed."""
        return bool(self.increments and not self.increments[-1] <= self.tol)


def boundedly_complete_probe(frame, xss, nesting, tol=1e-10):
    """Norms of partial-sum increments against double-dual coefficients.

    ``xss`` is a double-dual element acting on the frame functionals by
    coordinate pairing.  ``nesting`` must be nested, E_1 inside E_2 inside
    ..., or ValueError is raised; positions resolve as in ``reconstruct``.
    For each consecutive E inside F the report holds || P_F(xss) - P_E(xss) ||
    in the frame's space norm, from the pairs in F but not in E alone.  A
    flat, non-decaying increment sequence flags the limit as escaping the space.
    """
    sets = [_resolved(frame, positions) for positions in nesting]
    increments = []
    for small, big in zip(sets, sets[1:]):
        total = {}
        _accumulate(total, ((_pair(xss._entries, frame._functionals[j]), frame._vectors[j])
                            for j in _added(small, big)))
        increments.append(float(frame.space.norm(CoordinateVector(total))))
    return CompletenessReport(increments=tuple(increments), tol=tol)


# -- the alternating triple frame ----------------------------------------------


@contextlib.contextmanager
def _collector_paused():
    """Pause cyclic collection for the frame's acyclic containers; restore it as it was."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


@_collector_paused()
def counterexample_frame(K):
    """Frame of c0 pairing each basis vector with a cancelling sign triple.

    Block j contributes (e_j, e_j*), (e_j, -e_1*), (e_j, e_1*) for
    j = 1..K.  Summed over a full block the last two functionals cancel,
    so full-index reconstruction is exact; summed over every third index
    they do not, and the candidate limit leaves c0.  All data are ints.
    """
    if K < 1:
        raise ValueError("K must be a positive integer")
    # the coordinate index: block j meets coordinate j at its first position
    # and coordinate 1 (``ones``) at its second and third
    coordinate_index = {j: [3 * j - 3, 1] for j in range(1, K + 1)}
    ones = [0, -1, 0, 1] * K
    ones[0::4] = range(1, 3 * K, 3)
    ones[2::4] = range(2, 3 * K, 3)
    coordinate_index[1] += ones
    # no entries dict is written to: block j's {j: 1}, keyed by the index's own
    # int j, is its three vectors and its first functional, and every block
    # shares one -e_1* and one e_1*
    blocks = [{j: 1} for j in coordinate_index]
    vectors = blocks * 3
    vectors[0::3] = vectors[1::3] = vectors[2::3] = blocks
    functionals = [None, {1: -1}, {1: 1}] * K
    functionals[0::3] = blocks
    return DiscreteFrame(vectors, functionals, coordinate_index, SpaceTag.c0())


def _restricted_dual_functional(f, positions_one_based, K):
    """Closed form for the restricted dual functional of the triple frame: with
    j the block of index n, n = 1 mod 3 adds f(e_j) e_j*, n = 0 mod 3 adds
    f(e_j) e_1* and n = 2 mod 3 adds -f(e_j) e_1*.  Exact for integer f."""
    get = f._entries.get
    total = {}
    for n in positions_one_based:
        if not 1 <= n <= 3 * K:
            raise ValueError(f"index {n} outside the frame")
        if n % 3 == 1:
            j = (n + 2) // 3
            total[j] = total.get(j, 0) + get(j, 0)
        elif n % 3 == 0:
            j = n // 3
            total[1] = total.get(1, 0) + get(j, 0)
        else:
            j = (n + 1) // 3
            total[1] = total.get(1, 0) - get(j, 0)
    return CoordinateVector(total)


@dataclasses.dataclass(frozen=True)
class CounterexampleReport:
    K: int
    full_reconstruction_exact: bool
    restricted_coordinates_all_one: bool
    restricted_escapes_c0: bool
    dual_series_matches_direct: bool
    dual_action_matches_sum: bool

    # the exact checks, in the order a failing run lists them
    CHECKS = ("full_reconstruction_exact", "restricted_coordinates_all_one",
              "restricted_escapes_c0", "dual_series_matches_direct",
              "dual_action_matches_sum")

    @property
    def ok(self):
        return all(getattr(self, name) for name in self.CHECKS)


@_collector_paused()
def counterexample_report(K, reconstruction_limit=50):
    """Run the exact checks on the alternating triple frame of size K.

    Verifies full-index reconstruction of e_j for j up to the limit, the
    all-ones candidate produced by the every-third-index set (which has
    sup-norm 1 but no coordinate decay, so it cannot lie in c0), and the
    closed-form restricted dual functional against the direct sum.
    """
    frame = counterexample_frame(K)
    # e_1's coefficients, read once for the j = 1 check and the candidate
    e_1 = CoordinateVector.unit(1)
    coef_1 = frame._coefficients(e_1)
    limit = min(K, reconstruction_limit)
    full = limit < 1 or (frame._synthesize(coef_1) == e_1 and all(
        frame.reconstruct(e) == e for e in map(CoordinateVector.unit, range(2, limit + 1))))

    # every third pair carries functional e_1*, so testing against e_1
    # accumulates one copy of each block vector
    candidate = frame._synthesize(coef_1, range(2, 3 * K, 3))
    coords_one = candidate._entries == dict.fromkeys(range(1, K + 1), 1)
    escapes = coords_one and K >= 2  # constant nonzero coordinates never decay

    f = CoordinateVector({1: 3, 2: -2, 5: 7})
    rng_positions = range(3, 3 * K + 1, 3)
    series = _restricted_dual_functional(f, rng_positions, K)
    # f(x_n) summed directly over the vector at each n, once for both checks below
    get = f._entries.get
    weights = []
    for vec in frame._vectors[2::3]:
        w = 0
        for n, v in vec.items():
            w += get(n, 0) * v
        weights.append(w)
    direct_terms = {}
    _accumulate(direct_terms, zip(weights, frame._functionals[2::3]))
    series_ok = series == CoordinateVector(direct_terms)

    x = CoordinateVector({1: 2, 2: -1, 5: 4})
    coef = frame._coefficients(x)
    rhs = sum(coef.get(n - 1, 0) * w for n, w in zip(rng_positions, weights))
    action_ok = series.pair(x) == rhs

    return CounterexampleReport(K, full, coords_one, escapes, series_ok, action_ok)
