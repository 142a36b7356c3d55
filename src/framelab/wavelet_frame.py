"""Continuously parametrized wavelet reconstruction on Lp via grid snapping.

The family here is the dilation-translation orbit of a step wavelet:
primal members carry the Lp normalization 2^(a/p) psi(2^a t - b), dual
members the conjugate-exponent normalization of the dual wavelet.  The
continuous parameters (a, b) are snapped to a resolution-N lattice whose
translation step scales with the integer part of a; on each lattice cell
the snapped member is constant, so the double integral of coefficient
times member over the box [-M, M]^2 collapses to an exact finite sum
(``box_reconstruct``).

An independent route to the same sum conjugates the target by the
fractional dilation-translation pair, applies the plain integer-grid
partial reconstruction, transforms back and averages
(``averaged_conjugate_reconstruction``).  Both routes run on one lattice
kernel: every coefficient is a rise of the target's antiderivative across
a member's cells, read for all members by one interpolation
(``_coefficients``), and every sum of members is one sort of their jumps
and one cumulative sum (``_jump_sum``).  What differs is the lattice and
the target: the box sum takes the fractional lattice a = l + r/N,
b = m + s 2^l / N against x, the averaged route the integer lattice
(l, m) against each conjugated y_{r,s}, whose members it moves back one
by one.  The two agree up to float rounding; their difference is the
identity check the experiments report.  The reconstruction error of the
box sum is bounded by the worst conjugated partial-sum error, which is
what ``convergence_study`` tabulates.
"""

import dataclasses
import functools
import time

import numpy as np

from .stepfn import _EMPTY, StepFunction, _combined, _merge, haar_mother


@dataclasses.dataclass(frozen=True)
class WaveletSystem:
    """Mother wavelet, dual wavelet and the exponent pair they act on."""
    mother: StepFunction
    dual_mother: StepFunction
    p: float

    def __post_init__(self):
        if not 1.0 < self.p:
            raise ValueError("p must exceed 1")

    @property
    def p_conj(self):
        return self.p / (self.p - 1.0)

    @classmethod
    def haar(cls, p):
        """Self-dual Haar system; the default for every experiment."""
        return cls(haar_mother(), haar_mother(), float(p))

    @functools.cached_property
    def _unit_cells(self):
        """Cells (breakpoints, values) of the primal and the dual member at (0, 0)."""
        cells = {}
        for side in ("primal", "dual"):
            f = member(self, 0.0, 0.0, side)
            cells[side] = (f.breakpoints, f.values)
        return cells


def member(ws, a, b, side="primal"):
    """Family member at parameters (a, b): dilate by a after translating by b.

    ``side="primal"`` uses the mother and exponent p, ``side="dual"`` the
    dual mother and the conjugate exponent.
    """
    if side == "primal":
        return ws.mother.translate(b).dilate(a, ws.p)
    if side == "dual":
        return ws.dual_mother.translate(b).dilate(a, ws.p_conj)
    raise ValueError("side must be 'primal' or 'dual'")


# -- the lattice kernel -----------------------------------------------------------


def _pairs(lo, hi):
    """Every (u, v) with lo <= u, v < hi as two float arrays, u outer."""
    u, v = np.meshgrid(np.arange(lo, hi, dtype=float), np.arange(lo, hi, dtype=float),
                       indexing="ij")
    return u.ravel(), v.ravel()


def _box_lattice(M, N):
    """Snapped parameters (a, b) of every box cell, in the order r, l, s, m."""
    r, l, s, m = (v.ravel() for v in np.meshgrid(
        np.arange(N), np.arange(-M, M), np.arange(N), np.arange(-M, M), indexing="ij"))
    return l + r / N, m + s * 2.0 ** l / N


def _coefficients(ws, xb, xv, a, b):
    """<x, dual(a_k, b_k)> for every k, for x with cells (xb, xv).

    Over each cell of a dual member, the integral of x is the rise of its
    piecewise linear antiderivative X, read at the member's breakpoints
    (b_k + t_j) 2^(-a_k) by one interpolation for all k; each coefficient
    sums value times rise in cell order.
    """
    if xv.size == 0:
        return np.zeros(a.size)
    db, dv = ws._unit_cells["dual"]
    X = np.concatenate(([0.0], np.cumsum(xv * np.diff(xb))))
    rise = np.diff(np.interp((b[:, None] + db) * 2.0 ** (-a[:, None]), xb, X), axis=1)
    return np.add.reduce(rise * dv, axis=1) * 2.0 ** (a / ws.p_conj)


def _members(ws, xb, xv, a, b, weight):
    """Cells of weight * <x, dual_k> primal_k for each k whose coefficient is not 0.

    Returns ``(breakpoints, values)``, one row per kept member.
    """
    coef = _coefficients(ws, xb, xv, a, b)
    kept = coef != 0.0
    a, b = a[kept, None], b[kept, None]
    pb, pv = ws._unit_cells["primal"]
    return ((b + pb) * 2.0 ** (-a),
            (pv * 2.0 ** (a / ws.p)) * (coef[kept, None] * weight))


def _jump_sum(bp, vals):
    """Cells (grid, values) of the sum of the step functions in the rows of (bp, vals).

    Each row turns into jumps at its breakpoints.  The union of all
    breakpoints is merged into one grid by ``_merge`` and each breakpoint
    is placed at the last grid point at or below it; ``np.bincount`` adds
    the jumps at their grid points in row order and one cumulative sum
    gives the values.  A cell that no row covers is exactly 0: an integer
    count of covering rows decides.
    """
    grid = _merge(bp.ravel())
    if grid.size < 2:
        return _EMPTY, _EMPTY
    at = np.searchsorted(grid, bp, side="right") - 1
    jumps = np.bincount(at.ravel(), np.diff(vals, axis=1, prepend=0.0, append=0.0).ravel(),
                        grid.size)
    covering = np.cumsum(np.bincount(at[:, 0], minlength=grid.size)
                         - np.bincount(at[:, -1], minlength=grid.size))
    return grid, np.where(covering[:-1] > 0, np.cumsum(jumps)[:-1], 0.0)


def _lattice_sum(ws, x, a, b, weight):
    """weight * sum_k <x, dual(a_k, b_k)> primal(a_k, b_k) as one step function."""
    return StepFunction(*_jump_sum(*_members(ws, x.breakpoints, x.values, a, b, weight)))


def _lp_distance(f, g, p):
    """||f - g||_p for step functions given as cells (breakpoints, values)."""
    grid, diff = _combined(f, g, np.subtract)
    return float(np.add.reduce(np.abs(diff) ** p * np.diff(grid)) ** (1.0 / p))


def _conjugated(ws, x, N):
    """(r, s, cells of y_{r,s}) for every fractional pair.

    y_{r,s} is x dilated by -r/N, then translated by -s/N.
    """
    for r in range(N):
        for s in range(N):
            yield (r, s, (x.breakpoints * 2.0 ** (r / N) + (-s / N),
                          x.values * 2.0 ** ((-r / N) / ws.p)))


# -- reconstructions ---------------------------------------------------------------


def box_reconstruct(ws, x, M, N):
    """Exact value of the snapped reconstruction integral over the box [-M, M]^2.

    The snapped member is constant on each parameter lattice cell of area
    1/N^2, so the double integral equals the cell sum
    N^-2 * sum over r, s, l, m of coefficient times primal member, with the
    snapped parameters a = l + r/N and b = m + s * 2^l / N.
    """
    if M < 1:
        raise ValueError("M must be a positive integer")
    if N < 1:
        raise ValueError("N must be a positive integer")
    return _lattice_sum(ws, x, *_box_lattice(M, N), 1.0 / (N * N))


def averaged_conjugate_reconstruction(ws, x, M, N):
    """Second route to the box sum: conjugate, reconstruct on the integer grid,
    transform back, average over the N^2 fractional offsets.

    Each conjugated partial sum stays a set of member cells; translating
    them by s/N and dilating by r/N moves every member back, and all N^2
    sets are summed by one jump sort.
    """
    weight = 1.0 / (N * N)
    l, m = _pairs(-M, M)
    bps, vals = [], []
    for r, s, (yb, yv) in _conjugated(ws, x, N):
        bp, v = _members(ws, yb, yv, l, m, 1.0)
        bps.append((bp + s / N) * 2.0 ** (-(r / N)))
        vals.append(v * 2.0 ** ((r / N) / ws.p) * weight)
    return StepFunction(*_jump_sum(np.concatenate(bps), np.concatenate(vals)))


def reconstruction_identity_gap(ws, x, M, N):
    """Lp distance between the direct box sum and the conjugate-averaged route."""
    direct = box_reconstruct(ws, x, M, N)
    averaged = averaged_conjugate_reconstruction(ws, x, M, N)
    return direct.add(averaged.scale(-1.0)).lp_norm(ws.p)


@dataclasses.dataclass(frozen=True)
class StudyRow:
    M: int
    N: int
    p: float
    error: float
    oracle_bound: float
    runtime_ms: float


def convergence_study(ws, x, M_list, N_list):
    """Error table for box reconstruction of x over a grid of (M, N).

    ``error`` is ||x - box_reconstruct||_p.  ``oracle_bound`` is the worst
    conjugated partial-sum error max_{r,s} ||y_{r,s} - P_M y_{r,s}||_p,
    which dominates the error because the fractional dilation-translation
    pair is an isometry of Lp.
    """
    cells = (x.breakpoints, x.values)
    rows = []
    for M in M_list:
        l, m = _pairs(-M, M)
        for N in N_list:
            start = time.perf_counter()
            approx = box_reconstruct(ws, x, M, N)
            error = _lp_distance(cells, (approx.breakpoints, approx.values), ws.p)
            # np.max keeps a NaN, which Python's max would drop
            bound = float(np.max([
                _lp_distance(y, _jump_sum(*_members(ws, *y, l, m, 1.0)), ws.p)
                for _, _, y in _conjugated(ws, x, N)]))
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            rows.append(StudyRow(M=M, N=N, p=ws.p, error=error,
                                 oracle_bound=bound, runtime_ms=elapsed_ms))
    return rows
