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
(``averaged_conjugate_reconstruction``).  The two paths share no code and
agree up to float rounding; their difference is the identity check the
experiments report.  The reconstruction error of the box sum is bounded
by the worst conjugated partial-sum error, which is what
``convergence_study`` tabulates.
"""

import dataclasses
import math
import time

import numpy as np

from .stepfn import StepFunction, haar_mother

_BIORTHO_TOL = 1e-10


@dataclasses.dataclass(frozen=True)
class GridIndex:
    """Snapped lattice position: scale cell (l, r/N), translation cell (m, s/N)."""
    l: int
    r: int
    m: int
    s: int
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if not (0 <= self.r < self.N and 0 <= self.s < self.N):
            raise ValueError("fractional indices must lie in {0, ..., N-1}")


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

    @classmethod
    def validated(cls, mother, dual_mother, p, window=4, tol=_BIORTHO_TOL):
        """Build a system from custom step wavelets, enforcing biorthogonality."""
        ws = cls(mother, dual_mother, float(p))
        residual = ws.biorthogonality_residual(window)
        if not (residual <= tol):
            raise ValueError(
                f"wavelet pair fails biorthogonality: residual {residual:.3e} > {tol:.1e}")
        return ws

    def biorthogonality_residual(self, window=4):
        """Worst |<primal(n,k), dual(n',k')> - delta| over |n|,|k|,|n'|,|k'| <= window."""
        rng = range(-window, window + 1)
        primal = {(n, k): member(self, n, k, "primal") for n in rng for k in rng}
        dual = {(n, k): member(self, n, k, "dual") for n in rng for k in rng}
        worst = 0.0
        for (n, k), fp in primal.items():
            for (n2, k2), fd in dual.items():
                target = 1.0 if (n, k) == (n2, k2) else 0.0
                worst = max(worst, abs(fp.inner(fd) - target))
        return worst


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


def _snap_index(u, N):
    """Largest (integer, fraction-of-N) pair with base + k/N <= u."""
    base = math.floor(u)
    k = math.floor((u - base) * N)
    if k > N - 1:
        k = N - 1
    # float rounding can land one cell off; fix against the defining inequality
    while k + 1 <= N - 1 and base + (k + 1) / N <= u:
        k += 1
    while k > 0 and base + k / N > u:
        k -= 1
    return base, k


def snap_to_grid(a, b, N):
    """Snap continuous parameters to the resolution-N lattice.

    Returns ``(GridIndex, a_snap, b_snap)`` with
    ``a_snap = l + r/N`` and ``b_snap = m + s * 2^l / N``; the translation
    step grows with the integer scale so that members at snapped
    parameters factor through integer-grid members.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    l, r = _snap_index(a, N)
    m, s = _snap_index(b, N)
    a_snap = l + r / N
    b_snap = m + s * (2.0 ** l) / N
    return GridIndex(l=l, r=r, m=m, s=s, N=N), a_snap, b_snap


def member_snapped(ws, a, b, N, side="primal"):
    """Family member at the grid-snapped parameters."""
    _, a_snap, b_snap = snap_to_grid(a, b, N)
    return member(ws, a_snap, b_snap, side)


def discrete_partial_reconstruct(ws, x, M):
    """Integer-grid partial reconstruction over scales and shifts in [-M, M-1]."""
    terms = []
    for l in range(-M, M):
        for m in range(-M, M):
            coef = x.inner(member(ws, l, m, "dual"))
            if coef != 0.0:
                terms.append(member(ws, l, m, "primal").scale(coef))
    return StepFunction.sum(terms)


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
    weight = 1.0 / (N * N)
    terms = []
    for r in range(N):
        for l in range(-M, M):
            a = l + r / N
            for s in range(N):
                for m in range(-M, M):
                    b = m + s * (2.0 ** l) / N
                    coef = x.inner(member(ws, a, b, "dual"))
                    if coef != 0.0:
                        terms.append(member(ws, a, b, "primal").scale(coef * weight))
    return StepFunction.sum(terms)


def conjugated_targets(ws, x, M, N):
    """The conjugated vectors y_{r,s} and their integer-grid partial sums.

    y_{r,s} is x dilated by -r/N then translated by -s/N; the returned list
    holds ``(r, s, y, partial)`` for every fractional pair.
    """
    out = []
    for r in range(N):
        for s in range(N):
            y = x.dilate(-r / N, ws.p).translate(-s / N)
            out.append((r, s, y, discrete_partial_reconstruct(ws, y, M)))
    return out


def averaged_conjugate_reconstruction(ws, x, M, N):
    """Second route to the box sum: conjugate, reconstruct on the integer grid,
    transform back, average over the N^2 fractional offsets."""
    weight = 1.0 / (N * N)
    terms = []
    for r, s, _, partial in conjugated_targets(ws, x, M, N):
        back = partial.translate(s / N).dilate(r / N, ws.p)
        terms.append(back.scale(weight))
    return StepFunction.sum(terms)


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
    rows = []
    for M in M_list:
        for N in N_list:
            start = time.perf_counter()
            approx = box_reconstruct(ws, x, M, N)
            error = x.add(approx.scale(-1.0)).lp_norm(ws.p)
            bound = 0.0
            for _, _, y, partial in conjugated_targets(ws, x, M, N):
                bound = max(bound, y.add(partial.scale(-1.0)).lp_norm(ws.p))
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            rows.append(StudyRow(M=M, N=N, p=ws.p, error=error,
                                 oracle_bound=bound, runtime_ms=elapsed_ms))
    return rows


def snap_deviation_report(ws, x, f, M, N_list, samples_per_unit=8):
    """Riemann averages of the snapping deviation over the parameter box.

    For each N the report row holds the average over sampled (a, b) in
    [-M, M)^2 of |<x, dual snapped - dual exact>| and of
    |<f, primal snapped - primal exact>|.  Both shrink as N grows; this is
    numerical evidence for the limit hypotheses behind the box formula,
    not a proof.
    """
    offsets = (np.arange(samples_per_unit) + 0.5) / samples_per_unit
    base = np.arange(-M, M)
    points = (base[:, None] + offsets[None, :]).ravel()
    rows = []
    for N in N_list:
        coef_dev = 0.0
        member_dev = 0.0
        count = 0
        for a in points:
            for b in points:
                dual_exact = member(ws, a, b, "dual")
                dual_snap = member_snapped(ws, a, b, N, "dual")
                coef_dev += abs(x.inner(dual_snap) - x.inner(dual_exact))
                primal_exact = member(ws, a, b, "primal")
                primal_snap = member_snapped(ws, a, b, N, "primal")
                member_dev += abs(f.inner(primal_snap) - f.inner(primal_exact))
                count += 1
        rows.append({"N": int(N),
                     "mean_coefficient_deviation": coef_dev / count,
                     "mean_member_deviation": member_dev / count})
    return rows


def grid_partial_sum(ws, x, M, N, keep):
    """Box sum restricted to a subset of lattice cells (l, m, r, s).

    Used to probe suppression behaviour of the snapped family: dropping
    cells must not blow up the sum beyond the measured constant.
    """
    keep = set(keep)
    weight = 1.0 / (N * N)
    terms = []
    for (l, m, r, s) in keep:
        if not (-M <= l < M and -M <= m < M and 0 <= r < N and 0 <= s < N):
            raise ValueError(f"cell {(l, m, r, s)} outside the box grid")
        a = l + r / N
        b = m + s * (2.0 ** l) / N
        coef = x.inner(member(ws, a, b, "dual"))
        if coef != 0.0:
            terms.append(member(ws, a, b, "primal").scale(coef * weight))
    return StepFunction.sum(terms)


def full_grid(M, N):
    """All lattice cells of the box: (l, m, r, s) with l, m in [-M, M-1]."""
    return [(l, m, r, s)
            for l in range(-M, M) for m in range(-M, M)
            for r in range(N) for s in range(N)]
