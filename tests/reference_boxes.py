"""The one-box wavelet paths, as the library defined them before its runners
came to take every box of a job in one pass.

``box_reconstruct``, ``averaged_conjugate_reconstruction``,
``reconstruction_identity_gap`` and ``function`` (``_function``) are the
deleted ``wavelet_frame`` functions, kept word for word (``_function``
renamed) as the tests' one-box view of the lattice kernel: each is a one-box
job of ``_box_sums``, ``_averaged_sums`` or ``reconstruction_identity_gaps``.
"""

from framelab import StepFunction, reconstruction_identity_gaps
from framelab.wavelet_frame import _averaged_sums, _box_sums


def function(cells):
    """Row-tagged cells of a single row as a StepFunction."""
    _, points, values = cells
    return StepFunction(points, values[:-1])


def box_reconstruct(ws, x, M, N):
    """Exact value of the snapped reconstruction integral over the box [-M, M]^2.

    The snapped member is constant on each parameter lattice cell of area
    1/N^2, so the double integral equals the cell sum
    N^-2 * sum over r, s, l, m of coefficient times primal member, with the
    snapped parameters a = l + r/N and b = m + s * 2^l / N.
    """
    [(_, _, cells)] = _box_sums(x, [(ws, M, N)])
    return function(cells)


def averaged_conjugate_reconstruction(ws, x, M, N):
    """Second route to the box sum: conjugate, reconstruct on the integer grid,
    transform back, average over the N^2 fractional offsets."""
    return function(_averaged_sums(x, [(ws, M, N)]))


def reconstruction_identity_gap(ws, x, M, N):
    """Lp distance between the direct box sum and the conjugate-averaged route."""
    [gap] = reconstruction_identity_gaps([ws], x, [M], [N])
    return gap
