"""Set-indexed integral extremes and unconditionality constant estimates.

For step functions the supremum over measurable sets E of |integral_E c*d|
is attained on the set where the product is positive (or negative), so it
is computed exactly together with an attaining witness set.  Randomized
scans turn that into certified lower bounds for the suppression constant
of a translated-generator frame; the generator certificate provides the
matching upper bound.
"""

import numpy as np

from .intervals import IntervalSet
from .lp import CoordinateVector
from .translate_frame import analysis_function


def exact_set_supremum(c, d):
    """Exact sup over measurable sets of |integral_E c*d| plus a witness set.

    Returns ``(sup, witness)`` where witness is the IntervalSet of cells on
    which the product has the dominating sign.  Ties go to the positive
    part, so the result is deterministic.
    """
    product = c.multiply(d)
    if product.is_zero():
        return 0.0, IntervalSet.empty()
    lens = np.diff(product.breakpoints)
    vals = product.values
    pos = float(np.dot(np.where(vals > 0, vals, 0.0), lens))
    neg = float(-np.dot(np.where(vals < 0, vals, 0.0), lens))
    take_positive = pos >= neg
    mask = vals > 0 if take_positive else vals < 0
    pieces = [(product.breakpoints[i], product.breakpoints[i + 1])
              for i in np.flatnonzero(mask)]
    return (pos if take_positive else neg), IntervalSet(pieces)


def _gaussian_vector(rng, window):
    vals = rng.standard_normal(2 * window + 1)
    return CoordinateVector({n - window: float(v) for n, v in enumerate(vals)})


def unconditionality_scan(g, trials, window, p, seed=0):
    """Certified lower bounds (suppression, unconditional) from random pairs.

    Draws ``trials`` Gaussian pairs (x, x*) supported on |n| <= window.  For
    each pair both analysis functions are formed and the suppression ratio
    sup_E |integral_E c*d| / (||x||_p ||x*||_q) and the unconditionality
    ratio integral |c*d| / (||x||_p ||x*||_q) are taken; the maxima over the
    scan are exact lower bounds for the corresponding frame constants.
    Degenerate pairs with ||x||*||x*|| < 1e-9 are skipped.
    """
    if not p > 1:
        raise ValueError("scan requires p > 1")
    q = p / (p - 1.0)
    rng = np.random.default_rng(seed)
    best_suppression = 0.0
    best_unconditional = 0.0
    for _ in range(trials):
        x = _gaussian_vector(rng, window)
        xs = _gaussian_vector(rng, window)
        denom = x.norm(p) * xs.norm(q)
        if denom < 1e-9:
            continue
        c = analysis_function(g, x)
        d = analysis_function(g, xs)
        sup, _ = exact_set_supremum(c, d)
        best_suppression = max(best_suppression, sup / denom)
        best_unconditional = max(best_unconditional,
                                 c.multiply(d).abs_integral() / denom)
    return best_suppression, best_unconditional
