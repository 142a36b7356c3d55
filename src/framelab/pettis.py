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
from .stepfn import _folded
from .translate_frame import _series


def _sign_parts(vals, lens):
    """Integrals of the positive and of the negative part (both >= 0).

    ``vals * lens`` are the signed cell integrals; each part is summed by
    ``np.add.reduce`` in cell order.
    """
    weighted = (vals * lens).ravel()
    return (float(np.add.reduce(weighted[weighted > 0])),
            float(np.add.reduce(-weighted[weighted < 0])))


def exact_set_supremum(c, d):
    """Exact sup over measurable sets of |integral_E c*d| plus a witness set.

    Returns ``(sup, witness)`` where witness is the IntervalSet of cells on
    which the product has the dominating sign.  Ties go to the positive
    part, so the result is deterministic.
    """
    product = c.multiply(d)
    if product.is_zero():
        return 0.0, IntervalSet.empty()
    vals = product.values
    pos, neg = _sign_parts(vals, np.diff(product.breakpoints))
    take_positive = pos >= neg
    mask = vals > 0 if take_positive else vals < 0
    pieces = [(product.breakpoints[i], product.breakpoints[i + 1])
              for i in np.flatnonzero(mask)]
    return (pos if take_positive else neg), IntervalSet(pieces)


def unconditionality_scan(g, trials, window, p, seed=0):
    """Certified lower bounds (suppression, unconditional) from random pairs.

    Draws ``trials`` Gaussian pairs (x, x*) supported on |n| <= window.  For
    each pair both analysis functions are formed and the suppression ratio
    sup_E |integral_E c*d| / (||x||_p ||x*||_q) and the unconditionality
    ratio integral |c*d| / (||x||_p ||x*||_q) are taken; the maxima over the
    scan are exact lower bounds for the corresponding frame constants.
    The analysis functions stay rows on the unit fold of the generator, and
    the sup over sets is the larger of the product's positive and negative
    parts.  Degenerate pairs with ||x||*||x*|| < 1e-9 are skipped.
    """
    if not p > 1:
        raise ValueError("scan requires p > 1")
    q = p / (p - 1.0)
    rng = np.random.default_rng(seed)
    _, grid, table = _folded(g.f)
    lens = np.diff(grid)
    best_suppression = 0.0
    best_unconditional = 0.0
    for _ in range(trials):
        x = rng.standard_normal(2 * window + 1)
        xs = rng.standard_normal(2 * window + 1)
        denom = (CoordinateVector(enumerate(x.tolist())).norm(p)
                 * CoordinateVector(enumerate(xs.tolist())).norm(q))
        if denom < 1e-9:
            continue
        pos, neg = _sign_parts(_series(table, x) * _series(table, xs), lens)
        best_suppression = max(best_suppression, max(pos, neg) / denom)
        best_unconditional = max(best_unconditional, (pos + neg) / denom)
    return best_suppression, best_unconditional
