"""Set-indexed integral extremes and unconditionality constant estimates.

For step functions the supremum over measurable sets E of |integral_E c*d|
is attained on the set where the product is positive (or negative), so it
is the larger of the integrals of the product's two sign parts.  Randomized
scans turn that into certified lower bounds for the suppression constant
of a translated-generator frame; the generator certificate provides the
matching upper bound.
"""

import math

import numpy as np

from .lp import _norm
from .stepfn import _widths
from .translate_frame import _series


def _sign_parts(vals, lens):
    """Integrals of the positive and of the negative part (both >= 0).

    ``vals *= lens`` (in place) gives the signed cell integrals; each part is
    summed by ``np.add.reduce`` in cell order, the negative one negated after
    the sum (exact, and 0.0 - 0.0 is +0.0).  A NaN cell makes both parts NaN.
    """
    weighted = np.multiply(vals, lens, out=vals).ravel()
    if np.isnan(weighted).any():
        return math.nan, math.nan
    # np.compress picks the cells boolean indexing would, in half the time
    return (float(np.add.reduce(np.compress(weighted > 0, weighted))),
            float(0.0 - np.add.reduce(np.compress(weighted < 0, weighted))))


def unconditionality_scan(g, trials, window, p, seed=0):
    """Certified lower bounds (suppression, unconditional) from random pairs.

    Draws ``trials`` Gaussian pairs (x, x*) supported on |n| <= window.  For
    each pair both analysis functions are formed and the suppression ratio
    sup_E |integral_E c*d| / (||x||_p ||x*||_q) and the unconditionality
    ratio integral |c*d| / (||x||_p ||x*||_q) are taken; the maxima over the
    scan are exact lower bounds for the corresponding frame constants.
    The analysis functions stay rows on the unit fold of the generator, and
    the sup over sets is the larger of the product's positive and negative
    parts.  Degenerate pairs with ||x||*||x*|| < 1e-9 are skipped; a NaN
    ratio makes its bound NaN.
    """
    if not p > 1:
        raise ValueError("scan requires p > 1")
    q = p / (p - 1.0)
    rng = np.random.default_rng(seed)
    _, grid, table = g.fold
    lens = _widths(grid)
    suppression = [0.0]
    unconditional = [0.0]
    for _ in range(trials):
        # x then x*, drawn as one stream
        pair = rng.standard_normal((2, 2 * window + 1))
        denom = _norm(pair[0].tolist(), p) * _norm(pair[1].tolist(), q)
        if denom < 1e-9:
            continue
        product = _series(table, pair[0])
        product *= _series(table, pair[1])
        pos, neg = _sign_parts(product, lens)
        suppression.append(max(pos, neg) / denom)
        unconditional.append((pos + neg) / denom)
    # np.max keeps a NaN, which Python's max would drop
    return float(np.max(suppression)), float(np.max(unconditional))
