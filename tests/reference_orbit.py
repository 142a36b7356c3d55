"""The dilation-translation orbit as the library built it one member at a time.

``translate`` and ``dilate`` are the deleted ``StepFunction`` methods and
``member`` the deleted ``wavelet_frame.member``, kept word for word as the
tests' reference: the methods' bodies read ``self`` as the step function,
and ``member`` calls them as functions.  The lattice kernel reads the orbit
only through its cells at (0, 0) (``WaveletSystem._unit_cells``), which the
tests hold to ``member(ws, 0.0, 0.0, side)`` bit for bit; the per-member
references of the batched paths build every other member here.
"""

from framelab import StepFunction


def translate(self, b):
    """t -> f(t - b)."""
    if self.values.size == 0:
        return self
    return StepFunction(self.breakpoints + float(b), self.values)


def dilate(self, a, p):
    """Lp normalized dyadic dilation t -> 2^(a/p) f(2^a t); needs p > 1."""
    if not p > 1:
        raise ValueError("dilation exponent requires p > 1")
    if self.values.size == 0:
        return self
    a = float(a)
    return StepFunction(self.breakpoints * 2.0 ** (-a),
                        self.values * 2.0 ** (a / p))


def member(ws, a, b, side="primal"):
    """Family member at parameters (a, b): dilate by a after translating by b.

    ``side="primal"`` uses the mother and exponent p, ``side="dual"`` the
    dual mother and the conjugate exponent.
    """
    if side == "primal":
        return dilate(translate(ws.mother, b), a, ws.p)
    if side == "dual":
        return dilate(translate(ws.dual_mother, b), a, ws.p_conj)
    raise ValueError("side must be 'primal' or 'dual'")
