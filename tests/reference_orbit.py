"""The dilation-translation orbit as the library built it one member at a time.

``translate``, ``dilate`` and ``scale`` are the deleted ``StepFunction``
methods, ``p_conj`` the deleted ``WaveletSystem`` property and ``member``
the deleted ``wavelet_frame.member``, kept word for word as the tests'
reference: the methods' bodies read ``self`` as the step function (or the
system), and ``member`` calls them as functions.  The lattice kernel reads
the orbit only through its cells at (0, 0) (``WaveletSystem._unit_cells``),
which the tests hold to ``member(ws, 0.0, 0.0, side)`` bit for bit; the
per-member references of the batched paths build every other member here.
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


def scale(self, c):
    c = float(c)
    if c == 0.0 or self.values.size == 0:
        return StepFunction()
    return StepFunction(self.breakpoints, self.values * c)


def p_conj(self):
    return self.p / (self.p - 1.0)


def member(ws, a, b, side="primal"):
    """Family member at parameters (a, b): dilate by a after translating by b.

    ``side="primal"`` uses the mother and exponent p, ``side="dual"`` the
    dual mother and the conjugate exponent.
    """
    if side == "primal":
        return dilate(translate(ws.mother, b), a, ws.p)
    if side == "dual":
        return dilate(translate(ws.dual_mother, b), a, p_conj(ws))
    raise ValueError("side must be 'primal' or 'dual'")
