"""Staircase kernels: the package's hot inner loops.

On a gap IFS at its order the staircase is the distribution function of
the self-similar measure giving copy i the weight r_i^alpha / sum
r_j^alpha (Hutchinson 1981).  ``measure`` builds its record once per
(spec, alpha); every descent down the copies reads it: the staircase, the
first moment, and the piece walk of ``falpha.calculus``.  Callers reach
the kernels as module attributes at call time, so a wrapper installed
here, such as the benchmark's tracer, sees every call.  A descent works
in the local coordinates of the copy entered: a point within 1e-15 in
global units (1e-15/scale locally) of a hull end is that end.
"""

import math
from typing import NamedTuple

from falpha.sets import Affine, FullInterval, GapIFS, TernaryCantor

BACKEND = "python"

_HALVES = GapIFS((0.5, 0.5), (0.0, 0.5))  # their attractor is [0, 1]


class Measure(NamedTuple):
    """A self-similar measure at order alpha, in the frame shift + scale x."""

    scale: float
    shift: float
    hull: tuple    # (h0, h1) of the unwrapped set
    table: tuple   # ((offset, ratio, span start, span end), weight) per copy
    shares: tuple  # (start, end) of each copy's span, as shares of the hull
    total: float   # sum r^alpha: 1 at the order, below 1 above it
    mean: float    # mean of the normalised measure, as a share of the hull


def measure(spec, alpha):
    """The record of spec at order alpha (an interval is its two halves),
    or None for point sets and the harmonic cluster.  The mean M solves
    M = sum p_j (f_j + r_j M) for weights p_j, ratios r_j and start
    shares f_j; 1 - M, the Lebesgue mean of the rescaled staircase, is
    computed first, so the two are complements in floats too."""
    lam, t, inner = ((spec.scale, spec.shift, spec.inner)
                     if isinstance(spec, Affine) else (1.0, 0.0, spec))
    if isinstance(inner, FullInterval):
        lam, t = lam * (inner.hi - inner.lo), t + lam * inner.lo
        inner = _HALVES
    if not isinstance(inner, GapIFS):
        return None
    ps = [r ** alpha for r in inner.ratios]
    total = sum(ps)
    weights = [p / total for p in ps]
    h0, h1 = inner._hull
    shares = tuple(((s0 - h0) / (h1 - h0), (s1 - h0) / (h1 - h0))
                   for _, _, s0, s1 in inner._copies)
    stair_mean = 1.0 - (
        sum(w * f for w, (f, _) in zip(weights, shares))
        / (1.0 - sum(w * r for w, r in zip(weights, inner.ratios))))
    return Measure(lam, t, inner._hull, tuple(zip(inner._copies, weights)),
                   shares, total, 1.0 - stair_mean)


def stair_scaled(hull, table, x):
    """Staircase at x of the measure with the copy table ``table`` of a
    ``Measure``, scaled to rise from 0 to 1 across ``hull``.

    Each copy passed on the left of x adds its weight times the running
    weight; entering the copy that contains x multiplies the running
    weight by that copy's weight and zooms x into it.  The loop stops in
    a gap, or at a hull end.
    """
    h0, h1 = hull
    val, w = 0.0, 1.0
    eps = 1e-15  # the slack in local units: 1e-15 / scale
    while h0 + eps < x < h1 - eps:
        for (o, r, s0, s1), p in table:
            if x < s0:
                return val  # in a gap left of this copy
            if x <= s1:
                x = (x - o) / r
                w *= p
                eps /= r
                break
            val += w * p
        else:
            return val  # past the last copy's end, by float drift
    return val if x <= h0 + eps else val + w


def moment_scaled(rec, x):
    """Integral of y over (-inf, x] against the normalised measure of
    ``rec``: the staircase's descent, carrying the frame y -> a + b * y of
    the copy entered.  Each copy passed adds its weight times its image
    of the mean, and a whole hull reached the running weight times its."""
    h0, h1 = rec.hull
    m = h0 + rec.mean * (h1 - h0)
    a, b = rec.shift, rec.scale
    x = (x - a) / b
    val, w = 0.0, 1.0
    eps = 1e-15  # the slack in local units, as in ``stair_scaled``
    while h0 + eps < x < h1 - eps:
        for (o, r, s0, s1), p in rec.table:
            if x < s0:
                return val  # in a gap left of this copy
            if x <= s1:
                x = (x - o) / r
                a, b = a + b * o, b * r
                w *= p
                eps /= r
                break
            val += w * p * (a + b * (o + r * m))
        else:
            return val  # past the last copy's end, by float drift
    return val if x <= h0 + eps else val + w * (a + b * m)


_CANTOR = measure(TernaryCantor(), math.log(2.0) / math.log(3.0))


def cantor_scaled(x):
    """The Cantor function: the staircase descent on the middle-thirds
    record, with weights (1/2, 1/2).  Inputs outside [0, 1] clamp."""
    return stair_scaled(_CANTOR.hull, _CANTOR.table, x)


def g_series_scaled(y):
    """Gamma(alpha+1) times g(y): the moment descent on the middle-thirds
    record, with mean 1/2.  Inputs outside [0, 1] clamp."""
    return moment_scaled(_CANTOR, y)
