"""Digit-scan kernels: the package's hot inner loops.

The middle-thirds staircase value obtained by transcribing ternary digits
to binary, and the series for the first moment integral on the
middle-thirds set.  This pure-Python module is the only implementation.
Callers reach the kernels as attributes of this module at call time
(``_backend.cantor_scaled(x)``), so a wrapper installed here, such as the
benchmark's tracer, sees every call.

Digit extraction works on floats with a snap tolerance: after each
multiply-by-three step, residuals within ``_SNAP`` of a digit boundary are
rounded to the boundary.  This keeps triadic rationals (the points every
caller cares about) exact despite binary floating point.
"""

_SNAP = 1e-9
_MAX_DIGITS = 64

BACKEND = "python"


def cantor_scaled(x):
    """Staircase value scaled to [0, 1] (the classical Cantor function).

    Scans ternary digits of ``x`` up to the first digit 1, emitting the
    binary value sum (t_i/2) 2^-i, plus 2^-k when the scan stops at a
    first digit 1 in position k.  Inputs outside [0, 1] clamp.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    y = x
    val = 0.0
    w = 0.5
    for _ in range(_MAX_DIGITS):
        y *= 3.0
        t = int(y + _SNAP)
        if t > 2:
            # residual snapped to 1: the remaining digits are all twos
            return val + 2.0 * w
        y -= t
        if y < _SNAP:
            y = 0.0
        if t == 1:
            return val + w
        if t == 2:
            val += w
        w *= 0.5
        if y == 0.0:
            return val
    return val


def g_series_scaled(y):
    """Scaled first-moment series: Gamma(alpha+1) times integral of x dS.

    Term n is zero when the nth ternary digit is 0 or an earlier digit was
    1; otherwise it is T_{n-1}(y)/2^n + (1/2) 6^-n, where T_{n-1} is the
    digit-truncation of y.  Terms after a first digit 1 all vanish, so the
    scan stops there.  Inputs outside [0, 1] clamp.
    """
    if y <= 0.0:
        return 0.0
    if y >= 1.0:
        y = 1.0
    r = y
    acc = 0.0
    trunc = 0.0          # T_{n-1}(y)
    pow3 = 1.0 / 3.0     # 3^-n
    pow2 = 0.5           # 2^-n
    pow6 = 1.0 / 6.0     # 6^-n
    for _ in range(_MAX_DIGITS):
        r *= 3.0
        t = int(r + _SNAP)
        if t > 2:
            t = 2
        r -= t
        if r < _SNAP:
            r = 0.0
        if t != 0:
            acc += trunc * pow2 + 0.5 * pow6
        if t == 1:
            return acc
        trunc += t * pow3
        pow3 /= 3.0
        pow2 *= 0.5
        pow6 /= 6.0
        if r == 0.0:
            # remaining digits are all zero; every later term vanishes
            return acc
    return acc
