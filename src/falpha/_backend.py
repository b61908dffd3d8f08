"""Staircase kernels: the package's hot inner loops.

The staircase of a gap IFS by one descent down the copies that contain x,
the middle-thirds staircase as that descent, and the series for the first
moment integral on the middle-thirds set.  This pure-Python module is the
only implementation.  Callers reach the kernels as attributes of this
module at call time (``_backend.stair_scaled(...)``), so a wrapper
installed here, such as the benchmark's tracer, sees every call.

The descent works in the local coordinates of the copy it has entered,
with the slack of the set queries in ``falpha.sets``: a point within
1e-15 in global units (1e-15/scale locally) of a hull end counts as that
end.  The first-moment series extracts ternary digits on floats with a
snap tolerance: after each multiply-by-three step, residuals within
``_SNAP`` of a digit boundary are rounded to the boundary.
"""

from falpha.sets import TernaryCantor

_SNAP = 1e-9
_MAX_DIGITS = 64

BACKEND = "python"

_CANTOR = TernaryCantor()


def stair_scaled(hull, copies, weights, x):
    """Staircase at x of the self-similar measure giving copy i the share
    ``weights[i]``, scaled to rise from 0 to 1 across ``hull``.

    ``hull`` and ``copies`` are a gap IFS's ``_hull`` and ``_copies``.
    Each copy passed on the left of x adds its weight times the running
    weight; entering the copy that contains x multiplies the running
    weight by that copy's weight and zooms x into it.  The loop stops in
    a gap, or at a hull end.
    """
    h0, h1 = hull
    table = tuple(zip(copies, weights))
    val = 0.0
    w = 1.0
    eps = 1e-15  # the slack in local units: 1e-15 / scale
    while h0 + eps < x < h1 - eps:
        for (o, r, s0, s1), p in table:
            if x < s0:
                return val  # in the gap left of this copy
            if x <= s1:
                x = (x - o) / r
                w *= p
                eps /= r
                break
            val += w * p
        else:
            return val  # past the last copy's end, by float drift
    return val if x <= h0 + eps else val + w


def cantor_scaled(x):
    """Staircase of the middle-thirds set scaled to [0, 1] (the classical
    Cantor function): the descent with weights (1/2, 1/2).  Inputs
    outside [0, 1] clamp."""
    return stair_scaled(_CANTOR._hull, _CANTOR._copies, (0.5, 0.5), x)


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
