"""Closed forms on the middle-thirds set.

The exact staircase and the first moment integral g(y) = integral of x
over [0, y] against it, by the descents on the middle-thirds measure
record, and the power rules used as oracles by the calculus property
suite.
"""

import functools
import math

from falpha import _backend
from falpha.sets import Interval, TernaryCantor, _count, _reject_nan, net

__all__ = [
    "ALPHA",
    "GAMMA_ALPHA1",
    "cantor_staircase_exact",
    "g_series",
    "g1_fixed_point",
    "power_rule_derivative",
    "power_rule_integral",
    "staircase_power_bounds",
    "power_bound_constants",
]

ALPHA = math.log(2.0) / math.log(3.0)
GAMMA_ALPHA1 = math.gamma(ALPHA + 1.0)

_CANTOR = TernaryCantor()


def cantor_staircase_exact(x):
    """Gamma(alpha+1) times the staircase of the middle-thirds set at x.

    The descent down the copies containing x, each of weight 1/2: the
    left copy adds nothing, the right copy adds the running weight, and a
    point in a gap stops the descent.  This equals the ternary-to-binary
    digit transcription.  Divide by GAMMA_ALPHA1 for the staircase
    itself.
    """
    if not -1e-12 <= x <= 1.0 + 1e-12:
        raise ValueError("x must lie in [0, 1]")
    return _backend.cantor_scaled(x)


def g_series(y):
    """The first moment integral g(y) = integral of x over [0, y] against
    the staircase, by the moment descent down the copies with mean 1/2."""
    if not -1e-12 <= y <= 1.0 + 1e-12:
        raise ValueError("y must lie in [0, 1]")
    return _backend.g_series_scaled(y) / GAMMA_ALPHA1


def _g_column(ys):
    """``[g_series(y) for y in ys]``, bit for bit, for a table's column of
    ys in [0, 1], unchecked: one ``moment_column`` sweep on the
    middle-thirds record, read from ``_backend`` at call time, in which
    the ys that share a copy share its descent."""
    return [m / GAMMA_ALPHA1
            for m in _backend.moment_column(_backend._CANTOR, ys)]


def g1_fixed_point():
    """Re-derive g(1) from the series with g(1) kept symbolic.

    Each term of the series at y = 1 splits into a known part
    T_{n-1}(1)/2^n and a self-referential part g(1)/6^n; summing gives
    g(1) = A + B*g(1), solved here for g(1).  Returns a value that should
    reproduce 1/(2*Gamma(alpha+1)).  The first 200 terms are summed.
    """
    a_sum = 0.0
    b_sum = 0.0
    for n in range(1, 201):
        trunc = 1.0 - 3.0 ** (1 - n)  # T_{n-1}(1)
        a_sum += trunc / 2.0 ** n
        b_sum += 6.0 ** -n
    return a_sum / (1.0 - b_sum) / GAMMA_ALPHA1


def _staircase(x):
    return _backend.cantor_scaled(x) / GAMMA_ALPHA1


def _chi(x):
    return 1.0 if _CANTOR._isect(x, x) else 0.0


def power_rule_derivative(n, x):
    """Oracle: the order-alpha derivative of S^n at x is n S^{n-1} chi(x),
    for an int n >= 1; OverflowError where S^(n-1) passes the float range."""
    _count("n", n, 1)
    _reject_nan("x", x)
    c = _chi(x)
    if c == 0.0:
        return 0.0
    return n * _staircase(x) ** (n - 1)


def power_rule_integral(n, x_hi):
    """Oracle: the integral of S^n from 0 to x_hi against S is
    S(x_hi)^{n+1} / (n+1), for an int n >= 0; OverflowError where
    S^(n+1) passes the float range."""
    _count("n", n, 0)
    _reject_nan("x_hi", x_hi)
    return _staircase(x_hi) ** (n + 1) / (n + 1)


@functools.cache
def power_bound_constants():
    """Constants (a, b) with a x^alpha <= S(x) <= b x^alpha on (0, 1],
    fitted over the level-8 net and asserted globally."""
    pts = [p for p in net(_CANTOR, 8, Interval(0.0, 1.0)) if p > 0.0]
    ratios = [_staircase(p) / p ** ALPHA for p in pts]
    # gap plateaus push the ratio below the net-point envelope: between
    # net points x in (p, q) has S(x) >= S(p), x <= q, so the global
    # lower constant is min over plateaus of S(p)/q^alpha
    plateau = [_staircase(p) / q ** ALPHA for p, q in zip(pts, pts[1:])]
    return (min(min(ratios), min(plateau)), max(ratios))


def staircase_power_bounds(x):
    """(a x^alpha, b x^alpha) bracketing the staircase at x in (0, 1]."""
    if not 0.0 < x <= 1.0:
        raise ValueError("x must lie in (0, 1]")
    a, b = power_bound_constants()
    return (a * x ** ALPHA, b * x ** ALPHA)
