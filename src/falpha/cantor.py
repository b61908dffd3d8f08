"""Closed forms on the middle-thirds set.

Ternary digit machinery, the exact staircase by digit transcription, the
series for the first moment integral g(y) = integral of x over [0, y]
against the staircase, and the power rules used as oracles by the
calculus property suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from falpha import _backend
from falpha.sets import Interval, TernaryCantor, net

__all__ = [
    "ALPHA",
    "GAMMA_ALPHA1",
    "TernaryExpansion",
    "ternary",
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


@dataclass(frozen=True)
class TernaryExpansion:
    """Leading ternary digits t_1..t_n of a number in [0, 1]."""

    digits: tuple

    def truncation(self, k):
        """T_k: the value of the first k digits."""
        if k > len(self.digits):
            raise ValueError("truncation beyond computed digits")
        total = 0.0
        p = 1.0
        for t in self.digits[:k]:
            p /= 3.0
            total += t * p
        return total


def ternary(y, n):
    """Canonical expansion of y to n digits.

    Terminating expansions are preferred; the all-2s tail appears only
    where forced (y = 1, or tails created by the input itself).  The float
    input is snapped to the nearest small-denominator rational so that
    e.g. 1/3 yields digits (1, 0, 0) rather than the binary-float dust
    expansion.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError("y must lie in [0, 1]")
    if n < 0:
        raise ValueError("digit count must be nonnegative")
    f = Fraction(y).limit_denominator(10 ** 12)
    digits = []
    for _ in range(n):
        f *= 3
        t = int(f)  # floor for nonnegative f
        if t == 3:
            t = 2  # remaining value exactly 1: all-2s tail
        digits.append(t)
        f -= t
    return TernaryExpansion(tuple(digits))


def cantor_staircase_exact(x):
    """Gamma(alpha+1) times the staircase of the middle-thirds set at x.

    Digit transcription: scan ternary digits to the first 1, emitting
    sum (t_i/2) 2^-i, plus 2^-k at a first 1 in position k.  Divide by
    GAMMA_ALPHA1 for the staircase itself.
    """
    if not -1e-12 <= x <= 1.0 + 1e-12:
        raise ValueError("x must lie in [0, 1]")
    return _backend.cantor_scaled(x)


def g_series(y):
    """The first moment integral g(y) = integral of x over [0, y] against
    the staircase, by the digit-scan series."""
    if not -1e-12 <= y <= 1.0 + 1e-12:
        raise ValueError("y must lie in [0, 1]")
    return _backend.g_series_scaled(y) / GAMMA_ALPHA1


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
    """Oracle: the order-alpha derivative of S^n at x is n S^{n-1} chi(x)."""
    if n < 1:
        raise ValueError("need n >= 1")
    c = _chi(x)
    if c == 0.0:
        return 0.0
    return n * _staircase(x) ** (n - 1)


def power_rule_integral(n, x_hi):
    """Oracle: the integral of S^n from 0 to x_hi against S is
    S(x_hi)^{n+1} / (n+1)."""
    if n < 0:
        raise ValueError("need n >= 0")
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
