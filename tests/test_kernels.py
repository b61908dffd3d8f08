"""Digit-scan kernels: exact values at triadic rationals, special values,
monotonicity, the first-moment series and the reported backend name."""

from fractions import Fraction

import falpha
from falpha import _backend


def _exact_cantor(q):
    """Cantor function at the rational q by an exact ternary digit scan:
    binary digit t/2 for each ternary digit t up to the first 1, which
    contributes its own binary digit and ends the scan."""
    if q <= 0:
        return Fraction(0)
    if q >= 1:
        return Fraction(1)
    val, w = Fraction(0), Fraction(1, 2)
    while q:
        q *= 3
        t = int(q)
        q -= t
        if t == 1:
            return val + w
        if t == 2:
            val += w
        w /= 2
    return val


def test_cantor_scaled_exact_at_triadic_rationals():
    for n in range(9):
        den = 3 ** n
        for k in range(den + 1):
            want = float(_exact_cantor(Fraction(k, den)))
            assert _backend.cantor_scaled(k / den) == want, (k, n)


def test_cantor_scaled_special_values():
    f = _backend.cantor_scaled
    assert f(0.0) == 0.0
    assert f(1.0) == 1.0
    assert f(1.0 / 3.0) == 0.5
    assert f(0.5) == 0.5
    assert f(2.0 / 3.0) == 0.5
    assert f(1.0 / 9.0) == 0.25
    assert f(-1.0) == 0.0
    assert f(2.0) == 1.0
    # one ulp below 1 still transcribes to (almost) 1
    assert abs(f(1.0 - 1e-16) - 1.0) < 1e-12


def test_cantor_scaled_monotone():
    f = _backend.cantor_scaled
    prev = 0.0
    for i in range(2001):
        v = f(i / 2000)
        assert v >= prev
        prev = v


def test_g_series_scaled_values():
    g = _backend.g_series_scaled
    assert g(0.0) == 0.0
    assert abs(g(1.0) - 0.5) < 1e-15
    # scaling: the scaled series divides by 6 under y -> y/3
    for m in range(1, 6):
        assert abs(g(3.0 ** -m) - 0.5 / 6.0 ** m) < 1e-15


def test_kernel_backend_is_python():
    assert falpha.kernel_backend == _backend.BACKEND == "python"
