"""Closed-form middle-thirds analytics against independent oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from falpha.cantor import (
    ALPHA,
    GAMMA_ALPHA1,
    _g_column,
    cantor_staircase_exact,
    g1_fixed_point,
    g_series,
    power_bound_constants,
    power_rule_derivative,
    power_rule_integral,
    staircase_power_bounds,
)
from falpha.sets import Interval, TernaryCantor, net

from test_mass import brute_cantor

C = TernaryCantor()

# frozen reference constants, derived independently of the library
ALPHA_REF = 0.6309297535714574          # ln 2 / ln 3
GAMMA_REF = 0.8973709406726668          # Gamma(1 + ln 2 / ln 3)
G1_REF = 0.5571831862810283             # 1 / (2 Gamma)


def test_constants():
    assert ALPHA == pytest.approx(ALPHA_REF, abs=1e-15)
    assert GAMMA_ALPHA1 == pytest.approx(GAMMA_REF, abs=1e-15)
    scipy_special = pytest.importorskip("scipy.special")
    assert abs(GAMMA_ALPHA1 - scipy_special.gamma(1.0 + ALPHA)) < 1e-14


def test_exact_staircase_endpoints():
    assert cantor_staircase_exact(0.0) == 0.0
    assert cantor_staircase_exact(1.0) == 1.0
    assert cantor_staircase_exact(1.0 / 3.0) == 0.5
    assert cantor_staircase_exact(2.0 / 3.0) == 0.5
    assert cantor_staircase_exact(1.0 / 9.0) == 0.25
    assert cantor_staircase_exact(1.0 / 4.0) == pytest.approx(1.0 / 3.0)


def test_exact_staircase_near_a_copy_end():
    # 2/3 + 3e-10 lies in the gap (2/3 + 3^-20, 2/3 + 2 * 3^-20), where
    # the staircase is 1/2 + 2^-20: 1e-6 above 1/2, far above float dust
    assert abs(cantor_staircase_exact(2.0 / 3.0 + 3e-10)
               - 0.5000009536743164) <= 1e-12


def test_exact_staircase_vs_brute_recursion():
    for i in range(1001):
        x = i / 1000
        assert cantor_staircase_exact(x) == pytest.approx(
            brute_cantor(x), abs=1e-9
        )


def test_exact_staircase_self_similar():
    for p in net(C, 7, Interval(0.0, 1.0)):
        assert cantor_staircase_exact(p / 3.0) == pytest.approx(
            cantor_staircase_exact(p) / 2.0, abs=1e-14
        )


def test_g_series_values():
    assert g_series(0.0) == 0.0
    assert abs(g_series(1.0) - G1_REF) < 1e-15
    for m in range(1, 6):
        assert g_series(3.0 ** -m) == pytest.approx(
            g_series(1.0) / 6.0 ** m, abs=1e-12
        )


# piece ends, points of endless address (1/4, 3/4, 1/10) and their
# neighbours, and points within the descent's slack of 0 and 1
_G_POINTS = st.sampled_from(
    (-0.0, 0.0, 1e-16, 1e-15, 1.0 - 1e-16, 1.0, 1 / 9, 2 / 9, 1 / 3, 2 / 3,
     7 / 9, 8 / 9, 0.25, 0.75, 0.1, math.nextafter(0.25, 1.0),
     math.nextafter(1 / 3, 0.0)))


@example(ys=[], sort=False)
@example(ys=[0.25], sort=False)
@example(ys=[i / 216 for i in range(1, 217)], sort=False)
@settings(max_examples=300, deadline=None)
@given(ys=st.lists(st.one_of(st.floats(0.0, 1.0), _G_POINTS), max_size=40)
       .flatmap(lambda ys: st.permutations(
           ys + ys[:len(ys) // 3] * 2)),
       sort=st.booleans())
def test_g_column_is_g_series_bit_for_bit(ys, sort):
    # g_series, one descent per point, is the reference for the sweep
    if sort:
        ys = sorted(ys)
    want = [g_series(y) for y in ys]
    assert list(map(repr, _g_column(ys))) == list(map(repr, want))


def test_g_series_vs_riemann_stieltjes_bracket():
    """Independent oracle: upper and lower Riemann-Stieltjes sums of x
    against the brute-force staircase on a uniform 3^-8 grid."""
    n = 3 ** 8
    upper = lower = 0.0
    prev = 0.0
    for i in range(1, n + 1):
        cur = brute_cantor(i / n) / GAMMA_ALPHA1
        ds = cur - prev
        upper += (i / n) * ds
        lower += ((i - 1) / n) * ds
        prev = cur
    assert lower - 1e-9 <= g_series(1.0) <= upper + 1e-9
    assert upper - lower < 2e-4


def test_g1_fixed_point():
    assert g1_fixed_point() == pytest.approx(G1_REF, abs=1e-15)
    assert g1_fixed_point() == pytest.approx(g_series(1.0), abs=1e-15)


def test_power_rules():
    s_half = cantor_staircase_exact(0.5) / GAMMA_ALPHA1
    assert power_rule_derivative(1, 0.5) == 0.0  # 0.5 is off the set
    assert power_rule_derivative(1, 1.0 / 3.0) == 1.0
    assert power_rule_derivative(2, 1.0 / 3.0) == pytest.approx(
        2.0 * 0.5 / GAMMA_ALPHA1
    )
    assert power_rule_integral(0, 1.0) == pytest.approx(1.0 / GAMMA_ALPHA1)
    assert power_rule_integral(1, 1.0) == pytest.approx(
        0.5 * (1.0 / GAMMA_ALPHA1) ** 2
    )
    with pytest.raises(ValueError):
        power_rule_derivative(0, 0.5)


def test_staircase_power_bounds():
    a, b = power_bound_constants()
    assert 0.0 < a <= 1.0 / GAMMA_ALPHA1 <= b
    for i in range(1, 501):
        x = i / 500
        lo, hi = staircase_power_bounds(x)
        s = cantor_staircase_exact(x) / GAMMA_ALPHA1
        assert lo - 1e-12 <= s <= hi + 1e-12
    # scale points are exact: Gamma * S(3^-n) = (3^-n)^alpha
    for n in range(1, 8):
        x = 3.0 ** -n
        assert cantor_staircase_exact(x) == pytest.approx(
            x ** ALPHA, abs=1e-12
        )
    with pytest.raises(ValueError):
        staircase_power_bounds(0.0)
