"""Kernels: the measure record against a one-pass build, the staircase
descent against an exact ternary digit scan at triadic rationals, special
values, monotonicity, the first-moment descent against an exact rational
descent, and the reported backend name."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import falpha
from falpha import _backend
from falpha.dimension import similarity_order
from falpha.sets import (FinitePoints, FullInterval, GapIFS, HarmonicCluster,
                         TernaryCantor, slack)
from test_sets import C, _WRAPS, _gap_ifs, _stair_points, _unwrap, _wrap


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


def test_middle_thirds_record():
    rec = _backend.measure(TernaryCantor(), falpha.ALPHA)
    assert tuple(p for _, p in rec.table) == (0.5, 0.5)
    assert rec.mean == 0.5
    assert rec.total == 1.0
    assert _backend._CANTOR == rec


def _one_pass_record(spec, alpha):
    """The measure record of spec at alpha built in one pass from the
    spec alone: the frame composed from the wrapper and the interval's
    ends, the table from the unwrapped set or from fresh unit halves."""
    base, lam, t = _unwrap(spec)
    if isinstance(base, FullInterval):
        lam, t = lam * (base.hi - base.lo), t + lam * base.lo
        base = GapIFS((0.5, 0.5), (0.0, 0.5))
    if not isinstance(base, GapIFS):
        return None
    ps = [r ** alpha for r in base.ratios]
    total = sum(ps)
    weights = [p / total for p in ps]
    h0, h1 = base.hull()
    shares = tuple(((s0 - h0) / (h1 - h0), (s1 - h0) / (h1 - h0))
                   for _, _, s0, s1 in base._copies)
    stair_mean = 1.0 - (
        sum(w * f for w, (f, _) in zip(weights, shares))
        / (1.0 - sum(w * r for w, r in zip(weights, base.ratios))))
    far = max(abs(t + lam * h0), abs(t + lam * h1))
    return _backend.Measure(
        lam, t, (h0, h1), tuple(zip(base._copies, weights)), shares, total,
        1.0 - stair_mean, slack(far, lam) / lam,
        _backend.side_of_order(total))


_BASES = st.one_of(
    _gap_ifs(), st.just(C), st.builds(TernaryCantor),
    st.builds(lambda lo, w: FullInterval(lo, lo + w),
              st.floats(-3.0, 3.0), st.floats(0.01, 5.0)),
    st.builds(lambda w: FullInterval(0.0, w), st.floats(1e-20, 1e-3)),
    st.just(FinitePoints((0.1, 0.5, 0.7))), st.just(HarmonicCluster()))


@settings(max_examples=200, deadline=None)
@given(base=_BASES, wraps=_WRAPS,
       alpha=st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
def test_record_is_the_one_pass_build(base, wraps, alpha):
    # an interval at order 1 re-frames the one record of the unit halves
    spec, _, _ = _wrap(base, wraps)
    assert repr(_backend.measure(spec, alpha)) == repr(
        _one_pass_record(spec, alpha))


def test_g_series_scaled_just_right_of_two_thirds():
    # a digit scan that snaps residuals within 1e-9 of a digit boundary
    # reads 2/3 here and returns 1/12
    got = _backend.g_series_scaled(2.0 / 3.0 + 3e-10)
    assert abs(got - 0.08333396911621108) <= 1e-15


def _exact_moment(spec, alpha, x):
    """Integral of y over (-inf, x] against the normalised self-similar
    measure of a gap IFS at its order, or of an Affine of one: the descent
    down the copies in exact rational arithmetic on the float parameters,
    with the weights r_i^alpha rounded once to floats.  A copy passed
    adds its weight times its frame's image of the mean m, the fixed
    point of m = sum p_i (o_i + r_i m).  It stops once the running weight
    is below 1e-20, which bounds what it leaves out."""
    base, lam, t = _unwrap(spec)
    rs = [Fraction(r) for r in base.ratios]
    os_ = [Fraction(o) for o in base.offsets]
    ps = [Fraction(r ** alpha) for r in base.ratios]
    ps = [p / sum(ps) for p in ps]
    m = (sum(p * o for p, o in zip(ps, os_))
         / (1 - sum(p * r for p, r in zip(ps, rs))))
    h0, h1 = os_[0] / (1 - rs[0]), os_[-1] / (1 - rs[-1])
    a, b = Fraction(t), Fraction(lam)
    y = (Fraction(x) - a) / b
    val, w = Fraction(0), Fraction(1)
    while w > 1e-20 and y > h0:
        if y >= h1:
            return val + w * (a + b * m)
        for o, r, p in zip(os_, rs, ps):
            if y < o + r * h0:
                return val  # in a gap
            if y <= o + r * h1:
                y, a, b, w = (y - o) / r, a + b * o, b * r, w * p
                break
            val += w * p * (a + b * (o + r * m))
    return val


@settings(max_examples=100, deadline=None)
@given(data=st.data(), base=st.one_of(st.just(C), _gap_ifs()), wraps=_WRAPS)
def test_moment_matches_an_exact_descent(data, base, wraps):
    spec, _, _ = _wrap(base, wraps)
    _, lam, t = _unwrap(spec)
    alpha = similarity_order(base.ratios)
    rec = _backend.measure(spec, alpha)
    h0, h1 = spec.hull()
    # the staircase's bound, times the largest |y| the measure weighs
    bound = 2.0 * (1e-13 * lam) ** alpha * max(abs(h0), abs(h1))
    for x in data.draw(_stair_points(base, lam, t)):
        want = _exact_moment(spec, alpha, x)
        assert abs(_backend.moment_scaled(rec, x) - want) <= bound, x


def test_kernel_backend_is_python():
    assert falpha.kernel_backend == _backend.BACKEND == "python"
