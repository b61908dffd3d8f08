"""Staircase-weighted integration and quotient differentiation."""

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from falpha import calculus
from falpha.calculus import (
    FOnF,
    NoConvergence,
    NoLimit,
    UnboundedHint,
    check_f_continuity,
    derivative,
    integrate,
    sup_inf_on,
    upper_lower_sums,
)
from falpha.cantor import ALPHA, GAMMA_ALPHA1
from falpha.dimension import similarity_order
from falpha.mass import StaircaseEvaluator
from falpha.sets import (
    Affine,
    FullInterval,
    GapIFS,
    Interval,
    Subdivision,
    TernaryCantor,
    Translate,
    net,
)

from test_physics import _media

C = TernaryCantor()
ASYM = GapIFS((0.4, 0.25), (0.0, 0.75))
STAIR = StaircaseEvaluator(C, ALPHA, a0=0.0)
G1 = 1.0 / (2.0 * GAMMA_ALPHA1)


def test_sup_inf_on():
    f = FOnF.monotone(lambda x: x)
    hi, lo = sup_inf_on(f, C, Interval(0.0, 1.0))
    assert (hi, lo) == (1.0, 0.0)
    assert sup_inf_on(f, C, Interval(0.4, 0.6)) == (0.0, 0.0)
    hi, lo = sup_inf_on(f, C, Interval(0.0, 0.5))
    assert hi == pytest.approx(1.0 / 3.0)
    with pytest.raises(UnboundedHint):
        sup_inf_on(lambda x: x, C, Interval(0.0, 1.0))


def test_upper_lower_sums_bracket():
    f = FOnF.monotone(lambda x: x)
    sub = Subdivision(tuple(i / 9 for i in range(10)))
    upper, lower = upper_lower_sums(f, STAIR, sub)
    assert lower <= G1 <= upper


@settings(max_examples=40, deadline=None)
@given(cuts=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=8,
                     unique=True))
def test_upper_dominates_lower(cuts):
    f = FOnF.monotone(lambda x: x)
    sub = Subdivision(tuple(sorted({0.0, 1.0} | set(cuts))))
    upper, lower = upper_lower_sums(f, STAIR, sub)
    assert upper >= lower - 1e-12


def test_integrate_first_moment():
    res = integrate(FOnF.monotone(lambda x: x), STAIR, 0.0, 1.0, tol=1e-4)
    assert res.upper - res.lower <= 1e-4
    assert res.contains(G1)
    assert res.value == pytest.approx(G1, abs=1e-4)


@pytest.mark.parametrize("shift", [20.0, 1000.0, 1e5])
@pytest.mark.parametrize("tol", [1e-4, 1e-6])
def test_integrate_first_moment_of_a_shifted_set(shift, tol):
    # the first moment of F + shift is (shift + 1/2) / Gamma(alpha + 1)
    stair = StaircaseEvaluator(Translate(C, shift), ALPHA, a0=shift)
    res = integrate(FOnF.monotone(lambda x: x), stair, shift, shift + 1.0,
                    tol=tol)
    assert res.upper - res.lower <= tol
    assert res.contains((shift + 0.5) / GAMMA_ALPHA1)


@pytest.mark.parametrize("b", [1.0, 1.0 / 3.0])
def test_integrate_below_the_slack_of_a_far_set_does_not_converge(b):
    # an ulp of 1e8 is 1.5e-8: the pieces that a 1e-9 bracket needs are
    # shorter than the slack of the set, which cannot tell their ends apart
    shift = 1e8
    stair = StaircaseEvaluator(Translate(C, shift), ALPHA, a0=shift)
    with pytest.raises(NoConvergence):
        integrate(FOnF.monotone(lambda x: x), stair, shift, shift + b,
                  tol=1e-9)


def test_integrate_indicator_is_exact():
    one = FOnF.monotone(lambda x: 1.0)
    rng = random.Random(2)
    for _ in range(20):
        a = rng.uniform(0.0, 0.9)
        b = rng.uniform(a, 1.0)
        res = integrate(one, STAIR, a, b, tol=1e-6)
        assert res.upper == res.lower
        assert res.value == pytest.approx(STAIR(b) - STAIR(a), abs=1e-12)


def test_integrate_orientation():
    f = FOnF.monotone(lambda x: x)
    fwd = integrate(f, STAIR, 0.0, 1.0, tol=1e-4)
    rev = integrate(f, STAIR, 1.0, 0.0, tol=1e-4)
    assert rev.value == pytest.approx(-fwd.value, abs=1e-12)
    assert integrate(f, STAIR, 0.5, 0.5).value == 0.0


def test_integrate_gap_costs_nothing():
    f = FOnF.monotone(lambda x: x)
    res = integrate(f, STAIR, 0.35, 0.65, tol=1e-6)
    assert res.value == 0.0


def test_derivative_of_staircase_is_indicator():
    f = FOnF.monotone(STAIR)
    for x in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0, 2.0 / 9.0, 0.25):
        d = derivative(f, STAIR, x)
        assert d.value == pytest.approx(1.0, abs=1e-3)
    off = derivative(f, STAIR, 0.5)
    assert off.value == 0.0
    assert off.side == "off"


def test_derivative_sides():
    f = FOnF.monotone(STAIR)
    assert derivative(f, STAIR, 0.0).side == "right"
    assert derivative(f, STAIR, 1.0).side == "left"
    # 1/3 is a left gap edge: variation only on its left
    assert derivative(f, STAIR, 1.0 / 3.0).side == "left"


def test_derivative_power_rule():
    f2 = FOnF.net_sampled(lambda x: STAIR(x) ** 2)
    for x in net(C, 3, Interval(0.0, 1.0)):
        d = derivative(f2, STAIR, x)
        assert d.value == pytest.approx(2.0 * STAIR(x), abs=1e-3)


def test_derivative_of_constant_is_zero():
    f = FOnF.monotone(lambda x: 7.0)
    for x in (0.0, 1.0 / 3.0, 1.0):
        assert derivative(f, STAIR, x).value == 0.0


def test_derivative_no_limit_on_mismatched_sides():
    # a jump at a two-sided point of the set has no quotient limit
    def jumpy(x):
        return 0.0 if x < 0.25 else 1.0

    with pytest.raises(NoLimit):
        derivative(FOnF.net_sampled(jumpy), STAIR, 0.25)


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan])
def test_non_positive_tol_rejected(tol):
    f = FOnF.monotone(lambda x: x)
    with pytest.raises(ValueError, match="tol"):
        integrate(f, STAIR, 0.0, 1.0, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        derivative(f, STAIR, 1.0 / 3.0, tol=tol)


def test_derivative_rejects_nan():
    stair = StaircaseEvaluator(ASYM, similarity_order(ASYM.ratios))
    with pytest.raises(ValueError, match="x must not be NaN"):
        derivative(FOnF.monotone(stair), stair, math.nan)


@pytest.mark.parametrize("a, b, name", [(0.0, math.nan, "b"),
                                        (math.nan, 1.0, "a")])
def test_integrate_rejects_nan(a, b, name):
    f = FOnF.monotone(lambda x: x)
    with pytest.raises(ValueError, match=f"{name} must not be NaN"):
        integrate(f, STAIR, a, b)


def test_check_f_continuity():
    # the staircase is Holder of order alpha, so shrink delta accordingly
    rep = check_f_continuity(
        STAIR, C, 1.0 / 3.0, delta_of_eps=lambda e: 0.1 * e ** (1.0 / ALPHA)
    )
    assert rep.ok
    step = lambda x: 0.0 if x < 0.25 else 1.0
    rep = check_f_continuity(step, C, 0.25, eps_ladder=(0.5,))
    assert not rep.ok
    assert abs(rep.witness - 0.25) <= 0.5
    with pytest.raises(ValueError):
        check_f_continuity(STAIR, C, 0.5)


def test_fundamental_round_trip():
    # integral of the power-rule derivative lands on the endpoint value
    for n in (1, 2):
        f = FOnF.monotone(lambda x, n=n: n * STAIR(x) ** (n - 1)
                          if C._isect(x, x) else 0.0)
        got = integrate(f, STAIR, 0.0, 1.0, tol=5e-4,
                        max_components=60000).value
        assert got == pytest.approx(STAIR(1.0) ** n, abs=1e-3)


def test_integrate_evaluates_each_component_once(monkeypatch):
    seen = []
    component = calculus._component

    def record(f, stair, u, v, whole=False):
        seen.append((u, v))
        return component(f, stair, u, v, whole)

    monkeypatch.setattr(calculus, "_component", record)
    f = FOnF.monotone(lambda x: x)
    res = integrate(f, STAIR, 0.0, 1.0, tol=1e-3)
    assert res.contains(G1)
    assert len(seen) > 10
    assert len(set(seen)) == len(seen)
    # [a, b] inside the level-3 copy [20/27, 21/27]: the walk starts from
    # that copy, and never evaluates [a, b] twice on the way down to it
    seen.clear()
    a, b = 20.1 / 27.0, 20.8 / 27.0
    res = integrate(f, STAIR, a, b, tol=1e-7)
    assert seen[0] == (a, b)
    assert len(seen) > 10
    assert len(set(seen)) == len(seen)
    assert all(a <= u < v <= b for u, v in seen)
    fine = Subdivision(tuple(a + (b - a) * i / 400 for i in range(401)))
    upper, lower = upper_lower_sums(f, STAIR, fine)
    assert res.lower <= upper and lower <= res.upper


def test_upper_lower_sums_are_sums_of_components():
    f = FOnF.monotone(lambda x: STAIR(x) ** 2)
    sub = Subdivision(tuple(i / 27 for i in range(28)))
    upper = lower = 0.0
    for u, v in sub.components():
        ds = STAIR(v) - STAIR(u)
        if ds != 0.0:
            m_hi, m_lo = sup_inf_on(f, C, Interval(u, v))
            upper += m_hi * ds
            lower += m_lo * ds
    assert upper_lower_sums(f, STAIR, sub) == (upper, lower)


@settings(max_examples=25, deadline=None)
@given(medium=_media(), ends=st.tuples(st.floats(0.0, 1.0),
                                       st.floats(0.0, 1.0)))
def test_whole_pieces_are_priced_at_their_ends(medium, ends):
    spec, alpha, (h0, h1), copies = medium
    stair = StaircaseEvaluator(spec, alpha, a0=h0)
    # the mean share of the set's measure along its hull
    mean = 0.5
    if copies is not None:
        ps = [r ** alpha for _, r in copies]
        mean = (sum(p * o for p, (o, _) in zip(ps, copies))
                / (1.0 - sum(p * r for p, (_, r) in zip(ps, copies))))
    a, b = sorted(h0 + (h1 - h0) * e for e in ends)
    sa, sb = stair(a), stair(b)
    first_moment = stair(h1) * (h0 + (h1 - h0) * mean)
    # (f, a, b, its exact integral, whether f is 1-Lipschitz)
    cases = [
        (lambda x: 1.0, a, b, sb - sa, True),
        (stair, a, b, (sb * sb - sa * sa) / 2.0, False),
        (lambda x: stair(x) ** 2, a, b, (sb ** 3 - sa ** 3) / 3.0, False),
        (lambda x: x, h0, h1, first_moment, True),
        (lambda x: -x, h0, h1, -first_moment, True),
    ]
    # the walk and the set's own query each round a piece end by a few
    # ulps of the hull's coordinates
    slack = 8.0 * math.ulp(max(abs(h0), abs(h1)))
    component = calculus._component

    def both_ways(f, stair, u, v, whole=False):
        got = component(f, stair, u, v, whole)
        if whole:
            lo, hi = stair.spec.extremes_in(u, v)
            assert abs(lo - u) <= slack and abs(hi - v) <= slack
            if lipschitz:
                # for f = S or S^2 no ulp bound holds: S is only Holder
                # continuous, so a few ulps at an end can move it by more
                ds = stair(v) - stair(u)
                queried = component(f, stair, u, v)
                assert all(abs(g - q) <= slack * ds
                           for g, q in zip(got, queried)), (u, v)
        return got

    with mock.patch.object(calculus, "_component", both_ways):
        for fn, u, v, exact, lipschitz in cases:
            res = integrate(FOnF.monotone(fn), stair, u, v, tol=1e-3)
            assert res.lower - 1e-12 <= exact <= res.upper + 1e-12


def test_whole_pieces_make_no_set_query(monkeypatch):
    queries, pieces = [], []
    extremes_in = GapIFS.extremes_in
    component = calculus._component

    def query(spec, lo, hi):
        queries.append((lo, hi))
        return extremes_in(spec, lo, hi)

    def record(f, stair, u, v, whole=False):
        pieces.append((u, v, whole))
        return component(f, stair, u, v, whole)

    monkeypatch.setattr(GapIFS, "extremes_in", query)
    monkeypatch.setattr(calculus, "_component", record)
    # over the hull every piece is whole, and none asks the set
    integrate(FOnF.monotone(lambda x: x), STAIR, 0.0, 1.0, tol=1e-4)
    assert len(pieces) > 10 and all(whole for _, _, whole in pieces)
    assert queries == []
    # a clipped piece that rises still asks once
    pieces.clear()
    integrate(FOnF.monotone(lambda x: x), STAIR, 0.1, 0.9, tol=1e-4)
    clipped = [(u, v) for u, v, whole in pieces
               if not whole and STAIR(v) != STAIR(u)]
    assert clipped and queries == clipped
    assert any(whole for _, _, whole in pieces)
    # the other hints, and fixed subdivisions, ask on every rising piece
    for f in (FOnF.lipschitz(lambda x: x, 1.0),
              FOnF.net_sampled(lambda x: x)):
        pieces.clear()
        queries.clear()
        integrate(f, STAIR, 0.0, 1.0, tol=1e-2)
        rising = [(u, v) for u, v, _ in pieces if STAIR(v) != STAIR(u)]
        assert len(rising) > 10 and set(rising) <= set(queries)
    queries.clear()
    sub = Subdivision(tuple(i / 27 for i in range(28)))
    upper_lower_sums(FOnF.monotone(lambda x: x), STAIR, sub)
    rising = [(u, v) for u, v in sub.components() if STAIR(v) != STAIR(u)]
    assert len(rising) == 8 and queries == rising


def _gap_sides(spec, x, w):
    """The side label a membership check gives x: off where F misses x,
    else whether F meets each of the windows [x - w, x - w/100] and
    [x + w/100, x + w]."""
    if not spec._isect(x, x):
        return "off"
    left = spec._isect(x - w, x - w / 100.0)
    right = spec._isect(x + w / 100.0, x + w)
    return {(True, True): "both", (True, False): "left",
            (False, True): "right"}[(left, right)]


def _check_sides(medium, level):
    spec, alpha, (h0, h1), copies = medium
    stair = StaircaseEvaluator(spec, alpha)
    f = FOnF.monotone(stair)
    if copies is None:
        # no gaps: a tenth of a level piece
        w = (h1 - h0) / 2 ** level / 10.0
    else:
        # a tenth of the smallest gap made by level ``level``
        holes = [o1 - (o0 + r0) for (o0, r0), (o1, _) in zip(copies,
                                                              copies[1:])]
        r_min = min(r for _, r in copies)
        w = (h1 - h0) * min(holes) * r_min ** (level - 1) / 10.0
    for x in net(spec, level, Interval(h0, h1)):
        assert derivative(f, stair, x).side == _gap_sides(spec, x, w), x


@settings(max_examples=25, deadline=None)
@given(medium=_media(), level=st.integers(1, 4))
def test_derivative_sides_match_membership(medium, level):
    _check_sides(medium, level)


@settings(max_examples=25, deadline=None)
@given(medium=_media(far=True), level=st.integers(1, 4))
def test_derivative_sides_match_membership_far_from_origin(medium, level):
    # piece ends and net points there differ by more than 1e-15 scale
    _check_sides(medium, level)


@pytest.mark.parametrize("base, scale, shift", [
    (C, 1.0, 20.0), (ASYM, 0.1, 2.0), (ASYM, 0.05, -37.3)])
def test_derivative_sides_match_membership_at_offset_sets(base, scale, shift):
    copies = tuple(zip(base.offsets, base.ratios))
    order = similarity_order(base.ratios)
    _check_sides((Affine(base, scale, shift), order, (shift, shift + scale),
                  copies), 4)


@pytest.mark.parametrize("spec, xs", [
    (FullInterval(0.0, 1.0), (0.25, 0.5, 0.75)),
    (GapIFS((0.5, 0.25, 0.25), (0.0, 0.5, 0.75)), (0.5, 0.75)),
])
def test_derivative_is_two_sided_where_copies_touch(spec, xs):
    # the shared end of two touching copies is held from both sides
    stair = StaircaseEvaluator(spec, 1.0)
    for x in xs:
        d = derivative(FOnF.monotone(stair), stair, x)
        assert (d.value, d.side) == (1.0, "both")


def test_derivative_makes_no_extremes_query(monkeypatch):
    queries = []
    extremes_in = GapIFS.extremes_in

    def query(spec, lo, hi):
        queries.append((lo, hi))
        return extremes_in(spec, lo, hi)

    monkeypatch.setattr(GapIFS, "extremes_in", query)
    for spec, base in ((C, C), (ASYM, ASYM), (Affine(ASYM, 1.5, -0.25), ASYM)):
        stair = StaircaseEvaluator(spec, similarity_order(base.ratios))
        for x in net(spec, 3, Interval(-1.0, 2.0)):
            derivative(FOnF.monotone(stair), stair, x)
            derivative(FOnF.net_sampled(lambda y: stair(y) ** 2), stair, x)
    assert queries == []
