"""Staircase-weighted integration and quotient differentiation."""

import contextlib
import functools
import gc
import heapq
import itertools
import math
import random
import re
import weakref
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from falpha import _backend, calculus, physics
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
from falpha.mass import _CACHE_CAP, DivergingMass, StaircaseEvaluator
from falpha.sets import (
    Affine,
    FullInterval,
    GapIFS,
    Interval,
    Scale,
    Subdivision,
    TernaryCantor,
    Translate,
    _children,
    gaps,
    net,
    slack,
)
from falpha.physics import FrictionParams, time_of_flight

import exact
from test_physics import _media
from test_sets import _WRAPS, _gap_ifs, _wrap

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


@pytest.mark.parametrize("spec", [C, ASYM, Affine(ASYM, 2.0, -0.5)])
def test_a_net_sampled_integrand_gets_no_bracket(spec):
    # a sample of F bounds no sup, so wherever S rises there is no
    # certified bracket to return; where S is flat the integral is 0
    f = FOnF.net_sampled(lambda x: x)
    base = getattr(spec, "inner", spec)
    stair = StaircaseEvaluator(spec, similarity_order(base.ratios))
    h0, h1 = spec.hull()
    with pytest.raises(UnboundedHint):
        sup_inf_on(f, spec, Interval(h0, h1))
    for a, b in ((h0, h1), (h1, h0), (h0 + 0.1 * (h1 - h0), h1)):
        with pytest.raises(UnboundedHint):
            integrate(f, stair, a, b)
    with pytest.raises(UnboundedHint):
        upper_lower_sums(f, stair, Subdivision((h0, h1)))
    gap = gaps(spec, Interval(h0, h1), 0.1 * (h1 - h0))[0]
    u, v = gap.lo + 0.25 * gap.length, gap.hi - 0.25 * gap.length
    assert sup_inf_on(f, spec, Interval(u, v)) == (0.0, 0.0)
    res = integrate(f, stair, u, v)
    assert (res.lower, res.upper) == (0.0, 0.0)


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


@pytest.mark.parametrize("b", [1.0, 1.0 / 3.0, (0.2, 0.8)])
def test_integrate_below_the_slack_of_a_far_set_does_not_converge(b):
    # an ulp of 1e8 is 1.5e-8: the pieces that a 1e-9 bracket needs are
    # shorter than the slack of the set, which cannot tell their ends apart
    shift = 1e8
    f = FOnF.monotone(lambda x: x)
    if not isinstance(b, tuple):
        stair = StaircaseEvaluator(Translate(C, shift), ALPHA, a0=shift)
        with pytest.raises(NoConvergence):
            integrate(f, stair, shift, shift + b, tol=1e-9)
        return
    # ends in gaps: the walk reads S from its pieces, so a bracket that
    # closes holds the exact (s / 2 + 1/4) / Gamma(alpha + 1)
    exact = (0.5 * shift + 0.25) / GAMMA_ALPHA1
    for a0 in (0.0, shift):
        stair = StaircaseEvaluator(Translate(C, shift), ALPHA, a0=a0)
        try:
            res = integrate(f, stair, shift + b[0], shift + b[1], tol=1e-9)
        except NoConvergence:
            continue
        assert res.contains(exact), (a0, res)


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


@pytest.mark.parametrize("cap", [math.nan, math.inf, 0, -5, 2.5, True])
def test_integrate_refuses_a_cap_that_is_not_a_positive_int(cap):
    # a NaN or infinite cap would let the walk run without bound
    f = FOnF.monotone(lambda x: x)
    with pytest.raises(ValueError, match="max_components must be a positive "
                                         "int") as err:
        integrate(f, STAIR, 0.0, 1.0, max_components=cap)
    assert repr(cap) in str(err.value)


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


def _spy_bounds(record):
    """A stand-in for ``calculus._piece_bound`` whose bound passes each
    call, with its f and stair, to ``record(bound, f, stair, u, v, su, sv,
    whole)``."""
    piece_bound = calculus._piece_bound

    def spy(f, stair):
        bound = piece_bound(f, stair)
        return lambda *args: record(bound, f, stair, *args)

    return spy


def test_integrate_evaluates_each_component_once(monkeypatch):
    seen = []

    def record(bound, f, stair, u, v, su, sv, whole):
        seen.append((u, v))
        return bound(u, v, su, sv, whole)

    monkeypatch.setattr(calculus, "_piece_bound", _spy_bounds(record))
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


_FAR_TWO_MAP = GapIFS((0.3435738472226821, 0.1911192899825631),
                      (0.0, 0.8088807100174369))
# Affine._window widens nothing here: slack(x, 1.5) / 1.5 is the set's own
# query slack, and a window end mapped back fell an ulp inside a piece end
_EVEN_TWO_MAP = GapIFS((0.4, 0.4), (0.0, 0.6000000000000001))
_NINTHS_TWO_MAP = GapIFS((0.4444444444444444, 0.4444444444444444),
                         (0.0, 0.5555555555555556))


@settings(max_examples=25, deadline=None)
@given(medium=_media(), ends=st.tuples(st.floats(0.0, 1.0),
                                       st.floats(0.0, 1.0)))
@example(medium=(Affine(_FAR_TWO_MAP, 1.7418697349851697, 0.7397728558447245),
                 similarity_order(_FAR_TWO_MAP.ratios),
                 (0.7397728558447245, 0.7397728558447245 + 1.7418697349851697),
                 tuple(zip(_FAR_TWO_MAP.offsets, _FAR_TWO_MAP.ratios))),
         ends=(0.0, 1.0))
@example(medium=(Affine(_EVEN_TWO_MAP, 1.5, 0.15),
                 similarity_order(_EVEN_TWO_MAP.ratios), (0.15, 1.65),
                 tuple(zip(_EVEN_TWO_MAP.offsets, _EVEN_TWO_MAP.ratios))),
         ends=(0.0, 1.0))
# a span shorter than the slack: the walk stops at the first piece below it
# rather than reading the span as a whole piece further down
@example(medium=(_NINTHS_TWO_MAP, similarity_order(_NINTHS_TWO_MAP.ratios),
                 (0.0, 1.0),
                 tuple(zip(_NINTHS_TWO_MAP.offsets, _NINTHS_TWO_MAP.ratios))),
         ends=(0.0, 5e-324))
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
    # the walk and the set's own query take a piece's ends from the same
    # frames, and the walk's staircase shares are the descent's
    def both_ways(bound, f, stair, u, v, su, sv, whole):
        got = bound(u, v, su, sv, whole)
        if whole:
            assert stair.spec.extremes_in(u, v) == (u, v)
            if lipschitz:
                assert got == bound(u, v, stair(u), stair(v), False), (u, v)
        return got

    with mock.patch.object(calculus, "_piece_bound", _spy_bounds(both_ways)):
        for fn, u, v, exact, lipschitz in cases:
            res = integrate(FOnF.monotone(fn), stair, u, v, tol=1e-3)
            assert res.lower - 1e-12 <= exact <= res.upper + 1e-12


def test_whole_pieces_make_no_set_query(monkeypatch):
    queries, pieces = [], []
    extremes_in = GapIFS.extremes_in

    def query(spec, lo, hi):
        queries.append((lo, hi))
        return extremes_in(spec, lo, hi)

    def record(bound, f, stair, u, v, su, sv, whole):
        pieces.append((u, v, whole))
        return bound(u, v, su, sv, whole)

    monkeypatch.setattr(GapIFS, "extremes_in", query)
    monkeypatch.setattr(calculus, "_piece_bound", _spy_bounds(record))
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
    # a Lipschitz hint is bounded at a whole piece's ends too
    pieces.clear()
    queries.clear()
    integrate(FOnF.lipschitz(lambda x: x, 1.0), STAIR, 0.0, 1.0, tol=1e-2)
    assert len(pieces) > 10 and all(whole for _, _, whole in pieces)
    assert queries == []
    # a net-sampled f bounds no sup: the first rising piece raises, whole
    # with no set query, clipped after one
    for a, asked in ((0.0, 0), (0.1, 1)):
        queries.clear()
        with pytest.raises(UnboundedHint):
            integrate(FOnF.net_sampled(lambda x: x), STAIR, a, 1.0)
        assert len(queries) == asked
    # fixed subdivisions ask on every rising piece
    queries.clear()
    sub = Subdivision(tuple(i / 27 for i in range(28)))
    upper_lower_sums(FOnF.monotone(lambda x: x), STAIR, sub)
    rising = [(u, v) for u, v in sub.components() if STAIR(v) != STAIR(u)]
    assert len(rising) == 8 and queries == rising


def test_lipschitz_hint_closes_below_its_old_net_floor():
    # padding net extremes by L times the level-10 resolution kept the
    # bracket at least 3.79e-4 wide here; bounded by the pieces it closes.
    # The Fourier transform of the Cantor measure gives the integral:
    # sin(5) prod_k cos(10 / 3^k)
    exact = math.sin(5.0) * math.prod(math.cos(10.0 / 3.0 ** k)
                                      for k in range(1, 60)) / GAMMA_ALPHA1
    f = FOnF.lipschitz(lambda x: math.sin(10.0 * x), 10.0)
    res = integrate(f, STAIR, 0.0, 1.0, tol=1e-4)
    assert res.upper - res.lower <= 1e-4
    assert res.contains(exact)


@pytest.mark.parametrize("c", [i / 8.0 for i in range(9)])
def test_lipschitz_hint_holds_the_second_moment(c):
    # the Cantor measure has moments 1/2 and 3/8, so the integral of
    # (x - c)^2 is (3/8 - c + c^2) / Gamma(alpha + 1); on [0, 1] the
    # integrand is 2 max(c, 1 - c)-Lipschitz
    f = FOnF.lipschitz(lambda x: (x - c) ** 2, 2.0 * max(c, 1.0 - c))
    res = integrate(f, STAIR, 0.0, 1.0, tol=1e-5)
    assert res.upper - res.lower <= 1e-5
    assert res.contains((3.0 / 8.0 - c + c * c) / GAMMA_ALPHA1)


@settings(max_examples=40, deadline=None)
@given(medium=st.one_of(_media(), _media(far=True)), level=st.integers(1, 4))
def test_nets_and_gaps_end_walked_pieces(medium, level):
    # the net, the gaps and the integral's walk take piece ends from the
    # same frames: every net point and gap end is a walked end, bit for bit
    spec, alpha, _, copies = medium
    assume(copies is not None)
    hull, frame, _ = StaircaseEvaluator(spec, alpha).walk
    kids = functools.partial(_children, *frame)
    min_len = spec.resolution(level + 2)
    ends, stack = set(), [(hull, 0)]
    while stack:
        piece, d = stack.pop()
        ends.update(piece[:2])
        # a gap of at least min_len lies between copies of a longer piece
        if d < level or piece[1] - piece[0] > min_len:
            stack.extend((k, d + 1) for k in kids(piece))
    whole = Interval(*spec.hull())
    assert set(net(spec, level, whole)) <= ends
    for g in gaps(spec, whole, min_len):
        assert g.lo in ends and g.hi in ends


def test_walks_descend_only_at_their_ends(monkeypatch):
    # S at a piece end comes from the piece, so a finer tol walks more
    # pieces and makes the same staircase descents
    seen = []
    stair_scaled = _backend.stair_scaled

    def spy(hull, table, eps, x):
        seen.append(x)
        return stair_scaled(hull, table, eps, x)

    monkeypatch.setattr(_backend, "stair_scaled", spy)
    x = net(ASYM, 3, Interval(0.0, 1.0))[3]

    def runs(tol):
        # the same descents whether or not the walk closes
        stair = StaircaseEvaluator(ASYM, similarity_order(ASYM.ratios))
        with contextlib.suppress(NoConvergence):
            integrate(FOnF.monotone(lambda y: y), stair, 0.1, 0.9, tol=tol)
        with contextlib.suppress(NoLimit):
            derivative(FOnF.monotone(lambda y: y), stair, x, tol=tol)
        time_of_flight(FrictionParams(C, ALPHA, v0=1.0, kappa=0.5), 0.7,
                       tol=tol)
        got = list(seen)
        seen.clear()
        return got

    coarse = runs(1e-4)
    assert 0 < len(coarse) <= 8
    assert runs(1e-8) == coarse


@st.composite
def _walked_media(draw):
    """(spec, order): a gap IFS with 2-4 maps on [0, 1] whose neighbouring
    copies may touch, plain, or scaled by 0.25-4, 1e-3 or 1e3 and shifted
    by up to 1e5."""
    m = draw(st.integers(2, 4))
    copies = draw(st.lists(st.floats(0.2, 1.0), min_size=m, max_size=m))
    holes = draw(st.lists(st.just(0.0) | st.floats(0.1, 1.0),
                          min_size=m - 1, max_size=m - 1))
    total = sum(copies) + sum(holes)
    ratios = [c / total for c in copies]
    offsets = [0.0]
    for r, g in zip(ratios, holes):
        offsets.append(offsets[-1] + r + g / total)
    spec = GapIFS(tuple(ratios), tuple(offsets))
    if draw(st.booleans()):
        scale = draw(st.floats(0.25, 4.0) | st.sampled_from((1e-3, 1e3)))
        spec = Translate(Scale(spec, scale), draw(st.floats(-1e5, 1e5)))
    return spec, similarity_order(tuple(ratios))


@settings(max_examples=30, deadline=None)
@given(medium=_walked_media(), start=st.floats(0.0, 1.0))
def test_piece_ends_enter_the_cache_as_their_descent(medium, start):
    # a piece's share is the descent at its end bit for bit, so the value
    # that _at stores is the one a descent there gives
    spec, alpha = medium
    h0, h1 = spec.hull()
    a0 = h0 + (h1 - h0) * start
    stair = StaircaseEvaluator(spec, alpha, a0=a0)
    fresh = StaircaseEvaluator(spec, alpha, a0=a0)
    hull, frame, _ = stair.walk
    kids = functools.partial(_children, *frame)
    stack = [(hull, 0)]
    while stack:
        piece, d = stack.pop()
        for x, share in ((piece[0], piece[4]), (piece[1], piece[5])):
            assert stair._at(x, share) == fresh.value(x), x
            assert stair._cache[x] == fresh.value(x), x
        if d < 4:
            stack.extend((k, d + 1) for k in kids(piece))


def _reference_side(f, x, fx, sx, walk, at, sign, tol, r0, eps, finest):
    """``calculus._side`` with no early stop: the walk goes on down to the
    finest piece that holds x from this side, through every child list."""
    piece, frame, _ = walk
    kids = functools.partial(_children, *frame)
    quots, prev, settled = [], None, None
    while piece is not None:
        k0, k1 = piece[:2]
        y, share = (k1, piece[5]) if sign > 0 else (k0, piece[4])
        if settled is None and y != prev and abs(y - x) <= r0:
            prev, ds = y, at(y, share) - sx
            if ds != 0.0:
                quots.append((f(y) - fx) / ds)
            if len(quots) >= 3:
                d1 = abs(quots[-1] - quots[-2])
                d2 = abs(quots[-2] - quots[-3])
                if max(d1, d2) <= 0.25 * tol * max(1.0, abs(quots[-1])):
                    settled = (quots[-1], d1)
        if k1 - k0 < finest:
            if settled is None and len(quots) >= 3:
                raise NoLimit(f"quotients at x={x} oscillate beyond tol={tol}")
            return settled
        piece = next((c for c in kids(piece)
                      if (c[0] + eps < x <= c[1] + eps if sign < 0
                          else c[0] - eps <= x < c[1] - eps)), None)
    return None


@settings(max_examples=25, deadline=None)
@given(medium=_walked_media(), level=st.integers(1, 3))
def test_a_settled_side_stops_with_what_the_whole_walk_gives(medium, level):
    spec, alpha = medium
    stair = StaircaseEvaluator(spec, alpha)
    fs = (FOnF.monotone(stair), FOnF.monotone(lambda y: stair(y) ** 2))

    def outcome(f, x):
        try:
            return derivative(f, stair, x)
        except NoLimit as exc:
            return str(exc)

    for x in net(spec, level, Interval(*spec.hull())):
        for f in fs:
            got = outcome(f, x)
            with mock.patch.object(calculus, "_side", _reference_side):
                assert got == outcome(f, x), x


def test_a_settled_side_stops_at_its_shared_near_end(monkeypatch):
    # at a level-3 net point the quotients of D S settle within a few
    # pieces that end at x; the walk down to pieces 1e-13 long built some
    # 30 children, one per level
    built = []
    child = calculus._child

    def spy(*args):
        built.append(args[4])
        return child(*args)

    monkeypatch.setattr(calculus, "_child", spy)
    f = FOnF.monotone(STAIR)
    for x in net(C, 3, Interval(0.0, 1.0)):
        built.clear()
        assert derivative(f, STAIR, x).value == 1.0
        assert len(built) <= 10, x


@settings(max_examples=60, deadline=None)
@given(medium=_walked_media(), data=st.data())
def test_a_side_builds_the_copy_that_children_picks(medium, data):
    # _side builds only the copy that holds x; it is the one that the
    # whole child list and the side's test pick, bit for bit, at the ends
    # of the copies moved by up to 1.5 slacks and then by a few ulps
    spec, alpha = medium
    stair = StaircaseEvaluator(spec, alpha)
    piece, frame, _ = stair.walk
    kids = functools.partial(_children, *frame)
    for _ in range(data.draw(st.integers(0, 6), label="level")):
        copies = kids(piece)
        piece = copies[data.draw(st.integers(0, len(copies) - 1))]
    copies = kids(piece)
    for end in [c[i] for c in copies for i in (0, 1)]:
        eps = slack(end, stair.measure.scale)
        for m, k in itertools.product((-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5),
                                      (-2, -1, 0, 1, 2)):
            x = end + m * eps
            for _ in range(abs(k)):
                x = math.nextafter(x, math.copysign(math.inf, k))
            for sign in (-1, 1):
                want = next((c for c in copies
                             if (c[0] + eps < x <= c[1] + eps if sign < 0
                                 else c[0] - eps <= x < c[1] - eps)), None)
                got = calculus._child(*frame, piece, x, eps, sign)
                assert repr(got) == repr(want), (x, sign)


def _reference_bracket(walk, at, a, sa, b, sb, tol, bound, flat,
                       max_pieces=math.inf):
    """``calculus._bracket`` as it was before its heap entries carried S
    at their ends: each split read S at every piece end it met, from the
    piece.  Kept as the reference for the walk's results."""
    if walk is None:
        return (flat(a, b, sa), flat(a, b, sa), 0, 0)
    hull, frame, finest = walk
    kids = functools.partial(_children, *frame)
    exact = upper = lower = width = 0.0
    count = depth = 0
    heap = []

    def split(u, su, v, sv, d, spans):
        nonlocal exact, upper, lower, width, count
        for piece in spans:
            k0, k1 = piece[:2]
            if v <= k0:
                break
            if u < k0:
                exact += flat(u, k0, su)
            if u <= k0:
                u, su = k0, at(k0, piece[4])
            if min(v, k1) <= u:
                continue
            q, sq = (k1, at(k1, piece[5])) if k1 <= v else (v, sv)
            while ((u, q) != piece[:2] and piece[1] - piece[0] >= finest
                   and (kid := next((c for c in kids(piece)
                                     if c[0] <= u and q <= c[1]), None))):
                piece = kid
            hi, lo = bound(u, q, su, sq, (u, q) == piece[:2])
            if not (math.isfinite(hi) and math.isfinite(lo)):
                calculus._refuse(f"the bound on [{u!r}, {q!r}]", hi, lo)
            upper, lower, count = upper + hi, lower + lo, count + 1
            if hi > lo:
                heapq.heappush(heap, (lo - hi, *piece[:2], d, hi, lo, piece))
                width += hi - lo
            u, su = q, sq
        if u < v:
            exact += flat(u, v, su)

    split(a, sa, b, sb, 0, [hull])
    while heap and max(width, upper - lower) > tol:
        _, k0, k1, d, hi, lo, piece = heap[0]
        if k1 - k0 < finest or (
                count + len(spans := kids(piece)) - 1 > max_pieces):
            break
        heapq.heappop(heap)
        upper, lower, count = upper - hi, lower - lo, count - 1
        width -= hi - lo
        depth = max(depth, d + 1)
        split(max(a, k0), sa, min(b, k1), sb, d + 1, spans)
    if width > tol:
        upper = max(upper, lower + width)
    return (exact + lower, exact + upper, count, depth)


def _reference_component(f, stair, u, v, whole, s):
    """The bound that ``integrate`` put on a piece before ``_piece_bound``:
    ``_by_ends`` on a whole piece, ``sup_inf_on`` on a clipped one."""
    su, sv = s
    ds = sv - su
    if ds == 0.0:
        return (0.0, 0.0)
    m_hi, m_lo = (calculus._by_ends(f, u, v) if whole
                  else sup_inf_on(f, stair.spec, Interval(u, v)))
    return (m_hi * ds, m_lo * ds)


@st.composite
def _bracket_window(draw, spec):
    """[a, b] in and around the hull: ends of level-2 pieces, or any."""
    h0, h1 = spec.hull()
    w = h1 - h0
    ends = net(spec, 2, Interval(h0, h1))
    end = st.sampled_from(ends) | st.floats(h0 - 0.1 * w, h1 + 0.1 * w)
    return tuple(sorted((draw(end), draw(end))))


def _assert_old_brackets(spec, alpha, a, b, tol):
    """The walk of ``calculus._bracket`` gives what ``_reference_bracket``
    gave, by repr, for the integrands 1, x and S down F over [a, b], and
    for the flight's bound from the hull's start to b."""
    stair = StaircaseEvaluator(spec, alpha, a0=spec.hull()[0])
    walk = stair.walk
    flat = lambda u, v, s: 0.0
    for fn in (lambda x: 1.0, lambda x: x, stair):
        f = FOnF.monotone(fn)
        got = calculus._bracket(walk, stair._at, a, stair(a), b, stair(b),
                                tol, calculus._piece_bound(f, stair), flat,
                                3000)
        want = _reference_bracket(
            walk, stair._at, a, stair(a), b, stair(b), tol,
            lambda u, v, su, sv, whole: _reference_component(
                f, stair, u, v, whole, (su, sv)), flat, 3000)
        assert repr(got) == repr(want), (a, b)
    # v falls from 1 to 1/2 across the hull, so the flight takes about its
    # length: tol is relative to the hull's
    h0, h1 = spec.hull()
    params = FrictionParams(spec, alpha, v0=1.0, x0=h0,
                            kappa=0.5 / stair(h1))
    x, tol = max(h0, b), max(tol, 1e-6) * (h1 - h0)
    got = time_of_flight(params, x, tol=tol)
    with mock.patch.object(physics, "_bracket", _reference_bracket):
        assert repr(got) == repr(time_of_flight(params, x, tol=tol)), x


@settings(max_examples=80, deadline=None)
@given(medium=_walked_media(), data=st.data())
def test_the_bracket_gives_what_the_old_walk_gave(medium, data):
    # the walk that reads S only at the ends that copies add gives the
    # old (lower, upper, count, depth)
    spec, alpha = medium
    a, b = data.draw(_bracket_window(spec))
    tol = data.draw(st.sampled_from((1e-2, 1e-4, 1e-7)))
    _assert_old_brackets(spec, alpha, a, b, tol)


def test_a_copy_that_drift_overlaps_splits_whole():
    # three touching thirds: the end of the copy 0.04526748971193416
    # lies an ulp past the start 0.04526748971193415 of the next, which
    # the walk reaches clipped by its neighbour, and splits whole
    third = 0.3333333333333333
    spec = GapIFS((third,) * 3, (0.0, third, 0.6666666666666666))
    _assert_old_brackets(spec, 1.0, 0.0, 0.1111111111111111, 1e-7)


def test_a_split_reads_s_only_at_the_ends_its_copies_add():
    # a heap entry carries S at its ends, and the outer copies of a piece
    # keep them: every piece end is read once, and a and b never
    for spec, a, b in ((C, 0.0, 1.0), (C, 0.1, 0.9),
                       (GapIFS((0.5, 0.25, 0.25), (0.0, 0.5, 0.75)), 0.0, 1.0),
                       (Translate(Scale(ASYM, 3.0), 1e3), 1e3, 1003.0)):
        stair = StaircaseEvaluator(spec, similarity_order(
            (spec.inner if isinstance(spec, Affine) else spec).ratios))
        reads = []
        at = stair._at

        def spy(x, share):
            reads.append(x)
            return at(x, share)

        # an evaluator is a frozen record: the spy goes into its dict
        stair.__dict__["_at"] = spy
        res = integrate(FOnF.monotone(lambda x: x - a), stair, a, b,
                        tol=1e-4 * (b - a))
        assert res.refinement_depth >= 5
        assert len(reads) == len(set(reads)), spec
        assert a not in reads and b not in reads


@pytest.mark.parametrize("lam", [1e2, 1e4, 1e8])
def test_derivative_of_the_staircase_on_sets_scaled_far_up(lam):
    # the walk stops at pieces whose copies could be shorter than the
    # slack, where no copy would hold x any more
    spec = Scale(C, lam)
    stair = StaircaseEvaluator(spec, ALPHA)
    f = FOnF.monotone(stair)
    _check_sides((spec, ALPHA, (0.0, lam), ((0.0, 1.0 / 3.0),
                                            (2.0 / 3.0, 1.0 / 3.0))), 3)
    for x in net(spec, 3, Interval(0.0, lam)):
        assert derivative(f, stair, x).value == 1.0, x
    # points of F that end no piece: 1/4 is 0.0202... in base 3
    for x in (lam * 3.0 ** -12 / 4.0, lam / 4.0,
              lam * (2.0 / 3.0 + 3.0 ** -9 / 4.0)):
        d = derivative(f, stair, x)
        assert (d.value, d.side) == (1.0, "both"), x


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


@st.composite
def _substituted_media(draw):
    """(spec, base, order): the middle-thirds set or a gap IFS with 2-4
    maps of order at least 0.45, plain, wrapped, or translated by 1e3 to
    1e5 either way."""
    base = draw(st.just(C) | _gap_ifs())
    alpha = similarity_order(base.ratios)
    assume(alpha >= 0.45)
    how = draw(st.sampled_from(("plain", "wrapped", "far")))
    spec = base
    if how == "wrapped":
        spec = _wrap(base, draw(_WRAPS))[0]
    elif how == "far":
        spec = Translate(base, draw(st.sampled_from((-1.0, 1.0)))
                         * draw(st.floats(1e3, 1e5)))
    return spec, base, alpha


@st.composite
def _substituted_points(draw, spec, base):
    """(x, kind) with x a point of spec: in a gap between two copies of a
    piece at most 3 levels deep, a hull end, or a point of F with a
    random address 40-60 levels long."""
    _, lam, t = exact.unwrap(spec)
    m = len(base.ratios)
    h0, h1 = base.hull()
    kind = draw(st.sampled_from(("gap", "end", "deep")))
    if kind == "end":
        return draw(st.sampled_from(spec.hull())), kind
    if kind == "deep":
        head = draw(st.lists(st.integers(0, m - 1), min_size=40, max_size=60))
        period = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2))
        y = exact.point(base, head, period)
    else:
        head = draw(st.lists(st.integers(0, m - 1), max_size=3))
        j = draw(st.integers(0, m - 2))
        g0, g1 = exact.image(base, (j,), h1), exact.image(base, (j + 1,), h0)
        q = Fraction(draw(st.floats(0.05, 0.95)))
        y = exact.image(base, head, g0 + q * (g1 - g0))
    return t + lam * float(y), kind


@settings(max_examples=80, deadline=None)
@given(data=st.data(), medium=_substituted_media(),
       tol=st.sampled_from((1e-3, 1e-5)))
def test_substitution_brackets_hold_the_exact_integral(data, medium, tol):
    # the origin is the least point drawn, so S >= 0 where u^n is
    # integrated, and u^n is convex and nondecreasing there
    spec, base, alpha = medium
    pts = sorted(data.draw(st.lists(_substituted_points(spec, base),
                                    min_size=2, max_size=3)))
    a0, k0 = pts[0]
    stair = StaircaseEvaluator(spec, alpha, a0=a0)
    # S from a0, with Gamma(alpha + 1) rounded once to a float
    s0, gamma = exact.stair(spec, alpha, a0), Fraction(math.gamma(alpha + 1))
    for (a, ka), (b, kb) in itertools.combinations(pts, 2):
        sa, sb = ((exact.stair(spec, alpha, x) - s0) / gamma for x in (a, b))
        for n in range(1, 5):
            f = (FOnF.monotone(stair) if n == 1
                 else FOnF.of_stair(lambda u, n=n: u ** n, stair))
            got = calculus._by_substitution(f, stair, a, b, tol)
            if got is None:
                # S is flat within the slack of a gap point, so no widening
                assert {k0, ka, kb} != {"gap"}, (a0, a, b)
                continue
            lower, upper, count, _ = got
            want = (sb ** (n + 1) - sa ** (n + 1)) / (n + 1)
            # float sums and powers round by ulps; the float S at the
            # origin, a hull end or a point of F may miss the exact one by
            # up to the widening
            slack = 1e-14 * (1.0 + abs(want))
            assert lower - slack <= want <= upper + slack, (a0, a, b, n)


@st.composite
def _whole_piece_windows(draw):
    """(spec, base, level, addresses, a, b): a gap IFS with 2-4 maps,
    plain or wrapped, a run of its level-``level`` pieces in order along
    the hull, and a window [a, b] whose ends lie in the gaps (or past the
    hull ends) either side of the run, so that it meets F in those whole
    pieces and nowhere else, whatever the rounding of a and b."""
    base = draw(_gap_ifs())
    spec, lam, t = _wrap(base, draw(_WRAPS))
    m, level = len(base.ratios), draw(st.integers(1, 3))
    pieces = list(itertools.product(range(m), repeat=level))
    first = draw(st.integers(0, len(pieces) - 1))
    last = draw(st.integers(first, len(pieces) - 1))
    # a piece's ends are the images of the hull ends, fixed points of the
    # outer maps; one hull length past the hull stands in for a neighbour
    h0, h1 = exact.point(base, (), (0,)), exact.point(base, (), (m - 1,))
    start = [exact.point(base, q, (0,)) for q in pieces] + [2 * h1 - h0]
    end = [2 * h0 - h1] + [exact.point(base, q, (m - 1,)) for q in pieces]
    a, b = ((end[i] + start[i]) / 2 for i in (first, last + 1))
    return (spec, base, level, pieces[first:last + 1],
            float(t + lam * a), float(t + lam * b))


@settings(max_examples=40, deadline=None)
@given(window=_whole_piece_windows(), where=st.floats(0.2, 0.8),
       sign=st.sampled_from((1.0, -1.0)))
def test_lipschitz_brackets_hold_the_exact_polynomial_integral(window, where,
                                                               sign):
    # p = sign (x - c)^2 falls then rises, or the reverse, on the hull:
    # no monotone hint holds, and the bracket rests on L = max |p'| there
    spec, base, level, addresses, a, b = window
    alpha = similarity_order(base.ratios)
    stair = StaircaseEvaluator(spec, alpha)
    g0, g1 = spec.hull()
    c = g0 + where * (g1 - g0)
    lip = 2.0 * max(c - g0, g1 - c)
    fc = Fraction(c)
    want = exact.polynomial(spec, alpha, [sign * fc * fc, -2 * sign * fc,
                                          Fraction(sign)], addresses)
    want /= Fraction(math.gamma(alpha + 1))
    # a width relative to p's largest change over F, times the rise of S
    tol = 1e-3 * lip * (g1 - g0) * (stair(b) - stair(a))
    res = integrate(FOnF.lipschitz(lambda x: sign * (x - c) ** 2, lip),
                    stair, a, b, tol=tol)
    # the float sums round by ulps of the summed values
    slack = 1e-12 * (1.0 + abs(float(want)))
    assert res.lower - slack <= want <= res.upper + slack, (level, addresses)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.1, 0.9), (0.25, 0.75),
                                  (0.4, 0.7)])
def test_the_staircase_closes_in_one_piece_by_substitution(a, b):
    # g the identity: the midpoint rule and the chord agree on the one
    # piece [S(a), S(b)]
    stair = StaircaseEvaluator(C, ALPHA)
    f = FOnF.monotone(stair)
    lower, upper, count, depth = calculus._by_substitution(f, stair, a, b,
                                                           1e-4)
    assert (count, depth) == (1, 0)
    res = integrate(f, stair, a, b, tol=1e-4)
    assert (res.lower, res.upper) == (lower, upper)
    assert res.upper - res.lower <= 1e-6
    assert res.contains((stair(b) ** 2 - stair(a) ** 2) / 2.0, 1e-15)


def _walked(f, stair, a, b, **kw):
    """repr of what integrate gives for f, or of the NoConvergence, with
    its partial result, or DivergingMass it raises."""
    try:
        return repr(integrate(f, stair, a, b, **kw))
    except NoConvergence as exc:
        return repr((str(exc), exc.gap, exc.partial))
    except DivergingMass as exc:
        return repr(exc)


def test_a_function_of_an_equal_evaluator_is_priced_by_substitution():
    # an evaluator is a record: one with the same fields is the same
    # staircase, so a function of it is priced as a function of stair
    stair = StaircaseEvaluator(C, ALPHA, a0=0.25)
    twin = StaircaseEvaluator(C, ALPHA, a0=0.25)
    assert twin == stair and twin is not stair
    for make in (FOnF.monotone, lambda s: FOnF.of_stair(lambda u: u * u, s)):
        got = calculus._by_substitution(make(twin), stair, 0.25, 0.75, 1e-3)
        assert got is not None
        assert got == calculus._by_substitution(make(stair), stair, 0.25,
                                                0.75, 1e-3)


def test_a_function_of_another_evaluator_takes_the_walk_down_f():
    # S from a0 = 0 is S from a0 = 1/4 plus S(1/4): both are functions of
    # the staircase, but not of the evaluator integrated against
    stair = StaircaseEvaluator(C, ALPHA, a0=0.25)
    other = StaircaseEvaluator(C, ALPHA, a0=0.0)
    for f in (FOnF.monotone(other),
              FOnF.of_stair(lambda u: u ** 2, other)):
        assert calculus._by_substitution(f, stair, 0.25, 0.75, 1e-3) is None
        # the same function with nothing to substitute walks F
        walk = FOnF.monotone(lambda x, f=f: f(x))
        assert (_walked(f, stair, 0.25, 0.75, tol=1e-3)
                == _walked(walk, stair, 0.25, 0.75, tol=1e-3))


@pytest.mark.parametrize("alpha", [0.5, 0.9])
def test_off_its_order_the_staircase_takes_the_walk_down_f(alpha):
    # below the order S diverges, above it S is 0
    stair = StaircaseEvaluator(C, alpha)
    for f in (FOnF.monotone(stair),
              FOnF.of_stair(lambda u: u ** 2, stair)):
        assert calculus._by_substitution(f, stair, 0.0, 1.0, 1e-3) is None
        walk = FOnF.monotone(lambda x, f=f: f(x))
        for a, b in ((0.0, 1.0), (0.25, 0.25), (0.4, 0.6)):
            assert (_walked(f, stair, a, b, tol=1e-3)
                    == _walked(walk, stair, a, b, tol=1e-3)), (a, b)


def test_a_widening_wider_than_tol_takes_the_walk_down_f():
    # 1/4 and 3/4 are points of F with endless expansions: S rises by
    # about 1e-9 within the slack of each, and g is at least 0.05 there
    stair = StaircaseEvaluator(C, ALPHA)
    for f in (FOnF.monotone(stair),
              FOnF.of_stair(lambda u: u ** 3, stair)):
        assert calculus._by_substitution(f, stair, 0.25, 0.75, 1e-4)
        assert calculus._by_substitution(f, stair, 0.25, 0.75, 1e-12) is None
        walk = FOnF.monotone(lambda x, f=f: f(x))
        for tol, cap in ((1e-12, 300), (1e-12, 3000)):
            assert (_walked(f, stair, 0.25, 0.75, tol=tol, max_components=cap)
                    == _walked(walk, stair, 0.25, 0.75, tol=tol,
                               max_components=cap))


@pytest.mark.parametrize("f", [
    FOnF.monotone(lambda x: math.nan),
    FOnF.monotone(lambda x: x if x < 0.5 else math.nan),
    FOnF.lipschitz(lambda x: math.nan, 1.0),
], ids=["monotone", "nan-past-one-half", "lipschitz"])
def test_a_nan_integrand_is_refused_at_its_point(f):
    # max and min drop a NaN (max(0.0, nan) is 0.0), and every width test
    # is false on one: unrefused, each gives a bracket of gap 0
    with pytest.raises(ValueError, match="f is NaN at x=") as info:
        integrate(f, STAIR, 0.0, 1.0)
    x = float(str(info.value).rsplit("=", 1)[1])
    assert math.isnan(f(x)) and 0.0 <= x <= 1.0


@pytest.mark.parametrize("f, where", [
    (FOnF.monotone(lambda x: math.nan), 0.25),
    (FOnF.monotone(lambda x: x if x < 0.5 else math.nan), 1.0),
    (FOnF.net_sampled(lambda x: x if x != 0.25 else math.nan), 0.25),
], ids=["nan-at-x", "nan-past-one-half", "net-sampled-nan-at-x"])
def test_a_nan_quotient_is_refused_at_its_point(f, where):
    # a NaN at x failed every settling test and read as quotients that
    # oscillate; a NaN at the far end y = 1 dropped out of max(d1, d2),
    # and the derivative at 1/4 came out as 5e-5
    with pytest.raises(ValueError,
                       match=re.escape(f"f is NaN at x={where!r}")):
        derivative(f, STAIR, 0.25)


@pytest.mark.parametrize("lam, r0", [(1e-15, None), (1e-15, 1e-15),
                                     (1e-300, None), (1e20, None),
                                     (1e300, None)])
def test_the_derivative_scales_with_the_set(lam, r0):
    # the walk's floor was 1e-13 max(1, |x|), longer than the whole hull
    # at 1e-15, and r0 was 1.0, shorter than every piece at 1e20: both
    # raised NoLimit; now both scale with the hull's width.  2/3 starts a
    # copy with a gap on its left, as on F itself
    spec = Scale(C, lam)
    stair = StaircaseEvaluator(spec, ALPHA)
    d = derivative(FOnF.monotone(stair), stair, 2.0 * lam / 3.0, r0=r0)
    assert (d.value, d.side) == (1.0, "right")


@settings(max_examples=60, deadline=None)
@given(k=st.integers(-1000, 1000), base=st.sampled_from((C, ASYM)),
       i=st.integers(0, 7))
def test_d_s_is_1_at_a_net_point_at_every_power_of_two(k, base, i):
    # a power of two maps every piece end exactly, so D S is 1 at the
    # net points of F scaled by it, as it is on F
    spec = Scale(base, 2.0 ** k)
    stair = StaircaseEvaluator(spec, similarity_order(base.ratios))
    pts = net(spec, 2, Interval(*spec.hull()))
    x = pts[i % len(pts)]
    assert x == 2.0 ** k * net(base, 2, Interval(0.0, 1.0))[i % len(pts)]
    assert derivative(FOnF.monotone(stair), stair, x).value == 1.0, x


@pytest.mark.parametrize("value, error", [(math.nan, ValueError),
                                          (math.inf, OverflowError),
                                          (-math.inf, OverflowError)])
def test_a_bound_that_is_not_finite_is_refused(value, error):
    walk = STAIR.walk
    for bounds in ((value, 0.0), (0.0, value)):
        with pytest.raises(error, match=r"the bound on \[0\.0, 1\.0\]"):
            calculus._bracket(walk, STAIR._at, 0.0, STAIR(0.0), 1.0,
                              STAIR(1.0), 1e-3,
                              lambda u, v, su, sv, whole: bounds,
                              lambda u, v, s: 0.0)


def test_a_widening_that_is_not_finite_is_refused():
    # S rises within the slack of 1/4 and of 3/4, so a g of inf there
    # widens by inf; a NaN widening would pass the test against tol
    stair = StaircaseEvaluator(C, ALPHA)
    for g, error, word in ((lambda u: math.nan, ValueError, "is NaN"),
                           (lambda u: math.inf, OverflowError, "overflows")):
        f = FOnF.of_stair(g, stair)
        with pytest.raises(error, match=f"the widening {word}"):
            calculus._by_substitution(f, stair, 0.25, 0.75, 1e-3)
        with pytest.raises(error, match=f"the widening {word}"):
            integrate(f, stair, 0.25, 0.75, tol=1e-3)


def test_a_substitution_builds_no_evaluator(monkeypatch):
    # the walk down the halves of [S(a), S(b)] needs no staircase of that
    # interval, nor its measure record
    stair = StaircaseEvaluator(C, ALPHA)
    built = []
    init = StaircaseEvaluator.__init__

    def spy(self, *args, **kw):
        built.append(args)
        init(self, *args, **kw)

    monkeypatch.setattr(StaircaseEvaluator, "__init__", spy)
    for f in (FOnF.monotone(stair), FOnF.of_stair(lambda u: u ** 2, stair)):
        assert calculus._by_substitution(f, stair, 0.1, 0.9, 1e-6)
        assert integrate(f, stair, 0.1, 0.9, tol=1e-6).gap <= 1e-6
    assert built == []


def _spy_on_walks(monkeypatch):
    """The evaluators whose ``walk`` is built, one entry a build."""
    built = []
    build = StaircaseEvaluator.walk.func

    def spy(self):
        built.append(self)
        return build(self)

    walk = functools.cached_property(spy)
    walk.__set_name__(StaircaseEvaluator, "walk")
    monkeypatch.setattr(StaircaseEvaluator, "walk", walk)
    return built


def test_an_evaluator_builds_its_walk_once(monkeypatch):
    # a table of derivatives, two integrals and a flight on one evaluator
    # share one walk
    built = _spy_on_walks(monkeypatch)
    params = FrictionParams(C, ALPHA, v0=1.0, kappa=0.5)
    stair = params.stair
    f = FOnF.monotone(stair)
    for x in net(C, 3, Interval(0.0, 1.0)):
        assert derivative(f, stair, x).value == 1.0
    integrate(FOnF.monotone(lambda x: x), stair, 0.1, 0.9, tol=1e-4)
    integrate(FOnF.lipschitz(lambda x: x * x, 2.0), stair, 0.0, 1.0,
              tol=1e-4)
    time_of_flight(params, 0.7, tol=1e-6)
    assert built == [stair]


def test_a_substitution_and_a_point_off_f_build_no_walk(monkeypatch):
    built = _spy_on_walks(monkeypatch)
    stair = StaircaseEvaluator(C, ALPHA)
    integrate(FOnF.of_stair(lambda u: u ** 2, stair), stair, 0.0, 1.0)
    assert derivative(FOnF.monotone(stair), stair, 0.5).side == "off"
    assert built == []


def test_an_evaluator_that_has_walked_needs_no_collector():
    # the walk is plain data and S is read beside it, so no cycle holds
    # the evaluator and its cache once the last reference goes
    enabled = gc.isenabled()
    gc.disable()
    try:
        stair = StaircaseEvaluator(C, ALPHA)
        integrate(FOnF.monotone(lambda x: x), stair, 0.1, 0.9, tol=1e-4)
        derivative(FOnF.monotone(stair), stair, 0.25)
        assert stair.walk is not None and stair._cache
        ref = weakref.ref(stair)
        del stair
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


@st.composite
def _spans(draw):
    """(u0, u1) with u0 < u1: near 0, far from 0, and from 1e-300 to
    1e300, over widths from 1e-12 to 1e3 of max(1, |u0|)."""
    u0 = draw(st.one_of(
        st.floats(-1.0, 1.0), st.floats(1e3, 1e12), st.floats(-1e12, -1e3),
        st.floats(-300.0, 300.0).map(lambda k: 10.0 ** k)))
    width = max(1.0, abs(u0)) * 10.0 ** draw(st.floats(-12.0, 3.0))
    u1 = u0 + width
    assume(u0 < u1)
    return u0, u1


def _interval_walk(u0, u1):
    """(walk, S reader, S(u0), S(u1)) of the evaluator on [u0, u1] at
    order 1 from u0: the reference that the walk of ``_halves`` must
    match."""
    stair = StaircaseEvaluator(FullInterval(u0, u1), 1.0, a0=u0)
    return stair.walk, stair._at, stair(u0), stair(u1)


@settings(max_examples=200, deadline=None)
@given(span=_spans(), n=st.integers(1, 4),
       tol=st.sampled_from((1e-2, 1e-4, 1e-6)))
def test_the_halves_walk_is_the_interval_evaluators(span, n, tol):
    # g = ((u - u0) / w)^n is convex and nondecreasing on [u0, u1]: the
    # same pieces, bounds and sums, bit for bit, at a tol relative to w
    u0, u1 = span
    w = u1 - u0

    def bound(u, v, su, sv, whole):
        d = v - u
        return (d * ((((u - u0) / w) ** n + ((v - u0) / w) ** n) / 2.0),
                d * (((u + v) / 2.0 - u0) / w) ** n)

    def bracket(walk, at, s0, s1):
        return calculus._bracket(walk, at, u0, s0, u1, s1, tol * w, bound,
                                 lambda u, v, s: 0.0, 2000)

    got = bracket(calculus._halves(u0, u1), calculus._identity, u0, u1)
    assert repr(got) == repr(bracket(*_interval_walk(u0, u1)))


def test_the_staircase_cache_stays_under_its_cap():
    # a Lipschitz walk of about 10^5 pieces reads S at every piece end
    sizes = []

    class Sized(dict):
        # the size after each store, by value or by a piece end
        def __setitem__(self, x, got):
            super().__setitem__(x, got)
            sizes.append(len(self))

    stair = StaircaseEvaluator(C, ALPHA)
    stair.__dict__["_cache"] = Sized(stair._cache)
    res = integrate(FOnF.lipschitz(lambda x: x * x, 2.0), stair, 0.0, 1.0,
                    tol=1e-7, max_components=10 ** 6)
    assert res.upper - res.lower <= 1e-7
    # it reads 100,552 distinct values; the cache fills once and empties
    assert max(sizes) == _CACHE_CAP
    assert len(stair._cache) < _CACHE_CAP
