"""Fractal-time diffusion and friction in a fractal medium."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from falpha import _backend
from falpha.cantor import ALPHA, GAMMA_ALPHA1
from falpha.dimension import similarity_order
from falpha.physics import (
    DegenerateTime,
    DiffusionParams,
    FrictionParams,
    Stall,
    diffusion_density,
    diffusion_residual,
    diffusion_variance,
    friction_velocity,
    time_of_flight,
    _SERIES_K,
    _whole_piece,
)
from falpha.sets import (
    FinitePoints,
    FullInterval,
    GapIFS,
    Interval,
    Scale,
    TernaryCantor,
    Translate,
    net,
)

import exact

C = TernaryCantor()
DIFF = DiffusionParams(C, ALPHA)


def simpson(fn, lo, hi, n=2000):
    h = (hi - lo) / n
    acc = fn(lo) + fn(hi)
    for i in range(1, n):
        acc += fn(lo + i * h) * (4.0 if i % 2 else 2.0)
    return acc * h / 3.0


def test_density_normalization_and_variance():
    for t in (1.0 / 3.0, 1.0):
        s = DIFF.stair(t)
        span = 10.0 * math.sqrt(s)
        norm = simpson(lambda x: diffusion_density(DIFF, x, t), -span, span)
        var = simpson(lambda x: x * x * diffusion_density(DIFF, x, t),
                      -span, span)
        assert norm == pytest.approx(1.0, abs=1e-6)
        assert var == pytest.approx(s, abs=1e-6)


def test_variance_is_the_staircase():
    for t in net(C, 5, Interval(0.0, 1.0)):
        assert diffusion_variance(DIFF, t) == DIFF.stair(t)


def test_degenerate_time():
    with pytest.raises(DegenerateTime):
        diffusion_density(DIFF, 0.5, 0.0)


def test_residual_small_on_time_net():
    pts = [p for p in net(C, 4, Interval(0.0, 1.0)) if p > 0.0]
    rng = random.Random(3)
    for _ in range(20):
        t = rng.choice(pts)
        x = rng.uniform(-1.0, 1.0)
        assert abs(diffusion_residual(DIFF, x, t)) <= 1e-3


def test_residual_vanishes_in_gaps():
    assert diffusion_residual(DIFF, 0.7, 0.5) == 0.0


def test_residual_tiny_in_far_tail():
    t = 1.0 / 3.0
    assert abs(diffusion_residual(DIFF, 40.0, t)) <= 1e-12


def test_residual_rejects_origin():
    with pytest.raises(ValueError):
        diffusion_residual(DIFF, 0.0, 1.0 / 3.0)


def test_subdiffusive_bound():
    from falpha.cantor import power_bound_constants

    _, b = power_bound_constants()
    for t in net(C, 8, Interval(0.0, 1.0)):
        if t > 0.0:
            assert diffusion_variance(DIFF, t) <= b * t ** ALPHA + 1e-12


def test_friction_empty_medium():
    p = FrictionParams(FinitePoints(()), ALPHA, v0=2.0, x0=0.0, kappa=0.5)
    assert friction_velocity(p, 1.0) == 2.0
    assert time_of_flight(p, 1.0) == pytest.approx(0.5)


def test_friction_uniform_medium():
    p = FrictionParams(FullInterval(0.0, 2.0), 1.0, v0=1.0, x0=0.0, kappa=0.4)
    assert friction_velocity(p, 1.0) == pytest.approx(0.6, abs=1e-12)
    closed = -math.log(1.0 - 0.4) / 0.4
    assert time_of_flight(p, 1.0) == pytest.approx(closed, abs=1e-6)


def test_friction_cantor_medium():
    p = FrictionParams(C, ALPHA, v0=1.0, x0=0.0, kappa=0.5)
    v1 = friction_velocity(p, 1.0)
    assert v1 == pytest.approx(1.0 - 0.5 / GAMMA_ALPHA1, abs=1e-4)
    assert friction_velocity(p, 0.5) == pytest.approx(
        1.0 - 0.25 / GAMMA_ALPHA1, abs=1e-4
    )
    # constant across the big gap
    assert friction_velocity(p, 0.4) == friction_velocity(p, 0.6)
    tof = time_of_flight(p, 1.0, tol=1e-6)
    assert 1.0 / 1.0 <= tof <= 1.0 / v1


def test_friction_general_coefficient():
    from falpha.calculus import FOnF

    uniform = FrictionParams(C, ALPHA, v0=1.0, x0=0.0, kappa=0.5)
    general = FrictionParams(C, ALPHA, v0=1.0, x0=0.0,
                             k=FOnF.monotone(lambda x: 0.5))
    assert friction_velocity(general, 1.0) == pytest.approx(
        friction_velocity(uniform, 1.0), abs=1e-4
    )


def test_a_nan_coefficient_is_refused():
    # the drop integrates k over F, where max and min would drop a NaN
    # of k and leave the flight a finite time
    from falpha.calculus import FOnF

    p = FrictionParams(C, ALPHA, v0=1.0, k=FOnF.monotone(lambda x: math.nan))
    with pytest.raises(ValueError, match="f is NaN at x="):
        friction_velocity(p, 0.5)
    with pytest.raises(ValueError, match="f is NaN at x="):
        time_of_flight(p, 0.5)


def test_friction_param_validation():
    with pytest.raises(ValueError):
        FrictionParams(C, ALPHA, v0=0.0, kappa=0.5)
    with pytest.raises(ValueError):
        FrictionParams(C, ALPHA, v0=1.0)  # neither kappa nor k
    with pytest.raises(ValueError, match="kappa"):
        FrictionParams(C, ALPHA, v0=1.0, kappa=-5.0)
    # NaN passed the sign check and gave NaN flights; inf stalled at once
    for v0, kappa, name in ((math.nan, 0.5, "v0"), (math.inf, 0.5, "v0"),
                            (-math.inf, 0.5, "v0"), (1.0, math.inf, "kappa"),
                            (1.0, math.nan, "kappa"),
                            (1.0, -math.inf, "kappa")):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            FrictionParams(C, ALPHA, v0=v0, kappa=kappa)
    p = FrictionParams(C, ALPHA, v0=1.0, kappa=0.5)
    with pytest.raises(ValueError):
        friction_velocity(p, -1.0)
    with pytest.raises(ValueError, match="tol"):
        time_of_flight(p, 0.5, tol=0.0)


@pytest.mark.parametrize("shift", [20.0, 1000.0, 1e5])
def test_flight_through_a_shifted_medium_takes_the_same_time(shift):
    here = FrictionParams(C, ALPHA, v0=1.0, x0=0.0, kappa=0.5)
    there = FrictionParams(Translate(C, shift), ALPHA, v0=1.0, x0=shift,
                           kappa=0.5)
    t = time_of_flight(here, 1.0, tol=1e-9)
    assert abs(time_of_flight(there, shift + 1.0, tol=1e-9) - t) <= 1e-11


def test_time_of_flight_rejects_nan():
    p = FrictionParams(C, ALPHA, v0=1.0, kappa=0.5)
    with pytest.raises(ValueError, match="x must not be NaN"):
        time_of_flight(p, math.nan)


def test_stall(monkeypatch):
    descents = []
    descent = _backend.stair_scaled

    def counted(*args):
        descents.append(args)
        return descent(*args)

    monkeypatch.setattr(_backend, "stair_scaled", counted)
    p = FrictionParams(C, ALPHA, v0=0.5, x0=0.0, kappa=1.0)
    with pytest.raises(Stall) as info:
        time_of_flight(p, 1.0)
    assert len(descents) < 50_000
    stall = info.value
    assert 0.0 < stall.position < 1.0
    just_left = math.nextafter(stall.position, 0.0)
    assert friction_velocity(p, stall.position) <= 1e-9 * p.v0
    assert friction_velocity(p, just_left) > 1e-9 * p.v0
    # elapsed covers the flight up to the stall, not only up to the last
    # finished stretch, and is a lower bound on it
    assert time_of_flight(p, stall.position - 1e-6) < stall.elapsed
    assert stall.elapsed <= time_of_flight(p, just_left)


def test_flight_through_a_four_map_medium_meets_its_tolerance():
    medium = GapIFS((0.2155, 0.2086, 0.182, 0.1537),
                    (0.0, 0.3103, 0.614, 0.8463))
    p = FrictionParams(medium, similarity_order(medium.ratios), v0=1.0,
                       kappa=0.474)
    t = time_of_flight(p, 0.1333, tol=1e-6)
    # the true time lies in [0.139585514, 0.139585560]
    assert 0.139585514 - 1e-6 <= t <= 0.139585560 + 1e-6


def test_flight_at_a_fine_tol_takes_few_staircase_values():
    medium = GapIFS((0.4, 0.25), (0.0, 0.75))
    p = FrictionParams(medium, similarity_order(medium.ratios), v0=1.0,
                       kappa=0.5)
    time_of_flight(p, 1.0, tol=1e-8)
    # one staircase value per piece end: far below the millions an
    # adaptive quadrature spends on a staircase
    assert len(p.stair._cache) < 20_000


def _reference_flight(p, x, lo, hi, copies, cut):
    """[lower, upper] on the time from p.x0 to x through a medium whose
    construction pieces span [lo, hi] and split into ``copies``, given as
    (offset, ratio) shares of their parent: the exact time len/v across
    every gap and off the hull, and [len/v(c), len/v(d)] across each
    piece, split until it adds at most ``cut`` to the width."""
    v = lambda y: friction_velocity(p, y)
    lower = upper = 0.0
    stack = [(lo, hi)]
    covered = []
    while stack:
        c, d = stack.pop()
        u, w = max(c, p.x0), min(d, x)
        if u >= w:
            continue
        if (w - u) * (1.0 / v(w) - 1.0 / v(u)) <= cut or d - c < 1e-12:
            lower += (w - u) / v(u)
            upper += (w - u) / v(w)
            covered.append((u, w))
            continue
        stack.extend((c + (d - c) * o, c + (d - c) * (o + r))
                     for o, r in copies)
    covered.sort()
    end = p.x0
    for u, w in covered + [(x, x)]:
        if end < u:
            lower += (u - end) / v((u + end) / 2.0)
            upper += (u - end) / v((u + end) / 2.0)
        end = max(end, w)
    return lower, upper


def _interval_flight(p, x, lo, hi):
    """The exact time from p.x0 to x through the interval [lo, hi] at
    order 1, where v falls linearly: L ln(v_u / v_w) / (v_u - v_w) across
    [u, w] = [x0, x] clipped to [lo, hi], and L/v outside it."""
    u = min(max(p.x0, lo), x)
    w = max(min(x, hi), u)
    vu, vw = friction_velocity(p, u), friction_velocity(p, w)
    t = (u - p.x0) / p.v0 + (x - w) / vw
    if w > u:
        t += (w - u) * math.log(vu / vw) / (vu - vw)
    return t


@st.composite
def _media(draw, far=False):
    """(medium, order, its hull, its copies as (offset, ratio) shares of
    the hull): a gap IFS with 2-4 maps on [0, 1], plain or wrapped, or an
    interval at order 1, which has no copies.  ``far`` draws shifts up to
    50 and scales down to 0.05, where an ulp of x passes 1e-15 scale."""
    spread, least = (50.0, 0.05) if far else (1.0, 0.5)
    if draw(st.booleans()) and draw(st.booleans()):
        lo = draw(st.floats(-spread, spread))
        hi = lo + draw(st.floats(least, 2.0))
        return FullInterval(lo, hi), 1.0, (lo, hi), None
    m = draw(st.integers(2, 4))
    copies = draw(st.lists(st.floats(0.2, 1.0), min_size=m, max_size=m))
    holes = draw(st.lists(st.floats(0.1, 1.0), min_size=m - 1,
                          max_size=m - 1))
    total = sum(copies) + sum(holes)
    ratios = [c / total for c in copies]
    offsets = [0.0]
    for r, g in zip(ratios, holes):
        offsets.append(offsets[-1] + r + g / total)
    spec = GapIFS(tuple(ratios), tuple(offsets))
    scale, shift = 1.0, 0.0
    if draw(st.booleans()):
        scale = draw(st.floats(least, 2.0))
        shift = draw(st.floats(-spread, spread))
        spec = Translate(Scale(spec, scale), shift)
    return (spec, similarity_order(tuple(ratios)), (shift, shift + scale),
            tuple(zip(offsets, ratios)))


@settings(max_examples=25, deadline=None)
@given(medium=_media(), ends=st.tuples(st.floats(-0.2, 0.8),
                                       st.floats(0.05, 1.0)),
       slow=st.floats(0.2, 0.8))
def test_flight_lands_within_tol_of_a_reference(medium, ends, slow):
    spec, alpha, (lo, hi), copies = medium
    x0 = lo + (hi - lo) * ends[0]
    x = x0 + (hi - lo) * ends[1]
    probe = FrictionParams(spec, alpha, v0=1.0, x0=x0, kappa=1.0)
    # friction that takes off the share ``slow`` of the speed by x
    kappa = slow / max(probe.stair(x), 1e-3)
    p = FrictionParams(spec, alpha, v0=1.0, x0=x0, kappa=kappa)
    tol = 1e-6
    t = time_of_flight(p, x, tol=tol)
    if copies is None:
        lower = upper = _interval_flight(p, x, lo, hi)
    else:
        lower, upper = _reference_flight(p, x, lo, hi, copies, 1e-8)
    assert lower - tol <= t <= upper + tol


def test_residual_at_a_piece_end_of_the_time_set():
    # 7/9 ends a piece with a gap on its right: no quotient is taken
    # across that gap
    assert abs(diffusion_residual(DIFF, 0.6111, 7.0 / 9.0)) <= 1e-3


@pytest.mark.parametrize("lo, hi, kappa, x", [
    (0.0, 1.0, 0.446, 0.2179),
    (0.0, 1.0, 0.558, 0.6608),
    (0.0, 2.0, 0.4, 1.0),
])
def test_interval_flight_is_the_closed_form(lo, hi, kappa, x):
    # S is affine on every piece of an interval at order 1, so the walk
    # prices the flight exactly at its first piece
    p = FrictionParams(FullInterval(lo, hi), 1.0, v0=1.0, kappa=kappa)
    closed = -math.log(1.0 - kappa * x) / kappa
    assert time_of_flight(p, x, tol=1e-6) == pytest.approx(closed, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(medium=_media())
def test_lebesgue_moments_match_an_exact_solve(medium):
    spec, alpha, _, _ = medium
    rec = _backend.measure(spec, alpha)
    got = _backend.lebesgue_moments(rec, 9)
    want = [float(m) for m in exact.lebesgue_moments(rec, 9)]
    assert len(got) == 10
    for g, w in zip(got, want):
        assert abs(g - w) <= 32 * math.ulp(w)
    assert got[1] == 1.0 - rec.mean
    # s^k falls with k where 0 <= s <= 1
    assert all(a >= b for a, b in zip(got, got[1:]))


def test_lebesgue_moments_closed_values():
    thirds = _backend.lebesgue_moments(_backend.measure(C, ALPHA), 3)
    assert thirds == pytest.approx([1.0, 0.5, 0.3, 0.2], rel=1e-15)
    # the interval at order 1 is its two halves, and s(y) = y
    halves = _backend.measure(FullInterval(0.0, 1.0), 1.0)
    assert _backend.lebesgue_moments(halves, 12) == pytest.approx(
        [1.0 / (k + 1) for k in range(13)], rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(medium=_media(), n=st.integers(1, 12))
def test_lebesgue_moments_memo_returns_a_fresh_solve(medium, n):
    spec, alpha, _, _ = medium
    rec = _backend.measure(spec, alpha)
    _backend._moments.cache_clear()
    miss = _backend.lebesgue_moments(rec, n)
    hit = _backend.lebesgue_moments(rec, n)
    assert _backend._moments.cache_info()[:2] == (1, 1)  # (hits, misses)
    fresh = _backend._moments.__wrapped__(rec.table, rec.hull, rec.mean, n)
    assert repr(hit) == repr(miss) == repr(fresh)
    assert len(hit) == n + 1
    # the frame is not read: the unwrapped set reads the same entry
    plain = _backend.measure(_backend.frame(spec)[2], alpha)
    assert _backend.lebesgue_moments(plain, n) is hit
    assert _backend._moments.cache_info()[:2] == (2, 1)
    # no caller can change a stored entry
    assert isinstance(hit, tuple)
    with pytest.raises(TypeError):
        hit[1] = 0.0


def test_lebesgue_moments_memo_stays_under_its_cap():
    sizes = []
    _backend._moments.cache_clear()
    for i in range(_backend._MOMENTS_CAP + 20):
        r = 0.2 + i / 1000.0
        medium = GapIFS((r, 0.3), (0.0, 0.7))
        rec = _backend.measure(medium, similarity_order(medium.ratios))
        _backend.lebesgue_moments(rec, _SERIES_K + 1)
        sizes.append(_backend._moments.cache_info().currsize)
    assert sizes[:3] == [1, 2, 3]
    assert max(sizes) == sizes[-1] == _backend._MOMENTS_CAP


@pytest.mark.parametrize("medium", [
    C, GapIFS((0.4, 0.25), (0.0, 0.75)),
    Translate(Scale(GapIFS((0.4, 0.25), (0.0, 0.75)), 1.3), 0.2)])
def test_flight_takes_the_same_bits_on_a_memo_miss_and_hit(medium):
    alpha = similarity_order(_backend.frame(medium)[2].ratios)

    def flight():
        p = FrictionParams(medium, alpha, v0=1.0, x0=0.1, kappa=0.45)
        return [time_of_flight(p, x, tol=1e-9) for x in (0.35, 0.6999, 1.2)]

    _backend._moments.cache_clear()
    miss = flight()
    assert _backend._moments.cache_info()[:2] == (2, 1)  # (hits, misses)
    assert repr(flight()) == repr(miss)
    assert _backend._moments.cache_info()[:2] == (5, 1)


@settings(max_examples=40, deadline=None)
@given(medium=_media(), length=st.floats(1e-6, 2.0),
       vc=st.floats(0.01, 2.0), q=st.floats(0.0, 0.999))
def test_whole_piece_series_lies_inside_jensen_and_the_chord(
        medium, length, vc, q):
    spec, alpha, _, _ = medium
    moments = _backend.lebesgue_moments(_backend.measure(spec, alpha), 8)
    vd = vc * (1.0 - q)
    upper, lower = _whole_piece(length, vc, vd, moments)
    m = moments[1]
    chord = length * ((1.0 - m) / vc + m / vd)
    jensen = length / (vc - (vc - vd) * m)
    assert jensen <= lower <= upper <= max(chord, jensen)
    # and it holds the series summed much further, with its tail bound
    many = _backend.lebesgue_moments(_backend.measure(spec, alpha), 60)
    head = sum(q ** k * mk for k, mk in enumerate(many[:-1]))
    tail = q ** 60 * many[-1] / (1.0 - q)
    unit = length / vc
    assert lower <= unit * (head + tail) * (1.0 + 1e-12)
    assert unit * head <= upper * (1.0 + 1e-12)


@settings(max_examples=50, deadline=None)
@given(kappa=st.floats(0.3, 0.6), x=st.floats(0.1, 0.7))
def test_middle_thirds_flights_take_few_staircase_values(kappa, x):
    # a whole piece closes by its series unless v nearly stalls across
    # it, so only the clipped end pieces split
    p = FrictionParams(C, ALPHA, v0=1.0, kappa=kappa)
    time_of_flight(p, x, tol=1e-6)
    assert len(p.stair._cache) <= 20
