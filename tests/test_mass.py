"""Mass functions and the integral staircase."""

import importlib
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from falpha import _backend
from falpha.cantor import ALPHA, GAMMA_ALPHA1
from falpha.dimension import _order, gamma_dimension, similarity_order
from falpha.mass import (
    DivergingMass,
    StaircaseEvaluator,
    coarse_mass,
    gamma_factor,
    mass,
    sigma_alpha,
    staircase,
    verify_scaling_translation,
)
from falpha.physics import FrictionParams, time_of_flight
from falpha.sets import (
    Affine,
    FinitePoints,
    FullInterval,
    GapIFS,
    Interval,
    Scale,
    Subdivision,
    TernaryCantor,
    Translate,
    gaps,
    net,
    spec_from_json,
    spec_to_json,
)
import exact
from test_sets import _gap_ifs

mass_module = importlib.import_module("falpha.mass")

C = TernaryCantor()
ASYM = GapIFS((0.4, 0.25), (0.0, 0.75))


def brute_cantor(x):
    """Independent middle-thirds staircase: interval-halving recursion,
    no digit transcription, no snapping."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    val = 0.0
    sc = 0.5
    for _ in range(200):
        if x < 1.0 / 3.0:
            x *= 3.0
        elif x > 2.0 / 3.0:
            val += sc
            x = 3.0 * x - 2.0
        else:
            return val + sc
        sc *= 0.5
        if x <= 0.0:
            return val
        if x >= 1.0:
            return val + sc * 2.0
    return val


def test_gamma_factor_matches_scipy():
    scipy_special = pytest.importorskip("scipy.special")
    assert abs(gamma_factor(ALPHA) - scipy_special.gamma(ALPHA + 1.0)) < 1e-14
    assert abs(gamma_factor(ALPHA) - GAMMA_ALPHA1) < 1e-15
    assert abs(GAMMA_ALPHA1 - 0.8973709406726668) < 1e-15


def test_sigma_alpha():
    g = gamma_factor(ALPHA)
    sub = Subdivision((0.0, 0.5, 1.0))
    got = sigma_alpha(C, sub, ALPHA)
    assert got == pytest.approx(2.0 * 0.5 ** ALPHA / g)
    # the middle component touches the set only at its endpoints, but
    # closed intervals count; a component strictly inside the gap does not
    sub2 = Subdivision((0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0))
    assert sigma_alpha(C, sub2, ALPHA) == pytest.approx(
        3.0 * (1.0 / 3.0) ** ALPHA / g
    )
    sub3 = Subdivision((0.0, 1.0 / 3.0, 0.4, 0.6, 2.0 / 3.0, 1.0))
    assert sigma_alpha(C, sub3, ALPHA) == pytest.approx(
        (2.0 * (1.0 / 3.0) ** ALPHA + 2.0 * (0.4 - 1.0 / 3.0) ** ALPHA) / g
    )


@settings(max_examples=60, deadline=None)
@given(extra=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6,
                      unique=True))
def test_coarse_mass_lower_bounds_sigma(extra):
    # the coarse mass is an infimum over subdivisions, so any concrete
    # subdivision's flagged sum sits above it at the matching mesh bound
    sub = Subdivision(tuple(sorted({0.0, 1.0} | set(extra))))
    assert coarse_mass(C, 0.0, 1.0, ALPHA, sub.mesh) <= (
        sigma_alpha(C, sub, ALPHA) + 1e-9
    )


def test_coarse_mass_cantor_at_dimension():
    # at the similarity order the scaled coarse mass is exactly 1 for all
    # mesh bounds (self-similar recursion)
    for k in (1, 4, 8):
        v = coarse_mass(C, 0.0, 1.0, ALPHA, 3.0 ** -k)
        assert v * GAMMA_ALPHA1 == pytest.approx(1.0, abs=1e-12)


def test_coarse_mass_monotone_in_delta():
    prev = 0.0
    for k in range(1, 10):
        v = coarse_mass(ASYM, 0.0, 1.0, 0.61, 3.0 ** -k)
        assert v >= prev - 1e-12
        prev = v


@pytest.mark.parametrize("delta, cost", [
    (0.3, 3.0 * 0.3 ** 0.5 + 0.1 ** 0.5),  # three tiles and a remainder
    (0.25, 4.0 * 0.25 ** 0.5),  # delta divides the width: no remainder
])
def test_coarse_mass_of_an_interval_tiles_it_at_the_mesh_bound(delta, cost):
    # every stretch of an interval meets F, so its cover is tiles of length
    # delta and one shorter tile for what is left
    got = coarse_mass(FullInterval(0.0, 1.0), 0.0, 1.0, 0.5, delta)
    want = cost / gamma_factor(0.5)
    assert abs(got - want) <= 1e-15 * want


def test_mass_verdicts_on_cantor():
    at_dim = mass(C, 0.0, 1.0, ALPHA)
    assert at_dim.verdict == "converged"
    assert at_dim.value == pytest.approx(1.0 / GAMMA_ALPHA1, rel=1e-9)
    below = mass(C, 0.0, 1.0, 0.5)
    assert below.verdict == "diverging"
    assert below.is_infinite
    above = mass(C, 0.0, 1.0, 0.8)
    assert above.verdict == "converged"
    assert above.value == 0.0


def test_mass_full_interval_is_length():
    est = mass(FullInterval(0.0, 2.0), 0.25, 1.75, 1.0)
    assert est.verdict == "converged"
    assert est.value == pytest.approx(1.5 / gamma_factor(1.0))


def test_mass_discrete_sets_vanish():
    est = mass(FinitePoints((0.2, 0.4, 0.8)), 0.0, 1.0, 0.5)
    assert est.value == 0.0


def test_mass_rejects_bad_alpha():
    with pytest.raises(ValueError):
        mass(C, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        mass(C, 0.0, 1.0, 1.5)


def test_staircase_matches_brute_cantor():
    stair = StaircaseEvaluator(C, ALPHA, a0=0.0)
    for i in range(200):
        x = i / 199
        want = brute_cantor(x) / GAMMA_ALPHA1
        assert stair(x) == pytest.approx(want, abs=1e-9)


def test_staircase_is_antisymmetric_about_origin():
    stair = StaircaseEvaluator(C, ALPHA, a0=0.0)
    assert stair(0.0) == 0.0
    assert stair(-0.5) == 0.0  # no mass below the hull
    assert staircase(stair, 1.0) == stair(1.0)


def test_staircase_origin_shift():
    s0 = StaircaseEvaluator(C, ALPHA, a0=0.0)
    s1 = StaircaseEvaluator(C, ALPHA, a0=1.0 / 3.0)
    for x in (0.0, 0.5, 1.0):
        assert s1(x) == pytest.approx(s0(x) - s0(1.0 / 3.0), abs=1e-12)


@pytest.mark.parametrize("shift", [20.0, -37.3, 1000.0])
def test_translated_staircase_is_the_staircase_moved(shift):
    # a point of F + shift maps into F with an error of ulps of the shift,
    # which the descent absorbs at the piece ends
    s0 = StaircaseEvaluator(C, ALPHA, a0=0.0)
    moved = StaircaseEvaluator(Translate(C, shift), ALPHA, a0=shift)
    for p in net(C, 6, Interval(0.0, 1.0)):
        assert moved(p + shift) == s0(p), p


def test_staircase_constant_on_gaps():
    stair = StaircaseEvaluator(C, ALPHA, a0=0.0)
    assert stair(0.4) == stair(0.6)
    assert stair(1.0 / 3.0) == stair(0.5)


def test_staircase_numeric_mode_agrees():
    auto = StaircaseEvaluator(C, ALPHA, a0=0.0)
    numeric = StaircaseEvaluator(C, ALPHA, a0=0.0, mode="numeric")
    for x in net(C, 4, Interval(0.0, 1.0)):
        assert numeric(x) == pytest.approx(auto(x), rel=1e-3, abs=1e-9)


def test_staircase_raises_on_divergence():
    stair = StaircaseEvaluator(C, ALPHA / 2.0, a0=0.0, mode="numeric")
    with pytest.raises(DivergingMass):
        stair(1.0)


def test_asym_similarity_order_mass_converges():
    # solve 0.4^s + 0.25^s = 1
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if 0.4 ** mid + 0.25 ** mid > 1.0:
            lo = mid
        else:
            hi = mid
    s = (lo + hi) / 2.0
    est = mass(ASYM, 0.0, 1.0, s)
    assert est.verdict == "converged"
    assert est.value > 0.0
    assert est.upper_bound_only


def test_scaling_and_translation_identities():
    rep = verify_scaling_translation(C, 0.0, 1.0, ALPHA, lam=0.7, shift=0.3)
    assert rep.scaling_rel_error < 1e-6
    assert rep.translation_rel_error < 1e-6


def _ulps(got, want):
    """|got - want| in ulps of the larger; 0 for the same float, inf
    included."""
    if got == want:
        return 0.0
    return abs(got - want) / math.ulp(max(abs(got), abs(want)))


def _outcome(call, *args):
    """call(*args), or the name of the ArithmeticError or ValueError it
    raises."""
    try:
        return call(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__


# ends in [-0.25, 1.25] that a power of two down to 2^-1000 maps to a
# normal float, so exactly: piece ends, and floats not below 2^-20
_SCALED_ENDS = st.one_of(
    st.sampled_from((0.0, 0.25, 1.0 / 3.0, 0.4, 2.0 / 3.0, 0.75, 1.0)),
    st.floats(-0.25, 1.25).map(lambda x: x if abs(x) >= 2.0 ** -20 else 0.0))


@settings(max_examples=150, deadline=None)
@given(k=st.integers(-1000, 1000), base=st.sampled_from((C, ASYM)),
       a=_SCALED_ENDS, b=_SCALED_ENDS, side=st.sampled_from((-1, 0, 0, 1)),
       delta=st.sampled_from((1e-3, 0.1, 1.0, math.inf)))
def test_the_scaling_laws_hold_at_every_power_of_two(k, base, a, b, side,
                                                     delta):
    # x -> 2^k x maps every point exactly, so on Scale(F, 2^k) the mass,
    # the coarse mass at a mesh scaled by 2^k and the staircase are
    # 2^(k alpha) times those on F, within a few ulps of that product,
    # and the gamma-dimension is that of F; on F's order, below it
    # (side 1) and above it (side -1)
    a, b = min(a, b), max(a, b)
    lam = 2.0 ** k
    spec = Scale(base, lam)
    order = similarity_order(base.ratios)
    alpha = {0: order, 1: 0.5 * order, -1: min(1.0, order + 0.2)}[side]
    factor = lam ** alpha
    m0, m1 = mass(base, a, b, alpha), mass(spec, lam * a, lam * b, alpha)
    assert (m1.verdict, m1.upper_bound_only) == (m0.verdict,
                                                 m0.upper_bound_only)
    assert _ulps(m1.value, factor * m0.value) <= 4
    c0 = coarse_mass(base, a, b, alpha, delta)
    c1 = coarse_mass(spec, lam * a, lam * b, alpha, lam * delta)
    assert _ulps(c1, factor * c0) <= 4
    s0, s1 = StaircaseEvaluator(base, alpha), StaircaseEvaluator(spec, alpha)
    for x in (a, b):
        v0, v1 = _outcome(s0.value, x), _outcome(s1.value, lam * x)
        if isinstance(v0, str):
            assert v1 == v0
        else:
            assert _ulps(v1, factor * v0) <= 4
    v0, v1 = _outcome(s0.values, [a, b]), _outcome(s1.values,
                                                   [lam * a, lam * b])
    if isinstance(v0, str):
        assert v1 == v0
    else:
        assert all(_ulps(u, factor * v) <= 4 for u, v in zip(v1, v0))
    assert (_outcome(gamma_dimension, spec, lam * a, lam * b)
            == _outcome(gamma_dimension, base, a, b))


@pytest.mark.parametrize("shift", [20.0, 1e5])
def test_mass_far_from_0_is_that_of_the_rounded_range(shift):
    # s + 0.1 and s + 0.9 round to floats whose offsets from s are exact;
    # 0.1 and 0.9 lie in the set (ternary 0.0022... and 0.2200...), where
    # S is only Holder-alpha continuous, so the rounding moves the mass by
    # about ulp(s)^alpha.  mass prices the rounded range itself, within
    # the tile that closes its descent
    a, b = shift + 0.1, shift + 0.9
    got = mass(Translate(C, shift), a, b, ALPHA).value
    want = (exact.cantor(b - shift) - exact.cantor(a - shift)) / Fraction(
        GAMMA_ALPHA1)
    assert abs(got - float(want)) <= 2.0 * 1e-13 ** ALPHA


def test_mass_additivity():
    whole = mass(C, 0.0, 1.0, ALPHA).value
    parts = mass(C, 0.0, 0.37, ALPHA).value + mass(C, 0.37, 1.0, ALPHA).value
    assert whole == pytest.approx(parts, rel=1e-6)


def test_staircase_value_rejects_nan():
    stair = StaircaseEvaluator(ASYM, similarity_order(ASYM.ratios))
    with pytest.raises(ValueError, match="x must not be NaN"):
        stair.value(math.nan)
    assert stair.value(math.inf) == stair.value(1.0)
    with pytest.raises(ValueError, match="a0 must not be NaN"):
        StaircaseEvaluator(ASYM, stair.alpha, a0=math.nan)


def test_staircase_increment_rejects_nan():
    stair = StaircaseEvaluator(ASYM, similarity_order(ASYM.ratios))
    with pytest.raises(ValueError, match="v must not be NaN"):
        stair.increment(0.0, math.nan)
    with pytest.raises(ValueError, match="u must not be NaN"):
        stair.increment(math.nan, 1.0)
    assert stair.increment(-math.inf, math.inf) == stair.increment(0.0, 1.0)


def test_infinite_endpoint_on_the_ladder_path_is_the_hull_end():
    # just below the similarity order (about 0.611) there is no closed
    # form, so every value comes from mass; F meets [0.5, x] in more than
    # a point for x at or past either hull end, so each value diverges
    alpha = 0.61
    h0, h1 = ASYM.hull()
    stair = StaircaseEvaluator(ASYM, alpha, a0=0.5)
    for x in (-math.inf, math.inf, h0, h1):
        with pytest.raises(DivergingMass):
            stair.value(x)
    # from the hull's start, -inf clips onto it: one point, no mass
    stair = StaircaseEvaluator(ASYM, alpha)
    with pytest.raises(DivergingMass):
        stair.value(math.inf)
    assert stair.value(-math.inf) == stair.value(h0) == 0.0
    assert mass(ASYM, 0.0, math.inf, alpha) == mass(ASYM, 0.0, 1.0, alpha)
    assert (mass(ASYM, -math.inf, math.inf, alpha)
            == mass(ASYM, 0.0, 1.0, alpha))
    # an infinite end is never moved past the other end
    assert mass(ASYM, -math.inf, -1.0, alpha).value == 0.0
    assert mass(ASYM, 2.0, math.inf, alpha).value == 0.0


def test_cover_of_a_hull_off_the_unit_interval_stays_small(monkeypatch):
    # hull [1/7, 3/4]: a copy end mapped into the copy's frame can land an
    # ulp inside the hull, which must still count as the hull end; a cover
    # that splits there instead recurses down to its tile cutoff
    partial = mass_module._ifs_partial
    calls = [0]

    def counted(*args):
        calls[0] += 1
        if calls[0] > 500:
            raise AssertionError("the cover split past 500 pieces")
        return partial(*args)

    monkeypatch.setattr(mass_module, "_ifs_partial", counted)
    spec = GapIFS((0.3, 0.2), (0.1, 0.6))
    order = similarity_order(spec.ratios)
    assert mass(spec, 0.2, 0.3, 0.3).verdict == "diverging"
    assert mass(spec, 0.2, 0.3, order).verdict == "converged"
    assert mass(spec, 0.2, 0.3, 0.9).value == 0.0
    assert abs(gamma_dimension(spec, 0.2, 0.3).gamma_dim - order) <= 0.02
    other = GapIFS((0.4052200649393997, 0.1651378152333975),
                   (0.053744519905400974, 0.7110239527943234))
    est = mass(other, 0.1, 0.9, similarity_order(other.ratios))
    assert est.verdict == "converged"


_EXAMPLE_IFS = GapIFS((0.1674, 0.1844), (0.0, 0.8156))  # order 0.3987


_BASES = st.one_of(_gap_ifs(), st.just(C), st.just(FullInterval(0.0, 1.0)))
_WRAP = st.one_of(st.none(), st.tuples(st.floats(0.25, 4.0),
                                       st.floats(-2.0, 2.0)))


def _medium(base, wrap):
    """(spec, maps, order): base, or shift + scale * base for a wrap
    (scale, shift); its maps (offset, ratio), those of the halves on the
    interval; and its order."""
    spec = base if wrap is None else Affine(base, *wrap)
    if isinstance(base, FullInterval):
        return spec, ((0.0, 0.5), (0.5, 0.5)), 1.0
    return (spec, tuple(zip(base.offsets, base.ratios)),
            similarity_order(base.ratios))


def _piece(base, maps, wrap, address):
    """The ends of the construction piece of base at ``address`` (copy
    indices from the top), in the frame of the wrap."""
    lam, t = wrap or (1.0, 0.0)
    ends = []
    for y in base.hull():
        for i in reversed(address):
            o, r = maps[i % len(maps)]
            y = o + r * y
        ends.append(t + lam * y)
    return ends


@settings(max_examples=150, deadline=None)
@given(base=_BASES, wrap=_WRAP,
       address=st.lists(st.integers(0, 3), max_size=3),
       frac=st.floats(0.05, 0.999), pad=st.floats(0.0, 1.0))
@example(base=_EXAMPLE_IFS, wrap=None, address=[], frac=0.63, pad=0.0)
@example(base=FullInterval(0.0, 1.0), wrap=None, address=[], frac=0.999,
         pad=0.0)
def test_mass_below_the_order_diverges_where_F_meets_the_span(
        base, wrap, address, frac, pad):
    # a construction piece holds infinitely many points of F, and so does
    # any span around it
    spec, maps, order = _medium(base, wrap)
    alpha = frac * order
    a, b = _piece(base, maps, wrap, address)
    a, b = a - pad * (b - a), b + pad * (b - a)
    est = mass(spec, a, b, alpha)
    assert est.verdict == "diverging" and est.value == math.inf
    with pytest.raises(DivergingMass):
        StaircaseEvaluator(spec, alpha).increment(a, b)


@settings(max_examples=150, deadline=None)
@given(base=_BASES, wrap=_WRAP,
       address=st.lists(st.integers(0, 3), max_size=3),
       below=st.floats(0.05, 0.999), above=st.floats(0.001, 1.0),
       pick=st.integers(0, 100))
@example(base=_EXAMPLE_IFS, wrap=None, address=[], below=0.63, above=0.5,
         pick=0)
@example(base=FullInterval(0.0, 1.0), wrap=None, address=[], below=0.999,
         above=1.0, pick=0)
def test_mass_is_zero_above_the_order_at_a_point_and_on_a_gap(
        base, wrap, address, below, above, pick):
    spec, maps, order = _medium(base, wrap)
    a, b = _piece(base, maps, wrap, address)
    if order < 1.0:
        est = mass(spec, a, b, order + above * (1.0 - order))
        assert est.verdict == "converged" and est.value == 0.0
    h0, h1 = spec.hull()
    points = net(spec, 2, Interval(h0, h1))
    x = points[pick % len(points)]
    spans = [(x, x)]
    holes = gaps(spec, Interval(h0, h1), (h1 - h0) / 100.0)
    if holes:
        hole = holes[pick % len(holes)]
        spans.append((hole.lo, hole.hi))
    for u, v in spans:
        est = mass(spec, u, v, below * order)
        assert est.verdict == "converged" and est.value == 0.0, (u, v)
        assert StaircaseEvaluator(spec, below * order).increment(u, v) == 0.0


@pytest.mark.parametrize("call, args, name", [
    (mass, (C, math.nan, 1.0, ALPHA), "a"),
    (mass, (C, 0.0, math.nan, ALPHA), "b"),
    (coarse_mass, (C, math.nan, 1.0, ALPHA, 0.1), "a"),
    (coarse_mass, (C, 0.0, 1.0, ALPHA, math.nan), "delta"),
    (gamma_dimension, (C, math.nan, 1.0), "a"),
    (gamma_dimension, (C, 0.0, math.nan), "b"),
], ids=lambda v: getattr(v, "__name__", None))
def test_nan_ends_and_mesh_are_rejected(call, args, name):
    with pytest.raises(ValueError, match=f"^{name} must not be NaN"):
        call(*args)


def test_mass_covers_only_at_the_order(monkeypatch):
    # the verdict comes from the set's structure; only the value at the
    # order needs a cover, and one with no mesh bound
    cover = mass_module.coarse_mass
    calls = []

    def counted(*args):
        calls.append(args)
        return cover(*args)

    monkeypatch.setattr(mass_module, "coarse_mass", counted)
    order = similarity_order(ASYM.ratios)
    for spec, alpha in ((C, 0.5), (C, 0.8), (ASYM, 0.5), (ASYM, 0.9),
                        (FullInterval(0.0, 1.0), 0.5),
                        (FinitePoints((0.2, 0.4)), 0.5),
                        (FinitePoints((0.2, 0.4)), 1.0)):
        mass(spec, 0.0, 1.0, alpha)
    with pytest.raises(DivergingMass):
        StaircaseEvaluator(ASYM, 0.5).increment(0.0, 1.0)
    assert StaircaseEvaluator(ASYM, 0.5).increment(0.5, 0.7) == 0.0
    assert calls == []
    mass(ASYM, 0.0, 1.0, order)
    assert calls == [(ASYM, 0.0, 1.0, order, math.inf)]


@settings(max_examples=100, deadline=None)
@given(base=_gap_ifs(), wrap=_WRAP, lo=st.floats(0.0, 0.999),
       width=st.floats(1e-6, 1.0))
@example(base=ASYM, wrap=None, lo=0.0, width=1.0)
def test_every_rung_of_the_ladder_is_the_mass_at_the_order(
        base, wrap, lo, width):
    # refining a cover at the order multiplies its cost by sum r^s = 1, so
    # coarse_mass does not depend on the mesh bound there; a span is drawn
    # wider than the slack, within which an end is a point of F
    spec, _, order = _medium(base, wrap)
    h0, h1 = spec.hull()
    a = h0 + lo * (h1 - h0)
    b = a + width * (h1 - a)
    value = mass(spec, a, b, order).value
    for k in range(1, 9):
        rung = coarse_mass(spec, a, b, order, (b - a) / 3.0 ** k)
        assert abs(rung - value) <= 1e-13 * value, (k, rung, value)


def _results(spec, order, a, b, x):
    """repr of the mass below, at and above the order on [a, b], of the
    gamma-dimension there, and of the numeric staircase at x."""
    out = [mass(spec, a, b, alpha)
           for alpha in (0.5 * order, order, min(1.0, 1.5 * order))]
    out.append(gamma_dimension(spec, a, b, tol=0.05, box_depth=4))
    out.append(StaircaseEvaluator(spec, order, mode="numeric")(x))
    return repr(out)


@settings(max_examples=40, deadline=None)
@given(base=st.one_of(_gap_ifs(), st.just(C)), wrap=_WRAP,
       lo=st.floats(0.0, 0.5), x=st.floats(0.1, 0.9),
       others=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=20))
def test_results_do_not_depend_on_calls_before(base, wrap, lo, x, others):
    # a spec keeps no state: a repeat, and an equal fresh spec, give the
    # same bits after masses at other orders
    spec, _, order = _medium(base, wrap)
    h0, h1 = spec.hull()
    a, b, x = (h0 + p * (h1 - h0) for p in (lo, 1.0, x))
    cold = _results(spec_from_json(spec_to_json(spec)), order, a, b, x)
    for alpha in others:
        mass(spec, a, b, alpha)
    assert _results(spec, order, a, b, x) == cold
    assert _results(spec, order, a, b, x) == cold


def test_results_on_a_wrapped_two_map_set_repeat_bit_for_bit():
    # a spec keeps no state between calls: a second call, and a call on an
    # equal fresh spec, give the same results to the last bit, a flight
    # through the set among them
    def results(spec):
        s = similarity_order(spec.inner.ratios)
        out = [mass(spec, 0.3, 1.4, alpha) for alpha in (0.5, s, 0.8)]
        out.append(gamma_dimension(spec, 0.3, 1.4, box_depth=6))
        out.append(StaircaseEvaluator(spec, s, mode="numeric")(0.9))
        flight = FrictionParams(spec, s, v0=1.0, x0=0.2, kappa=0.5)
        out.append(time_of_flight(flight, 1.0, tol=1e-9))
        return repr(out)

    def make():
        return Affine(GapIFS((0.4, 0.25), (0.0, 0.75)), 1.3, 0.2)

    spec = make()
    first = results(spec)
    assert results(spec) == first, "a second call differs"
    assert results(make()) == first, "an equal fresh spec differs"


def test_numeric_increment_is_the_mass_at_the_order():
    order = similarity_order(ASYM.ratios)
    numeric = StaircaseEvaluator(ASYM, order, mode="numeric")
    for u, v in ((0.0, 1.0), (0.1, 0.8), (0.75, 0.9)):
        value = mass(ASYM, u, v, order).value
        assert repr(numeric.increment(u, v)) == repr(value) == repr(
            coarse_mass(ASYM, u, v, order, math.inf))


_NARROW = FullInterval(0.0, 1e-3)


@pytest.mark.parametrize("spec", [
    C, GapIFS((1 / 3, 1 / 3), (0.0, 2 / 3)), Affine(C, 2.0, 0.0), _NARROW,
    Affine(_NARROW, 1e-3, 0.5), FullInterval(0.0, 1e-20)])
def test_a_span_within_the_slack_of_its_ends_is_a_point(spec):
    # the slack is the staircase's, at the farther hull end in the frame
    # of the record (an interval's halves scaled to its ends): a span
    # within it at a hull end is read as that end, so mass is 0, and
    # coarse_mass must not price the span as a tile
    lam, t, inner = _backend.frame(spec)
    eta = lam * _backend.hull_eps(lam, t, inner._hull)
    base = spec.inner if isinstance(spec, Affine) else spec
    order = 1.0 if isinstance(base, FullInterval) else ALPHA
    a = spec.hull()[0]
    for b in (a + 1.03e-231, a + 0.5 * eta):
        want = mass(spec, a, b, order).value
        # a span that rounds to a point has no mesh bound to draw
        delta = (b - a) / 3.0 or math.inf
        assert coarse_mass(spec, a, b, order, delta) == want == 0.0


@pytest.mark.parametrize("spec", [_NARROW, Affine(_NARROW, 2.0, 0.0),
                                  Affine(_NARROW, 0.5, -1e-3)])
def test_a_narrow_interval_keeps_a_span_wider_than_its_slack(spec):
    # the slack of an interval 1e-3 long near 0 is about 1e-18: a span of
    # 1e-16 inside it, off its piece ends, has its length as mass, as the
    # staircase says
    h0, h1 = spec.hull()
    a = h0 + 0.3 * (h1 - h0)
    b = a + 1e-16
    value = mass(spec, a, b, 1.0).value
    assert value > 0.0
    assert coarse_mass(spec, a, b, 1.0, math.inf) == value
    assert mass(FullInterval(0.0, 1e-20), 0.0, 1e-20, 1.0).value == 1e-20


@settings(max_examples=150, deadline=None)
@given(base=st.one_of(_gap_ifs(), st.just(C)), wrap=_WRAP,
       where=st.floats(-0.1, 1.1), digits=st.floats(13.0, 16.0),
       reach=st.floats(0.0, 1.0), frac=st.floats(0.5, 1.0),
       mesh=st.sampled_from([math.inf, 1.0, 1e-3]))
@example(base=C, wrap=None, where=0.5, digits=14.0, reach=1.0, frac=1.0,
         mesh=1.0)
@example(base=C, wrap=(1.0, -1.5), where=0.0, digits=13.0, reach=1.0,
         frac=1.0, mesh=math.inf)
def test_coarse_mass_is_zero_on_a_span_that_F_misses_or_within_the_slack(
        base, wrap, where, digits, reach, frac, mesh):
    spec, _, order = _medium(base, wrap)
    lam, t, inner = _backend.frame(spec)
    eta = lam * _backend.hull_eps(lam, t, inner._hull)
    h0, h1 = spec.hull()
    a = h0 + where * (h1 - h0)
    alpha = frac * order
    # a span no wider than the slack of the set's measure record, in
    # global units, is a point; where a + reach * eta rounds to a wider
    # span (eta = 1e-15 at a = -1.5 gives 5 ulps, 1.11e-15, which mass
    # prices too), b steps back an ulp
    b = a + reach * eta
    if b - a > reach * eta:
        b = math.nextafter(b, a)
    assert coarse_mass(spec, a, b, alpha, mesh) == 0.0
    # a span under the float resolution of its frame is not priced as a
    # tile when the set's walk says F misses it
    b = a + lam * 10.0 ** -digits
    if not spec._isect(a, b):
        assert coarse_mass(spec, a, b, alpha, mesh) == 0.0
        assert mass(spec, a, b, alpha).value == 0.0


@settings(max_examples=150, deadline=None)
@given(base=st.one_of(_gap_ifs(), st.just(C)), pick=st.integers(0, 100),
       deep=st.floats(0.1, 0.9), reach=st.floats(0.0, 0.5),
       frac=st.floats(0.5, 1.0), mesh=st.sampled_from([math.inf, 1e-17]))
@example(base=C, pick=0, deep=0.0, reach=0.1, frac=1.0, mesh=1e-17)
def test_coarse_mass_is_zero_on_a_span_that_meets_F_within_the_slack(
        base, pick, deep, reach, frac, mesh):
    # from inside a hole (a gap, or off the hull) to within the set's walk
    # slack, 1e-15, past a piece end: F meets the span only at that end
    h0, h1 = base.hull()
    holes = [(h0 - 1.0, h0), (h1, h1 + 1.0)] + [
        (g.lo, g.hi) for g in gaps(base, Interval(h0, h1), (h1 - h0) / 100.0)]
    u, v = holes[pick % len(holes)]
    inside = u + deep * (v - u)
    order = similarity_order(base.ratios)
    alpha = frac * order
    for a, b in ((inside, v + reach * 1e-15), (u - reach * 1e-15, inside)):
        assert coarse_mass(base, a, b, alpha, mesh) == 0.0, (a, b)
        assert mass(base, a, b, alpha).value == 0.0, (a, b)


@st.composite
def _evaluator_set(draw):
    """A gap IFS, plain or wrapped, the middle-thirds set, an interval or a
    finite set."""
    kind = draw(st.sampled_from(("ifs", "wrapped", "cantor", "interval",
                                 "points")))
    if kind == "cantor":
        return TernaryCantor()
    if kind == "interval":
        return FullInterval(draw(st.floats(-1.0, 0.5)),
                            draw(st.floats(0.6, 2.0)))
    if kind == "points":
        pts = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4,
                            unique=True))
        return FinitePoints(tuple(sorted(pts)))
    base = draw(_gap_ifs())
    if kind == "wrapped":
        return Affine(base, draw(st.floats(0.5, 2.0)),
                      draw(st.floats(-0.5, 0.5)))
    return base


@settings(max_examples=150, deadline=None)
@given(spec=_evaluator_set(), shift=st.sampled_from((-0.2, 0.0, 0.2, 1.0)),
       a0=st.one_of(st.sampled_from((-0.0, 0.0)), st.floats(-1.0, 1.0)),
       xs=st.lists(st.one_of(st.sampled_from((-0.0, 0.0)),
                             st.floats(-1.5, 2.5)), max_size=25),
       mode=st.sampled_from(("auto", "numeric")))
@example(spec=FinitePoints((0.5,)), shift=0.0, a0=0.0, xs=[-1.0, -0.0, 0.5],
         mode="numeric")
def test_values_are_value_bit_for_bit(spec, shift, a0, xs, mode):
    # on the descent, the cover with no mesh bound and the numeric path,
    # the sign of a zero included, or the same DivergingMass below the order
    alpha = min(1.0, max(0.05, _order(spec) + shift))
    each = StaircaseEvaluator(spec, alpha, a0=a0, mode=mode)
    column = StaircaseEvaluator(spec, alpha, a0=a0, mode=mode)
    try:
        want = [each.value(x) for x in xs]
    except DivergingMass:
        with pytest.raises(DivergingMass):
            column.values(xs)
        return
    assert list(map(repr, column.values(xs))) == list(map(repr, want))
    if column._unit is not None:
        assert column._cache == {}  # the descent's column fills no cache


@pytest.mark.parametrize("spec, mode", [
    (TernaryCantor(), "auto"),
    (TernaryCantor(), "numeric"),
    (FinitePoints((0.25, 0.5)), "auto"),
    (FullInterval(0.0, 2.0), "auto"),
])
def test_values_reject_nan(spec, mode):
    stair = StaircaseEvaluator(spec, _order(spec), mode=mode)
    with pytest.raises(ValueError, match="NaN"):
        stair.values([0.5, math.nan, 0.75])


def test_values_descend_through_the_backend_at_call_time(monkeypatch):
    # a wrapper installed in _backend after the evaluator is built, as the
    # benchmark's tracer is, sees the column's one sweep
    stair = StaircaseEvaluator(Affine(TernaryCantor(), 3.0, -1.0), ALPHA)
    calls = []
    sweep = _backend.stair_column

    def counted(*args):
        calls.append(args[-1])
        return sweep(*args)

    monkeypatch.setattr(_backend, "stair_column", counted)
    xs = [-1.0 + 3.0 * i / 40 for i in range(41)]
    assert stair.values(xs) == [stair.value(x) for x in xs]
    assert calls == [[(x + 1.0) / 3.0 for x in xs]]
