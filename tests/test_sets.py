"""Set specifications: membership, gaps, nets, wrappers, serialization."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from falpha.sets import (
    Affine,
    FinitePoints,
    FullInterval,
    GapIFS,
    HarmonicCluster,
    Interval,
    Scale,
    Subdivision,
    TernaryCantor,
    Translate,
    gaps,
    intersects,
    is_point_of_change,
    net,
    spec_from_json,
    spec_to_json,
)
from falpha.mass import StaircaseEvaluator, coarse_mass, mass
from falpha.cantor import ALPHA
from falpha.dimension import similarity_order

C = TernaryCantor()
ASYM = GapIFS((0.4, 0.25), (0.0, 0.75))


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    assert Interval(0.0, 1.0).length == 1.0


def test_subdivision():
    s = Subdivision((0.0, 0.25, 1.0))
    assert s.mesh == 0.75
    assert list(s.components()) == [(0.0, 0.25), (0.25, 1.0)]
    finer = Subdivision((0.0, 0.25, 0.5, 1.0))
    assert finer.refines(s)
    assert not s.refines(finer)
    with pytest.raises(ValueError):
        Subdivision((0.0, 0.0, 1.0))


def test_cantor_hull_and_membership():
    assert C.hull() == (0.0, 1.0)
    assert intersects(C, Interval(1.0, 1.0))
    assert intersects(C, Interval(0.0, 0.0))
    assert intersects(C, Interval(1.0 / 3.0, 1.0 / 3.0))
    assert intersects(C, Interval(0.25, 0.25)) == 1  # 1/4 is in the set
    assert not intersects(C, Interval(0.4, 0.6))
    assert not intersects(C, Interval(0.35, 0.65))
    assert intersects(C, Interval(0.3, 0.7))


def test_cantor_gaps():
    gs = gaps(C, Interval(0.0, 1.0), min_len=0.03)
    spans = [(g.lo, g.hi) for g in gs]
    assert (1.0 / 3.0, 2.0 / 3.0) in [
        (pytest.approx(u), pytest.approx(v)) for u, v in spans
    ] or any(abs(u - 1 / 3) < 1e-12 and abs(v - 2 / 3) < 1e-12 for u, v in spans)
    for u, v in spans:
        assert v - u >= 0.03


def test_gaps_require_min_len():
    with pytest.raises(ValueError):
        gaps(C, Interval(0.0, 1.0), min_len=0.0)
    with pytest.raises(ValueError):
        gaps(HarmonicCluster(), Interval(0.0, 1.0), min_len=0.0)
    # finite sets have finitely many gaps, so zero is fine there
    assert gaps(FinitePoints((0.0, 1.0)), Interval(0.0, 1.0), min_len=0.0)


def test_net_points_are_members():
    for level in (1, 3, 5):
        pts = net(C, level, Interval(0.0, 1.0))
        assert len(pts) == 2 ** (level + 1)
        assert pts == sorted(pts)
        for p in pts:
            assert intersects(C, Interval(p, p))


def test_harmonic_cluster():
    H = HarmonicCluster()
    assert intersects(H, Interval(0.0, 0.0))
    assert intersects(H, Interval(1.0, 1.0))
    assert intersects(H, Interval(0.5, 0.5))
    assert not intersects(H, Interval(0.51, 0.58))
    gs = gaps(H, Interval(0.0, 1.0), min_len=0.05)
    assert (pytest.approx(0.5), pytest.approx(1.0)) == (gs[-1].lo, gs[-1].hi)
    pts = net(H, 3, Interval(0.0, 1.0))
    assert pts[0] == 0.0 and pts[-1] == 1.0


def test_finite_points():
    F = FinitePoints((0.1, 0.5, 0.9))
    assert intersects(F, Interval(0.5, 0.5))
    assert not intersects(F, Interval(0.2, 0.4))
    assert F.extremes_in(0.0, 1.0) == (0.1, 0.9)
    assert FinitePoints(()).hull() is None
    with pytest.raises(ValueError):
        FinitePoints((0.5, 0.5))


def test_full_interval():
    I = FullInterval(0.0, 2.0)
    assert intersects(I, Interval(1.0, 1.5))
    assert not intersects(I, Interval(2.5, 3.0))
    assert gaps(I, Interval(0.0, 2.0), min_len=0.01) == []


def test_translate_scale_basics():
    T = Translate(C, 1.0)
    assert T.hull() == (1.0, 2.0)
    assert intersects(T, Interval(1.25, 1.25))
    S2 = Scale(C, 2.0)
    assert S2.hull() == (0.0, 2.0)
    assert intersects(S2, Interval(0.5, 0.5))  # 2 * 1/4
    Z = Scale(C, 0.0)
    assert Z.hull() == (0.0, 0.0)
    assert intersects(Z, Interval(0.0, 0.0))
    assert not intersects(Z, Interval(0.5, 1.0))


def test_wrappers_fold_into_one_affine():
    W = Scale(Translate(C, 1.0), 2.0)
    assert W == Affine(C, 2.0, 2.0)
    assert Translate(Scale(C, 3.0), 0.5) == Affine(C, 3.0, 0.5)
    assert Translate(Translate(C, 1.0), 2.0) == Affine(C, 1.0, 3.0)
    assert W.hull() == (2.0, 4.0)
    with pytest.raises(ValueError):
        Scale(C, -1.0)
    with pytest.raises(ValueError):
        Affine(W, 1.0, 0.0)


def test_zero_scale_is_the_point_shift():
    Z = Scale(GapIFS((0.4, 0.25), (0.0, 0.75)), 0.0)
    P = spec_from_json({"type": "cantor", "scale": 0, "translate": 1})
    assert Z == FinitePoints((0.0,))
    assert P == FinitePoints((1.0,))
    for spec, point in ((Z, 0.0), (P, 1.0)):
        assert spec.hull() == (point, point)
        est = mass(spec, point - 1.0, point + 1.0, 0.5)
        assert est.verdict == "converged" and est.value == 0.0
        assert not est.upper_bound_only


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(bad):
    for build in (
        lambda: Scale(C, bad),
        lambda: Translate(C, bad),
        lambda: GapIFS((0.4, 0.25), (0.0, bad)),
        lambda: FullInterval(0.0, bad),
        lambda: FullInterval(bad, 1.0),
        lambda: FinitePoints((0.0, bad)),
    ):
        with pytest.raises(ValueError, match="must be finite"):
            build()


@settings(max_examples=200, deadline=None)
@given(
    lo=st.floats(-0.5, 1.2),
    width=st.floats(0.0, 0.7),
    shift=st.floats(-2.0, 2.0),
    lam=st.floats(0.05, 4.0),
)
def test_wrappers_commute_with_intersects(lo, width, shift, lam):
    hi = lo + width
    assert intersects(Translate(C, shift), Interval(lo, hi)) == intersects(
        C, Interval(lo - shift, hi - shift)
    )
    assert intersects(Scale(C, lam), Interval(lo, hi)) == intersects(
        C, Interval(lo / lam, hi / lam)
    )


@settings(max_examples=50, deadline=None)
@given(level=st.integers(1, 6), lo=st.floats(0.0, 0.9))
def test_net_nonempty_implies_intersects(level, lo):
    hi = lo + 0.1
    pts = net(C, level, Interval(lo, hi))
    if pts:
        assert intersects(C, Interval(lo, hi))


def test_asymmetric_gapifs():
    assert ASYM.hull() == (0.0, 1.0)
    assert intersects(ASYM, Interval(0.0, 0.0))
    assert intersects(ASYM, Interval(1.0, 1.0))
    # the first-level gap is (0.4, 0.75)
    assert not intersects(ASYM, Interval(0.45, 0.7))
    gs = gaps(ASYM, Interval(0.0, 1.0), min_len=0.1)
    assert any(abs(g.lo - 0.4) < 1e-12 and abs(g.hi - 0.75) < 1e-12 for g in gs)


def test_gapifs_validation():
    with pytest.raises(ValueError):
        GapIFS((0.6, 0.6), (0.0, 0.4))  # overlapping pieces
    with pytest.raises(ValueError):
        GapIFS((0.5,), (0.0,))  # fewer than two maps


def test_points_of_change_on_cantor():
    stair = StaircaseEvaluator(C, ALPHA, a0=0.0)
    for p in net(C, 2, Interval(0.0, 1.0)):
        assert is_point_of_change(stair, p, h_min=1e-6) == 1
    assert is_point_of_change(stair, 0.5, h_min=1e-6) == 0


def test_json_round_trip():
    cases = [
        {"type": "cantor"},
        {"type": "harmonic"},
        {"type": "finite", "points": [0.0, 0.5, 1.0]},
        {"type": "interval", "lo": 0.0, "hi": 2.0},
        {"type": "gap_ifs", "ratios": [0.4, 0.25], "offsets": [0.0, 0.75]},
        {"type": "cantor", "scale": 2.0, "translate": 1.0},
    ]
    specs = [spec_from_json(obj) for obj in cases]
    specs.append(Scale(Translate(C, 1.0), 2.0))
    for spec in specs:
        again = spec_from_json(spec_to_json(spec))
        assert spec_to_json(again) == spec_to_json(spec)
        assert again.hull() == spec.hull()
    with pytest.raises(ValueError):
        spec_from_json({"type": "nope"})
    with pytest.raises(ValueError):
        spec_from_json([1, 2, 3])


@st.composite
def _gap_ifs(draw):
    """A gap IFS on [0, 1] with 2-4 maps: copy and gap lengths drawn as
    weights, normalised so the copies span the unit interval."""
    m = draw(st.integers(2, 4))
    copies = draw(st.lists(st.floats(0.2, 1.0), min_size=m, max_size=m))
    holes = draw(st.lists(st.floats(0.1, 1.0), min_size=m - 1, max_size=m - 1))
    total = sum(copies) + sum(holes)
    ratios = [c / total for c in copies]
    offsets = [0.0]
    for r, g in zip(ratios, holes):
        offsets.append(offsets[-1] + r + g / total)
    return GapIFS(tuple(ratios), tuple(offsets))


_WRAPS = st.lists(
    st.one_of(
        st.tuples(st.just("scale"), st.floats(0.25, 4.0)),
        st.tuples(st.just("translate"), st.floats(-2.0, 2.0)),
    ),
    max_size=4,
)


def _wrap(spec, wraps):
    """Apply the wrappers in order; also compose the map shift + scale * x
    they describe, independently of the folding in Scale/Translate."""
    scale, shift = 1.0, 0.0
    for kind, value in wraps:
        if kind == "scale":
            spec = Scale(spec, value)
            scale, shift = scale * value, shift * value
        else:
            spec = Translate(spec, value)
            shift = shift + value
    return spec, scale, shift


@settings(max_examples=60, deadline=None)
@given(base=_gap_ifs(), wraps=_WRAPS, qs=st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1,
    max_size=5))
def test_nested_wrappers_round_trip_and_covariance(base, wraps, qs):
    spec, scale, shift = _wrap(base, wraps)
    if wraps:
        assert spec.inner == base
        assert math.isclose(spec.scale, scale, rel_tol=1e-12)
        assert math.isclose(spec.shift, shift, rel_tol=1e-12, abs_tol=1e-12)
        s, t = spec.scale, spec.shift
    else:
        assert spec == base
        s, t = 1.0, 0.0
    again = spec_from_json(json.loads(json.dumps(spec_to_json(spec))))
    assert again.hull() == spec.hull()
    h0, h1 = spec.hull()
    for p, q in qs:
        lo = h0 + (h1 - h0) * min(p, q)
        hi = h0 + (h1 - h0) * max(p, q)
        assert again._isect(lo, hi) == spec._isect(lo, hi)
        u, v = (lo - t) / s, (hi - t) / s
        e = base.extremes_in(u, v)
        want = None if e is None else (e[0] * s + t, e[1] * s + t)
        assert spec.extremes_in(lo, hi) == want
        min_len = (h1 - h0) / 50.0
        want = [(a * s + t, b * s + t) for a, b in base._raw_gaps(u, v, min_len / s)]
        assert spec._raw_gaps(lo, hi, min_len) == want


@settings(max_examples=40, deadline=None)
@given(base=_gap_ifs(), wraps=_WRAPS, lam=st.floats(0.25, 4.0),
       p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0), k=st.integers(1, 6))
def test_coarse_mass_scales_by_lambda_to_the_order(base, wraps, lam, p, q, k):
    spec, _, _ = _wrap(base, wraps)
    alpha = similarity_order(base.ratios)
    h0, h1 = spec.hull()
    a = h0 + (h1 - h0) * min(p, q)
    b = h0 + (h1 - h0) * max(p, q)
    delta = (h1 - h0) / 3.0 ** k
    want = lam ** alpha * coarse_mass(spec, a, b, alpha, delta)
    got = coarse_mass(Scale(spec, lam), lam * a, lam * b, alpha, lam * delta)
    # the gap IFS descent closes with a tile once a piece is below 1e-13
    assert abs(got - want) <= 2.0 * (1e-13 * lam) ** alpha


@settings(max_examples=60, deadline=None)
@given(base=_gap_ifs(), wraps=_WRAPS, ps=st.lists(
    st.floats(-0.1, 1.1), min_size=3, max_size=3))
def test_staircase_is_monotone_and_additive(base, wraps, ps):
    spec, scale, _ = _wrap(base, wraps)
    alpha = similarity_order(base.ratios)
    stair = StaircaseEvaluator(spec, alpha)
    h0, h1 = spec.hull()
    x, y, z = (h0 + (h1 - h0) * p for p in sorted(ps))
    # the gap IFS descent closes with a tile once a piece is below 1e-13
    bound = 2.0 * (1e-13 * scale) ** alpha
    assert stair(y) - stair(x) >= -bound
    assert stair(z) - stair(y) >= -bound
    inc = stair.increment
    assert abs(inc(x, y) + inc(y, z) - inc(x, z)) <= bound
