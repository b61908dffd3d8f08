"""Set specifications: membership, gaps, nets, wrappers, serialization."""

import bisect
import importlib
import itertools
import json
import math
from fractions import Fraction

from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from falpha.sets import (
    _children,
    Affine,
    FinitePoints,
    FullInterval,
    GapIFS,
    HarmonicCluster,
    Interval,
    ResolutionExceeded,
    Scale,
    SetSpec,
    Subdivision,
    TernaryCantor,
    Translate,
    gaps,
    intersects,
    is_point_of_change,
    net,
    slack,
    spec_from_json,
    spec_to_json,
)
from falpha.mass import StaircaseEvaluator, coarse_mass, mass
from falpha.cantor import ALPHA
from falpha.dimension import box_counts, similarity_order

import exact

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
    # the pieces of a window left and right of the hull are gaps too
    assert gaps(C, Interval(-1.0, 2.0), 0.3) == [
        Interval(-1.0, 0.0), Interval(1.0 / 3.0, 2.0 / 3.0),
        Interval(1.0, 2.0)]
    assert gaps(C, Interval(-2.0, -1.0), 0.3) == [Interval(-2.0, -1.0)]
    assert gaps(C, Interval(2.0, 3.0), 0.3) == [Interval(2.0, 3.0)]
    assert gaps(Affine(C, 2.0, -0.5), Interval(-1.0, 2.0), 0.5) == [
        Interval(-1.0, -0.5), Interval(2.0 / 3.0 - 0.5, 4.0 / 3.0 - 0.5),
        Interval(1.5, 2.0)]
    # and the empty set leaves the whole window
    assert gaps(FinitePoints(()), Interval(0.0, 1.0)) == [Interval(0.0, 1.0)]


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


@pytest.mark.parametrize("spec, level", [
    (C, 5), (Affine(ASYM, 2.0, -0.5), 6), (FullInterval(0.0, 1.0), 5),
    (HarmonicCluster(), 5), (FinitePoints((0.1, 0.2, 0.9)), 0),
])
def test_net_refuses_more_points_than_its_limit(spec, level):
    hull = Interval(*spec.hull())
    pts = net(spec, level, hull)
    assert net(spec, level, hull, limit=len(pts)) == pts
    with pytest.raises(ResolutionExceeded, match="more than"):
        net(spec, level, hull, limit=len(pts) - 1)


@pytest.mark.parametrize("spec", [C, Affine(ASYM, 2.0, -0.5),
                                  HarmonicCluster(), FullInterval(0.0, 1.0)],
                         ids=["gap-ifs", "wrapped", "harmonic", "interval"])
@pytest.mark.parametrize("level", [2.5, math.nan, 2.0, True, "2"])
def test_net_refuses_a_level_that_is_not_an_int(spec, level):
    # on a gap IFS a level such as 2.5 or NaN never equals a piece's
    # depth, so the walk would not stop
    with pytest.raises(ValueError, match="level must be an int") as err:
        net(spec, level, Interval(*spec.hull()))
    assert repr(level) in str(err.value)


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


def test_harmonic_cluster_at_subnormal_ends():
    # 1/x overflows a float for a subnormal x; the points 1/n near 0 are
    # still found, exactly
    H = HarmonicCluster()
    tiny = 2.2250738585e-313
    assert H.extremes_in(tiny, 1.0) == (float(1 / Fraction(
        math.floor(1 / Fraction(tiny)))), 1.0)
    assert H.extremes_in(0.0, tiny)[0] == 0.0
    assert 0.0 < H.extremes_in(0.0, tiny)[1] <= tiny
    lo, hi = H.extremes_in(1e-313, 2e-313)
    assert 1e-313 <= lo <= hi <= 2e-313
    assert H.extremes_in(0.26, 0.3) is None


@pytest.mark.parametrize("base", [C, ASYM, FullInterval(0.0, 1.0),
                                  FinitePoints((0.1, 0.5)), HarmonicCluster()])
@pytest.mark.parametrize("wrap", [None, (2.0, -0.5)])
@pytest.mark.parametrize("lo, hi", [(math.nan, math.nan), (math.nan, 0.3),
                                    (0.05, math.nan), (math.nan, 1.0),
                                    (0.0, math.nan)])
def test_a_nan_end_misses_f(base, wrap, lo, hi):
    # NaN fails every comparison, so no test may read it as a hit
    spec = base if wrap is None else Affine(base, *wrap)
    assert not spec._isect(lo, hi)
    assert spec.extremes_in(lo, hi) is None


@pytest.mark.parametrize("base", [C, ASYM, FullInterval(0.0, 1.0),
                                  FinitePoints((0.1, 0.5)), HarmonicCluster()])
@pytest.mark.parametrize("wrap", [None, (2.0, -0.5)])
@pytest.mark.parametrize("x", [0.0, 0.1, 1.0 / 3.0, 0.4, 0.5, 1.0])
def test_a_reversed_window_misses_f(base, wrap, x):
    # [x + 1 ulp, x] and [x + 1e-13, x] hold no point, though they lie
    # within a set's slack of a point of F
    spec = base if wrap is None else Affine(base, *wrap)
    x = x if wrap is None else x * wrap[0] + wrap[1]
    for lo in (math.nextafter(x, math.inf), x + 1e-13):
        assert spec.extremes_in(lo, x) is None
        assert not spec._isect(lo, x)


def test_finite_points():
    F = FinitePoints((0.1, 0.5, 0.9))
    assert intersects(F, Interval(0.5, 0.5))
    assert not intersects(F, Interval(0.2, 0.4))
    assert F.extremes_in(0.0, 1.0) == (0.1, 0.9)
    assert FinitePoints(()).hull() is None
    assert Scale(FinitePoints(()), 2.0).hull() is None
    assert Scale(FinitePoints((1.0,)), 2.0).is_discrete()
    with pytest.raises(ValueError):
        FinitePoints((0.5, 0.5))


def _cantor_grid_ends(n):
    """Ends, in units of 3^-n, of the level-n construction intervals
    [a, a + 1] of the middle-thirds set: a has n ternary digits 0 or 2."""
    starts = [sum(d * 3 ** i for i, d in enumerate(ds))
              for ds in itertools.product((0, 2), repeat=n)]
    return sorted({e for a in starts for e in (a, a + 1)})


def _cantor_grid_extremes(ends, k, m):
    """Exact (min, max) of the middle-thirds set within [k, m] (units of
    3^-n, k <= m), or None.  The level-n intervals cover the set with both
    ends in it, and no grid point lies strictly inside one, so the extremes
    are the first and last interval ends in [k, m]."""
    i = bisect.bisect_left(ends, k)
    j = bisect.bisect_right(ends, m)
    return None if i >= j else (ends[i], ends[j - 1])


def _assert_extremes_near(got, want, unit):
    # the walk rounds once per level: a few ulps in all
    assert got is not None
    for g, w in zip(got, want):
        assert abs(Fraction(g) - w * unit) <= Fraction(2, 10 ** 15)


def test_cantor_extremes_match_an_exact_oracle_on_triadic_grids():
    # every [k, m] * 3^-n for n <= 4 and, for n = 5 and 6, the degenerate
    # [x, x] and those at most three grid steps wide (the deepest walks)
    for n in range(6 + 1):
        unit = Fraction(1, 3 ** n)
        ends = _cantor_grid_ends(n)
        for k in range(3 ** n + 1):
            top = 3 ** n if n <= 4 else min(k + 3, 3 ** n)
            for m in range(k, top + 1):
                lo, hi = float(k * unit), float(m * unit)
                want = _cantor_grid_extremes(ends, k, m)
                assert C._isect(lo, hi) == (want is not None), (n, k, m)
                got = C.extremes_in(lo, hi)
                if want is None:
                    assert got is None, (n, k, m)
                else:
                    _assert_extremes_near(got, want, unit)
    # queries inside the middle third (u, u + width) removed from each
    # interval of the level before
    for level in range(1, 6 + 1):
        width = Fraction(1, 3 ** level)
        for a in _cantor_grid_ends(level - 1)[::2]:
            u = (3 * a + 1) * width
            for p, q in ((1e-6, 2e-6), (0.5, 0.5), (0.3, 0.7),
                         (1 - 2e-6, 1 - 1e-6)):
                lo = float(u + width * Fraction(p))
                hi = float(u + width * Fraction(q))
                assert C.extremes_in(lo, hi) is None and not C._isect(lo, hi)
    # members with infinite ternary expansions
    for x in (Fraction(1, 4), Fraction(3, 4), Fraction(1, 10), Fraction(9, 10)):
        assert C._isect(float(x), float(x))
        _assert_extremes_near(C.extremes_in(float(x), float(x)), (x, x), 1)


def test_walk_rejects_gap_midpoints_near_0():
    # the gap (3^-k, 2 * 3^-k) of the middle-thirds set is resolved by
    # floats, and by the walk's slack, however small it is near 0
    for k in range(20, 31):
        mid = 1.5 * 3.0 ** -k
        assert not C._isect(mid, mid), k
        assert C.extremes_in(mid, mid) is None, k
        for x in (3.0 ** -k, 2.0 * 3.0 ** -k, 0.25):
            assert C._isect(x, x), (k, x)
            assert C.extremes_in(x, x) is not None, (k, x)


def test_extremes_in_checks_membership_once(monkeypatch):
    calls = []
    isect = GapIFS._isect

    def counted(self, lo, hi, *rest):
        calls.append((lo, hi))
        return isect(self, lo, hi, *rest)

    monkeypatch.setattr(GapIFS, "_isect", counted)
    x = Fraction(3, 4) - Fraction(3, 4) / 9 ** 10  # ends 0.2020...20 (base 3)
    assert x == sum(Fraction(2, 3 ** i) for i in range(1, 21, 2))
    got = C.extremes_in(float(x), float(x))
    assert len(calls) == 1
    _assert_extremes_near(got, (x, x), 1)


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
        Affine(C, -1.0, 0.0)
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
# a point 1.8e-15 from the middle-thirds set, in the gap past 3^-30, which
# a wrapped query meets if its window adds a whole slack to the walk's own
@example(lo=5.021669792272667e-15, width=0.0, shift=0.0, lam=0.75)
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
    with pytest.raises(ValueError, match="ratios must be a number"):
        GapIFS(("a", 0.5), (0.0, 0.5))


def test_points_of_change_on_cantor():
    stair = StaircaseEvaluator(C, ALPHA, a0=0.0)
    for p in net(C, 2, Interval(0.0, 1.0)):
        assert is_point_of_change(stair, p, h_min=1e-6) == 1
    assert is_point_of_change(stair, 0.5, h_min=1e-6) == 0


def test_points_of_change_refuse_a_nan_h_min():
    stair = StaircaseEvaluator(C, ALPHA, a0=0.0)
    with pytest.raises(ValueError, match="h_min must be positive"):
        is_point_of_change(stair, 0.25, math.nan)


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
    with pytest.raises(ValueError, match="needs the field 'offsets'"):
        spec_from_json({"type": "gap_ifs", "ratios": [0.4, 0.25]})
    with pytest.raises(ValueError, match="ratios must be a list"):
        spec_from_json({"type": "gap_ifs", "ratios": 0.4,
                        "offsets": [0.0, 0.75]})

    class Unknown(SetSpec):
        pass

    with pytest.raises(ValueError, match="cannot serialize Unknown"):
        spec_to_json(Unknown())


@st.composite
def _gap_ifs(draw):
    """A gap IFS with 2-4 maps: copy and gap lengths, and margins before
    the first copy and after the last, drawn as weights and normalised to
    fill [0, 1].  A margin moves the hull off [0, 1]."""
    m = draw(st.integers(2, 4))
    copies = draw(st.lists(st.floats(0.2, 1.0), min_size=m, max_size=m))
    holes = draw(st.lists(st.floats(0.1, 1.0), min_size=m - 1, max_size=m - 1))
    margin = st.one_of(st.just(0.0), st.floats(0.05, 0.5))
    lead, tail = draw(margin), draw(margin)
    total = lead + sum(copies) + sum(holes) + tail
    ratios = [c / total for c in copies]
    offsets = [lead / total]
    for r, g in zip(ratios, holes):
        offsets.append(offsets[-1] + r + g / total)
    return GapIFS(tuple(ratios), tuple(offsets))


def _hull_and_table(ratios, offsets):
    """The hull and copy table of a gap IFS, built one at a time, as the
    set once built them on first read: a row (offset, ratio, span start,
    span end, weight) per copy, with the ratio as the weight."""
    lo = offsets[0] / (1.0 - ratios[0])
    hi = offsets[-1] / (1.0 - ratios[-1])
    if abs(lo - round(lo)) < 1e-12:
        lo = float(round(lo))
    if abs(hi - round(hi)) < 1e-12:
        hi = float(round(hi))
    table = tuple((o, r, o + r * lo, o + r * hi, r)
                  for o, r in zip(offsets, ratios))
    return (lo, hi), table


@settings(max_examples=200, deadline=None)
@given(spec=st.one_of(_gap_ifs(), st.just(C), st.just(ASYM)))
@example(spec=GapIFS((1 / 3, 1 / 3), (0.0, 2 / 3)))
@example(spec=GapIFS((0.3, 0.3), (0.05, 0.6999999999999)))
def test_a_fresh_gap_ifs_has_its_hull_and_copies_bit_for_bit(spec):
    fresh = type(spec)(spec.ratios, spec.offsets)
    want = _hull_and_table(spec.ratios, spec.offsets)
    # repr spells every float exactly
    assert repr((fresh._hull, fresh._table)) == repr(want)
    assert fresh.hull() == want[0]
    # the built parts are not fields: equality, hash and repr read only
    # the maps
    assert fresh == spec and hash(fresh) == hash(spec)
    assert repr(fresh) == (f"{type(spec).__name__}(ratios={spec.ratios!r}, "
                           f"offsets={spec.offsets!r})")
    assert spec_from_json(spec_to_json(fresh)) == spec


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


@settings(max_examples=100, deadline=None)
@given(base=_gap_ifs(), level=st.integers(1, 4), scale=st.floats(0.05, 20.0),
       shift=st.floats(-50.0, 50.0))
def test_affine_net_points_are_members_far_from_0(base, level, scale, shift):
    # mapping a net point into the base set errs by about ulp(x) / scale,
    # more than the base walk's 1e-15 slack once |x| is large
    spec = Affine(base, scale, shift)
    hull = Interval(*spec.hull())
    assert all(spec._isect(p, p) for p in net(spec, level, hull))
    # the slack does not grow the set: gap midpoints stay out of it
    for g in gaps(spec, hull, min_len=spec.resolution(level)):
        mid = (g.lo + g.hi) / 2.0
        assert not spec._isect(mid, mid)


@settings(max_examples=100, deadline=None)
@given(base=_gap_ifs(), scale=st.floats(0.05, 20.0),
       shift=st.floats(-50.0, 50.0))
def test_affine_nets_keep_the_points_at_their_window_ends(base, scale, shift):
    # a net point mapped into the base set and back rounds by about an
    # ulp of x, which the window must absorb at each end
    spec = Affine(base, scale, shift)
    h0, h1 = spec.hull()
    pts = net(spec, 2, Interval(h0, h1))
    assert pts[0] - h0 <= slack(h0, scale)
    assert h1 - pts[-1] <= slack(h1, scale)
    for q in net(spec, 3, Interval(h0, h1)):
        assert net(spec, 3, Interval(q, q)) == [q]


@settings(max_examples=100, deadline=None)
@given(base=_gap_ifs(), scale=st.floats(0.05, 20.0),
       shift=st.floats(-50.0, 50.0), ps=st.tuples(st.floats(-0.1, 1.1),
                                                  st.floats(-0.1, 1.1)))
def test_affine_extremes_agree_with_isect_far_from_0(base, scale, shift, ps):
    spec = Affine(base, scale, shift)
    h0, h1 = spec.hull()
    for q in net(spec, 4, Interval(h0, h1)):
        if spec._isect(q, q):
            assert spec.extremes_in(q, q) == (q, q)
    lo, hi = sorted(h0 + (h1 - h0) * p for p in ps)
    e = spec.extremes_in(lo, hi)
    assert e is None or lo <= e[0] <= e[1] <= hi


def test_extremes_at_the_net_points_of_a_far_cantor_set():
    spec = Translate(C, 20.0)
    for q in net(spec, 4, Interval(20.0, 21.0)):
        assert spec._isect(q, q) and spec.extremes_in(q, q) == (q, q)


@settings(max_examples=60, deadline=None)
@given(base=_gap_ifs(), wraps=_WRAPS, qs=st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1,
    max_size=5))
@example(base=GapIFS((0.2857142857142857, 0.2857142857142857),
                     (0.0, 0.5714285714285714)),
         wraps=[("scale", 1.5)], qs=[(1.0, 5e-324)])
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
        # wrapped: the inner extremes of the widened window, mapped out
        # and clipped to [lo, hi]; an end of the window is the query's
        # own end, which its image can miss by rounding (5e-324 * 1.5)
        w = spec._window(lo, hi) if wraps else (lo, hi)
        e = base.extremes_in(*w)
        want = e if e is None or not wraps else tuple(
            lo if y == w[0] else hi if y == w[1]
            else min(hi, max(lo, y * s + t)) for y in e)
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


def _point_set(draw):
    pts = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5,
                        unique=True))
    return FinitePoints(tuple(sorted(pts)))


_COPY_END_STEPS = (0.0, 1e-15, 1e-13, 1e-11, 3e-10, 1e-9)


@st.composite
def _stair_points(draw, base, lam, shift):
    """Points at which to evaluate the staircase of shift + lam * base:
    points across the hull, copy ends of the first two levels nudged by
    one of _COPY_END_STEPS (in the units of base) either way, and points
    of F with addresses that never end."""
    h0, h1 = base.hull()
    m = len(base.ratios)
    out = []
    for p in draw(st.lists(st.floats(-0.1, 1.1), max_size=3)):
        out.append(h0 + (h1 - h0) * p)
    for _ in range(draw(st.integers(0, 3))):
        head = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2))
        end = exact.point(base, head,
                          (0,) if draw(st.booleans()) else (m - 1,))
        step = draw(st.sampled_from(_COPY_END_STEPS)) * draw(
            st.sampled_from((-1.0, 1.0)))
        out.append(float(end) + step)
    for _ in range(draw(st.integers(0, 3))):
        head = draw(st.lists(st.integers(0, m - 1), max_size=30))
        period = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4))
        out.append(float(exact.point(base, head, period)))
    return [shift + lam * y for y in out]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), base=st.one_of(st.just(C), _gap_ifs()), wraps=_WRAPS)
def test_staircase_matches_an_exact_descent(data, base, wraps):
    spec, _, _ = _wrap(base, wraps)
    _, lam, t = exact.unwrap(spec)
    alpha = similarity_order(base.ratios)
    h0 = spec.hull()[0]
    stair = StaircaseEvaluator(spec, alpha, a0=h0 - 1.0)
    # the bound of the other wrapped gap IFS properties; the descent's
    # float drift and its 1e-15 slack at hull ends stay well inside it
    bound = 2.0 * (1e-13 * lam) ** alpha
    for x in data.draw(_stair_points(base, lam, t)):
        assert abs(stair.scaled(x) - exact.stair(spec, alpha, x)) <= bound, x


@pytest.mark.parametrize("x", [Fraction(1, 4), Fraction(3, 4), Fraction(1, 10),
                               Fraction(9, 10)])
def test_cantor_staircase_at_points_with_endless_expansions(x):
    stair = StaircaseEvaluator(C, ALPHA)
    want = exact.stair(C, ALPHA, float(x))
    assert abs(stair.scaled(float(x)) - want) <= 2.0 * 1e-13 ** ALPHA
    # the oracle itself, on the exact middle-thirds set at the rational
    # x, against the Cantor function there
    got = exact.cantor(x)
    known = {Fraction(1, 4): Fraction(1, 3), Fraction(3, 4): Fraction(2, 3),
             Fraction(1, 10): Fraction(1, 5), Fraction(9, 10): Fraction(4, 5)}
    assert abs(got - known[x]) <= 1e-20


@settings(max_examples=60, deadline=None)
@given(base=st.one_of(st.just(C), _gap_ifs()), wraps=_WRAPS,
       ps=st.lists(st.floats(-0.1, 1.1), min_size=3, max_size=3))
def test_value_differences_are_increments(base, wraps, ps):
    spec, _, _ = _wrap(base, wraps)
    h0, h1 = spec.hull()
    y, x, a0 = (h0 + (h1 - h0) * p for p in ps)
    for origin in (min(a0, x), max(a0, x)):
        stair = StaircaseEvaluator(spec, similarity_order(base.ratios),
                                   a0=origin)
        u, v = min(x, y), max(x, y)
        diff = stair.value(v) - stair.value(u)
        # both values are differences of staircase values up to the total
        top = stair.increment(h0, h1)
        assert abs(diff - stair.increment(u, v)) <= 4.0 * math.ulp(top)


@settings(max_examples=60, deadline=None)
@given(wraps=_WRAPS, ps=st.lists(st.floats(-0.1, 1.1), min_size=2,
                                 max_size=2), data=st.data())
def test_staircase_off_a_gap_ifs_at_its_order(wraps, ps, data):
    # point sets carry no mass; the interval at order 1 has its length;
    # a gap IFS just above its order has the cover with no mesh bound
    kind = data.draw(st.sampled_from(("points", "harmonic", "interval",
                                      "ifs")))
    if kind == "ifs":
        base = data.draw(_gap_ifs())
        # log-uniform steps from 1e-12 to 1e-8 reach the band where
        # sum r^alpha lies within 1e-9 below 1
        above = data.draw(st.one_of(
            st.floats(-12.0, -8.0).map(lambda e: 10.0 ** e),
            st.floats(1e-8, 0.2)))
        alpha = min(1.0, similarity_order(base.ratios) + above)
    elif kind == "interval":
        base, alpha = FullInterval(0.0, 1.0), 1.0
    else:
        base = _point_set(data.draw) if kind == "points" else HarmonicCluster()
        alpha = data.draw(st.floats(0.05, 1.0))
    spec, lam, _ = _wrap(base, wraps)
    h0, h1 = spec.hull()
    u, v = (h0 + (h1 - h0) * p for p in sorted(ps))
    got = StaircaseEvaluator(spec, alpha).increment(u, v)
    if kind in ("points", "harmonic"):
        assert got == 0.0
        return
    if kind == "interval":
        lo, hi = max(Fraction(u), Fraction(h0)), min(Fraction(v), Fraction(h1))
        want = float(max(hi - lo, Fraction(0)))
    else:
        want = coarse_mass(spec, u, v, alpha, math.inf)
    assert abs(got - want) <= 2.0 * (1e-13 * lam) ** alpha


def test_closed_form_makes_one_descent_per_value(monkeypatch):
    from falpha import _backend
    mass_module = importlib.import_module("falpha.mass")

    def no_cover(*args):
        raise AssertionError("the closed form reached the cover")

    calls = []
    descent = _backend.stair_scaled

    def counted(*args):
        calls.append(args[-1])
        return descent(*args)

    monkeypatch.setattr(mass_module, "_ifs_partial", no_cover)
    monkeypatch.setattr(_backend, "stair_scaled", counted)
    for spec in (C, ASYM, Translate(Scale(ASYM, 2.0), -1.0)):
        calls.clear()
        alpha = similarity_order(exact.unwrap(spec)[0].ratios)
        stair = StaircaseEvaluator(spec, alpha, a0=0.2)
        assert len(calls) == 1  # S(a0), once
        xs = [i / 7.0 for i in range(8)]
        for x in xs:
            stair.value(x)
        assert len(calls) == 1 + len(xs)
        for x in xs:
            stair(x)
        assert len(calls) == 1 + len(xs)


def test_staircase_is_zero_just_above_the_order():
    # sum r^alpha lies in [1 - 1e-9, 1 - 1e-12): the order is above the
    # similarity order, so the staircase is 0, as coarse_mass and mass say
    alpha = similarity_order(ASYM.ratios) + 5e-10
    t = sum(r ** alpha for r in ASYM.ratios)
    assert 1.0 - 1e-9 <= t < 1.0 - 1e-12
    assert StaircaseEvaluator(ASYM, alpha).increment(0.0, 1.0) == 0.0
    assert coarse_mass(ASYM, 0.0, 1.0, alpha, math.inf) == 0.0
    assert mass(ASYM, 0.0, 1.0, alpha).value == 0.0



def _reference_walk(self, lo, hi, off=0.0, scale=1.0):
    """``GapIFS._walk`` as it was before a query within the slack of a
    hull end stopped there: it went on down until the slack covered the
    hull.  Kept as the reference for the verdicts of the walk."""
    if not lo <= hi:
        return None
    h0, h1 = self._hull
    while True:
        eps = 1e-15 / scale
        y0, y1 = (lo - off) / scale, (hi - off) / scale
        if not (y1 >= h0 - eps and y0 <= h1 + eps):
            return None
        if y0 <= h0 or y1 >= h1 or eps >= h1 - h0:
            return (off, scale)
        for o, r, s0, s1, _ in self._table:
            if y1 < s0 - eps or y0 > s1 + eps:
                continue
            if y0 <= s0 or y1 >= s1:
                return (off, scale)
            off, scale = off + scale * o, scale * r
            break
        else:
            return None


@st.composite
def _walked_set(draw):
    """(spec, base, scale, shift): a 2-4-map gap IFS, some of whose copies
    may touch, plain or wrapped by a scale of 0.25-4 and a shift of up to
    1e5 (the map the wrapper applies)."""
    base = draw(st.one_of(_gap_ifs(), st.just(C), st.just(ASYM)))
    if draw(st.booleans()):
        m = len(base.ratios)
        holes = draw(st.lists(st.just(0.0) | st.floats(0.1, 1.0),
                              min_size=m - 1, max_size=m - 1))
        copies = draw(st.lists(st.floats(0.2, 1.0), min_size=m, max_size=m))
        total = sum(copies) + sum(holes)
        ratios = [c / total for c in copies]
        offsets = [0.0]
        for r, g in zip(ratios, holes):
            offsets.append(offsets[-1] + r + g / total)
        base = GapIFS(tuple(ratios), tuple(offsets))
    if not draw(st.booleans()):
        return base, base, 1.0, 0.0
    scale = draw(st.floats(0.25, 4.0))
    shift = draw(st.floats(-2.0, 2.0) | st.floats(-1e5, 1e5))
    spec = Translate(Scale(base, scale), shift)
    return spec, base, spec.scale, spec.shift


@st.composite
def _piece_end(draw, medium):
    """An end of a piece of levels 0-8 of the set, in global units, moved
    by 0-2 slacks and then by up to 3 ulps either way."""
    spec, base, scale, shift = medium
    piece = (*base._hull, 0.0, 1.0, 0.0, 1.0, 1.0)
    for _ in range(draw(st.integers(0, 8))):
        kids = _children(base._hull, base._table, 0.0, 1.0, piece)
        piece = kids[draw(st.integers(0, len(kids) - 1))]
    x = shift + scale * piece[draw(st.integers(0, 1))]
    x += draw(st.sampled_from((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0))) * slack(
        x, scale)
    for _ in range(abs(k := draw(st.integers(-3, 3)))):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@settings(max_examples=100, deadline=None)
@given(data=st.data(), medium=_walked_set())
def test_the_walk_stops_within_the_slack_with_the_old_verdicts(data, medium):
    # a query within the slack of the hull end of its frame stops there;
    # the old walk went on until the slack covered the hull, and gave the
    # same verdict on points and windows at piece ends, ulps and slacks off
    spec = medium[0]
    for _ in range(10):
        x = data.draw(_piece_end(medium))
        y = data.draw(_piece_end(medium))
        queries = [(x, x), (y, y), (min(x, y), max(x, y))]
        got = [spec._isect(lo, hi) for lo, hi in queries]
        with mock.patch.object(GapIFS, "_walk", _reference_walk):
            assert got == [spec._isect(lo, hi) for lo, hi in queries], queries


@settings(max_examples=25, deadline=None)
@given(data=st.data(), medium=_walked_set())
def test_box_counts_keep_the_old_walks_counts(data, medium):
    spec = medium[0]
    x = data.draw(_piece_end(medium))
    y = data.draw(_piece_end(medium))
    a, b = (min(x, y), max(x, y)) if x != y else spec.hull()
    got = box_counts(spec, a, b, 10)
    with mock.patch.object(GapIFS, "_walk", _reference_walk):
        assert got == box_counts(spec, a, b, 10), (a, b)


def test_a_point_of_f_an_ulp_inside_a_piece_end_stops_at_once():
    # the level-3 net point 7/9 of the middle-thirds set lies an ulp
    # inside the end of its piece [2/3, 7/9]; the walk stops where the
    # slack reaches it, two copies down, not 28 levels down
    x = net(C, 3, Interval(2.0 / 3.0, 1.0))[3]
    assert x == 0.7777777777777777
    frames = []
    walk = GapIFS._walk

    def spy(self, lo, hi, off=0.0, scale=1.0):
        frames.append(scale)
        return walk(self, lo, hi, off, scale)

    with mock.patch.object(GapIFS, "_walk", spy):
        assert C._isect(x, x)
    assert len(frames) == 1
    assert walk(C, x, x) == (2.0 / 3.0, 1.0 / 9.0)
    assert _reference_walk(C, x, x)[1] < 3.0 ** -27
