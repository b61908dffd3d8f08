"""Dimension estimators: the order jump and the box dimension read from
structure, box counting, and the capped memo of the similarity order."""

import math
import re
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from falpha import _backend, cli, dimension
from falpha.cantor import ALPHA
from falpha.dimension import (
    _order,
    box_counts,
    box_dimension,
    gamma_dimension,
    similarity_order,
)
from falpha.sets import (
    Affine,
    FinitePoints,
    FullInterval,
    GapIFS,
    HarmonicCluster,
    ResolutionExceeded,
    Scale,
    TernaryCantor,
    Translate,
)
from test_sets import _gap_ifs

C = TernaryCantor()


def test_cantor_gamma_dimension():
    rep = gamma_dimension(C, 0.0, 1.0)
    assert abs(rep.gamma_dim - ALPHA) <= 0.02
    assert rep.bracket[0] <= rep.gamma_dim <= rep.bracket[1]
    assert rep.alpha_trace  # the probe history is reported


def test_cantor_box_dimension():
    assert abs(box_dimension(C, 0.0, 1.0) - ALPHA) <= 0.03
    # a window that F misses counts no box at any depth
    assert box_dimension(C, 0.4, 0.6, 8) == 0.0


def test_box_counts_cantor():
    counts = box_counts(C, 0.0, 1.0, max_depth=6)
    # each of the 2^k pieces fills one closed box; gap-adjacent boxes that
    # share an endpoint with a piece also count, but no more than that
    for k in range(7):
        assert 2 ** k <= counts[k] <= 3 * 2 ** k


def test_a_point_window_is_one_box_at_every_depth():
    # the three children of a zero-width box are that same box
    assert box_counts(C, 0.0, 0.0, max_depth=8) == [1] * 9
    assert box_counts(C, 0.5, 0.5, max_depth=8) == [0] * 9
    assert box_counts(Scale(C, 2.0), 2.0, 2.0, max_depth=4) == [1] * 5
    assert box_dimension(C, 0.0, 0.0, max_depth=8) == 0.0
    assert gamma_dimension(C, 0.0, 0.0).box_dim == 0.0


@pytest.mark.parametrize("spec, a, b", [
    (C, 0.0, math.inf),
    (C, -math.inf, 1.0),
    (C, -1e308, 1e308),  # both ends finite, b - a not
    (Scale(C, 1e-10), -1e300, 1e300),  # finite, but not once unwrapped
])
def test_a_window_whose_width_is_not_finite_is_refused(spec, a, b):
    window = re.escape(f"[{a!r}, {b!r}]")
    with pytest.raises(ValueError, match=window):
        box_counts(spec, a, b, 4)
    with pytest.raises(ValueError, match=window):
        box_dimension(spec, a, b, 4)
    with pytest.raises(ValueError, match=window):
        gamma_dimension(spec, a, b, box_depth=4)


def test_a_window_of_finite_width_near_the_float_limit_is_counted():
    assert box_counts(C, -1e300, 1e300, 4)[0] == 1


def _box_counts_from_the_top(spec, a, b, max_depth):
    """The pruned recursion in which every box walks from the top of F:
    ``_isect`` on each box, cut in the coordinates of the unwrapped set."""
    if isinstance(spec, Affine):
        s, t = spec.scale, spec.shift
        spec, a, b = spec.inner, (a - t) / s, (b - t) / s
    counts = [0] * (max_depth + 1)

    def visit(lo, hi, d):
        if not spec._isect(lo, hi):
            return
        counts[d] += 1
        if d == max_depth:
            return
        third = (hi - lo) / 3.0
        visit(lo, lo + third, d + 1)
        visit(lo + third, lo + 2.0 * third, d + 1)
        visit(hi - third, hi, d + 1)

    visit(a, b, 0)
    return counts


@st.composite
def _any_set(draw):
    """A gap IFS with 2-4 maps, some of whose copies touch, the
    middle-thirds set, the harmonic cluster, a finite set or the
    interval."""
    kind = draw(st.sampled_from(("ifs", "ifs", "cantor", "harmonic",
                                 "points", "interval")))
    if kind == "cantor":
        return C
    if kind == "harmonic":
        return HarmonicCluster()
    if kind == "interval":
        return FullInterval(0.0, 1.0)
    if kind == "points":
        pts = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5,
                            unique=True))
        return FinitePoints(tuple(sorted(pts)))
    m = draw(st.integers(2, 4))
    copies = draw(st.lists(st.floats(0.2, 1.0), min_size=m, max_size=m))
    holes = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 1.0)),
                          min_size=m - 1, max_size=m - 1))
    total = sum(copies) + sum(holes)
    ratios = [c / total for c in copies]
    offsets = [0.0]
    for r, g in zip(ratios, holes):
        offsets.append(offsets[-1] + r + g / total)
    return GapIFS(tuple(ratios), tuple(offsets))


@st.composite
def _window(draw, hull):
    """The hull, a run of triadic cells of it, or any sub-range."""
    h0, h1 = hull
    kind = draw(st.sampled_from(("hull", "triadic", "any")))
    if kind == "hull":
        return h0, h1
    if kind == "triadic":
        n = 3 ** draw(st.integers(1, 4))
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(i + 1, n))
        return h0 + (h1 - h0) * i / n, h0 + (h1 - h0) * j / n
    p, q = sorted(draw(st.lists(st.floats(-0.1, 1.1), min_size=2,
                                max_size=2)))
    return h0 + (h1 - h0) * p, h0 + (h1 - h0) * q


@st.composite
def _deep_window(draw, hull, depth):
    """A window to count boxes in down to ``depth``: one of ``_window``'s
    to depth 7; past it, one across a hull end with at most a share
    3^(7 - depth) of its width inside the hull, so that at most some 3^7
    boxes meet F at each depth, while the boxes that straddle the end are
    cut down to ``depth``."""
    if depth <= 7:
        return draw(_window(hull))
    h0, h1 = hull
    width = (h1 - h0) * draw(st.floats(0.1, 2.0))
    inside = width * draw(st.floats(0.0, 1.0)) * 3.0 ** (7 - depth)
    if draw(st.booleans()):
        return h1 - inside, h1 - inside + width
    return h0 + inside - width, h0 + inside


@settings(max_examples=300, deadline=None)
@given(data=st.data(), base=_any_set(), wraps=st.lists(
    st.one_of(st.tuples(st.just("scale"), st.floats(0.25, 4.0)),
              st.tuples(st.just("translate"), st.floats(-2.0, 2.0))),
    max_size=3), depth=st.integers(0, 12))
def test_box_counts_resume_as_if_each_box_walked_from_the_top(
        data, base, wraps, depth):
    # every spec kind, plain and wrapped: a box inside an interval is
    # counted with its descendants, unvisited, as if each were walked
    spec = base
    for kind, value in wraps:
        spec = Scale(spec, value) if kind == "scale" else Translate(spec, value)
    a, b = data.draw(_deep_window(spec.hull(), depth))
    want = _box_counts_from_the_top(spec, a, b, depth)
    if a == b:
        want = [want[0]] * (depth + 1)
    assert box_counts(spec, a, b, depth) == want


def test_a_box_count_too_deep_to_finish_refuses_within_a_second():
    # depth 34 on the middle-thirds set would visit some 3 * 2^34 boxes,
    # for about a day and a half; the visit cap stops it, naming max_depth
    for count in (box_counts, box_dimension):
        start = time.process_time()
        with pytest.raises(ResolutionExceeded, match="max_depth 34"):
            count(C, 0.0, 1.0, 34)
        assert time.process_time() - start < 1.0
    assert box_counts(C, 0.0, 1.0, 12) == [
        1, 3, 8, 18, 38, 78, 158, 318, 638, 1278, 2558, 5118, 10238]


def test_box_counts_visit_no_box_inside_an_interval(monkeypatch):
    calls = []
    walk = FullInterval._walk
    monkeypatch.setattr(FullInterval, "_walk", lambda self, *args: (
        calls.append(args) or walk(self, *args)))
    spec = FullInterval(0.0, 1.0)
    assert box_counts(spec, 0.0, 1.0, 12) == [3 ** k for k in range(13)]
    assert calls == []
    # past an end, only the boxes that straddle it are visited
    spec = Affine(spec, 2.0, 0.5)
    want = _box_counts_from_the_top(spec, 0.0, 3.0, 12)
    assert box_counts(spec, 0.0, 3.0, 12) == want
    assert 0 < len(calls) <= 3 * 2 * 13


def test_box_counts_resume_at_the_edge_of_the_slack():
    # the window's lower end lies 0.8 of the walk's slack past the piece
    # end 8/9 of F, so whether a box meets F turns on the last bits of its
    # ends: a box resumed in its parent's frame must have the very ends a
    # walk from the top maps
    spec = Translate(Scale(Scale(C, 0.3), 0.3), 1.0)
    want = _box_counts_from_the_top(spec, 1.08, 1.09, 6)
    assert box_counts(spec, 1.08, 1.09, 6) == want
    # a window that unwrapping rounds to a point is still cut in three
    spec = Scale(FinitePoints((0.0, 5e-324)), 2.0)
    assert box_counts(spec, 0.0, 5e-324, 1) == [1, 3]


def test_harmonic_separation():
    rep = gamma_dimension(HarmonicCluster(), 0.0, 1.0)
    assert rep.gamma_dim <= 0.15
    assert abs(rep.box_dim - 0.5) <= 0.05


def test_full_interval_dimension():
    rep = gamma_dimension(FullInterval(0.0, 1.0), 0.0, 1.0)
    assert rep.gamma_dim == 1.0
    assert abs(rep.box_dim - 1.0) <= 0.01


def test_finite_points_dimension():
    rep = gamma_dimension(FinitePoints((0.1, 0.6, 0.9)), 0.0, 1.0)
    assert rep.gamma_dim <= 0.05
    assert rep.box_dim == pytest.approx(0.0, abs=0.05)


def test_quarter_set_dimension():
    quarter = GapIFS((0.25, 0.25), (0.0, 0.75))
    rep = gamma_dimension(quarter, 0.0, 1.0)
    assert abs(rep.gamma_dim - 0.5) <= 0.02


def test_scale_invariance():
    base = gamma_dimension(C, 0.0, 1.0).gamma_dim
    half = gamma_dimension(Scale(C, 0.5), 0.0, 0.5).gamma_dim
    assert abs(base - half) <= 0.02


def test_gamma_dimension_rejects_empty_window():
    with pytest.raises(ValueError):
        gamma_dimension(C, 0.4, 0.6, tol=0.02)
    with pytest.raises(ValueError):
        gamma_dimension(C, 0.0, 1.0, tol=0.0)


@settings(max_examples=100, deadline=None)
@given(base=_gap_ifs(), wrap=st.one_of(st.none(), st.tuples(
    st.floats(0.25, 4.0), st.floats(-2.0, 2.0))), tol=st.floats(0.005, 0.05))
@example(base=GapIFS((0.1674, 0.1844), (0.0, 0.8156)), wrap=None, tol=0.02)
def test_gamma_dimension_brackets_the_similarity_order(base, wrap, tol):
    spec = base if wrap is None else Affine(base, *wrap)
    s = similarity_order(base.ratios)
    rep = gamma_dimension(spec, *spec.hull(), tol=tol, box_depth=4)
    assert rep.gamma_dim == s
    assert rep.bracket == (s, s)
    assert rep.alpha_trace == ((s, "positive"),)


@pytest.mark.parametrize("spec, a, b, order", [
    (C, 1.0 / 3.0, 2.0 / 3.0, similarity_order(C.ratios)),  # a gap's ends
    (C, 0.0, 0.0, similarity_order(C.ratios)),
    (FullInterval(0.0, 1.0), 1.0, 2.0, 1.0),
    (HarmonicCluster(), 0.3, 0.6, 1.0),  # 1/3 and 1/2
    (HarmonicCluster(), -1.0, 0.0, 1.0),  # 0 alone
    (FinitePoints((0.1, 0.6, 0.9)), 0.0, 1.0, 1.0),
])
def test_a_span_that_meets_f_in_isolated_points_has_dimension_0(
        spec, a, b, order):
    # the staircase does not rise there, so the mass is 0 at every order;
    # and F meets [a, b] in finitely many points, of box dimension 0
    rep = gamma_dimension(spec, a, b, box_depth=4)
    assert rep.gamma_dim == 0.0
    assert rep.box_dim == 0.0
    assert rep.alpha_trace == ((order, "zero"),)
    assert rep.bracket == (0.0, 0.0)


@st.composite
def _gap_ifs_near_the_edges(draw):
    """A gap IFS with 2-4 maps whose ratios may lie near 0 and whose
    copies may nearly fill the hull, or touch."""
    m = draw(st.integers(2, 4))
    copies = draw(st.lists(st.one_of(st.floats(0.2, 1.0),
                                     st.floats(1e-300, 1e-6)),
                           min_size=m, max_size=m))
    holes = draw(st.lists(st.one_of(st.floats(0.1, 1.0),
                                    st.floats(1e-15, 1e-9), st.just(0.0)),
                          min_size=m - 1, max_size=m - 1))
    total = sum(copies) + sum(holes)
    ratios = [c / total for c in copies]
    assume(max(ratios) < 1.0)
    offsets = [0.0]
    for r, g in zip(ratios, holes):
        offsets.append(offsets[-1] + r + g / total)
    return GapIFS(tuple(ratios), tuple(offsets))


@settings(max_examples=300, deadline=None)
@given(base=_gap_ifs_near_the_edges(), wrap=st.one_of(st.none(), st.tuples(
    st.floats(0.25, 4.0), st.floats(-2.0, 2.0))))
@example(base=C, wrap=None)
@example(base=GapIFS((1e-300, 0.5), (0.0, 0.5)), wrap=None)
@example(base=GapIFS((0.5, 0.5 - 1e-15), (0.0, 0.5 + 1e-15)), wrap=None)
@example(base=GapIFS((0.5, 0.5), (0.0, 0.5)), wrap=(2.0, -1.0))
def test_the_order_lies_in_the_band_that_counts_as_the_order(base, wrap):
    # gamma_dimension reads one verdict at the order: were its record on
    # either side of it, the dimension would silently read 0
    spec = base if wrap is None else Affine(base, *wrap)
    order = _order(spec)
    assert order == similarity_order(base.ratios)
    assert _backend.measure(spec, order).side == 0


@pytest.mark.parametrize("spec", [
    C, GapIFS((0.4, 0.25), (0.0, 0.75)), HarmonicCluster()])
def test_the_structural_box_dimension_is_near_the_box_count_slope(spec):
    rep = gamma_dimension(spec, 0.0, 1.0)
    assert abs(rep.box_dim - box_dimension(spec, 0.0, 1.0, 12)) <= 0.05


@pytest.mark.parametrize("spec, a, b, want", [
    (HarmonicCluster(), -1.0, 1e-300, 0.5),  # 0 and every 1/n past 1e300
    # the points -1 + 2/n cluster at -1
    (Affine(HarmonicCluster(), 2.0, -1.0), -1.5, -0.9, 0.5),
    (Affine(HarmonicCluster(), 2.0, -1.0), -2.0, -1.0, 0.0),
    (Affine(HarmonicCluster(), 2.0, -1.0), -0.9, 1.0, 0.0),
    (Scale(HarmonicCluster(), 1e-10), 0.0, 1e-12, 0.5),
])
def test_a_harmonic_window_about_0_has_box_dimension_one_half(
        spec, a, b, want):
    rep = gamma_dimension(spec, a, b)
    assert rep.box_dim == want
    assert rep.gamma_dim == 0.0


@settings(max_examples=200, deadline=None)
@given(data=st.data(), base=_gap_ifs(), wrap=st.one_of(st.none(), st.tuples(
    st.floats(0.25, 4.0), st.floats(-2.0, 2.0))))
def test_the_box_dimension_of_a_gap_ifs_is_its_gamma_dimension(
        data, base, wrap):
    spec = base if wrap is None else Affine(base, *wrap)
    a, b = data.draw(_window(spec.hull()))
    assume(spec._isect(a, b))
    rep = gamma_dimension(spec, a, b)
    assert rep.box_dim.hex() == rep.gamma_dim.hex()


@pytest.mark.parametrize("spec, a, b", [
    (C, 0.0, 1.0),
    (Affine(C, 0.5, 0.25), 0.25, 0.75),
    (HarmonicCluster(), 0.0, 1.0),
    (FinitePoints((0.1, 0.6, 0.9)), 0.0, 1.0),
    (FullInterval(0.0, 1.0), 0.0, 1.0),
])
def test_gamma_dimension_counts_no_boxes(monkeypatch, spec, a, b):
    calls = []
    monkeypatch.setattr(dimension, "box_counts",
                        lambda *args, **kwargs: calls.append(args))
    gamma_dimension(spec, a, b)
    assert calls == []


@pytest.mark.parametrize("box_depth", [0, -1, 1.0, 8.0, True, False, "8"])
def test_box_depth_must_be_an_int_of_at_least_1(box_depth):
    with pytest.raises(ValueError, match="box_depth"):
        gamma_dimension(C, 0.0, 1.0, box_depth=box_depth)


def test_neither_tol_nor_box_depth_moves_the_report():
    for spec in (C, HarmonicCluster(), FinitePoints((0.1, 0.6))):
        want = gamma_dimension(spec, 0.0, 1.0)
        for tol, depth in ((0.001, 1), (0.49, 2), (0.02, 40)):
            assert gamma_dimension(spec, 0.0, 1.0, tol=tol,
                                   box_depth=depth) == want


def test_similarity_order():
    assert similarity_order((1.0 / 3.0, 1.0 / 3.0)) == pytest.approx(
        ALPHA, abs=1e-12
    )
    assert similarity_order((0.25, 0.25)) == pytest.approx(0.5, abs=1e-12)
    s = similarity_order((0.4, 0.25))
    assert 0.4 ** s + 0.25 ** s == pytest.approx(1.0, abs=1e-12)
    assert similarity_order((0.5, 0.5)) == 1.0
    with pytest.raises(ValueError):
        similarity_order((1.5,))


def _similarity_order_200_steps(ratios):
    """similarity_order's bisection run for all of its 200 steps."""
    ratios = [float(r) for r in ratios]

    def total(s):
        return sum(r ** s for r in ratios)

    lo, hi = 0.0, 1.0
    if total(hi) >= 1.0:
        return 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if total(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                          exclude_max=True), min_size=1, max_size=5))
@example([1.0 / 3.0, 1.0 / 3.0])
@example([0.5, 0.5])
@example([0.25, 0.25])
@example([1e-300, 0.5])
@example([5e-324])
@example([0.9999999999999999, 0.9999999999999999])
@example([0.3])  # one ratio: the root is 0, so the result is 2^-201
@example([0.5, 0.5 - 1e-12])  # ratios summing to 1 - 1e-12
@example([0.25, 3e-300])  # a ratio near 1e-300
# a root so flat that the band reaches far below 0, where r ** s overflows
@example([1.1141477230054785e-305, 8.928458087172224e-157,
          0.9999999999999998])
def test_similarity_order_stops_early_with_the_same_bits(ratios):
    got = similarity_order(ratios)
    want = _similarity_order_200_steps(ratios)
    assert got.hex() == want.hex()
    # the memo hands back the bits of the uncached core, however the
    # ratios come and however often
    bare = dimension._similarity_order.__wrapped__(
        tuple(float(r) for r in ratios))
    assert bare.hex() == want.hex()
    for arg in (ratios, list(ratios), tuple(ratios)):
        assert similarity_order(arg).hex() == bare.hex()


@pytest.mark.parametrize("ratios", [(1.5,), (0.5, math.nan), ()])
def test_a_refused_ratio_tuple_is_refused_again_and_not_kept(ratios):
    kept = dimension._similarity_order.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="ratios"):
            similarity_order(ratios)
    assert dimension._similarity_order.cache_info().currsize == kept


def test_each_ratio_tuple_is_solved_once(monkeypatch, capsys):
    order = similarity_order(C.ratios)
    calls = []
    band = dimension._uncertain_band
    monkeypatch.setattr(dimension, "_uncertain_band",
                        lambda ratios: calls.append(ratios) or band(ratios))
    dimension._similarity_order.cache_clear()
    for k in range(10):
        spec = TernaryCantor() if k % 2 == 0 else Affine(
            TernaryCantor(), 0.5 + k, k - 5.0)
        assert gamma_dimension(spec, *spec.hull()).gamma_dim == order
    assert len(calls) == 1
    # --alpha auto and gamma_dimension read the one order
    dimension._similarity_order.cache_clear()
    calls.clear()
    assert cli.main(["dimension"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_the_order_memo_keeps_at_most_64_tuples():
    for k in range(100):
        similarity_order((0.2 + k / 1000.0, 0.3))
    assert dimension._similarity_order.cache_info().currsize <= 64
