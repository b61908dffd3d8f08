"""Dimension estimators: order-jump bisection and box counting."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from falpha.cantor import ALPHA
from falpha.dimension import (
    box_counts,
    box_dimension,
    gamma_dimension,
    similarity_order,
)
from falpha.sets import (
    FinitePoints,
    FullInterval,
    GapIFS,
    HarmonicCluster,
    Scale,
    TernaryCantor,
)

C = TernaryCantor()


def test_cantor_gamma_dimension():
    rep = gamma_dimension(C, 0.0, 1.0)
    assert abs(rep.gamma_dim - ALPHA) <= 0.02
    assert rep.bracket[0] <= rep.gamma_dim <= rep.bracket[1]
    assert rep.alpha_trace  # the probe history is reported


def test_cantor_box_dimension():
    assert abs(box_dimension(C, 0.0, 1.0) - ALPHA) <= 0.03


def test_box_counts_cantor():
    counts = box_counts(C, 0.0, 1.0, max_depth=6)
    # each of the 2^k pieces fills one closed box; gap-adjacent boxes that
    # share an endpoint with a piece also count, but no more than that
    for k in range(7):
        assert 2 ** k <= counts[k] <= 3 * 2 ** k


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
def test_similarity_order_stops_early_with_the_same_bits(ratios):
    got = similarity_order(ratios)
    want = _similarity_order_200_steps(ratios)
    assert got.hex() == want.hex()
