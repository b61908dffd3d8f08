"""Mass functions and the integral staircase."""

import importlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from falpha.cantor import ALPHA, GAMMA_ALPHA1
from falpha.dimension import gamma_dimension, similarity_order
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
from falpha.sets import (
    FinitePoints,
    FullInterval,
    GapIFS,
    Interval,
    Subdivision,
    TernaryCantor,
    net,
)

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
    # just below the similarity order (about 0.612) there is no closed
    # form, so every value comes from the delta ladder
    alpha = 0.61
    stair = StaircaseEvaluator(ASYM, alpha)
    h0, h1 = ASYM.hull()
    assert stair.value(math.inf) == stair.value(h1)
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
    mass_module = importlib.import_module("falpha.mass")
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
