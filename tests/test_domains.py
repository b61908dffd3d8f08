"""One rule for the numeric arguments of the package's public callables.

``DOMAINS`` has a row for each numeric parameter of every callable that
``falpha`` exports, and of ``box_counts``, whose depth sizes a list: the
callable, the parameter as a refusal names it, the parameter's domain,
and a valid call that takes the parameter's value.  Drawn from NaN, the
infinities, zeros, negatives, bools, non-integers and huge values (ints
up to 2^64, floats up to the largest), each call does one of three
things:

* it returns a finite result: every number it holds, down through
  tuples, lists and record fields, is finite;
* it returns an infinity that the row documents (``inf=True``); or
* it raises a ValueError whose message names the parameter.

A value outside the domain must take the third way.  A value inside it
may also raise an ArithmeticError that the callable documents, such as
``DegenerateTime`` where the time staircase is still 0; the row lists
those.  Each call runs in process under a time bound.  A row marked
``sizes`` takes no huge value: that value is the length of what the
caller asks to be built.
"""

import functools
import math
import re
import signal
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from falpha import (
    ALPHA, Affine, DiffusionParams, DimensionReport, FinitePoints, FOnF,
    FrictionParams, FullInterval, GapIFS, HarmonicCluster, IntegralResult,
    Interval, MassEstimate, Scale, StaircaseEvaluator, Subdivision,
    TernaryCantor, Translate, box_dimension, cantor_staircase_exact,
    check_f_continuity, coarse_mass, derivative, diffusion_density,
    diffusion_residual, diffusion_variance, friction_velocity, g_series,
    gamma_dimension, gaps, integrate, is_point_of_change, mass, net,
    power_rule_derivative, power_rule_integral, sigma_alpha, similarity_order,
    spec_from_json, staircase_power_bounds, time_of_flight,
    verify_scaling_translation)
from falpha.calculus import NoConvergence
from falpha.dimension import box_counts
from falpha.mass import DivergingMass
from falpha.physics import DegenerateTime
from falpha.sets import Record

C = TernaryCantor()
UNIT = Interval(0.0, 1.0)
# seconds a call may take before the test calls it a hang
_TIME_BOUND = 10.0


class Domain(NamedTuple):
    text: str
    holds: Callable


def int_in(least, most=math.inf):
    return Domain(f"an int in [{least}, {most}]",
                  lambda v: (isinstance(v, int) and not isinstance(v, bool)
                             and least <= v <= most))


def positive(most=math.inf):
    return Domain(f"(0, {most}]", lambda v: 0.0 < v <= most)


def finite(least=-math.inf):
    return Domain(f"finite, at least {least}",
                  lambda v: math.isfinite(v) and v >= least)


def at_least(least):
    return Domain(f"at least {least}", lambda v: v >= least)


NUMBER = at_least(-math.inf)  # any number but NaN
FINITE = finite()
RATIO = Domain("(0, 1)", lambda v: 0.0 < v < 1.0)
UNIT_X = Domain("[0, 1]", lambda v: -1e-12 <= v <= 1.0 + 1e-12)
NONZERO = Domain("a number but 0 or NaN", lambda v: v == v and v != 0.0)


class Row(NamedTuple):
    callable: str
    param: str
    domain: Domain
    call: Callable
    inf: bool = False
    raises: tuple = ()
    sizes: bool = False


@functools.cache
def _stair():
    return StaircaseEvaluator(C, ALPHA)


@functools.cache
def _diffusion():
    return DiffusionParams(C, ALPHA)


@functools.cache
def _flight():
    return FrictionParams(C, ALPHA, v0=1.0, kappa=0.5)


def _identity():
    return FOnF.monotone(lambda x: x)


def _continuity(x=0.0, eps_ladder=(0.1,)):
    # the witness is NaN where there is none: the verdict is the answer
    return check_f_continuity(lambda y: y, C, x, eps_ladder).ok


DOMAINS = [
    # sets
    Row("Interval", "lo", NUMBER, lambda v: Interval(v, 1.0), inf=True),
    Row("Interval", "hi", NUMBER, lambda v: Interval(0.0, v), inf=True),
    Row("Subdivision", "points", FINITE,
        lambda v: Subdivision((0.0, 0.5, v))),
    Row("Subdivision.uniform", "a", FINITE,
        lambda v: Subdivision.uniform(v, 1.0, 4)),
    Row("Subdivision.uniform", "b", FINITE,
        lambda v: Subdivision.uniform(0.0, v, 4)),
    Row("Subdivision.uniform", "n", int_in(1),
        lambda v: Subdivision.uniform(0.0, 1.0, v), sizes=True),
    Row("GapIFS", "ratios", RATIO, lambda v: GapIFS((v, 0.25), (0.0, 0.75))),
    Row("GapIFS", "offsets", FINITE,
        lambda v: GapIFS((0.4, 0.25), (v, 0.75))),
    Row("FinitePoints", "points", FINITE,
        lambda v: FinitePoints((-1.0, v))),
    Row("FullInterval", "lo", FINITE, lambda v: FullInterval(v, 1.0)),
    Row("FullInterval", "hi", FINITE, lambda v: FullInterval(0.0, v)),
    Row("Affine", "scale", Domain("(0, inf)", lambda v: 0.0 < v < math.inf),
        lambda v: Affine(C, v, 0.0)),
    Row("Affine", "shift", FINITE, lambda v: Affine(C, 1.0, v)),
    Row("Scale", "factor", finite(0.0), lambda v: Scale(C, v)),
    Row("Translate", "shift", FINITE, lambda v: Translate(C, v)),
    Row("spec_from_json", "scale", finite(0.0),
        lambda v: spec_from_json({"type": "cantor", "scale": v})),
    Row("spec_from_json", "translate", FINITE,
        lambda v: spec_from_json({"type": "cantor", "translate": v})),
    Row("gaps", "min_len", positive(), lambda v: gaps(C, UNIT, v)),
    Row("net", "level", int_in(0, 16), lambda v: net(C, v, UNIT)),
    Row("net on a finite set", "level", int_in(0, 16),
        lambda v: net(FinitePoints((0.1, 0.5)), v, UNIT)),
    Row("net", "limit", at_least(0), lambda v: net(C, 2, UNIT, v)),
    Row("is_point_of_change", "x", NUMBER,
        lambda v: is_point_of_change(_stair(), v, 1e-6)),
    Row("is_point_of_change", "h_min", positive(),
        lambda v: is_point_of_change(_stair(), 0.25, v)),
    # calculus
    Row("FOnF.lipschitz", "bound", finite(0.0),
        lambda v: FOnF.lipschitz(abs, v)),
    Row("integrate", "a", NUMBER,
        lambda v: integrate(_identity(), _stair(), v, 1.0)),
    Row("integrate", "b", NUMBER,
        lambda v: integrate(_identity(), _stair(), 0.0, v)),
    Row("integrate", "tol", positive(),
        lambda v: integrate(_identity(), _stair(), 0.0, 1.0, tol=v)),
    Row("integrate", "max_components", int_in(1),
        lambda v: integrate(_identity(), _stair(), 0.0, 1.0,
                            max_components=v), raises=(NoConvergence,)),
    Row("derivative", "x", NUMBER,
        lambda v: derivative(FOnF.monotone(_stair()), _stair(), v)),
    Row("derivative", "tol", positive(),
        lambda v: derivative(FOnF.monotone(_stair()), _stair(), 0.25, v)),
    Row("derivative", "r0", positive(),
        lambda v: derivative(FOnF.monotone(_stair()), _stair(), 0.25,
                             r0=v)),
    Row("check_f_continuity", "x", NUMBER, lambda v: _continuity(x=v)),
    Row("check_f_continuity", "eps_ladder", positive(),
        lambda v: _continuity(eps_ladder=(v,))),
    # closed forms on the middle-thirds set
    Row("cantor_staircase_exact", "x", UNIT_X, cantor_staircase_exact),
    Row("g_series", "y", UNIT_X, g_series),
    Row("power_rule_derivative", "n", int_in(1),
        lambda v: power_rule_derivative(v, 0.25), raises=(OverflowError,)),
    Row("power_rule_derivative", "x", NUMBER,
        lambda v: power_rule_derivative(2, v)),
    Row("power_rule_integral", "n", int_in(0),
        lambda v: power_rule_integral(v, 0.25), raises=(OverflowError,)),
    Row("power_rule_integral", "x_hi", NUMBER,
        lambda v: power_rule_integral(2, v)),
    Row("staircase_power_bounds", "x", positive(1.0),
        staircase_power_bounds),
    # dimension
    Row("similarity_order", "ratios", RATIO,
        lambda v: similarity_order((v, 1.0 / 3.0))),
    Row("gamma_dimension", "a", NUMBER, lambda v: gamma_dimension(C, v, 1.0)),
    Row("gamma_dimension", "b", NUMBER, lambda v: gamma_dimension(C, 0.0, v)),
    Row("gamma_dimension", "tol", positive(0.5),
        lambda v: gamma_dimension(C, 0.0, 1.0, tol=v)),
    Row("gamma_dimension", "box_depth", int_in(1),
        lambda v: gamma_dimension(C, 0.0, 1.0, box_depth=v)),
    Row("box_counts", "a", NUMBER, lambda v: box_counts(C, v, 1.0, 4)),
    Row("box_counts", "b", NUMBER, lambda v: box_counts(C, 0.0, v, 4)),
    Row("box_counts", "max_depth", int_in(0, 34),
        lambda v: box_counts(C, 0.0, 1.0, v)),
    Row("box_dimension", "a", NUMBER, lambda v: box_dimension(C, v, 1.0, 4)),
    Row("box_dimension", "b", NUMBER, lambda v: box_dimension(C, 0.0, v, 4)),
    Row("box_dimension", "max_depth", int_in(4, 34),
        lambda v: box_dimension(C, 0.0, 1.0, v)),
    # mass and the staircase
    Row("sigma_alpha", "alpha", positive(1.0),
        lambda v: sigma_alpha(C, Subdivision.uniform(0.0, 1.0, 9), v)),
    Row("coarse_mass", "a", NUMBER,
        lambda v: coarse_mass(C, v, 1.0, ALPHA, 0.1)),
    Row("coarse_mass", "b", NUMBER,
        lambda v: coarse_mass(C, 0.0, v, ALPHA, 0.1)),
    Row("coarse_mass", "alpha", positive(1.0),
        lambda v: coarse_mass(C, 0.0, 1.0, v, 0.1)),
    Row("coarse_mass", "delta", positive(),
        lambda v: coarse_mass(C, 0.0, 1.0, ALPHA, v)),
    Row("mass", "a", NUMBER, lambda v: mass(C, v, 1.0, ALPHA), inf=True),
    Row("mass", "b", NUMBER, lambda v: mass(C, 0.0, v, ALPHA), inf=True),
    Row("mass", "alpha", positive(1.0), lambda v: mass(C, 0.0, 1.0, v),
        inf=True),
    Row("StaircaseEvaluator", "alpha", positive(1.0),
        lambda v: StaircaseEvaluator(C, v)(0.5), raises=(DivergingMass,)),
    Row("StaircaseEvaluator", "a0", NUMBER,
        lambda v: StaircaseEvaluator(C, ALPHA, a0=v)(0.5)),
    Row("StaircaseEvaluator.value", "x", NUMBER, lambda v: _stair().value(v)),
    Row("StaircaseEvaluator.values", "x", NUMBER,
        lambda v: _stair().values([0.5, v])),
    Row("StaircaseEvaluator.increment", "u", NUMBER,
        lambda v: _stair().increment(v, 1.0)),
    Row("StaircaseEvaluator.increment", "v", NUMBER,
        lambda v: _stair().increment(0.0, v)),
    Row("verify_scaling_translation", "a", NUMBER,
        lambda v: verify_scaling_translation(C, v, 1.0, ALPHA, 2.0),
        inf=True),
    Row("verify_scaling_translation", "b", NUMBER,
        lambda v: verify_scaling_translation(C, 0.0, v, ALPHA, 2.0),
        inf=True),
    Row("verify_scaling_translation", "alpha", positive(1.0),
        lambda v: verify_scaling_translation(C, 0.0, 1.0, v, 2.0), inf=True),
    Row("verify_scaling_translation", "lam", finite(0.0),
        lambda v: verify_scaling_translation(C, 0.0, 1.0, ALPHA, v)),
    Row("verify_scaling_translation", "shift", FINITE,
        lambda v: verify_scaling_translation(C, 0.0, 1.0, ALPHA, 2.0, v)),
    # physics
    Row("DiffusionParams", "alpha", positive(1.0),
        lambda v: DiffusionParams(C, v).stair(0.5), raises=(DivergingMass,)),
    Row("diffusion_variance", "t", NUMBER,
        lambda v: diffusion_variance(_diffusion(), v)),
    Row("diffusion_density", "x", NUMBER,
        lambda v: diffusion_density(_diffusion(), v, 0.5)),
    Row("diffusion_density", "t", NUMBER,
        lambda v: diffusion_density(_diffusion(), 0.5, v),
        raises=(DegenerateTime,)),
    Row("diffusion_residual", "x", NONZERO,
        lambda v: diffusion_residual(_diffusion(), v, 0.25)),
    Row("diffusion_residual", "t", NUMBER,
        lambda v: diffusion_residual(_diffusion(), 0.5, v),
        raises=(DegenerateTime,)),
    Row("diffusion_residual", "tol", positive(),
        lambda v: diffusion_residual(_diffusion(), 0.5, 0.25, v)),
    Row("FrictionParams", "alpha", positive(1.0),
        lambda v: FrictionParams(C, v, v0=1.0, kappa=0.5)),
    Row("FrictionParams", "v0", Domain("(0, inf)",
                                       lambda v: 0.0 < v < math.inf),
        lambda v: FrictionParams(C, ALPHA, v0=v, kappa=0.5)),
    Row("FrictionParams", "x0", FINITE,
        lambda v: FrictionParams(C, ALPHA, v0=1.0, x0=v, kappa=0.5)),
    Row("FrictionParams", "kappa", finite(0.0),
        lambda v: FrictionParams(C, ALPHA, v0=1.0, kappa=v)),
    Row("friction_velocity", "x", at_least(0.0),
        lambda v: friction_velocity(_flight(), v)),
    Row("time_of_flight", "x", at_least(0.0),
        lambda v: time_of_flight(_flight(), v), inf=True),
    Row("time_of_flight", "tol", positive(),
        lambda v: time_of_flight(_flight(), 1.0, tol=v)),
]

_SPECIAL = [math.nan, math.inf, -math.inf, 0, 0.0, -0.0, True, False]
_HUGE = st.one_of(st.integers(10 ** 9, 2 ** 64),
                  st.floats(1e9, allow_infinity=False))
_SMALL = st.one_of(
    st.sampled_from(_SPECIAL),
    st.integers(-(2 ** 64), -1),
    st.floats(max_value=-0.0, exclude_max=True, allow_infinity=False),
    st.integers(0, 63).map(lambda n: n + 0.5),  # non-integers
)
_BAD = st.one_of(_SMALL, _HUGE)


class _TooSlow(Exception):
    pass


def _bounded(call, value):
    """call(value), raising _TooSlow past _TIME_BOUND seconds; the alarm
    handler in place before is restored."""
    def expire(signum, frame):
        raise _TooSlow(f"no answer in {_TIME_BOUND} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, _TIME_BOUND)
    try:
        return call(value)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def _numbers(obj):
    """The ints and floats that obj holds, down through tuples, lists and
    the fields of records."""
    if isinstance(obj, (int, float)):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _numbers(item)
    elif isinstance(obj, Record):
        for name in obj._fields:
            yield from _numbers(getattr(obj, name))


def test_numbers_reads_the_fields_of_a_result():
    # the rule below checks only what _numbers finds in a result
    assert list(_numbers(IntegralResult(0.25, 0.5, 0.375, 0.25, 3))) == [
        0.25, 0.5, 0.375, 0.25, 3]
    assert list(_numbers(MassEstimate(0.5, math.inf, "diverging"))) == [
        0.5, math.inf, False]
    assert list(_numbers(DimensionReport(
        0.5, 0.25, ((0.5, "positive"),), (0.5, 0.5)))) == [
        0.5, 0.25, 0.5, 0.5, 0.5]


@settings(max_examples=3000, deadline=None)
@given(row=st.sampled_from(DOMAINS), data=st.data())
def test_a_bad_number_is_refused_by_name(row, data):
    value = data.draw(_SMALL if row.sizes else _BAD, label=row.param)
    inside = row.domain.holds(value)
    try:
        result = _bounded(row.call, value)
    except ValueError as err:
        assert re.search(rf"\b{re.escape(row.param)}\b", str(err)), (
            f"{row.callable}({row.param}={value!r}) raised {err!r}, "
            "which does not name the parameter")
        return
    except row.raises:
        assert inside, f"{row.param}={value!r} lies outside {row.domain.text}"
        return
    assert inside, (f"{row.callable} took {row.param}={value!r}, outside "
                    f"{row.domain.text}")
    bad = [x for x in _numbers(result) if not (
        isinstance(x, int) or math.isfinite(x) or row.inf and math.isinf(x))]
    assert not bad, f"{row.callable}({row.param}={value!r}) gave {result!r}"


@pytest.mark.parametrize("call, name", [
    (lambda: derivative(FOnF.monotone(_stair()), _stair(), 0.25,
                        r0=math.nan), "r0"),
    (lambda: derivative(FOnF.monotone(_stair()), _stair(), 0.25, r0=0.0),
     "r0"),
    (lambda: net(FinitePoints((0.1, 0.5)), 2.5, UNIT), "level"),
    (lambda: net(FinitePoints((0.1, 0.5)), -1, UNIT), "level"),
    (lambda: net(FinitePoints((0.1, 0.5)), 99, UNIT), "level"),
    (lambda: box_dimension(C, 0.0, 1.0, 1), "max_depth"),
    (lambda: box_dimension(C, 0.0, 1.0, 2.5), "max_depth"),
    (lambda: box_counts(C, 0.0, 1.0, 10 ** 9), "max_depth"),
    (lambda: box_dimension(C, 0.9, 0.1, 8), "a"),
    (lambda: box_counts(C, 1.0, 0.5, 4), "a"),
    (lambda: gamma_dimension(HarmonicCluster(), 0.5 + 1e-13, 0.5), "a"),
    (lambda: gamma_dimension(C, math.nextafter(1.0 / 3.0, 1.0), 1.0 / 3.0),
     "a"),
    (lambda: diffusion_density(_diffusion(), math.nan, 0.5), "x"),
    (lambda: diffusion_density(_diffusion(), 0.5, math.nan), "t"),
    (lambda: diffusion_residual(_diffusion(), math.nan, 0.5), "x"),
    (lambda: diffusion_residual(_diffusion(), 0.5, math.nan), "t"),
    (lambda: diffusion_variance(_diffusion(), math.nan), "t"),
    (lambda: FrictionParams(C, ALPHA, v0=1.0, x0=math.nan, kappa=0.5), "x0"),
    (lambda: gaps(C, UNIT, min_len=math.nan), "min_len"),
    (lambda: net(C, 3, UNIT, limit=math.nan), "limit"),
    (lambda: net(C, 3, UNIT, limit=-1), "limit"),
    (lambda: verify_scaling_translation(C, 0.0, 1.0, ALPHA, math.nan), "lam"),
    (lambda: check_f_continuity(abs, C, 0.0, eps_ladder=(math.nan,)),
     "eps_ladder"),
    (lambda: power_rule_derivative(2, math.nan), "x"),
    (lambda: power_rule_integral(2, math.nan), "x_hi"),
])
def test_a_mended_case_is_refused_by_name(call, name):
    # each of these hung no call but returned a wrong value, raised
    # another error, or named another parameter
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call()
