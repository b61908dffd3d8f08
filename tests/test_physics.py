"""Fractal-time diffusion and friction in a fractal medium."""

import math
import random

import pytest

from falpha.cantor import ALPHA, GAMMA_ALPHA1
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
)
from falpha.sets import (
    FinitePoints,
    FullInterval,
    Interval,
    TernaryCantor,
    net,
)

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


def test_friction_param_validation():
    with pytest.raises(ValueError):
        FrictionParams(C, ALPHA, v0=0.0, kappa=0.5)
    with pytest.raises(ValueError):
        FrictionParams(C, ALPHA, v0=1.0)  # neither kappa nor k
    with pytest.raises(ValueError, match="kappa"):
        FrictionParams(C, ALPHA, v0=1.0, kappa=-5.0)
    p = FrictionParams(C, ALPHA, v0=1.0, kappa=0.5)
    with pytest.raises(ValueError):
        friction_velocity(p, -1.0)
    with pytest.raises(ValueError, match="tol"):
        time_of_flight(p, 0.5, tol=0.0)


def test_time_of_flight_rejects_nan():
    p = FrictionParams(C, ALPHA, v0=1.0, kappa=0.5)
    with pytest.raises(ValueError, match="x must not be NaN"):
        time_of_flight(p, math.nan)


def test_stall():
    p = FrictionParams(C, ALPHA, v0=0.5, x0=0.0, kappa=1.0)
    with pytest.raises(Stall) as info:
        time_of_flight(p, 1.0)
    assert 0.0 < info.value.position < 1.0
    assert info.value.elapsed > 0.0
