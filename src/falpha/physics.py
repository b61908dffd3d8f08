"""Two worked models on fractal supports.

Diffusion with fractal time support: the density is a Gaussian in x whose
variance is the time staircase, and the staircase-quotient time derivative
must match half the second space derivative wherever the time support is
hit.  Friction supported on a fractal medium: the velocity drops by the
staircase increment times the friction coefficient, and the travel time,
the integral of 1/v, is bracketed by the walk down the construction pieces
that brackets the staircase-weighted integral.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from falpha.calculus import (FOnF, _bracket, _check_tol, derivative,
                             integrate)
from falpha.mass import StaircaseEvaluator
from falpha.sets import _reject_nan

__all__ = [
    "DiffusionParams",
    "FrictionParams",
    "DegenerateTime",
    "Stall",
    "diffusion_density",
    "diffusion_variance",
    "diffusion_residual",
    "friction_velocity",
    "time_of_flight",
]

# space step of the central second difference in ``diffusion_residual``
_H_X = 1e-3


class DegenerateTime(ArithmeticError):
    """The time staircase is still zero: the density is the initial spike."""


class Stall(ArithmeticError):
    """Velocity fell below the floor; the particle never arrives."""

    def __init__(self, position, elapsed):
        super().__init__(f"velocity stalled at x={position}")
        self.position = position
        self.elapsed = elapsed


@dataclass
class DiffusionParams:
    time_set: object
    alpha: float
    stair: StaircaseEvaluator = field(init=False)

    def __post_init__(self):
        self.stair = StaircaseEvaluator(self.time_set, self.alpha, a0=0.0)


def diffusion_variance(params, t):
    """The variance of the spreading density: the time staircase at t."""
    return params.stair(t)


def diffusion_density(params, x, t):
    """Gaussian density in x with variance equal to the time staircase."""
    s = params.stair(t)
    if s <= 0.0:
        raise DegenerateTime(f"staircase is zero at t={t}")
    return math.exp(-x * x / (2.0 * s)) / math.sqrt(2.0 * math.pi * s)


def diffusion_residual(params, x, t, tol=1e-3):
    """Residual of the evolution identity at (x, t): the staircase-quotient
    time derivative of the density minus chi(t)/2 times the central second
    x-difference."""
    stair = params.stair
    if x == 0.0:
        raise ValueError("residual needs x != 0 (the density peaks at 0 as "
                         "the variance vanishes)")

    def w_of_t(tau):
        s = params.stair(tau)
        if s <= 0.0:
            return 0.0  # limit of the density at fixed x != 0
        return diffusion_density(params, x, tau)

    lhs = derivative(FOnF.net_sampled(w_of_t), stair, t, tol=tol).value
    if stair.spec._isect(t, t):
        w0 = diffusion_density(params, x, t)
        wp = diffusion_density(params, x + _H_X, t)
        wm = diffusion_density(params, x - _H_X, t)
        rhs = 0.5 * (wp + wm - 2.0 * w0) / (_H_X * _H_X)
    else:
        rhs = 0.0
    return lhs - rhs


@dataclass
class FrictionParams:
    medium_set: object
    alpha: float
    v0: float
    x0: float = 0.0
    kappa: float = None     # uniform friction coefficient on the medium
    k: FOnF = None          # or a general coefficient on the medium
    stair: StaircaseEvaluator = field(init=False)

    def __post_init__(self):
        if self.v0 <= 0.0:
            raise ValueError("initial velocity must be positive")
        if (self.kappa is None) == (self.k is None):
            raise ValueError("give exactly one of kappa or k")
        if self.kappa is not None and not self.kappa >= 0.0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa!r}")
        self.stair = StaircaseEvaluator(self.medium_set, self.alpha,
                                        a0=self.x0)


def friction_velocity(params, x):
    """Velocity after sliding from x0 to x through the fractal medium."""
    if x < params.x0:
        raise ValueError("x must be at least x0")
    if params.kappa is not None:
        # uniform coefficient: kappa times the staircase rise from x0
        return params.v0 - params.kappa * params.stair(x)
    drop = integrate(params.k, params.stair, params.x0, x, tol=1e-6).value
    return params.v0 - drop


def time_of_flight(params, x, tol=1e-9):
    """Travel time from x0 to x: the midpoint of a bracket, at most tol
    wide, of the integral of 1/v by a walk down the construction pieces
    of the medium.  A gap costs its length over v.  Under a uniform kappa
    1/v is convex in S, so a whole piece costs between L / (v_c - (v_c -
    v_d) m) (Jensen) and L ((1 - m) / v_c + m / v_d) (the chord), with m
    the mean of its rescaled staircase; a clipped piece, or any piece
    under a general k, between L / v_c and L / v_d.  If v(x) <= 1e-9 v0,
    Stall is raised at the point where v falls to that floor, found by
    bisection, with the walk's lower bound on the time to reach it."""
    _check_tol(tol)
    _reject_nan("x", x)
    x0 = params.x0
    if x < x0:
        raise ValueError("x must be at least x0")
    vel = functools.cache(lambda p: friction_velocity(params, p))
    rec = params.stair.measure
    m = None if rec is None or params.kappa is None else 1.0 - rec.mean

    def bound(u, v, whole):
        vc, vd = vel(u), vel(v)
        if whole and m is not None:
            return ((v - u) * ((1.0 - m) / vc + m / vd),
                    (v - u) / (vc - (vc - vd) * m))
        return ((v - u) / min(vc, vd), (v - u) / max(vc, vd))

    def walk(b):
        return _bracket(rec, x0, b, tol, bound,
                        lambda u, v: (v - u) / vel(u))

    v_floor = 1e-9 * params.v0
    if vel(x) <= v_floor:
        lo, hi = x0, x
        while lo < (mid := (lo + hi) / 2.0) < hi:
            lo, hi = (lo, mid) if vel(mid) <= v_floor else (mid, hi)
        raise Stall(hi, walk(lo)[0])
    lower, upper, _, _ = walk(x)
    return (lower + upper) / 2.0
