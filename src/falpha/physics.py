"""Two worked models on fractal supports.

Diffusion with fractal time support: the density is a Gaussian in x whose
variance is the time staircase, and the staircase-quotient time derivative
must match half the second space derivative wherever the time support is
hit.  Friction supported on a fractal medium: the velocity drops by the
staircase increment times the friction coefficient, and the travel time is
an ordinary quadrature of 1/v that is exact across gaps (where v is
constant) and adaptive on stretches touching the medium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from falpha.calculus import FOnF, _check_tol, derivative, integrate
from falpha.mass import StaircaseEvaluator
from falpha.sets import Interval, _reject_nan, gaps

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
    stair: StaircaseEvaluator = None

    def __post_init__(self):
        if self.stair is None:
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
    stair: StaircaseEvaluator = None

    def __post_init__(self):
        if self.v0 <= 0.0:
            raise ValueError("initial velocity must be positive")
        if (self.kappa is None) == (self.k is None):
            raise ValueError("give exactly one of kappa or k")
        if self.kappa is not None and not self.kappa >= 0.0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa!r}")
        if self.stair is None:
            self.stair = StaircaseEvaluator(self.medium_set, self.alpha,
                                            a0=self.x0)


def friction_velocity(params, x):
    """Velocity after sliding from x0 to x through the fractal medium."""
    if x < params.x0:
        raise ValueError("x must be at least x0")
    if params.kappa is not None:
        # uniform coefficient: the drop is kappa times the staircase rise
        return params.v0 - params.kappa * (
            params.stair(x) - params.stair(params.x0)
        )
    drop = integrate(params.k, params.stair, params.x0, x, tol=1e-6).value
    return params.v0 - drop


def _adaptive_simpson(fn, a, b, tol, depth=0, max_depth=24, fa=None, fm=None,
                      fb=None):
    m = (a + b) / 2.0
    if fa is None:
        fa = fn(a)
    if fm is None:
        fm = fn(m)
    if fb is None:
        fb = fn(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    lm = (a + m) / 2.0
    rm = (m + b) / 2.0
    flm = fn(lm)
    frm = fn(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth >= max_depth or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (
        _adaptive_simpson(fn, a, m, tol / 2.0, depth + 1, max_depth, fa, flm, fm)
        + _adaptive_simpson(fn, m, b, tol / 2.0, depth + 1, max_depth, fm, frm, fb)
    )


def time_of_flight(params, x, tol=1e-9):
    """Travel time from x0 to x: quadrature of 1/v, exact on gaps of the
    medium (v constant there), adaptive elsewhere.  A velocity at or below
    1e-9 * v0 raises Stall."""
    _check_tol(tol)
    _reject_nan("x", x)
    x0 = params.x0
    if x < x0:
        raise ValueError("x must be at least x0")
    if x == x0:
        return 0.0
    v_floor = 1e-9 * params.v0
    elapsed = 0.0

    def inv_v(p):
        v = friction_velocity(params, p)
        if v <= v_floor:
            raise Stall(p, elapsed)
        return 1.0 / v

    # carve [x0, x] at gap endpoints; v is constant inside each gap
    cuts = {x0, x}
    gap_spans = []
    for g in gaps(params.medium_set, Interval(x0, x), min_len=(x - x0) / 512.0):
        lo = max(g.lo, x0)
        hi = min(g.hi, x)
        if hi > lo:
            gap_spans.append((lo, hi))
            cuts.add(lo)
            cuts.add(hi)
    pts = sorted(cuts)
    gap_spans.sort()
    for u, v in zip(pts, pts[1:]):
        is_gap = any(lo <= u and v <= hi for lo, hi in gap_spans)
        if is_gap:
            elapsed += (v - u) * inv_v((u + v) / 2.0)
        else:
            elapsed += _adaptive_simpson(inv_v, u, v, tol * (v - u) / (x - x0))
    return elapsed
