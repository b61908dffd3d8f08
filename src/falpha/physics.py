"""Two worked models on fractal supports.

Diffusion with fractal time support: the density is a Gaussian in x whose
variance is the time staircase, and the staircase-quotient time derivative
must match half the second space derivative wherever the time support is
hit.  Friction supported on a fractal medium: the velocity drops by the
staircase increment times the friction coefficient, and the travel time,
the integral of 1/v, is bracketed by the walk down the construction pieces
that brackets the staircase-weighted integral.  Under a uniform
coefficient every whole piece carries the same rescaled staircase s, so
its time is a series in the Lebesgue moments of s, and a partial sum with
a bound on its tail brackets a whole piece at once.  On an interval at
order 1 the staircase is affine on every piece, so the first piece prices
the flight exactly.
"""

import functools
import math

from falpha import _backend
from falpha.calculus import FOnF, _bracket, derivative, integrate
from falpha.mass import StaircaseEvaluator
from falpha.sets import Record, _finite, _positive, _reject_nan

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
# last term q^K M_K of the partial sum that prices a whole piece of a
# flight; M_(K+1) bounds its tail
_SERIES_K = 7


class DegenerateTime(ArithmeticError):
    """The time staircase is still zero: the density is the initial spike."""


class Stall(ArithmeticError):
    """Velocity fell below the floor; the particle never arrives."""

    def __init__(self, position, elapsed):
        super().__init__(f"velocity stalled at x={position}")
        self.position = position
        self.elapsed = elapsed


class DiffusionParams(Record):
    """The time set and order of a diffusion, and ``stair``, which they
    determine: their staircase from the time origin 0, built once."""

    _fields = ("time_set", "alpha")

    def __init__(self, time_set, alpha):
        self.__dict__.update(time_set=time_set, alpha=alpha,
                             stair=StaircaseEvaluator(time_set, alpha))


def diffusion_variance(params, t):
    """The variance of the spreading density: the time staircase at t."""
    _reject_nan("t", t)
    return params.stair(t)


def _gaussian(x, s):
    """The centred Gaussian density at x with variance s > 0."""
    return math.exp(-x * x / (2.0 * s)) / math.sqrt(2.0 * math.pi * s)


def diffusion_density(params, x, t):
    """Gaussian density in x with variance equal to the time staircase."""
    _reject_nan("x", x)
    _reject_nan("t", t)
    return _density(params, x, t)


def _density(params, x, t):
    """``diffusion_density`` past its guards."""
    s = params.stair(t)
    if s <= 0.0:
        raise DegenerateTime(f"staircase is zero at t={t}")
    return _gaussian(x, s)


def diffusion_residual(params, x, t, tol=1e-3):
    """Residual of the evolution identity at (x, t): the staircase-quotient
    time derivative of the density minus chi(t)/2 times the central second
    x-difference."""
    _reject_nan("x", x)
    _reject_nan("t", t)
    stair = params.stair
    if x == 0.0:
        raise ValueError("residual needs x != 0 (the density peaks at 0 as "
                         "the variance vanishes)")

    def w_of_t(tau):
        s = stair(tau)
        # limit of the density at fixed x != 0 where the variance is 0
        return 0.0 if s <= 0.0 else _gaussian(x, s)

    lhs = derivative(FOnF.net_sampled(w_of_t), stair, t, tol=tol).value
    if stair.spec._isect(t, t):
        w0, wp, wm = (_density(params, y, t) for y in (x, x + _H_X, x - _H_X))
        rhs = 0.5 * (wp + wm - 2.0 * w0) / (_H_X * _H_X)
    else:
        rhs = 0.0
    return lhs - rhs


class FrictionParams(Record):
    """A medium and its order, the start velocity v0 and position x0, and
    one friction coefficient on the medium: a uniform ``kappa``, or a
    general ``k`` (an FOnF); and their staircase ``stair`` from x0."""

    _fields = ("medium_set", "alpha", "v0", "x0", "kappa", "k")

    def __init__(self, medium_set, alpha, v0, x0=0.0, kappa=None, k=None):
        # NaN or inf would pass the sign checks and stall or poison the
        # flight, so each is refused by name
        _positive("v0", _finite("v0", v0))
        _finite("x0", x0)
        if (kappa is None) == (k is None):
            raise ValueError("give exactly one of kappa or k")
        if kappa is not None:
            _finite("kappa", kappa, 0.0)
        self.__dict__.update(
            medium_set=medium_set, alpha=alpha, v0=v0, x0=x0, kappa=kappa,
            k=k, stair=StaircaseEvaluator(medium_set, alpha, a0=x0))


def friction_velocity(params, x):
    """Velocity after sliding from x0 to x through the fractal medium."""
    if not x >= params.x0:  # NaN included
        raise ValueError(f"x must be at least x0, got {x!r}")
    if params.kappa is not None:
        # uniform coefficient: kappa times the staircase rise from x0
        return params.v0 - params.kappa * params.stair(x)
    drop = integrate(params.k, params.stair, params.x0, x, tol=1e-6).value
    return params.v0 - drop


def _whole_piece(length, vc, vd, moments):
    """(upper, lower) on the time to cross a whole piece of the medium
    under a uniform kappa, at velocity vc at its start and vd at its end.
    There v = vc (1 - q s) with q = (vc - vd) / vc and s the rescaled
    staircase, so the time is (length / vc) sum_k q^k M_k over the Lebesgue
    ``moments`` M_k of s.  Its partial sum to K = len(moments) - 2 is a
    lower bound; M_k does not increase with k, so the tail adds at most
    q^(K+1) M_(K+1) / (1 - q).  That bracket is intersected with Jensen,
    length / (vc - (vc - vd) M_1), and the chord, length ((1 - M_1) / vc
    + M_1 / vd), which 1/v convex in s gives, and which are the tighter
    as q nears 1."""
    m = moments[1]
    chord = length * ((1.0 - m) / vc + m / vd)
    jensen = length / (vc - (vc - vd) * m)
    q, qk, part = (vc - vd) / vc, 1.0, 0.0
    for mk in moments[:-1]:
        part += qk * mk
        qk *= q
    unit = length / vc
    # clamped so that float rounding cannot leave [jensen, chord]
    lower = max(jensen, min(unit * part, chord))
    tail = qk * moments[-1] / (1.0 - q)
    upper = max(lower, min(chord, unit * (part + tail)))
    return (upper, lower)


def time_of_flight(params, x, tol=1e-9):
    """Travel time from x0 to x: the midpoint of a bracket, at most tol
    wide, of the integral of 1/v by the walk of ``calculus._bracket``,
    which reads S at piece ends from the pieces.  A gap costs its length
    over v.  Under a uniform kappa a whole piece is priced by the moment
    series of ``_whole_piece``, so it closes at once unless v nearly
    stalls across it; a clipped piece, or any piece under a general k,
    costs between L / v_c and L / v_d.  Where S is affine (an interval at
    order 1), every piece costs exactly L log1p(d / v_d) / d with
    d = v_c - v_d (L / v_c if d = 0).  If v(x) <= 1e-9 v0, Stall is
    raised at the point where v falls to that floor, found by bisection,
    with the walk's lower bound on the time to reach it.  An x of inf
    takes the time inf."""
    _positive("tol", tol)
    _reject_nan("x", x)
    x0 = params.x0
    if x < x0:
        raise ValueError("x must be at least x0")
    stair, kappa = params.stair, params.kappa
    vel = functools.partial(friction_velocity, params)
    if kappa is None:
        # adjacent pieces share ends, and each velocity is an integral
        vel = functools.cache(vel)
    rec = stair.measure
    uniform = rec is not None and kappa is not None
    affine = uniform and all(p == r for _, r, _, _, p in rec.table)
    # only a walk at the order prices whole pieces: above it S is flat,
    # and below it S diverges wherever F has a whole piece
    moments = (_backend.lebesgue_moments(rec, _SERIES_K + 1)
               if uniform and rec.side == 0 and not affine else None)

    def speed(p, s):  # S at p is s; a general k integrates from x0 again
        return vel(p) if kappa is None else params.v0 - kappa * s

    def bound(u, v, su, sv, whole):
        vc, vd = speed(u, su), speed(v, sv)
        if affine:
            d = vc - vd
            t = (v - u) * math.log1p(d / vd) / d if d else (v - u) / vc
            return (t, t)
        if whole and moments:
            return _whole_piece(v - u, vc, vd, moments)
        return ((v - u) / min(vc, vd), (v - u) / max(vc, vd))

    def walk(b):
        return _bracket(stair.walk, stair._at, x0, stair(x0), b, stair(b),
                        tol, bound, lambda u, v, s: (v - u) / speed(u, s))

    v_floor = 1e-9 * params.v0
    if vel(x) <= v_floor:
        lo, hi = x0, x
        while lo < (mid := (lo + hi) / 2.0) < hi:
            lo, hi = (lo, mid) if vel(mid) <= v_floor else (mid, hi)
        raise Stall(hi, walk(lo)[0])
    lower, upper, _, _ = walk(x)
    return (lower + upper) / 2.0
