"""Order-alpha mass of a set on an interval, and the integral staircase.

``coarse_mass`` estimates the infimum, over all subdivisions with mesh at
most delta, of the flagged component-length sum.  The estimate exploits
the recursive structure of each spec:

* finite point lists and the harmonic cluster carry no mass: every point
  can be isolated inside an arbitrarily short component, and the cluster
  point 0 is covered together with the tail {1/n : n large} at vanishing
  cost, so the infimum is 0 at every delta;
* a full interval is tiled by components of length exactly delta
  (subadditivity of x^alpha makes fewer, larger components cheaper);
* for a gap IFS, covering recursion: when the copy-length sum
  t = sum(r_i^alpha) is below 1, refining the cover one level multiplies
  its cost by t, so the infimum is 0; when t >= 1, refinement never helps
  and the cheapest admissible cover splits copies only while they exceed
  the mesh bound.  At the similarity order (t = 1) the value is
  width^alpha at every delta.

For a gap IFS other than the middle-thirds set the result is an upper
bound on the true infimum (arbitrary covers could in principle do
better); MassEstimate flags this.

The staircase's closed form on a gap IFS at its order is one descent
down the copies that contain x (``_backend.stair_scaled``), reading the
weights r_i^alpha / sum r_j^alpha from the set's measure record; on point
sets, the interval at order 1 and a gap IFS above its order it is this
cover with no mesh bound (delta = inf), read from -inf.  A wrapped set
shift + scale F is read through ``sets.unwrap``: its coarse mass is
scale^alpha times F's, of a, b and delta mapped into F.

``mass`` reads its verdict from the set's structure.  The mass on [a, b]
jumps from infinite to 0 at the gamma-dimension.  A gap IFS has
interior-disjoint copies, so the open set condition holds: the jump sits
at the similarity order s (sum r_i^s = 1), and H^s(F) > 0 (Hutchinson
1981; Falconer, Thm 9.3).  An interval is the gap IFS of its two halves.
With no measure record (point sets), or above the order (sum r^alpha <
1), the mass is 0.  Otherwise the record's staircase S has all weights
positive, so its measure has support F and no atoms: S(b) > S(a), by one
descent at each end, exactly when F meets (a, b), and a perfect set that
does meets it in infinitely many points.  Where S does not rise the mass
is 0; where it rises, it diverges below the order and is positive at it.
There the mass is the limit of coarse_mass as delta -> 0, and refining a
cover multiplies its cost by sum r_i^s = 1, so coarse_mass does not
depend on delta: the value is the cover with no mesh bound.
"""

import functools
import math

from falpha import _backend
from falpha.sets import (FullInterval, GapIFS, Record, Scale, TernaryCantor,
                         Translate, _finite, _positive, _reject_nan, unwrap)

__all__ = [
    "MassEstimate",
    "StaircaseEvaluator",
    "DivergingMass",
    "sigma_alpha",
    "coarse_mass",
    "mass",
    "staircase",
    "verify_scaling_translation",
    "gamma_factor",
]

# the most values a StaircaseEvaluator keeps, emptied when full: the piece
# ends of a walk to integrate's default 20,000 pieces fit
_CACHE_CAP = 1 << 16


class DivergingMass(ArithmeticError):
    """Raised when a staircase value is requested but the mass diverges."""


def gamma_factor(alpha):
    """Gamma(alpha + 1), the normalization in every mass formula."""
    return math.gamma(alpha + 1.0)


def sigma_alpha(spec, subdivision, alpha):
    """Flagged component-length sum: sum of (dx)^alpha over components
    meeting F, divided by Gamma(alpha + 1)."""
    _positive("alpha", alpha, 1.0)
    total = 0.0
    for u, v in subdivision.components():
        if spec._isect(u, v):
            total += (v - u) ** alpha
    return total / gamma_factor(alpha)


def _tile_cost(length, delta, alpha):
    """Cheapest cover of a stretch where every component touches F."""
    if length <= 0.0:
        return 0.0
    if delta >= length:
        return length ** alpha
    k = math.floor(length / delta + 1e-12)
    rem = length - k * delta
    cost = k * delta ** alpha
    if rem > 1e-15 * length:
        cost += rem ** alpha
    return cost


def _ifs_full(spec, alpha, delta, memo):
    h0, h1 = spec._hull
    width = h1 - h0
    if delta >= width:
        return width ** alpha
    key = round(math.log(delta), 9)
    got = memo.get(key)
    if got is not None:
        return got
    acc = 0.0
    for r in spec.ratios:
        acc += r ** alpha * _ifs_full(spec, alpha, delta / r, memo)
    memo[key] = acc
    return acc


def _ifs_partial(spec, a, b, alpha, delta, memo, scale=1.0):
    h0, h1 = spec._hull
    # an end within the slack of the set queries (1e-15 in global units)
    # of a hull end is that end: a copy end mapped into the copy's frame
    # can land an ulp inside the hull
    eps = 1e-15 / scale
    a = h0 if a <= h0 + eps else a
    b = h1 if b >= h1 - eps else b
    if b - a <= eps:
        # a span within the slack is a point: it has no mass
        return 0.0
    if a <= h0 and b >= h1:
        return _ifs_full(spec, alpha, delta, memo)
    if scale * (b - a) < 1e-13:
        # below float resolution in global coordinates: a span that F
        # misses, by the walk at the global slack, costs nothing, and one
        # that F meets closes out with a tile
        if spec._walk(scale * a, scale * b, 0.0, scale) is None:
            return 0.0
        return _tile_cost(b - a, delta, alpha)
    acc = 0.0
    for o, r, s0, s1, _ in spec._table:
        ov0, ov1 = max(a, s0), min(b, s1)
        if ov1 <= ov0:
            continue
        if ov0 <= s0 and ov1 >= s1:
            acc += r ** alpha * _ifs_full(spec, alpha, delta / r, memo)
        else:
            acc += r ** alpha * _ifs_partial(
                spec, (ov0 - o) / r, (ov1 - o) / r, alpha, delta / r, memo, scale * r
            )
    return acc


def _coarse_scaled(spec, a, b, alpha, delta):
    """Coarse mass estimate times Gamma(alpha + 1).  With no wrapper the
    frame (1.0, 0.0) maps every number, -0.0 and inf too, to itself."""
    lam, t, inner = unwrap(spec)
    a, b, delta = (a - t) / lam, (b - t) / lam, delta / lam
    if b - a <= 0.0 or inner.is_discrete():
        return 0.0
    if isinstance(inner, FullInterval):
        cost = _tile_cost(min(b, inner.hi) - max(a, inner.lo), delta, alpha)
    elif not isinstance(inner, GapIFS):
        raise TypeError(f"unsupported spec {type(inner).__name__}")
    elif _backend.side_of_order(sum([r ** alpha for r in inner.ratios])) < 0:
        # refining one level multiplies the cover cost by sum r^alpha < 1,
        # so the infimum over admissible subdivisions is 0 at every delta
        return 0.0
    else:
        cost = _ifs_partial(inner, a, b, alpha, delta, {})
    return lam ** alpha * cost


def coarse_mass(spec, a, b, alpha, delta):
    """Infimum estimate of the flagged sum over subdivisions of [a, b]
    with mesh <= delta.  A span no wider than the ``eps`` of the set's
    measure record, in the units of its hull, is a point, with no mass,
    as ``mass`` reads it at and above the order."""
    _positive("alpha", alpha, 1.0)
    _reject_nan("a", a)
    _reject_nan("b", b)
    _reject_nan("delta", delta)
    _positive("delta", delta)
    if a > b:
        raise ValueError("need a <= b")
    lam, t, inner = _backend.frame(spec)
    if (isinstance(inner, GapIFS)
            and (b - a) / lam <= _backend.hull_eps(lam, t, inner._hull)):
        return 0.0
    return _coarse_scaled(spec, a, b, alpha, delta) / gamma_factor(alpha)


def _is_upper_bound(spec):
    inner = unwrap(spec)[2]
    return isinstance(inner, GapIFS) and not isinstance(inner, TernaryCantor)


class MassEstimate(Record):
    """The mass of F on [a, b] at order alpha.  The verdict is
    ``diverging`` (value inf) below the order where F meets [a, b] in more
    than a point, else ``converged``: the cover with no mesh bound at the
    order, 0 elsewhere."""

    _fields = ("alpha", "value", "verdict", "upper_bound_only")

    def __init__(self, alpha, value, verdict, upper_bound_only=False):
        self.__dict__.update(alpha=alpha, value=value, verdict=verdict,
                             upper_bound_only=upper_bound_only)

    @property
    def is_infinite(self):
        return math.isinf(self.value)


def _side_of_order(rec, a, b):
    """1 where the mass on [a, b] of the set with the measure record
    ``rec`` diverges, 0 where it is positive and finite, -1 where it is 0:
    the record's side of the order where its staircase rises from a to b,
    else -1."""
    if rec is None or rec.side < 0:
        return -1
    t, lam, eps = rec.shift, rec.scale, rec.eps
    stair = _backend.stair_scaled
    rises = (stair(rec.hull, rec.table, eps, (b - t) / lam)
             > stair(rec.hull, rec.table, eps, (a - t) / lam))
    return rec.side if rises else -1


def mass(spec, a, b, alpha):
    """The mass of F on [a, b] at order alpha, read from the set's
    structure (``_side_of_order``); at the order, the cover with no mesh
    bound."""
    _positive("alpha", alpha, 1.0)
    _reject_nan("a", a)
    _reject_nan("b", b)
    if a > b:
        raise ValueError("need a <= b")
    flag = _is_upper_bound(spec)
    side = _side_of_order(_backend.measure(spec, alpha), a, b)
    if side > 0:
        return MassEstimate(alpha, math.inf, "diverging", flag)
    value = coarse_mass(spec, a, b, alpha, math.inf) if side == 0 else 0.0
    return MassEstimate(alpha, value, "converged", flag)


def _closed_form(spec, alpha, rec):
    """(x -> Gamma(alpha+1) * mass of (-inf, x], unit) where a closed form
    applies, else (None, None): the staircase descent on the measure
    record ``rec`` of a gap IFS at its order, unit times the share it
    reads, or the cover with no mesh bound where that does not depend on
    the mesh, with no unit."""

    def cover(x):
        return _coarse_scaled(spec, -math.inf, x, alpha, math.inf)

    if isinstance(unwrap(spec)[2], FullInterval):
        return (cover, None) if alpha == 1.0 else (None, None)
    if rec is None or rec.side < 0:
        return (cover, None)  # point sets, or above the order
    if rec.side > 0:
        return (None, None)
    hull, table, eps, lam, t = rec.hull, rec.table, rec.eps, rec.scale, rec.shift
    w = (lam * (hull[1] - hull[0])) ** alpha
    return (lambda x: w * _backend.stair_scaled(hull, table, eps,
                                                (x - t) / lam), w)


class StaircaseEvaluator(Record):
    """Cumulative mass from a fixed origin a0, as a callable of x: a
    record, which builds what its fields determine once.

    Mode ``auto`` picks a closed form S(x) = Gamma(alpha+1) * mass of
    (-inf, x] once, where one exists: the descent down the copies on a
    gap IFS at its similarity order, and the cover of ``coarse_mass``
    with no mesh bound on point sets, the interval at order 1 and a gap
    IFS above its order.  S(a0) is computed once; a value is then one
    evaluation of S, and an increment two.  Elsewhere, and always in
    mode ``numeric``, the verdict on ``self.measure`` decides an
    increment: below the order it raises DivergingMass or is 0, and at
    the order it is ``mass``'s value, ``coarse_mass`` with no mesh bound
    (on a gap IFS the covering recursion, not the descent).  Values are
    cached by x: each one computed, and each read at a piece end from the
    piece's share (``_at``), which equals the descent there bit for bit.
    The cache holds at most ``_CACHE_CAP`` values: a value that would pass
    that empties it first, so a long walk keeps its memory bounded.  The
    walk down F's pieces that ``calculus`` takes is built once (``walk``)."""

    _fields = ("spec", "alpha", "a0", "mode")

    def __init__(self, spec, alpha, a0=0.0, mode="auto"):
        _positive("alpha", alpha, 1.0)
        if mode not in ("auto", "numeric"):
            raise ValueError("mode must be 'auto' or 'numeric'")
        _reject_nan("a0", a0)
        a0, measure = float(a0), _backend.measure(spec, alpha)
        closed, unit = (_closed_form(spec, alpha, measure)
                        if mode == "auto" else (None, None))
        self.__dict__.update(
            spec=spec, alpha=alpha, a0=a0, mode=mode,
            _gamma=gamma_factor(alpha), measure=measure, _closed=closed,
            _unit=unit, _s0=None if closed is None else closed(a0),
            _cache={})

    def increment(self, u, v):
        """Mass of [u, v] (u <= v), nonnegative."""
        if v <= u:
            return 0.0
        _reject_nan("u", u)
        _reject_nan("v", v)
        if self._closed is not None:
            # S is monotone; the max absorbs rounding when u and v are close
            return max(0.0, self._closed(v) - self._closed(u)) / self._gamma
        side = _side_of_order(self.measure, u, v)
        if side > 0:
            raise DivergingMass(
                f"mass of [{u}, {v}] diverges at order {self.alpha}"
            )
        if side == 0:
            return coarse_mass(self.spec, u, v, self.alpha, math.inf)
        return 0.0

    def value(self, x):
        cache = self._cache
        got = cache.get(x)
        if got is None:
            # a table calls this once per point: the NaN test and the
            # capped store are inline, as _reject_nan("x", x) and _at's
            if x != x:
                raise ValueError("x must not be NaN")
            if self._closed is not None:
                got = (self._closed(x) - self._s0) / self._gamma
            elif x >= self.a0:
                got = self.increment(self.a0, x)
            else:
                got = -self.increment(x, self.a0)
            if len(cache) >= _CACHE_CAP:
                cache.clear()
            cache[x] = got
        return got

    __call__ = value

    def values(self, xs):
        """``[self.value(x) for x in xs]``, bit for bit, for a table's
        column.  On the descent it is one ``stair_column`` sweep, read
        from ``_backend`` at call time, with no cached call per point:
        points that share a copy share its descent, each x goes in as
        (x - t) / lam and comes out as (w * s - s0) / gamma, the
        operations of ``value``, and nothing enters the cache.  Elsewhere
        it maps ``value``."""
        if self._unit is None:
            return list(map(self.value, xs))
        xs = list(xs)
        if any(map(math.isnan, xs)):
            raise ValueError("x must not be NaN")
        rec, w, s0, gamma = self.measure, self._unit, self._s0, self._gamma
        t, lam = rec.shift, rec.scale
        column = _backend.stair_column(rec.hull, rec.table, rec.eps,
                                       [(x - t) / lam for x in xs])
        return [(w * s - s0) / gamma for s in column]

    @functools.cached_property
    def walk(self):
        """(top piece, frame, finest length) of the walk down F's pieces,
        or None where S is flat: the hull's piece, the (hull, table, shift,
        scale) of ``measure`` as ``sets._children`` reads them, and its
        ``eps`` in global units.  Plain data: ``_at`` reads S beside it."""
        rec = self.measure
        return None if rec is None or rec.side < 0 else (
            (*self.spec.hull(), 0.0, 1.0, 0.0, 1.0, 1.0),
            (rec.hull, rec.table, rec.shift, rec.scale), rec.eps * rec.scale)

    def _at(self, x, share):
        """self(x) at a piece end x where the descent on ``self.measure``
        reads ``share``, by no descent where S is that descent.  The value
        enters the cache: a piece's share is the descent at that end bit
        for bit, so a later self(x) there needs no descent either."""
        if self._unit is None:
            return self.value(x)
        got = (self._unit * share - self._s0) / self._gamma
        cache = self._cache
        if len(cache) >= _CACHE_CAP:
            cache.clear()
        cache[x] = got
        return got

    def scaled(self, x):
        """Gamma(alpha+1) times the staircase value."""
        return self.value(x) * self._gamma


def staircase(evaluator, x):
    """Staircase value at x (function-call form of StaircaseEvaluator)."""
    return evaluator.value(x)


class ScalingReport(Record):
    """Both sides of the scaling and translation identities."""

    _fields = ("scaled_lhs", "scaled_rhs", "translated_lhs", "translated_rhs")

    def __init__(self, scaled_lhs, scaled_rhs, translated_lhs, translated_rhs):
        self.__dict__.update(
            scaled_lhs=scaled_lhs, scaled_rhs=scaled_rhs,
            translated_lhs=translated_lhs, translated_rhs=translated_rhs)

    @property
    def scaling_abs_error(self):
        return abs(self.scaled_lhs - self.scaled_rhs)

    @property
    def scaling_rel_error(self):
        denom = max(abs(self.scaled_lhs), abs(self.scaled_rhs), 1e-300)
        return self.scaling_abs_error / denom

    @property
    def translation_abs_error(self):
        return abs(self.translated_lhs - self.translated_rhs)

    @property
    def translation_rel_error(self):
        denom = max(abs(self.translated_lhs), abs(self.translated_rhs), 1e-300)
        return self.translation_abs_error / denom


def verify_scaling_translation(spec, a, b, alpha, lam, shift=0.5):
    """Check mass(lam*F, lam*a, lam*b) = lam^alpha * mass(F, a, b) and
    mass(F + shift, a + shift, b + shift) = mass(F, a, b), for a finite
    lam >= 0 and a finite shift; a side is inf where its mass diverges."""
    _finite("lam", lam, 0.0)
    base = mass(spec, a, b, alpha).value
    scaled = mass(Scale(spec, lam), lam * a, lam * b, alpha).value
    moved = mass(Translate(spec, shift), a + shift, b + shift, alpha).value
    return ScalingReport(
        scaled_lhs=scaled,
        scaled_rhs=lam ** alpha * base,
        translated_lhs=moved,
        translated_rhs=base,
    )
