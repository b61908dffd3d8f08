"""Integration and differentiation against the integral staircase.

The integral is a Riemann-Stieltjes-style bracket: on each subdivision
component, the sup and inf of the integrand over the intersection with F
are weighted by the staircase increment.  ``integrate`` subdivides along
the construction pieces of the set (``_bracket``), which also brackets
the Lebesgue integral of ``physics.time_of_flight``.  Both ends of a
whole piece are images of the hull ends, so they lie in F, and a
monotone integrand is bounded there by its values at those ends with no
set query; the walk's ends match the set's own to float rounding.  The
derivative is the limit of increment quotients at the far ends of the
pieces that hold x, and 0 off F; a side of x is vacuous where x ends a
piece with a gap on that side.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from falpha.sets import Interval, _reject_nan, net, slack

__all__ = [
    "FOnF",
    "IntegralResult",
    "DerivativeResult",
    "ContinuityReport",
    "UnboundedHint",
    "NoConvergence",
    "NoLimit",
    "sup_inf_on",
    "upper_lower_sums",
    "integrate",
    "derivative",
    "check_f_continuity",
]

# net level that samples F for non-monotone extremes and continuity checks
_NET_LEVEL = 10


class UnboundedHint(ValueError):
    """No usable bound hint: sup/inf over F cannot be certified."""


class NoConvergence(ArithmeticError):
    """Refinement hit its cap before the bracket closed."""

    def __init__(self, message, gap, partial=None):
        super().__init__(message)
        self.gap = gap
        self.partial = partial


class NoLimit(ArithmeticError):
    """Increment quotients did not settle."""


@dataclass(frozen=True)
class FOnF:
    """A real function with a bound hint so extremes over F are computable.

    hint is ("monotone",) for functions monotone on F (extremes sit at the
    extreme F-points of the interval), ("lipschitz", L) for an L-Lipschitz
    bound (net extremes padded by L times the net resolution), or
    ("net-sampled",) for uncertified raw net extremes.
    """

    fn: object
    hint: tuple

    def __call__(self, x):
        return self.fn(x)

    @staticmethod
    def monotone(fn):
        return FOnF(fn, ("monotone",))

    @staticmethod
    def lipschitz(fn, bound):
        return FOnF(fn, ("lipschitz", float(bound)))

    @staticmethod
    def net_sampled(fn):
        return FOnF(fn, ("net-sampled",))


def sup_inf_on(f, spec, interval, level=_NET_LEVEL):
    """(sup, inf) of f over F intersected with the interval; (0, 0) when
    the intersection is empty."""
    ext = spec.extremes_in(interval.lo, interval.hi)
    if ext is None:
        return (0.0, 0.0)
    if not isinstance(f, FOnF) or not f.hint:
        raise UnboundedHint("integrand carries no bound hint")
    kind = f.hint[0]
    if kind == "monotone":
        va = f(ext[0])
        vb = f(ext[1])
        return (max(va, vb), min(va, vb))
    samples = [p for p in net(spec, level, interval)]
    samples.extend(ext)
    vals = [f(p) for p in samples]
    if kind == "lipschitz":
        pad = f.hint[1] * spec.resolution(level)
        return (max(vals) + pad, min(vals) - pad)
    if kind == "net-sampled":
        return (max(vals), min(vals))
    raise UnboundedHint(f"unknown bound hint {kind!r}")


def upper_lower_sums(f, stair, subdivision):
    """Upper and lower staircase-weighted sums of f over the subdivision."""
    sums = [_component(f, stair, u, v) for u, v in subdivision.components()]
    return (sum((hi for hi, _ in sums), 0.0),
            sum((lo for _, lo in sums), 0.0))


@dataclass(frozen=True)
class IntegralResult:
    lower: float
    upper: float
    value: float
    gap: float
    refinement_depth: int

    def contains(self, target, slack=0.0):
        return self.lower - slack <= target <= self.upper + slack


def _component(f, stair, u, v, whole=False):
    """(upper, lower) staircase-weighted bounds of f on [u, v].

    ``whole`` says [u, v] is a whole construction piece: both its ends
    are images of the hull ends, so they are the least and greatest
    points of F in it, and a monotone f is bounded there by f(u) and f(v)
    with no set query.  The walk computes those ends as k0 + w * share
    where ``extremes_in`` composes the copy maps, so the two differ by a
    few ulps: the bound is exact up to that rounding of the ends."""
    ds = stair(v) - stair(u)
    if ds == 0.0:
        return (0.0, 0.0)
    if whole and isinstance(f, FOnF) and f.hint[:1] == ("monotone",):
        fu, fv = f(u), f(v)
        return (max(fu, fv) * ds, min(fu, fv) * ds)
    m_hi, m_lo = sup_inf_on(f, stair.spec, Interval(u, v))
    return (m_hi * ds, m_lo * ds)


def _check_tol(tol):
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")


def _hull_piece(rec):
    """The hull of the measure record ``rec``, where walks down its pieces
    start; None when there is no record or its staircase is flat."""
    if rec is None or rec.total < 1.0 - 1e-12:
        return None
    (h0, h1), lam, t = rec.hull, rec.scale, rec.shift
    return (t + lam * h0, t + lam * h1)


def _kids(shares, k0, k1):
    """The copies of the piece [k0, k1], split at the record's shares; the
    outer copies share the ends of their parent."""
    w, last = k1 - k0, len(shares) - 1
    return [(k0 + w * f0 if i else k0, k0 + w * f1 if i < last else k1)
            for i, (f0, f1) in enumerate(shares)]


def _bracket(rec, a, b, tol, bound, flat, max_pieces=math.inf):
    """(lower, upper, pieces, depth) of an integral over [a, b] by a walk
    down the construction pieces of the measure record ``rec``, split at
    its shares, from the smallest piece that holds [a, b]: the piece of
    widest bracket splits until the width is at most tol, that piece is
    shorter than ``sets.slack`` at the farther hull end (``rec.eps``), or
    ``max_pieces`` would be passed.  ``bound(u, v, whole)`` is (upper,
    lower) on a piece clipped to [u, v]; ``flat(u, v)`` is exact where
    the staircase is constant: on a gap, off the hull, or above the
    order.  depth counts nested splits."""
    hull = _hull_piece(rec)
    if hull is None:
        return (flat(a, b), flat(a, b), 0, 0)
    shares, finest = rec.shares, rec.eps * rec.scale
    last = len(shares) - 1
    exact = upper = lower = 0.0
    count = depth = 0
    heap = []

    def split(u, v, d, spans):
        # [u, v] as the pieces met and the flat stretches between them,
        # the last closed by the empty span (v, v)
        nonlocal exact, upper, lower, count
        for k0, k1 in [*spans, (v, v)]:
            if u < min(v, k0):
                exact += flat(u, min(v, k0))
            p, q = max(u, k0), min(v, k1)
            u = max(u, q)
            if p >= q:
                continue
            # a clipped piece that lies in one of its copies is that copy
            while (p, q) != (k0, k1) and (kid := next(
                    (c for c in _kids(shares, k0, k1)
                     if c[0] <= p and q <= c[1]), None)):
                k0, k1 = kid
            hi, lo = bound(p, q, (p, q) == (k0, k1))
            upper, lower, count = upper + hi, lower + lo, count + 1
            if hi > lo:
                heapq.heappush(heap, (lo - hi, k0, k1, d, hi, lo))

    split(a, b, 0, [hull])
    while heap and upper - lower > tol:
        _, k0, k1, d, hi, lo = heap[0]
        if k1 - k0 < finest or count + last > max_pieces:
            break
        heapq.heappop(heap)
        upper, lower, count = upper - hi, lower - lo, count - 1
        depth = max(depth, d + 1)
        split(max(a, k0), min(b, k1), d + 1, _kids(shares, k0, k1))
    return (exact + lower, exact + upper, count, depth)


def integrate(f, stair, a, b, tol=1e-4, max_components=20000):
    """Certified bracket for the staircase-weighted integral of f: a walk
    down the construction pieces (``_bracket``) with ``_component`` on
    each piece and nothing on a gap, until upper - lower <= tol.  A
    monotone f on a whole piece is bounded by its values at the piece's
    ends, which lie in F; a clipped piece, or another hint, asks the set
    for the extremes of F in it.  Raises NoConvergence when that takes
    more than ``max_components`` pieces, or pieces shorter than the
    ``sets.slack`` of the set's farther hull end."""
    _check_tol(tol)
    _reject_nan("a", a)
    _reject_nan("b", b)
    if b < a:
        res = integrate(f, stair, b, a, tol, max_components)
        return IntegralResult(-res.upper, -res.lower, -res.value,
                              res.gap, res.refinement_depth)
    lower, upper, count, depth = _bracket(
        stair.measure, a, b, tol,
        lambda u, v, whole: _component(f, stair, u, v, whole),
        lambda u, v: 0.0, max_components)
    res = IntegralResult(lower, upper, (upper + lower) / 2.0,
                         max(0.0, upper - lower), depth)
    if upper - lower > tol:
        raise NoConvergence(
            f"bracket still {upper - lower:.3e} wide after {count} pieces",
            gap=upper - lower, partial=res)
    return res


@dataclass(frozen=True)
class DerivativeResult:
    value: float
    side: str  # both; left | right where a gap abuts x on the other; off
    residual: float


def _side(f, stair, x, piece, sign, tol, r0):
    """(value, residual) of the quotients on one side of x (sign -1 left,
    +1 right), at the far ends of the pieces that hold x from that side,
    from ``piece`` down to pieces 1e-13 max(1, |x|) long; None when x
    ends a piece with a gap on this side, or the side shows no variation.
    Piece ends and net points may differ by ulps of x: x is a piece end
    within ``sets.slack``.  Raises NoLimit when quotients do not settle."""
    rec = stair.measure
    shares, eps = rec.shares, slack(x, rec.scale)
    fx, sx, finest = f(x), stair(x), 1e-13 * max(1.0, abs(x))
    quots, prev, settled = [], None, None
    while piece is not None:
        k0, k1 = piece
        y = k1 if sign > 0 else k0
        if settled is None and y != prev and abs(y - x) <= r0:
            prev, ds = y, stair(y) - sx
            if ds != 0.0:
                quots.append((f(y) - fx) / ds)
            if len(quots) >= 3:
                d1 = abs(quots[-1] - quots[-2])
                d2 = abs(quots[-2] - quots[-3])
                # quotient tails decay roughly geometrically, so demand
                # diffs well under tol to keep the settled value within tol
                if max(d1, d2) <= 0.25 * tol * max(1.0, abs(quots[-1])):
                    settled = (quots[-1], d1)
        if k1 - k0 < finest:
            if settled is None and len(quots) >= 3:
                raise NoLimit(f"quotients at x={x} oscillate beyond tol={tol}")
            return settled
        # the copy that holds x from this side; touching copies each hold
        # their shared end, from their own side
        piece = next(((c0, c1) for c0, c1 in _kids(shares, k0, k1)
                      if (c0 + eps < x <= c1 + eps if sign < 0
                          else c0 - eps <= x < c1 - eps)), None)
    return None


def derivative(f, stair, x, tol=1e-3, r0=1.0):
    """Staircase-quotient derivative of f at x; exactly 0 off F.  Each side
    of x takes (f(y) - f(x)) / (S(y) - S(x)) at the far ends y of the
    construction pieces that hold x, none farther than r0 from x, until two
    successive differences are each at most tol / 4; a side is vacuous
    where x ends a piece with a gap on that side.  Raises NoLimit when the
    quotients do not settle, the sides disagree beyond tol, or S is flat."""
    _check_tol(tol)
    _reject_nan("x", x)
    if not stair.spec._isect(x, x):
        return DerivativeResult(0.0, "off", 0.0)
    hull = _hull_piece(stair.measure)
    left = hull and _side(f, stair, x, hull, -1, tol, r0)
    right = hull and _side(f, stair, x, hull, +1, tol, r0)
    if left and right:
        mismatch = abs(left[0] - right[0])
        if mismatch > tol * max(1.0, abs(left[0])):
            raise NoLimit(f"one-sided values at x={x} disagree by "
                          f"{mismatch:.3e}")
        return DerivativeResult((left[0] + right[0]) / 2.0, "both",
                                max(left[1], right[1], mismatch))
    if left or right:
        value, residual = left or right
        return DerivativeResult(value, "left" if left else "right", residual)
    raise NoLimit(f"no staircase variation reachable on either side of x={x}")


@dataclass(frozen=True)
class ContinuityReport:
    ok: bool
    eps: float = 0.0
    witness: float = math.nan


def check_f_continuity(f, spec, x, eps_ladder=(1e-1, 1e-2, 1e-3),
                       delta_of_eps=None):
    """Necessary-condition check that f(x) is the limit of f through F.

    For each eps, every net point y != x within delta(eps) of x must have
    |f(y) - f(x)| <= eps; delta(eps) defaults to eps itself.  Returns the
    first failure witness, if any.
    """
    if not spec._isect(x, x):
        raise ValueError("x must belong to F")
    if delta_of_eps is None:
        delta_of_eps = lambda e: e
    fx = f(x)
    for eps in eps_ladder:
        delta = delta_of_eps(eps)
        for y in net(spec, _NET_LEVEL, Interval(x - delta, x + delta)):
            if y == x:
                continue
            if abs(f(y) - fx) > eps:
                return ContinuityReport(False, eps, y)
    return ContinuityReport(True)
