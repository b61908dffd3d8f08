"""Integration and differentiation against the integral staircase.

The integral is a Riemann-Stieltjes-style bracket: on each subdivision
component, the sup and inf of the integrand over the intersection with F
are weighted by the staircase increment.  ``integrate`` subdivides along
the construction pieces of the set (``_bracket``), which also brackets
the Lebesgue integral of ``physics.time_of_flight``.  Its pieces come
from ``sets._children``: a whole piece's ends lie in F, bit for bit
``extremes_in``'s, and carry their staircase values, so a monotone or
Lipschitz integrand is bounded there with no set query or descent.  The
value read at a piece end enters the evaluator's cache, so an integrand
or quotient that calls the staircase there runs no descent either.  An
integrand g(S) of the staircase S it is integrated against is priced by
substitution instead (``_by_substitution``): the integral of g over
[S(a), S(b)], by the same walk down the halves of that interval, widened
at a and b by how far S rises within twice the slack of each and of the
origin.  Where that widening alone is at least tol it takes the walk
down F.  The derivative is the limit of increment quotients at the far
ends of the pieces that hold x, and 0 off F; a side of x is vacuous
where x ends a piece with a gap on that side.  A side whose quotients
have settled where x is the near end of its piece stops there: the
finer pieces that hold x from that side share that end and change
nothing.
"""

import functools
import heapq
import math

from falpha.mass import StaircaseEvaluator
from falpha.sets import (FullInterval, Interval, Record, _children, _count,
                         _finite, _positive, _reject_nan, net, slack)

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

# net level that samples F for continuity checks
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


class FOnF(Record):
    """A real function with a bound hint so extremes over F are computable.

    hint is ("monotone",) for functions monotone on F (extremes sit at the
    extreme F-points of the interval), ("lipschitz", L) for an L-Lipschitz
    bound (within (f(e0) + f(e1))/2 +- L (e1 - e0)/2 between the extreme
    F-points e0, e1), or ("net-sampled",) for no bound, which
    ``derivative`` needs: ``integrate`` raises UnboundedHint on it.

    ``of_stair(g, stair)`` is x -> g(stair(x)) for a g convex and
    nondecreasing on the values the staircase takes, with the hint
    ("monotone", g, stair), so every reader of the monotone hint sees
    one.  ``integrate`` against that same ``stair`` prices it, and
    ``monotone(stair)`` as g the identity, by substitution: the integral
    of g over [S(a), S(b)], widened at a and b by how far S rises within
    twice the slack of each and of the origin (``_by_substitution``).  A
    function of another evaluator, a ``monotone`` of a wrapper of
    ``stair``, a set with no measure record or off its order, or a
    widening of tol or more takes the walk down F.
    """

    _fields = ("fn", "hint")

    def __init__(self, fn, hint):
        self.__dict__.update(fn=fn, hint=hint)

    def __call__(self, x):
        return self.fn(x)

    @staticmethod
    def monotone(fn):
        return FOnF(fn, ("monotone",))

    @staticmethod
    def of_stair(g, stair):
        return FOnF(lambda x: g(stair(x)), ("monotone", g, stair))

    @staticmethod
    def lipschitz(fn, bound):
        return FOnF(fn, ("lipschitz", _finite("bound", bound, 0.0)))

    @staticmethod
    def net_sampled(fn):
        """fn with no bound: for ``derivative``, which reads no hint."""
        return FOnF(fn, ("net-sampled",))


def _by_ends(f, e0, e1):
    """(sup, inf) of f over the points of F in [e0, e1], e0 and e1 among
    them, from a monotone or Lipschitz hint.  Raises UnboundedHint for any
    other f, ``net-sampled`` included: a sample of F bounds no sup."""
    kind = f.hint[:1] if isinstance(f, FOnF) else ()
    if kind == ("monotone",):
        f0, f1 = f(e0), f(e1)
        return (max(f0, f1), min(f0, f1))
    if kind == ("lipschitz",):
        # the cones of slope L from (e0, f(e0)) and (e1, f(e1)) meet there
        mid, pad = (f(e0) + f(e1)) / 2.0, f.hint[1] * (e1 - e0) / 2.0
        return (mid + pad, mid - pad)
    raise UnboundedHint("integrand has no monotone or Lipschitz bound")


def sup_inf_on(f, spec, interval, level=None):
    """(sup, inf) of f over F intersected with the interval, by the hint
    of f at the extremes of F in it (``_by_ends``, which raises
    UnboundedHint for f with no monotone or Lipschitz hint); (0, 0) when
    they are none.  ``level`` is unread."""
    ext = spec.extremes_in(interval.lo, interval.hi)
    return (0.0, 0.0) if ext is None else _by_ends(f, *ext)


def upper_lower_sums(f, stair, subdivision):
    """Upper and lower staircase-weighted sums of f over the subdivision."""
    sums = [_component(f, stair, u, v) for u, v in subdivision.components()]
    return (sum((hi for hi, _ in sums), 0.0),
            sum((lo for _, lo in sums), 0.0))


class IntegralResult(Record):
    _fields = ("lower", "upper", "value", "gap", "refinement_depth")

    def __init__(self, lower, upper, value, gap, refinement_depth):
        self.__dict__.update(lower=lower, upper=upper, value=value, gap=gap,
                             refinement_depth=refinement_depth)

    def contains(self, target, slack=0.0):
        return self.lower - slack <= target <= self.upper + slack


def _component(f, stair, u, v, whole=False, s=None):
    """(upper, lower) staircase-weighted bounds of f on [u, v], with
    ``s`` = (S(u), S(v)) as the walk read them, else by descents.
    ``whole`` says [u, v] is a whole construction piece: its ends are the
    extremes of F in it, as ``extremes_in`` returns them, so a monotone or
    Lipschitz f is bounded there with no set query."""
    su, sv = s or (stair(u), stair(v))
    ds = sv - su
    if ds == 0.0:
        return (0.0, 0.0)
    m_hi, m_lo = (_by_ends(f, u, v) if whole
                  else sup_inf_on(f, stair.spec, Interval(u, v)))
    return (m_hi * ds, m_lo * ds)


def _walk(stair):
    """(hull piece, children) of the walk down the pieces (``_children``)
    of the measure record of ``stair``, or None when there is no record
    or its staircase is flat; the hull piece has the set's own ends."""
    rec = stair.measure
    if rec is None or rec.side < 0:
        return None
    rows = [(o, r, p) for (o, r, _, _), p in rec.table]
    return ((*stair.spec.hull(), 0.0, 1.0, 0.0, 1.0, 1.0),
            functools.partial(_children, rec.hull, rows, rec.shift, rec.scale))


def _bracket(stair, a, b, tol, bound, flat, max_pieces=math.inf):
    """(lower, upper, pieces, depth) of an integral over [a, b] by a walk
    down the pieces of ``_walk(stair)`` from the smallest that holds
    [a, b], or the first below it shorter than the slack: the piece of
    widest bracket splits until the width, as upper - lower and summed
    piece by piece, is at most tol, that piece is shorter than
    ``sets.slack`` at the farther hull end (``rec.eps``), or
    ``max_pieces`` would be passed.  ``bound(u, v, su, sv, whole)`` is
    (upper, lower) on a piece clipped to [u, v] where S is su and sv;
    ``flat(u, v, s)`` is exact where S is s throughout: on a gap, off the
    hull, or above the order.  S is a descent at a and b; at a piece end
    the piece gives it (``stair._at``).  depth counts nested splits."""
    sa, sb = stair(a), stair(b)
    walk = _walk(stair)
    if walk is None:
        return (flat(a, b, sa), flat(a, b, sa), 0, 0)
    hull, kids = walk
    at, rec = stair._at, stair.measure
    finest, last = rec.eps * rec.scale, len(rec.table) - 1
    exact = upper = lower = width = 0.0
    count = depth = 0
    heap = []

    def split(u, su, v, sv, d, spans):
        # [u, v] as the pieces met and the flat stretches between them;
        # where u or v is a piece end, S there is the piece's
        nonlocal exact, upper, lower, width, count
        for piece in spans:
            k0, k1 = piece[:2]
            if v <= k0:
                break
            if u < k0:
                exact += flat(u, k0, su)
            if u <= k0:
                u, su = k0, at(k0, piece[4])
            if min(v, k1) <= u:
                continue
            q, sq = (k1, at(k1, piece[5])) if k1 <= v else (v, sv)
            # a clipped piece that lies in one of its copies is that copy,
            # down to the pieces the heap loop would no longer split
            while ((u, q) != piece[:2] and piece[1] - piece[0] >= finest
                   and (kid := next((c for c in kids(piece)
                                     if c[0] <= u and q <= c[1]), None))):
                piece = kid
            hi, lo = bound(u, q, su, sq, (u, q) == piece[:2])
            upper, lower, count = upper + hi, lower + lo, count + 1
            if hi > lo:
                heapq.heappush(heap, (lo - hi, *piece[:2], d, hi, lo, piece))
                width += hi - lo
            u, su = q, sq
        if u < v:
            exact += flat(u, v, su)

    split(a, sa, b, sb, 0, [hull])
    while heap and max(width, upper - lower) > tol:
        _, k0, k1, d, hi, lo, piece = heap[0]
        if k1 - k0 < finest or count + last > max_pieces:
            break
        heapq.heappop(heap)
        upper, lower, count = upper - hi, lower - lo, count - 1
        width -= hi - lo
        depth = max(depth, d + 1)
        split(max(a, k0), sa, min(b, k1), sb, d + 1, kids(piece))
    if width > tol:
        # far from 0 the sums round at ulps wider than tol, which can hide
        # a width the walk did not close
        upper = max(upper, lower + width)
    return (exact + lower, exact + upper, count, depth)


def _identity(u):
    return u


def _by_substitution(f, stair, a, b, tol, max_pieces=math.inf):
    """(lower, upper, pieces, depth) of the integral over [a, b] of f = g
    of the values of ``stair`` (``FOnF.of_stair`` on ``stair``, or
    ``FOnF.monotone(stair)`` with g the identity): the integral of g over
    [S(a), S(b)], by the walk of ``_bracket`` down the halves of that
    interval at order 1, where g convex lies between the midpoint rule
    (Jensen) and the trapezoid (the chord) on each piece.  A descent reads
    a point within the slack at the farther hull end (``rec.eps``) of a
    piece end as that end, and rounds; so the true S(x) lies between the
    float S at x -+ eta, twice that slack, less the same spread at the
    origin a0.  Each end widens the bracket by its spread times the
    largest |g| over it: 0 where x and a0 lie in gaps wider than 2 eta.
    None, for the walk down F, where f is not such a g, the set has no
    measure record or is off its order (S is then flat or diverges), or
    the widening alone is at least tol."""
    rec = stair.measure
    if (not isinstance(f, FOnF) or f.hint[:1] != ("monotone",)
            or rec is None or rec.side != 0):
        return None
    if f.fn is stair:
        g = _identity
    elif f.hint[2:] == (stair,):
        g = f.hint[1]
    else:
        return None
    ua, ub = stair(a), stair(b)
    eta, pad = 2.0 * rec.eps * rec.scale, 0.0
    # S counts from the origin a0, whose float S may miss as x's does
    o_lo, o_hi = stair(stair.a0 - eta), stair(stair.a0 + eta)
    for x in (a, b):
        lo, hi = stair(x - eta) - o_hi, stair(x + eta) - o_lo
        # g is nondecreasing: |g| is largest at an end of [lo, hi]
        pad += max(abs(g(lo)), abs(g(hi))) * (hi - lo)
    if 2.0 * pad >= tol:
        return None
    if ub <= ua:
        # 0.0 - pad, not -pad: an exact 0 stays +0.0, as the F walk gives
        return (0.0 - pad, 0.0 + pad, 0, 0)

    def bound(u, v, su, sv, whole):
        d = v - u
        return (d * ((g(u) + g(v)) / 2.0), d * g((u + v) / 2.0))

    # an interval has no gap, so the walk prices no flat stretch
    lower, upper, count, depth = _bracket(
        StaircaseEvaluator(FullInterval(ua, ub), 1.0, a0=ua), ua, ub,
        tol - 2.0 * pad, bound, lambda u, v, s: 0.0, max_pieces)
    return (lower - pad, upper + pad, count, depth)


def integrate(f, stair, a, b, tol=1e-4, max_components=20000):
    """Certified bracket for the staircase-weighted integral of f: a walk
    down the construction pieces (``_bracket``) with ``_component`` on
    each piece and nothing on a gap, until upper - lower <= tol.  A
    monotone or Lipschitz f on a whole piece is bounded by its values at
    the piece's ends, which lie in F; a clipped piece asks the set for the
    extremes of F in it; any other f raises UnboundedHint where S rises.
    A function g of the values of ``stair`` itself is the integral of g
    over [S(a), S(b)], by the same walk on that interval
    (``_by_substitution``), where it applies.
    ``max_components`` must be a positive int.  Raises NoConvergence when
    either walk takes more than ``max_components`` pieces, or pieces
    shorter than the ``sets.slack`` of its farther hull end."""
    _positive("tol", tol)
    _count("max_components", max_components, 1)
    _reject_nan("a", a)
    _reject_nan("b", b)
    if b < a:
        res = integrate(f, stair, b, a, tol, max_components)
        return IntegralResult(-res.upper, -res.lower, -res.value,
                              res.gap, res.refinement_depth)
    lower, upper, count, depth = _by_substitution(
        f, stair, a, b, tol, max_components) or _bracket(
        stair, a, b, tol,
        lambda u, v, su, sv, whole: _component(f, stair, u, v, whole,
                                               (su, sv)),
        lambda u, v, s: 0.0, max_components)
    res = IntegralResult(lower, upper, (upper + lower) / 2.0,
                         max(0.0, upper - lower), depth)
    if upper - lower > tol:
        raise NoConvergence(
            f"bracket still {upper - lower:.3e} wide after {count} pieces",
            gap=upper - lower, partial=res)
    return res


class DerivativeResult(Record):
    _fields = ("value", "side", "residual")

    def __init__(self, value, side, residual):
        # side: both; left | right where a gap abuts x on the other; off
        self.__dict__.update(value=value, side=side, residual=residual)


def _side(f, stair, x, walk, sign, tol, r0):
    """(value, residual) of the quotients on one side of x (sign -1 left,
    +1 right), at the far ends of the pieces that hold x from that side,
    down the ``walk`` of ``_walk``, with S at those ends read from the
    pieces; None when x ends a piece with a gap on this side, or the side
    shows no variation.  The walk stops at pieces 1e-13 max(1, |x|) long,
    or twice the ``sets.slack`` of x over the least ratio, below which a
    copy could be shorter than the slack; and once the quotients have
    settled where x is, bit for bit, the near end of its piece: every
    finer piece that holds x from this side is then an outer copy with
    that near end (``_children`` keeps the parent's ends), and changes
    neither the value nor the side.  An x computed elsewhere may miss a
    piece end by ulps: x is a piece end within ``sets.slack``.  Raises
    NoLimit when quotients do not settle."""
    piece, kids = walk
    rec = stair.measure
    eps = slack(x, rec.scale)
    fx, sx = f(x), stair(x)
    finest = max(1e-13 * max(1.0, abs(x)),
                 2.0 * eps / min(r for (_, r, _, _), _ in rec.table))
    quots, prev, settled = [], None, None
    while piece is not None:
        k0, k1 = piece[:2]
        y, share, near = ((k1, piece[5], k0) if sign > 0
                          else (k0, piece[4], k1))
        if settled is None and y != prev and abs(y - x) <= r0:
            prev, ds = y, stair._at(y, share) - sx
            if ds != 0.0:
                quots.append((f(y) - fx) / ds)
            if len(quots) >= 3:
                d1 = abs(quots[-1] - quots[-2])
                d2 = abs(quots[-2] - quots[-3])
                # quotient tails decay roughly geometrically, so demand
                # diffs well under tol to keep the settled value within tol
                if max(d1, d2) <= 0.25 * tol * max(1.0, abs(quots[-1])):
                    settled = (quots[-1], d1)
        if settled is not None and x == near:
            return settled
        if k1 - k0 < finest:
            if settled is None and len(quots) >= 3:
                raise NoLimit(f"quotients at x={x} oscillate beyond tol={tol}")
            return settled
        # the copy that holds x from this side; touching copies each hold
        # their shared end, from their own side
        piece = next((c for c in kids(piece)
                      if (c[0] + eps < x <= c[1] + eps if sign < 0
                          else c[0] - eps <= x < c[1] - eps)), None)
    return None


def derivative(f, stair, x, tol=1e-3, r0=1.0):
    """Staircase-quotient derivative of f at x; exactly 0 off F.  Each side
    of x takes (f(y) - f(x)) / (S(y) - S(x)) at the far ends y of the
    construction pieces that hold x, none farther than r0 from x, until two
    successive differences are each at most tol / 4; a side is vacuous
    where x ends a piece with a gap on that side.  A settled side stops
    its walk (``_side``) once x is the near end of its piece, which every
    finer piece that holds x from that side shares.  tol must be
    positive, and so must r0 at a point of F.  Raises NoLimit when the
    quotients do not settle, the sides disagree beyond tol, or S is flat."""
    _positive("tol", tol)
    _reject_nan("x", x)
    if not stair.spec._isect(x, x):
        return DerivativeResult(0.0, "off", 0.0)
    walk = _walk(stair)
    left = walk and _side(f, stair, x, walk, -1, tol, r0)
    right = walk and _side(f, stair, x, walk, +1, tol, r0)
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
    # a bad r0 lets no quotient in on either side: it is refused here, at
    # no cost to a call that finds a limit
    _positive("r0", r0)
    raise NoLimit(f"no staircase variation reachable on either side of x={x}")


class ContinuityReport(Record):
    _fields = ("ok", "eps", "witness")

    def __init__(self, ok, eps=0.0, witness=math.nan):
        self.__dict__.update(ok=ok, eps=eps, witness=witness)


def check_f_continuity(f, spec, x, eps_ladder=(1e-1, 1e-2, 1e-3),
                       delta_of_eps=None):
    """Necessary-condition check that f(x) is the limit of f through F.

    For each eps, every net point y != x within delta(eps) of x must have
    |f(y) - f(x)| <= eps; delta(eps) defaults to eps itself.  Returns the
    first failure witness, if any.  Each eps it reads must be positive.
    """
    _reject_nan("x", x)
    if not spec._isect(x, x):
        raise ValueError("x must belong to F")
    if delta_of_eps is None:
        delta_of_eps = lambda e: e
    fx = f(x)
    for eps in eps_ladder:
        _positive("eps_ladder", eps)
        delta = delta_of_eps(eps)
        for y in net(spec, _NET_LEVEL, Interval(x - delta, x + delta)):
            if y == x:
                continue
            if abs(f(y) - fx) > eps:
                return ContinuityReport(False, eps, y)
    return ContinuityReport(True)
