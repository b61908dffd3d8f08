"""Integration and differentiation against the integral staircase.

The integral is a Riemann-Stieltjes-style bracket: on each subdivision
component, the sup and inf of the integrand over the intersection with F
are weighted by the staircase increment.  ``integrate`` subdivides along
the construction pieces of the set (``_bracket``), which also brackets
the Lebesgue integral of ``physics.time_of_flight``.  Its pieces come
from ``sets._children`` on the evaluator's ``walk``: a whole piece's
ends lie in F, bit for bit ``extremes_in``'s, and carry their staircase
values (``_at``), so a monotone or Lipschitz integrand is bounded there
with no set query or descent, a monotone one by its function at the
piece's ends (``_piece_bound``).  A heap entry carries S at its ends,
which the outer copies of a piece keep, so a split reads S only at the
ends that its copies add.  The value read at a piece end enters the
evaluator's cache, so an integrand or quotient that calls the staircase
there runs no descent either.  An integrand g(S) of the staircase S it
is integrated against is priced by substitution instead
(``_by_substitution``): the integral of g over [S(a), S(b)], by the same
walk down the unit halves framed to that interval (``_halves``), where S
is u itself (``_identity``), widened at a and b by how far S rises
within twice the slack of each and of the origin.  Where that widening
alone is at least tol it takes the walk down F.  A NaN or an overflow in
a piece's bound is refused, never summed into a bracket.  The derivative
is the limit of increment quotients at the far ends of the pieces that
hold x, and 0 off F; a side of x is vacuous where x ends a piece with a
gap on that side.  One descent down the same ``walk`` builds only the
copy that holds x at each step (``sets._child``), and serves both sides
while x lies strictly inside it; the sides part only where x comes
within its slack of a copy end (``_descent``).  A vacuous side reads no
S and no f there, so a NaN of f on it is never read and never refused.
A live side replays its quotients over the shared pieces, goes on down
to pieces whose length scales with the set's hull, and stops once its
quotients have settled where x is the near end of its piece: the finer
pieces that hold x from that side share that end and change nothing.  A
NaN of f at x or at a far end that a side reads is refused by name, as
the integral refuses it.
"""

import heapq
import math

from falpha._backend import _HALVES, hull_eps
from falpha.sets import (Interval, Record, _child, _children, _count,
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
    function of an evaluator with other fields, a ``monotone`` of a
    wrapper of ``stair``, a set with no measure record or off its order,
    or a widening of tol or more takes the walk down F.
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


def _nan_at(x):
    """The error for an f that is NaN at x, which max, min and every
    comparison would drop."""
    return ValueError(f"f is NaN at x={x!r}")


def _by_ends(f, e0, e1):
    """(sup, inf) of f over the points of F in [e0, e1], e0 and e1 among
    them, from a monotone or Lipschitz hint.  Raises UnboundedHint for any
    other f, ``net-sampled`` included: a sample of F bounds no sup; and
    ValueError where f is NaN at e0 or e1 (``_nan_at``)."""
    kind = f.hint[:1] if isinstance(f, FOnF) else ()
    if kind not in (("monotone",), ("lipschitz",)):
        raise UnboundedHint("integrand has no monotone or Lipschitz bound")
    f0, f1 = f(e0), f(e1)
    if f0 != f0 or f1 != f1:
        raise _nan_at(e0 if f0 != f0 else e1)
    if kind == ("monotone",):
        return (max(f0, f1), min(f0, f1))
    # the cones of slope L from (e0, f(e0)) and (e1, f(e1)) meet there
    mid, pad = (f0 + f1) / 2.0, f.hint[1] * (e1 - e0) / 2.0
    return (mid + pad, mid - pad)


def sup_inf_on(f, spec, interval, level=None):
    """(sup, inf) of f over F intersected with the interval, by the hint
    of f at the extremes of F in it (``_by_ends``, which raises
    UnboundedHint for f with no monotone or Lipschitz hint); (0, 0) when
    they are none.  ``level`` is unread."""
    ext = spec.extremes_in(interval.lo, interval.hi)
    return (0.0, 0.0) if ext is None else _by_ends(f, *ext)


def upper_lower_sums(f, stair, subdivision):
    """Upper and lower staircase-weighted sums of f over the subdivision."""
    bound = _piece_bound(f, stair)
    sums = [bound(u, v, stair(u), stair(v), False)
            for u, v in subdivision.components()]
    return (sum((hi for hi, _ in sums), 0.0),
            sum((lo for _, lo in sums), 0.0))


class IntegralResult(Record):
    _fields = ("lower", "upper", "value", "gap", "refinement_depth")

    def __init__(self, lower, upper, value, gap, refinement_depth):
        self.__dict__.update(lower=lower, upper=upper, value=value, gap=gap,
                             refinement_depth=refinement_depth)

    def contains(self, target, slack=0.0):
        return self.lower - slack <= target <= self.upper + slack


def _piece_bound(f, stair):
    """The ``bound`` of ``_bracket`` for the integral of f against
    ``stair``: (upper, lower) = (sup, inf) of f times the rise of S on
    [u, v], where S is su and sv, with no read of f where S is flat.  On a
    whole construction piece its ends are the extremes of F in it, as
    ``extremes_in`` returns them, so a monotone or Lipschitz f is bounded
    there with no set query (``_by_ends``; a monotone f inline, by its
    function at the two ends, read past the ``FOnF`` wrapper); a clipped
    piece asks ``sup_inf_on``."""
    spec = stair.spec
    monotone = isinstance(f, FOnF) and f.hint[:1] == ("monotone",)
    fn = f.fn if monotone else None

    def bound(u, v, su, sv, whole):
        ds = sv - su
        if ds == 0.0:
            return (0.0, 0.0)
        if whole and monotone:
            f0, f1 = fn(u), fn(v)
            if f0 != f0 or f1 != f1:
                raise _nan_at(u if f0 != f0 else v)
            # max and min of the two, the first of equals, with no call
            return ((f1 if f1 > f0 else f0) * ds,
                    (f1 if f1 < f0 else f0) * ds)
        m_hi, m_lo = (_by_ends(f, u, v) if whole
                      else sup_inf_on(f, spec, Interval(u, v)))
        return (m_hi * ds, m_lo * ds)

    return bound


def _refuse(what, *xs):
    """Raise for xs that are not all finite: ValueError for a NaN among
    them, else OverflowError."""
    if any(x != x for x in xs):
        raise ValueError(f"{what} is NaN")
    raise OverflowError(f"{what} overflows")


def _bracket(walk, at, a, sa, b, sb, tol, bound, flat, max_pieces=math.inf):
    """(lower, upper, pieces, depth) of an integral over [a, b], where S
    is sa and sb, by a walk down the pieces of ``walk`` (as
    ``StaircaseEvaluator.walk`` holds it) from the smallest that holds
    [a, b], or the first below it shorter than the finest length: the
    piece of widest bracket splits until the width, as upper - lower and
    summed piece by piece, is at most tol, that piece is shorter than
    the finest length, or ``max_pieces`` would be passed.
    ``bound(u, v, su, sv, whole)`` is (upper, lower) on a piece clipped
    to [u, v] where S is su and sv; ``flat(u, v, s)`` is exact where S
    is s throughout: on a gap, off the hull, or above the order, where
    there is no walk (None).  A heap entry carries S at the ends of its
    clipped piece, and the outer copies of a piece keep its ends, so a
    split reads S, by ``at(end, share)``, only at the ends its copies
    add, and at its own start where float drift let the copy before it
    overlap it.  A bound that is not finite is refused: ValueError for
    NaN, OverflowError for an infinity.  depth counts nested splits."""
    if walk is None:
        return (flat(a, b, sa), flat(a, b, sa), 0, 0)
    top, (hull, table, t, lam), finest = walk
    exact = upper = lower = width = 0.0
    count = depth = 0
    heap = []
    push, isfinite = heapq.heappush, math.isfinite
    u, su, v, sv, d, spans = a, sa, b, sb, 0, [top]
    while True:
        # [u, v], where S is su and sv, as the pieces of depth d met and
        # the flat stretches between them; S at a piece end inside it is
        # the piece's
        for piece in spans:
            k0, k1 = piece[0], piece[1]
            if v <= k0:
                break
            if u < k0:
                exact += flat(u, k0, su)
                u, su = k0, at(k0, piece[4])
            if k1 <= u or v <= u:
                continue
            q, sq = (k1, at(k1, piece[5])) if k1 < v else (v, sv)
            # a clipped piece that lies in one of its copies is that copy,
            # down to the pieces the heap loop would no longer split
            while (u != k0 or q != k1) and k1 - k0 >= finest:
                kid = next((c for c in _children(hull, table, t, lam, piece)
                            if c[0] <= u and q <= c[1]), None)
                if kid is None:
                    break
                piece, k0, k1 = kid, kid[0], kid[1]
            hi, lo = bound(u, q, su, sq, u == k0 and q == k1)
            if not (isfinite(hi) and isfinite(lo)):
                _refuse(f"the bound on [{u!r}, {q!r}]", hi, lo)
            upper, lower, count = upper + hi, lower + lo, count + 1
            if hi > lo:
                push(heap, (lo - hi, k0, k1, d, hi, lo, piece, u, su, q, sq))
                width += hi - lo
            u, su = q, sq
        if u < v:
            exact += flat(u, v, su)
        # split the piece of widest bracket into its copies
        if not (heap and (width > tol or upper - lower > tol)):
            break
        _, k0, k1, d, hi, lo, piece, u, su, v, sv = heap[0]
        if k1 - k0 < finest or count + len(spans := _children(
                hull, table, t, lam, piece)) - 1 > max_pieces:
            break
        heapq.heappop(heap)
        upper, lower, count = upper - hi, lower - lo, count - 1
        width -= hi - lo
        d += 1
        depth = max(depth, d)
        if u > k0 and u > a:
            # float drift let the copy before this one overlap it, and
            # clip it: it splits whole, as its ends and [a, b] clip it
            u, su = (k0, at(k0, piece[4])) if k0 >= a else (a, sa)
    if width > tol:
        # far from 0 the sums round at ulps wider than tol, which can hide
        # a width the walk did not close
        upper = max(upper, lower + width)
    return (exact + lower, exact + upper, count, depth)


def _identity(u, share=None):
    """u: g the identity, and S on the axis of u at a piece end."""
    return u


def _halves(u0, u1):
    """The walk down the unit halves framed to [u0, u1] (t = u0, lam =
    u1 - u0), in the shape of ``StaircaseEvaluator.walk``: S is u itself
    there, read by ``_identity``."""
    lam, hull = u1 - u0, _HALVES._hull
    return ((u0, u1, 0.0, 1.0, 0.0, 1.0, 1.0), (hull, _HALVES._table, u0, lam),
            hull_eps(lam, u0, hull) * lam)


def _by_substitution(f, stair, a, b, tol, max_pieces=math.inf):
    """(lower, upper, pieces, depth) of the integral over [a, b] of f = g
    of the values of ``stair`` (``FOnF.of_stair`` on an evaluator equal
    to it, or ``FOnF.monotone`` of one with g(u) = u): the integral of g over
    [S(a), S(b)], by the walk of ``_bracket`` down the halves of that
    interval (``_halves``), where g convex lies between the midpoint rule
    (Jensen) and the trapezoid (the chord) on each piece.  A descent reads
    a point within the slack at the farther hull end (``rec.eps``) of a
    piece end as that end, and rounds; so the true S(x) lies between the
    float S at x -+ eta, twice that slack, less the same spread at the
    origin a0.  Each end widens the bracket by its spread times the
    largest |g| over it: 0 where x and a0 lie in gaps wider than 2 eta.
    A widening that is not finite is refused as ``_bracket`` refuses a
    bound.  None, for the walk down F, where f is not such a g, the set
    has no measure record or is off its order (S is then flat or
    diverges), or the widening alone is at least tol."""
    rec = stair.measure
    if (not isinstance(f, FOnF) or f.hint[:1] != ("monotone",)
            or rec is None or rec.side != 0):
        return None
    if f.fn == stair:
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
    if not math.isfinite(pad):
        _refuse("the widening", pad)
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
        _halves(ua, ub), _identity, ua, ua, ub, ub, tol - 2.0 * pad, bound,
        lambda u, v, s: 0.0, max_pieces)
    return (lower - pad, upper + pad, count, depth)


def integrate(f, stair, a, b, tol=1e-4, max_components=20000):
    """Certified bracket for the staircase-weighted integral of f: a walk
    down the construction pieces (``_bracket``) with ``_piece_bound`` on
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
        stair.walk, stair._at, a, stair(a), b, stair(b), tol,
        _piece_bound(f, stair), lambda u, v, s: 0.0, max_components)
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


def _descent(frame, piece, x, eps, finest):
    """(left path, right path, share): the pieces that hold x from each
    side, from ``piece`` down, as far as they are shared, with the first
    copy of each side's own below them.  One ``sets._child`` per step,
    from the left, finds the copy that holds x; where x lies strictly
    inside it, more than ``eps`` from either end, it holds x from the
    right too, since the copies start in order, and the descent goes on
    there.  The sides part where x comes within the slack of a copy end:
    a side whose copy is None there (x ends the piece with a gap on that
    side) has the path None, and where x is that end bit for bit,
    ``share`` is the staircase share there, else None.  Both paths end at
    the first piece shorter than ``finest``, where no side goes on."""
    hull, table, t, lam = frame
    path = [piece]
    while piece[1] - piece[0] >= finest:
        kid = _child(hull, table, t, lam, piece, x, eps, -1)
        if kid is None or x >= kid[1] - eps:
            right = _child(hull, table, t, lam, piece, x, eps, 1)
            share = (kid[5] if kid is not None and x == kid[1] else
                     right[4] if right is not None and x == right[0] else None)
            return (kid and path + [kid], right and path + [right], share)
        path.append(kid)
        piece = kid
    return (path, path, None)


def _side(f, x, fx, sx, at, sign, tol, r0, path, frame, eps, finest):
    """(value, residual) of the quotients on one side of x (sign -1
    left, +1 right), where f is fx and S is sx, at the far ends of the
    pieces that hold x from that side, with S at those ends read from
    the pieces by ``at``; None where the side shows no variation.  Its
    pieces are those of ``path`` (``_descent``), the shared descent
    replayed, and below them the copy that holds x at each step
    (``sets._child``, on the walk's ``frame``), with the slack ``eps``
    of x.  A side that ends at a gap has no path and is never walked: it
    reads no S and no f, so a NaN of f on it is not refused.  The walk
    stops at pieces shorter than ``finest``, and once the quotients have
    settled where x is, bit for bit, the near end of its piece: every
    finer piece that holds x from this side is then an outer copy with
    that near end (``_children`` keeps the parent's ends), and changes
    neither the value nor the side.  An x computed elsewhere may miss a
    piece end by ulps: x is a piece end within ``eps``.  Raises
    ValueError where f is NaN at a far end it reads (``_nan_at``), and
    NoLimit when quotients do not settle."""
    hull, table, t, lam = frame
    i, n = 0, len(path)
    piece = path[0]
    quots, prev, settled = [], None, None
    while piece is not None:
        k0, k1 = piece[0], piece[1]
        y, share, near = ((k1, piece[5], k0) if sign > 0
                          else (k0, piece[4], k1))
        if settled is None and y != prev and abs(y - x) <= r0:
            prev, ds = y, at(y, share) - sx
            if ds != 0.0:
                fy = f(y)
                if fy != fy:
                    raise _nan_at(y)
                quots.append((fy - fx) / ds)
                if len(quots) >= 3:
                    d1 = abs(quots[-1] - quots[-2])
                    d2 = abs(quots[-2] - quots[-3])
                    # quotient tails decay roughly geometrically, so demand
                    # diffs well under tol to keep the settled value within
                    # tol
                    if max(d1, d2) <= 0.25 * tol * max(1.0, abs(quots[-1])):
                        settled = (quots[-1], d1)
        if settled is not None and x == near:
            return settled
        if k1 - k0 < finest:
            if settled is None and len(quots) >= 3:
                raise NoLimit(f"quotients at x={x} oscillate beyond tol={tol}")
            return settled
        i += 1
        piece = path[i] if i < n else _child(hull, table, t, lam, piece, x,
                                             eps, sign)
    return None


def derivative(f, stair, x, tol=1e-3, r0=None):
    """Staircase-quotient derivative of f at x; exactly 0 off F.  Each side
    of x takes (f(y) - f(x)) / (S(y) - S(x)) at the far ends y of the
    construction pieces that hold x, none farther than r0 from x, until two
    successive differences are each at most tol / 4; a side is vacuous
    where x ends a piece with a gap on that side.  One descent down the
    evaluator's ``walk`` (none is built off F) finds the pieces that hold
    x from both sides, and parts only where x comes within its slack of a
    copy end (``_descent``); a vacuous side reads no S and no f, so a NaN
    of f there is never read, and each other side replays its quotients
    over the shared pieces (``_side``).  Where x is, bit for bit, the
    copy end at which the sides part, S(x) is that end's share, read with
    no descent.  A settled side stops once x is the near end of its
    piece, which every finer piece that holds x from that side shares.
    Both sides share f(x), S(x), the slack of x and the finest piece
    length: 1e-13 max(W, |x|) for the width W of the set's hull, or twice
    that slack over the least ratio, below which a copy could be shorter
    than the slack; W and the least ratio are the evaluator's, read once
    (``_reach``).  r0 defaults to W, so both scale with the set.  tol
    must be positive, and so must r0 at a point of F.  Raises ValueError
    where f is NaN at x or at a piece end a side reads, and NoLimit when
    the quotients do not settle, the sides disagree beyond tol, or S is
    flat."""
    _positive("tol", tol)
    _reject_nan("x", x)
    if not stair.spec._isect(x, x):
        return DerivativeResult(0.0, "off", 0.0)
    walk = stair.walk
    left = right = None
    if walk is not None:
        width, least = stair._reach
        r0 = width if r0 is None else r0
        eps = slack(x, stair.measure.scale)
        finest = max(1e-13 * max(width, abs(x)), 2.0 * eps / least)
        top, frame, _ = walk
        lpath, rpath, share = _descent(frame, top, x, eps, finest)
        at = stair._at
        # where x is the copy end at which the sides part, S(x) is its share
        sx = stair(x) if share is None else at(x, share)
        fx = f(x)
        if fx != fx:
            raise _nan_at(x)
        left = lpath and _side(f, x, fx, sx, at, -1, tol, r0, lpath, frame,
                               eps, finest)
        right = rpath and _side(f, x, fx, sx, at, 1, tol, r0, rpath, frame,
                                eps, finest)
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
    if r0 is not None:
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
