"""Integration and differentiation against the integral staircase.

The integral is a Riemann-Stieltjes-style bracket: on each subdivision
component, the sup and inf of the integrand over the intersection with F
are weighted by the staircase increment.  ``integrate`` subdivides along
the construction pieces of the set (``_bracket``), which also brackets
the Lebesgue integral of ``physics.time_of_flight``.  Both ends of a
whole piece are images of the hull ends, so they lie in F, and a
monotone integrand is bounded there by its values at those ends with no
set query; the walk's ends match the set's own to float rounding.  The
derivative is the limit of increment quotients taken through points of
F only, with the value defined as 0 off F.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from falpha.sets import Interval, _reject_nan, net

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
# rungs r0 * 3^-k of the one-sided quotient ladder of ``derivative``
_QUOTIENT_RUNGS = 40


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


def _bracket(rec, a, b, tol, bound, flat, max_pieces=math.inf):
    """(lower, upper, pieces, depth) of an integral over [a, b] by a walk
    down the construction pieces of the measure record ``rec``, split at
    its shares, from the smallest piece that holds [a, b]: the piece of
    widest bracket splits until the width is at most tol, that piece is
    below the 1e-15 slack of the set queries, or ``max_pieces`` would be
    passed.  ``bound(u, v, whole)`` is (upper, lower) on a piece clipped
    to [u, v]; ``flat(u, v)`` is exact where the staircase is constant:
    on a gap, off the hull, or above the order.  depth counts nested
    splits."""
    if rec is None or rec.total < 1.0 - 1e-12:
        return (flat(a, b), flat(a, b), 0, 0)
    (h0, h1), shares, lam, t = rec.hull, rec.shares, rec.scale, rec.shift
    hull = (t + lam * h0, t + lam * h1)
    last = len(shares) - 1
    exact = upper = lower = 0.0
    count = depth = 0
    heap = []

    def kids(k0, k1):
        # the outer copies share the ends of their parent
        w = k1 - k0
        return [(k0 + w * f0 if i else k0, k0 + w * f1 if i < last else k1)
                for i, (f0, f1) in enumerate(shares)]

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
                    (c for c in kids(k0, k1) if c[0] <= p and q <= c[1]),
                    None)):
                k0, k1 = kid
            hi, lo = bound(p, q, (p, q) == (k0, k1))
            upper, lower, count = upper + hi, lower + lo, count + 1
            if hi > lo:
                heapq.heappush(heap, (lo - hi, k0, k1, d, hi, lo))

    split(a, b, 0, [hull])
    while heap and upper - lower > tol:
        _, k0, k1, d, hi, lo = heap[0]
        if k1 - k0 < 1e-15 * lam or count + last > max_pieces:
            break
        heapq.heappop(heap)
        upper, lower, count = upper - hi, lower - lo, count - 1
        depth = max(depth, d + 1)
        split(max(a, k0), min(b, k1), d + 1, kids(k0, k1))
    return (exact + lower, exact + upper, count, depth)


def integrate(f, stair, a, b, tol=1e-4, max_components=20000):
    """Certified bracket for the staircase-weighted integral of f: a walk
    down the construction pieces (``_bracket``) with ``_component`` on
    each piece and nothing on a gap, until upper - lower <= tol.  A
    monotone f on a whole piece is bounded by its values at the piece's
    ends, which lie in F; a clipped piece, or another hint, asks the set
    for the extremes of F in it.  Raises
    NoConvergence when that takes more than ``max_components`` pieces, or
    pieces below the slack of the set queries."""
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
    side: str  # left | right | both | off
    residual: float


def _side_quotients(f, stair, x, sign, tol, r0):
    """Quotient ladder on one side of x.

    Returns ("converged", value, residual), ("no-limit", residual), or
    ("degenerate", None) when the side runs out of staircase variation.
    """
    spec = stair.spec
    eps = 1e-13 * max(1.0, abs(x))
    fx = f(x)
    sx = stair(x)
    quots = []
    last_y = None
    r = r0
    for k in range(_QUOTIENT_RUNGS):
        r = r0 * 3.0 ** -k
        if r <= eps:
            break
        if sign > 0:
            ext = spec.extremes_in(x + eps, x + r)
            y = None if ext is None else ext[1]
        else:
            ext = spec.extremes_in(x - r, x - eps)
            y = None if ext is None else ext[0]
        if y is None or y == last_y:
            continue
        last_y = y
        ds = stair(y) - sx
        if ds == 0.0:
            continue
        quots.append((f(y) - fx) / ds)
        if len(quots) >= 3:
            d1 = abs(quots[-1] - quots[-2])
            d2 = abs(quots[-2] - quots[-3])
            # quotient tails decay roughly geometrically, so demand diffs
            # well under tol to keep the settled value within tol
            bar = 0.25 * tol * max(1.0, abs(quots[-1]))
            if d1 <= bar and d2 <= bar:
                return ("converged", quots[-1], d1)
    if last_y is not None and abs(last_y - x) > 81.0 * max(r, eps):
        # the nearest point of F on this side sits a true gap away, so F
        # does not accumulate here and the one-sided limit is vacuous
        return ("degenerate", None)
    if len(quots) >= 3:
        return ("no-limit", abs(quots[-1] - quots[-2]))
    return ("degenerate", None)


def derivative(f, stair, x, tol=1e-3, r0=1.0):
    """Staircase-quotient derivative of f at x; exactly 0 off F."""
    _check_tol(tol)
    _reject_nan("x", x)
    spec = stair.spec
    if not spec._isect(x, x):
        return DerivativeResult(0.0, "off", 0.0)
    left = _side_quotients(f, stair, x, -1, tol, r0)
    right = _side_quotients(f, stair, x, +1, tol, r0)
    if left[0] == "no-limit" or right[0] == "no-limit":
        raise NoLimit(f"quotients at x={x} oscillate beyond tol={tol}")
    l_ok = left[0] == "converged"
    r_ok = right[0] == "converged"
    if l_ok and r_ok:
        mismatch = abs(left[1] - right[1])
        if mismatch > tol * max(1.0, abs(left[1])):
            raise NoLimit(
                f"one-sided values at x={x} disagree by {mismatch:.3e}"
            )
        value = (left[1] + right[1]) / 2.0
        return DerivativeResult(value, "both", max(left[2], right[2], mismatch))
    if l_ok:
        return DerivativeResult(left[1], "left", left[2])
    if r_ok:
        return DerivativeResult(right[1], "right", right[2])
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
