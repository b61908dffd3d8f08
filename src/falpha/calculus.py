"""Integration and differentiation against the integral staircase.

The integral is a Riemann-Stieltjes-style bracket: on each subdivision
component, the sup and inf of the integrand over the intersection with F
are weighted by the staircase increment; refinement splits the component
with the largest bracket contribution, preferring splits at gap endpoints
(components inside gaps contribute nothing).  The derivative is the limit
of increment quotients taken through points of F only, with the value
defined as 0 off F.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from falpha.sets import Interval, _reject_nan, gaps, net

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
    upper = 0.0
    lower = 0.0
    for u, v in subdivision.components():
        ds = stair(v) - stair(u)
        if ds == 0.0:
            continue
        m_hi, m_lo = sup_inf_on(f, stair.spec, Interval(u, v))
        upper += m_hi * ds
        lower += m_lo * ds
    return (upper, lower)


@dataclass(frozen=True)
class IntegralResult:
    lower: float
    upper: float
    value: float
    gap: float
    refinement_depth: int

    def contains(self, target, slack=0.0):
        return self.lower - slack <= target <= self.upper + slack


def _component(f, stair, u, v):
    ds = stair(v) - stair(u)
    if ds == 0.0:
        return (0.0, 0.0, 0.0)
    m_hi, m_lo = sup_inf_on(f, stair.spec, Interval(u, v))
    return (m_hi * ds, m_lo * ds, (m_hi - m_lo) * ds)


def _check_tol(tol):
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")


def integrate(f, stair, a, b, tol=1e-4, max_components=20000):
    """Certified bracket for the staircase-weighted integral of f.

    Splits at gap endpoints first (gap components cost nothing), then
    bisects whichever component contributes most to the bracket width,
    until upper - lower <= tol.
    """
    _check_tol(tol)
    _reject_nan("a", a)
    _reject_nan("b", b)
    if a == b:
        return IntegralResult(0.0, 0.0, 0.0, 0.0, 0)
    if b < a:
        res = integrate(f, stair, b, a, tol, max_components)
        return IntegralResult(-res.upper, -res.lower, -res.value,
                              res.gap, res.refinement_depth)
    spec = stair.spec
    cuts = {a, b}
    for g in gaps(spec, Interval(a, b), min_len=(b - a) / 64.0):
        if a < g.lo < b:
            cuts.add(g.lo)
        if a < g.hi < b:
            cuts.add(g.hi)
    pts = sorted(cuts)
    upper = 0.0
    lower = 0.0
    heap = []
    depth = 0
    count = 0
    for u, v in zip(pts, pts[1:]):
        hi, lo, spread = _component(f, stair, u, v)
        upper += hi
        lower += lo
        count += 1
        if spread > 0.0:
            heapq.heappush(heap, (-spread, u, v, 0, hi, lo))
    while upper - lower > tol and heap:
        if count >= max_components:
            raise NoConvergence(
                f"bracket still {upper - lower:.3e} wide after "
                f"{count} components",
                gap=upper - lower,
                partial=IntegralResult(lower, upper, (upper + lower) / 2.0,
                                       upper - lower, depth),
            )
        _, u, v, d, old_hi, old_lo = heapq.heappop(heap)
        upper -= old_hi
        lower -= old_lo
        # split at the largest internal gap when one is substantial,
        # otherwise at the midpoint
        split = None
        internal = gaps(spec, Interval(u, v), min_len=(v - u) / 8.0)
        internal = [g for g in internal if u < g.lo and g.hi < v]
        if internal:
            g = max(internal, key=lambda g: g.length)
            split = (g.lo, g.hi)
        if split is None:
            mid = (u + v) / 2.0
            split = (mid, mid)
        pieces = [(u, split[0]), (split[1], v)]
        depth = max(depth, d + 1)
        for (pu, pv) in pieces:
            if pv <= pu:
                continue
            hi, lo, spread = _component(f, stair, pu, pv)
            upper += hi
            lower += lo
            count += 1
            if spread > 0.0:
                heapq.heappush(heap, (-spread, pu, pv, d + 1, hi, lo))
    if upper - lower > tol:
        raise NoConvergence(
            f"bracket stalled at {upper - lower:.3e}",
            gap=upper - lower,
            partial=IntegralResult(lower, upper, (upper + lower) / 2.0,
                                   upper - lower, depth),
        )
    gap_final = max(0.0, upper - lower)
    return IntegralResult(lower, upper, (upper + lower) / 2.0, gap_final, depth)


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
