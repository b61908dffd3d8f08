"""Dimension estimators.

The order-jump dimension is read from the set's structure.  On a gap IFS
the mass of ``falpha.mass`` diverges below the similarity order s, is 0
above it, and is finite and positive at it wherever the staircase rises
(``mass._side_of_order``; the open set condition puts the jump at s:
Hutchinson 1981, Falconer, *Fractal Geometry*, Thm 9.3).  An interval is
the gap IFS of its two halves, of order 1; a point set has mass 0 at
every order.  So one verdict, at the set's order, gives the dimension:
that order where the staircase rises on [a, b], else 0.  The order is
solved once per tuple of ratios and kept, for at most 64 tuples
(``similarity_order``), so ``gamma_dimension``, the CLI's ``--alpha
auto`` and ``verify`` solve each set's order once per process.

The box dimension is read from structure too.  Under the open set
condition a gap IFS has dim_B F = s (Falconer, Thm 9.3); where the
staircase rises on [a, b], F meets [a, b] in a whole small copy of F,
and elsewhere in at most the points a and b.  So it is the order-jump
dimension, on intervals and finite sets as well, with one exception:
{0} union {1/n} has box dimension 1/2 (Falconer, Example 3.5) on a
window that holds 0 and a point 1/n, and 0 on any other; a wrapped
window is mapped into the unwrapped set (``sets.unwrap``) to test that.

``box_counts`` and ``box_dimension`` are the numeric estimate, for
comparison: exact counts of base-3 grid boxes meeting F, via the
intersection oracle with hierarchical pruning of empty boxes (each box
resumes its parent's walk down the copies rather than starting again
from the top), and their least-squares slope.
"""

import functools
import math

from falpha import _backend
from falpha.mass import _side_of_order
from falpha.sets import (FullInterval, GapIFS, HarmonicCluster, Record,
                         _count, _positive, _reject_nan, unwrap)

__all__ = ["DimensionReport", "gamma_dimension", "box_dimension",
           "similarity_order"]

# distinct ratio tuples whose similarity order is kept
_ORDER_CAP = 64


def similarity_order(ratios):
    """The root s of sum(r_i^s) = 1: the exact dimension of a gap IFS
    attractor with separated pieces.  The result has the bits of a plain
    bisection on [0, 1]; the bisection sums the powers only at midpoints
    in a band around the root (``_uncertain_band``), and takes the side
    that sum would give at every other one.  The order depends on the
    ratios alone, so it is solved once per tuple of float ratios and kept,
    for at most ``_ORDER_CAP`` tuples; a refused tuple is not kept."""
    return _similarity_order(tuple([float(r) for r in ratios]))


@functools.lru_cache(maxsize=_ORDER_CAP)
def _similarity_order(ratios):
    """``similarity_order`` of a tuple of floats."""
    if not ratios or any(not 0.0 < r < 1.0 for r in ratios):
        raise ValueError("ratios must lie in (0, 1)")

    lo, hi = 0.0, 1.0
    if sum(ratios) >= 1.0:
        return 1.0
    below, above = _uncertain_band(ratios)
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            # lo and hi are adjacent floats: later steps keep mid, or
            # collapse both onto it, so the result is already mid
            break
        if mid < below or (
                mid <= above and sum([r ** mid for r in ratios]) > 1.0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _uncertain_band(ratios):
    """(p, q) such that the float sum([r ** s for r in ratios]) exceeds 1
    at every s < p and is at most 1 at every s > q, placed about the root
    of f(s) = sum(r^s) - 1 by Newton steps; (-inf, inf) when the proof
    fails.

    The proof: f falls strictly, and the float sum is within a relative
    gamma of the true one.  Each power is within an ulp, 2^-52, and the
    m - 1 additions add (m - 1) 2^-53, so gamma = (m + 2) 2^-51 is over
    four times that (a power that underflows errs by under 2^-1074, far
    inside the margins).  So a float sum above 1 + 3 gamma at p puts the
    true sum above 1 / (1 - gamma) at every s < p, where the float sum
    then exceeds 1; and one below 1 - 3 gamma at q puts the true sum
    below 1 / (1 + gamma) at every s > q, where the float sum is then
    at most 1."""
    m = len(ratios)
    logs = [math.log(r) for r in ratios]
    # by Jensen, sum(r^s) >= m exp(s mean(ln r)), which is 1 at this s:
    # it is at or below the root, where f is convex and falls, so Newton
    # steps from it rise to the root without overshooting, in a handful
    # of steps; the proof below does not rest on how near they come
    s = m * math.log(m) / -sum(logs)
    for _ in range(50):
        terms = [math.exp(s * x) for x in logs]
        slope = sum([t * x for t, x in zip(terms, logs)])
        step = (sum(terms) - 1.0) / slope
        s -= step
        if abs(step) < 1e-10:
            break
    # f falls by -slope per unit of s near the root, so a step of
    # 8 gamma / -slope clears the 3 gamma margin either side
    gamma = (m + 2) * 2.0 ** -51
    p = s + 8.0 * gamma / slope
    q = s - 8.0 * gamma / slope
    # every midpoint lies in (0, 1), so a p at or below 0 or a q at or
    # above 1 needs no proof (and r ** p could overflow)
    if ((p <= 0.0 or sum([r ** p for r in ratios]) > 1.0 + 3.0 * gamma)
            and (q >= 1.0
                 or sum([r ** q for r in ratios]) < 1.0 - 3.0 * gamma)):
        return p, q
    return -math.inf, math.inf


def _order(spec):
    """The order of spec: the similarity order of the gap IFS it wraps,
    or 1 for an interval (the order of the halves its measure record
    reads) and for a point set, which has no record."""
    inner = unwrap(spec)[2]
    if isinstance(inner, GapIFS):
        return similarity_order(inner.ratios)
    return 1.0


class DimensionReport(Record):
    """The order-jump dimension, the box dimension from structure
    (``box_dimension`` is the estimate), the one (alpha, verdict) probe,
    at the set's order, and the bracket (gamma_dim, gamma_dim): the
    order is exact."""

    _fields = ("gamma_dim", "box_dim", "alpha_trace", "bracket")

    def __init__(self, gamma_dim, box_dim, alpha_trace, bracket):
        self.__dict__.update(gamma_dim=gamma_dim, box_dim=box_dim,
                             alpha_trace=alpha_trace, bracket=bracket)


def _unwrap(spec, a, b):
    """(unwrapped set, a, b mapped into it by ``sets.unwrap``), refusing
    a window whose width is not finite before or after the mapping.  The
    scale is positive, so the mapped ends keep their order."""
    s, t, spec = unwrap(spec)
    u, v = (a - t) / s, (b - t) / s
    if not (math.isfinite(b - a) and math.isfinite(v - u)):
        raise ValueError(f"window [a, b] = [{a!r}, {b!r}] has no finite width")
    return spec, u, v


def gamma_dimension(spec, a, b, tol=0.02, box_depth=12):
    """The order at which the mass on [a, b] jumps from infinite to zero:
    the set's order where its mass there is positive, else 0 (the mass is
    0 at every order).  The box dimension of F on [a, b] is that same
    value, except on a window of the harmonic cluster that holds 0 and a
    point 1/n, where it is 1/2; it is read from structure, and
    ``box_dimension`` is the numeric estimate.  ``tol`` (in (0, 0.5])
    and ``box_depth`` (an int of at least 1) are range-checked but have
    no effect: both values are exact.  A reversed window, or one whose
    width is not finite, is refused."""
    _positive("tol", tol, 0.5)
    _count("box_depth", box_depth, 1)
    _reject_nan("a", a)
    _reject_nan("b", b)
    if a > b:
        raise ValueError("need a <= b")
    if not spec._isect(a, b):
        raise ValueError("F does not meet [a, b]")
    inner, u, v = _unwrap(spec, a, b)
    order = _order(spec)
    verdict = ("zero", "positive", "diverging")[
        _side_of_order(_backend.measure(spec, order), a, b) + 1]
    dim = order if verdict == "positive" else 0.0
    box = 0.5 if isinstance(inner, HarmonicCluster) and u <= 0.0 < v else dim
    return DimensionReport(dim, box, ((order, verdict),), (dim, dim))


def box_counts(spec, a, b, max_depth=12):
    """N_k = number of base-3 grid boxes at depth k meeting F, for
    k = 0..max_depth, an int in [0, 34] (3^-34 < 2^-53: a deeper box is
    narrower than the rounding of the window's width); computed by pruned
    recursion.  Each box resumes the walk down the copies from the frame
    in which its parent's walk stopped, and so meets F exactly when a walk
    from the top says it does.  A box inside an interval F is not visited:
    it and its 3^j descendants at each depth d + j meet F, and are counted
    as such.  A point window is one box at every depth;
    a reversed window, or one whose width is not finite, is refused."""
    _count("max_depth", max_depth, 0, 34)
    if a > b:
        raise ValueError("need a <= b")
    point = a == b  # before unwrapping, which may round [a, b] to a point
    spec, a, b = _unwrap(spec, a, b)
    if point:
        return [int(spec._isect(a, b))] * (max_depth + 1)
    counts = [0] * (max_depth + 1)
    walk = spec._walk
    # an interval holds every box inside it, and each box's three children
    # lie inside it too, so those boxes are counted without a visit
    full = spec.hull() if isinstance(spec, FullInterval) else None

    def visit(lo, hi, off, scale, d):
        if full and full[0] <= lo and hi <= full[1]:
            for j in range(max_depth - d + 1):
                counts[d + j] += 3 ** j
            return
        frame = walk(lo, hi, off, scale)
        if frame is None:
            return
        counts[d] += 1
        if d == max_depth:
            return
        off, scale = frame
        third = (hi - lo) / 3.0
        visit(lo, lo + third, off, scale, d + 1)
        visit(lo + third, lo + 2.0 * third, off, scale, d + 1)
        visit(hi - third, hi, off, scale, d + 1)

    visit(a, b, 0.0, 1.0, 0)
    return counts


def box_dimension(spec, a, b, max_depth=12):
    """Least-squares slope of ln N versus ln(1/delta) over the base-3
    box ladder from depth 3 to max_depth, an int in [4, 34]."""
    _count("max_depth", max_depth, 4)
    counts = box_counts(spec, a, b, max_depth)
    pts = [
        (k * math.log(3.0), math.log(counts[k]))
        for k in range(3, max_depth + 1)
        if counts[k] > 0
    ]
    if len(pts) < 2:
        return 0.0
    n = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    denom = n * sxx - sx * sx
    return (n * sxy - sx * sy) / denom
