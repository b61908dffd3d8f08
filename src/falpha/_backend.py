"""Staircase kernels: the package's hot inner loops.

On a gap IFS at its order the staircase is the distribution function of
the self-similar measure giving copy i the weight r_i^alpha / sum
r_j^alpha (Hutchinson 1981).  ``measure`` builds its record on each
call, in the frame that ``frame`` gives: a ``StaircaseEvaluator`` keeps
the one it reads, and other callers seldom ask twice for one set at one
order.  Its table has one flat row (offset, ratio, span start, span end,
weight) per copy, those of ``GapIFS._table`` with the weights put in,
and every descent down the copies reads them as stored: the staircase,
the moments, and the piece walks of ``sets._children``.  Each descent
has a column form, ``stair_column`` and ``moment_column``: one sweep of
a table's column, in which the points that share a copy share its
descent, bit for bit the per-point values.  Callers reach the kernels,
the column forms too, as module attributes at call time, so a wrapper
installed here, such as the benchmark's tracer, sees every call.  A
descent works in the local coordinates of the copy entered: a point
within ``sets.slack`` of a hull end (``eps``/scale locally) is that end.
The Lebesgue moments of the staircase need no descent: the same
self-similarity makes them a linear recursion, solved once per set and
order: a memo of at most ``_MOMENTS_CAP`` entries keys them by what the
recursion reads, so a wrapped set shares its plain set's entry.
"""

import bisect
import collections
import functools
import itertools
import math
import operator

from falpha.sets import FullInterval, GapIFS, TernaryCantor, slack, unwrap

BACKEND = "python"

_HALVES = GapIFS((0.5, 0.5), (0.0, 0.5))  # their attractor is [0, 1]
# distinct (set, order, n) whose Lebesgue moments are kept
_MOMENTS_CAP = 64


# A self-similar measure at order alpha, in the frame shift + scale x:
#   hull    (h0, h1) of the unwrapped set
#   table   (offset, ratio, span start, span end, weight) per copy: the
#           rows of GapIFS._table, weighted r^alpha / sum r^alpha
#   mean    mean of the normalised measure, as a share of the hull
#   eps     sets.slack at the farther hull end, in hull units
#   side    side_of_order(sum r^alpha)
Measure = collections.namedtuple(
    "Measure", "scale shift hull table mean eps side")


def side_of_order(total):
    """The side of the similarity order s on which an order alpha with
    sum r^alpha = ``total`` lies: -1 above s, 1 below it, and 0 in the
    band around total = 1 that counts as s."""
    return -1 if total < 1.0 - 1e-12 else int(total > 1.0 + 1e-9)


def frame(spec):
    """(scale, shift, unwrapped set) of spec, as its record reads it: an
    interval is the unit halves, scaled to its ends."""
    lam, t, inner = unwrap(spec)
    if isinstance(inner, FullInterval):
        return lam * (inner.hi - inner.lo), t + lam * inner.lo, _HALVES
    return lam, t, inner


def hull_eps(lam, t, hull):
    """``sets.slack`` at the farther end of ``hull`` mapped by
    x -> t + lam x, in units of the unmapped hull: a record's ``eps``."""
    h0, h1 = hull
    return slack(max(abs(t + lam * h0), abs(t + lam * h1)), lam) / lam


def measure(spec, alpha):
    """The record of spec at order alpha (an interval is its two halves),
    or None for point sets and the harmonic cluster.  The mean M solves
    M = sum p_j (f_j + r_j M) for weights p_j, ratios r_j and start shares
    f_j; 1 - M, the Lebesgue mean of the rescaled staircase, is computed
    first, so the two are complements in floats too."""
    lam, t, inner = frame(spec)
    if not isinstance(inner, GapIFS):
        return None
    ps = [r ** alpha for r in inner.ratios]
    total = sum(ps)
    table = tuple([(o, r, s0, s1, p / total)
                   for (o, r, s0, s1, _), p in zip(inner._table, ps)])
    h0, h1 = hull = inner._hull
    width = h1 - h0
    stair_mean = 1.0 - (
        sum([p * ((s0 - h0) / width) for _, _, s0, _, p in table])
        / (1.0 - sum([p * r for _, r, _, _, p in table])))
    return Measure(lam, t, hull, table, 1.0 - stair_mean,
                   hull_eps(lam, t, hull), side_of_order(total))


def stair_scaled(hull, table, eps, x, val=0.0, w=1.0):
    """Staircase at x of the measure with the ``table`` and ``eps`` of a
    ``Measure``, scaled to rise from 0 to 1 across ``hull``.

    Each copy passed on the left of x adds its weight times the running
    weight; entering the copy that contains x multiplies the running
    weight by that copy's weight and zooms x into it.  The loop stops in
    a gap, or at a hull end.  ``val`` and ``w`` carry a descent that
    ``stair_column`` has taken this far, with x and ``eps`` zoomed in.
    """
    h0, h1 = hull
    while h0 + eps < x < h1 - eps:
        for o, r, s0, s1, p in table:
            if x < s0:
                return val  # in a gap left of this copy
            if x <= s1:
                x = (x - o) / r
                w *= p
                eps /= r
                break
            val += w * p
        else:
            return val  # past the last copy's end, by float drift
    return val if x <= h0 + eps else val + w


def stair_column(hull, table, eps, xs):
    """``[stair_scaled(hull, table, eps, x) for x in xs]``, bit for bit,
    by one sweep down the copies of the column in order (``_in_order``).

    At each level ``bisect`` splits a group of points, which share the
    running value and weight, by the rows of ``table``: the points at or
    past a hull end, within the slack, or in a gap take the running value
    as a slice, and each copy's points are zoomed together, with the
    operations of ``stair_scaled`` on the same operands.  A copy's lone
    point finishes in ``stair_scaled``, from the running value and
    weight."""
    return _in_order(functools.partial(_stair_sweep, hull, table, eps), xs)


def _stair_sweep(hull, table, eps, xs):
    """``stair_column`` of a sorted column."""
    h0, h1 = hull
    left, right = bisect.bisect_left, bisect.bisect_right
    out = [0.0] * len(xs)
    # (start in out, points zoomed into the group's copy, value, weight,
    # slack): groups left to split, each of two points or more
    todo = [(0, xs, 0.0, 1.0, eps)] if xs else []
    while todo:
        at, xs, val, w, eps = todo.pop()
        i, end = 0, len(xs)
        if xs[0] <= h0 + eps:
            i = right(xs, h0 + eps)
            out[at:at + i] = [val] * i
        if xs[-1] >= h1 - eps:
            end = max(i, left(xs, h1 - eps))
            out[at + end:at + len(xs)] = [val + w] * (len(xs) - end)
        for o, r, s0, s1, p in table:
            if i == end:
                break
            if xs[i] < s0:
                j = left(xs, s0, i, end)
                out[at + i:at + j] = [val] * (j - i)  # in a gap left of it
                i = j
            j, i = i, right(xs, s1, i, end)
            wp = w * p
            if i - j == 1:
                out[at + j] = stair_scaled(hull, table, eps / r,
                                           (xs[j] - o) / r, val, wp)
            elif i > j:
                todo.append((at + j, [(x - o) / r for x in xs[j:i]], val,
                             wp, eps / r))
            val += wp
        out[at + i:at + end] = [val] * (end - i)  # past the last copy
    return out


def _in_order(sweep, xs):
    """``sweep(xs)`` for a sweep that reads its column sorted: an unsorted
    column goes in sorted, and its results come back in its order."""
    if all(map(operator.le, xs, xs[1:])):
        return sweep(xs)
    rank = sorted(range(len(xs)), key=xs.__getitem__)
    out = [0.0] * len(xs)
    for i, v in zip(rank, sweep([xs[i] for i in rank])):
        out[i] = v
    return out


def _mean_point(rec):
    """The mean of the normalised measure of ``rec``, in its hull."""
    h0, h1 = rec.hull
    return h0 + rec.mean * (h1 - h0)


def moment_scaled(rec, x):
    """Integral of y over (-inf, x] against the normalised measure of
    ``rec``: the staircase's descent (``_moment``), carrying the frame
    y -> a + b * y of the copy entered."""
    a, b = rec.shift, rec.scale
    return _moment(rec.hull, rec.table, _mean_point(rec), (x - a) / b,
                   0.0, 1.0, rec.eps, a, b)


def _moment(hull, table, m, x, val, w, eps, a, b):
    """``moment_scaled`` at x in the frame of the copy entered, with mean
    point m, from the running value, weight, slack and frame (a, b).  Each
    copy passed adds its weight times its image of the mean, and a whole
    hull reached the running weight times its."""
    h0, h1 = hull
    while h0 + eps < x < h1 - eps:
        for o, r, s0, s1, p in table:
            if x < s0:
                return val  # in a gap left of this copy
            if x <= s1:
                x = (x - o) / r
                a, b = a + b * o, b * r
                w *= p
                eps /= r
                break
            val += w * p * (a + b * (o + r * m))
        else:
            return val  # past the last copy's end, by float drift
    return val if x <= h0 + eps else val + w * (a + b * m)


def moment_column(rec, xs):
    """``[moment_scaled(rec, x) for x in xs]``, bit for bit: the sweep of
    ``stair_column`` on the moment descent, each copy's lone point
    finishing in ``_moment``."""
    a, b = rec.shift, rec.scale
    sweep = functools.partial(_moment_sweep, rec.hull, rec.table,
                              _mean_point(rec), rec.eps, a, b)
    return _in_order(sweep, [(x - a) / b for x in xs])


def _moment_sweep(hull, table, m, eps, a, b, xs):
    """``moment_column`` of a sorted column, in the frame of ``hull``."""
    h0, h1 = hull
    left, right = bisect.bisect_left, bisect.bisect_right
    out = [0.0] * len(xs)
    todo = [(0, xs, 0.0, 1.0, eps, a, b)] if xs else []
    while todo:
        at, xs, val, w, eps, a, b = todo.pop()
        i, end = 0, len(xs)
        if xs[0] <= h0 + eps:
            i = right(xs, h0 + eps)
            out[at:at + i] = [val] * i
        if xs[-1] >= h1 - eps:
            end = max(i, left(xs, h1 - eps))
            out[at + end:at + len(xs)] = ([val + w * (a + b * m)]
                                          * (len(xs) - end))
        for o, r, s0, s1, p in table:
            if i == end:
                break
            if xs[i] < s0:
                j = left(xs, s0, i, end)
                out[at + i:at + j] = [val] * (j - i)  # in a gap left of it
                i = j
            j, i = i, right(xs, s1, i, end)
            wp = w * p
            if i - j == 1:
                out[at + j] = _moment(hull, table, m, (xs[j] - o) / r, val,
                                      wp, eps / r, a + b * o, b * r)
            elif i > j:
                todo.append((at + j, [(x - o) / r for x in xs[j:i]], val,
                             wp, eps / r, a + b * o, b * r))
            val += wp * (a + b * (o + r * m))
        out[at + i:at + end] = [val] * (end - i)  # past the last copy
    return out


def lebesgue_moments(rec, n):
    """(M_0, ..., M_n), M_k the integral of s(y)^k over [0, 1] for the
    staircase s of ``rec`` rescaled to rise from 0 to 1 across its hull.

    On the span of copy j, r_j of the hull long, s is C_j + p_j s rescaled,
    with p_j its weight and C_j that of the copies left of it; on the gap
    after it, g_j of the hull long, s is C_(j+1).  Expanding the power:
    M_k (1 - sum_j r_j p_j^k) = sum_j r_j sum_(i<k) binom(k, i)
    C_j^(k-i) p_j^i M_i + sum_j g_j C_(j+1)^k, from M_0 = 1 and
    M_1 = 1 - ``rec.mean``.  Every term is positive, so the floats keep
    their relative accuracy.  The moments depend on the set and the order
    only, so they are solved once per ``table``, ``hull``, ``mean`` and n
    and kept, for at most ``_MOMENTS_CAP`` of them, as a tuple that no
    caller can change; the frame (scale, shift, eps) is not read.
    """
    return _moments(rec.table, rec.hull, rec.mean, n)


@functools.lru_cache(maxsize=_MOMENTS_CAP)
def _moments(table, hull, mean, n):
    """``lebesgue_moments`` of a record with this ``table``, ``hull`` and
    ``mean``."""
    h0, h1 = hull
    shares = [((s0 - h0) / (h1 - h0), (s1 - h0) / (h1 - h0))
              for _, _, s0, s1, _ in table]
    cs = list(itertools.accumulate((p for *_, p in table), initial=0.0))
    rps = [(r, p) for _, r, _, _, p in table]
    gaps = [(f0 - f1, c) for ((_, f1), (f0, _)), c
            in zip(zip(shares, shares[1:]), cs[1:])]
    # the first copy, at C_0 = 0, adds nothing; the others as r_j, C_j
    # and p_j / C_j, the ratio of the Horner sum below
    right = [(r, c, p / c) for (r, p), c in zip(rps[1:], cs[1:])]
    moments = [1.0, 1.0 - mean]
    for k in range(2, n + 1):
        # C_j^k sum_(i<k) binom(k, i) (p_j / C_j)^i M_i by Horner's rule
        terms = [math.comb(k, i) * m for i, m in enumerate(moments)][::-1]
        acc = sum(g * c ** k for g, c in gaps)
        for r, c, x in right:
            h = 0.0
            for t in terms:
                h = h * x + t
            acc += r * c ** k * h
        moments.append(acc / (1.0 - sum(r * p ** k for r, p in rps)))
    return tuple(moments[:n + 1])


_CANTOR = measure(TernaryCantor(), math.log(2.0) / math.log(3.0))


def cantor_scaled(x):
    """The Cantor function: the staircase descent on the middle-thirds
    record, with weights (1/2, 1/2).  Inputs outside [0, 1] clamp."""
    return stair_scaled(_CANTOR.hull, _CANTOR.table, _CANTOR.eps, x)


def g_series_scaled(y):
    """Gamma(alpha+1) times g(y): the moment descent on the middle-thirds
    record, with mean 1/2.  Inputs outside [0, 1] clamp."""
    return moment_scaled(_CANTOR, y)
