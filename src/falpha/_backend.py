"""Staircase kernels: the package's hot inner loops.

On a gap IFS at its order the staircase is the distribution function of
the self-similar measure giving copy i the weight r_i^alpha / sum
r_j^alpha (Hutchinson 1981).  ``measure`` builds its record on each
call, in the frame that ``frame`` gives, and only where something reads
its weights: a ``StaircaseEvaluator`` keeps the one it reads, and other
callers seldom ask twice for one set at one order.  Verdicts read the
set's own table: ``weigh`` gives the frame and the side of the order,
and ``stair_rises`` whether the staircase rises, from the branches of
the descents, which read no weight; so ``mass``, ``coarse_mass`` and
``gamma_dimension`` build no record.  The record's table has one flat
row (offset, ratio, span start, span end, weight) per copy, those of
``GapIFS._table`` with the weights put in, and every
descent down the copies reads them as stored: the staircase, the
moments, and the piece walks of ``sets._children``.  The record keeps
no mean, which only the moments read: ``_mean`` computes it from the
table, once per moment descent or column (``_mean_point``) and once per
entry of the Lebesgue moments' memo.  The staircase
and the first moment are one descent of a + b y against the measure,
``_descend``: the staircase at the frame (1, 0), the moment at the
record's (shift, scale); ``stair_scaled`` is it at (1, 0) written out
lean, for the staircase's per-point callers.  Each has a column form,
``stair_column`` and ``moment_column``: one sweep, ``_sweep``, of a
table's column, in which the points that share a copy share its
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
# distinct (table, hull, n) whose Lebesgue moments are kept
_MOMENTS_CAP = 64


# A self-similar measure at order alpha, in the frame shift + scale x:
#   hull    (h0, h1) of the unwrapped set
#   table   (offset, ratio, span start, span end, weight) per copy: the
#           rows of GapIFS._table, weighted r^alpha / sum r^alpha
#   eps     sets.slack at the farther hull end, in hull units
#   side    side_of_order(sum r^alpha)
# The mean of the measure is not kept: only the moments read it, and
# ``_mean`` computes it from the table and hull where they do.
Measure = collections.namedtuple("Measure", "scale shift hull table eps side")


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


def weigh(spec, alpha):
    """(scale, shift, unwrapped set, side) of spec at order alpha: the
    frame that ``measure`` reads and ``side_of_order`` of sum r^alpha over
    the copies of the gap IFS there, with no table; the side is -1 for
    point sets and the harmonic cluster."""
    lam, t, inner = frame(spec)
    if not isinstance(inner, GapIFS):
        return lam, t, inner, -1
    total = sum([r ** alpha for r in inner.ratios])
    return lam, t, inner, side_of_order(total)


def measure(spec, alpha):
    """The record of spec at order alpha (an interval is its two halves),
    or None for point sets and the harmonic cluster: the frame, the
    weighted table, the slack and the side of the order, with no mean
    (``_mean`` gives it to the moments)."""
    lam, t, inner = frame(spec)
    if not isinstance(inner, GapIFS):
        return None
    ps = [r ** alpha for r in inner.ratios]
    total = sum(ps)
    table = tuple([(o, r, s0, s1, p / total)
                   for (o, r, s0, s1, _), p in zip(inner._table, ps)])
    hull = inner._hull
    return Measure(lam, t, hull, table, hull_eps(lam, t, hull),
                   side_of_order(total))


def _mean(table, hull):
    """The mean M of the normalised measure with this ``table``, as a
    share of its ``hull``.  M solves M = sum p_j (f_j + r_j M) for weights
    p_j, ratios r_j and start shares f_j; 1 - M, the Lebesgue mean of the
    rescaled staircase, is computed first, so the two are complements in
    floats too."""
    h0, h1 = hull
    width = h1 - h0
    stair_mean = 1.0 - (
        sum([p * ((s0 - h0) / width) for _, _, s0, _, p in table])
        / (1.0 - sum([p * r for _, r, _, _, p in table])))
    return 1.0 - stair_mean


def stair_scaled(hull, table, eps, x):
    """Staircase at x of the measure with the ``table`` and ``eps`` of a
    ``Measure``, scaled to rise from 0 to 1 across ``hull``.

    Each copy passed on the left of x adds its weight times the running
    weight; entering the copy that contains x multiplies the running
    weight by that copy's weight and zooms x into it.  The loop stops in
    a gap, or at a hull end.  It is ``_descend`` in the frame (1, 0),
    where every term of the frame is exact, written out for the
    staircase's per-point callers.
    """
    h0, h1 = hull
    val, w = 0.0, 1.0
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


def stair_rises(hull, table, eps, x, y):
    """Whether ``stair_scaled`` on ``hull``, ``table`` and ``eps`` rises
    from x to y >= x in exact sums, read from the branches of the two
    descents and not from their floats: offsets, ratios, spans and slack,
    never a weight.  So it is the rise for every measure that gives the
    copies positive weights summing to 1, and it reads a measure record's
    table and the set's own ``GapIFS._table`` alike.

    The descents share their path down to the level where they part.
    There each has the running value, plus the running weight times the
    weights of the copies it passes and its share of the copy it enters.
    So S rises unless y stops in x's gap, or enters the copy after it at
    the low end (``_gains``), or x is at the high end of the copy it
    enters (``_short_of_high``) and y in the gap after that copy, or at
    the low end of the next.  A float sum drops a copy once the running
    weight falls below half an ulp of the running value, which a set with
    a ratio of a few hundredths or less reaches inside the slack's depth:
    comparing the sums can then miss a whole copy of F between x and y."""
    h0, h1 = hull
    while h0 + eps < x < h1 - eps:
        if not y < h1 - eps:
            return _short_of_high(hull, table, eps, x)
        copies = iter(table)
        for row in copies:
            o, r, s0, s1, _ = row
            if x < s0:
                return _gains(hull, table, eps, y, row)
            if x <= s1:
                break
        else:
            return False  # both past the last copy, by float drift
        if y > s1:
            if _short_of_high(hull, table, eps / r, (x - o) / r):
                return True
            # x at the high end of its copy: y rises only from the next
            row = next(copies, None)
            return row is not None and _gains(hull, table, eps, y, row)
        x, y, eps = (x - o) / r, (y - o) / r, eps / r
    # at the low end S(x) is the running value; at the high end so is S(y)
    if not x <= h0 + eps:
        return False
    if not h0 + eps < y < h1 - eps:
        return not y <= h0 + eps
    return _gains(hull, table, eps, y, table[0])


def _gains(hull, table, eps, y, row):
    """Whether the descent at y, inside this level's slack, passes a copy
    or reaches the high end from the gap left of the copy ``row`` on: the
    staircase at y exceeds its value in that gap."""
    h0, h1 = hull
    o, r, s0, s1, _ = row
    while s0 <= y <= s1:
        y, eps = (y - o) / r, eps / r
        if not h0 + eps < y < h1 - eps:
            return not y <= h0 + eps
        o, r, s0, s1, _ = table[0]
    return y > s1


def _short_of_high(hull, table, eps, x):
    """Whether the descent at x stops short of the high end: the
    staircase at x is below its value there."""
    h0, h1 = hull
    last = len(table) - 1
    while h0 + eps < x < h1 - eps:
        for k, (o, r, s0, s1, _) in enumerate(table):
            if x <= s1:
                break
        else:
            return False  # past the last copy, by float drift
        if x < s0 or k < last:
            return True
        x, eps = (x - o) / r, eps / r
    return x <= h0 + eps


def stair_column(hull, table, eps, xs):
    """``[stair_scaled(hull, table, eps, x) for x in xs]``, bit for bit:
    ``_sweep`` in the frame (1, 0)."""
    return _in_order(functools.partial(_sweep, hull, table, 0.0, eps,
                                       1.0, 0.0), xs)


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
    """The mean of the normalised measure of ``rec``, in its hull,
    computed from its table by ``_mean``."""
    h0, h1 = rec.hull
    return h0 + _mean(rec.table, rec.hull) * (h1 - h0)


def moment_scaled(rec, x):
    """Integral of y over (-inf, x] against the normalised measure of
    ``rec``: ``_descend`` in the record's frame."""
    a, b = rec.shift, rec.scale
    return _descend(rec.hull, rec.table, _mean_point(rec), (x - a) / b,
                    0.0, 1.0, rec.eps, a, b)


def _descend(hull, table, m, x, val, w, eps, a, b):
    """Integral of a + b * y over (-inf, x] against the normalised measure
    with this ``table`` and mean point m, in the frame of the copy
    entered, from the running value, weight and slack: the staircase is
    the frame (1, 0), the first moment the record's (shift, scale).  Each
    copy passed adds its weight times the integrand at its image of the
    mean, and a whole hull reached the running weight times its; entering
    a copy zooms x and the frame into it."""
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
    """``[moment_scaled(rec, x) for x in xs]``, bit for bit: ``_sweep``
    in the record's frame."""
    a, b = rec.shift, rec.scale
    sweep = functools.partial(_sweep, rec.hull, rec.table,
                              _mean_point(rec), rec.eps, a, b)
    return _in_order(sweep, [(x - a) / b for x in xs])


def _sweep(hull, table, m, eps, a, b, xs):
    """``[_descend(hull, table, m, x, 0.0, 1.0, eps, a, b) for x in xs]``
    for a sorted column, bit for bit, by one sweep down the copies.

    At each level ``bisect`` splits a group of points, which share the
    running value, weight, slack and frame, by the rows of ``table``: the
    points at or past a hull end, within the slack, or in a gap take the
    running value as a slice, and each copy's points are zoomed together,
    with the operations of ``_descend`` on the same operands.  A copy's
    lone point finishes in ``_descend``."""
    h0, h1 = hull
    left, right = bisect.bisect_left, bisect.bisect_right
    out = [0.0] * len(xs)
    # (start in out, points zoomed into the group's copy, value, weight,
    # slack, frame): groups left to split, each of two points or more
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
                out[at + j] = _descend(hull, table, m, (xs[j] - o) / r, val,
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
    M_1 = 1 - M, with M the measure's mean share (``_mean``).  Every term
    is positive, so the floats keep their relative accuracy.  The moments
    depend on the set and the order only, so they are solved once per
    ``table``, ``hull`` and n and kept, for at most ``_MOMENTS_CAP`` of
    them, as a tuple that no caller can change; the frame (scale, shift,
    eps) is not read.
    """
    return _moments(rec.table, rec.hull, n)


@functools.lru_cache(maxsize=_MOMENTS_CAP)
def _moments(table, hull, n):
    """``lebesgue_moments`` of a record with this ``table`` and ``hull``,
    the key of its memo: the mean is computed here, once per entry."""
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
    moments = [1.0, 1.0 - _mean(table, hull)]
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
