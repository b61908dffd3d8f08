"""Set descriptions with exact interval queries.

Every supported set is described by a small recursive spec: the
middle-thirds set, a general gap-producing iterated function system on
[0, 1], a finite point list, the harmonic cluster {0} union {1/n}, a full
interval, and one affine wrapper (shift + scale * F).  All queries (interval
intersection, gap enumeration, finite nets, extreme points) are answered
exactly from the structure, never by sampling.  A gap IFS tests
membership by a walk down the frames of its pieces with a slack for float
drift; its extremes, nets and gaps take piece ends from ``_children``, as
the walks of ``falpha.calculus`` do, bit for bit.  A wrapped set maps its
queries into the unwrapped frame, widened by what ``slack`` adds to F's.
"""

import bisect
import math

__all__ = [
    "Interval",
    "SetSpec",
    "GapIFS",
    "TernaryCantor",
    "FinitePoints",
    "HarmonicCluster",
    "FullInterval",
    "Affine",
    "Translate",
    "Scale",
    "unwrap",
    "Subdivision",
    "ResolutionExceeded",
    "intersects",
    "gaps",
    "net",
    "is_point_of_change",
    "spec_from_json",
    "spec_to_json",
    "slack",
    "MAX_LEVEL",
]

MAX_LEVEL = 16


class ResolutionExceeded(ValueError):
    """A level or depth past what the code builds, or a net past its limit."""


def slack(x, scale=1.0):
    """How near, in global units, x must be to a piece end of a set scaled
    by ``scale`` to be that end: 1e-15 scale, or 4 ulps of x far from 0."""
    return max(1e-15 * scale, 4.0 * math.ulp(x) if math.isfinite(x) else 0.0)


def _children(hull, table, t, lam, piece):
    """The copies of a piece of a gap IFS F with the hull ``hull``.

    A piece is (lo, hi, off, sc, c0, c1, w): its ends in the set t + lam F,
    its frame y -> off + sc y in the units of F, and its staircase shares
    at lo and hi and weight under the weights p_i of the copies, read with
    their offsets o_i and ratios r_i from the rows (o_i, r_i, span start,
    span end, p_i) of the ``table`` of a ``GapIFS`` or a measure record.
    Copy i has the frame (off + sc o_i, sc r_i), the ends t + lam (off_i +
    sc_i h) at the hull ends h, the weight w p_i and the share c0 + w p_0
    + ... + w p_(i-1), summed as the staircase descent sums it; the outer
    copies keep the piece's ends and shares, so every walk reaches an end
    by the same floats."""
    h0, h1 = hull
    lo, hi, off, sc, c, end, w = piece
    o, r, _, _, p = table[0]
    o, r, p = off + sc * o, sc * r, w * p
    kids = [(lo, t + lam * (o + r * h1), o, r, c, c + p, p)]
    c += p
    for o, r, _, _, p in table[1:-1]:
        o, r, p = off + sc * o, sc * r, w * p
        kids.append((t + lam * (o + r * h0), t + lam * (o + r * h1),
                     o, r, c, c + p, p))
        c += p
    o, r, _, _, p = table[-1]
    o, r = off + sc * o, sc * r
    kids.append((t + lam * (o + r * h0), hi, o, r, c, end, w * p))
    return kids


def _child(hull, table, t, lam, piece, x, eps, sign):
    """The copy of a piece that holds x from the left (sign -1: x in
    (lo + eps, hi + eps]) or from the right (sign +1: x in [lo - eps,
    hi - eps)), as ``_children`` builds it, bit for bit, but alone; None
    where no copy does.  Touching copies each hold their shared end, from
    their own side.  Each copy's far end is read first: a copy that ends
    before x is passed without its start."""
    h0, h1 = hull
    lo, hi, off, sc, c, end, w = piece
    last = len(table) - 1
    for i, (o, r, _, _, p) in enumerate(table):
        o, r, p = off + sc * o, sc * r, w * p
        k1 = t + lam * (o + r * h1) if i < last else hi
        if x <= k1 + eps if sign < 0 else x < k1 - eps:
            k0 = t + lam * (o + r * h0) if i else lo
            if k0 + eps < x if sign < 0 else k0 - eps <= x:
                return (k0, k1, o, r, c, c + p if i < last else end, p)
        c += p
    return None


def _reject_nan(name, x, least=-math.inf):
    """Refuse NaN, which fails every comparison so that a query would not
    see it, and an x below ``least``; the infinities pass."""
    if not x >= least:
        if x != x:
            raise ValueError(f"{name} must not be NaN")
        raise ValueError(f"{name} must be at least {least!r}, got {x!r}")


def _finite(name, x, least=-math.inf):
    """x as a float, refusing what is not a number, NaN, the infinities
    and an x below ``least``."""
    try:
        x = float(x)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {x!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    if x < least:
        raise ValueError(f"{name} must be at least {least!r}, got {x!r}")
    return x


def _positive(name, x, most=math.inf):
    """Refuse an x outside (0, most], NaN included; +inf passes where
    ``most`` is inf."""
    if not 0.0 < x <= most:
        what = "be positive" if most == math.inf else f"lie in (0, {most:g}]"
        raise ValueError(f"{name} must {what}, got {x!r}")


def _count(name, n, least, most=math.inf):
    """Refuse an n that is not an int (a bool is not one) of at least
    ``least``, as a walk to a depth that is not one would not stop, and
    raise ResolutionExceeded for an n above ``most``."""
    if isinstance(n, bool) or not isinstance(n, int) or n < least:
        kind = "a positive int" if least == 1 else f"an int of at least {least}"
        raise ValueError(f"{name} must be {kind}, got {n!r}")
    if n > most:
        raise ResolutionExceeded(f"{name} {n} exceeds maximum {most}")


def _too_many(level, limit):
    return ResolutionExceeded(
        f"the level-{level} net has more than its limit of {limit} points")


def _capped(pts, level, limit):
    """A net small enough to build whole, checked against its limit."""
    if len(pts) > limit:
        raise _too_many(level, limit)
    return pts


class Record:
    """A value with the fields named in ``_fields``: equal to a record of
    its own class with equal fields, and hashed and printed by them.  It
    is frozen: a subclass's ``__init__`` checks its arguments and writes
    the fields into the instance dict, and no attribute can be assigned
    after that.  Attributes that are not fields may hold what the fields
    determine."""

    _fields = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "{}({})".format(type(self).__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Interval(Record):
    """Closed interval [lo, hi]; degenerate (lo == hi) means a single point."""

    _fields = ("lo", "hi")

    def __init__(self, lo, hi):
        if not lo <= hi:
            raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
        self.__dict__.update(lo=lo, hi=hi)

    @property
    def length(self):
        return self.hi - self.lo


class Subdivision(Record):
    """Strictly increasing breakpoints spanning [points[0], points[-1]]."""

    _fields = ("points",)

    def __init__(self, points):
        pts = tuple(_finite("points", p) for p in points)
        if not pts:
            raise ValueError("subdivision needs at least one point")
        for p, q in zip(pts, pts[1:]):
            if not p < q:
                raise ValueError("subdivision points must be strictly increasing")
        self.__dict__.update(points=pts)

    @property
    def mesh(self):
        pts = self.points
        if len(pts) < 2:
            return 0.0
        return max(q - p for p, q in zip(pts, pts[1:]))

    def components(self):
        return list(zip(self.points, self.points[1:]))

    def refines(self, other):
        return set(other.points) <= set(self.points)

    @staticmethod
    def uniform(a, b, n):
        _count("n", n, 1)
        if not _finite("a", a) < _finite("b", b) or not math.isfinite((b - a) * n):
            raise ValueError(f"need a < b and a finite (b - a) n, got {a!r}, {b!r}")
        pts = [a + (b - a) * i / n for i in range(n)]
        return Subdivision((*pts, b))  # a + (b - a) need not round to b


class SetSpec:
    """Base class for set descriptions; subclasses answer exact queries."""

    _query_slack = 0.0  # how near F a query must come to meet it

    def hull(self):
        """(min F, max F) or None when the set is empty."""
        raise NotImplementedError

    def _isect(self, lo, hi):
        """True when F meets [lo, hi]; overridden only by cheaper tests."""
        return self.extremes_in(lo, hi) is not None

    def _walk(self, lo, hi, off=0.0, scale=1.0):
        """None when F misses [lo, hi], else the frame (off, scale) of the
        piece y -> off + scale y of F where the query stopped: a query of a
        sub-interval resumes there with the steps of a walk from the top.
        A set with no copies to walk down stops where it starts."""
        return (off, scale) if self._isect(lo, hi) else None

    def extremes_in(self, lo, hi):
        """(min, max) of F intersected with [lo, hi], or None if empty."""
        raise NotImplementedError

    def _raw_gaps(self, lo, hi, min_len):
        """Interior gaps of F (between hull endpoints) of length >= min_len
        overlapping the open interval (lo, hi), unclipped, sorted."""
        raise NotImplementedError

    def net_points(self, level, lo, hi, limit=math.inf):
        """The sorted points of the level-``level`` net of F in [lo, hi];
        ResolutionExceeded when there are more than ``limit`` of them.
        ``net`` checks level and limit; this does not."""
        raise NotImplementedError

    def is_discrete(self):
        """True when F is a countable set of isolated-or-clustering points
        carrying no mass at any positive order."""
        return False


class GapIFS(SetSpec, Record):
    """Attractor of m >= 2 interior-disjoint affine contractions of [0, 1].

    Copy i is the image of the attractor under x -> offsets[i] + ratios[i]*x.
    Copies must be sorted by offset and their spans interior-disjoint.
    It keeps its hull and ``_table``, a measure record's rows (offset,
    ratio, span start, span end, weight) per copy (``_backend.measure``)
    with the ratio as the weight: the set's own walks read no share.
    """

    _fields = ("ratios", "offsets")
    _query_slack = 1e-15  # the eps of _walk at the top, and _extreme's slack

    def __init__(self, ratios, offsets):
        ratios = tuple(_finite("ratios", r) for r in ratios)
        offsets = tuple(_finite("offsets", o) for o in offsets)
        if len(ratios) != len(offsets) or len(ratios) < 2:
            raise ValueError("need matching ratios/offsets with at least two copies")
        if not all(0.0 < r < 1.0 for r in ratios):
            raise ValueError("ratios must lie in (0, 1)")
        if offsets[0] < -1e-12 or offsets[-1] + ratios[-1] > 1.0 + 1e-12:
            raise ValueError("ratios and offsets must keep the copies in [0, 1]")
        for i in range(len(ratios) - 1):
            if offsets[i] + ratios[i] > offsets[i + 1] + 1e-12:
                raise ValueError("ratios and offsets give unsorted or overlapping copies")
        # hull endpoints are the fixed points of the outermost maps; snap
        # float dust at integer endpoints (e.g. copies filling out to 1)
        h0, h1 = [float(round(h)) if abs(h - round(h)) < 1e-12 else h
                  for h in (offsets[0] / (1.0 - ratios[0]),
                            offsets[-1] / (1.0 - ratios[-1]))]
        self.__dict__.update(
            ratios=ratios, offsets=offsets, _hull=(h0, h1),
            _table=tuple([(o, r, o + r * h0, o + r * h1, r)
                          for o, r in zip(offsets, ratios)]))

    def hull(self):
        return self._hull

    def _isect(self, lo, hi):
        return self._walk(lo, hi) is not None

    def _walk(self, lo, hi, off=0.0, scale=1.0):
        # one walk down the copies: a query strictly inside one meets no
        # other, and neither does any sub-query, which may resume here and,
        # mapped into each frame from its own ends, take the same floats
        if not lo <= hi:  # a reversed window misses
            return None
        h0, h1 = self._hull
        while True:
            # rejection slack: _query_slack, 1e-15 in global units; the
            # test is negated, so that a NaN end misses
            eps = 1e-15 / scale
            y0, y1 = (lo - off) / scale, (hi - off) / scale
            if not (y1 >= h0 - eps and y0 <= h1 + eps):
                return None
            if y0 <= h0 + eps or y1 >= h1 - eps:
                # hull ends belong to F, and so does a query that comes
                # within the slack of one, as the rejection test reads it:
                # a point of F that drift left an ulp inside a piece end
                # stops at once, and so does any query of a piece no
                # longer than twice the slack
                return (off, scale)
            for o, r, s0, s1, _ in self._table:
                if y1 < s0 - eps or y0 > s1 + eps:
                    continue
                if y0 <= s0 or y1 >= s1:
                    return (off, scale)
                off, scale = off + scale * o, scale * r
                break
            else:
                return None

    def extremes_in(self, lo, hi):
        if not self._isect(lo, hi):  # _walk misses a reversed window
            return None
        return (self._extreme(lo, hi, True), self._extreme(lo, hi, False))

    def _extreme(self, lo, hi, want_min):
        """Least (want_min) or greatest point of F in [lo, hi], which must
        pass _isect: an end of the first piece met in the search order,
        down the pieces of ``_children``.  A piece within ``slack`` of the
        query counts as met, for float drift.  For the least point, its
        start is the answer if it lies at or past lo, else its end if that
        lies at or before lo, else the walk enters it; the greatest point
        mirrors this.  With no piece met (a gap within the slack of the
        walk of _isect), or inside a piece shorter than the slack, the
        query's own end is the answer."""
        h0, h1 = self._hull
        eps = slack(max(abs(h0), abs(h1)))
        kids = [(h0, h1, 0.0, 1.0, 0.0, 1.0, 1.0)]
        while piece := next((k for k in (kids if want_min else kids[::-1])
                             if k[0] - eps <= hi and lo <= k[1] + eps), None):
            k0, k1 = piece[:2]
            if lo <= k0 if want_min else k1 <= hi:
                return k0 if want_min else k1
            if k1 <= lo if want_min else hi <= k0:
                return k1 if want_min else k0
            if k1 - k0 < eps:
                break
            kids = _children(self._hull, self._table, 0.0, 1.0, piece)
        return lo if want_min else hi

    def _raw_gaps(self, lo, hi, min_len):
        if min_len <= 0.0:
            raise ValueError(
                "min_len must be positive: this set has infinitely many gaps"
            )
        out = []
        stack = [(*self._hull, 0.0, 1.0, 0.0, 1.0, 1.0)]
        while stack:
            kids = _children(self._hull, self._table, 0.0, 1.0, stack.pop())
            for left, right in zip(kids, kids[1:]):
                u, v = left[1], right[0]
                if v - u >= min_len and u < hi and v > lo:
                    out.append((u, v))
            # no gap inside a copy shorter than min_len can reach it
            stack.extend(k for k in kids
                         if k[1] - k[0] > min_len and k[1] > lo and k[0] < hi)
        out.sort()
        return out

    def net_points(self, level, lo, hi, limit=math.inf):
        out = set()
        stack = [((*self._hull, 0.0, 1.0, 0.0, 1.0, 1.0), 0)]
        while stack:
            piece, d = stack.pop()
            p0, p1 = piece[:2]
            if p1 < lo or p0 > hi:
                continue
            if d == level:
                if lo <= p0 <= hi:
                    out.add(p0)
                if lo <= p1 <= hi:
                    out.add(p1)
                if len(out) > limit:
                    # stop here: time and memory stay bounded by the limit
                    raise _too_many(level, limit)
                continue
            kids = _children(self._hull, self._table, 0.0, 1.0, piece)
            stack.extend((k, d + 1) for k in kids)
        return sorted(out)


class TernaryCantor(GapIFS):
    """The middle-thirds set on [0, 1]."""

    def __init__(self, ratios=(1.0 / 3.0, 1.0 / 3.0),
                 offsets=(0.0, 2.0 / 3.0)):
        super().__init__(ratios, offsets)


class FinitePoints(SetSpec, Record):
    """A finite, strictly sorted point list; may be empty."""

    _fields = ("points",)

    def __init__(self, points):
        pts = tuple(_finite("points", p) for p in points)
        for p, q in zip(pts, pts[1:]):
            if not p < q:
                raise ValueError("points must be strictly sorted")
        self.__dict__.update(points=pts)

    def hull(self):
        if not self.points:
            return None
        return (self.points[0], self.points[-1])

    def extremes_in(self, lo, hi):
        pts = self.points
        i, j = bisect.bisect_left(pts, lo), bisect.bisect_right(pts, hi)
        # a NaN end misses, as a reversed window does
        return (pts[i], pts[j - 1]) if i < j and lo <= hi else None

    def _raw_gaps(self, lo, hi, min_len):
        out = []
        for p, q in zip(self.points, self.points[1:]):
            if q - p >= min_len and q - p > 0 and p < hi and q > lo:
                out.append((p, q))
        return out

    def net_points(self, level, lo, hi, limit=math.inf):
        return _capped([p for p in self.points if lo <= p <= hi], level,
                       limit)

    def is_discrete(self):
        return True


def _round_inverse(x, rnd, slack):
    """rnd(1/x + slack) for x > 0, rnd math.floor or math.ceil; exact
    where 1/x overflows a float, as 1/x is q/p for x = p/q."""
    inv = 1.0 / x
    if inv < math.inf:
        return rnd(inv + slack)
    p, q = x.as_integer_ratio()
    return q // p if rnd is math.floor else -(-q // p)


class HarmonicCluster(SetSpec, Record):
    """The set {0} union {1/n : n >= 1}."""

    def hull(self):
        return (0.0, 1.0)

    @staticmethod
    def _n_range(lo, hi):
        """Integer range [n_min, n_max] with 1/n inside [lo, hi], or None."""
        if hi <= 0.0:
            return None
        n_min = max(1, _round_inverse(hi, math.ceil, -1e-12))
        if lo <= 0.0:
            return (n_min, None)  # unbounded above (accumulation at 0)
        n_max = _round_inverse(lo, math.floor, 1e-12)
        if n_min > n_max:
            return None
        return (n_min, n_max)

    def extremes_in(self, lo, hi):
        if not lo <= hi:  # a NaN end misses, as a reversed window does
            return None
        rng = self._n_range(lo, hi)
        has_zero = lo <= 0.0 <= hi
        if rng is None:
            return (0.0, 0.0) if has_zero else None
        n_min, n_max = rng
        mx = 1 / n_min  # int division: n can be too large for a float
        mn = 0.0 if has_zero else 1 / n_max
        return (mn, mx)

    def _raw_gaps(self, lo, hi, min_len):
        if min_len <= 0.0:
            raise ValueError(
                "min_len must be positive: this set has infinitely many gaps"
            )
        out = []
        n = 1
        while True:
            u = 1.0 / (n + 1)
            v = 1.0 / n
            if v - u < min_len:
                break
            if u < hi and v > lo:
                out.append((u, v))
            if v <= lo:
                break
            n += 1
        out.sort()
        return out

    def net_points(self, level, lo, hi, limit=math.inf):
        count = 2 ** level
        pts = [0.0] + [1.0 / n for n in range(count, 0, -1)]
        return _capped([p for p in pts if lo <= p <= hi], level, limit)

    def is_discrete(self):
        return True


class FullInterval(SetSpec, Record):
    """The whole interval [lo, hi] (the dense case)."""

    _fields = ("lo", "hi")

    def __init__(self, lo, hi):
        if not _finite("lo", lo) < _finite("hi", hi):
            raise ValueError("need lo < hi")
        self.__dict__.update(lo=lo, hi=hi)

    def hull(self):
        return (self.lo, self.hi)

    def extremes_in(self, lo, hi):
        a, b = max(lo, self.lo), min(hi, self.hi)
        return (a, b) if a <= b else None  # a NaN end misses

    def _raw_gaps(self, lo, hi, min_len):
        return []

    def net_points(self, level, lo, hi, limit=math.inf):
        n = 2 ** level
        step = (self.hi - self.lo) / n
        pts = [self.lo + i * step for i in range(n + 1)]
        return _capped([p for p in pts if lo <= p <= hi], level, limit)


class Affine(SetSpec, Record):
    """The set shift + scale * F, for an unwrapped F, a finite scale > 0
    and a finite shift.

    Queries map their window into F by x -> (x - shift) / scale, widened
    by ``slack``, and answers back into it by y -> y * scale + shift.
    Build it with ``Scale`` and ``Translate``: they fold into an existing
    Affine, so a spec has at most one wrapper layer.
    """

    _fields = ("inner", "scale", "shift")

    def __init__(self, inner, scale, shift):
        if isinstance(inner, Affine):
            raise ValueError("Affine needs an unwrapped spec")
        _positive("scale", _finite("scale", scale))
        _finite("shift", shift)
        self.__dict__.update(inner=inner, scale=scale, shift=shift)

    def hull(self):
        h = self.inner.hull()
        if h is None:
            return None
        return (h[0] * self.scale + self.shift, h[1] * self.scale + self.shift)

    def _window(self, lo, hi, own=None):
        """[lo, hi] mapped into F, widened at each end by ``slack`` less
        ``own``: F's ``_query_slack`` by default, 0 for a net."""
        s, t = self.scale, self.shift
        own = self.inner._query_slack if own is None else own
        return ((lo - t) / s - max(0.0, slack(lo, s) / s - own),
                (hi - t) / s + max(0.0, slack(hi, s) / s - own))

    def _isect(self, lo, hi):
        # a reversed window misses, though widened it may not be reversed
        return lo <= hi and self.inner._isect(*self._window(lo, hi))

    def extremes_in(self, lo, hi):
        # an answer at the window's own end is the query's own end: mapped
        # back, it may land an ulp inside a piece end that the query names
        s, t = self.scale, self.shift
        w0, w1 = self._window(lo, hi)
        # a reversed window misses, though widened it may not be reversed
        e = self.inner.extremes_in(w0, w1) if lo <= hi else None
        if e is None:
            return None
        return tuple(lo if y == w0 else hi if y == w1
                     else min(hi, max(lo, y * s + t)) for y in e)

    def _raw_gaps(self, lo, hi, min_len):
        s, t = self.scale, self.shift
        raw = self.inner._raw_gaps((lo - t) / s, (hi - t) / s, min_len / s)
        return [(u * s + t, v * s + t) for u, v in raw]

    def net_points(self, level, lo, hi, limit=math.inf):
        s, t = self.scale, self.shift
        pts = self.inner.net_points(level, *self._window(lo, hi, 0.0), limit)
        return [min(hi, max(lo, p * s + t)) for p in pts]

    def is_discrete(self):
        return self.inner.is_discrete()


def unwrap(spec):
    """(scale, shift, F) of spec = shift + scale * F, (1.0, 0.0, spec) with
    no wrapper: the one reader, outside ``Affine``, of how it is stored."""
    if isinstance(spec, Affine):
        return spec.scale, spec.shift, spec.inner
    return 1.0, 0.0, spec


def _affine(spec, scale, shift):
    """shift + scale * spec with an Affine spec folded in; a zero scale
    leaves the single point {shift}."""
    if isinstance(spec, Affine):
        spec, scale, shift = spec.inner, spec.scale * scale, spec.shift * scale + shift
    if scale == 0.0:
        return FinitePoints((shift,))
    return Affine(spec, scale, shift)


def Scale(spec, factor):
    """The set factor * F for a factor >= 0; factor 0 is the point {0}."""
    return _affine(spec, _finite("factor", factor, 0.0), 0.0)


def Translate(spec, shift):
    """The set F + shift."""
    return _affine(spec, 1.0, _finite("shift", shift))


def intersects(spec, interval):
    """Flag function: 1 when F meets the closed interval, else 0."""
    return 1 if spec._isect(interval.lo, interval.hi) else 0


def gaps(spec, interval, min_len=0.0):
    """Maximal open subintervals of ``interval`` disjoint from F with
    length >= min_len, sorted.

    For sets with infinitely many gaps a positive ``min_len`` is required;
    a NaN one is refused.
    """
    _reject_nan("min_len", min_len)
    lo, hi = interval.lo, interval.hi
    h = spec.hull()
    pieces = []
    if h is None:
        if hi > lo:
            pieces.append((lo, hi))
    else:
        h0, h1 = h
        if lo < h0:
            pieces.append((lo, min(h0, hi)))
        if hi > h1:
            pieces.append((max(h1, lo), hi))
        if hi > h0 and lo < h1:
            for u, v in spec._raw_gaps(lo, hi, min_len):
                cu = max(u, lo)
                cv = min(v, hi)
                if cv > cu:
                    pieces.append((cu, cv))
    out = [Interval(u, v) for u, v in sorted(pieces) if v - u >= min_len and v > u]
    return out


def net(spec, level, interval, limit=math.inf):
    """Finite sample of F in ``interval``: the ends of F's pieces ``level``
    maps deep (on a gap IFS each is at most hull width * max(ratios)^level
    long), for an int level in [0, MAX_LEVEL]; ResolutionExceeded above it,
    and past ``limit`` (at least 0) points, before many more are listed."""
    _count("level", level, 0, MAX_LEVEL)
    _reject_nan("limit", limit, 0)
    return spec.net_points(level, interval.lo, interval.hi, limit)


def is_point_of_change(stair, x, h_min):
    """1 iff ``stair`` rises by more than 1e-12 on (x-h, x+h) for every
    ladder h = 3^-k down to h_min; the ladder ratio is 1/3 so rungs align
    with the construction scales of the middle-thirds set."""
    _positive("h_min", h_min)
    h = 1.0 / 3.0
    while True:
        if stair(x + h) - stair(x - h) <= 1e-12:
            return 0
        if h <= h_min:
            return 1
        h /= 3.0


def spec_from_json(obj):
    """Build a SetSpec from the JSON description format.

    {"type": "cantor" | "gap_ifs" | "finite" | "harmonic" | "interval", ...}
    with optional "scale" and "translate" keys for the set
    translate + scale * F (scale applied first).  A scale of 0 gives the
    single point {translate}.  A missing or ill-typed field, a negative
    scale and non-finite numbers are rejected with a ValueError that names
    the field.
    """
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("set spec must be an object with a 'type' key")
    kind = obj["type"]

    def field(name, many=False):
        # a number, or with ``many`` a list of them
        if name not in obj:
            raise ValueError(f"set type {kind!r} needs the field {name!r}")
        value = obj[name]
        if many and not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list, got {value!r}")
        return tuple(value) if many else _finite(name, value)

    if kind == "cantor":
        spec = TernaryCantor()
    elif kind == "gap_ifs":
        spec = GapIFS(field("ratios", True), field("offsets", True))
    elif kind == "finite":
        spec = FinitePoints(field("points", True))
    elif kind == "harmonic":
        spec = HarmonicCluster()
    elif kind == "interval":
        spec = FullInterval(field("lo"), field("hi"))
    else:
        raise ValueError(f"unknown set type {kind!r}")
    if "scale" in obj or "translate" in obj:
        spec = _affine(spec, _finite("scale", obj.get("scale", 1.0), 0.0),
                       _finite("translate", obj.get("translate", 0.0)))
    return spec


def spec_to_json(spec):
    """Inverse of spec_from_json for the supported shapes."""
    scale, shift, inner = unwrap(spec)
    wrap = {} if inner is spec else {"scale": scale, "translate": shift}
    spec = inner
    if isinstance(spec, TernaryCantor):
        base = {"type": "cantor"}
    elif isinstance(spec, GapIFS):
        base = {"type": "gap_ifs", "ratios": list(spec.ratios),
                "offsets": list(spec.offsets)}
    elif isinstance(spec, FinitePoints):
        base = {"type": "finite", "points": list(spec.points)}
    elif isinstance(spec, HarmonicCluster):
        base = {"type": "harmonic"}
    elif isinstance(spec, FullInterval):
        base = {"type": "interval", "lo": spec.lo, "hi": spec.hi}
    else:
        raise ValueError(f"cannot serialize {type(spec).__name__}")
    base.update(wrap)
    return base
