"""Set descriptions with exact interval queries.

Every supported set is described by a small recursive spec: the
middle-thirds set, a general gap-producing iterated function system on
[0, 1], a finite point list, the harmonic cluster {0} union {1/n}, a full
interval, and one affine wrapper (shift + scale * F).  All queries (interval
intersection, gap enumeration, finite nets, extreme points) are answered
exactly from the structure, never by sampling; a gap IFS walks down its
copies in local coordinates, with a 1e-15 slack for float drift.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
    "Subdivision",
    "ResolutionExceeded",
    "intersects",
    "gaps",
    "net",
    "is_point_of_change",
    "spec_from_json",
    "spec_to_json",
    "MAX_LEVEL",
]

MAX_LEVEL = 16

# scale cutoff for degenerate (single point) interval queries: once a walk
# down the copies has zoomed in by this factor the query point sits within
# float resolution of the set and counts as a member
_POINT_SCALE = 1e-12
# depth cap of an extreme-point walk: its target is then below float resolution
_EXTREME_DEPTH = 80


class ResolutionExceeded(ValueError):
    """Requested net level is above MAX_LEVEL."""


def _finite(name, x):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _reject_nan(name, x):
    """Reject NaN: it fails every comparison, so queries would not see it."""
    if x != x:
        raise ValueError(f"{name} must not be NaN")


def _check_level(level):
    if level < 0:
        raise ValueError("level must be nonnegative")
    if level > MAX_LEVEL:
        raise ResolutionExceeded(
            f"net level {level} exceeds maximum {MAX_LEVEL}"
        )


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; degenerate (lo == hi) means a single point."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    @property
    def length(self):
        return self.hi - self.lo

    def contains(self, x):
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class Subdivision:
    """Strictly increasing breakpoints spanning [points[0], points[-1]]."""

    points: tuple

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if not pts:
            raise ValueError("subdivision needs at least one point")
        for p, q in zip(pts, pts[1:]):
            if not p < q:
                raise ValueError("subdivision points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def a(self):
        return self.points[0]

    @property
    def b(self):
        return self.points[-1]

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
        if n < 1:
            raise ValueError("need at least one component")
        return Subdivision(tuple(a + (b - a) * i / n for i in range(n + 1)))


class SetSpec:
    """Base class for set descriptions; subclasses answer exact queries."""

    def hull(self):
        """(min F, max F) or None when the set is empty."""
        raise NotImplementedError

    def _isect(self, lo, hi):
        """True when F meets [lo, hi]; overridden only by cheaper tests."""
        return self.extremes_in(lo, hi) is not None

    def _walk(self, lo, hi, scale):
        """None when F misses [lo, hi], given in a frame zoomed in by
        ``scale``; otherwise the frame (lo, hi, scale) in which the query
        stopped, from which the query of any sub-interval of [lo, hi],
        mapped into it, may resume.  A set with no copies to walk down
        stops where it starts."""
        return (lo, hi, scale) if self._isect(lo, hi) else None

    def extremes_in(self, lo, hi):
        """(min, max) of F intersected with [lo, hi], or None if empty."""
        raise NotImplementedError

    def _raw_gaps(self, lo, hi, min_len):
        """Interior gaps of F (between hull endpoints) of length >= min_len
        overlapping the open interval (lo, hi), unclipped, sorted."""
        raise NotImplementedError

    def net_points(self, level, lo, hi):
        raise NotImplementedError

    def resolution(self, level):
        raise NotImplementedError

    def is_discrete(self):
        """True when F is a countable set of isolated-or-clustering points
        carrying no mass at any positive order."""
        return False


@dataclass(frozen=True)
class GapIFS(SetSpec):
    """Attractor of m >= 2 interior-disjoint affine contractions of [0, 1].

    Copy i is the image of the attractor under x -> offsets[i] + ratios[i]*x.
    Copies must be sorted by offset and their spans interior-disjoint.
    """

    ratios: tuple
    offsets: tuple

    def __post_init__(self):
        ratios = tuple(float(r) for r in self.ratios)
        offsets = tuple(_finite("offsets", o) for o in self.offsets)
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "offsets", offsets)
        if len(ratios) != len(offsets) or len(ratios) < 2:
            raise ValueError("need matching ratios/offsets with at least two copies")
        for r in ratios:
            if not 0.0 < r < 1.0:
                raise ValueError("ratios must lie in (0, 1)")
        if offsets[0] < -1e-12 or offsets[-1] + ratios[-1] > 1.0 + 1e-12:
            raise ValueError("copies must lie inside [0, 1]")
        for i in range(len(ratios) - 1):
            if offsets[i] + ratios[i] > offsets[i + 1] + 1e-12:
                raise ValueError("copy spans must be sorted and interior-disjoint")

    @cached_property
    def _copies(self):
        """(offset, ratio, span start, span end) of each copy."""
        h0, h1 = self._hull
        return tuple((o, r, o + r * h0, o + r * h1)
                     for o, r in zip(self.offsets, self.ratios))

    @cached_property
    def _hull(self):
        # hull endpoints are the fixed points of the outermost maps; snap
        # float dust at integer endpoints (e.g. copies filling out to 1)
        lo = self.offsets[0] / (1.0 - self.ratios[0])
        hi = self.offsets[-1] / (1.0 - self.ratios[-1])
        if abs(lo - round(lo)) < 1e-12:
            lo = float(round(lo))
        if abs(hi - round(hi)) < 1e-12:
            hi = float(round(hi))
        return (lo, hi)

    def hull(self):
        return self._hull

    def _isect(self, lo, hi):
        return self._walk(lo, hi, 1.0) is not None

    def _walk(self, lo, hi, scale):
        # one walk down the copies: a query strictly inside one meets no
        # other, and neither does any sub-query, which may resume here
        h0, h1 = self._hull
        while True:
            # rejection slack: float drift accumulated while zooming in is
            # of order ulp/scale in local coordinates (1e-15 in global units)
            eps = 1e-15 / scale
            if hi < h0 - eps or lo > h1 + eps:
                return None
            if lo <= h0 or hi >= h1 or scale < _POINT_SCALE:
                return (lo, hi, scale)  # hull ends belong to F
            for o, r, s0, s1 in self._copies:
                if hi < s0 - eps or lo > s1 + eps:
                    continue
                if lo <= s0 or hi >= s1:
                    return (lo, hi, scale)
                lo, hi, scale = (lo - o) / r, (hi - o) / r, scale * r
                break
            else:
                return None

    def extremes_in(self, lo, hi):
        if not self._isect(lo, hi):
            return None
        return (self._extreme(lo, hi, True), self._extreme(lo, hi, False))

    def _extreme(self, lo, hi, want_min):
        """Least (want_min) or greatest point of F in [lo, hi], which must
        pass _isect: one walk down the first copy met in the search order."""
        h0, h1 = self._hull
        copies = self._copies if want_min else self._copies[::-1]
        path = []
        scale = 1.0
        while True:
            if lo <= h0 if want_min else hi >= h1:
                x = h0 if want_min else h1
                break
            # a copy the query misses by no more than the slack of _isect
            # (above its cutoff) is missed through float drift alone; its
            # nearer end wins unless the copy met lies within the slack too
            eps = 1e-15 / scale if scale >= _POINT_SCALE else 0.0
            near = None
            for o, r, s0, s1 in copies:
                if not (hi < s0 or lo > s1):
                    break
                if near is None and not (hi < s0 - eps or lo > s1 + eps):
                    near = s1 if lo > s1 else s0
            else:
                # below the cutoff, drift or a gap too fine for _isect can
                # leave the query outside every copy: keep its own end
                x = (lo if want_min else hi) if near is None else near
                break
            if lo <= s0 if want_min else hi >= s1:
                end = s0 if want_min else s1
                x = end if near is None or abs(end - near) <= eps else near
                break
            if len(path) >= _EXTREME_DEPTH or s1 - s0 <= 1e-15 * max(1.0, abs(s1)):
                x = max(lo, s0) if want_min else min(hi, s1)
                break
            path.append((o, r))
            lo, hi = (max(lo, s0) - o) / r, (min(hi, s1) - o) / r
            scale *= r
        for o, r in reversed(path):  # the deepest level first
            x = o + r * x
        return x

    def _raw_gaps(self, lo, hi, min_len):
        if min_len <= 0.0:
            raise ValueError(
                "min_len must be positive: this set has infinitely many gaps"
            )
        h0, h1 = self._hull
        width = h1 - h0
        copies = self._copies
        out = []
        stack = [(0.0, 1.0)]
        while stack:
            off, sc = stack.pop()
            for left, right in zip(copies, copies[1:]):
                u, v = off + sc * left[3], off + sc * right[2]
                if v - u >= min_len and u < hi and v > lo:
                    out.append((u, v))
            for o, r, s0, s1 in copies:
                if sc * r * width <= min_len:
                    continue  # no gap inside this copy can reach min_len
                if off + sc * s1 <= lo or off + sc * s0 >= hi:
                    continue
                stack.append((off + sc * o, sc * r))
        out.sort()
        return out

    def net_points(self, level, lo, hi):
        _check_level(level)
        h0, h1 = self._hull
        out = set()
        stack = [(0.0, 1.0, 0)]
        while stack:
            off, sc, d = stack.pop()
            p0 = off + sc * h0
            p1 = off + sc * h1
            if p1 < lo or p0 > hi:
                continue
            if d == level:
                if lo <= p0 <= hi:
                    out.add(p0)
                if lo <= p1 <= hi:
                    out.add(p1)
                continue
            for o, r, _, _ in self._copies:
                stack.append((off + sc * o, sc * r, d + 1))
        return sorted(out)

    def resolution(self, level):
        h0, h1 = self._hull
        return (h1 - h0) * max(self.ratios) ** level


@dataclass(frozen=True)
class TernaryCantor(GapIFS):
    """The middle-thirds set on [0, 1]."""

    ratios: tuple = (1.0 / 3.0, 1.0 / 3.0)
    offsets: tuple = (0.0, 2.0 / 3.0)


@dataclass(frozen=True)
class FinitePoints(SetSpec):
    """A finite, strictly sorted point list; may be empty."""

    points: tuple

    def __post_init__(self):
        pts = tuple(_finite("points", p) for p in self.points)
        for p, q in zip(pts, pts[1:]):
            if not p < q:
                raise ValueError("points must be strictly sorted")
        object.__setattr__(self, "points", pts)

    def hull(self):
        if not self.points:
            return None
        return (self.points[0], self.points[-1])

    def extremes_in(self, lo, hi):
        i = bisect.bisect_left(self.points, lo)
        j = bisect.bisect_right(self.points, hi)
        if i >= j:
            return None
        return (self.points[i], self.points[j - 1])

    def _raw_gaps(self, lo, hi, min_len):
        out = []
        for p, q in zip(self.points, self.points[1:]):
            if q - p >= min_len and q - p > 0 and p < hi and q > lo:
                out.append((p, q))
        return out

    def net_points(self, level, lo, hi):
        return [p for p in self.points if lo <= p <= hi]

    def resolution(self, level):
        return 0.0

    def is_discrete(self):
        return True


def _round_inverse(x, rnd, slack):
    """rnd(1/x + slack) for x > 0, exact where 1/x overflows a float."""
    inv = 1.0 / x
    return rnd(inv + slack) if inv < math.inf else rnd(1 / Fraction(x))


@dataclass(frozen=True)
class HarmonicCluster(SetSpec):
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

    def net_points(self, level, lo, hi):
        _check_level(level)
        count = 2 ** level
        pts = [0.0] + [1.0 / n for n in range(count, 0, -1)]
        return [p for p in pts if lo <= p <= hi]

    def resolution(self, level):
        return 2.0 ** -level

    def is_discrete(self):
        return True


@dataclass(frozen=True)
class FullInterval(SetSpec):
    """The whole interval [lo, hi] (the dense case)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not _finite("lo", self.lo) < _finite("hi", self.hi):
            raise ValueError("need lo < hi")

    def hull(self):
        return (self.lo, self.hi)

    def extremes_in(self, lo, hi):
        a = max(lo, self.lo)
        b = min(hi, self.hi)
        if a > b:
            return None
        return (a, b)

    def _raw_gaps(self, lo, hi, min_len):
        return []

    def net_points(self, level, lo, hi):
        _check_level(level)
        n = 2 ** level
        step = (self.hi - self.lo) / n
        pts = [self.lo + i * step for i in range(n + 1)]
        return [p for p in pts if lo <= p <= hi]

    def resolution(self, level):
        return (self.hi - self.lo) / 2 ** level


@dataclass(frozen=True)
class Affine(SetSpec):
    """The set shift + scale * F, for an unwrapped F, a finite scale > 0
    and a finite shift.

    Queries map each point into F by x -> (x - shift) / scale and each
    answer back by y -> y * scale + shift.  Build it with ``Scale`` and
    ``Translate``: they fold into an existing Affine, so a spec has at
    most one wrapper layer.
    """

    inner: SetSpec
    scale: float
    shift: float

    def __post_init__(self):
        if (isinstance(self.inner, Affine) or not 0.0 < self.scale < math.inf
                or not math.isfinite(self.shift)):
            raise ValueError(
                "Affine needs an unwrapped spec, a finite scale > 0 and a "
                f"finite shift, got scale {self.scale!r}, shift {self.shift!r}"
            )

    def hull(self):
        h = self.inner.hull()
        if h is None:
            return None
        return (h[0] * self.scale + self.shift, h[1] * self.scale + self.shift)

    def _isect(self, lo, hi):
        s, t = self.scale, self.shift
        return self.inner._isect((lo - t) / s, (hi - t) / s)

    def extremes_in(self, lo, hi):
        s, t = self.scale, self.shift
        e = self.inner.extremes_in((lo - t) / s, (hi - t) / s)
        if e is None:
            return None
        return (e[0] * s + t, e[1] * s + t)

    def _raw_gaps(self, lo, hi, min_len):
        s, t = self.scale, self.shift
        raw = self.inner._raw_gaps((lo - t) / s, (hi - t) / s, min_len / s)
        return [(u * s + t, v * s + t) for u, v in raw]

    def net_points(self, level, lo, hi):
        s, t = self.scale, self.shift
        pts = self.inner.net_points(level, (lo - t) / s, (hi - t) / s)
        return [p * s + t for p in pts]

    def resolution(self, level):
        return self.inner.resolution(level) * self.scale

    def is_discrete(self):
        return self.inner.is_discrete()


def _affine(spec, scale, shift):
    """shift + scale * spec with an Affine spec folded in; a zero scale
    leaves the single point {shift}."""
    if isinstance(spec, Affine):
        spec, scale, shift = spec.inner, spec.scale * scale, spec.shift * scale + shift
    if scale == 0.0:
        return FinitePoints((shift,))
    return Affine(spec, scale, shift)


def _factor(scale):
    scale = _finite("scale", scale)
    if scale < 0.0:
        raise ValueError(f"scale must be nonnegative, got {scale!r}")
    return scale


def Scale(spec, factor):
    """The set factor * F for a factor >= 0; factor 0 is the point {0}."""
    return _affine(spec, _factor(factor), 0.0)


def Translate(spec, shift):
    """The set F + shift."""
    return _affine(spec, 1.0, _finite("translate", shift))


def intersects(spec, interval):
    """Flag function: 1 when F meets the closed interval, else 0."""
    return 1 if spec._isect(interval.lo, interval.hi) else 0


def gaps(spec, interval, min_len=0.0):
    """Maximal open subintervals of ``interval`` disjoint from F with
    length >= min_len, sorted.

    For sets with infinitely many gaps a positive ``min_len`` is required.
    """
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


def net(spec, level, interval):
    """Finite sample of F in ``interval``, dense to within resolution(level)."""
    return spec.net_points(level, interval.lo, interval.hi)


def is_point_of_change(stair, x, h_min):
    """1 iff ``stair`` rises by more than 1e-12 on (x-h, x+h) for every
    ladder h = 3^-k down to h_min; the ladder ratio is 1/3 so rungs align
    with the construction scales of the middle-thirds set."""
    if h_min <= 0.0:
        raise ValueError("h_min must be positive")
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
    single point {translate}; a negative scale and non-finite numbers are
    rejected with ValueError.
    """
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("set spec must be an object with a 'type' key")
    kind = obj["type"]
    if kind == "cantor":
        spec = TernaryCantor()
    elif kind == "gap_ifs":
        spec = GapIFS(tuple(obj["ratios"]), tuple(obj["offsets"]))
    elif kind == "finite":
        spec = FinitePoints(tuple(obj["points"]))
    elif kind == "harmonic":
        spec = HarmonicCluster()
    elif kind == "interval":
        spec = FullInterval(float(obj["lo"]), float(obj["hi"]))
    else:
        raise ValueError(f"unknown set type {kind!r}")
    if "scale" in obj or "translate" in obj:
        spec = _affine(spec, _factor(obj.get("scale", 1.0)),
                       _finite("translate", obj.get("translate", 0.0)))
    return spec


def spec_to_json(spec):
    """Inverse of spec_from_json for the supported shapes."""
    wrap = {}
    if isinstance(spec, Affine):
        wrap = {"scale": spec.scale, "translate": spec.shift}
        spec = spec.inner
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
