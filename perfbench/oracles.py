"""Reference computations the benchmark checks falpha against.

Nothing here imports falpha: every value is computed from the set's maps
alone, so a fault in the package cannot hide in its own oracle.

A gap IFS is given by ``maps``, a tuple of (offset, ratio) pairs sorted by
offset, whose attractor has the hull [0, 1] (first offset 0, last copy
ending at 1).  At its similarity order s the staircase measure gives copy
``w`` the weight p_w = prod r_i^s, and the whole set the mass 1/Gamma(s+1).
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "similarity_root",
    "cantor_fraction",
    "IFSOracle",
    "CANTOR_MAPS",
]

# the middle-thirds maps, exact, so that oracle descents hit triadic
# points on the nose
CANTOR_MAPS = ((Fraction(0), Fraction(1, 3)), (Fraction(2, 3), Fraction(1, 3)))


def similarity_root(ratios, iters=200):
    """The root s of sum(r_i^s) = 1, by bisection on [0, 1]."""
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if sum(r ** mid for r in ratios) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cantor_fraction(x, digits=80):
    """The Cantor function at a rational x in [0, 1], by an exact ternary
    digit scan; exact whenever the expansion of x ends within ``digits``
    digits (every triadic rational does)."""
    x = Fraction(x)
    if x <= 0:
        return Fraction(0)
    if x >= 1:
        return Fraction(1)
    val = Fraction(0)
    w = Fraction(1, 2)
    for _ in range(digits):
        x *= 3
        t = int(x)
        x -= t
        if t == 1:
            return val + w
        if t == 2:
            val += w
        if x == 0:
            return val
        w /= 2
    return val


class IFSOracle:
    """Staircase, moments and pieces of a gap IFS on [0, 1] at its
    similarity order, by an exact descent through the copies."""

    def __init__(self, maps):
        self.maps = tuple((float(o), float(r)) for o, r in maps)
        self._exact = tuple((Fraction(o), Fraction(r)) for o, r in maps)
        self.s = similarity_root([r for _, r in self.maps])
        self.gamma = math.gamma(self.s + 1.0)
        self.weights = tuple(r ** self.s for _, r in self.maps)

    def measure(self, x):
        """Share of the set's measure in [0, x]."""
        y = Fraction(x)
        acc = 0.0
        w = 1.0
        while w > 1e-19:
            if y <= 0:
                return acc
            if y >= 1:
                return acc + w
            for (o, r), p in zip(self._exact, self.weights):
                if y < o:
                    return acc  # in the gap before this copy
                if y <= o + r:
                    y = (y - o) / r
                    w *= p
                    break
                acc += w * p
            else:
                return acc
        return acc

    def stair(self, x):
        """The staircase S(x) = mass of [0, x] at the similarity order."""
        return self.measure(x) / self.gamma

    def mean(self):
        """Mean of the normalized measure: sum p_i o_i / (1 - sum p_i r_i)."""
        num = sum(p * o for (o, _), p in zip(self.maps, self.weights))
        den = 1.0 - sum(p * r for (_, r), p in zip(self.maps, self.weights))
        return num / den

    def pieces(self, level):
        """Level-n copies as (lo, hi, weight), left to right."""
        out = [(0.0, 1.0, 1.0)]
        for _ in range(level):
            nxt = []
            for lo, hi, w in out:
                span = hi - lo
                for (o, r), p in zip(self.maps, self.weights):
                    nxt.append((lo + span * o, lo + span * (o + r), w * p))
            out = nxt
        return out

    def gap_points(self, level):
        """Midpoints of the gaps between consecutive level-n copies."""
        pcs = self.pieces(level)
        return [0.5 * (a[1] + b[0]) for a, b in zip(pcs, pcs[1:])]

    def moment_on(self, lo, hi, level):
        """(mass, first moment) of the staircase measure on [lo, hi], where
        lo and hi lie outside the interiors of the level-n copies."""
        m = self.mean()
        mass = 0.0
        first = 0.0
        for a, b, w in self.pieces(level):
            if lo <= a and b <= hi:
                mass += w
                first += w * (a + (b - a) * m)
        return mass / self.gamma, first / self.gamma

    def flight_bracket(self, x, v0, kappa, eps=1e-11, max_level=60):
        """Bounds on the travel time from 0 to x <= 1 through a friction
        medium on this set, with velocity v0 - kappa * S.

        Across a gap the velocity is constant, so the time is exact.
        Across a copy [c, d] the velocity falls monotonically from v(c) to
        v(d), so the time lies in [len / v(c), len / v(d)]; a copy is
        split into its sub-copies until that spread is at most ``eps``.
        """
        g = self.gamma
        lo_t = 0.0
        hi_t = 0.0
        # (lo, hi, S(lo), weight, level), leftmost copy on top
        stack = [(0.0, 1.0, 0.0, 1.0, 0)]
        while stack:
            lo, hi, s_lo, w, level = stack.pop()
            if lo >= x:
                continue
            end = min(hi, x)
            v_lo = v0 - kappa * s_lo
            v_hi = v0 - kappa * (s_lo + w / g)
            t0 = (end - lo) / v_lo
            t1 = (end - lo) / v_hi
            if t1 - t0 <= eps or level >= max_level:
                lo_t += t0
                hi_t += t1
                continue
            span = hi - lo
            kids = []
            acc = s_lo
            prev_end = None
            for (o, r), p in zip(self.maps, self.weights):
                c = lo + span * o
                d = lo + span * (o + r)
                if prev_end is not None and c > prev_end and prev_end < x:
                    # a gap: constant velocity at the mass reached so far
                    t = (min(c, x) - prev_end) / (v0 - kappa * acc)
                    lo_t += t
                    hi_t += t
                kids.append((c, d, acc, w * p, level + 1))
                acc += w * p / g
                prev_end = d
            stack.extend(reversed(kids))
        return lo_t, hi_t
