"""The exact oracle of the tests, in rational arithmetic: the staircase
and moments of the self-similar measure of a gap IFS, the integral of a
polynomial over whole pieces of one, the point of an address, and the
Lebesgue moments of a measure record's staircase, all from the
self-similarity identities (Hutchinson 1981).

It reads specs and records by their fields alone and imports nothing
from falpha and no test module, so the float code under test never
checks itself and no import cycle can form."""

import math
from fractions import Fraction

# the running weight at or below which a descent stops, 1e-20 as an
# exact rational; the share it leaves out is at most this
STOP = Fraction(1e-20)


def unwrap(spec):
    """(inner spec, scale, shift) of a spec with at most one Affine layer."""
    if hasattr(spec, "inner"):
        return spec.inner, spec.scale, spec.shift
    return spec, 1.0, 0.0


def descent(rs, os_, ps):
    """The exact descent of the self-similar measure giving copy i of the
    IFS with ratios ``rs`` and offsets ``os_`` the share ``ps[i]``: a
    function of y that gives (share, moment), the mass of (-inf, y] and
    the integral of y over it, by one walk down the copies in exact
    rational arithmetic.  The walk carries the frame a + b y of the copy
    it enters; a copy passed adds its weight to the share, and its weight
    times its frame's image of the mean m, the fixed point of
    m = sum p_i (o_i + r_i m), to the moment.  It stops in a gap, at a
    hull end, or once the running weight is at most STOP, which bounds
    what it leaves out."""
    rs, os_, ps = ([Fraction(v) for v in vs] for vs in (rs, os_, ps))
    h0, h1 = os_[0] / (1 - rs[0]), os_[-1] / (1 - rs[-1])
    m = (sum(p * o for p, o in zip(ps, os_))
         / (1 - sum(p * r for p, r in zip(ps, rs))))
    # each copy's ends, map, weight and image of the mean
    copies = [(o + r * h0, o + r * h1, o, r, p, o + r * m)
              for o, r, p in zip(os_, rs, ps)]

    def at(y):
        y, share, moment = Fraction(y), Fraction(0), Fraction(0)
        w, a, b = Fraction(1), Fraction(0), Fraction(1)
        while w > STOP and y > h0:
            if y >= h1:
                return share + w, moment + w * (a + b * m)
            for lo, hi, o, r, p, mean in copies:
                if y < lo:
                    return share, moment  # in a gap
                if y <= hi:
                    y, a, b, w = (y - o) / r, a + b * o, b * r, w * p
                    break
                share += w * p
                moment += w * p * (a + b * mean)
        return share, moment

    return at


def weights(base, alpha):
    """The shares p_i of the copies of the gap IFS ``base`` at the order
    alpha: r_i^alpha each rounded once to a float, over their sum."""
    ps = [Fraction(r ** alpha) for r in base.ratios]
    return [p / sum(ps) for p in ps]


def walk(spec, alpha, x):
    """(share, moment) at the float x of a gap IFS at the order alpha, or
    of an Affine of one, with the moment in the units of x: ``descent`` on
    the float ratios and offsets, with the ``weights``."""
    base, lam, t = unwrap(spec)
    lam, t = Fraction(lam), Fraction(t)
    share, moment = descent(base.ratios, base.offsets, weights(base, alpha))(
        (Fraction(x) - t) / lam)
    return share, t * share + lam * moment


def stair(spec, alpha, x):
    """Gamma(alpha + 1) times the mass of (-inf, x] on a gap IFS at the
    order alpha, or an Affine of one: the share from ``walk`` times
    (lam (h1 - h0))^alpha on the set's float hull, rounded once to a
    float."""
    base, lam, _ = unwrap(spec)
    h0, h1 = base.hull()
    return walk(spec, alpha, x)[0] * Fraction((lam * (h1 - h0)) ** alpha)


# the descent on the exact middle-thirds maps with weights 1/2
_THIRDS = descent((Fraction(1, 3), Fraction(1, 3)), (0, Fraction(2, 3)),
                  (Fraction(1, 2), Fraction(1, 2)))


def cantor(x):
    """The Cantor function at the rational x: the descent on the exact
    middle-thirds maps, which ends exactly at every k/3^n with n <= 66."""
    return _THIRDS(x)[0]


def image(base, address, y):
    """f_a1 o ... o f_ak (y) for the address (a1, ..., ak) and the maps
    f_i(y) = o_i + r_i y of the gap IFS ``base``, as an exact rational."""
    y = Fraction(y)
    for i in reversed(address):
        y = Fraction(base.offsets[i]) + Fraction(base.ratios[i]) * y
    return y


def moments(rs, os_, ps, n):
    """m_0..m_n, m_k the integral of y^k against the self-similar measure
    giving copy i of the IFS with ratios ``rs`` and offsets ``os_`` the
    share ``ps[i]``.  That measure is the sum of the p_i-weighted images
    of itself under y -> o_i + r_i y, so m_k = sum_i p_i sum_(j<=k)
    C(k, j) o_i^(k-j) r_i^j m_j: the j = k terms move to the left as
    m_k (1 - sum_i p_i r_i^k), from m_0 = 1 (Hutchinson 1981)."""
    rs, os_, ps = ([Fraction(v) for v in vs] for vs in (rs, os_, ps))
    ms = [Fraction(1)]
    for k in range(1, n + 1):
        acc = sum(p * sum(math.comb(k, j) * o ** (k - j) * r ** j * ms[j]
                          for j in range(k))
                  for r, o, p in zip(rs, os_, ps))
        ms.append(acc / (1 - sum(p * r ** k for r, p in zip(rs, ps))))
    return ms


def polynomial(spec, alpha, coeffs, addresses):
    """The integral of the polynomial sum_k coeffs[k] x^k against the
    staircase of ``stair``, on a gap IFS at the order alpha or an Affine
    of one, over its pieces with the given ``addresses``.  The piece
    f_a(F) lies at x = A + B y for y in F and carries the weight P, the
    product of the ``weights`` along a, so its share is P sum_k c_k
    sum_(j<=k) C(k, j) A^(k-j) B^j m_j, with m_j from ``moments``; the
    sum is scaled, as ``stair`` scales a share, by (lam (h1 - h0))^alpha
    on the set's float hull."""
    base, lam, t = unwrap(spec)
    h0, h1 = base.hull()
    ps = weights(base, alpha)
    ms = moments(base.ratios, base.offsets, ps, len(coeffs) - 1)
    total = Fraction(0)
    for a in addresses:
        c = image(base, a, 0)
        at = Fraction(t) + Fraction(lam) * c
        by = Fraction(lam) * (image(base, a, 1) - c)
        weight = math.prod((ps[i] for i in a), start=Fraction(1))
        total += weight * sum(
            ck * sum(math.comb(k, j) * at ** (k - j) * by ** j * ms[j]
                     for j in range(k + 1))
            for k, ck in enumerate(coeffs))
    return total * Fraction((lam * (h1 - h0)) ** alpha)


def point(base, head, period):
    """The point of the gap IFS ``base`` with the address ``head``
    followed by ``period`` repeated forever, as an exact rational: the
    head's image of the fixed point of the period's map y -> c + d y."""
    c = image(base, period, 0)
    d = image(base, period, 1) - c
    return image(base, head, c / (1 - d))


def lebesgue_moments(rec, n):
    """M_0..M_n of the rescaled staircase of the measure record ``rec``:
    the recursion of ``_backend.lebesgue_moments`` solved in Fractions
    from M_0 = 1, on the record's weights, ratios and shares."""
    ps = [Fraction(p) for _, p in rec.table]
    rs = [Fraction(r) for (_, r, _, _), _ in rec.table]
    cs = [sum(ps[:j], Fraction(0)) for j in range(len(ps) + 1)]
    gaps = [Fraction(f0) - Fraction(f1)
            for (_, f1), (f0, _) in zip(rec.shares, rec.shares[1:])]
    moments = [Fraction(1)]
    for k in range(1, n + 1):
        acc = sum(g * c ** k for g, c in zip(gaps, cs[1:]))
        acc += sum(r * sum(math.comb(k, i) * c ** (k - i) * p ** i
                           * moments[i] for i in range(k))
                   for r, p, c in zip(rs, ps, cs))
        moments.append(acc / (1 - sum(r * p ** k for r, p in zip(rs, ps))))
    return moments
