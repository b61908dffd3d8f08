"""Property suite: library invariants plus the ten acceptance checks.

Each check returns a CheckResult with the worst residual it observed, so
the command-line ``verify`` subcommand can print one pass/fail line per
invariant.  The checks only use public library entry points; randomized
cases run from fixed seeds so the suite is deterministic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from falpha.calculus import FOnF, derivative, integrate, sup_inf_on
from falpha.cantor import (
    ALPHA,
    GAMMA_ALPHA1,
    cantor_staircase_exact,
    g1_fixed_point,
    g_series,
    power_bound_constants,
    power_rule_derivative,
)
from falpha.dimension import gamma_dimension
from falpha.mass import (
    StaircaseEvaluator,
    coarse_mass,
    mass,
    verify_scaling_translation,
)
from falpha.physics import (
    DiffusionParams,
    FrictionParams,
    diffusion_density,
    diffusion_residual,
    diffusion_variance,
    friction_velocity,
    time_of_flight,
)
from falpha.sets import (
    FinitePoints,
    FullInterval,
    GapIFS,
    HarmonicCluster,
    Interval,
    Scale,
    TernaryCantor,
    Translate,
    gaps,
    intersects,
    is_point_of_change,
    net,
)

__all__ = ["CheckResult", "run_checks", "ACCEPTANCE", "INVARIANTS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    residual: float
    detail: str = ""


def _result(name, residual, bound, detail=""):
    note = detail or f"worst {residual:.3e}, bound {bound:.3e}"
    return CheckResult(name, residual <= bound, float(residual), note)


_CANTOR = TernaryCantor()
_ASYM = GapIFS((0.4, 0.25), (0.0, 0.75))


def _stair():
    return StaircaseEvaluator(_CANTOR, ALPHA, a0=0.0)


def _net_points(spec, level, a=0.0, b=1.0):
    return list(net(spec, level, Interval(a, b)))


# ---------------------------------------------------------------------------
# fractal set invariants


def check_net_membership():
    """Every net point is a member; a nonempty net forces intersection."""
    bad = 0
    for spec in (_CANTOR, _ASYM, HarmonicCluster()):
        lo, hi = spec.hull()
        for level in range(1, 6):
            pts = _net_points(spec, level, lo, hi)
            for p in pts:
                if not intersects(spec, Interval(p, p)):
                    bad += 1
            if pts and not intersects(spec, Interval(lo, hi)):
                bad += 1
    return _result("sets.net-membership", bad, 0, f"{bad} net points rejected")


def check_gaps_exact():
    """Gaps are disjoint, contain no net point, and miss the set."""
    bad = 0
    for spec in (_CANTOR, _ASYM, HarmonicCluster()):
        lo, hi = spec.hull()
        gs = gaps(spec, Interval(lo, hi), min_len=1e-3)
        for g1, g2 in zip(gs, gs[1:]):
            if g1.hi > g2.lo:
                bad += 1
        pts = _net_points(spec, 6, lo, hi)
        for g in gs:
            shrink = 1e-9 * (g.hi - g.lo)
            if intersects(spec, Interval(g.lo + shrink, g.hi - shrink)):
                bad += 1
            # net points and gap endpoints come from different composition
            # orders of the same maps, so allow one-ulp float drift
            slack = 1e-14 * max(1.0, abs(g.lo), abs(g.hi))
            for p in pts:
                if g.lo + slack < p < g.hi - slack:
                    bad += 1
    return _result("sets.gaps-exact", bad, 0, f"{bad} gap violations")


def check_wrapper_commute():
    """The Affine wrappers built by Translate and Scale commute with the
    intersection query: F + shift and lam * F meet a box exactly when F
    meets the box mapped back by x -> x - shift or x -> x / lam."""
    rng = random.Random(11)
    bad = 0
    for _ in range(200):
        lo = rng.uniform(-0.5, 1.0)
        hi = lo + rng.uniform(0.0, 0.8)
        shift = rng.uniform(-1.0, 1.0)
        lam = rng.uniform(0.1, 3.0)
        box = Interval(lo, hi)
        if intersects(Translate(_CANTOR, shift), box) != intersects(
            _CANTOR, Interval(lo - shift, hi - shift)
        ):
            bad += 1
        if intersects(Scale(_CANTOR, lam), box) != intersects(
            _CANTOR, Interval(lo / lam, hi / lam)
        ):
            bad += 1
    return _result("sets.wrapper-commute", bad, 0, f"{bad} disagreements")


def check_points_of_change():
    """Construction endpoints change the staircase; gap midpoints do not."""
    stair = _stair()
    bad = 0
    endpoints = _net_points(_CANTOR, 3)
    for p in endpoints:
        if is_point_of_change(stair, p, h_min=1e-6) != 1:
            bad += 1
    for g in gaps(_CANTOR, Interval(0.0, 1.0), min_len=1e-3):
        if is_point_of_change(stair, (g.lo + g.hi) / 2.0, h_min=1e-6) != 0:
            bad += 1
    return _result("sets.points-of-change", bad, 0, f"{bad} misclassified")


# ---------------------------------------------------------------------------
# mass and staircase invariants


def check_coarse_monotone_delta():
    """Shrinking the mesh bound never shrinks the coarse mass."""
    worst = 0.0
    for spec, lo, hi in ((_CANTOR, 0.0, 1.0), (_ASYM, 0.0, 1.0)):
        prev = None
        for k in range(1, 9):
            v = coarse_mass(spec, lo, hi, ALPHA, 3.0 ** -k)
            if prev is not None:
                worst = max(worst, prev - v)
            prev = v
    return _result("mass.coarse-monotone-delta", worst, 1e-12)


def check_mass_additivity():
    """Mass over [a, c] splits at any interior b."""
    rng = random.Random(5)
    worst = 0.0
    for _ in range(10):
        a = rng.uniform(0.0, 0.3)
        c = rng.uniform(0.7, 1.0)
        b = rng.uniform(a + 0.1, c - 0.1)
        whole = mass(_CANTOR, a, c, ALPHA).value
        parts = mass(_CANTOR, a, b, ALPHA).value + mass(_CANTOR, b, c, ALPHA).value
        worst = max(worst, abs(whole - parts) / max(whole, 1e-12))
    return _result("mass.additivity", worst, 1e-3)


def check_coarse_monotone_endpoints():
    """Coarse mass grows when the window grows."""
    rng = random.Random(6)
    worst = 0.0
    delta = 3.0 ** -6
    for _ in range(20):
        a = rng.uniform(0.0, 0.4)
        b = rng.uniform(a, 0.9)
        c = rng.uniform(b, 1.0)
        full = coarse_mass(_CANTOR, a, c, ALPHA, delta)
        worst = max(worst, coarse_mass(_CANTOR, a, b, ALPHA, delta) - full)
        worst = max(worst, coarse_mass(_CANTOR, b, c, ALPHA, delta) - full)
    return _result("mass.coarse-monotone-endpoints", worst, 1e-12)


def check_staircase_gap_constancy():
    """The staircase is flat across every gap."""
    stair = _stair()
    worst = 0.0
    for g in gaps(_CANTOR, Interval(0.0, 1.0), min_len=1e-3):
        eps = 1e-6 * (g.hi - g.lo)
        worst = max(worst, abs(stair(g.hi - eps) - stair(g.lo + eps)))
    return _result("mass.gap-constancy", worst, 1e-12)


def check_exact_vs_numeric_staircase():
    """Ladder-limit staircase agrees with the closed form."""
    numeric = StaircaseEvaluator(_CANTOR, ALPHA, a0=0.0, mode="numeric")
    worst = 0.0
    for p in _net_points(_CANTOR, 6):
        want = cantor_staircase_exact(p) / GAMMA_ALPHA1
        got = numeric(p)
        worst = max(worst, abs(got - want) / max(want, 1e-12))
    return _result("mass.exact-vs-numeric", worst, 1e-3)


def check_intermediate_value():
    """Every level between 0 and the total mass is attained."""
    stair = _stair()
    total = stair(1.0)
    worst = 0.0
    for frac in (0.1, 0.25, 0.5, 0.75, 0.9):
        target = frac * total
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if stair(mid) < target:
                lo = mid
            else:
                hi = mid
        worst = max(worst, abs(stair((lo + hi) / 2.0) - target))
    # the staircase is Hoelder of order alpha, so a bisection down to
    # float resolution in x still leaves a residual of about ulp^alpha
    return _result("mass.intermediate-value", worst, 1e-5)


# ---------------------------------------------------------------------------
# dimension invariants


def check_dimension_ordering():
    """Box estimate dominates the order-jump estimate up to tolerance."""
    worst = 0.0
    corpus = (
        (_CANTOR, 0.0, 1.0),
        (_ASYM, 0.0, 1.0),
        (HarmonicCluster(), 0.0, 1.0),
        (FullInterval(0.0, 1.0), 0.0, 1.0),
    )
    for spec, a, b in corpus:
        rep = gamma_dimension(spec, a, b)
        worst = max(worst, rep.gamma_dim - rep.box_dim - 0.02)
    return _result("dimension.ordering", worst, 0.0,
                   f"worst (gamma - box - tol) = {worst:.3e}")


def check_similarity_dimension():
    """Self-similar sets land on the analytic similarity order."""
    quarter = GapIFS((0.25, 0.25), (0.0, 0.75))
    worst = 0.0
    for spec, want in ((_CANTOR, ALPHA), (quarter, 0.5)):
        rep = gamma_dimension(spec, 0.0, 1.0)
        worst = max(worst, abs(rep.gamma_dim - want))
    return _result("dimension.similarity", worst, 0.02)


def check_dimension_scaling():
    """Rescaling the set leaves the order-jump dimension unchanged."""
    base = gamma_dimension(_CANTOR, 0.0, 1.0).gamma_dim
    scaled = gamma_dimension(Scale(_CANTOR, 0.5), 0.0, 0.5).gamma_dim
    return _result("dimension.scale-invariance", abs(base - scaled), 0.02)


# ---------------------------------------------------------------------------
# calculus invariants


def check_integral_linearity():
    stair = _stair()
    tol = 2e-4
    f = FOnF.monotone(lambda x: x)
    g = FOnF.monotone(stair)
    lam = 2.5
    combo = FOnF.monotone(lambda x: lam * x + stair(x))
    lhs = integrate(combo, stair, 0.0, 1.0, tol=tol).value
    rhs = lam * integrate(f, stair, 0.0, 1.0, tol=tol).value + integrate(
        g, stair, 0.0, 1.0, tol=tol
    ).value
    return _result("calculus.integral-linearity", abs(lhs - rhs), (2.0 + lam) * tol)


def check_interval_additivity():
    stair = _stair()
    tol = 1e-4
    f = FOnF.monotone(lambda x: x)
    whole = integrate(f, stair, 0.0, 1.0, tol=tol).value
    split = (
        integrate(f, stair, 0.0, 0.4, tol=tol).value
        + integrate(f, stair, 0.4, 1.0, tol=tol).value
    )
    return _result("calculus.interval-additivity", abs(whole - split), 3.0 * tol)


def check_integral_order():
    stair = _stair()
    tol = 1e-4
    hi = integrate(FOnF.monotone(lambda x: 1.0 + x), stair, 0.0, 1.0, tol=tol)
    lo = integrate(FOnF.monotone(lambda x: x), stair, 0.0, 1.0, tol=tol)
    return _result(
        "calculus.integral-order", max(0.0, lo.value - hi.value), 2.0 * tol
    )


def check_derivative_linearity():
    stair = _stair()
    lam = 3.0
    f = FOnF.net_sampled(lambda x: stair(x) ** 2)
    g = FOnF.net_sampled(lambda x: lam * stair(x) ** 2)
    worst = 0.0
    for x in _net_points(_CANTOR, 3):
        worst = max(
            worst,
            abs(derivative(g, stair, x).value - lam * derivative(f, stair, x).value),
        )
    return _result("calculus.derivative-linearity", worst, lam * 2e-3)


def check_leibniz():
    """D(u v) = u' v + u v' with u = S and v = S squared."""
    stair = _stair()
    u = FOnF.monotone(stair)
    v = FOnF.net_sampled(lambda x: stair(x) ** 2)
    uv = FOnF.net_sampled(lambda x: stair(x) ** 3)
    worst = 0.0
    for x in _net_points(_CANTOR, 3):
        du = derivative(u, stair, x).value
        dv = derivative(v, stair, x).value
        duv = derivative(uv, stair, x).value
        worst = max(worst, abs(duv - (du * v(x) + u(x) * dv)))
    return _result("calculus.leibniz", worst, 1e-2)


def check_ftc_first():
    """d/dS of the running integral recovers the integrand on F.

    At every level-5 net point the increment quotient of the running
    integral is bracketed by the sup and inf of the integrand near the
    point, so a tight bracket containing f(x) certifies the limit; a
    handful of points also run the full numeric derivative of the numeric
    integral.
    """
    stair = _stair()
    fns = (
        FOnF.monotone(lambda x: 1.0),
        FOnF.monotone(stair),
        FOnF.net_sampled(lambda x: stair(x) ** 2),
    )
    pts = _net_points(_CANTOR, 5)
    worst = 0.0
    for f in fns:
        for x in pts:
            for sign in (-1.0, 1.0):
                y = x + sign * 3.0 ** -13
                lo, hi = min(x, y), max(x, y)
                if stair(hi) - stair(lo) <= 0.0:
                    continue  # no variation on this side of x
                m_hi, m_lo = sup_inf_on(f, _CANTOR, Interval(lo, hi), level=12)
                if not m_lo - 1e-12 <= f(x) <= m_hi + 1e-12:
                    worst = max(worst, 1.0)
                worst = max(worst, m_hi - m_lo)
    # full numeric pipeline on a sample of points
    sample = [pts[3], pts[17], pts[40]]
    for f in fns:
        for x in sample:
            def running(y, x=x, f=f):
                if y == x:
                    return 0.0
                want = max(1e-12, 2.5e-4 * abs(stair(y) - stair(x)))
                return integrate(f, stair, x, y, tol=want).value

            d = derivative(FOnF.net_sampled(running), stair, x, r0=3.0 ** -5)
            worst = max(worst, abs(d.value - f(x)))
    return _result("calculus.fundamental-first", worst, 1e-3)


def check_ftc_second():
    """Integrating the power-rule derivative recovers the endpoint values."""
    stair = _stair()
    worst = 0.0
    for n in range(1, 5):
        f = FOnF.monotone(lambda x, n=n: power_rule_derivative(n, x))
        got = integrate(f, stair, 0.0, 1.0, tol=5e-4,
                        max_components=60000).value
        worst = max(worst, abs(got - stair(1.0) ** n))
    return _result("calculus.fundamental-second", worst, 1e-3)


def check_integration_by_parts():
    """Integral of u v' plus integral of u' v equals the boundary term."""
    stair = _stair()
    tol = 5e-4
    worst = 0.0
    # (u, v) = (S, chi): v' = 0 on F, u' = 1 on F
    lhs = integrate(FOnF.monotone(lambda x: 1.0), stair, 0.0, 1.0, tol=tol).value
    worst = max(worst, abs(lhs - stair(1.0)))
    # (u, v) = (S^2, S): u' = 2S, v' = 1 on F
    lhs = (
        integrate(FOnF.monotone(lambda x: stair(x) ** 2), stair, 0.0, 1.0,
                  tol=tol, max_components=60000).value
        + integrate(FOnF.monotone(lambda x: 2.0 * stair(x) ** 2), stair,
                    0.0, 1.0, tol=tol, max_components=60000).value
    )
    worst = max(worst, abs(lhs - stair(1.0) ** 3))
    return _result("calculus.by-parts", worst, 3.0 * tol)


def check_rolle_weak():
    """The mirrored staircase has derivatives of both signs, never zero."""
    stair = _stair()
    top = stair(1.0)

    def mirrored(x):
        return min(stair(x), top - stair(x))

    f = FOnF.net_sampled(mirrored)
    pos = neg = False
    zero = 0
    for x in _net_points(_CANTOR, 3):
        d = derivative(f, stair, x, tol=5e-3).value
        if d >= 0.5:
            pos = True
        elif d <= -0.5:
            neg = True
        if abs(d) <= 1e-6:
            zero += 1
    bad = zero + (0 if pos else 1) + (0 if neg else 1)
    return _result("calculus.rolle-weak", bad, 0,
                   f"{zero} zero slopes, signs {'+' if pos else ''}{'-' if neg else ''}")


def check_mean_value_bracket():
    """The mean slope of S squared is bracketed by pointwise derivatives."""
    stair = _stair()
    f = FOnF.net_sampled(lambda x: stair(x) ** 2)
    slope = (stair(1.0) ** 2 - 0.0) / (stair(1.0) - 0.0)
    vals = [derivative(f, stair, x).value for x in _net_points(_CANTOR, 4)]
    ok = min(vals) <= slope <= max(vals)
    return CheckResult(
        "calculus.mean-value",
        ok,
        0.0 if ok else min(abs(slope - min(vals)), abs(slope - max(vals))),
        f"mean slope {slope:.6f} in [{min(vals):.6f}, {max(vals):.6f}]",
    )


def check_constancy():
    """Zero derivative at every net point forces a constant function."""
    stair = _stair()
    f = FOnF.monotone(lambda x: 5.0)
    pts = _net_points(_CANTOR, 4)
    worst = 0.0
    for x in pts:
        worst = max(worst, abs(derivative(f, stair, x).value))
    spread = max(f(p) for p in pts) - min(f(p) for p in pts)
    return _result("calculus.constancy", max(worst, spread), 1e-3)


# ---------------------------------------------------------------------------
# middle-thirds analytics invariants


def check_g_vs_integral():
    """The moment descent for the integral of x dS matches quadrature."""
    stair = _stair()
    f = FOnF.monotone(lambda x: x)
    worst = 0.0
    for y in (1.0 / 9.0, 1.0 / 3.0, 0.4, 0.5, 2.0 / 3.0, 1.0):
        got = integrate(f, stair, 0.0, y, tol=1e-5).value
        worst = max(worst, abs(got - g_series(y)))
    return _result("cantor.series-vs-quadrature", worst, 1e-4)


def check_staircase_self_similar():
    """The closed form is nondecreasing and halves under x -> x/3."""
    worst = 0.0
    pts = _net_points(_CANTOR, 8)
    prev = None
    for p in pts:
        v = cantor_staircase_exact(p)
        if prev is not None and v < prev - 1e-15:
            worst = max(worst, prev - v)
        prev = v
        worst = max(worst, abs(cantor_staircase_exact(p / 3.0) - v / 2.0))
    # adjacent level-n pieces carry increment 2^-n; gaps carry none
    level = 6
    ep = _net_points(_CANTOR, level)
    for lo, hi in zip(ep[::2], ep[1::2]):
        inc = cantor_staircase_exact(hi) - cantor_staircase_exact(lo)
        worst = max(worst, abs(inc - 2.0 ** -level))
    return _result("cantor.self-similar", worst, 1e-12)


def check_g1_fixed_point():
    """Solving the series fixed point reproduces 1 / (2 Gamma(alpha+1))."""
    want = 1.0 / (2.0 * GAMMA_ALPHA1)
    return _result("cantor.g1-fixed-point", abs(g1_fixed_point() - want), 1e-12)


# ---------------------------------------------------------------------------
# physics invariants


def check_friction_monotone():
    params = FrictionParams(_CANTOR, ALPHA, v0=1.0, x0=0.0, kappa=0.5)
    xs = [k / 40.0 for k in range(41)]
    worst = 0.0
    prev = None
    for x in xs:
        v = friction_velocity(params, x)
        if prev is not None:
            worst = max(worst, v - prev)
        prev = v
    return _result("physics.friction-monotone", worst, 1e-12)


def check_friction_gap_constant():
    params = FrictionParams(_CANTOR, ALPHA, v0=1.0, x0=0.0, kappa=0.5)
    worst = 0.0
    for g in gaps(_CANTOR, Interval(0.0, 1.0), min_len=1e-3):
        eps = 1e-6 * (g.hi - g.lo)
        worst = max(
            worst,
            abs(friction_velocity(params, g.hi - eps)
                - friction_velocity(params, g.lo + eps)),
        )
    return _result("physics.friction-gap-constant", worst, 1e-12)


def check_variance_identity():
    params = DiffusionParams(_CANTOR, ALPHA)
    worst = 0.0
    for t in _net_points(_CANTOR, 5):
        worst = max(worst, abs(diffusion_variance(params, t) - params.stair(t)))
    return _result("physics.variance-identity", worst, 0.0)


def check_time_of_flight_monotone():
    params = FrictionParams(_CANTOR, ALPHA, v0=1.0, x0=0.0, kappa=0.5)
    xs = [0.25, 0.5, 1.0]
    ts = [time_of_flight(params, x, tol=1e-6) for x in xs]
    worst = 0.0
    for t1, t2 in zip(ts, ts[1:]):
        worst = max(worst, t1 - t2)
    # superlinear: average speed drops as friction accumulates
    rates = [t / x for x, t in zip(xs, ts)]
    for r1, r2 in zip(rates, rates[1:]):
        worst = max(worst, r1 - r2)
    return _result("physics.time-of-flight-monotone", worst, 1e-12)


# ---------------------------------------------------------------------------
# acceptance checks


def acceptance_1_staircase_endpoint():
    """Scaled staircase hits 1 at the right endpoint, closed form and ladder."""
    exact = abs(cantor_staircase_exact(1.0) - 1.0)
    numeric = coarse_mass(_CANTOR, 0.0, 1.0, ALPHA, 3.0 ** -8) * GAMMA_ALPHA1
    rel = abs(numeric - 1.0)
    return CheckResult(
        "acceptance.1-staircase-endpoint",
        exact <= 1e-12 and rel <= 1e-3,
        max(exact, rel),
        f"closed form off by {exact:.2e}, ladder rel err {rel:.2e}",
    )


def acceptance_2_first_moment():
    stair = _stair()
    want = 1.0 / (2.0 * GAMMA_ALPHA1)
    res = integrate(FOnF.monotone(lambda x: x), stair, 0.0, 1.0, tol=1e-4)
    bracket_ok = res.contains(want)
    series = abs(g_series(1.0) - want)
    scale_worst = 0.0
    for m in range(1, 6):
        scale_worst = max(
            scale_worst, abs(g_series(3.0 ** -m) - g_series(1.0) / 6.0 ** m)
        )
    ok = bracket_ok and series <= 1e-12 and scale_worst <= 1e-10
    return CheckResult(
        "acceptance.2-first-moment",
        ok,
        max(series, scale_worst, 0.0 if bracket_ok else res.gap),
        f"bracket [{res.lower:.8f}, {res.upper:.8f}] vs {want:.8f}, "
        f"series err {series:.2e}, scaling err {scale_worst:.2e}",
    )


def acceptance_3_cantor_dimension():
    rep = gamma_dimension(_CANTOR, 0.0, 1.0)
    e1 = abs(rep.gamma_dim - ALPHA)
    e2 = abs(rep.box_dim - ALPHA)
    return CheckResult(
        "acceptance.3-cantor-dimension",
        e1 <= 0.02 and e2 <= 0.03,
        max(e1, e2),
        f"gamma {rep.gamma_dim:.4f} (err {e1:.4f}), box {rep.box_dim:.4f} (err {e2:.4f})",
    )


def acceptance_4_harmonic_separation():
    rep = gamma_dimension(HarmonicCluster(), 0.0, 1.0, box_depth=12)
    e_box = abs(rep.box_dim - 0.5)
    return CheckResult(
        "acceptance.4-harmonic-separation",
        rep.gamma_dim <= 0.15 and e_box <= 0.05,
        max(rep.gamma_dim, e_box),
        f"gamma {rep.gamma_dim:.4f} <= 0.15, box {rep.box_dim:.4f} vs 0.5",
    )


def acceptance_5_indicator_lemma():
    stair = _stair()
    rng = random.Random(7)
    one = FOnF.monotone(lambda x: 1.0)
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(0.0, 0.9)
        b = rng.uniform(a, 1.0)
        res = integrate(one, stair, a, b, tol=1e-6)
        worst = max(worst, abs(res.upper - res.lower))
        worst = max(worst, abs(res.value - (stair(b) - stair(a))))
    return _result("acceptance.5-indicator-lemma", worst, 1e-12)


def acceptance_6_derivative_suite():
    stair = _stair()
    pts = _net_points(_CANTOR, 6)
    worst = 0.0
    fams = [
        (FOnF.monotone(stair), lambda x: 1.0),
        (FOnF.net_sampled(lambda x: stair(x) ** 2), lambda x: 2.0 * stair(x)),
        (FOnF.net_sampled(lambda x: stair(x) ** 3), lambda x: 3.0 * stair(x) ** 2),
        (FOnF.net_sampled(lambda x: stair(x) ** 4), lambda x: 4.0 * stair(x) ** 3),
    ]
    for f, want in fams:
        for x in pts:
            worst = max(worst, abs(derivative(f, stair, x).value - want(x)))
    # off the set and for constants the derivative is exactly zero
    for g in gaps(_CANTOR, Interval(0.0, 1.0), min_len=1e-2):
        mid = (g.lo + g.hi) / 2.0
        worst = max(worst, abs(derivative(fams[0][0], stair, mid).value))
    const = FOnF.monotone(lambda x: 2.0)
    for x in pts[:16]:
        worst = max(worst, abs(derivative(const, stair, x).value))
    return _result("acceptance.6-derivative-suite", worst, 1e-3)


def acceptance_7_fundamental_theorems(first=None, second=None):
    """Both fundamental theorems; ``first`` and ``second`` are the results
    of ``check_ftc_first`` and ``check_ftc_second`` when already run."""
    if second is None:
        second = check_ftc_second()
    if first is None:
        first = check_ftc_first()
    return CheckResult(
        "acceptance.7-fundamental-theorems",
        first.ok and second.ok,
        max(first.residual, second.residual),
        f"first thm worst {first.residual:.2e}, round trip worst {second.residual:.2e}",
    )


def acceptance_8_scaling_suite():
    rng = random.Random(13)
    worst = 0.0
    for spec in (_CANTOR, _ASYM):
        alpha = ALPHA if spec is _CANTOR else gamma_dimension(spec, 0.0, 1.0).gamma_dim
        for _ in range(25):
            lam = rng.uniform(0.2, 2.5)
            shift = rng.uniform(-1.0, 1.0)
            split = rng.uniform(0.2, 0.8)
            rep = verify_scaling_translation(spec, 0.0, 1.0, alpha, lam, shift)
            worst = max(worst, rep.scaling_rel_error, rep.translation_rel_error)
            whole = mass(spec, 0.0, 1.0, alpha).value
            parts = (
                mass(spec, 0.0, split, alpha).value
                + mass(spec, split, 1.0, alpha).value
            )
            worst = max(worst, abs(whole - parts) / max(whole, 1e-12))
    return _result("acceptance.8-scaling-suite", worst, 1e-3)


def _simpson(fn, lo, hi, n=2000):
    if n % 2:
        n += 1
    h = (hi - lo) / n
    acc = fn(lo) + fn(hi)
    for i in range(1, n):
        acc += fn(lo + i * h) * (4.0 if i % 2 else 2.0)
    return acc * h / 3.0


def acceptance_9_diffusion():
    params = DiffusionParams(_CANTOR, ALPHA)
    worst_gauss = 0.0
    for t in (1.0 / 3.0, 0.5, 1.0):
        s = params.stair(t)
        span = 10.0 * math.sqrt(s)
        norm = _simpson(lambda x: diffusion_density(params, x, t), -span, span)
        var = _simpson(
            lambda x: x * x * diffusion_density(params, x, t), -span, span
        )
        worst_gauss = max(worst_gauss, abs(norm - 1.0), abs(var - s))
    pts = [p for p in _net_points(_CANTOR, 4) if p > 0.0]
    rng = random.Random(3)
    worst_res = 0.0
    for _ in range(20):
        t = rng.choice(pts)
        x = rng.uniform(-1.0, 1.0)
        worst_res = max(worst_res, abs(diffusion_residual(params, x, t)))
    _, b = power_bound_constants()
    sub = 0.0
    for t in (p for p in _net_points(_CANTOR, 8) if p > 0.0):
        sub = max(sub, diffusion_variance(params, t) - b * t ** ALPHA)
    ok = worst_gauss <= 1e-6 and worst_res <= 1e-3 and sub <= 1e-12
    return CheckResult(
        "acceptance.9-diffusion",
        ok,
        max(worst_gauss, worst_res, sub),
        f"gaussian err {worst_gauss:.2e}, residual {worst_res:.2e}, "
        f"subdiffusive slack {sub:.2e}",
    )


def acceptance_10_friction():
    empty = FrictionParams(FinitePoints(()), ALPHA, v0=2.0, x0=0.0, kappa=0.5)
    e1 = abs(friction_velocity(empty, 1.0) - 2.0)
    e1 = max(e1, abs(time_of_flight(empty, 1.0) - 0.5))
    full = FrictionParams(FullInterval(0.0, 2.0), 1.0, v0=1.0, x0=0.0, kappa=0.4)
    closed = -math.log(1.0 - 0.4 * 1.0 / 1.0) / 0.4
    e2 = abs(time_of_flight(full, 1.0) - closed)
    e2 = max(e2, abs(friction_velocity(full, 1.0) - (1.0 - 0.4)))
    cantor = FrictionParams(_CANTOR, ALPHA, v0=1.0, x0=0.0, kappa=0.5)
    e3 = abs(friction_velocity(cantor, 1.0) - (1.0 - 0.5 / GAMMA_ALPHA1))
    ok = e1 <= 1e-12 and e2 <= 1e-6 and e3 <= 1e-4
    return CheckResult(
        "acceptance.10-friction",
        ok,
        max(e1, e2, e3),
        f"empty err {e1:.2e}, interval err {e2:.2e}, cantor err {e3:.2e}",
    )


INVARIANTS = (
    check_net_membership,
    check_gaps_exact,
    check_wrapper_commute,
    check_points_of_change,
    check_coarse_monotone_delta,
    check_mass_additivity,
    check_coarse_monotone_endpoints,
    check_staircase_gap_constancy,
    check_exact_vs_numeric_staircase,
    check_intermediate_value,
    check_dimension_ordering,
    check_similarity_dimension,
    check_dimension_scaling,
    check_integral_linearity,
    check_interval_additivity,
    check_integral_order,
    check_derivative_linearity,
    check_leibniz,
    check_ftc_first,
    check_ftc_second,
    check_integration_by_parts,
    check_rolle_weak,
    check_mean_value_bracket,
    check_constancy,
    check_g_vs_integral,
    check_staircase_self_similar,
    check_g1_fixed_point,
    check_friction_monotone,
    check_friction_gap_constant,
    check_variance_identity,
    check_time_of_flight_monotone,
)

ACCEPTANCE = (
    acceptance_1_staircase_endpoint,
    acceptance_2_first_moment,
    acceptance_3_cantor_dimension,
    acceptance_4_harmonic_separation,
    acceptance_5_indicator_lemma,
    acceptance_6_derivative_suite,
    acceptance_7_fundamental_theorems,
    acceptance_8_scaling_suite,
    acceptance_9_diffusion,
    acceptance_10_friction,
)

_FAST = (
    check_net_membership,
    check_gaps_exact,
    check_staircase_gap_constancy,
    check_g1_fixed_point,
    check_staircase_self_similar,
    acceptance_1_staircase_endpoint,
    acceptance_5_indicator_lemma,
    acceptance_10_friction,
)


def run_checks(fast=False):
    """Run the property suite; returns a list of CheckResult."""
    checks = _FAST if fast else INVARIANTS + ACCEPTANCE
    done = {}
    for fn in checks:
        if fn is acceptance_7_fundamental_theorems:
            # reuse the two invariant checks it is made of
            done[fn] = fn(done.get(check_ftc_first), done.get(check_ftc_second))
        else:
            done[fn] = fn()
    return list(done.values())
