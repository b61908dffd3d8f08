"""The three workloads: inputs made from a seed, operations, and checks.

A workload is a list of rounds; a round is a list of ``Op``.  Every round
of a workload holds the same kinds of operation in the same order, with
fresh seeded inputs, so each run attempts whole rounds and the share of
failed operations is the same in every run.

``Op.call`` makes one call into a public entry point of falpha and
returns its output.  ``Op.check`` inspects that output against the
oracles and returns (errors, fault): ``errors`` lists wrong results,
``fault`` names a known fault of falpha that makes the operation count as
failed (its other outputs are still checked).
"""

from __future__ import annotations

import bisect
import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from oracles import CANTOR_MAPS, IFSOracle, cantor_fraction, similarity_root

NAMES = ("tabulate", "solve", "estimate")

S_CANTOR = similarity_root([1.0 / 3.0, 1.0 / 3.0])
G_CANTOR = math.gamma(S_CANTOR + 1.0)


@dataclass
class Op:
    kind: str
    call: object
    check: object


class Ctx:
    """The falpha package and its CLI module that operations call into;
    set (again) by ``Built.make`` after each import."""

    fa = None
    cli = None


@dataclass
class Built:
    rounds: list
    sets: list               # objects whose make(fa) builds falpha specs
    ctx: Ctx
    trace_rounds: int        # rounds in one pass of a traced run

    def make(self, fa, cli):
        """Point the operations at this import of falpha and build every
        set spec they use: the part of set-up that belongs to falpha."""
        self.ctx.fa = fa
        self.ctx.cli = cli
        for s in self.sets:
            s.make(fa)


def build(name, seed):
    """The workload's rounds, with inputs and oracles made from the seed;
    call ``make`` before running them."""
    rng = random.Random(f"{name}:{seed}")
    return {"tabulate": tabulate, "solve": solve,
            "estimate": estimate}[name](Ctx(), rng)


# -- inputs -------------------------------------------------------------------


def gap_maps(rng, m):
    """Seeded gap IFS with m maps on [0, 1], order in [0.45, 0.85]."""
    while True:
        ratios = [round(rng.uniform(0.15, 0.45), 4) for _ in range(m)]
        if sum(ratios) > 0.85:
            continue
        if not 0.45 <= similarity_root(ratios) <= 0.85:
            continue
        weights = [rng.uniform(1.0, 2.0) for _ in range(m - 1)]
        spare = 1.0 - sum(ratios)
        gaps = [round(spare * w / sum(weights), 4) for w in weights]
        offsets = [0.0]
        for r, g in zip(ratios, gaps):
            offsets.append(round(offsets[-1] + r + g, 4))
        offsets[-1] = 1.0 - ratios[-1]
        if offsets[-1] < offsets[-2] + ratios[-2] + 0.01:
            continue
        return tuple(zip(offsets, ratios))


class Medium:
    """A self-similar set with its oracle; ``make`` builds the falpha spec
    and its order.  ``scale`` and ``shift`` place the set at
    shift + scale * F."""

    def __init__(self, maps, scale=1.0, shift=0.0, cantor=False):
        self.maps = maps
        self.cantor = cantor
        self.scale = scale
        self.shift = shift
        self.oracle = IFSOracle(CANTOR_MAPS if cantor else maps)
        self.spec = None
        self.alpha = None

    def make(self, fa):
        base = fa.TernaryCantor() if self.cantor else fa.GapIFS(
            tuple(r for _, r in self.maps), tuple(o for o, _ in self.maps))
        spec = base
        if self.scale != 1.0:
            spec = fa.Scale(spec, self.scale)
        if self.shift != 0.0:
            spec = fa.Translate(spec, self.shift)
        self.spec = spec
        self.alpha = (fa.ALPHA if self.cantor
                      else fa.similarity_order(base.ratios))

    def json(self):
        obj = ({"type": "cantor"} if self.cantor else
               {"type": "gap_ifs", "ratios": [r for _, r in self.maps],
                "offsets": [o for o, _ in self.maps]})
        if self.scale != 1.0:
            obj["scale"] = self.scale
        if self.shift != 0.0:
            obj["translate"] = self.shift
        return json.dumps(obj)

    def tol(self):
        """Absolute error allowed in falpha's staircase and mass values:
        its gap IFS descent closes with a tile once a piece is below
        1e-13, which can cost up to (1e-13)^alpha."""
        return 2.0 * (1e-13 * self.scale) ** self.oracle.s

    def place(self, u):
        """Global position of the point u of the unit-hull set."""
        return self.shift + self.scale * u

    def stair(self, x):
        """Oracle staircase from 0, in global coordinates."""
        u = (Fraction(x) - Fraction(self.shift)) / Fraction(self.scale)
        o = self.oracle
        return self.scale ** o.s * o.measure(u) / o.gamma


def medium(sets, rng, m, wrap=False):
    """A seeded medium, added to ``sets``: the middle-thirds set for m = 0,
    else a gap IFS with m maps; ``wrap`` scales and shifts it."""
    scale, shift = 1.0, 0.0
    if wrap:
        scale = round(rng.uniform(0.5, 2.0), 3)
        shift = round(rng.uniform(0.0, 0.5), 3)
    if m == 0:
        med = Medium(CANTOR_MAPS, scale, shift, cantor=True)
    else:
        med = Medium(gap_maps(rng, m), scale, shift)
    sets.append(med)
    return med


class PointSet:
    """The harmonic cluster (points None) or a finite point set."""

    def __init__(self, points=None):
        self.points = points
        self.spec = None

    def make(self, fa):
        self.spec = (fa.HarmonicCluster() if self.points is None
                     else fa.FinitePoints(self.points))


def close(a, b, rel, abs_=0.0):
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# -- tabulate -----------------------------------------------------------------


def run_cli(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def parse_table(text, fmt):
    """(columns, rows, meta) from CLI output in either format."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["columns"], doc["rows"], doc.get("meta", {})
    meta = {}
    lines = text.splitlines()
    while lines and lines[0].startswith("# "):
        key, _, val = lines.pop(0)[2:].partition(" = ")
        meta[key] = val
    columns = lines[0].split(",")
    rows = [[_cell(c) for c in line.split(",")] for line in lines[1:]]
    return columns, rows, meta


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


class GBracket:
    """Riemann-Stieltjes bracket for g(y) = integral of x dC over [0, y],
    from the level-12 copies of the middle-thirds set."""

    def __init__(self, level=12):
        pieces = IFSOracle(CANTOR_MAPS).pieces(level)
        self.his = [hi for _, hi, _ in pieces]
        self.los = [lo for lo, _, _ in pieces]
        self.w = [w for _, _, w in pieces]
        self.low = [0.0]
        self.high = [0.0]
        for lo, hi, w in pieces:
            self.low.append(self.low[-1] + lo * w)
            self.high.append(self.high[-1] + hi * w)

    def bounds(self, y):
        k = bisect.bisect_right(self.his, y)
        lower = self.low[k]
        upper = self.high[k]
        if k < len(self.los) and self.los[k] < y:
            upper += y * self.w[k]
        return lower, upper


def staircase_op(ctx, kind, med, argv, xs, fmt, gamma_true, s_tol=1e-12):
    """A staircase table from xs[0]; xs are the exact sample points, and
    s_tol the absolute error allowed in the staircase column."""
    def check(out):
        rc, text = out
        if rc != 0:
            return [f"exit code {rc}"], None
        cols, rows, _ = parse_table(text, fmt)
        if cols != ["x", "staircase", "scaled_staircase"] or len(rows) != len(xs):
            return [f"table shape {cols} x {len(rows)}"], None
        errs = []
        fault = None
        s0 = med.stair(xs[0])
        for (x, s, scaled), xe in zip(rows, xs):
            if not close(x, float(xe), 2e-15):
                errs.append(f"x {x} != {float(xe)}")
            want = med.stair(xe) - s0
            if not close(s, want, 1e-11, s_tol):
                errs.append(f"S({x}) = {s}, oracle {want}")
            if not close(scaled, s * gamma_true, 1e-12):
                fault = "scaled_staircase is not S * Gamma(alpha+1)"
        return errs[:3], fault

    return Op(kind, lambda: run_cli(ctx.cli, argv), check)


class TriadicCantor:
    """The middle-thirds set at shift + 3^e * C, with exact oracle values
    at triadic points (3^e scales the staircase by 2^e)."""

    def __init__(self, e, shift):
        self.e = e
        self.shift = shift
        self.scale = Fraction(3) ** e

    def json(self):
        obj = {"type": "cantor"}
        if self.e:
            obj["scale"] = float(self.scale)
        if self.shift:
            obj["translate"] = float(self.shift)
        return json.dumps(obj)

    def stair(self, x):
        u = (Fraction(x) - self.shift) / self.scale
        return float(Fraction(2) ** self.e * cantor_fraction(u)) / G_CANTOR


def cantor_staircase_op(ctx, rng, wrapped):
    """A staircase table of the middle-thirds set (wrapped: scaled by 3 or
    1/3 and shifted) on a triadic range, sampled at triadic points."""
    e, shift = 0, Fraction(0)
    if wrapped:
        e = rng.choice((-1, 1))
        shift = Fraction(rng.randrange(0, 10), 9)
    med = TriadicCantor(e, shift)
    span = 3 ** rng.randrange(1, 4)
    d = rng.choice((1, 2, 3))
    while True:
        i = rng.randrange(0, span)
        j = rng.randrange(i + 1, span + 1)
        if (j - i) % d == 0:
            break
    a = shift + med.scale * Fraction(i, span)
    b = shift + med.scale * Fraction(j, span)
    n = 81 * d + 1
    xs = [a + (b - a) * Fraction(k, n - 1) for k in range(n)]
    fmt = rng.choice(("csv", "json"))
    argv = ["staircase", "--set", med.json(), "--alpha", "auto",
            "--samples", str(n), "--range", repr(float(a)), repr(float(b)),
            "--format", fmt]
    return staircase_op(ctx, "staircase", med, argv, xs, fmt, G_CANTOR)


class UnitInterval:
    def stair(self, x):
        return float(x)


def fixed_fault_ops(ctx):
    """Staircase tables at orders other than log 2 / log 3, on inputs that
    do not depend on the seed: the scaled_staircase column multiplies by
    Gamma(log 2 / log 3 + 1) whatever the order, so these always fail."""
    n = 28
    xs = [Fraction(k, n - 1) for k in range(n)]
    argv = ["staircase", "--set", '{"type": "interval", "lo": 0.0, "hi": 1.0}',
            "--alpha", "auto", "--samples", str(n), "--format", "csv"]
    unit = staircase_op(ctx, "staircase-fault", UnitInterval(), argv, xs,
                        "csv", 1.0)
    med = Medium(((0.0, 0.4), (0.75, 0.25)))
    argv = ["staircase", "--set", med.json(), "--alpha", "auto",
            "--samples", str(n), "--format", "json"]
    gap = staircase_op(ctx, "staircase-fault", med, argv, xs, "json",
                       med.oracle.gamma, s_tol=med.tol())
    return [unit, gap]


def cantor_g_op(ctx, rng, gb):
    n = 27 * rng.randrange(4, 10)
    fmt = rng.choice(("csv", "json"))
    argv = ["cantor-g", "--samples", str(n), "--format", fmt]
    g1 = 1.0 / (2.0 * G_CANTOR)
    # y = i/n is 3^-m exactly when i * 3^m = n
    powers = {n // 3 ** m: m for m in range(0, 4) if n % 3 ** m == 0}

    def check(out):
        rc, text = out
        if rc != 0:
            return [f"exit code {rc}"], None
        cols, rows, meta = parse_table(text, fmt)
        if cols != ["y", "g", "scaled_g"] or len(rows) != n:
            return [f"table shape {cols} x {len(rows)}"], None
        errs = []
        if not close(float(meta["g1"]), g1, 1e-12):
            errs.append(f"g(1) = {meta['g1']}, want {g1}")
        for i, (y, g, scaled) in enumerate(rows, start=1):
            if y != i / n:
                errs.append(f"y {y} != {i}/{n}")
            if not close(scaled, g * G_CANTOR, 1e-12):
                errs.append(f"scaled_g {scaled} != g * Gamma")
            if i in powers:
                want = g1 / 6.0 ** powers[i]
                if not close(g, want, 1e-12):
                    errs.append(f"g({y}) = {g}, want {want}")
                continue
            lo, hi = gb.bounds(y)
            if not lo - 1e-12 <= g * G_CANTOR <= hi + 1e-12:
                errs.append(f"g({y}) = {g} outside [{lo}, {hi}] / Gamma")
        return errs[:3], None

    return Op("cantor-g", lambda: run_cli(ctx.cli, argv), check)


def diffusion_op(ctx, med, times, rng, pairs=()):
    """A density table at the given times; ``pairs`` lists (i, j, k, c)
    with S(t_j) - S(t_k) = c * S(t_i), checked on the variances read back
    from the table."""
    lo = -round(rng.uniform(1.0, 2.0), 2)
    hi = round(rng.uniform(1.0, 2.0), 2)
    step = rng.choice((0.1, 0.125, 0.2, 0.25))
    fmt = rng.choice(("csv", "json"))
    argv = ["diffusion", "--set", med.json(), "--alpha", "auto",
            "--time", *[repr(float(t)) for t in times],
            "--x", repr(lo), repr(hi), repr(step), "--format", fmt]
    var = [med.stair(t) for t in times]

    def check(out):
        rc, text = out
        if rc != 0:
            return [f"exit code {rc}"], None
        cols, rows, _ = parse_table(text, fmt)
        if cols != ["x", "t", "density"] or len(rows) % len(times):
            return [f"table shape {cols} x {len(rows)}"], None
        per = len(rows) // len(times)
        errs = []
        read_back = []
        for ti, t in enumerate(times):
            block = rows[ti * per:(ti + 1) * per]
            first, last = block[0][0], block[-1][0]
            if first != lo or last > hi + 1e-12 or hi - last > step + 1e-12:
                errs.append(f"x grid {first}..{last} for {lo}..{hi}")
            v = var[ti]
            for x, tt, w in block:
                if tt != float(t):
                    errs.append(f"t {tt} != {float(t)}")
                want = (math.exp(-x * x / (2.0 * v))
                        / math.sqrt(2.0 * math.pi * v))
                if not close(w, want, 1e-9):
                    errs.append(f"density({x}, {tt}) = {w}, want {want}")
            far = max(block, key=lambda r: abs(r[0]))
            near = min(block, key=lambda r: abs(r[0]))
            read_back.append((far[0] ** 2 - near[0] ** 2)
                             / (2.0 * math.log(near[2] / far[2])))
        for i, j, k, c in pairs:
            lhs = read_back[j] - read_back[k]
            if not close(lhs, c * read_back[i], 1e-8):
                errs.append(f"self-similarity {lhs} != {c} * {read_back[i]}")
        return errs[:3], None

    return Op("diffusion", lambda: run_cli(ctx.cli, argv), check)


def cantor_diffusion_op(ctx, rng):
    med = TriadicCantor(0, Fraction(0))
    times = set()
    while len(times) < 3:
        span = 3 ** rng.randrange(1, 5)
        times.add(Fraction(rng.randrange(1, span + 1), span))
    return diffusion_op(ctx, med, sorted(times), rng)


def gap_diffusion_op(ctx, rng, k, wrapped):
    """Densities at a gap point g, at its image o_i + r_i g in copy i, and
    in the gap before copy i (where S = S(o_i)), of a gap IFS with 2, 3 or
    4 maps (by k)."""
    med = medium([], rng, 2 + k % 3, wrap=wrapped)
    o = med.oracle
    g = rng.choice(o.gap_points(rng.randrange(1, 3)))
    i = rng.randrange(1, len(o.maps))
    oi, ri = o.maps[i]
    before = o.gap_points(1)[i - 1]
    times = [med.place(g), med.place(oi + ri * g), med.place(before)]
    return diffusion_op(ctx, med, times, rng, pairs=((0, 1, 2, ri ** o.s),))


def tabulate(ctx, rng, n_rounds=9):
    """CLI tables in process, each call building its own evaluator, so
    the kernels, the increment dispatch and CLI parsing and formatting do
    the work, and set queries and calculus stay idle."""
    gb = GBracket()
    faults = fixed_fault_ops(ctx)
    rounds = []
    for r in range(n_rounds):
        ops = []
        for k in range(2):
            ops.append(cantor_staircase_op(ctx, rng, wrapped=False))
            ops.append(cantor_staircase_op(ctx, rng, wrapped=True))
            ops.append(cantor_g_op(ctx, rng, gb))
            ops.append(cantor_diffusion_op(ctx, rng))
            ops.append(gap_diffusion_op(ctx, rng, 2 * r + k, False))
            ops.append(gap_diffusion_op(ctx, rng, 2 * r + k, True))
        ops.extend(faults)
        rounds.append(ops)
    return Built(rounds, [], ctx, trace_rounds=4)


# -- solve --------------------------------------------------------------------


def piece_span(med, rng, level):
    """[a, b] covering consecutive level-n copies, with ends in gaps or at
    the hull ends, in the set's own coordinates; with the oracle's mass
    and first moment on it."""
    o = med.oracle
    pieces = o.pieces(level)
    i = rng.randrange(0, len(pieces))
    j = rng.randrange(i, len(pieces))
    a = 0.0 if i == 0 else 0.5 * (pieces[i - 1][1] + pieces[i][0])
    b = 1.0 if j == len(pieces) - 1 else 0.5 * (pieces[j][1] + pieces[j + 1][0])
    mass, first = o.moment_on(a, b, level)
    return a, b, mass, first


def integrate_op(ctx, med, rng, which):
    a, b, mass, first = piece_span(med, rng, rng.randrange(1, 3))
    s_a = med.stair(a)
    if which == "1":
        exact, tol = mass, 1e-6
    elif which == "x":
        exact = first
        tol = rng.uniform(0.01, 0.02) * (b - a) * mass
    else:
        exact = ((s_a + mass) ** 2 - s_a ** 2) / 2.0
        tol = rng.uniform(0.03, 0.05) * mass * mass

    def call():
        fa = ctx.fa
        stair = fa.StaircaseEvaluator(med.spec, med.alpha)
        if which == "1":
            f = fa.FOnF.monotone(lambda x: 1.0)
        elif which == "x":
            f = fa.FOnF.monotone(lambda x: x)
        else:
            f = fa.FOnF.monotone(stair)
        return fa.integrate(f, stair, a, b, tol=tol)

    def check(res):
        slack = 1e-9 * (1.0 + abs(exact))
        errs = []
        if res.upper - res.lower > tol:
            errs.append(f"bracket width {res.upper - res.lower} > {tol}")
        if not res.lower - slack <= exact <= res.upper + slack:
            errs.append(f"[{res.lower}, {res.upper}] misses {exact}")
        return errs, None

    return Op(f"integrate-{which}", call, check)


def derivative_op(ctx, med, rng):
    """D S = 1 at the net points of a level-1 copy, and D S = 0 at a gap
    point; on the middle-thirds set also D S^2 = 2 S at two of the net
    points.  On a gap IFS both one-sided ladders of S^2 can settle, each
    only to within tol, and derivative then raises NoLimit on some
    inputs, so S^2 is left out there."""
    o = med.oracle
    lo, hi, _ = rng.choice(o.pieces(1))
    level = 2 if len(o.maps) > 2 else 3
    pick = (rng.random(), rng.random()) if med.cantor else ()
    gap = rng.choice(o.gap_points(2))
    tol = 1e-3

    def call():
        fa = ctx.fa
        stair = fa.StaircaseEvaluator(med.spec, med.alpha)
        pts = fa.net(med.spec, level, fa.Interval(lo, hi))
        mono = fa.FOnF.monotone(stair)
        d1 = [(x, fa.derivative(mono, stair, x, tol=tol)) for x in pts]
        sq = fa.FOnF.net_sampled(lambda x: stair(x) ** 2)
        chosen = sorted({pts[int(p * len(pts))] for p in pick})
        d2 = [(x, fa.derivative(sq, stair, x, tol=tol)) for x in chosen]
        return d1, d2, fa.derivative(mono, stair, gap, tol=tol)

    def check(out):
        d1, d2, off = out
        errs = []
        if not d1:
            errs.append("no net points")
        for x, d in d1:
            if not close(d.value, 1.0, 2 * tol) or d.side == "off":
                errs.append(f"D S({x}) = {d.value} ({d.side})")
        for x, d in d2:
            want = 2.0 * med.stair(x)
            if not close(d.value, want, 2 * tol, 2 * tol):
                errs.append(f"D S^2({x}) = {d.value}, want {want}")
        if off.value != 0.0 or off.side != "off":
            errs.append(f"D S({gap}) off F = {off.value} ({off.side})")
        return errs[:3], None

    return Op("derivative", call, check)


def flight_op(ctx, med, rng):
    """time_of_flight at tol 1e-6 through the middle-thirds medium from 0
    to a seeded x; on the unit interval at order 1 (med None) against the
    closed form.  Gap IFS media are left out: there the adaptive Simpson
    rule misses its tolerance on some inputs."""
    kappa = round(rng.uniform(0.3, 0.6), 3)
    tol = 1e-6
    if med is None:
        x = round(rng.uniform(0.2, 0.9), 4)
        exact = -math.log(1.0 - kappa * x) / kappa
    else:
        x = round(rng.uniform(0.1, 0.7), 4)

    def call():
        fa = ctx.fa
        if med is None:
            params = fa.FrictionParams(fa.FullInterval(0.0, 1.0), 1.0,
                                       v0=1.0, kappa=kappa)
        else:
            params = fa.FrictionParams(med.spec, med.alpha, v0=1.0,
                                       kappa=kappa)
        return fa.time_of_flight(params, x, tol=tol)

    def check(t):
        if med is None:
            lo = hi = exact
        else:
            lo, hi = med.oracle.flight_bracket(x, 1.0, kappa)
        if not lo - tol <= t <= hi + tol:
            return [f"T({x}) = {t} outside [{lo}, {hi}] +- {tol}"], None
        return [], None

    return Op("time_of_flight", call, check)


def residual_op(ctx, med, rng):
    """diffusion_residual at a gap point of the time set, where it is
    exactly 0.  Points of the set are left out: there the staircase
    derivative can stop with an error several times its tol (at t = 7/9 on
    the middle-thirds set, x = 0.6111, the residual is -3.7e-3)."""
    t = rng.choice(med.oracle.gap_points(2))
    x = round(rng.choice((-1, 1)) * rng.uniform(0.2, 1.5), 4)

    def call():
        fa = ctx.fa
        return fa.diffusion_residual(fa.DiffusionParams(med.spec, med.alpha),
                                     x, t)

    def check(res):
        if res != 0.0:
            return [f"residual({x}, {t}) = {res} off F"], None
        return [], None

    return Op("diffusion_residual", call, check)


def solve(ctx, rng, n_rounds=3):
    """Certified integrals, derivatives and physics calls on the
    middle-thirds set and gap IFS: set queries, the integrate heap and the
    adaptive Simpson rule do the work, and staircase values mostly hit the
    evaluator's cache."""
    rounds = []
    sets = []
    for r in range(n_rounds):
        ops = []
        # each operation on its own medium.  p50 falls among the
        # time_of_flight calls on the middle-thirds set, whose cost varies
        # least; integrate-S, the heaviest kind, holds p90
        for m in (0, 2, 3, 4) * 4:
            ops.append(residual_op(ctx, medium(sets, rng, m), rng))
        for m in (0, 0, 0, 0, 2, 3, 4):
            ops.append(integrate_op(ctx, medium(sets, rng, m), rng, "1"))
        for _ in range(12):
            ops.append(flight_op(ctx, medium(sets, rng, 0), rng))
        for m in (0, 2, 3, 4):
            ops.append(integrate_op(ctx, medium(sets, rng, m), rng, "x"))
            ops.append(derivative_op(ctx, medium(sets, rng, m), rng))
        for m in (0, 2, 3, 4) * 3:
            ops.append(integrate_op(ctx, medium(sets, rng, m), rng, "S"))
        ops.append(flight_op(ctx, None, rng))
        rounds.append(ops)
    return Built(rounds, sets, ctx, trace_rounds=1)


# -- estimate -----------------------------------------------------------------


def mass_op(ctx, med, rng, where):
    """mass on the hull or a span of copies, below, at or above the order.
    Ends at the hull are moved out by 1%: a placed hull end is off by an
    ulp, which moves the staircase by an ulp to the power alpha."""
    if rng.random() < 0.3:
        a, b = 0.0, 1.0
    else:
        a, b, _, _ = piece_span(med, rng, rng.randrange(1, 3))
    a = -0.01 if a == 0.0 else a
    b = 1.01 if b == 1.0 else b
    s = med.oracle.s
    if where == "below":
        alpha = s - rng.uniform(0.05, 0.25)
    elif where == "above":
        alpha = s + rng.uniform(0.05, min(0.25, 1.0 - s))
    ga, gb = med.place(a), med.place(b)
    want = med.stair(gb) - med.stair(ga)

    def call():
        return ctx.fa.mass(med.spec, ga, gb,
                           med.alpha if where == "at" else alpha)

    def check(est):
        errs = []
        if where == "below":
            ok = est.verdict == "diverging" and math.isinf(est.value)
        elif where == "above":
            ok = est.verdict == "converged" and est.value == 0.0
        else:
            ok = (est.verdict == "converged"
                  and close(est.value, want, 1e-9, med.tol()))
        if not ok:
            errs.append(f"mass [{ga}, {gb}] {where} order {s}: "
                        f"{est.verdict} {est.value}, oracle {want}")
        if est.upper_bound_only == med.cantor:
            errs.append(f"upper_bound_only {est.upper_bound_only}")
        return errs, None

    return Op(f"mass-{where}", call, check)


def discrete_mass_op(ctx, rng, pset):
    alpha = rng.uniform(0.05, 1.0)

    def call():
        return ctx.fa.mass(pset.spec, 0.0, 1.0, alpha)

    def check(est):
        if est.verdict != "converged" or est.value != 0.0:
            return [f"mass of a point set at {alpha}: {est.verdict} "
                    f"{est.value}"], None
        return [], None

    return Op("mass-discrete", call, check)


def numeric_stair_op(ctx, med, rng):
    x = med.place(rng.choice(med.oracle.gap_points(rng.randrange(1, 4))))
    want = med.stair(x)

    def call():
        return ctx.fa.StaircaseEvaluator(med.spec, med.alpha,
                                         mode="numeric")(x)

    def check(v):
        if not close(v, want, 1e-9, med.tol()):
            return [f"numeric S({x}) = {v}, oracle {want}"], None
        return [], None

    return Op("numeric-staircase", call, check)


def gamma_op(ctx, rng, holder, order, lo, hi):
    """gamma_dimension of holder.spec over [lo, hi]; order None stands for
    a point set, whose order is 0.  On the harmonic cluster the box
    dimension must also be near 1/2."""
    tol = round(rng.uniform(0.01, 0.04), 4)
    harmonic = isinstance(holder, PointSet) and holder.points is None

    def call():
        return ctx.fa.gamma_dimension(holder.spec, lo, hi, tol=tol,
                                      box_depth=8)

    def check(rep):
        errs = []
        if order is not None and abs(rep.gamma_dim - order) > tol:
            errs.append(f"gamma {rep.gamma_dim} vs order {order} (tol {tol})")
        if order is None and rep.gamma_dim > tol + 1e-3:
            errs.append(f"gamma {rep.gamma_dim} of a point set")
        if harmonic and abs(rep.box_dim - 0.5) > 0.05:
            errs.append(f"harmonic box dimension {rep.box_dim}")
        return errs, None

    return Op("gamma_dimension", call, check)


def finite_points(sets, rng):
    n = rng.randrange(3, 12)
    pset = PointSet(tuple(sorted({round(rng.uniform(0.0, 1.0), 6)
                                  for _ in range(n)})))
    sets.append(pset)
    return pset


def estimate(ctx, rng, n_rounds=5):
    """Mass above the order on gap IFS and on point sets (cheap verdicts);
    mass below the order on the plain middle-thirds set; mass at the
    order and numeric staircase values on gap IFS; gamma_dimension on the
    middle-thirds set, plain and wrapped, and on point sets.  Each
    operation has its own set; gap IFS have 2, 3 and 4 maps in turn and
    every other one is wrapped.  The counts put p50 among the mass-below
    calls and p90 among the gamma_dimension calls on the middle-thirds
    set.  Mass below the order and gamma_dimension leave out gap IFS and
    wrapped spans, where the ladder's verdict below the order is
    inconclusive on some inputs."""
    harmonic = PointSet()
    sets = [harmonic]
    rounds = []
    count = itertools.count()

    def gap_medium():
        k = next(count)
        return medium(sets, rng, 2 + k % 3, wrap=bool(k % 2))

    for r in range(n_rounds):
        ops = []
        for _ in range(9):
            ops.append(mass_op(ctx, gap_medium(), rng, "above"))
        for _ in range(3):
            ops.append(discrete_mass_op(ctx, rng, harmonic))
            ops.append(discrete_mass_op(ctx, rng, finite_points(sets, rng)))
        for _ in range(16):
            ops.append(mass_op(ctx, medium(sets, rng, 0), rng, "below"))
        for _ in range(4):
            ops.append(mass_op(ctx, gap_medium(), rng, "at"))
            ops.append(numeric_stair_op(ctx, gap_medium(), rng))
        ops.append(gamma_op(ctx, rng, harmonic, None, 0.0, 1.0))
        ops.append(gamma_op(ctx, rng, finite_points(sets, rng), None, 0.0, 1.0))
        for k in range(10):
            med = medium(sets, rng, 0, wrap=bool(k % 2))
            ops.append(gamma_op(ctx, rng, med, med.oracle.s,
                                med.place(0.0), med.place(1.0)))
        rounds.append(ops)
    return Built(rounds, sets, ctx, trace_rounds=2)
