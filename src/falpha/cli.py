"""Command-line front end.

Subcommands parse a set description, dispatch to the library, and emit
CSV or JSON tables.  All computation is deterministic, so identical
invocations produce byte-identical output.

``main`` may be called any number of times in one process.  The parser
is built on the first call, not at import, and reused by every later
call; nothing a call parses or fails on carries over to the next.

Set descriptions accepted by ``--set``: the shorthands ``cantor`` and
``harmonic``, inline JSON in the documented format, or ``@path`` to read
the JSON from a file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from falpha.calculus import FOnF, derivative, integrate
from falpha.cantor import ALPHA, GAMMA_ALPHA1, g_series
from falpha.dimension import gamma_dimension, similarity_order
from falpha.mass import StaircaseEvaluator, mass
from falpha.physics import (
    DiffusionParams,
    FrictionParams,
    diffusion_density,
    friction_velocity,
    time_of_flight,
)
from falpha.sets import (
    Affine,
    FullInterval,
    GapIFS,
    Interval,
    net,
    spec_from_json,
)
from falpha.verify import run_checks

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage failures exit with code 1, not 2, and
    which reads a negative number with an exponent (-1e-3) as a value,
    not as an option flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise _UsageError(message)


def _finite(text):
    """argparse type for float options: NaN and infinities are rejected,
    and argparse names the option in the message."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return x


def _fmt(x):
    """Full-precision decimal form (shortest round-trip)."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _load_set(text):
    if text == "cantor":
        obj = {"type": "cantor"}
    elif text == "harmonic":
        obj = {"type": "harmonic"}
    elif text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    else:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise _UsageError(f"cannot parse set description: {exc}")
    return spec_from_json(obj)


def _resolve_alpha(text, spec, a, b):
    if text == "auto":
        # the bisection estimate brackets the order jump but rarely lands
        # on it, and the mass is 0 or infinite off the jump; for
        # self-similar sets the exact order is available, so prefer it
        base = spec.inner if isinstance(spec, Affine) else spec
        if isinstance(base, FullInterval):
            return 1.0
        if isinstance(base, GapIFS):
            return similarity_order(base.ratios)
        return gamma_dimension(spec, a, b).gamma_dim
    try:
        alpha = float(text)
    except ValueError:
        raise _UsageError(f"--alpha must be a number or 'auto', got {text!r}")
    if not 0.0 < alpha <= 1.0:
        raise _UsageError("--alpha must lie in (0, 1]")
    return alpha


def _emit(out, fmt, columns, rows, meta=None):
    if fmt == "json":
        doc = {"columns": list(columns),
               "rows": [[r for r in row] for row in rows]}
        if meta:
            doc["meta"] = meta
        out.write(json.dumps(doc, indent=2, sort_keys=True))
        out.write("\n")
        return
    if meta:
        for key in sorted(meta):
            out.write(f"# {key} = {_fmt(meta[key])}\n")
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


_FUNCTIONS = {
    "one": lambda stair: FOnF.monotone(lambda x: 1.0),
    "x": lambda stair: FOnF.monotone(lambda x: x),
    "stair": lambda stair: FOnF.monotone(stair),
    "stair2": lambda stair: FOnF.monotone(lambda x: stair(x) ** 2),
    "stair3": lambda stair: FOnF.monotone(lambda x: stair(x) ** 3),
    "stair4": lambda stair: FOnF.monotone(lambda x: stair(x) ** 4),
}


@functools.cache
def _build_parser():
    """The argparse tree, built on the first ``main`` call and shared by
    every later one; its defaults are immutable, so no call can change
    what the next one sees."""
    top = _Parser(prog="falpha",
                  description="Mass, staircase, and calculus on fractal "
                              "subsets of the line.")
    sub = top.add_subparsers(dest="command", metavar="command")

    def common(p, alpha_default="auto"):
        p.add_argument("--set", default="cantor", dest="set_text",
                       help="set description: cantor, harmonic, inline JSON, "
                            "or @file (default: cantor)")
        p.add_argument("--alpha", default=alpha_default,
                       help=f"order in (0, 1] or 'auto' "
                            f"(default: {alpha_default})")
        p.add_argument("--range", nargs=2, type=_finite, default=(0.0, 1.0),
                       metavar=("A", "B"), help="interval endpoints "
                       "(default: 0 1)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None,
                       help="output path (default: stdout)")

    p = sub.add_parser("staircase", help="tabulate the integral staircase")
    common(p)
    p.add_argument("--samples", type=int, default=256)

    p = sub.add_parser("mass", help="delta-ladder mass estimate")
    common(p)
    p.add_argument("--depth", type=int, default=8)

    p = sub.add_parser("dimension", help="order-jump and box dimension")
    common(p)
    p.add_argument("--tol", type=_finite, default=0.02)

    p = sub.add_parser("integrate", help="staircase-weighted integral")
    common(p)
    p.add_argument("--f", choices=sorted(_FUNCTIONS), default="x")
    p.add_argument("--tol", type=_finite, default=1e-4)

    p = sub.add_parser("differentiate",
                       help="staircase-quotient derivative at net points")
    common(p)
    p.add_argument("--f", choices=sorted(_FUNCTIONS), default="stair")
    p.add_argument("--level", type=int, default=3,
                   help="net level for evaluation points (default: 3)")
    p.add_argument("--tol", type=_finite, default=1e-3)

    p = sub.add_parser("cantor-g",
                       help="closed-form first moment on the middle-thirds set")
    p.add_argument("--samples", type=int, default=27)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)

    p = sub.add_parser("diffusion", help="density table for fractal time")
    common(p)
    p.add_argument("--time", nargs="+", type=_finite, default=(1.0 / 3.0, 1.0),
                   help="evaluation times (default: 1/3 1)")
    p.add_argument("--x", nargs=3, type=_finite, default=(-2.0, 2.0, 0.25),
                   metavar=("LO", "HI", "STEP"), help="space grid")

    p = sub.add_parser("friction", help="velocity and travel-time table")
    common(p)
    p.add_argument("--v0", type=_finite, default=1.0)
    p.add_argument("--x0", type=_finite, default=0.0)
    p.add_argument("--kappa", type=_finite, default=0.5)
    p.add_argument("--samples", type=int, default=16)

    p = sub.add_parser("verify", help="run the property suite")
    p.add_argument("--fast", action="store_true",
                   help="run the quick subset only")
    p.add_argument("--output", default=None)

    return top


def _table_points(a, b, samples):
    """max(2, samples) evenly spaced points from a to exactly b; a range
    so wide that a point overflows is rejected."""
    n = max(2, samples)
    xs = [a + (b - a) * i / (n - 1) for i in range(n)]
    if not all(map(math.isfinite, xs)):
        raise _UsageError(f"range {a!r} to {b!r} is too wide: its table "
                          "points overflow")
    xs[-1] = b  # a + (b - a) need not round to b
    return xs


def _cmd_staircase(args, spec, alpha, a, b, out):
    stair = StaircaseEvaluator(spec, alpha, a0=a)
    rows = [(x, stair(x), stair.scaled(x))
            for x in _table_points(a, b, args.samples)]
    _emit(out, args.format, ("x", "staircase", "scaled_staircase"), rows,
          meta={"alpha": alpha})
    return 0


def _cmd_mass(args, spec, alpha, a, b, out):
    est = mass(spec, a, b, alpha, depth=args.depth)
    rows = [(d, v) for d, v in est.delta_trace]
    _emit(out, args.format, ("delta", "coarse_mass"), rows,
          meta={"alpha": alpha, "value": est.value, "verdict": est.verdict,
                "upper_bound_only": est.upper_bound_only})
    return 0


def _cmd_dimension(args, spec, alpha, a, b, out):
    rep = gamma_dimension(spec, a, b, tol=args.tol)
    rows = [(al, verdict) for al, verdict in rep.alpha_trace]
    _emit(out, args.format, ("alpha", "verdict"), rows,
          meta={"gamma_dim": rep.gamma_dim, "box_dim": rep.box_dim,
                "bracket_lo": rep.bracket[0], "bracket_hi": rep.bracket[1]})
    return 0


def _cmd_integrate(args, spec, alpha, a, b, out):
    stair = StaircaseEvaluator(spec, alpha, a0=a)
    f = _FUNCTIONS[args.f](stair)
    res = integrate(f, stair, a, b, tol=args.tol)
    _emit(out, args.format, ("lower", "upper", "value", "gap"),
          [(res.lower, res.upper, res.value, res.gap)],
          meta={"alpha": alpha, "f": args.f,
                "refinement_depth": res.refinement_depth})
    return 0


def _cmd_differentiate(args, spec, alpha, a, b, out):
    stair = StaircaseEvaluator(spec, alpha, a0=a)
    f = _FUNCTIONS[args.f](stair)
    rows = []
    for x in net(spec, args.level, Interval(a, b)):
        d = derivative(f, stair, x, tol=args.tol)
        rows.append((x, d.value, d.side, d.residual))
    _emit(out, args.format, ("x", "derivative", "side", "residual"), rows,
          meta={"alpha": alpha, "f": args.f})
    return 0


def _cmd_cantor_g(args, out):
    n = max(2, args.samples)
    rows = []
    for i in range(1, n + 1):
        y = i / n
        g = g_series(y)
        rows.append((y, g, g * GAMMA_ALPHA1))
    _emit(out, args.format, ("y", "g", "scaled_g"), rows,
          meta={"alpha": ALPHA, "g1": g_series(1.0)})
    return 0


def _cmd_diffusion(args, spec, alpha, a, b, out):
    params = DiffusionParams(spec, alpha)
    lo, hi, step = args.x
    if step <= 0.0:
        raise _UsageError("x grid step must be positive")
    xs, x = [], lo
    while x <= hi + 1e-12:
        if xs and x == xs[-1]:
            raise _UsageError(f"x grid step {step} does not advance past {x}")
        xs.append(x)
        x += step
    rows = []
    for t in args.time:
        s = params.stair(t)
        for x in xs:
            w = diffusion_density(params, x, t) if s > 0.0 else 0.0
            rows.append((x, t, w))
    _emit(out, args.format, ("x", "t", "density"), rows,
          meta={"alpha": alpha})
    return 0


def _cmd_friction(args, spec, alpha, a, b, out):
    params = FrictionParams(spec, alpha, v0=args.v0, x0=args.x0,
                            kappa=args.kappa)
    rows = []
    for x in _table_points(args.x0, b, args.samples):
        v = friction_velocity(params, x)
        t = time_of_flight(params, x, tol=1e-6)
        rows.append((x, v, t))
    _emit(out, args.format, ("x", "velocity", "time_of_flight"), rows,
          meta={"alpha": alpha, "v0": args.v0, "kappa": args.kappa})
    return 0


def _cmd_verify(args, out):
    results = run_checks(fast=args.fast)
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        if not r.ok:
            failed += 1
        out.write(f"{status} {r.name}: {r.detail}\n")
    out.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 0 if failed == 0 else 2


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        out = sys.stdout
        close = False
        if getattr(args, "output", None):
            out = open(args.output, "w", encoding="utf-8")
            close = True
        try:
            if args.command == "verify":
                return _cmd_verify(args, out)
            if args.command == "cantor-g":
                return _cmd_cantor_g(args, out)
            spec = _load_set(args.set_text)
            a, b = args.range
            if b < a:
                raise _UsageError("range endpoints must satisfy A <= B")
            alpha = _resolve_alpha(args.alpha, spec, a, b)
            handler = {
                "staircase": _cmd_staircase,
                "mass": _cmd_mass,
                "dimension": _cmd_dimension,
                "integrate": _cmd_integrate,
                "differentiate": _cmd_differentiate,
                "diffusion": _cmd_diffusion,
                "friction": _cmd_friction,
            }[args.command]
            return handler(args, spec, alpha, a, b, out)
        finally:
            if close:
                out.close()
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits directly for --help; keep its code for that, but
        # normalize its usage-error code to 1
        code = exc.code or 0
        return 1 if code == 2 else code
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
