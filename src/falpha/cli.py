"""Command-line front end.

Subcommands parse a set description, dispatch to the library, and emit
CSV or JSON tables.  All computation is deterministic, so identical
invocations produce byte-identical output.  One writer lays out both
formats from cell texts, made a list of values at a time: ``str`` for
CSV, json's C encoder for JSON.  A JSON table has the bytes of
``json.dumps(doc, indent=2, sort_keys=True)``; both formats write floats
in shortest round-trip form.  The staircase and g are flat on every gap,
so a ``staircase`` or ``cantor-g`` table computes its value column in one
sorted sweep down the copies, which the points of a copy share, and
writes each plateau value's text once.
No table has more than ``_MAX_ROWS`` rows: a larger one is refused, with
exit code 1, before its values are computed.

``main`` may be called any number of times in one process.  The parser
is built on the first call, not at import, and reused by every later
call; nothing a call parses or fails on carries over to the next.  An
argv that starts with a subcommand's name is parsed once, by that
subcommand's parser, as the top parser would hand it on.

Set descriptions accepted by ``--set``: the shorthands ``cantor`` and
``harmonic``, inline JSON in the documented format, or ``@path`` to read
the JSON from a file.
"""

import argparse
import functools
import io
import itertools
import json
import math
import os
import re
import sys

from falpha.calculus import FOnF, derivative, integrate
from falpha.cantor import ALPHA, GAMMA_ALPHA1, _g_column, g_series
from falpha.dimension import _order, gamma_dimension
from falpha.mass import StaircaseEvaluator, coarse_mass, gamma_factor, mass
from falpha.physics import (
    DiffusionParams,
    FrictionParams,
    friction_velocity,
    time_of_flight,
)
from falpha.sets import Interval, net, slack, spec_from_json

__all__ = ["main"]

# the most rows a table may have: a larger one is refused before it is built
_MAX_ROWS = 10 ** 6

# between two cells of a JSON row, as json.dumps(doc, indent=2) lays it out
_CELL_SEP = ",\n      "
# encodes a list of values in one call; see _texts
_ROW_ENCODER = json.JSONEncoder(separators=(_CELL_SEP, ": "))
# encodes the columns list or the meta object of a JSON table's head, whose
# items json.dumps(doc, indent=2, sort_keys=True) lays out one a line
_HEAD_ENCODER = json.JSONEncoder(separators=(",\n    ", ": "),
                                 sort_keys=True)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage failures exit with code 1, not 2, and
    which reads a negative number with an exponent (-1e-3), and -inf,
    -infinity and -nan in any case, as a value, not as an option flag:
    ``_finite`` then refuses the last three by name.  argparse reads the
    matcher through ``.match``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf(inity)?|nan)$",
            re.IGNORECASE)

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


def _resolve_alpha(text, spec):
    if text == "auto":
        # the set's order: off it the mass is 0 or infinite
        return _order(spec)
    try:
        alpha = float(text)
    except ValueError:
        raise _UsageError(f"--alpha must be a number or 'auto', got {text!r}")
    if not 0.0 < alpha <= 1.0:
        raise _UsageError("--alpha must lie in (0, 1]")
    return alpha


def _texts(fmt, values):
    """The cell texts of a list of values, in one C-level call: ``str``
    for CSV (a float's shortest round-trip form), and for JSON the row
    encoder, which writes no indent, so json runs its C encoder.  Its
    item separator carries a newline, and JSON escapes every newline
    inside a string, so splitting on it gives the items, and no cell's
    text is empty."""
    if fmt == "csv":
        return list(map(str, values))
    if not values:
        return []
    return _ROW_ENCODER.encode(values)[1:-1].split(_CELL_SEP)


def _plateau_texts(fmt, values, factor):
    """The ``_texts`` of a column of floats that is constant on runs, and
    of the column times ``factor``: each distinct value, and its product,
    becomes text once, and each row looks its texts up.  0.0 and -0.0 are
    one key, so a column with two zeros and a value of negative sign,
    which may hold both, is written whole."""
    if (values.count(0.0) > 1
            and min(map(math.copysign, itertools.repeat(1.0), values)) < 0.0):
        return (_texts(fmt, values),
                _texts(fmt, [v * factor for v in values]))
    keys = list(dict.fromkeys(values))
    texts = dict(zip(keys, _texts(fmt, keys)))
    products = dict(zip(keys, _texts(fmt, [k * factor for k in keys])))
    return (list(map(texts.__getitem__, values)),
            list(map(products.__getitem__, values)))


def _head_item(value):
    """The columns list or the meta object of a JSON table's head, laid
    out as ``json.dumps(head, indent=2, sort_keys=True)`` lays it out: the
    C encoder writes the items, and each bracket of a nonempty one takes
    a line of its own."""
    text = _HEAD_ENCODER.encode(value)
    if len(text) == 2:
        return text  # [] or {}
    return f"{text[0]}\n    {text[1:-1]}\n  {text[-1]}"


def _write(out, fmt, columns, rows, meta):
    """Lay out a table from the cell texts of its rows: JSON with the
    bytes of ``json.dumps(doc, indent=2, sort_keys=True)`` for doc =
    {"columns", "rows"[, "meta"]}, or CSV with ``# key = value`` meta
    lines, a header and one line per row."""
    if fmt == "json":
        text = '{\n  "columns": ' + _head_item(list(columns))
        if meta:
            text += ',\n  "meta": ' + _head_item(meta)
        # "rows" sorts after "columns" and "meta": it closes the document
        inner = list(map(_CELL_SEP.join, rows))
        body = ("[\n    [\n      " + "\n    ],\n    [\n      ".join(inner)
                + "\n    ]\n  ]") if inner else "[]"
        if not all(inner):
            # only an empty row joins to "", since no cell's text is empty
            body = body.replace("[\n      \n    ]", "[]")
        out.write(f'{text},\n  "rows": {body}\n}}\n')
        return
    lines = [f"# {key} = {meta[key]}" for key in sorted(meta or ())]
    lines.append(",".join(columns))
    lines.extend(map(",".join, rows))
    out.write("\n".join(lines) + "\n")


def _emit(out, fmt, columns, rows, meta=None):
    """Write a table of rows of values with ``_write``.  When every row
    has the same k > 0 cells, as in every command's table, all the cells
    become texts in one ``_texts`` call and are regrouped k at a time."""
    widths = set(map(len, rows))
    if len(widths) == 1 and (k := widths.pop()):
        cells = iter(_texts(fmt, list(itertools.chain.from_iterable(rows))))
        rows = zip(*[cells] * k)
    else:
        rows = [_texts(fmt, row) for row in rows]
    _write(out, fmt, columns, rows, meta)


_FUNCTIONS = {
    "one": lambda stair: FOnF.monotone(lambda x: 1.0),
    "x": lambda stair: FOnF.monotone(lambda x: x),
    "stair": lambda stair: FOnF.monotone(stair),
    # S >= 0 from the origin a0 = A on, where u^n is convex and
    # nondecreasing: integrate prices these by substitution
    "stair2": lambda stair: FOnF.of_stair(lambda u: u ** 2, stair),
    "stair3": lambda stair: FOnF.of_stair(lambda u: u ** 3, stair),
    "stair4": lambda stair: FOnF.of_stair(lambda u: u ** 4, stair),
}


@functools.cache
def _build_parser():
    """(top parser, {subcommand: its parser}): the argparse tree, built on
    the first ``main`` call and shared by every later one; its defaults
    are immutable, so no call can change what the next one sees."""
    top = _Parser(prog="falpha",
                  description="Mass, staircase, and calculus on fractal "
                              "subsets of the line.")
    sub = top.add_subparsers(dest="command", metavar="command")

    def common(p, ranged=True):
        p.add_argument("--set", default="cantor", dest="set_text",
                       help="set description: cantor, harmonic, inline JSON, "
                            "or @file (default: cantor)")
        p.add_argument("--alpha", default="auto",
                       help="order in (0, 1] or 'auto' (default: auto)")
        if ranged:
            p.add_argument("--range", nargs=2, type=_finite,
                           default=(0.0, 1.0), metavar=("A", "B"),
                           help="interval endpoints (default: 0 1)")
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
    common(p, ranged=False)
    p.add_argument("--time", nargs="+", type=_finite, default=(1.0 / 3.0, 1.0),
                   help="evaluation times (default: 1/3 1)")
    p.add_argument("--x", nargs=3, type=_finite, default=(-2.0, 2.0, 0.25),
                   metavar=("LO", "HI", "STEP"), help="space grid")

    p = sub.add_parser("friction", help="velocity and flight time from A")
    common(p)
    p.add_argument("--v0", type=_finite, default=1.0)
    p.add_argument("--kappa", type=_finite, default=0.5)
    p.add_argument("--samples", type=int, default=16)

    p = sub.add_parser("verify", help="run the property suite")
    p.add_argument("--fast", action="store_true",
                   help="run the quick subset only")
    p.add_argument("--output", default=None)

    return top, sub.choices


def _check_rows(rows):
    if rows > _MAX_ROWS:
        # an int count reads as it is; the diffusion grid's float estimate,
        # perhaps inf, in 3 digits from 10 times the cap on, else rounded up
        if isinstance(rows, float):
            rows = f"{rows:.3g}" if rows >= 10 * _MAX_ROWS else math.ceil(rows)
        raise _UsageError(f"a table of {rows} rows is more than the "
                          f"{_MAX_ROWS} allowed")


def _check_output(path):
    """Refuse, before the run and creating nothing, an ``--output`` path
    that is a directory or whose directory is missing or not writable."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(parent, os.W_OK | os.X_OK):
        raise _UsageError(f"--output {path!r} is not a file in a writable "
                          "directory")


def _table_points(a, b, n):
    """n >= 2 evenly spaced points from a to exactly b; a range so wide
    that a point overflows is rejected."""
    _check_rows(n)
    xs = [a + (b - a) * i / (n - 1) for i in range(n)]
    if not all(map(math.isfinite, xs)):
        raise _UsageError(f"range {a!r} to {b!r} is too wide: its table "
                          "points overflow")
    xs[-1] = b  # a + (b - a) need not round to b
    return xs


def _cmd_staircase(args, spec, alpha, a, b, out):
    stair = StaircaseEvaluator(spec, alpha, a0=a)
    xs = _table_points(a, b, args.samples)
    # S is flat on every gap: each plateau's value becomes text once
    fmt = args.format
    cells, scaled = _plateau_texts(fmt, stair.values(xs), gamma_factor(alpha))
    _write(out, fmt, ("x", "staircase", "scaled_staircase"),
           zip(_texts(fmt, xs), cells, scaled), {"alpha": alpha})
    return 0


def _cmd_mass(args, spec, alpha, a, b, out):
    base = (b - a) if b > a else 1.0
    if base == math.inf:
        raise _UsageError(f"range {a!r} to {b!r} is too wide: its width "
                          "overflows")
    floor = slack(max(abs(a), abs(b)))
    if args.depth < 1 or base * 3.0 ** -args.depth < floor:
        raise _UsageError(f"--depth {args.depth} must be at least 1 and "
                          f"keep (B - A)/3^depth at least {floor!r}")
    est = mass(spec, a, b, alpha)
    ladder = [base / 3.0 ** k for k in range(1, args.depth + 1)]
    # monotone in delta against float jitter
    rows = list(zip(ladder, itertools.accumulate(
        (coarse_mass(spec, a, b, alpha, d) for d in ladder), max)))
    _emit(out, args.format, ("delta", "coarse_mass"), rows,
          meta={"alpha": alpha, "value": est.value, "verdict": est.verdict,
                "upper_bound_only": est.upper_bound_only})
    return 0


def _cmd_dimension(args, spec, alpha, a, b, out):
    rep = gamma_dimension(spec, a, b)
    _emit(out, args.format, ("alpha", "verdict"), rep.alpha_trace,
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
    for x in net(spec, args.level, Interval(a, b), limit=_MAX_ROWS):
        d = derivative(f, stair, x, tol=args.tol)
        rows.append((x, d.value, d.side, d.residual))
    _emit(out, args.format, ("x", "derivative", "side", "residual"), rows,
          meta={"alpha": alpha, "f": args.f})
    return 0


def _cmd_cantor_g(args, out):
    _check_rows(n := args.samples)
    ys = [i / n for i in range(1, n + 1)]
    # g is flat where the staircase is: each plateau's value becomes text once
    fmt = args.format
    cells, scaled = _plateau_texts(fmt, _g_column(ys), GAMMA_ALPHA1)
    _write(out, fmt, ("y", "g", "scaled_g"),
           zip(_texts(fmt, ys), cells, scaled),
           {"alpha": ALPHA, "g1": g_series(1.0)})
    return 0


def _cmd_diffusion(args, spec, alpha, a, b, out):
    params = DiffusionParams(spec, alpha)
    lo, hi, step = args.x
    if step <= 0.0:
        raise _UsageError("x grid step must be positive")
    # a step lost to rounding at lo is named before the grid's size
    if lo + step == lo:
        raise _UsageError(f"x grid step {step} does not advance past {lo}")
    # a grid far past the cap is refused on its float size, unbuilt; any
    # other is counted as the loop makes it
    rows = len(args.time) * ((hi - lo) / step + 1.0)
    if rows > 2 * _MAX_ROWS:
        _check_rows(rows)
    xs, x = [], lo
    while x <= hi + 1e-12:
        if xs and x == xs[-1]:
            raise _UsageError(f"x grid step {step} does not advance past {x}")
        xs.append(x)
        x += step
    _check_rows(len(args.time) * len(xs))
    # each x and each time becomes text once: a time's rows share its
    # text, and each time's block shares the texts of the x grid
    fmt = args.format
    x_cells = _texts(fmt, xs)
    blocks = []
    for t in args.time:
        s = params.stair(t)
        if s > 0.0:
            # physics._gaussian with 2s and sqrt(2 pi s) hoisted: the
            # same operations on the same values, so the same bits
            two_s, root = 2.0 * s, math.sqrt(2.0 * math.pi * s)
            cells = _texts(fmt, [math.exp(-x * x / two_s) / root for x in xs])
        else:
            cells = itertools.repeat(_texts(fmt, [0.0])[0])
        blocks.append(zip(x_cells, itertools.repeat(_texts(fmt, [t])[0]),
                          cells))
    _write(out, fmt, ("x", "t", "density"),
           itertools.chain.from_iterable(blocks), {"alpha": alpha})
    return 0


def _cmd_friction(args, spec, alpha, a, b, out):
    params = FrictionParams(spec, alpha, v0=args.v0, x0=a, kappa=args.kappa)
    rows = []
    for x in _table_points(a, b, args.samples):
        v = friction_velocity(params, x)
        t = time_of_flight(params, x, tol=1e-6)
        rows.append((x, v, t))
    _emit(out, args.format, ("x", "velocity", "time_of_flight"), rows,
          meta={"alpha": alpha, "v0": args.v0, "kappa": args.kappa})
    return 0


def _cmd_verify(args, out):
    # the checks load here, not at import: no other subcommand needs them
    from falpha.verify import run_checks

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
    top, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        # a subcommand's parser reads its own argv, as the top parser
        # would hand it on: argv is scanned once, not twice
        parser = commands.get(argv[0]) if argv else None
        if parser is None:
            args = top.parse_args(argv)
        else:
            args = parser.parse_args(argv[1:])
            args.command = argv[0]
        if args.command is None:
            raise _UsageError("a subcommand is required")
        if getattr(args, "samples", 2) < 2:  # a table holds both ends
            raise _UsageError(f"--samples {args.samples} must be at least 2")
        # a file takes only the finished text: a run that fails leaves it
        path = getattr(args, "output", None)
        if path:
            _check_output(path)
        out = io.StringIO() if path else sys.stdout
        if args.command == "verify":
            code = _cmd_verify(args, out)
        elif args.command == "cantor-g":
            code = _cmd_cantor_g(args, out)
        else:
            spec = _load_set(args.set_text)
            a, b = getattr(args, "range", (0.0, 0.0))  # diffusion has none
            if b < a:
                raise _UsageError("range endpoints must satisfy A <= B")
            alpha = _resolve_alpha(args.alpha, spec)
            handler = {
                "staircase": _cmd_staircase,
                "mass": _cmd_mass,
                "dimension": _cmd_dimension,
                "integrate": _cmd_integrate,
                "differentiate": _cmd_differentiate,
                "diffusion": _cmd_diffusion,
                "friction": _cmd_friction,
            }[args.command]
            code = handler(args, spec, alpha, a, b, out)
        if path:
            with open(path, "w", encoding="utf-8") as f:
                f.write(out.getvalue())
        return code
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
