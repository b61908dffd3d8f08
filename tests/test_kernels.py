"""Kernels: the measure record against a one-pass build, the staircase
descent against the exact middle-thirds descent at triadic rationals,
special values, monotonicity, the first-moment descent against an exact
rational descent, the column sweeps against the per-point descents, the reported backend name, the imports of the exact
oracle, and the calculus's independence of the staircase evaluator's
module."""

import ast
import importlib
import importlib.util
import inspect
import pathlib
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import falpha
from falpha import _backend, calculus, sets
from falpha.mass import StaircaseEvaluator
from falpha.dimension import similarity_order
from falpha.sets import (FinitePoints, FullInterval, GapIFS, HarmonicCluster,
                         TernaryCantor, slack)
import exact
from test_sets import C, _WRAPS, _gap_ifs, _stair_points, _wrap


def test_cantor_scaled_exact_at_triadic_rationals():
    for n in range(9):
        den = 3 ** n
        for k in range(den + 1):
            want = float(exact.cantor(Fraction(k, den)))
            assert _backend.cantor_scaled(k / den) == want, (k, n)


def test_cantor_scaled_special_values():
    f = _backend.cantor_scaled
    assert f(0.0) == 0.0
    assert f(1.0) == 1.0
    assert f(1.0 / 3.0) == 0.5
    assert f(0.5) == 0.5
    assert f(2.0 / 3.0) == 0.5
    assert f(1.0 / 9.0) == 0.25
    assert f(-1.0) == 0.0
    assert f(2.0) == 1.0
    # one ulp below 1 still transcribes to (almost) 1
    assert abs(f(1.0 - 1e-16) - 1.0) < 1e-12


def test_cantor_scaled_monotone():
    f = _backend.cantor_scaled
    prev = 0.0
    for i in range(2001):
        v = f(i / 2000)
        assert v >= prev
        prev = v


def test_g_series_scaled_values():
    g = _backend.g_series_scaled
    assert g(0.0) == 0.0
    assert abs(g(1.0) - 0.5) < 1e-15
    # scaling: the scaled series divides by 6 under y -> y/3
    for m in range(1, 6):
        assert abs(g(3.0 ** -m) - 0.5 / 6.0 ** m) < 1e-15


def test_middle_thirds_record():
    rec = _backend.measure(TernaryCantor(), falpha.ALPHA)
    assert tuple(p for *_, p in rec.table) == (0.5, 0.5)
    assert rec.mean == 0.5
    # the weights sum to 1 exactly, and (1/3)^alpha is 1/2: at the order
    assert sum(p for *_, p in rec.table) == 1.0
    assert sum(r ** falpha.ALPHA for r in TernaryCantor().ratios) == 1.0
    assert rec.side == 0
    assert _backend._CANTOR == rec


def _one_pass_record(spec, alpha):
    """The measure record of spec at alpha built in one pass from the
    spec alone: the frame composed from the wrapper and the interval's
    ends, the table from the unwrapped set or from fresh unit halves."""
    base, lam, t = exact.unwrap(spec)
    if isinstance(base, FullInterval):
        lam, t = lam * (base.hi - base.lo), t + lam * base.lo
        base = GapIFS((0.5, 0.5), (0.0, 0.5))
    if not isinstance(base, GapIFS):
        return None
    ps = [r ** alpha for r in base.ratios]
    total = sum(ps)
    h0, h1 = base.hull()
    # one row (offset, ratio, span start, span end, weight) per copy
    table = tuple((o, r, o + r * h0, o + r * h1, p / total)
                  for o, r, p in zip(base.offsets, base.ratios, ps))
    stair_mean = 1.0 - (
        sum(w * ((s0 - h0) / (h1 - h0)) for _, _, s0, _, w in table)
        / (1.0 - sum(w * r for _, r, _, _, w in table)))
    far = max(abs(t + lam * h0), abs(t + lam * h1))
    return _backend.Measure(
        lam, t, (h0, h1), table, 1.0 - stair_mean, slack(far, lam) / lam,
        _backend.side_of_order(total))


_BASES = st.one_of(
    _gap_ifs(), st.just(C), st.builds(TernaryCantor),
    st.builds(lambda lo, w: FullInterval(lo, lo + w),
              st.floats(-3.0, 3.0), st.floats(0.01, 5.0)),
    st.builds(lambda w: FullInterval(0.0, w), st.floats(1e-20, 1e-3)),
    st.just(FinitePoints((0.1, 0.5, 0.7))), st.just(HarmonicCluster()))


@settings(max_examples=200, deadline=None)
@given(base=_BASES, wraps=_WRAPS,
       alpha=st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
def test_record_is_the_one_pass_build(base, wraps, alpha):
    # an interval is the unit halves framed by its ends, at every order
    spec, _, _ = _wrap(base, wraps)
    assert repr(_backend.measure(spec, alpha)) == repr(
        _one_pass_record(spec, alpha))


def test_g_series_scaled_just_right_of_two_thirds():
    # a digit scan that snaps residuals within 1e-9 of a digit boundary
    # reads 2/3 here and returns 1/12
    got = _backend.g_series_scaled(2.0 / 3.0 + 3e-10)
    assert abs(got - 0.08333396911621108) <= 1e-15


# 1 + C/64 at its point 1 + 1/256, where the moment errs by 2.47e-9
@example(data=None, base=C,
         wraps=[("scale", 0.25)] * 3 + [("translate", 1.0)])
@settings(max_examples=100, deadline=None)
@given(data=st.data(), base=st.one_of(st.just(C), _gap_ifs()), wraps=_WRAPS)
def test_moment_matches_an_exact_descent(data, base, wraps):
    spec, _, _ = _wrap(base, wraps)
    _, lam, t = exact.unwrap(spec)
    alpha = similarity_order(base.ratios)
    rec = _backend.measure(spec, alpha)
    h0, h1 = spec.hull()
    b0, b1 = base.hull()
    # The moment's descent is the staircase's, and misplaces at most the
    # mass that the staircase's bound allows.  That bound, 2 (1e-13
    # lam)^alpha, is in units of S = w share with w = (lam (b1 - b0))^alpha;
    # the moment is of the normalised measure, which carries no w, so the
    # mass it may misplace is 2 (1e-13 / (b1 - b0))^alpha, with no lam.
    # Each unit of that mass is weighed by |y| <= max(|h0|, |h1|).
    bound = 2.0 * (1e-13 / (b1 - b0)) ** alpha * max(abs(h0), abs(h1))
    xs = ([1.00390625] if data is None
          else data.draw(_stair_points(base, lam, t)))
    for x in xs:
        want = exact.walk(spec, alpha, x)[1]
        assert abs(_backend.moment_scaled(rec, x) - want) <= bound, x


@st.composite
def _column(draw, base, lam, t, rec):
    """A column to sweep on t + lam * base: ``_stair_points``, points
    within the slack of the hull ends, -0.0 and 0.0, and repeats, sorted
    or in the order drawn."""
    xs = draw(_stair_points(base, lam, t))
    near = st.sampled_from((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0))
    for h in draw(st.lists(st.sampled_from(rec.hull), max_size=4)):
        xs.append(rec.shift + rec.scale * (h + draw(near) * rec.eps))
    xs += draw(st.lists(st.sampled_from((-0.0, 0.0)), max_size=2))
    if xs:
        xs += draw(st.lists(st.sampled_from(xs), max_size=6))
    xs = draw(st.permutations(xs))
    return sorted(xs) if draw(st.booleans()) else xs


@example(data=None, base=C, wraps=[("scale", 3.0), ("translate", -1.0)],
         far=None)
@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       base=st.one_of(st.just(C), st.just(_backend._HALVES), _gap_ifs()),
       wraps=_WRAPS, far=st.one_of(st.none(), st.integers(-30, 60)))
def test_the_sweeps_are_the_per_point_descents_bit_for_bit(data, base, wraps,
                                                           far):
    # the per-point descents are the reference: each sweep makes their
    # float operations on the same operands, so the same bits, for the
    # set of 2-4 maps, wrapped, and as Scale(F, 2^k) far from 0 too
    if far is not None:
        wraps = wraps + [("scale", 2.0 ** far)]
    spec, lam, t = _wrap(base, wraps)
    rec = _backend.measure(spec, similarity_order(base.ratios))
    xs = ([-1.0 + 3.0 * i / 40 for i in range(41)] if data is None
          else data.draw(_column(base, lam, t, rec)))
    local = [(x - rec.shift) / rec.scale for x in xs]
    want = [_backend.stair_scaled(rec.hull, rec.table, rec.eps, x)
            for x in local]
    got = _backend.stair_column(rec.hull, rec.table, rec.eps, local)
    assert list(map(repr, got)) == list(map(repr, want))
    want = [_backend.moment_scaled(rec, x) for x in xs]
    got = _backend.moment_column(rec, xs)
    assert list(map(repr, got)) == list(map(repr, want))


def test_kernel_backend_is_python():
    assert falpha.kernel_backend == _backend.BACKEND == "python"


def _imports(module):
    """The dotted names that the source of ``module`` imports: each module,
    and each name taken from one as module.name."""
    path = module.__file__
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append(node.module or "")
            found += [f"{node.module}.{alias.name}" for alias in node.names]
    return found


def test_the_exact_oracle_imports_neither_falpha_nor_a_test_module():
    # tests/exact.py is what the float code is checked against, so it must
    # not compute with falpha, and it imports no test module, so no import
    # cycle forms
    bad = [name for name in _imports(exact)
           if name.split(".")[0] == "falpha"
           or name.split(".")[0].startswith("test_")]
    assert not bad, f"{exact.__file__} imports {bad}"


def test_the_calculus_imports_nothing_from_mass():
    # the calculus reads S through the evaluator it is given, and walks
    # the halves of [S(a), S(b)] itself: it needs no evaluator of its own
    bad = [name for name in _imports(calculus)
           if name == "falpha.mass" or name.startswith("falpha.mass.")]
    assert not bad, f"{calculus.__file__} imports {bad}"


def _tracing():
    """The benchmark's tracer module, ``perfbench/tracing.py``."""
    path = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
            / "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapper_reads(path):
    """Where the source at ``path`` names ``Affine`` (an import, a name or
    an attribute) or reads an attribute ``inner``, as file:line name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name.split(".")[-1] for a in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr, "." + node.attr]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {n}" for n in names
                  if n in ("Affine", ".inner")]
    return found


def test_only_sets_knows_how_a_wrapper_is_stored():
    # every other module reads a wrapped set through sets.unwrap; the
    # package's __init__ only re-exports Affine
    root = pathlib.Path(falpha.__file__).parent
    bad = [hit for path in sorted(root.glob("*.py"))
           if path.name not in ("sets.py", "__init__.py")
           for hit in _wrapper_reads(path)]
    assert not bad, bad
    init = _wrapper_reads(root / "__init__.py")
    assert len(init) == 1 and init[0].endswith(" Affine"), init


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # the traced benchmark wraps these by name: a refactor that renames,
    # moves or reshapes one would blind a layer without failing a run
    tracing = _tracing()
    for modname, owner, attr, _ in tracing.SPANS:
        module = importlib.import_module(modname)
        found = (getattr(module, attr, None) if owner is None
                 else getattr(module, owner).__dict__.get(attr))
        assert callable(found), (modname, owner, attr)
    specs = [c for c in vars(sets).values() if isinstance(c, type)
             and issubclass(c, sets.SetSpec) and c is not sets.SetSpec]
    for attr, _ in tracing.SET_METHODS:
        assert any(attr in c.__dict__ for c in specs), attr
    # the counters of S values, of f's evaluations and of sup_inf_on's
    # windows, which it calls with a fourth positional argument
    assert callable(StaircaseEvaluator.__dict__["value"])
    assert callable(calculus.FOnF.__dict__["__call__"])
    assert calculus._children is sets._children
    inspect.signature(calculus.sup_inf_on).bind(None, None, None, 10)


def test_the_benchmark_tracer_counts_the_calculus_layers():
    importlib.import_module("falpha.cli")  # the tracer wraps its main
    tracer = _tracing().Tracer()
    stair = StaircaseEvaluator(C, similarity_order(C.ratios))
    f = calculus.FOnF.monotone(lambda x: x)
    tracer.install()
    try:
        calculus.integrate(f, stair, 0.1, 0.9, tol=1e-3)
        calculus.derivative(calculus.FOnF.monotone(stair), stair, 0.25)
        got = tracer.snapshot()
    finally:
        tracer.remove()
    assert got["calculus.integrate.calls"] == 1
    assert got["calculus.derivative.calls"] == 1
    assert got["calculus.sup_inf_on.calls"] >= 1
    assert got["calculus.f_evals"] > 10
    assert got["mass.stair.calls"] > 0 and got["sets.isect.calls"] > 0
    assert calculus.integrate.__module__ == "falpha.calculus"
    assert not hasattr(calculus.integrate, "__wrapped__")
