"""Kernels: the measure record against a one-pass build, the staircase
descent against the exact middle-thirds descent at triadic rationals,
special values, monotonicity, the first-moment descent against an exact
rational descent, the staircase's rise against exact sums over the
descents' branches, the column sweeps against the per-point descents, the
descents' pinned bits, the reported backend name, the imports of the
exact oracle, the calculus's independence of the staircase evaluator's
module, a cap on every memo, the names the benchmark reads, and a reader
for every name the package exports."""

import ast
import hashlib
import importlib
import importlib.util
import inspect
import pathlib
import re
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import falpha
from falpha import _backend, calculus, sets
from falpha.mass import StaircaseEvaluator
from falpha.dimension import similarity_order
from falpha.sets import (FinitePoints, FullInterval, GapIFS, HarmonicCluster,
                         TernaryCantor, slack)
import exact
from test_sets import (ASYM, C, _WRAPS, _gap_ifs, _rise_spans,
                       _stair_points, _thin_ifs, _wrap)


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
    assert _backend._mean(rec.table, rec.hull) == 0.5
    # the weights sum to 1 exactly, and (1/3)^alpha is 1/2: at the order
    assert sum(p for *_, p in rec.table) == 1.0
    assert sum(r ** falpha.ALPHA for r in TernaryCantor().ratios) == 1.0
    assert rec.side == 0
    assert _backend._CANTOR == rec


def _one_pass_record(spec, alpha):
    """(record, mean): the measure record of spec at alpha built in one
    pass from the spec alone, the frame composed from the wrapper and the
    interval's ends, the table from the unwrapped set or from fresh unit
    halves; and the mean share of its measure, which the record does not
    keep.  (None, None) for a set with no record."""
    base, lam, t = exact.unwrap(spec)
    if isinstance(base, FullInterval):
        lam, t = lam * (base.hi - base.lo), t + lam * base.lo
        base = GapIFS((0.5, 0.5), (0.0, 0.5))
    if not isinstance(base, GapIFS):
        return None, None
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
        lam, t, (h0, h1), table, slack(far, lam) / lam,
        _backend.side_of_order(total)), 1.0 - stair_mean


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
    rec = _backend.measure(spec, alpha)
    want, mean = _one_pass_record(spec, alpha)
    assert repr(rec) == repr(want)
    if rec is not None:
        assert repr(_backend._mean(rec.table, rec.hull)) == repr(mean)


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


# a span 6 slacks wide, from the gap left of a copy 0.6^54 0.3 long deep
# in a set with a copy of ratio 1e-4, to past that copy's first copy: the
# float sums of the set's own table read no rise
_THIN = GapIFS((1e-4, 0.6, 0.3), (0.0, 0.05, 0.7))
_THIN_SPAN = (0.7374999999999816, 0.7374999999999878)


@example(data=None, base=_THIN, wraps=[])
@settings(max_examples=300, deadline=None)
@given(data=st.data(), base=st.one_of(st.just(C), _gap_ifs(), _thin_ifs()),
       wraps=_WRAPS)
def test_the_rise_is_that_of_exact_sums_over_the_descents(data, base, wraps):
    # stair_rises reads no weight: at every order, on the set's own
    # ratios and on equal weights, it is the rise of the exact sums over
    # the branches that the float descents take
    spec, lam, t = _wrap(base, wraps)
    order = similarity_order(base.ratios)
    rec = _backend.measure(spec, order)
    x, y = (_THIN_SPAN if data is None else
            data.draw(_rise_spans(base, lam, t, rec.eps)))
    x, y = ((v - rec.shift) / rec.scale for v in (x, y))
    tables = [rec.table, base._table, [(*row[:4], 1.0) for row in rec.table]]
    tables += [_backend.measure(spec, alpha).table
               for alpha in (0.3 * order, min(1.0, 1.5 * order))]
    for table in tables:
        ps = [p for *_, p in table]
        want = (exact.branch_stair(rec.hull, table, rec.eps, y, ps)
                > exact.branch_stair(rec.hull, table, rec.eps, x, ps))
        got = _backend.stair_rises(rec.hull, table, rec.eps, x, y)
        assert got == want, (x, y, ps)
    if data is None:
        # the float sums on the set's own table drop the copy
        stair = [_backend.stair_scaled(rec.hull, base._table, rec.eps, v)
                 for v in (x, y)]
        assert want and stair[0] == stair[1]


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
    # the lean per-point loop is the one descent in the frame (1, 0)
    got = [_backend._descend(rec.hull, rec.table, 0.0, x, 0.0, 1.0, rec.eps,
                             1.0, 0.0) for x in local]
    assert list(map(repr, got)) == list(map(repr, want))
    want = [_backend.moment_scaled(rec, x) for x in xs]
    got = _backend.moment_column(rec, xs)
    assert list(map(repr, got)) == list(map(repr, want))


# sha256 of the repr of each kernel's outputs on _descent_inputs: the
# test above holds the sweeps to the per-point descents, and this one
# holds both to fixed bits, so a drift that they share still shows.  A
# change that moves a value on purpose updates the digest and says why.
_DESCENT_DIGESTS = {
    "stair_scaled":
        "789577fd27ef4585a33e3bd5e417f82dbff7885755aea87ac00193177c1609bc",
    "moment_scaled":
        "b7ec7b60231d2ed28ab126cf4876ce6b14744bf479fe292153f20158995a9f2f",
    "stair_column":
        "a382a23bdc1e5599c6ab10adb9c77fac379c83279584f086ea8551ff378a37ce",
    "moment_column":
        "3f907e1636397a6d3b354e80616573b4d917f37fb69cb22b048375fa21257e2b",
}


def _descent_inputs():
    """(record, sorted points) for C, {0.4, 0.25}, a 3-map set and the
    unit halves, each plain, as 3 F + 2/9 and scaled by 2^-40: a grid
    past both hull ends, the level-6 piece ends, and points within the
    slack of the hull ends."""
    bases = (C, ASYM, GapIFS((0.2, 0.3, 0.25), (0.0, 0.35, 0.75)),
             _backend._HALVES)
    for base in bases:
        alpha = similarity_order(base.ratios)
        for spec in (base, sets.Affine(base, 3.0, 2.0 / 9.0),
                     sets.Scale(base, 2.0 ** -40)):
            rec = _backend.measure(spec, alpha)
            h0, h1 = spec.hull()
            xs = [h0 + (h1 - h0) * i / 16 for i in range(-8, 25)]
            xs += sets.net(spec, 6, sets.Interval(h0, h1))
            xs += [rec.shift + rec.scale * (h + k * rec.eps)
                   for h in rec.hull
                   for k in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]
            yield rec, sorted(xs)


def test_the_descents_keep_their_pinned_bits():
    out = {name: [] for name in _DESCENT_DIGESTS}
    for rec, xs in _descent_inputs():
        for col in (xs, xs[1::2] + xs[::-2]):  # sorted, then not
            local = [(x - rec.shift) / rec.scale for x in col]
            out["stair_column"] += _backend.stair_column(
                rec.hull, rec.table, rec.eps, local)
            out["moment_column"] += _backend.moment_column(rec, col)
        out["stair_scaled"] += [
            _backend.stair_scaled(rec.hull, rec.table, rec.eps,
                                  (x - rec.shift) / rec.scale) for x in xs]
        out["moment_scaled"] += [_backend.moment_scaled(rec, x) for x in xs]
    got = {name: hashlib.sha256(repr(v).encode("utf-8")).hexdigest()
           for name, v in out.items()}
    assert got == _DESCENT_DIGESTS


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


def test_only_the_sweep_bisects():
    # the staircase and the first moment share one column sweep, so a
    # function other than _sweep that reads the bisect module is a second
    path = pathlib.Path(_backend.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {"bisect"} | {alias.asname or alias.name
                          for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom)
                          and node.module == "bisect"
                          for alias in node.names}
    users = {f.name for f in ast.walk(tree)
             if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(isinstance(n, ast.Name) and n.id in names
                     for n in ast.walk(f))}
    assert users == {"_sweep"}, users


def _unbounded_memos(path):
    """The module-level functions of the source at ``path`` that take
    parameters and carry ``functools.cache``, or ``lru_cache`` with a
    ``maxsize`` that is not a literal int or a module-level name bound to
    one, as file:line name.  A bare ``lru_cache`` keeps its default, 128."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    ints = {t.id: node.value.value for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            for t in node.targets if isinstance(t, ast.Name)}
    found = []
    for f in tree.body:
        if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = f.args
        if not (a.posonlyargs or a.args or a.kwonlyargs or a.vararg
                or a.kwarg):
            continue
        for dec in f.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            named = call.func if call else dec
            name = getattr(named, "attr", getattr(named, "id", None))
            size = 128
            if name == "lru_cache" and call:
                given = call.args[:1] + [k.value for k in call.keywords
                                         if k.arg == "maxsize"]
                if given:
                    node = given[0]
                    size = (node.value if isinstance(node, ast.Constant)
                            else ints.get(getattr(node, "id", None)))
            if name == "cache" or (name == "lru_cache"
                                   and type(size) is not int):
                found.append(f"{path.name}:{f.lineno} {f.name}")
    return found


def test_every_memo_is_bounded():
    # a memo on a function of inputs grows with its callers' inputs for the
    # life of the process unless it is capped; one with no parameters
    # (cli._build_parser, cantor.power_bound_constants) holds one value
    root = pathlib.Path(falpha.__file__).parent
    bad = [hit for path in sorted(root.glob("*.py"))
           for hit in _unbounded_memos(path)]
    assert not bad, bad


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


def test_every_name_the_benchmark_reads_on_falpha_resolves():
    # the workloads read the package as ``fa`` or ``ctx.fa``: a deletion
    # or a dropped keyword there fails here, not in a benchmark run
    bench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    read = set()
    for name in ("workloads.py", "run.py"):
        tree = ast.parse((bench / name).read_text(encoding="utf-8"))
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)
                 and (getattr(node.value, "id", None) == "fa"
                      or getattr(node.value, "attr", None) == "fa")}
    assert {"mass", "gamma_dimension", "kernel_backend"} <= read
    assert not [n for n in sorted(read) if not hasattr(falpha, n)]
    inspect.signature(falpha.gamma_dimension).bind(C, 0.0, 1.0, tol=0.02,
                                                   box_depth=8)
    inspect.signature(StaircaseEvaluator).bind(C, 0.5, mode="numeric")


def _loads(tree):
    """The names that ``tree`` loads, as a Name or an Attribute, outside
    a function or class of the same name."""
    found = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            owners = owners | {node.name}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if (name is not None and isinstance(node.ctx, ast.Load)
                and name not in owners):
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return found


def test_every_name_falpha_exports_has_a_reader():
    # a name that only repeats another, with no reader in the package or
    # the benchmark, is a concept to learn and keep for nothing; the
    # paper's literal definitions are listed in the README instead.  And
    # the README's "Library overview" names every export: a span in
    # backticks names the identifier it starts with
    root = pathlib.Path(falpha.__file__).parent
    repo = root.parent.parent

    def read(folder):
        return set().union(*(_loads(ast.parse(p.read_text(encoding="utf-8")))
                             for p in folder.glob("*.py")))

    readme = (repo / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Definitions computed literally\n", 1)[1]
    literal = {name for line in section.split("\n#", 1)[0].splitlines()
               if line.startswith("- ")
               for name in re.findall(r"`(\w+)`", line.split(":", 1)[0])}
    tree = ast.parse((root / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    readers = read(root) | read(repo / "perfbench") | literal
    assert not [n for n in exported if n not in readers]
    overview = readme.split("\n## Library overview\n", 1)[1]
    named = set(re.findall(r"`(\w+)[^`]*`", overview.split("\n## ", 1)[0]))
    assert not [n for n in exported if n not in named]


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
