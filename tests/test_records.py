"""The record classes: repr, equality, hash, immutability, construction.

Every set spec, result, report, staircase evaluator and parameter set of
the package is a record: a class with named fields, compared, hashed and
printed by those fields, and frozen.
"""

import ast
import pathlib

import pytest

import falpha
from falpha import (
    ALPHA, Affine, DerivativeResult, DiffusionParams, DimensionReport,
    FinitePoints, FOnF, FrictionParams, FullInterval, GapIFS, HarmonicCluster,
    IntegralResult, Interval, MassEstimate, StaircaseEvaluator, Subdivision,
    TernaryCantor, _backend,
)
from falpha.calculus import ContinuityReport
from falpha.mass import ScalingReport
from falpha.verify import CheckResult

C = TernaryCantor()
C_REPR = ("TernaryCantor(ratios=(0.3333333333333333, 0.3333333333333333), "
          "offsets=(0.0, 0.6666666666666666))")

# (class, its fields in order, positional arguments, repr of the record
# they build)
RECORDS = [
    (Interval, ("lo", "hi"), (0.0, 1.5), "Interval(lo=0.0, hi=1.5)"),
    (Subdivision, ("points",), ((0.0, 0.5, 1.0),),
     "Subdivision(points=(0.0, 0.5, 1.0))"),
    (GapIFS, ("ratios", "offsets"), ((0.4, 0.25), (0.0, 0.75)),
     "GapIFS(ratios=(0.4, 0.25), offsets=(0.0, 0.75))"),
    (TernaryCantor, ("ratios", "offsets"),
     ((1.0 / 3.0, 1.0 / 3.0), (0.0, 2.0 / 3.0)), C_REPR),
    (FinitePoints, ("points",), ((0.1, 0.5),),
     "FinitePoints(points=(0.1, 0.5))"),
    (HarmonicCluster, (), (), "HarmonicCluster()"),
    (FullInterval, ("lo", "hi"), (0.0, 2.0),
     "FullInterval(lo=0.0, hi=2.0)"),
    (Affine, ("inner", "scale", "shift"), (C, 2.0, -1.0),
     f"Affine(inner={C_REPR}, scale=2.0, shift=-1.0)"),
    (MassEstimate, ("alpha", "value", "verdict", "upper_bound_only"),
     (0.5, 1.25, "converged", True),
     "MassEstimate(alpha=0.5, value=1.25, verdict='converged', "
     "upper_bound_only=True)"),
    (ScalingReport,
     ("scaled_lhs", "scaled_rhs", "translated_lhs", "translated_rhs"),
     (1.0, 2.0, 3.0, 4.0),
     "ScalingReport(scaled_lhs=1.0, scaled_rhs=2.0, translated_lhs=3.0, "
     "translated_rhs=4.0)"),
    (FOnF, ("fn", "hint"), (abs, ("monotone",)),
     "FOnF(fn=<built-in function abs>, hint=('monotone',))"),
    (IntegralResult, ("lower", "upper", "value", "gap", "refinement_depth"),
     (0.25, 0.5, 0.375, 0.25, 3),
     "IntegralResult(lower=0.25, upper=0.5, value=0.375, gap=0.25, "
     "refinement_depth=3)"),
    (DerivativeResult, ("value", "side", "residual"), (1.5, "left", 0.0),
     "DerivativeResult(value=1.5, side='left', residual=0.0)"),
    (ContinuityReport, ("ok", "eps", "witness"), (False, 0.1, 0.25),
     "ContinuityReport(ok=False, eps=0.1, witness=0.25)"),
    (DimensionReport, ("gamma_dim", "box_dim", "alpha_trace", "bracket"),
     (0.5, 0.5, ((0.5, "positive"),), (0.5, 0.5)),
     "DimensionReport(gamma_dim=0.5, box_dim=0.5, "
     "alpha_trace=((0.5, 'positive'),), bracket=(0.5, 0.5))"),
    (StaircaseEvaluator, ("spec", "alpha", "a0", "mode"),
     (C, 0.5, 0.25, "numeric"),
     f"StaircaseEvaluator(spec={C_REPR}, alpha=0.5, a0=0.25, "
     "mode='numeric')"),
    (DiffusionParams, ("time_set", "alpha"), (C, 0.5),
     f"DiffusionParams(time_set={C_REPR}, alpha=0.5)"),
    (FrictionParams, ("medium_set", "alpha", "v0", "x0", "kappa", "k"),
     (C, 0.5, 1.0, 0.25, 0.5, None),
     f"FrictionParams(medium_set={C_REPR}, alpha=0.5, v0=1.0, x0=0.25, "
     "kappa=0.5, k=None)"),
    (CheckResult, ("name", "ok", "residual", "detail"),
     ("a.check", True, 0.0, "worst 0"),
     "CheckResult(name='a.check', ok=True, residual=0.0, detail='worst 0')"),
]


def _values(rec, names):
    return [getattr(rec, n) for n in names]


@pytest.mark.parametrize("cls, names, args, want", RECORDS,
                         ids=[case[0].__name__ for case in RECORDS])
def test_a_record_is_printed_compared_and_hashed_by_its_fields(
        cls, names, args, want):
    rec = cls(*args)
    assert repr(rec) == want
    # positional and keyword construction give the same fields
    by_name = cls(**dict(zip(names, args)))
    assert _values(by_name, names) == _values(rec, names) == list(args)

    # hashed as a frozen dataclass is: by the tuple of its fields
    twin = cls(*args)
    assert twin == rec and hash(twin) == hash(rec) == hash(tuple(args))
    for name in names or ("anything",):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert repr(rec) == want

    # another class holding the same values is not equal
    other = type(cls.__name__, (cls,), {})(*args)
    assert other != rec and rec != other
    assert rec != tuple(args)


def test_a_record_takes_its_defaults():
    assert TernaryCantor() == TernaryCantor(
        (1.0 / 3.0, 1.0 / 3.0), (0.0, 2.0 / 3.0)) == C
    assert TernaryCantor() != GapIFS((1.0 / 3.0, 1.0 / 3.0), (0.0, 2.0 / 3.0))
    assert repr(ContinuityReport(True)) == (
        "ContinuityReport(ok=True, eps=0.0, witness=nan)")
    assert MassEstimate(0.5, 1.0, "converged").upper_bound_only is False
    assert CheckResult("a.check", True, 0.0).detail == ""
    p = FrictionParams(C, ALPHA, v0=1.0, kappa=0.5)
    assert (p.x0, p.kappa, p.k) == (0.0, 0.5, None)
    assert p.stair.a0 == 0.0
    with pytest.raises(AttributeError):
        p.v0 = 2.0
    assert p.v0 == 1.0


@pytest.mark.parametrize("make, names", [
    (lambda: FrictionParams(C, ALPHA, v0=1.0, kappa=0.5),
     ("x0", "medium_set", "alpha", "stair")),
    (lambda: DiffusionParams(C, ALPHA), ("time_set", "alpha", "stair")),
    (lambda: StaircaseEvaluator(C, ALPHA), ("a0", "spec", "measure", "walk")),
])
def test_what_builds_a_staircase_cannot_be_reassigned(make, names):
    # the staircase is built once from the fields: a field assigned after
    # that would leave it measuring from the old ones
    rec = make()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, TernaryCantor((0.25, 0.25), (0.0, 0.75)))
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert rec == make()


def test_only_record_assigns_setattr_delattr_or_hash():
    # every value the package hands out is frozen by sets.Record alone: a
    # class that changes how its attributes are set, or drops its hash,
    # hands out a value that can change under what was built from it
    found = []
    for path in sorted(pathlib.Path(falpha.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (not isinstance(cls, ast.ClassDef)
                    or (path.name, cls.name) == ("sets.py", "Record")):
                continue
            for stmt in cls.body:
                names = ({stmt.name} if isinstance(stmt, ast.FunctionDef)
                         else {n.id for n in ast.walk(stmt)
                               if isinstance(n, ast.Name)
                               and isinstance(n.ctx, ast.Store)})
                found += [f"{path.name}: {cls.name}.{name}" for name in
                          sorted(names & {"__setattr__", "__delattr__",
                                          "__hash__"})]
    assert found == []


def test_a_measure_record_is_a_named_tuple():
    rec = _backend.measure(C, ALPHA)
    assert isinstance(rec, tuple) and len(rec) == 7
    assert rec._fields == ("scale", "shift", "hull", "table", "mean", "eps",
                           "side")
    # one flat row (offset, ratio, span start, span end, weight) per copy,
    # the set's own rows with the weights put in
    assert [row[:4] for row in rec.table] == [row[:4] for row in C._table]
    assert all(len(row) == 5 for row in rec.table)
    assert rec == tuple(rec) and rec.scale == rec[0] == 1.0
    assert repr(rec).startswith("Measure(scale=1.0, shift=0.0, hull=(0.0, 1.0), ")
    assert rec._replace(shift=2.0).shift == 2.0
