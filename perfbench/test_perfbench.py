"""Tests of the benchmark's own oracles, and of every workload's checks
on a second seed.  Run from the root of the repository:

    python3 -m pytest perfbench
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from oracles import (  # noqa: E402
    CANTOR_MAPS,
    IFSOracle,
    cantor_fraction,
    similarity_root,
)


def test_cantor_fraction_at_triadic_points():
    assert cantor_fraction(Fraction(1, 3)) == Fraction(1, 2)
    assert cantor_fraction(Fraction(1, 9)) == Fraction(1, 4)
    assert cantor_fraction(Fraction(2, 3)) == Fraction(1, 2)
    assert cantor_fraction(Fraction(1)) == 1
    assert cantor_fraction(Fraction(2, 9)) == Fraction(1, 4)
    assert cantor_fraction(Fraction(0)) == 0


def test_similarity_root_of_middle_thirds():
    assert similarity_root([1 / 3, 1 / 3]) == pytest.approx(
        math.log(2) / math.log(3), abs=1e-15)


def test_self_similar_mean_of_middle_thirds():
    assert IFSOracle(CANTOR_MAPS).mean() == pytest.approx(0.5, abs=1e-15)


def test_oracle_staircase_is_self_similar():
    o = IFSOracle(((0.0, 0.4), (0.75, 0.25)))
    for x in (0.1, 0.37, 0.6, 0.9):
        for (oi, ri), p in zip(o.maps, o.weights):
            lhs = o.stair(oi + ri * x) - o.stair(oi)
            assert lhs == pytest.approx(p * o.stair(x), rel=1e-12)


def test_first_moment_of_asymmetric_set():
    o = IFSOracle(((0.0, 0.4), (0.75, 0.25)))
    mass, first = o.moment_on(0.0, 1.0, 0)
    assert first == pytest.approx(0.5409038, abs=1e-7)
    assert mass == pytest.approx(1.0 / o.gamma, rel=1e-15)


def test_flight_bracket_inside_the_level_12_bracket():
    lo, hi = IFSOracle(CANTOR_MAPS).flight_bracket(1.0, 1.0, 0.5)
    assert 1.4307630 <= lo <= hi <= 1.4307654


def run_last_line(capsys, argv):
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_checks_on_a_second_seed(capsys, workload):
    code, res = run_last_line(capsys, ["--workload", workload, "--seed", "2",
                                       "--seconds", "1", "--trace", "0"])
    assert code == 0 and res["correct"]
    built = workloads.build(workload, 2)
    per_round = len(built.rounds[0])
    faults = sum(op.kind == "staircase-fault" for op in built.rounds[0])
    assert res["failed"] * per_round == res["attempted"] * faults
    assert set(res["metrics"]) == {"ops_per_s", "op_p50_ms", "op_tail_ms",
                                   "peak_rss_mb", "setup_s"}


def test_traced_run_counts_layers(capsys):
    metrics = {}
    for workload in workloads.NAMES:
        code, res = run_last_line(capsys, ["--workload", workload, "--seed",
                                           "2", "--seconds", "0.5",
                                           "--trace", "1"])
        assert code == 0 and res["correct"]
        metrics[workload] = {k: v["value"] for k, v in res["metrics"].items()}
    assert metrics["estimate"]["kernels.cantor_scaled.calls"] == 0
    assert metrics["estimate"]["kernels.g_series.calls"] == 0
    for workload in ("tabulate", "estimate"):
        for name in ("integrate", "sup_inf_on", "derivative"):
            assert metrics[workload][f"calculus.{name}.calls"] == 0
    assert metrics["tabulate"]["cli.main.calls"] > 0
    assert metrics["solve"]["calculus.integrate.calls"] > 0
    assert metrics["estimate"]["dimension.box_counts.calls"] > 0
