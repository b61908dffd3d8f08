"""The ten acceptance checks, one test each, with a printed verdict line.

Each test calls the corresponding check in falpha.verify (the same code
the ``verify`` subcommand runs), prints a single PASS/FAIL line, and
asserts the check passed within its stated runtime budget.
"""

import time

import pytest

from falpha import verify


def _run(check, budget):
    t0 = time.time()
    result = check()
    elapsed = time.time() - t0
    status = "PASS" if result.ok else "FAIL"
    print(f"{status} {result.name}: {result.detail} ({elapsed:.2f}s)")
    assert result.ok, result.detail
    if budget is not None:
        assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"


def test_criterion_01_staircase_endpoint():
    _run(verify.acceptance_1_staircase_endpoint, 1.0)


def test_criterion_02_first_moment_integral():
    _run(verify.acceptance_2_first_moment, 10.0)


def test_criterion_03_cantor_dimension():
    _run(verify.acceptance_3_cantor_dimension, 30.0)


def test_criterion_04_harmonic_separation():
    _run(verify.acceptance_4_harmonic_separation, 30.0)


def test_criterion_05_indicator_lemma():
    _run(verify.acceptance_5_indicator_lemma, 5.0)


def test_criterion_06_derivative_suite():
    _run(verify.acceptance_6_derivative_suite, None)


def test_criterion_07_fundamental_theorems():
    _run(verify.acceptance_7_fundamental_theorems, None)


def test_criterion_08_scaling_suite():
    _run(verify.acceptance_8_scaling_suite, None)


def test_criterion_09_diffusion():
    _run(verify.acceptance_9_diffusion, None)


def test_criterion_10_friction():
    _run(verify.acceptance_10_friction, None)


def test_verify_runs_the_fundamental_theorem_checks_once(monkeypatch):
    calls = []

    def fake(name, residual):
        def check():
            calls.append(name)
            return verify.CheckResult(name, True, residual, "")
        return check

    first = fake("calculus.fundamental-first", 1e-4)
    second = fake("calculus.fundamental-second", 2e-4)
    monkeypatch.setattr(verify, "check_ftc_first", first)
    monkeypatch.setattr(verify, "check_ftc_second", second)
    monkeypatch.setattr(verify, "INVARIANTS", (first, second))
    monkeypatch.setattr(verify, "ACCEPTANCE",
                        (verify.acceptance_7_fundamental_theorems,))
    results = verify.run_checks()
    assert calls == ["calculus.fundamental-first",
                     "calculus.fundamental-second"]
    assert [r.name for r in results] == [
        "calculus.fundamental-first", "calculus.fundamental-second",
        "acceptance.7-fundamental-theorems"]
    assert results[2].ok and results[2].residual == 2e-4
    # called alone, it runs both checks itself
    calls.clear()
    assert verify.acceptance_7_fundamental_theorems() == results[2]
    assert sorted(calls) == ["calculus.fundamental-first",
                             "calculus.fundamental-second"]
