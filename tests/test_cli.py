"""Command-line driver: subcommands, formats, exit codes, determinism."""

import json
import os
import resource
import subprocess
import sys

import pytest

from falpha import cli
from falpha.cantor import power_rule_integral
from falpha.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_staircase_csv(capsys):
    code, out, err = run(capsys, "staircase", "--set", "cantor",
                         "--alpha", "auto", "--samples", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "x,staircase,scaled_staircase"
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[2]) == pytest.approx(1.0, abs=1e-12)


def test_staircase_json(capsys):
    code, out, err = run(capsys, "staircase", "--samples", "3",
                         "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["x", "staircase", "scaled_staircase"]
    assert len(doc["rows"]) == 3


def test_mass_verdict(capsys):
    code, out, err = run(capsys, "mass", "--set", "cantor",
                         "--alpha", "0.5", "--format", "json")
    assert code == 0
    assert json.loads(out)["meta"]["verdict"] == "diverging"


def test_dimension(capsys):
    code, out, err = run(capsys, "dimension", "--set", "harmonic")
    assert code == 0
    meta = dict(
        line[2:].split(" = ") for line in out.splitlines()
        if line.startswith("# ")
    )
    assert float(meta["gamma_dim"]) <= 0.15
    assert abs(float(meta["box_dim"]) - 0.5) <= 0.05


def test_integrate_first_moment(capsys):
    code, out, err = run(capsys, "integrate", "--set", "cantor",
                         "--alpha", "auto", "--f", "x", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row[2] == pytest.approx(0.5571831862810283, abs=1e-4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integrate_powers_of_the_staircase_at_the_defaults(capsys, n):
    name = "stair" if n == 1 else f"stair{n}"
    code, out, err = run(capsys, "integrate", "--f", name, "--format", "json")
    assert code == 0, err
    lower, upper, value, gap = json.loads(out)["rows"][0]
    assert gap <= 1e-4
    assert lower <= power_rule_integral(n, 1.0) <= upper


def test_differentiate(capsys):
    code, out, err = run(capsys, "differentiate", "--set", "cantor",
                         "--alpha", "auto", "--level", "2")
    assert code == 0
    lines = out.strip().splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("x,")) + 1
    for line in lines[start:]:
        x, value, side, residual = line.split(",")
        assert float(value) == pytest.approx(1.0, abs=1e-3)


def test_cantor_g(capsys):
    code, out, err = run(capsys, "cantor-g", "--samples", "3")
    assert code == 0
    assert "0.5571831862810283" in out


def test_diffusion_and_friction(capsys):
    code, out, err = run(capsys, "diffusion", "--alpha", "auto",
                         "--time", "0.3333333333333333", "--x", "0", "1", "1")
    assert code == 0
    assert out.strip().splitlines()[1] == "x,t,density"
    code, out, err = run(capsys, "friction", "--alpha", "auto",
                         "--samples", "3")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[4:]]
    assert float(rows[-1][1]) < 1.0  # friction slowed the particle


def test_set_from_file(tmp_path, capsys):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"type": "interval", "lo": 0.0, "hi": 1.0}))
    code, out, err = run(capsys, "mass", "--set", f"@{path}",
                         "--alpha", "1.0", "--format", "json")
    assert code == 0
    assert json.loads(out)["meta"]["verdict"] == "converged"


def test_output_file_and_determinism(tmp_path, capsys):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    for p in (p1, p2):
        code = main(["staircase", "--samples", "64", "--alpha", "auto",
                     "--output", str(p)])
        assert code == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "bogus")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "mass", "--alpha", "2.0")[0] == 1
    assert run(capsys, "mass", "--alpha", "x")[0] == 1
    assert run(capsys, "mass", "--set", "{broken")[0] == 1
    assert run(capsys, "mass", "--set", "@/no/such/file")[0] == 1
    assert run(capsys, "mass", "--range", "1", "0")[0] == 1


@pytest.mark.parametrize("text, field", [
    ('{"type": "cantor", "translate": Infinity}', "translate"),
    ('{"type": "cantor", "scale": NaN}', "scale"),
    ('{"type": "cantor", "scale": -Infinity}', "scale"),
    ('{"type": "gap_ifs", "ratios": [0.4, 0.25], "offsets": [0.0, NaN]}',
     "offsets"),
    ('{"type": "gap_ifs", "ratios": [0.4, NaN], "offsets": [0.0, 0.75]}',
     "ratios"),
    ('{"type": "interval", "lo": 0.0, "hi": Infinity}', "hi"),
    ('{"type": "interval", "lo": NaN, "hi": 1.0}', "lo"),
    ('{"type": "finite", "points": [0.0, -Infinity]}', "points"),
])
def test_non_finite_set_parameters_exit_1(capsys, text, field):
    code, out, err = run(capsys, "staircase", "--set", text, "--samples", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize("argv, option", [
    (("mass", "--range", "nan", "1"), "--range"),
    (("staircase", "--range", "0", "inf"), "--range"),
    (("friction", "--kappa", "nan"), "--kappa"),
    (("friction", "--v0", "inf"), "--v0"),
    (("friction", "--x0=-inf"), "--x0"),
    (("integrate", "--tol", "nan"), "--tol"),
    (("dimension", "--tol", "inf"), "--tol"),
    (("differentiate", "--tol", "nan"), "--tol"),
    (("diffusion", "--x", "-1", "1", "nan"), "--x"),
    (("diffusion", "--time", "nan"), "--time"),
])
def test_non_finite_numeric_options_exit_1(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and option in err and "finite" in err


@pytest.mark.parametrize("command", ["staircase", "friction"])
def test_overflowing_table_points_exit_1(capsys, command):
    # (b - a) * i overflows before the division by n - 1
    code, out, err = run(capsys, command, "--range", "0", "1e308",
                         "--samples", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "too wide" in err


@pytest.mark.parametrize("argv", [
    ("staircase", "--range", "-0.001", "1", "--samples", "2"),
    ("friction", "--x0", "-0.001", "--samples", "2"),
])
def test_last_table_row_is_at_the_range_end(capsys, argv):
    # a + (b - a) * 1 rounds to 0.9999999999999999 here
    assert -0.001 + (1.0 - -0.001) != 1.0
    code, out, err = run(capsys, *argv)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()
            if line[:1] not in ("#", "x")]
    assert [row[0] for row in rows] == ["-0.001", "1.0"]


@pytest.mark.parametrize("text, tol", [
    ('{"type": "interval", "lo": 0.0, "hi": 1.0}', 0.0),
    ('{"type": "gap_ifs", "ratios": [0.4, 0.25], "offsets": [0.0, 0.75]}',
     1e-12),
])
def test_scaled_staircase_uses_gamma_of_the_order(capsys, text, tol):
    code, out, err = run(capsys, "staircase", "--set", text, "--alpha",
                         "auto", "--samples", "5", "--format", "json")
    assert code == 0
    x, s, scaled = json.loads(out)["rows"][-1]
    assert x == 1.0 and abs(scaled - 1.0) <= tol


@pytest.mark.parametrize("exponent, decimal", [
    (("staircase", "--range", "-1e-3", "1", "--samples", "3"),
     ("staircase", "--range", "-0.001", "1", "--samples", "3")),
    (("diffusion", "--x", "-2e0", "2", "0.5", "--time", "1"),
     ("diffusion", "--x", "-2", "2", "0.5", "--time", "1")),
    (("friction", "--x0", "-1e-3", "--samples", "3"),
     ("friction", "--x0", "-0.001", "--samples", "3")),
    (("diffusion", "--time", "1e-1", "-1e-1", "--x", "-1", "1", "1"),
     ("diffusion", "--time", "0.1", "-0.1", "--x", "-1", "1", "1")),
])
def test_negative_numbers_with_an_exponent_are_values(capsys, exponent,
                                                      decimal):
    want = run(capsys, *decimal)
    assert want[0] == 0
    assert run(capsys, *exponent) == want


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


def test_verify_fast_passes(capsys):
    code, out, err = run(capsys, "verify", "--fast")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_parser_is_built_once_for_many_calls(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", spy)
    cli._build_parser.cache_clear()
    for argv in (("cantor-g", "--samples", "3"),
                 ("staircase", "--samples", "3"),
                 ("mass", "--alpha", "x")):
        run(capsys, *argv)
    assert built.count("falpha") == 1


def test_import_builds_no_parser():
    code = ("import falpha.cli as c; "
            "print(c._build_parser.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0"


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_diffusion_grid_step_that_does_not_advance_exits_1():
    # 1 + 1e-20 == 1: the grid would never reach its end.  In a process of
    # its own, so that a hang fails the test by its timeout, and with its
    # memory capped, since the hung grid grows without bound
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "falpha.cli", "diffusion", "--x", "1", "2",
         "1e-20"], env=env, capture_output=True, text=True, timeout=20,
        preexec_fn=_cap_memory)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error:") and "advance" in done.stderr


TABLES = (
    ("staircase", "--samples", "5"),
    ("cantor-g", "--samples", "4"),
    ("diffusion", "--x", "-1", "1", "0.5"),
)


@pytest.mark.parametrize("between", [
    ("staircase", "--range", "0"),
    ("diffusion", "--time", "nan"),
    ("cantor-g", "--samples", "x"),
    ("staircase", "--range", "1", "0"),
    ("diffusion", "--help"),
    ("--help",),
])
def test_shared_parser_carries_nothing_between_calls(capsys, between):
    first = [run(capsys, *argv) for argv in TABLES]
    assert all(code == 0 for code, _, _ in first)
    code, out, err = run(capsys, *between)
    assert code == (0 if "--help" in between else 1)
    assert [run(capsys, *argv) for argv in TABLES] == first
