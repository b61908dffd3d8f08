"""Command-line driver: subcommands, formats, exit codes, determinism."""

import json

import pytest

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


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


def test_verify_fast_passes(capsys):
    code, out, err = run(capsys, "verify", "--fast")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out
