"""Command-line driver: subcommands, formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import re
import resource
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from falpha import cli, dimension
from falpha.cantor import ALPHA, GAMMA_ALPHA1, g_series, power_rule_integral
from falpha.cli import main
from falpha.dimension import similarity_order
from falpha.mass import StaircaseEvaluator, gamma_factor
from falpha.physics import (DiffusionParams, FrictionParams, _gaussian,
                            friction_velocity, time_of_flight)
from falpha.sets import (Affine, FinitePoints, FullInterval, GapIFS,
                         HarmonicCluster, TernaryCantor, spec_from_json,
                         spec_to_json)
from test_sets import _gap_ifs


_ASYM = '{"type": "gap_ifs", "ratios": [0.4, 0.25], "offsets": [0.0, 0.75]}'


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
    # the verdict comes from the set's structure: {0.4, 0.25} diverges just
    # below its order 0.61098
    code, out, err = run(capsys, "mass", "--set", _ASYM, "--alpha", "0.61")
    assert code == 0
    assert "# verdict = diverging" in out.splitlines()


def test_dimension(capsys):
    code, out, err = run(capsys, "dimension", "--set", "harmonic")
    assert code == 0
    meta = dict(
        line[2:].split(" = ") for line in out.splitlines()
        if line.startswith("# ")
    )
    assert float(meta["gamma_dim"]) <= 0.15
    assert abs(float(meta["box_dim"]) - 0.5) <= 0.05
    assert meta["box_dim"] == "0.5"


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


@pytest.mark.parametrize("argv, want", [
    # a function of the staircase is integrated by substitution, so this
    # closes; 20,000 pieces of the walk down the set do not
    (("--f", "stair4", "--tol", "1e-6"), power_rule_integral(4, 1.0)),
    # a set far from 0 keeps its mass out of its gaps
    (("--set", '{"type":"cantor","translate":1000}', "--range", "1000",
      "1001", "--f", "x"),
     1000.5 / math.gamma(math.log(2) / math.log(3) + 1)),
], ids=["stair4-at-tol-1e-6", "x-on-the-set-at-1000"])
def test_integrate_brackets_the_exact_integral(capsys, argv, want):
    code, out, err = run(capsys, "integrate", *argv)
    assert code == 0, err
    lo, hi = map(float, out.splitlines()[-1].split(",")[:2])
    assert lo <= want <= hi


def test_differentiate(capsys):
    code, out, err = run(capsys, "differentiate", "--set", "cantor",
                         "--alpha", "auto", "--level", "2")
    assert code == 0
    lines = out.strip().splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("x,")) + 1
    for line in lines[start:]:
        x, value, side, residual = line.split(",")
        assert float(value) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("argv", [
    ("--set", _ASYM),
    ("--f", "stair2"),
    # a set scaled far up keeps a staircase variation at each point: the
    # walk stops before copies shorter than the slack
    ("--set", '{"type": "cantor", "scale": 10000}', "--range", "0", "10000"),
    # the walk's floor and r0 scale with the hull: at 1e-300 the floor was
    # longer than the hull, and at 1e300 r0 shorter than every piece
    ("--set", '{"type": "cantor", "scale": 1e-300}', "--range", "0", "1e-300"),
    ("--set", '{"type": "cantor", "scale": 1e300}', "--range", "0", "1e300"),
])
def test_differentiate_tabulates_without_an_error(capsys, argv):
    code, out, err = run(capsys, "differentiate", *argv)
    assert code == 0
    assert not [line for line in (out + err).splitlines()
                if line.startswith("error:")]


def test_differentiate_labels_gap_edges_at_the_defaults(capsys):
    # 1/27 ends a level-3 piece with a gap on its right, 26/27 one with a
    # gap on its left
    code, out, err = run(capsys, "differentiate")
    assert code == 0
    assert "0.037037037037037035,1.0,left,0.0\n" in out
    assert "0.9629629629629629,1.0,right,0.0\n" in out


def test_differentiate_keeps_the_hull_ends_of_a_wrapped_set(capsys):
    # -40.335 is the hull's right end; mapped into the middle-thirds set
    # it rounds past 1
    code, out, err = run(capsys, "differentiate", "--set",
                         '{"type":"cantor","scale":1.178,"translate":-41.513}',
                         "--range", "-41.513", "-40.335", "--level", "2")
    assert code == 0
    lines = out.splitlines()
    rows = lines[lines.index("x,derivative,side,residual") + 1:]
    assert len(rows) == 8
    assert rows[0].startswith("-41.513,") and rows[-1].startswith("-40.335,")


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
    # a file holds what stdout would, whatever it held before
    p1.write_bytes(b"a longer text that the table replaces " * 100)
    for argv in (("staircase",), ("friction", "--format", "json"),
                 ("verify", "--fast")):
        code, want, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--output", str(p1)) == (0, "", "")
        assert p1.read_bytes() == want.encode("utf-8"), argv


@pytest.mark.parametrize("argv", [
    ("mass", "--depth", "0"),
    ("friction", "--range", "2", "1"),
    ("diffusion", "--x", "0", "1", "0"),
    ("mass", "--set", '{"type": "bogus"}'),
])
def test_a_run_that_fails_leaves_its_output_file_as_it_was(tmp_path, capsys,
                                                           argv):
    path = tmp_path / "out.txt"
    path.write_bytes(b"keep\n\x00\xff")
    code, out, err = run(capsys, *argv, "--output", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert path.read_bytes() == b"keep\n\x00\xff"


def test_an_unwritable_output_path_exits_1(tmp_path, capsys):
    code, out, err = run(capsys, "mass", "--output", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(tmp_path) in err


@pytest.mark.parametrize("where", ["dir", "missing/out.txt", "file/out.txt"])
def test_an_unwritable_output_path_exits_1_before_the_run(tmp_path, capsys,
                                                          monkeypatch, where):
    # this ran every check, 3 s, before open refused the directory
    calls = []
    monkeypatch.setattr("falpha.verify.run_checks",
                        lambda fast: calls.append(fast) or [])
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_bytes(b"keep")
    path = tmp_path / where
    code, out, err = run(capsys, "verify", "--output", str(path))
    assert (code, out, calls) == (1, "", [])
    assert err.startswith("error: --output") and str(path) in err
    assert not (tmp_path / "missing").exists()
    assert (tmp_path / "file").read_bytes() == b"keep"


def _readme_commands():
    """The argv of each line of the fenced block under "## Command line"
    in the README, with ``verify [--fast]`` as ``verify --fast``."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = text.split("\n## Command line\n", 1)[1].split("```")[1]
    lines = block.replace("[--fast]", "--fast").splitlines()[1:]
    return [line.split()[1:] for line in lines if line.strip()]


def test_the_readme_commands_run(capsys):
    commands = _readme_commands()
    assert [argv[0] for argv in commands] == [
        "staircase", "mass", "dimension", "integrate", "differentiate",
        "cantor-g", "diffusion", "friction", "verify"]
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if argv[0] == "diffusion":
            # --x is LO HI STEP: 0 to 2 by 0.05 at one time
            rows = [line for line in out.splitlines()
                    if line[:1] not in ("#", "x")]
            assert len(rows) == 41, argv


# sha256 of the stdout of main in process, for each subcommand at its
# defaults in both formats and the integrands that the walks and the
# substitution price.  A change that moves an output on purpose updates
# the digest here and names the rows that moved.
_DIGESTS = (
    ("staircase",
     "93af7443abb8523025d0c6b9da022f25b24894a771d14b45923653ac22014c9f"),
    ("mass",
     "ea04e3eb001230e576d36bbdff126643115e1cc80adaa5f7c0cacba8b5a9ee78"),
    ("dimension",
     "f2d55585eecf780d6d417071b10a32a154bdf3f4d12cf3fa22cdb9910c91055a"),
    ("integrate",
     "b8d60f3231d138bbd552df81849ea88fd4fce31c8b342f1e1baa1a397bb0ae9e"),
    ("differentiate",
     "ee0012c5bc634da5a3cfa6c1ef7e58ba03a3add38b59a376b06fc74b5b011955"),
    ("cantor-g",
     "c4ebd14cf3af0c5595d456aa393327a65fbada61d0798e800f61cccd2b205a09"),
    ("diffusion",
     "97fc155be2a74c10f3edad64823cf0b0ad66dc17cbd51c0480c1ac3a1436b4d6"),
    ("friction",
     "94be941c73ae1bfb8145ff98a7b2b6452b4043b3c88609f7257728c9ea2012a9"),
    ("staircase --format json",
     "89fb100f20715a7329cc230a273ae70093deba8e87aac2c082a4f859991fdcd9"),
    ("mass --format json",
     "0c2076053fb2a70a9c787f2883c69f2ea9670dcccc50612f8072d5b8ce9255ee"),
    ("dimension --format json",
     "517978b353688c7c3e861cf6cec3bc109e3759bea75cf7c4c484ffbc2e49ddff"),
    ("integrate --format json",
     "9a137ee47ab49225b86e65c81201afffba03bef4a2b2a1aa9e2af9c0112761b7"),
    ("differentiate --format json",
     "2922362deddceb2644661429a0ee6df2a5e80619cf922c084aa04d18af47e50f"),
    ("cantor-g --format json",
     "99709a7250725d6f1631eb39d70f158c5030b32ac03da226de079f6989c23cd3"),
    ("diffusion --format json",
     "740717383a40787d5517358bd22da536153bc9b66fe114b804de19cebbb324a7"),
    ("friction --format json",
     "ee2b45a2c342d8fb38f4052229083ac28dbb7338bbfc72c428a536ea6e26bac6"),
    ("verify --fast",
     "b7271b38a8b311aa01cacaed95f9ef67306f68f2022ea6fee00d40d0ab394701"),
    ("integrate --f stair",
     "db27e60999a44a06e198bc149b6977638f6f92273103ccd6e7f9bc75a4e76694"),
    ("integrate --f stair2",
     "11063d4e1818089af93d4fbfdb420abe48ca728b3c489ca3b8da2c693c84f36c"),
    ("integrate --f stair3",
     "27bb69be24e655bcb27b2dc49f5220838bbb1269d7735b9d72544711886bd5c8"),
    ("integrate --f stair4",
     "73a0c5aecaf2898a46c421e2b9cd6632655b42b2c77e205a8d398c1b2269d592"),
    ("differentiate --f stair2",
     "8a8bd71bc4d2317467d8bf44ff3554f66d295366657bcb404fdc82f1869a65a8"),
    # tables of the size that holds tabulate's tail: a wrapped middle-thirds
    # staircase on a triadic range, a 3-map gap IFS and two g columns, one
    # of them with points of endless address (y = 1/4 and its images)
    ("staircase --set {\"type\":\"cantor\",\"scale\":3.0,"
     "\"translate\":0.2222222222222222} --samples 244 "
     "--range 0.5555555555555556 2.888888888888889",
     "7ec7bc735f35db1fd59308bf26c45b3e9ef8ef68b21b629c7c3ff264ddb3e808"),
    ("staircase --set {\"type\":\"cantor\",\"scale\":3.0,"
     "\"translate\":0.2222222222222222} --samples 244 "
     "--range 0.5555555555555556 2.888888888888889 --format json",
     "01ee3e586cbb77bf10b77fef203c5975d92bae343257f663a44038e9b5982693"),
    ("staircase --set {\"type\":\"gap_ifs\",\"ratios\":[0.2,0.3,0.25],"
     "\"offsets\":[0.0,0.35,0.75]} --samples 244",
     "5de8a36f9fcfadc5ec64494a095fbe9bc0304cbc2515515d24ebc5dff5eca9ea"),
    ("cantor-g --samples 216",
     "6d64b6c9fa4dc894815b946c3939fdb5acd2e282fbe5a6796941b121779af5a8"),
    ("cantor-g --samples 216 --format json",
     "dfbb3270aa68ea823f6a1af0247eef623665efa76d69c659d0e6d517bdf26e3c"),
    ("cantor-g --samples 243",
     "ac10e2db10cf04441d8ac4fb549d4648dd6e281a61093071029d5263fbb450ca"),
    ("cantor-g --samples 243 --format json",
     "9f4a2ccc0448f91efdd6c3f315a34a11dd2721b4899eb167d4454d24a4cb184f"),
    # the closed forms that are the cover with no mesh bound: the ramp on
    # an interval at order 1, point sets, and a gap IFS above its order
    ("staircase --set {\"type\":\"interval\",\"lo\":0.0,\"hi\":2.0} "
     "--range -0.5 2.5 --samples 9",
     "08497c94e5c5ee5ca4f8d22e514eb960d837b3f39374a794f6f2865174944b95"),
    ("staircase --set {\"type\":\"interval\",\"lo\":0.0,\"hi\":2.0} "
     "--range -0.5 2.5 --samples 9 --format json",
     "f50a40b7bddb1d3822132efd1c3e58eaede867b405867385554b420d19924a61"),
    ("staircase --set harmonic --samples 5",
     "f89605ea299e8316872fef6ebccf0b6926810600f6396de9ca71f53b7d8d20b7"),
    ("staircase --set {\"type\":\"finite\",\"points\":[0.2,0.5]} "
     "--samples 5",
     "f89605ea299e8316872fef6ebccf0b6926810600f6396de9ca71f53b7d8d20b7"),
    ("staircase --set {\"type\":\"gap_ifs\",\"ratios\":[0.4,0.25],"
     "\"offsets\":[0.0,0.75]} --alpha 0.9 --samples 9",
     "d6c4f9484fd707280029eeeac0527bdce46bcecf39d25c94dc2a494c32cf57f9"),
    # the finite-delta ladder off the middle-thirds set: below, at and
    # above the order, on an interval, {0.4, 0.25} and a point set
    ("mass --set {\"type\":\"interval\",\"lo\":0.0,\"hi\":2.0} "
     "--range -0.5 2.5 --alpha 1",
     "d2e6bdeec4a374f3153ba4180e6f819c91a326ed14c384dc6205656c64c5d8a8"),
    ("mass --set {\"type\":\"interval\",\"lo\":0.0,\"hi\":2.0} "
     "--range -0.5 2.5 --alpha 0.5",
     "ea4628adc562f5ecbc68163a9f949ed6ca0bd62cb3333588f53b7449ba6bee83"),
    ("mass --set {\"type\":\"gap_ifs\",\"ratios\":[0.4,0.25],"
     "\"offsets\":[0.0,0.75]}",
     "2549bf777be687eb38a5e3ed8c584931e953cdb45417197a3dd7e174b34a99e6"),
    ("mass --set {\"type\":\"gap_ifs\",\"ratios\":[0.4,0.25],"
     "\"offsets\":[0.0,0.75]} --alpha 0.5",
     "3463028797a06ed999af606ba16420b7d9a5f7553b2238f780aa4c5ab680d158"),
    ("mass --set {\"type\":\"gap_ifs\",\"ratios\":[0.4,0.25],"
     "\"offsets\":[0.0,0.75]} --alpha 0.9",
     "606d348d65110f31fe42e22b4af2aba6cac4c591d818c82771696f7c5e6494a9"),
    ("mass --set harmonic --alpha 0.5",
     "476e1877f57cd86f3a6262331fcdf629725bf95d1837e645e3f3d7e84c7c7645"),
)


@pytest.mark.parametrize("argv, digest", _DIGESTS)
def test_the_cli_gives_the_pinned_bytes(capsys, argv, digest):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


USAGE_ERRORS = (
    ("bogus",),
    (),
    ("mass", "--alpha", "2.0"),
    ("mass", "--alpha", "x"),
    ("mass", "--set", "{broken"),
    ("mass", "--set", "@/no/such/file"),
    ("mass", "--range", "1", "0"),
    # options that changed nothing are gone; friction starts at A <= B
    ("dimension", "--tol", "0.02"),
    ("diffusion", "--range", "0", "1"),
    ("friction", "--x0", "0"),
    ("friction", "--range", "2", "1"),
)


def test_usage_errors_exit_1(capsys):
    for argv in USAGE_ERRORS:
        assert run(capsys, *argv)[0] == 1, argv


@pytest.mark.parametrize("argv", [
    ("--depth", "0"),
    ("--depth", "-3"),
    ("--depth", "32"),  # (1 - 0)/3^32 = 5.4e-16 lies below slack(1) = 1e-15
    ("--depth", "700"),  # 3.0 ** 700 overflows
    ("--set", _ASYM, "--alpha", "0.5", "--depth", "640"),
    ("--range", "1000", "1001", "--depth", "26"),  # below 4 ulp(1001)
])
def test_mass_depth_out_of_range_exits_1(capsys, argv):
    code, out, err = run(capsys, "mass", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --depth") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("staircase", "--samples", "-5"),
    ("staircase", "--samples", "1"),
    ("cantor-g", "--samples", "-1"),
    ("cantor-g", "--samples", "0"),
    ("friction", "--samples", "0"),
    ("friction", "--samples", "1"),
])
def test_fewer_than_two_samples_exit_1(capsys, argv):
    # a table holds both ends of its range: these printed 2 rows and
    # exited 0
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--samples" in err
    assert "at least 2" in err


def test_friction_x0_at_b_is_a_table_of_one_point(capsys):
    code, out, err = run(capsys, "friction", "--range", "1", "1",
                         "--samples", "3")
    assert code == 0
    assert out.splitlines()[-3:] == ["1.0,1.0,0.0"] * 3


def test_friction_starts_at_a(capsys):
    # the particle starts at A: this table started at 0.0, where no
    # option put it
    code, out, err = run(capsys, "friction", "--range", "0.5", "1",
                         "--samples", "3", "--format", "json")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert [row[0] for row in rows] == [0.5, 0.75, 1.0]
    assert rows[0][1:] == [1.0, 0.0]


@pytest.mark.parametrize("argv, rows", [
    (("--depth", "1"), 1),
    (("--depth", "31"), 31),
    (("--range", "1000", "1001", "--depth", "25"), 25),
])
def test_mass_depth_down_to_the_slack_is_tabulated(capsys, argv, rows):
    code, out, err = run(capsys, "mass", "--format", "json", *argv)
    assert code == 0
    doc = json.loads(out)
    deltas = [d for d, _ in doc["rows"]]
    assert len(deltas) == rows and deltas == sorted(deltas, reverse=True)


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
    (("friction", "--range", "inf", "1"), "--range"),
    (("integrate", "--tol", "nan"), "--tol"),
    (("differentiate", "--tol", "inf"), "--tol"),
    (("differentiate", "--tol", "nan"), "--tol"),
    (("diffusion", "--x", "-1", "1", "nan"), "--x"),
    (("diffusion", "--time", "nan"), "--time"),
    # a negative infinity or NaN is a value, not an option flag
    (("staircase", "--range", "-inf", "1"), "--range"),
    (("diffusion", "--time", "-inf"), "--time"),
    (("diffusion", "--x", "-nan", "1", "0.1"), "--x"),
    (("mass", "--range", "-Infinity", "1"), "--range"),
    (("friction", "--kappa", "-NaN"), "--kappa"),
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


@pytest.mark.parametrize("command", ["dimension", "mass"])
def test_a_range_whose_width_overflows_exits_1(capsys, command):
    # both ends are finite, but B - A is not: no box or rung fits it
    code, out, err = run(capsys, command, "--range", "-1e308", "1e308")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "1e+308" in err
    assert "Traceback" not in err


def test_an_integral_that_overflows_exits_1(capsys):
    # x times the rise of S overflows on a piece: unrefused, that bound
    # would print inf,nan,nan,0.0 as a result
    code, out, err = run(capsys, "integrate", "--set",
                         '{"type":"cantor","scale":1e300}',
                         "--range", "0", "1e300")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "overflows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["dimension", "mass"])
def test_a_range_of_finite_width_near_the_float_limit_is_tabulated(
        capsys, command):
    code, out, err = run(capsys, command, "--range", "-1e300", "1e300")
    assert code == 0
    assert err == ""


@pytest.mark.parametrize("text", [
    "harmonic", '{"type": "finite", "points": [0.1, 0.6, 0.9]}'])
def test_auto_order_of_a_point_set_is_1_and_counts_no_boxes(
        capsys, monkeypatch, text):
    # its staircase is 0 at every order, so no estimate is needed
    calls = []
    monkeypatch.setattr(dimension, "box_counts",
                        lambda *args, **kwargs: calls.append(args))
    code, out, err = run(capsys, "staircase", "--set", text, "--alpha",
                         "auto", "--samples", "3")
    assert code == 0
    assert out.splitlines()[0] == "# alpha = 1.0"
    assert calls == []


def test_default_dimension_table_is_one_probe_at_the_order(capsys):
    code, out, err = run(capsys, "dimension")
    assert code == 0
    s = repr(similarity_order((1.0 / 3.0, 1.0 / 3.0)))
    lines = out.splitlines()
    meta = dict(line[2:].split(" = ") for line in lines
                if line.startswith("# "))
    assert meta["gamma_dim"] == meta["bracket_lo"] == meta["bracket_hi"] == s
    assert meta["box_dim"] == s
    assert lines[lines.index("alpha,verdict") + 1:] == [f"{s},positive"]


def test_dimension_of_a_gap_ifs_is_its_order_to_the_last_bit(capsys):
    # the dimension and both bracket ends are the order where the
    # staircase rises, and so is the box dimension, read from structure
    code, out, err = run(capsys, "dimension", "--set", _ASYM)
    assert code == 0
    s = repr(similarity_order((0.4, 0.25)))
    meta = dict(line[2:].split(" = ") for line in out.splitlines()
                if line.startswith("# "))
    assert meta["gamma_dim"] == meta["bracket_lo"] == meta["bracket_hi"] == s
    assert meta["box_dim"] == s


@pytest.mark.parametrize("argv", [
    ("staircase", "--range", "-0.001", "1", "--samples", "2"),
    ("friction", "--range", "-0.001", "1", "--samples", "2"),
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
    (("friction", "--range", "-1e-3", "1", "--samples", "3"),
     ("friction", "--range", "-0.001", "1", "--samples", "3")),
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


def test_only_verify_loads_the_checks():
    # the property suite is imported by its one subcommand, not by the CLI;
    # nor does the CLI load the dataclass machinery (dataclasses, and the
    # inspect it loads) or typing, which the records do without, or
    # fractions, which no subcommand needs
    code = ("import sys; before = set(sys.modules); import falpha.cli as c; "
            "print('falpha.verify' in sys.modules); "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'fractions'}"
            " & (set(sys.modules) - before))); "
            "rc = c.main(['verify', '--fast']); "
            "print('falpha.verify' in sys.modules, rc)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    lines = out.splitlines()
    assert lines[0] == "False"
    assert lines[1] == "[]"
    assert lines[-2] == "8/8 checks passed"
    assert lines[-1] == "True 0"


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


def test_a_grid_step_lost_past_the_first_point_exits_1(capsys):
    # 1 advances 9007199254740990 but not 2^53, which the grid reaches
    # after two steps: the check inside the loop refuses it
    code, out, err = run(capsys, "diffusion", "--x", "9007199254740990",
                         "9007199254740996", "1")
    assert (code, out) == (1, "")
    assert err == ("error: x grid step 1.0 does not advance past "
                   "9007199254740992.0\n")


def test_a_numeric_option_that_is_not_a_number_exits_1(capsys):
    code, out, err = run(capsys, "integrate", "--tol", "abc")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "--tol" in err and "'abc'" in err


def test_verify_with_a_failing_check_exits_2(capsys, monkeypatch, tmp_path):
    from falpha import verify

    def failing():
        return verify.CheckResult("made.to.fail", False, 1.0, "as made")

    monkeypatch.setattr(verify, "_FAST", verify._FAST + (failing,))
    k = len(verify._FAST) - 1
    code, out, err = run(capsys, "verify", "--fast")
    assert (code, err) == (2, "")
    lines = out.splitlines()
    assert lines[-2:] == ["FAIL made.to.fail: as made",
                          f"{k}/{k + 1} checks passed"]
    assert sum(line.startswith("FAIL") for line in lines) == 1
    # the report of a failing run is still written
    path = tmp_path / "report.txt"
    assert run(capsys, "verify", "--fast", "--output", str(path)) == (2, "",
                                                                      "")
    assert path.read_text(encoding="utf-8") == out


TABLES = (
    ("staircase", "--samples", "5"),
    ("cantor-g", "--samples", "4"),
    ("diffusion", "--x", "-1", "1", "0.5"),
)


BETWEEN = (
    ("staircase", "--range", "0"),
    ("diffusion", "--time", "nan"),
    ("cantor-g", "--samples", "x"),
    ("staircase", "--range", "1", "0"),
    ("diffusion", "--help"),
    ("--help",),
)


@pytest.mark.parametrize("between", BETWEEN)
def test_shared_parser_carries_nothing_between_calls(capsys, between):
    first = [run(capsys, *argv) for argv in TABLES]
    assert all(code == 0 for code, _, _ in first)
    code, out, err = run(capsys, *between)
    assert code == (0 if "--help" in between else 1)
    assert [run(capsys, *argv) for argv in TABLES] == first


@pytest.mark.parametrize("argv", [
    *USAGE_ERRORS, *TABLES, *BETWEEN,
    ("staircase", "-h"),
    ("staircase", "--bogus"),
    ("staircase", "--", "--samples", "3"),
    ("cantor-g", "--samples", "5", "extra"),
    ("cantor-g", "-h"),
    ("--",),
    ("--", "staircase"),
    ("-h",),
    ("stair",),
])
def test_a_subcommand_argv_parses_as_through_the_top_parser(capsys,
                                                            monkeypatch,
                                                            argv):
    # main hands an argv that starts with a subcommand's name to that
    # subcommand's parser; with no subcommand map every argv goes through
    # the top parser, and the exit code and both streams must not change
    got = run(capsys, *argv)
    top, _ = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: (top, {}))
    assert run(capsys, *argv) == got


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    want = run(capsys, "cantor-g", "--samples", "3")
    assert want[0] == 0
    monkeypatch.setattr(sys, "argv", ["falpha", "cantor-g", "--samples", "3"])
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == want


@pytest.mark.parametrize("argv", [
    ("diffusion", "--x", "0", "1e7", "1e-3"),
    ("staircase", "--samples", "10000000000"),
    ("friction", "--samples", "10000000000"),
    ("cantor-g", "--samples", "10000000000"),
])
def test_oversized_tables_exit_1_before_they_are_built(argv):
    # each would need far more than the 1 GiB the process may map
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "falpha.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=20, preexec_fn=_cap_memory)
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and "rows" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [
    ("staircase", "--samples", "1000001"),
    ("cantor-g", "--samples", "1000001"),
    ("friction", "--samples", "1000001"),
    ("diffusion", "--x", "0", "1", "1e-6", "--time", "1", "2"),
    ("diffusion", "--x", "0", "1000000", "1", "--time", "1"),
    ("diffusion", "--x", "0", "1e308", "1e-300"),
])
def test_the_row_cap_names_a_count_above_it(capsys, argv):
    # in 3 digits, every count from 1,000,001 to 1,004,999 read 1e+06
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    count = re.fullmatch(r"error: a table of (\S+) rows is more than the "
                         r"1000000 allowed\n", err).group(1)
    assert float(count) > 1000000


def test_differentiate_refuses_a_net_too_large_to_tabulate():
    # 2 * 4^16 net points: the enumeration stops past the row limit rather
    # than listing them all until memory runs out
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    spec = ('{"type":"gap_ifs","ratios":[0.2,0.2,0.2,0.2],'
            '"offsets":[0,0.26,0.52,0.8]}')
    done = subprocess.run([sys.executable, "-m", "falpha.cli",
                           "differentiate", "--set", spec, "--level", "16"],
                          env=env, capture_output=True, text=True,
                          timeout=20, preexec_fn=_cap_memory)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error:") and "points" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("spec, field", [
    ('{"type":"interval"}', "lo"),
    ('{"type":"gap_ifs"}', "ratios"),
    ('{"type":"finite"}', "points"),
    ('{"type":"gap_ifs","ratios":5,"offsets":[0,0.5]}', "ratios"),
    ('{"type":"interval","lo":[0],"hi":1}', "lo"),
    ('{"type":"cantor","scale":"wide"}', "scale"),
])
def test_set_with_a_missing_or_ill_typed_field_exits_1(spec, field):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "falpha.cli", "staircase",
                           "--set", spec], env=env, capture_output=True,
                          text=True, timeout=20)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error:") and field in done.stderr
    assert "Traceback" not in done.stderr


# strings that could pass for JSON layout: row breaks, quotes, escapes
_TRICKY = st.text(st.sampled_from('],[ "\\\n\té\u2028\U0001f600x'),
                  max_size=12)
_CELLS = st.one_of(st.floats(), st.integers(), st.booleans(), st.none(),
                   st.text(max_size=6), _TRICKY)


@settings(max_examples=300, deadline=None)
@given(columns=st.lists(st.one_of(st.text(max_size=6), _TRICKY), max_size=4),
       rows=st.lists(st.lists(_CELLS, max_size=4).map(tuple), max_size=6),
       meta=st.one_of(st.none(), st.dictionaries(
           st.one_of(st.text(max_size=6), _TRICKY), _CELLS, max_size=3)))
def test_json_tables_have_the_layout_of_json_dumps(columns, rows, meta):
    doc = {"columns": columns, "rows": rows}
    if meta:
        doc["meta"] = meta
    out = io.StringIO()
    cli._emit(out, "json", columns, rows, meta)
    assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


_SHAPED_ROWS = st.one_of(
    # ragged: rows of any width, empty ones too
    st.lists(st.lists(_CELLS, max_size=4).map(tuple), max_size=6),
    # every row k > 0 wide, as in every command's table
    st.integers(1, 4).flatmap(lambda k: st.lists(
        st.lists(_CELLS, min_size=k, max_size=k).map(tuple), max_size=6)))


@settings(max_examples=300, deadline=None)
@given(columns=st.lists(st.one_of(st.text(max_size=6), _TRICKY), max_size=4),
       meta=st.dictionaries(st.one_of(st.text(max_size=6), _TRICKY), _CELLS,
                            max_size=4))
@example(columns=[], meta={})
@example(columns=["x", "t", "density"],
         meta={"b": -0.0, "a": float("nan"), "c": float("inf"),
               "d": float("-inf"), "e": True, "f": None, "g": 3})
def test_json_heads_have_the_bytes_of_json_dumps(columns, meta):
    for value in (columns, meta):
        want = json.dumps({"k": value}, indent=2, sort_keys=True)
        assert '{\n  "k": ' + cli._head_item(value) + "\n}" == want


@settings(max_examples=300, deadline=None)
@given(columns=st.lists(st.one_of(st.text(max_size=6), _TRICKY), max_size=4),
       rows=_SHAPED_ROWS,
       meta=st.one_of(st.none(), st.dictionaries(
           st.one_of(st.text(max_size=6), _TRICKY), _CELLS, max_size=3)))
@example(columns=["a", "b"], rows=[(-0.0, float("nan")),
                                   (float("-inf"), True), (None, 3)],
         meta={"k": -0.0})
def test_csv_tables_have_the_layout_of_str_cells(columns, rows, meta):
    out = io.StringIO()
    cli._emit(out, "csv", columns, rows, meta)
    lines = [f"# {key} = {meta[key]}" for key in sorted(meta or ())]
    lines.append(",".join(columns))
    lines.extend(",".join(map(str, row)) for row in rows)
    assert out.getvalue() == "\n".join(lines) + "\n"


@st.composite
def _time_set(draw):
    """A gap IFS, plain or scaled and shifted, the middle-thirds set, or a
    point set, on which S is 0 at every time."""
    kind = draw(st.sampled_from(("ifs", "wrapped", "cantor", "points",
                                 "harmonic")))
    if kind == "cantor":
        return TernaryCantor()
    if kind == "harmonic":
        return HarmonicCluster()
    if kind == "points":
        pts = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4,
                            unique=True))
        return FinitePoints(tuple(sorted(pts)))
    base = draw(_gap_ifs())
    if kind == "wrapped":
        return Affine(base, draw(st.floats(0.5, 2.0)),
                      draw(st.floats(-0.5, 0.5)))
    return base


@settings(max_examples=150, deadline=None)
@given(spec=_time_set(),
       times=st.lists(st.one_of(st.sampled_from((0.0, 1.0 / 3.0, 1.0)),
                                st.floats(-0.5, 2.0)), min_size=1, max_size=4),
       lo=st.one_of(st.just(-0.0), st.floats(-3.0, 1.0)),
       hi=st.floats(-1.0, 3.0),
       step=st.one_of(st.sampled_from((0.1, 0.125, 0.25)),
                      st.floats(0.05, 1.0)),
       fmt=st.sampled_from(("csv", "json")))
@example(spec=TernaryCantor(), times=[1.0, 1.0, 0.0], lo=-1.0, hi=1.0,
         step=0.5, fmt="json")
@example(spec=TernaryCantor(), times=[1.0 / 3.0, 1.0], lo=-2.0, hi=2.0,
         step=0.25, fmt="csv")
@example(spec=GapIFS((0.4, 0.25), (0.0, 0.75)), times=[1.0 / 3.0, 1.0],
         lo=-1.5, hi=1.5, step=0.1, fmt="json")
@example(spec=TernaryCantor(), times=[0.5], lo=1.0, hi=-1.0, step=0.5,
         fmt="csv")
def test_diffusion_tables_are_the_table_of_their_values(spec, times, lo, hi,
                                                       step, fmt):
    # the command writes the texts of x and t once each, and each density
    # with physics._gaussian's bits: the bytes _emit writes for the rows of
    # values (x, t, density), with density 0.0 where S(t) <= 0
    text = json.dumps(spec_to_json(spec))
    spec = spec_from_json(json.loads(text))
    alpha = dimension._order(spec)
    stair = DiffusionParams(spec, alpha).stair
    xs, x = [], lo
    while x <= hi + 1e-12:
        xs.append(x)
        x += step
    rows = []
    for t in times:
        s = stair(t)
        rows.extend((x, t, _gaussian(x, s) if s > 0.0 else 0.0) for x in xs)
    want = io.StringIO()
    cli._emit(want, fmt, ("x", "t", "density"), rows, {"alpha": alpha})
    got = io.StringIO()
    with contextlib.redirect_stdout(got):
        code = main(["diffusion", "--set", text,
                     "--time", *map(repr, times),
                     "--x", repr(lo), repr(hi), repr(step), "--format", fmt])
    assert code == 0
    assert got.getvalue() == want.getvalue()


def _csv_table(text):
    lines = text.splitlines()
    meta = dict(line[2:].split(" = ", 1) for line in lines
                if line.startswith("# "))
    body = [line for line in lines if not line.startswith("# ")]
    return body[0].split(","), [line.split(",") for line in body[1:]], meta


@pytest.mark.parametrize("command", ["staircase", "mass", "dimension",
                                     "integrate", "differentiate", "cantor-g",
                                     "diffusion", "friction"])
def test_json_tables_round_trip_the_csv_cells(capsys, command):
    # CSV cells are the shortest round-trip text of each value, so a JSON
    # cell read back must spell the same text
    code, text, err = run(capsys, command)
    assert code == 0
    columns, rows, meta = _csv_table(text)
    code, text, err = run(capsys, command, "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["columns"] == columns
    assert [[str(v) for v in row] for row in doc["rows"]] == rows
    assert {k: str(v) for k, v in doc.get("meta", {}).items()} == meta
    # and JSON tables keep the layout of json.dumps(indent=2, sort_keys=True)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _table_set():
    """A set for a staircase table: one of ``_time_set``, or an interval."""
    return st.one_of(_time_set(), st.builds(FullInterval, st.floats(-1.0, 0.5),
                                           st.floats(0.6, 2.0)))


_ENDS = st.one_of(st.sampled_from((-0.0, 0.0)), st.floats(-2.0, 2.0))


@settings(max_examples=150, deadline=None)
@given(spec=_table_set(), a=_ENDS, b=_ENDS, samples=st.integers(0, 60),
       alpha=st.sampled_from(("auto", "1.0", "0.5")),
       fmt=st.sampled_from(("csv", "json")))
@example(spec=TernaryCantor(), a=-0.0, b=0.0, samples=3, alpha="auto",
         fmt="json")
@example(spec=FinitePoints((0.0, 0.5)), a=0.0, b=-0.0, samples=4,
         alpha="auto", fmt="csv")
@example(spec=HarmonicCluster(), a=-0.0, b=1.0, samples=40, alpha="auto",
         fmt="json")
@example(spec=TernaryCantor(), a=0.0, b=1.0, samples=256, alpha="auto",
         fmt="csv")
@example(spec=GapIFS((0.4, 0.25), (0.0, 0.75)), a=0.0, b=1.0, samples=256,
         alpha="auto", fmt="json")
@example(spec=Affine(TernaryCantor(), 3.0, -1.0), a=-1.0, b=2.0, samples=300,
         alpha="auto", fmt="csv")
def test_staircase_tables_are_the_table_of_their_values(spec, a, b, samples,
                                                        alpha, fmt):
    # the command maps the staircase over its points and writes each
    # plateau value's text once: the bytes _emit writes for the rows of
    # values (x, S(x), S(x) * Gamma(alpha + 1)), or exit code 1 where S
    # diverges or there are fewer than 2 samples
    if b < a:
        a, b = b, a
    text = json.dumps(spec_to_json(spec))
    spec = spec_from_json(json.loads(text))
    order = dimension._order(spec) if alpha == "auto" else float(alpha)
    stair = StaircaseEvaluator(spec, order, a0=a)
    gamma = gamma_factor(order)
    want = io.StringIO()
    rows = None
    if samples >= 2:
        try:
            rows = [(x, stair.value(x), stair.value(x) * gamma)
                    for x in cli._table_points(a, b, samples)]
        except ArithmeticError:
            pass
    if rows is not None:
        cli._emit(want, fmt, ("x", "staircase", "scaled_staircase"), rows,
                  {"alpha": order})
    got = io.StringIO()
    with contextlib.redirect_stdout(got), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["staircase", "--set", text, "--alpha", alpha,
                     "--range", repr(a), repr(b), "--samples", str(samples),
                     "--format", fmt])
    assert code == (0 if rows is not None else 1)
    assert got.getvalue() == want.getvalue()


@settings(max_examples=30, deadline=None)
@given(samples=st.integers(-2, 400), fmt=st.sampled_from(("csv", "json")))
@example(samples=243, fmt="json")
@example(samples=27, fmt="csv")
def test_cantor_g_tables_are_the_table_of_their_values(samples, fmt):
    # the bytes _emit writes for the rows (y, g(y), g(y) * Gamma(alpha + 1)),
    # or exit code 1 and no bytes for fewer than 2 samples
    n = samples
    rows = [(i / n, g_series(i / n), g_series(i / n) * GAMMA_ALPHA1)
            for i in range(1, n + 1)]
    want = io.StringIO()
    if n >= 2:
        cli._emit(want, fmt, ("y", "g", "scaled_g"), rows,
                  {"alpha": ALPHA, "g1": g_series(1.0)})
    got = io.StringIO()
    with contextlib.redirect_stdout(got), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["cantor-g", "--samples", str(samples), "--format", fmt])
    assert code == (0 if n >= 2 else 1)
    assert got.getvalue() == want.getvalue()


_WRAPPED_ASYM = ('{"type": "gap_ifs", "ratios": [0.4, 0.25], '
                 '"offsets": [0.0, 0.75], "scale": 1.3, "translate": 0.2}')


@pytest.mark.parametrize("argv, text, a, b", [
    ((), '{"type": "cantor"}', 0.0, 1.0),
    (("--set", _ASYM), _ASYM, 0.0, 1.0),
    (("--set", _WRAPPED_ASYM, "--range", "0.2", "1.5"),
     _WRAPPED_ASYM, 0.2, 1.5),
], ids=["cantor", "gap", "wrapped"])
def test_friction_tables_are_the_table_of_their_values(capsys, argv, text, a,
                                                       b):
    # a flight reads the Lebesgue moments of its set and order from a memo;
    # every row must still read back as the library's velocity and time at
    # its x, each computed on fresh params
    code, out, err = run(capsys, "friction", *argv, "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    meta = doc["meta"]
    assert doc["columns"] == ["x", "velocity", "time_of_flight"]
    assert (meta["v0"], meta["kappa"]) == (1.0, 0.5)

    def fresh():
        spec = spec_from_json(json.loads(text))
        return FrictionParams(spec, meta["alpha"], v0=1.0, x0=a, kappa=0.5)

    xs = [a + (b - a) * i / 15 for i in range(15)] + [b]
    want = [[repr(x), repr(friction_velocity(fresh(), x)),
             repr(time_of_flight(fresh(), x, tol=1e-6))] for x in xs]
    assert [list(map(repr, row)) for row in doc["rows"]] == want
    # each CSV cell is the repr of its JSON cell
    code, out, err = run(capsys, "friction", *argv)
    assert code == 0, err
    lines = out.splitlines()
    head = [f"# {k} = {meta[k]!r}" for k in sorted(meta)]
    assert lines[:4] == head + ["x,velocity,time_of_flight"]
    assert [line.split(",") for line in lines[4:]] == want


_PLATEAUS = (
    [0.0, -0.0],
    [-0.0, 0.0],
    [0.0, 0.0, 0.25, 0.25, -0.0, 1.0],
    [-0.0, -0.0, 1.0, 0.0, 0.0],
    [-0.0, -0.0],
    [0.0, 0.0, 0.5, 0.5, 0.5, 1.0],
    [math.nan, 0.5, math.nan, float("nan"), 0.5],
    [0.0, math.nan, -0.0, math.nan],
    [],
)


@pytest.mark.parametrize("column", _PLATEAUS)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_plateau_texts_are_the_texts_of_the_column(fmt, column):
    for factor in (1.0, -2.5, GAMMA_ALPHA1):
        assert cli._plateau_texts(fmt, column, factor) == (
            cli._texts(fmt, column),
            cli._texts(fmt, [v * factor for v in column]))


@settings(max_examples=200, deadline=None)
@given(column=st.lists(st.sampled_from((0.0, -0.0, 0.5, -1.0, math.nan,
                                        math.inf, -math.inf, 1e-300)),
                       max_size=12),
       factor=st.sampled_from((1.0, -1.0, 0.5, GAMMA_ALPHA1)),
       fmt=st.sampled_from(("csv", "json")))
def test_plateau_texts_of_any_column_of_floats(column, factor, fmt):
    assert cli._plateau_texts(fmt, column, factor) == (
        cli._texts(fmt, column),
        cli._texts(fmt, [v * factor for v in column]))


def test_plateau_texts_write_each_distinct_value_once(monkeypatch):
    # a staircase column starts at S(a0) = +0.0 and repeats its plateaus:
    # each distinct value, and its product, becomes text once
    seen = []
    texts = cli._texts

    def spy(fmt, values):
        seen.append(list(values))
        return texts(fmt, values)

    monkeypatch.setattr(cli, "_texts", spy)
    column = [0.0] * 5 + [0.25] * 3 + [0.5, 0.5, 1.0]
    cells, scaled = cli._plateau_texts("csv", column, 2.0)
    assert seen == [[0.0, 0.25, 0.5, 1.0], [0.0, 0.5, 1.0, 2.0]]
    assert cells == list(map(str, column))
    assert scaled == [str(v * 2.0) for v in column]
