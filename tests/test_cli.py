import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummer_lcd import (builtin_curve, construction_divisors, format_divisor, load_curve_spec,
                        lub_closure_membership, parse_divisor, parse_function)
from kummer_lcd import cli, curves, gf
from kummer_lcd.cli import main
from kummer_lcd.codes import DEFAULT_MINDIST_BUDGET

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_curve_info(capsys):
    report = run_json(capsys, "curve", "info", "--curve", "hermitian-q2")
    assert report["results"] == {
        "label": "hermitian-q2", "r": 2, "m": 3, "genus": 1,
        "num_rational_points": 9, "deg_standard_D": 6,
    }


def test_curve_info_from_spec_file(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "p": 2, "k": 4, "modulus": [1, 1, 0, 0, 1], "m": 5,
        "alphas": [[0, 0, 0, 0], [1, 0, 0, 0]], "label": "gf16-quotient"}))
    report = run_json(capsys, "curve", "info", "--curve", str(path))
    assert report["results"]["genus"] == 2
    assert report["results"]["num_rational_points"] == 33


def test_spec_dir_env(capsys, tmp_path, monkeypatch):
    path = tmp_path / "mycurve.json"
    path.write_text(json.dumps({
        "p": 2, "k": 2, "modulus": [1, 1, 1], "m": 3,
        "alphas": [[0, 0], [1, 0]], "label": "env-curve"}))
    monkeypatch.setenv("KUMMER_LCD_SPEC_DIR", str(tmp_path))
    report = run_json(capsys, "curve", "info", "--curve", "mycurve.json")
    assert report["results"]["label"] == "env-curve"


def test_spec_dir_env_finds_a_name_without_its_json_suffix(capsys, tmp_path, monkeypatch):
    (tmp_path / "mycurve.json").write_text(json.dumps({
        "p": 2, "k": 2, "modulus": [1, 1, 1], "m": 3,
        "alphas": [[0, 0], [1, 0]], "label": "env-curve"}))
    monkeypatch.setenv("KUMMER_LCD_SPEC_DIR", str(tmp_path))
    report = run_json(capsys, "curve", "info", "--curve", "mycurve")
    assert report["results"]["label"] == "env-curve"


def test_curve_points_roundtrip(capsys):
    curve = builtin_curve("hermitian-q2")
    report = run_json(capsys, "curve", "points", "--curve", "hermitian-q2")
    labels = report["results"]["points"]
    assert len(labels) == 9
    from kummer_lcd import parse_place
    assert [parse_place(curve, s) for s in labels] == list(curve.rational_points())


def test_rr_basis_roundtrip(capsys):
    curve = builtin_curve("hermitian-q2")
    report = run_json(capsys, "rr", "basis", "--curve", "hermitian-q2",
                      "--divisor", "3*Pinf+1*P1")
    assert report["results"]["dimension"] == 4
    for text in report["results"]["basis"]:
        parse_function(curve, text)
    assert parse_divisor(curve, report["inputs"]["divisor"]) == \
        parse_divisor(curve, "3*Pinf+1*P1")


def test_semigroup_outputs(capsys):
    report = run_json(capsys, "semigroup", "gaps", "--curve", "hermitian-q3")
    assert report["results"]["gaps"] == [1, 2, 5]
    report = run_json(capsys, "semigroup", "gamma", "--curve", "hermitian-q3",
                      "--tuple", "1,2")
    assert report["results"]["gamma"] == [[1, 5], [2, 2], [5, 1]]


def test_nonspecial_commands(capsys):
    report = run_json(capsys, "nonspecial", "--curve", "hermitian-q3",
                      "--degree", "g")
    assert report["results"]["divisor"] == "1*P1+2*P2"
    assert report["results"]["ell"] == 1
    report = run_json(capsys, "nonspecial", "--curve", "hermitian-q3",
                      "--degree", "g-1", "--minus", "P3")
    assert report["results"]["divisor"] == "1*P1+2*P2-1*P3"
    assert report["results"]["ell"] == 0


def test_code_build_and_matrix_csv(capsys, tmp_path):
    out = tmp_path / "gen.csv"
    report = run_json(capsys, "code", "build", "--curve", "hermitian-q2",
                      "--G", "3*Pinf+1*P1", "--out", str(out))
    assert report["results"]["n"] == 6 and report["results"]["k"] == 4
    assert report["results"]["lcd"] is True
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5
    header = lines[0].split(",", 1)[1]
    assert header.count("[") == 12  # six (a,b) column labels
    # entries re-parse to field elements
    from kummer_lcd import parse_element
    curve = builtin_curve("hermitian-q2")
    cell = lines[1].split('","')[1].strip('"')
    parse_element(curve.field, cell)


def test_code_dual_hull_mindist(capsys):
    report = run_json(capsys, "code", "dual", "--curve", "hermitian-q2",
                      "--G", "3*Pinf+1*P1")
    assert report["results"]["k"] == 2
    report = run_json(capsys, "code", "hull", "--curve", "hermitian-q2",
                      "--G", "3*Pinf+1*P1")
    assert report["results"]["hull_dim"] == 0 and report["results"]["lcd"]
    report = run_json(capsys, "code", "mindist", "--curve", "hermitian-q2",
                      "--G", "3*Pinf+1*P1")
    assert report["results"]["d"] == 2 and report["results"]["exact"]


def test_lcd_check_constructions(capsys):
    report = run_json(capsys, "code", "lcd-check", "--construction", "hermitian",
                      "--q", "2")
    assert all(check["pass"] for check in report["checks"])
    assert len(report["results"]["runs"]) == 2
    report = run_json(capsys, "code", "lcd-check", "--construction", "curve1",
                      "--q", "4")
    run = report["results"]["runs"][0]
    assert run["k"] == 16 and run["certificate"]["lcd"]


def test_lcd_check_maxcur_explicit_divisor(capsys):
    report = run_json(capsys, "code", "lcd-check", "--construction", "maxcur",
                      "--curve", "hermitian-q2", "--G", "3*Pinf+1*P1")
    cert = report["results"]["runs"][0]["certificate"]
    assert cert["family"] == "maximal" and cert["lcd"]
    assert cert["H"] == "1*P1+2*P2-1*Pinf"
    # a failing hypothesis exits nonzero and flags the window
    code, out, _ = run_cli(capsys, "code", "lcd-check", "--construction",
                           "maxcur", "--curve", "hermitian-q2", "--G", "5*P1+1*P2")
    assert code == 1
    cert = json.loads(out)["results"]["runs"][0]["certificate"]
    assert cert["checks"]["degree_window"] is False


def test_verify_paper_examples(capsys):
    report = run_json(capsys, "verify", "paper-examples", "--which", "hermitian-q2")
    assert report["results"]["failed"] == 0
    assert any("matrix-G-entries" in c["name"] for c in report["checks"])


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "rr", "basis", "--curve", "hermitian-q2",
                           "--divisor", "junk")
    assert code == 2 and "parse error" in err
    code, _, err = run_cli(capsys, "code", "build", "--curve", "hermitian-q2",
                           "--G", "7*Pinf")
    assert code == 1 and "precondition" in err
    code, _, err = run_cli(capsys, "curve", "info", "--curve", "missing.json")
    assert code == 2
    # refused from the closed-form dimension, before any function is built
    code, out, err = run_cli(capsys, "rr", "basis", "--curve", "hermitian-q2",
                             "--divisor", "100000000*Pinf")
    assert code == 1 and out == "" and err.startswith("precondition violated:")
    assert "ell = 100000000" in err and "MAX_RR_DIMENSION = 1024" in err
    code, out, err = run_cli(capsys, "verify", "paper-examples", "--which", "bogus")
    assert code == 2 and out == "" and err.startswith("parse error:")
    assert "'bogus'" in err and "hermitian-q2, example1" in err and "or all" in err
    for argv in (["hermitian", "--q", "-3"], ["hermitian", "--q", "0"],
                 ["curve1", "--q", "-4"], ["curve2", "--q", "2", "--r", "-3"]):
        code, out, err = run_cli(capsys, "code", "lcd-check", "--construction", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("parse error: --q and --r must be positive"), argv
    # a ramified index outside 1..r is malformed text, not a failed precondition
    for argv, r in ((["semigroup", "gamma", "--curve", "hermitian-q3", "--tuple", "1,9"], 3),
                    (["nonspecial", "--curve", "hermitian-q3", "--degree", "g-1",
                      "--minus", "P9"], 3),
                    (["code", "build", "--curve", "hermitian-q2", "--G", "3*P9"], 2)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"parse error: ramified index 9 out of range 1..{r}\n", argv
    code, out, err = run_cli(capsys, "nonspecial", "--curve", "hermitian-q3",
                             "--degree", "g-1", "--minus", "P0")
    assert (code, out, err) == (2, "", "parse error: ramified index 0 out of range 1..3\n")


@pytest.mark.parametrize("index", [0, 4])
@pytest.mark.parametrize("entry", ["parse_place", "cmd_semigroup", "ramified_index",
                                   "semigroup._check_query"])
def test_each_entry_point_refuses_a_ramified_index_out_of_range(capsys, entry, index):
    # one check, in KummerCurve.ramified_index: the two parsers pass
    # ParseError (exit 2), and the API keeps ValueError (exit 1 in the CLI)
    message = f"ramified index {index} out of range 1..3"
    argv = {"parse_place": ["code", "build", "--curve", "hermitian-q3", "--G", f"3*P{index}"],
            "cmd_semigroup": ["semigroup", "gamma", "--curve", "hermitian-q3",
                              "--tuple", f"1,{index}"]}
    if entry in argv:
        assert run_cli(capsys, *argv[entry]) == (2, "", f"parse error: {message}\n")
        return
    h3 = builtin_curve("hermitian-q3")
    call = {"ramified_index": lambda: h3.ramified_index(index),
            "semigroup._check_query": lambda: lub_closure_membership(h3, (1, index), (1, 1))}
    with pytest.raises(ValueError) as err:
        call[entry]()
    assert type(err.value) is ValueError and str(err.value) == message


GOOD_SPEC = {"p": 2, "k": 2, "modulus": [1, 1, 1], "m": 3,
             "alphas": [[0, 0], [1, 0]], "label": "hermitian-q2"}


@pytest.mark.parametrize("key, value", [
    ("alphas", 5), ("alphas", [None, [1, 0]]), ("alphas", [[0, 0], [1, "x"]]),
    ("alphas", [[0.5, 0], [1, 0]]), ("alphas", ["b", "a"]), ("alphas", [[0, 0, 0], [1, 0]]),
    ("modulus", "ab"), ("modulus", [1, 1, 1.9]), ("modulus", [1, 1]), ("modulus", [1, 1, 0, 1]),
    ("p", "2"), ("p", True), ("k", 2.0),
    ("m", None), ("label", 5), ("modulus", [1, 1, 0]),
])
def test_malformed_curve_spec_is_a_parse_error(capsys, tmp_path, key, value):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**GOOD_SPEC, key: value}))
    code, out, err = run_cli(capsys, "curve", "info", "--curve", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: malformed curve spec: {key!r}")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("change, message", [
    ({"modulus": [1, 0, 1]}, "modulus [1, 0, 1] is reducible over GF(2)"),
    ({"alphas": [[1, 0], [1, 0]]}, "duplicate roots in the defining product"),
    ({"p": 4}, "characteristic 4 is not prime"),
    # a p below 2 has no residues to read a leading 1 in: the field names it
    ({"p": 1, "modulus": [1, 1, 0]}, "characteristic 1 is not prime"),
    ({"p": 0, "modulus": [1, 1, 0]}, "characteristic 0 is not prime"),
])
def test_curve_spec_that_fails_mathematically_exits_1(capsys, tmp_path, change, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**GOOD_SPEC, **change}))
    code, out, err = run_cli(capsys, "curve", "info", "--curve", str(path))
    assert (code, out, err) == (1, "", f"precondition violated: {message}\n")


@pytest.mark.parametrize("content, message", [
    (None, "no such file and not a builtin curve name"),  # a directory
    (b'{"p": 2, "label": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    (b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth exceeded"),
], ids=["directory", "not-utf-8", "nested-too-deep"])
def test_a_curve_path_that_is_no_readable_spec_is_a_parse_error(
        capsys, tmp_path, content, message):
    """A directory is skipped as a --curve candidate; a file that cannot be
    decoded or parsed is a parse error naming it."""
    path = tmp_path / "spec"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, out, err = run_cli(capsys, "curve", "info", "--curve", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and message in err and str(path) in err
    assert err.count("\n") == 1


def test_an_out_path_that_cannot_be_opened_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "code", "build", "--curve", "hermitian-q2",
                             "--G", "3*Pinf", "--out", str(path))
    assert (code, out, err) == (2, "", f"parse error: --out {path}: No such file or directory\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_an_out_path_that_cannot_be_written_is_a_parse_error(capsys):
    # /dev/full opens, and the write fails when the file is flushed at close
    code, out, err = run_cli(capsys, "code", "build", "--curve", "hermitian-q2",
                             "--G", "3*Pinf", "--out", "/dev/full")
    assert (code, out, err) == (2, "", "parse error: --out /dev/full: No space left on device\n")


def test_huge_coefficients_build_the_code_of_their_residues(capsys, tmp_path):
    # 99999999999999999999 = 3N with 3 | N: the divisor of h^N, h = (y - alpha_1)
    # / (y - alpha_2), which is 1 on the affine places of hermitian-q2
    huge, zero = tmp_path / "huge.csv", tmp_path / "zero.csv"
    for G, path in (("99999999999999999999*P1-99999999999999999999*P2", huge), ("0", zero)):
        run_json(capsys, "code", "build", "--curve", "hermitian-q2", "--G", G, "--out", str(path))
    assert huge.read_bytes() == zero.read_bytes()


def test_huge_coefficients_are_refused_before_any_function_is_built(capsys):
    code, out, err = run_cli(capsys, "rr", "basis", "--curve", "hermitian-q2", "--divisor",
                             "99999999999999999999*P1-99999999999999999999*P2")
    assert (code, out) == (1, "")
    assert err == ("precondition violated: a numerator of degree 33333333333333333333 "
                   "is above the cap MAX_RR_DIMENSION = 1024\n")


def _child(argv):
    """Exit code, stdout and stderr of the CLI run in a child process under a
    5 s timeout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "kummer_lcd.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=5)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv, spec, code, message", [
    # GF factorised q^2 by trial division
    (["curve", "info", "--curve", "hermitian-q100000000007"], None, 1,
     "precondition violated: 10000000001400000000049 is not a prime power"),
    # GF divided a 200 002-bit integer by 2 once per bit
    # GF(65537^2) has no factor below 2^16: its order is refused, not read as a prime
    (["curve", "info", "--curve", "hermitian-q65537"], None, 1,
     "precondition violated: field size 4295098369 exceeds MAX_FIELD_SIZE = 65536 "
     "and has no factor below 2^16"),
    (["curve", "info", "--curve", f"hermitian-q{65521 * 65537}"], None, 1,
     f"precondition violated: {(65521 * 65537) ** 2} is not a prime power"),
    (["code", "lcd-check", "--construction", "curve2", "--q", "2", "--r", "100001"], None, 1,
     "precondition violated: field size 2^200002 exceeds the supported desk scale"),
    # FieldSpec tested a 31-digit p for primality by trial division
    (["curve", "info", "--curve"], {"p": 10 ** 30 + 57, "k": 1}, 1,
     f"precondition violated: field size {10 ** 30 + 57}^1 exceeds the supported desk scale"),
    # FieldSpec formed 2^(10^9)
    (["curve", "info", "--curve"], {"p": 2, "k": 10 ** 9}, 1,
     "precondition violated: field size 2^1000000000 exceeds the supported desk scale"),
    # a family that formed its polynomial's degree 3^(r-1) or its m = 3^r + 1
    # before the size cap ran for seconds
    (["curve", "info", "--curve", "norm-trace-q3-r1000000000"], None, 1,
     "precondition violated: field size 3^1000000000 exceeds the supported desk scale"),
    (["curve", "info", "--curve", "curve2-q3-r1000000001"], None, 1,
     "precondition violated: field size 3^2000000002 exceeds the supported desk scale"),
    # FieldSpec tested a 31-digit p for primality, with no bound, before
    # reading k; the least-factor search stops at 2^16
    (["curve", "info", "--curve"], {"p": 10 ** 30 + 57, "k": 0}, 1,
     "precondition violated: extension degree must be >= 1"),
    (["curve", "info", "--curve"], {"p": 10 ** 30 + 57, "k": -1}, 1,
     "precondition violated: extension degree must be >= 1"),
], ids=["hermitian-q-large", "hermitian-q65537", "hermitian-q65521x65537",
        "curve2-r-large", "spec-p-large", "spec-k-large",
        "norm-trace-r-large", "curve2-q3-r-large", "spec-k-zero", "spec-k-negative"])
def test_a_field_past_the_size_cap_is_refused_at_once(tmp_path, argv, spec, code, message):
    """Each command refuses before any arithmetic on the field. A child process
    under a 5 s timeout turns a long run into a failure rather than a hang."""
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**GOOD_SPEC, "modulus": None, **spec}))
        argv = argv + [str(path)]
    assert _child(argv) == (code, "", message + "\n")


HUGE_M = "r * m = 2 * 1000000007 = 2000000014 is above the cap MAX_CURVE_WORK = 262144"


@pytest.mark.parametrize("argv, message", [
    # the gap set, the degree-g recipe and the L(G) components loop over m
    (["semigroup", "gaps", "--curve", "spec.json"], HUGE_M),
    (["nonspecial", "--curve", "spec.json", "--degree", "g"], HUGE_M),
    (["rr", "basis", "--curve", "spec.json", "--divisor", "3*Pinf"], HUGE_M),
    (["curve", "info", "--curve", "spec.json"], HUGE_M),
    # C(32, 20) vectors
    (["semigroup", "gamma", "--curve", "hermitian-q32", "--tuple",
      ",".join(str(i) for i in range(1, 21))],
     "the generating set for 20 places has 225792840 vectors, "
     "above the cap MAX_GENERATORS = 262144"),
], ids=["gaps-m-large", "nonspecial-m-large", "rr-m-large", "info-m-large",
        "gamma-h32-20-places"])
def test_a_curve_or_generating_set_past_its_cap_is_refused_at_once(tmp_path, argv, message):
    """A huge m and a huge generating set are refused before the loops over
    them; the child process runs under a 5 s timeout."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**GOOD_SPEC, "modulus": None, "m": 1000000007}))
    argv = [str(path) if arg == "spec.json" else arg for arg in argv]
    assert _child(argv) == (1, "", f"precondition violated: {message}\n")


@pytest.mark.parametrize("name, q, r, reason", [
    ("curve2-q2-r2", "2", "2", "this family needs r odd"),
    ("hermitian-q6", "6", None, "36 is not a prime power"),
    ("curve1-q6", "6", None, "this family needs q a power of 2 with 4 | q"),
    ("hermitian-q256", "256", None,
     "r * N = 256 * 65536 = 16777216 is above the cap MAX_CURVE_WORK = 262144"),
])
def test_a_builtin_name_with_refused_parameters_gives_the_familys_reason(
        capsys, name, q, r, reason):
    construction = name.split("-")[0]
    lcd_check = ["code", "lcd-check", "--construction", construction, "--q", q]
    lcd_check += ["--r", r] if r else []
    want = (1, "", f"precondition violated: {reason}\n")
    assert _call(capsys, lcd_check) == want
    for argv in (["curve", "info", "--curve", name],
                 ["code", "build", "--curve", name, "--G", "3*Pinf"],
                 ["code", "lcd-check", "--construction", "maxcur", "--curve", name,
                  "--G", "3*Pinf"]):
        assert _call(capsys, argv) == want, argv


@pytest.mark.parametrize("name", ["hermitian", "hermitian-q", "hermitian-q0", "hermitian-qx",
                                  "curve2-q2", "curve2-q2-r0", "norm-trace-q0-r3",
                                  "hermitian-q3 "])
def test_a_name_that_matches_no_family_is_a_parse_error(capsys, name):
    assert _call(capsys, ["curve", "info", "--curve", name]) == (
        2, "", f"parse error: curve {name!r}: no such file and not a builtin curve name\n")


@pytest.mark.parametrize("argv, spec, work", [
    (["curve", "info", "--curve", "hermitian-q256"], None, "256 * 65536 = 16777216"),
    (["curve", "points", "--curve", "curve1-q256"], None, "128 * 65536 = 8388608"),
    (["curve", "info", "--curve", "norm-trace-q2-r16"], None, "32768 * 65536 = 2147483648"),
    (["curve", "info", "--curve", "hermitian-q128"], None, "128 * 16384 = 2097152"),
    (["code", "lcd-check", "--construction", "curve1", "--q", "128"], None,
     "64 * 16384 = 1048576"),
    (["curve", "points", "--curve"], {"p": 65521, "k": 1, "m": 3, "alphas": [0, 1, 2, 3, 4]},
     "5 * 65521 = 327605"),
], ids=["hermitian-q256", "curve1-q256", "norm-trace-q2-r16", "hermitian-q128",
        "curve1-q128", "spec-r5-p65521"])
def test_a_curve_past_the_work_cap_is_refused_at_once(tmp_path, argv, spec, work):
    """r * N bounds the root search and the point listing; a curve above the
    cap is refused before either, in a child process under a 5 s timeout."""
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = argv + [str(path)]
    assert _child(argv) == (1, "", f"precondition violated: r * N = {work} is above "
                                   f"the cap MAX_CURVE_WORK = 262144\n")


@pytest.mark.parametrize("alphas", [["0", "1", "a", "a^2", "a^3"], ["0", "1", "a", "a", "a^3"],
                                    ["0", "1", "a", "a^2", "b"]],
                         ids=["distinct", "duplicate", "malformed"])
def test_a_spec_past_the_work_cap_is_refused_before_its_field_tables(
        tmp_path, capsys, monkeypatch, alphas):
    """GF(2^16) with five roots: r * N is checked on the spec itself, so the
    tables of a field the curve could never use are not built."""
    def no_tables(self, *args):
        raise AssertionError("field tables built")

    monkeypatch.setattr(gf.FieldSpec, "_build_tables", no_tables)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"p": 2, "k": 16, "m": 3, "alphas": alphas}))
    assert _call(capsys, ["curve", "info", "--curve", str(path)]) == (
        1, "", "precondition violated: r * N = 5 * 65536 = 327680 is above "
               "the cap MAX_CURVE_WORK = 262144\n")


def test_the_work_cap_admits_hermitian_q64():
    assert curves.MAX_CURVE_WORK == 64 * 64 ** 2
    curves._check_curve_work(64, 64 ** 2)
    with pytest.raises(ValueError, match="above the cap"):
        curves._check_curve_work(65, 64 ** 2)


@pytest.mark.parametrize("name", ["curve1-q4", "curve2-q2-r3", "hermitian-q2",
                                  "hermitian-q3", "hermitian-q4", "norm-trace-q2-r3"])
def test_bundled_spec_files_load(name):
    spec_file = Path(__file__).resolve().parent.parent / "specs" / f"{name}.json"
    assert load_curve_spec(str(spec_file)) == builtin_curve(name)


def test_json_output_is_deterministic(capsys):
    first = run_cli(capsys, "curve", "info", "--curve", "hermitian-q3")[1]
    second = run_cli(capsys, "curve", "info", "--curve", "hermitian-q3")[1]
    assert first == second


def test_pretty_output(capsys):
    code, out, _ = run_cli(capsys, "curve", "info", "--curve", "hermitian-q2",
                           "--pretty")
    assert code == 0 and "genus: 1" in out


def test_semigroup_tuple_with_junk_is_a_parse_error(capsys):
    code, _, err = run_cli(capsys, "semigroup", "gamma", "--curve", "hermitian-q3",
                           "--tuple", "1,x")
    assert code == 2 and "parse error" in err


def test_semigroup_empty_tuple_is_a_parse_error(capsys):
    code, out, err = run_cli(capsys, "semigroup", "gamma", "--curve", "hermitian-q3",
                             "--tuple=")
    assert code == 2 and out == ""
    assert err.startswith("parse error: --tuple '': ")


@pytest.mark.parametrize("minus_arg", ["garbage", "P3", "Pinf", ""])
def test_nonspecial_degree_g_refuses_a_minus(capsys, minus_arg):
    code, out, err = run_cli(capsys, "nonspecial", "--curve", "hermitian-q3",
                             "--degree", "g", f"--minus={minus_arg}")
    assert code == 2 and out == ""
    assert err == "parse error: --minus applies to --degree g-1 only\n"


@pytest.mark.parametrize("minus_arg", ["", " "])
def test_nonspecial_empty_minus_is_a_parse_error(capsys, minus_arg):
    # an empty --minus reaches the place parser, as a blank one does
    code, out, err = run_cli(capsys, "nonspecial", "--curve", "hermitian-q3",
                             "--degree", "g-1", f"--minus={minus_arg}")
    assert code == 2 and out == ""
    assert err == f"parse error: bad place {minus_arg!r}\n"


@pytest.mark.parametrize("tuple_arg", ["a,b", "1,9", "1,2"])
def test_semigroup_gaps_refuses_a_tuple(capsys, tuple_arg):
    code, out, err = run_cli(capsys, "semigroup", "gaps", "--curve", "hermitian-q2",
                             "--tuple", tuple_arg)
    assert code == 2 and out == ""
    assert err == "parse error: --tuple applies to semigroup gamma only\n"


def test_semigroup_gaps_output_is_pinned(capsys):
    code, out, err = run_cli(capsys, "semigroup", "gaps", "--curve", "hermitian-q3")
    assert code == 0 and err == ""
    assert out == json.dumps({
        "command": "semigroup gaps",
        "inputs": {"curve": "hermitian-q3", "tuple": None},
        "results": {"gaps": [1, 2, 5]},
        "checks": []}, indent=2) + "\n"


@pytest.mark.parametrize("option, value, argv", [
    ("--G", "-1*Pinf", ["code", "build", "--curve", "hermitian-q2"]),
    ("--G", "-Pinf", ["code", "build", "--curve", "hermitian-q2", "--pretty"]),
    ("--G", "-2*P1+4*Pinf", ["code", "hull", "--curve", "hermitian-q2"]),
    ("--divisor", "-5*P1+30*P2", ["rr", "basis", "--curve", "hermitian-q2"]),
    ("--minus", "-1*P1", ["nonspecial", "--curve", "hermitian-q3", "--degree", "g-1"]),
])
def test_divisor_value_may_start_with_minus(capsys, option, value, argv):
    spaced = argv + [option, value]
    code, out, err = run_cli(capsys, *argv, f"{option}={value}")
    assert (main(spaced),) + tuple(capsys.readouterr()) == (code, out, err)
    assert spaced == argv + [option, value]  # the caller's list is left as it was
    if option == "--minus":  # no place starts with "-": the place parser says so
        assert code == 2 and err.startswith("parse error:")
    else:
        assert code == 0, err


def _call(capsys, argv):
    """Exit code, stdout and stderr of one main() call, SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return (code,) + tuple(capsys.readouterr())


@pytest.mark.parametrize("argv, missing", [
    (["rr", "basis", "--curve", "hermitian-q2", "--div", "5*P1"], "required: --divisor"),
    (["rr", "basis", "--curve", "hermitian-q2", "--div", "-5*P1"], "required: --divisor"),
    (["code", "build", "--cur", "hermitian-q2", "--G", "4*Pinf"], "required: --curve"),
    (["semigroup", "gamma", "--curve", "hermitian-q3", "--tup", "1,2"],
     "unrecognized arguments: --tup 1,2"),
    (["--he"], "required: command"),
])
def test_option_prefixes_are_not_options(capsys, argv, missing):
    """An option is named in full, whether or not its value starts with "-"."""
    code, out, err = _call(capsys, argv)
    assert code == 2 and out == ""
    assert missing in err


# option rows: (name, default, required, choices, type, nargs, help)
CURVE = ("--curve", None, True, None, None, None, None)
G = ("--G", None, True, None, None, None, None)
D = ("--D", "standard", False, None, None, None, None)
OUT = ("--out", None, False, None, None, None, "write the matrix as CSV")
PRETTY = ("--pretty", False, False, None, None, 0, "human-readable tables instead of JSON")
GROUP_HELP = [("curve", "curve data"), ("rr", "Riemann-Roch spaces"),
              ("semigroup", "gap sets and minimal generators"),
              ("nonspecial", "explicit non-special divisors"),
              ("code", "evaluation codes"), ("verify", "bundled end-to-end checks")]
# every command, in the order --help lists them: its handler's name and options
PARSER_INVENTORY = {
    ("curve", "info"): ("cmd_curve_info", [CURVE, PRETTY]),
    ("curve", "points"): ("cmd_curve_points", [CURVE, PRETTY]),
    ("rr", "basis"): ("cmd_rr_basis", [
        CURVE, ("--divisor", None, True, None, None, None, None), PRETTY]),
    ("semigroup",): ("cmd_semigroup", [
        ("what", None, True, ["gaps", "gamma"], None, None, None), CURVE,
        ("--tuple", None, False, None, None, None,
         "comma-separated ramified indices, e.g. 1,2,3"), PRETTY]),
    ("nonspecial",): ("cmd_nonspecial", [
        CURVE, ("--degree", None, True, ["g", "g-1"], None, None, None),
        ("--minus", None, False, None, None, None,
         "place to subtract for degree g-1 (default Pinf)"), PRETTY]),
    ("code", "build"): ("cmd_code", [CURVE, G, D, OUT, PRETTY]),
    ("code", "dual"): ("cmd_code", [CURVE, G, D, OUT, PRETTY]),
    ("code", "hull"): ("cmd_code", [CURVE, G, D, OUT, PRETTY]),
    ("code", "lcd-check"): ("cmd_code_lcd_check", [
        ("--construction", None, True, ["maxcur", "curve1", "curve2", "hermitian"],
         None, None, None),
        ("--q", None, False, None, int, None, None),
        ("--r", None, False, None, int, None, None),
        ("--curve", None, False, None, None, None, None),
        ("--G", None, False, None, None, None, None),
        ("--allow-remark-family", False, False, None, None, 0, None), PRETTY]),
    ("code", "mindist"): ("cmd_code_mindist", [
        CURVE, G, D, ("--budget", DEFAULT_MINDIST_BUDGET, False, None, int, None, None),
        PRETTY]),
    ("verify", "paper-examples"): ("cmd_verify", [
        ("--which", "all", False, None, None, None, None), PRETTY]),
}


def _subparsers(parser):
    return [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]


def _commands(parser, words=()):
    """(words, parser) of each command below parser, in the order --help lists them."""
    if not _subparsers(parser):
        yield words, parser
    for action in _subparsers(parser):
        for name, child in action.choices.items():
            yield from _commands(child, words + (name,))


def test_the_parser_declares_every_command_and_option():
    """The groups, commands, handlers and options, in order, with each
    option's default, requirement, choices, type, arity and help."""
    parser = cli._build_parser.__wrapped__()
    assert [(a.dest, a.help) for a in _subparsers(parser)[0]._choices_actions] == GROUP_HELP
    built = {words: (command.get_default("handler"), [
        ((a.option_strings or [a.dest])[0], a.default, a.required, a.choices, a.type,
         a.nargs, a.help) for a in command._actions if not isinstance(a, argparse._HelpAction)])
        for words, command in _commands(parser)}
    assert list(built) == list(PARSER_INVENTORY)
    assert built == PARSER_INVENTORY
    assert not any(command.allow_abbrev for _, command in _commands(parser))


def test_each_call_parses_as_the_parser_of_every_command(capsys, tmp_path, monkeypatch):
    """main() reuses one parser; every call in one process, help and argparse
    errors included, prints what a freshly built parser prints, and no call
    leaves state to the next."""
    csv_path = tmp_path / "dual.csv"
    mindist = ["code", "mindist", "--curve", "hermitian-q2", "--G", "3*Pinf+1*P1"]
    build = ["code", "build", "--curve", "hermitian-q2", "--G", "3*Pinf+1*P1"]
    sequence = [
        mindist + ["--budget", "1"], mindist,  # the default budget applies again
        build + ["--pretty"], build,  # JSON again after --pretty
        ["code", "dual", "--curve", "hermitian-q2", "--G", "4*Pinf", "--out", str(csv_path)],
        ["code", "hull", "--curve", "hermitian-q2"],  # no --G: SystemExit(2)
        ["curve", "info", "--curve", "hermitian-q2"],
        ["code", "lcd-check", "--help"],  # SystemExit(0)
        ["semigroup", "gamma", "--curve", "hermitian-q3", "--tuple", "1,2"],
        ["code", "lcd-check", "--construction", "hermitian"],  # no --q: exit 2
        ["code", "lcd-check", "--construction", "hermitian", "--q", "2"],
        ["--help"], ["code", "--help"], ["semigroup", "--help"], ["verify", "-h"],
        [], ["code"], ["bogus"], ["code", "bogus"], ["semigroup", "bogus"],
        ["--pretty", "curve", "info"], ["code", "--pretty", "build"],
        ["--", "curve", "info", "--curve", "hermitian-q2"],
        ["rr", "basis", "--curve", "hermitian-q2", "--divisor", "-1*P1+3*Pinf"],
        ["nonspecial", "--curve", "hermitian-q3", "--degree", "g-1", "--minus", "P1"],
        ["verify", "paper-examples", "--which", "bogus"],
    ]

    def run():
        results = []
        for argv in sequence:
            result = _call(capsys, argv)
            if "--out" in argv:
                result += (csv_path.read_bytes(),)
                csv_path.unlink()
            results.append(result)
        return results

    runs = run()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert runs == run()
    assert [r[0] for r in runs[:11]] == [0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 0]
    assert all(code == 0 and out.startswith("usage: ") for code, out, _ in runs[11:15])
    assert json.loads(runs[0][1])["inputs"]["budget"] == 1
    assert json.loads(runs[1][1])["inputs"]["budget"] == DEFAULT_MINDIST_BUDGET
    assert runs[4][3].startswith(b"function,")


def test_a_traced_call_after_a_plain_one_records_the_commands(capsys, monkeypatch):
    """Each call binds its command when it runs: wrappers installed between
    two calls see the second one."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from tracing import NAME, Tracer, layer_metrics

    argv = ["code", "lcd-check", "--construction", "hermitian", "--q", "3"]
    assert main(list(argv)) == 0
    tracer = Tracer()
    tracer.install()
    try:
        assert main(list(argv)) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert [s[NAME] for s in tracer.spans].count("cli.cmd_code_lcd_check") == 1
    assert layer_metrics(tracer)["codes.hull_calls_per_cert"] == ("ratio", 3.0)


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    """After one call, output, argparse errors, help and parse errors alike
    construct no ArgumentParser, and each exits as on a freshly built parser."""
    sequence = [
        ["curve", "info", "--curve", "hermitian-q2"],
        ["curve", "points", "--curve", "hermitian-q2", "--pretty"],
        ["code", "hull", "--curve", "hermitian-q2"],  # no --G: SystemExit(2)
        ["code", "lcd-check", "--help"],  # SystemExit(0)
        ["curve", "info", "--curve", "missing.json"],  # ParseError: exit 2
    ]
    _call(capsys, sequence[0])
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
    runs = [_call(capsys, argv) for argv in sequence]
    assert built == []
    assert [r[0] for r in runs] == [0, 0, 2, 0, 2]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert runs == [_call(capsys, argv) for argv in sequence]
    assert built


COMMAND_OPTIONS = {(group, name) if name else (group,): options + (cli._PRETTY,)
                   for group, _, name, _, options in cli._COMMANDS}
COMMAND_WORDS = list(COMMAND_OPTIONS)
OPTION_NAMES = sorted({option for *_, options in cli._COMMANDS
                       for option, _ in options + (cli._PRETTY,) if option.startswith("-")})
VALUES = ["hermitian-q2", "3*Pinf", "-1*P1", "1", "-5", "0", "x", "gaps", "gamma", "g", "g-1",
          "hermitian", "maxcur", "1,2", "", "all", "standard", "a b"]


@st.composite
def grammar_argv(draw):
    """An argv from the words and options of _COMMANDS: exact and misspelt
    command words, then, after exact words, often the command's declared
    options with values of their kind, then options with and without
    values, --opt=value, repeats, junk, -h and --."""
    words = draw(st.sampled_from(COMMAND_WORDS) | st.sampled_from([
        (), ("code",), ("cod", "mindist"), ("code", "mindis"), ("Code", "build"),
        ("semigroups",), ("mindist",), ("code", "--"), ("--", "code", "mindist"),
        ("-h",), ("code", "-h"), ("--pretty", "curve", "info"), ("code", "mindist", "code")]))
    option = st.sampled_from(OPTION_NAMES + ["-h", "--help", "--bogus", "-x", "--cur"])
    token = (option | st.sampled_from(VALUES) | st.sampled_from(["--", "-", "junk"])
             | st.builds("{}={}".format, option, st.sampled_from(VALUES)))
    pairs = st.tuples(option, st.sampled_from(VALUES)) | st.tuples(token)
    declared = []
    if words in COMMAND_OPTIONS and draw(st.booleans()):
        for name, kwargs in COMMAND_OPTIONS[words]:
            positional = not name.startswith("-")
            if not positional and not kwargs.get("required") and draw(st.booleans()):
                continue
            declared += [] if positional else [name]
            if kwargs.get("action") != "store_true":
                kinds = kwargs.get("choices") or (["1", "3"] if kwargs.get("type") is int
                                                  else VALUES)
                declared.append(draw(st.sampled_from(kinds)))
    extra = draw(st.lists(pairs, max_size=2 if declared else 6))
    return list(words) + declared + [t for pair in extra for t in pair]


def _parse_outcome(parse, argv):
    """The namespace of one parse, or its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(grammar_argv())
def test_the_command_parser_parses_as_the_whole_tree(argv):
    """main parses with the parser its first words name; every argv gives
    the namespace, or the exit code and output, of a freshly built tree."""
    whole = cli._build_parser.__wrapped__()
    assert _parse_outcome(cli._parse, argv) == _parse_outcome(whole.parse_args, argv)


def test_every_bench_argv_takes_its_command_parser(capsys, monkeypatch):
    """The CLI tasks of perfbench/golden parse with their command's own
    parser alone: none falls back to the whole tree."""
    argvs = [task["argv"] for path in sorted((ROOT / "perfbench" / "golden").glob("*.json"))
             for pool in json.loads(path.read_text())["pools"].values()
             for task in pool if task["kind"] == "cli"]
    parser, whole, seen = cli._build_parser(), [], []
    parse_args = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda argv: whole.append(argv) or parse_args(argv))
    for *_, handler, _ in cli._COMMANDS:
        monkeypatch.setattr(cli, handler, lambda args: seen.append(args) or cli.Report({}, {}))
    for argv in argvs:
        assert main(list(argv)) == 0
    capsys.readouterr()
    assert len(argvs) > 200 and whole == [] and len(seen) == len(argvs)
    for args, argv in zip(seen, argvs):  # each reached the handler its words name
        words = [w for w in (args.command, getattr(args, "what", None)) if w]
        assert argv[:len(words)] == words


def test_importing_the_cli_builds_no_parser():
    """The parser is built on the first main() call, not at import."""
    script = ("import argparse\n"
              "built = []\n"
              "init = argparse.ArgumentParser.__init__\n"
              "argparse.ArgumentParser.__init__ = "
              "lambda self, *a, **kw: built.append(self) or init(self, *a, **kw)\n"
              "import kummer_lcd.cli\n"
              "print(len(built))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_handlers_are_looked_up_when_the_call_runs(capsys, monkeypatch):
    """A handler replaced between two calls of one process runs in the second."""
    argv = ["curve", "info", "--curve", "hermitian-q2"]
    assert run_json(capsys, *argv)["results"]["genus"] == 1
    monkeypatch.setattr(cli, "cmd_curve_info",
                        lambda args: cli.Report({"curve": args.curve}, {"stub": True}))
    assert run_json(capsys, *argv) == {"command": "curve info",
                                       "inputs": {"curve": "hermitian-q2"},
                                       "results": {"stub": True}, "checks": []}


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_mindist_budget_below_one_is_a_parse_error(capsys, budget):
    code, out, err = run_cli(capsys, "code", "mindist", "--curve", "hermitian-q2",
                             "--G", "3*Pinf+1*P1", "--budget", budget)
    assert code == 2 and "parse error" in err and out == ""


def test_mindist_budget_above_the_cap_is_a_parse_error(capsys):
    # 9^18 messages: refused before any code is built
    code, out, err = run_cli(capsys, "code", "mindist", "--curve", "hermitian-q3",
                             "--G", "20*Pinf", "--budget", str(10 ** 23))
    assert code == 2 and "parse error" in err and out == ""
    assert "MAX_MINDIST_BUDGET" in err and str(2 ** 32) in err
    report = run_json(capsys, "code", "mindist", "--curve", "hermitian-q2",
                      "--G", "3*Pinf+1*P1", "--budget", str(2 ** 32))
    assert report["results"]["d"] == 2 and report["results"]["exact"]


def test_mindist_of_a_one_dimensional_code(capsys):
    report = run_json(capsys, "code", "mindist", "--curve", "hermitian-q2",
                      "--G=0*Pinf")
    assert report["results"] == {"n": 6, "k": 1, "d": 6, "exact": True,
                                 "designed_bound": 6}


def test_mindist_counts_past_255_columns(capsys):
    # n = 336 > 255: a count of agreeing columns in uint8 would read 80
    report = run_json(capsys, "code", "mindist", "--curve", "hermitian-q7",
                      "--G=0*Pinf")
    assert report["results"] == {"n": 336, "k": 1, "d": 336, "exact": True,
                                 "designed_bound": 336}


@pytest.mark.parametrize("curve, construction, d, bound", [
    ("hermitian-q3", "hermitian", 13, 13), ("hermitian-q4", "hermitian", 39, 39),
    ("hermitian-q5", "hermitian", 86, 86), ("curve1-q4", "curve1", 13, 13),
    ("hermitian-q7", "hermitian", None, 267)])
def test_mindist_of_the_construction_codes_past_the_budget(capsys, curve, construction, d,
                                                           bound):
    # q^k is far above the default budget; a word on the Goppa bound proves d
    # up to q = 5, and on [336, 49] over GF(49) no message of weight 1 or 2
    # reaches the bound 267
    curve = builtin_curve(curve)
    for G in construction_divisors(construction, curve):
        report = run_json(capsys, "code", "mindist", "--curve", curve.label,
                          "--G", format_divisor(G))
        results = report["results"]
        assert curve.field.order ** results["k"] > DEFAULT_MINDIST_BUDGET
        assert (results["d"], results["exact"], results["designed_bound"]) == \
            (d, d is not None, bound)


def test_failed_witness_check_exits_1_with_a_message(capsys, monkeypatch):
    from kummer_lcd import codes
    scan = codes._witness_scan

    def one_short(code, stop):
        weight, message = scan(code, stop)
        return weight - 1, message

    monkeypatch.setattr(codes, "_witness_scan", one_short)
    code, out, err = run_cli(capsys, "code", "mindist", "--curve", "hermitian-q4",
                             "--G", "8*P2")
    assert (code, out) == (1, "") and "self-check failed" in err and "re-check" in err


def test_failed_self_check_exits_1_with_a_message(capsys, monkeypatch):
    import kummer_lcd.cli

    def failing_basis(curve, G):
        raise RuntimeError("L-space dimension self-test failed")

    monkeypatch.setattr(kummer_lcd.cli, "riemann_roch_basis", failing_basis)
    code, out, err = run_cli(capsys, "rr", "basis", "--curve", "hermitian-q2",
                             "--divisor", "3*Pinf")
    assert code == 1 and "self-test failed" in err and out == ""


def test_failed_rank_check_exits_1_with_a_message(capsys, monkeypatch):
    import kummer_lcd.functions
    original = kummer_lcd.functions._monomial_logs

    def repeated_row(*args):
        values = original(*args)
        values[1] = values[0]
        return values

    monkeypatch.setattr(kummer_lcd.functions, "_monomial_logs", repeated_row)
    code, out, err = run_cli(capsys, "code", "build", "--curve", "hermitian-q2",
                             "--G", "3*Pinf")
    assert code == 1 and "evaluation lost rank" in err and out == ""


def test_failed_dimension_self_test_on_the_direct_route_exits_1(capsys, monkeypatch):
    import kummer_lcd.functions
    original = kummer_lcd.functions._monomial_logs
    monkeypatch.setattr(kummer_lcd.functions, "_monomial_logs",
                        lambda *args: original(*args)[:-1])
    code, out, err = run_cli(capsys, "code", "build", "--curve", "hermitian-q2",
                             "--G", "3*Pinf")
    assert code == 1 and out == ""
    assert err.startswith("self-check failed: L-space dimension self-test failed")
    assert "deg G = 3, genus 1, got 2" in err


@pytest.mark.parametrize("construction, extra", [
    ("hermitian", []), ("curve1", []), ("curve2", ["--r", "3"])])
def test_lcd_check_without_q_is_a_parse_error(capsys, construction, extra):
    code, out, err = run_cli(capsys, "code", "lcd-check", "--construction",
                             construction, *extra)
    assert code == 2 and out == ""
    assert f"parse error: {construction} needs --q" in err


def test_lcd_check_refuses_a_code_above_the_length_cap(capsys):
    # Hermitian q = 11: GF(121), n = 1320 > MAX_CODE_LENGTH = 1024
    code, out, err = run_cli(capsys, "code", "lcd-check", "--construction",
                             "hermitian", "--q", "11")
    assert code == 1 and out == ""
    assert "precondition violated" in err
    assert "n = 1320" in err and "MAX_CODE_LENGTH = 1024" in err


def test_hermitian_q7_lcd_check_bytes_are_pinned(capsys):
    # GF(49), n = 336: two certificates through the kernel's odd-p sums
    code, out, err = run_cli(capsys, "code", "lcd-check", "--construction",
                             "hermitian", "--q", "7")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6428f8d4d72bc2f461bc82ff67a9a0c947b1d36bc0c6a5697538e345f4918e57")


def test_curve1_q8_lcd_check_bytes_are_pinned(capsys):
    # GF(64), n = 252: one certificate on the genus-12 curve, G on P_4
    code, out, err = run_cli(capsys, "code", "lcd-check", "--construction",
                             "curve1", "--q", "8")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7f97a361f43f23b17d3e61a932e784fe6c46a4ce76bd3b8d04b94d09c2a29e67")


# Bytes of the matrix outputs, which read LinearCode.generator on demand.
# The header names the six affine points of hermitian-q2 in coefficient form.
Q2_HEADER = ('function,"([1,0],[0,1])","([1,0],[1,1])","([0,1],[0,1])",'
             '"([0,1],[1,1])","([1,1],[0,1])","([1,1],[1,1])"\r\n')
PINNED_CSV = {
    ("build", "3*Pinf+1*P1"): Q2_HEADER
    + 'row0,"[1,0]","[0,0]","[0,0]","[0,0]","[1,0]","[0,1]"\r\n'
    + 'row1,"[0,0]","[1,0]","[0,0]","[0,0]","[1,1]","[0,0]"\r\n'
    + 'row2,"[0,0]","[0,0]","[1,0]","[0,0]","[0,0]","[0,1]"\r\n'
    + 'row3,"[0,0]","[0,0]","[0,0]","[1,0]","[1,1]","[1,0]"\r\n',
    ("dual", "3*Pinf+1*P1"): Q2_HEADER
    + 'row0,"[1,0]","[0,0]","[1,0]","[1,1]","[0,0]","[1,1]"\r\n'
    + 'row1,"[0,0]","[1,0]","[0,1]","[0,0]","[0,1]","[1,0]"\r\n',
    # an LCD code: the hull has no rows
    ("hull", "3*Pinf+1*P1"): Q2_HEADER,
    ("hull", "3*Pinf"): Q2_HEADER
    + 'row0,"[1,0]","[1,0]","[0,1]","[0,1]","[1,1]","[1,1]"\r\n',
}
PINNED_BUILD_PRETTY = """command: code build
inputs:
  curve: hermitian-q2
  G: 3*Pinf+1*P1
  D: standard
results:
  n: 6
  k: 4
  d: None
  hull_dim: 0
  lcd: True
  certificate: None
checks: []
      (1,a)  (1,a^2)  (a,a)  (a,a^2)  (a^2,a)  (a^2,a^2)
row0      1        0      0        0        1          a
row1      0        1      0        0      a^2          0
row2      0        0      1        0        0          a
row3      0        0      0        1      a^2          1
"""


@pytest.mark.parametrize("command, G", sorted(PINNED_CSV))
def test_matrix_csv_bytes_are_pinned(capsys, tmp_path, command, G):
    out = tmp_path / "m.csv"
    run_json(capsys, "code", command, "--curve", "hermitian-q2", "--G", G,
             "--out", str(out))
    assert out.read_bytes() == PINNED_CSV[command, G].encode()


def test_code_build_pretty_output_is_pinned(capsys):
    code, out, err = run_cli(capsys, "code", "build", "--curve", "hermitian-q2",
                             "--G", "3*Pinf+1*P1", "--pretty")
    assert code == 0 and err == ""
    assert out == PINNED_BUILD_PRETTY


# Exit code and sha256 of stdout, stderr and the --out CSV (m.csv) of each
# command, joined by NUL bytes. Any change here is a change to the CLI's
# output and belongs in CHANGES.md.
PINNED_DIGESTS = {
    "curve info --curve hermitian-q3":
        (0, "6fbc808424ca2504c2be1a755c5dd02452fcc4ed1b2724e706ad3b327f7971d7"),
    "curve info --curve hermitian-q3 --pretty":
        (0, "aab444247fd7d847948b4ff54c8e942c99f46bf8dc8b104b5512f1d48b213831"),
    "curve points --curve hermitian-q2":
        (0, "514fe29794690ddbfb10e8b32d2dc71ea8d9be9625cad2e5e0506083ff2a192f"),
    "rr basis --curve hermitian-q2 --divisor 3*Pinf+1*P1":
        (0, "f06531bc9703cab2c6f84a41e13549717f8f7ab537cc37347cae577aa3e3d548"),
    "rr basis --curve hermitian-q2 --divisor 4*Pinf-1*P([1,0],[0,1])":
        (0, "ca31ffaa1b9fa6e692a87b6a490a4dfc606cb59c8c4ebcfb421e2a2de02fea28"),
    "semigroup gaps --curve norm-trace-q2-r3":
        (0, "52b03c14acffd76eb71c1e1cbba7ed163d5acdab3bc82121c1f4432e68c72ac2"),
    "semigroup gamma --curve hermitian-q3 --tuple 1,2,3":
        (0, "e99e16bce4a627c97aba04fc3a01c0a3468a0d202de5f1a4d5638e673325dbbd"),
    "nonspecial --curve hermitian-q3 --degree g":
        (0, "0b6251fca7c5f8d6caaa74973fc7ecc2b9d0ee667ca1fe0573ff3036704b1479"),
    "nonspecial --curve hermitian-q3 --degree g-1 --minus P3":
        (0, "e794a64f703d4623b8ab6e58b11e56d67b4c0c1ef2312f279e29135b0082ad2f"),
    "code build --curve hermitian-q3 --G 10*Pinf --pretty --out m.csv":
        (0, "7ed4cc23e446aceb5161672ad6c9c275c17a7f5879d008ddc43a1c834c15d4de"),
    "code dual --curve hermitian-q3 --G 10*Pinf --pretty --out m.csv":
        (0, "d7f15701849e06f9e230b42e0e314dee8434969f8f7a7234351ab65747f0f394"),
    "code hull --curve hermitian-q3 --G 9*Pinf --pretty --out m.csv":
        (0, "8ac5a8dc4f8f52b042a896f4ff2496d7648e55bee5b0bf80a585824cf950f3ed"),
    "code build --curve hermitian-q3 --G 10*Pinf --out m.csv":
        (0, "f38ba492501c23353fb722ab8578efc01a7c0b8613f54379c6773c05868c965c"),
    # the dual RREF of perfbench's lcd-certify tail stratum, over GF(16)
    "code dual --curve hermitian-q4 --G 30*Pinf --out m.csv":
        (0, "0c24639959fabbf3b558ea2fb0882dd5d7789b6759575903546fb75b3fe64929"),
    "code dual --curve curve1-q4 --G 15*Pinf":
        (0, "d5d2c285d513aa98f1eee4b8c230d56595aeb17873c777f505f71320f94a534e"),
    "code hull --curve hermitian-q3 --G 1*P1+2*P2+8*P3":
        (0, "e39aff13c0009c480f06ffacb43dc0bae7670fbc5671cf836c767524ccf068c8"),
    # q^k = 9^9 is above the budget; a generator row of weight 13, on the
    # Goppa bound, proves d = 13
    "code mindist --curve hermitian-q3 --G 1*P1+2*P2+8*P3":
        (0, "0f412e0bb0f2ac19d9eddccdfe76782c8717891ccd1b72cde8cabc284d561b45"),
    "code mindist --curve hermitian-q2 --G 3*Pinf+1*P1 --pretty":
        (0, "3eeb8fe3dceb88b45d3bd51bb8ae267ece0cbc0358281c42d4809fef2bf151cc"),
    "code lcd-check --construction hermitian --q 3":
        (0, "0922401018d8f6afc204b458f96dec8aa02aa29a2e98af5a7044835813198e78"),
    "code lcd-check --construction hermitian --q 2 --pretty":
        (0, "a959669deee463861aef43b615c9af418a7e9ecfbca6d438344288dd511181fa"),
    "code lcd-check --construction curve1 --q 4":
        (0, "ac027d2d10f560a7eafbfd2279b09059958041421b7a4d1e8488394003ed3122"),
    "code lcd-check --construction curve2 --q 2 --r 3":
        (0, "0feb813716a49e22a4e5ad2ad8a7de2732307b0c9fe7e80e39d8def815eaab74"),
    "code lcd-check --construction maxcur --curve hermitian-q2 --G 3*Pinf+1*P1":
        (0, "579ed056ad290d1f165a13140c8932a63b6ac453d5f2074be6da839f15d9dc44"),
    "code lcd-check --construction maxcur --curve hermitian-q2 --G 5*P1+1*P2":
        (1, "3654cb04e03b29db4ce6f20cb16dab61c8c1b4da0fb2e86b77f7ffddf7918930"),
    "verify paper-examples --which all":
        (0, "8a0e9a3369ca768a1c315ff028493bd485071d6ed7f055ae0d9fd6557c3f24c9"),
    "verify paper-examples --which hermitian-q2 --pretty":
        (0, "9eb91dc9c22811c906e9adb93935480def4cdb743ead05e54d3ae458d958d0a2"),
    "rr basis --curve hermitian-q2 --divisor junk":
        (2, "f3f3ad6e57363189274e4328d72513535ced58a08c196f0fbad719e9defd6851"),
    "code build --curve hermitian-q2 --G 7*Pinf":
        (1, "df2be7e791483f5bd538489ab513a24fd2cb8bff0b74269a628abed045241517"),
    "code hull --curve hermitian-q2":
        (2, "8fd68e6822658246ead58ad701682c13170640d1d10de706cc60682f2d8fa281"),
    "code mindist --curve hermitian-q2 --G 3*Pinf --budget 0":
        (2, "bf081fd6a07b1602579452efdc299eed2d15df79a25f6098bc889fad76a42efa"),
    "code lcd-check --construction curve2 --q 2":
        (2, "573776f0942650a409b0c800536ae0f606454b3177e3d9c3b26a8d88ff27d55d"),
    "curve info --curve missing.json":
        (2, "122b135794dba19f68cbec264e4ab536e96523321d8dccf5c0a39f129920c603"),
}


@pytest.mark.parametrize("command", list(PINNED_DIGESTS))
def test_command_bytes_are_pinned(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    code, out, err = _call(capsys, command.split())
    csv_bytes = (tmp_path / "m.csv").read_bytes() if "--out" in command else b""
    digest = hashlib.sha256(f"{code}\0{out}\0{err}\0".encode() + csv_bytes).hexdigest()
    assert (code, digest) == PINNED_DIGESTS[command]


@pytest.mark.parametrize("argv, option", [
    (["hermitian", "--q", "2", "--r", "5"], "--r"),
    (["curve1", "--q", "4", "--r", "1"], "--r"),
    (["curve1", "--q", "4", "--G", "3*Pinf"], "--G"),
    (["hermitian", "--q", "2", "--curve", "hermitian-q2"], "--curve"),
    (["curve2", "--q", "2", "--r", "3", "--curve", "hermitian-q2"], "--curve"),
    (["curve2", "--q", "2", "--r", "3", "--G", "3*Pinf"], "--G"),
    (["maxcur", "--curve", "hermitian-q2", "--G", "3*Pinf+1*P1", "--q", "7"], "--q"),
    (["maxcur", "--curve", "hermitian-q2", "--G", "3*Pinf+1*P1", "--r", "1"], "--r"),
])
def test_lcd_check_refuses_an_option_its_construction_ignores(capsys, argv, option):
    code, out, err = run_cli(capsys, "code", "lcd-check", "--construction", *argv)
    assert (code, out) == (2, "")
    assert err == f"parse error: {option} does not apply to --construction {argv[0]}\n"


def test_maxcur_partner_above_the_length_prints_a_false_certificate(capsys):
    # deg G = 3 <= 2g - 2 on hermitian-q3 gives deg H = 25 >= n = 24
    code, out, err = run_cli(capsys, "code", "lcd-check", "--construction", "maxcur",
                             "--curve", "hermitian-q3", "--G", "3*Pinf")
    assert code == 1 and err == ""
    report = json.loads(out)
    run = report["results"]["runs"][0]
    assert (run["n"], run["k"], run["hull_dim"], run["lcd"]) == (24, 2, 2, False)
    assert run["certificate"]["H"] == "7*P1+7*P2+7*P3+4*Pinf"
    assert run["certificate"]["checks"]["duality_verified"] is False
    assert report["checks"] == [{"name": "lcd-0", "pass": False, "detail": "3*Pinf"}]


@pytest.mark.parametrize("curve, head", [("hermitian-q16", b'{\n  "com'), ("hermitian-q2", b"")])
def test_a_closed_stdout_exits_1_with_nothing_on_stderr(curve, head):
    """hermitian-q16 prints 196 kB of point labels, more than a pipe holds, so
    a write meets the end closed after a few bytes; the 318 bytes of
    hermitian-q2 meet an end closed before the run at main's own flush. The
    child's stdout is block buffered, as it is by default on a pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    read_end, write_end = os.pipe()
    reader = os.fdopen(read_end, "rb")
    if not head:
        reader.close()
    proc = subprocess.Popen(
        [sys.executable, "-m", "kummer_lcd.cli", "curve", "points", "--curve", curve],
        stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    if head:
        assert reader.read(len(head)) == head
        reader.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")


def test_the_package_binds_exactly_the_names_its_modules_declare():
    """kummer_lcd re-exports each module's __all__, bound to the same objects,
    and binds no other public name besides its submodules."""
    import kummer_lcd
    from kummer_lcd import codes, functions, semigroup
    modules = (gf, curves, functions, semigroup, codes)
    missing = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__
               if getattr(kummer_lcd, name, None) is not getattr(mod, name)]
    assert missing == []
    declared = {name for mod in modules for name in mod.__all__}
    undeclared = {name for name, value in vars(kummer_lcd).items()
                  if not name.startswith("_") and not isinstance(value, type(kummer_lcd))}
    assert undeclared - declared == set()
