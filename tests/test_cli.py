import json
import subprocess
import sys
from pathlib import Path

import pytest

from mfkit.cli import run
from mfkit.matfac import (
    NotAFactorization,
    make_factorization,
    parse_factorization,
    serialize_factorization,
)
from mfkit.poly import Variable
from mfkit.tensor import Variant, yoshino
from mfkit.unit import koszul_unit

from conftest import PX, PY, PZ, X


@pytest.fixture
def files(tmp_path):
    a = make_factorization([[1]], [[PX]], PX)
    b = make_factorization([[1]], [[PY]], PY)
    x = make_factorization([[1]], [[PZ - PX]], PZ - PX)
    m = make_factorization(
        [[0, PX], [PX ** 2, 0]], [[0, PX], [PX ** 2, 0]], PX ** 3
    )
    paths = {}
    for name, fx in (("a", a), ("b", b), ("x", x), ("m", m)):
        p = tmp_path / f"{name}.json"
        p.write_text(serialize_factorization(fx))
        paths[name] = str(p)
    bad = tmp_path / "bad.json"
    bad.write_text(
        serialize_factorization(a).replace('"potential": "x"',
                                           '"potential": "x^2"')
    )
    paths["bad"] = str(bad)
    paths["dir"] = tmp_path
    return paths


def test_validate_ok(files, capsys):
    assert run(["validate", files["a"], files["m"]]) == 0
    out = capsys.readouterr().out
    assert "ok (size 1, potential x)" in out
    assert "size 2, potential x^3" in out


def test_validate_math_failure(files, capsys):
    assert run(["validate", files["bad"]]) == 1
    err = capsys.readouterr().err
    assert "FAIL" in err
    assert "deviates" in err


# Documents the eager check refuses, with the line `validate` prints for
# each: a residual off the potential, a rational one above the diagonal,
# one side of a product over potential 0, and a diagonal entry of P*Q that
# no pair reaches.
FAILING_DOCUMENTS = {
    "lower": ({"vars": ["x", "y"], "potential": "x^3 + y",
               "P": [["x", "0"], ["1/2*y", "x"]], "Q": [["x^2", "0"], ["0", "x^2"]]},
              "(P*Q)[0][0] deviates from the potential by -1*y"),
    "upper": ({"vars": ["x", "y"], "potential": "x^3",
               "P": [["x", "1/2*y"], ["0", "x"]], "Q": [["x^2", "0"], ["0", "x^2"]]},
              "(P*Q)[0][1] deviates from the potential by 1/2*x^2*y"),
    "one_sided": ({"vars": [], "potential": "0",
                   "P": [["0", "1"], ["0", "0"]], "Q": [["1", "0"], ["0", "0"]]},
                  "(Q*P)[0][1] deviates from the potential by 1"),
    "no_pairs": ({"vars": ["x"], "potential": "x^3",
                  "P": [["x", "0"], ["0", "0"]], "Q": [["x^2", "0"], ["0", "x^2"]]},
                 "(P*Q)[1][1] deviates from the potential by -1*x^3"),
}


@pytest.mark.parametrize("name", FAILING_DOCUMENTS)
def test_validate_failure_lines_keep_their_bytes(tmp_path, capsys, name):
    doc, line = FAILING_DOCUMENTS[name]
    with pytest.raises(NotAFactorization) as err:
        parse_factorization(json.dumps(doc))
    assert str(err.value) == line
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{path}: FAIL - {line}\n"
    assert captured.out == ""


def test_validate_missing_file(files, capsys):
    missing = str(files["dir"] / "nope.json")
    assert run(["validate", missing]) == 2
    # The OSError's own text would repeat the path; only its reason is kept.
    assert capsys.readouterr().err == (
        f"error: cannot read {missing}: No such file or directory\n")


def test_read_error_without_a_reason_keeps_the_error_text(files, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError("device went away")

    monkeypatch.setattr("mfkit.cli.open", refuse, raising=False)
    assert run(["validate", files["a"]]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {files['a']}: device went away\n")


def test_validate_keeps_going_after_failure(files, capsys):
    assert run(["validate", files["bad"], files["a"]]) == 1
    captured = capsys.readouterr()
    assert "ok (size 1" in captured.out


def test_validate_keeps_going_past_unreadable_and_malformed_files(files, capsys):
    broken = files["dir"] / "broken.json"
    broken.write_text("{")
    missing = str(files["dir"] / "nope.json")
    paths = [files["a"], str(broken), files["bad"], missing, files["m"]]
    assert run(["validate", *paths]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"{files['a']}: ok (size 1, potential x)",
        f"{files['m']}: ok (size 2, potential x^3)",
    ]
    err = captured.err.splitlines()
    assert len(err) == 3
    assert err[0].startswith(f"error: {broken}: not valid JSON: ")
    assert err[1].startswith(f"{files['bad']}: FAIL - ")
    assert err[2] == f"error: cannot read {missing}: No such file or directory"
    assert [line.count(str(broken)) for line in err] == [1, 0, 0]
    # A read or parse error outranks a failed check, wherever it comes.
    assert run(["validate", files["bad"], str(broken)]) == 2
    assert run(["validate", files["bad"], files["a"], files["bad"]]) == 1


def test_tensor_writes_canonical_file(files, capsys):
    out = str(files["dir"] / "ab.json")
    assert run(["tensor", files["a"], files["b"], "-o", out]) == 0
    a = parse_factorization(Path(files["a"]).read_text())
    b = parse_factorization(Path(files["b"]).read_text())
    want = serialize_factorization(yoshino(a, b, Variant.STANDARD))
    assert Path(out).read_text() == want


def test_tensor_variant_to_stdout(files, capsys):
    assert run(["tensor", "--variant", "v3", files["a"], files["b"]]) == 0
    doc = capsys.readouterr().out
    parsed = parse_factorization(doc)
    assert parsed.potential == PX + PY


def test_tensor_rejects_unknown_variant(files, capsys):
    assert run(["tensor", "--variant", "v9", files["a"], files["b"]]) == 2


def test_tensor_rejects_overlapping_variables(files, capsys):
    assert run(["tensor", files["a"], files["a"]]) == 2


def test_unit_command(files, capsys):
    out = str(files["dir"] / "delta.json")
    assert run(["unit", "--potential", "x - y", "--vars", "x,y",
                "-o", out]) == 0
    want = serialize_factorization(
        koszul_unit(PX - PY, (Variable("x"), Variable("y"))).mf
    )
    assert Path(out).read_text() == want


def test_unit_bad_potential(files, capsys):
    assert run(["unit", "--potential", "x +", "--vars", "x"]) == 2


def test_unit_deeply_nested_potential_is_a_parse_error(capsys):
    nested = "(" * 2000 + "x" + ")" * 2000
    assert run(["unit", "--potential", nested, "--vars", "x"]) == 2
    assert capsys.readouterr().err.startswith("error: expression nested too deeply")


def test_unit_huge_exponent_is_a_parse_error(capsys):
    assert run(["unit", "--potential", "x^1000000000", "--vars", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: exponent 1000000000 is above the limit")


@pytest.mark.parametrize("potential", ["5" * 5000 + "*x^3", "x^" + "5" * 5000])
def test_unit_oversized_number_is_a_parse_error(capsys, potential):
    assert run(["unit", "--potential", potential, "--vars", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: number of 5000 digits is above the limit")


def test_unit_oversized_printed_coefficient_is_refused(capsys):
    # Each literal is accepted; the squared coefficient has 6000 digits.
    potential = "(" + "7" * 3000 + "*x)^2*x"
    assert run(["unit", "--potential", potential, "--vars", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: cannot print a coefficient above mfkit's limit of 4000 digits\n")


@pytest.mark.parametrize("doc", [
    {"vars": ["x"], "potential": "x", "P": [[1]], "Q": [["x"]]},
    {"vars": ["x"], "potential": 0, "P": [["0"]], "Q": [["0"]]},
    {"vars": ["x", "x"], "potential": "x", "P": [["1"]], "Q": [["x"]]},
], ids=["non_string_entry", "non_string_potential", "repeated_vars"])
def test_validate_rejects_malformed_document(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("name", ["x'", "1", ""])
def test_validate_names_a_bad_vars_entry(tmp_path, capsys, name):
    # The name is refused before any entry is parsed against it.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(
        {"vars": [name], "potential": "x", "P": [["1"]], "Q": [["x"]]}))
    assert run(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad variable name {name!r}\n"


def test_unitor_right(files, capsys):
    code = run(["unitor", "--side", "right", files["x"],
                "--potential", "x", "--var-split", "x:z"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rho∘psi = id: PASS; psi∘rho = id: FAIL (expected)" in out


def test_unitor_left(files, capsys):
    code = run(["unitor", "--side", "left", files["x"],
                "--potential", "z", "--var-split", "x:z"])
    assert code == 0
    assert "FAIL (expected)" in capsys.readouterr().out


def test_unitor_inconsistent_potential(files, capsys):
    code = run(["unitor", files["x"], "--potential", "x^2",
                "--var-split", "x:z"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the potential does not match X: "
                            "X.potential + f = x^2 - x + z uses the f-side variable x\n")


@pytest.mark.parametrize("argv, name", [
    (["unit", "--potential", "x", "--vars", "x'"], "x'"),
    (["unit", "--potential", "x", "--vars", "1"], "1"),
    (["unitor", "X", "--potential", "x^3", "--var-split", "x':z"], "x'"),
], ids=["unit_primed", "unit_digit", "unitor_primed"])
def test_unit_and_unitor_name_a_bad_variable_before_parsing(files, capsys, argv, name):
    # Without the check first, the expression blames an undeclared x.
    argv = [files["x"] if a == "X" else a for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad variable name {name!r}\n"


def test_unitor_bad_split(files):
    assert run(["unitor", files["x"], "--potential", "x",
                "--var-split", "x"]) == 2


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("split, message", [
    ("x:1", "bad variable name '1'"),
    ("x:z'", 'bad variable name "z\'"'),
    ("1:z", "bad variable name '1'"),
    ("x,y:z,2", "bad variable name '2'"),
    ("x:x", "--var-split names x on both sides"),
    ("x,z:z,x", "--var-split names x, z on both sides"),
], ids=["g_digit", "g_primed", "f_digit", "g_second", "x_twice", "two_twice"])
def test_unitor_checks_both_sides_of_the_split(files, capsys, side, split, message):
    # Every name is checked, on the side the unitor uses and on the other.
    pot = "x" if side == "right" else "z"
    assert run(["unitor", files["x"], "--side", side, "--potential", pot,
                "--var-split", split]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_homotopy_witness_found(files, capsys):
    code = run(["homotopy", "--max-degree", "1", files["a"],
                "--phi", "scalar:x", "--psi", "zero"])
    assert code == 0
    out = capsys.readouterr().out
    assert "witness found" in out
    assert "lambda0" in out and "lambda1" in out


def test_homotopy_not_found(files, capsys):
    code = run(["homotopy", "--max-degree", "2", files["m"],
                "--phi", "id", "--psi", "zero"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no homotopy witness" in captured.err
    assert "first inconsistent equation, even entry [0][0], monomial 1" in captured.err


def test_internal_error_is_not_a_check_failure(files, capsys, monkeypatch):
    def broken(*_):
        raise RuntimeError("internal: solution fails equation 0")

    monkeypatch.setattr("mfkit.homotopy._solve_gauss_jordan", broken)
    code = run(["homotopy", "--max-degree", "1", files["a"],
                "--phi", "scalar:x", "--psi", "zero"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: internal: solution fails equation 0\n"


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert run(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not valid JSON: nested too deeply\n"


def test_homotopy_two_files(files, capsys):
    code = run(["homotopy", "--max-degree", "0", files["a"], files["a"],
                "--phi", "zero", "--psi", "zero"])
    assert code == 0


def test_homotopy_bad_spec(files, capsys):
    assert run(["homotopy", "--max-degree", "1", files["a"],
                "--phi", "nonsense", "--psi", "zero"]) == 2


def test_print_command(files, capsys):
    assert run(["print", files["m"]]) == 0
    out = capsys.readouterr().out
    assert "size: 2" in out
    assert "potential: x^3" in out
    assert "P:" in out and "Q:" in out


DEMO_PAPER_STDOUT = """\
ok   matrix pair [[0,x],[x^2,0]] with itself factors x^3
ok   rank-one pair ([1],[x^3]) factors x^3
ok   anti-diagonal pairs factor x^n at (3,1), (5,2), (7,3)
ok   first difference quotient of x - y is 1
ok   second difference quotient of x - y is -1
ok   contraction t4* of t2^t4^t7 is -t2^t7
ok   unit factorization of x is ([1], [x - x'])
ok   unit factorization of x - y has the expected 2x2 blocks
ok   four tensor layouts of ([1],[x]), ([1],[y]) are valid and distinct
ok   unitor: rho∘psi = id while psi∘rho != id
ok   zero witness certifies rho∘psi ~ id
11/11 checks passed
"""


def test_demo_paper(capsys):
    assert run(["demo", "paper"]) == 0
    assert capsys.readouterr().out == DEMO_PAPER_STDOUT


def test_usage_errors():
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["tensor"]) == 2


def test_lone_double_dash_value_is_a_usage_error(files, capsys):
    for argv in (["unit", "--potential=x", "--vars=--"],
                 ["unit", "--potential=--", "--vars=x"],
                 ["unitor", files["x"], "--potential=x", "--var-split=--"],
                 ["homotopy", files["m"], "--phi=--", "--psi=zero", "--max-degree=0"]):
        assert run(argv) == 2, argv
        assert "Traceback" not in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0


def test_cli_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "mfkit.cli", "demo", "paper"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout
