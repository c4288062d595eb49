"""End-to-end CLI behavior: outputs, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ss3
from ss3 import CountResult, field, make_context
from ss3.cli import main
from ss3.verify import run_verification
from ss3.export import EXPORT_SCHEMA


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ----------------------------------------------------------------------
# field-info
# ----------------------------------------------------------------------


def test_field_info_d2_exact_output(capsys):
    rc, out, _ = run(capsys, "field-info", "2")
    assert rc == 0
    assert out == '{"d":2,"modulus":[1,0,1],"beta":"1,1","alpha":"2,0","tau":"0,1"}\n'


def test_field_info_d1_no_tau(capsys):
    rc, out, _ = run(capsys, "field-info", "1")
    assert rc == 0
    obj = json.loads(out)
    assert obj["beta"] == "2" and obj["tau"] is None


def test_field_info_rejects_degree_zero(capsys):
    rc, _, err = run(capsys, "field-info", "0")
    assert rc == 2
    assert "DegreeOutOfRange" in err


def test_field_info_modulus_override(capsys):
    rc, out, _ = run(capsys, "field-info", "2", "--modulus", "2,1,1")
    assert rc == 0
    assert json.loads(out)["modulus"] == [2, 1, 1]
    rc, _, err = run(capsys, "field-info", "2", "--modulus", "0,1,1")
    assert rc == 2 and "ModulusReducible" in err


def test_modulus_text_outside_the_grammar_exits_2(capsys):
    # the element grammar: ASCII decimal digits only, no sign or underscore,
    # and coefficients 0, 1 and 2 only, though the library reads a modulus
    # mod 3
    assert make_context(2, [4, 0, 1]) is make_context(2, [1, 0, 1])
    for text in ("\u0661,0,4", "1_0", "+1", "-2", "1,0,-2", "1,+0,1", "1,0,4", "3,1,1"):
        rc, out, err = run(capsys, "field-info", "2", "--modulus", text)
        assert rc == 2 and out == "", text
        assert sum("error:" in line for line in err.splitlines()) == 1, text
        assert "ParseError" in err
    rc, out, _ = run(capsys, "field-info", "2", "--modulus", " 1 , 0 , 1 ")
    assert rc == 0 and json.loads(out)["modulus"] == [1, 0, 1]


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------


def test_classify_type_I_vector(capsys):
    rc, out, _ = run(capsys, "classify", "--d", "1", "--a4", "2", "--a6", "1")
    assert rc == 0
    obj = json.loads(out)
    assert obj["class"] == {"type": "I", "invariant": "1", "beta": "2"}
    assert obj["representative"]["equation"] == "y^2 = x^3 - x + 1"
    assert obj["witness"] == {"u": "1", "r": "0"}


def test_classify_type_I_plus_vector(capsys):
    rc, out, _ = run(capsys, "classify", "--d", "1", "--a4", "1", "--a6", "0")
    assert rc == 0
    obj = json.loads(out)
    assert obj["class"]["type"] == "I+"
    assert obj["representative"]["equation"] == "y^2 = x^3 + x"


# (d, a4, a6, type, invariant, representative equation): the first curve of
# every class in enumeration order, which runs every branch of equation_text
CLASSIFY_EQUATIONS = [
    (1, "1", "0", "I+", None, "y^2 = x^3 + x"),
    (1, "2", "0", "I", "0", "y^2 = x^3 - x"),
    (1, "2", "1", "I", "1", "y^2 = x^3 - x + 1"),
    (1, "2", "2", "I", "-1", "y^2 = x^3 - x - 1"),
    (2, "1,0", "0,0", "I", "0", "y^2 = x^3 - x"),
    (2, "1,0", "0,1", "I", "nonzero", "y^2 = x^3 - x - 1"),
    (2, "0,1", "0,0", "II", "0", "y^2 = x^3 + (0,1)*x"),
    (2, "0,1", "1,0", "II", "nonzero", "y^2 = x^3 + (0,1)*x + (2,1)"),
    (2, "1,1", "0,0", "IIIa", None, "y^2 = x^3 + (2,2)*x"),
    (2, "2,1", "0,0", "IIIb", None, "y^2 = x^3 + (2,1)*x"),
]


def test_classify_representative_equation_of_every_class(capsys):
    for d, a4, a6, ctype, invariant, equation in CLASSIFY_EQUATIONS:
        rc, out, _ = run(capsys, "classify", "--d", str(d), "--a4", a4, "--a6", a6)
        assert rc == 0
        obj = json.loads(out)
        assert obj["class"]["type"] == ctype and obj["class"]["invariant"] == invariant
        assert obj["representative"]["equation"] == equation


def test_classify_element_text_outside_the_grammar_exits_2(capsys):
    # ASCII decimal digits only: "0_1" is not 1, nor is an Arabic-Indic one
    for text in ("1_0", "0_1", "\u0661", "+1", "-0"):
        rc, out, err = run(capsys, "classify", "--d", "2", "--a4", "1", "--a6", text)
        assert rc == 2 and out == "", text
        assert sum("error:" in line for line in err.splitlines()) == 1, text
        assert "ParseError" in err
    for text in ("4", "0,2", " 1 , 0 "):
        rc, _, _ = run(capsys, "classify", "--d", "2", "--a4", text, "--a6", text)
        assert rc == 0, text


def test_classify_rejects_zero_a4(capsys):
    rc, _, err = run(capsys, "classify", "--d", "1", "--a4", "0", "--a6", "1")
    assert rc == 2 and "InvalidCurve" in err


def test_classify_coefficient_list_input(capsys):
    rc, out, _ = run(capsys, "classify", "--d", "2", "--a4", "2,0", "--a6", "0,1")
    assert rc == 0
    assert json.loads(out)["class"] == {"type": "I", "invariant": "0", "beta": "1,1"}


# ----------------------------------------------------------------------
# count
# ----------------------------------------------------------------------


def test_count_one_point_curve(capsys):
    rc, out, _ = run(capsys, "count", "--d", "1", "--a4", "2", "--a6", "2")
    assert rc == 0
    obj = json.loads(out)
    assert obj["order"] == "1" and obj["q"] == "3" and obj["trace"] == "3"


def test_count_gf9(capsys):
    rc, out, _ = run(capsys, "count", "--d", "2", "--a4", "2", "--a6", "0")
    assert rc == 0
    assert json.loads(out)["order"] == "16"


def test_count_naive_agrees_with_closed_form(capsys):
    args = ["count", "--d", "5", "--a4", "101", "--a6", "202"]
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args, "--naive")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_count_general_coefficients(capsys):
    rc, out, _ = run(
        capsys, "count", "--d", "1", "--a4", "1", "--a6", "0", "--a3", "1"
    )
    assert rc == 0
    assert json.loads(out)["order"] == "4"


def test_count_ordinary_curve_rejected_without_naive(capsys):
    args = ["count", "--d", "1", "--a4", "0", "--a6", "1", "--a2", "1"]
    rc, _, err = run(capsys, *args)
    assert rc == 2 and "NotSupersingularError" in err
    rc, out, _ = run(capsys, *args, "--naive")
    assert rc == 0
    obj = json.loads(out)
    assert obj["order"] == "6" and obj["class"] is None


def test_count_respects_oracle_cap_env(capsys, monkeypatch):
    monkeypatch.setattr(field, "ORACLE_CAP", 10)
    rc, _, err = run(capsys, "count", "--d", "3", "--a4", "1", "--a6", "1", "--naive")
    assert rc == 2 and "OracleTooLarge" in err
    # the closed form is unaffected by the cap
    rc, out, _ = run(capsys, "count", "--d", "3", "--a4", "1", "--a6", "1")
    assert rc == 0 and json.loads(out)["order"] == "28"


# ----------------------------------------------------------------------
# enumerate
# ----------------------------------------------------------------------


def _data_rows(out):
    lines = out.strip().splitlines()
    return lines[2:]  # header line + column line


def test_enumerate_d1(capsys):
    rc, out, _ = run(capsys, "enumerate", "--d", "1")
    assert rc == 0
    rows = _data_rows(out)
    assert len(rows) == 4
    orders = sorted(int(r.split()[-2]) for r in rows)
    assert orders == [1, 4, 4, 7]


def test_enumerate_d2(capsys):
    rc, out, _ = run(capsys, "enumerate", "--d", "2")
    assert rc == 0
    rows = _data_rows(out)
    assert len(rows) == 6
    orders = sorted(int(r.split()[-2]) for r in rows)
    assert orders == [4, 7, 10, 10, 13, 16]


def test_enumerate_d3_row_count(capsys):
    rc, out, _ = run(capsys, "enumerate", "--d", "3")
    assert rc == 0
    assert len(_data_rows(out)) == 4


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def test_verify_small_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--d-max", "2", "--samples", "10")
    assert rc == 0
    assert out.startswith("verify d-max=2 samples=10 seed=0\n")
    assert "RESULT PASS" in out
    assert all(line.startswith(("verify", "PASS", "RESULT")) for line in out.strip().splitlines())


def test_verify_deterministic_reports(capsys):
    rc1, out1, _ = run(capsys, "verify", "--d-max", "2", "--samples", "15", "--seed", "7")
    rc2, out2, _ = run(capsys, "verify", "--d-max", "2", "--samples", "15", "--seed", "7")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_catches_corrupted_formula(capsys, monkeypatch):
    import ss3.verify as verify_mod

    real = verify_mod.count_supersingular

    def corrupted(e):
        r = real(e)
        return CountResult(
            q=r.q, order=r.order + 3, frobenius_trace=r.frobenius_trace - 3,
            class_used=r.class_used,
        )

    monkeypatch.setattr(verify_mod, "count_supersingular", corrupted)
    rc, out, _ = run(capsys, "verify", "--d-max", "1", "--samples", "5")
    assert rc == 1
    fail_lines = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert fail_lines and "curve=a4=" in fail_lines[0]
    assert "RESULT FAIL" in out


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["no-such-command"],
        ["classify", "--d", "1"],  # missing a4/a6
        ["verify", "--d-max", "0"],  # no suite would run
        ["verify", "--d-max", "1", "--samples", "-3"],
        ["verify", "--d-max", "1", "--samples", "0"],  # a PASS with nothing checked
        ["verify", "--d-max", "14"],  # beyond the oracle cap, before any suite runs
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "Traceback" not in captured.err
        assert sum("error:" in line for line in captured.err.splitlines()) == 1, argv


def test_python_m_ss3_runs_the_cli():
    # python -m ss3 is the ss3 script: the same output and exit codes
    src = str(Path(ss3.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def python_m_ss3(*argv):
        return subprocess.run(
            [sys.executable, "-m", "ss3", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    done = python_m_ss3("verify", "--d-max", "1")
    assert (done.returncode, done.stdout) == (0, run_verification(1).text())
    done = python_m_ss3("field-info", "32")
    assert (done.returncode, done.stdout) == (2, "")
    assert "Traceback" not in done.stderr
    assert sum(line.startswith("error:") for line in done.stderr.splitlines()) == 1


@pytest.mark.parametrize("unbuffered", [
    pytest.param("", id="buffered"), pytest.param("1", id="unbuffered"),
])
def test_closed_stdout_exits_141_quietly(unbuffered):
    # the read end is closed before the child writes: buffered, the write
    # fails at the flush in main; unbuffered, inside the command
    src = str(Path(ss3.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ss3", "enumerate", "--d", "4"],
            stdout=w, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(w)
    assert (done.returncode, done.stderr) == (141, "")


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------


def test_export_csv_d1_row_structure(capsys):
    rc, out, _ = run(capsys, "export", "--d", "1", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,modulus,a4,a6,type,invariant,order,trace,u,r"
    assert len(lines) == 1 + 4 + 6  # header, class rows, curve rows


def test_export_json_validates_against_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    rc, out, _ = run(capsys, "export", "--d", "2", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    jsonschema.validate(obj, EXPORT_SCHEMA)
    assert len(obj["classes"]) == 6
    assert len(obj["curves"]) == 72


def test_export_large_degree_has_class_rows_only(capsys):
    rc, out, _ = run(capsys, "export", "--d", "30", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 6  # header + class rows, no exhaustive curves
    assert all(line.startswith("30,") for line in lines[1:])


def test_export_to_file(tmp_path, capsys):
    out_path = tmp_path / "vectors.json"
    rc, out, _ = run(capsys, "export", "--d", "1", "--format", "json",
                     "--out", str(out_path))
    assert rc == 0 and out == ""
    obj = json.loads(out_path.read_text())
    assert obj["context"]["d"] == 1


def test_export_to_missing_directory_exits_2(tmp_path, capsys):
    out_path = tmp_path / "missing" / "vectors.csv"
    rc, out, err = run(capsys, "export", "--d", "1", "--format", "csv",
                       "--out", str(out_path))
    assert rc == 2 and out == ""
    assert err.startswith("error: FileNotFoundError:") and err.count("\n") == 1
    assert not out_path.parent.exists()


def test_export_records_reproducible(capsys):
    # re-running classification/counting on exported inputs reproduces
    # every derived field
    from ss3 import ShortCurve, canonicalize, count_supersingular

    rc, out, _ = run(capsys, "export", "--d", "2", "--format", "json")
    obj = json.loads(out)
    ctx = make_context(obj["context"]["d"], obj["context"]["modulus"])
    for rec in obj["classes"] + obj["curves"]:
        e = ShortCurve(ctx.element(rec["a4"]), ctx.element(rec["a6"]))
        rep, cls, w = canonicalize(e)
        r = count_supersingular(e)
        assert cls.ctype.value == rec["type"]
        assert cls.invariant == rec["invariant"]
        assert str(r.order) == rec["order"]
        assert str(r.frobenius_trace) == rec["trace"]
        assert str(w.u) == rec["u"] and str(w.r) == rec["r"]


# ----------------------------------------------------------------------
# Arbitrary argv
# ----------------------------------------------------------------------

_DEGREE = st.sampled_from(["1", "2", "3", "1", "2", "3", "0", "-1", "x"])
_TEXT = st.one_of(
    st.integers(1, 2).map(str), st.integers(-2, 30).map(str), st.text(max_size=8)
)
_MODULUS = st.one_of(st.sampled_from(["1,2,0,1", "2,1,1", "0,1,1", "1,1"]), st.text(max_size=8))


@st.composite
def _argv(draw, out_dir):
    """argv for any subcommand, kept to d <= 3 and verify --d-max <= 2."""
    command = draw(st.sampled_from(
        ["field-info", "classify", "count", "enumerate", "verify", "export"]
    ))
    if command == "field-info":
        argv = [command, draw(_DEGREE)]
    elif command == "verify":
        argv = [command, "--d-max", str(draw(st.integers(-1, 2))),
                "--samples", str(draw(st.integers(-2, 3))),
                "--seed", str(draw(st.integers(0, 3)))]
    else:
        argv = [command, "--d", draw(_DEGREE)]
    if command in ("classify", "count"):
        argv += ["--a4", draw(_TEXT), "--a6", draw(_TEXT)]
    if command == "count":
        for flag in ("--a1", "--a2", "--a3"):
            if draw(st.booleans()):
                argv += [flag, draw(_TEXT)]
        if draw(st.booleans()):
            argv.append("--naive")
    if command == "export":
        argv += ["--format", draw(st.sampled_from(["json", "csv", "xml"]))]
        if draw(st.booleans()):
            name = draw(st.sampled_from(["v.out", "missing/v.out"]))
            argv += ["--out", str(out_dir / name)]
    if command != "verify" and draw(st.booleans()):
        argv += ["--modulus", draw(_MODULUS)]
    return argv


@given(data=st.data())
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_argv_exits_cleanly(tmp_path, data):
    argv = data.draw(_argv(tmp_path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1
