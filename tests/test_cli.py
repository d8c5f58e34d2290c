import contextlib
import io
import json
import subprocess
import sys

import pytest

from strictcat.cli import main
from strictcat.syntax import parse_cmor, parse_dmor, show_signature


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.fixture
def sig_path(tmp_path, demo_sig):
    path = tmp_path / "demo.sig"
    path.write_text(show_signature(demo_sig), encoding="utf-8")
    return str(path)


@pytest.fixture
def catw_path(tmp_path, catw_sig):
    path = tmp_path / "catw.sig"
    path.write_text(show_signature(catw_sig), encoding="utf-8")
    return str(path)


def test_parse_command():
    code, out = run_cli("parse", "f ; g (*) h")
    assert code == 0
    assert "f ; g (*) h" in out


def test_typecheck_command(sig_path):
    code, out = run_cli("typecheck", "--sig", sig_path, "h")
    assert code == 0
    assert "(x * y) -> z" in out


def test_typecheck_error_exit_code(sig_path, capsys):
    code, _ = run_cli("typecheck", "--sig", sig_path, "f ; f")
    assert code == 2


def test_strictify_and_nonstrictify_round(sig_path):
    code, out = run_cli("strictify", "--sig", sig_path, "--mode", "expand",
                        "f (*) g")
    assert code == 0
    dterm = out.split("output: ", 1)[1].strip()
    code, out = run_cli("nonstrictify", "--sig", sig_path, dterm)
    assert code == 0


def test_normalize_command(sig_path):
    code, out = run_cli("normalize", "--sig", sig_path,
                        "pack[x,y] ; unpack[x,y]")
    assert code == 0
    assert "idD[x|y]" in out


def test_canonical_then_nonstrictify(catw_path):
    code, out = run_cli("canonical", "(W * (I * W))", "((W * I) * W)")
    assert code == 0
    dterm = out.split("output: ", 1)[1].strip()
    code, out = run_cli("nonstrictify", "--sig", catw_path, dterm)
    assert code == 0
    back = out.split("output: ", 1)[1].strip()
    code, out = run_cli("--json", "equal", "--sig", catw_path,
                        back, "alpha[W,I,W]")
    assert code == 0
    assert json.loads(out)["verdict"] == "equal"


def test_a_term_that_names_a_base_needs_its_signature(sig_path, capsys):
    # both languages check base names against the signature, whose
    # default declares none
    code, out = run_cli("nonstrictify", "pack[x,y] (*) idD[z]")
    assert code == 2
    assert capsys.readouterr().err == "error: unknown name: 'x'\n"
    code, out = run_cli("nonstrictify", "--sig", sig_path,
                        "pack[x,y] (*) idD[z]")
    assert code == 0
    assert out == "output: alpha[x,y,z]\n"


def test_canonical_reads_printed_wire_sequences():
    # ``typecheck --dterm`` prints wire sequences as ``[x|y]`` and ``[]``
    assert run_cli("canonical", "[]", "I") == (0, "output: unit+\n")
    assert run_cli("canonical", "[x|y]", "(x * y)") == (
        run_cli("canonical", "x|y", "(x * y)"))


@pytest.mark.parametrize("term", ["unit+ (*) idD[x|y] ; pack[I,x] (*) idD[y]",
                                  "unit-"])
def test_canonical_reads_the_ends_typecheck_prints(term, sig_path):
    def report(*argv):
        code, out = run_cli("--json", *argv)
        assert code == 0
        return json.loads(out)

    ends = report("typecheck", "--dterm", "--sig", sig_path, term)
    arrow = report("canonical", ends["dom"], ends["cod"])["output"]
    again = report("typecheck", "--dterm", "--sig", sig_path, arrow)
    assert (again["dom"], again["cod"]) == (ends["dom"], ends["cod"])


@pytest.mark.parametrize("argv", [("parse", "id[I]"),
                                  ("canonical", "W", "W")])
def test_commands_that_read_no_signature_take_no_sig(argv, sig_path):
    with pytest.raises(SystemExit) as err:
        run_cli(argv[0], "--sig", sig_path, *argv[1:])
    assert err.value.code == 2


def test_equal_command_unitors_at_unit(catw_path):
    code, out = run_cli("equal", "--sig", catw_path, "lambda[I]", "rho[I]")
    assert code == 0
    assert "verdict: equal" in out


def test_equal_with_model(tmp_path, sig_path):
    model = tmp_path / "model.cfg"
    model.write_text("x=2\ny=2\nz=2\nseed=4\n", encoding="utf-8")
    code, out = run_cli("equal", "--sig", sig_path, "--model", str(model),
                        "f", "f ; id[y]")
    assert code == 0
    assert "verdict: equal" in out


def test_render_to_file(tmp_path, sig_path):
    out_path = tmp_path / "d.svg"
    code, _ = run_cli("render", "--sig", sig_path, "--format", "svg",
                      "--out", str(out_path), "pack[x,y]")
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith("<svg")
    assert 'class="slice pack"' in text


def test_demo_parity(tmp_path):
    out_path = tmp_path / "parity.dot"
    code, out = run_cli("demo", "parity", "--n", "3", "--out", str(out_path))
    assert code == 0
    assert "lift(xor)" in out
    assert out_path.read_text(encoding="utf-8").startswith("digraph")


def test_json_reports_are_stable_and_reparse(sig_path):
    code, out = run_cli("--json", "strictify", "--sig", sig_path,
                        "--mode", "expand", "alpha[x,y,z]")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "strictify"
    parse_dmor(data["output"])  # embedded term text re-parses
    parse_cmor(data["input"])
    code, out = run_cli("--json", "normalize", "--sig", sig_path,
                        "unit+ ; unit-")
    data = json.loads(out)
    assert data["output"] == "idD[]"
    assert "trace" in data


def test_json_normalize_payload_pinned(sig_path):
    term = "pack[x,y] (*) idD[z] ; unpack[x,y] (*) idD[z]"
    code, out = run_cli("--json", "normalize", "--sig", sig_path, term)
    assert code == 0
    # an adapter-only term is presented without rewriting
    assert json.loads(out) == {
        "cancelled_pairs": 0,
        "command": "normalize",
        "input": term,
        "output": "idD[x|y|z]",
        "trace": ["adapter-only endpoints coincide: identity"],
    }


def test_json_normalize_lift_payload_pinned(sig_path):
    # the trace lists the boxes of the normal form at their base offsets;
    # the pack/unpack pair is gone from it, so one pair counts as cancelled
    term = ("pack[x,y] (*) idD[y] ; idD[(x * y)] (*) lift(g) ; "
            "unpack[x,y] (*) idD[z]")
    code, out = run_cli("--json", "normalize", "--sig", sig_path, term)
    assert code == 0
    assert json.loads(out) == {
        "cancelled_pairs": 1,
        "command": "normalize",
        "input": term,
        "output": "idD[x|y] (*) lift(g)",
        "trace": ["lift(g) at base wire 2"],
    }


def test_json_error_payload(sig_path):
    code, out = run_cli("--json", "typecheck", "--sig", sig_path, "f ; f")
    assert code == 2
    data = json.loads(out)
    assert "error" in data


def test_signature_error_placed_in_the_file(tmp_path):
    path = tmp_path / "bad.sig"
    path.write_text("obj b\n  gen f : (b * b) -> b b\n", encoding="utf-8")
    code, out = run_cli("--json", "typecheck", "--sig", str(path), "id[b]")
    assert code == 2
    assert json.loads(out)["error"] == "2:24: trailing input after generator type"


@pytest.mark.parametrize("argv", [
    ("normalize", "--sig", "{missing}", "idD[]"),
    ("equal", "--model", "{missing}", "id[I]", "id[I]"),
    ("render", "--out", "{missing}/x.svg", "idD[]"),
    ("demo", "parity", "--n", "0"),
])
def test_unreadable_files_and_bad_sizes_exit_2(argv, tmp_path, capsys):
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    code, out = run_cli(*argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")
    code, out = run_cli("--json", *argv)
    assert code == 2
    assert set(json.loads(out)) == {"command", "error"}


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "strictcat.cli", "parse", "id[I]"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "id[I]" in proc.stdout
