import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from superquad import cli, cohomology, dsl, forms, gallery, superalgebra
from superquad.cohomology import (Cochain2Dual, ScalarCochain3,
                                  cocycle2_violation, free_coords_alt3,
                                  free_coords_cochain2dual,
                                  supercyclic_violation, unhat,
                                  zero_cochain2)
from superquad.errors import InternalCheckError
from superquad.tstar import build, s_phi_isometry

from support import HOSTILE_EDITS, hostile_edit

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def run_cli(argv, stdin_text=None):
    """Invoke the CLI in-process; returns (exit_code, stdout_text)."""
    out = io.StringIO()
    old_stdin = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        code = cli.main(argv, out=out)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


def run_json(argv, stdin_text=None):
    code, text = run_cli(argv, stdin_text)
    return code, json.loads(text)


def test_check_heisenberg():
    code, rep = run_json(["check", str(CORPUS / "heisenberg3.sqd")])
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["schema"] == 1
    assert rep["dims"]["nilpotent"] is True
    assert rep["dims"]["dim_center"] == 1


def test_check_detects_invariance_failure():
    code, rep = run_json(["check", str(CORPUS / "heisenberg3_idgram.sqd")])
    assert code == 1
    assert rep["status"] == "fail"
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["form.invariant"]["passed"] is False
    assert by_name["form.invariant"]["witness"] == ["e1", "e2", "e3"]


def test_example_gn_pipe_check():
    code, doc = run_cli(["example", "gn", "2"])
    assert code == 0
    code, rep = run_json(["check"], stdin_text=doc)
    assert code == 0
    assert rep["dims"]["nilpotent"] is True
    assert rep["dims"]["dim_center"] == 1


def test_example_class_c_pipe_decompose():
    code, doc = run_cli(["example", "class-c", "2"])
    assert code == 0
    code, rep = run_json(["decompose"], stdin_text=doc)
    assert code == 0
    assert rep["dims"]["parity_case"] == "even"
    assert rep["dims"]["ideal_dim"] == 6


def test_example_class_c_pipe_decompose_subprocess():
    """The documented shell pipeline, exercised through real processes."""
    p1 = subprocess.run([sys.executable, "-m", "superquad.cli",
                         "example", "class-c", "2"],
                        capture_output=True, text=True, check=True)
    p2 = subprocess.run([sys.executable, "-m", "superquad.cli", "decompose"],
                        input=p1.stdout, capture_output=True, text=True)
    assert p2.returncode == 0
    rep = json.loads(p2.stdout)
    assert rep["status"] == "pass"


def test_cli_import_leaves_out_dataclasses_inspect_and_typing():
    """Every CLI process imports the package afresh, so a module it does
    not need is start-up time on each command (docs/conventions.md,
    "Value classes").  Run without ``site``, which may import ``typing``
    itself."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    probe = ("import sys, superquad.cli; print(sorted("
             "{'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_example_stock_and_unknown():
    code, doc = run_cli(["example", "stock", "abelian(1|2)"])
    assert code == 0
    assert doc.startswith("basis e1:even o1:odd o2:odd")
    code, text = run_cli(["example", "stock", "nope"])
    assert code == 2


def test_example_stock_empty_abelian_is_an_input_error():
    """Every document `example` emits parses, so the empty algebra is
    refused with exit 2 rather than emitted as a bare basis line."""
    code, rep = run_json(["example", "stock", "abelian(0|0)"])
    assert code == 2
    assert rep["error"]["kind"] == "input"
    assert "p + q >= 1" in rep["error"]["message"]


def test_example_stock_abelian_size_gate():
    """abelian(p|q) past p + q = 30 is gated like the sized families."""
    code, rep = run_json(["example", "stock", "abelian(20|11)"])
    assert code == 2
    assert rep["error"]["kind"] == "input"
    assert "--allow-large" in rep["error"]["message"]
    code, doc = run_cli(["example", "stock", "abelian(20|10)"])
    assert code == 0
    assert (doc.count(":even"), doc.count(":odd")) == (20, 10)
    code, doc = run_cli(["example", "stock", "abelian(20|11)",
                         "--allow-large"])
    assert code == 0
    assert (doc.count(":even"), doc.count(":odd")) == (20, 11)


def test_check_document_without_basis_is_a_parse_error():
    message = "line 1, column 1: document declares no basis"
    for text in ("", "# nothing but a comment\n"):
        code, rep = run_json(["check"], stdin_text=text)
        assert code == 2
        assert rep["error"] == {"kind": "parse", "line": 1, "column": 1,
                                "message": message}
        code, out = run_cli(["--text", "check"], stdin_text=text)
        assert code == 2
        assert out == f"error[parse]: {message}\n"


def test_example_size_gate():
    code, _ = run_cli(["example", "gn", "5"])
    assert code == 2
    code, doc = run_cli(["example", "gn", "1"])
    assert code == 0


def test_tstar_command_roundtrip():
    code, rep = run_json(["tstar", str(CORPUS / "h3_volume_cochains.sqd"),
                          "--omega", "w"])
    assert code == 0
    assert rep["dims"]["dim"] == 6
    # the emitted document must parse and decompose
    code2, rep2 = run_json(["decompose"], stdin_text=rep["outputs"]["document"])
    assert code2 == 0


def test_tstar_rejects_non_supercyclic():
    text = ("basis e1:even e2:even e3:even\n"
            "cochain2 w(e1,e2;e3) = 1\n")
    code, rep = run_json(["tstar", "--omega", "w"], stdin_text=text)
    assert code == 1
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["omega.supercyclic"]["passed"] is False
    assert by_name["omega.supercyclic"]["witness"] is not None


def test_cohomology_command():
    code, rep = run_json(["cohomology", str(CORPUS / "heisenberg3.sqd")])
    assert code == 0
    assert rep["dims"] == {"dim_b3": 0, "dim_h3": 1,
                           "dim_z2_supercyclic": 1, "dim_z3": 1}
    assert rep["outputs"]["z3_basis"] == [{"e1,e2,e3": "1"}]


def test_cohomology_rechecks_each_supercyclic_vector(monkeypatch):
    """hat.dimension_agreement re-checks every returned Z^2_sc vector with
    the cocycle and supercyclicity verifiers: a wrong vector fails it with
    its basis index as witness, a short basis with the two dimensions."""
    solve = cli.z2_supercyclic_basis
    g = dsl.document_algebra(dsl.parse((CORPUS / "g2.sqd").read_text()))

    def check(solver):
        monkeypatch.setattr(cli, "z2_supercyclic_basis", solver)
        code, rep = run_json(["cohomology", str(CORPUS / "g2.sqd")])
        by_name = {c["name"]: c for c in rep["checks"]}
        return code, by_name["hat.dimension_agreement"]

    def replacing(index, make):
        def solver(alg):
            found = solve(alg)
            return found[:index] + [make()] + found[index + 1:]
        return solver

    def not_supercyclic():
        w = Cochain2Dual(g.basis, {free_coords_cochain2dual(g.basis)[0]: 1})
        assert supercyclic_violation(w) is not None
        return w

    def not_cocycle():
        w = unhat(ScalarCochain3(g.basis, {free_coords_alt3(g.basis)[0]: 1}))
        assert supercyclic_violation(w) is None
        assert cocycle2_violation(g, w) is not None
        return w

    assert check(solve) == (0, {"name": "hat.dimension_agreement",
                                "passed": True, "witness": None})
    for index, make in ((2, not_supercyclic), (1, not_cocycle)):
        code, c = check(replacing(index, make))
        assert code == 1 and not c["passed"] and c["witness"] == index
    code, c = check(lambda alg: solve(alg)[1:])
    assert code == 1 and not c["passed"] and c["witness"] == [3, 4]


def test_isometry_command():
    code, rep = run_json(["isometry", str(CORPUS / "h3_volume_cochains.sqd"),
                          "--phi", "phi", "--omega", "w"])
    assert code == 0
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["shear.isometry_verified"]["passed"] is True
    assert "omega2" in rep["outputs"]


def test_recognize_command():
    code, rep = run_json(["recognize", str(CORPUS / "g2_tstar0.sqd"),
                          "--ideal",
                          "a12*;d12*;b11*;b12*;b22*;c12*"])
    assert code == 0
    assert rep["outputs"]["omega"] == {}
    assert "extension" in rep["outputs"]


def test_recognize_rejects_non_ideal():
    code, rep = run_json(["recognize", str(CORPUS / "g2_tstar0.sqd"),
                          "--ideal", "a12;d12;b11;b12;b22;c12"])
    assert code == 1
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["ideal.is_ideal"]["passed"] is False


def _checks(*pairs):
    """The full checks list of a report, from (name, witness) pairs: a
    check with a witness failed, one with None passed."""
    return [{"name": name, "passed": witness is None, "witness": witness}
            for name, witness in pairs]


_AXIOMS_PASS = [("axioms.grading", None), ("axioms.super_skew", None),
                ("axioms.jacobi", None)]
_FORM_PASS = [("form.nondegenerate", None), ("form.invariant", None)]


def _unit(n, k):
    return ["1" if i == k else "0" for i in range(n)]


@pytest.mark.parametrize("path, ideal, dims, pair, bad", [
    ("g2_tstar0.sqd", "a12*;d12*;b11*;b12*;b22*", [5, 12], None, None),
    ("g2_tstar0.sqd", "a12;d12;b11;b12;b22;a12*", None,
     [_unit(12, 0), _unit(12, 6)], None),
    ("g2_tstar0.sqd", "a12; a12*", [2, 12], [_unit(12, 0), _unit(12, 6)],
     None),
    ("hyperbolic_odd.sqd", "o1; o2", [2, 2], [_unit(2, 0), _unit(2, 1)],
     None),
    ("g2_tstar0.sqd", "a12;d12;b11;b12;b22;c12", None, None,
     ["a12*", _unit(12, 2)]),
], ids=["wrong-dimension", "not-isotropic", "both", "odd-whole-space",
        "not-ideal"])
def test_recognize_ideal_check_witnesses(path, ideal, dims, pair, bad):
    """Half dimension and isotropy are reported together, and is_ideal
    only after both pass; each failure carries its witness."""
    code, rep = run_json(["recognize", str(CORPUS / path), "--ideal", ideal])
    want = _AXIOMS_PASS + _FORM_PASS + [("ideal.half_dimension", dims),
                                        ("ideal.totally_isotropic", pair)]
    if dims is None and pair is None:
        want.append(("ideal.is_ideal", bad))
    assert code == 1
    assert rep["checks"] == _checks(*want)


_JACOBI_FAILS = ("basis e1:even e2:even e3:even\n"
                 "bracket [e1,e2] = e2\nbracket [e2,e3] = e1\n"
                 "form B(e1,e1) = 1\nform B(e2,e2) = 1\nform B(e3,e3) = 1\n")


@pytest.mark.parametrize("argv", [["check"], ["recognize", "--ideal", "e1"],
                                  ["decompose"]],
                         ids=["check", "recognize", "decompose"])
def test_jacobi_failure_with_a_form_reports_the_axioms_only(argv):
    code, rep = run_json(argv, stdin_text=_JACOBI_FAILS)
    assert code == 1
    assert rep["checks"] == _checks(
        *_AXIOMS_PASS[:2], ("axioms.jacobi", ["e1", "e2", "e3"]))
    assert rep["dims"] == {}


@pytest.mark.parametrize("argv, what", [
    (["recognize", "--ideal", "e1"], "recognition"),
    (["decompose"], "decomposition")], ids=["recognize", "decompose"])
def test_document_without_a_form_is_an_input_error(argv, what):
    text = "basis e1:even e2:even\nbracket [e1,e2] = e2\n"
    message = f"{what} needs a form in the document"
    code, rep = run_json(argv, stdin_text=text)
    assert code == 2
    assert rep["error"] == {"kind": "input", "line": None, "column": None,
                            "message": message}
    code, out = run_cli(["--text", *argv], stdin_text=text)
    assert code == 2
    assert out == f"error[input]: {message}\n"


def test_recognize_zero_denominator_in_ideal_is_a_parse_error():
    code, rep = run_json(["recognize", str(CORPUS / "g2_tstar0.sqd"),
                          "--ideal", "1/0*a12"])
    assert code == 2
    assert rep["error"]["kind"] == "parse"
    assert "denominator" in rep["error"]["message"]


def test_ideal_parse_error_column_counts_within_the_option():
    """The column of an error in a later ``;``-part of --ideal counts
    from the start of the option's value, not of the part."""
    text = "basis x:even y:even\nform B(x,y) = 1\n"
    for ideal, column in (("x; y + 1/0*x", 8), (" 1/0*x", 2),
                          ("x;;  y y", 8)):
        code, rep = run_json(["recognize", "--ideal", ideal],
                             stdin_text=text)
        assert code == 2
        assert (rep["error"]["kind"], rep["error"]["line"],
                rep["error"]["column"]) == ("parse", 1, column), ideal


def test_decompose_rational_failure_reports_quadric():
    text = ("basis e1:even e2:even\n"
            "form B(e1,e1) = 1\nform B(e2,e2) = 1\n")
    code, rep = run_json(["decompose"], stdin_text=text)
    assert code == 1
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["decomposition.rational_point"]["passed"] is False
    assert by_name["decomposition.rational_point"]["witness"] == "x^2 + y^2"


def _rotation_tstar_document() -> str:
    """T*_0 of <h, x, y>, [h, x] = y, [h, y] = 2x, whose dual ideal is a
    rational Lagrangian ideal that the flag misses (ROADMAP item 5)."""
    g = superalgebra.from_brackets(("h", "x", "y"), (0, 0, 0), {
        ("h", "x"): {"y": 1}, ("h", "y"): {"x": 2}})
    return dsl.emit(dsl.document_quadratic(build(g).total))


def test_decompose_of_tstar_rotation_fails_though_recognize_verifies():
    text = _rotation_tstar_document()
    code, rep = run_json(["decompose"], stdin_text=text)
    assert code == 1
    assert rep["checks"][-1] == {"name": "decomposition.rational_point",
                                 "passed": False,
                                 "witness": "t^4 - 4*t^2 + 4"}
    code, rep = run_json(["recognize", "--ideal", "h*; x*; y*"],
                         stdin_text=text)
    assert code == 0
    by_name = {c["name"]: c["passed"] for c in rep["checks"]}
    assert by_name["recognition.isometry_verified"] is True


def test_decompose_solvable_quadric_failure_reports_the_quadric():
    a2 = superalgebra.abelian(2, 0)
    plane = forms.QuadraticLieSuperalgebra(
        a2, forms.even_form(a2.basis, [[1, 0], [0, 1]]))
    q = gallery.orthogonal_direct_sum(build(gallery.solvable2d()).total,
                                      plane)
    code, rep = run_json(["decompose"],
                         stdin_text=dsl.emit(dsl.document_quadratic(q)))
    assert code == 1
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["decomposition.rational_point"]["witness"] == "x^2 + y^2"
    assert rep["dims"]["obstruction"] == "definite"


def _diagonal_document(*diag):
    names = [f"e{i + 1}" for i in range(len(diag))]
    return ("basis " + " ".join(f"{n}:even" for n in names) + "\n"
            + "".join(f"form B({n},{n}) = {d}\n" for n, d in zip(names, diag)))


def test_decompose_exact_isotropy_outcomes():
    code, rep = run_json(["decompose"],
                         stdin_text=_diagonal_document(1, 1, -41))
    assert code == 0 and rep["dims"]["ideal_dim"] == 1
    code, rep = run_json(["decompose"],
                         stdin_text=_diagonal_document(1, 1, -3))
    assert code == 1
    assert rep["dims"]["obstruction"] == 2
    assert rep["checks"][-1]["witness"] == "x^2 + y^2 - 3*z^2"
    # 100003 * 100019: two primes above the trial-division cap
    code, rep = run_json(["decompose"],
                         stdin_text=_diagonal_document(1, 1, -10002200057))
    assert code == 2
    assert rep["error"]["kind"] == "undecided"


def test_internal_check_failure_is_reported_as_internal(monkeypatch):
    """A failed theorem-backed check of the library's own output is not
    blamed on the input: the kind is "internal", and the exit code 2."""
    def injected(*args):
        raise InternalCheckError("injected")
    monkeypatch.setattr(cli, "s_phi_isometry", injected)
    argv = ["isometry", str(CORPUS / "h3_volume_cochains.sqd"), "--phi", "phi"]
    assert run_cli(argv + ["--text"]) == (2, "error[internal]: injected\n")
    code, rep = run_json(argv)
    assert code == 2
    assert rep["error"] == {"kind": "internal", "message": "injected",
                            "line": None, "column": None}


@pytest.mark.parametrize("argv, message", [
    (["tstar", "--omega", "v"], "document defines no cochain2 named 'v'"),
    (["isometry", "--phi", "psi"], "document defines no scalar2 named "
     "'psi'")], ids=["omega", "phi"])
def test_an_absent_cochain_name_is_an_input_error(argv, message):
    code, rep = run_json([*argv, str(CORPUS / "h3_volume_cochains.sqd")])
    assert code == 2
    assert rep["error"] == {"kind": "input", "line": None, "column": None,
                            "message": message}


def test_parse_error_exit_2():
    code, rep = run_json(["check"], stdin_text="basis x:even\nbad line\n")
    assert code == 2
    assert rep["error"]["kind"] == "parse"
    assert rep["error"]["line"] == 2
    assert rep["error"]["column"] >= 1


@pytest.mark.parametrize("argv, line2, where", [
    (["check"], "bracket [e1,e2] = {}*e2", (2, 19)),
    (["tstar"], "bracket [e1,e2] = 1/{}*e2", (2, 19)),
    (["cohomology"], "bracket [e1,e2] = -{}*e2", (2, 20)),
    (["check"], "form B(e1,e2) = -{}", (2, 17)),
    (["recognize", "--ideal", "{}*e1"], "form B(e1,e2) = 1", (1, 1))],
    ids=["bracket", "denominator", "after-sign", "form", "ideal"])
def test_an_over_long_literal_is_a_parse_error(argv, line2, where):
    """A numerator or denominator has at most dsl.MAX_DIGITS digits,
    Python's default cap on reading an int; an integer past that in a
    literal is a parse error at the literal's first column, in a document
    or in --ideal (exit 2), though main lifts Python's own cap."""
    limit = dsl.MAX_DIGITS
    big = "7" * (limit + 1)
    text = f"basis e1:even e2:even\n{line2.format(big)}\n"
    argv = [a.format(big) for a in argv]
    message = f"line {where[0]}, column {where[1]}: integer has over " \
        f"{limit} digits"
    code, rep = run_json(argv, stdin_text=text)
    assert code == 2
    assert rep["error"] == {"kind": "parse", "line": where[0],
                            "column": where[1], "message": message}
    code, out = run_cli(["--text", *argv], stdin_text=text)
    assert (code, out) == (2, f"error[parse]: {message}\n")


def test_a_literal_at_the_digit_limit_parses():
    limit = dsl.MAX_DIGITS
    text = f"basis e1:even e2:even\nbracket [e1,e2] = {'7' * limit}*e2\n"
    code, rep = run_json(["check"], stdin_text=text)
    assert code == 0
    assert rep["dims"]["solvable"] is True


def test_a_value_past_the_int_digit_limit_is_written_in_full():
    """[x, y] = N z and phi(z, u) = N give omega2(x, y)(u) = N^2, past
    the digits Python converts to a string by default: the report writes
    it in full, in JSON and in --text, and main restores the limit."""
    limit = sys.get_int_max_str_digits()
    big = 10 ** (limit // 2 + 100) + 7
    text = ("basis x:even y:even z:even u:even\n"
            f"bracket [x,y] = {big}*z\ncochain2 w(x,y;z) = 0\n"
            f"scalar2 phi(z,u) = {big}\n")
    argv = ["isometry", "--omega", "w", "--phi", "phi"]
    code, rep = run_json(argv, stdin_text=text)
    text_code, out = run_cli(["--text", *argv], stdin_text=text)
    assert (code, text_code) == (0, 0)
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        square = str(big * big)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(square) > limit
    want = {"x,y,u": square, "x,u,y": "-" + square, "y,u,x": square}
    assert rep["outputs"]["omega2"] == want
    assert f"omega2 = {want}\n" in out


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: writing, or only flushing what was
    written, raises BrokenPipeError."""

    def __init__(self, on):
        super().__init__()
        self.on = on

    def write(self, text):
        if self.on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.on == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("on", ["write", "flush"])
@pytest.mark.parametrize("argv", [
    ["check", str(CORPUS / "heisenberg3.sqd")],
    ["--text", "check", str(CORPUS / "heisenberg3_idgram.sqd")],
    ["check", "--max-dim", "2", str(CORPUS / "heisenberg3.sqd")],
    ["example", "gn", "2"]], ids=["pass", "fail", "error", "example"])
def test_a_closed_stdout_exits_2(argv, on):
    """Whatever the report says, a stdout that cannot take it ends the
    command with exit 2, without raising."""
    assert cli.main(argv, out=_ClosedPipe(on)) == 2


def test_a_closed_pipe_ends_the_process_quietly(tmp_path):
    """superquad cohomology FILE | head -c 10: the 150 kB report fills the
    pipe, head exits after 10 bytes, and the writer then exits 2 with
    nothing on stderr, rather than a BrokenPipeError traceback."""
    code, doc = run_cli(["example", "class-c", "3"])
    path = tmp_path / "class_c3.sqd"
    path.write_text(doc)
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    writer = subprocess.Popen(
        [sys.executable, "-m", "superquad.cli", "cohomology", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)})
    try:
        head = subprocess.run(["head", "-c", "10"], stdin=writer.stdout,
                              capture_output=True, timeout=60, check=True)
        writer.stdout.close()  # head has gone, so the pipe has no reader
        assert writer.wait(timeout=60) == 2
        assert writer.stderr.read() == b""
    finally:
        writer.kill()
        writer.stderr.close()
    assert head.stdout == b'{\n  "check'


def test_max_dim_guard():
    code, rep = run_json(["check", "--max-dim", "2",
                          str(CORPUS / "heisenberg3.sqd")])
    assert code == 2
    assert "max-dim" in rep["error"]["message"]


def test_reports_byte_identical():
    for argv in (["check", str(CORPUS / "g2.sqd")],
                 ["cohomology", str(CORPUS / "heisenberg3.sqd")],
                 ["decompose", str(CORPUS / "hyperbolic_even.sqd")]):
        c1, t1 = run_cli(list(argv))
        c2, t2 = run_cli(list(argv))
        assert (c1, t1) == (c2, t2)


def test_text_mode():
    code, text = run_cli(["--text", "check", str(CORPUS / "heisenberg3.sqd")])
    assert code == 0
    assert "axioms.jacobi: PASS" in text
    assert "status: pass" in text


def test_text_mode_tstar_output_is_parseable():
    code, text = run_cli(["--text", "tstar",
                          str(CORPUS / "heisenberg3.sqd")])
    assert code == 0
    from superquad import dsl
    doc = dsl.parse(text)  # report lines are comments
    assert doc.dim == 6


def test_missing_file_exit_2():
    code, rep = run_json(["check", "/nonexistent/path.sqd"])
    assert code == 2
    assert rep["error"]["kind"] == "input"


def test_unreadable_input_exit_2(tmp_path):
    """A directory and a file that is not UTF-8 are input errors."""
    undecodable = tmp_path / "bytes.sqd"
    undecodable.write_bytes(b"\xff")
    for path in (tmp_path, undecodable):
        code, rep = run_json(["check", str(path)])
        assert code == 2
        assert rep["error"]["kind"] == "input"


def _form_checks(rep):
    return [c for c in rep["checks"] if c["name"].startswith("form.")]


def test_form_checks_match_the_check_command():
    """decompose and recognize report the form checks check reports, with
    the same witnesses, on a degenerate and a non-invariant form too."""
    docs = [(CORPUS / name).read_text() for name in
            ("heisenberg3_idgram.sqd", "g2_tstar0.sqd", "hyperbolic_odd.sqd")]
    docs.append("basis e1:even e2:even\nform B(e1,e1) = 1\n")
    for text in docs:
        _, want = run_json(["check"], stdin_text=text)
        label = dsl.parse(text).names[0]
        for argv in (["decompose"], ["recognize", "--ideal", label]):
            _, rep = run_json(argv, stdin_text=text)
            assert _form_checks(rep) == _form_checks(want), (argv, text)
    assert [c["witness"] for c in _form_checks(want)] == [["0", "1"], None]


G2_TSTAR0 = (CORPUS / "g2_tstar0.sqd").read_text()
# d phi is nonzero, so omega2 differs from the document's omega (0)
G2_PHI = (CORPUS / "g2.sqd").read_text() + "scalar2 phi(a12,d12) = 1\n"


def _count_checks(monkeypatch, algebras, form):
    """Record (check, owner) for each run of Jacobi and invariance on an
    algebra of ``algebras`` (name -> algebra), of the radical reduction on
    ``form`` ("document"), and of either cochain verifier on any cochain,
    wherever a module binds them."""
    def of(g):
        return [name for name, alg in algebras.items() if alg == g]
    calls = []
    for home, name, owners in (
            (superalgebra, "jacobi_violations", of),
            (forms, "invariance_violation", lambda g, B: of(g)),
            (forms, "radical", lambda B: ["document"] * (B == form)),
            (cohomology, "cocycle2_violation", lambda g, w: ["any"]),
            (cohomology, "supercyclic_violation", lambda w: ["any"])):
        fn = getattr(home, name)

        def counting(*args, fn=fn, name=name, owners=owners):
            calls.extend((name, who) for who in owners(*args))
            return fn(*args)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("superquad")
                    and getattr(module, name, None) is fn):
                monkeypatch.setattr(module, name, counting)
    return calls


def _extensions(argv, doc, alg):
    """The algebras of the extensions that a tstar or isometry command
    builds from the document, by name; none for the other commands."""
    omega = (dsl.document_cochain2(doc, argv[argv.index("--omega") + 1])
             if "--omega" in argv else zero_cochain2(alg))
    if argv[0] == "tstar":
        return {"extension": build(alg, omega).total.algebra}
    if argv[0] == "isometry":
        shear = s_phi_isometry(alg, omega, dsl.document_scalar2(
            doc, argv[argv.index("--phi") + 1]))
        return {"source": shear.source.total.algebra,
                "target": shear.target.total.algebra}
    return {}


@pytest.mark.parametrize("argv, text", [
    (["check"], G2_TSTAR0),
    (["recognize", "--ideal", "a12*;d12*;b11*;b12*;b22*;c12*"], G2_TSTAR0),
    (["decompose"], G2_TSTAR0),
    (["tstar", "--omega", "w"],
     (CORPUS / "h3_volume_cochains.sqd").read_text()),
    (["isometry", "--phi", "phi"], G2_PHI)],
    ids=["check", "recognize", "decompose", "tstar", "isometry"])
def test_each_check_runs_once_on_the_document(monkeypatch, argv, text):
    """The axioms, the form and omega are checked once, by the quadratic
    algebras' construction, and the CLI runs no check of its own: Jacobi,
    then invariance and the radical reduction on the document's form, or
    Jacobi and invariance on each extension that build accepts, each run
    once, and no cochain verifier at all."""
    doc = dsl.parse(text)
    alg, form = dsl.document_algebra(doc), dsl.document_form(doc)
    exts = _extensions(argv, doc, alg)
    calls = _count_checks(monkeypatch, {"document": alg, **exts}, form)
    code, rep = run_json(argv, stdin_text=text)
    assert code == 0
    if form is None:
        label = "omega1" if argv[0] == "isometry" else "omega"
        assert sorted(calls) == sorted(
            [("jacobi_violations", "document")]
            + [(check, name) for name in exts for check in (
                "jacobi_violations", "invariance_violation")])
        assert [c for c in rep["checks"] if c["name"].startswith(label)] \
            == [{"name": f"{label}.cocycle", "passed": True, "witness": None},
                {"name": f"{label}.supercyclic", "passed": True,
                 "witness": None}]
        return
    assert sorted(calls) == [("invariance_violation", "document"),
                             ("jacobi_violations", "document"),
                             ("radical", "document")]
    assert _form_checks(rep) == [
        {"name": "form.nondegenerate", "passed": True, "witness": None},
        {"name": "form.invariant", "passed": True, "witness": None}]


NOT_COCYCLE = ((CORPUS / "g2.sqd").read_text()
               + "cochain2 w(d12,b22;b22) = 1\nscalar2 phi(a12,d12) = 1\n")
NOT_SUPERCYCLIC = ("basis e1:even e2:even e3:even e4:even\n"
                   "cochain2 w(e2,e4;e3) = 1\nscalar2 phi(e1,e2) = 1\n")


def _rejected_omega(monkeypatch, command, text, check):
    """The cochain verifiers that a tstar or isometry run on ``text``
    calls, and its failed omega check."""
    calls = _count_checks(monkeypatch, {}, None)
    argv = [command, "--omega", "w"] + ["--phi", "phi"] * (
        command == "isometry")
    code, rep = run_json(argv, stdin_text=text)
    assert code == 1
    label = "omega1" if command == "isometry" else "omega"
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name[f"{label}.{check}"]["passed"] is False
    return [c for c, _ in calls], by_name[f"{label}.{check}"]["witness"]


@pytest.mark.parametrize("command", ["tstar", "isometry"])
def test_a_rejected_non_cocycle_runs_no_verifier(monkeypatch, command):
    """g satisfies Jacobi, so the extension's first Jacobi triple is
    omega's first failing cocycle triple: build names it off the report,
    and the report fails on the triple that checking omega first gave."""
    calls, witness = _rejected_omega(monkeypatch, command, NOT_COCYCLE,
                                     "cocycle")
    assert calls == []
    assert witness == ["b22", "b22", "c12"]


@pytest.mark.parametrize("command", ["tstar", "isometry"])
@pytest.mark.parametrize("text, verifier, check, witness", [
    (NOT_SUPERCYCLIC, "supercyclic_violation", "supercyclic",
     ["e2", "e4", "e3"])], ids=["not-supercyclic"])
def test_a_rejected_omega_runs_its_verifier_once(monkeypatch, command, text,
                                                 verifier, check, witness):
    """When the extension fails its invariance check, build runs
    supercyclic_violation once, to name omega's triple; the report fails
    on that triple, the one that checking omega first gave."""
    calls, got = _rejected_omega(monkeypatch, command, text, check)
    assert calls == [verifier]
    assert got == witness


FUZZ_SECONDS = 5.0  # each command on an edited corpus document takes < 0.1 s
@given(st.sampled_from(sorted(CORPUS.glob("*.sqd"))),
       st.sampled_from(HOSTILE_EDITS), st.data())
@settings(max_examples=40, deadline=None)
def test_hostile_edits_of_the_corpus_end_in_a_report(path, edit, data):
    """Every command form on a corpus document with one hostile edit
    raises nothing, exits 0, 1 or 2, and writes a schema-1 JSON report,
    each within FUZZ_SECONDS."""
    text = path.read_text(encoding="utf-8")
    doc = dsl.parse(text)
    ideal = [n for n in doc.names if n.endswith("*")] or doc.names[:1]
    commands = [["check"], ["tstar"], ["cohomology"],
                ["recognize", "--ideal", "; ".join(ideal)], ["decompose"]]
    commands += [["isometry", "--phi", phi] for phi in sorted(doc.scalar2)]
    edited = hostile_edit(data.draw, text, doc.names, edit)
    for argv in commands:
        start = time.perf_counter()
        code, out = run_cli(argv, stdin_text=edited)
        assert time.perf_counter() - start < FUZZ_SECONDS, argv
        assert code in (0, 1, 2), argv
        assert json.loads(out)["schema"] == 1, argv
