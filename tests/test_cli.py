import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from superquad import cli, dsl
from superquad.cohomology import (Cochain2Dual, ScalarCochain3,
                                  cocycle2_violation, free_coords_alt3,
                                  free_coords_cochain2dual,
                                  supercyclic_violation, unhat)

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
    its basis index as witness, a short basis with the two dimensions.
    The command reads Z^2_sc off the Z^3 basis it already holds."""
    solve = cli.z2_supercyclic_from_z3
    g = dsl.document_algebra(dsl.parse((CORPUS / "g2.sqd").read_text()))

    def check(solver):
        monkeypatch.setattr(cli, "z2_supercyclic_from_z3", solver)
        code, rep = run_json(["cohomology", str(CORPUS / "g2.sqd")])
        by_name = {c["name"]: c for c in rep["checks"]}
        return code, by_name["hat.dimension_agreement"]

    def replacing(index, make):
        def solver(basis, z3):
            found = solve(basis, z3)
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
    code, c = check(lambda basis, z3: solve(basis, z3)[1:])
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


def test_recognize_zero_denominator_in_ideal_is_a_parse_error():
    code, rep = run_json(["recognize", str(CORPUS / "g2_tstar0.sqd"),
                          "--ideal", "1/0*a12"])
    assert code == 2
    assert rep["error"]["kind"] == "parse"
    assert "denominator" in rep["error"]["message"]


def test_decompose_rational_failure_reports_quadric():
    text = ("basis e1:even e2:even\n"
            "form B(e1,e1) = 1\nform B(e2,e2) = 1\n")
    code, rep = run_json(["decompose"], stdin_text=text)
    assert code == 1
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["decomposition.rational_point"]["passed"] is False
    assert by_name["decomposition.rational_point"]["witness"] == "x^2 + y^2"


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


def test_parse_error_exit_2():
    code, rep = run_json(["check"], stdin_text="basis x:even\nbad line\n")
    assert code == 2
    assert rep["error"]["kind"] == "parse"
    assert rep["error"]["line"] == 2
    assert rep["error"]["column"] >= 1


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


def test_form_verified_once_on_success(monkeypatch):
    """A passing form is checked by the quadratic algebra's construction
    alone; the CLI's own checks only run to find witnesses."""
    calls = []
    for name in ("is_nondegenerate", "invariance_violation"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: calls.append(
            name))
    _, doc = run_cli(["example", "class-c", "2"])
    code, rep = run_json(["decompose"], stdin_text=doc)
    assert code == 0 and calls == []
    assert _form_checks(rep) == [
        {"name": "form.nondegenerate", "passed": True, "witness": None},
        {"name": "form.invariant", "passed": True, "witness": None}]
