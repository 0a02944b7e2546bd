"""Cross-module edge cases: odd parity blocks, odd-dimensional solvable
inputs, text rendering, and unusual but legal DSL labels."""

import io
import json
from fractions import Fraction

import pytest

import superquad as sq
from superquad import cli, dsl
from superquad.decompose import decompose
from superquad.errors import PreconditionError
from superquad.gallery import even_line, orthogonal_direct_sum
from superquad.linalg import rank, unit_vec
from superquad.superalgebra import subspace
from superquad.tstar import build, recognize

F = Fraction


def run_cli(argv, stdin_text=None):
    import sys
    out = io.StringIO()
    old = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        code = cli.main(argv, out=out)
    finally:
        sys.stdin = old
    return code, out.getvalue()


def test_recognize_purely_odd():
    """Recognition along an odd Lagrangian line of the odd hyperbolic
    plane exercises the odd block of the isotropic complement."""
    q = sq.hyperbolic_odd()
    iso = subspace(q.basis, [unit_vec(2, 0)])
    ext, psi = recognize(q, iso)
    assert ext.total.dim == 2
    assert ext.base.basis.parities == (1,)
    assert rank(psi) == 2


def test_decompose_purely_odd():
    dec = decompose(sq.hyperbolic_odd())
    assert dec.parity_case == "even"
    assert dec.ideal.dim == 1
    assert len(dec.ideal.odd_rows) == 1


def test_decompose_odd_dim_solvable():
    """Odd total dimension and the solvable eigenvector branch at once."""
    Q = orthogonal_direct_sum(build(sq.solvable2d()).total, even_line())
    assert Q.dim == 5
    assert sq.is_solvable(Q.algebra) and not sq.is_nilpotent(Q.algebra)
    assert sq.class_condition(Q.algebra)
    dec = decompose(Q)
    assert dec.parity_case == "odd"
    assert dec.ideal.dim == 2
    assert dec.extension.total.dim == 6


def test_decompose_mixed_parity_odd_dim():
    Q = orthogonal_direct_sum(build(sq.abelian(1, 2)).total,
                              build(sq.heisenberg3()).total)
    Q = orthogonal_direct_sum(Q, even_line())
    assert Q.dim == 13
    dec = decompose(Q)
    assert dec.parity_case == "odd"
    assert dec.ideal.dim == 6


def test_text_mode_decompose_renders():
    code, text = run_cli(["--text", "decompose"], stdin_text=(
        "basis e1:even e2:even\nform B(e1,e2) = 1\n"))
    assert code == 0
    assert "decomposition.embedding_verified: PASS" in text
    assert "--- extension ---" in text


def test_text_mode_error():
    code, text = run_cli(["--text", "check"], stdin_text="junk\n")
    assert code == 2
    assert text == "error[parse]: line 1, column 1: unknown statement 'junk'\n"
    # the location is printed once; JSON keeps it in the message and fields
    code, text = run_cli(["--text", "check"], stdin_text="basis\n")
    assert text == "error[parse]: line 1, column 6: empty basis declaration\n"
    code, text = run_cli(["check"], stdin_text="basis\n")
    assert json.loads(text)["error"] == {
        "kind": "parse", "line": 1, "column": 6,
        "message": "line 1, column 6: empty basis declaration"}


def test_dsl_primed_and_starred_labels():
    text = ("basis e:even e':even e*:even\n"
            "bracket [e,e'] = 2*e*\n")
    doc = dsl.parse(text)
    alg = dsl.document_algebra(doc)
    assert alg.coords == {(0, 1, 2): 2}
    assert dsl.parse(dsl.emit(doc)) == doc


def test_dual_label_collision_rejected():
    g = sq.from_brackets(("x", "x*"), (0, 0), {})
    with pytest.raises(PreconditionError):
        build(g)


def test_empty_document_rejected():
    code, rep = run_cli(["check"], stdin_text="# nothing here\n")
    assert code == 2
    assert json.loads(rep)["error"]["kind"] == "parse"


def test_cli_glnn_pipe():
    code, doc = run_cli(["example", "glnn", "2"])
    assert code == 0
    code, text = run_cli(["check"], stdin_text=doc)
    rep = json.loads(text)
    assert code == 0
    assert rep["dims"]["dim"] == 16
    assert rep["dims"]["nilpotent"] is False


def test_cli_tstar_then_recognize_roundtrip():
    code, doc = run_cli(["example", "stock", "heisenberg3"])
    code, text = run_cli(["tstar"], stdin_text=doc)
    assert code == 0
    ext_doc = json.loads(text)["outputs"]["document"]
    code, text = run_cli(["recognize", "--ideal", "e1*;e2*;e3*"],
                         stdin_text=ext_doc)
    assert code == 0
    rep = json.loads(text)
    assert rep["outputs"]["omega"] == {}


def test_seed_echoed():
    code, text = run_cli(["--seed", "7", "check"],
                         stdin_text="basis x:even\n")
    assert json.loads(text)["seed"] == 7


def test_max_dim_position_independent():
    code1, _ = run_cli(["--max-dim", "2", "check"],
                       stdin_text="basis a:even b:even c:even\n")
    code2, _ = run_cli(["check", "--max-dim", "2"],
                       stdin_text="basis a:even b:even c:even\n")
    assert code1 == code2 == 2
