import io
import json
import pathlib
import re
from fractions import Fraction

import pytest

import superquad as sq
from superquad import cli, dsl
from superquad.cohomology import hat, unhat, z3_basis
from superquad.errors import NotGradedError
from superquad.linalg import vec

import dense_oracle as dense
from support import document_cochain3

F = Fraction

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def test_parse_one_dim_abelian():
    doc = dsl.parse("basis x:even\nbracket [x,x] = 0\n")
    alg = dsl.document_algebra(doc)
    assert alg.dim == 1
    assert sq.check_axioms(alg).passed


def test_parse_h3_equals_stock():
    text = "basis e1:even e2:even e3:even\nbracket [e1,e2] = e3\n"
    alg = dsl.document_algebra(dsl.parse(text))
    assert alg == sq.heisenberg3()


def test_skew_completion_applied():
    text = "basis e1:even e2:even e3:even\nbracket [e2,e1] = -e3\n"
    alg = dsl.document_algebra(dsl.parse(text))
    assert alg == sq.heisenberg3()


def test_consistent_restatement_allowed():
    text = ("basis e1:even e2:even e3:even\n"
            "bracket [e1,e2] = e3\nbracket [e2,e1] = -e3\n")
    alg = dsl.document_algebra(dsl.parse(text))
    assert alg == sq.heisenberg3()


def test_parity_violation_line_and_column():
    text = "basis x:even y:odd\nbracket [x,x] = y"
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse(text)
    assert exc.value.line == 2
    assert "parity" in str(exc.value)


def test_undeclared_label():
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse("basis x:even\nbracket [x,z] = 0")
    assert "undeclared" in str(exc.value)
    assert exc.value.line == 2


def test_contradiction_errors():
    bad = ("basis x:even y:even z:even\n"
           "bracket [x,y] = z\nbracket [y,x] = z\n")
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse(bad)
    assert "contradictory" in str(exc.value)
    with pytest.raises(dsl.ParseError):
        dsl.parse("basis o:odd\nform B(o,o) = 1")
    with pytest.raises(dsl.ParseError):
        dsl.parse("basis x:even\ncochain2 w(x,x;x) = 1")


def test_every_entry_statement_declares_its_name():
    doc = dsl.parse("basis x:even o:odd\n"
                    "form B(x,o) = 0\n"
                    "cochain2 w(x,x;x) = 0\n"
                    "cochain3 f(x,x,o) = 0\n"
                    "scalar2 phi(x,o) = 0\n")
    assert (doc.form_name, doc.form_entries) == ("B", {})
    assert doc.cochain2 == {"w": {}}
    assert doc.cochain3 == {"f": {}}
    assert doc.scalar2 == {"phi": {}}
    assert dsl.document_scalar2(doc, "phi") == sq.zero_scalar2(doc.basis())


def test_entries_in_any_order_read_back_where_written():
    """Each statement, transposed or not, is the container's value at the
    position written, by the dense completions of the oracle."""
    doc = dsl.parse("basis x:even y:even o:odd p:odd\n"
                    "form B(y,x) = 2\nform B(p,o) = 3\nform B(x,x) = 1\n"
                    "cochain2 w(p,o;x) = 5\ncochain2 w(y,x;y) = 7\n"
                    "cochain3 f(o,x,p) = 1\ncochain3 f(p,p,y) = 2\n"
                    "scalar2 phi(y,x) = 1\nscalar2 phi(p,o) = 6\n"
                    "scalar2 phi(o,o) = 4\n")
    G = dense.gram(dsl.document_form(doc))
    assert (G[1][0], G[3][2], G[0][0]) == (2, 3, 1)
    w = dense.cochain2dual_tensor(dsl.document_cochain2(doc, "w"))
    assert (w[3][2][0], w[1][0][1]) == (5, 7)
    f = dense.alt3_tensor(document_cochain3(doc, "f"))
    assert (f[2][0][3], f[3][3][1]) == (1, 2)
    phi = dense.scalar2_matrix(dsl.document_scalar2(doc, "phi"))
    assert (phi[1][0], phi[3][2], phi[2][2]) == (1, 6, 4)


# (statements after the basis line, a word the message must contain or
# None, line, column)
REJECTED_ENTRIES = [
    ("form B(x,o) = 1", "parity", 2, 16),
    ("form B(o,o) = 1", None, 2, 16),
    ("form B(x,y) = 1\nform B(y,x) = 2", "contradictory", 3, 16),
    ("form B(x,y) = 1\nform B(y,x) = 0", "contradictory", 3, 16),
    ("form B(x,y) = 1\nform C(x,y) = 1", "already defines form", 3, 7),
    ("cochain2 w(x,y;o) = 1", "parity", 2, 22),
    ("cochain2 w(x,x;y) = 1", None, 2, 22),
    ("cochain2 w(x,y;z) = 1\ncochain2 w(y,x;z) = 1", "contradictory", 3, 22),
    ("cochain3 f(x,y,o) = 1", "parity", 2, 22),
    ("cochain3 f(x,x,y) = 1", None, 2, 22),
    ("cochain3 f(x,y,z) = 1\ncochain3 f(y,x,z) = 1", "contradictory", 3, 22),
    ("scalar2 phi(x,o) = 1  # comment", "parity", 2, 21),
    ("scalar2 phi(x,x) = 1", None, 2, 21),
    ("scalar2 phi(x,y) = 1\nscalar2 phi(y,x) = 1", "contradictory", 3, 21),
    ("form B(x,x) = 1/0", "denominator", 2, 15),
    ("bracket [x,y] = 2/0*y", "denominator", 2, 17),
    ("cochain2 w(x,y;z) = -3/00", "denominator", 2, 21),
]


@pytest.mark.parametrize("body,word,line,column", REJECTED_ENTRIES)
def test_rejected_entry_statements(monkeypatch, body, word, line, column):
    text = f"basis x:even y:even z:even o:odd\n{body}\n"
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert word is None or word in str(exc.value)
    out = io.StringIO()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.main(["check"], out=out) == 2
    error = json.loads(out.getvalue())["error"]
    assert (error["kind"], error["line"], error["column"]) == (
        "parse", line, column)


def test_syntax_error_position():
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse("basis x:even\nbracket [x y] = 0")
    assert exc.value.line == 2
    assert exc.value.column > 1


def test_rationals_and_coefficients():
    text = ("basis a:even b:even c:even\n"
            "bracket [a,b] = 2*c\nbracket [a,c] = -1/2*b + 3*c\n")
    alg = dsl.document_algebra(dsl.parse(text))
    assert alg.table[0][1] == ((2, 2),)
    assert alg.table[0][2] == ((1, F(-1, 2)), (2, 3))
    assert alg.table[2][0] == ((1, F(1, 2)), (2, -3))


def test_signed_sum_renders_brackets_quadrics_and_polynomials():
    assert dsl.signed_sum([(F(-1, 2), "b"), (3, "c")]) == "-1/2*b + 3*c"
    assert dsl.signed_sum([(2, "x^2"), (-1, "y^2"), (0, "z^2"),
                           (F(-3, 2), "")]) == "2*x^2 - y^2 - 3/2"
    assert dsl.signed_sum([(-1, "t"), (1, "")]) == "-t + 1"
    assert dsl.signed_sum([(0, "x")]) == dsl.signed_sum([]) == "0"


def test_emit_parse_fixed_point_corpus():
    files = sorted(CORPUS.glob("*.sqd"))
    assert len(files) == 10
    for path in files:
        text = path.read_text(encoding="utf-8")
        doc = dsl.parse(text)
        emitted = dsl.emit(doc)
        doc2 = dsl.parse(emitted)
        assert doc2 == doc, path.name
        assert dsl.emit(doc2) == emitted, path.name


def test_document_from_roundtrip_gallery(gallery):
    for name, g in gallery.items():
        doc = dsl.parse(dsl.emit(dsl.document_from(g)))
        assert dsl.document_algebra(doc) == g, name


def test_document_quadratic_roundtrip():
    ext = sq.tstar_of_gn(2).total
    doc = dsl.parse(dsl.emit(dsl.document_quadratic(ext)))
    assert dsl.document_algebra(doc) == ext.algebra
    assert dsl.document_form(doc) == ext.form


def test_cochain_roundtrip():
    h3 = sq.heisenberg3()
    vol = z3_basis(h3)[0]
    doc = dsl.parse(dsl.emit(dsl.document_from(
        h3, cochain2={"w": unhat(vol)}, cochain3={"f": vol})))
    assert dsl.document_cochain2(doc, "w") == unhat(vol)
    assert document_cochain3(doc, "f") == vol


def test_parse_span():
    doc = dsl.parse("basis e1:even e2:even e3:even\n")
    span = dsl.parse_span(doc, "e1; e2 + 1/2*e3")
    assert span.dim == 2
    assert span.contains_vector(vec([0, 2, 1]))


def test_parse_span_rejects_a_zero_denominator():
    doc = dsl.parse("basis x:even y:even\n")
    with pytest.raises(dsl.ParseError, match="denominator") as exc:
        dsl.parse_span(doc, "y + 1/0*x")
    assert (exc.value.line, exc.value.column) == (1, 5)


def test_parse_span_rejects_nongraded():
    doc = dsl.parse("basis e:even o:odd\n")
    with pytest.raises(NotGradedError):
        dsl.parse_span(doc, "e + o")


def test_multiple_basis_lines():
    doc = dsl.parse("basis a:even\nbasis b:odd\n")
    assert doc.names == ("a", "b")
    assert doc.parities == (0, 1)


def test_comments_and_blank_lines():
    text = "# header\n\nbasis x:even  # trailing\n\n# done\n"
    doc = dsl.parse(text)
    assert doc.names == ("x",)


@pytest.mark.parametrize("body, what", [
    ("form B(x,y) = 0\nform B(y,x) = 1", "form B"),
    ("bracket [x,y] = 0\nbracket [x,y] = z", "bracket [x,y]"),
    ("bracket [x,y] = 0\nbracket [y,x] = z", "bracket [y,x]"),
    ("cochain2 w(x,y;z) = 0\ncochain2 w(y,x;z) = 1", "cochain2 w"),
])
def test_contradicting_an_explicit_zero(body, what):
    with pytest.raises(dsl.ParseError,
                       match=re.escape(f"contradictory entry for {what}")
                       ) as exc:
        dsl.parse("basis x:even y:even z:even\n" + body)
    assert exc.value.line == 3


def test_restated_zeros_are_not_stored():
    doc = dsl.parse("basis x:even y:even z:even\n"
                    "form B(x,y) = 0\nform B(y,x) = 0\nform B(z,z) = 1\n"
                    "bracket [x,y] = 0\nbracket [y,x] = 0\n"
                    "bracket [x,z] = 0\nbracket [y,z] = x\n")
    assert doc.form_entries == {(2, 2): 1}
    assert doc.brackets == {(1, 2): vec([1, 0, 0])}
