import pathlib
from fractions import Fraction

import pytest

import superquad as sq
from superquad import dsl
from superquad.cohomology import hat, unhat, z3_basis
from superquad.errors import NotGradedError
from superquad.linalg import vec

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
    assert dsl.document_form(doc).gram == ext.form.gram


def test_cochain_roundtrip():
    h3 = sq.heisenberg3()
    vol = z3_basis(h3)[0]
    doc = dsl.parse(dsl.emit(dsl.document_from(
        h3, cochain2={"w": unhat(vol)}, cochain3={"f": vol})))
    assert dsl.document_cochain2(doc, "w") == unhat(vol)
    assert dsl.document_cochain3(doc, "f") == vol


def test_parse_span():
    doc = dsl.parse("basis e1:even e2:even e3:even\n")
    span = dsl.parse_span(doc, "e1; e2 + 1/2*e3")
    assert span.dim == 2
    assert span.contains_vector(vec([0, 2, 1]))


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
