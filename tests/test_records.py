"""Value semantics of the record classes, each against a ``dataclasses``
twin: a frozen dataclass (a mutable one for ``AlgebraDocument``) of the
same name and fields, running the same ``__post_init__``.  Equality,
hashing, repr, immutability and construction must read as the twin's
do.  Each case also has a second value that differs from the first in
the last field only, so a comparison that skips a field fails here."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

import superquad as sq
from superquad.cohomology import (Cochain2Dual, ScalarCochain2,
                                  ScalarCochain3)
from superquad.decompose import Decomposition, IsotropicFlagResult
from superquad.dsl import AlgebraDocument
from superquad.errors import AxiomError, PreconditionError
from superquad.forms import EvenForm, QuadraticLieSuperalgebra
from superquad.linalg import ONE, RowReducer, SolutionSet
from superquad.superalgebra import (AxiomReport, GradedBasis,
                                    LieSuperalgebra, QuotientResult,
                                    Subspace)
from superquad.tstar import ShearIsometry, TStarExtension

from support import algebra_if_valid

F = Fraction


def _cases():
    """(class, args, args differing in the last field only)."""
    b2 = GradedBasis(("x", "y"), (0, 1))
    h = sq.heisenberg3()
    hb = h.basis
    ext = sq.build(h)
    hyp = sq.hyperbolic_even()
    shear = sq.s_phi_isometry(h, ext.omega, ScalarCochain2(hb, {(0, 1): 1}))
    flag = sq.max_isotropic_ideal(ext.total)
    dec = sq.decompose(ext.total)
    w = {(0, 1, 1): F(1), (0, 2, 2): F(-1)}
    w2 = {(0, 1, 1): F(1), (0, 2, 2): F(2)}
    return [
        (GradedBasis, (("x", "y"), (0, 1)), (("x", "y"), (0, 0))),
        (LieSuperalgebra, (hb, h.coords), (hb, {(0, 1, 1): F(1)})),
        (AxiomReport, ((),), (((0, 1, 2),),)),
        (Subspace, (hb, RowReducer(3, [{2: ONE}])),
         (hb, RowReducer(3, [{1: ONE}]))),
        (QuotientResult, (h, ((ONE, 0, 0),), {}),
         (h, ((ONE, 0, 0),), {(0, 1): {2: ONE}})),
        (Cochain2Dual, (hb, w), (hb, w2)),
        (ScalarCochain3, (hb, {(0, 1, 2): F(1)}), (hb, {(0, 1, 2): F(3)})),
        (ScalarCochain2, (b2, {(1, 1): F(2)}), (b2, {(1, 1): F(5)})),
        (EvenForm, (b2, {(0, 0): 1}), (b2, {(0, 0): 2})),
        (QuadraticLieSuperalgebra, (hyp.algebra, hyp.form),
         (hyp.algebra, EvenForm(hyp.basis, {(0, 1): 3}))),
        (TStarExtension, (ext.base, ext.omega, ext.total),
         (ext.base, ext.omega, hyp)),
        (ShearIsometry, (ext, ext, shear.phi, shear.matrix),
         (ext, ext, shear.phi, ())),
        (IsotropicFlagResult, (flag.w_max, flag.w_perp, flag.chain),
         (flag.w_max, flag.w_perp, flag.chain[:-1])),
        (Decomposition, (dec.ideal, dec.quotient, dec.extension,
                         dec.embedding, "even"),
         (dec.ideal, dec.quotient, dec.extension, dec.embedding, "odd")),
        (SolutionSet, ((ONE,), ()), ((ONE,), ((ONE,),))),
        (AlgebraDocument, (("x",), (0,), {}, "B", {(0, 0): F(1)}, {}, {},
                           {}),
         (("x",), (0,), {}, "B", {(0, 0): F(1)}, {}, {}, {"p": {}})),
    ]


def _twin(cls):
    """The dataclass that ``cls`` replaces: the same name, fields,
    ``__post_init__`` and public methods."""
    if cls is AlgebraDocument:
        spec = [("names", tuple, ()), ("parities", tuple, ()),
                ("brackets", dict, dataclasses.field(default_factory=dict)),
                ("form_name", object, None)] + [
            (name, dict, dataclasses.field(default_factory=dict))
            for name in ("form_entries", "cochain2", "cochain3", "scalar2")]
        return dataclasses.make_dataclass(cls.__name__, spec)
    fields: list = list(cls.__annotations__)
    ns = {k: v for k, v in vars(cls).items() if not k.startswith("_")}
    ns["__post_init__"] = cls.__post_init__
    if cls is Subspace:  # a repr without the reducer
        fields[1] = (fields[1], object, dataclasses.field(repr=False))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True,
                                      eq=cls is not Subspace, namespace=ns)


def _copy(args):
    """Equal arguments in new containers, so equality is not identity."""
    return tuple(dict(a) if isinstance(a, dict) else
                 tuple(list(a)) if isinstance(a, tuple) else a for a in args)


CASES = _cases()


@pytest.mark.parametrize("cls, args, other", CASES,
                         ids=[c[0].__name__ for c in CASES])
def test_record_reads_as_its_dataclass_twin(cls, args, other):
    twin = _twin(cls)
    a, b, c = cls(*args), cls(*_copy(args)), cls(*other)
    ta, tb, tc = twin(*args), twin(*_copy(args)), twin(*other)
    # equality, within the class and against any other type
    assert a == b and not a != b and a != c and not a == c
    assert a != ta and ta != a and a != object() and a != args
    own = "__eq__" in vars(cls)  # Subspace keeps its own equality
    assert own or (ta == tb and ta != tc and a.__eq__(ta) is NotImplemented)
    # hashing: equal values hash alike, as the twin's do; a dict field
    # makes a value unhashable
    try:
        twin_hash = hash(ta)
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and (own or hash(a) == twin_hash)
    # the same repr text
    assert repr(a) == repr(ta) and repr(c) == repr(tc)
    # the same outcome for every way of passing the fields
    names = list(cls.__annotations__)
    by_name = dict(zip(names, args))
    for call_args, call_kw in [
            ((), by_name), (args[:1], dict(zip(names[1:], args[1:]))),
            (args[:-1], {}), (args + (None,), {}), (args, by_name),
            (args[:-1], {"nope": args[-1]})]:
        try:
            want = repr(twin(*call_args, **call_kw))
        except TypeError:
            with pytest.raises(TypeError):
                cls(*call_args, **call_kw)
        else:
            assert repr(cls(*call_args, **call_kw)) == want


@pytest.mark.parametrize("cls, args, other",
                         [c for c in CASES if c[0] is not AlgebraDocument],
                         ids=[c[0].__name__ for c in CASES
                              if c[0] is not AlgebraDocument])
def test_record_fields_cannot_be_assigned_or_deleted(cls, args, other):
    a, ta = cls(*args), _twin(cls)(*args)
    for obj in (a, ta):
        for name in (next(iter(cls.__annotations__)), "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert a == cls(*args)


def test_algebra_document_is_mutable_unhashable_and_defaults_empty():
    doc, twin = AlgebraDocument(), _twin(AlgebraDocument)()
    assert repr(doc) == repr(twin)
    assert doc == AlgebraDocument((), (), {}, None, {}, {}, {}, {})
    doc.names += ("x",)
    doc.brackets[(0, 0)] = (F(0),)
    assert doc.names == ("x",) and AlgebraDocument().brackets == {}
    del doc.form_name
    with pytest.raises(AttributeError):
        doc.form_name
    with pytest.raises(TypeError):
        hash(AlgebraDocument())


def test_post_init_checks_still_raise():
    with pytest.raises(PreconditionError, match="unique"):
        GradedBasis(("x", "x"), (0, 0))
    with pytest.raises(PreconditionError, match="parities"):
        GradedBasis(("x", "y"), (0, 2))
    b = GradedBasis(("x", "y"), (0, 0))
    lower = {(1, 0, 0): ONE}  # [y, x] has no free coordinate
    assert algebra_if_valid(b, lower) is None
    with pytest.raises(AxiomError, match="not a free coordinate") as exc:
        LieSuperalgebra(basis=b, coords=lower)
    assert exc.value.witness == (1, 0, 0)
    with pytest.raises(TypeError):  # no flag skips the checks
        LieSuperalgebra(b, lower, False)
