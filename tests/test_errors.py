import inspect

import pytest

from superquad import errors
from superquad.cohomology import Cochain2Dual, ScalarCochain2, ScalarCochain3
from superquad.dsl import ParseError
from superquad.superalgebra import EVEN, ODD, graded_basis

# the fields each error class declares; bench/ and the CLI read some of them
FIELDS = {
    "SuperquadError": (),
    "DimensionMismatch": (),
    "NotGradedError": (),
    "NotIdealError": ("witness",),
    "AxiomError": ("report",),
    "FormError": ("witness", "radical"),
    "CochainError": ("witness",),
    "CocycleError": ("triple", "jacobi_witness"),
    "NotSupercyclicError": ("triple", "invariance_witness"),
    "PreconditionError": ("dims", "pair"),
    "InternalCheckError": ("witness",),
    "UndecidedError": (),
    "RationalPointNotFound": ("quadric", "quadric_str", "polynomial",
                              "polynomial_str", "obstruction"),
}


def _error_classes():
    return {name: cls for name, cls in vars(errors).items()
            if inspect.isclass(cls) and issubclass(cls, errors.SuperquadError)}


def test_every_error_class_is_listed():
    assert set(_error_classes()) == set(FIELDS)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_error_fields_default_to_none_and_take_keywords(name):
    cls = _error_classes()[name]
    fields = FIELDS[name]
    bare = cls("message")
    assert bare.args == ("message",)
    assert all(getattr(bare, f) is None for f in fields)
    values = {f: (k, f) for k, f in enumerate(fields)}
    exc = cls("message", **values)
    assert exc.args == ("message",) and str(exc) == "message"
    assert all(getattr(exc, f) == v for f, v in values.items())
    # args and __cause__ exist on every exception but are not fields
    for other in ("unknown", "args", "__cause__", "with_traceback"):
        with pytest.raises(TypeError, match=repr(other)):
            cls("message", **{other: 1})


def test_parse_error_formats_and_keeps_its_position():
    exc = ParseError("bad token", 3, 7)
    assert str(exc) == "line 3, column 7: bad token"
    assert (exc.line, exc.column) == (3, 7)
    with pytest.raises(TypeError):
        ParseError("bad token", 3, 7, witness=1)


def test_container_key_reaches_the_cochain_witness():
    mixed = graded_basis(("e", "o"), (EVEN, ODD))
    for cls, key in ((Cochain2Dual, (1, 0, 1)), (ScalarCochain2, (0, 1)),
                     (ScalarCochain3, (1, 1, 0))):
        with pytest.raises(errors.CochainError) as exc:
            cls(mixed, {key: 1})
        assert exc.value.witness == key
