"""Exception types shared across the package."""

from __future__ import annotations


class SuperquadError(Exception):
    """Base class for every error raised by this library.

    Keyword arguments become attributes; a class declares the fields it
    accepts as class attributes set to ``None``, and any other keyword is
    a ``TypeError``."""

    def __init__(self, *args, **fields):
        super().__init__(*args)
        for name, value in fields.items():
            if getattr(type(self), name, 0) is not None:
                raise TypeError(f"{type(self).__name__} has no field {name!r}")
            setattr(self, name, value)


class DimensionMismatch(SuperquadError):
    pass


class NotGradedError(SuperquadError):
    """A spanning set does not span a graded (parity-split) subspace."""


class NotIdealError(SuperquadError):
    witness = None  # superalgebra.ideal_violation: (i, v), [e_i, v] outside


class AxiomError(SuperquadError):
    """An algebra failed its axioms.

    At construction, ``witness`` is a structure-constant key that is not
    a free coordinate, so the bracket would break the grading or
    super-skew-symmetry.  From the Jacobi check, ``report`` is the full
    :class:`AxiomReport`, so callers can show the violating triples.
    """

    report = witness = None


class FormError(SuperquadError):
    """A bilinear form violates evenness, supersymmetry, nondegeneracy
    or invariance; ``radical`` is a nonzero vector of the form's radical."""

    witness = radical = None


class CochainError(SuperquadError):
    """A cochain tensor violates its container invariants (parity
    pattern or super-antisymmetry); ``witness`` is the offending key."""

    witness = None


class CocycleError(SuperquadError):
    """omega fails the 2-cocycle identity at the basis triple ``triple``;
    ``jacobi_witness`` is a basis triple of the would-be extension where
    the graded Jacobi identity fails."""

    triple = jacobi_witness = None


class NotSupercyclicError(SuperquadError):
    """omega fails supercyclicity at the basis triple ``triple``;
    ``invariance_witness`` is a basis triple of the would-be extension
    where the pairing form fails invariance."""

    triple = invariance_witness = None


class PreconditionError(SuperquadError):
    """An operation was called outside its documented preconditions."""

    dims = pair = None  # the witnesses of forms.isotropic_complement


class InternalCheckError(SuperquadError):
    """A theorem-backed post-hoc verification failed.

    If this is ever raised on valid input it indicates a bug in the
    library, never a property of the input.
    """

    witness = None


class UndecidedError(SuperquadError):
    """Trial division up to ``linalg.FACTOR_CAP`` cannot settle a decision."""


class RationalPointNotFound(SuperquadError):
    """An isotropic-vector or eigenvector search needs a point that does
    not exist (or was not found) over the rationals.

    For quadric failures ``quadric`` holds the diagonal coefficients of
    the restricted form and ``quadric_str`` a rendering like
    ``"x^2 + y^2"``.  For eigenvalue failures ``polynomial`` holds the
    monic characteristic polynomial coefficients and ``polynomial_str``
    its rendering.  ``obstruction`` says why a quadric has no point:
    ``"definite"``, or a prime p over whose p-adic field it has none.
    """

    quadric = quadric_str = polynomial = polynomial_str = obstruction = None
