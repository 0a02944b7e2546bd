"""Exception types shared across the package."""

from __future__ import annotations


class SuperquadError(Exception):
    """Base class for every error raised by this library."""


class DimensionMismatch(SuperquadError):
    pass


class NotGradedError(SuperquadError):
    """A spanning set does not span a graded (parity-split) subspace."""


class NotIdealError(SuperquadError):
    pass


class AxiomError(SuperquadError):
    """A constructed algebra failed its axiom check.

    Carries the full report so callers can show the violating triples.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class FormError(SuperquadError):
    """A bilinear form violates evenness, supersymmetry, nondegeneracy
    or invariance."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CochainError(SuperquadError):
    """A cochain tensor violates its container invariants (parity
    pattern or super-antisymmetry)."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class CocycleError(SuperquadError):
    """omega fails the 2-cocycle identity.

    ``triple`` is a basis triple violating the cocycle identity;
    ``jacobi_witness`` is a basis triple of the would-be extension where
    the graded Jacobi identity fails.
    """

    def __init__(self, message, triple=None, jacobi_witness=None):
        super().__init__(message)
        self.triple = triple
        self.jacobi_witness = jacobi_witness


class NotSupercyclicError(SuperquadError):
    """omega fails the supercyclicity identity.

    ``triple`` violates supercyclicity; ``invariance_witness`` is a basis
    triple of the would-be extension where the pairing form fails
    invariance.
    """

    def __init__(self, message, triple=None, invariance_witness=None):
        super().__init__(message)
        self.triple = triple
        self.invariance_witness = invariance_witness


class PreconditionError(SuperquadError):
    """An operation was called outside its documented preconditions."""


class InternalCheckError(SuperquadError):
    """A theorem-backed post-hoc verification failed.

    If this is ever raised on valid input it indicates a bug in the
    library, never a property of the input.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


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

    def __init__(self, message, quadric=None, quadric_str=None,
                 polynomial=None, polynomial_str=None, obstruction=None):
        super().__init__(message)
        self.quadric = quadric
        self.quadric_str = quadric_str
        self.polynomial = polynomial
        self.polynomial_str = polynomial_str
        self.obstruction = obstruction
