"""Helpers that only the tests call.

They build on the library's public and private names but serve no
library code path: cochain sums and zero tests, the dense defect of the
2-cocycle identity at one triple, a document's 3-cochain, the matrix of
a gl(n,n) basis label, the center identity of a quadratic algebra, the
invariance refutation for a non-supercyclic cocycle, the Lagrangian
ideal/abelian lemma, an exact rational square root, vector addition,
and the coadjoint representation on graded linear functionals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from superquad.cohomology import (Cochain2Dual, ScalarCochain2,
                                  ScalarCochain3, _cocycle2_defect, _combined,
                                  _dual_lookup, is_cocycle2, is_supercyclic)
from superquad.dsl import AlgebraDocument
from superquad.errors import (DimensionMismatch, InternalCheckError,
                              NotGradedError, PreconditionError)
from superquad.forms import (QuadraticLieSuperalgebra, invariance_violation,
                             is_totally_isotropic, orthogonal)
from superquad.gallery import _layout
from superquad.linalg import Vec, ZERO, mat, unit_vec, vec, vec_is_zero
from superquad.superalgebra import (EVEN, GradedBasis, LieSuperalgebra,
                                    Subspace, bracket, center,
                                    derived_subspace, is_ideal, sgn,
                                    table_by_target)
from superquad.tstar import _raw_extension


def add3(a: ScalarCochain3, b: ScalarCochain3) -> ScalarCochain3:
    return ScalarCochain3(a.basis, _combined(a, b, 1))


def is_zero3(a: ScalarCochain3) -> bool:
    return not a.coords


def add_scalar2(a: ScalarCochain2, b: ScalarCochain2) -> ScalarCochain2:
    return ScalarCochain2(a.basis, _combined(a, b, 1))


def cocycle2_defect(g: LieSuperalgebra, w: Cochain2Dual,
                    i: int, j: int, k: int) -> Vec:
    out = _cocycle2_defect(g, _dual_lookup(w), table_by_target(g), i, j, k)
    return tuple(out.get(l, ZERO) for l in range(g.dim))


def document_cochain3(doc: AlgebraDocument, name: str) -> ScalarCochain3:
    return ScalarCochain3(doc.basis(), doc.cochain3[name])


def matrix_of_glnn(n: int, label: str):
    """The 2n x 2n matrix of a gl(n,n) basis label (for oracle tests)."""
    labels, positions, _ = _layout(n, False)
    pos = positions[labels.index(label)]
    m = [[ZERO] * (2 * n) for _ in range(2 * n)]
    m[pos[0]][pos[1]] = Fraction(1)
    return mat(m)


def center_orthogonality_check(q: QuadraticLieSuperalgebra) -> bool:
    """orthogonal(B, [g, g]) = z(g), exactly."""
    return orthogonal(q.form, derived_subspace(q.algebra)).equals(
        center(q.algebra))


@dataclass(frozen=True)
class InvarianceFailure:
    """A basis triple of the extension where B([x,y],z) != B(x,[y,z])."""

    triple: tuple[int, int, int]
    lhs: Fraction
    rhs: Fraction


def negative_test_invariance(g: LieSuperalgebra,
                             omega: Cochain2Dual) -> InvarianceFailure:
    """For omega in Z^2 but not supercyclic: build the bracket anyway and
    exhibit a triple where the pairing fails invariance."""
    if not is_cocycle2(g, omega):
        raise PreconditionError("omega must be a 2-cocycle")
    if is_supercyclic(omega):
        raise PreconditionError("omega is supercyclic; nothing to refute")
    alg, form = _raw_extension(g, omega)
    w = invariance_violation(alg, form)
    if w is None:
        raise InternalCheckError(
            "no invariance violation found for a non-supercyclic cocycle")
    i, j, k = w
    n = alg.dim
    lhs = form.apply(bracket(alg, unit_vec(n, i), unit_vec(n, j)),
                     unit_vec(n, k))
    rhs = form.apply(unit_vec(n, i),
                     bracket(alg, unit_vec(n, j), unit_vec(n, k)))
    return InvarianceFailure(w, lhs, rhs)


def lemma_halfdim_ideal_iff_abelian(q: QuadraticLieSuperalgebra,
                                    iso: Subspace) -> bool:
    """For a graded totally isotropic subspace of half the (even total)
    dimension: being an ideal is equivalent to being abelian.  The two
    booleans are computed independently and must agree; disagreement is
    a library bug, not a property of the input."""
    n = q.dim
    if n % 2 != 0:
        raise PreconditionError("total dimension must be even")
    if 2 * iso.dim != n:
        raise PreconditionError("subspace must have half the dimension")
    if not is_totally_isotropic(q.form, iso):
        raise PreconditionError("subspace must be totally isotropic")
    ideal_flag = is_ideal(q.algebra, iso)
    abelian_flag = all(
        vec_is_zero(bracket(q.algebra, u, v))
        for u in iso.vectors for v in iso.vectors)
    if ideal_flag != abelian_flag:
        raise InternalCheckError(
            "ideal/abelian equivalence failed for a Lagrangian subspace",
            witness=(ideal_flag, abelian_flag))
    return ideal_flag


def sqrt_fraction(q: Fraction) -> Fraction | None:
    """Exact square root of q if q is a perfect rational square."""
    if q < 0:
        return None
    sn = math.isqrt(q.numerator)
    sd = math.isqrt(q.denominator)
    if sn * sn == q.numerator and sd * sd == q.denominator:
        return Fraction(sn, sd)
    return None


def vec_add(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y, strict=True))


@dataclass(frozen=True)
class DualVector:
    """Linear functional with a definite parity.

    The coordinate F_k is the value on the k-th basis vector; parity a
    means F vanishes on every basis vector of the opposite parity.
    """

    coords: Vec
    parity: int


def dual_vector(basis: GradedBasis, coords,
                parity: int | None = None) -> DualVector:
    cs = vec(coords)
    if len(cs) != basis.dim:
        raise DimensionMismatch("functional does not match the basis")
    support = {basis.parity(k) for k, q in enumerate(cs) if q != 0}
    if len(support) > 1:
        raise NotGradedError("functional mixes parities")
    if parity is None:
        parity = support.pop() if support else EVEN
    elif support and support != {parity}:
        raise NotGradedError("functional support contradicts declared parity")
    return DualVector(cs, parity)


def vector_parity(basis: GradedBasis, v: Vec) -> int | None:
    """Parity of a homogeneous vector, or None if v mixes parities or is 0."""
    support = {basis.parity(k) for k, q in enumerate(v) if q != 0}
    if len(support) == 1:
        return support.pop()
    return None


def coadjoint(g: LieSuperalgebra, x: Vec, F: DualVector) -> DualVector:
    """(pi(x)F)(y) = -(-1)^{|x||F|} F([x, y]) for homogeneous x and F."""
    if len(x) != g.dim or len(F.coords) != g.dim:
        raise DimensionMismatch(
            "vector or functional does not match the basis")
    px = vector_parity(g.basis, x)
    if px is None:
        if vec_is_zero(vec(x)):
            px = EVEN
        else:
            raise NotGradedError("coadjoint needs a homogeneous vector")
    s = -sgn(px * F.parity)
    n = g.dim
    out = [ZERO] * n
    table = g.table
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for m in range(n):
            acc = ZERO
            for t, q in table[i][m]:
                ft = F.coords[t]
                if ft != 0:
                    acc += q * ft
            if acc != 0:
                out[m] += s * xi * acc
    return dual_vector(g.basis, out, (px + F.parity) % 2)
