"""Helpers that only the tests call.

They build on the library's public and private names but serve no
library code path: cochain sums and zero tests, the dense defect of the
2-cocycle identity at one triple, a document's 3-cochain, the matrix of
a gl(n,n) basis label, the center identity of a quadratic algebra, the
invariance refutation for a non-supercyclic cocycle, the Lagrangian
ideal/abelian lemma, an exact rational square root, vector addition,
the coadjoint representation on graded linear functionals, a seeded
basis change with denominators up to 6 of dense structure constants, the
direct sum of two Lie superalgebras, an algebra built only from a table
the dense loops find graded and super-skew, drawn dense bracket tensors
and their sparse tables, and the supercyclic
2-cocycles solved directly, the oracle of the library's transport of
Z^3.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from superquad.cohomology import (Cochain2Dual, ScalarCochain2,
                                  ScalarCochain3, _cocycle2_defects, _combined,
                                  _kernel, _supercyclic_defects,
                                  free_coords_cochain2dual, is_cocycle2,
                                  is_supercyclic)
from superquad.dsl import AlgebraDocument
from superquad.errors import (AxiomError, DimensionMismatch,
                              InternalCheckError, NotGradedError,
                              PreconditionError)
from superquad.forms import (QuadraticLieSuperalgebra, even_form,
                             invariance_violation, is_totally_isotropic,
                             orthogonal, quadratic)
from superquad.gallery import _layout
from superquad.linalg import Vec, ZERO, mat, unit_vec, vec, vec_is_zero
from superquad.superalgebra import (EVEN, AxiomReport, GradedBasis,
                                    LieSuperalgebra, Subspace, bracket,
                                    center, derived_subspace, graded_basis,
                                    is_ideal, sgn)
from superquad.tstar import _raw_extension

import dense_oracle as dense
from dense_oracle import mat_mul, transpose


def add3(a: ScalarCochain3, b: ScalarCochain3) -> ScalarCochain3:
    return ScalarCochain3(a.basis, _combined(a, b, 1))


def is_zero3(a: ScalarCochain3) -> bool:
    return not a.coords


def add_scalar2(a: ScalarCochain2, b: ScalarCochain2) -> ScalarCochain2:
    return ScalarCochain2(a.basis, _combined(a, b, 1))


def cocycle2_defect(g: LieSuperalgebra, w: Cochain2Dual):
    """The 2-cocycle identity of w at (i, j, k), as a dense vector, for
    every ordered triple: the library's ordered 2-cocycle map, which
    holds it times (-1)^{|i||k|} and its scale d."""
    p = g.basis.parities
    d, acc = _cocycle2_defects(g, ordered=True)(w.coords)

    def at(i: int, j: int, k: int) -> Vec:
        out = acc.get((i, j, k), {})
        return tuple(Fraction(sgn(p[i] * p[k]) * out.get(l, 0), d)
                     for l in range(g.dim))
    return at


def z2_supercyclic_direct(g: LieSuperalgebra) -> list[Cochain2Dual]:
    """The supercyclic 2-cocycles solved by themselves: the common kernel
    of the supercyclicity and 2-cocycle maps, their images of the unit
    cochains stacked over the free dual-valued coordinates.  This is the
    solve that ``z2_supercyclic_basis`` replaced by unhat of Z^3, and it
    returns the same canonical kernel basis."""
    maps = (_supercyclic_defects(g.basis.parities), _cocycle2_defects(g))

    def stacked(coords: dict) -> tuple[int, dict]:
        return 1, {(i, key): v for i, fn in enumerate(maps)
                   for key, v in fn(coords)[1].items()}
    return _kernel(g.basis, free_coords_cochain2dual(g.basis), stacked,
                   Cochain2Dual)


def direct_sum(a: LieSuperalgebra, b: LieSuperalgebra) -> LieSuperalgebra:
    """a ⊕ b with the two bases side by side and no mixed brackets."""
    n = a.dim
    basis = GradedBasis(tuple(f"l_{s}" for s in a.basis.names)
                        + tuple(f"r_{s}" for s in b.basis.names),
                        a.basis.parities + b.basis.parities)
    table = tuple(row + ((),) * b.dim for row in a.table) + tuple(
        ((),) * n + tuple(tuple((k + n, q) for k, q in e) for e in row)
        for row in b.table)
    return LieSuperalgebra(basis, table)


def algebra_if_valid(basis: GradedBasis, table) -> LieSuperalgebra | None:
    """LieSuperalgebra(basis, table) when the dense loops find the table,
    entries as (k, c) pairs or {k: c} dicts with distinct k, graded and
    super-skew.  Otherwise None, after checking that construction raised
    AxiomError with their grading and skew violations and no Jacobi
    triples."""
    p, n = basis.parities, basis.dim
    c = [[[dict(e).get(k, ZERO) for k in range(n)] for e in row]
         for row in table]
    grading = tuple(dense.grading_violations(p, c))
    skew = tuple(dense.skew_violations(p, c))
    if not (grading or skew):
        return LieSuperalgebra(basis, table)
    with pytest.raises(AxiomError) as exc:
        LieSuperalgebra(basis, table)
    assert exc.value.report == AxiomReport(grading, skew, ())
    return None


@st.composite
def bracket_tensors(draw, entries, kind="lie", max_dim=5):
    """(parities, c) for a random dense bracket tensor with coefficients
    drawn from ``entries``.  ``kind`` "lie" is graded and super-skew;
    "not-skew" is graded with both orders drawn independently;
    "ungraded" is super-skew with any output parity."""
    p = tuple(draw(st.lists(st.sampled_from((0, 1)), min_size=1,
                            max_size=max_dim)))
    n = len(p)
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        if kind != "not-skew" and (j < i or (i == j and p[i] == 0)):
            continue
        for k in range(n):
            if kind != "ungraded" and p[k] != (p[i] + p[j]) % 2:
                continue
            q = draw(entries)
            c[i][j][k] = q
            if kind != "not-skew" and i != j:
                c[j][i][k] = -sgn(p[i] * p[j]) * q
    return p, c


def basis_table(parities, c):
    """(basis, table) of a dense bracket tensor, each table entry the
    (k, c) pairs of its nonzero coordinates."""
    n = len(parities)
    basis = graded_basis([f"b{i}" for i in range(n)], parities)
    table = tuple(tuple(tuple((k, q) for k, q in enumerate(c[i][j]) if q)
                        for j in range(n)) for i in range(n))
    return basis, table


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


def disguise(p, c, G=None, seed=0):
    """(c', G', P): the structure constants and Gram matrix on the basis
    f_j = sum_i P[i][j] e_i, for a seeded parity-preserving invertible
    P = L U (L unit lower triangular, U upper triangular with a nonzero
    diagonal) whose entries have denominators up to 6."""
    rng = random.Random(seed)
    n = len(p)

    def entry():
        return Fraction(rng.choice((-5, -1, 1, 2, 5)), rng.randint(1, 6))

    def triangular(lower):
        return [[Fraction(1) if i == j else entry()
                 if p[i] == p[j] and (i > j) == lower and rng.random() < 0.6
                 else Fraction(0) for j in range(n)] for i in range(n)]
    P = mat_mul(triangular(True),
                [[entry() * q for q in row] for row in triangular(False)])
    Q = dense.inverse(P)
    # c2[i][j][k] = sum of P[a][i] P[b][j] c[a][b][t] Q[k][t], over the
    # nonzeros of c, of P's rows and of Q's columns
    rows = [[(i, x) for i, x in enumerate(row) if x] for row in P]
    cols = [[(k, Q[k][t]) for k in range(n) if Q[k][t]] for t in range(n)]
    c2 = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a, b, t in itertools.product(range(n), repeat=3):
        if c[a][b][t]:
            for i, x in rows[a]:
                for j, y in rows[b]:
                    f = x * y * c[a][b][t]
                    for k, z in cols[t]:
                        c2[i][j][k] += f * z
    G2 = None if G is None else mat_mul(transpose(P), mat_mul(G, P))
    return c2, G2, P


def disguised_quadratic(q0: QuadraticLieSuperalgebra,
                        seed: int = 0) -> QuadraticLieSuperalgebra:
    """q0 after the basis change of :func:`disguise`, whose entries have
    denominators up to 6."""
    g, n = q0.algebra, q0.dim
    c, G, _ = disguise(g.basis.parities, dense.bracket_tensor(g),
                       dense.gram(q0.form), seed=seed)
    alg = LieSuperalgebra(g.basis, tuple(
        tuple({k: c[i][j][k] for k in range(n) if c[i][j][k]}
              for j in range(n)) for i in range(n)))
    return quadratic(alg, even_form(g.basis, G))
