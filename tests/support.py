"""Helpers that only the tests call.

They build on the library's public and private names but serve no
library code path: cochain sums and zero tests, the dense defect of the
2-cocycle identity at one triple, a document's 3-cochain, the matrix of
a gl(n,n) basis label, the center identity of a quadratic algebra, the
invariance refutation for a non-supercyclic cocycle, the Lagrangian
ideal/abelian lemma, an exact rational square root, the dense zero
vector, scaling, zero test and addition, the coadjoint representation
on graded linear functionals, a seeded basis change with denominators up to 6 of dense structure constants, the
direct sum of two Lie superalgebras, the super solvable family s(k) of
the paper's second class, [g, g] from the dense brackets, the upper
triangle of a full bracket table, an algebra built only from coordinates the dense sign
rule finds free, drawn dense bracket tensors and their structure
constants, and the supercyclic
2-cocycles solved directly, the oracle of the library's transport of
Z^3, and one hostile edit of a DSL document.
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
from superquad.dsl import _HANDLERS, AlgebraDocument
from superquad.errors import (AxiomError, DimensionMismatch,
                              InternalCheckError, NotGradedError,
                              PreconditionError)
from superquad.forms import (QuadraticLieSuperalgebra, even_form,
                             invariance_violation, is_totally_isotropic,
                             orthogonal, quadratic)
from superquad.gallery import _layout
from superquad.linalg import Vec, ZERO, frac, mat, unit_vec, vec
from superquad.superalgebra import (EVEN, ODD, GradedBasis, LieSuperalgebra,
                                    Subspace, bracket, center, from_brackets,
                                    graded_basis, is_ideal, sgn, subspace)
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
    """The 2-cocycle identity of w at a sorted triple i <= j <= k, as a
    dense vector: the library's 2-cocycle map, which holds it times
    (-1)^{|i||k|} and its scale d at the sorted triples only."""
    p = g.basis.parities
    d, acc = _cocycle2_defects(g)(w.coords)

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
    p, cocycle = g.basis.parities, _cocycle2_defects(g)

    def stacked(key) -> dict:
        unit = {key: 1}
        col = {(0, t): v for t, v in _supercyclic_defects(p, unit)[1].items()}
        col.update({(1, t, l): x for t, v in cocycle(unit)[1].items()
                    for l, x in v.items()})
        return col
    coords = free_coords_cochain2dual(g.basis)
    return _kernel(g.basis, coords, [stacked(key) for key in coords],
                   Cochain2Dual)


def direct_sum(a: LieSuperalgebra, b: LieSuperalgebra) -> LieSuperalgebra:
    """a ⊕ b with the two bases side by side and no mixed brackets."""
    n = a.dim
    basis = GradedBasis(tuple(f"l_{s}" for s in a.basis.names)
                        + tuple(f"r_{s}" for s in b.basis.names),
                        a.basis.parities + b.basis.parities)
    return LieSuperalgebra(basis, {**a.coords, **{
        (i + n, j + n, k + n): q for (i, j, k), q in b.coords.items()}})


def super_solvable(k: int) -> LieSuperalgebra:
    """s(k): even h and e, odd u_i and v_i for i < k, with [h, e] = e,
    [h, u_i] = a_i u_i, [h, v_i] = (1 - a_i) v_i and [u_i, v_i] = e for
    a_i = (i + 1)/(k + 1).  It is solvable and not nilpotent, and
    [g_1, g_1] = <e> = [g_0, g_0]: the paper's second class, with an odd
    part."""
    us, vs = [f"u{i}" for i in range(k)], [f"v{i}" for i in range(k)]
    brackets = {("h", "e"): {"e": 1}}
    for i, (u, v) in enumerate(zip(us, vs)):
        a = Fraction(i + 1, k + 1)
        brackets.update({("h", u): {u: a}, ("h", v): {v: 1 - a},
                         (u, v): {"e": 1}})
    return from_brackets(("h", "e", *us, *vs), (EVEN, EVEN) + (ODD,) * 2 * k,
                         brackets)


def upper(table) -> dict:
    """The structure constants {(i, j, k): c} of a full bracket table,
    entries (k, c) pairs or {k: c} dicts, at its nonzeros with i <= j,
    sorted: the coordinates a LieSuperalgebra stores.  The lower triangle
    is not read."""
    return dict(sorted(
        ((i, j, k), q) for i, row in enumerate(table)
        for j, e in enumerate(row) if i <= j
        for k, q in (e.items() if isinstance(e, dict) else e) if q))


def dense_integer_table(c) -> tuple[int, dict]:
    """(d, {(i, j): ((k, d c_ijk), ...)}) for a dense tensor c: every
    nonzero [e_i, e_j] over both orders, i-major, ascending k, scaled to
    ints by the least common denominator d of the entries; the shape of
    ``LieSuperalgebra.integer_table``."""
    d = math.lcm(*(Fraction(q).denominator for row in c for v in row
                   for q in v))
    return d, {(i, j): tuple((k, int(q * d)) for k, q in enumerate(v) if q)
               for i, row in enumerate(c) for j, v in enumerate(row)
               if any(v)}


def algebra_if_valid(basis: GradedBasis, coords) -> LieSuperalgebra | None:
    """LieSuperalgebra(basis, coords) when the dense sign rule finds every
    key a free coordinate.  Otherwise None, after checking that
    construction raised AxiomError with the least other key as its
    witness, and no report."""
    p = basis.parities
    coords = dict(sorted(coords.items()))
    bad = [key for key in coords
           if dense.canon_cochain2dual(p, *key) != (key, 1)]
    if not bad:
        return LieSuperalgebra(basis, coords)
    with pytest.raises(AxiomError) as exc:
        LieSuperalgebra(basis, coords)
    assert exc.value.witness == bad[0] and exc.value.report is None
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


def basis_coords(parities, c):
    """(basis, coords) of a dense bracket tensor: the :func:`upper`
    triangle of its nonzeros."""
    n = len(parities)
    basis = graded_basis([f"b{i}" for i in range(n)], parities)
    return basis, upper([[enumerate(v) for v in row] for row in c])


def document_cochain3(doc: AlgebraDocument, name: str) -> ScalarCochain3:
    return ScalarCochain3(doc.basis(), doc.cochain3[name])


def matrix_of_glnn(n: int, label: str):
    """The 2n x 2n matrix of a gl(n,n) basis label (for oracle tests)."""
    labels, positions, _ = _layout(n, False)
    pos = positions[labels.index(label)]
    m = [[ZERO] * (2 * n) for _ in range(2 * n)]
    m[pos[0]][pos[1]] = Fraction(1)
    return mat(m)


def derived_by_dense(g: LieSuperalgebra) -> Subspace:
    """[g, g], spanned by the dense brackets of every ordered pair of
    basis vectors."""
    return subspace(g.basis, dense.derived_rows(dense.bracket_tensor(g)))


def center_orthogonality_check(q: QuadraticLieSuperalgebra) -> bool:
    """orthogonal(B, [g, g]) = z(g), exactly."""
    return orthogonal(q.form, derived_by_dense(q.algebra)) == (
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


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def vec_scale(q, x: Vec) -> Vec:
    q = frac(q)
    return tuple(q * a for a in x)


def vec_is_zero(x: Vec) -> bool:
    return all(a == 0 for a in x)


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
    d, table = g.integer_table
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for m in range(n):
            acc = ZERO
            for t, q in table.get((i, m), ()):
                ft = F.coords[t]
                if ft != 0:
                    acc += Fraction(q, d) * ft
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
    g = q0.algebra
    c, G, _ = disguise(g.basis.parities, dense.bracket_tensor(g),
                       dense.gram(q0.form), seed=seed)
    alg = LieSuperalgebra(g.basis, upper([[enumerate(v) for v in row]
                                          for row in c]))
    return quadratic(alg, even_form(g.basis, G))


HOSTILE_EDITS = ("huge", "zero-denominator", "nul", "keyword", "truncate",
                 "restate")


def hostile_edit(draw, text: str, names, edit: str) -> str:
    """text with one edit of the given kind at a drawn line and column:
    a 5,000-digit integer or 1/0 for the last token, a NUL byte or a
    stray keyword inserted, the line cut short, or a bracket restated
    and then restated doubled."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    at = draw(st.integers(0, len(line)))
    head = line.rpartition(" ")[0]
    if edit == "huge":
        lines[i] = f"{head} {'7' * 5000}"
    elif edit == "zero-denominator":
        lines[i] = f"{head} 1/0"
    elif edit == "nul":
        lines[i] = line[:at] + "\0" + line[at:]
    elif edit == "keyword":
        word = draw(st.sampled_from(sorted(_HANDLERS)))
        lines[i] = f"{line[:at]} {word} {line[at:]}"
    elif edit == "truncate":
        lines[i] = line[:at]
    else:
        brackets = [b.partition(" = ") for b in lines
                    if b.startswith("bracket")]
        pair, _, value = (draw(st.sampled_from(brackets)) if brackets else
                          (f"bracket [{names[0]},{names[-1]}]", "",
                           names[0]))
        lines += [f"{pair} = {value}", f"{pair} = {value} + {value}"]
    return "\n".join(lines) + "\n"
