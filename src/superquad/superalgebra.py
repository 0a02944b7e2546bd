"""Finite-dimensional Lie superalgebras by structure constants.

A superalgebra lives on a :class:`GradedBasis`; the bracket is stored only
as a sparse table, table[i][j] = ((k, c_ijk), ...) over the nonzero
structure constants of [e_i, e_j] = sum_k c_ijk e_k, in ascending k, for
*all* ordered pairs (i, j).  Storing both orders and enforcing
super-skew-symmetry at construction keeps sign bookkeeping out of the
algorithms, which is where superalgebra code usually goes wrong.

Sign conventions used throughout (see docs/conventions.md):

* super-skew-symmetry   [x, y] = -(-1)^{|x||y|} [y, x]
* graded Jacobi         (-1)^{|x||z|}[x,[y,z]] + (-1)^{|x||y|}[y,[z,x]]
                        + (-1)^{|y||z|}[z,[x,y]] = 0
* coadjoint action      (pi(x)F)(y) = -(-1)^{|x||F|} F([x, y])
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, InitVar
from functools import cached_property

from .errors import (AxiomError, DimensionMismatch, NotGradedError,
                     NotIdealError, PreconditionError)
from .linalg import (Mat, RowReducer, Vec, ZERO, frac, integer_rows, inverse,
                     mat, mat_vec, transpose, unit_vec, vec)

EVEN = 0
ODD = 1


def sgn(exponent: int) -> int:
    """(-1)**exponent for integer exponents."""
    return -1 if exponent % 2 else 1


@dataclass(frozen=True)
class GradedBasis:
    """Ordered list of named basis vectors, each tagged even (0) or odd (1)."""

    names: tuple[str, ...]
    parities: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.parities):
            raise DimensionMismatch("names and parities differ in length")
        if len(set(self.names)) != len(self.names):
            raise PreconditionError("basis labels must be unique")
        if any(p not in (EVEN, ODD) for p in self.parities):
            raise PreconditionError("parities must be 0 (even) or 1 (odd)")
        object.__setattr__(self, "_index",
                           {n: i for i, n in enumerate(self.names)})

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def even_dim(self) -> int:
        return sum(1 for p in self.parities if p == EVEN)

    @property
    def odd_dim(self) -> int:
        return sum(1 for p in self.parities if p == ODD)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PreconditionError(f"unknown basis label {name!r}") from None

    def parity(self, i: int) -> int:
        return self.parities[i]


def graded_basis(names, parities) -> GradedBasis:
    return GradedBasis(tuple(names), tuple(int(p) for p in parities))


def _entry(n: int, pairs) -> tuple:
    """Canonical table entry from (k, coeff) pairs: summed, nonzero,
    ascending in k."""
    acc = {}
    for k, q in pairs:
        if k not in range(n):
            raise DimensionMismatch("bracket coordinate outside the basis")
        q = frac(q)
        acc[k] = acc[k] + q if k in acc else q
    return tuple((k, q) for k, q in sorted(acc.items()) if q)


@dataclass(frozen=True)
class LieSuperalgebra:
    """Lie superalgebra given by its sparse bracket table.

    ``table[i][j]`` may list [e_i, e_j] as any (k, coeff) pairs or a
    {k: coeff} dict; construction stores the canonical entry, so two
    algebras are equal iff their bases and brackets are.
    """

    basis: GradedBasis
    table: tuple
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        n = self.basis.dim
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise DimensionMismatch("bracket table must be dim x dim")
        object.__setattr__(self, "table", tuple(
            tuple(_entry(n, e.items() if isinstance(e, dict) else e)
                  for e in row) for row in self.table))
        found = [tuple(v(self)) if validate else ()
                 for v in (_grading_violations, _skew_violations)]
        for what, bad in zip(("the grading", "super-skew-symmetry"), found):
            if bad:
                raise AxiomError(f"bracket violates {what} at {bad[0]}",
                                 report=AxiomReport(*found, ()))

    @property
    def dim(self) -> int:
        return self.basis.dim

    def parity(self, i: int) -> int:
        return self.basis.parity(i)

    @cached_property
    def integer_table(self) -> tuple[int, tuple]:
        """(d, ((i, j, ((k, c), ...)), ...)): the nonzero table entries,
        scaled to ints by their least common denominator d, once per
        algebra."""
        keys = [(i, j) for i, row in enumerate(self.table)
                for j, e in enumerate(row) if e]
        d, scaled = integer_rows(self.table[i][j] for i, j in keys)
        return d, tuple((i, j, tuple(e)) for (i, j), e in zip(keys, scaled))

    def bracket_vector(self, i: int, j: int) -> Vec:
        """[e_i, e_j] as a dense coordinate vector."""
        out = [ZERO] * self.dim
        for k, q in self.table[i][j]:
            out[k] = q
        return tuple(out)


def from_brackets(names, parities, brackets) -> LieSuperalgebra:
    """Build an algebra from a sparse {(a, b): {label: coeff}} description.

    Brackets for the opposite order are filled in by super-skew-symmetry;
    an explicit entry that contradicts the completion is an error.
    """
    basis = graded_basis(names, parities)
    n = basis.dim
    table: dict[tuple[int, int], tuple] = {}

    def assign(i: int, j: int, v: tuple, origin: str):
        if table.setdefault((i, j), v) != v:
            raise PreconditionError(
                f"contradictory bracket entries for ({origin})")

    for (a, b), terms in brackets.items():
        i, j = basis.index(a), basis.index(b)
        items = terms.items() if isinstance(terms, dict) else terms
        v = _entry(n, ((basis.index(label), q) for label, q in items))
        s = sgn(basis.parity(i) * basis.parity(j))
        assign(i, j, v, f"{a},{b}")
        if i != j:
            assign(j, i, tuple((k, -s * q) for k, q in v), f"{a},{b}")
        elif s == 1 and v:
            raise PreconditionError(
                f"bracket [{a},{a}] must vanish for an even generator")
    return LieSuperalgebra(basis, tuple(
        tuple(table.get((i, j), ()) for j in range(n)) for i in range(n)))


def abelian(even: int, odd: int) -> LieSuperalgebra:
    names = [f"e{i+1}" for i in range(even)] + [f"o{i+1}" for i in range(odd)]
    parities = [EVEN] * even + [ODD] * odd
    n = even + odd
    return LieSuperalgebra(graded_basis(names, parities), (((),) * n,) * n)


# ---------------------------------------------------------------------------
# bracket and axiom checking
# ---------------------------------------------------------------------------

def bracket(g: LieSuperalgebra, x: Vec, y: Vec) -> Vec:
    """Bilinear extension of the structure constants."""
    n = g.dim
    if len(x) != n or len(y) != n:
        raise DimensionMismatch("vectors do not match the basis")
    out = [ZERO] * n
    table = g.table
    y_nonzero = [(j, yj) for j, yj in enumerate(y) if yj]
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in y_nonzero:
            f = xi * yj
            for k, q in table[i][j]:
                out[k] += f * q
    return tuple(out)


def ad_images(g: LieSuperalgebra, vectors):
    """Yield [e_i, v] for every basis index i and every v in ``vectors``,
    i-major, each as the {k: c} dict of its nonzeros, read straight off
    the table; each v's nonzeros are read once."""
    if any(len(v) != g.dim for v in vectors):
        raise DimensionMismatch("vectors do not match the basis")
    supports = [[(j, q) for j, q in enumerate(v) if q] for v in vectors]
    for row in g.table:
        for support in supports:
            acc: dict = {}
            for j, q in support:
                for k, c in row[j]:
                    acc[k] = acc.get(k, ZERO) + q * c
            yield {k: c for k, c in acc.items() if c}


def cyclic_sums(parities, terms, ordered: bool = False) -> dict:
    """{(i, j, k): {t: value}}: the sum over the rotations (a, b, c) of
    (i, j, k) of (-1)^{|a||c|} X(a, b, c), each term (a, b, c, f, pairs)
    adding f * v on e_t to X(a, b, c) per (t, v) in pairs.  A term goes
    to the triples it is a rotation of, only the sorted ones unless
    ``ordered`` (docs/conventions.md, "Verifiers")."""
    acc: dict = {}
    for a, b, c, f, pairs in terms:
        f = -f if parities[a] & parities[c] else f
        for t in ((a, b, c), (c, a, b), (b, c, a)):
            if ordered or t[0] <= t[1] <= t[2]:
                out = acc.setdefault(t, {})
                for k, v in pairs:
                    out[k] = out.get(k, 0) + f * v
    return acc


def failing(acc: dict) -> list:
    """The keys of a scattered accumulator whose value, a number or a
    {t: number} vector, is not 0, sorted."""
    return sorted(key for key, out in acc.items()
                  if (any(out.values()) if isinstance(out, dict) else out))


def jacobi_violations(g: LieSuperalgebra, first: bool = False,
                      ordered: bool = False) -> list:
    """Basis triples where the graded Jacobi identity fails, in
    lexicographic order (only the first when ``first``).  Unless
    ``ordered``, requires grading and super-skew-symmetry, so that failure
    does not depend on the order of the triple: only i <= j <= k are
    evaluated, and each failing one stands for its permutations."""
    _, entries = g.integer_table
    into: list = [[] for _ in range(g.dim)]  # into[m]: (a, [e_a, e_m])
    for a, m, e in entries:
        into[m].append((a, e))
    # (-1)^{|a||c|} [e_a, [e_b, e_c]] is sum_m c_bcm [e_a, e_m], times d^2
    bad = failing(cyclic_sums(g.basis.parities, (
        (a, b, c, q, e_am) for b, c, e in entries for m, q in e
        for a, e_am in into[m]), ordered))
    if first or ordered:
        return bad[:1] if first else bad
    return sorted({t for ijk in bad for t in itertools.permutations(ijk)})


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of check_axioms; empty violation lists mean a pass."""

    grading: tuple[tuple[int, int, int], ...]
    skew: tuple[tuple[int, int], ...]
    jacobi: tuple[tuple[int, int, int], ...]

    @property
    def passed(self) -> bool:
        return not (self.grading or self.skew or self.jacobi)


def _grading_violations(g: LieSuperalgebra):
    p = g.basis.parities
    return [(i, j, k) for i, row in enumerate(g.table)
            for j, e in enumerate(row) for k, _ in e
            if p[k] != (p[i] + p[j]) % 2]


def _skew_violations(g: LieSuperalgebra):
    p, t = g.basis.parities, g.table
    return [(i, j) for i in range(g.dim) for j in range(i, g.dim)
            if t[i][j] != tuple((k, q if p[i] & p[j] else -q)
                                for k, q in t[j][i])]


def check_axioms(g: LieSuperalgebra) -> AxiomReport:
    """Verify grading, super-skew-symmetry and the graded Jacobi identity
    on all basis triples.  Violations are reported, not raised; without
    grading or skew, Jacobi is evaluated on every ordered triple."""
    grading = tuple(_grading_violations(g))
    skew = tuple(_skew_violations(g))
    jac = jacobi_violations(g, ordered=bool(grading or skew))
    return AxiomReport(grading, skew, tuple(jac))


def require_axioms(g: LieSuperalgebra, what: str = "algebra") -> None:
    report = check_axioms(g)
    if not report.passed:
        raise AxiomError(f"{what} fails the superalgebra axioms",
                         report=report)


# ---------------------------------------------------------------------------
# graded subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """Graded subspace, stored as the ``RowReducer`` of its span.

    The span is graded iff every RREF row of the reducer is homogeneous
    (docs/conventions.md, "Exact linear algebra"); construction checks
    that and reads the canonical homogeneous basis off the rows, split by
    pivot parity.  Membership reduces a vector against the rows by pivot.
    """

    basis: GradedBasis
    reducer: RowReducer = field(repr=False, compare=False)
    even_rows: Mat = field(init=False)
    odd_rows: Mat = field(init=False)

    def __post_init__(self):
        red = self.reducer
        if red.ncols != self.basis.dim:
            raise DimensionMismatch("reducer width does not match the basis")
        p = self.basis.parities
        rows: tuple[list, list] = ([], [])
        for pivot, dense in zip(red.pivots, red.basis()):
            if len({p[c] for c in red.int_rows[pivot]}) != 1:
                raise NotGradedError(
                    "spanning set does not span a graded subspace")
            rows[p[pivot]].append(dense)
        object.__setattr__(self, "even_rows", tuple(rows[EVEN]))
        object.__setattr__(self, "odd_rows", tuple(rows[ODD]))

    @property
    def vectors(self) -> Mat:
        return self.even_rows + self.odd_rows

    @property
    def parities(self) -> tuple[int, ...]:
        return (EVEN,) * len(self.even_rows) + (ODD,) * len(self.odd_rows)

    @property
    def dim(self) -> int:
        return self.reducer.rank

    def is_zero(self) -> bool:
        return self.dim == 0

    def contains_vector(self, v: Vec | dict) -> bool:
        """Whether v, dense or a {k: c} dict, lies in the subspace."""
        if not isinstance(v, dict) and len(v) != self.basis.dim:
            raise DimensionMismatch("vector does not match the ambient basis")
        return not self.reducer.reduce(v)

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(v) for v in other.vectors)

    def equals(self, other: "Subspace") -> bool:
        return self.dim == other.dim and self.contains(other)


def subspace(basis: GradedBasis, vectors) -> Subspace:
    """Graded subspace spanned by ``vectors``, dense or {k: c} dicts,
    from one reduction; NotGradedError unless the span is graded."""
    return Subspace(basis, RowReducer(basis.dim, vectors))


def zero_subspace(basis: GradedBasis) -> Subspace:
    return Subspace(basis, RowReducer(basis.dim))


def full_subspace(basis: GradedBasis) -> Subspace:
    n = basis.dim
    return subspace(basis, [unit_vec(n, i) for i in range(n)])


def extend_subspace(w: Subspace, v: Vec) -> Subspace:
    return subspace(w.basis, w.vectors + (vec(v),))


def graded_complement(basis: GradedBasis, inner: Subspace,
                      within: Subspace | None = None) -> Subspace:
    """Greedy graded complement of ``inner`` inside ``within`` (default:
    the whole space), spanned by canonical-basis vectors of ``within``:
    unit vectors or RREF rows of ``within``, so already an RREF."""
    if within is None:
        pool = [unit_vec(basis.dim, i) for i in range(basis.dim)]
    else:
        pool = list(within.vectors)
    acc = RowReducer(basis.dim, inner.reducer.int_rows.values())
    return Subspace(basis, RowReducer(basis.dim, [v for v in pool
                                                  if acc.add(v)]))


# ---------------------------------------------------------------------------
# center, series, predicates
# ---------------------------------------------------------------------------

def center(g: LieSuperalgebra) -> Subspace:
    """Graded subspace {x : [x, g] = 0}, via one stacked kernel computation."""
    n = g.dim
    by_jk: dict[tuple[int, int], list] = {}
    for i in range(n):
        for j in range(n):
            for k, q in g.table[i][j]:
                by_jk.setdefault((j, k), [ZERO] * n)[i] = q
    return subspace(g.basis, RowReducer(n, by_jk.values()).kernel())


def product_subspace(g: LieSuperalgebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of [a, b] over the spanning sets."""
    return subspace(g.basis, [bracket(g, u, v) for u in a.vectors
                              for v in b.vectors])


def derived_series(g: LieSuperalgebra) -> list[Subspace]:
    series = [full_subspace(g.basis)]
    while True:
        nxt = product_subspace(g, series[-1], series[-1])
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return series


def lower_central_series(g: LieSuperalgebra) -> list[Subspace]:
    series = [full_subspace(g.basis)]
    while True:
        nxt = subspace(g.basis, filter(None, ad_images(g, series[-1].vectors)))
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return series


def is_solvable(g: LieSuperalgebra) -> bool:
    return derived_series(g)[-1].is_zero()


def is_nilpotent(g: LieSuperalgebra) -> bool:
    return lower_central_series(g)[-1].is_zero()


def derived_subspace(g: LieSuperalgebra) -> Subspace:
    """[g, g], spanned by the nonzero entries of the bracket table."""
    return subspace(g.basis, [dict(e) for row in g.table for e in row if e])


def class_condition(g: LieSuperalgebra) -> bool:
    """True iff the span of odd-odd brackets lies inside the span of
    even-even brackets."""
    p = g.basis.parities
    even, odd = ([dict(e) for i, row in enumerate(g.table)
                  for j, e in enumerate(row) if e and p[i] == p[j] == par]
                 for par in (EVEN, ODD))
    return all(map(subspace(g.basis, even).contains_vector, odd))


def is_ideal(g: LieSuperalgebra, w: Subspace) -> bool:
    return all(map(w.contains_vector, filter(None, ad_images(g, w.vectors))))


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientResult:
    """Quotient algebra together with the projection onto its coordinates."""

    algebra: LieSuperalgebra
    projection: Mat  # (q x n), quotient coordinates of an ambient vector


def quotient(g: LieSuperalgebra, ideal: Subspace,
             complement: Subspace | None = None,
             names: tuple[str, ...] | None = None) -> QuotientResult:
    """Quotient by a graded ideal, on a homogeneous complement basis."""
    if not is_ideal(g, ideal):
        raise NotIdealError("subspace is not an ideal")
    comp = complement if complement is not None else graded_complement(
        g.basis, ideal)
    if comp.dim + ideal.dim != g.dim:
        raise PreconditionError("complement has the wrong dimension")
    cols = list(comp.vectors) + list(ideal.vectors)
    try:
        Minv = inverse(transpose(mat(cols)))
    except DimensionMismatch:
        raise PreconditionError("complement overlaps the ideal") from None
    q = comp.dim
    projection = tuple(Minv[:q])
    if names is None:
        names = tuple(f"q{r+1}" for r in range(q))
    qbasis = graded_basis(names, comp.parities)
    table = tuple(tuple(
        enumerate(mat_vec(projection, bracket(g, comp.vectors[i],
                                              comp.vectors[j])))
        for j in range(q)) for i in range(q))
    alg = LieSuperalgebra(qbasis, table)
    require_axioms(alg, "quotient algebra")
    return QuotientResult(alg, projection)
