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
from functools import cached_property

from .errors import (AxiomError, DimensionMismatch, NotGradedError,
                     NotIdealError, PreconditionError)
from .linalg import (Coordinates, Mat, ONE, Record, RowReducer, Vec, ZERO,
                     dense_vec, frac, integer_rows, lincomb, nonzeros)

EVEN = 0
ODD = 1


def sgn(exponent: int) -> int:
    """(-1)**exponent for integer exponents."""
    return -1 if exponent % 2 else 1


class GradedBasis(Record):
    """Ordered list of named basis vectors, each tagged even (0) or odd (1)."""

    names: tuple[str, ...]
    parities: tuple[int, ...]

    def __post_init__(self):
        n, p = len(self.names), self.parities
        if n != len(p):
            raise DimensionMismatch("names and parities differ in length")
        index = dict(zip(self.names, range(n)))
        if len(index) != n:
            raise PreconditionError("basis labels must be unique")
        if p.count(EVEN) + p.count(ODD) != n:
            raise PreconditionError("parities must be 0 (even) or 1 (odd)")
        object.__setattr__(self, "_index", index)

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
    """Canonical table entry from (k, coeff) pairs or a {k: coeff} dict:
    summed, nonzero, ascending in k."""
    acc = {}
    for k, q in (pairs.items() if isinstance(pairs, dict) else pairs):
        if k not in range(n):
            raise DimensionMismatch("bracket coordinate outside the basis")
        q = frac(q)
        acc[k] = acc[k] + q if k in acc else q
    return tuple((k, q) for k, q in sorted(acc.items()) if q)


class LieSuperalgebra(Record):
    """Lie superalgebra given by its sparse bracket table.

    ``table[i][j]`` may list [e_i, e_j] as any (k, coeff) pairs or a
    {k: coeff} dict; construction stores the canonical entry, so two
    algebras are equal iff their bases and brackets are, and raises
    AxiomError unless the table is graded and super-skew-symmetric.
    """

    basis: GradedBasis
    table: tuple

    def __post_init__(self):
        n, table = self.basis.dim, self.table
        if len(table) != n or any(len(row) != n for row in table):
            raise DimensionMismatch("bracket table must be dim x dim")
        object.__setattr__(self, "table", tuple(
            tuple(_entry(n, e) if e else () for e in row) for row in table))
        found = [tuple(v(self)) for v in (_grading_violations,
                                          _skew_violations)]
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

def sparse_bracket(g: LieSuperalgebra, x, y) -> dict:
    """[x, y] for x and y dense or {k: c} dicts, as the {k: c} dict of
    its nonzeros: the bilinear extension of the table over the nonzeros
    of x and y."""
    table, n = g.table, g.dim
    ys = nonzeros(y, n).items()
    return lincomb((xi * yj, table[i][j]) for i, xi in nonzeros(x, n).items()
                   for j, yj in ys if table[i][j])


def bracket(g: LieSuperalgebra, x, y) -> Vec:
    """[x, y] as a dense vector, the public read-out of
    :func:`sparse_bracket`."""
    return dense_vec(sparse_bracket(g, x, y), g.dim)


def ad_images(g: LieSuperalgebra, vectors):
    """Yield [e_i, v] for every basis index i and every v in ``vectors``,
    dense or {k: c} dicts, i-major, each as the {k: c} dict of its
    nonzeros, read straight off the table; each v's nonzeros are read
    once."""
    supports = [nonzeros(v, g.dim).items() for v in vectors]
    for row in g.table:
        for support in supports:
            yield lincomb((q, row[j]) for j, q in support)


def cyclic_sums(parities, terms) -> dict:
    """{(i, j, k): {t: value}} at each sorted i <= j <= k: the sum over
    the rotations (a, b, c) of (i, j, k) of (-1)^{|a||c|} X(a, b, c), each
    term (a, b, c, f, pairs) adding f * v on e_t to X(a, b, c) per (t, v)
    in pairs (docs/conventions.md, "Verifiers")."""
    acc: dict = {}
    for a, b, c, f, pairs in terms:
        f = -f if parities[a] & parities[c] else f
        for t in ((a, b, c), (c, a, b), (b, c, a)):
            if t[0] <= t[1] <= t[2]:
                out = acc.setdefault(t, {})
                for k, v in pairs:
                    out[k] = out.get(k, 0) + f * v
    return acc


def failing(acc: dict) -> list:
    """The keys of a scattered accumulator whose value, a number or a
    {t: number} vector, is not 0, sorted."""
    return sorted(key for key, out in acc.items()
                  if (any(out.values()) if isinstance(out, dict) else out))


def jacobi_violations(g: LieSuperalgebra) -> list:
    """Basis triples where the graded Jacobi identity fails, in
    lexicographic order.  Grading and super-skew-symmetry hold by
    construction, so failure does not depend on the order of the triple:
    only i <= j <= k are evaluated, and each failing one stands for its
    permutations."""
    _, entries = g.integer_table
    into: list = [[] for _ in range(g.dim)]  # into[m]: (a, [e_a, e_m])
    for a, m, e in entries:
        into[m].append((a, e))
    # (-1)^{|a||c|} [e_a, [e_b, e_c]] is sum_m c_bcm [e_a, e_m], times d^2
    bad = failing(cyclic_sums(g.basis.parities, (
        (a, b, c, q, e_am) for b, c, e in entries for m, q in e
        for a, e_am in into[m])))
    return sorted({t for ijk in bad for t in itertools.permutations(ijk)})


class AxiomReport(Record):
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
    """Verify the graded Jacobi identity on all basis triples; grading
    and super-skew-symmetry already held at construction.  Violations are
    reported, not raised."""
    return AxiomReport((), (), tuple(jacobi_violations(g)))


def require_axioms(g: LieSuperalgebra, what: str = "algebra") -> None:
    report = check_axioms(g)
    if not report.passed:
        raise AxiomError(f"{what} fails the superalgebra axioms",
                         report=report)


# ---------------------------------------------------------------------------
# graded subspaces
# ---------------------------------------------------------------------------

class Subspace(Record):
    """Graded subspace, stored only as the ``RowReducer`` of its span.

    The span is graded iff every RREF row of the reducer is homogeneous
    (docs/conventions.md, "Exact linear algebra"); construction checks
    that.  The canonical homogeneous basis is the RREF rows, even pivots
    first, each parity in pivot order: ``rows`` reads them as {k: c}
    dicts, and ``vectors``, ``even_rows`` and ``odd_rows`` read them out
    densely for public callers, each once.  Membership reduces a vector
    against the rows by pivot; two subspaces are equal iff they have the
    same basis and the same span, so the same canonical rows.
    """

    basis: GradedBasis
    reducer: RowReducer

    def __post_init__(self):
        red = self.reducer
        if red.ncols != self.basis.dim:
            raise DimensionMismatch("reducer width does not match the basis")
        p = self.basis.parities
        if any(p[c] != p[k] for k, r in red.int_rows.items() for c in r):
            raise NotGradedError(
                "spanning set does not span a graded subspace")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.basis == other.basis
                and self.reducer.int_rows == other.reducer.int_rows)

    def __hash__(self) -> int:
        return hash((self.basis, self.reducer.pivots))

    def __repr__(self) -> str:
        return f"Subspace(basis={self.basis!r})"

    @cached_property
    def rows(self) -> tuple[dict, ...]:
        """The RREF rows as {k: c} dicts, in the order of ``vectors``."""
        p = self.basis.parities
        return tuple(r for _, r in sorted(self.reducer.rows.items(),
                                          key=lambda pr: (p[pr[0]], pr[0])))

    @cached_property
    def parities(self) -> tuple[int, ...]:
        p = self.basis.parities
        return tuple(sorted(p[c] for c in self.reducer.int_rows))

    @cached_property
    def vectors(self) -> Mat:
        return tuple(dense_vec(r, self.basis.dim) for r in self.rows)

    @property
    def even_rows(self) -> Mat:
        return self.vectors[:self.parities.count(EVEN)]

    @property
    def odd_rows(self) -> Mat:
        return self.vectors[self.parities.count(EVEN):]

    @property
    def dim(self) -> int:
        return self.reducer.rank

    def is_zero(self) -> bool:
        return self.dim == 0

    def contains_vector(self, v: Vec | dict) -> bool:
        """Whether v, dense or a {k: c} dict, lies in the subspace."""
        return not self.reducer.reduce(v)

    def contains(self, other: "Subspace") -> bool:
        return all(map(self.contains_vector,
                       other.reducer.int_rows.values()))

    def equals(self, other: "Subspace") -> bool:
        return self.dim == other.dim and self.contains(other)


def subspace(basis: GradedBasis, vectors) -> Subspace:
    """Graded subspace spanned by ``vectors``, dense or {k: c} dicts,
    from one reduction; NotGradedError unless the span is graded."""
    return Subspace(basis, RowReducer(basis.dim, vectors))


def zero_subspace(basis: GradedBasis) -> Subspace:
    return Subspace(basis, RowReducer(basis.dim))


def full_subspace(basis: GradedBasis) -> Subspace:
    return subspace(basis, [{i: ONE} for i in range(basis.dim)])


def extend_subspace(w: Subspace, v: Vec | dict) -> Subspace:
    """w + <v>, for v dense or a {k: c} dict: one row added to a copy of
    w's reducer."""
    red = w.reducer.copy()
    red.add(v)
    return Subspace(w.basis, red)


def graded_complement(basis: GradedBasis, inner: Subspace,
                      within: Subspace | None = None) -> Subspace:
    """Greedy graded complement of ``inner`` inside ``within`` (default:
    the whole space), spanned by canonical-basis vectors of ``within``:
    unit vectors or RREF rows of ``within``, so already an RREF."""
    pool = (within.rows if within is not None
            else [{i: ONE} for i in range(basis.dim)])
    acc = inner.reducer.copy()
    return subspace(basis, [v for v in pool if acc.add(v)])


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
                by_jk.setdefault((j, k), {})[i] = q
    return subspace(g.basis, RowReducer(n, by_jk.values()).sparse_kernel())


def product_subspace(g: LieSuperalgebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of [a, b] over the spanning sets."""
    return subspace(g.basis, [sparse_bracket(g, u, v) for u in a.rows
                              for v in b.rows])


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
        nxt = subspace(g.basis, filter(None, ad_images(g, series[-1].rows)))
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


def ideal_violation(g: LieSuperalgebra, w: Subspace):
    """The least (i, v), i-major, with [e_i, v] outside w, for i a basis
    index and v a row of ``w.vectors``, or None."""
    m = len(w.rows)
    t = next((t for t, image in enumerate(ad_images(g, w.rows))
              if image and not w.contains_vector(image)), None)
    return None if t is None else (t // m, w.vectors[t % m])


def is_ideal(g: LieSuperalgebra, w: Subspace) -> bool:
    return ideal_violation(g, w) is None


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

class QuotientResult(Record):
    """Quotient algebra together with the projection onto its coordinates."""

    algebra: LieSuperalgebra
    projection: Mat  # (q x n), quotient coordinates of an ambient vector


def quotient(g: LieSuperalgebra, ideal: Subspace,
             complement: Subspace | None = None,
             names: tuple[str, ...] | None = None) -> QuotientResult:
    """Quotient by a graded ideal, on a homogeneous complement basis."""
    bad = ideal_violation(g, ideal)
    if bad is not None:
        raise NotIdealError("subspace is not an ideal", witness=bad)
    comp = complement if complement is not None else graded_complement(
        g.basis, ideal)
    if comp.dim + ideal.dim != g.dim:
        raise PreconditionError("complement has the wrong dimension")
    try:
        coords = Coordinates(g.dim, comp.rows + ideal.rows)
    except DimensionMismatch:
        raise PreconditionError("complement overlaps the ideal") from None
    q, rows = comp.dim, comp.rows

    def head(v: dict) -> dict:
        """The quotient coordinates of v: its coordinates on [comp | ideal]
        on the complement."""
        return {r: c for r, c in coords.of(v).items() if r < q}
    units = [head({a: ONE}) for a in range(g.dim)]
    projection = tuple(tuple(u.get(r, ZERO) for u in units) for r in range(q))
    if names is None:
        names = tuple(f"q{r+1}" for r in range(q))
    qbasis = graded_basis(names, comp.parities)
    table = tuple(tuple(head(sparse_bracket(g, rows[i], rows[j]))
                        for j in range(q)) for i in range(q))
    alg = LieSuperalgebra(qbasis, table)
    require_axioms(alg, "quotient algebra")
    return QuotientResult(alg, projection)
