"""Finite-dimensional Lie superalgebras by structure constants.

A superalgebra lives on a :class:`GradedBasis`; its structure constants
c_ijk of [e_i, e_j] = sum_k c_ijk e_k are stored like every other even
tensor of the package, as nonzero values on free coordinates, the index
tuples that the one Koszul rule :func:`canon` maps to themselves
(docs/conventions.md, "Free coordinates").  The grading and
super-skew-symmetry hold by that key set, which keeps sign bookkeeping
out of the algorithms, where superalgebra code usually goes wrong; they
read the sparse table over both orders that construction derives.

Sign conventions used throughout (see docs/conventions.md):

* super-skew-symmetry   [x, y] = -(-1)^{|x||y|} [y, x]
* graded Jacobi         (-1)^{|x||z|}[x,[y,z]] + (-1)^{|x||y|}[y,[z,x]]
                        + (-1)^{|y||z|}[z,[x,y]] = 0
* coadjoint action      (pi(x)F)(y) = -(-1)^{|x||F|} F([x, y])
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property

from .errors import (AxiomError, CochainError, DimensionMismatch,
                     NotGradedError, NotIdealError, PreconditionError)
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


def is_free(parities, key: tuple, head=None, symmetric=False) -> bool:
    """Whether ``key`` is a free coordinate: an ascending head (its first
    ``head`` indices, default all) whose repeats have the parity that does
    not vanish (odd if alternating, even if symmetric), and even parity."""
    x = -1
    for y in key[:head]:
        if x > y or x == y and parities[x] == symmetric:
            return False
        x = y
    return not sum([parities[y] for y in key]) % 2


def canon(parities, key: tuple, head: int | None = None,
          symmetric: bool = False):
    """Free coordinate and sign of the entry at ``key`` of an even tensor
    that is super-alternating (supersymmetric if ``symmetric``) in its
    first ``head`` indices, default all of them: the head sorted, each
    swap of x and y contributing (-1)^{|x||y|}, negated for an
    alternating tensor; (None, 0) if the sorted key is not :func:`is_free`.
    """
    front = key[:head]
    idx = tuple(sorted(front))
    sign = 1
    if idx != front:  # a sort swaps each inverted pair once
        for s, x in enumerate(front):
            for y in front[s + 1:]:
                # the swap's sign is -1 iff |x||y| is 1 if symmetric, else 0
                if x > y and parities[x] * parities[y] == symmetric:
                    sign = -sign
    key = idx + key[len(idx):]
    return ((key, sign) if is_free(parities, key, head, symmetric)
            else (None, 0))


def store_free_entries(obj, arity: int, head: int | None = None,
                       symmetric: bool = False, error=CochainError) -> None:
    """Keep the nonzero values of ``obj.coords``, sorted by key.
    Evenness and the (anti)symmetry live in the key set, so only the keys
    are checked: each must be :func:`is_free` with ``head`` and
    ``symmetric``, or ``error`` is raised with the key as its witness."""
    inside = range(obj.basis.dim).__contains__
    p = obj.basis.parities
    out = {}
    for key, q in obj.coords.items():
        if (not isinstance(key, tuple) or len(key) != arity
                or not all(map(inside, key))):
            raise DimensionMismatch(
                f"{type(obj).__name__} index {key!r} outside the basis")
        if not is_free(p, key, head, symmetric):
            raise error(f"{type(obj).__name__} entry {key!r} is not a free "
                        "coordinate", witness=key)
        q = frac(q)
        if q != 0:
            out[key] = q
    object.__setattr__(obj, "coords", dict(sorted(out.items())))


class LieSuperalgebra(Record):
    """Lie superalgebra given by its structure constants, stored as their
    nonzero values on the free coordinates: coords[(i, j, k)] = c_ijk,
    [e_i, e_j] = sum_k c_ijk e_k, with i <= j, i = j only for an odd e_i,
    and an even parity sum (the key set of ``Cochain2Dual``).  The grading
    and super-skew-symmetry hold by the key set, so only the keys are
    checked, by AxiomError with the key as its witness.

    Construction also derives the one table the algorithms read,
    ``integer_table = (d, {(i, j): ((k, d c_ijk), ...)})``: the nonzero
    [e_i, e_j] over both orders, i-major, ascending k, with
    [e_j, e_i] = -(-1)^{|i||j|} [e_i, e_j], scaled to ints by the least
    common denominator d of the structure constants.
    """

    basis: GradedBasis
    coords: dict

    def __post_init__(self):
        store_free_entries(self, 3, head=2, error=AxiomError)
        p = self.basis.parities
        d, (entries,) = integer_rows([self.coords.items()])
        table: dict = {}
        # sorted keys list each [e_i, e_j] ascending in k
        for (i, j, k), c in entries:
            table.setdefault((i, j), []).append((k, c))
            if i != j:
                table.setdefault((j, i), []).append((k, -sgn(p[i] * p[j]) * c))
        object.__setattr__(self, "integer_table", (d, {
            key: tuple(e) for key, e in sorted(table.items())}))

    @property
    def dim(self) -> int:
        return self.basis.dim

    def parity(self, i: int) -> int:
        return self.basis.parity(i)


def from_brackets(names, parities, brackets) -> LieSuperalgebra:
    """Build an algebra from a sparse {(a, b): {label: coeff}} description.

    Each bracket is stored at its free pair, signed by super-skew-symmetry;
    an entry that contradicts another one's completion is an error.
    """
    basis = graded_basis(names, parities)
    p = basis.parities
    pairs: dict = {}
    for (a, b), terms in brackets.items():
        i, j = basis.index(a), basis.index(b)
        s = 1 if i <= j else -sgn(p[i] * p[j])
        items = terms.items() if isinstance(terms, dict) else terms
        v = lincomb([(s, [(basis.index(label), frac(q))
                          for label, q in items])])
        if i == j and v and not p[i]:
            raise PreconditionError(
                f"bracket [{a},{a}] must vanish for an even generator")
        if pairs.setdefault((min(i, j), max(i, j)), v) != v:
            raise PreconditionError(
                f"contradictory bracket entries for ({a},{b})")
    return LieSuperalgebra(basis, {(i, j, k): q for (i, j), v in pairs.items()
                                   for k, q in v.items()})


def abelian(even: int, odd: int) -> LieSuperalgebra:
    names = [f"e{i+1}" for i in range(even)] + [f"o{i+1}" for i in range(odd)]
    parities = [EVEN] * even + [ODD] * odd
    return LieSuperalgebra(graded_basis(names, parities), {})


# ---------------------------------------------------------------------------
# bracket and axiom checking
# ---------------------------------------------------------------------------

def sparse_bracket(g: LieSuperalgebra, x, y) -> dict:
    """[x, y] for x and y dense or {k: c} dicts, as the {k: c} dict of
    its nonzeros: the int sum of d_x x_i d_y y_j [e_i, e_j] over the
    integer table, divided once by d_g d_x d_y."""
    (d, table), n = g.integer_table, g.dim
    dx, (xs,) = integer_rows([nonzeros(x, n).items()])
    dy, (ys,) = integer_rows([nonzeros(y, n).items()])
    out = lincomb((a * b, table.get((i, j), ())) for i, a in xs for j, b in ys)
    return {k: Fraction(c, d * dx * dy) for k, c in out.items()}


def bracket(g: LieSuperalgebra, x, y) -> Vec:
    """[x, y] as a dense vector, the public read-out of
    :func:`sparse_bracket`."""
    return dense_vec(sparse_bracket(g, x, y), g.dim)


def ad_images(g: LieSuperalgebra, vectors, left=None):
    """Yield d_g d_v [x, v] as {k: int} dicts for spans and membership,
    x-major over the {i: int} dicts ``left`` (default: the basis vectors
    e_i), then ``vectors``, dense or {k: c} dicts: d_g =
    g.integer_table[0], d_v the lcd of v's entries."""
    _, table = g.integer_table
    supports = [integer_rows([nonzeros(v, g.dim).items()])[1][0]
                for v in vectors]
    for x in ({i: 1} for i in range(g.dim)) if left is None else left:
        for support in supports:
            yield lincomb((a * q, table.get((i, j), ()))
                          for i, a in x.items() for j, q in support)


def cyclic_sums(parities, terms) -> dict:
    """{(i, j, k): {t: value}} at each sorted i <= j <= k: the sum over
    the rotations (a, b, c) of (i, j, k) of (-1)^{|a||c|} X(a, b, c), each
    term (a, b, c, f, pairs), given for b <= c only, adding f * v on e_t
    to X(a, b, c) per (t, v) in pairs, and X(a, c, b) = -(-1)^{|b||c|}
    X(a, b, c) stands for the other order (docs/conventions.md,
    "Verifiers")."""
    acc: dict = {}
    for a, b, c, f, pairs in terms:
        s = -f if parities[a] & parities[c] else f
        places = ([((a, b, c), 3 * s if a == c else s)] if a <= b
                  else [((b, c, a), s)] if a >= c else [])
        if b <= a <= c and b < c:  # X(a, c, b) in the rotation (b, a, c)
            places.append(((b, a, c), f if parities[b] & (
                parities[a] ^ parities[c]) else -f))
        for t, x in places:
            out = acc.setdefault(t, {})
            for k, v in pairs:
                out[k] = out.get(k, 0) + x * v
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
    _, table = g.integer_table
    into: list = [[] for _ in range(g.dim)]  # into[m]: (a, [e_a, e_m])
    for (a, m), e in table.items():
        into[m].append((a, e))
    # (-1)^{|a||c|} [e_a, [e_b, e_c]] is sum_m c_bcm [e_a, e_m], times d^2
    bad = failing(cyclic_sums(g.basis.parities, (
        (a, b, c, q, e_am) for (b, c), e in table.items() if b <= c
        for m, q in e for a, e_am in into[m])))
    return sorted({t for ijk in bad for t in itertools.permutations(ijk)})


class AxiomReport(Record):
    """Outcome of check_axioms; an empty violation list means a pass."""

    jacobi: tuple[tuple[int, int, int], ...]

    @property
    def passed(self) -> bool:
        return not self.jacobi


def check_axioms(g: LieSuperalgebra) -> AxiomReport:
    """Verify the graded Jacobi identity on all basis triples; grading
    and super-skew-symmetry hold by the key set of ``g.coords``.
    Violations are reported, not raised."""
    return AxiomReport(tuple(jacobi_violations(g)))


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


def subspace(basis: GradedBasis, vectors) -> Subspace:
    """Graded subspace spanned by ``vectors``, dense or {k: c} dicts,
    from one reduction; NotGradedError unless the span is graded."""
    return Subspace(basis, RowReducer(basis.dim, vectors))


def zero_subspace(basis: GradedBasis) -> Subspace:
    return Subspace(basis, RowReducer(basis.dim))


def full_subspace(basis: GradedBasis) -> Subspace:
    return Subspace(basis, RowReducer.identity(basis.dim))


def extend_subspace(w: Subspace, v: Vec | dict) -> Subspace:
    """w + <v>, for v dense or a {k: c} dict: one row added to a copy of
    w's reducer."""
    red = w.reducer.copy()
    red.add(v)
    return Subspace(w.basis, red)


def graded_complement(basis: GradedBasis, inner: Subspace) -> Subspace:
    """Greedy graded complement of ``inner``, spanned by the unit vectors
    that raise the rank, in index order."""
    acc = inner.reducer.copy()
    return subspace(basis, [{i: ONE} for i in range(basis.dim)
                            if acc.add({i: ONE})])


# ---------------------------------------------------------------------------
# center, series, predicates
# ---------------------------------------------------------------------------

def center(g: LieSuperalgebra) -> Subspace:
    """Graded subspace {x : [x, g] = 0}, via one stacked kernel computation."""
    cols: dict = {}  # (j, k) -> {i: d c_ijk}
    for (i, j), e in g.integer_table[1].items():
        for k, q in e:
            cols.setdefault((j, k), {})[i] = q
    return subspace(g.basis, RowReducer(g.dim, cols.values()).sparse_kernel())


def _series(g: LieSuperalgebra, step) -> list[Subspace]:
    """g, [g, g] off the table's free pairs, then steps while dim falls."""
    series = [full_subspace(g.basis)]
    nxt = subspace(g.basis, (dict(e) for (i, j), e in
                             g.integer_table[1].items() if i <= j))
    while nxt.dim < series[-1].dim:
        series.append(nxt)
        nxt = step(nxt)
    return series


def derived_series(g: LieSuperalgebra) -> list[Subspace]:
    """g, [g, g], ...: each member spanned by the brackets of its RREF
    rows at t <= u, as [r_u, r_t] = ±[r_t, r_u] for homogeneous rows."""
    def step(w: Subspace) -> Subspace:
        rows = list(w.reducer.int_rows.values())
        return subspace(g.basis, filter(None, (
            image for t, x in enumerate(rows)
            for image in ad_images(g, rows[t:], [x]))))
    return _series(g, step)


def lower_central_series(g: LieSuperalgebra) -> list[Subspace]:
    return _series(g, lambda w: subspace(g.basis, filter(
        None, ad_images(g, w.reducer.int_rows.values()))))


def is_solvable(g: LieSuperalgebra) -> bool:
    return derived_series(g)[-1].is_zero()


def is_nilpotent(g: LieSuperalgebra) -> bool:
    return lower_central_series(g)[-1].is_zero()


def class_condition(g: LieSuperalgebra) -> bool:
    """True iff the span of odd-odd brackets lies inside the span of
    even-even brackets, each read at its free pair i <= j."""
    p = g.basis.parities
    even, odd = ([dict(e) for (i, j), e in g.integer_table[1].items()
                  if i <= j and p[i] == p[j] == par] for par in (EVEN, ODD))
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
    brackets: dict  # (i, j) free pair -> [s_i, s_j] of complement rows


def quotient(g: LieSuperalgebra, ideal: Subspace,
             complement: Subspace | None = None,
             names: tuple[str, ...] | None = None) -> QuotientResult:
    """Quotient by a graded ideal, on a homogeneous complement basis read
    modulo the ideal; it satisfies Jacobi as g does, so that is not
    checked again."""
    bad = ideal_violation(g, ideal)
    if bad is not None:
        raise NotIdealError("subspace is not an ideal", witness=bad)
    comp = complement if complement is not None else graded_complement(
        g.basis, ideal)
    if comp.dim + ideal.dim != g.dim:
        raise PreconditionError("complement has the wrong dimension")
    q, rows = comp.dim, comp.rows
    try:
        coords = Coordinates(ideal.reducer, rows).of
    except DimensionMismatch:
        raise PreconditionError("complement overlaps the ideal") from None
    units = [coords({a: ONE}) for a in range(g.dim)]
    projection = tuple(tuple(u.get(r, ZERO) for u in units) for r in range(q))
    if names is None:
        names = tuple(f"q{r+1}" for r in range(q))
    p = comp.parities
    brackets = {(i, j): sparse_bracket(g, rows[i], rows[j])
                for i in range(q) for j in range(i, q) if i < j or p[i]}
    alg = LieSuperalgebra(graded_basis(names, p), {
        (i, j, k): c for (i, j), v in brackets.items()
        for k, c in coords(v).items()})
    return QuotientResult(alg, projection, brackets)
