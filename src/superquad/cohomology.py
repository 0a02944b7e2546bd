"""Dual-valued 2-cochains, even scalar 3-cochains, the supercyclic
correspondence and exact computation of the even scalar cohomology
spaces used to classify T*-extensions.

Conventions (docs/conventions.md):

* a dual-valued 2-cochain is super-antisymmetric with a minus sign,
  w(x, y) = -(-1)^{|x||y|} w(y, x); with the plus sign the transported
  trilinear tensor below would fail super-alternation, which is how the
  convention is pinned down internally;
* supercyclic means  w(x, y)(z) = (-1)^{|x|(|y|+|z|)} w(y, z)(x);
* the trilinear tensor of a supercyclic cochain,
  f(x, y, z) = w(x, y)(z), is even and super-alternating:
  f(x,y,z) = -(-1)^{|x||y|} f(y,x,z) = -(-1)^{|y||z|} f(x,z,y).

Cochains are stored, and cocycle spaces solved, in free coordinates:
index tuples that are their own canonical representative (for scalar
3-cochains, triples sorted ascending where an index may repeat only when
it is odd; super-alternation is symmetric on odd pairs, and triple
repeats are killed by evenness).  A cochain keeps only its nonzero values
keyed by free coordinate, so evenness and super-antisymmetry hold by
construction and only the keys are checked; any other entry is read
through its canonical representative and sign.  Z^2, Z^2_sc and Z^3 are
all solved by one helper that canonicalizes symbolic identity rows into
free coordinates and reduces them with the sparse ``RowReducer``; the
coboundaries delta(e_ab) of the unit 2-cochains are read off the bracket
table once, straight in free coordinates.

Closedness is checked and solved on sorted 4-tuples i <= j <= k <= l only.
For a super-alternating f, d f is super-alternating in its four
arguments, so the identity at any other ordering of a 4-tuple is a
signed copy of the identity at the sorted one.  The sorted ordering is
also the lexicographically smallest, so the first violated 4-tuple in
lexicographic order over all n^4 is always sorted: ``closed3_violation``
returns the same witness the full loop would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (CochainError, DimensionMismatch, PreconditionError)
from .linalg import RowReducer, ZERO, frac, integer_rows, solve, vec_is_zero
from .superalgebra import (EVEN, GradedBasis, LieSuperalgebra, cyclic_sums,
                           failing, integer_table, sgn)

Triple = tuple[int, int, int]


# ---------------------------------------------------------------------------
# canonicalization of super-alternating index tuples
# ---------------------------------------------------------------------------

def canon3(parities, i: int, j: int, k: int):
    """Canonical (ascending) representative of a fully super-alternating
    triple, with the sign relating the entry to its representative.

    Returns (triple, sign) or (None, 0) when the entry is forced to
    vanish (repeated even index, or odd parity sum).
    """
    if (parities[i] + parities[j] + parities[k]) % 2:
        return None, 0
    idx = [i, j, k]
    sign = 1
    for a in range(2):  # bubble sort of 3 entries
        for b in range(2 - a):
            if idx[b] > idx[b + 1]:
                sign *= -sgn(parities[idx[b]] * parities[idx[b + 1]])
                idx[b], idx[b + 1] = idx[b + 1], idx[b]
    if ((idx[0] == idx[1] and parities[idx[0]] == EVEN)
            or (idx[1] == idx[2] and parities[idx[1]] == EVEN)):
        return None, 0
    return (idx[0], idx[1], idx[2]), sign


def canon2_first(parities, i: int, j: int):
    """Canonical representative for a pair antisymmetric in (i, j) only."""
    if i > j:
        return (j, i), -sgn(parities[i] * parities[j])
    if i == j and parities[i] == EVEN:
        return None, 0
    return (i, j), 1


def canon_cochain2dual(parities, a: int, b: int, c: int):
    """Free coordinate and sign of the entry w(e_a, e_b)(e_c) of an even
    dual-valued 2-cochain, or (None, 0) when it vanishes."""
    pair, s = canon2_first(parities, a, b)
    if pair is None or (parities[a] + parities[b] + parities[c]) % 2:
        return None, 0
    return (pair[0], pair[1], c), s


def canon_scalar2(parities, i: int, j: int):
    """Free coordinate and sign of the entry phi(e_i, e_j) of an even
    scalar 2-cochain, or (None, 0) when it vanishes."""
    if parities[i] != parities[j]:
        return None, 0
    return canon2_first(parities, i, j)


def _free_coords(basis: GradedBasis, arity: int, canon) -> list:
    """The index tuples that are their own canonical representative, in
    lexicographic order."""
    return [key for key in itertools.product(range(basis.dim), repeat=arity)
            if canon(basis.parities, *key)[0] == key]


def free_coords_alt3(basis: GradedBasis) -> list[Triple]:
    """Free coordinates of even super-alternating trilinear tensors."""
    return _free_coords(basis, 3, canon3)


def free_coords_cochain2dual(basis: GradedBasis) -> list[Triple]:
    """Free coordinates (i, j, k) of even 2-cochains with values in the
    dual space, antisymmetric in (i, j)."""
    return _free_coords(basis, 3, canon_cochain2dual)


def free_coords_scalar2(basis: GradedBasis) -> list[tuple[int, int]]:
    return _free_coords(basis, 2, canon_scalar2)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def store_free_entries(obj, arity: int, canon, error=CochainError) -> None:
    """Keep the nonzero values of ``obj.coords``, sorted by key.
    Evenness and the (anti)symmetry live in the key set, so only the keys
    are checked: each must be its own canonical representative, or
    ``error`` is raised with the key as its witness."""
    n = obj.basis.dim
    p = obj.basis.parities
    what = type(obj).__name__
    out = {}
    for key, q in obj.coords.items():
        if (not isinstance(key, tuple) or len(key) != arity
                or any(a not in range(n) for a in key)):
            raise DimensionMismatch(f"{what} index {key!r} outside the basis")
        if canon(p, *key)[0] != key:
            raise error(f"{what} entry {key!r} is not a free coordinate", key)
        q = frac(q)
        if q != 0:
            out[key] = q
    object.__setattr__(obj, "coords", dict(sorted(out.items())))


@dataclass(frozen=True)
class Cochain2Dual:
    """Even bilinear map g x g -> g*, super-antisymmetric in its two
    arguments, stored as its nonzero values on the free coordinates:
    coords[(i, j, k)] = w(e_i, e_j)(e_k) with i <= j."""

    basis: GradedBasis
    coords: dict

    def __post_init__(self):
        store_free_entries(self, 3, canon_cochain2dual)


@dataclass(frozen=True)
class ScalarCochain3:
    """Even super-alternating trilinear scalar form, stored as its nonzero
    values on the ascending free triples (see :func:`free_coords_alt3`)."""

    basis: GradedBasis
    coords: dict

    def __post_init__(self):
        store_free_entries(self, 3, canon3)


@dataclass(frozen=True)
class ScalarCochain2:
    """Even super-antisymmetric bilinear scalar form, stored as its nonzero
    values phi(e_i, e_j) on the free pairs i <= j."""

    basis: GradedBasis
    coords: dict

    def __post_init__(self):
        store_free_entries(self, 2, canon_scalar2)


# free coordinates in and out -------------------------------------------------

def expand_alt3(basis: GradedBasis, coords: dict[Triple, Fraction]) -> ScalarCochain3:
    return ScalarCochain3(basis, coords)


def collect_alt3(f: ScalarCochain3) -> dict[Triple, Fraction]:
    return dict(f.coords)


def collect_cochain2dual(w: Cochain2Dual) -> dict[Triple, Fraction]:
    return dict(w.coords)


def collect_scalar2(phi: ScalarCochain2) -> dict[tuple[int, int], Fraction]:
    return dict(phi.coords)


def zero_cochain2(g: LieSuperalgebra | GradedBasis) -> Cochain2Dual:
    basis = g if isinstance(g, GradedBasis) else g.basis
    return Cochain2Dual(basis, {})


def zero_scalar2(g: LieSuperalgebra | GradedBasis) -> ScalarCochain2:
    basis = g if isinstance(g, GradedBasis) else g.basis
    return ScalarCochain2(basis, {})


def _entry3(f: ScalarCochain3, a: int, b: int, c: int) -> Fraction:
    """f(e_a, e_b, e_c), read through its free coordinate; an entry whose
    sorted key is not stored vanishes, so the sign is only needed for the
    stored ones."""
    q = f.coords.get(tuple(sorted((a, b, c))))
    return canon3(f.basis.parities, a, b, c)[1] * q if q else ZERO


# arithmetic ------------------------------------------------------------------

def _combined(a, b, s: int) -> dict:
    if a.basis != b.basis:
        raise DimensionMismatch("cochains live on different bases")
    out = dict(a.coords)
    for key, q in b.coords.items():
        out[key] = out.get(key, ZERO) + s * q
    return out


def sub3(a: ScalarCochain3, b: ScalarCochain3) -> ScalarCochain3:
    return ScalarCochain3(a.basis, _combined(a, b, -1))


# ---------------------------------------------------------------------------
# the four multilinear identities, from one symbolic source each
# ---------------------------------------------------------------------------

def _cocycle2_rows(g: LieSuperalgebra, i: int, j: int, k: int):
    """Symbolic 2-cocycle identity at the basis triple (i, j, k).

    Yields (l, terms) per output coordinate l, where terms is a list of
    ((a, b, c), coeff) contributions meaning coeff * w(e_a, e_b)(e_c).
    """
    p = g.basis.parities
    n = g.dim
    table = g.table
    x, y, z = p[i], p[j], p[k]
    s_yzx = sgn(x * (y + z))
    s_zxy = sgn(z * (x + y))
    rows: list[list[tuple[Triple, Fraction]]] = [[] for _ in range(n)]
    # w(e_i, [e_j, e_k]) and cyclic rotations
    for (a, bc, s) in ((i, (j, k), 1), (j, (k, i), s_yzx), (k, (i, j), s_zxy)):
        for m, q in table[bc[0]][bc[1]]:
            coeff = q if s == 1 else -q
            for l in range(n):
                rows[l].append(((a, m, l), coeff))
    # pi(e_i)(w(e_j, e_k)) and cyclic rotations:
    # (pi(e_a)F)(e_l) = -(-1)^{p_a p_F} sum_t c[a][l][t] F_t
    for (a, bc, s) in ((i, (j, k), 1), (j, (k, i), s_yzx), (k, (i, j), s_zxy)):
        pf = (p[bc[0]] + p[bc[1]]) % 2
        outer = -s * sgn(p[a] * pf)
        for l in range(n):
            for t, q in table[a][l]:
                rows[l].append(((bc[0], bc[1], t),
                                q if outer == 1 else -q))
    return rows


def _free_row(parities, terms, canon) -> dict:
    """A symbolic identity row, a list of ((a, b, c), coeff) terms meaning
    coeff * entry (a, b, c), as {free coordinate: coeff}: ``canon``
    maps an entry to (free coordinate, sign), or to (None, 0) when the
    entry is forced to vanish.  Terms that cancel are dropped."""
    row: dict = {}
    for (a, b, c), coeff in terms:
        key, s = canon(parities, a, b, c)
        if key is not None:
            q = coeff if s == 1 else -coeff
            row[key] = row[key] + q if key in row else q
    return {key: q for key, q in row.items() if q}


def _dual_lookup(w: Cochain2Dual) -> dict:
    """w(e_a, e_b) as {c: value} for every ordered pair (a, b) where it is
    nonzero, expanded once from the free coordinates scaled to ints."""
    p = w.basis.parities
    out: dict = {}
    for (a, b, c), q in integer_rows([w.coords.items()])[1][0]:
        out.setdefault((a, b), {})[c] = q
        if a != b:
            out.setdefault((b, a), {})[c] = -sgn(p[a] * p[b]) * q
    return out


def _cocycle2_defects(g: LieSuperalgebra, w: Cochain2Dual,
                      ordered: bool = False) -> dict:
    """The identity of :func:`_cocycle2_rows` times (-1)^{|i||k|} and the
    scale factors of the table and of w: the :func:`cyclic_sums` of
    X(a, b, c) = w(e_a, [e_b, e_c]) + pi(e_a)(w(e_b, e_c)), where
    pi(e_a)F at e_l is -(-1)^{|a||F|} F([e_a, e_l])."""
    p, n = g.basis.parities, g.dim
    _, entries = integer_table(g)
    lookup = _dual_lookup(w)
    w_into: list = [[] for _ in range(n)]  # w_into[m]: (a, w(e_a, e_m))
    for (a, m), col in lookup.items():
        w_into[m].append((a, col.items()))
    onto: list = [[] for _ in range(n)]  # onto[t]: (a, l, c_alt)
    for a, l, e in entries:
        for t, q in e:
            onto[t].append((a, l, q))
    return cyclic_sums(p, itertools.chain(
        ((a, b, c, q, col) for b, c, e in entries for m, q in e
         for a, col in w_into[m]),
        ((a, b, c, -sgn(p[a] * (p[b] + p[c])) * v, ((l, q),))
         for (b, c), col in lookup.items() for t, v in col.items()
         for a, l, q in onto[t])), ordered)


def cocycle2_violation(g: LieSuperalgebra, w: Cochain2Dual):
    """First sorted basis triple where the 2-cocycle identity fails."""
    return next(iter(failing(_cocycle2_defects(g, w))), None)


def is_cocycle2(g: LieSuperalgebra, w: Cochain2Dual) -> bool:
    if w.basis != g.basis:
        raise DimensionMismatch("cochain basis differs from the algebra")
    return cocycle2_violation(g, w) is None


def supercyclic_violation(w: Cochain2Dual):
    """First basis triple, in lexicographic order, where supercyclicity
    fails, or None.  The defect at (i, j, k) reads w at (i, j, k) and at
    (j, k, i) through its :func:`_dual_lookup`, so only triples next to a
    nonzero entry can fail."""
    p = w.basis.parities
    lookup = _dual_lookup(w)
    support = {(a, b, c) for (a, b), col in lookup.items() for c in col}
    for i, j, k in sorted(support | {(c, a, b) for a, b, c in support}):
        w_ijk = lookup.get((i, j), {}).get(k, 0)
        w_jki = lookup.get((j, k), {}).get(i, 0)
        if w_ijk != sgn(p[i] * (p[j] + p[k])) * w_jki:
            return (i, j, k)
    return None


def is_supercyclic(w: Cochain2Dual) -> bool:
    return supercyclic_violation(w) is None


def _closed3_row(g: LieSuperalgebra, i: int, j: int, k: int, l: int):
    """Symbolic closedness identity at the basis 4-tuple: a list of
    ((a, b, c), coeff) contributions meaning coeff * f(e_a, e_b, e_c)."""
    p = g.basis.parities
    table = g.table
    x, y, z, v = p[i], p[j], p[k], p[l]
    pieces = (
        ((i, j), (k, l), 1),
        ((i, k), (j, l), -sgn(y * z)),
        ((j, k), (i, l), sgn(x * (y + z))),
        ((i, l), (j, k), sgn((y + z) * v)),
        ((j, l), (i, k), -sgn(x * (y + v) + v * z)),
        ((k, l), (i, j), sgn((x + y) * (z + v))),
    )
    terms: list[tuple[Triple, Fraction]] = []
    for (a, b), (c, d), s in pieces:
        for m, q in table[a][b]:
            terms.append(((m, c, d), s * q))
    return terms


def closed3_defect(g: LieSuperalgebra, f: ScalarCochain3,
                   i: int, j: int, k: int, l: int) -> Fraction:
    acc = ZERO
    for (a, b, c), coeff in _closed3_row(g, i, j, k, l):
        val = _entry3(f, a, b, c)
        if val != 0:
            acc += coeff * val
    return acc


def _sorted_tuples4(parities):
    """Basis 4-tuples i <= j <= k <= l of even parity sum, in
    lexicographic order; every other 4-tuple's closedness identity is a
    signed copy of one of these, or vanishes by evenness."""
    n = len(parities)
    for quad in itertools.combinations_with_replacement(range(n), 4):
        if sum(parities[i] for i in quad) % 2 == 0:
            yield quad


def closed3_violation(g: LieSuperalgebra, f: ScalarCochain3):
    """First basis 4-tuple, in lexicographic order, where d f is nonzero,
    or None.  Only sorted 4-tuples are visited (see the module notes)."""
    for i, j, k, l in _sorted_tuples4(g.basis.parities):
        if closed3_defect(g, f, i, j, k, l) != 0:
            return (i, j, k, l)
    return None


def is_closed3(g: LieSuperalgebra, f: ScalarCochain3) -> bool:
    if f.basis != g.basis:
        raise DimensionMismatch("cochain basis differs from the algebra")
    return closed3_violation(g, f) is None


def delta_scalar2(g: LieSuperalgebra, phi: ScalarCochain2) -> ScalarCochain3:
    """(d phi)(x,y,z) = -phi([x,y],z) + (-1)^{|y||z|} phi([x,z],y)
    - (-1)^{|x|(|y|+|z|)} phi([y,z],x), extended trilinearly: the sum of
    phi's coordinates times the coboundaries of the unit 2-cochains."""
    if phi.basis != g.basis:
        raise DimensionMismatch("cochain basis differs from the algebra")
    coords, keys2, cols = _coboundary_columns(g)
    col_of = dict(zip(keys2, cols))
    out: dict[int, Fraction] = {}
    for key, q in phi.coords.items():
        for t, v in col_of[key].items():
            out[t] = out.get(t, ZERO) + q * v
    return ScalarCochain3(g.basis, {coords[t]: q for t, q in out.items()})


# ---------------------------------------------------------------------------
# the transported-tensor correspondence
# ---------------------------------------------------------------------------

def hat(w: Cochain2Dual) -> ScalarCochain3:
    """Reinterpret a supercyclic dual-valued 2-cochain as the scalar
    trilinear tensor (x, y, z) -> w(x, y)(z).  The values are literally
    the same, so hat keeps w's ascending free coordinates; supercyclicity
    is what makes the result fully super-alternating."""
    bad = supercyclic_violation(w)
    if bad is not None:
        raise PreconditionError(
            f"cochain is not supercyclic (violated at {bad})")
    return ScalarCochain3(w.basis, {(i, j, k): q for (i, j, k), q
                                    in w.coords.items() if j <= k})


def unhat(f: ScalarCochain3) -> Cochain2Dual:
    """Inverse of :func:`hat`; always lands on a supercyclic cochain."""
    p = f.basis.parities
    coords = {}
    for key, q in f.coords.items():
        for a, b, c in set(itertools.permutations(key)):
            if a <= b:
                coords[(a, b, c)] = canon3(p, a, b, c)[1] * q
    return Cochain2Dual(f.basis, coords)


# ---------------------------------------------------------------------------
# cocycle spaces by exact linear solving
# ---------------------------------------------------------------------------

def _cocycle_space(basis: GradedBasis, coords: list[Triple], canon, rows,
                   expand) -> list:
    """Solve a cocycle space in free coordinates.

    ``rows`` yields symbolic identities, each taken to free coordinates
    by :func:`_free_row` with ``canon``.  The rows are reduced sparsely
    and each kernel vector becomes a cochain through the constructor
    ``expand``.
    """
    index = {key: t for t, key in enumerate(coords)}
    p = basis.parities
    red = RowReducer(len(coords))
    for terms in rows:
        row = _free_row(p, terms, canon)
        if row:
            red.add_sparse({index[key]: q for key, q in row.items()})
    return [expand(basis, {coords[t]: q for t, q in enumerate(kv) if q != 0})
            for kv in red.kernel()]


def _cocycle2_identities(g: LieSuperalgebra):
    for i, j, k in itertools.combinations_with_replacement(range(g.dim), 3):
        yield from _cocycle2_rows(g, i, j, k)


def _supercyclic_identities(basis: GradedBasis):
    p = basis.parities
    for i, j, k in itertools.product(range(basis.dim), repeat=3):
        yield [((i, j, k), frac(1)),
               ((j, k, i), -frac(sgn(p[i] * (p[j] + p[k]))))]


def z3_basis(g: LieSuperalgebra) -> list[ScalarCochain3]:
    """Basis of the even scalar 3-cocycles, solved in free coordinates."""
    rows = (_closed3_row(g, *quad)
            for quad in _sorted_tuples4(g.basis.parities))
    return _cocycle_space(g.basis, free_coords_alt3(g.basis), canon3, rows,
                          ScalarCochain3)


def z2_supercyclic_basis(g: LieSuperalgebra) -> list[Cochain2Dual]:
    """Basis of the supercyclic even dual-valued 2-cocycles, solved
    independently of :func:`z3_basis` in its own coordinate space."""
    rows = itertools.chain(_supercyclic_identities(g.basis),
                           _cocycle2_identities(g))
    return _cocycle_space(g.basis, free_coords_cochain2dual(g.basis),
                          canon_cochain2dual, rows, Cochain2Dual)


def z2_basis(g: LieSuperalgebra) -> list[Cochain2Dual]:
    """Basis of all even dual-valued 2-cocycles (supercyclic or not)."""
    return _cocycle_space(g.basis, free_coords_cochain2dual(g.basis),
                          canon_cochain2dual, _cocycle2_identities(g),
                          Cochain2Dual)


def _coboundary_columns(g: LieSuperalgebra):
    """(alt-3 coordinates, scalar 2-coordinates, columns): column s is
    delta(e_ab) for the unit 2-cochain at the s-th free coordinate (a, b),
    as a sparse {alt-3 coordinate index: value}, read off the bracket
    table."""
    p = g.basis.parities
    table = g.table
    coords = free_coords_alt3(g.basis)
    keys2 = free_coords_scalar2(g.basis)
    index2 = {key: s for s, key in enumerate(keys2)}
    cols: list[dict[int, Fraction]] = [{} for _ in keys2]
    for t, (i, j, k) in enumerate(coords):
        # delta(phi)(e_i, e_j, e_k) = -phi([e_i, e_j], e_k)
        #   + (-1)^{|j||k|} phi([e_i, e_k], e_j)
        #   - (-1)^{|i|(|j|+|k|)} phi([e_j, e_k], e_i)
        for a, b, c, sign in ((i, j, k, -1), (i, k, j, sgn(p[j] * p[k])),
                              (j, k, i, -sgn(p[i] * (p[j] + p[k])))):
            for m, q in table[a][b]:
                key, s = canon_scalar2(p, m, c)
                if key is not None:
                    col = cols[index2[key]]
                    col[t] = col.get(t, ZERO) + sign * s * q
    return coords, keys2, [{t: q for t, q in col.items() if q != 0}
                           for col in cols]


def b3_basis(g: LieSuperalgebra) -> list[ScalarCochain3]:
    """Basis of the coboundaries delta(phi), in canonical form."""
    coords, _, cols = _coboundary_columns(g)
    red = RowReducer(len(coords))
    for col in cols:
        red.add_sparse(col)
    return [ScalarCochain3(g.basis, {coords[t]: q
                                     for t, q in red.rows[piv].items()})
            for piv in red.pivots]


def h3_dim(g: LieSuperalgebra) -> int:
    return len(z3_basis(g)) - len(b3_basis(g))


def cohomologous(g: LieSuperalgebra, f1: ScalarCochain3,
                 f2: ScalarCochain3) -> ScalarCochain2 | None:
    """A scalar 2-cochain phi with f2 = f1 - delta(phi), or None."""
    if not is_closed3(g, f1) or not is_closed3(g, f2):
        raise PreconditionError("both cochains must be closed")
    coords, keys2, cols = _coboundary_columns(g)
    diff = sub3(f1, f2).coords
    target = tuple(diff.get(key, ZERO) for key in coords)
    if not cols:
        return zero_scalar2(g) if vec_is_zero(target) else None
    A = tuple(tuple(col.get(t, ZERO) for col in cols)
              for t in range(len(coords)))
    sol = solve(A, target)
    if sol.particular is None:
        return None
    return ScalarCochain2(
        g.basis, {keys2[t]: q for t, q in enumerate(sol.particular) if q != 0})
