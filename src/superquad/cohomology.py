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

The linear solves for cocycle spaces run in free coordinates: index
triples sorted ascending, where an index may repeat only when it is odd
(super-alternation is symmetric on odd pairs, and triple repeats are
killed by evenness).  The dense tensors are kept as the redundant oracle
and the enumeration is unit-tested against them.  Z^2, Z^2_sc and Z^3 are
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
from .linalg import (Mat, RowReducer, Vec, ZERO, frac, mat, solve,
                     vec, vec_is_zero)
from .superalgebra import EVEN, GradedBasis, LieSuperalgebra, sgn

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


def free_coords_alt3(basis: GradedBasis) -> list[Triple]:
    """Free coordinates of even super-alternating trilinear tensors."""
    n = basis.dim
    p = basis.parities
    out = []
    for i in range(n):
        for j in range(i, n):
            if i == j and p[i] == EVEN:
                continue
            for k in range(j, n):
                if j == k and p[j] == EVEN:
                    continue
                if (p[i] + p[j] + p[k]) % 2 == 0:
                    out.append((i, j, k))
    return out


def free_coords_cochain2dual(basis: GradedBasis) -> list[Triple]:
    """Free coordinates (i, j, k) of even 2-cochains with values in the
    dual space, antisymmetric in (i, j)."""
    n = basis.dim
    p = basis.parities
    out = []
    for i in range(n):
        for j in range(i, n):
            if i == j and p[i] == EVEN:
                continue
            for k in range(n):
                if (p[i] + p[j] + p[k]) % 2 == 0:
                    out.append((i, j, k))
    return out


def free_coords_scalar2(basis: GradedBasis) -> list[tuple[int, int]]:
    n = basis.dim
    p = basis.parities
    out = []
    for i in range(n):
        for j in range(i, n):
            if i == j and p[i] == EVEN:
                continue
            if p[i] == p[j]:
                out.append((i, j))
    return out


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def _check_tensor3(basis: GradedBasis, t) -> tuple:
    n = basis.dim
    if len(t) != n or any(len(r) != n for r in t) or any(
            len(v) != n for r in t for v in r):
        raise DimensionMismatch("tensor must be dim^3")
    return tuple(tuple(vec(v) for v in r) for r in t)


@dataclass(frozen=True)
class Cochain2Dual:
    """Even bilinear map g x g -> g*, stored as w[i][j][k] = w(e_i, e_j)(e_k),
    super-antisymmetric in (i, j)."""

    basis: GradedBasis
    w: tuple

    def __post_init__(self):
        w = _check_tensor3(self.basis, self.w)
        object.__setattr__(self, "w", w)
        p = self.basis.parities
        n = self.basis.dim
        for i in range(n):
            for j in range(n):
                s = -sgn(p[i] * p[j])
                for k in range(n):
                    if (p[i] + p[j] + p[k]) % 2 and w[i][j][k] != 0:
                        raise CochainError("cochain is not even",
                                           entry=(i, j, k))
                    if w[i][j][k] != s * w[j][i][k]:
                        raise CochainError(
                            "cochain is not super-antisymmetric in (i, j)",
                            entry=(i, j, k))


@dataclass(frozen=True)
class ScalarCochain3:
    """Even super-alternating trilinear scalar form f[i][j][k]."""

    basis: GradedBasis
    f: tuple

    def __post_init__(self):
        f = _check_tensor3(self.basis, self.f)
        object.__setattr__(self, "f", f)
        p = self.basis.parities
        n = self.basis.dim
        for i in range(n):
            for j in range(n):
                s1 = -sgn(p[i] * p[j])
                for k in range(n):
                    if (p[i] + p[j] + p[k]) % 2 and f[i][j][k] != 0:
                        raise CochainError("cochain is not even",
                                           entry=(i, j, k))
                    if f[i][j][k] != s1 * f[j][i][k]:
                        raise CochainError(
                            "cochain is not super-antisymmetric in (i, j)",
                            entry=(i, j, k))
                    if f[i][j][k] != -sgn(p[j] * p[k]) * f[i][k][j]:
                        raise CochainError(
                            "cochain is not super-antisymmetric in (j, k)",
                            entry=(i, j, k))


@dataclass(frozen=True)
class ScalarCochain2:
    """Even super-antisymmetric bilinear scalar form p[i][j]."""

    basis: GradedBasis
    p: Mat

    def __post_init__(self):
        n = self.basis.dim
        if len(self.p) != n or any(len(r) != n for r in self.p):
            raise DimensionMismatch("matrix must be dim x dim")
        object.__setattr__(self, "p", mat(self.p))
        par = self.basis.parities
        for i in range(n):
            for j in range(n):
                if par[i] != par[j] and self.p[i][j] != 0:
                    raise CochainError("cochain is not even", entry=(i, j))
                if self.p[i][j] != -sgn(par[i] * par[j]) * self.p[j][i]:
                    raise CochainError(
                        "cochain is not super-antisymmetric", entry=(i, j))


# construction from free coordinates -----------------------------------------

def _zero3(n: int):
    return [[[ZERO] * n for _ in range(n)] for _ in range(n)]


def expand_alt3(basis: GradedBasis, coords: dict[Triple, Fraction]) -> ScalarCochain3:
    """Dense tensor from values on the free coordinates."""
    n = basis.dim
    p = basis.parities
    t = _zero3(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                key, s = canon3(p, i, j, k)
                if key is not None and key in coords:
                    t[i][j][k] = s * frac(coords[key])
    return ScalarCochain3(basis, tuple(tuple(tuple(v) for v in r) for r in t))


def collect_alt3(f: ScalarCochain3) -> dict[Triple, Fraction]:
    return {key: f.f[key[0]][key[1]][key[2]]
            for key in free_coords_alt3(f.basis)
            if f.f[key[0]][key[1]][key[2]] != 0}


def expand_cochain2dual(basis: GradedBasis,
                        coords: dict[Triple, Fraction]) -> Cochain2Dual:
    n = basis.dim
    p = basis.parities
    t = _zero3(n)
    for i in range(n):
        for j in range(n):
            pair, s = canon2_first(p, i, j)
            if pair is None:
                continue
            for k in range(n):
                key = (pair[0], pair[1], k)
                if key in coords and (p[i] + p[j] + p[k]) % 2 == 0:
                    t[i][j][k] = s * frac(coords[key])
    return Cochain2Dual(basis, tuple(tuple(tuple(v) for v in r) for r in t))


def collect_cochain2dual(w: Cochain2Dual) -> dict[Triple, Fraction]:
    return {key: w.w[key[0]][key[1]][key[2]]
            for key in free_coords_cochain2dual(w.basis)
            if w.w[key[0]][key[1]][key[2]] != 0}


def expand_scalar2(basis: GradedBasis,
                   coords: dict[tuple[int, int], Fraction]) -> ScalarCochain2:
    n = basis.dim
    p = basis.parities
    m = [[ZERO] * n for _ in range(n)]
    for (i, j), q in coords.items():
        q = frac(q)
        m[i][j] = q
        if i != j:
            m[j][i] = -sgn(p[i] * p[j]) * q
    return ScalarCochain2(basis, tuple(tuple(r) for r in m))


def collect_scalar2(phi: ScalarCochain2) -> dict[tuple[int, int], Fraction]:
    return {key: phi.p[key[0]][key[1]] for key in free_coords_scalar2(phi.basis)
            if phi.p[key[0]][key[1]] != 0}


def zero_cochain2(g: LieSuperalgebra | GradedBasis) -> Cochain2Dual:
    basis = g if isinstance(g, GradedBasis) else g.basis
    return expand_cochain2dual(basis, {})


def zero_scalar2(g: LieSuperalgebra | GradedBasis) -> ScalarCochain2:
    basis = g if isinstance(g, GradedBasis) else g.basis
    return expand_scalar2(basis, {})


# tensor arithmetic -----------------------------------------------------------

def add3(a: ScalarCochain3, b: ScalarCochain3) -> ScalarCochain3:
    n = a.basis.dim
    return ScalarCochain3(a.basis, tuple(
        tuple(tuple(a.f[i][j][k] + b.f[i][j][k] for k in range(n))
              for j in range(n)) for i in range(n)))


def sub3(a: ScalarCochain3, b: ScalarCochain3) -> ScalarCochain3:
    n = a.basis.dim
    return ScalarCochain3(a.basis, tuple(
        tuple(tuple(a.f[i][j][k] - b.f[i][j][k] for k in range(n))
              for j in range(n)) for i in range(n)))


def is_zero3(a: ScalarCochain3) -> bool:
    return all(q == 0 for r in a.f for v in r for q in v)


def add_scalar2(a: ScalarCochain2, b: ScalarCochain2) -> ScalarCochain2:
    n = a.basis.dim
    return ScalarCochain2(a.basis, tuple(
        tuple(a.p[i][j] + b.p[i][j] for j in range(n)) for i in range(n)))


# ---------------------------------------------------------------------------
# the four multilinear identities, from one symbolic source each
# ---------------------------------------------------------------------------

def _cocycle2_rows(g: LieSuperalgebra, i: int, j: int, k: int):
    """Symbolic 2-cocycle identity at the basis triple (i, j, k).

    Yields (l, terms) per output coordinate l, where terms is a list of
    ((a, b, c), coeff) contributions meaning coeff * w[a][b][c].
    """
    p = g.basis.parities
    n = g.dim
    table = g._table
    x, y, z = p[i], p[j], p[k]
    s_yzx = sgn(x * (y + z))
    s_zxy = sgn(z * (x + y))
    rows: list[list[tuple[Triple, Fraction]]] = [[] for _ in range(n)]
    # w(e_i, [e_j, e_k]) and cyclic rotations
    for (a, bc, s) in ((i, (j, k), 1), (j, (k, i), s_yzx), (k, (i, j), s_zxy)):
        for m, q in table[bc[0]][bc[1]]:
            coeff = s * q
            for l in range(n):
                rows[l].append(((a, m, l), coeff))
    # pi(e_i)(w(e_j, e_k)) and cyclic rotations:
    # (pi(e_a)F)(e_l) = -(-1)^{p_a p_F} sum_t c[a][l][t] F_t
    for (a, bc, s) in ((i, (j, k), 1), (j, (k, i), s_yzx), (k, (i, j), s_zxy)):
        pf = (p[bc[0]] + p[bc[1]]) % 2
        outer = -s * sgn(p[a] * pf)
        for l in range(n):
            for t, q in table[a][l]:
                rows[l].append(((bc[0], bc[1], t), outer * q))
    return rows


def cocycle2_defect(g: LieSuperalgebra, w: Cochain2Dual,
                    i: int, j: int, k: int) -> Vec:
    rows = _cocycle2_rows(g, i, j, k)
    out = []
    for terms in rows:
        acc = ZERO
        for (a, b, c), coeff in terms:
            val = w.w[a][b][c]
            if val != 0:
                acc += coeff * val
        out.append(acc)
    return tuple(out)


def cocycle2_violation(g: LieSuperalgebra, w: Cochain2Dual):
    n = g.dim
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                if not vec_is_zero(cocycle2_defect(g, w, i, j, k)):
                    return (i, j, k)
    return None


def is_cocycle2(g: LieSuperalgebra, w: Cochain2Dual) -> bool:
    if w.basis != g.basis:
        raise DimensionMismatch("cochain basis differs from the algebra")
    return cocycle2_violation(g, w) is None


def supercyclic_defect(w: Cochain2Dual, i: int, j: int, k: int) -> Fraction:
    p = w.basis.parities
    return w.w[i][j][k] - sgn(p[i] * (p[j] + p[k])) * w.w[j][k][i]


def supercyclic_violation(w: Cochain2Dual):
    n = w.basis.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if supercyclic_defect(w, i, j, k) != 0:
                    return (i, j, k)
    return None


def is_supercyclic(w: Cochain2Dual) -> bool:
    return supercyclic_violation(w) is None


def _closed3_row(g: LieSuperalgebra, i: int, j: int, k: int, l: int):
    """Symbolic closedness identity at the basis 4-tuple: a list of
    ((a, b, c), coeff) contributions meaning coeff * f[a][b][c]."""
    p = g.basis.parities
    table = g._table
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
        val = f.f[a][b][c]
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
    - (-1)^{|x|(|y|+|z|)} phi([y,z],x), extended trilinearly."""
    n = g.dim
    p = g.basis.parities
    table = g._table
    t = _zero3(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = ZERO
                for m, q in table[i][j]:
                    acc -= q * phi.p[m][k]
                s = sgn(p[j] * p[k])
                for m, q in table[i][k]:
                    acc += s * q * phi.p[m][j]
                s = sgn(p[i] * (p[j] + p[k]))
                for m, q in table[j][k]:
                    acc -= s * q * phi.p[m][i]
                t[i][j][k] = acc
    return ScalarCochain3(g.basis, tuple(tuple(tuple(v) for v in r) for r in t))


# ---------------------------------------------------------------------------
# the transported-tensor correspondence
# ---------------------------------------------------------------------------

def hat(w: Cochain2Dual) -> ScalarCochain3:
    """Reinterpret a supercyclic dual-valued 2-cochain as the scalar
    trilinear tensor (x, y, z) -> w(x, y)(z).  The coordinates are
    literally the same; supercyclicity is what makes the result fully
    super-alternating."""
    bad = supercyclic_violation(w)
    if bad is not None:
        raise PreconditionError(
            f"cochain is not supercyclic (violated at {bad})")
    return ScalarCochain3(w.basis, w.w)


def unhat(f: ScalarCochain3) -> Cochain2Dual:
    """Inverse of :func:`hat`; always lands on a supercyclic cochain."""
    return Cochain2Dual(f.basis, f.f)


# ---------------------------------------------------------------------------
# cocycle spaces by exact linear solving
# ---------------------------------------------------------------------------

def _cocycle_space(basis: GradedBasis, coords: list[Triple], canon, rows,
                   expand) -> list:
    """Solve a cocycle space in free coordinates.

    ``rows`` yields symbolic identities, lists of ((a, b, c), coeff)
    terms meaning coeff * entry (a, b, c); ``canon(parities, a, b, c)``
    maps an entry to (free coordinate, sign), or to (None, 0) when the
    entry is forced to vanish.  The rows are reduced sparsely and each kernel
    vector is expanded into a cochain by ``expand``.
    """
    index = {key: t for t, key in enumerate(coords)}
    p = basis.parities
    red = RowReducer(len(coords))
    for terms in rows:
        row: dict[int, Fraction] = {}
        for (a, b, c), coeff in terms:
            key, s = canon(p, a, b, c)
            if key is not None:
                t = index[key]
                row[t] = row.get(t, ZERO) + s * coeff
        row = {t: q for t, q in row.items() if q != 0}
        if row:
            red.add_sparse(row)
    return [expand(basis, {coords[t]: q for t, q in enumerate(kv) if q != 0})
            for kv in red.kernel()]


def _canon_cochain2dual(parities, a: int, b: int, c: int):
    """Free coordinate and sign of the entry w[a][b][c] of an even
    dual-valued 2-cochain, or (None, 0) when it vanishes."""
    pair, s = canon2_first(parities, a, b)
    if pair is None or (parities[a] + parities[b] + parities[c]) % 2:
        return None, 0
    return (pair[0], pair[1], c), s


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
                          expand_alt3)


def z2_supercyclic_basis(g: LieSuperalgebra) -> list[Cochain2Dual]:
    """Basis of the supercyclic even dual-valued 2-cocycles, solved
    independently of :func:`z3_basis` in its own coordinate space."""
    rows = itertools.chain(_supercyclic_identities(g.basis),
                           _cocycle2_identities(g))
    return _cocycle_space(g.basis, free_coords_cochain2dual(g.basis),
                          _canon_cochain2dual, rows, expand_cochain2dual)


def z2_basis(g: LieSuperalgebra) -> list[Cochain2Dual]:
    """Basis of all even dual-valued 2-cocycles (supercyclic or not)."""
    return _cocycle_space(g.basis, free_coords_cochain2dual(g.basis),
                          _canon_cochain2dual, _cocycle2_identities(g),
                          expand_cochain2dual)


def _alt3_coord_vector(f: ScalarCochain3, coords: list[Triple]) -> Vec:
    return tuple(f.f[i][j][k] for (i, j, k) in coords)


def _coboundary_columns(g: LieSuperalgebra):
    """(alt-3 coordinates, scalar 2-coordinates, columns): column s is
    delta(e_ab) for the unit 2-cochain at the s-th free coordinate (a, b),
    as a sparse {alt-3 coordinate index: value}, read off the bracket
    table with the formula of :func:`delta_scalar2`."""
    p = g.basis.parities
    table = g._table
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
                if p[m] != p[c]:
                    continue
                key, s = canon2_first(p, m, c)
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
    return [expand_alt3(g.basis, {coords[t]: q
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
    target = _alt3_coord_vector(sub3(f1, f2), coords)
    if not cols:
        return zero_scalar2(g) if vec_is_zero(target) else None
    A = tuple(tuple(col.get(t, ZERO) for col in cols)
              for t in range(len(coords)))
    sol = solve(A, target)
    if sol.particular is None:
        return None
    return expand_scalar2(
        g.basis, {keys2[t]: q for t, q in enumerate(sol.particular) if q != 0})
