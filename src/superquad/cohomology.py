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
index tuples that :func:`canon` maps to themselves (for scalar 3-cochains,
triples sorted ascending where an index may repeat only when it is odd;
super-alternation is symmetric on odd pairs, and triple repeats are
killed by evenness).  A cochain keeps only its nonzero values
keyed by free coordinate, so evenness and super-antisymmetry hold by
construction and only the keys are checked; any other entry is read
through its canonical representative and sign.

Each cochain map (the 2-cocycle identity, supercyclicity and the scalar
coboundary d, which is delta on 2-cochains and closedness on 3-cochains)
is written once, as a scatter: built once per algebra, when it indexes
the bracket table, it adds each nonzero product of a cochain's values
(and the table) to the accumulator of every tuple whose identity has it
as a term.  The verifiers read a map's failing tuples, ``delta_scalar2``
applies d once, and the solvers reduce a map's images of the unit
cochains in one sparse ``RowReducer``: Z^2 and Z^3 read its kernel, B^3
the RREF of d's images of the unit 2-cochains and ``cohomologous`` a
reduction of [d(e_ab) | f1 - f2].  Z^2_sc is unhat(Z^3), as hat is a
bijection, read out in the basis that a direct kernel solve returns.

d f is super-alternating, so it is held at sorted tuples only: every
other ordering is a signed copy of its sorted one.  The sorted ordering
is also the lexicographically smallest, so the first violated 4-tuple in
lexicographic order over all n^4 is always sorted: ``closed3_violation``
returns the same witness the full loop would.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import CochainError, DimensionMismatch, PreconditionError
from .linalg import RowReducer, ZERO, frac, integer_rows
from .superalgebra import (EVEN, ODD, GradedBasis, LieSuperalgebra,
                           cyclic_sums, failing, sgn)

Triple = tuple[int, int, int]


# ---------------------------------------------------------------------------
# free coordinates: one Koszul rule for every even tensor
# ---------------------------------------------------------------------------

def canon(parities, key: tuple, head: int | None = None,
          symmetric: bool = False):
    """Free coordinate and sign of the entry at ``key`` of an even tensor
    that is super-alternating (supersymmetric if ``symmetric``) in its
    first ``head`` indices, default all of them.

    The head is sorted ascending; each swap of x and y contributes
    (-1)^{|x||y|}, negated for an alternating tensor.  Returns (None, 0)
    when the entry vanishes: odd parity sum, or a repeated head index of
    the vanishing parity (even if alternating, odd if symmetric).
    """
    if sum(map(parities.__getitem__, key)) % 2:
        return None, 0
    front = key[:head]
    idx = tuple(sorted(front))
    sign = 1
    if idx != front:  # a sort swaps each inverted pair once
        for s, x in enumerate(front):
            for y in front[s + 1:]:
                # the swap's sign is -1 iff |x||y| is 1 if symmetric, else 0
                if x > y and parities[x] * parities[y] == symmetric:
                    sign = -sign
    vanishing = ODD if symmetric else EVEN
    prev = None
    for x in idx:
        if x == prev and parities[x] == vanishing:
            return None, 0
        prev = x
    return idx + key[len(idx):], sign


def _free_coords(basis: GradedBasis, arity: int,
                 head: int | None = None) -> list:
    """The index tuples that are their own canonical representative under
    the alternating :func:`canon`, in lexicographic order: an ascending
    head of ``head`` indices (default all), then any tail."""
    n = basis.dim
    head = arity if head is None else head
    tails = list(itertools.product(range(n), repeat=arity - head))
    keys = (h + t for h in itertools.combinations_with_replacement(
        range(n), head) for t in tails)
    return [key for key in keys if canon(basis.parities, key, head)[0] == key]


def free_coords_alt3(basis: GradedBasis) -> list[Triple]:
    """Free coordinates of even super-alternating trilinear tensors."""
    return _free_coords(basis, 3)


def free_coords_cochain2dual(basis: GradedBasis) -> list[Triple]:
    """Free coordinates (i, j, k) of even 2-cochains with values in the
    dual space, antisymmetric in (i, j)."""
    return _free_coords(basis, 3, head=2)


def free_coords_scalar2(basis: GradedBasis) -> list[tuple[int, int]]:
    return _free_coords(basis, 2)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def store_free_entries(obj, arity: int, head: int | None = None,
                       symmetric: bool = False, error=CochainError) -> None:
    """Keep the nonzero values of ``obj.coords``, sorted by key.
    Evenness and the (anti)symmetry live in the key set, so only the keys
    are checked: each must be its own canonical representative under
    :func:`canon` with ``head`` and ``symmetric``, or ``error`` is raised
    with the key as its witness."""
    inside = range(obj.basis.dim).__contains__
    p = obj.basis.parities
    what = type(obj).__name__
    out = {}
    for key, q in obj.coords.items():
        if (not isinstance(key, tuple) or len(key) != arity
                or not all(map(inside, key))):
            raise DimensionMismatch(f"{what} index {key!r} outside the basis")
        if canon(p, key, head, symmetric)[0] != key:
            raise error(f"{what} entry {key!r} is not a free coordinate",
                        witness=key)
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
        store_free_entries(self, 3, head=2)


@dataclass(frozen=True)
class ScalarCochain3:
    """Even super-alternating trilinear scalar form, stored as its nonzero
    values on the ascending free triples (see :func:`free_coords_alt3`)."""

    basis: GradedBasis
    coords: dict

    def __post_init__(self):
        store_free_entries(self, 3)


@dataclass(frozen=True)
class ScalarCochain2:
    """Even super-antisymmetric bilinear scalar form, stored as its nonzero
    values phi(e_i, e_j) on the free pairs i <= j."""

    basis: GradedBasis
    coords: dict

    def __post_init__(self):
        store_free_entries(self, 2)


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
# the cochain maps, each one scatter over its input's nonzeros
# ---------------------------------------------------------------------------

def _into(g: LieSuperalgebra) -> tuple[int, list]:
    """(d, into): into[m] lists (a, b, c) for each nonzero coefficient c
    of e_m in [e_a, e_b], the table scaled to ints by d."""
    d, entries = g.integer_table
    into: list = [[] for _ in range(g.dim)]
    for a, b, e in entries:
        for m, q in e:
            into[m].append((a, b, q))
    return d, into


def _dual_lookup(p, coords: dict) -> tuple[int, dict]:
    """(d, lookup): w(e_a, e_b) as {c: value} for every ordered pair (a, b)
    where it is nonzero, expanded once from the free coordinates of w
    scaled to ints by d."""
    d, (items,) = integer_rows([coords.items()])
    out: dict = {}
    for (a, b, c), q in items:
        out.setdefault((a, b), {})[c] = q
        if a != b:
            out.setdefault((b, a), {})[c] = -sgn(p[a] * p[b]) * q
    return d, out


def _cocycle2_defects(g: LieSuperalgebra, ordered: bool = False):
    """The 2-cocycle map: free coordinates of w -> (d, acc), acc the
    :func:`cyclic_sums` of X(a, b, c) = w(e_a, [e_b, e_c])
    + pi(e_a)(w(e_b, e_c)), where pi(e_a)F at e_l is
    -(-1)^{|a||F|} F([e_a, e_l]): the identity times (-1)^{|i||k|} and d,
    the scales of the table and of w."""
    p = g.basis.parities
    d, into = _into(g)

    def defects(coords: dict) -> tuple[int, dict]:
        dw, lookup = _dual_lookup(p, coords)
        return d * dw, cyclic_sums(p, itertools.chain(
            ((a, b, c, q, col.items()) for (a, m), col in lookup.items()
             for b, c, q in into[m]),
            ((a, b, c, -sgn(p[a] * (p[b] + p[c])) * v, ((l, q),))
             for (b, c), col in lookup.items() for t, v in col.items()
             for a, l, q in into[t])), ordered)
    return defects


def _supercyclic_defects(p):
    """The supercyclicity map: free coordinates of w -> (d, acc), acc[(i,
    j, k)] = d (w(e_i, e_j)(e_k) - (-1)^{|i|(|j|+|k|)} w(e_j, e_k)(e_i))
    at every ordered triple: w(e_a, e_b)(e_c) is a term at (a, b, c) and
    at (c, a, b)."""
    def defects(coords: dict) -> tuple[int, dict]:
        d, lookup = _dual_lookup(p, coords)
        acc: dict = {}
        for (a, b), col in lookup.items():
            odd = (p[a] + p[b]) % 2
            for c, v in col.items():
                acc[a, b, c] = acc.get((a, b, c), 0) + v
                acc[c, a, b] = acc.get((c, a, b), 0) + (
                    v if odd and p[c] else -v)
        return d, acc
    return defects


def _coboundary(g: LieSuperalgebra):
    """The coboundary d on even scalar k-cochains: free coordinates of f
    -> (d, acc), acc the nonzero values of d f at sorted (k+1)-tuples,
    times the scales d of the table and of f (docs/conventions.md, "One
    rule for the coboundary").  With mu(c, l) = (-1)^{l + |c| P(l)}, the
    sign of moving e_c to the front over l entries of parity sum P(l),
    each free coordinate gives f(e_m, rest) = mu(m, s) f(key) for each
    entry m = key[s], and a term r f(e_m, rest), r the coefficient of e_m
    in [e_a, e_b] with a <= b, goes to the sorted tuple that a and b
    insert into, once per insertion (a after ka entries of rest, b after
    kb >= ka), with sign (-1)^{k+1} mu(a, ka) mu(b, kb)."""
    p = g.basis.parities
    d, into = _into(g)
    into = [[(a, b, r, p[a], p[b]) for a, b, r in terms if a <= b]
            for terms in into]

    def apply(coords: dict) -> tuple[int, dict]:
        df, (items,) = integer_rows([coords.items()])
        acc: dict = {}
        for key, q in items:
            for s, m in enumerate(key):
                if s and key[s - 1] == m:
                    continue  # the same f(e_m, rest) as at s - 1
                rest = key[:s] + key[s + 1:]
                P = [0]
                for x in rest:
                    P.append(P[-1] + p[x])
                e0 = len(key) + 1 + s + p[m] * P[s]  # (-1)^{k+1} mu(m, s)
                for a, b, r, pa, pb in into[m]:
                    t = tuple(sorted((a, b, *rest)))
                    v = 0
                    for ka in range(bisect_left(rest, a),
                                    bisect_right(rest, a) + 1):
                        for kb in range(max(ka, bisect_left(rest, b)),
                                        bisect_right(rest, b) + 1):
                            v += -1 if (ka + kb + pa * P[ka] + pb * P[kb]
                                        + e0) % 2 else 1
                    acc[t] = acc.get(t, 0) + v * r * q
        return d * df, {t: v for t, v in acc.items() if v}
    return apply


def cocycle2_violation(g: LieSuperalgebra, w: Cochain2Dual):
    """First sorted basis triple where the 2-cocycle identity fails."""
    if w.basis != g.basis:
        raise DimensionMismatch("cochain basis differs from the algebra")
    return next(iter(failing(_cocycle2_defects(g)(w.coords)[1])), None)


def is_cocycle2(g: LieSuperalgebra, w: Cochain2Dual) -> bool:
    return cocycle2_violation(g, w) is None


def supercyclic_violation(w: Cochain2Dual):
    """First basis triple, in lexicographic order, where supercyclicity
    fails, or None."""
    p = w.basis.parities
    return next(iter(failing(_supercyclic_defects(p)(w.coords)[1])), None)


def is_supercyclic(w: Cochain2Dual) -> bool:
    return supercyclic_violation(w) is None


def closed3_violation(g: LieSuperalgebra, f: ScalarCochain3):
    """First basis 4-tuple, in lexicographic order, where d f is nonzero,
    or None.  Only sorted 4-tuples are evaluated (see the module notes)."""
    if f.basis != g.basis:
        raise DimensionMismatch("cochain basis differs from the algebra")
    return next(iter(failing(_coboundary(g)(f.coords)[1])), None)


def is_closed3(g: LieSuperalgebra, f: ScalarCochain3) -> bool:
    return closed3_violation(g, f) is None


def delta_scalar2(g: LieSuperalgebra, phi: ScalarCochain2) -> ScalarCochain3:
    """(d phi)(x,y,z) = -phi([x,y],z) + (-1)^{|y||z|} phi([x,z],y)
    - (-1)^{|x|(|y|+|z|)} phi([y,z],x), one application of the
    coboundary map."""
    if phi.basis != g.basis:
        raise DimensionMismatch("cochain basis differs from the algebra")
    d, acc = _coboundary(g)(phi.coords)
    return ScalarCochain3(g.basis, {t: Fraction(v, d) for t, v in acc.items()})


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
    """Inverse of :func:`hat`; always lands on a supercyclic cochain.
    The value at i <= j <= k is w(e_a, e_b)(e_c) at each of its three
    orders with a <= b, signed by :func:`canon`."""
    p = f.basis.parities
    coords = {}
    for (i, j, k), q in f.coords.items():
        for key in ((i, j, k), (i, k, j), (j, k, i)):
            coords[key] = q if canon(p, key)[1] == 1 else -q
    return Cochain2Dual(f.basis, coords)


# ---------------------------------------------------------------------------
# cocycle spaces by exact linear solving
# ---------------------------------------------------------------------------

def _reduced_columns(columns: list[dict]) -> RowReducer:
    """One RowReducer of the matrix whose s-th column is the {row key:
    value} map columns[s], each row key's entries transposed into a sparse
    row {s: value}."""
    rows: dict = {}
    for s, col in enumerate(columns):
        for key, v in col.items():
            if v:
                rows.setdefault(key, {})[s] = v
    red = RowReducer(len(columns))
    for key in sorted(rows):
        red.add(rows[key])
    return red


def _rref(vectors, coords: list) -> list[dict]:
    """The RREF rows, by ascending pivot, of the span of the {key: value}
    ``vectors`` in the column order ``coords``."""
    index = {key: t for t, key in enumerate(coords)}
    red = RowReducer(len(coords))
    for v in vectors:
        red.add({index[key]: q for key, q in v.items()})
    return [{coords[t]: q for t, q in row.items()}
            for _, row in sorted(red.rows.items())]


def _kernel(basis: GradedBasis, coords: list, fn, make) -> list:
    """The kernel of the cochain map ``fn`` in free coordinates: its
    images of the unit cochains (a {t: value} vector at a key read as the
    entries at (key, t)) are the columns of :func:`_reduced_columns`, and
    ``make`` turns each kernel vector into a cochain."""
    def column(key) -> dict:
        return {(k, t): x for k, v in fn({key: 1})[1].items() for t, x in (
            v.items() if isinstance(v, dict) else ((None, v),))}
    red = _reduced_columns([column(key) for key in coords])
    return [make(basis, {coords[t]: q for t, q in kv.items()})
            for kv in red.sparse_kernel(red.ncols)]


def z3_basis(g: LieSuperalgebra) -> list[ScalarCochain3]:
    """Basis of the even scalar 3-cocycles, solved in free coordinates."""
    return _kernel(g.basis, free_coords_alt3(g.basis),
                   _coboundary(g), ScalarCochain3)


def z2_supercyclic_basis(g: LieSuperalgebra) -> list[Cochain2Dual]:
    """Basis of the supercyclic even dual-valued 2-cocycles, unhat of
    :func:`z3_basis` in the canonical kernel basis: the RREF over the
    reversed columns, read by descending pivot (docs/conventions.md)."""
    vectors = [unhat(f).coords for f in z3_basis(g)]
    rows = _rref(vectors, sorted(set().union(*vectors), reverse=True))
    return [Cochain2Dual(g.basis, row) for row in reversed(rows)]


def z2_basis(g: LieSuperalgebra) -> list[Cochain2Dual]:
    """Basis of all even dual-valued 2-cocycles (supercyclic or not)."""
    return _kernel(g.basis, free_coords_cochain2dual(g.basis),
                   _cocycle2_defects(g), Cochain2Dual)


def b3_basis(g: LieSuperalgebra) -> list[ScalarCochain3]:
    """Basis of the coboundaries delta(phi), in canonical form: the RREF
    of the coboundary map's images of the unit 2-cochains."""
    delta = _coboundary(g)
    images = [delta({key: 1})[1] for key in free_coords_scalar2(g.basis)]
    coords = sorted(set().union(*images))  # the columns that can be nonzero
    return [ScalarCochain3(g.basis, row) for row in _rref(images, coords)]


def h3_dim(g: LieSuperalgebra) -> int:
    return len(z3_basis(g)) - len(b3_basis(g))


def cohomologous(g: LieSuperalgebra, f1: ScalarCochain3,
                 f2: ScalarCochain3) -> ScalarCochain2 | None:
    """A scalar 2-cochain phi with f2 = f1 - delta(phi), or None: one
    reduction of [delta(e_ab) for each unit e_ab | f1 - f2], where a pivot
    in the last column means no solution."""
    delta = _coboundary(g)
    for f in (f1, f2):
        if f.basis != g.basis:
            raise DimensionMismatch("cochain basis differs from the algebra")
        if any(delta(f.coords)[1].values()):
            raise PreconditionError("both cochains must be closed")
    keys2 = free_coords_scalar2(g.basis)
    d, _ = delta({})  # the table's scale, which each unit image carries
    target = {t: d * q for t, q in sub3(f1, f2).coords.items()}
    red = _reduced_columns([delta({key: 1})[1] for key in keys2] + [target])
    n = len(keys2)
    if n in red.int_rows:
        return None
    return ScalarCochain2(g.basis, {keys2[piv]: row.get(n, ZERO)
                                    for piv, row in red.rows.items()})
