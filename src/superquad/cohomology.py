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

Cochains are stored, and cocycle spaces solved, in free coordinates,
the index tuples ``superalgebra.is_free`` accepts (docs/conventions.md,
"Free coordinates").  A cochain keeps only its nonzero values keyed by
free coordinate, so evenness and super-antisymmetry hold by construction
and only the keys are checked; any other entry is read through its
canonical representative and sign, ``superalgebra.canon``.

Each cochain map (the 2-cocycle identity, supercyclicity and the scalar
coboundary d, which is delta on 2-cochains and closedness on 3-cochains)
is written once, as a scatter: built once per algebra, when it indexes
the bracket table, it adds each nonzero product of a cochain's values
(and the table) to the accumulator of every tuple whose identity has it
as a term.  The verifiers read a map's failing tuples, ``delta_scalar2``
applies d once, and the solvers reduce a map's images of the unit
cochains in one sparse ``RowReducer``: Z^2 and Z^3 read its kernel, B^3
the RREF of d's images of the unit 2-cochains and ``cohomologous`` a
reduction of [d(e_ab) | f1 - f2], d taking all unit cochains in one
pass.  Z^2_sc is unhat(Z^3), as hat is a bijection: its own solve of d
on 3-cochains, with the columns ordered so that the kernel basis unhats
to the one a direct kernel solve returns.

d f is super-alternating, so it is held at sorted tuples only: every
other ordering is a signed copy of its sorted one.  The sorted ordering
is also the lexicographically smallest, so the first violated 4-tuple in
lexicographic order over all n^4 is always sorted: ``closed3_violation``
returns the same witness the full loop would.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .errors import DimensionMismatch, PreconditionError
from .linalg import Record, RowReducer, ZERO, integer_rows, lincomb
from .superalgebra import (GradedBasis, LieSuperalgebra, cyclic_sums, failing,
                           is_free, require_axioms, sgn, store_free_entries)

Triple = tuple[int, int, int]


# ---------------------------------------------------------------------------
# free coordinates of the one Koszul rule ``superalgebra.canon``
# ---------------------------------------------------------------------------

def _free_coords(basis: GradedBasis, arity: int, head: int) -> list:
    """The index tuples that the alternating :func:`canon` maps to
    themselves, in lexicographic order: those of an ascending head of
    ``head`` indices, then any tail, that are :func:`is_free`."""
    n = basis.dim
    tails = list(itertools.product(range(n), repeat=arity - head))
    keys = (h + t for h in itertools.combinations_with_replacement(
        range(n), head) for t in tails)
    return [key for key in keys if is_free(basis.parities, key, head)]


def free_coords_alt3(basis: GradedBasis) -> list[Triple]:
    """Free coordinates of even super-alternating trilinear tensors."""
    return _free_coords(basis, 3, 3)


def free_coords_cochain2dual(basis: GradedBasis) -> list[Triple]:
    """Free coordinates (i, j, k) of even 2-cochains with values in the
    dual space, antisymmetric in (i, j)."""
    return _free_coords(basis, 3, head=2)


def free_coords_scalar2(basis: GradedBasis) -> list[tuple[int, int]]:
    return _free_coords(basis, 2, 2)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

class Cochain2Dual(Record):
    """Even bilinear map g x g -> g*, super-antisymmetric in its two
    arguments, stored as its nonzero values on the free coordinates:
    coords[(i, j, k)] = w(e_i, e_j)(e_k) with i <= j."""

    basis: GradedBasis
    coords: dict

    def __post_init__(self):
        store_free_entries(self, 3, head=2)


class ScalarCochain3(Record):
    """Even super-alternating trilinear scalar form, stored as its nonzero
    values on the ascending free triples (see :func:`free_coords_alt3`)."""

    basis: GradedBasis
    coords: dict

    def __post_init__(self):
        store_free_entries(self, 3)


class ScalarCochain2(Record):
    """Even super-antisymmetric bilinear scalar form, stored as its nonzero
    values phi(e_i, e_j) on the free pairs i <= j."""

    basis: GradedBasis
    coords: dict

    def __post_init__(self):
        store_free_entries(self, 2)


# free coordinates in and out -------------------------------------------------

def expand_alt3(basis: GradedBasis, coords: dict[Triple, Fraction]) -> ScalarCochain3:
    return ScalarCochain3(basis, coords)


def collect_alt3(f: ScalarCochain3 | Cochain2Dual | ScalarCochain2) -> dict:
    """A copy of a cochain's {free coordinate: value} map."""
    return dict(f.coords)


collect_cochain2dual = collect_scalar2 = collect_alt3


def zero_cochain2(g: LieSuperalgebra | GradedBasis) -> Cochain2Dual:
    return Cochain2Dual(g if isinstance(g, GradedBasis) else g.basis, {})


def zero_scalar2(g: LieSuperalgebra | GradedBasis) -> ScalarCochain2:
    return ScalarCochain2(g if isinstance(g, GradedBasis) else g.basis, {})


# arithmetic ------------------------------------------------------------------

def _combined(a, b, s: int) -> dict:
    if a.basis != b.basis:
        raise DimensionMismatch("cochains live on different bases")
    return lincomb(((1, a.coords.items()), (s, b.coords.items())))


def sub3(a: ScalarCochain3, b: ScalarCochain3) -> ScalarCochain3:
    return ScalarCochain3(a.basis, _combined(a, b, -1))


# ---------------------------------------------------------------------------
# the cochain maps, each one scatter over its input's nonzeros
# ---------------------------------------------------------------------------

def _into(g: LieSuperalgebra) -> tuple[int, list]:
    """(d, into): into[m] lists (a, b, c) for each nonzero coefficient c
    of e_m in [e_a, e_b], the table scaled to ints by d."""
    d, table = g.integer_table
    into: list = [[] for _ in range(g.dim)]
    for (a, b), e in table.items():
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


def _cocycle2_defects(g: LieSuperalgebra):
    """The 2-cocycle map: free coordinates of w -> (d, acc), acc the
    :func:`cyclic_sums` of X(a, b, c) = w(e_a, [e_b, e_c])
    + pi(e_a)(w(e_b, e_c)), where pi(e_a)F at e_l is
    -(-1)^{|a||F|} F([e_a, e_l]): the identity times (-1)^{|i||k|} and d,
    the scales of the table and of w."""
    p = g.basis.parities
    d, into = _into(g)
    pairs = [[(b, c, q) for b, c, q in terms if b <= c] for terms in into]

    def defects(coords: dict) -> tuple[int, dict]:
        dw, lookup = _dual_lookup(p, coords)
        return d * dw, cyclic_sums(p, itertools.chain(
            ((a, b, c, q, col.items()) for (a, m), col in lookup.items()
             for b, c, q in pairs[m]),
            ((a, b, c, -sgn(p[a] * (p[b] + p[c])) * v, ((l, q),))
             for (b, c), col in lookup.items() if b <= c
             for t, v in col.items() for a, l, q in into[t])))
    return defects


def _supercyclic_defects(p, coords: dict) -> tuple[int, dict]:
    """The supercyclicity map: free coordinates of w -> (d, acc), acc[(i,
    j, k)] = d (w(e_i, e_j)(e_k) - (-1)^{|i|(|j|+|k|)} w(e_j, e_k)(e_i))
    at every ordered triple: w(e_a, e_b)(e_c) is a term at (a, b, c) and
    at (c, a, b)."""
    d, lookup = _dual_lookup(p, coords)
    acc: dict = {}
    for (a, b), col in lookup.items():
        odd = (p[a] + p[b]) % 2
        for c, v in col.items():
            acc[a, b, c] = acc.get((a, b, c), 0) + v
            acc[c, a, b] = acc.get((c, a, b), 0) + (v if odd and p[c] else -v)
    return d, acc


def _coboundary(g: LieSuperalgebra):
    """The coboundary d on even scalar k-cochains, in one scatter over a
    list of them (a whole cochain, or the unit cochains of a solve), each
    as (free coordinate, value) pairs -> (d, [acc]), acc the nonzero
    values of d f at sorted (k+1)-tuples, times the scales d of the table
    and of the list (docs/conventions.md, "One rule for the coboundary").
    With mu(c, l) = (-1)^{l + |c| P(l)}, the sign of moving e_c to the
    front over l entries of parity sum P(l), each free coordinate gives
    f(e_m, rest) = mu(m, s) f(key) for each entry m = key[s], and a term
    r f(e_m, rest), r the coefficient of e_m in [e_a, e_b] with a <= b,
    goes to the sorted tuple that a and b insert into, once per insertion
    (a after ka entries of rest, b after kb >= ka), with sign
    (-1)^{k+1} mu(a, ka) mu(b, kb)."""
    p = g.basis.parities
    d, into = _into(g)
    into = [[(a, b, r, p[a], p[b]) for a, b, r in terms if a <= b]
            for terms in into]

    def apply(cochains: list) -> tuple[int, list[dict]]:
        df, rows = integer_rows(cochains)
        accs: list = [{} for _ in rows]
        for key, q, acc in ((key, q, acc) for row, acc in zip(rows, accs)
                            for key, q in row):
            for s, m in enumerate(key):
                terms = into[m]
                if not terms or s and key[s - 1] == m:
                    continue  # no [e_a, e_b] holds e_m, or done at s - 1
                rest = key[:s] + key[s + 1:]
                P = [0]
                for x in rest:
                    P.append(P[-1] + p[x])
                e0 = len(key) + 1 + s + p[m] * P[s]  # (-1)^{k+1} mu(m, s)
                for a, b, r, pa, pb in terms:
                    t = tuple(sorted((a, b, *rest)))
                    v = 0
                    for ka in range(bisect_left(rest, a),
                                    bisect_right(rest, a) + 1):
                        for kb in range(max(ka, bisect_left(rest, b)),
                                        bisect_right(rest, b) + 1):
                            v += -1 if (ka + kb + pa * P[ka] + pb * P[kb]
                                        + e0) % 2 else 1
                    acc[t] = acc.get(t, 0) + v * r * q
        return d * df, [{t: v for t, v in acc.items() if v} for acc in accs]
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
    return next(iter(failing(_supercyclic_defects(p, w.coords)[1])), None)


def is_supercyclic(w: Cochain2Dual) -> bool:
    return supercyclic_violation(w) is None


def closed3_violation(g: LieSuperalgebra, f: ScalarCochain3):
    """First basis 4-tuple, in lexicographic order, where d f is nonzero,
    or None.  Only sorted 4-tuples are evaluated (see the module notes)."""
    if f.basis != g.basis:
        raise DimensionMismatch("cochain basis differs from the algebra")
    return next(iter(failing(_coboundary(g)([f.coords.items()])[1][0])), None)


def is_closed3(g: LieSuperalgebra, f: ScalarCochain3) -> bool:
    return closed3_violation(g, f) is None


def delta_scalar2(g: LieSuperalgebra, phi: ScalarCochain2) -> ScalarCochain3:
    """(d phi)(x,y,z) = -phi([x,y],z) + (-1)^{|y||z|} phi([x,z],y)
    - (-1)^{|x|(|y|+|z|)} phi([y,z],x), one application of the
    coboundary map."""
    if phi.basis != g.basis:
        raise DimensionMismatch("cochain basis differs from the algebra")
    d, (acc,) = _coboundary(g)([phi.coords.items()])
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
    """Inverse of :func:`hat`; always lands on a supercyclic cochain."""
    return Cochain2Dual(f.basis, _unhat(f.basis.parities, f.coords.items()))


def _unhat(p, items) -> dict:
    """f(i, j, k) at (i, j, k), and by transpositions times
    -(-1)^{|j||k|} at (i, k, j) and (-1)^{|i|} at (j, k, i)."""
    coords = {}
    for (i, j, k), q in items:
        coords[i, j, k] = q
        coords[i, k, j] = q if p[j] & p[k] else -q
        coords[j, k, i] = -q if p[i] else q
    return coords


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
    return RowReducer(len(columns), map(rows.get, sorted(rows)))


def _kernel(basis: GradedBasis, coords: list, cols: list, make) -> list:
    """The kernel, as cochains by ``make``, of the cochain map whose
    images of the unit cochains at the free ``coords`` are ``cols``."""
    return [make(basis, {coords[t]: q for t, q in kv.items()})
            for kv in _reduced_columns(cols).sparse_kernel()]


def z3_basis(g: LieSuperalgebra) -> list[ScalarCochain3]:
    """Basis of the even scalar 3-cocycles, solved in free coordinates."""
    coords = free_coords_alt3(g.basis)
    _, cols = _coboundary(g)([((key, 1),) for key in coords])
    return _kernel(g.basis, coords, cols, ScalarCochain3)


def z2_supercyclic_basis(g: LieSuperalgebra) -> list[Cochain2Dual]:
    """Basis of the supercyclic even dual-valued 2-cocycles, canonical:
    unhat of Z^3 solved over the alt-3 coordinates (i, j, k) by (j, k, i),
    each kernel vector signed (-1)^{|i|} at its free coordinate, its last
    nonzero (docs/conventions.md, "Cochains")."""
    p = g.basis.parities
    coords = sorted(free_coords_alt3(g.basis), key=lambda t: (*t[1:], t[0]))
    _, cols = _coboundary(g)([((key, 1),) for key in coords])
    out = []
    for kv in _reduced_columns(cols).sparse_kernel():
        s = -1 if p[coords[max(kv)][0]] else 1
        out.append(Cochain2Dual(g.basis, _unhat(p, (
            (coords[t], s * q) for t, q in kv.items()))))
    return out


def z2_basis(g: LieSuperalgebra) -> list[Cochain2Dual]:
    """Basis of all even dual-valued 2-cocycles (supercyclic or not)."""
    coords, fn = free_coords_cochain2dual(g.basis), _cocycle2_defects(g)
    return _kernel(g.basis, coords, [
        {(t, l): x for t, v in fn({key: 1})[1].items() for l, x in v.items()}
        for key in coords], Cochain2Dual)


def b3_basis(g: LieSuperalgebra) -> list[ScalarCochain3]:
    """Basis of the coboundaries delta(phi), in canonical form: the RREF
    of the coboundary map's images of the unit 2-cochains."""
    keys = free_coords_scalar2(g.basis)
    _, cols = _coboundary(g)([((key, 1),) for key in keys])
    coords = sorted(set().union(*cols))  # the 3-tuples some image holds
    index = {key: t for t, key in enumerate(coords)}
    red = RowReducer(len(coords), ({index[key]: q for key, q in v.items()}
                                   for v in cols))
    return [ScalarCochain3(g.basis, {coords[t]: q for t, q in row.items()})
            for _, row in sorted(red.rows.items())]


def h3_dim(g: LieSuperalgebra) -> int:
    """dim Z^3 - dim B^3; AxiomError if g fails Jacobi (B^3 outside Z^3)."""
    require_axioms(g)
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
        if delta([f.coords.items()])[1][0]:
            raise PreconditionError("both cochains must be closed")
    keys2 = free_coords_scalar2(g.basis)
    d, cols = delta([((key, 1),) for key in keys2])  # d: the table's scale
    target = {t: d * q for t, q in sub3(f1, f2).coords.items()}
    red = _reduced_columns(cols + [target])
    n = len(keys2)
    if n in red.int_rows:
        return None
    return ScalarCochain2(g.basis, {keys2[piv]: row.get(n, ZERO)
                                    for piv, row in red.rows.items()})
