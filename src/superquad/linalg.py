"""Exact linear algebra over the rationals.

Vectors and matrices are immutable tuples with ``Fraction`` entries and
every operation is exact; nothing in this package ever rounds.  There is
one eliminator, the sparse fraction-free :class:`RowReducer`: primitive
int rows by pivot, each an RREF row times its pivot entry, read out as
``Fraction``s.  The batch solvers read one reduction each: ``rref``, ``rank``
reduce A, ``kernel`` reads the free columns, ``solve`` reduces [A | b]
(a pivot in the last column means no solution) and ``inverse`` reduces
[A | I].  All of them reject a ragged matrix.  Hot callers avoid
re-solving: ``forms.EvenForm`` pairs through a sparse Gram row table,
``superalgebra.Subspace`` tests membership by reducing against its RREF
rows by pivot, and the decomposition factors each spanning set once and
reads coordinates off that factorization.
"""

from __future__ import annotations

import math
from itertools import repeat
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, PreconditionError, UndecidedError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def frac(x) -> Fraction:
    """Coerce ints, `"p/q"` strings and Fractions to ``Fraction``."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def integer_rows(rows: Iterable) -> tuple[int, list]:
    """(d, rows times d as ints) for rows of (key, rational value) pairs,
    d their least common denominator (docs/conventions.md, "Verifiers")."""
    rows = [list(row) for row in rows]
    d = math.lcm(*(q.denominator for row in rows for _, q in row))
    return d, [[(k, q.numerator * (d // q.denominator)) for k, q in row]
               for row in rows]


def vec(entries: Iterable) -> Vec:
    return tuple(frac(e) for e in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    m = tuple(vec(r) for r in rows)
    if m:
        w = len(m[0])
        if any(len(r) != w for r in m):
            raise DimensionMismatch("ragged matrix rows")
    return m


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def zeros(rows: int, cols: int) -> Mat:
    return tuple((ZERO,) * cols for _ in range(rows))


def identity(n: int) -> Mat:
    return tuple(unit_vec(n, i) for i in range(n))


def vec_sub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y, strict=True))


def vec_scale(q, x: Vec) -> Vec:
    q = frac(q)
    return tuple(q * a for a in x)


def vec_is_zero(x: Vec) -> bool:
    return all(a == 0 for a in x)


def dot(x: Vec, y: Vec) -> Fraction:
    """Sum of the products x_i y_i, skipping those with a zero factor."""
    return sum((a * b for a, b in zip(x, y, strict=True) if a and b), ZERO)


def mat_vec(A: Mat, x: Vec) -> Vec:
    return tuple(dot(row, x) for row in A)


def mat_mul(A: Mat, B: Mat) -> Mat:
    if A and B and len(A[0]) != len(B):
        raise DimensionMismatch("inner dimensions differ")
    Bt = transpose(B)
    return tuple(tuple(dot(row, col) for col in Bt) for row in A)


def transpose(A: Mat) -> Mat:
    if not A:
        return ()
    return tuple(zip(*A))


def trace(A: Mat) -> Fraction:
    return sum((A[i][i] for i in range(len(A))), ZERO)


def _combine(a: int, r: dict[int, int], terms) -> dict[int, int]:
    """a r - sum of b row over the (b, row) in terms, on int dict rows,
    without the entries that cancel; r itself is updated when a is 1."""
    if a != 1:
        r = {c: a * q for c, q in r.items()}
    for b, row in terms:
        for c, q in row.items():
            v = r.get(c, 0) - b * q
            if v:
                r[c] = v
            else:
                del r[c]
    return r


def _primitive(r: dict[int, int], p: int) -> dict[int, int]:
    """r divided by its content, signed to be positive at column p."""
    g = math.gcd(*r.values())
    g = -g if r[p] < 0 else g
    return r if g == 1 else {c: q // g for c, q in r.items()}


class RowReducer:
    """Incremental sparse fraction-free row reduction.

    Each row is a primitive dict {column: int} of its nonzero entries, in
    ``int_rows``, a map from the row's pivot to the row.  A row is
    positive at its pivot, its first nonzero column, and 0 at every other
    pivot, so each row over its pivot entry is a row of the reduced row
    echelon form of everything added (``rows``): rank, RREF and
    :meth:`kernel` are the canonical ones a batch ``rref`` gives.  A new
    row is scaled to ints once and reduced by cross-multiplying against
    the pivots it touches; :meth:`reduce` divides by the tracked scale,
    so its residual is exact.  ``add`` divides out the content and then
    eliminates the new pivot from the rows a column index finds nonzero
    there.  Rows passed as ``echelon``, each 0 at the others' first
    nonzero columns, are stored as they are.
    """

    def __init__(self, ncols: int, echelon: Iterable = ()):
        self.ncols = ncols
        self.int_rows: dict[int, dict[int, int]] = {}
        self._at: dict[int, set[int]] = {}  # column -> pivots nonzero there
        for row in echelon:
            self._store(self._residual(row)[1])

    @property
    def rank(self) -> int:
        return len(self.int_rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self.int_rows))

    @property
    def rows(self) -> dict[int, dict[int, Fraction]]:
        """The RREF rows by pivot: each int row over its pivot entry."""
        return {p: {c: Fraction(q, r[p]) for c, q in r.items()}
                for p, r in self.int_rows.items()}

    def _residual(self, row) -> tuple[int, dict[int, int]]:
        """(f, r): what is left of a row, dense or a {column: value} dict,
        after eliminating the pivot columns, times f > 0, as ints."""
        sparse = isinstance(row, dict)
        if (any(c not in range(self.ncols) for c in row) if sparse
                else len(row) != self.ncols):
            raise DimensionMismatch(f"row does not fit {self.ncols} columns")
        r = {c: q for c, q in (row.items() if sparse else enumerate(row)) if q}
        f = math.lcm(*[q.denominator for q in r.values()])
        r = {c: q.numerator * (f // q.denominator) for c, q in r.items()}
        rows = self.int_rows
        hits = [(r[c], rows[c], c) for c in r if c in rows]
        if not hits:
            return f, r
        m = math.lcm(*[row[c] // math.gcd(q, row[c]) for q, row, c in hits])
        return f * m, _combine(m, r, [(q * m // row[c], row)
                                      for q, row, c in hits])

    def reduce(self, row: Sequence[Fraction] | dict[int, Fraction]
               ) -> dict[int, Fraction]:
        """What is left of a row, dense or a {column: value} dict, after
        eliminating the pivot columns: empty iff the row is in the span."""
        f, r = self._residual(row)
        return {c: Fraction(q, f) for c, q in r.items()}

    def _store(self, r: dict[int, int]) -> tuple[int, dict[int, int]]:
        """Keep the nonzero reduced row r, primitive, under its pivot."""
        p = min(r)
        self.int_rows[p] = r = _primitive(r, p)
        for c in r:
            self._at.setdefault(c, set()).add(p)
        return p, r

    def add(self, row: Sequence[Fraction] | dict[int, Fraction]) -> bool:
        """Add a constraint row, dense or a {column: value} dict; True if
        it increased the rank."""
        _, r = self._residual(row)
        if not r:
            return False
        hits = self._at.pop(min(r), ())
        p, r = self._store(r)
        a, rows, at = r[p], self.int_rows, self._at
        for k in hits:
            b = rows[k][p]
            g = math.gcd(a, b)
            rows[k] = new = _primitive(_combine(a // g, rows[k],
                                                [(b // g, r)]), k)
            for c in r:
                if c in new:
                    at[c].add(k)
                elif c != p:
                    at[c].discard(k)
        return True

    # an alias of add, kept because bench/tracer.py wraps this name
    add_sparse = add

    def basis(self) -> Mat:
        """The dense RREF rows, in pivot order."""
        return tuple(tuple(map(r.get, range(self.ncols), repeat(ZERO)))
                     for _, r in sorted(self.rows.items()))

    def kernel(self, n: int | None = None) -> list[Vec]:
        """Kernel on the first n columns (default: all), one vector per
        free column; for rows [A | b] and n the width of A, ker A."""
        n = self.ncols if n is None else n
        return [tuple(map(x.get, range(n), repeat(ZERO)))
                for x in self.sparse_kernel(n)]

    def sparse_kernel(self, n: int) -> list[dict[int, Fraction]]:
        """The vectors of :meth:`kernel` as {column: value} dicts of their
        nonzero entries, read off the int rows."""
        out = {f: {f: ONE} for f in range(n) if f not in self.int_rows}
        for p, r in self.int_rows.items():
            for c, q in r.items():
                if c != p and c < n:
                    out[c][p] = Fraction(-q, r[p])
        return list(out.values())


def _width(A: Mat) -> int:
    """Number of columns of A; a ragged A is rejected, so a solver never
    reads a short row as zero-padded or a long one as augmented."""
    n = len(A[0]) if A else 0
    for i, row in enumerate(A):
        if len(row) != n:
            raise DimensionMismatch(
                f"matrix row {i} has {len(row)} entries, expected {n}")
    return n


def _reduced(rows: Iterable, ncols: int) -> RowReducer:
    red = RowReducer(ncols)
    for row in rows:
        red.add(row)
    return red


def rref(A: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form, padded with zero rows to A's shape, and
    the pivot columns."""
    n = _width(A)
    red = _reduced(A, n)
    return red.basis() + zeros(len(A) - red.rank, n), red.pivots


def rank(A: Mat) -> int:
    return _reduced(A, _width(A)).rank


def kernel(A: Mat) -> list[Vec]:
    """Basis of the right null space {x : A x = 0}."""
    return _reduced(A, _width(A)).kernel()


@dataclass(frozen=True)
class SolutionSet:
    """Full solution of a linear system A x = b.

    ``particular`` is present iff the system is consistent;
    ``kernel_basis`` always spans ker(A).
    """

    particular: Vec | None
    kernel_basis: tuple[Vec, ...]


def solve(A: Mat, b: Vec) -> SolutionSet:
    """Reduce [A | b]: a pivot in the last column means no solution;
    the free columns of A give the kernel."""
    if len(A) != len(b):
        raise DimensionMismatch(
            f"matrix has {len(A)} rows but right-hand side has {len(b)}")
    n = _width(A)
    red = _reduced(((*row, rhs) for row, rhs in zip(A, b)), n + 1)
    rows = red.rows
    return SolutionSet(None if n in rows else tuple(
        rows[p].get(n, ZERO) if p in rows else ZERO for p in range(n)),
        tuple(red.kernel(n)))


def inverse(A: Mat) -> Mat:
    """Inverse of a square matrix, read off the reduction of [A | I]."""
    n = len(A)
    if any(len(r) != n for r in A):
        raise DimensionMismatch("only square matrices can be inverted")
    red = _reduced(({**{c: q for c, q in enumerate(r) if q}, n + i: ONE}
                    for i, r in enumerate(A)), 2 * n)
    if red.pivots != tuple(range(n)):
        raise DimensionMismatch("matrix is singular")
    return tuple(tuple(r.get(n + c, ZERO) for c in range(n))
                 for _, r in sorted(red.rows.items()))


def charpoly(A: Mat) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial of A by Faddeev-LeVerrier.

    Returns coefficients (c0, c1, ..., cn) of
    ``c0 λ^n + c1 λ^(n-1) + ... + cn`` with c0 = 1.
    """
    n = len(A)
    coeffs: list[Fraction] = [ONE]
    M = identity(n)
    for k in range(1, n + 1):
        M = mat_mul(A, M)
        c = -trace(M) / k
        coeffs.append(c)
        if k < n:
            M = tuple(
                tuple(M[i][j] + (c if i == j else ZERO) for j in range(n))
                for i in range(n))
    return tuple(coeffs)


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = ZERO
    for c in coeffs:
        acc = acc * x + c
    return acc


FACTOR_CAP = 10 ** 5


def factorize(m: int) -> dict[int, int]:
    """{p: e} for the nonzero integer m, by trial division up to
    FACTOR_CAP; a cofactor past FACTOR_CAP^2 raises UndecidedError unless
    it is the square of a prime."""
    if not m:
        raise PreconditionError("0 has no prime factorization")
    m, out, p = abs(m), {}, 2
    while p * p <= m and p <= FACTOR_CAP:
        while m % p == 0:
            m, out[p] = m // p, out.get(p, 0) + 1
        p += 1 if p == 2 else 2
    # no prime up to the cap divides a cofactor m past cap^2, so if
    # m = r^2 with r <= cap^2, r is prime
    r = math.isqrt(m)
    if m > FACTOR_CAP ** 2 and (r * r != m or r > FACTOR_CAP ** 2):
        raise UndecidedError(f"undecided: cannot factor {m} past {FACTOR_CAP}")
    if m > FACTOR_CAP ** 2:
        out[r] = 2
    elif m > 1:
        out[m] = 1
    return out


def _divisors(m: int) -> list[int]:
    """The positive divisors of m != 0, from its factorization."""
    out = [1]
    for p, e in factorize(m).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return out


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of the polynomial, sorted ascending."""
    cs = list(coeffs)
    while cs and cs[0] == 0:
        cs.pop(0)
    if not cs:
        raise DimensionMismatch("zero polynomial has every root")
    roots: set[Fraction] = set()
    # strip zero roots
    while cs[-1] == 0 and len(cs) > 1:
        roots.add(ZERO)
        cs.pop()
    if len(cs) > 1:
        _, (ints,) = integer_rows([enumerate(cs)])
        lead, const = ints[0][1], ints[-1][1]
        for p in _divisors(const):
            for q in _divisors(lead):
                if math.gcd(p, q) != 1:
                    continue
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if poly_eval(cs, cand) == 0:
                        roots.add(cand)
    return sorted(roots)


def diagonalize_symmetric(G: Mat) -> tuple[Mat, Vec]:
    """Congruence-diagonalize a symmetric matrix over the rationals.

    Returns (P, d) with P G P^T = diag(d); the rows of P are the
    coordinates of the new basis in the old one.  Requires char != 2,
    which is automatic here.
    """
    n = len(G)
    M = [list(r) for r in G]
    P = [list(unit_vec(n, i)) for i in range(n)]

    def add_row_col(dst: int, src: int, f: Fraction):
        M[dst] = [a + f * b for a, b in zip(M[dst], M[src])]
        for i in range(n):
            M[i][dst] += f * M[i][src]
        P[dst] = [a + f * b for a, b in zip(P[dst], P[src])]

    def swap(i: int, j: int):
        M[i], M[j] = M[j], M[i]
        for r in M:
            r[i], r[j] = r[j], r[i]
        P[i], P[j] = P[j], P[i]

    for k in range(n):
        if M[k][k] == 0:
            l = next((i for i in range(k + 1, n) if M[i][i] != 0), None)
            if l is not None:
                swap(k, l)
            else:
                l = next((i for i in range(k + 1, n) if M[k][i] != 0), None)
                if l is None:
                    continue  # row is zero in the remaining block
                add_row_col(k, l, ONE)
        inv = ONE / M[k][k]
        for i in range(k + 1, n):
            if M[i][k] != 0:
                add_row_col(i, k, -M[i][k] * inv)
    return tuple(tuple(r) for r in P), tuple(M[i][i] for i in range(n))
