"""Exact linear algebra over the rationals.

Vectors and matrices are immutable tuples with ``Fraction`` entries and
every operation is exact; nothing in this package ever rounds.  The
batch solvers (``rref``, ``kernel``, ``solve``, ``inverse``) are dense
Gaussian elimination, adequate at the desk scale this library targets
(dimensions up to a few dozen).  :class:`RowReducer`, which the
cocycle-space solves feed with thousands of short rows, is sparse: dict
rows in a map from pivot column to row, kept in reduced row echelon
form.  Hot callers avoid re-solving: ``forms.EvenForm`` pairs through a
sparse Gram row table, ``superalgebra.Subspace`` tests membership by
reducing against its RREF rows by pivot, and the decomposition's induced
spaces invert their pivot block once and project by a matrix-vector
product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch

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


def vec_add(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y, strict=True))


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


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [inv * a for a in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rref(A: Mat) -> tuple[Mat, tuple[int, ...]]:
    rows, pivots = _rref([list(r) for r in A])
    return tuple(tuple(r) for r in rows), tuple(pivots)


def rank(A: Mat) -> int:
    return len(rref(A)[1])


def row_basis(A: Mat) -> list[Vec]:
    """Canonical (RREF) basis of the row space."""
    R, pivots = rref(A)
    return [R[i] for i in range(len(pivots))]


def _kernel_from_rref(R: Sequence[Sequence[Fraction]], pivots: Sequence[int],
                      ncols: int) -> list[Vec]:
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        x = [ZERO] * ncols
        x[f] = ONE
        for t, p in enumerate(pivots):
            x[p] = -R[t][f]
        basis.append(tuple(x))
    return basis


def kernel(A: Mat) -> list[Vec]:
    """Basis of the right null space {x : A x = 0}."""
    if not A:
        return []
    R, pivots = rref(A)
    return _kernel_from_rref(R, pivots, len(A[0]))


@dataclass(frozen=True)
class SolutionSet:
    """Full solution of a linear system A x = b.

    ``particular`` is present iff the system is consistent;
    ``kernel_basis`` always spans ker(A).
    """

    particular: Vec | None
    kernel_basis: tuple[Vec, ...]


def solve(A: Mat, b: Vec) -> SolutionSet:
    if len(A) != len(b):
        raise DimensionMismatch(
            f"matrix has {len(A)} rows but right-hand side has {len(b)}")
    n = len(A[0]) if A else 0
    aug = [list(row) + [rhs] for row, rhs in zip(A, b)]
    if not aug:
        return SolutionSet(particular=(), kernel_basis=())
    R, pivots = _rref(aug)
    piv_A = [p for p in pivots if p < n]
    kern = tuple(_kernel_from_rref(R, piv_A, n))
    if len(piv_A) != len(pivots):  # pivot in the b column: inconsistent
        return SolutionSet(particular=None, kernel_basis=kern)
    x = [ZERO] * n
    for t, p in enumerate(piv_A):
        x[p] = R[t][n]
    return SolutionSet(particular=tuple(x), kernel_basis=kern)


def solve_unique(A: Mat, b: Vec) -> Vec:
    """Solution of a system known to be uniquely solvable."""
    s = solve(A, b)
    if s.particular is None or s.kernel_basis:
        raise DimensionMismatch("system is not uniquely solvable")
    return s.particular


def inverse(A: Mat) -> Mat:
    n = len(A)
    if any(len(r) != n for r in A):
        raise DimensionMismatch("only square matrices can be inverted")
    aug = [list(r) + list(unit_vec(n, i)) for i, r in enumerate(A)]
    R, pivots = _rref(aug)
    if list(pivots) != list(range(n)):
        raise DimensionMismatch("matrix is singular")
    return tuple(tuple(R[i][n:]) for i in range(n))


def det(A: Mat) -> Fraction:
    n = len(A)
    rows = [list(r) for r in A]
    sign = 1
    result = ONE
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if p is None:
            return ZERO
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            sign = -sign
        result *= rows[c][c]
        inv = ONE / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return result * sign


def coords_in(vectors: Sequence[Vec], v: Vec) -> Vec | None:
    """Coordinates of v in the span of ``vectors``, or None."""
    if not vectors:
        return () if vec_is_zero(v) else None
    A = transpose(mat(vectors))
    s = solve(A, v)
    return s.particular


def _sub_scaled(r: dict[int, Fraction], f: Fraction,
                row: dict[int, Fraction]) -> None:
    """r -= f * row on dict rows, dropping the entries that cancel."""
    for c, q in row.items():
        v = r.get(c, ZERO) - f * q
        if v:
            r[c] = v
        else:
            del r[c]


class RowReducer:
    """Incremental sparse row reduction.

    Each reduced row is a dict {column: value} of its nonzero entries,
    held in ``rows``, a map from the row's pivot column to the row.  A
    row has entry 1 at its pivot and 0 at every other pivot column, and
    its pivot is its first nonzero column, so the rows always form the
    reduced row echelon form of everything added: rank, RREF and
    :meth:`kernel` are the same canonical ones a batch ``rref`` gives.
    A new row is reduced against the pivots it touches, normalized, and
    then eliminated from the earlier rows that are nonzero at its pivot.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows))

    def add(self, row: Sequence[Fraction] | dict[int, Fraction]) -> bool:
        """Add a constraint row, dense or a {column: value} dict; True if
        it increased the rank."""
        if isinstance(row, dict):
            if any(c not in range(self.ncols) for c in row):
                raise DimensionMismatch(
                    f"sparse row has a column outside range({self.ncols})")
            r = {c: q for c, q in row.items() if q != 0}
        else:
            if len(row) != self.ncols:
                raise DimensionMismatch(
                    f"row has {len(row)} entries, expected {self.ncols}")
            r = {c: q for c, q in enumerate(row) if q != 0}
        rows = self.rows
        for c in [c for c in r if c in rows]:
            _sub_scaled(r, r[c], rows[c])
        if not r:
            return False
        p = min(r)
        inv = ONE / r[p]
        r = {c: inv * q for c, q in r.items()}
        for other in rows.values():
            if p in other:
                _sub_scaled(other, other[p], r)
        rows[p] = r
        return True

    def add_sparse(self, entries: dict[int, Fraction]) -> bool:
        """Add a constraint row given as {column: value}."""
        return self.add(entries)

    def kernel(self) -> list[Vec]:
        """Kernel of the system whose rows were added."""
        free = [c for c in range(self.ncols) if c not in self.rows]
        basis = {f: [ZERO] * self.ncols for f in free}
        for f, x in basis.items():
            x[f] = ONE
        for p, row in self.rows.items():
            for c, q in row.items():
                if c != p:
                    basis[c][p] = -q
        return [tuple(basis[f]) for f in free]


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


def _divisors(m: int) -> list[int]:
    m = abs(m)
    small, large = [], []
    i = 1
    while i * i <= m:
        if m % i == 0:
            small.append(i)
            if i != m // i:
                large.append(m // i)
        i += 1
    return small + large[::-1]


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
        lcm = 1
        for c in cs:
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
        ints = [int(c * lcm) for c in cs]
        lead, const = ints[0], ints[-1]
        for p in _divisors(const):
            for q in _divisors(lead):
                if math.gcd(p, q) != 1:
                    continue
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if poly_eval(cs, cand) == 0:
                        roots.add(cand)
    return sorted(roots)


def sqrt_fraction(q: Fraction) -> Fraction | None:
    """Exact square root of q if q is a perfect rational square."""
    if q < 0:
        return None
    sn = math.isqrt(q.numerator)
    sd = math.isqrt(q.denominator)
    if sn * sn == q.numerator and sd * sd == q.denominator:
        return Fraction(sn, sd)
    return None


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
