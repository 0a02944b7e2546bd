"""Exact linear algebra over the rationals.

Every operation is exact; nothing in this package ever rounds.  Inside
the package a vector is the {k: c} dict of its nonzero ``Fraction``
entries; dense tuples, and matrices as tuples of them, appear only at
the public edge.  Three helpers own that choice: :func:`nonzeros` reads
either form as a dict, :func:`dense_vec` reads a dict out densely and
:func:`lincomb` sums c v over sparse rows.  There is one eliminator,
the sparse fraction-free :class:`RowReducer`: primitive int rows by
pivot, each an RREF row times its pivot entry, read out as ``Fraction``s;
its constructor pins one-entry rows as unit pivots first.  The solvers
read one reduction each: ``rref``, ``rank`` reduce A, ``kernel`` reads
the free columns and ``solve`` reduces [A | b] (a pivot in the last
column means no solution); all of them reject a ragged matrix.
:class:`Coordinates` factors a spanning set once and reads coordinates
off that factorization, modulo the span of a given reducer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import attrgetter

from .errors import DimensionMismatch, PreconditionError, UndecidedError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)
_set = object.__setattr__  # sets a field past Record.__setattr__


class Record:
    """An immutable value whose fields are its class's annotations, in
    order (docs/conventions.md, "Value classes")."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        key = attrgetter(*cls._fields)  # one field's value, not a 1-tuple
        cls._key = key if len(cls._fields) > 1 else staticmethod(
            lambda v: (key(v),))
        cls.__init__ = cls.__init__  # its own, as bench/tracer.py wraps it

    def __init__(self, *args, **kw):
        fields = self._fields
        if kw or len(args) != len(fields):
            rest = fields[len(args):]
            if len(args) > len(fields) or kw.keys() != set(rest):
                raise TypeError(f"{type(self).__name__} takes {fields}")
            args += tuple(map(kw.__getitem__, rest))
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return other is self or key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


def frac(x) -> Fraction:
    """Coerce ints, `"p/q"` strings and Fractions to ``Fraction``."""
    return x if isinstance(x, Fraction) else Fraction(x)


def integer_rows(rows: Iterable) -> tuple[int, list]:
    """(d, rows times d as ints) for rows of (key, rational value) pairs,
    d their least common denominator (docs/conventions.md, "Verifiers")."""
    rows = [list(row) for row in rows]
    d = math.lcm(*(q.denominator for row in rows for _, q in row))
    return d, [[(k, q.numerator * (d // q.denominator)) for k, q in row]
               for row in rows]


def nonzeros(v, n: int) -> dict[int, Fraction]:
    """The {k: c} dict of the nonzero entries of a vector with n
    coordinates, given dense or as such a dict."""
    sparse = isinstance(v, dict)
    if (v and (min(v) < 0 or max(v) >= n)) if sparse else len(v) != n:
        raise DimensionMismatch(f"vector does not fit {n} coordinates")
    return {k: c for k, c in (v.items() if sparse else enumerate(v)) if c}


def dense_vec(v: dict, n: int) -> Vec:
    """The dense read-out of a {k: c} dict with n coordinates."""
    return tuple(map(v.get, range(n), repeat(ZERO)))


def lincomb(terms) -> dict[int, Fraction]:
    """sum of c v over the (c, v) in terms, each v given by its (k, v_k)
    pairs, as the {k: c} dict of its nonzeros."""
    out: dict = {}
    for c, pairs in terms:
        if c:
            for k, q in pairs:
                out[k] = out[k] + c * q if k in out else c * q
    return {k: q for k, q in out.items() if q}


def vec(entries: Iterable) -> Vec:
    return tuple(frac(e) for e in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    m = tuple(vec(r) for r in rows)
    if m:
        w = len(m[0])
        if any(len(r) != w for r in m):
            raise DimensionMismatch("ragged matrix rows")
    return m


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def zeros(rows: int, cols: int) -> Mat:
    return tuple((ZERO,) * cols for _ in range(rows))


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
    there.  The constructor stores each one-entry row of ``rows`` as its
    unit pivot row, then adds the others one by one without those columns.
    """

    def __init__(self, ncols: int, rows: Iterable = ()):
        self.ncols, rows = ncols, [nonzeros(row, ncols) for row in rows]
        self.int_rows: dict[int, dict[int, int]] = {
            c: {c: 1} for r in rows if len(r) == 1 for c in r}
        self._at: dict[int, set[int]] = {}  # non-pivot column -> pivots
        pinned = set(self.int_rows)  # not the pivots that add makes
        for r in rows:  # a one-entry row is left empty
            if r := {c: q for c, q in r.items() if c not in pinned}:
                self.add(r)

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

    def residual(self, row) -> tuple[int, dict[int, int]]:
        """(f, r): what is left of a row, dense or a {column: value} dict,
        after eliminating the pivot columns, times f > 0, as ints."""
        r, f = nonzeros(row, self.ncols), 1
        if any(type(q) is not int for q in r.values()):  # ints as they are
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
        f, r = self.residual(row)
        return {c: Fraction(q, f) for c, q in r.items()}

    def add(self, row: Sequence[Fraction] | dict[int, Fraction]) -> bool:
        """Add a constraint row, dense or a {column: value} dict; True if
        it increased the rank."""
        _, r = self.residual(row)
        if not r:
            return False
        p = min(r)
        rows, at = self.int_rows, self._at
        hits = at.pop(p, ())
        rows[p] = r = _primitive(r, p)
        for c in r:
            if c != p:
                at.setdefault(c, set()).add(p)
        if hits:
            self._eliminate(r[p], r, {k: rows[k][p] for k in hits})
        return True

    def meet(self, phi: dict) -> bool:
        """Cut the row space down to the kernel of the covector phi, a
        {column: value} dict; True if the rank fell.  Of the rows phi does
        not kill, the one of largest pivot is eliminated from the others
        and dropped, which keeps an RREF (docs/conventions.md, "Flag step")."""
        d = math.lcm(*[q.denominator for q in phi.values()])
        phi, rows = {c: int(q * d) for c, q in phi.items()}, self.int_rows
        hits = {k: v for k, r in rows.items()
                if (v := sum(q * phi[c] for c, q in r.items() if c in phi))}
        if not hits:
            return False
        r = rows.pop(j := max(hits))
        for c in r.keys() - {j}:
            self._at[c].discard(j)
        self._eliminate(hits.pop(j), r, hits)
        return True

    def _eliminate(self, a: int, r: dict[int, int], hits: dict[int, int]):
        """Each row k of ``hits``, {k: b}, becomes a rows[k] - b r over its
        content, for r 0 at the other pivots; the column index follows."""
        rows, at = self.int_rows, self._at
        for k, b in hits.items():
            g = math.gcd(a, b)
            rows[k] = new = _primitive(_combine(a // g, rows[k],
                                                [(b // g, r)]), k)
            for c in r:
                if c in new:
                    at.setdefault(c, set()).add(k)
                elif c in at:
                    at[c].discard(k)

    # an alias of add, kept because bench/tracer.py wraps this name
    add_sparse = add

    @classmethod
    def identity(cls, n: int) -> "RowReducer":
        """The reducer of the n unit rows, each its own RREF row."""
        out, out.int_rows = cls(n), {i: {i: 1} for i in range(n)}
        return out

    def copy(self) -> "RowReducer":
        """A reducer with the same rows, to add to without reducing them
        again or changing this one."""
        out = RowReducer(self.ncols)
        out.int_rows = {p: dict(r) for p, r in self.int_rows.items()}
        out._at = {c: set(ps) for c, ps in self._at.items()}
        return out

    def basis(self) -> Mat:
        """The dense RREF rows, in pivot order."""
        return tuple(dense_vec(r, self.ncols)
                     for _, r in sorted(self.rows.items()))

    def kernel(self, n: int | None = None) -> list[Vec]:
        """Kernel on the first n columns (default: all), one vector per
        free column; for rows [A | b] and n the width of A, ker A."""
        n = self.ncols if n is None else n
        return [dense_vec(x, n) for x in self.sparse_kernel(n)]

    def sparse_kernel(self, n: int | None = None) -> list[dict[int, Fraction]]:
        """The vectors of :meth:`kernel` as {column: value} dicts of their
        nonzero entries, read off the int rows."""
        n = self.ncols if n is None else n
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


def rref(A: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form, padded with zero rows to A's shape, and
    the pivot columns."""
    n = _width(A)
    red = RowReducer(n, A)
    return red.basis() + zeros(len(A) - red.rank, n), red.pivots


def rank(A: Mat) -> int:
    return RowReducer(_width(A), A).rank


def kernel(A: Mat) -> list[Vec]:
    """Basis of the right null space {x : A x = 0}."""
    return RowReducer(_width(A), A).kernel()


class SolutionSet(Record):
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
    red = RowReducer(n + 1, ((*row, rhs) for row, rhs in zip(A, b)))
    rows = red.rows
    return SolutionSet(None if n in rows else tuple(
        rows[p].get(n, ZERO) if p in rows else ZERO for p in range(n)),
        tuple(red.kernel(n)))


class Coordinates:
    """Coordinates, modulo the span of the reducer ``mod``, in the span of
    rows independent modulo it, factored once; a reducer with no rows
    gives plain coordinates.

    Each row r_t, dense or a {k: c} dict, is reduced modulo ``mod`` and
    then once as [r_t | e_t].  Reducing [v | 0] against them, v also
    reduced modulo ``mod`` first, leaves [v - sum_p v[p] R_p | -x], with
    R_p the RREF row of the span at pivot p and x the coordinates of v;
    v is in the span exactly when the first part vanishes.
    """

    def __init__(self, mod: RowReducer, rows):
        self.mod, n = mod, mod.ncols
        self._red = RowReducer(n + len(rows), (
            {**mod.reduce(row), n + t: ONE} for t, row in enumerate(rows)))
        if any(p >= n for p in self._red.int_rows):
            raise DimensionMismatch("spanning rows are dependent")

    def of(self, v) -> dict[int, Fraction] | None:
        """The coordinates {t: x_t} of v, dense or a {k: c} dict, over
        its nonzeros, or None if v is not in the span."""
        r, n = self._red.reduce(self.mod.reduce(v)), self.mod.ncols
        if any(c < n for c in r):
            return None
        return {c - n: -q for c, q in r.items()}


def charpoly(A: Mat) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial of A by Faddeev-LeVerrier.

    Returns coefficients (c0, c1, ..., cn) of
    ``c0 λ^n + c1 λ^(n-1) + ... + cn`` with c0 = 1.
    """
    n = len(A)
    coeffs: list[Fraction] = [ONE]
    M = A
    for k in range(1, n + 1):
        c = -sum((M[i][i] for i in range(n)), ZERO) / k
        coeffs.append(c)
        if k < n:
            # M <- A (M + c I), from the columns of M + c I
            cols = [[M[i][j] + c if i == j else M[i][j] for i in range(n)]
                    for j in range(n)]
            M = tuple(tuple(sum((a * b for a, b in zip(row, col) if a and b),
                                ZERO) for col in cols) for row in A)
    return tuple(coeffs)


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
        a = [c for _, c in ints]
        for p in _divisors(a[-1]):
            for q in _divisors(a[0]):
                if math.gcd(p, q) != 1:
                    continue
                for s in (p, -p):
                    acc = 0  # q^n f(s/q) = sum_i a_i s^(n-i) q^i, by Horner
                    for i, c in enumerate(a):
                        acc = acc * s + c * q ** i
                    if not acc:
                        roots.add(Fraction(s, q))
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
