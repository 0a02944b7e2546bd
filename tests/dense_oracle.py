"""Dense tensors of the library's sparse objects, and dense Gaussian
elimination, for oracle tests only.

The library stores a bracket, a cochain or a form only as its nonzero
values on free coordinates.  The helpers here expand them into dense n^3
(or n^2) tensors, reading every entry through sign rules written out
once per container (the first section, also the reference for the
library's one rule ``superalgebra.canon``), check those
tensors with the entrywise validators for evenness and
super-antisymmetry, and evaluate the Jacobi, invariance, morphism,
cocycle, supercyclicity and closedness identities and the coboundary by
plain loops over every ordered tuple (the Jacobiator over the nonzero
coefficients of each bracket), so the sparse fast paths can be compared
with the definitions entry by entry.  The ideal test and the
lower central series bracket basis vectors with dense vectors the same
way.

The library keeps no dense matrix products; the products, transposes
and identities the tests need are written out from the definitions in
the section before the last.  The library also has a single
eliminator, the sparse ``RowReducer``.  The last section is the dense
elimination it replaced (in-place RREF with row swaps, inverses and
coordinates by solving a system or from one factored [A | I], the
determinant by forward elimination), so the batch solvers and the
library's factored coordinates can be compared with it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from superquad.cohomology import (Cochain2Dual, ScalarCochain2,
                                  ScalarCochain3, free_coords_alt3,
                                  free_coords_cochain2dual,
                                  free_coords_scalar2)
from superquad.superalgebra import EVEN, ODD, sgn

ZERO = Fraction(0)


# --- the sign rules, one per container ---------------------------------------
# Each returns (free coordinate, sign) of an entry, or (None, 0) when the
# entry is forced to vanish, written out separately for each container so
# that the library's single rule ``superalgebra.canon`` is checked against
# code it does not share.

def canon3(parities, i, j, k):
    """A fully super-alternating even triple: ascending by bubble sort,
    each swap of x and y signed -(-1)^{|x||y|}; a repeated even index or an
    odd parity sum vanishes."""
    if (parities[i] + parities[j] + parities[k]) % 2:
        return None, 0
    idx = [i, j, k]
    sign = 1
    for a in range(2):
        for b in range(2 - a):
            if idx[b] > idx[b + 1]:
                sign *= -sgn(parities[idx[b]] * parities[idx[b + 1]])
                idx[b], idx[b + 1] = idx[b + 1], idx[b]
    if ((idx[0] == idx[1] and parities[idx[0]] == EVEN)
            or (idx[1] == idx[2] and parities[idx[1]] == EVEN)):
        return None, 0
    return (idx[0], idx[1], idx[2]), sign


def canon2_first(parities, i, j):
    """A pair super-antisymmetric in (i, j), parity not checked."""
    if i > j:
        return (j, i), -sgn(parities[i] * parities[j])
    if i == j and parities[i] == EVEN:
        return None, 0
    return (i, j), 1


def canon_cochain2dual(parities, a, b, c):
    """w(e_a, e_b)(e_c) of an even dual-valued 2-cochain, and the structure
    constant c_abc of a bracket, [e_a, e_b] = sum_c c_abc e_c."""
    pair, s = canon2_first(parities, a, b)
    if pair is None or (parities[a] + parities[b] + parities[c]) % 2:
        return None, 0
    return (pair[0], pair[1], c), s


def canon_scalar2(parities, i, j):
    """phi(e_i, e_j) of an even scalar 2-cochain."""
    if parities[i] != parities[j]:
        return None, 0
    return canon2_first(parities, i, j)


def canon_form(parities, i, j):
    """B(e_i, e_j) of an even supersymmetric form: mixed parity, or an
    odd index paired with itself, vanishes."""
    if parities[i] != parities[j] or (i == j and parities[i] == ODD):
        return None, 0
    return ((i, j), 1) if i <= j else ((j, i), sgn(parities[i]))


def _zero3(n):
    return [[[ZERO] * n for _ in range(n)] for _ in range(n)]


# --- expansions --------------------------------------------------------------

def bracket_tensor(g):
    """c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k, for every ordered
    triple, from the free coordinates (not from the library's table)."""
    p = g.basis.parities
    c = _zero3(g.dim)
    for i, j, k in itertools.product(range(g.dim), repeat=3):
        key, s = canon_cochain2dual(p, i, j, k)
        if key is not None:
            c[i][j][k] = s * g.coords.get(key, ZERO)
    return c


def alt3_tensor(f):
    """f[i][j][k] for every ordered triple, from the free coordinates."""
    p = f.basis.parities
    n = f.basis.dim
    t = _zero3(n)
    for i, j, k in itertools.product(range(n), repeat=3):
        key, s = canon3(p, i, j, k)
        if key is not None:
            t[i][j][k] = s * f.coords.get(key, ZERO)
    return t


def cochain2dual_tensor(w):
    """w[i][j][k] = w(e_i, e_j)(e_k) for every ordered triple."""
    p = w.basis.parities
    n = w.basis.dim
    t = _zero3(n)
    for i, j, k in itertools.product(range(n), repeat=3):
        key, s = canon_cochain2dual(p, i, j, k)
        if key is not None:
            t[i][j][k] = s * w.coords.get(key, ZERO)
    return t


def scalar2_matrix(phi):
    """phi[i][j] = phi(e_i, e_j) for every ordered pair."""
    p = phi.basis.parities
    n = phi.basis.dim
    m = [[ZERO] * n for _ in range(n)]
    for (i, j), q in phi.coords.items():
        m[i][j] = q
        m[j][i] = -sgn(p[i] * p[j]) * q
    return m


def gram(B):
    """G[i][j] = B(e_i, e_j) for every ordered pair, completed from the
    free coordinates by supersymmetry:
    B(e_j, e_i) = (-1)^{|i||j|} B(e_i, e_j)."""
    p = B.basis.parities
    n = B.basis.dim
    G = [[ZERO] * n for _ in range(n)]
    for (i, j), q in B.coords.items():
        G[i][j] = q
        G[j][i] = sgn(p[i] * p[j]) * q
    return tuple(tuple(r) for r in G)


# --- the entrywise validators ------------------------------------------------

def alt3_violation(p, f):
    """First entry where a dense trilinear form is not even or not
    super-antisymmetric in (i, j) or in (j, k), or None."""
    n = len(p)
    for i, j, k in itertools.product(range(n), repeat=3):
        if (p[i] + p[j] + p[k]) % 2 and f[i][j][k] != 0:
            return ("even", (i, j, k))
        if f[i][j][k] != -sgn(p[i] * p[j]) * f[j][i][k]:
            return ("antisymmetric in (i, j)", (i, j, k))
        if f[i][j][k] != -sgn(p[j] * p[k]) * f[i][k][j]:
            return ("antisymmetric in (j, k)", (i, j, k))
    return None


def cochain2dual_violation(p, w):
    """First entry where a dense dual-valued 2-cochain is not even or not
    super-antisymmetric in (i, j), or None."""
    n = len(p)
    for i, j, k in itertools.product(range(n), repeat=3):
        if (p[i] + p[j] + p[k]) % 2 and w[i][j][k] != 0:
            return ("even", (i, j, k))
        if w[i][j][k] != -sgn(p[i] * p[j]) * w[j][i][k]:
            return ("antisymmetric in (i, j)", (i, j, k))
    return None


def scalar2_violation(p, m):
    """First entry where a dense scalar 2-cochain is not even or not
    super-antisymmetric, or None."""
    n = len(p)
    for i, j in itertools.product(range(n), repeat=2):
        if p[i] != p[j] and m[i][j] != 0:
            return ("even", (i, j))
        if m[i][j] != -sgn(p[i] * p[j]) * m[j][i]:
            return ("antisymmetric", (i, j))
    return None


def split_vector(basis, v):
    """Parity components (even part, odd part) of a coordinate vector."""
    p = basis.parities
    return (tuple(q if p[k] == 0 else ZERO for k, q in enumerate(v)),
            tuple(q if p[k] == 1 else ZERO for k, q in enumerate(v)))


def even_form_violation(p, G):
    """First (message, (i, j)) where a dense Gram matrix is not even or
    not supersymmetric, checking evenness first at each entry, or None."""
    n = len(p)
    for i, j in itertools.product(range(n), repeat=2):
        if p[i] != p[j] and G[i][j] != 0:
            return ("form is not even", (i, j))
        if G[i][j] != sgn(p[i] * p[j]) * G[j][i]:
            return ("form is not supersymmetric", (i, j))
    return None


def skew_violations(p, c):
    """Pairs i <= j with [e_i, e_j] != -(-1)^{|i||j|} [e_j, e_i]."""
    n = len(p)
    return [(i, j) for i in range(n) for j in range(i, n)
            if any(c[i][j][k] != -sgn(p[i] * p[j]) * c[j][i][k]
                   for k in range(n))]


# --- the identities, over every ordered tuple --------------------------------

def bracket_nonzeros(c):
    """nz[a][b] lists (m, c[a][b][m]) for each nonzero c[a][b][m]."""
    return [[[(m, q) for m, q in enumerate(entry) if q] for entry in row]
            for row in c]


def jacobi_defect(p, nz, i, j, k):
    """(-1)^{xz}[e_i,[e_j,e_k]] + (-1)^{xy}[e_j,[e_k,e_i]]
    + (-1)^{yz}[e_k,[e_i,e_j]] as a dense vector, from the nonzero lists
    ``nz`` of :func:`bracket_nonzeros`: [e_a, [e_b, e_d]] is the sum over
    e_m in [e_b, e_d] of its coefficient times [e_a, e_m]."""
    out = [ZERO] * len(p)
    for a, b, d, s in ((i, j, k, sgn(p[i] * p[k])), (j, k, i, sgn(p[i] * p[j])),
                       (k, i, j, sgn(p[j] * p[k]))):
        for m, q in nz[b][d]:
            for t, r in nz[a][m]:
                out[t] += s * q * r
    return out


def jacobi_violations(p, c):
    """The ordered triples where the Jacobiator is nonzero, generated in
    lexicographic order."""
    nz = bracket_nonzeros(c)
    return (t for t in itertools.product(range(len(p)), repeat=3)
            if any(jacobi_defect(p, nz, *t)))


def ad_image(c, i, v):
    """[e_i, v], summed over every coordinate of v."""
    n = len(c)
    return tuple(sum((v[j] * c[i][j][k] for j in range(n)), ZERO)
                 for k in range(n))


def bracket(c, x, y):
    """[x, y], summed over every coordinate of x and of y."""
    out = [ZERO] * len(c)
    for i, xi in enumerate(x):
        if xi:
            for k, a in enumerate(ad_image(c, i, y)):
                out[k] += xi * a
    return tuple(out)


def derived_series(c):
    """Nonzero dense RREF rows of g, [g, g], [[g, g], [g, g]], ..., each
    member spanned by the brackets of every ordered pair of rows of the
    one before, stopping at the first member that does not shrink."""
    n = len(c)
    series = [identity(n)]
    while True:
        R, pivots = rref([bracket(c, u, v) for u in series[-1]
                          for v in series[-1]])
        if len(pivots) == len(series[-1]):
            return series
        series.append(R[:len(pivots)])


def derived_rows(c):
    """Nonzero dense RREF rows of [g, g], from the brackets of every
    ordered pair of basis vectors."""
    R, pivots = rref([c[i][j] for i in range(len(c)) for j in range(len(c))])
    return R[:len(pivots)]


def ideal_witness(c, vectors):
    """First (i, v), looping over i and then over v, with [e_i, v] outside
    the span of ``vectors`` (by solving for its coordinates), or None."""
    for i in range(len(c)):
        for v in vectors:
            if coords_in(vectors, ad_image(c, i, v)) is None:
                return i, v
    return None


def lower_central_series(c):
    """Nonzero dense RREF rows of g, [g, g], [g, [g, g]], ..., stopping at
    the first member that does not shrink."""
    n = len(c)
    series = [rref([[Fraction(int(i == j)) for j in range(n)]
                    for i in range(n)])[0]]
    while True:
        R, pivots = rref([ad_image(c, i, v) for i in range(n)
                          for v in series[-1]])
        if len(pivots) == len(series[-1]):
            return series
        series.append(R[:len(pivots)])


def invariance_violation(c, G):
    """First ordered triple with B([e_i,e_j],e_k) != B(e_i,[e_j,e_k])."""
    n = len(G)
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = sum((c[i][j][m] * G[m][k] for m in range(n)), ZERO)
        rhs = sum((c[j][k][m] * G[i][m] for m in range(n)), ZERO)
        if lhs != rhs:
            return (i, j, k)
    return None


def morphism_violation(p_src, c_src, G_src, p_dst, c_dst, G_dst, m):
    """First failure of the matrix m (dst coordinates of the columns) as a
    map of quadratic superalgebras: ("parity", a) for a nonzero column
    that is not homogeneous of the parity of e_a, then per pair (a, b) in
    lexicographic order ("bracket", (a, b)) and ("form", (a, b))."""
    n, N = len(p_src), len(p_dst)
    cols = [[m[r][a] for r in range(N)] for a in range(n)]
    for a, col in enumerate(cols):
        if any(col) and {p_dst[r] for r in range(N) if col[r]} != {p_src[a]}:
            return ("parity", a)
    # the nonzero entries of each column: a zero factor adds nothing
    support = [[(r, x) for r, x in enumerate(col) if x] for col in cols]
    for a, b in itertools.product(range(n), repeat=2):
        lhs = [sum((c_src[a][b][k] * cols[k][r] for k in range(n)), ZERO)
               for r in range(N)]
        rhs = [sum((x * y * c_dst[r][s][t]
                    for r, x in support[a] for s, y in support[b]), ZERO)
               for t in range(N)]
        if lhs != rhs:
            return ("bracket", (a, b))
        form = sum((x * G_dst[r][s] * y
                    for r, x in support[a] for s, y in support[b]), ZERO)
        if form != G_src[a][b]:
            return ("form", (a, b))
    return None


def cocycle2_defect(p, c, w, i, j, k):
    """Sum over the cyclic rotations (a, b, d) of (i, j, k) of
    w(e_a, [e_b, e_d]) + pi(e_a) w(e_b, e_d), with the rotation signs."""
    n = len(p)
    out = [ZERO] * n
    for a, b, d, s in ((i, j, k, 1), (j, k, i, sgn(p[i] * (p[j] + p[k]))),
                       (k, i, j, sgn(p[k] * (p[i] + p[j])))):
        t = -sgn(p[a] * (p[b] + p[d]))
        for m in range(n):  # the products with a zero factor are skipped
            if c[b][d][m]:
                for l in range(n):
                    if w[a][m][l]:
                        out[l] += s * c[b][d][m] * w[a][m][l]
            if w[b][d][m]:
                for l in range(n):
                    if c[a][l][m]:
                        out[l] += s * t * c[a][l][m] * w[b][d][m]
    return out


def cocycle2_violation(p, c, w):
    n = len(p)
    for i, j, k in itertools.product(range(n), repeat=3):
        if any(cocycle2_defect(p, c, w, i, j, k)):
            return (i, j, k)
    return None


def supercyclic_defect(p, w, i, j, k):
    """w(e_i, e_j)(e_k) - (-1)^{|i|(|j|+|k|)} w(e_j, e_k)(e_i)."""
    return w[i][j][k] - sgn(p[i] * (p[j] + p[k])) * w[j][k][i]


def supercyclic_violation(p, w):
    n = len(p)
    for i, j, k in itertools.product(range(n), repeat=3):
        if supercyclic_defect(p, w, i, j, k):
            return (i, j, k)
    return None


def closed3_defect(p, c, f, i, j, k, l):
    x, y, z, v = p[i], p[j], p[k], p[l]
    acc = ZERO
    for (a, b), (d, e), s in (((i, j), (k, l), 1),
                              ((i, k), (j, l), -sgn(y * z)),
                              ((j, k), (i, l), sgn(x * (y + z))),
                              ((i, l), (j, k), sgn((y + z) * v)),
                              ((j, l), (i, k), -sgn(x * (y + v) + v * z)),
                              ((k, l), (i, j), sgn((x + y) * (z + v)))):
        acc += s * sum((c[a][b][m] * f[m][d][e] for m in range(len(p))
                        if c[a][b][m]), ZERO)
    return acc


def closed3_violation(p, c, f):
    for quad in itertools.product(range(len(p)), repeat=4):
        if closed3_defect(p, c, f, *quad) != 0:
            return quad
    return None


def coboundary(p, c, phi, i, j, k):
    """(d phi)(e_i, e_j, e_k) = -phi([e_i, e_j], e_k)
    + (-1)^{|j||k|} phi([e_i, e_k], e_j)
    - (-1)^{|i|(|j|+|k|)} phi([e_j, e_k], e_i), for a dense matrix phi."""
    return sum((-c[i][j][m] * phi[m][k]
                + sgn(p[j] * p[k]) * c[i][k][m] * phi[m][j]
                - sgn(p[i] * (p[j] + p[k])) * c[j][k][m] * phi[m][i]
                for m in range(len(p))), ZERO)


def extension_tensor(p, c, w):
    """Structure constants of g + g* for a dense bracket c and a dense
    even super-antisymmetric w:  [e_i, e_j] = [e_i, e_j]_g + w(e_i, e_j),
    [e_i, e_j*] = -(-1)^{|i||j|} sum_k c[i][k][j] e_k*,
    [e_i*, e_j] = sum_k c[j][k][i] e_k*."""
    n = len(p)
    N = 2 * n
    t = _zero3(N)
    for i, j, k in itertools.product(range(n), repeat=3):
        t[i][j][k] = c[i][j][k]
        t[i][j][n + k] = w[i][j][k]
        t[i][n + j][n + k] = -sgn(p[i] * p[j]) * c[i][k][j]
        t[n + i][j][n + k] = c[j][k][i]
    return t


# --- back to the sparse containers -------------------------------------------

def cochain2dual_from_tensor(basis, t):
    """The Cochain2Dual of a dense tensor that passes the validator."""
    assert cochain2dual_violation(basis.parities, t) is None
    return Cochain2Dual(basis, {key: t[key[0]][key[1]][key[2]]
                                for key in free_coords_cochain2dual(basis)})


def alt3_from_tensor(basis, t):
    """The ScalarCochain3 of a dense tensor that passes the validator."""
    assert alt3_violation(basis.parities, t) is None
    return ScalarCochain3(basis, {key: t[key[0]][key[1]][key[2]]
                                  for key in free_coords_alt3(basis)})


def scalar2_from_matrix(basis, m):
    """The ScalarCochain2 of a dense matrix that passes the validator."""
    assert scalar2_violation(basis.parities, m) is None
    return ScalarCochain2(basis, {key: m[key[0]][key[1]]
                                  for key in free_coords_scalar2(basis)})


def z2_supercyclic_from_z3(basis, z3):
    """Z^2_sc in the canonical kernel basis, from a basis of Z^3 by unhat
    and then an RREF: each f read as the dual-valued cochain
    w(e_i, e_j)(e_k) = f(e_i, e_j, e_k) at every free dual-valued
    coordinate, the RREF of their span over those coordinates in reverse
    order, and its rows by descending pivot (docs/conventions.md)."""
    coords = free_coords_cochain2dual(basis)[::-1]
    rows = []
    for f in z3:
        t = alt3_tensor(f)
        rows.append([t[i][j][k] for i, j, k in coords])
    R, pivots = rref(rows)
    return [Cochain2Dual(basis, {key: q for key, q in zip(coords, R[r]) if q})
            for r in reversed(range(len(pivots)))]


# --- dense matrix arithmetic ------------------------------------------------
# From the definitions, over every entry: the library works on sparse rows
# and keeps no dense products.

def identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n))
                 for i in range(n))


def transpose(A):
    return tuple(zip(*A))


def dot(x, y):
    return sum((a * b for a, b in zip(x, y, strict=True)), ZERO)


def mat_vec(A, x):
    return tuple(dot(row, x) for row in A)


def mat_mul(A, B):
    return tuple(tuple(dot(row, col) for col in transpose(B)) for row in A)


# --- dense Gaussian elimination ----------------------------------------------

def _rref(rows):
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = Fraction(1) / rows[r][c]
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


def rref(A):
    rows, pivots = _rref([list(r) for r in A])
    return tuple(tuple(r) for r in rows), tuple(pivots)


def _kernel_from_rref(R, pivots, ncols):
    pivot_set = set(pivots)
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_set):
        x = [ZERO] * ncols
        x[f] = Fraction(1)
        for t, p in enumerate(pivots):
            x[p] = -R[t][f]
        basis.append(tuple(x))
    return basis


def residual(A, v):
    """What reducing v against the rows of A leaves: v less v[p] times the
    RREF row of A at each pivot p, zero iff v is in the row span."""
    out = list(v)
    if A:
        R, pivots = rref(A)
        for row, p in zip(R, pivots):
            f = v[p]
            out = [a - f * b for a, b in zip(out, row)]
    return tuple(out)


def kernel(A):
    if not A:
        return []
    R, pivots = rref(A)
    return _kernel_from_rref(R, pivots, len(A[0]))


def solve(A, b):
    """(particular solution or None, kernel basis) of A x = b."""
    n = len(A[0]) if A else 0
    if not A:
        return (), ()
    R, pivots = _rref([list(row) + [rhs] for row, rhs in zip(A, b)])
    piv_A = [p for p in pivots if p < n]
    kern = tuple(_kernel_from_rref(R, piv_A, n))
    if len(piv_A) != len(pivots):  # pivot in the b column: inconsistent
        return None, kern
    x = [ZERO] * n
    for t, p in enumerate(piv_A):
        x[p] = R[t][n]
    return tuple(x), kern


def inverse(A):
    """Inverse of a square matrix, or None when it is singular."""
    n = len(A)
    R, pivots = _rref([list(r) + [Fraction(int(i == j)) for j in range(n)]
                       for i, r in enumerate(A)])
    if list(pivots) != list(range(n)):
        return None
    return tuple(tuple(R[i][n:]) for i in range(n))


def poly_value(coeffs, x):
    """c0 x^n + c1 x^(n-1) + ... + cn, term by term."""
    n = len(coeffs) - 1
    return sum((c * x ** (n - i) for i, c in enumerate(coeffs)), ZERO)


def det(A):
    n = len(A)
    rows = [list(r) for r in A]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if p is None:
            return ZERO
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            sign = -sign
        result *= rows[c][c]
        inv = Fraction(1) / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return result * sign


def coords_in(vectors, v):
    """Coordinates of v in the span of ``vectors``, or None."""
    if not vectors:
        return () if all(a == 0 for a in v) else None
    return solve(tuple(zip(*vectors)), v)[0]


def coordinates(vectors):
    """:func:`coords_in` for the span of independent ``vectors``, with the
    matrix A whose columns they are factored once: [A | I] reduces to
    [R | E] with E A = R, the identity over zero rows, and E is
    invertible, so A x = v iff E v is x over zeros."""
    A = transpose(vectors)
    m, n = len(vectors), len(A)
    R, pivots = _rref([list(row) + [Fraction(int(i == j)) for j in range(n)]
                       for i, row in enumerate(A)])
    assert pivots[:m] == list(range(m)), "vectors are dependent"
    E = [[(j, e) for j, e in enumerate(row[m:]) if e] for row in R]

    def of(v):
        ev = [sum((e * v[j] for j, e in row), ZERO) for row in E]
        return None if any(ev[m:]) else tuple(ev[:m])
    return of
