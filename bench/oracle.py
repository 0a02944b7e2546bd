"""Independent output checks for the benchmark.

Everything here works on raw data only: parities, structure constants as
sparse dicts, Gram matrices and cochain coordinates, all as Fractions.
Nothing calls a verifier of the library; the sign conventions are taken
from docs/conventions.md and re-derived in plain loops.

A check that fails raises :class:`OracleError` with a short reason.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class OracleError(Exception):
    """An output of the library failed an independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def sgn(e: int) -> int:
    return -1 if e % 2 else 1


# ---------------------------------------------------------------------------
# raw algebras: parities + sparse table {(i, j): {k: q}} over all ordered pairs
# ---------------------------------------------------------------------------

class Raw:
    """A (possibly quadratic) superalgebra as plain data."""

    def __init__(self, parities, table, gram=None, names=None):
        self.par = tuple(parities)
        self.n = len(self.par)
        self.table = table
        self.gram = gram            # dict {(i, j): q} or None
        self.names = tuple(names) if names is not None else None

    def br(self, i: int, j: int) -> dict:
        return self.table.get((i, j), {})

    def bracket(self, x, y) -> list:
        out = [ZERO] * self.n
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                for k, q in self.br(i, j).items():
                    out[k] += xi * yj * q
        return out

    def form(self, x, y) -> Fraction:
        acc = ZERO
        for (i, j), q in self.gram.items():
            if x[i] != 0 and y[j] != 0:
                acc += x[i] * q * y[j]
        return acc


def unit(n: int, i: int) -> list:
    v = [ZERO] * n
    v[i] = ONE
    return v


# ---------------------------------------------------------------------------
# axioms and invariance
# ---------------------------------------------------------------------------

def jacobi_defect(a: Raw, i: int, j: int, k: int) -> dict:
    """(-1)^{|x||z|}[x,[y,z]] + (-1)^{|x||y|}[y,[z,x]] + (-1)^{|y||z|}[z,[x,y]]."""
    p = a.par
    out: dict = {}
    for (x, y, z), s in (((i, j, k), sgn(p[i] * p[k])),
                         ((j, k, i), sgn(p[i] * p[j])),
                         ((k, i, j), sgn(p[j] * p[k]))):
        for m, q in a.br(y, z).items():
            for t, r in a.br(x, m).items():
                out[t] = out.get(t, ZERO) + s * q * r
    return {t: q for t, q in out.items() if q != 0}


def check_lie(a: Raw) -> None:
    """Grading, super-skew-symmetry and graded Jacobi on all basis triples."""
    p = a.par
    for (i, j), entries in a.table.items():
        for k, q in entries.items():
            require((p[i] + p[j] + p[k]) % 2 == 0,
                    f"bracket violates the grading at {(i, j, k)}")
            require(a.br(j, i).get(k, ZERO) == -sgn(p[i] * p[j]) * q,
                    f"bracket is not super-skew at {(i, j, k)}")
    bad = first_jacobi_violation(a)
    require(bad is None, f"graded Jacobi fails at {bad}")


def first_jacobi_violation(a: Raw):
    for i in range(a.n):
        for j in range(a.n):
            for k in range(a.n):
                if jacobi_defect(a, i, j, k):
                    return (i, j, k)
    return None


def invariance_defect(a: Raw, i: int, j: int, k: int) -> Fraction:
    """B([e_i,e_j], e_k) - B(e_i, [e_j,e_k])."""
    g = a.gram
    lhs = sum((q * g.get((m, k), ZERO) for m, q in a.br(i, j).items()), ZERO)
    rhs = sum((q * g.get((i, m), ZERO) for m, q in a.br(j, k).items()), ZERO)
    return lhs - rhs


def check_quadratic(a: Raw) -> None:
    """Lie axioms, an even supersymmetric nondegenerate and invariant form."""
    check_lie(a)
    p = a.par
    for (i, j), q in a.gram.items():
        require(p[i] == p[j], f"form is not even at {(i, j)}")
        require(a.gram.get((j, i), ZERO) == sgn(p[i] * p[j]) * q,
                f"form is not supersymmetric at {(i, j)}")
    dense = [[a.gram.get((i, j), ZERO) for j in range(a.n)]
             for i in range(a.n)]
    require(rank(dense) == a.n, "form is degenerate")
    for i in range(a.n):
        for j in range(a.n):
            for k in range(a.n):
                require(invariance_defect(a, i, j, k) == 0,
                        f"form is not invariant at {(i, j, k)}")


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def echelon(rows) -> list:
    """Echelon basis of the span as (pivot, row) pairs; each row is zero at
    the pivots of the rows before it, which is all reduce_against needs."""
    basis: list[tuple[int, list]] = []
    for v in rows:
        r = reduce_against(basis, v)
        p = next((c for c, q in enumerate(r) if q != 0), None)
        if p is None:
            continue
        inv = ONE / r[p]
        r = [inv * q for q in r]
        basis.append((p, r))
    return basis


def reduce_against(basis, v) -> list:
    r = [Fraction(q) for q in v]
    for p, row in basis:
        f = r[p]
        if f != 0:
            r = [a - f * b for a, b in zip(r, row)]
    return r


def rank(rows) -> int:
    return len(echelon(rows))


def in_span(basis, v) -> bool:
    return all(q == 0 for q in reduce_against(basis, v))


# ---------------------------------------------------------------------------
# decomposition outputs
# ---------------------------------------------------------------------------

def check_isotropic_ideal(a: Raw, vectors) -> None:
    """vectors span a graded totally isotropic ideal of dimension floor(n/2)."""
    vectors = [list(v) for v in vectors]
    require(len(vectors) == a.n // 2,
            f"ideal has {len(vectors)} vectors, expected {a.n // 2}")
    basis = echelon(vectors)
    require(len(basis) == a.n // 2, "ideal vectors are dependent")
    for v in vectors:
        kinds = {a.par[t] for t, q in enumerate(v) if q != 0}
        require(len(kinds) == 1, "ideal vector is not homogeneous")
    for u in vectors:
        for v in vectors:
            require(a.form(u, v) == 0, "ideal is not totally isotropic")
    for i in range(a.n):
        e = unit(a.n, i)
        for v in vectors:
            require(in_span(basis, a.bracket(e, v)),
                    f"ideal is not closed under the bracket with e{i}")


def check_morphism(src: Raw, dst: Raw, m) -> None:
    """m (dst.n x src.n, acting on columns) is injective and even and
    preserves brackets and the form on all basis pairs."""
    n = src.n
    require(len(m) == dst.n and all(len(r) == n for r in m),
            "map has the wrong shape")
    cols = [[m[r][a] for r in range(dst.n)] for a in range(n)]
    require(rank(cols) == n, "map is not injective")
    for a_, col in enumerate(cols):
        kinds = {dst.par[t] for t, q in enumerate(col) if q != 0}
        require(kinds == {src.par[a_]}, f"map is not even on e{a_}")
    for a_ in range(n):
        for b in range(n):
            img = [ZERO] * dst.n
            for k, q in src.br(a_, b).items():
                for r in range(dst.n):
                    img[r] += m[r][k] * q
            require(img == dst.bracket(cols[a_], cols[b]),
                    f"map does not preserve the bracket at {(a_, b)}")
            require(dst.form(cols[a_], cols[b])
                    == src.gram.get((a_, b), ZERO),
                    f"map does not preserve the form at {(a_, b)}")


# ---------------------------------------------------------------------------
# cochains (dense coordinate tensors w[i][j][k], phi[i][j], f[i][j][k])
# ---------------------------------------------------------------------------

def extension(g: Raw, w) -> Raw:
    """g + g* with [x+F, y+H] = [x,y] + w(x,y) + pi(x)H - (-1)^{|x||y|} pi(y)F
    and B(e_i, e_i*) = (-1)^{|e_i|}, B(e_i*, e_i) = 1, where
    (pi(x)F)(y) = -(-1)^{|x||F|} F([x, y])."""
    n, p = g.n, g.par
    table: dict = {}

    def put(i, j, k, q):
        if q != 0:
            table.setdefault((i, j), {})
            table[(i, j)][k] = table[(i, j)].get(k, ZERO) + q

    for i in range(n):
        for j in range(n):
            for k, q in g.br(i, j).items():
                put(i, j, k, q)
            for k in range(n):
                put(i, j, n + k, Fraction(w[i][j][k]))
            # [e_i, e_j*](e_k) = (pi(e_i) e_j*)(e_k) = -(-1)^{p_i p_j} e_j*([e_i, e_k])
            for k in range(n):
                q = g.br(i, k).get(j, ZERO)
                put(i, n + j, n + k, -sgn(p[i] * p[j]) * q)
            # [e_i*, e_j] = -(-1)^{p_i p_j} pi(e_j) e_i*; the two signs
            # cancel, leaving e_i*([e_j, e_k]) on e_k*
            for k in range(n):
                put(n + i, j, n + k, g.br(j, k).get(i, ZERO))
    gram = {}
    for i in range(n):
        gram[(i, n + i)] = Fraction(sgn(p[i]))
        gram[(n + i, i)] = ONE
    return Raw(p + p, table, gram)


def cocycle_defect(g: Raw, w, i: int, j: int, k: int) -> list:
    """Left side of the 2-cocycle identity at (e_i, e_j, e_k), as a functional."""
    n, p = g.n, g.par
    out = [ZERO] * n
    s_y = sgn(p[i] * (p[j] + p[k]))
    s_z = sgn(p[k] * (p[i] + p[j]))
    for a, (b, c), s in ((i, (j, k), 1), (j, (k, i), s_y), (k, (i, j), s_z)):
        for m, q in g.br(b, c).items():
            for l in range(n):
                out[l] += s * q * w[a][m][l]
        pf = (p[b] + p[c]) % 2
        for l in range(n):
            # (pi(e_a) F)(e_l) = -(-1)^{p_a p_F} F([e_a, e_l])
            for t, q in g.br(a, l).items():
                out[l] += s * -sgn(p[a] * pf) * q * w[b][c][t]
    return out


def supercyclic_defect(g: Raw, w, i: int, j: int, k: int) -> Fraction:
    p = g.par
    return w[i][j][k] - sgn(p[i] * (p[j] + p[k])) * w[j][k][i]


def delta(g: Raw, phi) -> list:
    """(d phi)(x,y,z) = -phi([x,y],z) + (-1)^{|y||z|} phi([x,z],y)
    - (-1)^{|x|(|y|+|z|)} phi([y,z],x)."""
    n, p = g.n, g.par
    out = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = ZERO
                for m, q in g.br(i, j).items():
                    acc -= q * phi[m][k]
                for m, q in g.br(i, k).items():
                    acc += sgn(p[j] * p[k]) * q * phi[m][j]
                for m, q in g.br(j, k).items():
                    acc -= sgn(p[i] * (p[j] + p[k])) * q * phi[m][i]
                out[i][j][k] = acc
    return out


def tensor_sub(a, b) -> list:
    return [[[x - y for x, y in zip(ra, rb)] for ra, rb in zip(pa, pb)]
            for pa, pb in zip(a, b)]


def flatten(t) -> list:
    return [q for plane in t for row in plane for q in row]


# ---------------------------------------------------------------------------
# quadrics
# ---------------------------------------------------------------------------

def squarefree(m: int) -> bool:
    m = abs(m)
    d = 2
    while d * d <= m:
        if m % (d * d) == 0:
            return False
        d += 1
    return m != 0


def holzer_no_point(a: int, b: int, c: int) -> bool:
    """True iff a x^2 + b y^2 + c z^2 = 0 has no nonzero integer point with
    |x| <= sqrt|bc|, |y| <= sqrt|ac|, |z| <= sqrt|ab|.  For squarefree,
    pairwise coprime coefficients Holzer's theorem says a point exists
    only if one exists within these bounds, so True proves anisotropy."""
    require(all(squarefree(t) for t in (a, b, c)),
            "Holzer bound needs squarefree coefficients")
    require(math.gcd(a, b) == math.gcd(b, c) == math.gcd(a, c) == 1,
            "Holzer bound needs pairwise coprime coefficients")
    bx, by, bz = (math.isqrt(abs(b * c)), math.isqrt(abs(a * c)),
                  math.isqrt(abs(a * b)))
    for x in range(bx + 1):
        for y in range(by + 1):
            for z in range(bz + 1):
                if (x, y, z) != (0, 0, 0) and a * x * x + b * y * y + c * z * z == 0:
                    return False
    return True


# ---------------------------------------------------------------------------
# a reader of the documented DSL grammar (docs/grammar.ebnf)
# ---------------------------------------------------------------------------

_LABEL = r"[A-Za-z][A-Za-z0-9_*']*"
_RAT = r"-?\d+(?:/\d+)?"
_TERM = re.compile(rf"\s*([+-])?\s*(?:({_RAT})\s*\*\s*)?({_LABEL}|0)\s*")


class Document:
    """Names, parities, bracket table, form and cochains of a DSL text,
    with every skew/symmetric completion applied."""

    def __init__(self):
        self.names: list[str] = []
        self.par: list[int] = []
        self.table: dict = {}
        self.gram: dict | None = None
        self.cochain2: dict[str, dict] = {}
        self.scalar2: dict[str, dict] = {}

    def idx(self, label: str) -> int:
        return self.names.index(label)

    def raw(self) -> Raw:
        return Raw(self.par, self.table, self.gram, self.names)

    def dense_cochain2(self, name: str) -> list:
        n = len(self.names)
        w = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for (i, j, k), q in self.cochain2[name].items():
            w[i][j][k] = q
        return w

    def dense_scalar2(self, name: str) -> list:
        n = len(self.names)
        phi = [[ZERO] * n for _ in range(n)]
        for (i, j), q in self.scalar2[name].items():
            phi[i][j] = q
        return phi


def _lincomb(doc: Document, text: str) -> dict:
    out: dict = {}
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TERM.match(text, pos)
        require(m is not None and m.end() > pos, f"bad linear combination {text!r}")
        sign, coeff, label = m.groups()
        pos = m.end()
        if label == "0":
            continue
        q = Fraction(coeff) if coeff else ONE
        if sign == "-":
            q = -q
        k = doc.idx(label)
        out[k] = out.get(k, ZERO) + q
    return {k: q for k, q in out.items() if q != 0}


def read_document(text: str) -> Document:
    doc = Document()
    basis_re = re.compile(rf"({_LABEL}):(even|odd)")
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        kw, _, rest = line.partition(" ")
        rest = rest.strip()
        if kw == "basis":
            for label, parity in basis_re.findall(rest):
                doc.names.append(label)
                doc.par.append(0 if parity == "even" else 1)
            continue
        if kw == "bracket":
            m = re.fullmatch(rf"\[\s*({_LABEL})\s*,\s*({_LABEL})\s*\]\s*=\s*(.*)", rest)
            require(m is not None, f"bad bracket line {line!r}")
            i, j = doc.idx(m.group(1)), doc.idx(m.group(2))
            v = _lincomb(doc, m.group(3))
            s = -sgn(doc.par[i] * doc.par[j])
            if v:
                doc.table[(i, j)] = dict(v)
                doc.table[(j, i)] = {k: s * q for k, q in v.items()}
            continue
        m = re.fullmatch(
            rf"({_LABEL})\s*\(\s*({_LABEL})\s*,\s*({_LABEL})\s*(?:[;,]\s*({_LABEL})\s*)?\)\s*=\s*({_RAT})",
            rest)
        require(m is not None, f"bad statement {line!r}")
        name, a, b, c, q = m.groups()
        i, j, q = doc.idx(a), doc.idx(b), Fraction(q)
        pi, pj = doc.par[i], doc.par[j]
        if kw == "form":
            doc.gram = doc.gram or {}
            doc.gram[(i, j)] = q
            doc.gram[(j, i)] = sgn(pi * pj) * q
        elif kw == "cochain2":
            k = doc.idx(c)
            entries = doc.cochain2.setdefault(name, {})
            entries[(i, j, k)] = q
            entries[(j, i, k)] = -sgn(pi * pj) * q
        elif kw == "scalar2":
            entries = doc.scalar2.setdefault(name, {})
            entries[(i, j)] = q
            entries[(j, i)] = -sgn(pi * pj) * q
        elif kw != "cochain3":
            raise OracleError(f"unknown statement {kw!r}")
    return doc
