"""Even supersymmetric bilinear forms, invariance, isotropy and the
Witt-style isotropic complement.

An even form pairs equal parities only; supersymmetry means
B(x, y) = (-1)^{|x||y|} B(y, x), so the odd-odd block is antisymmetric
and every odd homogeneous vector is automatically isotropic.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (DimensionMismatch, FormError, InternalCheckError,
                     PreconditionError)
from .linalg import (HALF, Mat, Record, RowReducer, Vec, ZERO, integer_rows,
                     lincomb, mat, nonzeros)
from .superalgebra import (GradedBasis, LieSuperalgebra, Subspace, failing,
                           graded_complement, require_axioms, sgn,
                           store_free_entries, subspace)


class EvenForm(Record):
    """Even supersymmetric bilinear form, stored as its nonzero values on
    the free coordinates: coords[(i, j)] = B(e_i, e_j) for i <= j of equal
    parity, where only an even index may repeat (supersymmetric
    :func:`~superquad.superalgebra.canon`).

    Construction also derives the int rows every pairing reads,
    ``integer_gram = (f, rows)``, rows[i] = ((j, f B(e_i, e_j)), ...) over
    the nonzeros, ascending j, f the lcd of the entries: a T*-extension's
    form has a single nonzero per row, so a dense product would mostly
    multiply zeros.
    """

    basis: GradedBasis
    coords: dict

    def __post_init__(self):
        store_free_entries(self, 2, symmetric=True, error=FormError)
        p = self.basis.parities
        f, (entries,) = integer_rows([self.coords.items()])
        rows: list[list] = [[] for _ in range(self.dim)]
        # sorted keys reach row i first from (j, i), j < i, then from (i, j)
        for (i, j), q in entries:
            rows[i].append((j, q))
            if i != j:
                rows[j].append((i, sgn(p[i]) * q))
        object.__setattr__(self, "integer_gram", (f, tuple(map(tuple, rows))))

    @property
    def dim(self) -> int:
        return self.basis.dim

    def image(self, y: Vec | dict) -> dict[int, Fraction]:
        """The covector B(-, y) as {a: B(e_a, y)} over its nonzeros, for y
        dense or a {k: c} dict, from :func:`_int_images`."""
        d, (out,) = _int_images(self, [y])
        return {a: Fraction(c, d) for a, c in out.items()}

    def apply(self, x: Vec | dict, y: Vec | dict) -> Fraction:
        """B(x, y), summed over :meth:`image` of y."""
        return gram(self, [x], [y])[0][0]


def _int_images(B: EvenForm, ys) -> tuple[int, list[dict]]:
    """(f d, [d f B(-, y) for y in ys]) with d the lcd of the entries of
    the ys, each covector the int sum of d y_j f B(e_a, e_j) =
    (-1)^{|j|} d y_j f B(e_j, e_a) over the nonzeros y_j, as B is even."""
    p = B.basis.parities
    f, rows = B.integer_gram
    d, ys = integer_rows(nonzeros(y, B.dim).items() for y in ys)
    return f * d, [lincomb((-c if p[j] else c, rows[j]) for j, c in y)
                   for y in ys]


def gram(B: EvenForm, rows, cols) -> Mat:
    """The matrix [[B(u, v) for v in cols] for u in rows], for vectors
    dense or {k: c} dicts: each entry the int sum of the scaled nonzeros
    of u against the int covectors of :func:`_int_images`, divided once."""
    e, images = _int_images(B, cols)
    d, rows = integer_rows(nonzeros(u, B.dim).items() for u in rows)
    return tuple(tuple(Fraction(x, d * e) if (x := sum(
        c * im[a] for a, c in u if a in im)) else ZERO for im in images)
        for u in rows)


def even_form(basis: GradedBasis, gram) -> EvenForm:
    """The form with the dense Gram matrix G[i][j] = B(e_i, e_j).  G must
    be even and supersymmetric; that can fail at (i, j) only where G[i][j]
    or G[j][i] is nonzero, and the first such failure is the witness."""
    G = mat(gram)
    n = basis.dim
    if len(G) != n or any(len(r) != n for r in G):
        raise DimensionMismatch("Gram matrix must be dim x dim")
    nz = {(i, j): q for i, row in enumerate(G) for j, q in enumerate(row)
          if q != 0}
    p = basis.parities
    for i, j in sorted(nz.keys() | {(j, i) for i, j in nz}):
        q = nz.get((i, j), ZERO)
        if p[i] != p[j] and q != 0:
            raise FormError("form is not even", witness=(i, j))
        if q != sgn(p[i] * p[j]) * nz.get((j, i), ZERO):
            raise FormError("form is not supersymmetric", witness=(i, j))
    return EvenForm(basis, {key: q for key, q in nz.items()
                            if key[0] <= key[1]})


def radical(B: EvenForm) -> list[Vec]:
    """Basis of {v : B(e_i, v) = 0 for all i}, from one reduction of the
    integer rows."""
    return RowReducer(B.dim, map(dict, B.integer_gram[1])).kernel()


def invariance_violation(g: LieSuperalgebra, B: EvenForm):
    """First basis triple with B([e_i,e_j],e_k) != B(e_i,[e_j,e_k]), or None.
    Each nonzero product of the integer table with the integer rows of B
    (the identity has degree 1 in each) is scattered into the
    {k: difference} of its pair (i, j); the least failing pair wins, with
    its least k."""
    p = g.basis.parities
    _, table = g.integer_table
    _, rows = B.integer_gram
    acc: dict = {}
    for (i, j), e in table.items():
        out = acc.setdefault((i, j), {})
        for m, q in e:
            for k, r in rows[m]:
                out[k] = out.get(k, 0) + q * r
    for (j, k), e in table.items():
        for m, q in e:
            q = -q if p[m] else q  # B(e_i, e_m) = (-1)^{|m|} B(e_m, e_i)
            for i, r in rows[m]:
                out = acc.setdefault((i, j), {})
                out[k] = out.get(k, 0) - r * q
    bad = failing(acc)
    if not bad:
        return None
    return (*bad[0], min(k for k, v in acc[bad[0]].items() if v))


def is_invariant(g: LieSuperalgebra, B: EvenForm) -> bool:
    return invariance_violation(g, B) is None


def orthogonal(B: EvenForm, w: Subspace) -> Subspace:
    """w^perp: the whole space met with ker B(-, u) for w's int rows u."""
    red = RowReducer.identity(B.dim)
    for u in w.reducer.int_rows.values():
        red.meet(B.image(u))
    return Subspace(B.basis, red)


def is_totally_isotropic(B: EvenForm, w: Subspace) -> bool:
    return not any(map(any, gram(B, w.rows, w.rows)))


def isotropic_complement(B: EvenForm, iso: Subspace) -> Subspace:
    """Graded totally isotropic complement of a Lagrangian subspace.

    Requires B nondegenerate and iso graded, half-dimensional and totally
    isotropic; a PreconditionError for either of the last two carries
    both witnesses, ``dims`` and ``pair`` (docs/conventions.md,
    "Verification").  Starting from a greedy graded complement W, the
    correction h: W -> iso with B(h(w), w') = 1/2 B(w, w') makes
    C = {w - h(w)} totally isotropic; the 1/2 needs characteristic != 2,
    automatic over the rationals.  Per parity, with pairing matrix
    M[u][b] = B(iso_u, w_b), one reducer of the rows [M[u] | iso_u]
    reduces [1/2 B(w_a, w_b) for b | w_a] to [0 | w_a - h(w_a)]; B is
    nondegenerate iff each M is square with every pivot in M.
    """
    n, vs = B.dim, iso.vectors
    dims = None if 2 * iso.dim == n else (iso.dim, n)
    pair = next(((u, v) for u, row in zip(vs, gram(B, iso.rows, iso.rows))
                 for v, q in zip(vs, row) if q), None)
    if dims or pair:
        raise PreconditionError(
            f"subspace has dimension {iso.dim}, expected half of {n}" if dims
            else "subspace is not totally isotropic", dims=dims, pair=pair)
    comp = graded_complement(B.basis, iso)
    corrected = []
    for p in (0, 1):
        w_rows = [v for v, pv in zip(comp.rows, comp.parities) if pv == p]
        i_rows = [v for v, pv in zip(iso.rows, iso.parities) if pv == p]
        k = len(w_rows)
        pairs = gram(B, i_rows + w_rows, w_rows)
        red = RowReducer(k + n, (
            {**{b: q for b, q in enumerate(row) if q},
             **{k + c: q for c, q in i_u.items()}}
            for row, i_u in zip(pairs, i_rows)))
        if k != len(i_rows) or any(c >= k for c in red.pivots):
            raise PreconditionError("form must be nondegenerate")
        for w_a, row in zip(w_rows, pairs[k:]):
            r = red.reduce({**{b: HALF * q for b, q in enumerate(row) if q},
                            **{k + c: q for c, q in w_a.items()}})
            corrected.append({c - k: q for c, q in r.items()})
    out = subspace(B.basis, corrected)
    if not (out.dim == iso.dim and is_totally_isotropic(B, out)):
        raise InternalCheckError("isotropic complement construction failed")
    return out


class QuadraticLieSuperalgebra(Record):
    """Lie superalgebra with an invariant scalar product; construction
    checks Jacobi (AxiomError), then the form: a FormError carries the
    first radical vector and the invariance triple, each or None
    (docs/conventions.md, "Verification")."""

    algebra: LieSuperalgebra
    form: EvenForm

    def __post_init__(self):
        if self.form.basis != self.algebra.basis:
            raise DimensionMismatch("form and algebra bases differ")
        require_axioms(self.algebra)
        ker = radical(self.form)
        w = invariance_violation(self.algebra, self.form)
        if ker or w is not None:
            raise FormError("scalar product must be nondegenerate" if ker
                            else "scalar product is not invariant",
                            radical=ker[0] if ker else None, witness=w)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def basis(self) -> GradedBasis:
        return self.algebra.basis


quadratic = QuadraticLieSuperalgebra  # the older name, kept for bench/
