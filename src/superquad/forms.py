"""Even supersymmetric bilinear forms, invariance, isotropy and the
Witt-style isotropic complement.

An even form pairs equal parities only; supersymmetry means
B(x, y) = (-1)^{|x||y|} B(y, x), so the odd-odd block is antisymmetric
and every odd homogeneous vector is automatically isotropic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cohomology import store_free_entries
from .errors import (DimensionMismatch, FormError, PreconditionError)
from .linalg import (HALF, RowReducer, Vec, ZERO, integer_rows, inverse, mat,
                     mat_mul, mat_vec, transpose, vec_sub)
from .superalgebra import (GradedBasis, LieSuperalgebra, Subspace, failing,
                           graded_complement, require_axioms, sgn, subspace)


@dataclass(frozen=True)
class EvenForm:
    """Even supersymmetric bilinear form, stored as its nonzero values on
    the free coordinates: coords[(i, j)] = B(e_i, e_j) for i <= j of equal
    parity, where only an even index may repeat (supersymmetric
    :func:`~superquad.cohomology.canon`).

    Construction also derives the sparse rows, ``_rows[i] = ((j,
    B(e_i, e_j)), ...)`` over the nonzero entries, ascending j, and
    pairings walk them: a T*-extension's form has a single nonzero per
    row, so a dense product would mostly multiply zeros.
    """

    basis: GradedBasis
    coords: dict
    _rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        store_free_entries(self, 2, symmetric=True, error=FormError)
        p = self.basis.parities
        rows: list[list] = [[] for _ in range(self.dim)]
        # sorted keys reach row i first from (j, i), j < i, then from (i, j)
        for (i, j), q in self.coords.items():
            rows[i].append((j, q))
            if i != j:
                rows[j].append((i, sgn(p[i]) * q))
        object.__setattr__(self, "_rows", tuple(map(tuple, rows)))

    @property
    def dim(self) -> int:
        return self.basis.dim

    def apply(self, x: Vec, y: Vec) -> Fraction:
        """B(x, y), summed over the nonzeros of x and of the rows."""
        rows = self._rows
        if len(x) != len(rows) or len(y) != len(rows):
            raise DimensionMismatch("vectors do not match the basis")
        acc = ZERO
        for i, xi in enumerate(x):
            if xi != 0:
                s = ZERO
                for j, q in rows[i]:
                    yj = y[j]
                    if yj != 0:
                        s += q * yj
                if s != 0:
                    acc += xi * s
        return acc


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
    sparse rows."""
    red = RowReducer(B.dim)
    for row in B._rows:
        red.add(dict(row))
    return red.kernel()


def is_nondegenerate(B: EvenForm) -> bool:
    return not radical(B)


def invariance_violation(g: LieSuperalgebra, B: EvenForm):
    """First basis triple with B([e_i,e_j],e_k) != B(e_i,[e_j,e_k]), or None.
    Each nonzero product of the table with the rows of B, both scaled to
    ints (the identity has degree 1 in each), is scattered into the
    {k: difference} of its pair (i, j); the least failing pair wins, with
    its least k."""
    p = g.basis.parities
    _, entries = g.integer_table
    _, rows = integer_rows(B._rows)
    acc: dict = {}
    for i, j, e in entries:
        out = acc.setdefault((i, j), {})
        for m, q in e:
            for k, r in rows[m]:
                out[k] = out.get(k, 0) + q * r
    for j, k, e in entries:
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
    """w^perp = {v : B(v, u) = 0 for all u in w}."""
    red = RowReducer(B.dim)
    for u in w.vectors:
        red.add(tuple(sum((q * u[j] for j, q in row if u[j] != 0), ZERO)
                      for row in B._rows))
    return subspace(B.basis, red.kernel())


def is_totally_isotropic(B: EvenForm, w: Subspace) -> bool:
    return all(B.apply(u, v) == 0 for u in w.vectors for v in w.vectors)


def isotropic_complement(B: EvenForm, iso: Subspace) -> Subspace:
    """Graded totally isotropic complement of a Lagrangian subspace.

    Requires B nondegenerate and iso graded totally isotropic with
    iso = iso^perp (so the ambient dimension is even).  Starting from a
    greedy graded complement W, the correction h: W -> iso with
    B(h(w), w') = 1/2 B(w, w') makes C = {w - h(w)} totally isotropic;
    the 1/2 needs characteristic != 2, automatic over the rationals.
    """
    n = B.dim
    if not is_nondegenerate(B):
        raise PreconditionError("form must be nondegenerate")
    if 2 * iso.dim != n:
        raise PreconditionError(
            f"subspace has dimension {iso.dim}, expected {n // 2}")
    if not is_totally_isotropic(B, iso):
        raise PreconditionError("subspace is not totally isotropic")
    comp = graded_complement(B.basis, iso)
    corrected = []
    for p in (0, 1):
        w_rows = [v for v, pv in zip(comp.vectors, comp.parities) if pv == p]
        i_rows = [v for v, pv in zip(iso.vectors, iso.parities) if pv == p]
        if len(w_rows) != len(i_rows):
            raise PreconditionError(
                "isotropic subspace is not half-dimensional in each parity")
        if not w_rows:
            continue
        # pairing matrix M[u][b] = B(iso_u, w_b) is invertible here;
        # h(w_a) = sum_u x_u iso_u with x = (M^T)^-1 (1/2 B(w_a, w_b))_b
        h = mat_mul(transpose(i_rows), inverse(mat(
            [[B.apply(u, w) for u in i_rows] for w in w_rows])))
        for w_a in w_rows:
            corrected.append(vec_sub(w_a, mat_vec(
                h, [HALF * B.apply(w_a, w_b) for w_b in w_rows])))
    out = subspace(B.basis, corrected)
    if not (out.dim == iso.dim and is_totally_isotropic(B, out)):
        raise PreconditionError("isotropic complement construction failed")
    return out


@dataclass(frozen=True)
class QuadraticLieSuperalgebra:
    """Lie superalgebra with an invariant scalar product."""

    algebra: LieSuperalgebra
    form: EvenForm

    def __post_init__(self):
        if self.form.basis != self.algebra.basis:
            raise DimensionMismatch("form and algebra bases differ")
        if not is_nondegenerate(self.form):
            raise FormError("scalar product must be nondegenerate")
        w = invariance_violation(self.algebra, self.form)
        if w is not None:
            raise FormError("scalar product is not invariant", witness=w)
        if self.algebra.basis.odd_dim % 2 != 0:
            # a nondegenerate antisymmetric odd-odd block forces this
            raise FormError("odd part of a quadratic superalgebra must have "
                            "even dimension")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def basis(self) -> GradedBasis:
        return self.algebra.basis


def quadratic(algebra: LieSuperalgebra, form: EvenForm,
              check_algebra: bool = True) -> QuadraticLieSuperalgebra:
    if check_algebra:
        require_axioms(algebra)
    return QuadraticLieSuperalgebra(algebra, form)
