"""Structure theory: maximal totally isotropic graded ideals of
nilpotent (or class-conditioned solvable) quadratic Lie superalgebras,
and their presentation as T*-extensions (even total dimension) or as
codimension-1 nondegenerate ideals of one (odd total dimension).

Everything is computed over exact rationals.  The underlying theorems
hold over an algebraically closed field; two steps can genuinely need
points that do not exist over Q (an isotropic vector of an anisotropic
rational quadric, or an eigenvalue of an irrational characteristic
polynomial).  Those failures raise :class:`RationalPointNotFound` with
an explicit certificate instead of returning a short flag.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .dsl import signed_sum
from .errors import (InternalCheckError, PreconditionError,
                     RationalPointNotFound)
from .forms import (EvenForm, QuadraticLieSuperalgebra, is_totally_isotropic,
                    orthogonal, quadratic)
from .gallery import orthogonal_direct_sum
from .isotropy import isotropic_point
from .linalg import (Mat, RowReducer, Vec, ZERO, charpoly,
                     diagonalize_symmetric, frac, kernel, mat, mat_vec, rank,
                     rational_roots, transpose, unit_vec, vec_is_zero)
from .superalgebra import (EVEN, ODD, LieSuperalgebra, Subspace, abelian,
                           ad_images, bracket, class_condition,
                           derived_subspace, extend_subspace,
                           graded_complement, is_ideal, is_nilpotent,
                           is_solvable, subspace, zero_subspace)
from .tstar import TStarExtension, quadratic_morphism_violation, recognize

_QUADRIC_VARS = ("x", "y", "z", "w")


def _quadric_string(diag: tuple[Fraction, ...]) -> str:
    return signed_sum((d, (_QUADRIC_VARS[r] if r < len(_QUADRIC_VARS)
                            else f"x{r}") + "^2") for r, d in enumerate(diag))


def _poly_string(coeffs: tuple[Fraction, ...]) -> str:
    n = len(coeffs) - 1
    return signed_sum((c, {0: "", 1: "t"}.get(n - i, f"t^{n - i}"))
                       for i, c in enumerate(coeffs))


def isotropic_vector(gram: Mat, parities: tuple[int, ...], *,
                     certify: bool = False) -> Vec | None:
    """A nonzero isotropic vector for the Gram matrix: an odd coordinate
    vector, a raw even basis vector with zero diagonal, a zero entry of
    the congruence-diagonalized even block, or else the point that
    :func:`isotropy.isotropic_point` decides and builds.  None when there
    is none over Q; with ``certify``, RationalPointNotFound carrying the
    diagonalized quadric and its obstruction instead."""
    k = len(gram)
    odd = [r for r in range(k) if parities[r] == ODD]
    if odd:
        return unit_vec(k, odd[0])
    for r in range(k):
        if gram[r][r] == 0:
            return unit_vec(k, r)
    P, diag = diagonalize_symmetric(gram)
    for r, d in enumerate(diag):
        if d == 0:
            return P[r]
    point, obstruction = isotropic_point(diag)
    if point is not None:
        return mat_vec(transpose(P), point)
    if certify:
        raise RationalPointNotFound(
            "the even quadric has no rational isotropic vector",
            quadric=diag, quadric_str=_quadric_string(diag),
            obstruction=obstruction)
    return None


@dataclass(frozen=True)
class IsotropicFlagResult:
    """Flag of graded totally isotropic ideals grown one dimension at a
    time up to floor(dim/2)."""

    w_max: Subspace
    chain: tuple[Subspace, ...]
    achieved_dim: int


@dataclass(frozen=True)
class Decomposition:
    """Presentation of a quadratic superalgebra through a T*-extension.

    In the even-dimensional case ``embedding`` is onto; in the odd case
    its image is a graded nondegenerate ideal of codimension 1.
    """

    ideal: Subspace
    quotient: LieSuperalgebra
    extension: TStarExtension
    embedding: Mat
    parity_case: str  # "even" or "odd"


class _Coordinates:
    """Coordinates in the span of independent rows, factored once.

    Each row r_t is reduced once as [r_t | e_t].  Reducing [v | 0]
    against them then leaves [v - sum_p v[p] R_p | -x], with R_p the RREF
    row of the span at pivot p and x the coordinates of v; v is in the
    span exactly when the first part vanishes.
    """

    def __init__(self, rows):
        self._n = n = len(rows[0]) if rows else 0
        self._pad = (ZERO,) * len(rows)
        self._red = RowReducer(n + len(rows))
        for t, row in enumerate(rows):
            self._red.add((*row, *unit_vec(len(rows), t)))
        if any(p >= n for p in self._red.int_rows):
            raise InternalCheckError("spanning rows are dependent")

    def of(self, v: Vec) -> Vec | None:
        """Coordinates of v, or None if v is not in the span."""
        r = self._red.reduce((*v, *self._pad))
        if any(c < self._n for c in r):
            return None
        x = list(self._pad)
        for c, q in r.items():
            x[c - self._n] = -q
        return tuple(x)


class _InducedSpace:
    """The subquotient V' = W^perp / W with its induced action and form.

    The spanning rows [reps | W basis] are independent and factored
    once; ``project`` reads V'-coordinates off that factorization.
    """

    def __init__(self, q: QuadraticLieSuperalgebra, w: Subspace):
        self.q = q
        self.w = w
        wperp = orthogonal(q.form, w)
        if not wperp.contains(w):
            raise InternalCheckError("flag subspace is not isotropic")
        comp = graded_complement(q.basis, w, within=wperp)
        self.rep_vectors = comp.vectors          # lifts of the V' basis
        self.parities = comp.parities
        self.dim = len(self.rep_vectors)
        self._coords = _Coordinates(tuple(self.rep_vectors) + tuple(w.vectors))

    def project(self, v: Vec) -> Vec:
        """V'-coordinates of a vector of W^perp."""
        if self.dim == 0:
            return ()
        x = self._coords.of(v)
        if x is None:
            raise InternalCheckError("vector is not in W^perp")
        return x[:self.dim]

    def lift(self, u: Vec) -> Vec:
        return mat_vec(transpose(self.rep_vectors), u)

    def action(self, x: Vec, space: list[Vec]) -> Mat:
        """Matrix of the induced action of x on the span of the independent
        V'-vectors ``space`` (columns = images), which must be invariant."""
        coords = _Coordinates(space)
        cols = []
        for s in space:
            c = coords.of(self.project(bracket(self.q.algebra, x,
                                               self.lift(s))))
            if c is None:
                raise InternalCheckError(
                    "span is not invariant under the induced action")
            cols.append(c)
        return transpose(mat(cols)) if cols else ()

    def invariants(self) -> list[Vec]:
        """The g-invariants of V', as U / W for U = (W + [g, W^perp])^perp;
        W is an ideal, so the images of the lifts suffice.  The basis is
        the one the stacked induced operators give (docs/conventions.md)."""
        q = self.q
        images = filter(None, ad_images(q.algebra, self.rep_vectors))
        span = subspace(q.basis, itertools.chain(self.w.vectors, images))
        red, annihilator = RowReducer(self.dim), RowReducer(self.dim)
        for u in orthogonal(q.form, span).vectors:
            red.add(self.project(u))
        for v in red.kernel():
            annihilator.add(v)
        return annihilator.kernel()

    def induced_gram_on(self, rows: list[Vec]) -> Mat:
        lifts = [self.lift(r) for r in rows]
        return mat([[self.q.form.apply(u, v) for v in lifts] for u in lifts])


def _row_parity(parities, v: Vec) -> int:
    """The parity of a nonzero homogeneous vector of V'; the kernels the
    flag step reads are homogeneous (docs/conventions.md, "Flag step")."""
    found = {parities[r] for r, c in enumerate(v) if c}
    if len(found) != 1:
        raise InternalCheckError("vector of V' is not homogeneous",
                                 witness=v)
    return found.pop()


def _solvable_isotropic_eigvector(q: QuadraticLieSuperalgebra,
                                  ind: _InducedSpace):
    """Isotropic joint eigenvector (in V'-coords) of the induced action
    of a solvable algebra satisfying the class condition.

    Restricts to the subspace killed by the odd part and the derived
    algebra (where the remaining even operators commute), then descends
    through their rational eigenspaces, backtracking over eigenvalue
    choices; nonzero eigenvalues are tried first since a nonzero joint
    character makes every vector of the final eigenspace isotropic.
    Returns (vector or None, first irrational characteristic polynomial
    encountered or None).  Deterministic throughout.
    """
    g = q.algebra
    n = g.dim
    whole = [unit_vec(ind.dim, t) for t in range(ind.dim)]
    joint = RowReducer(ind.dim)
    for x in itertools.chain((unit_vec(n, i) for i in range(n)
                              if g.parity(i) == ODD),
                             derived_subspace(g).vectors):
        for row in ind.action(x, whole):
            joint.add(row)
    vpp = joint.kernel()
    if not vpp:
        return None, None
    evens = [unit_vec(n, i) for i in range(n) if g.parity(i) == EVEN]
    first_poly: list = [None]

    def leaf_pick(space: list[Vec]) -> Vec | None:
        par = tuple(_row_parity(ind.parities, v) for v in space)
        point = isotropic_vector(ind.induced_gram_on(space), par)
        if point is None:
            return None
        return mat_vec(transpose(space), point)

    def descend(space: list[Vec], k: int) -> Vec | None:
        if k == len(evens):
            return leaf_pick(space)
        op = ind.action(evens[k], space)
        if all(vec_is_zero(r) for r in op):
            return descend(space, k + 1)
        coeffs = charpoly(op)
        roots = rational_roots(coeffs)
        if not roots:
            if first_poly[0] is None:
                first_poly[0] = coeffs
            return None
        for lam in sorted(roots, key=lambda r: (r == 0, r)):
            shifted = tuple(
                tuple(op[r][s] - (lam if r == s else ZERO)
                      for s in range(len(space)))
                for r in range(len(space)))
            new_space = [mat_vec(transpose(space), u)
                         for u in kernel(shifted)]
            got = descend(new_space, k + 1)
            if got is not None:
                return got
        return None

    return descend(vpp, 0), first_poly[0]


def max_isotropic_ideal(q: QuadraticLieSuperalgebra) -> IsotropicFlagResult:
    """Grow a flag of graded totally isotropic ideals of q up to
    dimension floor(dim/2).

    Requires q nilpotent, or solvable with [g_odd, g_odd] inside
    [g_even, g_even].  Each step picks a homogeneous isotropic vector of
    the invariant subspace (or joint eigenspace) of W^perp / W; when the
    even part of that space is rationally anisotropic the search fails
    with the offending quadric.
    """
    g = q.algebra
    nilp = is_nilpotent(g)
    if not nilp:
        if not (is_solvable(g) and class_condition(g)):
            raise PreconditionError(
                "algebra must be nilpotent, or solvable with the odd-odd "
                "brackets inside the even-even brackets")
    n = q.dim
    target = n // 2
    w = zero_subspace(q.basis)
    chain = [w]
    while w.dim < target:
        ind = _InducedSpace(q, w)
        u_basis = ind.invariants()
        vprime = quadric_cert = None
        if u_basis:
            par = tuple(_row_parity(ind.parities, v) for v in u_basis)
            try:
                point = isotropic_vector(ind.induced_gram_on(u_basis), par,
                                         certify=True)
                vprime = mat_vec(transpose(u_basis), point)
            except RationalPointNotFound as exc:
                if nilp:
                    raise
                quadric_cert = exc
        elif nilp:
            raise InternalCheckError(
                "empty invariant subspace for a nilpotent action")
        if vprime is None:
            # solvable branch: a joint eigenvector with nonzero character
            # is isotropic even when the invariant subspace is not
            vprime, poly = _solvable_isotropic_eigvector(q, ind)
            if vprime is None:
                if quadric_cert is not None:
                    raise RationalPointNotFound(
                        "no rational isotropic vector found in the "
                        "invariant subspace, and no rational isotropic "
                        "joint eigenvector exists",
                        quadric=quadric_cert.quadric,
                        quadric_str=quadric_cert.quadric_str,
                        obstruction=quadric_cert.obstruction)
                if poly is not None:
                    raise RationalPointNotFound(
                        "characteristic polynomial of an induced operator "
                        "has no rational root", polynomial=poly,
                        polynomial_str=_poly_string(poly))
                raise RationalPointNotFound(
                    "the rational joint-eigenvector search failed")
        # a combination of rows of one parity, so homogeneous
        _row_parity(ind.parities, vprime)
        lift = ind.lift(vprime)
        if q.form.apply(lift, lift) != 0:
            raise InternalCheckError("selected vector is not isotropic")
        w = extend_subspace(w, lift)
        # step postconditions: graded by construction, one dimension up,
        # still isotropic and still an ideal
        if w.dim != chain[-1].dim + 1:
            raise InternalCheckError("flag dimension did not grow by one")
        if not is_totally_isotropic(q.form, w):
            raise InternalCheckError("flag member is not totally isotropic")
        if not is_ideal(g, w):
            raise InternalCheckError("flag member is not an ideal")
        chain.append(w)
    wperp = orthogonal(q.form, w)
    if n % 2 == 0:
        if not w.equals(wperp):
            raise InternalCheckError("maximal member differs from its "
                                     "orthogonal in even dimension")
    else:
        if not (wperp.contains(w) and wperp.dim == w.dim + 1):
            raise InternalCheckError("orthogonal of the maximal member is "
                                     "not one dimension bigger")
        if not all(map(w.contains_vector, ad_images(g, wperp.vectors))):
            raise InternalCheckError("action does not map the orthogonal "
                                     "of the maximal member into it")
    return IsotropicFlagResult(w, tuple(chain), w.dim)


def decompose(q: QuadraticLieSuperalgebra) -> Decomposition:
    """Present q as a T*-extension (even total dimension) or as a
    verified codimension-1 nondegenerate graded ideal of one (odd total
    dimension), along a maximal totally isotropic graded ideal."""
    flag = max_isotropic_ideal(q)
    iso = flag.w_max
    n = q.dim
    if n % 2 == 0:
        ext, psi = recognize(q, iso)
        return Decomposition(ideal=iso, quotient=ext.base, extension=ext,
                             embedding=psi, parity_case="even")

    # odd case: orthogonally adjoin a central even line t with
    # B(t, t) = -beta to make the enlarged ideal Lagrangian, then
    # recognize the enlarged algebra (docs/conventions.md, "Odd dimension")
    wperp = orthogonal(q.form, iso)
    d = next((v for v, p in zip(wperp.vectors, wperp.parities)
              if p == EVEN and not iso.contains_vector(v)), None)
    if d is None:
        raise InternalCheckError(
            "no even direction in W^perp beyond W in odd dimension")
    beta = q.form.apply(d, d)
    if beta == 0:
        raise InternalCheckError(
            "degenerate direction transverse to the maximal ideal")
    line = abelian(1, 0)
    qhat = orthogonal_direct_sum(q, quadratic(
        line, EvenForm(line.basis, {(0, 0): -beta}), check_algebra=False))
    N = n + 1
    iso_hat_vectors = [v + (ZERO,) for v in iso.vectors]
    iso_hat_vectors.append(tuple(d) + (frac(1),))  # d + t is isotropic
    iso_hat = subspace(qhat.basis, iso_hat_vectors)
    if not (is_totally_isotropic(qhat.form, iso_hat)
            and is_ideal(qhat.algebra, iso_hat)
            and 2 * iso_hat.dim == N):
        raise InternalCheckError("augmented ideal is not Lagrangian")
    ext, psi_hat = recognize(qhat, iso_hat)
    embedding = tuple(tuple(row[:n]) for row in psi_hat)
    _verify_codim1_embedding(q, ext, embedding)
    return Decomposition(ideal=iso, quotient=ext.base, extension=ext,
                         embedding=embedding, parity_case="odd")


_EMBEDDING_FAILURES = {
    "parity": "embedding is not even",
    "bracket": "embedding is not a bracket map",
    "form": "embedding is not an isometry",
}


def _verify_codim1_embedding(q: QuadraticLieSuperalgebra,
                             ext: TStarExtension, m: Mat) -> None:
    """The embedding must be injective, even, a bracket map, an isometry
    onto its image, and its image a graded nondegenerate ideal of
    codimension 1."""
    n = q.dim
    total = ext.total
    N = total.dim
    if rank(m) != n:
        raise InternalCheckError("embedding is not injective")
    # injective, so no column is zero and every column's parity is checked
    bad = quadratic_morphism_violation(q, total, m)
    if bad is not None:
        kind, witness = bad
        raise InternalCheckError(_EMBEDDING_FAILURES[kind], witness=witness)
    cols = [tuple(m[r][a] for r in range(N)) for a in range(n)]
    image = subspace(total.basis, cols)
    if image.dim != N - 1:
        raise InternalCheckError("image does not have codimension 1")
    if not is_ideal(total.algebra, image):
        raise InternalCheckError("image is not an ideal")
    gram = mat([[total.form.apply(u, v) for v in image.vectors]
                for u in image.vectors])
    if rank(gram) != image.dim:
        raise InternalCheckError("form is degenerate on the image")
