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
from fractions import Fraction

from .dsl import signed_sum
from .errors import (InternalCheckError, NotIdealError, PreconditionError,
                     RationalPointNotFound)
from .forms import EvenForm, QuadraticLieSuperalgebra, gram, orthogonal
from .gallery import orthogonal_direct_sum
from .isotropy import isotropic_point
from .linalg import (Coordinates, Mat, ONE, Record, RowReducer, Vec, ZERO,
                     charpoly, dense_vec, diagonalize_symmetric, kernel,
                     lincomb, nonzeros, rational_roots, unit_vec)
from .superalgebra import (EVEN, ODD, LieSuperalgebra, Subspace, abelian,
                           ad_images, class_condition, derived_subspace,
                           extend_subspace, graded_complement, is_ideal,
                           is_nilpotent, is_solvable, sparse_bracket,
                           subspace, zero_subspace)
from .tstar import TStarExtension, recognize, verify_isometry

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
        return dense_vec(lincomb(zip(point, map(enumerate, P))), k)
    if certify:
        raise RationalPointNotFound(
            "the even quadric has no rational isotropic vector",
            quadric=diag, quadric_str=_quadric_string(diag),
            obstruction=obstruction)
    return None


class IsotropicFlagResult(Record):
    """Flag of graded totally isotropic ideals grown one dimension at a
    time up to floor(dim/2)."""

    w_max: Subspace
    chain: tuple[Subspace, ...]
    achieved_dim: int


class Decomposition(Record):
    """Presentation of a quadratic superalgebra through a T*-extension.

    In the even-dimensional case ``embedding`` is onto; in the odd case
    its image is a graded nondegenerate ideal of codimension 1.
    """

    ideal: Subspace
    quotient: LieSuperalgebra
    extension: TStarExtension
    embedding: Mat
    parity_case: str  # "even" or "odd"


class _InducedSpace:
    """The subquotient V' = W^perp / W with its induced action and form.

    Vectors of V' are {t: c} dicts of V'-coordinates, and ambient ones
    {k: c} dicts; each method also takes dense ones.  The spanning rows
    [reps | W basis] are independent and factored once; ``project`` reads
    V'-coordinates off that factorization.
    """

    def __init__(self, q: QuadraticLieSuperalgebra, w: Subspace):
        self.q = q
        self.w = w
        wperp = orthogonal(q.form, w)
        if not wperp.contains(w):
            raise InternalCheckError("flag subspace is not isotropic")
        comp = graded_complement(q.basis, w, within=wperp)
        self.reps = comp.rows          # lifts of the V' basis
        self.parities = comp.parities
        self.dim = comp.dim
        self._coords = Coordinates(q.dim, self.reps + w.rows)

    def project(self, v: Vec | dict) -> dict:
        """V'-coordinates of a vector of W^perp."""
        x = self._coords.of(v)
        if x is None:
            raise InternalCheckError("vector is not in W^perp")
        return {t: c for t, c in x.items() if t < self.dim}

    def lift(self, u: Vec | dict) -> dict:
        """The ambient vector sum_t u_t reps[t]."""
        return lincomb((c, self.reps[t].items())
                       for t, c in nonzeros(u, self.dim).items())

    def action(self, x: Vec | dict, space: list) -> Mat:
        """Matrix of the induced action of x on the span of the independent
        V'-vectors ``space`` (columns = images), which must be invariant."""
        coords = Coordinates(self.dim, space)
        cols = []
        for s in space:
            c = coords.of(self.project(sparse_bracket(self.q.algebra, x,
                                                      self.lift(s))))
            if c is None:
                raise InternalCheckError(
                    "span is not invariant under the induced action")
            cols.append(c)
        return tuple(tuple(c.get(r, ZERO) for c in cols)
                     for r in range(len(space)))

    def invariants(self) -> list[dict]:
        """The g-invariants of V', as U / W for U = (W + [g, W^perp])^perp;
        W is an ideal, so the images of the lifts suffice.  The basis is
        the one the stacked induced operators give (docs/conventions.md)."""
        q = self.q
        images = filter(None, ad_images(q.algebra, self.reps))
        span = subspace(q.basis, itertools.chain(self.w.rows, images))
        red = RowReducer(self.dim, map(self.project,
                                       orthogonal(q.form, span).rows))
        return RowReducer(self.dim, red.sparse_kernel()).sparse_kernel()

    def induced_gram_on(self, rows: list) -> Mat:
        lifts = [self.lift(r) for r in rows]
        return gram(self.q.form, lifts, lifts)


def _combination(x, space: list[dict]) -> dict:
    """sum_t x_t space[t] for coefficients x given densely."""
    return lincomb(zip(x, (v.items() for v in space)))


def _row_parity(parities, v: Vec | dict) -> int:
    """The parity of a nonzero homogeneous vector of V'; the kernels the
    flag step reads are homogeneous (docs/conventions.md, "Flag step")."""
    found = {parities[r] for r in nonzeros(v, len(parities))}
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
    whole = [{t: ONE} for t in range(ind.dim)]
    xs = itertools.chain(({i: ONE} for i in range(n) if g.parity(i) == ODD),
                         derived_subspace(g).rows)
    vpp = RowReducer(ind.dim, (row for x in xs for row in
                               ind.action(x, whole))).sparse_kernel()
    if not vpp:
        return None, None
    evens = [{i: ONE} for i in range(n) if g.parity(i) == EVEN]
    first_poly: list = [None]

    def leaf_pick(space: list[dict]) -> dict | None:
        par = tuple(_row_parity(ind.parities, v) for v in space)
        point = isotropic_vector(ind.induced_gram_on(space), par)
        return None if point is None else _combination(point, space)

    def descend(space: list[dict], k: int) -> dict | None:
        if k == len(evens):
            return leaf_pick(space)
        op = ind.action(evens[k], space)
        if not any(map(any, op)):
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
            new_space = [_combination(u, space) for u in kernel(shifted)]
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
                vprime = _combination(point, u_basis)
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
        # step postconditions: graded, one dimension up and an ideal; the
        # next _InducedSpace, or the test after the loop, checks isotropy
        if w.dim != chain[-1].dim + 1:
            raise InternalCheckError("flag dimension did not grow by one")
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
        if not all(map(w.contains_vector, ad_images(g, wperp.rows))):
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
    d = next((v for v, p in zip(wperp.rows, wperp.parities)
              if p == EVEN and not iso.contains_vector(v)), None)
    if d is None:
        raise InternalCheckError(
            "no even direction in W^perp beyond W in odd dimension")
    beta = q.form.apply(d, d)
    if beta == 0:
        raise InternalCheckError(
            "degenerate direction transverse to the maximal ideal")
    line = abelian(1, 0)
    qhat = orthogonal_direct_sum(q, QuadraticLieSuperalgebra(
        line, EvenForm(line.basis, {(0, 0): -beta})))
    # d + t is isotropic, so recognize finds iso_hat a Lagrangian ideal
    iso_hat = subspace(qhat.basis, [*iso.rows, {**d, n: ONE}])
    try:
        ext, psi_hat = recognize(qhat, iso_hat)
    except (NotIdealError, PreconditionError) as exc:
        raise InternalCheckError(
            f"augmented ideal is not Lagrangian: {exc}") from exc
    embedding = tuple(tuple(row[:n]) for row in psi_hat)
    verify_isometry(q, ext.total, embedding, what="embedding")
    return Decomposition(ideal=iso, quotient=ext.base, extension=ext,
                         embedding=embedding, parity_case="odd")

