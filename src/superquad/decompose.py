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
import math
from fractions import Fraction

from .dsl import signed_sum
from .errors import (InternalCheckError, NotIdealError, PreconditionError,
                     RationalPointNotFound)
from .forms import (EvenForm, QuadraticLieSuperalgebra, gram,
                    is_totally_isotropic)
from .gallery import orthogonal_direct_sum
from .isotropy import isotropic_point
from .linalg import (Coordinates, Mat, ONE, Record, RowReducer, Vec, ZERO,
                     charpoly, dense_vec, diagonalize_symmetric, kernel,
                     lincomb, nonzeros, rational_roots, unit_vec)
from .superalgebra import (EVEN, ODD, LieSuperalgebra, Subspace, abelian,
                           ad_images, class_condition, extend_subspace,
                           is_solvable, lower_central_series, sparse_bracket,
                           subspace, zero_subspace)
from .tstar import TStarExtension, recognize

_QUADRIC_VARS = ("x", "y", "z", "w")


def _quadric_string(diag: tuple[Fraction, ...]) -> str:
    return signed_sum((d, (_QUADRIC_VARS[r] if r < len(_QUADRIC_VARS)
                            else f"x{r}") + "^2") for r, d in enumerate(diag))


def _poly_string(coeffs: tuple[Fraction, ...]) -> str:
    n = len(coeffs) - 1
    return signed_sum((c, {0: "", 1: "t"}.get(n - i, f"t^{n - i}"))
                       for i, c in enumerate(coeffs))


def isotropic_vector(gram: Mat, *, certify: bool = False) -> Vec | None:
    """A nonzero isotropic vector for the Gram matrix of even vectors (an
    odd one goes first, in :meth:`_InducedSpace.isotropic`): a raw basis
    vector with zero diagonal, a zero entry of the diagonalized matrix, or
    the point that :func:`isotropy.isotropic_point` decides and builds.
    None when there is none over Q; with ``certify``,
    RationalPointNotFound carrying the quadric and its obstruction."""
    k = len(gram)
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
    time up to floor(dim/2), with the orthogonal of its last member."""

    w_max: Subspace
    w_perp: Subspace
    chain: tuple[Subspace, ...]


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
    {k: c} dicts; each method also takes dense ones.  A vector of W^perp
    is read modulo W, by its residual against W's RREF rows, which is 0
    exactly on W (docs/conventions.md, "Flag step").
    """

    def __init__(self, q: QuadraticLieSuperalgebra, w: Subspace,
                 wperp: Subspace):
        self.q, self.w = q, w
        acc = w.reducer.copy()
        # lifts of the V' basis: W^perp's RREF rows off W, still an RREF
        self.reps = tuple(v for v in wperp.rows if acc.add(v))
        self.parities = tuple(q.basis.parities[min(v)] for v in self.reps)
        self.dim = len(self.reps)
        e = self.parities.count(EVEN)  # the reps of each parity
        self.even, self.odd = slice(0, e), slice(e, None)

    def lift(self, u: Vec | dict) -> dict:
        """The ambient vector sum_t u_t reps[t]."""
        return lincomb((c, self.reps[t].items())
                       for t, c in nonzeros(u, self.dim).items())

    def action(self, x: Vec | dict, space: list) -> Mat:
        """Matrix of the induced action of x on the span of the independent
        V'-vectors ``space`` (columns = images), which must be invariant:
        each image's residual modulo W in the coordinates of the lifts'
        residuals, factored once."""
        lifts = [self.lift(s) for s in space]
        coords = Coordinates(self.w.reducer, lifts)
        cols = [coords.of(sparse_bracket(self.q.algebra, x, v))
                for v in lifts]
        if None in cols:
            raise InternalCheckError(
                "span is not invariant under the induced action")
        return tuple(tuple(c.get(r, ZERO) for c in cols)
                     for r in range(len(space)))

    def invariants(self, xs: list[dict], cols=slice(None)) -> list[dict]:
        """U / W, the joint kernel on V' of the induced ad(x) for the
        {i: int} dicts x of ``xs``: one kernel of the rows (s, c), s the
        place of x in ``xs``, of the residuals of [x, reps[t]] modulo W,
        each s-block scaled to ints; on the reps ``cols`` of one parity, the
        part of U / W there, which no other rows touch ("Flag step")."""
        red, reps = self.w.reducer, self.reps[cols]
        fs = [math.lcm(*(c.denominator for c in r.values())) for r in reps]
        images = ad_images(self.q.algebra, reps, xs)
        rows: dict = {}
        for s in range(len(xs)):
            block = [red.residual(v) if v else (1, v)
                     for v in itertools.islice(images, len(fs))]
            m = math.lcm(*(f * d for f, (d, r) in zip(fs, block) if r))
            for t, (f, (d, r)) in enumerate(zip(fs, block)):
                for c, v in r.items():
                    rows.setdefault((s, c), {})[t] = m // (f * d) * v
        return [{(cols.start or 0) + t: c for t, c in u.items()} for u in
                RowReducer(len(reps), rows.values()).sparse_kernel()]

    def isotropic(self, rows: list, certify: bool = False) -> dict | None:
        """An isotropic combination of the homogeneous V'-vectors ``rows``:
        the first odd one, else :func:`isotropic_vector` of their induced
        Gram matrix."""
        par = [_row_parity(self.parities, v) for v in rows]
        if ODD in par:
            return rows[par.index(ODD)]
        lifts = [self.lift(r) for r in rows]
        point = isotropic_vector(gram(self.q.form, lifts, lifts),
                                 certify=certify)
        return None if point is None else _combination(point, rows)


def _combination(x, space: list[dict]) -> dict:
    """sum_t x_t space[t] for coefficients x given densely."""
    return lincomb(zip(x, (v.items() for v in space)))


def _row_parity(parities, v: Vec | dict) -> int:
    """The parity of a nonzero homogeneous vector of V'; the kernels the
    flag step reads are homogeneous (docs/conventions.md, "Flag step")."""
    found = {parities[r] for r in nonzeros(v, len(parities))}
    if len(found) != 1:
        raise InternalCheckError("vector of V' is not homogeneous", witness=v)
    return found.pop()


def _solvable_isotropic_eigvector(q: QuadraticLieSuperalgebra,
                                  ind: _InducedSpace, derived: Subspace,
                                  u_basis: list[dict]) -> dict:
    """Isotropic vector (in V'-coords) for the step of a solvable algebra
    satisfying the class condition, with ``derived`` = [g, g] and
    ``u_basis`` the invariants U / W.

    Tries U / W first, keeping the certificate of its quadric.  Then
    restricts to the subspace killed by the odd part and the derived
    algebra (where the remaining even operators commute), and descends
    through their rational eigenspaces, backtracking over eigenvalue
    choices; nonzero eigenvalues are tried first since a nonzero joint
    character makes every vector of the final eigenspace isotropic.
    Failing both, RationalPointNotFound carries the quadric of U / W,
    else the first irrational characteristic polynomial met, else no
    certificate.  Deterministic throughout.
    """
    cert = None
    if u_basis:
        try:
            return ind.isotropic(u_basis, certify=True)
        except RationalPointNotFound as exc:
            cert = exc
    g, n = q.algebra, q.dim
    vpp = ind.invariants([{i: 1} for i in range(n) if g.parity(i) == ODD]
                         + list(derived.reducer.int_rows.values()))
    evens = [{i: ONE} for i in range(n) if g.parity(i) == EVEN]
    first_poly = None

    def descend(space: list[dict], k: int) -> dict | None:
        nonlocal first_poly
        if k == len(evens):
            return ind.isotropic(space)
        op = ind.action(evens[k], space)
        if not any(map(any, op)):
            return descend(space, k + 1)
        coeffs = charpoly(op)
        roots = rational_roots(coeffs)
        if not roots:
            if first_poly is None:
                first_poly = coeffs
            return None
        for lam in sorted(roots, key=lambda r: (r == 0, r)):
            shifted = tuple(tuple(x - lam if r == s else x
                                  for s, x in enumerate(row))
                            for r, row in enumerate(op))
            new_space = [_combination(u, space) for u in kernel(shifted)]
            got = descend(new_space, k + 1)
            if got is not None:
                return got
        return None

    if vpp and (got := descend(vpp, 0)) is not None:
        return got
    if cert is not None:
        raise RationalPointNotFound(
            "no rational isotropic vector found in the invariant subspace, "
            "and no rational isotropic joint eigenvector exists",
            quadric=cert.quadric, quadric_str=cert.quadric_str,
            obstruction=cert.obstruction)
    if first_poly is not None:
        raise RationalPointNotFound(
            "characteristic polynomial of an induced operator has no "
            "rational root", polynomial=first_poly,
            polynomial_str=_poly_string(first_poly))
    raise RationalPointNotFound("the rational joint-eigenvector search failed")


def max_isotropic_ideal(q: QuadraticLieSuperalgebra) -> IsotropicFlagResult:
    """Grow a flag of graded totally isotropic ideals of q up to
    dimension floor(dim/2).

    Requires q nilpotent, or solvable with [g_odd, g_odd] inside
    [g_even, g_even].  Each step picks a homogeneous isotropic vector of
    the invariant subspace (or joint eigenspace) of W^perp / W, or raises
    RationalPointNotFound with the offending quadric or, when solvable,
    characteristic polynomial.
    """
    g, n = q.algebra, q.dim
    series = lower_central_series(g)
    nilp = series[-1].is_zero()
    if not (nilp or is_solvable(g) and class_condition(g)):
        raise PreconditionError(
            "algebra must be nilpotent, or solvable with the odd-odd "
            "brackets inside the even-even brackets")
    # generators S: off the pivots of [g, g] if g is nilpotent, else all
    gens = [{i: 1} for i in range(n)
            if not (nilp and i in series[1].reducer.int_rows)]
    w = zero_subspace(q.basis)
    chain, perp = [w], RowReducer.identity(n)  # the rows of W^perp
    while w.dim < n // 2:
        # a view of perp's rows as they stand; the odd block is read first
        ind = _InducedSpace(q, w, Subspace(q.basis, perp))
        u_basis = (ind.invariants(gens, ind.odd)
                   or ind.invariants(gens, ind.even))
        if nilp and not u_basis:
            raise InternalCheckError(
                "empty invariant subspace for a nilpotent action")
        vprime = (ind.isotropic(u_basis, certify=True) if nilp else
                  _solvable_isotropic_eigvector(q, ind, series[1], u_basis))
        # a combination of rows of one parity, so homogeneous
        _row_parity(ind.parities, vprime)
        lift = ind.lift(vprime)
        if q.form.apply(lift, lift) != 0:
            raise InternalCheckError("selected vector is not isotropic")
        w = extend_subspace(w, lift)
        perp.meet(q.form.image(lift))
        # the old W is an ideal, so W + Kv is one iff [S, v] lies in it
        if w.dim != chain[-1].dim + 1:
            raise InternalCheckError("flag dimension did not grow by one")
        if not all(map(w.contains_vector, ad_images(g, [lift], gens))):
            raise InternalCheckError("flag member is not an ideal")
        chain.append(w)
    wperp = Subspace(q.basis, perp)
    # dim W = floor(n/2), so W is isotropic iff W = W^perp (even n), or W
    # lies in W^perp, one dimension bigger (odd n); then so is every member
    if not (w == wperp if n % 2 == 0 else
            (wperp.dim == w.dim + 1 and is_totally_isotropic(q.form, w))):
        raise InternalCheckError("maximal member is not isotropic")
    # W is an ideal, so g maps W^perp into W iff S does
    if n % 2 and not all(map(w.contains_vector,
                             ad_images(g, wperp.rows, gens))):
        raise InternalCheckError("action does not map the orthogonal "
                                 "of the maximal member into it")
    return IsotropicFlagResult(w, wperp, tuple(chain))


def decompose(q: QuadraticLieSuperalgebra) -> Decomposition:
    """Present q as a T*-extension (even total dimension) or as a
    verified codimension-1 nondegenerate graded ideal of one (odd total
    dimension), along a maximal totally isotropic graded ideal."""
    flag = max_isotropic_ideal(q)
    iso, wperp, n = flag.w_max, flag.w_perp, q.dim
    qhat, iso_hat = q, iso
    if n % 2:
        # odd case: adjoin a central even line t with B(t, t) = -beta to
        # make the enlarged ideal Lagrangian (docs/conventions.md, "Odd
        # dimension")
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
        # d + t is isotropic, so iso_hat is a Lagrangian ideal of qhat
        iso_hat = subspace(qhat.basis, [*iso.rows, {**d, n: ONE}])
    try:
        ext, psi = recognize(qhat, iso_hat)
    except (NotIdealError, PreconditionError) as exc:
        raise InternalCheckError(
            f"maximal ideal (augmented in odd dimension) is not a "
            f"Lagrangian ideal: {exc}") from exc
    # q's part of the verified psi (docs/conventions.md, "Odd dimension")
    return Decomposition(ideal=iso, quotient=ext.base, extension=ext,
                         embedding=tuple(row[:n] for row in psi),
                         parity_case="odd" if n % 2 else "even")
