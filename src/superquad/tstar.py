"""T*-extensions: the quadratic Lie superalgebra on g + g* built from a
supercyclic 2-cocycle, recognition of quadratic superalgebras carrying a
Lagrangian graded ideal, and the shear isometries indexed by scalar
2-cochains.

The bracket on the extension is

    [x + F, y + H] = [x, y] + w(x, y) + pi(x)(H) - (-1)^{|x||y|} pi(y)(F)

and the pairing form is B(x + F, y + H) = F(y) + (-1)^{|x||y|} H(x).
The dual copy of a basis vector keeps its parity, and a functional of
parity a kills the opposite-parity part; this is what makes B even.
"""

from __future__ import annotations

from .cohomology import (Cochain2Dual, ScalarCochain2, cocycle2_violation,
                         delta_scalar2, hat, sub3, supercyclic_violation,
                         unhat, zero_cochain2)
from .errors import (CocycleError, DimensionMismatch, InternalCheckError,
                     NotSupercyclicError, PreconditionError)
from .forms import (EvenForm, QuadraticLieSuperalgebra, gram,
                    invariance_violation, is_totally_isotropic,
                    isotropic_complement)
from .linalg import (Mat, ONE, Record, RowReducer, dense_vec, integer_rows,
                     rank, unit_vec)
from .superalgebra import (GradedBasis, LieSuperalgebra, Subspace, failing,
                           graded_basis, is_ideal, jacobi_violations,
                           quotient, sgn, sparse_bracket, subspace)


class TStarExtension(Record):
    """The extension algebra with its canonical pairing."""

    base: LieSuperalgebra
    omega: Cochain2Dual
    total: QuadraticLieSuperalgebra

    @property
    def dim(self) -> int:
        return self.total.dim

    def dual_ideal(self) -> Subspace:
        n = self.base.dim
        return subspace(self.total.basis, [{n + k: ONE} for k in range(n)])


def _dual_names(basis: GradedBasis) -> tuple[str, ...]:
    duals = tuple(name + "*" for name in basis.names)
    clash = set(duals) & set(basis.names)
    if clash:
        raise PreconditionError(
            f"dual labels collide with base labels: {sorted(clash)}")
    return duals


def _extension_table(g: LieSuperalgebra, w: Cochain2Dual) -> tuple:
    """Bracket table of g + g* for an arbitrary even super-antisymmetric w
    (no cocycle condition assumed)."""
    n = g.dim
    p = g.basis.parities
    N = 2 * n
    table = [[{} for _ in range(N)] for _ in range(N)]
    for i in range(n):
        for k in range(n):
            for j, q in g.table[i][k]:      # q = c_ikj
                # [e_i, e_k] = [e_i, e_k]_g + w(e_i, e_k), the g part
                table[i][k][j] = q
                # [e_i, e_j*] = pi(e_i)(e_j*): coordinate on e_k* is
                # -(-1)^{p_i p_j} c_ikj
                table[i][n + j][n + k] = -sgn(p[i] * p[j]) * q
                # [e_j*, e_i] = -(-1)^{p_i p_j} pi(e_i)(e_j*): on e_k*, c_ikj
                table[n + j][i][n + k] = q
    for (i, j, k), q in w.coords.items():   # the g* part of [e_i, e_j]
        table[i][j][n + k] = q
        table[j][i][n + k] = -sgn(p[i] * p[j]) * q
    return tuple(tuple(row) for row in table)


def _raw_extension(g: LieSuperalgebra, w: Cochain2Dual
                   ) -> tuple[LieSuperalgebra, EvenForm]:
    """The would-be extension, built without the cocycle/supercyclicity
    preconditions."""
    basis = graded_basis(g.basis.names + _dual_names(g.basis),
                         g.basis.parities * 2)
    alg = LieSuperalgebra(basis, _extension_table(g, w))
    # B(e_i, e_i*) = (-1)^{p_i}; B(e_i*, e_i) = 1 by supersymmetry
    form = EvenForm(basis, {(i, g.dim + i): sgn(p)
                            for i, p in enumerate(g.basis.parities)})
    return alg, form


def build(g: LieSuperalgebra, omega: Cochain2Dual | None = None) -> TStarExtension:
    """T*-extension of g by a supercyclic 2-cocycle omega (default 0).

    Rejects omega that is not a cocycle (the extension would fail the
    Jacobi identity) or not supercyclic (the pairing would fail
    invariance); both rejections carry witnessing basis triples.  A g
    that fails Jacobi raises AxiomError with the extension's report.
    """
    if omega is None:
        omega = zero_cochain2(g)
    if omega.basis != g.basis:
        raise DimensionMismatch("cochain basis differs from the algebra")
    bad = cocycle2_violation(g, omega)
    if bad is not None:
        alg, _ = _raw_extension(g, omega)
        jacobi = jacobi_violations(alg)
        raise CocycleError(
            f"omega is not a 2-cocycle (identity fails at {bad})",
            triple=bad, jacobi_witness=jacobi[0] if jacobi else None)
    bad = supercyclic_violation(omega)
    if bad is not None:
        alg, form = _raw_extension(g, omega)
        raise NotSupercyclicError(
            f"omega is not supercyclic (identity fails at {bad})",
            triple=bad, invariance_witness=invariance_violation(alg, form))
    return TStarExtension(g, omega, QuadraticLieSuperalgebra(
        *_raw_extension(g, omega)))


def quadratic_morphism_violation(src: QuadraticLieSuperalgebra,
                                 dst: QuadraticLieSuperalgebra,
                                 m: Mat):
    """First failure of m: src -> dst as a map of quadratic superalgebras
    (parity preservation, bracket, form), or None if it verifies.

    The matrix acts on coordinate columns: (m x) are the dst-coordinates.
    The witness is the least failing pair, bracket before form.  Each
    nonzero product of m [e_a, e_b] - [m e_a, m e_b] and of B_src(e_a, e_b)
    - B_dst(m e_a, m e_b) (under the key -1) is scattered into its pair
    (a, b), on inputs scaled to ints (docs/conventions.md, "Verifiers").
    """
    n, N = src.dim, len(m)
    dm, cols = integer_rows([(r, m[r][a]) for r in range(N) if m[r][a] != 0]
                            for a in range(n))
    p_dst = dst.basis.parities
    into: list = [[] for _ in range(N)]  # into[r]: (a, m[r][a])
    for a, col in enumerate(cols):
        if col and {p_dst[r] for r, _ in col} != {src.basis.parity(a)}:
            return ("parity", a)
        for r, x in col:
            into[r].append((a, x))
    ds, src_table = src.algebra.integer_table
    dd, dst_table = dst.algebra.integer_table
    fs, src_form = integer_rows(src.form._rows)
    fd, dst_form = integer_rows(dst.form._rows)
    # m [e_a, e_b] times dm dd, and B_src(e_a, e_b) times dm^2 fd
    acc = {(a, b): {-1: dm * dm * fd * q}
           for a, row in enumerate(src_form) for b, q in row}
    for a, b, e in src_table:
        out = acc.setdefault((a, b), {})
        for k, c in e:
            for r, q in cols[k]:
                out[r] = out.get(r, 0) + dm * dd * c * q
    # [m e_a, m e_b] times ds, and B_dst(m e_a, m e_b) times fs
    dst_terms = [(r, s, [(t, ds * q) for t, q in e]) for r, s, e in dst_table]
    dst_terms += [(r, s, [(-1, fs * q)]) for r, row in enumerate(dst_form)
                  for s, q in row]
    for r, s, e in dst_terms:
        for a, x in into[r]:
            for b, y in into[s]:
                out = acc.setdefault((a, b), {})
                for t, q in e:
                    out[t] = out.get(t, 0) - x * y * q
    bad = failing(acc)
    if not bad:
        return None
    out = acc[bad[0]]
    return ("bracket" if any(v for t, v in out.items() if t >= 0)
            else "form", bad[0])


def verify_isometry(src: QuadraticLieSuperalgebra,
                    dst: QuadraticLieSuperalgebra, m: Mat,
                    what: str = "isometry") -> None:
    """Raise InternalCheckError naming ``what`` unless the dst.dim x
    src.dim matrix m is injective, even, a bracket map and an isometry,
    with dst.dim = src.dim or src.dim + 1; in codimension 1 its image
    must also be an ideal on which the form is nondegenerate."""
    n, N = src.dim, dst.dim
    if N - n not in (0, 1) or len(m) != N or any(len(r) != n for r in m):
        raise DimensionMismatch(f"{what} matrix has the wrong shape")
    image = RowReducer(N, ({r: m[r][a] for r in range(N) if m[r][a]}
                           for a in range(n)))
    if image.rank != n:
        raise InternalCheckError(f"{what} is not injective")
    bad = quadratic_morphism_violation(src, dst, m)
    if bad is not None:
        kind, witness = bad
        word = {"parity": "even", "bracket": "a bracket map",
                "form": "an isometry"}[kind]
        raise InternalCheckError(f"{what} is not {word}", witness=witness)
    if N > n:  # the columns are homogeneous, so their span is graded
        image = Subspace(dst.basis, image)
        if not is_ideal(dst.algebra, image):
            raise InternalCheckError(f"image of the {what} is not an ideal")
        if rank(gram(dst.form, image.rows, image.rows)) != n:
            raise InternalCheckError(
                f"form is degenerate on the image of the {what}")


def recognize(q: QuadraticLieSuperalgebra, iso: Subspace,
              complement: Subspace | None = None,
              quotient_names: tuple[str, ...] | None = None
              ) -> tuple[TStarExtension, Mat]:
    """Present q as a T*-extension along a graded totally isotropic ideal
    of half the dimension.

    Returns the extension of the quotient q/iso together with the matrix
    of an even bijection that is simultaneously an algebra isomorphism
    and an isometry; the map is re-verified exactly on all basis pairs
    before being returned.  :func:`isotropic_complement` or the test below
    checks that iso is Lagrangian, :func:`quotient` that it is an ideal.
    """
    n = q.dim
    if complement is None:
        comp = isotropic_complement(q.form, iso)
    else:
        comp = complement
        if not all(2 * s.dim == n and is_totally_isotropic(q.form, s)
                   for s in (iso, comp)):
            raise PreconditionError("ideal and complement must be totally "
                                    "isotropic of half the dimension")
    quot = quotient(q.algebra, iso, complement=comp, names=quotient_names)
    m = quot.algebra.dim
    rows = comp.rows

    # comp is totally isotropic, so B(s(x), s_k) = 0 and the ideal part
    # of [s(x), s(y)] pairs with s_k as the whole bracket does:
    # omega(x, y)(e_k) = B([s(x), s(y)], s_k), on the free coordinates
    # i <= j (super-antisymmetry gives the rest)
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    values = gram(q.form, [sparse_bracket(q.algebra, rows[i], rows[j])
                           for i, j in pairs], rows)
    w_coords = {(i, j, k): val for (i, j), row in zip(pairs, values)
                for k, val in enumerate(row) if val}
    try:
        omega = Cochain2Dual(quot.algebra.basis, w_coords)
        ext = build(quot.algebra, omega)
    except (CocycleError, NotSupercyclicError) as exc:
        raise InternalCheckError(
            "recovered cochain failed its theorem-backed checks: "
            f"{exc}") from exc

    # psi: ambient -> quotient coords ++ (B(., s_k))_k
    psi = quot.projection + tuple(dense_vec(q.form.image(r), n)
                                  for r in rows)
    verify_isometry(q, ext.total, psi, what="recognition isometry")
    return ext, psi


class ShearIsometry(Record):
    """S_phi between two extensions of the same base, with its matrix."""

    source: TStarExtension
    target: TStarExtension
    phi: ScalarCochain2
    matrix: Mat


def shear_matrix(g: LieSuperalgebra, phi: ScalarCochain2) -> Mat:
    """Matrix of x + F -> x + phi(x, .) + F on the extension basis."""
    n = g.dim
    m = [list(unit_vec(2 * n, a)) for a in range(2 * n)]
    p = g.basis.parities
    for (i, k), q in phi.coords.items():
        m[n + k][i] = q
        m[n + i][k] = -sgn(p[i] * p[k]) * q
    return tuple(tuple(r) for r in m)


def s_phi_isometry(g: LieSuperalgebra, omega1: Cochain2Dual,
                   phi: ScalarCochain2) -> ShearIsometry:
    """Build T* extensions for omega1 and omega2 = omega1 - delta(phi)
    (computed through the transported tensors) and verify that the shear
    x + F -> x + phi(x, .) + F is an isometry between them."""
    ext1 = build(g, omega1)
    omega2 = unhat(sub3(hat(omega1), delta_scalar2(g, phi)))
    ext2 = build(g, omega2)
    m = shear_matrix(g, phi)
    verify_isometry(ext1.total, ext2.total, m, what="shear isometry")
    return ShearIsometry(ext1, ext2, phi, m)
