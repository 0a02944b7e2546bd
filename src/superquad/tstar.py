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

from .cohomology import (Cochain2Dual, ScalarCochain2, _unhat,
                         cocycle2_violation, delta_scalar2,
                         supercyclic_violation, zero_cochain2)
from .errors import (AxiomError, CocycleError, DimensionMismatch, FormError,
                     InternalCheckError, NotSupercyclicError,
                     PreconditionError)
from .forms import (EvenForm, QuadraticLieSuperalgebra, gram,
                    isotropic_complement)
from .linalg import (Mat, ONE, Record, dense_vec, integer_rows, lincomb,
                     unit_vec)
from .superalgebra import (GradedBasis, LieSuperalgebra, Subspace, failing,
                           graded_basis, quotient, sgn, subspace)


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
    if clash := set(duals) & set(basis.names):
        raise PreconditionError(
            f"dual labels collide with base labels: {sorted(clash)}")
    return duals


def _extension_coords(g: LieSuperalgebra, w: Cochain2Dual) -> dict:
    """Structure constants of g + g*, on the free coordinates, for an
    arbitrary even super-antisymmetric w (no cocycle condition assumed):
    [e_i, e_j] = [e_i, e_j]_g + w(e_i, e_j), and [e_i, e_j*] =
    pi(e_i)(e_j*), whose coordinate on e_k* is -(-1)^{p_i p_j} c_ikj."""
    n, p = g.dim, g.basis.parities
    coords = dict(g.coords)
    coords.update(((i, j, n + k), q) for (i, j, k), q in w.coords.items())
    for (i, k, j), q in g.coords.items():      # q = c_ikj
        coords[(i, n + j, n + k)] = -sgn(p[i] * p[j]) * q
        if i != k:  # c_kij = -(-1)^{|i||k|} c_ikj
            coords[(k, n + j, n + i)] = sgn(p[k] * (p[i] + p[j])) * q
    return coords


def _raw_extension(g: LieSuperalgebra, w: Cochain2Dual
                   ) -> tuple[LieSuperalgebra, EvenForm]:
    """The would-be extension, built without the cocycle/supercyclicity
    preconditions."""
    basis = graded_basis(g.basis.names + _dual_names(g.basis),
                         g.basis.parities * 2)
    alg = LieSuperalgebra(basis, _extension_coords(g, w))
    # B(e_i, e_i*) = (-1)^{p_i}; B(e_i*, e_i) = 1 by supersymmetry
    form = EvenForm(basis, {(i, g.dim + i): sgn(p)
                            for i, p in enumerate(g.basis.parities)})
    return alg, form


def build(g: LieSuperalgebra, omega: Cochain2Dual | None = None) -> TStarExtension:
    """T*-extension of g by a supercyclic 2-cocycle omega (default 0).

    The extension's own Jacobi and invariance checks stand for the cocycle
    and supercyclicity checks (docs/conventions.md, "Extension bracket"):
    CocycleError or NotSupercyclicError carries omega's triple, read off
    the Jacobi report when no failing triple there holds a dual index,
    else found by the cochain verifier, with the extension's witness.
    A g that fails Jacobi under a cocycle omega raises AxiomError.
    """
    if omega is None:
        omega = zero_cochain2(g)
    if omega.basis != g.basis:
        raise DimensionMismatch("cochain basis differs from the algebra")
    alg, form = _raw_extension(g, omega)
    try:
        return TStarExtension(g, omega, QuadraticLieSuperalgebra(alg, form))
    except AxiomError as exc:
        jac = exc.report.jacobi  # every permutation, sorted
        bad = jac[0] if jac[-1][0] < g.dim else cocycle2_violation(g, omega)
        if bad is None:
            raise
        raise CocycleError(
            f"omega is not a 2-cocycle (identity fails at {bad})",
            triple=bad, jacobi_witness=jac[0]) from exc
    except FormError as exc:
        bad = supercyclic_violation(omega)
        raise NotSupercyclicError(
            f"omega is not supercyclic (identity fails at {bad})",
            triple=bad, invariance_witness=exc.witness) from exc


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
    fs, src_form = src.form.integer_gram
    fd, dst_form = dst.form.integer_gram
    # m [e_a, e_b] times dm dd, and B_src(e_a, e_b) times dm^2 fd
    acc = {(a, b): {-1: dm * dm * fd * q}
           for a, row in enumerate(src_form) for b, q in row}
    for (a, b), e in src_table.items():
        out = acc.setdefault((a, b), {})
        for k, c in e:
            for r, q in cols[k]:
                out[r] = out.get(r, 0) + dm * dd * c * q
    # [m e_a, m e_b] times ds, and B_dst(m e_a, m e_b) times fs
    dst_terms = [(r, s, [(t, ds * q) for t, q in e])
                 for (r, s), e in dst_table.items()]
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
    """Raise InternalCheckError naming ``what`` unless the square matrix
    m is even, a bracket map and an isometry from src to dst.  Such an m
    is bijective: src's form has no radical, so m x = 0 forces
    B_src(x, -) = B_dst(m x, m -) = 0 and x = 0."""
    n = src.dim
    if dst.dim != n or len(m) != n or any(len(r) != n for r in m):
        raise DimensionMismatch(f"{what} matrix has the wrong shape")
    bad = quadratic_morphism_violation(src, dst, m)
    if bad is not None:
        kind, witness = bad
        word = {"parity": "even", "bracket": "a bracket map",
                "form": "an isometry"}[kind]
        raise InternalCheckError(f"{what} is not {word}", witness=witness)


def recognize(q: QuadraticLieSuperalgebra, iso: Subspace,
              quotient_names: tuple[str, ...] | None = None
              ) -> tuple[TStarExtension, Mat]:
    """Present q as a T*-extension along a graded totally isotropic ideal
    of half the dimension.

    Returns the extension of the quotient q/iso together with the matrix
    of an even bijection that is simultaneously an algebra isomorphism
    and an isometry; the map is re-verified exactly on all basis pairs
    before being returned.  :func:`isotropic_complement` checks that iso
    is Lagrangian, :func:`quotient` that it is an ideal; the extension's
    constructor then checks Jacobi, whose g-part is the quotient's
    (docs/conventions.md, "Extension bracket").
    """
    n, comp = q.dim, isotropic_complement(q.form, iso)
    quot = quotient(q.algebra, iso, complement=comp, names=quotient_names)
    rows = comp.rows

    # comp is totally isotropic, so B(s(x), s_k) = 0 and the ideal part of
    # [s(x), s(y)] pairs with s_k as the whole bracket does: omega(x, y)(e_k)
    # = B([s(x), s(y)], s_k), on the brackets quotient formed at free pairs
    values = gram(q.form, quot.brackets.values(), rows)
    w_coords = {(i, j, k): val for (i, j), row in zip(quot.brackets, values)
                for k, val in enumerate(row) if val}
    try:
        ext = build(quot.algebra, Cochain2Dual(quot.algebra.basis, w_coords))
    except (AxiomError, CocycleError, NotSupercyclicError) as exc:
        what = ("quotient fails Jacobi" if isinstance(exc, AxiomError)
                else "cochain failed its theorem-backed checks")
        raise InternalCheckError(f"recovered {what}: {exc}") from exc

    # psi: ambient -> quotient coords ++ (B(., s_k))_k
    psi = quot.projection + tuple(dense_vec(q.form.image(r), n) for r in rows)
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
    """Build T* extensions for omega1 and omega2 = omega1 - unhat(d phi),
    a supercyclic cocycle by theorem once build has checked omega1, and
    verify that the shear x + F -> x + phi(x, .) + F is an isometry."""
    ext1 = build(g, omega1)
    d_phi = _unhat(g.basis.parities, delta_scalar2(g, phi).coords.items())
    try:
        ext2 = build(g, Cochain2Dual(g.basis, lincomb(
            ((1, omega1.coords.items()), (-1, d_phi.items())))))
    except (CocycleError, NotSupercyclicError) as exc:
        raise InternalCheckError(
            f"omega2 failed its theorem-backed checks: {exc}") from exc
    m = shear_matrix(g, phi)
    verify_isometry(ext1.total, ext2.total, m, what="shear isometry")
    return ShearIsometry(ext1, ext2, phi, m)
