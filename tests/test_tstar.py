import importlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import superquad as sq
from superquad.cohomology import (Cochain2Dual, ScalarCochain2,
                                  cohomologous, collect_cochain2dual,
                                  delta_scalar2, hat, is_cocycle2,
                                  is_supercyclic, sub3, unhat, z3_basis,
                                  zero_cochain2, zero_scalar2)
from superquad.errors import (AxiomError, CocycleError, DimensionMismatch,
                              InternalCheckError, NotIdealError,
                              NotSupercyclicError, PreconditionError)
from superquad.decompose import decompose
from superquad.forms import gram, is_totally_isotropic
from superquad.gallery import (even_line, orthogonal_direct_sum,
                               random_cochain2, random_cocycle2,
                               random_scalar2, random_supercyclic_cocycle)
from superquad.linalg import kernel, mat, rank, unit_vec, vec
from superquad.superalgebra import (LieSuperalgebra, QuotientResult,
                                    bracket, center, is_ideal,
                                    jacobi_violations, quotient, sgn,
                                    subspace)
from superquad.tstar import (build, quadratic_morphism_violation, recognize,
                             s_phi_isometry, shear_matrix, verify_isometry)

import dense_oracle as dense
from dense_oracle import mat_mul, mat_vec
from support import (add3, add_scalar2, derived_by_dense, is_zero3,
                     lemma_halfdim_ideal_iff_abelian, negative_test_invariance,
                     vec_is_zero, vector_parity)

F = Fraction


def test_semidirect_always_builds(gallery):
    for name, g in gallery.items():
        ext = build(g)
        assert ext.total.dim == 2 * g.dim, name
        assert sq.check_axioms(ext.total.algebra).passed, name


def test_build_purely_odd_frozen():
    ext = build(sq.abelian(0, 1))
    assert ext.total.basis.parities == (1, 1)
    G = dense.gram(ext.total.form)
    assert G[0][1] == -1 and G[1][0] == 1 and G[0][0] == 0 and G[1][1] == 0
    assert ext.total.algebra.coords == {}


def test_dual_parity_convention(gallery):
    for name, g in gallery.items():
        ext = build(g)
        n = g.dim
        for k in range(n):
            assert ext.total.basis.parity(n + k) == g.parity(k), name


def test_tstar_g2_structure():
    ext = sq.tstar_of_gn(2)
    total = ext.total
    assert total.dim == 12
    assert sq.is_nilpotent(total.algebra)
    z = center(total.algebra)
    assert not z.is_zero()
    assert not z.even_rows  # center entirely odd


def test_dual_ideal_properties(gallery):
    for name, g in gallery.items():
        ext = build(g)
        dual = ext.dual_ideal()
        assert dual.dim == g.dim, name
        assert is_totally_isotropic(ext.total.form, dual), name
        assert is_ideal(ext.total.algebra, dual), name
        # abelian
        A = ext.total.algebra
        assert all(vec_is_zero(bracket(A, u, v))
                   for u in dual.vectors for v in dual.vectors), name
        assert lemma_halfdim_ideal_iff_abelian(ext.total, dual), name


def test_build_rejects_non_cocycle():
    g2 = sq.build_gn(2)
    rng = random.Random(2)
    rejected = False
    for _ in range(20):
        w = random_cochain2(g2, rng)
        if not is_cocycle2(g2, w):
            with pytest.raises(CocycleError) as exc:
                build(g2, w)
            assert exc.value.triple is not None
            assert exc.value.jacobi_witness is not None
            rejected = True
            break
    assert rejected


def test_build_rejects_non_supercyclic():
    a3 = sq.abelian(3, 0)
    w = Cochain2Dual(a3.basis, {(0, 1, 2): 1})
    with pytest.raises(NotSupercyclicError) as exc:
        build(a3, w)
    assert exc.value.triple is not None
    assert exc.value.invariance_witness is not None


def test_negative_invariance_report():
    a3 = sq.abelian(3, 0)
    w = Cochain2Dual(a3.basis, {(0, 1, 2): 1})
    rep = negative_test_invariance(a3, w)
    assert rep.lhs != rep.rhs


def test_negative_invariance_on_perturbed_cocycle(gallery, z2_bases,
                                                  supercyclic_bases):
    rng = random.Random(13)
    found = 0
    for name, g in gallery.items():
        if len(z2_bases[name]) == len(supercyclic_bases[name]):
            continue  # every cocycle is supercyclic here
        for _ in range(20):
            w = random_cocycle2(g, rng, basis=z2_bases[name])
            if not is_supercyclic(w):
                rep = negative_test_invariance(g, w)
                assert rep.lhs != rep.rhs, name
                found += 1
                break
    assert found > 0


def test_negative_invariance_rejects_supercyclic():
    h3 = sq.heisenberg3()
    with pytest.raises(PreconditionError):
        negative_test_invariance(h3, zero_cochain2(h3))


def test_lemma_preconditions():
    ext = build(sq.heisenberg3())
    with pytest.raises(PreconditionError):
        lemma_halfdim_ideal_iff_abelian(
            ext.total, subspace(ext.total.basis, [unit_vec(6, 3)]))


def _random_isotropic_halfdim(ext, rng):
    """Random graded totally isotropic half-dimensional subspace of a
    T*-extension: dual directions over a random index set, sheared base
    directions over the complement."""
    g = ext.base
    n = g.dim
    N = 2 * n
    S = [i for i in range(n) if rng.random() < 0.5]
    T = [i for i in range(n) if i not in S]
    phi = [[F(0)] * n for _ in range(n)]
    for a, i in enumerate(T):
        for j in T[a + 1:]:
            if g.parity(i) != g.parity(j):
                continue
            q = F(rng.randint(-3, 3))
            phi[i][j] = q
            phi[j][i] = -sgn(g.parity(i) * g.parity(j)) * q
        if g.parity(i) == 1 and rng.random() < 0.5:
            phi[i][i] = F(rng.randint(-3, 3))
    vectors = [unit_vec(N, n + i) for i in S]
    for j in T:
        v = list(unit_vec(N, j))
        for k in T:
            v[n + k] = phi[j][k]
        vectors.append(tuple(v))
    return subspace(ext.total.basis, vectors)


def test_lemma_agreement_on_random_subspaces(gallery):
    rng = random.Random(41)
    checked = 0
    for name, g in gallery.items():
        ext = build(g)
        for _ in range(10):
            iso = _random_isotropic_halfdim(ext, rng)
            assert iso.dim == g.dim
            assert is_totally_isotropic(ext.total.form, iso)
            # raises InternalCheckError if the two booleans disagree
            lemma_halfdim_ideal_iff_abelian(ext.total, iso)
            checked += 1
    assert checked >= 60


def test_recognize_roundtrip_zero_cocycle():
    ext = sq.tstar_of_gn(2)
    ext2, psi = recognize(ext.total, ext.dual_ideal())
    assert not ext2.omega.coords
    assert ext2.base.coords == ext.base.coords


def test_recognize_roundtrip_random(gallery, supercyclic_bases):
    rng = random.Random(19)
    for name, g in gallery.items():
        ext0 = build(g)
        for _ in range(4):
            w = random_supercyclic_cocycle(g, rng,
                                           basis=supercyclic_bases[name])
            ext = build(g, w)
            ext2, psi = recognize(ext.total, ext.dual_ideal())
            # canonical section recovers the cocycle on the nose
            assert collect_cochain2dual(ext2.omega) == collect_cochain2dual(w)
            assert ext2.base.coords == g.coords, name
            assert rank(psi) == ext.total.dim


def test_recognize_with_sheared_section_gives_cohomologous(gallery,
                                                           supercyclic_bases):
    rng = random.Random(29)
    for name in ("heisenberg3", "g(2)", "abelian(1|2)"):
        g = gallery[name]
        w = random_supercyclic_cocycle(g, rng, basis=supercyclic_bases[name])
        ext = build(g, w)
        n = g.dim
        N = 2 * n
        phi = random_scalar2(g, rng)
        shear = shear_matrix(g, phi)
        sheared = subspace(ext.total.basis, [
            tuple(shear[r][i] for r in range(N)) for i in range(n)])
        assert is_totally_isotropic(ext.total.form, sheared), name
        quot = quotient(ext.total.algebra, ext.dual_ideal(),
                        complement=sheared)
        assert quot.algebra.coords == g.coords, name
        # omega(x, y)(e_k) = B([s(x), s(y)], s_k), read as recognize reads
        # it; the cochains live on the same grading
        values = gram(ext.total.form, quot.brackets.values(), sheared.rows)
        w_rec = Cochain2Dual(g.basis, {
            (i, j, k): v for (i, j), row in zip(quot.brackets, values)
            for k, v in enumerate(row) if v})
        assert cohomologous(g, hat(w_rec), hat(w)) is not None, name


def test_recognize_brackets_each_free_pair_once(monkeypatch, gallery,
                                                supercyclic_bases):
    """One recognize forms [s_i, s_j] once for each free pair of the
    quotient (i < j, or i = j at an odd index): quotient reads its
    structure constants, and recognize reads omega, off those brackets."""
    sa = importlib.import_module("superquad.superalgebra")
    real, pairs = sa.sparse_bracket, []

    def counting(g, x, y):
        pairs.append((tuple(x.items()), tuple(y.items())))
        return real(g, x, y)
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("superquad")
                and getattr(module, "sparse_bracket", None) is real):
            monkeypatch.setattr(module, "sparse_bracket", counting)
    rng = random.Random(71)
    for name, g in gallery.items():
        w = random_supercyclic_cocycle(g, rng, basis=supercyclic_bases[name])
        ext = build(g, w)
        pairs.clear()
        rec, _ = recognize(ext.total, ext.dual_ideal())
        assert collect_cochain2dual(rec.omega) == collect_cochain2dual(w)
        p = rec.base.basis.parities
        free = [(i, j) for i in range(len(p)) for j in range(i, len(p))
                if i < j or p[i]]
        assert len(pairs) == len(set(pairs)) == len(free), name


@pytest.mark.parametrize("g, key, cause", [
    (sq.build_gn(2), (1, 4, 4), CocycleError),
    (sq.abelian(4, 0), (1, 3, 2), NotSupercyclicError)],
    ids=["not-cocycle", "not-supercyclic"])
def test_a_perturbed_recovered_omega_is_an_internal_error(monkeypatch, g,
                                                          key, cause):
    """One coordinate of the omega that recognize reads out, changed: the
    extension's own checks in build reject it, the cochain verifier
    classifies the rejection, and recognize raises InternalCheckError."""
    ext = build(g)
    tstar = importlib.import_module("superquad.tstar")

    def perturbed(basis, coords):
        return Cochain2Dual(basis, {**coords, key: coords.get(key, 0) + 1})
    monkeypatch.setattr(tstar, "Cochain2Dual", perturbed)
    with pytest.raises(InternalCheckError,
                       match="recovered cochain failed") as exc:
        recognize(ext.total, ext.dual_ideal())
    assert type(exc.value.__cause__) is cause


def test_a_corrupted_quotient_is_an_internal_error(monkeypatch):
    """quotient does not check Jacobi; inside recognize, the extension's
    constructor does, and its g-part is the quotient's own.  A quotient
    with [q1, q3] = q1 added fails Jacobi at (q1, q2, q3), build raises
    AxiomError (the read-out omega, 0, is a cocycle), and recognize turns
    it into InternalCheckError that names the quotient, not the cochain."""
    ext = build(sq.heisenberg3())
    tstar = importlib.import_module("superquad.tstar")
    real = tstar.quotient

    def corrupted(*args, **kwargs):
        got = real(*args, **kwargs)
        alg = LieSuperalgebra(got.algebra.basis,
                              {**got.algebra.coords, (0, 2, 0): 1})
        assert jacobi_violations(alg)
        return QuotientResult(alg, got.projection, got.brackets)
    monkeypatch.setattr(tstar, "quotient", corrupted)
    with pytest.raises(InternalCheckError,
                       match="recovered quotient fails Jacobi") as exc:
        recognize(ext.total, ext.dual_ideal())
    assert type(exc.value.__cause__) is AxiomError


def test_recognize_rejects_odd_dim():
    q = sq.gallery.even_line()
    from superquad.superalgebra import zero_subspace
    with pytest.raises(PreconditionError):
        recognize(q, zero_subspace(q.basis))


def test_recognize_rejects_a_lagrangian_subspace_that_is_not_an_ideal():
    """span(e1, e2*, e3*) in T*(heisenberg3) is Lagrangian, but [e2, e1]
    = -e3 leaves it: quotient rejects it, called by recognize or with a
    given complement."""
    ext = build(sq.heisenberg3())
    q, n = ext.total, ext.dim
    iso = subspace(q.basis, [unit_vec(n, k) for k in (0, 4, 5)])
    comp = subspace(q.basis, [unit_vec(n, k) for k in (1, 2, 3)])
    assert is_totally_isotropic(q.form, iso)
    with pytest.raises(NotIdealError, match="not an ideal"):
        recognize(q, iso)
    with pytest.raises(NotIdealError, match="not an ideal"):
        quotient(q.algebra, iso, complement=comp)


def test_quotient_rejects_the_ideal_as_its_complement():
    """Its rows vanish modulo the ideal, so they are dependent there."""
    ext = build(sq.heisenberg3())
    iso = ext.dual_ideal()
    with pytest.raises(PreconditionError, match="overlaps the ideal"):
        quotient(ext.total.algebra, iso, complement=iso)


def test_s_phi_zero_is_identity():
    h3 = sq.heisenberg3()
    shear = s_phi_isometry(h3, zero_cochain2(h3), zero_scalar2(h3))
    n = shear.source.total.dim
    assert shear.matrix == tuple(unit_vec(n, i) for i in range(n))
    assert shear.source.omega == shear.target.omega


def test_s_phi_abelian_shear():
    a = sq.abelian(1, 2)
    rng = random.Random(3)
    w1 = random_supercyclic_cocycle(a, rng)
    phi = ScalarCochain2(a.basis, {(1, 1): 2, (1, 2): 1})
    shear = s_phi_isometry(a, w1, phi)
    assert shear.target.omega == w1          # delta(phi) = 0 on abelian
    n = 2 * a.dim
    assert shear.matrix != tuple(unit_vec(n, i) for i in range(n))


def test_s_phi_random_verified(gallery, supercyclic_bases):
    rng = random.Random(37)
    for name, g in gallery.items():
        for _ in range(5):
            w1 = random_supercyclic_cocycle(g, rng,
                                            basis=supercyclic_bases[name])
            phi = random_scalar2(g, rng)
            shear = s_phi_isometry(g, w1, phi)      # verifies internally
            expected = unhat(sub3(hat(w1), delta_scalar2(g, phi)))
            assert list(shear.target.omega.coords.items()) == \
                list(expected.coords.items()), name


@pytest.mark.parametrize("error", [CocycleError, NotSupercyclicError])
def test_s_phi_rejected_omega2_is_an_internal_error(monkeypatch, error):
    """build checks omega1 and raises its own errors; omega2 is then a
    supercyclic cocycle by theorem, so a rejection of omega2 is an
    InternalCheckError."""
    h3 = sq.heisenberg3()
    phi = ScalarCochain2(h3.basis, {(0, 1): 1})
    with pytest.raises(NotSupercyclicError):
        s_phi_isometry(h3, Cochain2Dual(h3.basis, {(0, 1, 0): 1}), phi)
    tstar = importlib.import_module("superquad.tstar")
    real, omegas = tstar.build, []

    def build_rejecting_omega2(g, omega=None):
        omegas.append(omega)
        if len(omegas) == 2:
            raise error("injected", triple=(0, 1, 2))
        return real(g, omega)
    monkeypatch.setattr(tstar, "build", build_rejecting_omega2)
    with pytest.raises(InternalCheckError, match="omega2 failed"):
        s_phi_isometry(h3, zero_cochain2(h3), phi)


def test_s_phi_perturbation_breaks_bracket(gallery, supercyclic_bases):
    rng = random.Random(43)
    tested = 0
    for name, g in gallery.items():
        z3 = z3_basis(g)
        from superquad.cohomology import b3_basis
        b3 = b3_basis(g)
        noncob = None
        from superquad.cohomology import cohomologous
        zero3 = hat(zero_cochain2(g))
        for f in z3:
            if cohomologous(g, zero3, f) is None:
                noncob = f
                break
        if noncob is None:
            continue
        w1 = random_supercyclic_cocycle(g, rng, basis=supercyclic_bases[name])
        phi = random_scalar2(g, rng)
        ext1 = build(g, w1)
        w2 = unhat(sub3(hat(w1), delta_scalar2(g, phi)))
        w2_bad = unhat(add3(hat(w2), noncob))
        ext2_bad = build(g, w2_bad)
        m = shear_matrix(g, phi)
        witness = quadratic_morphism_violation(ext1.total, ext2_bad.total, m)
        assert witness is not None, name
        assert witness[0] == "bracket", name
        tested += 1
    assert tested >= 2


def test_isometries_compose(gallery, supercyclic_bases):
    rng = random.Random(47)
    for name in ("heisenberg3", "abelian(1|2)", "g(2)"):
        g = gallery[name]
        w1 = random_supercyclic_cocycle(g, rng, basis=supercyclic_bases[name])
        p1 = random_scalar2(g, rng)
        p2 = random_scalar2(g, rng)
        s1 = s_phi_isometry(g, w1, p1)
        s2 = s_phi_isometry(g, s1.target.omega, p2)
        s12 = s_phi_isometry(g, w1, add_scalar2(p1, p2))
        assert mat_mul(s2.matrix, s1.matrix) == s12.matrix, name
        assert s2.target.omega == s12.target.omega, name


def test_nilpotence_preserved(nilpotent_gallery, supercyclic_bases):
    rng = random.Random(53)
    for name, g in nilpotent_gallery.items():
        for _ in range(3):
            w = random_supercyclic_cocycle(g, rng,
                                           basis=supercyclic_bases[name])
            ext = build(g, w)
            assert sq.is_nilpotent(ext.total.algebra), name


def test_center_formula_for_zero_cocycle(gallery):
    """z(T*_0 g) = z(g) + annihilator of [g, g], computed independently."""
    for name, g in gallery.items():
        ext = build(g)
        n = g.dim
        N = 2 * n
        zg = center(g)
        derived = derived_by_dense(g)
        if derived.dim:
            ann = kernel(mat(derived.vectors))
        else:
            ann = [unit_vec(n, k) for k in range(n)]
        expected_vectors = [v + (F(0),) * n for v in zg.vectors]
        expected_vectors += [(F(0),) * n + tuple(a) for a in ann]
        expected = subspace(ext.total.basis, expected_vectors)
        assert center(ext.total.algebra) == expected, name


# --- the sparse morphism check against the dense loop it replaced ------------

def _dense_morphism_violation(src, dst, m):
    """First failure of m as a quadratic morphism, by dense products."""
    n = src.dim
    cols = [tuple(m[r][a] for r in range(len(m))) for a in range(n)]
    for a in range(n):
        if not vec_is_zero(cols[a]) and (
                vector_parity(dst.basis, cols[a]) != src.basis.parity(a)):
            return ("parity", a)
    for a in range(n):
        for b in range(n):
            lhs = mat_vec(m, bracket(src.algebra, unit_vec(n, a),
                                     unit_vec(n, b)))
            if lhs != bracket(dst.algebra, cols[a], cols[b]):
                return ("bracket", (a, b))
            if dst.form.apply(cols[a], cols[b]) != src.form.apply(
                    unit_vec(n, a), unit_vec(n, b)):
                return ("form", (a, b))
    return None


@pytest.fixture(scope="module")
def odd_decomposition():
    odd = orthogonal_direct_sum(build(sq.abelian(1, 2)).total, even_line())
    return odd, decompose(odd)


@pytest.fixture(scope="module")
def morphisms(odd_decomposition):
    """(src, dst, m): a recognition isometry, a shear isometry between
    extensions with odd parts, and a non-square codimension-1 embedding."""
    ext = build(sq.heisenberg3())
    rec, psi = recognize(ext.total, ext.dual_ideal())
    g = sq.build_glnn(1)
    shear = s_phi_isometry(g, zero_cochain2(g),
                           random_scalar2(g, random.Random(5)))
    odd, dec = odd_decomposition
    return [(ext.total, rec.total, psi),
            (shear.source.total, shear.target.total, shear.matrix),
            (odd, dec.extension.total, dec.embedding)]


def _perturbed(data, m):
    r = data.draw(st.integers(0, len(m) - 1))
    c = data.draw(st.integers(0, len(m[0]) - 1))
    delta = data.draw(st.fractions(min_value=-3, max_value=3,
                                   max_denominator=2).filter(bool))
    return tuple(tuple(q + delta if (i, j) == (r, c) else q
                       for j, q in enumerate(row))
                 for i, row in enumerate(m))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_morphism_check_matches_dense_loop(morphisms, data):
    for src, dst, m in morphisms:
        assert quadratic_morphism_violation(src, dst, m) is None
        assert _dense_morphism_violation(src, dst, m) is None
        bad = _perturbed(data, m)
        assert (quadratic_morphism_violation(src, dst, bad)
                == _dense_morphism_violation(src, dst, bad))


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_verify_isometry_reports_the_dense_witness(morphisms, data):
    """verify_isometry passes the two square isometries, and refutes a
    perturbation of each with the dense loop's kind and witness.  There
    is no rank test: a singular perturbation always fails the dense
    loop, since the source's form has no radical."""
    messages = {"parity": "not even", "bracket": "not a bracket map",
                "form": "not an isometry"}
    for src, dst, m in morphisms[:2]:
        verify_isometry(src, dst, m)
        bad = _perturbed(data, m)
        witness = _dense_morphism_violation(src, dst, bad)
        assert witness is not None or rank(bad) == src.dim
        if witness is None:
            continue
        with pytest.raises(InternalCheckError,
                           match=messages[witness[0]]) as exc:
            verify_isometry(src, dst, bad)
        assert exc.value.witness == witness[1]


def test_verify_isometry_rejects_a_singular_even_map(morphisms):
    """A verified isometry with one column zeroed is even but not
    injective: the form check refutes it at that column, with no rank
    test."""
    for src, dst, m in morphisms[:2]:
        for a in range(src.dim):
            bad = tuple(tuple(0 if j == a else q for j, q in enumerate(row))
                        for row in m)
            assert rank(bad) < src.dim
            assert quadratic_morphism_violation(src, dst, bad)[0] != "parity"
            with pytest.raises(InternalCheckError) as exc:
                verify_isometry(src, dst, bad)
            assert exc.value.witness == _dense_morphism_violation(
                src, dst, bad)[1]


def test_verify_isometry_rejects_other_shapes(morphisms):
    """Only square matrices between algebras of one dimension: the odd
    case's (n+1) x n embedding, a restriction of a verified isometry, is
    refused like any other shape."""
    for src, dst, m in (morphisms[0], morphisms[2]):
        for shape in (m[:-1], m + m[:1], tuple(r[:-1] for r in m)):
            with pytest.raises(DimensionMismatch):
                verify_isometry(src, dst, shape)
    odd, ext, embedding = morphisms[2]
    assert (len(embedding), len(embedding[0])) == (odd.dim + 1, odd.dim)
    with pytest.raises(DimensionMismatch):
        verify_isometry(odd, ext, embedding)
    with pytest.raises(DimensionMismatch):
        verify_isometry(ext, odd, tuple(zip(*embedding)))


# --- the sparse builders against the dense formulas --------------------------

def test_extension_table_matches_dense_formula(gallery, z2_bases):
    """The extension's bracket table, for cocycles and for cochains that
    are not, equals the dense extension tensor entry by entry."""
    from superquad.tstar import _raw_extension
    rng = random.Random(59)
    for name, g in gallery.items():
        p, c = g.basis.parities, dense.bracket_tensor(g)
        cochains = [random_cochain2(g, rng) for _ in range(2)]
        cochains += [random_cocycle2(g, rng, basis=z2_bases[name])]
        for w in cochains:
            alg, _ = _raw_extension(g, w)
            want = dense.extension_tensor(p, c, dense.cochain2dual_tensor(w))
            assert dense.bracket_tensor(alg) == want, name


def test_shear_matrix_matches_dense_formula(gallery):
    rng = random.Random(61)
    for name, g in gallery.items():
        n = g.dim
        phi = random_scalar2(g, rng)
        m = dense.scalar2_matrix(phi)
        want = [[F(int(r == s)) for s in range(2 * n)] for r in range(2 * n)]
        for i in range(n):
            for k in range(n):
                want[n + k][i] = m[i][k]
        assert shear_matrix(g, phi) == mat(want), name


def test_phi_on_another_basis_is_rejected():
    h3 = sq.heisenberg3()
    for phi in (ScalarCochain2(sq.build_gn(2).basis, {(0, 1): 1}),
                ScalarCochain2(sq.abelian(2, 1).basis, {(0, 1): 1})):
        with pytest.raises(DimensionMismatch):
            delta_scalar2(h3, phi)
        with pytest.raises(DimensionMismatch):
            s_phi_isometry(h3, zero_cochain2(h3), phi)


def test_build_reports_an_extension_that_fails_its_axiom_check():
    """build does not check g's own axioms: with omega = 0 a table that
    breaks Jacobi passes the cocycle and supercyclicity checks, and
    constructing the extension's quadratic algebra raises AxiomError with
    the extension's Jacobi triples."""
    from superquad.tstar import _raw_extension
    g = sq.from_brackets(("x", "y", "z"), (0, 0, 0),
                         {("x", "y"): {"z": 1}, ("x", "z"): {"x": 1},
                          ("y", "z"): {"x": 1}})
    with pytest.raises(AxiomError) as exc:
        build(g)
    report = exc.value.report
    alg, _ = _raw_extension(g, zero_cochain2(g))
    assert report.jacobi == tuple(jacobi_violations(alg)) != ()


def test_build_on_a_g_that_fails_jacobi_names_no_cochain_triple():
    """For a g that fails Jacobi, a cocycle omega that is not supercyclic
    gives the AxiomError of the extension's failed Jacobi check: build
    classifies the extension's failure by the check that found it, and
    the cocycle verifier finds no triple of omega to name."""
    from superquad.tstar import _raw_extension
    g = sq.from_brackets(("x", "y", "z"), (0, 0, 0),
                         {("x", "y"): {"z": 1}, ("x", "z"): {"x": 1},
                          ("y", "z"): {"x": 1}})
    w = Cochain2Dual(g.basis, {(0, 2, 1): 1})
    assert is_cocycle2(g, w) and not is_supercyclic(w)
    with pytest.raises(AxiomError) as exc:
        build(g, w)
    alg, _ = _raw_extension(g, w)
    assert exc.value.report.jacobi == tuple(jacobi_violations(alg)) != ()


def test_build_checks_grading_and_skew_once(monkeypatch):
    """The grading and super-skew-symmetry of the extension are checked
    once, by the key check of its one construction; check_axioms then
    evaluates only Jacobi."""
    import superquad.superalgebra as sa
    g = sq.build_gn(2)
    calls = []

    def counted(obj, *args, check=sa.store_free_entries, **kw):
        calls.append((type(obj).__name__, obj.basis.dim, kw.get("error")))
        return check(obj, *args, **kw)
    monkeypatch.setattr(sa, "store_free_entries", counted)
    build(g)
    assert calls == [("LieSuperalgebra", 2 * g.dim, AxiomError)]
