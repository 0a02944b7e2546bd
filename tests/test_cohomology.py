import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import superquad as sq
from superquad.cohomology import (Cochain2Dual, ScalarCochain2,
                                  ScalarCochain3, add3, b3_basis, canon3,
                                  closed3_defect, closed3_violation,
                                  cocycle2_defect,
                                  cohomologous, collect_alt3,
                                  collect_cochain2dual, delta_scalar2,
                                  expand_alt3, expand_cochain2dual,
                                  expand_scalar2, free_coords_alt3,
                                  free_coords_cochain2dual,
                                  free_coords_scalar2, hat, is_closed3,
                                  is_cocycle2, is_supercyclic, is_zero3,
                                  sub3, unhat, z2_basis,
                                  z2_supercyclic_basis, z3_basis,
                                  zero_cochain2, zero_scalar2)
from superquad.errors import CochainError, PreconditionError
from superquad.gallery import random_scalar2, random_supercyclic_cocycle
from superquad.linalg import (frac, inverse, kernel, mat, mat_vec, rank, rref,
                              solve, transpose, unit_vec, vec)
from superquad.superalgebra import (EVEN, ODD, LieSuperalgebra, bracket,
                                    graded_basis, sgn)

F = Fraction


# --- containers and the free-coordinate enumeration --------------------------

def _bases():
    return st.lists(st.sampled_from([EVEN, ODD]), min_size=1, max_size=4).map(
        lambda ps: graded_basis(tuple(f"v{i}" for i in range(len(ps))),
                                tuple(ps)))


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@given(_bases(), st.data())
@settings(max_examples=60, deadline=None)
def test_alt3_expansion_matches_dense_definition(basis, data):
    coords = {}
    for key in free_coords_alt3(basis):
        coords[key] = data.draw(small_fractions)
    f = expand_alt3(basis, coords)
    p = basis.parities
    n = basis.dim
    # dense-tensor definition: evenness and the two adjacent swaps
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (p[i] + p[j] + p[k]) % 2:
                    assert f.f[i][j][k] == 0
                assert f.f[i][j][k] == -sgn(p[i] * p[j]) * f.f[j][i][k]
                assert f.f[i][j][k] == -sgn(p[j] * p[k]) * f.f[i][k][j]
    # round trip
    collected = collect_alt3(f)
    for key, q in coords.items():
        assert collected.get(key, F(0)) == q


@given(_bases(), st.data())
@settings(max_examples=60, deadline=None)
def test_cochain2dual_expansion_matches_dense_definition(basis, data):
    coords = {}
    for key in free_coords_cochain2dual(basis):
        coords[key] = data.draw(small_fractions)
    w = expand_cochain2dual(basis, coords)
    p = basis.parities
    n = basis.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (p[i] + p[j] + p[k]) % 2:
                    assert w.w[i][j][k] == 0
                assert w.w[i][j][k] == -sgn(p[i] * p[j]) * w.w[j][i][k]
    collected = collect_cochain2dual(w)
    for key, q in coords.items():
        assert collected.get(key, F(0)) == q


def test_free_coords_diagonal_rules():
    basis = graded_basis(("e", "o1", "o2"), (EVEN, ODD, ODD))
    alt3 = free_coords_alt3(basis)
    assert (1, 1, 0) not in alt3            # not ascending
    assert (0, 1, 1) in alt3                # repeated odd index is free
    assert (0, 0, 0) not in alt3            # repeated even index vanishes
    assert all((basis.parity(i) + basis.parity(j) + basis.parity(k)) % 2 == 0
               for (i, j, k) in alt3)
    s2 = free_coords_scalar2(basis)
    assert (1, 1) in s2 and (0, 0) not in s2 and (1, 2) in s2
    assert (0, 1) not in s2                 # mixed parity pairs vanish


def test_container_validation_errors():
    basis = graded_basis(("e1", "e2"), (EVEN, EVEN))
    bad = [[[F(0), F(0)], [F(1), F(0)]], [[F(1), F(0)], [F(0), F(0)]]]
    with pytest.raises(CochainError):
        Cochain2Dual(basis, tuple(tuple(tuple(v) for v in r) for r in bad))
    with pytest.raises(CochainError):
        ScalarCochain2(basis, mat([[1, 0], [0, 0]]))


# --- supercyclicity and the transported tensor -------------------------------

def test_supercyclic_examples():
    a3 = sq.abelian(3, 0)
    assert is_supercyclic(zero_cochain2(a3))
    w = expand_cochain2dual(a3.basis, {(0, 1, 2): 1})
    assert not is_supercyclic(w)
    from superquad.cohomology import supercyclic_violation
    assert supercyclic_violation(w) is not None


def test_hat_requires_supercyclic():
    a3 = sq.abelian(3, 0)
    w = expand_cochain2dual(a3.basis, {(0, 1, 2): 1})
    with pytest.raises(PreconditionError):
        hat(w)


def test_hat_unhat_roundtrip(gallery, supercyclic_bases):
    rng = random.Random(11)
    for name, g in gallery.items():
        for _ in range(5):
            w = random_supercyclic_cocycle(g, rng,
                                           basis=supercyclic_bases[name])
            f = hat(w)
            assert is_closed3(g, f), name
            assert unhat(f).w == w.w, name
        for f in z3_basis(g):
            w = unhat(f)
            assert is_supercyclic(w), name
            assert is_cocycle2(g, w), name
            assert hat(w).f == f.f, name


def test_dimension_agreement(gallery):
    for name, g in gallery.items():
        assert len(z2_supercyclic_basis(g)) == len(z3_basis(g)), name


def test_frozen_cohomology_dims():
    assert len(z3_basis(sq.abelian(2, 0))) == 0
    a3 = sq.abelian(3, 0)
    assert (len(z3_basis(a3)), len(b3_basis(a3)), sq.h3_dim(a3)) == (1, 0, 1)
    h3 = sq.heisenberg3()
    assert (len(z3_basis(h3)), len(b3_basis(h3)), sq.h3_dim(h3)) == (1, 0, 1)
    # regression constants, computed once with this library and pinned
    g2 = sq.build_gn(2)
    assert (len(z3_basis(g2)), len(b3_basis(g2))) == (4, 4)
    a12 = sq.abelian(1, 2)
    assert (len(z3_basis(a12)), len(b3_basis(a12))) == (3, 0)


def test_b3_inside_z3(gallery):
    for name, g in gallery.items():
        for f in b3_basis(g):
            assert is_closed3(g, f), name


def test_cocycle2_examples(gallery):
    a3 = sq.abelian(3, 0)
    w = expand_cochain2dual(a3.basis, {(0, 1, 2): 1})
    assert is_cocycle2(a3, w)  # abelian: every container-valid cochain
    h3 = sq.heisenberg3()
    rng = random.Random(5)
    found = False
    for _ in range(20):
        w = sq.gallery.random_cochain2(h3, rng)
        if not is_cocycle2(h3, w):
            from superquad.cohomology import cocycle2_violation
            assert cocycle2_violation(h3, w) is not None
            found = True
            break
    assert found


# --- the coboundary ----------------------------------------------------------

def _phi_apply(phi, x, y):
    return sum((xi * phi.p[i][j] * yj
                for i, xi in enumerate(x) if xi != 0
                for j, yj in enumerate(y) if yj != 0), F(0))


def _delta_direct(g, phi, i, j, k):
    """Independent evaluation of the coboundary formula using bracket
    vectors and the bilinear extension of phi."""
    n = g.dim
    p = g.basis.parities
    ei, ej, ek = unit_vec(n, i), unit_vec(n, j), unit_vec(n, k)
    return (-_phi_apply(phi, bracket(g, ei, ej), ek)
            + sgn(p[j] * p[k]) * _phi_apply(phi, bracket(g, ei, ek), ej)
            - sgn(p[i] * (p[j] + p[k])) * _phi_apply(phi, bracket(g, ej, ek), ei))


def test_delta_matches_direct_evaluation(gallery):
    rng = random.Random(23)
    for name, g in gallery.items():
        phi = random_scalar2(g, rng)
        df = delta_scalar2(g, phi)
        n = g.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert df.f[i][j][k] == _delta_direct(g, phi, i, j, k), \
                        (name, i, j, k)


def test_delta_zero_cases():
    a = sq.abelian(2, 2)
    rng = random.Random(3)
    assert is_zero3(delta_scalar2(a, random_scalar2(a, rng)))
    h3 = sq.heisenberg3()
    assert is_zero3(delta_scalar2(h3, zero_scalar2(h3)))


def test_delta_lands_in_z3(gallery):
    rng = random.Random(9)
    for name, g in gallery.items():
        for _ in range(3):
            phi = random_scalar2(g, rng)
            assert is_closed3(g, delta_scalar2(g, phi)), name


def test_h3_volume_not_a_coboundary():
    h3 = sq.heisenberg3()
    vol = z3_basis(h3)[0]
    zero = ScalarCochain3(h3.basis, zero_cochain2(h3).w)
    assert cohomologous(h3, zero, vol) is None


def test_cohomologous_identity_and_roundtrip(gallery):
    rng = random.Random(31)
    for name, g in gallery.items():
        z3 = z3_basis(g)
        if not z3:
            continue
        f1 = z3[0]
        phi = cohomologous(g, f1, f1)
        assert phi is not None
        assert is_zero3(sub3(sub3(f1, f1), delta_scalar2(g, phi))) or \
            is_zero3(delta_scalar2(g, phi))
        # construct-then-recover
        phi0 = random_scalar2(g, rng)
        f2 = sub3(f1, delta_scalar2(g, phi0))
        phi1 = cohomologous(g, f1, f2)
        assert phi1 is not None, name
        assert delta_scalar2(g, phi1).f == delta_scalar2(g, phi0).f, name


# --- the sorted-tuple and table-built fast paths against dense oracles -------

def _closed3_violation_all_tuples(g, f):
    """First violated 4-tuple over all n^4 orderings."""
    for quad in itertools.product(range(g.dim), repeat=4):
        if closed3_defect(g, f, *quad) != 0:
            return quad
    return None


def test_closed3_violation_matches_full_loop(gallery):
    rng = random.Random(41)
    violated = 0
    for name, g in gallery.items():
        coords = free_coords_alt3(g.basis)
        cochains = [expand_alt3(g.basis, {key: 1}) for key in coords]
        cochains += [expand_alt3(g.basis, {key: rng.randint(-2, 2)
                                           for key in coords
                                           if rng.random() < 0.4})
                     for _ in range(4)]
        for f in cochains:
            full = _closed3_violation_all_tuples(g, f)
            assert closed3_violation(g, f) == full, name
            violated += full is not None
    assert violated > 10


def _z3_oracle(g):
    """Kernel of the closedness identity at every one of the n^4 basis
    4-tuples, each row read off the dense defect of the unit cochains."""
    coords = free_coords_alt3(g.basis)
    units = [expand_alt3(g.basis, {key: 1}) for key in coords]
    rows = [tuple(closed3_defect(g, u, *quad) for u in units)
            for quad in itertools.product(range(g.dim), repeat=4)]
    return [expand_alt3(g.basis, {coords[t]: q for t, q in enumerate(v)
                                  if q != 0})
            for v in kernel(mat(rows))]


def test_z3_basis_matches_all_tuples_oracle(gallery):
    for name, g in gallery.items():
        assert [f.f for f in z3_basis(g)] == [f.f for f in _z3_oracle(g)], \
            name


def _coboundary_oracle(g):
    """Free alt-3 coordinates of delta_scalar2 of each unit 2-cochain."""
    coords = free_coords_alt3(g.basis)
    cols = []
    for key in free_coords_scalar2(g.basis):
        d = delta_scalar2(g, expand_scalar2(g.basis, {key: 1}))
        cols.append(tuple(d.f[i][j][k] for (i, j, k) in coords))
    return coords, cols


def test_b3_basis_and_cohomologous_match_dense_coboundaries(gallery):
    rng = random.Random(43)
    solved = rejected = 0
    for name, g in gallery.items():
        coords, cols = _coboundary_oracle(g)
        R, pivots = rref(mat(cols)) if cols else ((), ())
        expected = [expand_alt3(g.basis, {coords[t]: q
                                          for t, q in enumerate(R[r])
                                          if q != 0}).f
                    for r in range(len(pivots))]
        assert [f.f for f in b3_basis(g)] == expected, name
        z3 = z3_basis(g)
        if not z3 or not cols:
            continue
        keys2 = free_coords_scalar2(g.basis)
        f1 = z3[0]
        for f2 in (sub3(f1, delta_scalar2(g, random_scalar2(g, rng))),
                   add3(f1, z3[-1]), f1):
            target = tuple(f1.f[i][j][k] - f2.f[i][j][k]
                           for (i, j, k) in coords)
            sol = solve(transpose(mat(cols)), target)
            phi = cohomologous(g, f1, f2)
            if sol.particular is None:
                assert phi is None, name
                rejected += 1
            else:
                assert phi.p == expand_scalar2(
                    g.basis, {keys2[t]: q
                              for t, q in enumerate(sol.particular)
                              if q != 0}).p, name
                solved += 1
    assert solved >= 4 and rejected >= 1


# --- invariance under graded base change --------------------------------------

def _random_graded_invertible(basis, rng):
    n = basis.dim
    while True:
        m = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if basis.parity(i) == basis.parity(j):
                    m[i][j] = F(rng.randint(-3, 3))
        M = tuple(tuple(r) for r in m)
        if rank(M) == n:
            return M


def _conjugate_algebra(g, L):
    """Structure constants of the bracket [x, y]' = L^{-1}[Lx, Ly]."""
    n = g.dim
    Linv = inverse(L)
    cols = [mat_vec(L, unit_vec(n, i)) for i in range(n)]
    c = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(mat_vec(Linv, bracket(g, cols[i], cols[j])))
        c.append(tuple(row))
    return LieSuperalgebra(g.basis, tuple(c))


def _transport_cochain2(w, L):
    basis = w.basis
    n = basis.dim
    cols = [mat_vec(L, unit_vec(n, i)) for i in range(n)]
    t = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = []
            for k in range(n):
                acc = F(0)
                for a, xa in enumerate(cols[i]):
                    if xa == 0:
                        continue
                    for b, yb in enumerate(cols[j]):
                        if yb == 0:
                            continue
                        for c, zc in enumerate(cols[k]):
                            if zc == 0:
                                continue
                            acc += xa * yb * zc * w.w[a][b][c]
                entry.append(acc)
            row.append(tuple(entry))
        t.append(tuple(row))
    return Cochain2Dual(basis, tuple(t))


def test_identities_invariant_under_graded_base_change(gallery,
                                                       supercyclic_bases):
    rng = random.Random(17)
    for name in ("heisenberg3", "g(2)", "abelian(1|2)"):
        g = gallery[name]
        L = _random_graded_invertible(g.basis, rng)
        g2 = _conjugate_algebra(g, L)
        assert sq.check_axioms(g2).passed
        for _ in range(3):
            w = random_supercyclic_cocycle(g, rng,
                                           basis=supercyclic_bases[name])
            tw = _transport_cochain2(w, L)
            assert is_cocycle2(g2, tw) == is_cocycle2(g, w)
            assert is_supercyclic(tw) == is_supercyclic(w)
        for _ in range(3):
            w = sq.gallery.random_cochain2(g, rng)
            tw = _transport_cochain2(w, L)
            assert is_cocycle2(g2, tw) == is_cocycle2(g, w)
            assert is_supercyclic(tw) == is_supercyclic(w)
            f_ok = True
            try:
                f = hat(w)
            except PreconditionError:
                f_ok = False
            if f_ok:
                tf = hat(tw)
                assert is_closed3(g2, tf) == is_closed3(g, f)
        # the coboundary is equivariant: delta of the pulled-back cochain
        # equals the pulled-back coboundary
        from superquad.linalg import mat_mul, transpose
        for _ in range(3):
            phi = random_scalar2(g, rng)
            pulled = ScalarCochain2(
                g.basis, mat_mul(mat_mul(transpose(L), phi.p), L))
            lhs = delta_scalar2(g2, pulled)
            rhs = _transport_scalar3(delta_scalar2(g, phi), L)
            assert lhs.f == rhs.f


def _transport_scalar3(f, L):
    basis = f.basis
    n = basis.dim
    from superquad.linalg import mat_vec, unit_vec as uv
    cols = [mat_vec(L, uv(n, i)) for i in range(n)]
    t = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = []
            for k in range(n):
                acc = F(0)
                for a, xa in enumerate(cols[i]):
                    if xa == 0:
                        continue
                    for b, yb in enumerate(cols[j]):
                        if yb == 0:
                            continue
                        for c, zc in enumerate(cols[k]):
                            if zc == 0:
                                continue
                            acc += xa * yb * zc * f.f[a][b][c]
                entry.append(acc)
            row.append(tuple(entry))
        t.append(tuple(row))
    return ScalarCochain3(basis, tuple(t))
