import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import superquad as sq
from superquad.cohomology import (Cochain2Dual, ScalarCochain2,
                                  ScalarCochain3, _coboundary, b3_basis,
                                  closed3_violation, cocycle2_violation,
                                  cohomologous, collect_alt3,
                                  collect_cochain2dual, collect_scalar2,
                                  delta_scalar2, expand_alt3,
                                  free_coords_alt3, free_coords_cochain2dual,
                                  free_coords_scalar2, hat, is_closed3,
                                  is_cocycle2, is_supercyclic,
                                  sub3, supercyclic_violation, unhat,
                                  z2_basis, z2_supercyclic_basis, z3_basis,
                                  zero_cochain2, zero_scalar2)
from superquad.errors import (AxiomError, CochainError, DimensionMismatch,
                              PreconditionError)
from superquad.gallery import random_scalar2, random_supercyclic_cocycle
from superquad.linalg import RowReducer, mat, rank, unit_vec
from superquad.superalgebra import (EVEN, ODD, LieSuperalgebra, bracket,
                                    canon, from_brackets, graded_basis,
                                    is_free, sgn)

import dense_oracle as dense
from dense_oracle import inverse, mat_mul, mat_vec, transpose
from support import (add3, basis_coords, bracket_tensors, cocycle2_defect,
                     direct_sum, disguise, is_zero3, upper,
                     z2_supercyclic_direct)

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
    # dense-tensor definition: evenness and the two adjacent swaps
    t = dense.alt3_tensor(f)
    assert dense.alt3_violation(basis.parities, t) is None
    # round trips, through the coordinates and through the dense tensor
    assert collect_alt3(f) == {key: q for key, q in coords.items() if q != 0}
    assert dense.alt3_from_tensor(basis, t) == f


@given(_bases(), st.data())
@settings(max_examples=60, deadline=None)
def test_cochain2dual_expansion_matches_dense_definition(basis, data):
    coords = {}
    for key in free_coords_cochain2dual(basis):
        coords[key] = data.draw(small_fractions)
    w = Cochain2Dual(basis, coords)
    t = dense.cochain2dual_tensor(w)
    assert dense.cochain2dual_violation(basis.parities, t) is None
    assert collect_cochain2dual(w) == {key: q for key, q in coords.items()
                                       if q != 0}
    assert dense.cochain2dual_from_tensor(basis, t) == w


@given(_bases(), st.data())
@settings(max_examples=60, deadline=None)
def test_scalar2_expansion_matches_dense_definition(basis, data):
    coords = {}
    for key in free_coords_scalar2(basis):
        coords[key] = data.draw(small_fractions)
    phi = ScalarCochain2(basis, coords)
    m = dense.scalar2_matrix(phi)
    assert dense.scalar2_violation(basis.parities, m) is None
    assert collect_scalar2(phi) == {key: q for key, q in coords.items()
                                    if q != 0}
    assert dense.scalar2_from_matrix(basis, m) == phi


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


def test_free_coords_match_the_full_filter(gallery):
    """Each free-coordinate list is the n^arity index tuples that are their
    own canonical representative under the oracle's rule for the
    container, in lexicographic order."""
    mixed = graded_basis([f"v{i}" for i in range(12)],
                         (ODD, EVEN, EVEN, ODD, ODD, EVEN, ODD, EVEN, EVEN,
                          ODD, EVEN, ODD))
    for basis in [g.basis for g in gallery.values()] + [mixed]:
        for coords, arity, rule in (
                (free_coords_alt3, 3, dense.canon3),
                (free_coords_cochain2dual, 3, dense.canon_cochain2dual),
                (free_coords_scalar2, 2, dense.canon_scalar2)):
            assert coords(basis) == [
                key for key in itertools.product(range(basis.dim),
                                                 repeat=arity)
                if rule(basis.parities, *key)[0] == key], coords.__name__


# (oracle rule, arity, head, symmetric) for each container
_RULES = [(dense.canon3, 3, None, False),
          (dense.canon_cochain2dual, 3, 2, False),
          (dense.canon_scalar2, 2, None, False),
          (dense.canon_form, 2, None, True)]


@pytest.mark.parametrize("parities", [
    (EVEN,) * 4, (ODD,) * 4, (EVEN, ODD, EVEN, ODD), (ODD, EVEN, ODD, EVEN),
    (ODD, ODD, EVEN, EVEN, ODD)],
    ids=["even", "odd", "even-odd", "odd-even", "mixed"])
def test_canon_matches_each_containers_rule(parities):
    """The one Koszul rule gives the free coordinate and sign of the
    oracle's per-container rule at every ordered pair and triple.  Odd
    vectors come before and between even ones as well as after them."""
    for rule, arity, head, symmetric in _RULES:
        for key in itertools.product(range(len(parities)), repeat=arity):
            want = rule(parities, *key)
            assert canon(parities, key, head, symmetric) == want, (
                rule.__name__, key)


@given(st.lists(st.sampled_from([EVEN, ODD]), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_is_free_matches_canon_on_every_key(parities):
    """The sort-free key test is canon's "maps the key to itself", on
    every pair and triple of drawn parities, for a head of 2 and of all
    indices, alternating and symmetric; where the oracle has a rule for
    the container (canon itself calls is_free), it agrees with that too."""
    n = len(parities)
    rules = {(a, h, sym): rule for rule, a, h, sym in _RULES}
    for arity, head, symmetric in itertools.product((2, 3), (2, None),
                                                    (False, True)):
        rule = rules.get((arity, None if head == arity else head, symmetric))
        for key in itertools.product(range(n), repeat=arity):
            free = is_free(parities, key, head, symmetric)
            case = (arity, head, symmetric, key)
            assert free == (canon(parities, key, head, symmetric)[0]
                            == key), case
            if rule is not None:
                assert free == (rule(parities, *key)[0] == key), case


def test_container_validation_errors():
    basis = graded_basis(("e1", "e2"), (EVEN, EVEN))
    with pytest.raises(CochainError):
        Cochain2Dual(basis, {(1, 0, 0): 1})      # not i <= j
    with pytest.raises(CochainError):
        Cochain2Dual(basis, {(0, 0, 1): 1})      # repeated even index
    with pytest.raises(CochainError):
        ScalarCochain2(basis, {(0, 0): 1})
    mixed = graded_basis(("e", "o"), (EVEN, ODD))
    with pytest.raises(CochainError):
        Cochain2Dual(mixed, {(0, 1, 0): 1})      # odd parity sum
    with pytest.raises(CochainError):
        ScalarCochain2(mixed, {(0, 1): 1})
    with pytest.raises(CochainError):
        ScalarCochain3(mixed, {(0, 1, 1): 1, (1, 1, 0): 1})
    assert ScalarCochain3(mixed, {(0, 1, 1): 1}).coords == {(0, 1, 1): 1}
    with pytest.raises(DimensionMismatch):
        ScalarCochain2(basis, {(0, 1, 1): 1})    # wrong arity


def test_non_free_keys_are_rejected():
    """Keys that are not free coordinates, or indices outside the basis,
    are errors rather than silently dropped or an IndexError."""
    h3 = sq.heisenberg3()
    with pytest.raises(CochainError):
        expand_alt3(h3.basis, {(2, 1, 0): 1})
    with pytest.raises(DimensionMismatch):
        expand_alt3(h3.basis, {(0, 1, 7): 1})
    with pytest.raises(CochainError):
        Cochain2Dual(h3.basis, {(1, 0, 2): 1})
    with pytest.raises(DimensionMismatch):
        ScalarCochain2(h3.basis, {(0, 5): 1})
    with pytest.raises(DimensionMismatch):
        ScalarCochain2(h3.basis, {(-1, 0): 1})
    # structure constants have the key set of Cochain2Dual: below the
    # diagonal, an even self-bracket and an odd parity sum are not free
    basis = graded_basis(("e1", "o1", "e2"), (EVEN, ODD, EVEN))
    for key in ((2, 0, 0), (0, 0, 2), (0, 1, 0)):
        with pytest.raises(AxiomError) as exc:
            LieSuperalgebra(basis, {(1, 1, 0): 1, key: 1})
        assert exc.value.witness == key
    with pytest.raises(DimensionMismatch):
        LieSuperalgebra(basis, {(0, 1, 3): 1})
    # zero values are dropped, so equal cochains compare equal
    assert expand_alt3(h3.basis, {(0, 1, 2): 0}) == expand_alt3(h3.basis, {})
    assert LieSuperalgebra(basis, {(0, 2, 0): 0}) == LieSuperalgebra(basis, {})


# --- supercyclicity and the transported tensor -------------------------------

def test_supercyclic_examples():
    a3 = sq.abelian(3, 0)
    assert is_supercyclic(zero_cochain2(a3))
    w = Cochain2Dual(a3.basis, {(0, 1, 2): 1})
    assert not is_supercyclic(w)
    from superquad.cohomology import supercyclic_violation
    assert supercyclic_violation(w) is not None


def test_hat_requires_supercyclic():
    a3 = sq.abelian(3, 0)
    w = Cochain2Dual(a3.basis, {(0, 1, 2): 1})
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
            assert unhat(f) == w, name
            # the same numbers: f(x, y, z) = w(x, y)(z) entry by entry
            assert dense.alt3_tensor(f) == dense.cochain2dual_tensor(w), name
        for f in z3_basis(g):
            w = unhat(f)
            assert is_supercyclic(w), name
            assert is_cocycle2(g, w), name
            assert hat(w) == f, name
            assert dense.alt3_tensor(f) == dense.cochain2dual_tensor(w), name


def test_dimension_agreement(gallery):
    """The paper's dimension match, dim Z^2_sc = dim Z^3, checked with
    Z^2_sc solved directly: the library solves Z^2_sc as unhat of the
    kernel of the coboundary on 3-cochains, where the match holds by
    construction."""
    for name, g in gallery.items():
        assert len(z2_supercyclic_direct(g)) == len(z3_basis(g)), name


def _assert_z2_supercyclic_routes_agree(g, name):
    z2_sc = z2_supercyclic_basis(g)
    assert z2_sc == dense.z2_supercyclic_from_z3(g.basis, z3_basis(g)), name
    assert z2_sc == z2_supercyclic_direct(g), name


def test_z2_supercyclic_transport_matches_direct_solve(gallery):
    """The kernel of the coboundary on 3-cochains, solved over the alt-3
    coordinates ordered by (j, k, i), each vector signed and unhatted, is
    the basis that unhat of Z^3 read out over the reversed dual-valued
    coordinates gives, and the one the stacked supercyclicity and
    2-cocycle solve returns, order included."""
    algebras = _with_disguised(gallery)
    algebras |= {
        "gl(2,2)": sq.build_glnn(2),
        "gn(2)+gn(2)": direct_sum(sq.build_gn(2), sq.build_gn(2)),
        "T*(gl(1,1))": sq.build(sq.build_glnn(1)).total.algebra,
        "T*(solvable2d)": sq.build(sq.solvable2d()).total.algebra,
        "abelian(0|3)": sq.abelian(0, 3),
        "gn(3)": sq.build_gn(3),
    }
    for name, g in algebras.items():
        _assert_z2_supercyclic_routes_agree(g, name)


@given(bracket_tensors(st.one_of(st.just(F(0)), small_fractions), max_dim=4))
@settings(max_examples=40, deadline=None)
def test_z2_supercyclic_transport_matches_direct_solve_on_drawn_algebras(
        case):
    """The same on drawn graded super-skew tables, Jacobi or not: hat
    matches the 2-cocycle identity of a supercyclic cochain with
    closedness term by term, without Jacobi."""
    basis, coords = basis_coords(*case)
    _assert_z2_supercyclic_routes_agree(LieSuperalgebra(basis, coords), case)


def test_cocycle_solves_add_only_undecided_rows(monkeypatch):
    """The coboundary on 3-cochains of gn(2) + gn(2) has 218 nonzero rows
    over the alt-3 coordinates, 184 of them with one entry.  The reducer
    stores those as unit pivots, and of the other 34 only the 26 with an
    entry off their columns pass through ``add``.  z2_supercyclic_basis
    solves the same map once: one reducer, and no ScalarCochain3."""
    g = direct_sum(sq.build_gn(2), sq.build_gn(2))
    add, init = RowReducer.add, RowReducer.__init__
    made = ScalarCochain3.__init__
    added, built, cochains = [], [], []

    def counting(calls, method):
        def wrapped(self, *args):
            calls.append(args)
            return method(self, *args)
        return wrapped
    monkeypatch.setattr(RowReducer, "add", counting(added, add))
    assert len(z3_basis(g)) == 19
    assert 0 < len(added) <= 26
    monkeypatch.setattr(RowReducer, "__init__", counting(built, init))
    monkeypatch.setattr(ScalarCochain3, "__init__", counting(cochains, made))
    assert len(z2_supercyclic_basis(g)) == 19
    assert (len(built), len(cochains)) == (1, 0)


def test_h3_dim_rejects_an_algebra_that_fails_jacobi():
    """[e1, e2] = e1 and [e3, e4] = e2 + e4 fail Jacobi at (e1, e3, e4).
    There B^3 need not lie in Z^3 (dim Z^3 = 3 < dim B^3 = 4), and h3_dim
    raises AxiomError instead of returning dim Z^3 - dim B^3 = -1."""
    g = from_brackets(("e1", "e2", "e3", "e4"), (EVEN,) * 4,
                      {("e1", "e2"): {"e1": 1}, ("e3", "e4"): {"e2": 1,
                                                               "e4": 1}})
    assert (0, 2, 3) in sq.check_axioms(g).jacobi
    assert (len(z3_basis(g)), len(b3_basis(g))) == (3, 4)
    with pytest.raises(AxiomError):
        sq.h3_dim(g)


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


def test_violations_reject_a_cochain_on_another_basis():
    """A cochain on another basis is an error, not a verdict."""
    g2, h3 = sq.build_gn(2), sq.heisenberg3()
    w = Cochain2Dual(h3.basis, {(0, 1, 2): 1})
    f = ScalarCochain3(h3.basis, {(0, 1, 2): 1})
    for check in (cocycle2_violation, is_cocycle2):
        with pytest.raises(DimensionMismatch):
            check(g2, w)
    for check in (closed3_violation, is_closed3):
        with pytest.raises(DimensionMismatch):
            check(g2, f)


def test_cocycle2_examples(gallery):
    a3 = sq.abelian(3, 0)
    w = Cochain2Dual(a3.basis, {(0, 1, 2): 1})
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
    m = dense.scalar2_matrix(phi)
    return sum((xi * m[i][j] * yj
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
        phis = [ScalarCochain2(g.basis, {key: 1})
                for key in free_coords_scalar2(g.basis)]
        phis += [random_scalar2(g, rng) for _ in range(3)]
        for phi in phis:
            df = dense.alt3_tensor(delta_scalar2(g, phi))
            for i, j, k in itertools.product(range(g.dim), repeat=3):
                assert df[i][j][k] == _delta_direct(g, phi, i, j, k), \
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
    zero = ScalarCochain3(h3.basis, {})
    assert cohomologous(h3, zero, vol) is None


def test_cohomologous_rejects_another_basis_and_an_open_cochain():
    h3, gn2 = sq.heisenberg3(), sq.build_gn(2)
    zero = ScalarCochain3(h3.basis, {})
    with pytest.raises(DimensionMismatch, match="basis differs"):
        cohomologous(h3, zero, ScalarCochain3(gn2.basis, {}))
    f = ScalarCochain3(gn2.basis, {(0, 2, 2): 1})  # d f != 0
    assert not is_closed3(gn2, f)
    with pytest.raises(PreconditionError, match="must be closed"):
        cohomologous(gn2, f, ScalarCochain3(gn2.basis, {}))


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
        assert delta_scalar2(g, phi1) == delta_scalar2(g, phi0), name


# --- the sorted-tuple and table-built fast paths against dense oracles -------

def _interleaved(g):
    """g on its basis reordered odd, even, odd, ... while both last: the
    gallery lists even vectors first, so its sorted tuples never put an
    odd index before an even one, and a sign that depends on that order
    would go unseen."""
    p = g.basis.parities
    odd = [i for i in range(g.dim) if p[i] == ODD]
    even = [i for i in range(g.dim) if p[i] == EVEN]
    order = [i for pair in itertools.zip_longest(odd, even) for i in pair
             if i is not None]
    new = {i: a for a, i in enumerate(order)}
    c = dense.bracket_tensor(g)
    return LieSuperalgebra(
        graded_basis([g.basis.names[i] for i in order], [p[i] for i in order]),
        upper([[[(new[k], q) for k, q in enumerate(c[i][j]) if q]
                for j in order] for i in order]))


def _with_interleaved(gallery):
    algebras = dict(gallery)
    for name in ("gl(1,1)", "g(2)"):
        algebras[name + " interleaved"] = _interleaved(gallery[name])
    return algebras


def _with_disguised(gallery):
    """The interleaved gallery, plus heisenberg3, gl(1,1) and g(2) after a
    seeded basis change with denominators up to 6: dense tables whose
    identities hold only through cancellation."""
    algebras = _with_interleaved(gallery)
    for name in ("heisenberg3", "gl(1,1)", "g(2)"):
        g = gallery[name]
        c, _, _ = disguise(g.basis.parities, dense.bracket_tensor(g), seed=1)
        algebras[name + " disguised"] = LieSuperalgebra(
            g.basis, basis_coords(g.basis.parities, c)[1])
    return algebras


def test_closed3_violation_matches_full_loop(gallery):
    """The closedness map finds the witness of the full n^4 loop over the
    dense tensor, and holds d f at every sorted 4-tuple and nowhere
    else."""
    rng = random.Random(41)
    violated = 0
    for name, g in _with_disguised(gallery).items():
        p, c = g.basis.parities, dense.bracket_tensor(g)
        coords = free_coords_alt3(g.basis)
        cochains = [expand_alt3(g.basis, {key: 1}) for key in coords]
        cochains += [expand_alt3(g.basis, {key: rng.randint(-2, 2)
                                           for key in coords
                                           if rng.random() < 0.4})
                     for _ in range(4)]
        cochains += [expand_alt3(g.basis, {key: F(rng.randint(-3, 3),
                                                   rng.randint(1, 4))
                                           for key in coords})]
        for f in cochains:
            t = dense.alt3_tensor(f)
            full = dense.closed3_violation(p, c, t)
            assert closed3_violation(g, f) == full, name
            violated += full is not None
            d, (acc,) = _coboundary(g)([f.coords.items()])
            assert all(list(quad) == sorted(quad) for quad in acc), name
            for quad in itertools.combinations_with_replacement(
                    range(g.dim), 4):
                assert F(acc.get(quad, 0), d) == dense.closed3_defect(
                    p, c, t, *quad), (name, quad)
    assert violated > 10


def test_delta_map_matches_dense_at_every_free_triple(gallery):
    """The coboundary map holds delta(phi) at every free alt-3 coordinate
    and nowhere else, for unit and random phi."""
    rng = random.Random(29)
    for name, g in _with_disguised(gallery).items():
        p, c = g.basis.parities, dense.bracket_tensor(g)
        coords = free_coords_alt3(g.basis)
        phis = [ScalarCochain2(g.basis, {key: 1})
                for key in free_coords_scalar2(g.basis)]
        phis += [random_scalar2(g, rng) for _ in range(3)]
        phis += [ScalarCochain2(g.basis, {key: F(rng.randint(-3, 3),
                                                 rng.randint(1, 4))
                                          for key in free_coords_scalar2(
                                              g.basis)})]
        for phi in phis:
            m = dense.scalar2_matrix(phi)
            d, (acc,) = _coboundary(g)([phi.coords.items()])
            assert set(acc) <= set(coords), name
            for ijk in coords:
                assert F(acc.get(ijk, 0), d) == dense.coboundary(
                    p, c, m, *ijk), (name, ijk)


def _assert_unit_images_match_dense(g, name):
    """The coboundary's images of all unit 2-cochains, and of all unit
    3-cochains, each list from one pass, against the dense coboundary at
    every free alt-3 triple and the dense closedness defect at every
    sorted 4-tuple, the only tuples they may hold."""
    p, c = g.basis.parities, dense.bracket_tensor(g)
    delta = _coboundary(g)
    keys2, keys3 = free_coords_scalar2(g.basis), free_coords_alt3(g.basis)
    d, images = delta([((key, 1),) for key in keys2])
    for key, image in zip(keys2, images):
        m = dense.scalar2_matrix(ScalarCochain2(g.basis, {key: 1}))
        assert set(image) <= set(keys3), (name, key)
        for t in keys3:
            assert F(image.get(t, 0), d) == dense.coboundary(p, c, m, *t), (
                name, key, t)
    quads = list(itertools.combinations_with_replacement(range(g.dim), 4))
    d, images = delta([((key, 1),) for key in keys3])
    for key, image in zip(keys3, images):
        t3 = dense.alt3_tensor(expand_alt3(g.basis, {key: 1}))
        assert set(image) <= set(quads), (name, key)
        for quad in quads:
            assert F(image.get(quad, 0), d) == dense.closed3_defect(
                p, c, t3, *quad), (name, key, quad)


def test_unit_images_match_dense_coboundary(gallery):
    for name, g in _with_disguised(gallery).items():
        _assert_unit_images_match_dense(g, name)


@given(bracket_tensors(st.one_of(st.just(F(0)), small_fractions), max_dim=4))
@settings(max_examples=40, deadline=None)
def test_unit_images_match_dense_coboundary_on_drawn_algebras(case):
    """The same on drawn graded super-skew tables, Jacobi or not: the
    coboundary formula does not need it."""
    basis, coords = basis_coords(*case)
    _assert_unit_images_match_dense(LieSuperalgebra(basis, coords), case)


def test_cocycle2_violation_matches_dense_loop(gallery, z2_bases):
    """The sorted-triple loop over canonical reads finds the witness of the
    full n^3 loop over the dense bracket and cochain tensors."""
    rng = random.Random(47)
    violated = 0
    for name, g in gallery.items():
        p, c = g.basis.parities, dense.bracket_tensor(g)
        cochains = [Cochain2Dual(g.basis, {key: 1})
                    for key in free_coords_cochain2dual(g.basis)]
        cochains += [sq.gallery.random_cochain2(g, rng) for _ in range(4)]
        cochains += [sq.gallery.random_cocycle2(g, rng, basis=z2_bases[name])
                     for _ in range(2)]
        for w in cochains:
            full = dense.cocycle2_violation(p, c, dense.cochain2dual_tensor(w))
            assert cocycle2_violation(g, w) == full, name
            violated += full is not None
        for w in cochains[-6:]:
            t = dense.cochain2dual_tensor(w)
            defect = cocycle2_defect(g, w)
            for ijk in itertools.combinations_with_replacement(
                    range(g.dim), 3):
                assert list(defect(*ijk)) == \
                    dense.cocycle2_defect(p, c, t, *ijk), (name, ijk)
    assert violated > 10


def test_supercyclic_violation_matches_dense_loop(gallery, supercyclic_bases):
    rng = random.Random(53)
    violated = 0
    for name, g in gallery.items():
        p = g.basis.parities
        cochains = [Cochain2Dual(g.basis, {key: 1})
                    for key in free_coords_cochain2dual(g.basis)]
        cochains += [sq.gallery.random_cochain2(g, rng) for _ in range(4)]
        cochains += list(supercyclic_bases[name])
        for w in cochains:
            full = dense.supercyclic_violation(p, dense.cochain2dual_tensor(w))
            assert supercyclic_violation(w) == full, name
            violated += full is not None
    assert violated > 10


def _z3_oracle(g):
    """Kernel of the closedness identity at every one of the n^4 basis
    4-tuples, each row read off the dense defect of the unit cochains."""
    p, c = g.basis.parities, dense.bracket_tensor(g)
    coords = free_coords_alt3(g.basis)
    units = [dense.alt3_tensor(expand_alt3(g.basis, {key: 1}))
             for key in coords]
    rows = [tuple(dense.closed3_defect(p, c, u, *quad) for u in units)
            for quad in itertools.product(range(g.dim), repeat=4)]
    return [expand_alt3(g.basis, {coords[t]: q for t, q in enumerate(v)
                                  if q != 0})
            for v in dense.kernel(rows)]


def test_z3_basis_matches_all_tuples_oracle(gallery):
    for name, g in _with_interleaved(gallery).items():
        assert z3_basis(g) == _z3_oracle(g), name


def _z2_oracle(g):
    """(Z^2, Z^2_sc): the kernel of the 2-cocycle identity at every
    ordered basis triple and every output coordinate, then with the
    supercyclic identity at every ordered triple as well.  Each row is
    read off the dense identities of the unit cochains, and a repeated
    row is kept once."""
    p, c = g.basis.parities, dense.bracket_tensor(g)
    coords = free_coords_cochain2dual(g.basis)
    units = [dense.cochain2dual_tensor(Cochain2Dual(g.basis, {key: 1}))
             for key in coords]
    triples = list(itertools.product(range(g.dim), repeat=3))
    defects = [[dense.cocycle2_defect(p, c, u, *ijk) for ijk in triples]
               for u in units]
    cocycle = {tuple(d[t][l] for d in defects)
               for t in range(len(triples)) for l in range(g.dim)}
    supercyclic = {tuple(dense.supercyclic_defect(p, u, *ijk) for u in units)
                   for ijk in triples}
    return tuple([Cochain2Dual(g.basis, {coords[t]: q
                                         for t, q in enumerate(v) if q != 0})
                  for v in dense.kernel(sorted(rows))]
                 for rows in (cocycle, cocycle | supercyclic))


def test_z2_bases_match_all_triples_oracle(gallery):
    algebras = _with_disguised(gallery)
    algebras["T*(heisenberg3)"] = sq.build(sq.heisenberg3()).total.algebra
    for name, g in algebras.items():
        z2, z2_sc = _z2_oracle(g)
        assert z2_basis(g) == z2, name
        assert z2_supercyclic_basis(g) == z2_sc, name


def _coboundary_oracle(g):
    """The coboundary of each unit 2-cochain on the free alt-3
    coordinates, evaluated directly from bracket vectors."""
    coords = free_coords_alt3(g.basis)
    cols = []
    for key in free_coords_scalar2(g.basis):
        unit = ScalarCochain2(g.basis, {key: 1})
        cols.append(tuple(_delta_direct(g, unit, *t) for t in coords))
    return coords, cols


def test_b3_basis_and_cohomologous_match_dense_coboundaries(gallery):
    rng = random.Random(43)
    solved = rejected = 0
    for name, g in gallery.items():
        coords, cols = _coboundary_oracle(g)
        R, pivots = dense.rref(cols)
        expected = [expand_alt3(g.basis, {coords[t]: q
                                          for t, q in enumerate(R[r])
                                          if q != 0})
                    for r in range(len(pivots))]
        assert b3_basis(g) == expected, name
        z3 = z3_basis(g)
        if not z3 or not cols:
            continue
        keys2 = free_coords_scalar2(g.basis)
        f1 = z3[0]
        for f2 in (sub3(f1, delta_scalar2(g, random_scalar2(g, rng))),
                   add3(f1, z3[-1]), f1):
            t1, t2 = dense.alt3_tensor(f1), dense.alt3_tensor(f2)
            target = tuple(t1[i][j][k] - t2[i][j][k] for (i, j, k) in coords)
            particular, _ = dense.solve(tuple(zip(*cols)), target)
            phi = cohomologous(g, f1, f2)
            if particular is None:
                assert phi is None, name
                rejected += 1
            else:
                assert phi == ScalarCochain2(
                    g.basis, {keys2[t]: q
                              for t, q in enumerate(particular)
                              if q != 0}), name
                solved += 1
    assert solved >= 4 and rejected >= 1


# --- invariance under graded base change -------------------------------------

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
    return LieSuperalgebra(g.basis, upper(
        [[enumerate(mat_vec(Linv, bracket(g, cols[i], cols[j])))
          for j in range(n)] for i in range(n)]))


def _transport_cochain2(w, L):
    basis = w.basis
    dw = dense.cochain2dual_tensor(w)
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
                            acc += xa * yb * zc * dw[a][b][c]
                entry.append(acc)
            row.append(tuple(entry))
        t.append(tuple(row))
    return dense.cochain2dual_from_tensor(basis, t)


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
        for _ in range(3):
            phi = random_scalar2(g, rng)
            pulled = dense.scalar2_from_matrix(g.basis, mat_mul(mat_mul(
                transpose(L), mat(dense.scalar2_matrix(phi))), L))
            lhs = delta_scalar2(g2, pulled)
            rhs = _transport_scalar3(delta_scalar2(g, phi), L)
            assert lhs == rhs


def _transport_scalar3(f, L):
    basis = f.basis
    df = dense.alt3_tensor(f)
    n = basis.dim
    from superquad.linalg import unit_vec as uv
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
                            acc += xa * yb * zc * df[a][b][c]
                entry.append(acc)
            row.append(tuple(entry))
        t.append(tuple(row))
    return dense.alt3_from_tensor(basis, t)
