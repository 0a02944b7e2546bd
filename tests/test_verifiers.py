"""Differential tests of the sparse structure verifiers against the dense
loops of ``dense_oracle``: the Jacobi scan of ``check_axioms``,
``invariance_violation``, the isometry check behind ``verify_isometry``,
the evenness checks of ``even_form``, the witnesses ``build`` attaches
to its rejections, and ``cocycle2_violation`` on inputs whose
denominators make the verifiers' integer scale factors exceed 1."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import superquad as sq
from superquad.errors import (AxiomError, CocycleError, FormError,
                              NotSupercyclicError)
from superquad.forms import EvenForm, even_form, invariance_violation
from superquad.gallery import (random_cochain2, random_cocycle2,
                               random_scalar2, random_supercyclic_cocycle)
from superquad.superalgebra import (AxiomReport, LieSuperalgebra,
                                    check_axioms, graded_basis,
                                    jacobi_violations, sgn)
from superquad import tstar
from superquad.tstar import (_raw_extension, quadratic_morphism_violation,
                             s_phi_isometry)

import dense_oracle as dense
from dense_oracle import mat_mul
from conftest import make_rng
from support import (algebra_if_valid, basis_coords, bracket_tensors,
                     cocycle2_defect, disguise)

F = Fraction

# mostly zeros, so the violations are scattered over the triples
sparse_entries = st.one_of(
    st.just(F(0)), st.just(F(0)), st.just(F(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=2))


def _algebra(parities, c):
    return LieSuperalgebra(*basis_coords(parities, c))


def _dense_report(p, c):
    return AxiomReport(tuple(dense.jacobi_violations(p, c)))


# --- check_axioms ------------------------------------------------------------

@given(bracket_tensors(sparse_entries))
@settings(max_examples=120, deadline=None)
def test_axiom_report_matches_dense_on_graded_skew_tables(case):
    p, c = case
    assert check_axioms(_algebra(p, c)) == _dense_report(p, c)


@given(st.sampled_from(("not-skew", "ungraded")).flatmap(
    lambda kind: bracket_tensors(sparse_entries, kind=kind, max_dim=4)))
@settings(max_examples=120, deadline=None)
def test_construction_matches_dense_on_not_skew_or_ungraded_tables(case):
    """Construction reads only the upper triangle: it rejects the least
    key there that the dense sign rule finds not free (an ungraded entry,
    or an even self-bracket of a table that is not skew); the others are
    the triangle's skew completion, and pass check_axioms as the dense
    report on that completion says."""
    p, c = case
    g = algebra_if_valid(*basis_coords(p, c))
    if g is not None:
        full = dense.bracket_tensor(g)
        assert all(full[i][j] == c[i][j] for i in range(len(p))
                   for j in range(i, len(p)))
        assert check_axioms(g) == _dense_report(p, full)


def test_not_skew_table_is_rejected_before_jacobi():
    # not skew: [x, x] = x and [y, z] = x would break Jacobi at the
    # cyclic rotations of (x, y, z) only, but construction refuses the
    # even self-bracket's key and evaluates no triple; [z, y] has no key
    p = (0, 0, 0)
    c = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    c[0][0][0] = c[1][2][0] = F(1)
    assert dense.skew_violations(p, c) == [(0, 0), (1, 2)]
    basis, coords = basis_coords(p, c)
    assert coords == {(0, 0, 0): 1, (1, 2, 0): 1}
    assert algebra_if_valid(basis, coords) is None
    assert algebra_if_valid(basis, {(1, 2, 0): 1, (2, 1, 0): 1}) is None


def test_axiom_report_lists_every_permutation(gallery):
    # [x, y] = z, [y, z] = x, [x, z] = x fails Jacobi only at the
    # permutations of one sorted triple
    g = sq.from_brackets(("x", "y", "z"), (0, 0, 0),
                         {("x", "y"): {"z": 1}, ("x", "z"): {"x": 1},
                          ("y", "z"): {"x": 1}})
    report = check_axioms(g)
    assert report.jacobi == tuple(sorted(itertools.permutations((0, 1, 2))))
    for g in gallery.values():
        assert check_axioms(g).passed


@given(bracket_tensors(sparse_entries, max_dim=4))
@settings(max_examples=60, deadline=None)
def test_quadratic_algebra_checks_jacobi_before_the_form(case):
    """A graded super-skew table that fails Jacobi cannot carry a form:
    construction raises AxiomError with the dense Jacobi triples, before
    it sees that the empty form is degenerate."""
    p, c = case
    g = _algebra(p, c)
    jacobi = tuple(dense.jacobi_violations(p, c))
    with pytest.raises(AxiomError if jacobi else FormError) as exc:
        sq.QuadraticLieSuperalgebra(g, EvenForm(g.basis, {}))
    if jacobi:
        assert exc.value.report == AxiomReport(jacobi)


# --- invariance_violation ----------------------------------------------------

@st.composite
def even_grams(draw, p):
    n = len(p)
    G = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if p[i] != p[j] or (i == j and p[i] == 1):
                continue
            q = draw(sparse_entries)
            G[i][j] = q
            G[j][i] = sgn(p[i] * p[j]) * q
    return G


@given(bracket_tensors(sparse_entries).flatmap(
    lambda case: st.tuples(st.just(case), even_grams(case[0]))))
@settings(max_examples=150, deadline=None)
def test_invariance_witness_matches_dense_on_random_tables(case):
    (p, c), G = case
    g = _algebra(p, c)
    B = even_form(g.basis, G)
    assert invariance_violation(g, B) == dense.invariance_violation(c, G)


@pytest.fixture(scope="module")
def extensions(gallery, supercyclic_bases):
    rng = make_rng(11)
    out = []
    for name in ("heisenberg3", "gl(1,1)", "solvable2d", "abelian(1|2)"):
        g = gallery[name]
        w = random_supercyclic_cocycle(g, rng, basis=supercyclic_bases[name])
        out.append(sq.build(g, w).total)
    return out


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_invariance_witness_matches_dense_after_one_perturbation(
        extensions, data):
    """A T*-extension is invariant; perturbing one skew pair of the table
    or one supersymmetric pair of the Gram matrix moves the witness deep
    into the lexicographic order."""
    for q in extensions:
        p = q.basis.parities
        n = q.dim
        c = dense.bracket_tensor(q.algebra)
        G = [list(r) for r in dense.gram(q.form)]
        assert invariance_violation(q.algebra, q.form) is None
        assert dense.invariance_violation(c, G) is None
        i, j = sorted(data.draw(st.tuples(st.integers(0, n - 1),
                                          st.integers(0, n - 1))))
        delta = data.draw(st.sampled_from((F(1), F(-1, 2), F(3))))
        if data.draw(st.booleans()):
            ks = [k for k in range(n) if p[k] == (p[i] + p[j]) % 2]
            if i == j and p[i] == 0:
                continue
            k = data.draw(st.sampled_from(ks))
            c[i][j][k] += delta
            if i != j:
                c[j][i][k] = -sgn(p[i] * p[j]) * c[i][j][k]
        elif p[i] == p[j] and not (i == j and p[i] == 1):
            G[i][j] += delta
            G[j][i] = sgn(p[i] * p[j]) * G[i][j]
        g = _algebra(p, c)
        B = even_form(g.basis, G)
        assert invariance_violation(g, B) == dense.invariance_violation(c, G)


# --- even_form ---------------------------------------------------------------

@given(st.lists(st.sampled_from((0, 1)), min_size=1, max_size=5).flatmap(
    lambda p: st.tuples(st.just(tuple(p)), st.lists(
        st.lists(sparse_entries, min_size=len(p), max_size=len(p)),
        min_size=len(p), max_size=len(p)))))
@settings(max_examples=200, deadline=None)
def test_even_form_error_matches_dense(case):
    p, G = case
    basis = graded_basis([f"b{i}" for i in range(len(p))], p)
    expected = dense.even_form_violation(p, G)
    if expected is None:
        even_form(basis, G)
        return
    with pytest.raises(FormError) as exc:
        even_form(basis, G)
    assert (str(exc.value), exc.value.witness) == expected


# --- quadratic_morphism_violation ---------------------------------------------

def _dense_morphism(src, dst, m):
    return dense.morphism_violation(
        src.basis.parities, dense.bracket_tensor(src.algebra),
        dense.gram(src.form), dst.basis.parities,
        dense.bracket_tensor(dst.algebra), dense.gram(dst.form), m)


@pytest.fixture(scope="module")
def shears(gallery, supercyclic_bases):
    rng = make_rng(5)
    out = []
    for name in ("heisenberg3", "gl(1,1)", "solvable2d"):
        g = gallery[name]
        w = random_supercyclic_cocycle(g, rng, basis=supercyclic_bases[name])
        out.append(s_phi_isometry(g, w, random_scalar2(g, rng)))
    return out


def test_shear_matrices_verify(shears):
    for sh in shears:
        src, dst = sh.source.total, sh.target.total
        assert quadratic_morphism_violation(src, dst, sh.matrix) is None
        assert _dense_morphism(src, dst, sh.matrix) is None


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_morphism_witness_matches_dense_after_one_perturbation(shears, data):
    for sh in shears:
        src, dst = sh.source.total, sh.target.total
        N = len(sh.matrix)
        r, a = data.draw(st.tuples(st.integers(0, N - 1),
                                   st.integers(0, N - 1)))
        if src.basis.parity(a) != dst.basis.parity(r):
            continue
        m = [list(row) for row in sh.matrix]
        m[r][a] += data.draw(st.sampled_from((F(1), F(-2), F(1, 3))))
        got = quadratic_morphism_violation(src, dst, m)
        assert got == _dense_morphism(src, dst, m)
        assert got is not None and got[0] in ("bracket", "form")


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_morphism_parity_witness_matches_dense(shears, data):
    for sh in shears:
        src, dst = sh.source.total, sh.target.total
        N = len(sh.matrix)
        r, a = data.draw(st.tuples(st.integers(0, N - 1),
                                   st.integers(0, N - 1)))
        if src.basis.parity(a) == dst.basis.parity(r):
            continue
        m = [list(row) for row in sh.matrix]
        m[r][a] += F(1)
        got = quadratic_morphism_violation(src, dst, m)
        assert got == _dense_morphism(src, dst, m) == ("parity", a)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_morphism_form_witness_matches_dense_on_abelian(data):
    """T* of an abelian algebra is abelian, so every even matrix keeps the
    bracket and only the form comparison can fail."""
    q = sq.build(sq.abelian(1, 1)).total
    p = q.basis.parities
    n = q.dim
    m = [[data.draw(sparse_entries) if p[r] == p[a] else F(0)
          for a in range(n)] for r in range(n)]
    got = quadratic_morphism_violation(q, q, m)
    assert got == _dense_morphism(q, q, m)
    assert got is None or got[0] == "form"


# --- witnesses attached by build ---------------------------------------------

def _late_non_cocycle(g, rng):
    """A coboundary with its last free coordinate perturbed, so the cocycle
    identity fails only at triples that touch that coordinate."""
    w = sq.unhat(sq.delta_scalar2(g, random_scalar2(g, rng)))
    coords = dict(w.coords)
    key = sq.cohomology.free_coords_cochain2dual(g.basis)[-1]
    coords[key] = coords.get(key, F(0)) + 1
    return sq.Cochain2Dual(g.basis, coords)


@pytest.mark.parametrize("size", [2, 3])
def test_build_jacobi_witness_is_first_dense_violation(size):
    g = sq.build_gn(size)
    rng = make_rng(17 + size)
    cochains = [random_cochain2(g, rng)]
    if size == 2:  # on dim 30 the dense scan to a late witness takes seconds
        cochains.append(_late_non_cocycle(g, rng))
    for w in cochains:
        with pytest.raises(CocycleError) as exc:
            sq.build(g, w)
        alg, _ = _raw_extension(g, w)
        c = dense.bracket_tensor(alg)
        first = next(dense.jacobi_violations(alg.basis.parities, c), None)
        assert first is not None
        assert exc.value.jacobi_witness == first


@pytest.mark.parametrize("name", ["heisenberg3", "g(2)"])
def test_build_invariance_witness_is_first_dense_violation(
        gallery, z2_bases, name):
    g = gallery[name]
    rng = make_rng(23)
    seen = 0
    for _ in range(20):
        w = random_cocycle2(g, rng, basis=z2_bases[name])
        if sq.is_supercyclic(w):
            continue
        seen += 1
        with pytest.raises(NotSupercyclicError) as exc:
            sq.build(g, w)
        alg, form = _raw_extension(g, w)
        assert exc.value.invariance_witness == dense.invariance_violation(
            dense.bracket_tensor(alg), dense.gram(form))
    assert seen


def _first_dense_jacobi(g, w):
    alg, _ = _raw_extension(g, w)
    return next(dense.jacobi_violations(alg.basis.parities,
                                        dense.bracket_tensor(alg)), None)


def _counted_cocycle2_violation(monkeypatch):
    calls = []

    def counted(g, w, check=tstar.cocycle2_violation):
        calls.append(w)
        return check(g, w)
    monkeypatch.setattr(tstar, "cocycle2_violation", counted)
    return calls


def test_build_names_a_non_cocycle_from_the_jacobi_report(monkeypatch,
                                                         gallery):
    """On a g that satisfies Jacobi the extension fails Jacobi exactly at
    omega's failing cocycle triples, so build reads omega's triple off
    the extension's report: on drawn non-cocycles, CocycleError's triple
    and jacobi_witness are the dense first failing triples, and
    cocycle2_violation never runs."""
    calls = _counted_cocycle2_violation(monkeypatch)
    rng = make_rng(41)
    seen = 0
    for g in gallery.values():
        p, c = g.basis.parities, dense.bracket_tensor(g)
        for _ in range(8):
            w = random_cochain2(g, rng)
            want = dense.cocycle2_violation(p, c,
                                            dense.cochain2dual_tensor(w))
            if want is None:
                continue
            seen += 1
            with pytest.raises(CocycleError) as exc:
                sq.build(g, w)
            assert exc.value.triple == want
            assert exc.value.jacobi_witness == _first_dense_jacobi(g, w)
    assert seen >= 20 and calls == []


def test_build_on_a_g_that_fails_jacobi_runs_the_cocycle_verifier(
        monkeypatch):
    """When g itself fails Jacobi, the extension fails at triples with a
    dual index too, and its report no longer names omega's triple: build
    falls back on cocycle2_violation, once."""
    g = sq.from_brackets(("x", "y", "z"), (0, 0, 0),
                         {("x", "y"): {"z": 1}, ("x", "z"): {"x": 1},
                          ("y", "z"): {"x": 1}})
    w = sq.Cochain2Dual(g.basis, {(0, 1, 0): 1})
    p, c = g.basis.parities, dense.bracket_tensor(g)
    want = dense.cocycle2_violation(p, c, dense.cochain2dual_tensor(w))
    assert want is not None and check_axioms(g).jacobi
    calls = _counted_cocycle2_violation(monkeypatch)
    with pytest.raises(CocycleError) as exc:
        sq.build(g, w)
    assert calls == [w]
    assert exc.value.triple == want
    assert exc.value.jacobi_witness == _first_dense_jacobi(g, w)


# --- one order per pair: the rotation rule -------------------------------------
#
# cyclic_sums is fed each term X(a, b, c) at b <= c only and places the
# term of the other order, X(a, c, b) = -(-1)^{|b||c|} X(a, b, c), itself
# (docs/conventions.md, "Verifiers").  The triples with a repeated index
# are where the placements tie: a = b < c, b < a = c, a = b = c, b = c.

JACOBI_ALGEBRAS = (sq.heisenberg3, sq.solvable2d, lambda: sq.build_glnn(1),
                   lambda: sq.build_gn(2), lambda: sq.abelian(1, 2))


@st.composite
def _tables_and_cochains(draw):
    """(p, c, coords): a drawn graded skew table of dim <= 6, mostly not
    Jacobi, or a gallery one, and a drawn cochain on its basis."""
    p, c = draw(st.one_of(
        bracket_tensors(sparse_entries, max_dim=6),
        st.sampled_from(JACOBI_ALGEBRAS).map(lambda make: make()).map(
            lambda g: (g.basis.parities, dense.bracket_tensor(g)))))
    basis, _ = basis_coords(p, c)
    return p, c, {key: draw(sparse_entries) for key in
                  sq.cohomology.free_coords_cochain2dual(basis)}


def _assert_rotation_rule(p, c, coords):
    g = _algebra(p, c)
    assert jacobi_violations(g) == list(dense.jacobi_violations(p, c))
    w = sq.Cochain2Dual(g.basis, coords)
    t = dense.cochain2dual_tensor(w)
    assert sq.cohomology.cocycle2_violation(g, w) == \
        dense.cocycle2_violation(p, c, t)
    defect = cocycle2_defect(g, w)
    for ijk in itertools.combinations_with_replacement(range(len(p)), 3):
        assert list(defect(*ijk)) == dense.cocycle2_defect(p, c, t, *ijk)


@given(_tables_and_cochains())
@settings(max_examples=80, deadline=None)
def test_one_order_per_pair_matches_dense(case):
    _assert_rotation_rule(*case)


def test_one_order_per_pair_at_every_tie():
    """A table and a cochain with every free entry nonzero, on mixed
    parities: each shape of repeated triple, (i, i, i) odd, (i, i, k) and
    (i, k, k), has a nonzero dense defect, and the library's is equal."""
    p = (1, 0, 1, 0, 1)
    n, rng = len(p), make_rng(43)
    c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k in itertools.product(range(n), repeat=3):
        if (i < j or i == j and p[i]) and p[k] == (p[i] + p[j]) % 2:
            c[i][j][k] = F(rng.randint(1, 5), rng.randint(1, 3))
            c[j][i][k] = -sgn(p[i] * p[j]) * c[i][j][k]
    basis, _ = basis_coords(p, c)
    coords = {key: F(rng.randint(-4, 4) or 1) for key in
              sq.cohomology.free_coords_cochain2dual(basis)}
    _assert_rotation_rule(p, c, coords)
    t = dense.cochain2dual_tensor(sq.Cochain2Dual(basis, coords))
    shapes = {(0, 0): [], (0, 1): [], (1, 0): []}  # (i,i,i), (i,i,k), (i,k,k)
    for i, j, k in itertools.combinations_with_replacement(range(n), 3):
        shape = (int(j != i), int(k != j))
        if shape in shapes:
            shapes[shape].append(any(dense.cocycle2_defect(p, c, t, i, j, k)))
    assert all(map(any, shapes.values()))


# --- scaled inputs and scattered terms ----------------------------------------
#
# The verifiers scale their inputs to integers and scatter each nonzero
# product into the triple or pair it belongs to.  The cases below put
# denominators up to 6 into the tables, cochains, Gram matrices and
# matrices, and start from identities that hold through cancellation (a
# random basis change of a gallery algebra, or of a T*-extension), so that
# a dropped or mis-signed rotation, or a scale factor missing on one side,
# shows up as a spurious failure; one perturbation then moves the least
# failing triple or pair somewhere in the middle of the order.

fractions6 = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 6))


def _perturbed(p, c, i, j, k, delta):
    """c with delta added at [e_i, e_j] on e_k, and at [e_j, e_i] by
    super-skew-symmetry."""
    c = [[list(col) for col in row] for row in c]
    c[i][j][k] += delta
    if i != j:
        c[j][i][k] = -sgn(p[i] * p[j]) * c[i][j][k]
    return c


def _has_denominators(c):
    return any(q.denominator > 1 for row in c for col in row for q in col)


DISGUISED = [(name, seed) for name in ("heisenberg3", "gl(1,1)", "g(2)")
             for seed in (1, 2)]


@pytest.fixture(scope="module")
def disguised(gallery):
    out = {}
    for name, seed in DISGUISED:
        g = gallery[name]
        p = g.basis.parities
        c2, _, _ = disguise(p, dense.bracket_tensor(g), seed=seed)
        assert _has_denominators(c2)
        out[(name, seed)] = (p, c2)
    return out


@pytest.mark.parametrize("key", DISGUISED)
def test_disguised_algebra_passes_with_denominators(disguised, key):
    p, c = disguised[key]
    g = _algebra(p, c)
    assert check_axioms(g).passed
    assert jacobi_violations(g) == []
    assert not any(True for _ in dense.jacobi_violations(p, c))


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_jacobi_witness_matches_dense_after_perturbing_disguised(
        disguised, data):
    """One skew pair of a disguised algebra perturbed by a fraction: the
    report and the least failing triple match the dense loops."""
    for key in DISGUISED:
        p, c = disguised[key]
        n = len(p)
        i, j = sorted(data.draw(st.tuples(st.integers(0, n - 1),
                                          st.integers(0, n - 1))))
        if i == j and p[i] == 0:
            continue
        k = data.draw(st.sampled_from(
            [k for k in range(n) if p[k] == (p[i] + p[j]) % 2]))
        c2 = _perturbed(p, c, i, j, k, data.draw(fractions6))
        g = _algebra(p, c2)
        assert check_axioms(g) == _dense_report(p, c2)
        first = next(dense.jacobi_violations(p, c2), None)
        assert jacobi_violations(g)[:1] == ([first] if first else [])


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_construction_rejects_broken_disguised_as_dense(disguised, data):
    """A disguised algebra's coordinates with one more key that is not
    free: below the diagonal (not skew), an even self-bracket or of the
    wrong parity (not graded).  Construction raises with that key."""
    for key in DISGUISED:
        p, c = disguised[key]
        n = len(p)
        bad = data.draw(st.tuples(*[st.integers(0, n - 1)] * 3))
        if dense.canon_cochain2dual(p, *bad) == (bad, 1):
            continue  # a free key: still graded and skew
        basis, coords = basis_coords(p, c)
        coords[bad] = coords.get(bad, 0) + data.draw(fractions6)
        assert algebra_if_valid(basis, coords) is None


@pytest.mark.parametrize("half, five_sixths", [(F(1), F(1)),
                                                (F(1, 2), F(5, 6))])
def test_jacobi_at_repeated_indices_matches_dense(half, five_sixths):
    """x odd, y even, [x, x] = h y, [y, x] = f x: the Jacobiator is
    3(-1)^{|x|}[x, [x, x]] at (x, x, x) and fails at (x, x, y) too, but
    holds at (x, y, y), where its terms cancel."""
    p = (1, 0)
    c = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
    c[0][0][1] = half
    c[1][0][0] = five_sixths
    c[0][1][0] = -five_sixths
    g = _algebra(p, c)
    report = check_axioms(g)
    assert report == _dense_report(p, c)
    assert {(0, 0, 0), (0, 0, 1)} <= set(report.jacobi)
    assert (0, 1, 1) not in report.jacobi
    assert jacobi_violations(g)[:1] == [(0, 0, 0)]


@given(bracket_tensors(sparse_entries, max_dim=4))
@settings(max_examples=60, deadline=None)
def test_odd_squares_and_repeated_triples_match_dense(case):
    """Random graded skew tables where every odd [x, x] is nonzero, read at
    the triples with a repeated index."""
    p, c = case
    n = len(p)
    for i in (i for i in range(n) if p[i]):
        for k in (k for k in range(n) if p[k] == 0):
            c[i][i][k] = c[i][i][k] or F(k + 1, 6)
    g = _algebra(p, c)
    assert check_axioms(g) == _dense_report(p, c)
    repeated = {t for t in itertools.product(range(n), repeat=3)
                if len(set(t)) < 3}
    assert set(check_axioms(g).jacobi) & repeated == \
        set(dense.jacobi_violations(p, c)) & repeated


# --- the cocycle identity with denominators ----------------------------------

@pytest.mark.parametrize("key", DISGUISED)
def test_cocycle2_witness_matches_dense_with_denominators(disguised, key):
    p, c = disguised[key]
    g = _algebra(p, c)
    rng = make_rng(31 + key[1])
    w = random_cocycle2(g, rng)
    assert any(q.denominator > 1 for q in w.coords.values())
    assert sq.cohomology.cocycle2_violation(g, w) is None
    assert dense.cocycle2_violation(p, c, dense.cochain2dual_tensor(w)) \
        is None
    keys = sq.cohomology.free_coords_cochain2dual(g.basis)
    violated = 0
    for key2 in keys[::max(1, len(keys) // 8)]:
        coords = dict(w.coords)
        coords[key2] = coords.get(key2, F(0)) + F(5, 6)
        bad = sq.Cochain2Dual(g.basis, coords)
        t = dense.cochain2dual_tensor(bad)
        want = dense.cocycle2_violation(p, c, t)
        assert sq.cohomology.cocycle2_violation(g, bad) == want
        if want is not None and not violated:
            defect = cocycle2_defect(g, bad)
            for ijk in itertools.combinations_with_replacement(
                    range(g.dim), 3):
                assert list(defect(*ijk)) == \
                    dense.cocycle2_defect(p, c, t, *ijk)
        violated += want is not None
    assert violated


# --- invariance and the isometry check with denominators ----------------------

@pytest.fixture(scope="module")
def disguised_extensions(extensions):
    out = []
    for seed, q in enumerate(extensions[:3]):
        p = q.basis.parities
        c, G, P = disguise(p, dense.bracket_tensor(q.algebra),
                            dense.gram(q.form), seed=seed + 3)
        assert _has_denominators(c)
        out.append((p, c, G, P))
    return out


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_invariance_witness_matches_dense_on_disguised_extensions(
        disguised_extensions, data):
    for p, c, G, _ in disguised_extensions:
        n = len(p)
        g = _algebra(p, c)
        assert invariance_violation(g, even_form(g.basis, G)) is None
        i, j = sorted(data.draw(st.tuples(st.integers(0, n - 1),
                                          st.integers(0, n - 1))))
        delta = data.draw(fractions6)
        G2 = [list(r) for r in G]
        c2 = c
        if data.draw(st.booleans()):
            if i == j and p[i] == 0:
                continue
            k = data.draw(st.sampled_from(
                [k for k in range(n) if p[k] == (p[i] + p[j]) % 2]))
            c2 = _perturbed(p, c, i, j, k, delta)
        elif p[i] == p[j] and not (i == j and p[i] == 1):
            G2[i][j] += delta
            G2[j][i] = sgn(p[i] * p[j]) * G2[i][j]
        else:
            continue
        g = _algebra(p, c2)
        assert invariance_violation(g, even_form(g.basis, G2)) == \
            dense.invariance_violation(c2, G2)


def _disguised_shear(sh, seeds):
    """The shear matrix between the two extensions on disguised bases:
    m' = P_dst^-1 m P_src, with the disguised algebras and forms."""
    out = []
    for q, seed in zip((sh.source.total, sh.target.total), seeds):
        p = q.basis.parities
        c, G, P = disguise(p, dense.bracket_tensor(q.algebra),
                            dense.gram(q.form), seed=seed)
        g = _algebra(p, c)
        out.append((sq.QuadraticLieSuperalgebra(g, even_form(g.basis, G)),
                    P))
    (src, P_src), (dst, P_dst) = out
    return src, dst, mat_mul(dense.inverse(P_dst),
                             mat_mul(sh.matrix, P_src))


@pytest.fixture(scope="module")
def disguised_shears(shears):
    out = [_disguised_shear(sh, (7 + s, 8 + s))
           for s, sh in enumerate(shears)]
    for _, _, m in out:
        assert any(q.denominator > 1 for row in m for q in row)
    return out


def test_disguised_shears_verify(disguised_shears):
    for src, dst, m in disguised_shears:
        assert quadratic_morphism_violation(src, dst, m) is None
        assert _dense_morphism(src, dst, m) is None


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_morphism_witness_matches_dense_on_disguised_shears(
        disguised_shears, data):
    for src, dst, m in disguised_shears:
        N = len(m)
        r, a = data.draw(st.tuples(st.integers(0, N - 1),
                                   st.integers(0, N - 1)))
        if src.basis.parity(a) != dst.basis.parity(r):
            continue
        m2 = [list(row) for row in m]
        m2[r][a] += data.draw(fractions6)
        got = quadratic_morphism_violation(src, dst, m2)
        assert got == _dense_morphism(src, dst, m2)
        assert got is not None
