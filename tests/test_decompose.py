import contextlib
import importlib
import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import superquad as sq
from superquad.cohomology import (Cochain2Dual, unhat, z2_supercyclic_basis,
                                  z3_basis)
from superquad.decompose import (Decomposition, IsotropicFlagResult,
                                 _InducedSpace, _row_parity,
                                 _solvable_isotropic_eigvector, decompose,
                                 isotropic_vector, max_isotropic_ideal)
from superquad.errors import (InternalCheckError, NotIdealError,
                              PreconditionError, RationalPointNotFound,
                              UndecidedError)
from superquad.forms import (QuadraticLieSuperalgebra, even_form, gram,
                             is_totally_isotropic, orthogonal)
from superquad.gallery import (even_line, orthogonal_direct_sum,
                               random_supercyclic_cocycle)
from superquad.linalg import (Coordinates, RowReducer, dense_vec, lincomb,
                              mat, rank, unit_vec, vec, vec_scale, zero_vec)
from superquad.superalgebra import (EVEN, ODD, Subspace, ad_images, bracket,
                                    class_condition, extend_subspace,
                                    from_brackets, is_ideal, is_nilpotent,
                                    lower_central_series, subspace,
                                    zero_subspace)
from superquad.tstar import build, recognize

import dense_oracle as dense
from dense_oracle import mat_vec, transpose
from support import (derived_by_dense, direct_sum, disguised_quadratic,
                     super_solvable, vec_add)

F = Fraction


def _fraction_values(bound: int, max_denominator: int) -> list:
    """The values of st.fractions(-bound, bound, max_denominator=...), for
    st.sampled_from, which draws them far faster."""
    return sorted({F(p, q) for q in range(1, max_denominator + 1)
                   for p in range(-bound * q, bound * q + 1)})


THIRDS = _fraction_values(3, 3)


def _units(indices) -> list[dict]:
    """The basis vectors e_i for i in ``indices``, as {i: 1} dicts."""
    return [{i: 1} for i in indices]


def test_flag_hyperbolic_even_picks_first_null_vector():
    q = sq.hyperbolic_even()
    flag = max_isotropic_ideal(q)
    assert flag.w_max.dim == 1
    assert flag.w_max == subspace(q.basis, [unit_vec(2, 0)])
    assert [w.dim for w in flag.chain] == [0, 1]


@pytest.mark.parametrize("q", [
    sq.hyperbolic_even(),
    orthogonal_direct_sum(sq.hyperbolic_even(), even_line()),
    orthogonal_direct_sum(sq.hyperbolic_even(), sq.hyperbolic_even())],
    ids=["last-step-even", "last-step-odd", "next-step"])
def test_flag_member_that_is_not_isotropic_is_caught(monkeypatch, q):
    """A first step that adjoins e1 + e2, with B(e1 + e2, e1 + e2) = 2, to
    an abelian algebra still yields an ideal one dimension up, so only the
    test of the last member can refute it: at once when that step is the
    last, else after a further step ("next-step")."""
    dec = importlib.import_module("superquad.decompose")
    monkeypatch.setattr(dec, "extend_subspace", lambda w, v: extend_subspace(
        w, {0: 1, 1: 1} if w.is_zero() else v))
    with pytest.raises(InternalCheckError,
                       match="maximal member is not isotropic"):
        max_isotropic_ideal(q)


def _anisotropic_plane() -> QuadraticLieSuperalgebra:
    """The abelian even plane with the form x^2 + y^2, anisotropic over Q."""
    a2 = sq.abelian(2, 0)
    return QuadraticLieSuperalgebra(a2, even_form(a2.basis, [[1, 0], [0, 1]]))


def _rotation_algebra():
    """g = <h, x, y>, even, with [h, x] = y and [h, y] = 2x: solvable and
    not nilpotent, and ad h on <x, y> has characteristic polynomial
    t^2 - 2, with no rational root."""
    return from_brackets(("h", "x", "y"), (EVEN,) * 3,
                         {("h", "x"): {"y": 1}, ("h", "y"): {"x": 2}})


def test_flag_anisotropic_rational_failure():
    with pytest.raises(RationalPointNotFound) as exc:
        max_isotropic_ideal(_anisotropic_plane())
    assert exc.value.quadric_str == "x^2 + y^2"
    assert tuple(exc.value.quadric) == (F(1), F(1))


def test_flag_odd_hyperbolic():
    q = sq.hyperbolic_odd()
    flag = max_isotropic_ideal(q)
    assert flag.w_max.dim == 1
    assert len(flag.w_max.odd_rows) == 1


def test_flag_chain_invariants():
    ext = sq.tstar_of_gn(2)
    flag = max_isotropic_ideal(ext.total)
    assert flag.w_max.dim == 6
    dims = [w.dim for w in flag.chain]
    assert dims == list(range(7))
    for w in flag.chain:
        assert is_totally_isotropic(ext.total.form, w)
        assert is_ideal(ext.total.algebra, w)
    # maximal member equals its orthogonal in even total dimension
    assert flag.w_max == orthogonal(ext.total.form, flag.w_max)


def test_flag_preconditions():
    gl11 = sq.build_glnn(1)
    Q = build(gl11).total  # solvable but without the class condition
    with pytest.raises(PreconditionError):
        max_isotropic_ideal(Q)


def test_isotropic_vector_prefers_raw_basis():
    gram = mat([[0, 1], [1, 0]])
    v = isotropic_vector(gram)
    assert v == unit_vec(2, 0)
    gram = mat([[2, 0], [0, -2]])
    v = isotropic_vector(gram)
    assert v is not None
    assert sum(v[i] * gram[i][j] * v[j] for i in range(2)
               for j in range(2)) == 0
    assert isotropic_vector(mat([[1, 0], [0, 2]])) is None
    # the exact decision finds three-variable points like (1, 1, 1)
    v = isotropic_vector(mat([[1, 0, 0], [0, 2, 0], [0, 0, -3]]))
    assert v is not None


def test_decompose_even_case_g2():
    Q = sq.tstar_of_gn(2).total
    dec = decompose(Q)
    assert dec.parity_case == "even"
    assert dec.ideal.dim == 6
    assert dec.extension.total.dim == 12
    assert rank(dec.embedding) == 12  # onto


def test_decompose_even_case_h3_volume_cocycle():
    h3 = sq.heisenberg3()
    w = unhat(z3_basis(h3)[0])
    Q = build(h3, w).total
    dec = decompose(Q)
    assert dec.parity_case == "even"
    assert dec.ideal.dim == 3


def test_decompose_solvable_branch():
    Q = build(sq.solvable2d()).total
    dec = decompose(Q)
    assert dec.parity_case == "even"
    assert dec.ideal.dim == 2


def test_decompose_even_line_frozen():
    dec = decompose(even_line())
    assert dec.parity_case == "odd"
    assert dec.ideal.dim == 0
    assert dec.extension.total.dim == 2
    # the embedded line, pinned after verification: psi(e) = (1/2, 1)
    assert dec.embedding == ((F(1, 2),), (F(1),))
    B = dec.extension.total.form
    col = tuple(r[0] for r in dec.embedding)
    assert B.apply(col, col) == 1


def test_decompose_odd_dim_sum():
    Q = orthogonal_direct_sum(build(sq.heisenberg3()).total, even_line())
    assert Q.dim == 7
    dec = decompose(Q)
    assert dec.parity_case == "odd"
    assert dec.ideal.dim == 3
    assert dec.extension.total.dim == 8


def test_decompose_odd_dim_with_odd_part():
    Q = orthogonal_direct_sum(build(sq.abelian(1, 2)).total, even_line())
    assert Q.dim == 7
    dec = decompose(Q)
    assert dec.parity_case == "odd"
    assert dec.extension.total.dim == 8


def test_decompose_roundtrip_nilpotent_gallery(nilpotent_gallery,
                                               supercyclic_bases):
    rng = random.Random(61)
    for name, g in nilpotent_gallery.items():
        if g.dim > 4:
            continue  # one big case is covered separately
        for _ in range(3):
            w = random_supercyclic_cocycle(g, rng,
                                           basis=supercyclic_bases[name])
            Q = build(g, w).total
            dec = decompose(Q)  # embedding verified exactly inside
            assert dec.parity_case == "even"
            assert dec.ideal.dim == g.dim
            assert dec.extension.total.dim == Q.dim


def test_decompose_g2_roundtrip_with_cocycle(supercyclic_bases):
    rng = random.Random(67)
    g = sq.build_gn(2)
    w = random_supercyclic_cocycle(g, rng)
    Q = build(g, w).total
    dec = decompose(Q)
    assert dec.parity_case == "even"
    assert dec.ideal.dim == 6


def _span_rows(ind, w):
    """The spanning rows [reps | W basis] of an induced space, dense."""
    return tuple(dense_vec(r, ind.q.dim) for r in ind.reps) + w.vectors


@pytest.fixture(scope="module")
def induced_spaces():
    """(W^perp, dense coordinates on the span rows, induced space) along
    the flags of an even, an odd-dimensional, a class-c and solvable
    non-nilpotent algebras: T*(solvable2d), T*(s(k)) for k = 1, 2, 3 and
    a disguised T*(s(1)), whose reps have residuals modulo W other than
    themselves."""
    out = []
    s1 = build(super_solvable(1)).total
    for Q in (build(sq.heisenberg3()).total,
              orthogonal_direct_sum(build(sq.abelian(1, 2)).total,
                                    even_line()),
              sq.build_class_c_example(2), build(sq.solvable2d()).total, s1,
              *(build(super_solvable(k)).total for k in (2, 3)),
              disguised_quadratic(s1)):
        for w in max_isotropic_ideal(Q).chain:
            wperp = orthogonal(Q.form, w)
            ind = _InducedSpace(Q, w, wperp)
            out.append((wperp,
                        dense.coordinates(_span_rows(ind, w)), ind))
    return out


def _check_decomposition_dense(q):
    """Decompose q and check the embedding into the T*-extension, onto in
    even dimension and of codimension 1 in odd, against the dense
    oracle."""
    dec = decompose(q)
    assert dec.parity_case == ("odd" if q.dim % 2 else "even")
    total = dec.extension.total
    assert total.dim == q.dim + q.dim % 2
    assert dense.morphism_violation(
        q.basis.parities, dense.bracket_tensor(q.algebra),
        dense.gram(q.form), total.basis.parities,
        dense.bracket_tensor(total.algebra), dense.gram(total.form),
        dec.embedding) is None


def test_decompose_disguised_even():
    """The even case end to end on dense coefficients: T*(gn(2)) after a
    basis change (dim 12)."""
    q = disguised_quadratic(sq.tstar_of_gn(2).total)
    assert q.dim == 12
    _check_decomposition_dense(q)


def test_decompose_disguised_odd_sum():
    """The odd case on dense coefficients: T*(gn(2)) + line after a basis
    change (dim 13).  Its induced Gram needs 4011011^2, a prime square
    past the factorization cap."""
    q = disguised_quadratic(orthogonal_direct_sum(sq.tstar_of_gn(2).total,
                                                  even_line()))
    assert q.dim == 13
    _check_decomposition_dense(q)


@pytest.mark.xfail(strict=True, raises=UndecidedError,
                   reason="the induced Gram needs 198101278223 = "
                          "361349 * 548227, two primes past the cap")
def test_decompose_disguised_odd_heisenberg_sum():
    q = disguised_quadratic(orthogonal_direct_sum(
        build(sq.heisenberg3()).total, even_line()))
    assert q.dim == 7
    _check_decomposition_dense(q)


@pytest.mark.parametrize("name, coeff, seed", [
    *(("g(2)", -3, seed) for seed in (36, 40, 44, 54, 58, 87)),
    *(("heisenberg3", 0, seed) for seed in (46, 54, 77))])
def test_decompose_disguised_rank_two_steps(gallery, supercyclic_bases, name,
                                            coeff, seed):
    """A flag step of each of these disguised T*-extensions meets an
    isotropic 2x2 Gram whose coefficients have cofactors past FACTOR_CAP:
    -d_1 d_2 is a square, so its point needs no factoring."""
    g = gallery[name]
    Q = build(g, Cochain2Dual(g.basis, lincomb(
        (F(coeff), w.coords.items()) for w in supercyclic_bases[name]))).total
    _check_decomposition_dense(disguised_quadratic(Q, seed=seed))


# --- the paper's second class with an odd part: T*(s(k)) --------------------

@pytest.mark.parametrize("k, z2", [(1, 3), (2, 10), (3, 21)])
def test_decompose_super_solvable(k, z2):
    """s(k) (``support.super_solvable``) is solvable, not nilpotent, meets
    the class condition, and has dim Z^2_sc = 3, 10, 21 for k = 1, 2, 3.
    T*(s(k)) plain, with a drawn supercyclic cocycle, disguised
    (``disguised_quadratic``, seed 0) and + ``even_line()`` meet the
    flag's solvable precondition, and each embedding passes the dense
    oracle's morphism check."""
    g = super_solvable(k)
    basis = z2_supercyclic_basis(g)
    assert len(basis) == z2
    w = random_supercyclic_cocycle(g, random.Random(k), basis=basis)
    assert w.coords
    plain = build(g).total
    cases = [plain, build(g, w).total, disguised_quadratic(plain, seed=0),
             orthogonal_direct_sum(plain, even_line())]
    for alg in (g, *(q.algebra for q in cases)):
        assert sq.is_solvable(alg) and not is_nilpotent(alg)
        assert class_condition(alg)
    for q in cases:
        _check_decomposition_dense(q)


def test_solvable_step_certifies_the_quadric_of_the_invariants():
    """T*(solvable2d) + <1, 1>, dim 6: its even form is two hyperbolic
    planes plus x^2 + y^2, of Witt index 2 over Q, so no 3-dimensional
    isotropic subspace exists.  The solvable step tries the invariants
    first, and its failure carries their anisotropic quadric."""
    q = orthogonal_direct_sum(build(sq.solvable2d()).total,
                              _anisotropic_plane())
    assert q.dim == 6 and not is_nilpotent(q.algebra)
    with pytest.raises(RationalPointNotFound) as exc:
        decompose(q)
    err = exc.value
    assert str(err) == ("no rational isotropic vector found in the "
                        "invariant subspace, and no rational isotropic "
                        "joint eigenvector exists")
    assert (err.quadric_str, err.obstruction) == ("x^2 + y^2", "definite")
    assert tuple(err.quadric) == (F(1), F(1)) and err.polynomial is None


def test_solvable_step_certifies_an_irrational_characteristic_polynomial():
    """On T*_0 of <h, x, y> the invariants are empty after the first step,
    and h acts on the joint kernel with characteristic polynomial
    (t^2 - 2)^2: by the rational root theorem a rational root of this
    monic integer polynomial is an integer dividing 4, and none is one."""
    q = build(_rotation_algebra()).total
    with pytest.raises(RationalPointNotFound) as exc:
        max_isotropic_ideal(q)
    err = exc.value
    assert str(err) == ("characteristic polynomial of an induced operator "
                        "has no rational root")
    assert err.polynomial_str == "t^4 - 4*t^2 + 4" and err.quadric is None
    coeffs = list(err.polynomial)
    assert coeffs == [1, 0, -4, 0, 4]
    assert all(sum(c * t ** (4 - i) for i, c in enumerate(coeffs))
               for t in (1, -1, 2, -2, 4, -4))


def test_dual_ideal_of_tstar_rotation_is_a_rational_lagrangian_ideal():
    """g* is a Lagrangian ideal of T*_0(g) over Q for g = <h, x, y>, and
    recognize verifies the T*-extension along it."""
    ext = build(_rotation_algebra())
    q, ideal = ext.total, ext.dual_ideal()
    assert is_ideal(q.algebra, ideal) and is_totally_isotropic(q.form, ideal)
    got, _ = recognize(q, ideal)
    assert got.base.dim == 3


@pytest.mark.xfail(strict=True, raises=RationalPointNotFound,
                   reason="the greedy flag takes h* first and then meets "
                   "(t^2 - 2)^2 on W^perp / W, though g* is a rational "
                   "Lagrangian ideal (ROADMAP item 5)")
def test_decompose_finds_the_rational_lagrangian_ideal_of_tstar_rotation():
    dec = decompose(build(_rotation_algebra()).total)
    assert dec.parity_case == "even" and dec.ideal.dim == 3


def test_decompose_blames_itself_for_a_flag_that_is_no_ideal(monkeypatch):
    """decompose hands the flag's last member to recognize once, in either
    parity, so a member that is no ideal is the library's fault: here
    span(e1, e2*, e3*) of T*(heisenberg3), Lagrangian, but [e2, e1] = -e3
    leaves it."""
    dec = importlib.import_module("superquad.decompose")
    q = build(sq.heisenberg3()).total
    w = subspace(q.basis, [unit_vec(6, 0), unit_vec(6, 4), unit_vec(6, 5)])
    assert 2 * w.dim == q.dim and is_totally_isotropic(q.form, w)
    assert not is_ideal(q.algebra, w)
    monkeypatch.setattr(dec, "max_isotropic_ideal",
                        lambda q: IsotropicFlagResult(w, w, (w,)))
    with pytest.raises(InternalCheckError,
                       match="not a Lagrangian ideal") as exc:
        decompose(q)
    assert isinstance(exc.value.__cause__, NotIdealError)


def test_solvable_joint_kernel_matches_dense_operators():
    """At every step of the flags of T*(s(k)) for k = 1, 2, 3, of
    T*(s(2)) + line and of T*(solvable2d + heisenberg3), the solvable
    branch's joint kernel, one call of ``invariants``, against the dense
    joint kernel of the induced operators of the odd basis vectors and the
    dense rows of [g, g].  The flag hands the branch [g, g] as the second
    member of its lower central series."""
    cases = {f"T*(s({k}))": build(super_solvable(k)).total for k in (1, 2, 3)}
    cases["T*(s(2)) + line"] = orthogonal_direct_sum(cases["T*(s(2))"],
                                                     even_line())
    cases["T*(solvable2d + heisenberg3)"] = build(
        direct_sum(sq.solvable2d(), sq.heisenberg3())).total
    invariants, steps, proper = _InducedSpace.invariants, 0, 0
    for name, Q in cases.items():
        g, n = Q.algebra, Q.dim
        derived = derived_by_dense(g)
        assert lower_central_series(g)[1] == derived, name
        xs = [unit_vec(n, i) for i in range(n) if g.parity(i) == ODD] + list(
            dense.derived_rows(dense.bracket_tensor(g)))
        for w in max_isotropic_ideal(Q).chain:
            ind, got = _InducedSpace(Q, w, orthogonal(Q.form, w)), []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_InducedSpace, "invariants", lambda self, ys: (
                    got.append(invariants(self, ys)) or got[-1]))
                with contextlib.suppress(RationalPointNotFound):
                    _solvable_isotropic_eigvector(Q, ind, derived, [])
            assert [dense_vec(u, ind.dim) for u in got[0]] \
                == _dense_joint_kernel(Q, ind, xs), (name, w.dim)
            steps += ind.dim > 0
            proper += 0 < len(got[0]) < ind.dim
    assert (steps, proper) == (30, 22)


@pytest.fixture(scope="module")
def disguised_induced_spaces():
    """The induced space of every flag member of T*(gn(2)) after a seeded
    basis change (``disguised_quadratic``), with its spanning rows [lifts | W
    basis], dense rows with denominators, unlike the unit vectors of the
    gallery, and their ``Coordinates``."""
    q = disguised_quadratic(sq.tstar_of_gn(2).total)
    out = []
    for w in max_isotropic_ideal(q).chain:
        ind = _InducedSpace(q, w, orthogonal(q.form, w))
        rows = _span_rows(ind, w)
        out.append((ind, rows, Coordinates(RowReducer(q.dim), rows)))
    assert any(x.denominator > 1 for _, rows, _ in out for v in rows
               for x in v)
    return out


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_coordinates_of_disguised_input_match_dense(disguised_induced_spaces,
                                                    data):
    """Coordinates.of reads the exact residual of its reducer: along the
    flag of a disguised input, the coordinates of a drawn combination of
    the spanning rows are its coefficients, as the dense solve finds, and
    a vector off the span gives what the dense solve gives.  Read modulo
    W, the coordinates on the reps are the first part of those."""
    coeffs = st.sampled_from(_fraction_values(7, 12))
    for ind, rows, coords in disguised_induced_spaces:
        n, k = ind.q.dim, ind.dim
        modulo_w = Coordinates(ind.w.reducer, ind.reps)
        x = tuple(data.draw(coeffs) for _ in rows)
        v = zero_vec(n)
        for t, r in zip(x, rows):
            v = vec_add(v, vec_scale(t, r))
        assert dense_vec(coords.of(v), len(rows)) \
            == dense.coords_in(rows, v) == x
        assert dense_vec(modulo_w.of(v), k) == x[:k]
        off = vec_add(v, unit_vec(n, data.draw(st.integers(0, n - 1))))
        got, got_w, want = coords.of(off), modulo_w.of(off), \
            dense.coords_in(rows, off)
        assert want == (None if got is None else dense_vec(got, len(rows)))
        assert (None if want is None else want[:k]) == (
            None if got_w is None else dense_vec(got_w, k))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_action_matches_dense_coordinates(induced_spaces, data):
    """The matrix of a random x on a span of V' against coordinates solved
    one image at a time by dense elimination, with x's dense matrix on V'
    read from the span rows [reps | W basis].  A Krylov span of that
    matrix and the invariants are invariant spans; a drawn span often is
    not, and then ``action`` raises."""
    coeffs = st.sampled_from(THIRDS)
    wperp, coords_in_span, ind = data.draw(st.sampled_from(
        [case for case in induced_spaces if case[2].dim]))
    g, n, m = ind.q.algebra, ind.q.dim, ind.dim
    x = vec(data.draw(st.lists(coeffs, min_size=n, max_size=n)))
    op = transpose(mat([coords_in_span(bracket(g, x, rep))[:m]
                        for rep in ind.reps]))
    kind = data.draw(st.sampled_from(("krylov", "invariants", "drawn")))
    draws = [vec(v) for v in data.draw(st.lists(
        st.lists(coeffs, min_size=m, max_size=m), min_size=1, max_size=m))]
    space, red = [], RowReducer(m)
    if kind == "invariants":
        space = [dense_vec(u, m) for u in ind.invariants(_units(range(n)))]
    elif kind == "drawn":
        space = [v for v in draws if red.add(v)]
    else:  # v, op v, op^2 v, ... up to the first dependent one
        v = draws[0]
        while red.add(v):
            space.append(v)
            v = mat_vec(op, v)
    want = [dense.coords_in(space, mat_vec(op, u)) for u in space]
    if any(c is None for c in want):
        assert kind == "drawn"
        with pytest.raises(InternalCheckError, match="not invariant"):
            ind.action(x, space)
    else:
        assert ind.action(x, space) == (transpose(mat(want)) if want else ())


def _dense_generators(c) -> list[int]:
    """S by the dense oracle: the basis indices off the pivots of the
    RREF of [g, g] if g is nilpotent, else every index."""
    n, series = len(c), dense.lower_central_series(c)
    if series[-1]:
        return list(range(n))
    pivots = {next(k for k, x in enumerate(r) if x) for r in series[1]}
    return [i for i in range(n) if i not in pivots]


def _dense_joint_kernel(Q, ind, xs) -> list:
    """The joint kernel on V' of the induced operators of the dense
    vectors ``xs``, stacked, each built column by column from the dense
    brackets' coordinates on the span rows [reps | W basis]."""
    c, of = dense.bracket_tensor(Q.algebra), dense.coordinates(
        _span_rows(ind, ind.w))
    reps = [dense_vec(r, Q.dim) for r in ind.reps]
    rows = [row for x in xs for row in transpose(mat(
        [of(dense.bracket(c, x, rep))[:ind.dim] for rep in reps]))
        if any(row)]
    return dense.kernel(rows) if rows else [
        unit_vec(ind.dim, t) for t in range(ind.dim)]


def _dense_invariants(Q, ind) -> list:
    """The invariants of V' as the dense kernel of all n induced operators
    stacked."""
    return _dense_joint_kernel(Q, ind, dense.identity(Q.dim))


def test_invariants_match_stacked_induced_operators(supercyclic_bases,
                                                    gallery):
    """At every flag step, the invariants read from the form against the
    dense kernel of all n induced operators stacked, as lists."""
    rng = random.Random(71)
    cases = {f"T*({name}, seeded)": build(
        gallery[name], random_supercyclic_cocycle(
            gallery[name], rng, basis=supercyclic_bases[name])).total
        for name in ("heisenberg3", "abelian(1|2)", "g(2)")}
    cases["T*(solvable2d + heisenberg3)"] = build(
        direct_sum(sq.solvable2d(), sq.heisenberg3())).total
    cases["class-c(2)"] = sq.build_class_c_example(2)
    cases["T*(heisenberg3) + line"] = orthogonal_direct_sum(
        build(sq.heisenberg3()).total, even_line())
    steps = 0
    for name, Q in cases.items():
        for w in max_isotropic_ideal(Q).chain:
            ind = _InducedSpace(Q, w, orthogonal(Q.form, w))
            got = ind.invariants(_units(range(Q.dim)))
            assert [dense_vec(u, ind.dim) for u in got] \
                == _dense_invariants(Q, ind), (name, w.dim)
            steps += ind.dim > 0
    assert steps == 27


def _in_block(vectors, cols: slice) -> list:
    """The dense V'-vectors of ``vectors`` whose last nonzero, the free
    column of a kernel vector, lies in the slice ``cols``."""
    return [u for u in vectors
            if max(t for t, x in enumerate(u) if x) in range(len(u))[cols]]


def _assert_generators_suffice(Q, name) -> int:
    """At every step of the flag of Q, the invariants it reads, bracketing
    only its generators S, against the dense all-basis list: the odd
    block first, and the even block only when that is empty, each the
    dense vectors of its parity.  S must be the dense oracle's.  The
    solvable branch's joint kernel, which also calls ``invariants``, is
    checked below.  Returns the number of steps."""
    calls, invariants = {}, _InducedSpace.invariants

    def recording(ind, gens, cols=slice(None)):
        got = invariants(ind, gens, cols)
        if sys._getframe(1).f_code.co_name == "max_isotropic_ideal":
            calls.setdefault(ind, []).append((gens, cols, got))
        return got
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_InducedSpace, "invariants", recording)
        max_isotropic_ideal(Q)
    want = _units(_dense_generators(dense.bracket_tensor(Q.algebra)))
    for ind, step in calls.items():
        dense_u = _dense_invariants(Q, ind)
        assert [cols for _, cols, _ in step] == [ind.odd, ind.even][
            :1 if step[0][2] else 2], (name, ind.w.dim)
        for gens, cols, got in step:
            assert gens == want, name
            assert [dense_vec(u, ind.dim) for u in got] \
                == _in_block(dense_u, cols), (name, ind.w.dim)
    return len(calls)


def test_invariants_on_generators_match_dense(flag_inputs):
    """Gallery and disguised inputs, nilpotent or solvable: S is a
    complement of [g, g] or every index, and suffices at every step."""
    steps = sum(_assert_generators_suffice(q, name)
                for name, q in flag_inputs.items())
    assert steps == 62


@given(st.data())
@settings(max_examples=8, deadline=None)
def test_invariants_on_generators_match_dense_on_drawn_inputs(
        supercyclic_bases, gallery, data):
    """T*-extensions of nilpotent gallery algebras by drawn supercyclic
    cocycles, some after a drawn basis change (``disguised_quadratic``)."""
    name = data.draw(st.sampled_from(("heisenberg3", "abelian(1|2)", "g(2)")))
    g, basis = gallery[name], supercyclic_bases[name]
    coeffs = data.draw(st.lists(st.sampled_from(THIRDS), min_size=len(basis),
                                max_size=len(basis)))
    Q = build(g, Cochain2Dual(g.basis, lincomb(
        zip(coeffs, (w.coords.items() for w in basis))))).total
    seed = data.draw(st.one_of(st.none(), st.integers(0, 99)))
    if seed is not None:
        Q = disguised_quadratic(Q, seed=seed)
    assert _assert_generators_suffice(Q, name) > 0


def test_flag_step_reads_the_odd_block_first(flag_inputs):
    """At every step the flag reads U / W one parity block at a time: each
    block is the dense joint kernel's vectors of its parity, and the
    vector chosen off the blocks is the one that a choice on all of U / W
    makes: its first odd vector if there is one, else isotropic_vector on
    its Gram matrix, whenever that picks one (the solvable branch may go
    on to its eigenvalue descent)."""
    chosen, row_parity = [], _row_parity

    def recording(parities, v):
        if sys._getframe(1).f_code.co_name == "max_isotropic_ideal":
            chosen.append(v)
        return row_parity(parities, v)
    steps, inits = {"odd": 0, "even": 0}, []
    init = _InducedSpace.__init__
    for name, Q in flag_inputs.items():
        chosen.clear()
        inits.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys.modules["superquad.decompose"], "_row_parity",
                       recording)
            mp.setattr(_InducedSpace, "__init__", lambda ind, *a: (
                init(ind, *a) or inits.append(ind)))
            max_isotropic_ideal(Q)
        gens = _units(_dense_generators(dense.bracket_tensor(Q.algebra)))
        assert len(chosen) == len(inits) == Q.dim // 2, name
        for ind, v in zip(inits, chosen):
            want = _dense_invariants(Q, ind)
            odd, even = (ind.invariants(gens, cols)
                         for cols in (ind.odd, ind.even))
            assert [dense_vec(u, ind.dim) for u in odd + even] \
                == _in_block(want, ind.odd) + _in_block(want, ind.even)
            assert all(ind.parities[t] == ODD for u in odd for t in u)
            full = ind.invariants(gens)
            first_odd = [u for u in full
                         if row_parity(ind.parities, u) == ODD][:1]
            lifts = [ind.lift(u) for u in full]
            point = None if first_odd else isotropic_vector(
                gram(Q.form, lifts, lifts))
            if first_odd or point is not None:
                assert v == (first_odd[0] if first_odd else lincomb(
                    zip(point, (u.items() for u in full)))), name
                steps["odd" if odd else "even"] += 1
    assert steps == {"odd": 25, "even": 25}


def test_dropping_a_generator_enlarges_the_invariants(flag_inputs):
    """A flag that left the first or the last generator out of S would
    read more invariants than the dense list above: on T*(heisenberg3)
    (S = e1, e2, e3*) without e3* at its second step, and on T*(g(2))
    without its first generator, b11, at some step."""
    for name, drop in (("T*(heisenberg3)", -1), ("T*(g(2))", 0)):
        Q = flag_inputs[name]
        gens = _units(_dense_generators(dense.bracket_tensor(Q.algebra)))
        short = gens[:drop] if drop else gens[1:]
        grew = [len(ind.invariants(short)) - len(ind.invariants(gens))
                for ind in (_InducedSpace(Q, w, orthogonal(Q.form, w))
                            for w in max_isotropic_ideal(Q).chain)]
        assert min(grew) >= 0 and max(grew) > 0, name
    assert _dense_generators(dense.bracket_tensor(
        flag_inputs["T*(heisenberg3)"].algebra)) == [0, 1, 5]


def _dense_orthogonal(q, vectors) -> Subspace:
    """{v : B(v, u) = 0 for u in ``vectors``}, the dense kernel of the
    rows G u of the dense Gram matrix G."""
    G = dense.gram(q.form)
    rows = [mat_vec(G, dense_vec(u, q.dim)) for u in vectors]
    return subspace(q.basis, dense.kernel(rows) if rows
                    else dense.identity(q.dim))


def _dense_route_invariants(ind, gens) -> list:
    """U / W by a second route: U = (W + [S, W^perp])^perp as a dense
    kernel, its rows read in V'-coordinates by dense elimination on
    [reps | W basis], and the canonical basis read as the kernel of the
    kernel of those rows."""
    q = ind.q
    span = subspace(q.basis, itertools.chain(
        ind.w.reducer.int_rows.values(),
        filter(None, ad_images(q.algebra, ind.reps, gens))))
    of = dense.coordinates(_span_rows(ind, ind.w))
    red = RowReducer(ind.dim, (of(v)[:ind.dim] for v in
                               _dense_orthogonal(q, span.rows).vectors))
    return RowReducer(ind.dim, red.sparse_kernel()).sparse_kernel()


def _assert_carried_steps_match(Q, name) -> int:
    """At every step of the flag of Q, the W^perp it carries equals the
    dense kernel of W's Gram rows, and its reps and invariants equal those
    of an induced space built from scratch on that kernel, the invariants
    also those of the second route above.  The flag hands each step a
    view of the reducer it goes on to meet, so the rows are read at the
    step.  Returns the number of steps."""
    steps, init = [], _InducedSpace.__init__

    def recording(ind, q, w, wperp):
        init(ind, q, w, wperp)
        steps.append((ind, wperp.rows))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_InducedSpace, "__init__", recording)
        flag = max_isotropic_ideal(Q)
    gens = _units(_dense_generators(dense.bracket_tensor(Q.algebra)))
    assert [ind.w for ind, _ in steps] == list(flag.chain[:-1]), name
    for ind, wperp_rows in steps:
        want = _dense_orthogonal(Q, ind.w.rows)
        assert wperp_rows == want.rows, (name, ind.w.dim)
        fresh = _InducedSpace(Q, ind.w, want)
        assert (ind.reps, ind.parities) == (fresh.reps, fresh.parities), name
        assert ind.invariants(gens) == fresh.invariants(gens) \
            == _dense_route_invariants(fresh, gens), (name, ind.w.dim)
    assert flag.w_perp == _dense_orthogonal(Q, flag.w_max.rows), name
    return len(steps)


def test_carried_orthogonal_matches_a_fresh_one(flag_inputs):
    """Gallery and disguised inputs of both parities: the flag's carried
    W^perp, reps and invariants at every step, against a step rebuilt
    from the dense orthogonal."""
    steps = sum(_assert_carried_steps_match(q, name)
                for name, q in flag_inputs.items())
    assert steps == sum(q.dim // 2 for q in flag_inputs.values())


@given(st.data())
@settings(max_examples=8, deadline=None)
def test_carried_orthogonal_matches_on_drawn_inputs(supercyclic_bases,
                                                    gallery, data):
    """T*-extensions of nilpotent gallery algebras by drawn supercyclic
    cocycles.  The disguised inputs are the fixed ones of the test above:
    a drawn basis change can need a factorization past ``FACTOR_CAP``."""
    name = data.draw(st.sampled_from(("heisenberg3", "abelian(1|2)", "g(2)")))
    g, basis = gallery[name], supercyclic_bases[name]
    coeffs = data.draw(st.lists(st.sampled_from(THIRDS), min_size=len(basis),
                                max_size=len(basis)))
    Q = build(g, Cochain2Dual(g.basis, lincomb(
        zip(coeffs, (w.coords.items() for w in basis))))).total
    assert _assert_carried_steps_match(Q, name) == Q.dim // 2


def test_decompose_of_tstar_gn3_builds_few_reducers(monkeypatch):
    """The flag meets one reducer, W^perp's, with one covector per step,
    reads each step's invariants off one more reducer (two when the odd
    block is empty) and keeps the reps as W^perp's own RREF rows: a
    decomposition of T*(gn(3)), dim 30, builds at most 67 RowReducers;
    rebuilding W^perp and U from scratch at every step takes 182."""
    q = sq.tstar_of_gn(3).total
    init, built = RowReducer.__init__, []

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(RowReducer, "__init__", counting)
    decompose(q)
    assert 0 < len(built) <= 67


def test_row_parity_rejects_mixed_and_zero_vectors():
    parities = (EVEN, ODD, EVEN)
    assert _row_parity(parities, vec([1, 0, -2])) == EVEN
    assert _row_parity(parities, vec([0, 3, 0])) == ODD
    for v in ([1, 1, 0], [0, 1, 1], [0, 0, 0]):
        with pytest.raises(InternalCheckError, match="not homogeneous"):
            _row_parity(parities, vec(v))


# --- each flag step checks what it adds -----------------------------------

@pytest.fixture(scope="module")
def flag_inputs(gallery):
    """Quadratic inputs of both parities, on unit vectors and disguised
    (``disguised_quadratic``), whose flags the step tests run along."""
    cases = {f"T*({name})": build(g).total for name, g in gallery.items()
             if name != "gl(1,1)"}  # T*(gl(1,1)) fails the class condition
    cases["class-c(2)"] = sq.build_class_c_example(2)
    for name in ("T*(heisenberg3)", "T*(g(2))", "T*(solvable2d)",
                 "class-c(2)"):
        cases[f"disguised {name}"] = disguised_quadratic(cases[name])
    cases["T*(g(2)) + line"] = orthogonal_direct_sum(
        cases["T*(g(2))"], even_line())
    cases["disguised T*(abelian(1|2)) + line"] = disguised_quadratic(
        orthogonal_direct_sum(cases["T*(abelian(1|2))"], even_line()))
    cases["hyperbolic_odd"] = sq.hyperbolic_odd()
    cases["T*(s(2))"] = build(super_solvable(2)).total
    cases["T*(s(2)) + line"] = orthogonal_direct_sum(cases["T*(s(2))"],
                                                     even_line())
    return cases


def test_flag_members_are_isotropic_ideals_by_dense_oracle(flag_inputs):
    """A step checks only the vector it adds and the last member's test
    covers isotropy; the dense oracle checks every member whole: nested
    one dimension at a time, an ideal, and totally isotropic."""
    for name, q in flag_inputs.items():
        c, G = dense.bracket_tensor(q.algebra), dense.gram(q.form)
        chain = max_isotropic_ideal(q).chain
        assert [w.dim for w in chain] == list(range(q.dim // 2 + 1)), name
        for w, bigger in zip(chain, chain[1:]):
            assert all(dense.coords_in(bigger.vectors, v) is not None
                       for v in w.vectors), name
        for w in chain:
            vs = w.vectors
            assert dense.ideal_witness(c, vs) is None, (name, w.dim)
            assert not any(dense.dot(u, mat_vec(G, v))
                           for u in vs for v in vs), (name, w.dim)


def _patch_everywhere(monkeypatch, name, fn, new):
    """Replace fn by new in every superquad module that binds it."""
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("superquad")
                and getattr(module, name, None) is fn):
            monkeypatch.setattr(module, name, new)


def test_flag_step_brackets_only_the_new_vector(monkeypatch, flag_inputs):
    """No full ideal test runs inside the flag, and each step asks
    ad_images for the images of one vector, the one that its member adds
    to the previous member, under the generators S alone.  Every other
    call comes from ``invariants``: it brackets reps of one parity, a
    block, under S, the dense oracle's S, but in the solvable branch's
    joint kernel, which brackets all the reps under the odd basis vectors
    and a basis of [g, g]."""
    dec = importlib.import_module("superquad.decompose")
    assert "is_ideal" not in vars(dec)

    def refuse(*args):
        raise AssertionError("a full test ran inside the flag")
    for name in ("ideal_violation", "is_ideal"):
        _patch_everywhere(monkeypatch, name,
                          getattr(sq.superalgebra, name), refuse)
    single, calls, ad_images = [], [], dec.ad_images

    def recording(g, vectors, left=None):
        vectors = list(vectors)
        frame = sys._getframe(1)
        if frame.f_code.co_name == "max_isotropic_ideal":
            single.extend(vectors if len(vectors) == 1 else [])
        else:
            calls.append((frame.f_locals["self"], vectors, left))
        return ad_images(g, vectors, left)
    monkeypatch.setattr(dec, "ad_images", recording)
    proper = joint = blocks = 0
    for name, q in flag_inputs.items():
        single.clear()
        calls.clear()
        chain = max_isotropic_ideal(q).chain
        assert len(single) == len(chain) - 1, name
        for v, w, bigger in zip(single, chain, chain[1:]):
            assert bigger.contains_vector(v), name
            assert not w.contains_vector(v), name
        gens = _units(_dense_generators(dense.bracket_tensor(q.algebra)))
        odd = _units(i for i in range(q.dim) if q.basis.parity(i) == ODD)
        for ind, vectors, xs in calls:
            if xs == gens:
                assert len({ind.parities[ind.reps.index(v)]
                            for v in vectors}) <= 1, name
                blocks += len(vectors) < ind.dim
            else:
                assert vectors == list(ind.reps), name
                assert xs[:len(odd)] == odd, name
                assert subspace(q.basis, xs[len(odd):]) == derived_by_dense(
                    q.algebra), name
                joint += 1
        proper += len(gens) < q.dim
    assert proper == 7 and joint > 0 and blocks > 0


def test_even_decompose_tests_the_ideal_once_in_quotient(monkeypatch,
                                                          flag_inputs):
    """In the even case the flag's last member gets one full ideal test,
    the one of quotient inside recognize."""
    ideal_violation, callers = sq.superalgebra.ideal_violation, []

    def counting(g, w):
        callers.append(sys._getframe(1).f_code.co_name)
        return ideal_violation(g, w)
    _patch_everywhere(monkeypatch, "ideal_violation", ideal_violation,
                      counting)
    even = 0
    for name, q in flag_inputs.items():
        if q.dim % 2 == 0:
            callers.clear()
            assert decompose(q).parity_case == "even", name
            assert callers == ["quotient"], name
            even += 1
    assert even == 12


def test_odd_decompose_verifies_one_isometry(monkeypatch):
    """In odd dimension the map of q + <t> is verified once, in recognize,
    and the embedding of q is its restriction, not checked again."""
    real, calls = sq.tstar.quadratic_morphism_violation, []

    def counting(src, dst, m):
        calls.append((src.dim, dst.dim, len(m), len(m[0])))
        return real(src, dst, m)
    _patch_everywhere(monkeypatch, "quadratic_morphism_violation", real,
                      counting)
    for q in (orthogonal_direct_sum(build(sq.heisenberg3()).total,
                                    even_line()),
              orthogonal_direct_sum(sq.build_class_c_example(2),
                                    even_line())):
        calls.clear()
        dec = decompose(q)
        assert dec.parity_case == "odd"
        assert calls == [(q.dim + 1,) * 4]
        assert {len(row) for row in dec.embedding} == {q.dim}


@pytest.mark.parametrize("v, match", [
    ({0: 1}, "flag member is not an ideal"),
    ({0: 1, 3: 1}, "selected vector is not isotropic")],
    ids=["brackets-leave", "not-isotropic"])
def test_flag_step_refuses_a_bad_vector_at_once(monkeypatch, v, match):
    """Mutants of the step's choice on T*(heisenberg3), basis e1, e2, e3
    and duals with [e1, e2] = e3: e1 is isotropic but [e2, e1] = -e3
    leaves K e1, and B(e1 + e1*, e1 + e1*) = 2.  Chosen at the first
    step, each is refused by that step's own check, before a second
    step chooses."""
    dec = importlib.import_module("superquad.decompose")
    q = build(sq.heisenberg3()).total
    zero = zero_subspace(q.basis)
    ind = _InducedSpace(q, zero, orthogonal(q.form, zero))
    first = dense.coords_in(_span_rows(ind, zero), dense_vec(v, q.dim))
    combination, chosen = dec._combination, []

    def choose(x, space):
        chosen.append(combination(x, space) if chosen else first)
        return chosen[-1]
    monkeypatch.setattr(dec, "_combination", choose)
    with pytest.raises(InternalCheckError, match=match):
        max_isotropic_ideal(q)
    assert len(chosen) == 1
