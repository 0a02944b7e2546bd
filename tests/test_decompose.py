import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import superquad as sq
from superquad.cohomology import unhat, z3_basis
from superquad.decompose import (Decomposition, _InducedSpace, _row_parity,
                                 decompose, isotropic_vector,
                                 max_isotropic_ideal)
from superquad.errors import (InternalCheckError, PreconditionError,
                              RationalPointNotFound, UndecidedError)
from superquad.forms import (QuadraticLieSuperalgebra, even_form,
                             is_totally_isotropic, orthogonal)
from superquad.gallery import (even_line, orthogonal_direct_sum,
                               random_supercyclic_cocycle)
from superquad.linalg import (RowReducer, dense_vec, mat, rank, unit_vec,
                              vec, vec_scale, zero_vec)
from superquad.superalgebra import (EVEN, ODD, bracket,
                                    is_ideal, subspace)
from superquad.tstar import build

import dense_oracle as dense
from dense_oracle import mat_vec, transpose
from support import direct_sum, disguised_quadratic, vec_add

F = Fraction


def _fraction_values(bound: int, max_denominator: int) -> list:
    """The values of st.fractions(-bound, bound, max_denominator=...), for
    st.sampled_from, which draws them far faster."""
    return sorted({F(p, q) for q in range(1, max_denominator + 1)
                   for p in range(-bound * q, bound * q + 1)})


THIRDS = _fraction_values(3, 3)


def test_flag_hyperbolic_even_picks_first_null_vector():
    q = sq.hyperbolic_even()
    flag = max_isotropic_ideal(q)
    assert flag.achieved_dim == 1
    assert flag.w_max.equals(subspace(q.basis, [unit_vec(2, 0)]))
    assert [w.dim for w in flag.chain] == [0, 1]


@pytest.mark.parametrize("q", [
    sq.hyperbolic_even(),
    orthogonal_direct_sum(sq.hyperbolic_even(), even_line()),
    orthogonal_direct_sum(sq.hyperbolic_even(), sq.hyperbolic_even())],
    ids=["last-step-even", "last-step-odd", "next-step"])
def test_flag_member_that_is_not_isotropic_is_caught(monkeypatch, q):
    """A flag step that adjoins e1 + e2, with B(e1 + e2, e1 + e2) = 2, to
    an abelian algebra still yields an ideal one dimension up, so only the
    isotropy checks can refute it: the next step's, or the last one's."""
    import importlib
    from superquad.superalgebra import extend_subspace
    dec = importlib.import_module("superquad.decompose")
    monkeypatch.setattr(dec, "extend_subspace",
                        lambda w, v: extend_subspace(w, {0: 1, 1: 1}))
    with pytest.raises(InternalCheckError):
        max_isotropic_ideal(q)


def test_flag_anisotropic_rational_failure():
    a2 = sq.abelian(2, 0)
    q = QuadraticLieSuperalgebra(a2, even_form(a2.basis, [[1, 0], [0, 1]]))
    with pytest.raises(RationalPointNotFound) as exc:
        max_isotropic_ideal(q)
    assert exc.value.quadric_str == "x^2 + y^2"
    assert tuple(exc.value.quadric) == (F(1), F(1))


def test_flag_odd_hyperbolic():
    q = sq.hyperbolic_odd()
    flag = max_isotropic_ideal(q)
    assert flag.achieved_dim == 1
    assert len(flag.w_max.odd_rows) == 1


def test_flag_chain_invariants():
    ext = sq.tstar_of_gn(2)
    flag = max_isotropic_ideal(ext.total)
    assert flag.achieved_dim == 6
    dims = [w.dim for w in flag.chain]
    assert dims == list(range(7))
    for w in flag.chain:
        assert is_totally_isotropic(ext.total.form, w)
        assert is_ideal(ext.total.algebra, w)
    # maximal member equals its orthogonal in even total dimension
    assert flag.w_max.equals(orthogonal(ext.total.form, flag.w_max))


def test_flag_preconditions():
    gl11 = sq.build_glnn(1)
    Q = build(gl11).total  # solvable but without the class condition
    with pytest.raises(PreconditionError):
        max_isotropic_ideal(Q)


def test_isotropic_vector_prefers_raw_basis():
    gram = mat([[0, 1], [1, 0]])
    v = isotropic_vector(gram, (EVEN, EVEN))
    assert v == unit_vec(2, 0)
    gram = mat([[2, 0], [0, -2]])
    v = isotropic_vector(gram, (EVEN, EVEN))
    assert v is not None
    assert sum(v[i] * gram[i][j] * v[j] for i in range(2)
               for j in range(2)) == 0
    assert isotropic_vector(mat([[1, 0], [0, 2]]), (EVEN, EVEN)) is None
    # the exact decision finds three-variable points like (1, 1, 1)
    v = isotropic_vector(mat([[1, 0, 0], [0, 2, 0], [0, 0, -3]]),
                         (EVEN, EVEN, EVEN))
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
    the flags of an even, an odd-dimensional, a class-c and a solvable
    non-nilpotent algebra."""
    out = []
    for Q in (build(sq.heisenberg3()).total,
              orthogonal_direct_sum(build(sq.abelian(1, 2)).total,
                                    even_line()),
              sq.build_class_c_example(2), build(sq.solvable2d()).total):
        for w in max_isotropic_ideal(Q).chain:
            ind = _InducedSpace(Q, w)
            out.append((orthogonal(Q.form, w),
                        dense.coordinates(_span_rows(ind, w)), ind))
    return out


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_project_matches_dense_solve(induced_spaces, data):
    coeffs = st.sampled_from(THIRDS)
    for wperp, coords_in_span, ind in induced_spaces:
        n = len(wperp.basis.names)
        v = zero_vec(n)
        for u in wperp.vectors:
            v = vec_add(v, vec_scale(data.draw(coeffs), u))
        outside = vec_add(v, unit_vec(n, data.draw(st.integers(0, n - 1))))
        for x in (v, outside):
            want = coords_in_span(x)
            if want is None:
                with pytest.raises(InternalCheckError,
                                   match="not in W\\^perp"):
                    ind.project(x)
            else:
                assert dense_vec(ind.project(x), ind.dim) == want[:ind.dim]


def _check_odd_decomposition_dense(q):
    """Decompose q of odd dimension and check the embedding into the
    T*-extension against the dense oracle."""
    dec = decompose(q)
    assert dec.parity_case == "odd"
    total = dec.extension.total
    assert total.dim == q.dim + 1
    assert dense.morphism_violation(
        q.basis.parities, dense.bracket_tensor(q.algebra),
        dense.gram(q.form), total.basis.parities,
        dense.bracket_tensor(total.algebra), dense.gram(total.form),
        dec.embedding) is None


def test_decompose_disguised_odd_sum():
    """The odd case on dense coefficients: T*(gn(2)) + line after a basis
    change (dim 13).  Its induced Gram needs 4011011^2, a prime square
    past the factorization cap."""
    q = disguised_quadratic(orthogonal_direct_sum(sq.tstar_of_gn(2).total,
                                                  even_line()))
    assert q.dim == 13
    _check_odd_decomposition_dense(q)


@pytest.mark.xfail(strict=True, raises=UndecidedError,
                   reason="the induced Gram needs 198101278223 = "
                          "361349 * 548227, two primes past the cap")
def test_decompose_disguised_odd_heisenberg_sum():
    q = disguised_quadratic(orthogonal_direct_sum(
        build(sq.heisenberg3()).total, even_line()))
    assert q.dim == 7
    _check_odd_decomposition_dense(q)


@pytest.fixture(scope="module")
def disguised_induced_spaces():
    """The induced space of every flag member of T*(gn(2)) after a seeded
    basis change (``disguised_quadratic``), with its spanning rows [lifts | W
    basis]: dense rows with denominators, unlike the unit vectors of the
    gallery."""
    q = disguised_quadratic(sq.tstar_of_gn(2).total)
    out = []
    for w in max_isotropic_ideal(q).chain:
        ind = _InducedSpace(q, w)
        out.append((ind, _span_rows(ind, w)))
    assert any(x.denominator > 1 for _, rows in out for v in rows
               for x in v)
    return out


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_coordinates_of_disguised_input_match_dense(disguised_induced_spaces,
                                                    data):
    """Coordinates.of reads the exact residual of its reducer: along the
    flag of a disguised input, the coordinates of a drawn combination of
    the spanning rows are its coefficients, as the dense solve finds, and
    a vector off the span gives what the dense solve gives."""
    coeffs = st.sampled_from(_fraction_values(7, 12))
    for ind, rows in disguised_induced_spaces:
        n = ind.q.dim
        x = tuple(data.draw(coeffs) for _ in rows)
        v = zero_vec(n)
        for t, r in zip(x, rows):
            v = vec_add(v, vec_scale(t, r))
        assert dense_vec(ind._coords.of(v), len(rows)) \
            == dense.coords_in(rows, v) == x
        off = vec_add(v, unit_vec(n, data.draw(st.integers(0, n - 1))))
        got = ind._coords.of(off)
        assert dense.coords_in(rows, off) == (
            None if got is None else dense_vec(got, len(rows)))


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
        space = [dense_vec(u, m) for u in ind.invariants()]
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


def test_invariants_match_stacked_induced_operators(supercyclic_bases,
                                                    gallery):
    """At every flag step, the invariants read from the form against the
    dense kernel of all n induced operators stacked, each built column by
    column from projected brackets, as lists."""
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
        n = Q.dim
        for w in max_isotropic_ideal(Q).chain:
            ind = _InducedSpace(Q, w)
            rows = [row for i in range(n) for row in transpose(mat(
                [dense_vec(ind.project(bracket(Q.algebra, unit_vec(n, i),
                                               rep)), ind.dim)
                 for rep in ind.reps])) if any(row)]
            want = dense.kernel(rows) if rows else [
                unit_vec(ind.dim, t) for t in range(ind.dim)]
            assert [dense_vec(u, ind.dim) for u in ind.invariants()] \
                == want, (name, w.dim)
            steps += ind.dim > 0
    assert steps == 27


def test_row_parity_rejects_mixed_and_zero_vectors():
    parities = (EVEN, ODD, EVEN)
    assert _row_parity(parities, vec([1, 0, -2])) == EVEN
    assert _row_parity(parities, vec([0, 3, 0])) == ODD
    for v in ([1, 1, 0], [0, 1, 1], [0, 0, 0]):
        with pytest.raises(InternalCheckError, match="not homogeneous"):
            _row_parity(parities, vec(v))
