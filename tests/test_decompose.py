import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import superquad as sq
from superquad.cohomology import unhat, z3_basis
from superquad.decompose import (Decomposition, _InducedSpace,
                                 _common_kernel, _restrict_operator,
                                 _row_parity,
                                 decompose, isotropic_vector,
                                 max_isotropic_ideal)
from superquad.errors import (InternalCheckError, PreconditionError,
                              RationalPointNotFound)
from superquad.forms import even_form, is_totally_isotropic, orthogonal, quadratic
from superquad.gallery import (even_line, orthogonal_direct_sum,
                               random_supercyclic_cocycle)
from superquad.linalg import (RowReducer, mat, mat_mul, mat_vec, rank,
                              transpose, unit_vec, vec, vec_scale, zero_vec)
from superquad.superalgebra import (EVEN, ODD, bracket, is_ideal, subspace)
from superquad.tstar import build

import dense_oracle as dense
from support import vec_add

F = Fraction


def test_flag_hyperbolic_even_picks_first_null_vector():
    q = sq.hyperbolic_even()
    flag = max_isotropic_ideal(q)
    assert flag.achieved_dim == 1
    assert flag.w_max.equals(subspace(q.basis, [unit_vec(2, 0)]))
    assert [w.dim for w in flag.chain] == [0, 1]


def test_flag_anisotropic_rational_failure():
    a2 = sq.abelian(2, 0)
    q = quadratic(a2, even_form(a2.basis, [[1, 0], [0, 1]]),
                  check_algebra=False)
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


@pytest.fixture(scope="module")
def induced_spaces():
    """(W^perp, span rows, induced space) along the flags of an even, an
    odd-dimensional and a solvable class-c algebra."""
    out = []
    for Q in (build(sq.heisenberg3()).total,
              orthogonal_direct_sum(build(sq.abelian(1, 2)).total,
                                    even_line()),
              sq.build_class_c_example(2)):
        for w in max_isotropic_ideal(Q).chain:
            ind = _InducedSpace(Q, w)
            out.append((orthogonal(Q.form, w),
                        tuple(ind.rep_vectors) + tuple(w.vectors), ind))
    return out


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_project_matches_dense_solve(induced_spaces, data):
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    for wperp, span_rows, ind in induced_spaces:
        n = len(wperp.basis.names)
        v = zero_vec(n)
        for u in wperp.vectors:
            v = vec_add(v, vec_scale(data.draw(coeffs), u))
        outside = vec_add(v, unit_vec(n, data.draw(st.integers(0, n - 1))))
        for x in (v, outside):
            want = dense.coords_in(span_rows, x)
            if ind.dim == 0:
                assert ind.project(x) == ()
            elif want is None:
                with pytest.raises(InternalCheckError,
                                   match="not in W\\^perp"):
                    ind.project(x)
            else:
                assert ind.project(x) == want[:ind.dim]


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_restrict_operator_matches_dense_coordinates(data):
    """An operator built on a random basis to leave the span of its first
    d vectors invariant (or, on request, to move them anywhere) against
    coordinates solved one image at a time by dense elimination."""
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    m = data.draw(st.integers(1, 5))
    d = data.draw(st.integers(1, m))
    red, basis = RowReducer(m), []
    for v in data.draw(st.lists(st.lists(coeffs, min_size=m, max_size=m),
                                max_size=m)) + [unit_vec(m, i)
                                                for i in range(m)]:
        if red.add(vec(v)):
            basis.append(vec(v))
    rows = basis[:d]
    invariant = data.draw(st.booleans())
    images = []
    for t in range(m):
        if t < d and invariant:
            image = zero_vec(m)
            for r in rows:
                image = vec_add(image, vec_scale(data.draw(coeffs), r))
        else:
            image = vec(data.draw(st.lists(coeffs, min_size=m, max_size=m)))
        images.append(image)
    # op maps basis[t] to images[t]
    op = mat_mul(transpose(images), dense.inverse(transpose(basis)))
    cols = [dense.coords_in(rows, mat_vec(op, r)) for r in rows]
    if any(x is None for x in cols):
        assert not invariant
        with pytest.raises(InternalCheckError, match="not operator-invariant"):
            _restrict_operator(op, rows)
    else:
        assert _restrict_operator(op, rows) == transpose(mat(cols))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_common_kernel_matches_dense_kernel(data):
    """The joint kernel of a few operators against the dense kernel of
    their stacked rows; with no rows, or only zero rows, the whole space."""
    dim = data.draw(st.integers(1, 5))
    entries = st.one_of(st.just(F(0)), st.just(F(0)),
                        st.fractions(min_value=-3, max_value=3,
                                     max_denominator=3))
    ops = data.draw(st.lists(st.lists(
        st.lists(entries, min_size=dim, max_size=dim).map(vec),
        min_size=dim, max_size=dim).map(tuple), max_size=3))
    rows = [row for op in ops for row in op if any(row)]
    want = dense.kernel(rows) if rows else [unit_vec(dim, i)
                                            for i in range(dim)]
    assert _common_kernel(ops, dim) == want


def _direct_sum(a, b):
    """a ⊕ b with the two bases side by side and no mixed brackets."""
    n = a.dim
    basis = sq.graded_basis(tuple(f"l_{s}" for s in a.basis.names)
                            + tuple(f"r_{s}" for s in b.basis.names),
                            a.basis.parities + b.basis.parities)
    table = tuple(row + ((),) * b.dim for row in a.table) + tuple(
        ((),) * n + tuple(tuple((k + n, q) for k, q in e) for e in row)
        for row in b.table)
    return sq.LieSuperalgebra(basis, table)


def test_invariants_match_stacked_induced_operators(supercyclic_bases,
                                                    gallery):
    """At every flag step, the invariants read from the form against the
    common kernel of all n induced operators, as lists."""
    rng = random.Random(71)
    cases = {f"T*({name}, seeded)": build(
        gallery[name], random_supercyclic_cocycle(
            gallery[name], rng, basis=supercyclic_bases[name])).total
        for name in ("heisenberg3", "abelian(1|2)", "g(2)")}
    cases["T*(solvable2d + heisenberg3)"] = build(
        _direct_sum(sq.solvable2d(), sq.heisenberg3())).total
    cases["class-c(2)"] = sq.build_class_c_example(2)
    cases["T*(heisenberg3) + line"] = orthogonal_direct_sum(
        build(sq.heisenberg3()).total, even_line())
    steps = 0
    for name, Q in cases.items():
        n = Q.dim
        for w in max_isotropic_ideal(Q).chain:
            ind = _InducedSpace(Q, w)
            ops = [ind.operator(unit_vec(n, i)) for i in range(n)]
            want = _common_kernel(ops, ind.dim)
            assert ind.invariants() == want, (name, w.dim)
            steps += ind.dim > 0
    assert steps == 27


def test_row_parity_rejects_mixed_and_zero_vectors():
    parities = (EVEN, ODD, EVEN)
    assert _row_parity(parities, vec([1, 0, -2])) == EVEN
    assert _row_parity(parities, vec([0, 3, 0])) == ODD
    for v in ([1, 1, 0], [0, 1, 1], [0, 0, 0]):
        with pytest.raises(InternalCheckError, match="not homogeneous"):
            _row_parity(parities, vec(v))
