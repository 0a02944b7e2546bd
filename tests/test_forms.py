import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import superquad as sq
from superquad import dsl, forms
from superquad.errors import (DimensionMismatch, FormError,
                              InternalCheckError, PreconditionError)
from superquad.forms import (EvenForm, even_form, gram, invariance_violation,
                             is_invariant, is_totally_isotropic,
                             isotropic_complement, orthogonal, quadratic,
                             radical)
from superquad.linalg import (kernel, mat, unit_vec, vec, vec_is_zero,
                              zeros)
from superquad.superalgebra import (EVEN, ODD, LieSuperalgebra,
                                    full_subspace, graded_basis, sgn,
                                    subspace, zero_subspace)
from superquad.tstar import build

import dense_oracle as dense
from dense_oracle import dot, mat_vec, split_vector
from support import center_orthogonality_check

F = Fraction

# mostly zeros, as in the Gram matrices of T*-extensions
sparse_entries = st.one_of(
    st.just(F(0)), st.just(F(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4))


@st.composite
def even_forms_and_vectors(draw):
    """A random even supersymmetric form, odd blocks included, and two
    vectors of its dimension."""
    parities = draw(st.lists(st.sampled_from((EVEN, ODD)),
                             min_size=1, max_size=7))
    n = len(parities)
    G = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if parities[i] != parities[j] or (i == j and parities[i] == ODD):
                continue
            q = draw(sparse_entries)
            G[i][j] = q
            G[j][i] = sgn(parities[i] * parities[j]) * q
    basis = graded_basis([f"b{i}" for i in range(n)], parities)
    vectors = st.lists(sparse_entries, min_size=n, max_size=n).map(vec)
    return even_form(basis, G), draw(vectors), draw(vectors)


@st.composite
def free_coordinate_forms(draw, entries=sparse_entries):
    """A random form given straight by its free coordinates: pairs i <= j
    of equal parity, where only an even index repeats."""
    parities = draw(st.lists(st.sampled_from((EVEN, ODD)),
                             min_size=1, max_size=7))
    n = len(parities)
    basis = graded_basis([f"b{i}" for i in range(n)], parities)
    return EvenForm(basis, {
        (i, j): draw(entries) for i in range(n) for j in range(i, n)
        if parities[i] == parities[j] and (i < j or parities[i] == EVEN)})


# --- the free-coordinate store, against the dense Gram matrix ----------------

@given(free_coordinate_forms())
@settings(max_examples=150, deadline=None)
def test_rows_match_dense_gram(B):
    """The int rows are the dense Gram rows at their nonzeros, scaled by
    the least common denominator of the entries."""
    f, rows = B.integer_gram
    assert f == math.lcm(*(q.denominator for q in B.coords.values()))
    assert rows == tuple(tuple((j, q * f) for j, q in enumerate(row) if q)
                         for row in dense.gram(B))
    assert all(type(q) is int for row in rows for _, q in row)


@given(free_coordinate_forms())
@settings(max_examples=150, deadline=None)
def test_even_form_of_the_dense_gram_is_the_form(B):
    assert even_form(B.basis, dense.gram(B)) == B


@given(free_coordinate_forms())
@settings(max_examples=150, deadline=None)
def test_radical_matches_dense_kernel(B):
    """radical against the dense kernel, and the radical vector that the
    quadratic algebra's construction carries against its first vector:
    on the abelian algebra, invariance always holds."""
    ker = dense.kernel(dense.gram(B))
    assert radical(B) == ker
    abelian = LieSuperalgebra(B.basis, {})
    if ker:
        with pytest.raises(FormError) as exc:
            quadratic(abelian, B)
        assert (exc.value.radical, exc.value.witness) == (ker[0], None)
    else:
        quadratic(abelian, B)


@pytest.mark.parametrize("odd", [1, 3])
def test_odd_part_of_odd_dimension_is_degenerate(odd):
    """An even form's odd block is antisymmetric, so singular at odd
    size: construction fails on nondegeneracy, with a radical vector."""
    g = sq.abelian(2, odd)
    B = EvenForm(g.basis, {(0, 1): 1, **{(2 + k, 3 + k): 1
                                         for k in range(0, odd - 1, 2)}})
    with pytest.raises(FormError) as exc:
        quadratic(g, B)
    r = exc.value.radical
    assert r is not None and not vec_is_zero(r)
    assert r == dense.kernel(dense.gram(B))[0]
    assert not any(mat_vec(dense.gram(B), r))


def test_form_error_carries_both_witnesses():
    """A degenerate and non-invariant form: the radical vector and the
    invariance triple are both found before the error is raised."""
    h3 = sq.heisenberg3()
    B = even_form(h3.basis, [[0, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(FormError) as exc:
        quadratic(h3, B)
    G = dense.gram(B)
    want = dense.invariance_violation(dense.bracket_tensor(h3), G)
    assert want is not None
    assert (exc.value.radical, exc.value.witness) == (dense.kernel(G)[0],
                                                      want)


@given(free_coordinate_forms(
    st.fractions(min_value=-5, max_value=5, max_denominator=4)))
@settings(max_examples=100, deadline=None)
def test_dsl_roundtrip_of_random_forms(B):
    assume(B.basis.odd_dim % 2 == 0 and not radical(B))
    q = quadratic(LieSuperalgebra(B.basis, {}), B)
    doc = dsl.parse(dsl.emit(dsl.document_quadratic(q)))
    assert dsl.document_form(doc) == q.form


def test_non_free_keys_are_rejected():
    basis = graded_basis(("e1", "o1", "e2", "o2"), (EVEN, ODD, EVEN, ODD))
    # transposed, mixed parity, odd diagonal
    for key in ((2, 0), (3, 1), (0, 1), (1, 2), (1, 1), (3, 3)):
        with pytest.raises(FormError) as exc:
            EvenForm(basis, {(0, 0): 1, key: 1})
        assert exc.value.witness == key
    for key in ((0, 4), (-1, 0), (0,), (0, 1, 2), "e1"):
        with pytest.raises(DimensionMismatch):
            EvenForm(basis, {key: 1})
    B = EvenForm(basis, {(2, 2): 2, (1, 3): F(1, 2), (0, 2): 0, (0, 0): 3})
    assert B.coords == {(0, 0): 3, (1, 3): F(1, 2), (2, 2): 2}
    assert list(B.coords) == sorted(B.coords)


def test_evenness_enforced():
    basis = graded_basis(("e", "o"), (EVEN, ODD))
    with pytest.raises(FormError):
        even_form(basis, [[0, 1], [1, 0]])


def test_supersymmetry_enforced():
    basis = graded_basis(("e1", "e2"), (EVEN, EVEN))
    with pytest.raises(FormError):
        even_form(basis, [[0, 1], [-1, 0]])
    basis = graded_basis(("o1", "o2"), (ODD, ODD))
    with pytest.raises(FormError):
        even_form(basis, [[0, 1], [1, 0]])


@given(even_forms_and_vectors())
@settings(max_examples=150, deadline=None)
def test_sparse_apply_and_orthogonal_match_dense_gram(case):
    B, x, y = case
    G = dense.gram(B)
    assert B.apply(x, y) == dot(mat_vec(G, y), x)
    assert B.image(y) == {a: q for a, q in enumerate(mat_vec(G, y)) if q}
    assert gram(B, [x, y], [y, x]) == tuple(
        tuple(dot(mat_vec(G, v), u) for v in (y, x)) for u in (x, y))
    w = subspace(B.basis, [v for v in split_vector(B.basis, x)
                           if not vec_is_zero(v)])
    rows = [r for r in (mat_vec(G, u) for u in w.vectors)
            if not vec_is_zero(r)]
    want = (subspace(B.basis, kernel(mat(rows))) if rows
            else full_subspace(B.basis))
    assert orthogonal(B, w) == want


def test_apply_rejects_wrong_length():
    """apply, image and gram reject a short or a long vector, on either
    side of the pairing."""
    B = sq.hyperbolic_even().form
    for x, y in (((1,), (1, 0)), ((1, 0), (1,)), ((1, 0, 0), (1, 0)),
                 ((1, 0), (0, 1, 0))):
        x, y = vec(x), vec(y)
        for pair in (lambda: B.apply(x, y), lambda: gram(B, [x], [y]),
                     lambda: gram(B, [y], [x])):
            with pytest.raises(DimensionMismatch):
                pair()
    for y in ((1,), (1, 0, 0)):
        with pytest.raises(DimensionMismatch):
            B.image(vec(y))


def test_nondegeneracy():
    g = sq.abelian(2, 0)
    assert not radical(even_form(g.basis, [[1, 0], [0, 1]]))
    assert radical(even_form(g.basis, zeros(2, 2)))
    ext = build(sq.heisenberg3())
    assert not radical(ext.total.form)


def test_invariance_trivial_and_failure():
    g = sq.abelian(2, 0)
    B = even_form(g.basis, [[1, 2], [2, 5]])
    assert is_invariant(g, B)
    h3 = sq.heisenberg3()
    Bid = even_form(h3.basis, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    w = invariance_violation(h3, Bid)
    assert w is not None
    # B([e1,e2],e3) = B(e3,e3) = 1 but B(e1,[e2,e3]) = 0
    assert w == (0, 1, 2)


def test_tstar_pairing_invariant():
    ext = build(sq.build_gn(2))
    assert is_invariant(ext.total.algebra, ext.total.form)


def test_orthogonal_extremes():
    q = sq.hyperbolic_even()
    assert orthogonal(q.form, zero_subspace(q.basis)).dim == 2
    assert orthogonal(q.form, full_subspace(q.basis)).dim == 0


def test_orthogonal_dim_complement():
    ext = build(sq.heisenberg3())
    B = ext.total.form
    w = subspace(B.basis, [unit_vec(6, 0), unit_vec(6, 4)])
    assert orthogonal(B, w).dim == 4


def test_derived_orthogonal_is_center(gallery):
    for name, g in gallery.items():
        q = build(g).total
        assert center_orthogonality_check(q), name
    assert center_orthogonality_check(sq.hyperbolic_even())
    assert center_orthogonality_check(sq.hyperbolic_odd())


def test_isotropy_examples():
    g = sq.abelian(2, 0)
    zero_form = even_form(g.basis, zeros(2, 2))
    assert is_totally_isotropic(zero_form, full_subspace(g.basis))
    line = even_form(g.basis, [[1, 0], [0, 0]])
    assert not is_totally_isotropic(
        line, subspace(g.basis, [unit_vec(2, 0)]))
    ext = build(sq.build_gn(2))
    assert is_totally_isotropic(ext.total.form, ext.dual_ideal())


def test_odd_vectors_always_isotropic():
    q = sq.hyperbolic_odd()
    for v in ([1, 0], [0, 1], [1, 1], [2, -3]):
        assert q.form.apply(vec(v), vec(v)) == 0


def test_isotropic_complement_hyperbolic_correction():
    basis = graded_basis(("u", "v"), (EVEN, EVEN))
    B = even_form(basis, [[0, 1], [1, 2]])
    iso = subspace(basis, [unit_vec(2, 0)])
    c = isotropic_complement(B, iso)
    assert c == subspace(basis, [vec([-1, 1])])  # span{v - u}


def test_isotropic_complement_odd_pair():
    q = sq.hyperbolic_odd()
    iso = subspace(q.basis, [unit_vec(2, 0)])
    c = isotropic_complement(q.form, iso)
    assert c == subspace(q.basis, [unit_vec(2, 1)])


def test_isotropic_complement_blames_itself_for_a_bad_output(monkeypatch):
    """The test of the constructed complement checks the library's own
    output, so its failure is internal, not a precondition of the input."""
    q = sq.hyperbolic_even()
    iso = subspace(q.basis, [unit_vec(2, 0)])
    monkeypatch.setattr(forms, "is_totally_isotropic", lambda B, w: False)
    with pytest.raises(InternalCheckError,
                       match="isotropic complement construction failed"):
        isotropic_complement(q.form, iso)


def test_isotropic_complement_dual_summand():
    ext = build(sq.heisenberg3())
    c = isotropic_complement(ext.total.form, ext.dual_ideal())
    expected = subspace(ext.total.basis, [unit_vec(6, i) for i in range(3)])
    assert c == expected  # the base copy is already isotropic


def test_isotropic_complement_postconditions(gallery):
    for name, g in gallery.items():
        ext = build(g).total
        iso = subspace(ext.basis, [unit_vec(ext.dim, g.dim + k)
                                   for k in range(g.dim)])
        c = isotropic_complement(ext.form, iso)
        assert c.dim == iso.dim, name
        assert is_totally_isotropic(ext.form, c), name
        from superquad.linalg import rank
        assert rank(mat(c.vectors + iso.vectors)) == ext.dim, name


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_isotropic_complement_with_an_unsymmetric_pairing(data):
    """Gram [[0, A], [A^T, C]] on even e1..e2k with iso = span(e1..ek):
    the pairing of iso with the unit complement is A, which is not
    symmetric in general, and a nonzero C makes the correction nonzero."""
    k = data.draw(st.integers(1, 3))
    ints = st.integers(-3, 3).map(F)
    A = data.draw(st.lists(st.lists(ints, min_size=k, max_size=k),
                           min_size=k, max_size=k).filter(
                               lambda a: dense.det(a) != 0))
    C = data.draw(st.lists(st.lists(ints, min_size=k, max_size=k),
                           min_size=k, max_size=k))
    gram = [[F(0)] * k + A[i] for i in range(k)] + [
        [A[j][i] for j in range(k)] + [C[i][j] + C[j][i] for j in range(k)]
        for i in range(k)]
    basis = graded_basis([f"e{i}" for i in range(2 * k)], [EVEN] * (2 * k))
    B = even_form(basis, gram)
    iso = subspace(basis, [unit_vec(2 * k, i) for i in range(k)])
    c = isotropic_complement(B, iso)
    assert c.dim == k and is_totally_isotropic(B, c)
    assert subspace(basis, c.vectors + iso.vectors).dim == 2 * k


def test_isotropic_complement_preconditions():
    q = sq.hyperbolic_even()
    with pytest.raises(PreconditionError):
        isotropic_complement(q.form, zero_subspace(q.basis))
    anis = even_form(q.basis, [[1, 0], [0, 1]])
    with pytest.raises(PreconditionError):
        isotropic_complement(anis, subspace(q.basis, [unit_vec(2, 0)]))
    # a Lagrangian-sized isotropic subspace of a degenerate form: the
    # pairing with the complement is singular, or not even square
    mixed = graded_basis(("e1", "e2", "o1", "o2"), (EVEN, EVEN, ODD, ODD))
    for basis, iso in ((q.basis, [unit_vec(2, 0)]),
                       (mixed, [unit_vec(4, 0), unit_vec(4, 1)])):
        zero = EvenForm(basis, {})
        with pytest.raises(PreconditionError, match="nondegenerate") as exc:
            isotropic_complement(zero, subspace(basis, iso))
        assert (exc.value.dims, exc.value.pair) == (None, None)


@given(even_forms_and_vectors())
@settings(max_examples=150, deadline=None)
def test_isotropic_complement_witnesses_match_dense(case):
    """Both witnesses of a refused subspace against the dense Gram
    matrix: the dimensions unless half, and the first pair of rows of
    w.vectors, i-major, that pairs to nonzero."""
    B, x, y = case
    w = subspace(B.basis, [v for u in (x, y) for v in split_vector(B.basis, u)
                           if not vec_is_zero(v)])
    G, vs = dense.gram(B), w.vectors
    want = (None if 2 * w.dim == B.dim else (w.dim, B.dim), next(
        ((u, v) for u in vs for v in vs if dot(mat_vec(G, v), u)), None))
    try:
        isotropic_complement(B, w)
        got = (None, None)
    except PreconditionError as exc:
        got = (exc.dims, exc.pair)
    assert got == want


def test_quadratic_rejects_noninvariant():
    h3 = sq.heisenberg3()
    Bid = even_form(h3.basis, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(FormError):
        quadratic(h3, Bid)


def test_nonzero_solvable_quadratic_has_center(gallery):
    """Nonzero solvable quadratic superalgebras have nonzero center
    (orthogonality of the derived subalgebra forces it)."""
    instances = [build(g).total for g in gallery.values()
                 if sq.is_solvable(g)]
    instances += [sq.hyperbolic_even(), sq.hyperbolic_odd()]
    assert instances
    for q in instances:
        assert sq.is_solvable(q.algebra)
        assert sq.center(q.algebra).dim > 0


def test_osp_property(gallery):
    """Invariance forces B([x,y],z) + (-1)^{|x||y|} B(y,[x,z]) = 0."""
    for name, g in gallery.items():
        q = build(g).total
        A, B = q.algebra, q.form
        n = A.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = B.apply(sq.bracket(A, unit_vec(n, i),
                                             unit_vec(n, j)), unit_vec(n, k))
                    rhs = B.apply(unit_vec(n, j),
                                  sq.bracket(A, unit_vec(n, i),
                                             unit_vec(n, k)))
                    s = sgn(A.parity(i) * A.parity(j))
                    assert lhs + s * rhs == 0, (name, i, j, k)
