import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import superquad as sq
from superquad.errors import (AxiomError, DimensionMismatch, NotGradedError,
                              NotIdealError, PreconditionError)
from superquad.linalg import (RowReducer, kernel, mat, unit_vec, vec,
                              vec_is_zero, vec_scale, zero_vec)
from superquad.superalgebra import (EVEN, ODD, Subspace, derived_subspace,
                                    extend_subspace, full_subspace,
                                    graded_basis,
                                    product_subspace, quotient, sgn,
                                    subspace, zero_subspace)

import dense_oracle as dense
from support import (DualVector, algebra_if_valid, basis_table,
                     bracket_tensors, coadjoint, dual_vector, vec_add,
                     vector_parity)

F = Fraction

sparse_entries = st.one_of(
    st.just(F(0)), st.fractions(min_value=-4, max_value=4, max_denominator=3))


# --- bracket oracles ---------------------------------------------------------

def _matrix_units_2x2():
    """Matrix units of gl(1,1) as plain 2x2 grids, independent of the
    library's structure constants."""
    def unit(r, c):
        return [[F(1) if (i, j) == (r, c) else F(0) for j in range(2)]
                for i in range(2)]
    return {"a11": unit(0, 0), "d11": unit(1, 1),
            "b11": unit(0, 1), "c11": unit(1, 0)}


def _mm(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]


def _msub(a, b, s):
    return [[a[i][j] - s * b[i][j] for j in range(2)] for i in range(2)]


def test_gl11_against_matrix_oracle():
    g = sq.build_glnn(1)
    units = _matrix_units_2x2()
    parities = {"a11": 0, "d11": 0, "b11": 1, "c11": 1}
    n = g.dim
    for x in units:
        for y in units:
            s = sgn(parities[x] * parities[y])
            expected = _msub(_mm(units[x], units[y]),
                             _mm(units[y], units[x]), s)
            got = sq.bracket(g, unit_vec(n, g.basis.index(x)),
                             unit_vec(n, g.basis.index(y)))
            grid = [[F(0)] * 2 for _ in range(2)]
            for k, q in enumerate(got):
                um = units[g.basis.names[k]]
                for i in range(2):
                    for j in range(2):
                        grid[i][j] += q * um[i][j]
            assert grid == expected, (x, y)


def test_gl11_spec_brackets():
    g = sq.build_glnn(1)
    n = g.dim
    e = {name: unit_vec(n, g.basis.index(name)) for name in g.basis.names}
    # [E11, E12] = E12
    assert sq.bracket(g, e["a11"], e["b11"]) == e["b11"]
    # odd-odd anticommutator: [E12, E21] = E11 + E22
    assert sq.bracket(g, e["b11"], e["c11"]) == \
        tuple(a + b for a, b in zip(e["a11"], e["d11"]))


def test_h3_brackets_and_skew():
    h3 = sq.heisenberg3()
    e1, e2, e3 = (unit_vec(3, i) for i in range(3))
    assert sq.bracket(h3, e1, e2) == e3
    assert sq.bracket(h3, e2, e1) == tuple(-q for q in e3)
    assert vec_is_zero(sq.bracket(h3, e1, e3))


def test_abelian_bracket_trivial():
    g = sq.abelian(2, 2)
    for i in range(4):
        for j in range(4):
            assert vec_is_zero(sq.bracket(g, unit_vec(4, i), unit_vec(4, j)))


# --- axiom checking ----------------------------------------------------------

def test_check_axioms_pass_on_gallery(gallery):
    for name, g in gallery.items():
        assert sq.check_axioms(g).passed, name


def test_grading_violation_reported():
    # even pair mapping onto an odd index
    basis = graded_basis(("x", "y", "o"), (EVEN, EVEN, ODD))
    table = [[()] * 3 for _ in range(3)]
    table[0][1] = ((2, 1),)
    table[1][0] = ((2, -1),)
    assert algebra_if_valid(basis, tuple(map(tuple, table))) is None


def test_construction_rejects_bad_grading():
    basis = graded_basis(("x", "y", "o"), (EVEN, EVEN, ODD))
    table = [[()] * 3 for _ in range(3)]
    table[0][1] = ((2, 1),)
    table[1][0] = ((2, -1),)
    with pytest.raises(AxiomError, match="grading") as exc:
        sq.LieSuperalgebra(basis, tuple(map(tuple, table)))
    assert exc.value.report.grading == ((0, 1, 2), (1, 0, 2))
    assert exc.value.report.skew == exc.value.report.jacobi == ()


def test_construction_rejects_skew_only():
    """A graded table that is not super-skew-symmetric: the report is an
    AxiomReport with only skew violations, as ``require_axioms`` gives."""
    basis = graded_basis(("x", "y", "o"), (EVEN, EVEN, ODD))
    table = [[()] * 3 for _ in range(3)]
    table[0][1] = table[1][0] = ((0, 1),)
    with pytest.raises(AxiomError, match="super-skew-symmetry") as exc:
        sq.LieSuperalgebra(basis, tuple(map(tuple, table)))
    assert exc.value.report == sq.AxiomReport((), ((0, 1),), ())


def test_jacobi_violation_reported():
    # [x,y] = z, [y,z] = x, [x,z] = x: the Jacobiator at (x,y,z) is [x,y]
    g = sq.from_brackets(("x", "y", "z"), (0, 0, 0),
                         {("x", "y"): {"z": 1}, ("x", "z"): {"x": 1},
                          ("y", "z"): {"x": 1}})
    report = sq.check_axioms(g)
    assert report.jacobi


def test_from_brackets_contradiction():
    with pytest.raises(PreconditionError):
        sq.from_brackets(("x", "y", "z"), (0, 0, 0),
                         {("x", "y"): {"z": 1}, ("y", "x"): {"z": 1}})


def test_even_self_bracket_rejected():
    with pytest.raises(PreconditionError):
        sq.from_brackets(("x", "y"), (0, 0), {("x", "x"): {"y": 1}})


def test_odd_self_bracket_allowed():
    g = sq.from_brackets(("x", "o"), (0, 1), {("o", "o"): {"x": 1}})
    assert sq.check_axioms(g).passed


# --- center, series, predicates ---------------------------------------------

def test_center_abelian_is_everything():
    g = sq.abelian(2, 1)
    assert sq.center(g).dim == 3


def test_center_h3():
    h3 = sq.heisenberg3()
    z = sq.center(h3)
    assert z.dim == 1
    assert z.vectors == (unit_vec(3, 2),)


def test_center_is_graded_ideal_and_quotient_passes(gallery):
    for name, g in gallery.items():
        z = sq.center(g)
        assert sq.superalgebra.is_ideal(g, z), name
        if z.dim < g.dim:
            q = quotient(g, z)
            assert sq.check_axioms(q.algebra).passed, name


def test_series_and_predicates(gallery):
    assert sq.is_nilpotent(gallery["abelian(3|0)"])
    assert sq.is_solvable(gallery["abelian(3|0)"])
    assert sq.is_nilpotent(gallery["heisenberg3"])
    assert not sq.is_nilpotent(gallery["solvable2d"])
    assert sq.is_solvable(gallery["solvable2d"])
    assert not sq.is_nilpotent(gallery["gl(1,1)"])
    assert sq.is_solvable(gallery["gl(1,1)"])
    assert sq.is_nilpotent(gallery["g(2)"])


def test_lower_central_series_stabilizes_nonzero_for_gl11():
    series = sq.lower_central_series(sq.build_glnn(1))
    assert series[-1].dim > 0


def test_class_condition():
    assert sq.class_condition(sq.abelian(3, 0))      # no odd part
    assert sq.class_condition(sq.abelian(1, 2))      # both sides zero
    assert sq.class_condition(sq.solvable2d())
    # gl(1,1): [odd, odd] spans the identity, but the even part is abelian
    assert not sq.class_condition(sq.build_glnn(1))
    # the triangular family has abelian even part for n = 2 but
    # [odd, odd] = even part, so the literal inclusion fails
    assert not sq.class_condition(sq.build_gn(2))


# --- coadjoint ---------------------------------------------------------------

def test_coadjoint_h3_frozen():
    h3 = sq.heisenberg3()
    e3_star = dual_vector(h3.basis, (0, 0, 1))
    out = coadjoint(h3, unit_vec(3, 0), e3_star)
    assert out.coords == vec([0, -1, 0])  # -e2*


def test_coadjoint_abelian_zero():
    g = sq.abelian(2, 1)
    f = dual_vector(g.basis, (1, 1, 0))
    out = coadjoint(g, unit_vec(3, 0), f)
    assert vec_is_zero(out.coords)


def test_coadjoint_is_representation(gallery):
    """pi([x,y]) = pi(x)pi(y) - (-1)^{|x||y|} pi(y)pi(x) on homogeneous
    basis pairs, applied to every dual basis vector."""
    for name, g in gallery.items():
        n = g.dim
        for i in range(n):
            for j in range(n):
                x, y = unit_vec(n, i), unit_vec(n, j)
                br = sq.bracket(g, x, y)
                s = sgn(g.parity(i) * g.parity(j))
                for k in range(n):
                    fk = dual_vector(g.basis, unit_vec(n, k))
                    lhs = _coadjoint_vec(g, br, (g.parity(i) + g.parity(j)) % 2, fk)
                    a = coadjoint(g, y, fk)
                    b = coadjoint(g, x, a)
                    c = coadjoint(g, x, fk)
                    d = coadjoint(g, y, c)
                    rhs = tuple(bb - s * dd
                                for bb, dd in zip(b.coords, d.coords))
                    assert lhs == rhs, (name, i, j, k)


def test_dual_vector_and_coadjoint_check_shapes():
    h3 = sq.heisenberg3()
    with pytest.raises(DimensionMismatch):
        dual_vector(h3.basis, (0, 1))
    e3_star = dual_vector(h3.basis, (0, 0, 1))
    with pytest.raises(DimensionMismatch):
        coadjoint(h3, (1, 0), e3_star)
    with pytest.raises(DimensionMismatch):
        coadjoint(h3, (1, 0, 0, 0), e3_star)
    with pytest.raises(DimensionMismatch):
        coadjoint(h3, unit_vec(3, 0), DualVector(vec([0, 0, 1, 0]), EVEN))


def _coadjoint_vec(g, x, px, f):
    """coadjoint for a possibly-zero homogeneous vector of known parity."""
    if vec_is_zero(x):
        return tuple(F(0) for _ in range(g.dim))
    return coadjoint(g, x, f).coords


def test_coadjoint_rejects_mixed_parity():
    g = sq.abelian(1, 1)
    f = dual_vector(g.basis, (1, 0))
    with pytest.raises(NotGradedError):
        coadjoint(g, vec([1, 1]), f)


# --- subspaces and quotients -------------------------------------------------

def test_subspace_rejects_nongraded_span():
    g = sq.abelian(1, 1)
    with pytest.raises(NotGradedError):
        subspace(g.basis, [vec([1, 1])])


def test_subspace_splits_graded_span():
    g = sq.abelian(1, 1)
    w = subspace(g.basis, [vec([1, 1]), vec([1, -1])])
    assert w.dim == 2
    assert len(w.even_rows) == 1 and len(w.odd_rows) == 1


def test_subspace_equality_by_double_inclusion():
    g = sq.abelian(3, 0)
    a = subspace(g.basis, [vec([1, 1, 0]), vec([0, 1, 0])])
    b = subspace(g.basis, [vec([1, 0, 0]), vec([1, 2, 0])])
    assert a.equals(b)
    assert not a.equals(subspace(g.basis, [vec([1, 0, 0])]))


def _dense_contains(w, v):
    """Membership by solving one linear system per parity."""
    ev, od = dense.split_vector(w.basis, v)
    return (dense.coords_in(w.even_rows, ev) is not None
            and dense.coords_in(w.odd_rows, od) is not None)


@st.composite
def graded_subspaces_and_vectors(draw):
    """A random graded subspace, a vector inside it, a random vector and
    their sum."""
    parities = draw(st.lists(st.sampled_from((EVEN, ODD)),
                             min_size=1, max_size=6))
    n = len(parities)
    basis = graded_basis([f"b{i}" for i in range(n)], parities)
    vectors = st.lists(sparse_entries, min_size=n, max_size=n).map(vec)
    spanning = [dense.split_vector(basis, v)[p]
                for v, p in draw(st.lists(st.tuples(vectors, st.sampled_from(
                    (EVEN, ODD))), max_size=5))]
    w = subspace(basis, spanning)
    inside = zero_vec(n)
    for v in spanning:
        inside = vec_add(inside, vec_scale(draw(sparse_entries), v))
    noise = draw(vectors)
    return w, (inside, noise, vec_add(inside, noise))


@given(graded_subspaces_and_vectors())
@settings(max_examples=150, deadline=None)
def test_contains_vector_matches_dense_solve(case):
    w, (inside, noise, mixed) = case
    assert w.contains_vector(inside)
    for v in (inside, noise, mixed):
        assert w.contains_vector(v) == _dense_contains(w, v)


@st.composite
def _spanning_sets(draw):
    """A basis and a spanning list mixing homogeneous vectors with zero
    vectors, duplicates, sums of earlier vectors and vectors of mixed
    parity, so that the span is graded in some draws and not in others."""
    parities = draw(st.lists(st.sampled_from((EVEN, ODD)),
                             min_size=1, max_size=6))
    n = len(parities)
    basis = graded_basis([f"b{i}" for i in range(n)], parities)
    vectors = st.lists(sparse_entries, min_size=n, max_size=n).map(vec)
    out = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("even", "odd", "mixed", "zero",
                                     "duplicate", "sum")))
        if kind in ("even", "odd"):
            out.append(dense.split_vector(basis, draw(vectors))[kind == "odd"])
        elif kind == "mixed":  # nonzero everywhere: mixed if both occur
            out.append(vec(draw(st.lists(
                st.fractions(min_value=-4, max_value=4,
                             max_denominator=3).filter(bool),
                min_size=n, max_size=n))))
        elif kind == "zero" or not out:
            out.append(zero_vec(n))
        elif kind == "duplicate":
            out.append(draw(st.sampled_from(out)))
        else:
            a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            out.append(vec_add(a, vec_scale(draw(sparse_entries), b)))
    return basis, out


@given(_spanning_sets())
@settings(max_examples=150, deadline=None)
def test_subspace_matches_dense_elimination(case):
    basis, vectors = case

    def rref_rows(vs):
        R, pivots = dense.rref([v for v in vs if not vec_is_zero(v)])
        return R[:len(pivots)]

    evens = [dense.split_vector(basis, v)[0] for v in vectors]
    odds = [dense.split_vector(basis, v)[1] for v in vectors]
    if len(rref_rows(evens + odds)) != len(rref_rows(vectors)):
        with pytest.raises(NotGradedError):
            subspace(basis, vectors)
    else:
        w = subspace(basis, vectors)
        assert (w.even_rows, w.odd_rows) == (rref_rows(evens),
                                             rref_rows(odds))


def test_full_subspace_is_the_spanned_whole_space(gallery):
    for name, g in gallery.items():
        units = [unit_vec(g.dim, i) for i in reversed(range(g.dim))]
        assert full_subspace(g.basis) == subspace(g.basis, units), name


def test_contains_vector_rejects_wrong_length():
    basis = sq.heisenberg3().basis
    for w in (zero_subspace(basis), subspace(basis, [unit_vec(3, 2)])):
        for v in ((0, 0), (0, 0, 1, 0)):
            with pytest.raises(DimensionMismatch):
                w.contains_vector(vec(v))


def test_subspace_reducer_rows_must_be_homogeneous():
    basis = graded_basis(["e", "o", "f"], [EVEN, ODD, EVEN])
    for rows in ([[1, 1, 0]], [[1, 0, 0], [0, 1, 1]], [[0, 2, 1]]):
        red = RowReducer(3)
        for row in rows:
            red.add(vec(row))
        with pytest.raises(NotGradedError):
            Subspace(basis, red)


def test_subspace_reducer_must_match_the_basis():
    basis = sq.abelian(2, 1).basis
    for width in (2, 4):
        with pytest.raises(DimensionMismatch):
            Subspace(basis, RowReducer(width))


def test_subspace_constructors_match_the_span(gallery):
    """zero_subspace and extend_subspace equal the span of the same
    vectors; full_subspace is checked the same way above."""
    for name, g in gallery.items():
        n = g.dim
        units = [unit_vec(n, i) for i in range(n)]
        assert zero_subspace(g.basis) == subspace(g.basis, []), name
        w = subspace(g.basis, units[::2])
        for v in units[1::2]:
            assert extend_subspace(w, v) == subspace(g.basis, w.vectors
                                                     + (v,)), name


def test_quotient_h3_by_center_is_abelian():
    h3 = sq.heisenberg3()
    q = quotient(h3, sq.center(h3))
    assert q.algebra.dim == 2
    assert q.algebra.table == (((), ()), ((), ()))


def test_quotient_by_zero_is_copy():
    h3 = sq.heisenberg3()
    q = quotient(h3, zero_subspace(h3.basis))
    assert q.algebra.table == h3.table


def test_quotient_by_whole_is_zero():
    h3 = sq.heisenberg3()
    q = quotient(h3, full_subspace(h3.basis))
    assert q.algebra.dim == 0


def test_quotient_rejects_an_overlapping_complement():
    h3 = sq.heisenberg3()
    comp = subspace(h3.basis, [unit_vec(3, 0), unit_vec(3, 2)])
    with pytest.raises(PreconditionError, match="overlaps the ideal"):
        quotient(h3, sq.center(h3), complement=comp)


def test_quotient_requires_ideal():
    h3 = sq.heisenberg3()
    with pytest.raises(NotIdealError):
        quotient(h3, subspace(h3.basis, [unit_vec(3, 0)]))


def test_parity_of_brackets(gallery):
    for name, g in gallery.items():
        n = g.dim
        for i in range(n):
            for j in range(n):
                br = sq.bracket(g, unit_vec(n, i), unit_vec(n, j))
                if vec_is_zero(br):
                    continue
                p = vector_parity(g.basis, br)
                assert p == (g.parity(i) + g.parity(j)) % 2, (name, i, j)


# --- the sparse bracket table against dense tensors --------------------------

@st.composite
def _raw_tables(draw):
    """A basis and an arbitrary table: entries for each ordered pair drawn
    independently, so super-skew-symmetry and the grading may fail."""
    ps = draw(st.lists(st.sampled_from([EVEN, ODD]), min_size=1, max_size=4))
    n = len(ps)
    basis = graded_basis(tuple(f"v{i}" for i in range(n)), tuple(ps))
    table = tuple(tuple(
        tuple((k, q) for k in range(n)
              for q in [draw(sparse_entries)] if q != 0)
        for _ in range(n)) for _ in range(n))
    return basis, table


# graded and super-skew, so that construction accepts them
_lie_tables = bracket_tensors(sparse_entries, max_dim=4).map(
    lambda case: basis_table(*case))


@given(st.one_of(_raw_tables(), _lie_tables), st.data())
@settings(max_examples=80, deadline=None)
def test_skew_violations_and_center_match_dense(raw, data):
    basis, table = raw
    n = basis.dim
    # make part of the table super-skew so that both outcomes occur
    table = [list(row) for row in table]
    for i in range(n):
        for j in range(i + 1, n):
            if data.draw(st.booleans()):
                s = -sgn(basis.parity(i) * basis.parity(j))
                table[j][i] = tuple((k, s * q) for k, q in table[i][j])
    g = algebra_if_valid(basis, tuple(map(tuple, table)))
    if g is None:  # construction raised with the dense violations
        return
    c = dense.bracket_tensor(g)
    assert c == [[[dict(table[i][j]).get(k, F(0)) for k in range(n)]
                  for j in range(n)] for i in range(n)]
    assert sq.superalgebra._skew_violations(g) == dense.skew_violations(
        basis.parities, c)
    rows = [tuple(c[i][j][k] for i in range(n))
            for j in range(n) for k in range(n)]
    assert sq.center(g).equals(subspace(basis, kernel(mat(rows))))


def test_gallery_tables_are_canonical(gallery):
    """Each gallery table lists, in ascending order, exactly the nonzero
    coordinates of the dense bracket vectors."""
    for name, g in gallery.items():
        c = dense.bracket_tensor(g)
        for i in range(g.dim):
            for j in range(g.dim):
                assert g.table[i][j] == tuple(
                    (k, q) for k, q in enumerate(c[i][j]) if q != 0), name
                assert sq.bracket(g, unit_vec(g.dim, i), unit_vec(g.dim, j)) \
                    == tuple(c[i][j]), name
        assert not dense.skew_violations(g.basis.parities, c), name


@st.composite
def _few_entry_tables(draw):
    """A basis and a table with at most three nonzero entries, each an
    arbitrary vector, so that [g, g] is often a proper subspace; an entry
    that mixes parities fails the grading."""
    ps = draw(st.lists(st.sampled_from([EVEN, ODD]), min_size=1, max_size=5))
    n = len(ps)
    table = [[() for _ in range(n)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i][j] = tuple((k, q) for k in range(n)
                            for q in [draw(sparse_entries)] if q != 0)
    return (graded_basis(tuple(f"v{i}" for i in range(n)), tuple(ps)),
            tuple(map(tuple, table)))


@given(st.one_of(_raw_tables(), _few_entry_tables(), _lie_tables))
@settings(max_examples=100, deadline=None)
def test_derived_subspace_matches_brackets_of_the_whole(raw):
    """[g, g] from the table entries against the span of the brackets of
    every pair of basis vectors, on the tables construction accepts."""
    basis, table = raw
    g = algebra_if_valid(basis, table)
    if g is None:  # construction raised with the dense violations
        return
    whole = full_subspace(basis)
    assert derived_subspace(g) == product_subspace(g, whole, whole)


def test_derived_subspace_of_gallery(gallery):
    for name, g in gallery.items():
        whole = full_subspace(g.basis)
        assert derived_subspace(g) == product_subspace(g, whole, whole), name


# --- brackets with basis vectors, read sparse from the table -----------------

def _ad_algebras(gallery):
    """The gallery plus larger tables: two T*-extensions and class-c(2)."""
    return {**gallery,
            "T*(heisenberg3)": sq.build(sq.heisenberg3()).total.algebra,
            "T*(g(2))": sq.tstar_of_gn(2).total.algebra,
            "class-c(2)": sq.build_class_c_example(2).algebra}


def _random_graded_vectors(rng, basis, count):
    """``count`` homogeneous vectors with one to three small nonzeros."""
    out = []
    for _ in range(count):
        p = rng.choice(basis.parities)
        idx = [k for k in range(basis.dim) if basis.parity(k) == p]
        v = [F(0)] * basis.dim
        for k in rng.sample(idx, min(len(idx), rng.randint(1, 3))):
            v[k] = rng.choice([F(1), F(-1), F(2), F(-3), F(1, 2)])
        out.append(tuple(v))
    return out


def test_ad_images_match_bracket_with_unit_vectors(gallery):
    rng = random.Random(17)
    for name, g in _ad_algebras(gallery).items():
        n = g.dim
        vs = [zero_vec(n), unit_vec(n, n - 1),
              *_random_graded_vectors(rng, g.basis, 4),
              vec(rng.randint(-2, 2) for _ in range(n))]
        got = list(sq.superalgebra.ad_images(g, vs))
        assert all(all(d.values()) for d in got), name
        assert [tuple(d.get(k, F(0)) for k in range(n)) for d in got] == [
            sq.bracket(g, unit_vec(n, i), v) for i in range(n) for v in vs
        ], name
    with pytest.raises(DimensionMismatch):
        list(sq.superalgebra.ad_images(g, [zero_vec(n + 1)]))


def _ideal_cases(rng, g):
    """Ideals of g and random graded subspaces, most of them not ideals."""
    whole = full_subspace(g.basis)
    cases = [whole, zero_subspace(g.basis), sq.center(g), derived_subspace(g)]
    for _ in range(12):
        cases.append(subspace(g.basis, _random_graded_vectors(
            rng, g.basis, rng.randint(1, 3))))
    return cases


def test_is_ideal_and_lower_central_series_match_dense_loops(gallery):
    """is_ideal against the first dense failure, looping over i and then
    over v; the witness order is exercised (v-major would differ)."""
    from superquad.cli import _ideal_witness
    rng = random.Random(23)
    orders_differ = False
    for name, g in _ad_algebras(gallery).items():
        c = dense.bracket_tensor(g)
        for w in _ideal_cases(rng, g):
            want = dense.ideal_witness(c, w.vectors)
            assert sq.superalgebra.is_ideal(g, w) == (want is None), name
            names = g.basis.names
            assert _ideal_witness(g, w, names) == (None if want is None else [
                names[want[0]], [str(q) for q in want[1]]]), name
            v_major = next(((i, v) for v in w.vectors for i in range(g.dim)
                            if dense.coords_in(w.vectors, dense.ad_image(
                                c, i, v)) is None), None)
            orders_differ |= v_major != want
        series = sq.lower_central_series(g)
        want = dense.lower_central_series(c)
        assert len(series) == len(want), name
        for member, rows in zip(series, want):
            R, pivots = dense.rref(member.vectors)
            assert R[:len(pivots)] == rows, name
    assert orders_differ
