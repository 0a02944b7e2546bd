import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superquad.decompose import isotropic_vector
from superquad.errors import DimensionMismatch
from superquad.linalg import (Coordinates, RowReducer, charpoly,
                              diagonalize_symmetric, kernel, mat, rank, rational_roots, rref, solve, vec, zeros)

import dense_oracle as dense
from dense_oracle import identity, mat_mul, mat_vec, transpose
from support import sqrt_fraction

F = Fraction

small_fractions = st.fractions(min_value=-5, max_value=5,
                               max_denominator=4)


def _matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(small_fractions, min_size=c, max_size=c),
                min_size=r, max_size=r)))


def test_solve_identity_case():
    s = solve(identity(2), vec([1, 2]))
    assert s.particular == vec([1, 2])
    assert s.kernel_basis == ()


def test_solve_inconsistent_zero_row():
    s = solve(zeros(1, 2), vec([1]))
    assert s.particular is None
    assert len(s.kernel_basis) == 2


def test_solve_underdetermined():
    s = solve(mat([[1, 2]]), vec([0]))
    assert s.particular == vec([0, 0])
    assert s.kernel_basis == (vec([-2, 1]),)


def test_rank_cases():
    assert rank(identity(3)) == 3
    assert rank(zeros(2, 5)) == 0
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_kernel_cases():
    assert kernel(identity(2)) == []
    assert len(kernel(zeros(2, 2))) == 2
    (k,) = kernel(mat([[1, 1]]))
    assert k[0] == -k[1] != 0


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve(identity(2), vec([1, 2, 3]))


@given(_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity_and_kernel_exactness(rows):
    A = mat(rows)
    ker = kernel(A)
    assert rank(A) + len(ker) == len(A[0])
    for k in ker:
        assert all(q == 0 for q in mat_vec(A, k))


@given(_matrices(), st.lists(small_fractions, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_solve_postconditions(rows, b):
    A = mat(rows)
    b = vec((b * len(A))[:len(A)])
    s = solve(A, b)
    aug = mat([list(r) + [x] for r, x in zip(A, b)])
    consistent = rank(aug) == rank(A)  # independent consistency oracle
    assert (s.particular is not None) == consistent
    if s.particular is not None:
        assert mat_vec(A, s.particular) == b
    for k in s.kernel_basis:
        assert all(q == 0 for q in mat_vec(A, k))


@given(small_fractions, small_fractions, small_fractions)
@settings(max_examples=100, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if a != 0:
        assert a * (1 / a) == 1


@given(st.integers(2, 4).flatmap(
    lambda n: st.lists(st.lists(small_fractions, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@settings(max_examples=40, deadline=None)
def test_charpoly_matches_determinant(rows):
    A = mat(rows)
    coeffs = charpoly(A)
    n = len(A)
    for t in (F(0), F(1), F(-2), F(1, 2)):
        shifted = tuple(
            tuple((t if i == j else F(0)) - A[i][j] for j in range(n))
            for i in range(n))
        assert dense.poly_value(coeffs, t) == dense.det(shifted)


def test_rational_roots_roundtrip():
    # (x - 2)(x + 1/3)(x - 0) = x^3 - 5/3 x^2 - 2/3 x
    coeffs = (F(1), F(-5, 3), F(-2, 3), F(0))
    assert rational_roots(coeffs) == [F(-1, 3), F(0), F(2)]


def test_rational_roots_none():
    assert rational_roots((F(1), F(0), F(1))) == []  # x^2 + 1


def test_sqrt_fraction():
    assert sqrt_fraction(F(9, 4)) == F(3, 2)
    assert sqrt_fraction(F(2)) is None
    assert sqrt_fraction(F(-1)) is None
    assert sqrt_fraction(F(0)) == 0


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(small_fractions, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@settings(max_examples=40, deadline=None)
def test_diagonalize_symmetric(rows):
    n = len(rows)
    G = tuple(tuple((rows[i][j] + rows[j][i]) for j in range(n))
              for i in range(n))
    P, d = diagonalize_symmetric(G)
    assert rank(P) == n
    PGPt = mat_mul(mat_mul(P, G), transpose(P))
    for i in range(n):
        for j in range(n):
            assert PGPt[i][j] == (d[i] if i == j else 0)


def test_diagonalize_symmetric_adds_a_row_at_a_zero_pivot():
    """After one step G leaves [[0, 1], [1, 0]]: a zero pivot with no
    nonzero diagonal entry below it, which takes adding row and column 2
    to row and column 1."""
    G = mat([[1, 1, 1], [1, 1, 2], [1, 2, 1]])
    P, d = diagonalize_symmetric(G)
    assert d == (1, 2, F(-1, 2))
    assert mat_mul(mat_mul(P, G), transpose(P)) == tuple(
        tuple(d[i] if i == j else 0 for j in range(3)) for i in range(3))
    x = isotropic_vector(G)
    assert any(x) and dense.dot(x, mat_vec(G, x)) == 0


def test_inverse_and_coords():
    """The dense oracle's inverse and coordinates, and the library's
    factored coordinates on the same spans, dense or dict arguments."""
    A = mat([[1, 2], [3, 5]])
    assert mat_mul(A, dense.inverse(A)) == identity(2)
    assert dense.coords_in([vec([1, 0, 1]), vec([0, 1, 0])],
                           vec([2, 3, 2])) \
        == vec([2, 3])
    assert dense.coords_in([vec([1, 0, 1])], vec([0, 1, 0])) is None
    coords = Coordinates(RowReducer(3), [vec([1, 0, 1]), {1: F(1)}])
    assert coords.of(vec([2, 3, 2])) == coords.of({0: 2, 1: 3, 2: 2}) \
        == {0: 2, 1: 3}
    assert Coordinates(RowReducer(3), [{0: F(1), 2: F(1)}]).of(
        vec([0, 1, 0])) is None
    with pytest.raises(DimensionMismatch, match="dependent"):
        Coordinates(RowReducer(3), [vec([1, 0, 1]), vec([2, 0, 2])])
    # modulo span(e3): e1 + e3 reads as e1, and e3 adds nothing
    mod = RowReducer(3, [{2: F(1)}])
    coords = Coordinates(mod, [vec([1, 0, 1]), {1: F(1)}])
    assert coords.of(vec([2, 3, -5])) == {0: 2, 1: 3}
    assert coords.of({2: F(7)}) == {}
    # a row in the span of mod is the one-entry row [0 | e_t]
    for rows in ([vec([1, 0, 1]), vec([1, 0, 0])], [{0: F(1)}, {2: F(5)}]):
        with pytest.raises(DimensionMismatch, match="dependent"):
            Coordinates(mod, rows)


@st.composite
def _reducer_inputs(draw):
    """Rows of a random matrix with zero, duplicate and redundant rows
    mixed in, each tagged True when it is fed to ``add_sparse``."""
    entries = st.one_of(st.just(F(0)), small_fractions)
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("zero", "duplicate", "combination")))
        if kind == "zero":
            extra = [F(0)] * ncols
        elif kind == "duplicate":
            extra = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(small_fractions), draw(small_fractions)
            extra = [s * x + t * y for x, y in zip(a, b)]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    sparse = draw(st.lists(st.booleans(), min_size=len(rows),
                           max_size=len(rows)))
    return rows, sparse


@given(_reducer_inputs())
@settings(max_examples=80, deadline=None)
def test_row_reducer_matches_batch(data):
    rows, sparse = data
    A = mat(rows)
    ncols = len(A[0])
    red = RowReducer(ncols)
    for r, as_dict in zip(A, sparse):
        before = red.rank
        if as_dict:
            raised = red.add_sparse({c: q for c, q in enumerate(r) if q != 0})
        else:
            raised = red.add(r)
        assert raised == (red.rank == before + 1)
        assert red.rank in (before, before + 1)
    R, pivots = dense.rref(A)
    assert red.rank == len(pivots)
    assert red.pivots == pivots
    assert all(q != 0 for row in red.rows.values() for q in row.values())
    rows = tuple(tuple(red.rows[p].get(c, F(0)) for c in range(ncols))
                 for p in red.pivots)
    assert rows == R[:len(pivots)] == red.basis()
    assert red.kernel() == dense.kernel(A)


def test_row_reducer_rejects_wrong_shapes():
    red = RowReducer(3)
    for row in (vec([1]), vec([1, 0, 0, 0])):
        with pytest.raises(DimensionMismatch):
            red.add(row)
    for entries in ({3: F(1)}, {-1: F(1)}, {0: F(1), 5: F(0)}):
        with pytest.raises(DimensionMismatch):
            red.add_sparse(entries)
    assert red.rank == 0
    # the constructor too, whatever the number of entries
    for row in (vec([1]), vec([1, 0, 0, 0]), {3: F(1)}, {-1: F(1)},
                {0: F(1), 5: F(0)}, {0: F(1), 4: F(2)}):
        with pytest.raises(DimensionMismatch):
            RowReducer(3, [{0: F(1)}, row])
    assert red.add(vec([0, 2, 1])) and red.add_sparse({0: F(1)})
    assert red.kernel() == [vec([0, F(-1, 2), 1])]


@st.composite
def _mostly_unit_rows(draw, ncols):
    """(rows, given): sparse rows of width ncols, most of them with one entry, with
    repeated one-entry rows on one column (other values), zero rows, rows
    that shrink to one entry once a unit row's column is eliminated and
    rows one entry off an earlier row, each given dense, as a Fraction dict
    or, when its entries are ints, as an int dict."""
    column = st.integers(0, ncols - 1)
    nonzero = small_fractions.filter(bool)
    dense_rows, units = [], []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("unit", "unit", "unit", "repeat", "zero",
                                     "shrinks", "sparse", "near")))
        row = [F(0)] * ncols
        if kind in ("unit", "repeat"):
            c = (draw(st.sampled_from(units)) if kind == "repeat" and units
                 else draw(column))
            row[c] = draw(nonzero)
            units.append(c)
        elif kind == "shrinks" and units:
            row[draw(st.sampled_from(units))] = draw(nonzero)
            row[draw(column)] += draw(nonzero)
        elif kind == "near" and dense_rows:
            t = draw(nonzero)
            row = [t * q for q in draw(st.sampled_from(dense_rows))]
            row[draw(column)] += draw(nonzero)
        elif kind != "zero":
            for c in draw(st.sets(column, min_size=min(ncols, 2),
                                  max_size=4)):
                row[c] = draw(nonzero)
        dense_rows.append(row)
    given = []
    for row in dense_rows:
        form = draw(st.sampled_from(("dense", "fraction", "int")))
        if form == "dense":
            given.append(vec(row))
        elif form == "int" and all(q.denominator == 1 for q in row):
            given.append({c: int(q) for c, q in enumerate(row) if q})
        else:
            given.append(_sparse(row))
    return dense_rows, given


def _assert_same_reduction(red, other):
    assert red.int_rows == other.int_rows
    assert (red.rank, red.pivots) == (other.rank, other.pivots)
    assert red.basis() == other.basis()
    assert red.kernel() == other.kernel()
    assert red.sparse_kernel() == other.sparse_kernel()


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_pinned_constructor_matches_adds_and_dense_oracle(data):
    """The constructor, which stores one-entry rows as unit pivot rows
    before it adds the others, reduces to what one ``add`` per row and the
    dense elimination give, and adds on top of it the same way."""
    ncols = data.draw(st.integers(1, 8))
    dense_rows, given = data.draw(_mostly_unit_rows(ncols))
    batch, one_by_one = RowReducer(ncols, given), RowReducer(ncols)
    for row in given:
        one_by_one.add(row)
    _assert_same_reduction(batch, one_by_one)
    R, pivots = dense.rref(mat(dense_rows))
    assert batch.pivots == pivots
    assert batch.basis() == R[:len(pivots)]
    assert batch.kernel() == dense.kernel(mat(dense_rows))
    assert batch.sparse_kernel() == [_sparse(x) for x in batch.kernel()]
    _assert_primitive_rows(batch)
    more = data.draw(_mostly_unit_rows(ncols))[1]
    for row in more:
        assert batch.add(row) == one_by_one.add(row)
    _assert_same_reduction(batch, one_by_one)
    _assert_same_reduction(batch, RowReducer(ncols, dense_rows + more))
    _assert_primitive_rows(batch)


def test_pinning_leaves_multi_entry_rows_to_add():
    """Only one-entry rows become unit pivots: e0 + e1 and e0 + e2 are
    both reduced at column 0, e0 + e1's pivot, and 5 e3 pins column 3,
    which e1 - e2 + 7 e3 then loses, to lie in the span."""
    rows = [{0: F(1), 1: F(1)}, {0: F(1), 2: F(1)}, {3: F(5)},
            {1: F(1), 2: F(-1), 3: F(7)}]
    red, want = RowReducer(4, rows), RowReducer(4)
    for row in rows:
        want.add(row)
    _assert_same_reduction(red, want)
    assert red.int_rows == {0: {0: 1, 2: 1}, 1: {1: 1, 2: -1}, 3: {3: 1}}


# Entries whose denominators reach 10^12, on rows up to 30 wide: the
# fraction-free reducer scales each row by the least common denominator of
# its entries, so these exercise that scale and the cross-multiplication.
tall_fractions = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                              max_denominator=10 ** 12)


@st.composite
def _tall_row(draw, ncols, rows=()):
    """A sparse row of tall fractions, or a combination of ``rows`` with
    tall coefficients (a row in their span, or one more entry off it)."""
    if rows and draw(st.booleans()):
        picked = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
        row = [F(0)] * ncols
        for r in picked:
            t = draw(tall_fractions)
            row = [a + t * b for a, b in zip(row, r)]
        if draw(st.booleans()):
            row[draw(st.integers(0, ncols - 1))] += draw(tall_fractions)
        return row
    row = [F(0)] * ncols
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)):
        row[c] = draw(tall_fractions)
    return row


def _sparse(v):
    return {c: q for c, q in enumerate(v) if q}


def _assert_primitive_rows(red):
    """Each stored row is a primitive int row, positive at its pivot (its
    first nonzero column) and zero at every other pivot."""
    for p, row in red.int_rows.items():
        assert all(type(q) is int and q for q in row.values())
        assert min(row) == p and row[p] > 0
        assert math.gcd(*row.values()) == 1
        assert not any(c in row for c in red.int_rows if c != p)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_reduce_residual_matches_dense_oracle(data):
    """reduce() returns the exact residual of the dense RREF, for dense
    and for dict input."""
    ncols = data.draw(st.integers(1, 30))
    rows = []
    for _ in range(data.draw(st.integers(0, 12))):
        rows.append(data.draw(_tall_row(ncols, rows)))
    red = RowReducer(ncols)
    for r in rows:
        red.add(r)
    for _ in range(3):
        v = data.draw(_tall_row(ncols, rows))
        want = _sparse(dense.residual(rows, v))
        assert red.reduce(v) == want
        assert red.reduce(_sparse(v)) == want


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_reducer_interleaved_calls_match_dense_oracle(data):
    """add, add_sparse, reduce, basis, rows and kernel in a drawn order,
    each checked against the dense elimination of the rows added so far."""
    ncols = data.draw(st.integers(1, 30))
    red, added = RowReducer(ncols), []
    for _ in range(data.draw(st.integers(1, 16))):
        op = data.draw(st.sampled_from(
            ("add", "add_sparse", "reduce", "basis", "kernel")))
        if op.startswith("add"):
            row = data.draw(_tall_row(ncols, added))
            before = red.rank
            added.append(row)
            raised = (red.add(row) if op == "add"
                      else red.add_sparse(_sparse(row)))
            assert raised == (len(dense.rref(added)[1]) > before)
        elif op == "reduce":
            v = data.draw(_tall_row(ncols, added))
            assert red.reduce(v) == _sparse(dense.residual(added, v))
        elif op == "basis":
            R, pivots = dense.rref(added) if added else ((), ())
            assert red.pivots == pivots
            assert red.basis() == R[:len(pivots)]
            assert red.rows == {p: _sparse(r) for p, r in zip(pivots, R)}
        else:
            assert red.kernel() == (dense.kernel(added) if added
                                    else list(identity(ncols)))
        _assert_primitive_rows(red)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_reducer_rows_stay_primitive_and_signed(data):
    """The row invariant after every add, on rows drawn with either sign
    at their first entry; a reducer built by the constructor from the
    drawn rows (zero, dependent and not echelon among them), from the RREF
    or from the int rows themselves stores the same rows."""
    ncols = data.draw(st.integers(1, 30))
    red, rows = RowReducer(ncols), []
    for _ in range(data.draw(st.integers(1, 12))):
        row = data.draw(_tall_row(ncols, rows))
        rows.append(row)
        red.add(row if data.draw(st.booleans()) else [-q for q in row])
        _assert_primitive_rows(red)
    for given in (rows, red.basis(), list(red.int_rows.values())):
        assert RowReducer(ncols, given).int_rows == red.int_rows


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_meet_matches_dense_kernel_of_stacked_covectors(data):
    """RowReducer.identity met with drawn covectors one at a time (zero,
    dependent and tall ones among them) holds the canonical RREF of the
    dense kernel of the covectors so far, in primitive rows.  Afterwards
    add and reduce agree with the dense oracle, so the column index
    followed the meets."""
    ncols = data.draw(st.integers(1, 12))
    red, phis = RowReducer.identity(ncols), []
    assert red.int_rows == RowReducer(ncols, identity(ncols)).int_rows
    for _ in range(data.draw(st.integers(1, 8))):
        phi = data.draw(_tall_row(ncols, phis))
        before = red.rank
        phis.append(phi)
        fell = red.meet(_sparse(phi))
        ker = dense.kernel(phis)
        R, pivots = dense.rref(ker) if ker else ((), ())
        assert fell == (len(ker) < before)
        assert red.pivots == pivots and red.basis() == R[:len(pivots)]
        _assert_primitive_rows(red)
    rows = list(red.basis())
    u = data.draw(_tall_row(ncols, rows))
    assert red.reduce(u) == _sparse(dense.residual(rows, u))
    for v in [u, *identity(ncols)]:  # each unit raises a free column
        rows.append(v)
        red.add(v)
        R, pivots = dense.rref(rows)
        assert red.basis() == R[:len(pivots)]
        _assert_primitive_rows(red)


@st.composite
def _awkward_matrices(draw):
    """A random matrix with zero, duplicate and combination rows and
    zero columns mixed in."""
    entries = st.one_of(st.just(F(0)), small_fractions)
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(1, 7))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols))]
    while len(rows) < nrows:
        kind = draw(st.sampled_from(("random", "zero", "duplicate",
                                     "combination")))
        if kind == "random":
            rows.append(draw(st.lists(entries, min_size=ncols,
                                      max_size=ncols)))
        elif kind == "zero":
            rows.append([F(0)] * ncols)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(small_fractions), draw(small_fractions)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[c] = F(0)
    return mat(draw(st.permutations(rows)))


@given(_awkward_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_batch_solvers_match_dense_elimination(A, data):
    R, pivots = dense.rref(A)
    assert rref(A) == (R, pivots)
    assert rank(A) == len(pivots)
    assert kernel(A) == dense.kernel(A)
    # a right-hand side in the column space, and an arbitrary one, which
    # is inconsistent whenever A is not onto
    x = data.draw(st.lists(small_fractions, min_size=len(A[0]),
                           max_size=len(A[0])))
    for b in (mat_vec(A, vec(x)),
              vec(data.draw(st.lists(small_fractions, min_size=len(A),
                                     max_size=len(A))))):
        s = solve(A, b)
        assert (s.particular, s.kernel_basis) == dense.solve(A, b)


def test_batch_solvers_reject_ragged_matrices():
    long_row = ((F(1), F(0)), (F(0), F(1), F(5)))
    short_row = ((F(1), F(2)), (F(3),))
    for A in (long_row, short_row):
        for call in (rref, rank, kernel, lambda A: solve(A, vec([1, 2]))):
            with pytest.raises(DimensionMismatch, match="expected 2"):
                call(A)
