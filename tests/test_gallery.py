import itertools
from fractions import Fraction

import pytest

import superquad as sq
from superquad.errors import PreconditionError
from superquad.gallery import (build_class_c_example, build_glnn, build_gn,
                               even_line, orthogonal_direct_sum, stock)
from superquad.linalg import unit_vec
from superquad.superalgebra import (EVEN, ODD, bracket, center, sgn,
                                    subspace)

import dense_oracle as dense
from dense_oracle import mat_mul
from support import matrix_of_glnn, vec_is_zero

F = Fraction


def _block_entry_count(n):
    """Independent count of the triangular-family entries per block."""
    strict = n * (n - 1) // 2
    upper = n * (n + 1) // 2
    even = strict + strict          # two strictly upper diagonal blocks
    odd = upper + strict            # upper block keeps its diagonal
    return even, odd


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gn_dimension_formula(n):
    g = build_gn(n)
    even, odd = _block_entry_count(n)
    assert g.basis.even_dim == even == n * (n - 1)
    assert g.basis.odd_dim == odd == n * n
    assert g.dim == n * (2 * n - 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gn_axioms_and_nilpotency(n):
    g = build_gn(n)
    assert sq.check_axioms(g).passed
    assert sq.is_nilpotent(g)


@pytest.mark.parametrize("n", [2, 3])
def test_gn_center_claims(n):
    g = build_gn(n)
    z = center(g)
    assert z.dim == 1
    assert len(z.odd_rows) == 1 and not z.even_rows


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gn_odd_odd_spans_even_part(n):
    g = build_gn(n)
    odd_idx = [i for i in range(g.dim) if g.parity(i) == ODD]
    vectors = [bracket(g, unit_vec(g.dim, i), unit_vec(g.dim, j))
               for i in odd_idx for j in odd_idx]
    vectors = [v for v in vectors if not vec_is_zero(v)]
    span = subspace(g.basis, vectors)
    even_part = subspace(g.basis, [unit_vec(g.dim, i) for i in range(g.dim)
                                   if g.parity(i) == EVEN])
    assert span == even_part


@pytest.mark.parametrize("n", [1, 2])
def test_glnn_axioms(n):
    g = build_glnn(n)
    assert g.dim == 4 * n * n
    assert sq.check_axioms(g).passed


def test_glnn_bracket_against_block_matrices():
    """Structure constants agree with 2n x 2n matrix arithmetic."""
    n = 2
    g = build_glnn(n)
    for x in ("a12", "b21", "c12", "d21"):
        for y in ("a21", "b11", "c22", "d12"):
            i, j = g.basis.index(x), g.basis.index(y)
            s = sgn(g.parity(i) * g.parity(j))
            mx, my = matrix_of_glnn(n, x), matrix_of_glnn(n, y)
            prod1 = mat_mul(mx, my)
            prod2 = mat_mul(my, mx)
            expected = tuple(tuple(a - s * b for a, b in zip(r1, r2))
                             for r1, r2 in zip(prod1, prod2))
            got = bracket(g, unit_vec(g.dim, i), unit_vec(g.dim, j))
            grid = [[F(0)] * (2 * n) for _ in range(2 * n)]
            for k, q in enumerate(got):
                mk = matrix_of_glnn(n, g.basis.names[k])
                for r in range(2 * n):
                    for c in range(2 * n):
                        grid[r][c] += q * mk[r][c]
            assert tuple(tuple(r) for r in grid) == expected, (x, y)


def test_gl11_dims():
    g = build_glnn(1)
    assert g.basis.even_dim == 2 and g.basis.odd_dim == 2


def test_class_c_example():
    E = build_class_c_example(2)
    assert E.dim == 12
    assert sq.is_nilpotent(E.algebra)
    z = center(E.algebra)
    assert not z.is_zero()
    assert not z.even_rows                    # z(E) inside the odd part
    # z(E) inside z(g) + (odd part of the dual)
    g = build_gn(2)
    zg = center(g)
    n = g.dim
    allowed = [v + (F(0),) * n for v in zg.vectors]
    allowed += [unit_vec(2 * n, n + k) for k in range(n)
                if g.parity(k) == ODD]
    hull = subspace(E.basis, allowed)
    assert all(map(hull.contains_vector, z.rows))


def test_class_c_decompose_roundtrip():
    E = build_class_c_example(2)
    from superquad.decompose import decompose
    dec = decompose(E)
    assert dec.parity_case == "even"
    assert dec.extension.total.dim == E.dim


def test_stock_names():
    assert stock("abelian(0|2)").basis.parities == (ODD, ODD)
    assert stock("abelian(2|1)").dim == 3
    h3 = stock("heisenberg3")
    assert sq.is_nilpotent(h3) and center(h3).dim == 1
    s = stock("solvable2d")
    assert sq.is_solvable(s) and not sq.is_nilpotent(s)
    assert stock("hyperbolic-even").dim == 2
    assert stock("hyperbolic-odd").dim == 2
    assert stock("even-line").dim == 1
    with pytest.raises(PreconditionError):
        stock("nope")


def test_stock_abelian_needs_a_basis_vector():
    """abelian(0|0) has no DSL document, so the catalog refuses it."""
    with pytest.raises(PreconditionError, match="p \\+ q >= 1"):
        stock("abelian(0|0)")
    assert stock("abelian(1|0)").dim == stock("abelian(0|1)").dim == 1


def test_purely_odd_quadratic_is_class_c():
    q = stock("hyperbolic-odd")
    z = center(q.algebra)
    assert z.dim == 2 and not z.even_rows


def test_orthogonal_direct_sum():
    q = orthogonal_direct_sum(stock("hyperbolic-even"), even_line())
    assert q.dim == 3
    assert sq.check_axioms(q.algebra).passed


# --- the sparse tables against dense constructions ---------------------------

def _dense_matrix_algebra(n, names, parities):
    """c[i][j][k] of the span of gl(n,n) matrix units named ``names``,
    from [M, N] = MN - (-1)^{|M||N|} NM on 2n x 2n grids."""
    units = [matrix_of_glnn(n, label) for label in names]
    where = [next((r, c) for r in range(2 * n) for c in range(2 * n)
                  if u[r][c] == 1) for u in units]
    d = len(names)
    c = [[[F(0)] * d for _ in range(d)] for _ in range(d)]
    for i, j in itertools.product(range(d), repeat=2):
        s = sgn(parities[i] * parities[j])
        prod1 = mat_mul(units[i], units[j])
        prod2 = mat_mul(units[j], units[i])
        br = [[a - s * b for a, b in zip(r1, r2)]
              for r1, r2 in zip(prod1, prod2)]
        for k, (r, col) in enumerate(where):
            c[i][j][k] = br[r][col]
            br[r][col] = F(0)
        assert all(q == 0 for row in br for q in row)   # closed in the span
    return c


@pytest.mark.parametrize("build,sizes", [(build_glnn, (1, 2)),
                                         (build_gn, (1, 2, 3))])
def test_matrix_family_tables_match_dense_construction(build, sizes):
    for n in sizes:
        g = build(n)
        want = _dense_matrix_algebra(n, g.basis.names, g.basis.parities)
        assert dense.bracket_tensor(g) == want, n


def test_stock_and_direct_sum_tables_match_dense_construction():
    h3 = dense.bracket_tensor(stock("heisenberg3"))
    assert h3 == [[[0, 0, 0], [0, 0, 1], [0, 0, 0]],
                  [[0, 0, -1], [0, 0, 0], [0, 0, 0]],
                  [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]
    s2 = dense.bracket_tensor(stock("solvable2d"))
    assert s2 == [[[0, 0], [0, 1]], [[0, -1], [0, 0]]]
    assert dense.bracket_tensor(stock("abelian(1|2)")) == [
        [[0] * 3 for _ in range(3)] for _ in range(3)]
    a, b = stock("hyperbolic-odd"), build_class_c_example(2)
    q = orthogonal_direct_sum(a, b)
    ca, cb = dense.bracket_tensor(a.algebra), dense.bracket_tensor(b.algebra)
    na, nb = a.dim, b.dim
    want = [[[F(0)] * (na + nb) for _ in range(na + nb)]
            for _ in range(na + nb)]
    for i, j, k in itertools.product(range(na), repeat=3):
        want[i][j][k] = ca[i][j][k]
    for i, j, k in itertools.product(range(nb), repeat=3):
        want[na + i][na + j][na + k] = cb[i][j][k]
    assert dense.bracket_tensor(q.algebra) == want
    G = dense.gram(q.form)
    assert [row[:na] for row in G[:na]] == list(dense.gram(a.form))
    assert [row[na:] for row in G[na:]] == list(dense.gram(b.form))
    assert all(G[i][na + j] == 0 == G[na + j][i]
               for i in range(na) for j in range(nb))
