"""The structure pipeline on sparse vectors against the dense oracle.

Inside the library a vector is the {k: c} dict of its nonzeros; the
public functions also take dense tuples.  Each test draws vectors, hands
them over in both forms, and compares the result with the definition
evaluated on dense tensors (``dense_oracle``): the bracket and the ad
images from the structure constants, the form's covectors and Gram
matrix from the dense Gram matrix, the quotient from the inverse of
[complement | ideal], the induced space's lift from dense coordinates, and the isotropic complement from the dense correction
(M^T)^-1 it solves.  The inputs are gallery algebras and, after a seeded
basis change with denominators, dense ones.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import superquad as sq
from superquad.decompose import _InducedSpace, max_isotropic_ideal
from superquad.forms import gram, isotropic_complement, orthogonal
from superquad.gallery import even_line, orthogonal_direct_sum
from superquad.linalg import dense_vec
from superquad.superalgebra import (ad_images, bracket, center,
                                    graded_complement, quotient,
                                    sparse_bracket, subspace)
from superquad.tstar import build

import dense_oracle as dense
from dense_oracle import mat_mul, mat_vec, transpose
from support import (dense_integer_table, derived_by_dense,
                     disguised_quadratic)

F = Fraction
coeffs = st.one_of(st.just(F(0)),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _sparse(v):
    return {k: c for k, c in enumerate(v) if c}


def _dense_bracket(c, x, y):
    """[x, y] as the sum of x_i [e_i, y], each summed over every
    coordinate of y."""
    out = (F(0),) * len(c)
    for i, xi in enumerate(x):
        if xi:
            out = tuple(a + xi * b
                        for a, b in zip(out, dense.ad_image(c, i, y)))
    return out


def _pair(G, u, v):
    n = len(G)
    return sum((u[a] * G[a][b] * v[b] for a in range(n) for b in range(n)),
               F(0))


@pytest.fixture(scope="module")
def cases():
    """name -> (quadratic algebra, dense bracket tensor, dense Gram)."""
    plain = {
        "T*(heisenberg3)": build(sq.heisenberg3()).total,
        "T*(abelian(1|2))": build(sq.abelian(1, 2)).total,
        "T*(gn(2))": sq.tstar_of_gn(2).total,
        "class-c(2)": sq.build_class_c_example(2),
        "T*(heisenberg3) + line": orthogonal_direct_sum(
            build(sq.heisenberg3()).total, even_line()),
    }
    qs = dict(plain)
    for name in ("T*(heisenberg3)", "T*(gn(2))", "class-c(2)"):
        qs[name + " disguised"] = disguised_quadratic(plain[name])
    return {name: (q, dense.bracket_tensor(q.algebra), dense.gram(q.form))
            for name, q in qs.items()}


@pytest.fixture(scope="module")
def flags(cases):
    """name -> the flag of graded isotropic ideals of each case."""
    return {name: max_isotropic_ideal(q).chain
            for name, (q, _, _) in cases.items()}


def _vector(data, n):
    return tuple(data.draw(st.lists(coeffs, min_size=n, max_size=n)))


@given(st.data())
@settings(max_examples=10, deadline=None)
def test_bracket_and_ad_images_match_dense_tensor(cases, data):
    for name, (q, c, _) in cases.items():
        g, n = q.algebra, q.dim
        x, y = _vector(data, n), _vector(data, n)
        want = _dense_bracket(c, x, y)
        for u, v in ((x, y), (_sparse(x), _sparse(y)), (x, _sparse(y))):
            assert bracket(g, u, v) == want, name
            assert sparse_bracket(g, u, v) == _sparse(want), name
        # each image is d_g d_v [e_i, v], over the denominators of the
        # structure constants and of v
        d_g = math.lcm(*(q.denominator for q in g.coords.values()))
        scale = [d_g * math.lcm(*(q.denominator for q in v)) for v in (x, y)]
        assert list(ad_images(g, [x, _sparse(y)])) == [
            _sparse([f * q for q in dense.ad_image(c, i, v)])
            for i in range(n) for f, v in zip(scale, (x, y))], name


def _forms_of(v):
    """v dense and as a dict, each with Fraction entries and, where v is
    integral, with int entries."""
    out = [v, _sparse(v)]
    if all(q.denominator == 1 for q in v):
        ints = tuple(int(q) for q in v)
        out += [ints, _sparse(ints)]
    return out


@given(st.data())
@settings(max_examples=10, deadline=None)
def test_integer_bracket_pass_matches_dense_on_disguised_gn2(cases, data):
    """sparse_bracket and bracket on disguised T*(gn(2)), whose table has
    denominators, for vectors with and without denominators, dense and as
    dicts, ints and Fractions: each scale, d_g, d_x and d_y, is divided
    out exactly once."""
    q, c, _ = cases["T*(gn(2)) disguised"]
    g, n = q.algebra, q.dim
    assert g.integer_table[0] > 1
    fixed = (tuple(F(1, k + 2) for k in range(n)),
             tuple(F(k % 3 - 1, 3) for k in range(n)))
    drawn = (_vector(data, n), tuple(F(data.draw(st.integers(-3, 3)))
                                     for _ in range(n)))
    for x, y in (fixed, drawn, drawn[::-1]):
        want = _dense_bracket(c, x, y)
        for u in _forms_of(x):
            for v in _forms_of(y):
                assert bracket(g, u, v) == want
                assert sparse_bracket(g, u, v) == _sparse(want)


def test_every_value_is_a_fraction(cases):
    """bracket, sparse_bracket, EvenForm.image, apply and gram return
    Fractions only, for int and Fraction inputs, also where a value is
    an integer: an int division would give a float."""
    for name, (q, _, _) in cases.items():
        g, B, n = q.algebra, q.form, q.dim
        vectors = [{0: 1}, tuple(range(n)), (F(1, 3),) * n,
                   {k: F(k + 1, 2) for k in range(n)}]
        for x in vectors:
            for y in vectors:
                values = [*bracket(g, x, y), B.apply(x, y),
                          *sparse_bracket(g, x, y).values(),
                          *B.image(y).values(), *gram(B, [x, y], [y, x])[1]]
                assert values and all(type(v) is F for v in values), name


@given(st.data())
@settings(max_examples=10, deadline=None)
def test_image_and_gram_match_dense_gram(cases, data):
    for name, (q, _, G) in cases.items():
        B, n = q.form, q.dim
        x, y = _vector(data, n), _vector(data, n)
        for v in (y, _sparse(y)):
            assert B.image(v) == _sparse(mat_vec(G, y)), name
        want = tuple(tuple(_pair(G, u, v) for v in (y, x)) for u in (x, y))
        assert gram(B, [x, _sparse(y)], [_sparse(y), x]) == want, name
        assert B.apply(_sparse(x), y) == want[0][0], name


def _dense_quotient(c, comp, ideal):
    """(projection, bracket tensor) from the inverse of [comp | ideal] as
    columns."""
    proj = dense.inverse(transpose(comp.vectors + ideal.vectors))[:comp.dim]
    tensor = [[mat_vec(proj, _dense_bracket(c, u, v)) for v in comp.vectors]
              for u in comp.vectors]
    return proj, tensor


def test_quotient_matches_dense_inverse(cases, flags):
    """The quotient by the center, the derived algebra and every flag
    member, on the greedy complement, and on the isotropic complement
    for the Lagrangian ones, as recognition takes it."""
    seen = 0
    for name, (q, c, _) in cases.items():
        g = q.algebra
        lagrangian = flags[name][-1]
        for ideal in (center(g), derived_by_dense(g), *flags[name][1:]):
            comps = [graded_complement(g.basis, ideal)]
            if ideal is lagrangian and 2 * ideal.dim == q.dim:
                comps.append(isotropic_complement(q.form, ideal))
            for comp in comps:
                got = quotient(g, ideal, complement=comp)
                proj, tensor = _dense_quotient(c, comp, ideal)
                assert got.projection == proj, name
                assert got.algebra.integer_table == dense_integer_table(
                    tensor), name
                seen += 1
    assert seen == 59


@given(st.data())
@settings(max_examples=10, deadline=None)
def test_lift_matches_dense_coordinates(cases, flags, data):
    """lift(u) is sum_t u_t reps[t], for dense and dict arguments; the
    dense solve on [reps | W basis] reads u back off lift(u) plus a vector
    of W, and that vector and lift(u) have one residual modulo W, the
    reading of V' that ``action`` makes."""
    for name, (q, _, _) in cases.items():
        n = q.dim
        w = data.draw(st.sampled_from(flags[name]))
        ind = _InducedSpace(q, w, orthogonal(q.form, w))
        reps = [dense_vec(r, n) for r in ind.reps]
        u = _vector(data, ind.dim)
        lifted = mat_vec(transpose(reps), u) if reps else (F(0),) * n
        assert ind.lift(u) == ind.lift(_sparse(u)) == _sparse(lifted), name
        shift = mat_vec(transpose(w.vectors), _vector(data, w.dim)) \
            if w.dim else (F(0),) * n
        v = tuple(a + b for a, b in zip(lifted, shift))
        want = dense.coords_in(reps + list(w.vectors), v)[:ind.dim]
        assert want == u, name
        reduce = w.reducer.reduce
        assert reduce(v) == reduce(_sparse(v)) == reduce(ind.lift(u)), name


def _dense_isotropic_complement(G, comp, iso):
    """w_a - h(w_a) per parity, h = (iso rows)^T (M^T)^-1 (1/2 B(w_a, -))
    with M[u][b] = B(iso_u, w_b), all dense."""
    out = []
    for p in (0, 1):
        w_rows = [v for v, pv in zip(comp.vectors, comp.parities) if pv == p]
        i_rows = [v for v, pv in zip(iso.vectors, iso.parities) if pv == p]
        if not w_rows:
            continue
        M = [[_pair(G, u, w) for w in w_rows] for u in i_rows]
        h = mat_mul(transpose(i_rows), dense.inverse(transpose(M)))
        for w_a in w_rows:
            half = [F(1, 2) * _pair(G, w_a, w_b) for w_b in w_rows]
            out.append(tuple(a - b for a, b in zip(w_a, mat_vec(h, half))))
    return out


def test_isotropic_complement_matches_dense_correction(cases, flags):
    seen = 0
    for name, (q, _, G) in cases.items():
        iso = flags[name][-1]
        if 2 * iso.dim != q.dim:
            continue
        want = _dense_isotropic_complement(
            G, graded_complement(q.basis, iso), iso)
        for lagrangian in (iso, subspace(q.basis, iso.rows)):
            got = isotropic_complement(q.form, lagrangian)
            assert got == subspace(q.basis, want), name
            assert got.vectors == subspace(q.basis, want).vectors, name
        seen += 1
    assert seen == 7
