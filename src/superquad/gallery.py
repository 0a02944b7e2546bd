"""Generators for the concrete algebras used across the test suite and
the CLI: the full matrix superalgebra gl(n,n), the nilpotent triangular
family inside it, its zero-cocycle T*-extension, and small stock
algebras (abelian, Heisenberg, a solvable plane, hyperbolic quadratic
planes).

The catalog names accepted by :func:`stock` are documented in
docs/catalog.md together with their structure constants.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .cohomology import (Cochain2Dual, ScalarCochain2,
                         free_coords_cochain2dual, free_coords_scalar2,
                         z2_basis, z2_supercyclic_basis)
from .errors import InternalCheckError, PreconditionError
from .forms import EvenForm, QuadraticLieSuperalgebra
from .linalg import ONE, ZERO, lincomb
from .superalgebra import (EVEN, ODD, LieSuperalgebra, abelian, center,
                           from_brackets, graded_basis, is_nilpotent,
                           require_axioms, sgn)
from .tstar import TStarExtension, build


# ---------------------------------------------------------------------------
# gl(n, n) and the triangular family
# ---------------------------------------------------------------------------

def _layout(n: int, triangular: bool):
    """Basis labels, their (row, col) positions in the 2n x 2n matrix and
    their parities: the A and D blocks (even) first, then B and C (odd),
    row-major inside.  ``triangular`` keeps the nilpotent triangular
    subalgebra: strictly upper-triangular A, D and C blocks and an
    upper-triangular B block."""
    labels, positions, parities = [], [], []
    for letter, (dr, dc), parity in (("a", (0, 0), EVEN), ("d", (n, n), EVEN),
                                     ("b", (0, n), ODD), ("c", (n, 0), ODD)):
        for p in range(n):
            start = (p if letter == "b" else p + 1) if triangular else 0
            for q in range(start, n):
                labels.append(f"{letter}{p+1}{q+1}")
                positions.append((dr + p, dc + q))
                parities.append(parity)
    return labels, positions, parities


def _matrix_algebra(n: int, triangular: bool, what: str) -> LieSuperalgebra:
    """The span of the layout's matrix units under
    [M, N] = MN - (-1)^{ab} NM; closure is verified on every basis pair."""
    if n < 1:
        raise PreconditionError("n must be at least 1")
    labels, positions, parities = _layout(n, triangular)
    index = {pos: t for t, pos in enumerate(positions)}
    table = []
    for i, (p, q) in enumerate(positions):
        row = []
        for j, (r, s) in enumerate(positions):
            # E_pq E_rs = delta_qr E_ps ; E_rs E_pq = delta_sp E_rq
            entries: dict[tuple[int, int], Fraction] = {}
            if q == r:
                entries[(p, s)] = ONE
            if s == p:
                entries[(r, q)] = (entries.get((r, q), ZERO)
                                   - sgn(parities[i] * parities[j]))
            entry = {}
            for pos, coeff in entries.items():
                if coeff == 0:
                    continue
                if pos not in index:
                    raise InternalCheckError(
                        f"bracket left the triangular family at {pos}")
                entry[index[pos]] = coeff
            row.append(entry)
        table.append(tuple(row))
    alg = LieSuperalgebra(graded_basis(labels, parities), tuple(table))
    require_axioms(alg, what)
    return alg


def build_glnn(n: int) -> LieSuperalgebra:
    """gl(n, n) on the matrix-unit basis with [M, N] = MN - (-1)^{ab} NM."""
    return _matrix_algebra(n, False, "gl(n,n)")


def build_gn(n: int) -> LieSuperalgebra:
    """The nilpotent triangular sub-superalgebra of gl(n,n); closure under
    the bracket is verified on every basis pair."""
    return _matrix_algebra(n, True, "triangular family")


def build_class_c_example(n: int) -> QuadraticLieSuperalgebra:
    """The zero-cocycle T*-extension of the triangular family: a
    nilpotent quadratic superalgebra whose center is nonzero and lies
    entirely in the odd part."""
    ext = tstar_of_gn(n)
    total = ext.total
    if not is_nilpotent(total.algebra):
        raise InternalCheckError("extension of a nilpotent base must be "
                                 "nilpotent")
    z = center(total.algebra)
    if z.is_zero() or EVEN in z.parities:
        raise InternalCheckError("center must be nonzero and purely odd")
    return total


def tstar_of_gn(n: int) -> TStarExtension:
    return build(build_gn(n), None)


# ---------------------------------------------------------------------------
# stock catalog
# ---------------------------------------------------------------------------

def heisenberg3() -> LieSuperalgebra:
    return from_brackets(("e1", "e2", "e3"), (EVEN, EVEN, EVEN),
                         {("e1", "e2"): {"e3": 1}})


def solvable2d() -> LieSuperalgebra:
    return from_brackets(("e1", "e2"), (EVEN, EVEN), {("e1", "e2"): {"e2": 1}})


def hyperbolic_even() -> QuadraticLieSuperalgebra:
    alg = abelian(2, 0)
    return QuadraticLieSuperalgebra(alg, EvenForm(alg.basis, {(0, 1): 1}))


def hyperbolic_odd() -> QuadraticLieSuperalgebra:
    alg = abelian(0, 2)
    return QuadraticLieSuperalgebra(alg, EvenForm(alg.basis, {(0, 1): 1}))


def even_line() -> QuadraticLieSuperalgebra:
    alg = abelian(1, 0)
    return QuadraticLieSuperalgebra(alg, EvenForm(alg.basis, {(0, 0): 1}))


ABELIAN_RE = re.compile(r"^abelian\((\d+)\|(\d+)\)$")

STOCK_NAMES = ("abelian(p|q)", "heisenberg3", "solvable2d",
               "hyperbolic-even", "hyperbolic-odd", "even-line")


def stock(name: str) -> LieSuperalgebra | QuadraticLieSuperalgebra:
    """Named catalog algebra; see docs/catalog.md for the full list."""
    m = ABELIAN_RE.match(name)
    if m:
        p, q = int(m.group(1)), int(m.group(2))
        if p + q == 0:
            raise PreconditionError("abelian(p|q) needs p + q >= 1")
        return abelian(p, q)
    table = {
        "heisenberg3": heisenberg3,
        "solvable2d": solvable2d,
        "hyperbolic-even": hyperbolic_even,
        "hyperbolic-odd": hyperbolic_odd,
        "even-line": even_line,
    }
    if name not in table:
        raise PreconditionError(
            f"unknown stock algebra {name!r}; known: "
            + ", ".join(STOCK_NAMES))
    return table[name]()


# ---------------------------------------------------------------------------
# direct sums (used to assemble odd-dimensional test instances)
# ---------------------------------------------------------------------------

def orthogonal_direct_sum(a: QuadraticLieSuperalgebra,
                          b: QuadraticLieSuperalgebra
                          ) -> QuadraticLieSuperalgebra:
    names = tuple("l_" + s for s in a.basis.names) + tuple(
        "r_" + s for s in b.basis.names)
    parities = a.basis.parities + b.basis.parities
    na, nb = a.dim, b.dim
    table = tuple(row + ((),) * nb for row in a.algebra.table) + tuple(
        ((),) * na + tuple(tuple((na + k, q) for k, q in e) for e in row)
        for row in b.algebra.table)
    alg = LieSuperalgebra(graded_basis(names, parities), table)
    form = EvenForm(alg.basis, {**a.form.coords, **{
        (na + i, na + j): q for (i, j), q in b.form.coords.items()}})
    return QuadraticLieSuperalgebra(alg, form)


# ---------------------------------------------------------------------------
# random cochains over gallery algebras (seeded, for property suites)
# ---------------------------------------------------------------------------

def _random_fraction(rng) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def random_cochain2(g: LieSuperalgebra, rng) -> Cochain2Dual:
    """Container-valid (even, super-antisymmetric) but otherwise random."""
    coords = {}
    for key in free_coords_cochain2dual(g.basis):
        if rng.random() < 0.6:
            coords[key] = _random_fraction(rng)
    return Cochain2Dual(g.basis, coords)


def random_scalar2(g: LieSuperalgebra, rng) -> ScalarCochain2:
    coords = {}
    for key in free_coords_scalar2(g.basis):
        if rng.random() < 0.7:
            coords[key] = _random_fraction(rng)
    return ScalarCochain2(g.basis, coords)


def _random_combination(basis: list[Cochain2Dual], rng,
                        g: LieSuperalgebra) -> Cochain2Dual:
    return Cochain2Dual(g.basis, lincomb(
        (_random_fraction(rng), w.coords.items()) for w in basis))


def random_supercyclic_cocycle(g: LieSuperalgebra, rng,
                               basis=None) -> Cochain2Dual:
    """Random rational combination of a basis of the supercyclic cocycles."""
    if basis is None:
        basis = z2_supercyclic_basis(g)
    return _random_combination(basis, rng, g)


def random_cocycle2(g: LieSuperalgebra, rng, basis=None) -> Cochain2Dual:
    """Random element of the full 2-cocycle space (maybe not supercyclic)."""
    if basis is None:
        basis = z2_basis(g)
    return _random_combination(basis, rng, g)
