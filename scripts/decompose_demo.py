#!/usr/bin/env python3
"""Walk through the decomposition pipeline on a few quadratic examples:
build an extension, grow the isotropic flag, and report the verified
presentation, including the rational-field failure case."""

from __future__ import annotations

import sys

import superquad as sq
from superquad.cohomology import unhat, z3_basis
from superquad.decompose import decompose, max_isotropic_ideal
from superquad.errors import RationalPointNotFound
from superquad.forms import QuadraticLieSuperalgebra, even_form
from superquad.gallery import even_line, orthogonal_direct_sum
from superquad.tstar import build


def show(title: str, q) -> None:
    print(f"== {title} (dim {q.dim})")
    try:
        flag = max_isotropic_ideal(q)
    except RationalPointNotFound as exc:
        print(f"   no rational isotropic vector: {exc.quadric_str} "
              f"(obstruction: {exc.obstruction})")
        print()
        return
    dims = [w.dim for w in flag.chain]
    print(f"   flag dimensions: {dims}")
    dec = decompose(q)
    print(f"   case: {dec.parity_case}; quotient dim "
          f"{dec.quotient.dim}; extension dim {dec.extension.total.dim}")
    print("   embedding verified exactly (bracket, form, parity, ideal)")
    print()


def main() -> int:
    h3 = sq.heisenberg3()
    show("zero-cocycle extension of heisenberg3", build(h3).total)
    show("volume-cocycle extension of heisenberg3",
         build(h3, unhat(z3_basis(h3)[0])).total)
    show("zero-cocycle extension of the triangular family g(2)",
         sq.tstar_of_gn(2).total)
    show("zero-cocycle extension of solvable2d (solvable branch)",
         build(sq.solvable2d()).total)
    show("odd dimension: T*heisenberg3 + a unit line",
         orthogonal_direct_sum(build(h3).total, even_line()))
    a2 = sq.abelian(2, 0)
    unit = even_form(a2.basis, [[1, 0], [0, 1]])
    show("anisotropic plane over the rationals",
         QuadraticLieSuperalgebra(a2, unit))
    return 0


if __name__ == "__main__":
    sys.exit(main())
