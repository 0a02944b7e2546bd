#!/usr/bin/env python3
"""Print the even scalar cohomology dimensions across the small-algebra
catalog, together with the supercyclic 2-cocycle count.  The library
reads the supercyclic 2-cocycles off Z^3 through unhat, so the sc-Z2 and
Z3 columns agree by construction; the independent check of that
agreement is ``test_dimension_agreement`` in tests/test_cohomology.py,
against a direct solve of the supercyclic 2-cocycles."""

from __future__ import annotations

import sys

import superquad as sq
from superquad.cohomology import b3_basis, z2_supercyclic_basis, z3_basis


def main() -> int:
    algebras = {
        "abelian(2|0)": sq.abelian(2, 0),
        "abelian(3|0)": sq.abelian(3, 0),
        "abelian(1|2)": sq.abelian(1, 2),
        "abelian(0|2)": sq.abelian(0, 2),
        "heisenberg3": sq.heisenberg3(),
        "solvable2d": sq.solvable2d(),
        "gl(1,1)": sq.build_glnn(1),
        "g(2)": sq.build_gn(2),
    }
    header = f"{'algebra':<14} {'dim':>5} {'sc-Z2':>6} {'Z3':>4} {'B3':>4} {'H3':>4}"
    print(header)
    print("-" * len(header))
    for name, g in algebras.items():
        z2sc = len(z2_supercyclic_basis(g))
        z3 = len(z3_basis(g))
        b3 = len(b3_basis(g))
        print(f"{name:<14} {g.dim:>5} {z2sc:>6} {z3:>4} {b3:>4} "
              f"{z3 - b3:>4}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
