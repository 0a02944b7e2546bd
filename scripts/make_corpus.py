#!/usr/bin/env python3
"""Regenerate the DSL corpus under corpus/.

The corpus pins the parse/emit fixed point and gives the CLI suite
stable inputs; regenerate only when the DSL surface itself changes.
"""

from __future__ import annotations

import pathlib
import sys

import superquad as sq
from superquad import dsl
from superquad.cohomology import ScalarCochain2, unhat, z3_basis, zero_scalar2
from superquad.gallery import build_glnn, build_gn, stock, tstar_of_gn
from superquad.tstar import build

OUT = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def main() -> int:
    OUT.mkdir(exist_ok=True)
    files: dict[str, str] = {}

    files["abelian_1dim.sqd"] = "basis x:even\nbracket [x,x] = 0\n"

    h3 = sq.heisenberg3()
    files["heisenberg3.sqd"] = dsl.emit(dsl.document_from(h3))

    # h3 with an identity Gram: parses fine, fails invariance under `check`
    files["heisenberg3_idgram.sqd"] = (
        "basis e1:even e2:even e3:even\n"
        "bracket [e1,e2] = e3\n"
        "form B(e1,e1) = 1\nform B(e2,e2) = 1\nform B(e3,e3) = 1\n")

    files["hyperbolic_even.sqd"] = dsl.emit(
        dsl.document_quadratic(stock("hyperbolic-even")))
    files["hyperbolic_odd.sqd"] = dsl.emit(
        dsl.document_quadratic(stock("hyperbolic-odd")))
    files["solvable2d.sqd"] = dsl.emit(dsl.document_from(stock("solvable2d")))
    files["gl11.sqd"] = dsl.emit(dsl.document_from(build_glnn(1)))
    files["g2.sqd"] = dsl.emit(dsl.document_from(build_gn(2)))
    files["g2_tstar0.sqd"] = dsl.emit(
        dsl.document_quadratic(tstar_of_gn(2).total))

    # h3 with the volume 2-cocycle, a scalar 2-cochain and a 3-cochain
    vol = z3_basis(h3)[0]
    phi = ScalarCochain2(h3.basis, {(0, 1): 1, (0, 2): -2})
    files["h3_volume_cochains.sqd"] = dsl.emit(dsl.document_from(
        h3, cochain2={"w": unhat(vol)}, cochain3={"f": vol},
        scalar2={"phi": phi}))

    for name, text in sorted(files.items()):
        path = OUT / name
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path.relative_to(OUT.parent)} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
