"""The decompose, cohomology and extension workloads.

Each ``*_ops(lib, seed, smoke)`` builds the run's inputs from the seed and
returns the round's operations.  ``lib`` holds the imported superquad
modules; every call into the library looks its function up on the module
at call time, so a tracer that rebinds module attributes sees it.
``smoke`` keeps only the smallest rung, for the self-test.
"""

from __future__ import annotations

import functools
import json
import pathlib
from fractions import Fraction

import oracle
from common import (Op, ZERO, alt3_coords, combine, dense_alt3,
                    dense_cochain2, dense_scalar2, direct_sum, raw_algebra,
                    raw_quadratic, rng, scalar2_keys)
from oracle import require

DIMS_FILE = pathlib.Path(__file__).resolve().parent / "cohomology_dims.json"


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

# Diagonal forms with a rational point that the bounded search in
# decompose.isotropic_vector misses (README, "Known fault").  They do not
# depend on the seed, so they fail in every round of every run.
FALSE_FAILURES = (
    ((1, 1, -41), ((4, 5, 1),)),
    ((1, 1, -41, -41), ((4, 5, 1, 0), (5, -4, 0, 1))),
    ((1, 1, -41, -41, 1), ((4, 5, 1, 0, 0), (5, -4, 0, 1, 0))),
)

# Anisotropic ternary controls: RationalPointNotFound is the right answer.
ANISOTROPIC = ((1, 1, 1), (1, 1, -3))


def _diag_quadratic(lib, diag):
    k = len(diag)
    alg = lib.sq.abelian(k, 0)
    gram = [[Fraction(diag[i]) if i == j else ZERO for j in range(k)]
            for i in range(k)]
    return lib.forms.quadratic(alg, lib.forms.even_form(alg.basis, gram))


def _seeded_isotropic_diag(seed: int, k: int) -> list:
    """A diagonal form of Witt index floor(k/2): hyperbolic pairs
    (a, -a s^2), plus one free entry when k is odd, in seeded order.
    The square-ratio test of the bounded search finds these."""
    r = rng(seed, "quadric", k)
    diag = []
    for _ in range(k // 2):
        a = r.choice((-1, 1)) * r.randint(1, 9)
        diag += [a, -a * r.randint(1, 5) ** 2]
    if k % 2:
        diag.append(r.choice((-1, 1)) * r.randint(1, 9))
    r.shuffle(diag)
    return diag


def _check_decomposition(lib, q):
    read_src = functools.cache(lambda: raw_quadratic(lib, q))

    def check(state, dec):
        src = read_src()
        oracle.check_isotropic_ideal(src, dec.ideal.vectors)
        ext = raw_quadratic(lib, dec.extension.total)
        oracle.check_quadratic(ext)
        oracle.check_morphism(src, ext, dec.embedding)
        require(dec.parity_case == ("even" if src.n % 2 == 0 else "odd"),
                "wrong parity case")
    return check


def _check_no_point(diag):
    def check(state, exc):
        require(oracle.holzer_no_point(*diag),
                f"x^2 form {diag} has a rational point")
    return check


def decompose_ops(lib, seed: int, smoke: bool) -> list:
    sq, gallery = lib.sq, lib.gallery

    def tstar(g, tag):
        omega = gallery.random_supercyclic_cocycle(g, rng(seed, "omega", tag))
        return sq.build(g, omega).total

    h3, g2 = sq.heisenberg3(), sq.build_gn(2)
    instances = [("T*(heisenberg3)", tstar(h3, "h3"))]
    quadrics = [3]
    if not smoke:
        t_g2 = tstar(g2, "gn2")
        instances += [
            ("T*(heisenberg3)+line",
             sq.orthogonal_direct_sum(tstar(h3, "h3-line"),
                                      gallery.even_line())),
            ("T*(solvable2d+heisenberg3)",
             tstar(direct_sum(lib, sq.solvable2d(), h3), "s2h3")),
            ("T*(gn(2))", t_g2),
            ("class-c(2)", sq.build_class_c_example(2)),
            ("T*(gn(2))+line",
             sq.orthogonal_direct_sum(t_g2, gallery.even_line())),
            ("T*(heisenberg3+gn(2))", tstar(direct_sum(lib, h3, g2), "h3gn2")),
        ]
        quadrics = [3, 4, 5]
    ops = []
    for name, q in instances:
        ops.append(Op(f"decompose {name} dim {q.dim}",
                      lambda q=q: lib.sq.decompose(q),
                      _check_decomposition(lib, q)))
    for k in quadrics:
        diag = _seeded_isotropic_diag(seed, k)
        q = _diag_quadratic(lib, diag)
        ops.append(Op(f"decompose quadric diag{tuple(diag)}",
                      lambda q=q: lib.sq.decompose(q),
                      _check_decomposition(lib, q)))
    for diag in ANISOTROPIC:
        q = _diag_quadratic(lib, diag)
        ops.append(Op(f"decompose anisotropic diag{diag}",
                      lambda q=q: lib.sq.decompose(q), _check_no_point(diag),
                      expect="RationalPointNotFound"))
    for diag, points in (FALSE_FAILURES[:1] if smoke else FALSE_FAILURES):
        for p in points:
            require(sum(d * x * x for d, x in zip(diag, p)) == 0,
                    f"{p} is not isotropic for {diag}")
            require(all(sum(d * x * y for d, x, y in zip(diag, p, p2)) == 0
                        for p2 in points), "certificate points not orthogonal")
        q = _diag_quadratic(lib, diag)
        ops.append(Op(f"decompose isotropic diag{diag} (point {points[0]})",
                      lambda q=q: lib.sq.decompose(q),
                      _check_decomposition(lib, q),
                      fault="RationalPointNotFound"))
    return ops


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

def cohomology_ladder(lib, smoke: bool = False) -> list:
    """(name, algebra) from dim 3 to dim 12, most of them with odd parts."""
    sq = lib.sq
    h3, g2, gl11 = sq.heisenberg3(), sq.build_gn(2), sq.build_glnn(1)
    ladder = [("heisenberg3", h3)]
    if not smoke:
        ladder += [
            ("gl(1|1)", gl11),
            ("gn(2)", g2),
            ("T*(heisenberg3)", sq.build(h3).total.algebra),
            ("gn(2)+gl(1|1)", direct_sum(lib, g2, gl11)),
            ("gn(2)+gn(2)", direct_sum(lib, g2, sq.build_gn(2))),
        ]
    return ladder


def _coords_rank(maps) -> int:
    keys = sorted({k for m in maps for k in m})
    return oracle.rank([[m.get(k, ZERO) for k in keys] for m in maps])


def _check_extension_of(g_raw, w) -> None:
    oracle.check_quadratic(oracle.extension(g_raw, w))


def cohomology_ops(lib, seed: int, smoke: bool) -> list:
    co = lib.cohomology
    ref = json.loads(DIMS_FILE.read_text())
    ops = []
    for name, g in cohomology_ladder(lib, smoke):
        par = tuple(g.basis.parities)
        raw = functools.cache(lambda g=g: raw_algebra(lib, g))
        dims = ref[name]

        def check_z2(state, basis, name=name, raw=raw, dims=dims):
            g_raw = raw()
            maps = [lib.cohomology.collect_cochain2dual(w) for w in basis]
            require(len(maps) == dims["z2_supercyclic"],
                    f"dim Z2_sc {len(maps)} != reference {dims['z2_supercyclic']}")
            require(_coords_rank(maps) == len(maps), "Z2_sc basis is dependent")
            state[name, "z2"] = maps
            if maps:
                w = dense_cochain2(g_raw.par, combine(maps, rng(seed, name, "z2")))
                _check_extension_of(g_raw, w)

        def check_z3(state, basis, name=name, raw=raw, dims=dims, g=g):
            g_raw = raw()
            maps = [lib.cohomology.collect_alt3(f) for f in basis]
            require(len(maps) == dims["z3"],
                    f"dim Z3 {len(maps)} != reference {dims['z3']}")
            require(len(maps) == len(state.get((name, "z2"), ())),
                    "dim Z3 differs from dim Z2_sc")
            require(_coords_rank(maps) == len(maps), "Z3 basis is dependent")
            state[name, "z3"] = maps
            if maps:
                f = lib.cohomology.expand_alt3(
                    g.basis, combine(maps, rng(seed, name, "z3")))
                w = lib.cohomology.unhat(f)
                _check_extension_of(g_raw, dense_cochain2(
                    g_raw.par, lib.cohomology.collect_cochain2dual(w)))

        def check_b3(state, basis, name=name, dims=dims):
            maps = [lib.cohomology.collect_alt3(f) for f in basis]
            require(len(maps) == dims["b3"],
                    f"dim B3 {len(maps)} != reference {dims['b3']}")
            require(_coords_rank(maps) == len(maps), "B3 basis is dependent")
            z3 = state[name, "z3"]
            require(_coords_rank(z3 + maps) == len(z3), "B3 is not inside Z3")

        def prepare_pair(state, name=name, g=g, raw=raw, par=par):
            g_raw = raw()
            r = rng(seed, name, "pair")
            f1 = dense_alt3(par, combine(state[name, "z3"], r)
                            if state[name, "z3"] else {})
            r = rng(seed, name, "phi")
            phi = {key: r.randint(-3, 3) for key in scalar2_keys(par)}
            d = oracle.delta(g_raw, dense_scalar2(par, phi))
            f2 = oracle.tensor_sub(f1, d)
            state[name, "pair"] = (f1, f2)
            return (g, co.expand_alt3(g.basis, alt3_coords(par, f1)),
                    co.expand_alt3(g.basis, alt3_coords(par, f2)))

        def check_pair(state, phi, name=name, raw=raw, par=par):
            g_raw = raw()
            require(phi is not None, "cohomologous pair reported as not")
            f1, f2 = state[name, "pair"]
            d = oracle.delta(g_raw, dense_scalar2(
                par, lib.cohomology.collect_scalar2(phi)))
            require(oracle.flatten(d)
                    == oracle.flatten(oracle.tensor_sub(f1, f2)),
                    "f1 - f2 differs from delta(phi)")

        dim = g.dim
        ops += [
            Op(f"z2_supercyclic_basis {name} dim {dim}",
               lambda g=g: lib.cohomology.z2_supercyclic_basis(g), check_z2),
            Op(f"z3_basis {name} dim {dim}",
               lambda g=g: lib.cohomology.z3_basis(g), check_z3),
            Op(f"b3_basis {name} dim {dim}",
               lambda g=g: lib.cohomology.b3_basis(g), check_b3),
            Op(f"cohomologous {name} dim {dim}",
               lambda g, f1, f2: lib.cohomology.cohomologous(g, f1, f2),
               check_pair, prepare=prepare_pair),
        ]
    return ops


def cohomology_dims(lib) -> dict:
    """Dimensions of the ladder's spaces as the library computes them now."""
    co = lib.cohomology
    return {name: {"z2_supercyclic": len(co.z2_supercyclic_basis(g)),
                   "z3": len(co.z3_basis(g)), "b3": len(co.b3_basis(g))}
            for name, g in cohomology_ladder(lib)}


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------

def _non_cocycle(lib, g, g_raw, r):
    """A seeded container-valid cochain that fails the cocycle identity."""
    n = g.dim
    while True:
        w = lib.gallery.random_cochain2(g, r)
        dense = dense_cochain2(g_raw.par, lib.cohomology.collect_cochain2dual(w))
        if any(any(oracle.cocycle_defect(g_raw, dense, i, j, k))
               for i in range(n) for j in range(n) for k in range(n)):
            return w


def _non_supercyclic(lib, g, g_raw, r, z2):
    """A seeded 2-cocycle that is not supercyclic."""
    n = g.dim
    while True:
        w = lib.gallery.random_cocycle2(g, r, basis=z2)
        dense = dense_cochain2(g_raw.par, lib.cohomology.collect_cochain2dual(w))
        if any(oracle.supercyclic_defect(g_raw, dense, i, j, k)
               for i in range(n) for j in range(n) for k in range(n)):
            return w


def _check_build(lib, g_raw, omega, key):
    def check(state, ext):
        want = oracle.extension(g_raw, dense_cochain2(
            g_raw.par, lib.cohomology.collect_cochain2dual(omega)))
        got = raw_quadratic(lib, ext.total)
        require(got.table == want.table, "extension bracket differs from "
                "[x+F, y+H] = [x,y] + w(x,y) + pi(x)H - (-1)^{|x||y|} pi(y)F")
        require(got.gram == want.gram, "extension pairing differs")
        oracle.check_quadratic(got)
        state[key] = (ext, got)
    return check


def _check_cocycle_error(lib, g_raw, omega):
    def check(state, exc):
        dense = dense_cochain2(g_raw.par,
                               lib.cohomology.collect_cochain2dual(omega))
        would_be = oracle.extension(g_raw, dense)
        require(any(oracle.cocycle_defect(g_raw, dense, *exc.triple)),
                f"cocycle identity holds at the witness {exc.triple}")
        require(bool(oracle.jacobi_defect(would_be, *exc.jacobi_witness)),
                f"Jacobi holds at the witness {exc.jacobi_witness}")
    return check


def _check_supercyclic_error(lib, g_raw, omega):
    def check(state, exc):
        dense = dense_cochain2(g_raw.par,
                               lib.cohomology.collect_cochain2dual(omega))
        would_be = oracle.extension(g_raw, dense)
        require(oracle.supercyclic_defect(g_raw, dense, *exc.triple) != 0,
                f"supercyclicity holds at the witness {exc.triple}")
        require(oracle.invariance_defect(would_be, *exc.invariance_witness) != 0,
                f"invariance holds at the witness {exc.invariance_witness}")
    return check


def _check_shear(lib, g_raw, omega1, phi):
    def check(state, shear):
        w1 = dense_cochain2(g_raw.par,
                            lib.cohomology.collect_cochain2dual(omega1))
        d = oracle.delta(g_raw, dense_scalar2(
            g_raw.par, lib.cohomology.collect_scalar2(phi)))
        want2 = oracle.flatten(oracle.tensor_sub(w1, d))
        w2 = dense_cochain2(g_raw.par, lib.cohomology.collect_cochain2dual(
            shear.target.omega))
        require(oracle.flatten(w2) == want2, "omega2 != omega1 - delta(phi)")
        src = raw_quadratic(lib, shear.source.total)
        dst = raw_quadratic(lib, shear.target.total)
        oracle.check_morphism(src, dst, shear.matrix)
    return check


def _dsl_roundtrip(lib, key):
    def prepare(state):
        return (state[key][0],)

    def run(ext):
        dsl = lib.dsl
        text = dsl.emit(dsl.document_quadratic(ext.total))
        doc = dsl.parse(text)
        return text, dsl.document_algebra(doc), dsl.document_form(doc)

    def check(state, out):
        text, alg, form = out
        want = state[key][1]
        got = raw_algebra(lib, alg, form)
        require(got.table == want.table and got.gram == want.gram,
                "parse(emit(doc)) changed the structure constants")
        mine = oracle.read_document(text).raw()
        require(mine.table == want.table and mine.gram == want.gram,
                "emitted document does not read back to the extension")
    return prepare, run, check


def extension_ops(lib, seed: int, smoke: bool) -> list:
    sq, gallery, co = lib.sq, lib.gallery, lib.cohomology
    h3, g2 = sq.heisenberg3(), sq.build_gn(2)
    bases = [("gn(2)", g2, True)]
    if not smoke:
        bases = [("heisenberg3", h3, True), ("gl(1|1)", sq.build_glnn(1), True),
                 ("gn(2)", g2, True),
                 ("gn(2)+heisenberg3", direct_sum(lib, g2, h3), True),
                 ("gn(3)", sq.build_gn(3), False)]
    ops = []
    for name, g, small in bases:
        g_raw = raw_algebra(lib, g)
        dim = g.dim
        phi1 = gallery.random_scalar2(g, rng(seed, name, "phi1"))
        omega_cob = co.unhat(co.delta_scalar2(g, phi1))
        omegas = [("unhat(delta phi)", omega_cob)]
        if small:
            z3 = [co.collect_alt3(f) for f in co.z3_basis(g)]
            f = co.expand_alt3(g.basis, combine(z3, rng(seed, name, "z3")))
            omegas.append(("unhat(Z3 combination)", co.unhat(f)))
        for label, omega in omegas:
            key = (name, label)
            ops.append(Op(f"build {name} dim {dim} by {label}",
                          lambda g=g, w=omega: lib.sq.build(g, w),
                          _check_build(lib, g_raw, omega, key)))
            prepare, run, check = _dsl_roundtrip(lib, key)
            ops.append(Op(f"emit/parse T*({name}) by {label}", run, check,
                          prepare=prepare))
        phi2 = gallery.random_scalar2(g, rng(seed, name, "phi2"))
        ops.append(Op(f"s_phi_isometry {name} dim {dim}",
                      lambda g=g, w=omega_cob, p=phi2:
                          lib.sq.s_phi_isometry(g, w, p),
                      _check_shear(lib, g_raw, omega_cob, phi2)))
        bad = _non_cocycle(lib, g, g_raw, rng(seed, name, "noncocycle"))
        ops.append(Op(f"reject non-cocycle {name}",
                      lambda g=g, w=bad: lib.sq.build(g, w),
                      _check_cocycle_error(lib, g_raw, bad),
                      expect="CocycleError"))
        if small:
            nsc = _non_supercyclic(lib, g, g_raw, rng(seed, name, "nonsc"),
                                   co.z2_basis(g))
            ops.append(Op(f"reject non-supercyclic {name}",
                          lambda g=g, w=nsc: lib.sq.build(g, w),
                          _check_supercyclic_error(lib, g_raw, nsc),
                          expect="NotSupercyclicError"))
    return ops
