"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Every assertion is an exact equality over rational arithmetic; there are
no tolerances anywhere.
"""

import io
import json
import pathlib
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

import superquad as sq
from superquad import cli, dsl
from superquad.cohomology import (collect_cochain2dual, delta_scalar2,
                                  hat, is_cocycle2,
                                  is_supercyclic, sub3, unhat,
                                  z2_supercyclic_basis, z3_basis,
                                  zero_cochain2, cohomologous)
from superquad.decompose import decompose, max_isotropic_ideal
from superquad.errors import (CocycleError, NotSupercyclicError,
                              RationalPointNotFound)
from superquad.forms import (QuadraticLieSuperalgebra, even_form,
                             is_totally_isotropic)
from superquad.gallery import (build_glnn, build_gn, even_line,
                               orthogonal_direct_sum, random_cochain2,
                               random_cocycle2, random_scalar2,
                               random_supercyclic_cocycle, tstar_of_gn)
from superquad.linalg import kernel, mat, rank, unit_vec
from superquad.superalgebra import (ODD, bracket, center, is_nilpotent, sgn,
                                    subspace)
from superquad.tstar import (build, quadratic_morphism_violation,
                             shear_matrix, s_phi_isometry)

from support import (add3, center_orthogonality_check, derived_by_dense,
                     lemma_halfdim_ideal_iff_abelian, negative_test_invariance,
                     vec_is_zero, z2_supercyclic_direct)

F = Fraction
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

# quadratic instances constructed while the suite runs; criterion 7
# sweeps them all
QUADRATIC_REGISTRY: list = []


def register(q):
    QUADRATIC_REGISTRY.append(q)
    return q


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({title}): PASS")


def test_criterion_1_axiom_suite():
    with criterion(1, "axiom suite"):
        for n in (1, 2):
            assert sq.check_axioms(build_glnn(n)).passed
        for n in (1, 2, 3):
            g = build_gn(n)
            report = sq.check_axioms(g)
            assert report.passed
            assert is_nilpotent(g)
        for n in (2, 3):
            g = build_gn(n)
            z = center(g)
            assert z.dim == 1
            assert not z.even_rows and len(z.odd_rows) == 1
            odd_idx = [i for i in range(g.dim) if g.parity(i) == ODD]
            vecs = [bracket(g, unit_vec(g.dim, i), unit_vec(g.dim, j))
                    for i in odd_idx for j in odd_idx]
            span = subspace(g.basis, [v for v in vecs if not vec_is_zero(v)])
            even_part = subspace(g.basis,
                                 [unit_vec(g.dim, i) for i in range(g.dim)
                                  if g.parity(i) == 0])
            assert span == even_part


def test_criterion_2_build_iff_cocycle_and_supercyclic(gallery, z2_bases,
                                                       supercyclic_bases):
    with criterion(2, "extension builds iff cocycle and supercyclic"):
        rng = random.Random(101)
        for name, g in gallery.items():
            for trial in range(50):
                kind = trial % 3
                if kind == 0:
                    w = random_cochain2(g, rng)
                elif kind == 1:
                    w = random_cocycle2(g, rng, basis=z2_bases[name])
                else:
                    w = random_supercyclic_cocycle(
                        g, rng, basis=supercyclic_bases[name])
                cocycle = is_cocycle2(g, w)
                cyclic = is_supercyclic(w)
                if cocycle and cyclic:
                    ext = build(g, w)
                    register(ext.total)
                    assert sq.check_axioms(ext.total.algebra).passed
                elif not cocycle:
                    with pytest.raises(CocycleError) as exc:
                        build(g, w)
                    assert exc.value.triple is not None
                    assert exc.value.jacobi_witness is not None
                else:
                    with pytest.raises(NotSupercyclicError):
                        build(g, w)
                    failure = negative_test_invariance(g, w)
                    assert failure.lhs != failure.rhs


def test_criterion_3_transported_tensor_bijection():
    with criterion(3, "hat/unhat bijection and dimension agreement"):
        algebras = {
            "abelian(3|0)": sq.abelian(3, 0),
            "abelian(1|2)": sq.abelian(1, 2),
            "heisenberg3": sq.heisenberg3(),
            "g(2)": build_gn(2),
        }
        rng = random.Random(103)
        for name, g in algebras.items():
            z2sc = z2_supercyclic_basis(g)
            z3 = z3_basis(g)
            # Z^2_sc is read off Z^3, so the match is checked against a
            # direct solve of Z^2_sc
            assert len(z2_supercyclic_direct(g)) == len(z3), name
            for w in z2sc:
                assert unhat(hat(w)) == w
            for f in z3:
                assert hat(unhat(f)) == f
                assert is_supercyclic(unhat(f))
                assert is_cocycle2(g, unhat(f))
            for _ in range(10):
                w = random_supercyclic_cocycle(g, rng, basis=z2sc)
                assert unhat(hat(w)) == w


def test_criterion_4_shear_isometries(gallery, supercyclic_bases):
    with criterion(4, "shear isometries and perturbation failure"):
        rng = random.Random(107)
        for name, g in gallery.items():
            for _ in range(50):
                w1 = random_supercyclic_cocycle(g, rng,
                                                basis=supercyclic_bases[name])
                phi = random_scalar2(g, rng)
                shear = s_phi_isometry(g, w1, phi)  # exact verification inside
                register(shear.source.total)
                register(shear.target.total)
                expected = unhat(sub3(hat(w1), delta_scalar2(g, phi)))
                assert shear.target.omega == expected
        # perturbation branch, wherever a non-coboundary exists
        perturbed = 0
        for name, g in gallery.items():
            zero3 = hat(zero_cochain2(g))
            noncob = next((f for f in z3_basis(g)
                           if cohomologous(g, zero3, f) is None), None)
            if noncob is None:
                continue
            w1 = random_supercyclic_cocycle(g, rng,
                                            basis=supercyclic_bases[name])
            phi = random_scalar2(g, rng)
            ext1 = build(g, w1)
            w2 = unhat(sub3(hat(w1), delta_scalar2(g, phi)))
            w2_bad = unhat(add3(hat(w2), noncob))
            ext2 = build(g, w2_bad)
            register(ext1.total)
            register(ext2.total)
            witness = quadratic_morphism_violation(
                ext1.total, ext2.total, shear_matrix(g, phi))
            assert witness is not None and witness[0] == "bracket", name
            perturbed += 1
        assert perturbed >= 2


def test_criterion_5_recognition_roundtrip(gallery, supercyclic_bases):
    with criterion(5, "recognition roundtrip and Lagrangian ideal lemma"):
        rng = random.Random(109)
        for name, g in gallery.items():
            for _ in range(20):
                w = random_supercyclic_cocycle(g, rng,
                                               basis=supercyclic_bases[name])
                ext = build(g, w)
                register(ext.total)
                ext2, psi = sq.recognize(ext.total, ext.dual_ideal())
                assert ext2.base.coords == g.coords  # isomorphic copy of g
                assert (collect_cochain2dual(ext2.omega)
                        == collect_cochain2dual(w))  # cocycle on the nose
                assert rank(psi) == ext.total.dim  # verified bijection
        # the ideal/abelian equivalence over random Lagrangian subspaces
        agreements = 0
        for name, g in gallery.items():
            ext = build(g)
            register(ext.total)
            for _ in range(18):
                iso = _random_isotropic_halfdim(ext, rng)
                assert is_totally_isotropic(ext.total.form, iso)
                lemma_halfdim_ideal_iff_abelian(ext.total, iso)
                agreements += 1
        assert agreements >= 100


def _random_isotropic_halfdim(ext, rng):
    g = ext.base
    n = g.dim
    N = 2 * n
    S = [i for i in range(n) if rng.random() < 0.5]
    T = [i for i in range(n) if i not in S]
    phi = [[F(0)] * n for _ in range(n)]
    for a, i in enumerate(T):
        for j in T[a + 1:]:
            if g.parity(i) != g.parity(j):
                continue
            q = F(rng.randint(-3, 3))
            phi[i][j] = q
            phi[j][i] = -sgn(g.parity(i) * g.parity(j)) * q
        if g.parity(i) == 1 and rng.random() < 0.5:
            phi[i][i] = F(rng.randint(-3, 3))
    vectors = [unit_vec(N, n + i) for i in S]
    for j in T:
        v = list(unit_vec(N, j))
        for k in T:
            v[n + k] = phi[j][k]
        vectors.append(tuple(v))
    return subspace(ext.total.basis, vectors)


def test_criterion_6_structure_decomposition():
    with criterion(6, "maximal isotropic ideals and decomposition"):
        # even case: the zero-cocycle extension of the triangular family
        Q = register(tstar_of_gn(2).total)
        dec = decompose(Q)  # embedding verified exactly inside decompose
        assert dec.parity_case == "even"
        flag = max_isotropic_ideal(Q)
        assert flag.w_max.dim == Q.dim // 2
        # even case: extension of the Heisenberg algebra by its volume cocycle
        h3 = sq.heisenberg3()
        w = unhat(z3_basis(h3)[0])
        Qh = register(build(h3, w).total)
        dech = decompose(Qh)
        assert dech.parity_case == "even"
        assert dech.ideal.dim == 3
        # odd case: two constructed odd-dimension instances
        for Qodd in (register(even_line()),
                     register(orthogonal_direct_sum(
                         build(h3).total, even_line()))):
            deco = decompose(Qodd)
            assert deco.parity_case == "odd"
            assert deco.extension.total.dim == Qodd.dim + 1
            # image is a verified codim-1 nondegenerate graded ideal;
            # re-verify the headline facts here as well
            cols = [tuple(deco.embedding[r][a]
                          for r in range(Qodd.dim + 1))
                    for a in range(Qodd.dim)]
            image = subspace(deco.extension.total.basis, cols)
            assert image.dim == Qodd.dim
            from superquad.superalgebra import is_ideal
            assert is_ideal(deco.extension.total.algebra, image)
            gram = mat([[deco.extension.total.form.apply(u, v)
                         for v in image.vectors] for u in image.vectors])
            assert rank(gram) == image.dim
        # rational-field failure carries the anisotropic quadric
        a2 = sq.abelian(2, 0)
        qid = QuadraticLieSuperalgebra(
            a2, even_form(a2.basis, [[1, 0], [0, 1]]))
        with pytest.raises(RationalPointNotFound) as exc:
            max_isotropic_ideal(qid)
        assert exc.value.quadric_str == "x^2 + y^2"


def test_criterion_7_center_identities(gallery):
    with criterion(7, "center identities"):
        # every quadratic instance the suite has built so far
        core = [register(build(g).total) for g in gallery.values()]
        core.append(register(sq.hyperbolic_even()))
        core.append(register(sq.hyperbolic_odd()))
        assert QUADRATIC_REGISTRY
        for q in QUADRATIC_REGISTRY:
            assert center_orthogonality_check(q)
        # z(T*_0 g) = z(g) + annihilator of [g, g], via independent kernels
        for name, g in gallery.items():
            ext = build(g)
            n = g.dim
            zg = center(g)
            derived = derived_by_dense(g)
            ann = (kernel(mat(derived.vectors)) if derived.dim
                   else [unit_vec(n, k) for k in range(n)])
            expected = subspace(
                ext.total.basis,
                [v + (F(0),) * n for v in zg.vectors]
                + [(F(0),) * n + tuple(a) for a in ann])
            assert center(ext.total.algebra) == expected, name


def test_criterion_8_cli_contract():
    with criterion(8, "CLI fixed point, pipeline, determinism"):
        files = sorted(CORPUS.glob("*.sqd"))
        assert len(files) == 10
        for path in files:
            text = path.read_text(encoding="utf-8")
            doc = dsl.parse(text)
            emitted = dsl.emit(doc)
            assert dsl.parse(emitted) == doc, path.name
            assert dsl.emit(dsl.parse(emitted)) == emitted, path.name
        # example class-c 2 | decompose exits 0, as real processes
        p1 = subprocess.run([sys.executable, "-m", "superquad.cli",
                             "example", "class-c", "2"],
                            capture_output=True, text=True)
        assert p1.returncode == 0
        p2 = subprocess.run([sys.executable, "-m", "superquad.cli",
                             "decompose"], input=p1.stdout,
                            capture_output=True, text=True)
        assert p2.returncode == 0
        assert json.loads(p2.stdout)["status"] == "pass"
        # byte-identical reports across two runs
        for argv in (["check", str(CORPUS / "g2.sqd")],
                     ["cohomology", str(CORPUS / "heisenberg3.sqd")],
                     ["decompose", str(CORPUS / "g2_tstar0.sqd")],
                     ["tstar", str(CORPUS / "h3_volume_cochains.sqd"),
                      "--omega", "w"]):
            outs = []
            for _ in range(2):
                buf = io.StringIO()
                code = cli.main(list(argv), out=buf)
                outs.append((code, buf.getvalue()))
            assert outs[0] == outs[1]
            assert outs[0][0] == 0
