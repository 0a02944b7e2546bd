"""The cli workload: ``python -m superquad.cli`` as a user types it.

Each operation is one invocation, or a two-stage pipe, run to completion
before the next starts.  Reports are checked with the oracle's own reader
of the documented DSL grammar and JSON schema; exit codes must follow the
README (0 pass, 1 failed check with a witness, 2 input error).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import oracle
from common import Op, combine, dense_alt3, dense_cochain2, raw_algebra, rng
from oracle import require

TIMEOUT_S = 170

# cohomology of the dim-12 corpus file is 11 s of cocycle solving, which
# the cohomology workload already measures; here it would drown start-up.
SKIP_COHOMOLOGY = {"g2_tstar0.sqd"}

RECOGNIZE = (("g2_tstar0.sqd", "a12*;d12*;b11*;b12*;b22*;c12*"),
             ("hyperbolic_even.sqd", "e1"), ("hyperbolic_odd.sqd", "o1"))
# g2_tstar0.sqd is class-c(2), which the example pipe already decomposes
DECOMPOSE = ("hyperbolic_even.sqd", "hyperbolic_odd.sqd",
             "heisenberg3_idgram.sqd")


class Runner:
    """Runs a pipeline of CLI argument lists, as child processes or, for
    the traced run, in-process through ``cli.main``."""

    def __init__(self, lib, root, in_process: bool):
        self.lib = lib
        self.root = root
        self.in_process = in_process

    def __call__(self, stages):
        if self.in_process:
            return self._in_process(stages)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        cmd = [[sys.executable, "-m", "superquad.cli", *s] for s in stages]
        if len(cmd) == 1:
            p = subprocess.run(cmd[0], cwd=self.root, env=env,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
            return p.returncode, p.stdout.decode()
        first = subprocess.Popen(cmd[0], cwd=self.root, env=env,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL)
        try:
            second = subprocess.Popen(cmd[1], cwd=self.root, env=env,
                                      stdin=first.stdout,
                                      stdout=subprocess.PIPE,
                                      stderr=subprocess.DEVNULL)
            first.stdout.close()
            try:
                out, _ = second.communicate(timeout=TIMEOUT_S)
            finally:
                if second.poll() is None:
                    second.kill()
                    second.wait()
        finally:
            if first.poll() is None:
                first.kill()
            first.wait()
        require(first.returncode == 0, f"first stage exited {first.returncode}")
        return second.returncode, out.decode()

    def _in_process(self, stages):
        data = ""
        code = 0
        saved = sys.stdin
        try:
            for args in stages:
                sys.stdin = io.StringIO(data)
                out = io.StringIO()
                code = self.lib.cli.main(list(args), out=out)
                data = out.getvalue()
        finally:
            sys.stdin = saved
        return code, data


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _matrix(rows) -> list:
    return [[Fraction(q) for q in r] for r in rows]


def _coords(entries: dict, names) -> dict:
    """A report's cochain map {"a,b,c": "q"} as {(i, j, k): q}."""
    return {tuple(names.index(x) for x in key.split(",")): Fraction(q)
            for key, q in entries.items()}


def _report(code: int, out: str, want: int) -> dict:
    require(code == want, f"exit code {code}, expected {want}")
    rep = json.loads(out)
    if want == 2:
        require(set(rep["error"]) >= {"kind", "message"}, "no error object")
        return rep
    require(rep["status"] == ("pass" if want == 0 else "fail"),
            f"status {rep['status']} with exit {code}")
    for c in rep["checks"]:
        require(c["passed"] or c["witness"] is not None,
                f"failed check {c['name']} has no witness")
    return rep


def _failed(rep: dict) -> dict:
    return next(c for c in rep["checks"] if not c["passed"])


def _labels(doc, witness) -> tuple:
    return tuple(doc.idx(x) for x in witness)


def _lie_ok(raw) -> bool:
    try:
        oracle.check_lie(raw)
    except oracle.OracleError:
        return False
    return True


def _form_ok(raw) -> bool:
    try:
        oracle.check_quadratic(raw)
    except oracle.OracleError:
        return False
    return True


def _check_witness(doc, rep) -> None:
    """The first failed check's witness must violate what it names."""
    raw = doc.raw()
    c = _failed(rep)
    name, wit = c["name"], c["witness"]
    if name == "form.invariant":
        require(oracle.invariance_defect(raw, *_labels(doc, wit)) != 0,
                f"invariance holds at the witness {wit}")
    elif name == "axioms.jacobi":
        require(bool(oracle.jacobi_defect(raw, *_labels(doc, wit))),
                f"Jacobi holds at the witness {wit}")
    elif name in ("omega.cocycle", "omega1.cocycle"):
        w = doc.dense_cochain2(next(iter(doc.cochain2)))
        require(any(oracle.cocycle_defect(raw, w, *_labels(doc, wit))),
                f"cocycle identity holds at the witness {wit}")
    elif name in ("omega.supercyclic", "omega1.supercyclic"):
        w = doc.dense_cochain2(next(iter(doc.cochain2)))
        require(oracle.supercyclic_defect(raw, w, *_labels(doc, wit)) != 0,
                f"supercyclicity holds at the witness {wit}")
    else:
        raise oracle.OracleError(f"no oracle for the witness of {name}")


def _expected_check_code(doc) -> int:
    raw = doc.raw()
    if not _lie_ok(raw):
        return 1
    return 0 if doc.gram is None or _form_ok(raw) else 1


def _check_extension_doc(base, w, text) -> None:
    """text is a DSL document of the extension of base by w."""
    want = oracle.extension(base.raw(), w)
    got = oracle.read_document(text)
    require(got.names == base.names + [x + "*" for x in base.names],
            "extension basis labels")
    got_raw = got.raw()
    require(got_raw.table == want.table, "extension brackets differ")
    require(got_raw.gram == want.gram, "extension pairing differs")
    oracle.check_quadratic(got_raw)


def _omega(doc, name):
    n = len(doc.names)
    if name is None:
        return [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    return doc.dense_cochain2(name)


def _tstar_code(doc, omega_name) -> int:
    if any(x + "*" in doc.names for x in doc.names):
        return 2
    raw, w, n = doc.raw(), _omega(doc, omega_name), len(doc.names)
    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    if any(any(oracle.cocycle_defect(raw, w, *t)) for t in triples):
        return 1
    if any(oracle.supercyclic_defect(raw, w, *t) for t in triples):
        return 1
    return 0


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def cli_ops(lib, seed: int, smoke: bool, root, work, in_process=False) -> list:
    run = Runner(lib, root, in_process)
    corpus = sorted(p.name for p in (root / "corpus").glob("*.sqd"))
    if smoke:
        corpus = ["heisenberg3.sqd"]
    docs = {f: oracle.read_document((root / "corpus" / f).read_text())
            for f in corpus}

    # seeded documents over gn(2), written by the library's emitter
    g2 = lib.sq.build_gn(2)
    dsl, gallery = lib.dsl, lib.gallery
    omega = gallery.random_supercyclic_cocycle(g2, rng(seed, "cli", "w"))
    phi = gallery.random_scalar2(g2, rng(seed, "cli", "phi"))
    seeded = {"seeded_ext.sqd": dsl.emit(dsl.document_from(
        g2, cochain2={"w": omega}, scalar2={"phi": phi}))}
    if not smoke:
        z2 = lib.cohomology.z2_basis(g2)
        r = rng(seed, "cli", "nonsc")
        raw = raw_algebra(lib, g2)
        triples = [(i, j, k) for i in range(raw.n) for j in range(raw.n)
                   for k in range(raw.n)]
        while True:  # a 2-cocycle that is not supercyclic
            w = gallery.random_cocycle2(g2, r, basis=z2)
            dense = dense_cochain2(raw.par,
                                   lib.cohomology.collect_cochain2dual(w))
            if any(oracle.supercyclic_defect(raw, dense, *t) for t in triples):
                break
        seeded["seeded_nonsc.sqd"] = dsl.emit(dsl.document_from(
            g2, cochain2={"w": w}))
        w = gallery.random_cochain2(g2, rng(seed, "cli", "noncocycle"))
        seeded["seeded_noncocycle.sqd"] = dsl.emit(dsl.document_from(
            g2, cochain2={"w": w}))
        lines = seeded["seeded_ext.sqd"].splitlines()
        bad_line = rng(seed, "cli", "parse").randint(2, len(lines))
        lines[bad_line - 1] = "bracket [a12,zz9] = a12"
        seeded["seeded_parse_error.sqd"] = "\n".join(lines) + "\n"
    work.mkdir(parents=True, exist_ok=True)
    for f, t in seeded.items():
        (work / f).write_text(t)
        if f != "seeded_parse_error.sqd":
            docs[f] = oracle.read_document(t)
    path = {f: str(root / "corpus" / f) for f in corpus}
    path.update({f: str(work / f) for f in seeded})

    # documents the example pipes feed into the next stage
    examples = {}
    for args in (["example", "gn", "2"], ["example", "class-c", "2"]):
        out = io.StringIO()
        with lib.quiet():
            lib.cli.main(args, out=out)
        examples[args[1]] = out.getvalue()

    ops = []

    def add(name, stages, check, mode="json", repeats=1):
        """One command; with repeats > 1 it runs again right after, and
        every run's stdout must equal the first's byte for byte."""
        flags = ["--text"] if mode == "text" else []
        stages = [list(s) + (flags if i == len(stages) - 1 else [])
                  for i, s in enumerate(stages)]
        shown = "superquad " + " | ".join(" ".join(s) for s in stages)
        shown = shown.replace(f"{root}/", "")
        for k in range(repeats):
            def checker(state, result, first=k == 0):
                code, out = result
                if first:
                    state[name] = out
                else:
                    require(out == state[name], "stdout differs between two "
                            "invocations of the same command")
                check(code, out)
            ops.append(Op(shown + (f" (run {k + 1})" if k else ""),
                          lambda s=stages: run(s), checker, key=shown))

    # check -----------------------------------------------------------------
    def check_check(f):
        def check(code, out):
            rep = _report(code, out, _expected_check_code(docs[f]))
            if code == 1:
                _check_witness(docs[f], rep)
        return check

    for f in corpus:
        add(f"check {f}", [["check", path[f]]], check_check(f))

    def check_check_text(f):
        def check(code, out):
            want = _expected_check_code(docs[f])
            require(code == want, f"exit code {code}, expected {want}")
            require(out.rstrip().endswith(
                "status: " + ("pass" if want == 0 else "fail")), "text status")
        return check

    for f in (["gl11.sqd", "heisenberg3_idgram.sqd"] if not smoke else corpus):
        add(f"check {f} --text", [["check", path[f]]], check_check_text(f),
            mode="text")

    # cohomology --------------------------------------------------------------
    def check_cohomology(doc, digest_of=None):
        def check(code, out):
            rep = _report(code, out, 0)
            if digest_of is not None:
                require(rep["input_digest"] == "sha256:" + hashlib.sha256(
                    digest_of.encode()).hexdigest(), "pipe delivered other input")
            d, o, names = rep["dims"], rep["outputs"], doc.names
            require(d["dim_z2_supercyclic"] == d["dim_z3"]
                    == len(o["z3_basis"]) == len(o["z2_supercyclic_basis"]),
                    "dim Z2_sc and dim Z3 disagree")
            require(d["dim_b3"] == len(o["b3_basis"])
                    and d["dim_h3"] == d["dim_z3"] - d["dim_b3"], "dim H3")
            z3 = [_coords(m, names) for m in o["z3_basis"]]
            b3 = [_coords(m, names) for m in o["b3_basis"]]
            keys = sorted({k for m in z3 + b3 for k in m})
            rows = [[m.get(k, 0) for k in keys] for m in z3 + b3]
            require(oracle.rank(rows[:len(z3)]) == len(z3) == oracle.rank(rows),
                    "Z3 basis dependent or B3 outside Z3")
            raw, par = doc.raw(), tuple(doc.par)
            tag = ",".join(names)
            for label, maps, dense in (
                    ("z2", [_coords(m, names) for m in o["z2_supercyclic_basis"]],
                     dense_cochain2),
                    ("z3", z3, dense_alt3)):
                if maps:
                    w = dense(par, combine(maps, rng(seed, "cli", tag, label)))
                    oracle.check_quadratic(oracle.extension(raw, w))
        return check

    for f in corpus:
        if f not in SKIP_COHOMOLOGY:
            add(f"cohomology {f}", [["cohomology", path[f]]],
                check_cohomology(docs[f]))
    if not smoke:
        gn2_doc = oracle.read_document(examples["gn"])
        add("gn2 | cohomology", [["example", "gn", "2"], ["cohomology"]],
            check_cohomology(gn2_doc, examples["gn"]), repeats=2)

    # tstar -------------------------------------------------------------------
    def check_tstar(f, omega_name, mode="json"):
        doc = docs[f]

        def check(code, out):
            want = _tstar_code(doc, omega_name)
            if mode == "text":
                require(code == want, f"exit code {code}, expected {want}")
                _check_extension_doc(doc, _omega(doc, omega_name), out)
                return
            rep = _report(code, out, want)
            if code == 1:
                _check_witness(doc, rep)
            elif code == 0:
                _check_extension_doc(doc, _omega(doc, omega_name),
                                     rep["outputs"]["document"])
        return check

    for f in corpus:
        omega_name = "w" if f == "h3_volume_cochains.sqd" else None
        args = ["tstar", path[f]] + (["--omega", "w"] if omega_name else [])
        add(f"tstar {f}", [args], check_tstar(f, omega_name))
    tstar_seeded = ["seeded_ext.sqd"] + ([] if smoke else
                                         ["seeded_nonsc.sqd",
                                          "seeded_noncocycle.sqd"])
    for f in tstar_seeded:
        add(f"tstar {f}", [["tstar", path[f], "--omega", "w"]],
            check_tstar(f, "w"))
    add("tstar seeded_ext.sqd --text",
        [["tstar", path["seeded_ext.sqd"], "--omega", "w"]],
        check_tstar("seeded_ext.sqd", "w", "text"), mode="text",
        repeats=1 if smoke else 2)

    # isometry ------------------------------------------------------------------
    def check_isometry(f):
        doc = docs[f]

        def check(code, out):
            rep = _report(code, out, 0)
            raw, par = doc.raw(), tuple(doc.par)
            w1 = doc.dense_cochain2("w")
            d = oracle.delta(raw, doc.dense_scalar2("phi"))
            w2 = dense_cochain2(par, _coords(rep["outputs"]["omega2"], doc.names))
            require(oracle.flatten(w2) == oracle.flatten(oracle.tensor_sub(w1, d)),
                    "omega2 != omega1 - delta(phi)")
            oracle.check_morphism(oracle.extension(raw, w1),
                                  oracle.extension(raw, w2),
                                  _matrix(rep["outputs"]["map"]))
        return check

    iso_files = ["seeded_ext.sqd"] + ([] if smoke else ["h3_volume_cochains.sqd"])
    for f in iso_files:
        add(f"isometry {f}",
            [["isometry", path[f], "--phi", "phi", "--omega", "w"]],
            check_isometry(f))

    # recognize and decompose -------------------------------------------------
    def check_recognize(f):
        def check(code, out):
            rep = _report(code, out, 0)
            src = docs[f].raw()
            ext = oracle.read_document(rep["outputs"]["extension"]).raw()
            oracle.check_quadratic(ext)
            require(ext.n == src.n, "recognized extension has another dim")
            oracle.check_morphism(src, ext, _matrix(rep["outputs"]["isometry"]))
        return check

    def check_decompose(doc, mode="json", digest_of=None):
        def check(code, out):
            raw = doc.raw()
            want = 0 if _form_ok(raw) else 1
            if mode == "text":
                require(code == want, f"exit code {code}, expected {want}")
                require(out.rstrip().endswith("status: pass"), "text status")
                return
            rep = _report(code, out, want)
            if code == 1:
                _check_witness(doc, rep)
                return
            if digest_of is not None:
                require(rep["input_digest"] == "sha256:" + hashlib.sha256(
                    digest_of.encode()).hexdigest(), "pipe delivered other input")
            o = rep["outputs"]
            oracle.check_isotropic_ideal(raw, _matrix(o["ideal"]))
            ext = oracle.read_document(o["extension"]).raw()
            oracle.check_quadratic(ext)
            oracle.check_morphism(raw, ext, _matrix(o["embedding"]))
        return check

    if not smoke:
        for f, ideal in RECOGNIZE:
            add(f"recognize {f}", [["recognize", path[f], "--ideal", ideal]],
                check_recognize(f))
        for f in DECOMPOSE:
            add(f"decompose {f}", [["decompose", path[f]]],
                check_decompose(docs[f]))
        add("decompose hyperbolic_odd.sqd --text",
            [["decompose", path["hyperbolic_odd.sqd"]]],
            check_decompose(docs["hyperbolic_odd.sqd"], "text"), mode="text")
        cc2 = oracle.read_document(examples["class-c"])
        # the largest instance runs nine times, so that op_max_s is a
        # median rather than one sample; run_s counts it once, at that median
        add("class-c 2 | decompose",
            [["example", "class-c", "2"], ["decompose"]],
            check_decompose(cc2, digest_of=examples["class-c"]), repeats=9)

        # an input error: exit 2 with the line of the bad statement
        def check_parse_error(code, out):
            rep = _report(code, out, 2)
            require(rep["error"]["kind"] == "parse"
                    and rep["error"]["line"] == bad_line,
                    f"parse error not reported at line {bad_line}")
        add("check seeded_parse_error.sqd",
            [["check", path["seeded_parse_error.sqd"]]], check_parse_error)
    return ops

