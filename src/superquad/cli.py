"""Command-line front end.

One command per invocation; every command reads a DSL document from a
file (or stdin with ``-``), writes a deterministic report to stdout and
exits 0 when all mathematical checks pass, 1 when one fails (the report
carries a witness) and 2 on input, parse or undecided errors.
``example`` is the exception: it emits a bare DSL document so its output
can be piped into the other commands.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from . import dsl
from .cohomology import (b3_basis, collect_alt3, collect_cochain2dual,
                         cocycle2_violation, supercyclic_violation,
                         z2_supercyclic_basis, z3_basis, zero_cochain2)
from .decompose import decompose as run_decompose
from .errors import (FormError, NotIdealError, PreconditionError,
                     RationalPointNotFound, SuperquadError, UndecidedError)
from .forms import (QuadraticLieSuperalgebra, invariance_violation,
                    is_nondegenerate, is_totally_isotropic, radical)
from .gallery import (build_class_c_example, build_glnn, build_gn, stock,
                      STOCK_NAMES)
from .superalgebra import (ad_images, center, check_axioms, class_condition,
                           is_nilpotent, is_solvable)
from .tstar import build, recognize, s_phi_isometry

SCHEMA_VERSION = 1


class Report:
    def __init__(self, command: str, seed: int, text_mode: bool):
        self.command = command
        self.seed = seed
        self.text_mode = text_mode
        self.checks: list[dict] = []
        self.dims: dict = {}
        self.outputs: dict = {}
        self.input_digest: str | None = None

    def digest(self, text: str):
        self.input_digest = "sha256:" + hashlib.sha256(
            text.encode()).hexdigest()

    def check(self, name: str, passed: bool, witness=None):
        self.checks.append({
            "name": name,
            "passed": bool(passed),
            "witness": witness,
        })

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "seed": self.seed,
            "input_digest": self.input_digest,
            "checks": self.checks,
            "dims": self.dims,
            "outputs": self.outputs,
            "status": "pass" if self.passed else "fail",
        }

    def render(self, out, document: str | None = None) -> int:
        if self.text_mode:
            if document is not None:
                out.write(document)
            prefix = "# " if document is not None else ""
            for c in self.checks:
                line = f"{prefix}{c['name']}: " + (
                    "PASS" if c["passed"] else "FAIL")
                if c["witness"] is not None:
                    line += f"  witness={c['witness']}"
                out.write(line + "\n")
            for k, v in sorted(self.dims.items()):
                out.write(f"{prefix}{k} = {v}\n")
            if document is None:
                for k, v in sorted(self.outputs.items()):
                    if isinstance(v, str) and "\n" in v:
                        out.write(f"--- {k} ---\n{v}")
                    else:
                        out.write(f"{k} = {v}\n")
            out.write(f"{prefix}status: "
                      f"{'pass' if self.passed else 'fail'}\n")
        else:
            if document is not None:
                self.outputs["document"] = document
            json.dump(self.as_dict(), out, sort_keys=True, indent=2)
            out.write("\n")
        return 0 if self.passed else 1


def _error_exit(out, kind: str, message: str, text_mode: bool,
                line: int | None = None, column: int | None = None) -> int:
    payload = {
        "schema": SCHEMA_VERSION,
        "error": {"kind": kind, "message": message,
                  "line": line, "column": column},
    }
    if text_mode:  # a parse error's message already names its location
        out.write(f"error[{kind}]: {message}\n")
    else:
        json.dump(payload, out, sort_keys=True, indent=2)
        out.write("\n")
    return 2


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _fr(q: Fraction) -> str:
    return str(q)


def _vec_strs(v) -> list[str]:
    return [_fr(q) for q in v]


def _mat_strs(m) -> list[list[str]]:
    return [_vec_strs(r) for r in m]


def _triple_names(doc_names, t):
    if t is None:
        return None
    if isinstance(t, tuple):
        return [doc_names[i] if isinstance(i, int) and i < len(doc_names)
                else i for i in t]
    return t


def _entries_strs(entries: dict, names) -> dict:
    out = {}
    for key, q in sorted(entries.items()):
        label = ",".join(names[i] for i in key)
        out[label] = _fr(q)
    return out


def _axiom_checks(report: Report, doc, alg) -> bool:
    ax = check_axioms(alg)
    names = doc.names
    report.check("axioms.grading", not ax.grading,
                 _triple_names(names, ax.grading[0]) if ax.grading else None)
    report.check("axioms.super_skew", not ax.skew,
                 _triple_names(names, ax.skew[0]) if ax.skew else None)
    report.check("axioms.jacobi", not ax.jacobi,
                 _triple_names(names, ax.jacobi[0]) if ax.jacobi else None)
    return ax.passed


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_check(args, report: Report, out, doc, alg) -> int:
    report.dims["dim"] = alg.dim
    report.dims["dim_even"] = alg.basis.even_dim
    report.dims["dim_odd"] = alg.basis.odd_dim
    report.dims["dim_center"] = center(alg).dim
    report.dims["nilpotent"] = is_nilpotent(alg)
    report.dims["solvable"] = is_solvable(alg)
    report.dims["class_condition"] = class_condition(alg)
    form = dsl.document_form(doc)
    if form is not None:
        _form_checks(report, doc, alg, form)
    return report.render(out)


def _radical_vector(form):
    """A nonzero vector pairing to zero with everything, as a witness."""
    ker = radical(form)
    return _vec_strs(ker[0]) if ker else None


def _form_checks(report: Report, doc, alg, form) -> None:
    nondeg = is_nondegenerate(form)
    report.check("form.nondegenerate", nondeg,
                 None if nondeg else _radical_vector(form))
    w = invariance_violation(alg, form)
    report.check("form.invariant", w is None, _triple_names(doc.names, w))


def _isotropy_witness(form, w):
    return next(([_vec_strs(u), _vec_strs(v)] for u in w.vectors
                 for v in w.vectors if form.apply(u, v) != 0), None)


def _ideal_witness(alg, w, names):
    m = len(w.vectors)
    for t, image in enumerate(ad_images(alg, w.vectors)):
        if not w.contains_vector(image):
            return [names[t // m], _vec_strs(w.vectors[t % m])]
    return None


def _document_omega(args, report: Report, doc, alg, label: str):
    """The cochain named by --omega (default 0), with its cocycle and
    supercyclicity checks reported under ``label``."""
    if args.omega is None:
        omega = zero_cochain2(alg)
    elif args.omega in doc.cochain2:
        omega = dsl.document_cochain2(doc, args.omega)
    else:
        raise PreconditionError(
            f"document defines no cochain2 named {args.omega!r}")
    bad = cocycle2_violation(alg, omega)
    report.check(f"{label}.cocycle", bad is None, _triple_names(doc.names, bad))
    if bad is None:
        bad = supercyclic_violation(omega)
        report.check(f"{label}.supercyclic", bad is None,
                     _triple_names(doc.names, bad))
    return omega


def _document_quadratic(report: Report, doc, alg, what: str):
    """The document's quadratic algebra, or None when a form check fails;
    the witnesses are only searched for after a failure."""
    form = dsl.document_form(doc)
    if form is None:
        raise PreconditionError(f"{what} needs a form in the document")
    try:
        q = QuadraticLieSuperalgebra(alg, form)
    except FormError:
        _form_checks(report, doc, alg, form)
        if report.passed:
            raise
        return None
    report.check("form.nondegenerate", True)
    report.check("form.invariant", True)
    return q


def _cmd_tstar(args, report: Report, out, doc, alg) -> int:
    omega = _document_omega(args, report, doc, alg, "omega")
    if not report.passed:
        return report.render(out)
    ext = build(alg, omega)
    report.check("extension.axioms", True)
    report.check("extension.form_invariant", True)
    report.dims["dim"] = ext.total.dim
    document = dsl.emit(dsl.document_quadratic(ext.total))
    return report.render(out, document=document)


def _cmd_cohomology(args, report: Report, out, doc, alg) -> int:
    z2sc = z2_supercyclic_basis(alg)
    z3 = z3_basis(alg)
    b3 = b3_basis(alg)
    report.dims["dim_z2_supercyclic"] = len(z2sc)
    report.dims["dim_z3"] = len(z3)
    report.dims["dim_b3"] = len(b3)
    report.dims["dim_h3"] = len(z3) - len(b3)
    agree = len(z2sc) == len(z3)
    report.check("hat.dimension_agreement", agree,
                 None if agree else [len(z2sc), len(z3)])
    report.outputs["z3_basis"] = [
        _entries_strs(collect_alt3(f), doc.names) for f in z3]
    report.outputs["b3_basis"] = [
        _entries_strs(collect_alt3(f), doc.names) for f in b3]
    report.outputs["z2_supercyclic_basis"] = [
        _entries_strs(collect_cochain2dual(w), doc.names) for w in z2sc]
    return report.render(out)


def _cmd_isometry(args, report: Report, out, doc, alg) -> int:
    if args.phi not in doc.scalar2:
        raise PreconditionError(
            f"document defines no scalar2 named {args.phi!r}")
    phi = dsl.document_scalar2(doc, args.phi)
    omega1 = _document_omega(args, report, doc, alg, "omega1")
    if not report.passed:
        return report.render(out)
    shear = s_phi_isometry(alg, omega1, phi)
    report.check("shear.isometry_verified", True)
    report.outputs["omega2"] = _entries_strs(
        collect_cochain2dual(shear.target.omega), doc.names)
    report.outputs["map"] = _mat_strs(shear.matrix)
    return report.render(out)


def _cmd_recognize(args, report: Report, out, doc, alg) -> int:
    q = _document_quadratic(report, doc, alg, "recognition")
    if q is None:
        return report.render(out)
    ideal = dsl.parse_span(doc, args.ideal)
    report.dims["ideal_dim"] = ideal.dim
    halfdim = q.dim % 2 == 0 and 2 * ideal.dim == q.dim
    report.check("ideal.half_dimension", halfdim,
                 None if halfdim else [ideal.dim, q.dim])
    isotropic = is_totally_isotropic(q.form, ideal)
    report.check("ideal.totally_isotropic", isotropic,
                 None if isotropic else _isotropy_witness(q.form, ideal))
    if not report.passed:
        return report.render(out)
    try:
        ext, psi = recognize(q, ideal)
    except NotIdealError:
        report.check("ideal.is_ideal", False,
                     _ideal_witness(q.algebra, ideal, doc.names))
        return report.render(out)
    report.check("ideal.is_ideal", True)
    report.check("recognition.isometry_verified", True)
    report.outputs["quotient"] = dsl.emit(dsl.document_from(ext.base))
    report.outputs["omega"] = _entries_strs(
        collect_cochain2dual(ext.omega), ext.base.basis.names)
    report.outputs["extension"] = dsl.emit(dsl.document_quadratic(ext.total))
    report.outputs["isometry"] = _mat_strs(psi)
    return report.render(out)


def _cmd_decompose(args, report: Report, out, doc, alg) -> int:
    q = _document_quadratic(report, doc, alg, "decomposition")
    if q is None:
        return report.render(out)
    try:
        dec = run_decompose(q)
    except RationalPointNotFound as exc:
        report.check("decomposition.rational_point", False,
                     exc.quadric_str or exc.polynomial_str or str(exc))
        if exc.obstruction is not None:
            report.dims["obstruction"] = exc.obstruction
        return report.render(out)
    report.check("decomposition.flag_complete", True)
    report.check("decomposition.embedding_verified", True)
    report.dims["parity_case"] = dec.parity_case
    report.dims["ideal_dim"] = dec.ideal.dim
    report.dims["extension_dim"] = dec.extension.total.dim
    report.outputs["ideal"] = _mat_strs(dec.ideal.vectors)
    report.outputs["quotient"] = dsl.emit(dsl.document_from(dec.quotient))
    report.outputs["extension"] = dsl.emit(
        dsl.document_quadratic(dec.extension.total))
    report.outputs["embedding"] = _mat_strs(dec.embedding)
    return report.render(out)


def _cmd_example(args, out) -> int:
    kind = args.kind
    if kind in ("gn", "glnn", "class-c"):
        try:
            n = int(args.value)
        except ValueError:
            raise PreconditionError("expected an integer size") from None
        if n < 1:
            raise PreconditionError("size must be at least 1")
        if n > 4 and not args.allow_large:
            raise PreconditionError(
                "sizes above 4 are gated behind --allow-large")
        if kind == "gn":
            doc = dsl.document_from(build_gn(n))
        elif kind == "glnn":
            doc = dsl.document_from(build_glnn(n))
        else:
            doc = dsl.document_quadratic(build_class_c_example(n))
    elif kind == "stock":
        obj = stock(args.value)
        if isinstance(obj, QuadraticLieSuperalgebra):
            doc = dsl.document_quadratic(obj)
        else:
            doc = dsl.document_from(obj)
    else:  # pragma: no cover - argparse restricts choices
        raise PreconditionError(f"unknown example kind {kind!r}")
    out.write(dsl.emit(doc))
    return 0


_GLOBAL_DEFAULTS = {"json": True, "seed": 0, "max_dim": 30}


def _global_options() -> argparse.ArgumentParser:
    """Global flags, accepted before or after the subcommand name."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--json", dest="json", action="store_true",
                   default=argparse.SUPPRESS,
                   help="machine-readable report (default)")
    p.add_argument("--text", dest="json", action="store_false",
                   default=argparse.SUPPRESS,
                   help="human-readable report")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="seed echoed into reports (reserved for randomized "
                   "subcommands)")
    p.add_argument("--max-dim", type=int, default=argparse.SUPPRESS,
                   help="refuse documents above this dimension (default 30)")
    return p


def make_parser() -> argparse.ArgumentParser:
    shared = _global_options()
    parser = argparse.ArgumentParser(
        prog="superquad",
        parents=[shared],
        description="Exact-arithmetic toolkit for quadratic Lie "
                    "superalgebras and their T*-extensions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, parents=[shared], **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("check", _cmd_check, help="verify axioms, form properties and "
            "structural predicates")
    p.add_argument("file", nargs="?", default="-")

    p = add("tstar", _cmd_tstar, help="build the T*-extension and emit it "
            "as a DSL document")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--omega", default=None,
                   help="name of a cochain2 in the document (default: 0)")

    p = add("cohomology", _cmd_cohomology, help="dimensions and bases of "
            "the supercyclic 2-cocycles and scalar 3-cocycle spaces")
    p.add_argument("file", nargs="?", default="-")

    p = add("isometry", _cmd_isometry, help="build the shear isometry "
            "attached to a scalar 2-cochain")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--phi", required=True,
                   help="name of a scalar2 in the document")
    p.add_argument("--omega", default=None,
                   help="name of a cochain2 in the document (default: 0)")

    p = add("recognize", _cmd_recognize, help="present a quadratic "
            "superalgebra as a T*-extension along a given ideal")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--ideal", required=True,
                   help="semicolon-separated spanning expressions, e.g. "
                   "'e1*; e2*'")

    p = add("decompose", _cmd_decompose, help="find a maximal isotropic "
            "ideal and present the algebra through a T*-extension")
    p.add_argument("file", nargs="?", default="-")

    p = add("example", _cmd_example, help="emit a gallery algebra as a DSL "
            "document")
    p.add_argument("kind", choices=("gn", "glnn", "class-c", "stock"))
    p.add_argument("value", help="size for gn/glnn/class-c, name for stock "
                   f"(one of: {', '.join(STOCK_NAMES)})")
    p.add_argument("--allow-large", action="store_true",
                   help="allow sizes above 4")
    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = make_parser()
    args = parser.parse_args(argv)
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    text_mode = not args.json
    report = Report(args.command, args.seed, text_mode)
    try:
        if args.command == "example":
            return args.fn(args, out)
        text = _read_input(args.file)
        report.digest(text)
        doc = dsl.parse(text)
        if doc.dim == 0:
            raise dsl.ParseError("document declares no basis", 1, 1)
        if doc.dim > args.max_dim:
            raise PreconditionError(f"document dimension {doc.dim} exceeds "
                                    f"--max-dim {args.max_dim}")
        alg = dsl.document_algebra(doc)
        if not _axiom_checks(report, doc, alg):
            return report.render(out)
        return args.fn(args, report, out, doc, alg)
    except dsl.ParseError as exc:
        return _error_exit(out, "parse", str(exc), text_mode,
                           exc.line, exc.column)
    except UndecidedError as exc:
        return _error_exit(out, "undecided", str(exc), text_mode)
    except (FileNotFoundError, SuperquadError) as exc:
        return _error_exit(out, "input", str(exc), text_mode)


if __name__ == "__main__":
    sys.exit(main())
