"""Command-line front end.

One command per invocation; every command reads a DSL document from a
file (or stdin with ``-``), writes a deterministic report to stdout and
exits 0 when all mathematical checks pass, 1 when one fails (the report
carries a witness) and 2 on input, parse, undecided or internal errors,
an internal one being a failed check of the library's own output.
``example`` is the exception: it emits a bare DSL document so its output
can be piped into the other commands.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import dsl
from .cohomology import (b3_basis, collect_cochain2dual, cocycle2_violation,
                         supercyclic_violation, z2_supercyclic_basis,
                         z3_basis, zero_cochain2)
from .decompose import decompose as run_decompose
from .errors import (AxiomError, CocycleError, FormError,
                     InternalCheckError, NotIdealError, NotSupercyclicError,
                     PreconditionError, RationalPointNotFound,
                     SuperquadError, UndecidedError)
from .forms import QuadraticLieSuperalgebra
from .gallery import (ABELIAN_RE, build_class_c_example, build_glnn,
                      build_gn, stock, STOCK_NAMES)
from .superalgebra import (AxiomReport, center, class_condition,
                           is_nilpotent, is_solvable, require_axioms)
from .tstar import build, recognize, s_phi_isometry

SCHEMA_VERSION = 1


class Report:
    def __init__(self, command: str, seed: int, text_mode: bool):
        self.command, self.seed, self.text_mode = command, seed, text_mode
        self.checks: list[dict] = []
        self.dims, self.outputs, self.input_digest = {}, {}, None

    def check(self, name: str, passed: bool, witness=None):
        self.checks.append(
            {"name": name, "passed": bool(passed), "witness": witness})

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
            out.write(f"{prefix}status: {'pass' if self.passed else 'fail'}\n")
        else:
            if document is not None:
                self.outputs["document"] = document
            json.dump(self.as_dict(), out, sort_keys=True, indent=2)
            out.write("\n")
        return 0 if self.passed else 1


def _error_exit(out, kind: str, message: str, text_mode: bool,
                line: int | None = None, column: int | None = None) -> int:
    payload = {"schema": SCHEMA_VERSION, "error": {
        "kind": kind, "message": message, "line": line, "column": column}}
    if text_mode:  # a parse error's message already names its location
        out.write(f"error[{kind}]: {message}\n")
    else:
        json.dump(payload, out, sort_keys=True, indent=2)
        out.write("\n")
    return 2


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(str(exc)) from None


def _strs(x) -> list:
    return [_strs(r) if isinstance(r, tuple) else str(r) for r in x]


def _triple_names(doc_names, t):
    return None if t is None else [doc_names[i] for i in t]


def _entries_strs(entries: dict, names) -> dict:
    return {",".join(names[i] for i in key): str(q)
            for key, q in sorted(entries.items())}


def _verify(report: Report, doc, alg, form):
    """Report the axioms, and the form if given, from one check with the
    witnesses its error carries: the quadratic algebra's construction, or
    require_axioms.  Returns whether the axioms hold, and q or None."""
    q, ax, bad = None, AxiomReport(()), FormError()
    try:
        if form is None:
            require_axioms(alg)
        else:
            q = QuadraticLieSuperalgebra(alg, form)
    except AxiomError as exc:
        ax = exc.report
    except FormError as exc:
        bad = exc
    # the grading and super-skew-symmetry held when alg was built
    report.check("axioms.grading", True)
    report.check("axioms.super_skew", True)
    report.check("axioms.jacobi", ax.passed, _triple_names(
        doc.names, ax.jacobi[0]) if ax.jacobi else None)
    if form is not None and ax.passed:
        report.check("form.nondegenerate", bad.radical is None,
                     bad.radical and _strs(bad.radical))
        report.check("form.invariant", bad.witness is None,
                     _triple_names(doc.names, bad.witness))
    return ax.passed, q


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_check(args, report: Report, out, doc, alg, q) -> int:
    report.dims.update(
        dim=alg.dim, dim_even=alg.basis.even_dim, dim_odd=alg.basis.odd_dim,
        dim_center=center(alg).dim, nilpotent=is_nilpotent(alg),
        solvable=is_solvable(alg), class_condition=class_condition(alg))
    return report.render(out)


def _with_omega(args, report: Report, doc, alg, label: str, make):
    """make(omega) for the cochain named by --omega (default 0), with its
    cocycle and supercyclicity checks reported under ``label`` off the
    error that build raises; None when one fails."""
    if args.omega is not None and args.omega not in doc.cochain2:
        raise PreconditionError(
            f"document defines no cochain2 named {args.omega!r}")
    omega = (zero_cochain2(alg) if args.omega is None
             else dsl.document_cochain2(doc, args.omega))
    result = bad = cocycle = None
    try:
        result = make(omega)
    except CocycleError as exc:
        bad = cocycle = exc.triple
    except NotSupercyclicError as exc:
        bad = exc.triple
    report.check(f"{label}.cocycle", cocycle is None,
                 _triple_names(doc.names, cocycle))
    if cocycle is None:
        report.check(f"{label}.supercyclic", bad is None,
                     _triple_names(doc.names, bad))
    return result


def _cmd_tstar(args, report: Report, out, doc, alg, q) -> int:
    ext = _with_omega(args, report, doc, alg, "omega", lambda w: build(alg, w))
    if ext is None:
        return report.render(out)
    report.check("extension.axioms", True)
    report.check("extension.form_invariant", True)
    report.dims["dim"] = ext.total.dim
    document = dsl.emit(dsl.document_quadratic(ext.total))
    return report.render(out, document=document)


def _cmd_cohomology(args, report: Report, out, doc, alg, q) -> int:
    z3, b3 = z3_basis(alg), b3_basis(alg)
    z2sc = z2_supercyclic_basis(alg)
    report.dims.update(dim_z2_supercyclic=len(z2sc), dim_z3=len(z3),
                       dim_b3=len(b3), dim_h3=len(z3) - len(b3))
    bad = ([len(z2sc), len(z3)] if len(z2sc) != len(z3) else next(
        (i for i, w in enumerate(z2sc) if supercyclic_violation(w)
         or cocycle2_violation(alg, w)), None))
    report.check("hat.dimension_agreement", bad is None, bad)
    for key, basis in (("z3_basis", z3), ("b3_basis", b3),
                       ("z2_supercyclic_basis", z2sc)):
        report.outputs[key] = [_entries_strs(f.coords, doc.names)
                               for f in basis]
    return report.render(out)


def _cmd_isometry(args, report: Report, out, doc, alg, q) -> int:
    if args.phi not in doc.scalar2:
        raise PreconditionError(
            f"document defines no scalar2 named {args.phi!r}")
    phi = dsl.document_scalar2(doc, args.phi)
    shear = _with_omega(args, report, doc, alg, "omega1",
                        lambda w: s_phi_isometry(alg, w, phi))
    if shear is None:
        return report.render(out)
    report.check("shear.isometry_verified", True)
    report.outputs["omega2"] = _entries_strs(
        collect_cochain2dual(shear.target.omega), doc.names)
    report.outputs["map"] = _strs(shear.matrix)
    return report.render(out)


def _cmd_recognize(args, report: Report, out, doc, alg, q) -> int:
    if q is None:
        raise PreconditionError("recognition needs a form in the document")
    ideal = dsl.parse_span(doc, args.ideal)
    report.dims["ideal_dim"] = ideal.dim
    dims = pair = bad = None
    try:
        ext, psi = recognize(q, ideal)
    except PreconditionError as exc:
        if exc.dims is None and exc.pair is None:
            raise
        dims, pair = exc.dims, exc.pair
    except NotIdealError as exc:
        bad = exc.witness
    report.check("ideal.half_dimension", dims is None, dims and list(dims))
    report.check("ideal.totally_isotropic", pair is None,
                 pair and _strs(pair))
    if not (dims or pair):
        report.check("ideal.is_ideal", bad is None,
                     bad and [doc.names[bad[0]], _strs(bad[1])])
    if not report.passed:
        return report.render(out)
    report.check("recognition.isometry_verified", True)
    report.outputs["quotient"] = dsl.emit(dsl.document_from(ext.base))
    report.outputs["omega"] = _entries_strs(
        collect_cochain2dual(ext.omega), ext.base.basis.names)
    report.outputs["extension"] = dsl.emit(dsl.document_quadratic(ext.total))
    report.outputs["isometry"] = _strs(psi)
    return report.render(out)


def _cmd_decompose(args, report: Report, out, doc, alg, q) -> int:
    if q is None:
        raise PreconditionError("decomposition needs a form in the document")
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
    report.dims.update(parity_case=dec.parity_case, ideal_dim=dec.ideal.dim,
                       extension_dim=dec.extension.total.dim)
    report.outputs["ideal"] = _strs(dec.ideal.vectors)
    report.outputs["quotient"] = dsl.emit(dsl.document_from(dec.quotient))
    report.outputs["extension"] = dsl.emit(
        dsl.document_quadratic(dec.extension.total))
    report.outputs["embedding"] = _strs(dec.embedding)
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
        doc = (dsl.document_quadratic(build_class_c_example(n))
               if kind == "class-c" else dsl.document_from(
                   (build_gn if kind == "gn" else build_glnn)(n)))
    elif kind == "stock":
        m = ABELIAN_RE.match(args.value)
        if m and int(m[1]) + int(m[2]) > 30 and not args.allow_large:
            raise PreconditionError(
                "abelian(p|q) above p + q = 30 is gated behind --allow-large")
        obj = stock(args.value)
        doc = (dsl.document_quadratic if isinstance(
            obj, QuadraticLieSuperalgebra) else dsl.document_from)(obj)
    else:  # pragma: no cover - argparse restricts choices
        raise PreconditionError(f"unknown example kind {kind!r}")
    out.write(dsl.emit(doc))
    return 0


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

    def add(name, fn, help, file=True):
        p = sub.add_parser(name, parents=[shared], help=help)
        p.set_defaults(fn=fn)
        if file:  # every command but example reads a document
            p.add_argument("file", nargs="?", default="-")
        return p

    add("check", _cmd_check, help="verify axioms, form properties and "
        "structural predicates")

    p = add("tstar", _cmd_tstar, help="build the T*-extension and emit it "
            "as a DSL document")
    p.add_argument("--omega", default=None,
                   help="name of a cochain2 in the document (default: 0)")

    add("cohomology", _cmd_cohomology, help="dimensions and bases of "
        "the supercyclic 2-cocycles and scalar 3-cocycle spaces")

    p = add("isometry", _cmd_isometry, help="build the shear isometry "
            "attached to a scalar 2-cochain")
    p.add_argument("--phi", required=True,
                   help="name of a scalar2 in the document")
    p.add_argument("--omega", default=None,
                   help="name of a cochain2 in the document (default: 0)")

    p = add("recognize", _cmd_recognize, help="present a quadratic "
            "superalgebra as a T*-extension along a given ideal")
    p.add_argument("--ideal", required=True,
                   help="semicolon-separated spanning expressions, e.g. "
                   "'e1*; e2*'")

    add("decompose", _cmd_decompose, help="find a maximal isotropic "
        "ideal and present the algebra through a T*-extension")

    p = add("example", _cmd_example, help="emit a gallery algebra as a DSL "
            "document", file=False)
    p.add_argument("kind", choices=("gn", "glnn", "class-c", "stock"))
    p.add_argument("value", help="size for gn/glnn/class-c, name for stock "
                   f"(one of: {', '.join(STOCK_NAMES)})")
    p.add_argument("--allow-large", action="store_true",
                   help="allow sizes above 4, and abelian(p|q) above 30")
    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # a report writes every value in full
    try:
        code = _run(argv, out)
        out.flush()
        return code
    except BrokenPipeError:  # the reader closed stdout: the report is lost
        if out is sys.stdout:  # so the interpreter's last flush is silent
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    finally:
        sys.set_int_max_str_digits(digits)


def _run(argv, out) -> int:
    args = make_parser().parse_args(argv, argparse.Namespace(
        json=True, seed=0, max_dim=30))  # the global defaults
    text_mode = not args.json
    report = Report(args.command, args.seed, text_mode)
    try:
        if args.command == "example":
            return args.fn(args, out)
        text = _read_input(args.file)
        report.input_digest = "sha256:" + hashlib.sha256(
            text.encode()).hexdigest()
        doc = dsl.parse(text)
        if doc.dim > args.max_dim:
            raise PreconditionError(f"document dimension {doc.dim} exceeds "
                                    f"--max-dim {args.max_dim}")
        alg = dsl.document_algebra(doc)
        uses_form = args.fn in (_cmd_check, _cmd_recognize, _cmd_decompose)
        passed, q = _verify(report, doc, alg,
                            dsl.document_form(doc) if uses_form else None)
        # check reports its structure facts past a failed form check too
        if not (passed if args.fn is _cmd_check else report.passed):
            return report.render(out)
        return args.fn(args, report, out, doc, alg, q)
    except dsl.ParseError as exc:
        return _error_exit(out, "parse", str(exc), text_mode,
                           exc.line, exc.column)
    except UndecidedError as exc:
        return _error_exit(out, "undecided", str(exc), text_mode)
    except InternalCheckError as exc:
        return _error_exit(out, "internal", str(exc), text_mode)
    except SuperquadError as exc:
        return _error_exit(out, "input", str(exc), text_mode)


if __name__ == "__main__":
    sys.exit(main())
