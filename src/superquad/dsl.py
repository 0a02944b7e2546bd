"""Line-oriented text format for superalgebras, forms and cochains.

Grammar (docs/grammar.ebnf has the formal version)::

    basis e1:even e2:odd ...
    bracket [a,b] = 2*c + 1/3*d
    form B(a,b) = 1/2
    cochain2 w(a,b;c) = q        # value of w(a,b) on c
    cochain3 f(a,b,c) = q
    scalar2 phi(a,b) = q
    # comment

Scalars are exact rationals written as integers or p/q.  Unspecified
entries default to zero.  Each form or cochain entry is stored under its
container's free coordinate, with the sign of the one Koszul rule
``superalgebra.canon``, so symmetric/skew completions are automatic; an
explicit entry that contradicts the completion (or restates it with a
different value) is a hard error, as is any entry that violates the
parity rules.  Every entry statement declares its name.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from .cohomology import Cochain2Dual, ScalarCochain2, ScalarCochain3
from .errors import SuperquadError
from .forms import EvenForm, QuadraticLieSuperalgebra
from .linalg import Record, Vec, dense_vec, vec_is_zero, vec_scale, zero_vec
from .superalgebra import (EVEN, ODD, GradedBasis, LieSuperalgebra, Subspace,
                           canon, graded_basis, sgn, subspace)


class ParseError(SuperquadError):
    line = column = None

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}",
                         line=line, column=column)


LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_*']*")
RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")
MAX_DIGITS = 4300  # per integer of a literal: Python's default int cap


class AlgebraDocument(Record):
    """Parsed, canonicalized form of a DSL file.

    All entry maps hold only canonical nonzero coordinates, so documents
    compare by structural content rather than by surface syntax.  It is
    mutable, as :func:`parse` fills it; an entry map left out starts empty.
    """

    names: tuple[str, ...]
    parities: tuple[int, ...]
    brackets: dict      # (i,j) -> Vec
    form_name: str | None
    form_entries: dict  # (i,j), i<=j -> Fraction
    cochain2: dict      # name -> {(i,j,k): q}
    cochain3: dict      # name -> {(i,j,k): q}
    scalar2: dict       # name -> {(i,j): q}

    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, names=(), parities=(), brackets=None, form_name=None,
                 form_entries=None, cochain2=None, cochain3=None,
                 scalar2=None):
        maps = [{} if m is None else m for m in
                (brackets, form_entries, cochain2, cochain3, scalar2)]
        Record.__init__(self, names, parities, maps[0], form_name, *maps[1:])

    @property
    def dim(self) -> int:
        return len(self.names)

    def basis(self) -> GradedBasis:
        return graded_basis(self.names, self.parities)


class _LineParser:
    """Tokenizer over one line, tracking columns for error messages."""

    def __init__(self, text: str, lineno: int):
        self.text, self.lineno, self.pos = text, lineno, 0

    def error(self, message: str):
        raise ParseError(message, self.lineno, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def literal(self, s: str):
        if not self.try_literal(s):
            self.error(f"expected {s!r}")

    def try_literal(self, s: str) -> bool:
        self.skip_ws()
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def token(self, pattern: re.Pattern, what: str) -> str:
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if not m:
            self.error(f"expected {what}")
        self.pos = m.end()
        return m.group(0)

    def label(self) -> str:
        return self.token(LABEL_RE, "a basis label")

    def rational(self) -> Fraction:
        text = self.token(RATIONAL_RE, "a rational number")
        message = f"integer has over {MAX_DIGITS} digits"
        if max(map(len, text.lstrip("-").split("/"))) <= MAX_DIGITS:
            try:
                return Fraction(text)
            except ZeroDivisionError:
                message = "denominator must be nonzero"
        self.pos -= len(text)
        self.error(message)


def _require_basis(lp: _LineParser, doc: AlgebraDocument):
    if not doc.names:
        lp.error("basis must be declared before this statement")


def _index(lp: _LineParser, doc: AlgebraDocument, label: str) -> int:
    try:
        return doc.names.index(label)
    except ValueError:
        lp.error(f"undeclared basis label {label!r}")


def _parse_lincomb(lp: _LineParser, doc: AlgebraDocument) -> Vec:
    out = list(zero_vec(doc.dim))
    first = True
    while first or not lp.at_end():
        sign = -1 if lp.try_literal("-") else 1
        if sign == 1 and not lp.try_literal("+") and not first:
            lp.error("expected '+' or '-'")
        lp.skip_ws()
        if lp.text[lp.pos:lp.pos + 1].isdigit():
            coeff = lp.rational()
            if lp.try_literal("*"):
                out[_index(lp, doc, lp.label())] += sign * coeff
            elif coeff != 0:  # a bare zero term is allowed
                lp.error("a bare scalar term must be 0")
        else:
            out[_index(lp, doc, lp.label())] += sign
        first = False
    return tuple(out)


def _handle_basis(lp: _LineParser, doc: AlgebraDocument):
    if lp.at_end():
        lp.error("empty basis declaration")
    while not lp.at_end():
        label = lp.label()
        if label in doc.names:
            lp.pos -= len(label)
            lp.error(f"duplicate basis label {label!r}")
        lp.literal(":")
        lp.skip_ws()
        parity = next((p for p, word in ((EVEN, "even"), (ODD, "odd"))
                       if lp.try_literal(word)), None)
        if parity is None:
            lp.error("parity must be 'even' or 'odd'")
        doc.names += (label,)
        doc.parities += (parity,)


def _handle_bracket(lp: _LineParser, doc: AlgebraDocument):
    _require_basis(lp, doc)
    lp.literal("[")
    a = _index(lp, doc, lp.label())
    lp.literal(",")
    c = _index(lp, doc, lp.label())
    lp.literal("]")
    lp.literal("=")
    v = _parse_lincomb(lp, doc)
    names, parities = doc.names, doc.parities
    target = (parities[a] + parities[c]) % 2
    for k, q in enumerate(v):
        if q != 0 and parities[k] != target:
            lp.error(
                f"parity violation: [{names[a]},{names[c]}] cannot "
                f"contain {names[k]}")
    s = sgn(parities[a] * parities[c])
    if a == c and s == 1:
        if not vec_is_zero(v):
            lp.error(f"bracket [{names[a]},{names[a]}] must vanish for "
                     "an even generator")
        return
    key, val = ((c, a), vec_scale(-s, v)) if a > c else ((a, c), v)
    if doc.brackets.setdefault(key, val) != val:
        lp.error(f"contradictory entry for bracket [{names[a]},{names[c]}]")


# keyword -> (separators between the labels, the container's ``head`` and
# ``symmetric`` for :func:`canon`)
_ENTRIES = {
    "form": ((",",), None, True),
    "cochain2": ((",", ";"), 2, False),
    "cochain3": ((",", ","), None, False),
    "scalar2": ((",",), None, False),
}


def _labels(names, seps, idx) -> str:
    """The arguments of an entry statement, e.g. ``a,b;c``."""
    return "".join(sep + names[i] for sep, i in zip(("",) + seps, idx))


def _named_entries(doc: AlgebraDocument, kind: str) -> dict:
    """name -> entries for one keyword of ``_ENTRIES``."""
    if kind != "form":
        return getattr(doc, kind)
    return {} if doc.form_name is None else {doc.form_name: doc.form_entries}


def _handle_entry(kind: str, lp: _LineParser, doc: AlgebraDocument):
    """One entry statement, stored under its container's free coordinate
    with the sign ``canon`` gives; every statement declares its name."""
    seps, head, symmetric = _ENTRIES[kind]
    _require_basis(lp, doc)
    name = lp.label()
    if kind == "form":
        if doc.form_name not in (None, name):
            lp.error(f"document already defines form {doc.form_name!r}")
        doc.form_name = name
        store = doc.form_entries
    else:
        store = getattr(doc, kind).setdefault(name, {})
    lp.literal("(")
    idx = [_index(lp, doc, lp.label())]
    for sep in seps:
        lp.literal(sep)
        idx.append(_index(lp, doc, lp.label()))
    lp.literal(")")
    lp.literal("=")
    q = lp.rational()
    if not lp.at_end():
        lp.error("unexpected trailing input")
    key, s = canon(doc.parities, tuple(idx), head, symmetric)
    if key is None:
        if q != 0:
            lp.error(f"parity violation: {kind} entry "
                     f"{name}({_labels(doc.names, seps, idx)}) must vanish")
        return
    if store.setdefault(key, s * q) != s * q:
        lp.error(f"contradictory entry for {kind} {name}")


_HANDLERS = {
    "basis": _handle_basis,
    "bracket": _handle_bracket,
    **{kind: functools.partial(_handle_entry, kind) for kind in _ENTRIES},
}


def parse(text: str) -> AlgebraDocument:
    doc = AlgebraDocument()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].rstrip()
        if not line.strip():
            continue
        lp = _LineParser(line, lineno)
        lp.skip_ws()
        m = LABEL_RE.match(lp.text, lp.pos)
        keyword = m.group(0) if m else ""
        if keyword not in _HANDLERS:
            lp.error(f"unknown statement {keyword!r}" if keyword
                     else "expected a statement keyword")
        lp.pos = m.end()
        _HANDLERS[keyword](lp, doc)
    # explicit zeros were kept only to catch a later contradiction
    def nonzero(store: dict) -> dict:
        return {k: q for k, q in sorted(store.items()) if q}

    doc.brackets = {k: v for k, v in sorted(doc.brackets.items()) if any(v)}
    doc.form_entries = nonzero(doc.form_entries)
    for kind in ("cochain2", "cochain3", "scalar2"):
        setattr(doc, kind, {name: nonzero(entries) for name, entries
                            in sorted(getattr(doc, kind).items())})
    return doc


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def signed_sum(terms) -> str:
    """Join (coefficient, monomial) pairs as "2*x - y + 3": zero
    coefficients are skipped, a unit one is left off, "" is the constant
    monomial, and the empty sum is "0"."""
    parts = []
    for c, base in terms:
        if c != 0:
            m = abs(c)
            term = (base if m == 1 else f"{m}*{base}") if base else str(m)
            parts.append((("+ " if c > 0 else "- ") if parts
                          else ("" if c > 0 else "-")) + term)
    return " ".join(parts) if parts else "0"


def emit(doc: AlgebraDocument) -> str:
    decls = " ".join(
        f"{n}:{'even' if p == EVEN else 'odd'}"
        for n, p in zip(doc.names, doc.parities))
    lines = [f"basis {decls}"]
    for (i, j), v in sorted(doc.brackets.items()):
        if not vec_is_zero(v):
            lines.append(f"bracket [{doc.names[i]},{doc.names[j]}] = "
                         + signed_sum(zip(v, doc.names)))
    for kind, (seps, _, _) in _ENTRIES.items():
        for name, entries in sorted(_named_entries(doc, kind).items()):
            lines.extend(f"{kind} {name}({_labels(doc.names, seps, key)}) "
                         f"= {q}" for key, q in sorted(entries.items()) if q)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# conversion to and from library objects
# ---------------------------------------------------------------------------

def document_algebra(doc: AlgebraDocument) -> LieSuperalgebra:
    if not doc.names:
        raise ParseError("document declares no basis", 1, 1)
    return LieSuperalgebra(doc.basis(), {
        (i, j, k): q for (i, j), v in doc.brackets.items()
        for k, q in enumerate(v) if q})


def document_form(doc: AlgebraDocument) -> EvenForm | None:
    return (None if doc.form_name is None
            else EvenForm(doc.basis(), doc.form_entries))


def document_cochain2(doc: AlgebraDocument, name: str) -> Cochain2Dual:
    return Cochain2Dual(doc.basis(), doc.cochain2[name])


def document_scalar2(doc: AlgebraDocument, name: str) -> ScalarCochain2:
    return ScalarCochain2(doc.basis(), doc.scalar2[name])


def document_from(algebra: LieSuperalgebra,
                  form: EvenForm | None = None,
                  cochain2: dict[str, Cochain2Dual] | None = None,
                  cochain3: dict[str, ScalarCochain3] | None = None,
                  scalar2: dict[str, ScalarCochain2] | None = None
                  ) -> AlgebraDocument:
    """The document of library objects; every entry map is the object's
    own free coordinates."""
    basis = algebra.basis
    brackets: dict = {}
    for (i, j, k), q in algebra.coords.items():
        brackets.setdefault((i, j), {})[k] = q

    def coords(objs):
        return {k: dict(v.coords) for k, v in sorted((objs or {}).items())}
    return AlgebraDocument(
        names=basis.names, parities=basis.parities,
        brackets={ij: dense_vec(v, basis.dim) for ij, v in brackets.items()},
        form_name="B" if form is not None else None,
        form_entries=dict(form.coords) if form is not None else {},
        cochain2=coords(cochain2), cochain3=coords(cochain3),
        scalar2=coords(scalar2),
    )


def document_quadratic(q: QuadraticLieSuperalgebra,
                       **kwargs) -> AlgebraDocument:
    return document_from(q.algebra, form=q.form, **kwargs)


def parse_span(doc: AlgebraDocument, text: str) -> Subspace:
    """Subspace from a semicolon-separated list of linear combinations,
    e.g. ``"e1*; e2 + 1/2*e3"``; an error's column counts within text."""
    vectors = []
    for part in re.finditer(r"[^;\s](?:[^;]*[^;\s])?", text):
        lp = _LineParser(" " * part.start() + part[0], 1)
        vectors.append(_parse_lincomb(lp, doc))
    return subspace(doc.basis(), vectors)
