"""The character-level DSL parser, for oracle tests only.

The library reads each line of a document in one regular-expression
scan.  The parser here is the one it replaced: a cursor that skips
spaces and tabs, then matches one literal or one token at a time, so the
scan can be compared with it document by document, and error by error
(message, line and column).  Both take numbers in ASCII digits only.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from fractions import Fraction

from superquad.dsl import MAX_DIGITS, AlgebraDocument, ParseError
from superquad.linalg import ONE, dense_vec
from superquad.superalgebra import EVEN, ODD, canon, sgn, subspace

LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_*']*")
RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


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


def _parse_lincomb(lp: _LineParser, doc: AlgebraDocument) -> dict:
    """The {k: c} dict of the nonzeros of a sum of terms, by index."""
    out = Counter()
    first = True
    while first or not lp.at_end():
        sign = -ONE if lp.try_literal("-") else ONE
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
    return {k: q for k, q in sorted(out.items()) if q}


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
    for k in v:
        if parities[k] != target:
            lp.error(
                f"parity violation: [{names[a]},{names[c]}] cannot "
                f"contain {names[k]}")
    s = sgn(parities[a] * parities[c])
    if a == c and s == 1:
        if v:
            lp.error(f"bracket [{names[a]},{names[a]}] must vanish for "
                     "an even generator")
        return
    key, val = (((c, a), {k: -s * q for k, q in v.items()}) if a > c
                else ((a, c), v))
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

    doc.brackets = {k: dense_vec(v, doc.dim)
                    for k, v in sorted(doc.brackets.items()) if v}
    doc.form_entries = nonzero(doc.form_entries)
    for kind in ("cochain2", "cochain3", "scalar2"):
        setattr(doc, kind, {name: nonzero(entries) for name, entries
                            in sorted(getattr(doc, kind).items())})
    return doc


def parse_span(doc: AlgebraDocument, text: str):
    """Subspace from a semicolon-separated list of linear combinations,
    e.g. ``"e1*; e2 + 1/2*e3"``; an error's column counts within text."""
    vectors = []
    for part in re.finditer(r"[^;\s](?:[^;]*[^;\s])?", text):
        lp = _LineParser(" " * part.start() + part[0], 1)
        vectors.append(_parse_lincomb(lp, doc))
    return subspace(doc.basis(), vectors)
