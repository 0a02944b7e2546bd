"""Line-oriented text format for superalgebras, forms and cochains.

Grammar (docs/grammar.ebnf has the formal version)::

    basis e1:even e2:odd ...
    bracket [a,b] = 2*c + 1/3*d
    form B(a,b) = 1/2
    cochain2 w(a,b;c) = q        # value of w(a,b) on c
    cochain3 f(a,b,c) = q
    scalar2 phi(a,b) = q
    # comment

Scalars are exact rationals, integers or p/q in ASCII digits.  Unspecified
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
from .linalg import ONE, ZERO, Record, dense_vec
from .superalgebra import (EVEN, ODD, GradedBasis, LieSuperalgebra, Subspace,
                           canon, graded_basis, sgn, subspace)


class ParseError(SuperquadError):
    line = column = None

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}",
                         line=line, column=column)


LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_*']*")
# One token: a label; a number in ASCII digits, with the "-" before it
# (a sum reads that as the term's sign); a colon with the parity word
# after it; or any other character.  Spaces and tabs only separate them.
_TOKEN_RE = re.compile(r"[ \t]*([A-Za-z][A-Za-z0-9_*']*|-?[0-9]+(?:/[0-9]+)?"
                       r"|:[ \t]*(?:even|odd)?|[^ \t])")
MAX_DIGITS = 4300  # per integer of a literal: Python's default int cap
_MINUS_ONE = -ONE


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


class _Line:
    """The tokens of one line from one scan, then "" for its end.  Only an
    error scans again, for its column: token i's (the end's for i = -1),
    shifted by ``past``."""

    __slots__ = ("text", "lineno", "toks")

    def __init__(self, text: str, lineno: int):
        self.text, self.lineno = text, lineno
        self.toks = _TOKEN_RE.findall(text) + [""]

    def fail(self, message: str, i: int = -1, past: int = 0):
        starts = [m.start(1) for m in _TOKEN_RE.finditer(self.text)]
        raise ParseError(message, self.lineno,
                         (starts + [len(self.text)])[i] + past + 1)


def _unknown(ln: _Line, i: int, term: bool = False):
    """Raise at token i, where a declared label (or a term) was due."""
    tok = ln.toks[i]
    if LABEL_RE.match(tok):
        ln.fail(f"undeclared basis label {tok!r}", i, len(tok))
    ln.fail("expected a rational number" if term and tok[:1].isdigit()
            else "expected a basis label", i)


def _rational(ln: _Line, i: int, tok: str, past: int = 0) -> Fraction:
    """The value of the number tok, read at token i shifted by past."""
    p, _, q = tok.partition("/")
    if max(len(p.lstrip("-")), len(q)) > MAX_DIGITS:
        ln.fail(f"integer has over {MAX_DIGITS} digits", i, past)
    if q and not int(q):
        ln.fail("denominator must be nonzero", i, past)
    return Fraction(int(p), int(q)) if q else Fraction(int(p))


def _read(ln: _Line, i: int, index: dict, shape: tuple) -> list:
    """The indices of the labels of shape, literal tokens and None for
    each declared label, read from token i on."""
    toks, idx = ln.toks, []
    for want in shape:
        if want is None:
            k = index.get(toks[i])
            if k is None:
                _unknown(ln, i)
            idx.append(k)
        elif toks[i] != want:
            ln.fail(f"expected {want!r}", i)
        i += 1
    return idx


def _lincomb(ln: _Line, i: int, index: dict) -> dict:
    """The {k: c} dict of the nonzeros of the sum of terms from token i
    to the end of the line, by index."""
    toks, out, first = ln.toks, {}, True
    while first or toks[i]:
        tok, sign, past = toks[i], "", 0
        if tok == "-" or tok == "+":
            sign, i, tok = "-" if tok == "-" else "", i + 1, toks[i + 1]
        elif tok[:1] == "-":  # a number that carries its sign
            sign, tok, past = "-", tok[1:], 1
        elif not first:
            ln.fail("expected '+' or '-'", i)
        first, at, c = False, i, _MINUS_ONE if sign else ONE
        if "0" <= tok[:1] <= "9":
            c = _rational(ln, i, sign + tok, past)
            if toks[i + 1] != "*":
                if c:  # a bare zero term is allowed
                    ln.fail("a bare scalar term must be 0", i + 1)
                i += 1
                continue
            i += 2
        k = index.get(toks[i])
        if k is None:
            _unknown(ln, i, term=i == at)
        i += 1
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in sorted(out.items()) if c}


def _handle_basis(ln: _Line, doc: AlgebraDocument, index: dict):
    toks = ln.toks
    if not toks[1]:
        ln.fail("empty basis declaration")
    for i in range(1, len(toks) - 1, 2):
        label, colon = toks[i], toks[i + 1]
        if not LABEL_RE.match(label):
            ln.fail("expected a basis label", i)
        if label in index:
            ln.fail(f"duplicate basis label {label!r}", i)
        if colon[:1] != ":":
            ln.fail("expected ':'", i + 1)
        if not colon.endswith(("even", "odd")):
            ln.fail("parity must be 'even' or 'odd'", i + 1, len(colon))
        index[label] = doc.dim
        doc.names += (label,)
        doc.parities += (ODD if colon.endswith("odd") else EVEN,)


def _handle_bracket(ln: _Line, doc: AlgebraDocument, index: dict):
    a, c = _read(ln, 1, index, ("[", None, ",", None, "]", "="))
    v = _lincomb(ln, 7, index)
    names, parities = doc.names, doc.parities
    target = (parities[a] + parities[c]) % 2
    for k in v:
        if parities[k] != target:
            ln.fail(f"parity violation: [{names[a]},{names[c]}] cannot "
                    f"contain {names[k]}")
    s = sgn(parities[a] * parities[c])
    if a == c and s == 1:
        if v:
            ln.fail(f"bracket [{names[a]},{names[a]}] must vanish for "
                    "an even generator")
        return
    key, val = (((c, a), {k: -s * q for k, q in v.items()}) if a > c
                else ((a, c), v))
    if doc.brackets.setdefault(key, val) != val:
        ln.fail(f"contradictory entry for bracket [{names[a]},{names[c]}]")


# keyword -> (its tokens from "(" to "=", None for each label; the
# container's ``head`` and ``symmetric`` for :func:`canon`)
_ENTRIES = {
    "form": (("(", None, ",", None, ")", "="), None, True),
    "cochain2": (("(", None, ",", None, ";", None, ")", "="), 2, False),
    "cochain3": (("(", None, ",", None, ",", None, ")", "="), None, False),
    "scalar2": (("(", None, ",", None, ")", "="), None, False),
}


def _labels(names, shape, idx) -> str:
    """The arguments of an entry statement, e.g. ``a,b;c``."""
    return "".join(sep + names[i] for sep, i in zip(("",) + shape[2::2], idx))


def _named_entries(doc: AlgebraDocument, kind: str) -> dict:
    """name -> entries for one keyword of ``_ENTRIES``."""
    if kind != "form":
        return getattr(doc, kind)
    return {} if doc.form_name is None else {doc.form_name: doc.form_entries}


def _handle_entry(kind: str, ln: _Line, doc: AlgebraDocument, index: dict):
    """One entry statement, stored under its container's free coordinate
    with the sign ``canon`` gives; every statement declares its name."""
    shape, head, symmetric = _ENTRIES[kind]
    toks = ln.toks
    name = toks[1]
    if not LABEL_RE.match(name):
        ln.fail("expected a basis label", 1)
    if kind == "form":
        if doc.form_name not in (None, name):
            ln.fail(f"document already defines form {doc.form_name!r}", 1,
                    len(name))
        doc.form_name = name
        store = doc.form_entries
    else:
        store = getattr(doc, kind).setdefault(name, {})
    idx = _read(ln, 2, index, shape)
    i = 2 + len(shape)
    if not "0" <= toks[i].lstrip("-")[:1] <= "9":
        ln.fail("expected a rational number", i)
    q = _rational(ln, i, toks[i])
    if toks[i + 1]:
        ln.fail("unexpected trailing input", i + 1)
    key, s = canon(doc.parities, tuple(idx), head, symmetric)
    if key is None:
        if q:
            ln.fail(f"parity violation: {kind} entry "
                    f"{name}({_labels(doc.names, shape, idx)}) must vanish")
        return
    if s < 0:
        q = -q
    if store.setdefault(key, q) != q:
        ln.fail(f"contradictory entry for {kind} {name}")


_HANDLERS = {
    "basis": _handle_basis,
    "bracket": _handle_bracket,
    **{kind: functools.partial(_handle_entry, kind) for kind in _ENTRIES},
}


def parse(text: str) -> AlgebraDocument:
    doc, index = AlgebraDocument(), {}  # index: label -> its position
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].rstrip()
        if not line.strip():
            continue
        ln = _Line(line, lineno)
        keyword = ln.toks[0]
        if keyword not in _HANDLERS:
            ln.fail(f"unknown statement {keyword!r}" if LABEL_RE.match(keyword)
                    else "expected a statement keyword", 0)
        if keyword != "basis" and not doc.names:
            ln.fail("basis must be declared before this statement", 0,
                    len(keyword))
        _HANDLERS[keyword](ln, doc, index)
    # explicit zeros were kept only to catch a later contradiction
    def nonzero(store: dict) -> dict:
        return {k: q for k, q in sorted(store.items()) if q}

    doc.brackets = {k: dense_vec(v, doc.dim)  # dense while bench/ reads it
                    for k, v in sorted(doc.brackets.items()) if v}
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
        if c:
            m = str(c)
            neg = m[0] == "-"
            m = m[neg:]
            term = (base if m == "1" else f"{m}*{base}") if base else m
            parts.append((("- " if neg else "+ ") if parts
                          else ("-" if neg else "")) + term)
    return " ".join(parts) if parts else "0"


def emit(doc: AlgebraDocument) -> str:
    names = doc.names
    lines = ["basis " + " ".join(f"{n}:{'even' if p == EVEN else 'odd'}"
                                 for n, p in zip(names, doc.parities))]
    for (i, j), v in sorted(doc.brackets.items()):
        # ZERO, dense_vec's padding, is skipped without a Fraction call
        terms = [(c, n) for c, n in zip(v, names) if c is not ZERO and c]
        if terms:
            lines.append(f"bracket [{names[i]},{names[j]}] = "
                         + signed_sum(terms))
    for kind, (shape, _, _) in _ENTRIES.items():
        for name, entries in sorted(_named_entries(doc, kind).items()):
            lines.extend(f"{kind} {name}({_labels(names, shape, key)}) "
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
        for k, q in enumerate(v) if q is not ZERO and q})


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
    index = {label: k for k, label in enumerate(doc.names)}
    return subspace(doc.basis(), [
        _lincomb(_Line(" " * part.start() + part[0], 1), 0, index)
        for part in re.finditer(r"[^;\s](?:[^;]*[^;\s])?", text)])
