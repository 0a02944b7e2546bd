"""Shared pieces of the workloads: the operation record, seeded random
streams, and readers that turn library objects into the oracle's raw data
through public interfaces only (the DSL document model, ``Subspace.vectors``
and the ``collect_*`` coordinate maps)."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import oracle

ZERO = Fraction(0)


class Op:
    """One timed operation of a round.

    ``prepare(state)`` builds the arguments outside the timed region (it
    may read results of earlier operations of the same round), ``run``
    is the timed call into the library, and ``check(state, result)``
    raises :class:`oracle.OracleError` if the output is wrong; for an
    operation that must raise, ``expect`` names the exception class and
    ``check`` receives the exception.  ``fault`` names the exception that
    an operation raises today because of a fault named in the README; the
    operation then counts as failed without making the run incorrect,
    while any other failure of it, an oracle rejection included, does.
    Operations that repeat one command share a ``key``; ``run_s`` and
    ``op_max_s`` count them once, at their median.
    """

    def __init__(self, name, run, check, prepare=None, expect=None,
                 fault=None, key=None):
        self.name = name
        self.key = key or name
        self.run = run
        self.check = check
        self.prepare = prepare
        self.expect = expect
        self.fault = fault


def rng(seed: int, *tags) -> random.Random:
    """An independent, reproducible stream per (seed, tags)."""
    return random.Random(":".join(map(str, (seed,) + tags)))


def rational(r: random.Random) -> Fraction:
    q = Fraction(0)
    while q == 0:
        q = Fraction(r.randint(-6, 6), r.randint(1, 4))
    return q


def raw_algebra(lib, g, form=None) -> oracle.Raw:
    """Structure constants (and Gram matrix) of a library object, read from
    its DSL document model (``dsl.document_from``): the brackets [e_i, e_j]
    for i <= j and the form entries B(e_i, e_j) for i <= j, completed to
    all ordered pairs by super-skew-symmetry and supersymmetry.

    The reads are the benchmark's own, so the tracer does not count them."""
    with lib.quiet():
        doc = lib.dsl.document_from(g, form=form)
    par = tuple(doc.parities)
    table = {}
    for (i, j), v in doc.brackets.items():
        entries = {k: Fraction(q) for k, q in enumerate(v) if q != 0}
        if entries:
            s = -oracle.sgn(par[i] * par[j])
            table[(i, j)] = entries
            table[(j, i)] = {k: s * q for k, q in entries.items()}
    gram = None
    if form is not None:
        gram = {}
        for (i, j), q in doc.form_entries.items():
            gram[(i, j)] = Fraction(q)
            gram[(j, i)] = oracle.sgn(par[i] * par[j]) * Fraction(q)
    return oracle.Raw(par, table, gram, doc.names)


def raw_quadratic(lib, q) -> oracle.Raw:
    return raw_algebra(lib, q.algebra, q.form)


def dense_cochain2(par, coords) -> list:
    """w[i][j][k] from free coordinates, by w(y,x) = -(-1)^{|x||y|} w(x,y)."""
    n = len(par)
    w = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), q in coords.items():
        w[i][j][k] = Fraction(q)
        w[j][i][k] = -oracle.sgn(par[i] * par[j]) * Fraction(q)
    return w


def dense_scalar2(par, coords) -> list:
    n = len(par)
    phi = [[ZERO] * n for _ in range(n)]
    for (i, j), q in coords.items():
        phi[i][j] = Fraction(q)
        phi[j][i] = -oracle.sgn(par[i] * par[j]) * Fraction(q)
    return phi


def dense_alt3(par, coords) -> list:
    """f[i][j][k] from its values on ascending triples, by
    f(x,y,z) = -(-1)^{|x||y|} f(y,x,z) = -(-1)^{|y||z|} f(x,z,y)."""
    n = len(par)
    f = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for key, q in coords.items():
        seen = {tuple(key): Fraction(q)}
        todo = [tuple(key)]
        while todo:
            t = todo.pop()
            for a in (0, 1):
                s = list(t)
                s[a], s[a + 1] = s[a + 1], s[a]
                s = tuple(s)
                if s not in seen:
                    seen[s] = -oracle.sgn(par[t[a]] * par[t[a + 1]]) * seen[t]
                    todo.append(s)
        for (i, j, k), v in seen.items():
            f[i][j][k] = v
    return f


def alt3_coords(par, f) -> dict:
    """Values of a dense alternating tensor on its free coordinates:
    ascending triples of even parity sum, repeats only on odd indices."""
    n = len(par)
    out = {}
    for i, j, k in itertools.combinations_with_replacement(range(n), 3):
        if (par[i] + par[j] + par[k]) % 2:
            continue
        if (i == j and par[i] == 0) or (j == k and par[j] == 0):
            continue
        if f[i][j][k] != 0:
            out[(i, j, k)] = f[i][j][k]
    return out


def scalar2_keys(par) -> list:
    """Free coordinates of a scalar 2-cochain: pairs i <= j of equal
    parity, repeats only on odd indices."""
    n = len(par)
    return [(i, j) for i in range(n) for j in range(i, n)
            if par[i] == par[j] and (i != j or par[i] == 1)]


def combine(coord_maps, r: random.Random) -> dict:
    """A random rational combination of coordinate maps."""
    out: dict = {}
    for m in coord_maps:
        q = rational(r)
        for key, v in m.items():
            out[key] = out.get(key, ZERO) + q * v
    return {k: v for k, v in out.items() if v != 0}


def direct_sum(lib, a, b, prefixes=("u", "v")):
    """The direct sum of two Lie superalgebras, built with from_brackets."""
    a_raw, b_raw = raw_algebra(lib, a), raw_algebra(lib, b)
    na = a.dim
    names = tuple(prefixes[0] + s for s in a.basis.names) + tuple(
        prefixes[1] + s for s in b.basis.names)
    parities = tuple(a.basis.parities) + tuple(b.basis.parities)
    brackets = {}
    for raw, off in ((a_raw, 0), (b_raw, na)):
        for (i, j), entries in raw.table.items():
            if i <= j:
                brackets[(names[off + i], names[off + j])] = {
                    names[off + k]: q for k, q in entries.items()}
    return lib.superalgebra.from_brackets(names, parities, brackets)
