"""Exact isotropy of diagonal quadratic forms over the rationals.

The coefficients are scaled by squares to squarefree integers a_i.  By
Hasse-Minkowski the form is isotropic iff it is indefinite and isotropic
over every Q_p; from rank 3 on that holds at odd p dividing no a_i, so
only 2 and the primes of the a_i are checked, by the Hilbert-symbol
conditions of Serre, *A Course in Arithmetic*, IV.2.2; from rank 5 on,
indefinite suffices.  Points come from the square test in rank 2,
Legendre descent in rank 3 and a split into smaller forms from rank 4
on (docs/conventions.md, "Isotropic vectors over Q").
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count

from .errors import InternalCheckError
from .linalg import ZERO, factorize


def _split(a: int, p: int) -> tuple[int, int]:
    """(v, u) with a = p^v u, u prime to p."""
    v = 0
    while a % p == 0:
        a, v = a // p, v + 1
    return v, a


def hilbert_symbol(a: int, b: int, p: int) -> int:
    """The Hilbert symbol (a, b)_p of nonzero integers at a prime p."""
    (al, u), (be, v) = _split(a, p), _split(b, p)
    if p == 2:
        e = ((u - 1) // 2 * ((v - 1) // 2) + al * ((v * v - 1) // 8)
             + be * ((u * u - 1) // 8))
        return -1 if e % 2 else 1
    lu, lv = (1 if pow(w, (p - 1) // 2, p) == 1 else -1 for w in (u, v))
    return (-1) ** (al * be * (p - 1) // 2) * lu ** be * lv ** al


def _is_square(a: int, p: int) -> bool:
    """Whether the nonzero integer a is a square in Q_p."""
    v, u = _split(a, p)
    return v % 2 == 0 and (u % 8 == 1 if p == 2
                           else pow(u, (p - 1) // 2, p) == 1)


def _locally_isotropic(a: list[int], p: int) -> bool:
    """Serre IV.2.2, rank 2 to 4: d = prod a_i, eps = prod (a_i, a_j)_p."""
    d = math.prod(a)
    if len(a) == 2:
        return _is_square(-d, p)
    eps = math.prod(hilbert_symbol(x, y, p)
                    for i, x in enumerate(a) for y in a[i + 1:])
    if len(a) == 3:
        return hilbert_symbol(-1, -d, p) == eps
    return not _is_square(d, p) or eps == hilbert_symbol(-1, -1, p)


def obstruction(a: list[int], primes) -> str | int | None:
    """None if the form with squarefree integer coefficients a is
    isotropic over Q, else "definite" or the least p in ``primes`` (which
    must hold 2 and the primes of the a_i) where it is not over Q_p."""
    if not min(a, default=0) < 0 < max(a, default=0):
        return "definite"
    return next((p for p in sorted(primes) if len(a) < 5
                 and not _locally_isotropic(a, p)), None)


def _squarefree(m: int) -> tuple[int, int]:
    """(s, r) with m = s r^2 and s squarefree."""
    s, r = (1 if m > 0 else -1), 1
    for p, e in factorize(m).items():
        s, r = s * p ** (e % 2), r * p ** (e // 2)
    return s, r


def _sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a quadratic residue modulo p (Tonelli-Shanks)."""
    a %= p
    if a == 0 or p == 2:
        return a
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in count(2) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _legendre(a: int, b: int, primes) -> tuple[int, int, int]:
    """A nonzero integer solution of x^2 = a y^2 + b z^2, for squarefree
    a and b when one exists; ``primes`` are divided out of b before the
    rest is factored.  With t^2 - a = b k, |t| <= |b|/2, a solution for
    (a, squarefree part of k) times t + sqrt(a) solves (a, b)."""
    if a == 1:
        return 1, 1, 0
    if b == 1:
        return 1, 0, 1
    if abs(a) > abs(b):
        x, y, z = _legendre(b, a, primes)
        return x, z, y
    t, m = 0, 1
    known = [p for p in primes if b % p == 0]
    rest = factorize(b // math.prod(known))  # b is squarefree
    for p in known + list(rest):  # t^2 = a mod |b|, by the CRT
        t += m * ((_sqrt_mod_prime(a, p) - t) * pow(m, -1, p) % p)
        m *= p
    t = t - m if 2 * t > m else t
    s, r = _squarefree((t * t - a) // b)
    x, y, z = _legendre(a, s, primes)
    x, y, z = x * t + a * y, x + t * y, s * r * z
    g = math.gcd(x, y, z)
    return x // g, y // g, z // g


def _solve(a: list[int], primes: set[int]) -> list[Fraction]:
    """A nonzero point of the isotropic form with n >= 3 squarefree
    integer coefficients a; ``primes`` as for :func:`obstruction`.  From
    rank 4 on, the first squarefree t = 1, -1, 2, -2, 3, ... with <a_1,
    a_2, -t> and <a_3, ..., a_n, t> isotropic joins a point of each."""
    if len(a) == 3:  # x = a_1 X gives Legendre's form
        g2, g3 = math.gcd(a[0], a[1]), math.gcd(a[0], a[2])
        x, y, z = _legendre(-a[0] * a[1] // g2 ** 2, -a[0] * a[2] // g3 ** 2,
                            primes)
        return [Fraction(x, a[0]), Fraction(y, g2), Fraction(z, g3)]
    for m in count(1):
        f = factorize(m)
        if any(e > 1 for e in f.values()):
            continue
        for t in (m, -m):
            left, right, ps = a[:2] + [-t], a[2:] + [t], primes | set(f)
            if not any(obstruction(part, ps) for part in (left, right)):
                u, w = _solve(left, ps), _solve(right, ps)
                if not u[2]:
                    return u[:2] + [ZERO] * (len(a) - 2)
                if not w[-1]:
                    return [ZERO, ZERO] + w[:-1]
                return [x / u[2] for x in u[:2]] + [x / w[-1] for x in w[:-1]]


def isotropic_point(diag) -> tuple[tuple[Fraction, ...] | None,
                                   str | int | None]:
    """For nonzero rationals d_i: (x, None) with x a re-checked nonzero
    rational solution of sum d_i x_i^2 = 0, or (None, obstruction); in
    rank 2, -d_1 d_2 = s^2 gives x = (s, |d_1|) without factoring."""
    m = -diag[0] * diag[1] if len(diag) == 2 else -1
    s = Fraction(math.isqrt(abs(m.numerator)), math.isqrt(m.denominator))
    if s * s == m:
        x = (s, abs(diag[0]))
    else:
        a, scale, primes = [], [], {2}
        for d in diag:
            sf, r = _squarefree(d.numerator * d.denominator)
            a.append(sf)
            scale.append(Fraction(d.denominator, r))
            primes.update(factorize(sf))
        found = obstruction(a, primes)
        if found is not None:
            return None, found
        x = tuple(y * c for y, c in zip(_solve(a, primes), scale))
    if not any(x) or sum(d * v * v for d, v in zip(diag, x)):
        raise InternalCheckError("constructed point is not isotropic",
                                 witness=x)
    return x, None
