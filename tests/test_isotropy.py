"""The exact isotropy decision and its constructed points, the capped
factorization, and the rational roots built on it."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import superquad as sq
from superquad.decompose import decompose, isotropic_vector
from superquad.errors import RationalPointNotFound, UndecidedError
from superquad.forms import QuadraticLieSuperalgebra, even_form
from superquad.isotropy import hilbert_symbol, isotropic_point, obstruction
from superquad.linalg import FACTOR_CAP, factorize, mat, rational_roots
from superquad.superalgebra import EVEN

F = Fraction

# two primes above FACTOR_CAP: their product cannot be factored
P1, P2 = 100003, 100019
BIG1, BIG2 = 10 ** 12 + 39, 10 ** 12 + 61


def _diag_quadratic(diag):
    alg = sq.abelian(len(diag), 0)
    gram = [[diag[i] if i == j else 0 for j in range(len(diag))]
            for i in range(len(diag))]
    return QuadraticLieSuperalgebra(alg, even_form(alg.basis, gram))


def _value(diag, x):
    return sum(F(d) * v * v for d, v in zip(diag, x))


def _is_rational_square(q: Fraction) -> bool:
    return (q >= 0 and math.isqrt(q.numerator) ** 2 == q.numerator
            and math.isqrt(q.denominator) ** 2 == q.denominator)


def _brute_force_point(diag, bound):
    """A point with its first n-1 coordinates in [-bound, bound] and the
    last one rational, or None."""
    *head, last = diag
    for xs in itertools.product(range(-bound, bound + 1), repeat=len(head)):
        rest = -_value(head, xs) / last
        if (any(xs) or rest) and _is_rational_square(rest):
            return xs
    return None


def test_former_known_faults_decompose():
    for diag, dim in (((1, 1, -41), 1), ((1, 1, -41, -41), 2),
                      ((1, 1, -41, -41, 1), 2)):
        dec = decompose(_diag_quadratic(diag))
        rows = dec.ideal.vectors
        assert len(rows) == dim == len(diag) // 2, diag
        # totally isotropic, checked on the coordinates directly
        for u in rows:
            for v in rows:
                assert sum(F(d) * a * b for d, a, b in zip(diag, u, v)) == 0
        # independent rows: some dim x dim minor is nonzero
        assert any(_det([[r[c] for c in cols] for r in rows])
                   for cols in itertools.combinations(range(len(diag)), dim))
        assert dec.parity_case == ("even" if len(diag) % 2 == 0 else "odd")


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** c * m[0][c] * _det([r[:c] + r[c + 1:] for r in m[1:]])
               for c in range(len(m)))


def _squarefree_part(d):
    r = max(e for e in range(1, math.isqrt(abs(d)) + 1) if d % (e * e) == 0)
    return d // (r * r)


def _random_forms(seed, count):
    rng = random.Random(seed)
    return [[rng.choice((-1, 1)) * rng.randint(1, 60)
             for _ in range(rng.randint(2, 5))] for _ in range(count)]


def test_decision_matches_brute_force_on_random_forms():
    forms = _random_forms(20261018, 400)
    # the verdicts alone first, so a wrong one fails before any point is
    # built from it
    for diag in forms:
        a = [_squarefree_part(d) for d in diag]
        why = obstruction(a, {2} | {p for d in a for p in factorize(d)})
        if why == "definite":
            assert min(diag) > 0 or max(diag) < 0, diag
        elif why is not None:
            assert len(diag) < 5, diag  # indefinite rank 5 is isotropic
            assert _brute_force_point(diag, 4) is None, (diag, why)
    for diag in forms:
        x, why = isotropic_point(tuple(F(d) for d in diag))
        if x is not None:
            assert why is None and any(x) and _value(diag, x) == 0, diag


def test_rank_two_square_gives_a_positive_point_unfactored():
    """-d_1 d_2 = t^2 decides the pair without factoring, even past the
    cap, and the point has x_2 / x_1 > 0, the positive root of -d_1 / d_2."""
    rng = random.Random(20261021)
    for big in (1, P1 * P2) * 100:
        d1 = F(rng.choice((-1, 1)) * rng.randint(1, 60) * big,
               rng.randint(1, 12))
        t = F(rng.randint(1, 60), rng.randint(1, 12))
        diag = (d1, -t * t / d1)
        x, why = isotropic_point(diag)
        assert why is None and _value(diag, x) == 0, diag
        assert x[1] / x[0] > 0 and (x[1] / x[0]) ** 2 == -d1 / diag[1], diag


def _is_padic_square(m, p):
    """Squarefree m is a square in Q_p iff p does not divide it and it is
    a square modulo p (modulo 8 for p = 2)."""
    k = 8 if p == 2 else p
    return m % p != 0 and any((x * x - m) % k == 0 for x in range(k))


def test_rank_two_anisotropic_pairs_name_their_obstruction():
    """A pair with -d_1 d_2 not a square is definite, or fails at the
    least prime of 2 and the a_i where -a_1 a_2 is not a p-adic square."""
    rng = random.Random(20261022)
    for _ in range(300):
        diag = tuple(F(rng.choice((-1, 1)) * rng.randint(1, 60),
                       rng.randint(1, 6)) for _ in range(2))
        if _is_rational_square(-diag[0] * diag[1]):
            continue
        x, why = isotropic_point(diag)
        a = [_squarefree_part(d.numerator * d.denominator) for d in diag]
        primes = sorted({2} | {p for m in a for p in factorize(m)})
        m = _squarefree_part(-a[0] * a[1])
        assert x is None and why == ("definite" if m < 0 else next(
            p for p in primes if not _is_padic_square(m, p))), diag


def test_isotropic_vector_rechecks_on_mixed_gram():
    # P^T diag(1, 1, -41) P for a unimodular P: built on the diagonalization
    gram = mat([[1, 1, 0], [1, 2, 1], [0, 1, -40]])
    v = isotropic_vector(gram)
    assert any(v)
    assert sum(v[i] * gram[i][j] * v[j] for i in range(3)
               for j in range(3)) == 0


def test_sympy_ternary_oracle():
    sympy = pytest.importorskip("sympy")
    from sympy.solvers.diophantine.diophantine import diop_ternary_quadratic
    x, y, z = sympy.symbols("x y z", integer=True)
    rng = random.Random(7)
    tried = 0
    while tried < 60:
        diag = [rng.choice((-1, 1)) * rng.randint(1, 40) for _ in range(3)]
        # sympy 1.14 finds no point on 10x^2 + y^2 - 35z^2, which has
        # (1, 5, 1); it agrees with brute force on squarefree, pairwise
        # coprime coefficients, so the oracle keeps to those
        if (any(e > 1 for d in diag for e in sympy.factorint(d).values())
                or any(math.gcd(a, b) > 1
                       for a, b in itertools.combinations(diag, 2))):
            continue
        tried += 1
        point, _ = isotropic_point(tuple(F(d) for d in diag))
        sol = diop_ternary_quadratic(diag[0] * x ** 2 + diag[1] * y ** 2
                                     + diag[2] * z ** 2)
        has_sol = sol is not None and None not in sol and any(sol)
        if has_sol:
            assert _value(diag, [int(c) for c in sol]) == 0
        assert (point is not None) == has_sol, diag


def _no_primitive_point_mod(diag, m):
    """No solution modulo m with some coordinate prime to m."""
    return not any(sum(d * v * v for d, v in zip(diag, xs)) % m == 0
                   and any(math.gcd(v, m) == 1 for v in xs)
                   for xs in itertools.product(range(m), repeat=len(diag)))


def test_certificates():
    with pytest.raises(RationalPointNotFound) as exc:
        isotropic_vector(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                         certify=True)
    assert exc.value.obstruction == "definite"
    assert exc.value.quadric_str == "x^2 + y^2 + z^2"
    with pytest.raises(RationalPointNotFound) as exc:
        sq.decompose(_diag_quadratic((1, 1, -3)))
    p = exc.value.obstruction
    a = (1, 1, -3)
    eps = math.prod(hilbert_symbol(a[i], a[j], p)
                    for i in range(3) for j in range(i + 1, 3))
    assert hilbert_symbol(-1, -math.prod(a), p) != eps
    # and independently: no p-adic point, since none survives mod p^3
    assert _no_primitive_point_mod(a, p ** 3)


def test_hilbert_symbol_values():
    # Serre III.1: (a, b)_p for the classical small cases
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(2, 3, 3) == -1
    assert hilbert_symbol(5, 7, 2) == 1
    assert hilbert_symbol(3, 3, 2) == -1
    assert hilbert_symbol(2, 5, 2) == -1
    assert hilbert_symbol(6, 10, 5) == hilbert_symbol(6, 2, 5) * \
        hilbert_symbol(6, 5, 5)


def test_factorization_of_a_prime_square_past_the_cap():
    """A cofactor m = r^2 past FACTOR_CAP^2 with r <= FACTOR_CAP^2 has no
    factor up to the cap, so r is prime (a disguised odd sum needs
    4011011^2)."""
    assert FACTOR_CAP ** 2 < 4011011 ** 2
    assert factorize(4011011 ** 2) == {4011011: 2}
    assert factorize(3 * 4011011 ** 2) == {3: 1, 4011011: 2}
    assert factorize(-P1 ** 2 * 10) == {2: 1, 5: 1, P1: 2}


def test_factorization_cap():
    assert factorize(-360) == {2: 3, 3: 2, 5: 1}
    assert factorize(P1 * 7) == {7: 1, P1: 1}  # a cofactor below the cap^2
    assert FACTOR_CAP < P1 < P2
    with pytest.raises(UndecidedError, match="undecided"):
        factorize(P1 * P2)
    with pytest.raises(UndecidedError):
        factorize((P1 * P2) ** 2)
    with pytest.raises(UndecidedError):
        isotropic_point((F(1), F(1), F(-P1 * P2)))


def test_point_uses_the_decided_primes():
    """The decision factors each coefficient below the cap; the descent
    must reuse those primes instead of factoring their product P1 * P2."""
    diag = (F(P1), F(-2), F(-P2))
    x, found = isotropic_point(diag)
    assert found is None and any(x) and _value(diag, x) == 0


def _old_rational_roots(coeffs):
    """The divisor enumeration rational_roots used before it factored."""
    lcm = math.lcm(*(F(c).denominator for c in coeffs))
    ints = [int(F(c) * lcm) for c in coeffs]

    def divisors(m):
        return [d for d in range(1, abs(m) + 1) if m % d == 0]

    roots = set()
    for p in divisors(ints[-1]):
        for q in divisors(ints[0]):
            for cand in (F(p, q), F(-p, q)):
                if sum(c * cand ** (len(ints) - 1 - i)
                       for i, c in enumerate(ints)) == 0:
                    roots.add(cand)
    return sorted(roots)


def test_rational_roots_match_divisor_enumeration():
    rng = random.Random(11)
    for _ in range(150):
        roots = [F(rng.randint(-12, 12), rng.randint(1, 4))
                 for _ in range(rng.randint(1, 3))]
        coeffs = [F(1)]
        for r in roots:  # multiply by (t - r), then add a perturbation
            coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        if rng.random() < 0.5:
            coeffs[-1] += rng.randint(1, 5)
        if coeffs[-1] == 0:
            continue
        assert rational_roots(tuple(coeffs)) == _old_rational_roots(coeffs)


def test_rational_roots_huge_constant_fails_fast():
    t0 = time.perf_counter()
    with pytest.raises(UndecidedError):
        rational_roots((F(1), F(0), F(BIG1 * BIG2)))
    assert time.perf_counter() - t0 < 2.0
