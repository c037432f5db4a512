import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_squarefree, min_roots_of_unity, phi_ratio_cmp, squarefree_sieve, totient_sieve

from fusionring.numtheory import (
    SquareFreeDecomposition,
    factorize,
    is_prime,
    is_square,
    quad_sign,
    squarefree_part,
    totient,
)


def test_totient_values():
    assert totient(1) == 1
    assert totient(6) == 2
    assert totient(28) == 12
    assert totient(2 * 3) == 2  # phi(2c) for c = 3


def test_totient_rejects_nonpositive():
    with pytest.raises(ValueError):
        totient(0)


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200)
def test_factorize_roundtrip(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_is_prime_matches_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(math.isqrt(n)) + 1))

    for n in range(2000):
        assert is_prime(n) == trial(n)
    assert is_prime(10**12 + 39)
    assert not is_prime(10**12 + 37)


def test_is_prime_matches_trial_division_on_seeded_ranges():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    rng = random.Random(12)
    for _ in range(3):
        start = rng.randrange(10**7, 10**8)
        for n in range(start, start + 1000):
            assert is_prime(n) == trial(n), n


def test_psi12_is_composite():
    # psi_12, the least strong pseudoprime to the prime bases 2 ... 37
    # (Sorenson-Webster 2017), is caught by base 41
    psi12 = 318665857834031151167461
    p, q = 399165290221, 798330580441
    assert p * q == psi12 and is_prime(p) and is_prime(q)
    assert not is_prime(psi12)
    assert factorize(psi12) == {p: 1, q: 1}
    assert totient(psi12) == (p - 1) * (q - 1) == 318665857832833655296800


def test_squarefree_part_values():
    assert squarefree_part(32) == SquareFreeDecomposition(32, 2, 4)
    assert squarefree_part(64).x == 1
    assert squarefree_part(176).x == 11  # 176 = 16 * 11


@given(st.integers(min_value=1, max_value=10**13))
@settings(max_examples=150)
def test_squarefree_part_roundtrip(n):
    dec = squarefree_part(n)
    assert dec.x * dec.y**2 == n
    assert is_squarefree(dec.x)


def test_squarefree_part_roundtrip_bulk():
    # 1e5 random n up to 1e13: exact reconstruction and square-freeness
    # (square-freeness of x re-verified by a second factorization)
    rng = random.Random(1)
    for _ in range(100_000):
        n = rng.randint(1, 10**13)
        dec = squarefree_part(n)
        assert dec.x * dec.y**2 == n
        assert all(e == 1 for e in factorize(dec.x).values())


def test_min_roots_of_unity():
    assert min_roots_of_unity(1, 3) == 2  # phi(6) = 2
    assert min_roots_of_unity(0, 5) == 0
    # |b| * phi(2c) at b = 7, c = 2: 7 * phi(4) = 14
    assert min_roots_of_unity(7, 2) == 14
    with pytest.raises(ValueError):
        min_roots_of_unity(1, 4)  # not square-free
    with pytest.raises(ValueError):
        min_roots_of_unity(1, 1)


def test_phi_ratio_cmp():
    # phi(6)/sqrt(3) == (2/3) sqrt(3) exactly
    assert phi_ratio_cmp(3, Fraction(2, 3), 3) == 0
    # phi(4)/sqrt(2) = sqrt(2) > (2/3) sqrt(3)
    assert phi_ratio_cmp(2, Fraction(2, 3), 3) == 1
    # phi(22)/sqrt(11) = 10/sqrt(11) < (8/3) sqrt(2)
    assert phi_ratio_cmp(11, Fraction(8, 3), 2) == -1


def test_quad_sign_examples():
    assert quad_sign(0, 0, 7) == 0
    assert quad_sign(-6, 2, 3) == -1  # 2 sqrt(3) < 6
    assert quad_sign(-349 + 1024 + 160 + 1024 + 512, 0, 5) == 1
    assert quad_sign(Fraction(3, 2), Fraction(-1, 2), 9) == 0  # 3/2 = (1/2) sqrt(9)


def test_quad_sign_against_high_precision():
    import mpmath

    rng = random.Random(7)
    mpmath.mp.dps = 50
    sqrt_cache = {d: mpmath.sqrt(d) for d in range(100)}
    for _ in range(100_000):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        D = rng.randint(0, 99)
        val = mpmath.mpf(a.numerator) / a.denominator + (
            mpmath.mpf(b.numerator) / b.denominator
        ) * sqrt_cache[D]
        want = 0 if abs(val) < mpmath.mpf("1e-35") else (1 if val > 0 else -1)
        assert quad_sign(a, b, D) == want


def test_sieves_match_pointwise():
    limit = 3000
    phi = totient_sieve(limit)
    sf = squarefree_sieve(limit)
    for n in range(1, limit + 1, 37):
        assert int(phi[n]) == totient(n)
        assert bool(sf[n]) == is_squarefree(n)


def test_is_square():
    squares = {n * n for n in range(100)}
    for n in range(5000):
        assert is_square(n) == (n in squares)


def test_a_float_raises_type_error_instead_of_being_factored():
    # totient(2.5) was 1.5, factorize(7.5) {7.5: 1}, squarefree_part(2.5) x = 2.5
    for f, n in ((totient, 2.5), (factorize, 7.5), (squarefree_part, 2.5), (factorize, 12.0)):
        with pytest.raises(TypeError):
            f(n)
    assert factorize(12) == {2: 2, 3: 1}
