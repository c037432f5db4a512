import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionring as fr
from conftest import cubic_chain_ring, isolated_roots_equal_oracle, poly_mul
from fusionring import intpoly, numtheory
from fusionring.algebraic import (
    IsolatedRoot,
    Quadratic,
    _sqrt_interval,
    _structural_eq,
    alg_cmp,
    all_real_roots,
    largest_real_root,
)
from fusionring.represent import codegree_spectrum
from fusionring.ring import fpdim_basis, fpdim_total


def test_quadratic_normalization():
    assert Quadratic(1, 2, 12) == Quadratic(1, 4, 3)  # sqrt(12) = 2 sqrt(3)
    assert Quadratic(1, 3, 4) == Quadratic(7)  # sqrt(4) folds into rationals
    assert Quadratic(5, 0, 7).D == 0
    assert Quadratic(2, 1, 0) == Quadratic(2)
    with pytest.raises(ValueError):
        Quadratic(0, 1, -2)


def test_quadratic_arithmetic():
    phi = Quadratic(Fraction(1, 2), Fraction(1, 2), 5)  # golden ratio
    assert phi * phi == phi + 1
    d = Quadratic(1, 1, 3)  # 1 + sqrt(3), root of x^2 - 2x - 2
    assert d * d - 2 * d - 2 == Quadratic(0)
    assert (d / d) == Quadratic(1)
    assert d**3 == d * d * d
    assert d.conjugate() * d == Quadratic(-2)  # norm a^2 - b^2 D


def test_isolated_root_hash_survives_refinement():
    r = IsolatedRoot((-2, 0, 0, 1), Fraction(6, 5), Fraction(13, 10))  # cube root of 2
    before = hash(r)
    seen = {r}
    r.interval(Fraction(1, 2**40))
    assert hash(r) == before
    assert r in seen


def test_equal_values_hash_alike_across_types():
    sqrt2 = IsolatedRoot((6, 0, -5, 0, 1), Fraction(13, 10), Fraction(3, 2))  # (x^2-2)(x^2-3)
    assert sqrt2 == Quadratic(0, 1, 2)
    assert hash(sqrt2) == hash(Quadratic(0, 1, 2))
    assert Quadratic(0, 1, 2) in {sqrt2}
    # negative and fractional surd parts take the exact floor too
    golden_conj = IsolatedRoot((-1, -1, 1), Fraction(-1), Fraction(0))  # (1 - sqrt 5)/2
    assert hash(golden_conj) == hash(Quadratic(Fraction(1, 2), Fraction(-1, 2), 5))
    assert hash(Quadratic(7)) == hash(Fraction(7))


def test_quadratic_comparisons():
    a = Quadratic(0, 1, 2)  # sqrt(2)
    b = Quadratic(0, 1, 3)  # sqrt(3), different field
    assert a < b
    assert a < Fraction(3, 2) < b
    assert Quadratic(1, 1, 2) > 2
    assert max(b, a) == b
    assert a != b


def test_quadratic_min_poly():
    assert Quadratic(Fraction(3, 2)).min_poly() == (-3, 2)
    assert Quadratic(1, 1, 3).min_poly() == (-2, -2, 1)


def test_isolated_root_validation():
    with pytest.raises(ValueError):
        IsolatedRoot((-2, 0, 1), Fraction(-2), Fraction(2))  # two roots
    with pytest.raises(ValueError):
        IsolatedRoot(poly_mul((-1, 1), (-1, 1)), Fraction(0), Fraction(2))  # not square-free
    r = IsolatedRoot((-2, 0, 1), Fraction(1), Fraction(2))
    lo, hi = r.interval(Fraction(1, 2**70))
    assert hi - lo <= Fraction(1, 2**70)
    assert r.sign() == 1


def test_cross_representation_equality():
    r = IsolatedRoot((-2, 0, 1), Fraction(1), Fraction(2))
    assert alg_cmp(r, Quadratic(0, 1, 2)) == 0
    assert r == Quadratic(0, 1, 2)
    assert alg_cmp(r, Quadratic(0, 1, 3)) < 0
    # same polynomial, different roots
    r2 = IsolatedRoot((-2, 0, 1), Fraction(-2), Fraction(-1))
    assert alg_cmp(r2, r) < 0
    assert r2 != r


def test_algebraic_root_promotions():
    # integer root: x^3 - 8 = (x - 2)(x^2 + 2x + 4)
    assert largest_real_root((-8, 0, 0, 1)) == Quadratic(2)
    assert all_real_roots((-8, 0, 0, 1)) == [Quadratic(2)]
    # quadratic roots of x^2 - 2x - 2 inside a quadratic times linear
    p = poly_mul((-2, -2, 1), (-5, 1))
    roots = all_real_roots(p)
    assert all(isinstance(r, Quadratic) for r in roots)
    assert roots == [Quadratic(1, -1, 3), Quadratic(1, 1, 3), Quadratic(5)]
    # genuinely cubic root stays isolated: x^3 - x - 1 (plastic number)
    root = largest_real_root((-1, -1, 0, 1))
    assert isinstance(root, IsolatedRoot)
    assert abs(float(root) - 1.324717957) < 1e-8
    assert all_real_roots((-1, -1, 0, 1)) == [root]


def test_largest_real_root():
    # (x^2 - 2)(x - 5): largest is 5
    p = poly_mul((-2, 0, 1), (-5, 1))
    assert largest_real_root(p) == Quadratic(5)
    # x^2 - 2x - 2: largest is 1 + sqrt(3)
    assert largest_real_root((-2, -2, 1)) == Quadratic(1, 1, 3)


@pytest.mark.parametrize("t", [2**40, 2**62])
def test_promotion_cost_does_not_grow_with_the_roots(t, monkeypatch):
    # the roots of x^2 - t x - 1 lie about t apart, and one trace-norm
    # candidate per pair of roots still finds the factor exactly
    p = poly_mul((-1, -t, 1), (-1, -1, 0, 1))
    divisors = []
    divexact = intpoly.poly_divexact
    monkeypatch.setattr(intpoly, "poly_divexact", lambda a, b: divisors.append(b) or divexact(a, b))
    root = largest_real_root(p)
    # at most one trial quadratic factor for each other irrational root
    assert sum(len(q) == 3 for q in divisors) <= len(intpoly.isolate_real_roots(p)[2]) - 1
    assert isinstance(root, Quadratic)
    assert root == Quadratic(Fraction(t, 2), Fraction(1, 2), t * t + 4)


def test_all_real_roots_sorted():
    p = poly_mul((-2, 0, 1), (-3, 1))  # sqrt2, -sqrt2, 3
    roots = all_real_roots(p)
    assert len(roots) == 3
    assert [float(r) for r in roots] == sorted(float(r) for r in roots)
    assert roots[0] == Quadratic(0, -1, 2)
    assert roots[2] == Quadratic(3)


def test_alg_cmp_fuzz_cross_representation():
    import random

    rng = random.Random(17)
    pools = []
    for _ in range(30):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        D = rng.choice([0, 2, 3, 5, 7, 13])
        pools.append(Quadratic(a, b, D))
    # cubic roots from a couple of fixed polynomials
    for poly in ((-1, -1, 0, 1), (1, -2, -1, 1), (-3, 0, -1, 1)):
        for lo, hi in intpoly.isolate_real_roots(poly)[2]:
            pools.append(IsolatedRoot(poly, lo, hi))
    for x in pools:
        for y in pools:
            c = alg_cmp(x, y)
            fx, fy = float(x), float(y)
            if abs(fx - fy) > 1e-9:
                assert c == (1 if fx > fy else -1), (x, y)
            if x is y:
                assert c == 0


def test_interval_contains_value():
    q = Quadratic(Fraction(-1, 3), Fraction(2, 7), 13)
    lo, hi = q.interval(Fraction(1, 2**40))
    val = -1 / 3 + (2 / 7) * math.sqrt(13)
    assert float(lo) <= val <= float(hi)
    assert hi - lo <= Fraction(1, 2**40)


def test_alg_cmp_close_quadratics_across_fields():
    # 3 Y^2 - 2 X^2 = 1 with X of 200 digits: X sqrt 2 < Y sqrt 3, the two
    # differing by about 1/(2 X sqrt 2), far below any fixed precision cap
    x, y = 1, 1
    while len(str(x)) < 200:
        x, y = 5 * x + 6 * y, 4 * x + 5 * y
    assert 3 * y * y - 2 * x * x == 1
    assert alg_cmp(Quadratic(0, x, 2), Quadratic(0, y, 3)) == -1
    assert alg_cmp(Quadratic(0, y, 3), Quadratic(0, x, 2)) == 1
    assert alg_cmp(Quadratic(1, -x, 2), Quadratic(1, -y, 3)) == 1


def test_alg_cmp_isolated_root_against_close_rational():
    # q = floor(2^(1/3) 2^610) / 2^610, so 0 < 2^(1/3) - q < 2^-600
    target = 2 * 2 ** (3 * 610)
    a = 1 << 611
    while a**3 > target:  # Newton from above: integer cube root
        a = (2 * a + target // (a * a)) // 3
    while (a + 1) ** 3 <= target:
        a += 1
    q = Fraction(a, 2**610)
    assert q**3 < 2 < (q + Fraction(1, 2**600)) ** 3
    for other in (q, Quadratic(q)):
        assert alg_cmp(largest_real_root((-2, 0, 0, 1)), other) == 1
        assert alg_cmp(other, largest_real_root((-2, 0, 0, 1))) == -1


def test_isolated_roots_of_products_compare_exactly():
    # IsolatedRoots built directly on (x^2 - 2)(x^3 - x - 1) and
    # (x^2 - 2)(x^2 - 5), so nothing is promoted: sqrt 2 appears as a root of
    # both, next to the plastic number 1.3247... and sqrt 5
    p = poly_mul((-2, 0, 1), (-1, -1, 0, 1))
    q = poly_mul((-2, 0, 1), (-5, 0, 1))
    sqrt2_p = IsolatedRoot(p, Fraction(7, 5), Fraction(3, 2))
    plastic = IsolatedRoot(p, Fraction(13, 10), Fraction(7, 5))
    sqrt2_q = IsolatedRoot(q, Fraction(1), Fraction(2))
    sqrt5_q = IsolatedRoot(q, Fraction(2), Fraction(3))
    sqrt2, sqrt5 = Quadratic(0, 1, 2), Quadratic(0, 1, 5)
    # IsolatedRoot against IsolatedRoot: a common factor with a root in the overlap
    assert alg_cmp(sqrt2_p, sqrt2_q) == 0 and alg_cmp(sqrt2_q, sqrt2_p) == 0
    assert sqrt2_p == sqrt2_q and hash(sqrt2_p) == hash(sqrt2_q)
    assert alg_cmp(plastic, sqrt2_q) == -1 and alg_cmp(sqrt5_q, sqrt2_p) == 1
    assert alg_cmp(plastic, sqrt5_q) == -1 and alg_cmp(sqrt2_q, plastic) == 1
    # IsolatedRoot against Quadratic
    for root in (sqrt2_p, sqrt2_q):
        assert alg_cmp(root, sqrt2) == 0 and alg_cmp(sqrt2, root) == 0
        assert alg_cmp(root, sqrt5) == -1 and alg_cmp(sqrt5, root) == 1
        assert alg_cmp(root, Fraction(99, 70)) == -1 and alg_cmp(root, Fraction(140, 99)) == 1
    assert alg_cmp(sqrt5_q, sqrt5) == 0 and alg_cmp(sqrt5_q, sqrt2) == 1
    # sqrt(17)/3 = 1.374... lies in the plastic number's interval but is no root of p
    assert alg_cmp(plastic, Quadratic(0, Fraction(1, 3), 17)) == -1
    assert alg_cmp(Quadratic(0, Fraction(1, 3), 17), plastic) == 1


def test_structural_equality_matches_sturm_oracle():
    # every real root of p and of each product p q of two small irreducible
    # polynomials, at its isolating interval and narrowed to 1/16: roots of
    # p against roots of p q are equal where they share a factor
    base = [(-2, 0, 1), (-3, 0, 1), (-1, -1, 1), (-1, -1, 0, 1), (1, -3, 0, 1), (1, 0, -10, 0, 1)]
    roots = []
    for p in base + [poly_mul(p, q) for p, q in combinations(base, 2)]:
        sf, _, intervals = intpoly.isolate_real_roots(p)
        for interval, width in product(intervals, (Fraction(4), Fraction(1, 16))):
            roots.append(IsolatedRoot._certified(sf, *intpoly.refine_interval(sf, *interval, width)))
    overlapping = [(x, y) for x, y in combinations(roots, 2) if max(x._lo, y._lo) < min(x._hi, y._hi)]
    equal = [pair for pair in overlapping if _structural_eq(*pair)]
    assert equal == [pair for pair in overlapping if isolated_roots_equal_oracle(*pair)]
    assert any(x.poly != y.poly for x, y in equal)
    assert len(equal) > 800 and len(overlapping) - len(equal) > 1500


SQUAREFREE = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21]


@given(
    st.integers(-50, 50),
    st.integers(1, 10**6),
    st.sampled_from(SQUAREFREE),
    st.integers(-(10**6), 10**6).filter(bool),
    st.sampled_from(SQUAREFREE),
    st.integers(0, 30),
    st.integers(-3, 3),
)
@settings(max_examples=300, deadline=None)
def test_alg_cmp_across_fields_matches_mpmath(a1, b1, d1, b2, d2, digits, nudge):
    # a2 is x - b2 sqrt(d2) rounded to `digits` decimals and nudged by a few
    # units, so x and y agree to about that many digits
    if d1 == d2:
        d2 = SQUAREFREE[(SQUAREFREE.index(d2) + 1) % len(SQUAREFREE)]
    den = 10**digits
    with mpmath.workdps(200):
        gap = a1 + b1 * mpmath.sqrt(d1) - b2 * mpmath.sqrt(d2)
        a2 = Fraction(int(mpmath.floor(gap * den)) + nudge, den)
        diff = gap - mpmath.mpf(a2.numerator) / a2.denominator
        # a nonzero difference of this height exceeds 10^-150 (norm bound)
        assert abs(diff) > mpmath.mpf(10) ** -150
        want = 1 if diff > 0 else -1
    x, y = Quadratic(a1, b1, d1), Quadratic(a2, b2, d2)
    assert alg_cmp(x, y) == want
    assert alg_cmp(y, x) == -want


@given(
    st.integers(-50, 50),
    st.integers(-(10**6), 10**6),
    st.sampled_from([0] + SQUAREFREE),
    st.integers(-(10**6), 10**6),
    st.integers(0, 30),
    st.integers(-3, 3),
)
@settings(max_examples=300, deadline=None)
def test_alg_cmp_in_one_field_and_against_rationals_matches_mpmath(a1, b1, d, b2, digits, nudge):
    # y = a2 + b2 sqrt(d) in the field of x, or y = a2 rational against x,
    # with a2 rounded so that x and y agree to about `digits` decimals
    den = 10**digits
    for y_b in (b2, 0):
        with mpmath.workdps(200):
            gap = a1 + b1 * mpmath.sqrt(d) - y_b * mpmath.sqrt(d)
            a2 = Fraction(int(mpmath.floor(gap * den)) + nudge, den)
            diff = gap - mpmath.mpf(a2.numerator) / a2.denominator
            want = 0 if abs(diff) < mpmath.mpf(10) ** -150 else 1 if diff > 0 else -1
        x, y = Quadratic(a1, b1, d), Quadratic(a2, y_b, d)
        assert alg_cmp(x, y) == want
        assert alg_cmp(y, x) == -want
        assert alg_cmp(x, x) == 0


def test_codegree_spectrum_of_a_huge_near_group_factors_once(monkeypatch):
    # near_group((2,), L) at L = 10^18: promoting one irrational codegree
    # factors the 73-digit discriminant of their quadratic; the other is its
    # conjugate, and sorting and comparing them factor nothing more
    ring = fr.near_group((2,), 10**18)
    calls = []
    factorize = numtheory.factorize
    monkeypatch.setattr(numtheory, "factorize", lambda n: calls.append(n) or factorize(n))
    spectrum = codegree_spectrum(ring)
    assert len(calls) == 1
    assert len(spectrum) == 3
    assert spectrum[0].value == spectrum[1].value.conjugate()


def test_quadratic_arithmetic_factors_no_radicand_again(monkeypatch):
    # a Quadratic's D is square-free, so its conjugate, negation, sums and
    # products reuse it: only the constructor factors
    calls = []
    factorize = numtheory.factorize
    monkeypatch.setattr(numtheory, "factorize", lambda n: calls.append(n) or factorize(n))
    q = Quadratic(1, 1, 10**36 + 8)
    results = [q.conjugate(), -q, q + 1, q * q, q - q, q / q]
    assert len(calls) == 1
    a, b, D = q.a, q.b, q.D
    want = [(a, -b, D), (-a, -b, D), (a + 1, b, D), (a * a + b * b * D, 2 * a * b, D), (0, 0, 0), (1, 0, 0)]
    assert [(x.a, x.b, x.D) for x in results] == want


def _sqrt_interval_by_loop(D: int, width: Fraction) -> tuple[Fraction, Fraction]:
    """`algebraic._sqrt_interval` as it was before its closed form for k:
    the least k >= 1 with 2^-k < width, found by counting up."""
    if D == 0:
        return Fraction(0), Fraction(0)
    k = 1
    while Fraction(1, 1 << k) >= width:
        k += 1
    scale = 1 << k
    s = math.isqrt(D * scale * scale)
    lo, hi = Fraction(s, scale), Fraction(s + 1, scale)
    return (lo, lo) if lo * lo == D else (lo, hi)


def test_sqrt_interval_matches_the_loop_it_replaced():
    # seeded widths from above 1 down to 2^-4096, with exact powers of two
    # (where 2^-k >= width is an equality), their neighbours, and the width
    # 1 / (2^bits - 1/2) just above a power, where floor(1 / width) = 2^bits - 1
    # and its ceiling would be a power of two
    rng = random.Random(20261021)
    widths = [Fraction(3), Fraction(1), Fraction(1, 2**4096)]
    for _ in range(200):
        bits = rng.randrange(4077)
        widths.append(Fraction(rng.randrange(1, 2**20), rng.randrange(1, 2**20) << bits))
        power = Fraction(1, 2**bits)
        widths += [power, power * (1 + Fraction(1, 2**20)), power * (1 - Fraction(1, 2**20)), Fraction(2, 2 ** (bits + 1) - 1)]
    radicands = [0, 1, 2, 3, 4, 5, 12, 10**40 + 7, 2**200]
    for width in widths:
        D = rng.choice(radicands)
        assert _sqrt_interval(D, width) == _sqrt_interval_by_loop(D, width), (D, width)


@pytest.mark.parametrize("width", [Fraction(0), Fraction(-1, 2**64), Fraction(-3), 0, -1])
def test_a_width_that_is_not_positive_raises_value_error(width):
    # Quadratic(1, 1, 2).interval(0) never returned, and IsolatedRoot.interval(0)
    # raised ZeroDivisionError; fpdim_basis and fpdim_total take each path,
    # including those where no interval is refined
    root = IsolatedRoot((-2, 0, 0, 1), Fraction(6, 5), Fraction(13, 10))  # cube root of 2
    cubic, pointed = cubic_chain_ring(), fr.group_ring((3,))
    calls = {
        "Quadratic.interval": Quadratic(1, 1, 2).interval,
        "rational Quadratic.interval": Quadratic(3).interval,
        "IsolatedRoot.interval": root.interval,
        "IsolatedRoot.narrowed": root.narrowed,
        "fpdim_basis, unit": lambda w: fpdim_basis(cubic, 0, width=w),
        "fpdim_basis, cubic root": lambda w: fpdim_basis(cubic, 1, width=w),
        "fpdim_total, cubic root": lambda w: fpdim_total(cubic, width=w),
        "fpdim_total, pointed": lambda w: fpdim_total(pointed, width=w),
    }
    for name, call in calls.items():
        start = time.perf_counter()
        with pytest.raises(ValueError, match="not positive"):
            call(width)
        assert time.perf_counter() - start < 1, name


def test_a_float_coefficient_raises_type_error_instead_of_truncating():
    # int(-2.5) is -2: x^2 - 2.5 was read as x^2 - 2, whose root is sqrt(2)
    for poly in ((-2.5, 0, 1), (-2, 0.0, 1), (True, 0, 1)):
        with pytest.raises(TypeError):
            intpoly.primitive(poly)
        with pytest.raises(TypeError):
            IsolatedRoot(poly, 1, 2)
        with pytest.raises(TypeError):
            largest_real_root(poly)
    assert intpoly.primitive((Fraction(-5, 2), 0, 1)) == (-5, 0, 2)


def test_a_float_radicand_raises_type_error():
    # 2.5 failed only in the factoring; 1.0 and 0.5 were folded into a float a
    for D in (2.5, 2.0, 1.0, 0.5):
        for b in (1, 0):
            with pytest.raises(TypeError):
                Quadratic(0, b, D)
    assert Quadratic(0, 1, 8) == Quadratic(0, 2, 2)


def test_a_float_part_raises_type_error():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    for a, b in ((0.1, 0), (0, 0.5), (1.0, 1), (True, 1)):
        with pytest.raises(TypeError):
            Quadratic(a, b, 2)
    assert Quadratic(Fraction(1, 10), 1, 2).a == Fraction(1, 10)
