import random
from fractions import Fraction
from functools import reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    charpoly_oracle,
    poly_gcd_oracle,
    refine_interval_oracle,
    sturm_chain_oracle,
    su2_ring,
)
from fusionring import intpoly
from fusionring.ring import global_multiplication_matrix


def test_poly_basics():
    p = (1, 2, 3)  # 3x^2 + 2x + 1
    assert intpoly.poly_eval(p, 2) == 17
    assert intpoly.poly_mul((1, 1), (-1, 1)) == (-1, 0, 1)
    assert intpoly.poly_derivative(p) == (2, 6)
    q, r = intpoly.poly_divmod((-1, 0, 1), (1, 1))
    assert q == (Fraction(-1), Fraction(1)) and r == ()


def test_gcd_and_squarefree():
    # (x-1)^2 (x+2)
    p = intpoly.poly_mul(intpoly.poly_mul((-1, 1), (-1, 1)), (2, 1))
    g = intpoly.poly_gcd(p, intpoly.poly_derivative(p))
    assert g == (-1, 1)
    assert intpoly.squarefree_part(p) == intpoly.primitive(intpoly.poly_mul((-1, 1), (2, 1)))


def test_yun_decomposition():
    # p = (x-1)(x-2)^2(x-3)^3
    f1, f2, f3 = (-1, 1), (-2, 1), (-3, 1)
    p = f1
    for _ in range(2):
        p = intpoly.poly_mul(p, f2)
    p = intpoly.poly_mul(p, f1)  # make it (x-1)^2 (x-2)^2
    p = intpoly.poly_mul(p, intpoly.poly_mul(f3, intpoly.poly_mul(f3, f3)))
    dec = intpoly.squarefree_decomposition(p)
    rebuilt = (1,)
    for f, m in dec:
        for _ in range(m):
            rebuilt = intpoly.poly_mul(rebuilt, f)
    assert intpoly.primitive(rebuilt) == intpoly.primitive(p)
    assert {m for _, m in dec} == {2, 3}


def test_sturm_root_counts():
    # x^3 - 2x: roots -sqrt2, 0, sqrt2
    p = (0, -2, 0, 1)
    chain = intpoly.sturm_chain(p)
    assert intpoly.count_real_roots(chain, Fraction(-3), Fraction(3)) == 3
    assert intpoly.count_real_roots(chain, Fraction(1), Fraction(3)) == 1
    assert intpoly.count_all_real_roots(p) == 3
    # x^2 + 1 has no real roots
    assert intpoly.count_all_real_roots((1, 0, 1)) == 0


def test_isolate_mixed_rational_irrational():
    # x (x^2 - 2) (x - 2): rational roots 0, 2; irrational +-sqrt(2)
    p = intpoly.poly_mul((0, 1), intpoly.poly_mul((-2, 0, 1), (-2, 1)))
    rational, intervals = intpoly.isolate_real_roots(p)
    assert rational == [Fraction(0), Fraction(2)]
    assert len(intervals) == 2
    for lo, hi in intervals:
        assert intpoly.poly_eval(p, lo) * intpoly.poly_eval(p, hi) < 0


def test_isolate_non_monic_rational_roots():
    # (2x - 1)(3x + 2)(x^2 - 3)
    p = intpoly.poly_mul(intpoly.poly_mul((-1, 2), (2, 3)), (-3, 0, 1))
    rational, intervals = intpoly.isolate_real_roots(p)
    assert rational == [Fraction(-2, 3), Fraction(1, 2)]
    assert len(intervals) == 2


def test_refine_interval():
    lo, hi = intpoly.refine_interval((-2, 0, 1), Fraction(1), Fraction(2), Fraction(1, 2**20))
    assert hi - lo <= Fraction(1, 2**20)
    assert lo < Fraction(1414213562, 10**9) < hi


def test_charpoly_constant_term_is_det():
    rng = random.Random(11)
    for n in (1, 2, 3, 5, 7):
        for _ in range(10):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            want = round(float(np.linalg.det(np.array(m, dtype=float))))
            assert (-1) ** n * intpoly.charpoly(m)[0] == want


def test_charpoly_matches_oracle():
    rng = random.Random(5)
    for n in (1, 2, 3, 6, 9):
        for _ in range(6):
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert intpoly.charpoly(m) == charpoly_oracle(m)


def test_charpoly_matches_oracle_random_up_to_12():
    rng = random.Random(7)
    for n in range(1, 13):
        for _ in range(3):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert intpoly.charpoly(m) == charpoly_oracle(m), n


def test_charpoly_matches_oracle_su2_fusion_matrices():
    for k in range(1, 11):
        ring = su2_ring(k)
        mats = [ring.fusion_matrix(i) for i in range(ring.rank)]
        mats.append(global_multiplication_matrix(ring))
        for m in mats:
            assert intpoly.charpoly(m) == charpoly_oracle(m), k


# products of small integer factors: repeated, non-monic and negative-leading
# factors make common roots, multiple roots and sign flips
_factor = st.lists(st.integers(-6, 6), min_size=2, max_size=4).filter(lambda c: c[-1] != 0)
_product = st.lists(_factor, min_size=1, max_size=4).map(
    lambda fs: reduce(intpoly.poly_mul, map(tuple, fs), (1,))
)


@settings(max_examples=300, deadline=None)
@given(_product, _product, _product)
def test_poly_gcd_matches_fraction_euclid(f, g, h):
    p, q = intpoly.poly_mul(f, h), intpoly.poly_mul(g, h)
    assert intpoly.poly_gcd(p, q) == poly_gcd_oracle(p, q)
    assert intpoly.poly_gcd(p, intpoly.poly_derivative(p)) == poly_gcd_oracle(p, intpoly.poly_derivative(p))


@settings(max_examples=300, deadline=None)
@given(_product)
def test_sturm_chain_matches_fraction_euclid(f):
    p = intpoly.squarefree_part(f)
    assert intpoly.sturm_chain(p) == sturm_chain_oracle(p)


@settings(max_examples=500, deadline=None)
@given(_product, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
def test_sign_at_matches_fraction_eval(p, a, b):
    v = intpoly.poly_eval(p, Fraction(a, b))
    assert intpoly.sign_at(p, a, b) == (v > 0) - (v < 0)


@settings(max_examples=200, deadline=None)
@given(_product, st.integers(1, 30))
def test_refine_interval_matches_fraction_bisection(f, bits):
    p = intpoly.squarefree_part(f)
    _, intervals = intpoly.isolate_real_roots(p)
    width = Fraction(1, 2**bits)
    for lo, hi in intervals:  # endpoints are non-dyadic when p is not monic
        assert intpoly.refine_interval(p, lo, hi, width) == refine_interval_oracle(p, lo, hi, width)


def test_charpoly_identity():
    assert intpoly.charpoly([[1, 0], [0, 1]]) == (1, -2, 1)
    assert intpoly.charpoly([]) == (1,)
