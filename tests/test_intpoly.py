import math
import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fusionring as fr
from conftest import (
    charpoly_oracle,
    nonzero_rows,
    on_isolation_grid,
    poly_divexact_oracle,
    poly_divmod_oracle,
    poly_gcd_oracle,
    poly_mul,
    rational_root_in_oracle,
    refine_interval_oracle,
    squarefree_decomposition_oracle,
    sturm_chain_oracle,
    su2_ring,
)
from fusionring import intpoly
from fusionring.ring import global_multiplication_matrix


def test_poly_basics():
    p = (1, 2, 3)  # 3x^2 + 2x + 1
    assert intpoly.poly_eval(p, 2) == 17
    assert poly_mul((1, 1), (-1, 1)) == (-1, 0, 1)
    assert intpoly.poly_derivative(p) == (2, 6)
    assert intpoly.poly_divexact((-1, 0, 1), (1, 1)) == (-1, 1)


def test_gcd_and_squarefree():
    # (x-1)^2 (x+2)
    p = poly_mul(poly_mul((-1, 1), (-1, 1)), (2, 1))
    g = intpoly.poly_gcd(p, intpoly.poly_derivative(p))
    assert g == (-1, 1)
    assert intpoly.squarefree_part(p) == intpoly.primitive(poly_mul((-1, 1), (2, 1)))


def test_yun_decomposition():
    # p = (x-1)(x-2)^2(x-3)^3
    f1, f2, f3 = (-1, 1), (-2, 1), (-3, 1)
    p = f1
    for _ in range(2):
        p = poly_mul(p, f2)
    p = poly_mul(p, f1)  # make it (x-1)^2 (x-2)^2
    p = poly_mul(p, poly_mul(f3, poly_mul(f3, f3)))
    dec = squarefree_decomposition_oracle(p)
    rebuilt = (1,)
    for f, m in dec:
        for _ in range(m):
            rebuilt = poly_mul(rebuilt, f)
    assert intpoly.primitive(rebuilt) == intpoly.primitive(p)
    assert {m for _, m in dec} == {2, 3}


def test_sturm_root_counts():
    # x^3 - 2x: roots -sqrt2, 0, sqrt2
    p = (0, -2, 0, 1)
    chain = intpoly.sturm_chain(p)
    assert intpoly.count_real_roots(chain, Fraction(-3), Fraction(3)) == 3
    assert intpoly.count_real_roots(chain, Fraction(1), Fraction(3)) == 1
    sf, rational, intervals = intpoly.isolate_real_roots(p)
    assert sf == p and len(rational) + len(intervals) == 3
    # x^2 + 1 has no real roots
    assert intpoly.count_real_roots(intpoly.sturm_chain((1, 0, 1)), Fraction(-3), Fraction(3)) == 0
    assert intpoly.isolate_real_roots((1, 0, 1)) == ((1, 0, 1), [], [])


def test_isolate_mixed_rational_irrational():
    # x (x^2 - 2) (x - 2), given with x - 2 squared: rational roots 0, 2;
    # irrational +-sqrt(2)
    p = poly_mul((0, 1), poly_mul((-2, 0, 1), (-2, 1)))
    sf, rational, intervals = intpoly.isolate_real_roots(poly_mul(p, (-2, 1)))
    assert sf == p
    assert rational == [Fraction(0), Fraction(2)]
    assert len(intervals) == 2
    for lo, hi in intervals:
        assert intpoly.poly_eval(p, lo) * intpoly.poly_eval(p, hi) < 0


def test_isolate_non_monic_rational_roots():
    # (2x - 1)(3x + 2)(x^2 - 3)
    p = poly_mul(poly_mul((-1, 2), (2, 3)), (-3, 0, 1))
    _, rational, intervals = intpoly.isolate_real_roots(p)
    assert rational == [Fraction(-2, 3), Fraction(1, 2)]
    assert len(intervals) == 2


def test_isolate_keeps_a_rational_root_outside_the_interval():
    # (x - 2)(x^2 - 17x + 34): the root (17 - sqrt 153)/2 = 2.315... lies
    # within 1/2 of the rational root 2, so round(L mid)/L is 2 on its
    # narrowed interval, a root of p that is not the one inside
    p = poly_mul((-2, 1), (34, -17, 1))
    sf, rational, intervals = intpoly.isolate_real_roots(p)
    assert sf == p and rational == [Fraction(2)] and len(intervals) == 2
    assert intervals[0][0] > 2
    # non-monic, L = 2: (2x - 1)(x^2 + x - 1), whose root 1/phi = 0.618...
    # lies within 1/4 of 1/2 = round(2 mid)/2
    p = poly_mul((-1, 2), (-1, 1, 1))
    sf, rational, intervals = intpoly.isolate_real_roots(p)
    assert sf == p and rational == [Fraction(1, 2)] and len(intervals) == 2
    lo, hi = intpoly.refine_interval(p, *intervals[1], Fraction(1, 4))
    assert Fraction(round(lo + hi), 2) == Fraction(1, 2) < lo
    for lo, hi in intervals:
        assert intpoly._rational_root_in(p, lo, hi) is None
        fr.IsolatedRoot(p, lo, hi)


def _seeded_products(seed: int, count: int) -> list:
    """Products of two to four small integer factors of degree 1 to 3, seeded,
    with rational roots of denominators up to 4 among them, plus products
    with roots on bisection midpoints, such as x (2x - 1)(x^2 - 2)."""
    rng = random.Random(seed)
    polys = [
        poly_mul(poly_mul((0, 1), (-1, 2)), (-2, 0, 1)),
        poly_mul(poly_mul((3, 4), (-1, 1)), (-3, 0, 1)),
        poly_mul(poly_mul((-1, 2), (1, 4)), (-5, 0, 2)),
        poly_mul((-2, 1), (34, -17, 1)),
        poly_mul((-1, 2), (-1, 1, 1)),
    ]
    while len(polys) < count:
        factors = []
        for _ in range(rng.randint(2, 4)):
            if rng.random() < 0.5:
                factors.append((rng.randint(-6, 6), rng.randint(1, 4)))
            else:
                f = [rng.randint(-9, 9) for _ in range(rng.randint(2, 3))] + [rng.randint(1, 3)]
                factors.append(tuple(f))
        polys.append(reduce(poly_mul, factors, (1,)))
    return polys


def test_rational_root_in_matches_stern_brocot_oracle(monkeypatch):
    """Every interval on which isolate_real_roots asks for a rational root,
    over seeded products, and a window around each rational root it finds:
    the integer test agrees with the Stern-Brocot walk, and the rational
    roots found are all the roots."""
    asked = []
    rational_root_in = intpoly._rational_root_in
    monkeypatch.setattr(
        intpoly, "_rational_root_in", lambda p, a, b: asked.append((p, a, b)) or rational_root_in(p, a, b)
    )
    found = 0
    for f in _seeded_products(22, 300):
        sf, rational, intervals = intpoly.isolate_real_roots(f)
        chain = intpoly.sturm_chain(sf)
        bound = Fraction(2 * abs(sf[-1]) + max(map(abs, sf[:-1])), abs(sf[-1]))
        assert len(rational) + len(intervals) == intpoly.count_real_roots(chain, -bound, bound)
        for r in rational:
            assert intpoly.sign_at(sf, r.numerator, r.denominator) == 0
            # a window around r that holds no other root, nor at its ends
            e = Fraction(1, 3)
            while intpoly.count_real_roots(chain, r - e, r + e) != 1 or not (
                intpoly.poly_eval(sf, r - e) and intpoly.poly_eval(sf, r + e)
            ):
                e /= 3
            asked.append((sf, r - e, r + e))
        found += len(rational)
    assert found > 200 and len(asked) > 1000
    for p, a, b in asked:
        assert rational_root_in(p, a, b) == rational_root_in_oracle(p, a, b), (p, a, b)


def _grid_corpus(two_orbit_corpus) -> set:
    """Square-free parts of the seeded products, of the Krylov polynomials of
    every N_i and M of SU(2)_k, k <= 20, Haagerup-Izumi C3 to C8 and the
    near-groups of the two-orbit corpus."""
    rings = [su2_ring(k) for k in range(1, 21)] + [fr.haagerup_izumi((n,)) for n in range(3, 9)]
    rings += [ring for name, ring in two_orbit_corpus.items() if name.startswith("NG")]
    polys = set(_seeded_products(22, 300))
    for ring in rings:
        polys.update(intpoly.krylov(ring.rows[i])[0] for i in range(ring.rank))
        polys.add(intpoly.krylov(nonzero_rows(global_multiplication_matrix(ring)))[0])
    return polys


def test_isolated_intervals_are_cells_of_one_dyadic_grid(two_orbit_corpus):
    """Every interval isolate_real_roots returns, and every interval its
    root hands out at 2^-64 and 2^-256, is a cell of the dyadic grid of
    (-B, B): rational roots on bisection midpoints do not shift it."""
    count = 0
    for f in _grid_corpus(two_orbit_corpus):
        sf, _, intervals = intpoly.isolate_real_roots(f)
        for lo, hi in intervals:
            root = fr.IsolatedRoot._certified(sf, lo, hi)
            for width in (hi - lo, Fraction(1, 2**64), Fraction(1, 2**256)):
                assert on_isolation_grid(sf, *root.interval(width)), (sf, lo, hi, width)
            count += 1
    assert count > 1000


def test_refine_interval():
    lo, hi = intpoly.refine_interval((-2, 0, 1), Fraction(1), Fraction(2), Fraction(1, 2**20))
    assert hi - lo <= Fraction(1, 2**20)
    assert lo < Fraction(1414213562, 10**9) < hi


def _vec_mat(v, a):
    return [sum(v[j] * a[j][t] for j in range(len(v))) for t in range(len(a))]


def _rank(vectors) -> int:
    """Rank by Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _check_krylov(m):
    """krylov(m) against first principles: the powers are e_0 m^k, of full
    rank, and p of degree len(powers) is monic with e_0 p(m) = 0, so p is
    the least such polynomial; p divides the oracle's charpoly."""
    p, powers = intpoly.krylov(nonzero_rows(m))
    n = len(m)
    d = intpoly.degree(p)
    assert p[-1] == 1 and d == len(powers) >= 1
    v = [1] + [0] * (n - 1)
    relation = [0] * n
    for k in range(d + 1):
        if k < d:
            assert powers[k] == v
        relation = [r + p[k] * x for r, x in zip(relation, v)]
        v = _vec_mat(v, m)
    assert relation == [0] * n
    assert _rank(powers) == d
    cp = charpoly_oracle(m)
    assert poly_divmod_oracle(cp, p)[1] == ()
    return p, cp


def test_charpoly_constant_term_is_det():
    rng = random.Random(11)
    for n in (1, 2, 3, 5, 7):
        for _ in range(10):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            want = round(float(np.linalg.det(np.array(m, dtype=float))))
            assert (-1) ** n * charpoly_oracle(m)[0] == want
            p, _ = intpoly.krylov(nonzero_rows(m))
            if intpoly.degree(p) == n:
                assert (-1) ** n * p[0] == want


def test_charpoly_matches_oracle():
    # e_0 is cyclic for most random matrices: then the Krylov polynomial is
    # the charpoly itself
    rng = random.Random(5)
    cyclic = 0
    for n in (1, 2, 3, 6, 9):
        for _ in range(6):
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            p, cp = _check_krylov(m)
            if intpoly.degree(p) == n:
                assert p == cp
                cyclic += 1
    assert cyclic >= 20


def test_charpoly_matches_oracle_random_up_to_12():
    # dense matrices, sparse 0/1 matrices (where e_0 often spans a proper
    # invariant subspace) and block matrices with repeated eigenvalues
    rng = random.Random(7)
    short = 0
    for n in range(1, 13):
        for _ in range(3):
            dense = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            sparse = [[int(rng.random() < 0.2) for _ in range(n)] for _ in range(n)]
            c = rng.randint(-3, 3)
            block = [[c * (i == j) + (j == i + 1 and i % 2 == 0) for j in range(n)] for i in range(n)]
            for m in (dense, sparse, block):
                p, _ = _check_krylov(m)
                short += intpoly.degree(p) < n
    assert short >= 20


def test_charpoly_matches_oracle_su2_fusion_matrices():
    for k in range(1, 20):
        ring = su2_ring(k)
        for m in [ring.fusion_matrix(i) for i in range(ring.rank)]:
            p, cp = _check_krylov(m)
            assert intpoly.squarefree_part(p) == intpoly.squarefree_part(cp), k
        m = global_multiplication_matrix(ring)
        p, cp = _check_krylov(m)
        assert p == intpoly.squarefree_part(cp), k  # M is symmetric


def test_krylov_squarefree_part_matches_oracle_on_corpora(small_corpus, two_orbit_corpus, spectra_corpus):
    # every N_i and M: the square-free part, all that the root finders read,
    # is the charpoly's; for the symmetric M the Krylov polynomial is it
    cases = [(r, lambda i: i) for r in (*small_corpus.values(), *two_orbit_corpus.values(), *spectra_corpus.values())]
    # Haagerup-Izumi C32 (rank 64, x(g) at index 32 + g): the automorphisms
    # g -> ug of C32, generated by u = -1 and u = 5, preserve the rules
    # (checked here), so N_x(g) is permutation-similar to N_x(gcd(g, 32)),
    # whose oracle charpoly then serves it
    hi = fr.haagerup_izumi((32,))
    n = hi.rank
    for u in (-1, 5):
        perm = [u * g % 32 for g in range(32)] + [32 + u * g % 32 for g in range(32)]
        t = hi.tensor.tolist()
        assert all(t[perm[i]][perm[j]][perm[k]] == t[i][j][k] for i in range(n) for j in range(n) for k in range(n))
    cases.append((hi, lambda i: i if i < 32 else 32 + math.gcd(i - 32, 32) % 32))
    for ring, ref in cases:
        oracle = {}
        for i in range(ring.rank):
            if ref(i) not in oracle:
                oracle[ref(i)] = intpoly.squarefree_part(charpoly_oracle(ring.fusion_matrix(ref(i))))
            p = intpoly.krylov(ring.rows[i])[0]
            assert intpoly.squarefree_part(p) == oracle[ref(i)], (ring, i)
        m = global_multiplication_matrix(ring)
        assert intpoly.krylov(nonzero_rows(m))[0] == intpoly.squarefree_part(charpoly_oracle(m)), ring


# products of small integer factors: repeated, non-monic and negative-leading
# factors make common roots, multiple roots and sign flips
_factor = st.lists(st.integers(-6, 6), min_size=2, max_size=4).filter(lambda c: c[-1] != 0)
_product = st.lists(_factor, min_size=1, max_size=4).map(
    lambda fs: reduce(poly_mul, map(tuple, fs), (1,))
)


@settings(max_examples=300, deadline=None)
@given(_product, _product, _product)
def test_poly_gcd_matches_fraction_euclid(f, g, h):
    p, q = poly_mul(f, h), poly_mul(g, h)
    assert intpoly.poly_gcd(p, q) == poly_gcd_oracle(p, q)
    assert intpoly.poly_gcd(p, intpoly.poly_derivative(p)) == poly_gcd_oracle(p, intpoly.poly_derivative(p))


@settings(max_examples=300, deadline=None)
@given(_product)
def test_sturm_chain_matches_fraction_euclid(f):
    p = intpoly.squarefree_part(f)
    assert intpoly.sturm_chain(p) == sturm_chain_oracle(p)


@settings(max_examples=300, deadline=None)
@given(_product, _product)
def test_poly_divexact_matches_fraction_division_on_exact_products(f, g):
    assert intpoly.poly_divexact(poly_mul(f, g), g) == poly_divexact_oracle(poly_mul(f, g), g) == f


@settings(max_examples=300, deadline=None)
@given(_product, _product)
def test_poly_divexact_rejects_inexact_division(p, q):
    # inexact over Z: a remainder over Q, or a quotient over Q that is not
    # integral, such as p / (2 q) for primitive p = q
    quo, rem = poly_divmod_oracle(p, q)
    if rem or any(c.denominator != 1 for c in quo):
        with pytest.raises(ValueError):
            intpoly.poly_divexact(p, q)
    else:
        assert intpoly.poly_divexact(p, q) == quo
    with pytest.raises(ValueError):
        intpoly.poly_divexact(p, poly_mul(p, (2,)))  # 1/2


def _assert_public_constructor_accepts(p) -> int:
    """Every interval isolate_real_roots(p) returns passes the checking
    IsolatedRoot constructor on the square-free part it returns, so the
    library's unchecked construction builds only what that would accept."""
    sf, rational, intervals = intpoly.isolate_real_roots(p)
    assert sf == intpoly.squarefree_part(p)
    for lo, hi in intervals:
        root = fr.IsolatedRoot(sf, lo, hi)
        assert root.poly == sf and root.interval(hi - lo) == (lo, hi)
    return len(intervals)


@settings(max_examples=300, deadline=None)
@given(_product)
def test_isolated_intervals_pass_the_public_constructor(f):
    _assert_public_constructor_accepts(f)


def test_isolated_intervals_pass_the_public_constructor_on_krylov_polynomials(
    small_corpus, two_orbit_corpus, spectra_corpus
):
    rings = [*small_corpus.values(), *two_orbit_corpus.values(), *spectra_corpus.values()]
    rings += [su2_ring(k) for k in range(1, 20)]
    polys = set()
    for ring in rings:
        polys.update(intpoly.krylov(ring.rows[i])[0] for i in range(ring.rank))
        polys.add(intpoly.krylov(nonzero_rows(global_multiplication_matrix(ring)))[0])
    assert sum(map(_assert_public_constructor_accepts, polys)) > 0


@settings(max_examples=500, deadline=None)
@given(_product, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
def test_sign_at_matches_fraction_eval(p, a, b):
    v = intpoly.poly_eval(p, Fraction(a, b))
    assert intpoly.sign_at(p, a, b) == (v > 0) - (v < 0)


@settings(max_examples=200, deadline=None)
@given(_product, st.integers(1, 300))
# two inputs on which a Newton window misses the root on its left, which is rare
@example((-100, -310, -454, -536, -371, -212, -66, -1, -45, -15, 4), 96)
@example((-150, -815, -1006, 1215, 2610, -48, -816, 872, 160, -252, 120), 282)
def test_refine_interval_matches_fraction_bisection(f, bits):
    p, _, intervals = intpoly.isolate_real_roots(f)
    assert p == intpoly.squarefree_part(f)
    width = Fraction(1, 2**bits)
    for lo, hi in intervals:  # endpoints are non-dyadic when p is not monic
        assert intpoly.refine_interval(p, lo, hi, width) == refine_interval_oracle(p, lo, hi, width)


@pytest.mark.parametrize("lo", [Fraction(0), Fraction(1, 3)])
@pytest.mark.parametrize("bits", [3, 12, 19, 20, 21, 64, 300])
def test_refine_interval_stops_on_a_root_at_a_grid_point(lo, bits):
    # the root lo + 12345/2^20 is a point of bisection's level-20 grid on
    # (lo, lo + 1), and the only root there: (2^20 x - r)(x^2 - 2)
    r = lo + Fraction(12345, 2**20)
    p = intpoly.primitive(poly_mul((-r, 1), (-2, 0, 1)))
    width = Fraction(1, 2**bits)
    got = intpoly.refine_interval(p, lo, lo + 1, width)
    assert got == refine_interval_oracle(p, lo, lo + 1, width)
    assert (got == (r, r)) == (bits >= 20)


def test_refine_interval_matches_bisection_on_krylov_polynomials(small_corpus, two_orbit_corpus):
    """Every isolating interval of the Krylov polynomial of every N_i and M
    of the corpora and of SU(2)_k, k <= 19, at widths 2^-1, 2^-8, 2^-9 and
    2^-64; a seeded eighth of them at 2^-256 and eight at 2^-1024."""
    rings = [*small_corpus.values(), *two_orbit_corpus.values()] + [su2_ring(k) for k in range(1, 20)]
    polys = set()
    for ring in rings:
        polys.update(intpoly.krylov(ring.rows[i])[0] for i in range(ring.rank))
        polys.add(intpoly.krylov(nonzero_rows(global_multiplication_matrix(ring)))[0])
    cases = sorted({(sf, lo, hi) for sf, _, intervals in map(intpoly.isolate_real_roots, polys) for lo, hi in intervals})
    rng = random.Random(14)
    deep = set(rng.sample(range(len(cases)), len(cases) // 8))
    deepest = set(rng.sample(sorted(deep), 8))
    for n, (p, lo, hi) in enumerate(cases):
        want = (lo, hi)
        for bits in (1, 8, 9, 64, 256, 1024):
            if bits == 256 and n not in deep or bits == 1024 and n not in deepest:
                break
            width = Fraction(1, 2**bits)
            # bisection to a smaller width continues the path to a larger one
            want = refine_interval_oracle(p, *want, width)
            assert intpoly.refine_interval(p, lo, hi, width) == want
    assert len(cases) > 1000


def test_refine_interval_to_4096_bits_takes_few_evaluations(monkeypatch):
    """Bisection would evaluate the polynomial 4096 times or more."""
    ring = su2_ring(19)
    p, _, intervals = intpoly.isolate_real_roots(intpoly.krylov(ring.rows[1])[0])
    lo, hi = intervals[-1]  # the Perron root 2 cos(pi/21)
    calls = []
    value_at = intpoly.value_at
    monkeypatch.setattr(intpoly, "value_at", lambda *args: calls.append(args) or value_at(*args))
    lo, hi = intpoly.refine_interval(p, lo, hi, Fraction(1, 2**4096))
    assert len(calls) <= 200
    monkeypatch.undo()
    assert 0 < hi - lo <= Fraction(1, 2**4096)
    assert intpoly.sign_at(p, lo.numerator, lo.denominator) * intpoly.sign_at(p, hi.numerator, hi.denominator) < 0
    assert abs(float(lo) - 2 * math.cos(math.pi / 21)) < 1e-12


def test_charpoly_identity():
    assert charpoly_oracle([[1, 0], [0, 1]]) == (1, -2, 1)
    assert charpoly_oracle([]) == (1,)
    assert intpoly.krylov([((0, 1),), ((1, 1),)]) == ((-1, 1), [[1, 0]])
    assert intpoly.krylov([((0, 1), (1, 1)), ((1, 1),)]) == ((1, -2, 1), [[1, 0], [1, 1]])
