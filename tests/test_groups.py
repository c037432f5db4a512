import random
import re
from fractions import Fraction

import pytest

from conftest import (
    basis_images_oracle,
    cyc_conjugate_oracle,
    cyc_mul_oracle,
    cyc_reduce_oracle,
    d4_group,
    group_table_associativity_oracle,
    poly_mul,
    q8_group,
    s3_group,
)
from fusionring.cyclotomic import (
    Cyc,
    CycSqrt,
    _basis_images,
    _reduce,
    _reduced_power,
    balanced_residue,
    cyclotomic_poly,
    pack,
    packed_modulus,
)
from fusionring.groups import (
    FiniteGroup,
    abelian_group,
    character_exponents,
    is_automorphism,
    parse_group_factors,
)


def test_abelian_group_structure():
    g = abelian_group((2, 3))
    assert g.order == 6
    assert g.exponent == 6
    assert g.is_abelian
    assert g.element_order(1) == 3  # (0,1)
    assert g.inverse[1] == 2  # (0,1) + (0,2) = 0
    trivial = abelian_group(())
    assert trivial.order == 1


def test_from_table_relocates_identity():
    # cyclic C3 with identity at position 2
    table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    g = FiniteGroup.from_table(table)
    assert g.table[0] == (0, 1, 2)
    assert g.order == 3


def test_s3_nonabelian_and_quotient():
    g = s3_group()
    assert g.order == 6
    assert not g.is_abelian
    # normal subgroup of order 3
    norm = next(
        s for s in (g.subgroup_generated([i]) for i in range(6)) if len(s) == 3
    )
    assert g.is_normal(norm)
    q, proj = g.quotient(list(norm))
    assert q.order == 2
    assert proj[0] == 0
    two = next(s for s in (g.subgroup_generated([i]) for i in range(6)) if len(s) == 2)
    assert not g.is_normal(two)


def test_group_tables_with_seeded_defects_match_the_triple_loop():
    # one to three entries off the identity row and column changed: a table
    # is rejected as non-associative exactly when the full triple loop finds
    # a triple, and the message names the first one it finds
    bases = [abelian_group(f) for f in ((5,), (2, 4), (3, 3), (12,), (2, 2, 2))]
    bases += [s3_group(), d4_group(), q8_group()]
    rng = random.Random(21)
    rejected = kept = 0
    for trial in range(300):
        g = bases[trial % len(bases)]
        n = g.order
        table = [list(row) for row in g.table]
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(1, n), rng.randrange(1, n)
            if rng.random() < 0.5:
                table[i][j] = rng.randrange(n)
            else:  # a swap keeps every row a permutation
                k = rng.randrange(1, n)
                table[i][j], table[i][k] = table[i][k], table[i][j]
        first = group_table_associativity_oracle(table)
        if first is None:
            try:
                FiniteGroup(table)
            except ValueError as exc:
                assert "non-associative" not in str(exc), trial
            kept += 1
        else:
            with pytest.raises(ValueError, match=re.escape(f"non-associative at ({first[0]},{first[1]},{first[2]})")):
                FiniteGroup(table)
            rejected += 1
    assert rejected > 200 and kept > 0
    for g in bases:
        assert group_table_associativity_oracle(g.table) is None


def test_character_exponents_c4():
    g = abelian_group((4,))
    chars = character_exponents(g)
    assert len(chars) == 4
    # values on the generator (index 1) exhaust Z/4
    assert sorted(ch[1] for ch in chars) == [0, 1, 2, 3]
    for ch in chars:
        for a in range(4):
            for b in range(4):
                assert (ch[a] + ch[b]) % 4 == ch[g.mult(a, b)] % 4


def test_character_exponents_klein():
    g = abelian_group((2, 2))
    chars = character_exponents(g)
    assert len(chars) == 4
    assert g.exponent == 2
    nontrivial = [ch for ch in chars if any(e % 2 for e in ch)]
    assert len(nontrivial) == 3


def test_character_exponents_rejects_nonabelian():
    with pytest.raises(ValueError):
        character_exponents(s3_group())


def test_is_automorphism():
    g = abelian_group((4,))
    assert is_automorphism(g, g.inverse)
    assert is_automorphism(g, (0, 1, 2, 3))
    assert not is_automorphism(g, (0, 2, 1, 3))


def test_parse_group_factors():
    assert parse_group_factors("2,2") == (2, 2)
    assert parse_group_factors("") == ()
    assert parse_group_factors("1") == ()


def test_cyclotomic_poly():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_basis_images_by_stepping_match_reduction_from_scratch():
    # the images under conjugation, zeta_N -> zeta_N^-1
    for N in range(1, 301):
        assert _basis_images(N) == basis_images_oracle(N), N


def test_cyc_arithmetic():
    z = Cyc.root(3, 1)
    z2 = Cyc(3, cyc_mul_oracle(z, z))
    assert Cyc(3, cyc_mul_oracle(z2, z)) == Cyc.one(3)
    assert z + z2 == Cyc.rational(3, -1)  # 1 + z + z^2 = 0
    total = Cyc.zero(5)
    for k in range(5):
        total = total + Cyc.root(5, k)
    assert total.is_zero
    assert Cyc.root(8, 1).conjugate() == Cyc.root(8, 7)
    assert Cyc(12, cyc_mul_oracle(Cyc.root(12, 3), Cyc.root(12, 3))) == Cyc.rational(12, -1)  # i^2
    with pytest.raises(ValueError):
        Cyc.one(3) + Cyc.one(6)


def test_cyc_keeps_no_products_of_elements_differences_or_lifts():
    z = Cyc.root(3, 1)
    with pytest.raises(TypeError):
        z * z
    with pytest.raises(TypeError):
        z - z
    with pytest.raises(AttributeError):
        z.lift(6)
    with pytest.raises(TypeError):
        CycSqrt.of(1, 5, u=1) + CycSqrt.of(1, 5, u=1)


def test_cyc_rationality():
    c = Cyc.root(4, 2)  # zeta_4^2 = -1
    assert c.is_rational and c.as_fraction() == -1
    assert not Cyc.root(4, 1).is_rational


def test_cyc_kernel_matches_fraction_polynomial_oracle():
    # conjugates for every N <= 60, with int and with Fraction
    # coefficients, against Fraction polynomials reduced by long division
    rng = random.Random(2026)
    for N in range(1, 61):
        deg = len(cyclotomic_poly(N)) - 1
        for choices in ((0, 0, 1, -1, 2, -3, 7), (0, 1, Fraction(1, 2), Fraction(-5, 3), -2)):
            xs = [Cyc(N, [rng.choice(choices) for _ in range(deg)]) for _ in range(20)]
            ys = [Cyc(N, [rng.choice(choices) for _ in range(deg)]) for _ in range(20)]
            for x in xs + ys:
                assert x.conjugate().coeffs == cyc_conjugate_oracle(x), N


def test_packed_zero_test_matches_reduction():
    # W = Q Phi_N + R of degree < 2 deg Phi_N - 1, with R zero, small, or
    # as large as the bound allows: Phi_N(2^B) divides W(2^B) exactly when
    # W reduces to zero.  Phi_105 has a coefficient -2.
    rng = random.Random(29)
    for N in (1, 2, 3, 4, 8, 12, 15, 30, 105):
        phi = cyclotomic_poly(N)
        deg = len(phi) - 1
        size = 2 * deg - 1
        cases = []
        for _ in range(30):
            qphi = poly_mul([rng.randint(-3, 3) for _ in range(deg - 1)], phi)
            r = rng.choice(([0] * deg, [rng.choice((0, 0, 1, -1)) for _ in range(deg)], [rng.randint(-50, 50) for _ in range(deg)]))
            cases.append([a + b for a, b in zip(qphi + (0,) * (size - len(qphi)), r + [0] * (size - deg))])
        for bound in (1, 5, 2**40):
            cases.append([rng.choice((-bound, bound)) for _ in range(size)])
            for at in {0, deg // 2, deg - 1}:
                # w_k = +-bound with the sign of x^k mod Phi_N at `at`: the
                # remainder's coefficient there is as large as it can be
                at_coeffs = [_reduced_power(N, k)[at] for k in range(size)]
                cases.append([bound * ((c > 0) - (c < 0)) for c in at_coeffs])
        for w in cases:
            bound = max(map(abs, w))
            B, modulus = packed_modulus(N, bound)
            rem = _reduce(list(w), N)
            # the room the proof needs: 2^B > 2 max|R| + the sum of |Phi_N|'s lower coefficients
            assert 2**B > 2 * max(map(abs, rem)) + sum(map(abs, phi[:-1])), (N, w)
            packed = sum(c << (B * k) for k, c in enumerate(w))
            assert (packed % modulus == 0) == (not any(rem)), (N, w)
        assert any(not any(_reduce(list(w), N)) for w in cases), N


def test_balanced_residue_reads_reductions_and_rationals():
    # integer W of degree < 2 deg Phi_N - 1, evaluated at 2^B: the residue
    # nearest 0 modulo Phi_N(2^B) is W mod Phi_N packed with signed digits,
    # and W mod Phi_N is rational exactly when that residue is at most
    # `limit` in size.  Products of two elements, multiples of Phi_N plus a
    # rational, and all-+-bound W, among them constants at the bound (for
    # N = 1 and 2, limit = bound) and, for every N, one whose remainder has
    # a coefficient equal to limit, so the read-out is tight.
    rng = random.Random(24)
    for N in (*range(1, 61), 105):
        phi = cyclotomic_poly(N)
        deg = len(phi) - 1
        size = 2 * deg - 1

        def padded(w):
            return list(w) + [0] * (size - len(w))

        cases = []
        for c in (1, 3, 2**20):
            a, b = ([rng.randint(-c, c) for _ in range(deg)] for _ in range(2))
            cases.append(padded(poly_mul(a, b)))
            for t in (0, 1, -c, rng.randint(-c, c)):
                q = [rng.randint(-c, c) for _ in range(deg - 1)]
                cases.append(padded([t] if deg == 1 else [x + (e == 0) * t for e, x in enumerate(poly_mul(q, phi))]))
        for bound in (1, 5, 2**40):
            cases += [padded([bound]), padded([-bound]), [rng.choice((-bound, bound)) for _ in range(size)]]
            for at in {0, deg - 1}:
                at_coeffs = [_reduced_power(N, k)[at] for k in range(size)]
                cases.append([bound * ((x > 0) - (x < 0)) for x in at_coeffs])
            # the coefficient j* whose column sum_k |c_kj*| is G(N): the W of
            # signs there reduces to bound G(N) = limit at j*, meeting the bound
            columns = [[_reduced_power(N, k)[j] for k in range(size)] for j in range(deg)]
            top = max(columns, key=lambda col: sum(map(abs, col)))
            tight = [bound * ((x > 0) - (x < 0)) for x in top]
            assert cyc_reduce_oracle(tight, N)[columns.index(top)] == pack(N, [(1,)], lambda L, cmax: bound)[2], N
            cases.append(tight)
        for w in cases:
            assert len(w) == size, (N, w)
            bound = max(1, *map(abs, w))
            B, modulus = packed_modulus(N, bound)
            limit = pack(N, [(1,)], lambda L, cmax: bound)[2]
            # the room the proof needs: 2^B > 4 limit + the sum of |Phi_N|'s lower coefficients
            assert 2**B > 4 * limit + sum(map(abs, phi[:-1])), (N, w)
            rem = cyc_reduce_oracle(w, N)
            rho = balanced_residue(sum(x << (B * k) for k, x in enumerate(w)), modulus)
            assert rho == sum(x << (B * k) for k, x in enumerate(rem)), (N, w)
            assert (abs(rho) <= limit) == (not any(rem[1:])), (N, w)
        assert any(not any(cyc_reduce_oracle(w, N)[1:]) for w in cases), N


def test_cyc_rational_hashes_like_its_fraction():
    assert Cyc.rational(4, 3) == 3 and hash(Cyc.rational(4, 3)) == hash(3)
    assert Cyc.rational(6, Fraction(-1, 2)) == Fraction(-1, 2)
    assert hash(Cyc.rational(6, Fraction(-1, 2))) == hash(Fraction(-1, 2))
    assert len({Cyc.rational(4, 3), 3}) == 1
    assert len({Cyc.rational(4, 3), Cyc.root(4, 1), Cyc.rational(4, 3) + Cyc.zero(4)}) == 2


def test_cyc_takes_only_int_and_fraction_numbers():
    for bad in (0.1, True, 1.0, "1"):
        with pytest.raises(TypeError):
            Cyc.rational(4, bad)
    with pytest.raises(TypeError):
        Cyc(4, [True, 2])
    with pytest.raises(TypeError):
        Cyc(4, [1, 0.5])
    with pytest.raises(TypeError):
        Cyc.one(4) * False
    with pytest.raises(TypeError):
        Cyc.one(4) + 0.25
    assert Cyc(4, [Fraction(2), Fraction(1, 3)]).coeffs == (2, Fraction(1, 3))
    assert type(Cyc.rational(4, Fraction(6, 3)).coeffs[0]) is int
