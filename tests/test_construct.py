from fractions import Fraction

import pytest

import fusionring as fr
from conftest import ABELIAN_LE16, character_ring_oracle, cyc_lift_oracle, dense_rows, haagerup_izumi_oracle, s3_group, same_fusion_rules
from fusionring import Quadratic
from fusionring.construct import CharacterTable, as_group
from fusionring.cyclotomic import Cyc
from fusionring.errors import MalformedRingError


def test_group_ring_c2():
    ring = fr.group_ring((2,))
    assert ring.rank == 2
    assert ring.tensor[1, 1, 0] == 1
    assert fr.verify_axioms(ring) == []


def test_group_ring_rejects_bad_table():
    with pytest.raises(ValueError):
        fr.group_ring([[0, 1], [1, 1]])  # not a group table


def test_near_group_shape():
    ring = fr.near_group((2, 2), 4)
    assert ring.rank == 5
    rho = 4
    assert ring.dual[rho] == rho
    assert ring.tensor[rho, rho, rho] == 4
    assert all(ring.tensor[rho, rho, g] == 1 for g in range(4))
    assert all(ring.tensor[g, rho, rho] == 1 and ring.tensor[rho, g, rho] == 1 for g in range(4))


def test_near_group_fibonacci():
    ring = fr.near_group((), 1)
    assert ring.rank == 2
    d = fr.fpdim_basis(ring, 1)
    assert d == Quadratic(Fraction(1, 2), Fraction(1, 2), 5)


def test_haagerup_izumi_structure():
    hi = fr.haagerup_izumi((3,))
    assert hi.rank == 6
    assert not fr.is_commutative(hi)
    fib = fr.haagerup_izumi(())
    assert fib.rank == 2
    assert fib.tensor[1, 1, 1] == 1 and fib.tensor[1, 1, 0] == 1
    assert fr.is_commutative(fr.haagerup_izumi((2,)))


def test_haagerup_izumi_commutative_iff_exponent_two():
    # x g = g^{-1} x, so the ring is commutative exactly when inversion is
    # trivial, i.e. the exponent is at most 2; for cyclic G this is |G| <= 2
    for factors in ((), (2,), (3,), (4,), (2, 2), (5,), (2, 2, 2)):
        ring = fr.haagerup_izumi(factors)
        g = as_group(factors)
        assert fr.is_commutative(ring) == (g.exponent <= 2), factors
        if g.exponent == g.order or g.order == 1:  # cyclic case
            assert fr.is_commutative(ring) == (g.order <= 2), factors


def test_haagerup_izumi_matches_its_rules():
    # haagerup_izumi builds the uniform two-orbit ring (trivial H, inversion,
    # k = 1); its rows, dual and labels are those the rules write out
    for factors in ((2,), (3,), (4,), (2, 2), (5,), (6,), (2, 4), (3, 3), (8,), (12,)):
        ring = fr.haagerup_izumi(factors)
        assert (ring.labels, ring.dual, dense_rows(ring)) == haagerup_izumi_oracle(factors), factors


def test_haagerup_izumi_rejects_nonabelian():
    with pytest.raises(ValueError):
        fr.haagerup_izumi(s3_group())


def test_uniform_reductions():
    assert same_fusion_rules(fr.uniform_two_orbit((3,), "trivial", "inversion", 1), fr.haagerup_izumi((3,)))
    for factors, k in (((2,), 1), ((2, 2), 1), ((3,), 2)):
        g = as_group(factors)
        assert same_fusion_rules(
            fr.uniform_two_orbit(factors, "all", "identity", k), fr.near_group(factors, k * g.order)
        )


def test_uniform_identity_theta_k0_is_pointed():
    ring = fr.uniform_two_orbit((4,), "trivial", "identity", 0)
    assert ring.rank == 8
    assert all(fr.ring.is_invertible(ring, i) for i in range(8))
    # the resulting group is C4 x C2
    inv = fr.invertibles(ring)
    assert inv.group.is_abelian and inv.group.exponent == 4


def test_uniform_inversion_k0_group():
    # theta = inversion, k = 0, H trivial: group ring of C3 x| C2 = S3
    ring = fr.uniform_two_orbit((3,), "trivial", "inversion", 0)
    assert all(fr.ring.is_invertible(ring, i) for i in range(6))
    assert not fr.is_commutative(ring)


def test_uniform_rejects_non_involution():
    # the automorphism x -> 2x of C5 has order 4
    with pytest.raises(ValueError):
        fr.uniform_two_orbit((5,), "trivial", (0, 2, 4, 1, 3), 1)


def test_a_float_stabilizer_generator_raises_type_error_instead_of_truncating():
    # int(2.5) is 2: the generator was read as the subgroup (0, 2) of C4
    with pytest.raises(TypeError):
        fr.uniform_two_orbit((4,), [2.5], "inversion", 1)
    assert fr.uniform_two_orbit((4,), [2], "inversion", 1).rank == 6


def test_a_float_theta_raises_type_error_instead_of_truncating():
    # int() read (0.0, 3.9, 2.2, 1.7) as the inversion (0, 3, 2, 1) of C4
    with pytest.raises(TypeError):
        fr.uniform_two_orbit((4,), "trivial", (0.0, 3.9, 2.2, 1.7), 1)
    assert fr.uniform_two_orbit((4,), "trivial", (0, 3, 2, 1), 1).rank == 8


def test_uniform_axioms_verified_on_output():
    ring = fr.uniform_two_orbit((6,), [2], "inversion", 1)
    assert fr.verify_axioms(ring) == []
    data = fr.two_orbit_data(ring)
    assert len(data.stabilizer) == 3
    assert data.uniform_k == 1 and data.uniform_coeff == 3


def test_constructors_pass_axioms_grid():
    # |G| <= 16 for near-groups (levels <= 40) and Haagerup-Izumi, n <= 20
    for factors in ABELIAN_LE16:
        for level in range(0, 41, 7):
            assert fr.verify_axioms(fr.near_group(factors, level)) == [], (factors, level)
        assert fr.verify_axioms(fr.haagerup_izumi(factors)) == [], factors
    for n in range(3, 21):
        assert fr.verify_axioms(fr.dihedral_character_ring(n)) == [], n


def test_near_group_full_level_sweep_small_groups():
    for factors in ((2,), (3,), (2, 2)):
        for level in range(41):
            ring = fr.near_group(factors, level)
            assert fr.verify_axioms(ring) == [], (factors, level)


def test_near_group_profile_parameters():
    for factors in ((2,), (3,), (2, 2), (4,)):
        g = as_group(factors)
        for level in (1, 2, 5, 9):
            profile = fr.dimension_profile(fr.near_group(factors, level))
            assert profile.r == level and profile.s == g.order, (factors, level)


def test_character_ring_c2_equals_group_ring():
    table = CharacterTable(
        2,
        1,
        (1, 1),
        (
            (Cyc.one(1), Cyc.one(1)),
            (Cyc.one(1), Cyc.rational(1, -1)),
        ),
    )
    assert same_fusion_rules(fr.character_ring(table), fr.group_ring((2,)))


def test_character_ring_s3():
    rows = [[1, 1, 1], [1, -1, 1], [2, 0, -1]]
    table = CharacterTable(
        6, 1, (1, 3, 2), tuple(tuple(Cyc.rational(1, v) for v in row) for row in rows)
    )
    ring = fr.character_ring(table)
    assert ring.rank == 3
    sigma = 2
    # sigma^2 = 1 + sgn + sigma
    assert ring.tensor[sigma, sigma].tolist() == [1, 1, 1]
    assert fr.fpdim_total(ring) == 6


def test_character_ring_rejects_bad_orthogonality():
    rows = [[1, 1, 1], [1, -1, 1], [2, 0, 1]]
    table = CharacterTable(
        6, 1, (1, 3, 2), tuple(tuple(Cyc.rational(1, v) for v in row) for row in rows)
    )
    with pytest.raises(MalformedRingError):
        fr.character_ring(table)


def test_dihedral_ranks_and_degrees():
    assert fr.dihedral_character_ring(3).rank == 3
    assert fr.dihedral_character_ring(4).rank == 5
    ring = fr.dihedral_character_ring(10)
    assert ring.rank == 8
    inv = fr.invertibles(ring)
    # 4 linear and 4 two-dimensional characters at n = 10; the noninvertibles
    # strictly dominate from n = 11 on
    assert inv.order == 4 and ring.rank - inv.order == 4
    for n in (11, 12, 15):
        r2 = fr.dihedral_character_ring(n)
        inv2 = fr.invertibles(r2)
        assert inv2.order < r2.rank - inv2.order, n
    d9 = fr.dihedral_character_ring(9)
    dims = sorted(float(fr.fpdim_basis(d9, i)) for i in range(d9.rank))
    assert dims == [1.0, 1.0, 2.0, 2.0, 2.0, 2.0]


def test_dihedral_rejects_small_n():
    with pytest.raises(ValueError):
        fr.dihedral_character_ring(2)


def test_character_ring_dims_and_total(small_corpus):
    for n in (3, 5, 6, 8):
        ring = fr.dihedral_character_ring(n)
        table = fr.dihedral_character_table(n)
        degrees = table.degrees()
        for i in range(ring.rank):
            assert fr.fpdim_basis(ring, i) == degrees[i], (n, i)
        assert fr.fpdim_total(ring) == 2 * n


def test_explicit_s3_table_round():
    ring = fr.group_ring([list(r) for r in s3_group().table])
    assert not fr.is_commutative(ring)
    assert fr.fpdim_total(ring) == 6


def test_extraspecial_character_ring_via_generic_ingestion():
    # D4 and Q8 (the two extraspecial groups of order 8) share this table:
    # four linear characters plus one of degree 2
    rows = [
        [1, 1, 1, 1, 1],
        [1, 1, 1, -1, -1],
        [1, 1, -1, 1, -1],
        [1, 1, -1, -1, 1],
        [2, -2, 0, 0, 0],
    ]
    table = CharacterTable(
        8, 1, (1, 1, 2, 2, 2), tuple(tuple(Cyc.rational(1, v) for v in row) for row in rows)
    )
    ring = fr.character_ring(table)
    assert ring.rank == 5
    from fusionring.obstruct import near_group_shape

    assert near_group_shape(ring) == (4, 0)  # the level-0 near-group over C2^2
    inv = fr.invertibles(ring)
    assert inv.group.is_abelian and inv.group.exponent == 2
    profile = fr.dimension_profile(ring)
    assert profile.d == Quadratic(2) and profile.r == 0 and profile.s == 4
    # single orbit of noninvertibles, stabilized by every linear character
    data = fr.two_orbit_data(ring)
    assert len(data.stabilizer) == 4


def test_character_ring_matches_triple_loop_oracle():
    # one packed sum per unordered triple, against <chi_i chi_j, chi_l> for
    # every ordered triple in Fraction polynomials; the last table is D15's
    # lifted to Q(zeta_105), whose Phi_105 has a coefficient -2
    d15 = fr.dihedral_character_table(15)
    lifted = CharacterTable(30, 105, d15.class_sizes, tuple(tuple(Cyc(105, cyc_lift_oracle(v, 105)) for v in row) for row in d15.values))
    for table in (*(fr.dihedral_character_table(n) for n in range(3, 31)), lifted):
        ring = fr.character_ring(table)
        assert (dense_rows(ring), ring.dual) == character_ring_oracle(table), table.root_order


def test_character_ring_rejects_a_non_integral_multiplicity():
    # orthogonal rows with a value -1/2 (so the packing scales by L = 2):
    # <chi_1 chi_1, chi_1> = (8 + 4 (-1/2)^3) / 5 = 3/2
    rows = ((Cyc.one(1), Cyc.one(1)), (Cyc.rational(1, 2), Cyc.rational(1, Fraction(-1, 2))))
    table = CharacterTable(5, 1, (1, 4), rows)
    table.validate()
    with pytest.raises(MalformedRingError) as err:
        fr.character_ring(table)
    assert str(err.value) == "non-integral multiplicity 3/2 at (1,1,1)"


def test_character_table_rejects_class_sizes_below_1():
    # the S3 table with sizes that still sum to 6 and start with 1
    rows = tuple(tuple(Cyc.rational(1, v) for v in row) for row in ((1, 1, 1), (1, -1, 1), (2, 0, -1)))
    for sizes, bad in (((1, 5, 0), "class 2 has size 0"), ((1, 6, -1), "class 2 has size -1"), ((1, -1, 6), "class 1 has size -1")):
        with pytest.raises(MalformedRingError) as err:
            CharacterTable(6, 1, sizes, rows).validate()
        assert str(err.value) == f"{bad}, below 1"
    CharacterTable(6, 1, (1, 3, 2), rows).validate()


def test_character_table_values_lie_in_its_field():
    rows = tuple(tuple(Cyc.rational(1, v) for v in row) for row in ((1, 1, 1), (1, -1, 1), (2, 0, -1)))
    with pytest.raises(MalformedRingError) as err:
        CharacterTable(6, 3, (1, 3, 2), rows).validate()
    assert str(err.value) == "character values must lie in Q(zeta_3)"
    CharacterTable(6, 3, (1, 3, 2), tuple(tuple(Cyc(3, cyc_lift_oracle(v, 3)) for v in row) for row in rows)).validate()


def test_near_group_accepts_nonabelian():
    ring = fr.near_group(s3_group(), 2)
    assert ring.rank == 7
    assert fr.verify_axioms(ring) == []
    assert not fr.is_commutative(ring)
    # r = 2 < s = 6 and d irrational, so divisibility eliminates it
    assert fr.obstruct_divisibility(ring).outcome == "eliminates"
