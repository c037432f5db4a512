import ast
import json
import random
import time
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionring as fr
from conftest import (
    REPO_ROOT,
    brute_force_associator_violations,
    cubic_chain_ring,
    dense_rows,
    dimension_profile_oracle,
    fpdim_krylov_oracle,
    fpdim_total_krylov_oracle,
    generated_span_rank,
    haagerup_izumi_oracle,
    s3_group,
    ring_to_dict,
    s3_two_orbit_ring,
    same_fusion_rules,
    su2_ring,
    verify_axioms_oracle,
)
from fusionring import Quadratic, alg_cmp
from fusionring.cyclotomic import CycSqrt
from fusionring.errors import (
    InternalInvariantError,
    MalformedRingError,
    NotAFusionRingError,
    NotTwoOrbitError,
)
from fusionring.ring import algebra_generators, fpdim_all, is_invertible, noninvertible_indices
from fusionring.ringfile import dumps_json, dumps_report, dumps_ring, load_ring, loads_ring, write_json


def test_group_ring_axioms_clean():
    assert fr.verify_axioms(fr.group_ring((2,))) == []


def test_broken_duality_pairing_reported():
    ring = fr.group_ring((2,))
    t = ring.tensor.copy()
    t.setflags(write=True)
    t[1, 1, 0] = 2
    broken = fr.FusionRing(ring.labels, ring.dual, t)
    report = fr.verify_axioms(broken)
    assert any(v.axiom == "duality-pairing" and v.indices == (1, 1, 0) for v in report)


def test_near_group_c3_associative_by_enumeration():
    ring = fr.near_group((3,), 3)
    assert brute_force_associator_violations(ring) == []
    assert fr.verify_axioms(ring) == []


def test_malformed_rejected_before_checking():
    with pytest.raises(MalformedRingError):
        fr.FusionRing(["a", "b"], [0, 1], [[0]])
    with pytest.raises(MalformedRingError):
        fr.FusionRing(["a"], [0, 1], np.zeros((1, 1, 1), dtype=int))
    with pytest.raises(MalformedRingError):
        fr.FusionRing(["a"], [0], np.full((1, 1, 1), 0.5))


def test_structure_constants_checked_on_construction():
    rows = ((1, 0), (0, 1)), ((0, 1), (1, 0))
    c2 = fr.FusionRing(["e", "g"], [0, 1], rows)
    assert dense_rows(c2) == rows and same_fusion_rules(c2, fr.group_ring((2,)))
    # only the nonzeros are kept, as (k, c) pairs in ascending k
    assert c2.rows == ((((0, 1),), ((1, 1),)), (((1, 1),), ((0, 1),)))
    # numpy arrays and integral floats convert to the same exact rows
    assert fr.FusionRing(["e", "g"], [0, 1], np.array(rows)).rows == c2.rows
    from_floats = fr.FusionRing(["e", "g"], [0, 1], np.array(rows, dtype=float))
    assert from_floats.rows == c2.rows
    assert type(c2.rows[1][1][0][1]) is int and type(from_floats.rows[1][1][0][1]) is int
    edge = fr.FusionRing(["a"], [0], [[[2**63 - 1]]])
    assert edge.rows == ((((0, 2**63 - 1),),),)
    for value in (2**63, -(2**63), 2**70):
        with pytest.raises(MalformedRingError, match=r"2\^63"):
            fr.FusionRing(["a"], [0], [[[value]]])
    for value in (True, "1", 0.5, float("nan"), float("inf"), None):
        with pytest.raises(MalformedRingError, match="not an integer"):
            fr.FusionRing(["a"], [0], [[[value]]])
    for tensor in ([[[1, 0], [0, 1]], [[0, 1], [1]]], [[[1, 0], [0, 1]]], [[1, 0], [0, 1]], 7, "ab"):
        with pytest.raises(MalformedRingError, match=r"\(2, 2, 2\)"):
            fr.FusionRing(["e", "g"], [0, 1], tensor)
    # the numpy view equals the rows and cannot be written through
    view = c2.tensor
    assert view.tolist() == [[list(r) for r in m] for m in rows] and not view.flags.writeable


def test_dumps_ring_writes_the_bytes_of_the_whole_document(small_corpus, two_orbit_corpus, spectra_corpus):
    # one json.dumps per fusion matrix gives the bytes of one json.dumps of
    # the whole document, for every builder, the dense constructor and a
    # label that JSON escapes
    rings = [*small_corpus.values(), *two_orbit_corpus.values(), *spectra_corpus.values()]
    rings += [su2_ring(5), cubic_chain_ring(), fr.haagerup_izumi((5,)), fr.uniform_two_orbit((6,), [2], "inversion", 2)]
    rings.append(fr.FusionRing(["1", 'ρ"'], [0, 1], [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]))
    for ring in rings:
        want = json.dumps(ring_to_dict(ring), sort_keys=True, separators=(",", ":")) + "\n"
        assert dumps_ring(ring) == want, ring.labels


# text that JSON escapes, or that looks like the place write_json splits at
_tricky_text = st.lists(st.sampled_from(['"levels":[]', '"', "\\", "levels", ":[]", "é", "ρ", "\u2028", "\U0001f600", "\n", "a"]), max_size=6).map("".join)
# no value is an empty list, so only doc["levels"] writes "levels":[]
_json_value = st.recursive(
    st.integers() | _tricky_text,
    lambda inner: st.lists(inner, min_size=1, max_size=4) | st.dictionaries(_tricky_text, inner, max_size=4),
    max_leaves=12,
)


@given(
    envelope=st.dictionaries(_tricky_text.filter(lambda key: key != "levels"), _json_value, max_size=5),
    items=st.lists(_json_value, max_size=8),
    long=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_write_json_writes_the_bytes_of_the_whole_document(envelope, items, long):
    if long:  # about 170 KB of text, so 64 KiB batches end between items of either size
        items = [*items, "é" * 7_000] * 4  # 42 KB once escaped
    pieces = []
    write_json(pieces.append, {**envelope, "levels": []}, "levels", map(dumps_json, items))
    assert "".join(pieces) == dumps_report({**envelope, "levels": items})
    longest = max(map(len, map(dumps_json, items)), default=0)
    assert max(map(len, pieces)) <= len(dumps_report(envelope)) + 2**16 + 2 * longest + 20


@pytest.mark.parametrize(
    "doc",
    [
        {"levels": [1]},
        {"other": []},
        {"levels": [1], "inner": {"levels": []}},
        {"levels": [], "inner": {"levels": []}},
        {"levels": [], 'a"levels': []},
    ],
    ids=["not-empty", "absent", "only-nested", "nested-twice", "escaped-key"],
)
def test_write_json_checks_its_envelope_before_writing(doc):
    pieces = []
    with pytest.raises(InternalInvariantError, match="once"):
        write_json(pieces.append, doc, "levels", ["1"])
    assert pieces == []


def test_rows_are_the_nonzeros_whichever_way_a_ring_is_built(small_corpus, two_orbit_corpus, spectra_corpus):
    # builders hand their pairs over; the dense constructor and a ring file
    # keep the nonzeros of the cells: all three give the same rows
    for ring in [*small_corpus.values(), *two_orbit_corpus.values(), *spectra_corpus.values()]:
        for row in (row for mat in ring.rows for row in mat):
            ks = [k for k, _ in row]
            assert ks == sorted(set(ks)) and all(type(c) is int and c != 0 for _, c in row), ring
        assert fr.FusionRing(ring.labels, ring.dual, ring.tensor.tolist()).rows == ring.rows, ring
        assert loads_ring(dumps_ring(ring)).rows == ring.rows, ring


def test_group_ring_c200_builds_without_a_dense_tensor():
    # measured peak 12.3 MiB; a dense 200^3 tensor holds 8e6 references of
    # 8 bytes, 61 MiB, before any tuple header
    tracemalloc.start()
    try:
        fr.group_ring((200,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_verify_axioms_matches_oracle_on_families(small_corpus, two_orbit_corpus):
    rings = [*small_corpus.values(), *two_orbit_corpus.values(), cubic_chain_ring()]
    rings += [su2_ring(k) for k in (2, 5, 9)] + [fr.near_group((2,), 2**40)]
    for ring in rings:
        assert fr.verify_axioms(ring) == verify_axioms_oracle(ring) == [], ring


def test_verify_axioms_matches_oracle_on_mutated_rings(small_corpus, two_orbit_corpus):
    # 1-3 entries changed, and two dual entries swapped in about 15% of cases;
    # the 2^40-level near-group takes the oracle's exact object-dtype path
    bases = [*small_corpus.values(), *two_orbit_corpus.values(), su2_ring(6), fr.near_group((2,), 2**40)]
    rng = random.Random(2024)
    for trial in range(400):
        ring = bases[rng.randrange(len(bases))]
        t = ring.tensor.tolist()
        for _ in range(rng.randint(1, 3)):
            i, j, k = (rng.randrange(ring.rank) for _ in range(3))
            t[i][j][k] += rng.choice((-2, -1, 1, 2, 5))
        dual = list(ring.dual)
        if rng.random() < 0.15:
            a, b = rng.randrange(ring.rank), rng.randrange(ring.rank)
            dual[a], dual[b] = dual[b], dual[a]
        broken = fr.FusionRing(ring.labels, dual, t)
        assert fr.verify_axioms(broken) == verify_axioms_oracle(broken), (trial, ring)


def test_verify_axioms_matches_oracle_on_unit_preserving_mutations():
    # only c_ijk with i, j >= 1 change, so the unit axioms hold and every
    # failure must show up among the left factors {0} + generating set
    bases = [
        fr.group_ring((8,)),
        fr.group_ring(s3_group()),
        fr.near_group((2, 2, 2, 2), 16),
        fr.haagerup_izumi((3,)),
        su2_ring(6),
    ]
    rng = random.Random(2026)
    failing = 0
    for trial in range(400):
        ring = bases[trial % len(bases)]
        t = ring.tensor.tolist()
        for _ in range(rng.randint(1, 3)):
            i, j, k = rng.randrange(1, ring.rank), rng.randrange(1, ring.rank), rng.randrange(ring.rank)
            t[i][j][k] += rng.choice((-2, -1, 1, 2, 5))
        broken = fr.FusionRing(ring.labels, ring.dual, t)
        got = fr.verify_axioms(broken)
        assert got == verify_axioms_oracle(broken), (trial, ring)
        assert not any(v.axiom.startswith("unit") for v in got)
        failing += any(v.axiom == "associativity" for v in got)
    assert failing > 300


def _mutated(ring, rng, low: int):
    """ring with 1-3 entries c_ijk, i, j >= low, changed by small steps."""
    t = ring.tensor.tolist()
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(low, ring.rank), rng.randrange(low, ring.rank)
        t[i][j][rng.randrange(ring.rank)] += rng.choice((-2, -1, 1, 2, 5))
    return fr.FusionRing(ring.labels, ring.dual, t)


def test_verify_axioms_matches_oracle_on_mutated_rank_40_rings():
    # a uniform two-orbit ring with |H| = 20 (rank 42) and HI C20 (rank 40);
    # most mutations leave the unit intact and break associativity, so the
    # generator pass fails, the full scan runs and witnesses reach the cap
    bases = [fr.uniform_two_orbit((40,), [2], "inversion", 1), fr.haagerup_izumi((20,))]
    rng = random.Random(2028)
    capped = 0
    for trial in range(12):
        ring = bases[trial % 2]
        broken = _mutated(ring, rng, 0 if trial % 4 == 3 else 1)
        got = fr.verify_axioms(broken)
        assert got == verify_axioms_oracle(broken), (trial, ring)
        capped += sum(v.axiom == "associativity" for v in got) == 20
    assert capped >= 6


def test_verify_axioms_matches_oracle_on_a_mutated_su2_ring():
    # SU(2)_16: products of up to 9 terms, and mutated coefficients other
    # than 0 and 1, negative ones included
    ring = su2_ring(16)
    rng = random.Random(2029)
    failing = 0
    for trial in range(30):
        broken = _mutated(ring, rng, trial % 2)
        got = fr.verify_axioms(broken)
        assert got == verify_axioms_oracle(broken), trial
        failing += any(v.axiom == "associativity" for v in got)
    assert failing > 20


def test_verify_axioms_matches_oracle_at_the_widest_digits():
    # (b_0 b_1) b_1 - b_0 (b_1 b_1) = 4 b_0 - b_1 packs to 0 in digits of
    # 2 bits; B = bit_length(2 rank cmax^2 + 1) = 3 tells them apart
    aliasing = fr.FusionRing("ab", [0, 1], [[[-1, 0], [-1, 1]], [[0, 0], [1, 1]]])
    assert (0, 1, 1, 0) in [v.indices for v in fr.verify_axioms(aliasing)]
    assert fr.verify_axioms(aliasing) == verify_axioms_oracle(aliasing)
    # rank <= 4 with an entry 2^62 and a negative one: B reaches 128 bits,
    # its largest
    valid = fr.near_group((2,), 2**62)
    assert fr.verify_axioms(valid) == verify_axioms_oracle(valid) == []
    rng = random.Random(2030)
    for trial in range(60):
        n = rng.randint(2, 4)
        base = fr.near_group((n - 1,) if n > 2 else (), 2**62) if trial % 2 else fr.group_ring((n,))
        t = base.tensor.tolist()
        cells = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
        for (i, j, k), c in zip(rng.sample(cells, 3), (2**62, -rng.choice((1, 3, 2**62)), rng.choice((-1, 2, 2**61)))):
            t[i][j][k] = c
        broken = fr.FusionRing(base.labels, base.dual, t)
        assert fr.verify_axioms(broken) == verify_axioms_oracle(broken), trial


def test_verify_axioms_with_a_broken_unit_row_matches_oracle(small_corpus, two_orbit_corpus):
    # unit-left fails, so b_0 stays a left factor of the generator pass.
    # Every rank-2 tensor with entries 0 and 1 whose b_0 row is not the
    # identity, among them rings whose associativity fails only with b_0 on
    # the left; then corpus rings with one to three entries of the b_0 row
    # changed
    only_b0 = 0
    for cells in product((0, 1), repeat=8):
        t = [[list(cells[4 * i + 2 * j : 4 * i + 2 * j + 2]) for j in range(2)] for i in range(2)]
        if t[0] == [[1, 0], [0, 1]]:
            continue
        ring = fr.FusionRing("ab", [0, 1], t)
        got = fr.verify_axioms(ring)
        assert got == verify_axioms_oracle(ring), t
        assert any(v.axiom == "unit-left" for v in got), t
        only_b0 += {v.indices[0] for v in got if v.axiom == "associativity"} == {0}
    assert only_b0 >= 10
    bases = [*small_corpus.values(), *two_orbit_corpus.values()]
    rng = random.Random(2031)
    for trial in range(200):
        ring = bases[rng.randrange(len(bases))]
        t = ring.tensor.tolist()
        for _ in range(rng.randint(1, 3)):
            t[0][rng.randrange(ring.rank)][rng.randrange(ring.rank)] += rng.choice((-1, 1, 2))
        broken = fr.FusionRing(ring.labels, ring.dual, t)
        got = fr.verify_axioms(broken)
        assert got == verify_axioms_oracle(broken), (trial, ring)
        unit_row = [[int(j == k) for k in range(ring.rank)] for j in range(ring.rank)]
        assert any(v.axiom == "unit-left" for v in got) == (t[0] != unit_row), (trial, ring)


def test_generator_pass_leaves_out_b0_once_the_caller_established_it(monkeypatch):
    # the first pass of every check on a verified builder ring is the
    # generating set alone; b_0 joins it on a ring whose unit row is broken
    # and for a model whose psi(b_0) is not the identity
    import fusionring.represent
    import fusionring.ring

    passes = []
    original = fusionring.ring._generator_first

    def spy(ring, failures, b0_holds):
        lefts_seen = []

        def recorded(lefts):
            lefts_seen.append(tuple(lefts))
            return failures(lefts_seen[-1])

        passes.append(lefts_seen)
        return original(ring, recorded, b0_holds)

    monkeypatch.setattr(fusionring.ring, "_generator_first", spy)
    monkeypatch.setattr(fusionring.represent, "_generator_first", spy)
    ring = fr.near_group((2, 2), 4)  # verified as it is built
    fr.dimension_profile(ring)
    models = fr.uniform_irreps(ring)
    gens = algebra_generators(ring)
    assert 0 not in gens
    assert passes == [[gens]] * (2 + len(models))
    passes.clear()
    doubled = replace(models[0], matrices=(tuple(tuple(CycSqrt(e.u * 2, e.v * 2, e.D) for e in row) for row in models[0].matrices[0]), *models[0].matrices[1:]))
    assert fr.verify_irrep(ring, doubled)
    t = ring.tensor.tolist()
    t[0][1][1] = 2
    assert fr.verify_axioms(fr.FusionRing(ring.labels, ring.dual, t))
    assert [lefts[0] for lefts in passes] == [(0, *gens)] * 2


def test_profile_rings_compute_no_krylov_polynomial_for_fp_dimensions(monkeypatch):
    # near-group, Haagerup-Izumi, uniform and character rings: every FP
    # dimension and the total are read off the dimension profile, and equal
    # the Krylov roots the oracles compute beforehand
    import fusionring.intpoly
    import fusionring.ring

    rings = [
        fr.near_group((24,), 48),
        fr.near_group((5,), 0),
        fr.near_group((2,), 1),
        fr.haagerup_izumi((4,)),
        fr.uniform_two_orbit((12,), [6], "inversion", 1),
        fr.dihedral_character_ring(18),
        fr.character_ring(fr.dihedral_character_table(12)),
    ]
    want = [([fpdim_krylov_oracle(ring, i) for i in range(ring.rank)], fpdim_total_krylov_oracle(ring)) for ring in rings]

    def forbidden(*args):
        raise AssertionError("an FP dimension computed a Krylov polynomial or isolated a root")

    for module, name in (
        (fusionring.intpoly, "krylov"),
        (fusionring.intpoly, "isolate_real_roots"),
        (fusionring.ring, "global_krylov"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    for ring, (dims, total) in zip(rings, want):
        assert fpdim_all(ring) == dims, ring
        assert fr.fpdim_total(ring) == total, ring


def test_rank_200_haagerup_izumi_verifies_in_seconds():
    ring = fr.FusionRing(*haagerup_izumi_oracle((100,)))
    start = time.perf_counter()
    assert fr.verify_axioms(ring) == []
    assert time.perf_counter() - start < 20


def test_verify_axioms_with_a_broken_unit_matches_oracle():
    # b_0 b_1 = b_1 + b_2 breaks unit-left, and associativity fails only for
    # the left factor b_0, so b_0 must be among the factors checked first
    rows = [
        [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ]
    broken = fr.FusionRing(["a", "b", "c"], [0, 1, 2], rows)
    got = fr.verify_axioms(broken)
    assert got == verify_axioms_oracle(broken)
    assert [v.indices for v in got if v.axiom == "unit-left"] == [(0, 1, 2)]
    assoc = [v.indices for v in got if v.axiom == "associativity"]
    assert assoc and all(idx[0] == 0 for idx in assoc)


def test_verify_axioms_caps_witnesses_in_index_order():
    ring = fr.group_ring((8,))
    t = ring.tensor.tolist()
    t[1][1][2] += 1  # g * g = 2 g^2: associativity fails at 24 triples (i, j, k)
    broken = fr.FusionRing(ring.labels, ring.dual, t)
    assert len(brute_force_associator_violations(broken)) > 20
    got = fr.verify_axioms(broken)
    assert got == verify_axioms_oracle(broken)
    assoc = [v.indices for v in got if v.axiom == "associativity"]
    assert len(assoc) == 20 and assoc == sorted(assoc)


def test_verify_axioms_stops_at_a_non_permutation_dual():
    ring = fr.near_group((3,), 3)
    broken = fr.FusionRing(ring.labels, [0, 2, 2, 3], ring.tensor)
    got = fr.verify_axioms(broken)
    assert got == verify_axioms_oracle(broken)
    assert got[-1].axiom == "dual-permutation"
    assert not any(v.axiom in ("duality-pairing", "anti-involution", "associativity") for v in got)


def test_fusion_matrix_examples():
    c2 = fr.group_ring((2,))
    assert c2.fusion_matrix(1) == ((0, 1), (1, 0))
    ng = fr.near_group((2,), 1)
    assert ng.fusion_matrix(2) == ((0, 0, 1), (0, 0, 1), (1, 1, 1))
    for ring in (c2, ng):
        assert np.array_equal(ring.fusion_matrix(0), np.eye(ring.rank, dtype=int))
    with pytest.raises(IndexError):
        c2.fusion_matrix(2)


def test_fpdim_examples():
    g = fr.group_ring((2, 2))
    assert all(fr.fpdim_basis(g, i) == 1 for i in range(g.rank))
    assert fr.fpdim_basis(fr.near_group((2,), 2), 2) == Quadratic(1, 1, 3)
    assert fr.fpdim_basis(fr.near_group((2,), 1), 2) == Quadratic(2)


def test_fpdim_requires_verified_ring():
    t = np.zeros((2, 2, 2), dtype=int)
    t[0, 0, 0] = t[0, 1, 1] = t[1, 0, 1] = 1
    t[1, 1, 0] = 3  # breaks duality pairing
    bad = fr.FusionRing(["e", "g"], [0, 1], t)
    with pytest.raises(NotAFusionRingError):
        fr.fpdim_basis(bad, 1)


def test_clearing_the_violations_list_keeps_the_ring_unverified():
    bad = fr.FusionRing(["1", "x"], [0, 1], [[[1, 0], [0, 1]], [[0, 1], [0, 1]]])
    assert len(fr.verify_axioms(bad)) == 1
    fr.verify_axioms(bad).clear()
    assert len(fr.verify_axioms(bad)) == 1
    with pytest.raises(NotAFusionRingError):
        bad.require_verified()


def _count_axiom_scans(monkeypatch) -> list:
    """The left factors of every associativity scan from now on."""
    import fusionring.ring

    scan = fusionring.ring._associativity_witnesses
    calls: list = []
    monkeypatch.setattr(fusionring.ring, "_associativity_witnesses", lambda t, lefts: calls.append(lefts) or scan(t, lefts))
    return calls


def test_verify_axioms_on_a_builders_ring_runs_no_scan(monkeypatch):
    # every builder verifies its ring as it makes it, so the verdict is
    # already there when a caller asks
    rings = [
        fr.group_ring((2, 2)),
        fr.near_group((3,), 1),
        fr.haagerup_izumi((3,)),
        fr.uniform_two_orbit((6,), [2], "inversion", 2),
        fr.character_ring(fr.dihedral_character_table(5)),
        fr.dihedral_character_ring(6),
    ]
    calls = _count_axiom_scans(monkeypatch)
    for ring in rings:
        assert fr.verify_axioms(ring) == [], ring
        ring.require_verified()
    assert calls == []


def test_verify_axioms_scans_a_loaded_ring_once(monkeypatch):
    ring = loads_ring(dumps_ring(fr.near_group((2, 2), 2)))
    calls = _count_axiom_scans(monkeypatch)
    lists = [fr.verify_axioms(ring) for _ in range(3)]
    assert len(calls) == 1
    assert lists == [[], [], []]
    lists[0].append("not a violation")
    assert lists[1] == lists[2] == fr.verify_axioms(ring) == []
    assert len({id(v) for v in lists}) == 3


def test_guards_read_the_verdict_without_calling_verify_axioms(monkeypatch):
    # every fact of a loaded ring is guarded; the guards read the verdict
    # memo, so the one scan happens at the first guard and verify_axioms,
    # the public reader, is never entered
    import fusionring.ring

    calls = {"verify_axioms": 0, "_violations": 0}

    def counted(name):
        original = getattr(fusionring.ring, name)

        def wrapper(ring):
            calls[name] += 1
            return original(ring)

        return wrapper

    for name in calls:
        monkeypatch.setattr(fusionring.ring, name, counted(name))
    ring = load_ring(str(REPO_ROOT / "tests" / "golden" / "neargroup_c2x2_l8.ring"))
    assert calls == {"verify_axioms": 0, "_violations": 0}
    fpdim_all(ring)
    fr.fpdim_total(ring)
    fr.codegree_spectrum(ring)
    fr.run_all(ring)
    for model in fr.uniform_irreps(ring):
        assert fr.verify_irrep(ring, model) == []
    fr.orbit_structure(ring)
    fr.two_orbit_data(ring)
    algebra_generators(ring)
    assert calls == {"verify_axioms": 0, "_violations": 1}


def test_rings_refuse_assignment():
    built = fr.near_group((3,), 2)
    for ring in (built, loads_ring(dumps_ring(built))):
        rows, dual = ring.rows, ring.dual
        with pytest.raises(AttributeError):
            ring.rows = ((),)
        with pytest.raises(AttributeError):
            ring.dual = (0,)
        assert ring.rows is rows and ring.dual is dual


def test_fpdim_total_examples():
    for m in (1, 2, 3):
        assert fr.fpdim_total(fr.group_ring((2,) * m)) == 2**m
    assert fr.fpdim_total(fr.near_group((2,), 2)) == Quadratic(6, 2, 3)
    # Haagerup: 3 + 3 d^2 with d = (3 + sqrt 13)/2
    d = fpdim_krylov_oracle(fr.haagerup_izumi((3,)), 3)
    expected = 3 + 3 * d * d
    assert fr.fpdim_total(fr.haagerup_izumi((3,))) == expected


def test_fpdim_dual_invariant_and_lower_bound(small_corpus):
    for name, ring in small_corpus.items():
        for i in range(ring.rank):
            di = fr.fpdim_basis(ring, i)
            assert alg_cmp(di, 1) >= 0, name
            assert alg_cmp(di, fr.fpdim_basis(ring, ring.dual[i])) == 0, name


def test_fpdim_multiplicative(small_corpus):
    # sum_k c[i,j,k] dim(k) = dim(i) dim(j), exact when all dims share a field
    for name, ring in small_corpus.items():
        dims = [fr.fpdim_basis(ring, i) for i in range(ring.rank)]
        fields = {d.D for d in dims if isinstance(d, Quadratic)}
        if len(fields - {0}) > 1 or not all(isinstance(d, Quadratic) for d in dims):
            continue  # interval check covered by float fallback below
        t = ring.tensor
        for i in range(ring.rank):
            for j in range(ring.rank):
                lhs = Quadratic(0)
                for k in range(ring.rank):
                    if t[i, j, k]:
                        lhs = lhs + int(t[i, j, k]) * dims[k]
                assert lhs == dims[i] * dims[j], name


def test_fpdim_multiplicative_interval(small_corpus):
    for name, ring in small_corpus.items():
        dims = [float(fr.fpdim_basis(ring, i)) for i in range(ring.rank)]
        t = ring.tensor
        prod = np.einsum("ijk,k->ij", t, np.array(dims))
        outer = np.outer(dims, dims)
        assert np.allclose(prod, outer, atol=1e-9), name


def test_invertibles():
    g = fr.group_ring((2, 2))
    assert fr.invertibles(g).indices == (0, 1, 2, 3)
    ng = fr.near_group((2, 2), 4)
    inv = fr.invertibles(ng)
    assert inv.indices == (0, 1, 2, 3)
    assert inv.group.exponent == 2  # Klein four
    assert fr.invertibles(fr.dihedral_character_ring(5)).order == 2


def test_orbit_structure():
    ng = fr.near_group((3,), 3)
    orb = fr.orbit_structure(ng)
    assert orb.orbit_count == 2
    assert orb.left_orbits == ((0, 1, 2), (3,))
    assert orb.stabilizers[1] == (0, 1, 2)  # rho fixed by everything

    hi = fr.haagerup_izumi((3,))
    orb = fr.orbit_structure(hi)
    assert orb.orbit_count == 2
    assert orb.stabilizers[1] == (0,)

    d9 = fr.dihedral_character_ring(9)
    orb = fr.orbit_structure(d9)
    assert orb.orbit_count == 5  # linear characters plus four singleton orbits


def test_right_orbits_exposed():
    hi = fr.haagerup_izumi((3,))
    orb = fr.orbit_structure(hi)
    assert orb.right_orbits == orb.left_orbits  # G x = x G here


def test_dimension_profile():
    p = fr.dimension_profile(fr.near_group((2,), 2))
    assert (p.d, p.r, p.s, p.d_is_rational) == (Quadratic(1, 1, 3), 2, 2, False)
    p = fr.dimension_profile(fr.near_group((2,), 1))
    assert (p.d, p.r, p.s, p.d_is_rational) == (Quadratic(2), 1, 2, True)
    p = fr.dimension_profile(fr.group_ring((2, 2)))
    assert not p.is_two_dimension


def test_dimension_profile_three_dims_marker():
    # S4 character ring has degrees {1, 1, 2, 3, 3}: three distinct dimensions
    import fusionring.construct as construct
    from fusionring.cyclotomic import Cyc

    rows = [
        [1, 1, 1, 1, 1],
        [1, -1, 1, 1, -1],
        [2, 0, 2, -1, 0],
        [3, 1, -1, 0, -1],
        [3, -1, -1, 0, 1],
    ]
    table = construct.CharacterTable(
        24, 1, (1, 6, 3, 8, 6), tuple(tuple(Cyc.rational(1, v) for v in row) for row in rows)
    )
    ring = construct.character_ring(table)
    assert fr.dimension_profile(ring) is None


def test_dimension_profile_agrees_with_the_perron_roots(small_corpus, two_orbit_corpus):
    """The profile, decided from integers, against `dimension_profile_oracle`,
    which computes and compares every FP dimension: over the small and
    two-orbit corpora (rank <= 12), one ring from each builder, SU(2)_k for
    k <= 14, the cubic chain ring (three dimensions), the S3 two-orbit ring
    and the near-group C2 at level 2^40."""
    rings = {**small_corpus, **two_orbit_corpus}
    rings["Z[C2xC4]"] = fr.group_ring((2, 4))
    rings["NG(C5,10)"] = fr.near_group((5,), 10)
    rings["HI(C7)"] = fr.haagerup_izumi((7,))
    rings["U(C12,C6,inv,1)"] = fr.uniform_two_orbit((12,), [6], "inversion", 1)
    rings["ch(D12)"] = fr.character_ring(fr.dihedral_character_table(12))
    rings["chD14"] = fr.dihedral_character_ring(14)
    rings.update({f"SU(2)_{k}": su2_ring(k) for k in range(1, 15)})
    rings["cubic chain"] = cubic_chain_ring()
    rings["U(S3,C3)"] = s3_two_orbit_ring()
    rings["NG(C2,2^40)"] = fr.near_group((2,), 2**40)
    outcomes = set()
    for name, ring in rings.items():
        p = fr.dimension_profile(ring)
        got = None if p is None else (p.is_two_dimension, p.r, p.s, p.d, p.d_is_rational)
        assert got == dimension_profile_oracle(ring), name
        outcomes.add(None if got is None else (got[0], got[4]))
    # more than two dimensions, pointed, irrational d and integer d all occur
    assert outcomes == {None, (False, None), (True, False), (True, True)}


def test_dimension_profile_computes_no_root_and_factors_nothing(monkeypatch):
    import fusionring.intpoly
    import fusionring.numtheory
    import fusionring.ring

    rings = [
        fr.near_group((2,), 5612749431232643225),
        fr.haagerup_izumi((5,)),
        fr.uniform_two_orbit((6,), [2], "inversion", 2),
    ]

    def forbidden(*args):
        raise AssertionError("the dimension profile computed a root or a factorization")

    for module, name in (
        (fusionring.ring, "fpdim_basis"),
        (fusionring.ring, "alg_cmp"),
        (fusionring.intpoly, "isolate_real_roots"),
        (fusionring.numtheory, "factorize"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    profiles = [fr.dimension_profile(ring) for ring in rings]
    got = [(p.r, p.s, p.d_is_rational) for p in profiles]
    assert got == [(5612749431232643225, 2, False), (5, 1, False), (12, 3, False)]


def test_two_orbit_data_examples():
    d = fr.two_orbit_data(fr.near_group((3,), 3))
    assert d.group_indices == (0, 1, 2)
    assert d.stabilizer == (0, 1, 2)
    assert d.theta == (0,)
    assert d.uniform_coeff == 3 and d.uniform_k == 1  # level = k |H|

    d = fr.two_orbit_data(fr.haagerup_izumi((3,)))
    assert d.stabilizer == (0,)
    assert d.theta == (0, 2, 1)  # inversion on C3
    assert d.uniform_coeff == 1 and d.uniform_k == 1
    assert d.noninv_selfdual

    with pytest.raises(NotTwoOrbitError):
        fr.two_orbit_data(fr.dihedral_character_ring(9))


def test_two_orbit_uniform_k_divisibility():
    # level 4 over C3: uniform coefficient 4 is not a multiple of |H| = 3
    d = fr.two_orbit_data(fr.near_group((3,), 4))
    assert d.uniform_coeff == 4
    assert d.uniform_k is None


def test_algebra_generators_generate(small_corpus, two_orbit_corpus, spectra_corpus):
    # the Q-span of b_0 and S, closed under left multiplication by S, is the
    # whole ring: checked by exact elimination, independently of the peeling
    rings = {**small_corpus, **two_orbit_corpus, **spectra_corpus}
    rings.update({f"SU(2)_{k}": su2_ring(k) for k in range(1, 15)})
    for name, ring in rings.items():
        gens = algebra_generators(ring)
        assert 0 not in gens and list(gens) == sorted(set(gens)), name
        assert generated_span_rank(ring, gens) == ring.rank, name


def test_algebra_generators_examples():
    assert algebra_generators(fr.group_ring(())) == ()
    assert algebra_generators(fr.haagerup_izumi((8,))) == (1, 8)
    assert algebra_generators(fr.near_group((2, 2, 2, 2), 16)) == (1, 2, 4, 8, 16)
    assert algebra_generators(su2_ring(9)) == (1,)
    # in a near-group, rho alone spans only {1, rho, sum g}
    ring = fr.near_group((4,), 4)
    assert generated_span_rank(ring, (4,)) == 3
    assert generated_span_rank(ring, algebra_generators(ring)) == 5


def test_rank_one_ring_accepted():
    triv = fr.group_ring(())
    assert triv.rank == 1
    assert fr.verify_axioms(triv) == []
    assert fr.fpdim_total(triv) == 1
    assert fr.dimension_profile(triv).is_two_dimension is False
    assert fr.orbit_structure(triv).orbit_count == 1


def test_integer_d_when_many_orbits(small_corpus):
    # two-dimension rings with more than two orbits have rational d
    for n in range(9, 16):
        ring = fr.dihedral_character_ring(n)
        orb = fr.orbit_structure(ring)
        profile = fr.dimension_profile(ring)
        if profile is None or not profile.is_two_dimension:
            continue
        if orb.orbit_count > 2:
            assert profile.d_is_rational, n


def test_irrational_when_r_at_least_s():
    for factors in ((2,), (3,), (2, 2)):
        g = fr.construct.as_group(factors)
        for level in range(g.order, g.order + 5):
            profile = fr.dimension_profile(fr.near_group(factors, level))
            assert not profile.d_is_rational


def test_two_orbit_structure_properties(two_orbit_corpus):
    for name, ring in two_orbit_corpus.items():
        data = fr.two_orbit_data(ring)
        inv = set(data.group_indices)
        noninv = [i for i in range(ring.rank) if i not in inv]
        t = ring.tensor
        gx = {
            (g, x): int(np.flatnonzero(t[g, x])[0]) for g in inv for x in noninv
        }
        xg = {
            (x, g): int(np.flatnonzero(t[x, g])[0]) for g in inv for x in noninv
        }
        for x in noninv:
            # (a) g x = x* implies g x = x g
            for g in inv:
                if gx[(g, x)] == ring.dual[x]:
                    assert gx[(g, x)] == xg[(x, g)], name
            # (b) x* lies in the right orbit x G
            assert ring.dual[x] in {xg[(x, g)] for g in inv}, name
            # (c) G x = x G
            assert {gx[(g, x)] for g in inv} == {xg[(x, g)] for g in inv}, name
        # (d) x x* constant across the orbit, stabilizers shared
        rows = {tuple(int(v) for v in t[x, ring.dual[x]]) for x in noninv}
        assert len(rows) == 1, name
        # (e) the common stabilizer is normal
        g = data.invertible.group
        pos = {b: p for p, b in enumerate(data.group_indices)}
        stab_pos = [pos[s] for s in data.stabilizer]
        assert g.is_normal(stab_pos), name


def test_theta_is_involutive_automorphism(two_orbit_corpus):
    for name, ring in two_orbit_corpus.items():
        data = fr.two_orbit_data(ring)
        if data.theta is None:
            continue
        g = data.invertible.group
        pos = {b: p for p, b in enumerate(data.group_indices)}
        quotient, _ = g.quotient([pos[s] for s in data.stabilizer])
        from fusionring.groups import is_automorphism

        assert is_automorphism(quotient, data.theta), name
        n = len(data.theta)
        assert [data.theta[data.theta[i]] for i in range(n)] == list(range(n)), name


def test_two_orbit_quotient_and_basis_cosets(two_orbit_corpus):
    # read from rows: y = g x_0 when row (g, x_0) is the basis vector of y
    for name, ring in two_orbit_corpus.items():
        data = fr.two_orbit_data(ring)
        inv = fr.invertibles(ring)
        pos = {b: p for p, b in enumerate(inv.indices)}
        quotient, _ = inv.group.quotient([pos[s] for s in data.stabilizer])
        assert data.quotient.table == quotient.table, name
        x0 = min(noninvertible_indices(ring))
        assert len(data.basis_coset) == ring.rank, name
        for y in range(ring.rank):
            coset = data.cosets[data.basis_coset[y]]
            if y in pos:
                assert y in coset, (name, y)
            else:
                unit = tuple(int(k == y) for k in range(ring.rank))
                assert all(ring.fusion_matrix(g)[x0] == unit for g in coset), (name, y)
        hash(data)  # every field is immutable


def test_commutative_iff_abelian_when_index_two(two_orbit_corpus):
    for name, ring in two_orbit_corpus.items():
        data = fr.two_orbit_data(ring)
        if len(data.cosets) != 2:
            continue
        assert fr.is_commutative(ring) == data.invertible.group.is_abelian, name


def test_nonabelian_group_ring():
    ring = fr.group_ring([list(r) for r in s3_group().table])
    assert ring.rank == 6
    assert not fr.is_commutative(ring)
    assert fr.verify_axioms(ring) == []
    assert len(noninvertible_indices(ring)) == 0
    assert all(is_invertible(ring, i) for i in range(6))


def test_library_has_no_assert_statements():
    # invariant checks raise InternalInvariantError, so python -O keeps them
    sources = sorted((REPO_ROOT / "src" / "fusionring").glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
