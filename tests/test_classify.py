import pytest

import fusionring as fr
from conftest import admissible_squarefree_parts_oracle
from fusionring.classify import (
    DEFAULT_RESIDUE_FILTERS,
    STATUS_CANDIDATE,
    STATUS_ELIMINATED,
    STATUS_KNOWN,
    LevelEntry,
    LevelRun,
    admissible_squarefree_parts,
    coarse_cutoff,
    scan_prime_levels,
)
from fusionring.numtheory import is_prime
from fusionring.obstruct import divis_verdict, noncom_verdict


def test_elementary2_classification_sets():
    assert fr.classify_elementary2(1).categorifiable_levels() == [0, 1, 2]
    assert fr.classify_elementary2(2).categorifiable_levels() == [0, 4]
    for m in (3, 4, 5, 6):
        report = fr.classify_elementary2(m)
        assert report.categorifiable_levels() == [0], m
        assert report.candidate_levels() == [], m


def test_elementary2_certificate_order():
    # first occurrences cite noncommutativity, then the coarse quartic, then
    # the endgame refinement
    for m in (2, 3, 4):
        report = fr.classify_elementary2(m)
        first_seen = []
        for entry in report.levels:
            for v in entry.certificates:
                if v.test_name not in first_seen:
                    first_seen.append(v.test_name)
        ordered = [t for t in first_seen if t in ("noncommutative", "coarse-budget", "endgame")]
        assert ordered == ["noncommutative", "coarse-budget", "endgame"], m


def test_elementary2_known_entries_tag_only():
    for m in (1, 2):
        report = fr.classify_elementary2(m)
        for entry in report.levels:
            if entry.status == STATUS_KNOWN:
                assert entry.tag, (m, entry.level)
                assert entry.certificates == (), (m, entry.level)


def test_elementary2_eliminated_entries_carry_certificate_or_tag():
    for m in (2, 3, 5):
        report = fr.classify_elementary2(m)
        for entry in report.levels:
            if entry.status == STATUS_ELIMINATED:
                assert entry.certificates or entry.tag, (m, entry.level)


@pytest.mark.parametrize("m", range(2, 13))
def test_elementary2_runs_carry_their_rule_at_every_level(m):
    # levels 1..n-2 form one noncommutativity run; the non-multiples of n
    # between n and the last listed multiple form divisibility runs
    n = 2**m
    report = fr.classify_elementary2(m)
    levels = tuple(report.levels)
    assert [e.level for e in levels] == list(range(len(levels)))
    assert len(report.levels) == len(levels) and report.levels == levels
    assert [report.levels[i] for i in (0, n - 2, -1)] == [levels[i] for i in (0, n - 2, -1)]
    assert report.levels[n - 3 : n + 1] == levels[n - 3 : n + 1]
    runs = [item for item in report.levels.items if isinstance(item, LevelRun)]
    assert (runs[0].first, runs[0].last) == (1, n - 2)
    assert [lv for run in runs[1:] for lv in range(run.first, run.last + 1)] == [
        lv for lv in range(n, len(levels)) if lv % n
    ]
    for run in runs:
        for level in range(run.first, run.last + 1):
            verdict = noncom_verdict(level, n, n) if run is runs[0] else divis_verdict(level, n)
            assert levels[level] == LevelEntry(level, STATUS_ELIMINATED, certificates=(verdict,)), level


def test_elementary2_cutoffs_dominate_thresholds():
    for n, want in ((4, 3), (8, 2), (16, 1), (32, 0)):
        cutoff, cert = coarse_cutoff(n)
        assert cutoff == want
        assert cert["k_cutoff"] == want


def test_elementary2_rejects_bad_m():
    with pytest.raises(ValueError):
        fr.classify_elementary2(0)


def test_elementary2_scales_past_classified_range():
    import time

    t0 = time.monotonic()
    report = fr.classify_elementary2(10)
    assert report.categorifiable_levels() == [0]
    assert report.scan_bound["k_cutoff"] == 0
    assert time.monotonic() - t0 < 5.0
    # the quartic cutoff isolation stays cheap even at huge coefficients
    t0 = time.monotonic()
    cutoff, _ = coarse_cutoff(2**16)
    assert cutoff == 0
    assert time.monotonic() - t0 < 1.0


def test_elementary2_matches_ring_level_verdicts():
    # parameter-level shortcuts agree with verdicts computed on actual rings
    report = fr.classify_elementary2(2)
    by_level = {e.level: e for e in report.levels}
    for level in range(1, 13):
        ring = fr.near_group((2, 2), level)
        ring_eliminated = fr.obstruct.eliminated(fr.run_all(ring))
        entry = by_level[level]
        if entry.status == STATUS_KNOWN:
            assert not ring_eliminated, level
        else:
            assert (entry.status == STATUS_ELIMINATED) == ring_eliminated or entry.tag, level


def test_admissible_set_matches_totient_oracle():
    # every odd prime up to 103 against the definition that factors each candidate
    for p in range(3, 104, 2):
        if is_prime(p):
            assert admissible_squarefree_parts(p) == admissible_squarefree_parts_oracle(p), p


def test_admissible_set_for_seven():
    xs = admissible_squarefree_parts(7)
    assert xs == [1, 2, 3, 5, 6, 10, 11, 13, 15, 22, 26, 30, 33, 34, 38, 46, 58, 66, 78, 102, 114, 138]
    assert all(x % 7 for x in xs)


def test_scan_small_window():
    report = scan_prime_levels(7, 100, residue_filter=(2, 3, 5, 13))
    assert [e.k for e in report.levels] == [1, 6, 10, 96]
    assert [e.x for e in report.levels] == [11, 1, 11, 1]
    assert all(e.status == STATUS_CANDIDATE for e in report.levels)
    assert all(e.level == 7 * e.k for e in report.levels)


@pytest.mark.parametrize("rf", [(0,), (1,), (-3,), (2, 3, 0)])
def test_scan_rejects_residue_filter_entries_below_2(rf):
    with pytest.raises(ValueError, match=f"residue filter entry {min(rf)} is below 2"):
        scan_prime_levels(7, 10, residue_filter=rf)


def test_scan_monotone_in_kmax():
    small = {e.k for e in scan_prime_levels(7, 100, residue_filter=(2, 3, 5, 13)).levels}
    big = {e.k for e in scan_prime_levels(7, 2000, residue_filter=(2, 3, 5, 13)).levels}
    assert small <= big


def test_scan_monotone_in_filter():
    unfiltered = {e.k for e in scan_prime_levels(7, 2000).levels}
    filtered = {e.k for e in scan_prime_levels(7, 2000, residue_filter=(2, 3, 5, 13)).levels}
    assert filtered <= unfiltered


def test_scan_unfiltered_flags():
    report = scan_prime_levels(7, 2000)
    by_k = {e.k: e for e in report.levels}
    assert 2 in by_k and by_k[2].x == 2
    assert by_k[2].flags
    for e in report.levels:
        if e.k == 1:
            continue
        expected_flag = any(e.x % q == 0 for q in DEFAULT_RESIDUE_FILTERS[7])
        assert bool(e.flags) == expected_flag, e.k


def test_scan_conjecture_cutoff():
    report = scan_prime_levels(7, 10**6, residue_filter=(2, 3, 5, 13), conjecture_cutoff=True)
    assert all(e.k <= 6 for e in report.levels)
    assert any("NOT rigorous" in f for f in report.filters_applied)


def test_scan_other_primes():
    # the machinery is not specific to p = 7
    rep = scan_prime_levels(11, 20000)
    ks = [e.k for e in rep.levels]
    assert ks[0] == 1 and 6 in ks  # m = 3: 9*11 + 1 = 100 is a perfect square
    assert all(e.k == 1 or e.k % 2 == 0 for e in rep.levels)
    assert not any(e.flags for e in rep.levels)  # no residue claim recorded for 11
    rep = scan_prime_levels(19, 1000)
    for e in rep.levels:
        if e.k >= 2:
            m = e.k // 2
            v = m * m * 19 + 1
            assert v % e.x == 0 and fr.numtheory.is_square(v // e.x)


def test_scan_rejects_bad_input():
    with pytest.raises(ValueError):
        scan_prime_levels(5, 100)
    with pytest.raises(ValueError):
        scan_prime_levels(7, 0)


def test_classify_generic_examples():
    report = fr.classify_generic(fr.near_group((3,), 4))
    assert report.levels[0].status == STATUS_ELIMINATED
    tests = [v.test_name for v in report.levels[0].certificates if v.eliminates]
    assert "divisibility" in tests

    report = fr.classify_generic(fr.near_group((2, 2), 4))
    assert report.levels[0].status == STATUS_CANDIDATE

    report = fr.classify_generic(fr.group_ring((2, 2)))
    assert report.levels[0].status == STATUS_KNOWN
    assert report.levels[0].tag


def test_report_serialization_roundtrip():
    import json

    report = fr.classify_elementary2(2)
    doc = report.to_dict()
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text) == doc
