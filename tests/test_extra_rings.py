"""Rings beyond the named families: a cubic-dimension chain (exercising the
isolated-root representation end to end) and a two-orbit ring with
nonabelian invertibles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionring as fr
from conftest import (
    REPO_ROOT,
    CertificationError,
    assert_codegrees_match_yun_oracle,
    characters_commutative,
    charpoly_oracle,
    cubic_chain_ring,
    nonzero_rows,
    numeric_eigs,
    s3_two_orbit_ring,
    su2_ring,
)
from fusionring import Quadratic, alg_cmp, intpoly
from fusionring.algebraic import IsolatedRoot
from fusionring.ringfile import alg_to_dict, dumps_report, load_ring
from fusionring.errors import HypothesisError
from fusionring.ring import fpdim_all, global_multiplication_matrix, is_invertible


def test_cubic_ring_is_valid():
    ring = cubic_chain_ring()
    assert fr.verify_axioms(ring) == []
    assert fr.is_commutative(ring)


def test_cubic_dimensions_stay_isolated():
    ring = cubic_chain_ring()
    dx = fr.fpdim_basis(ring, 1)
    assert isinstance(dx, IsolatedRoot)
    assert dx.min_poly() == (1, -2, -1, 1)  # x^3 - x^2 - 2x + 1
    assert abs(float(dx) - 1.8019377358) < 1e-9
    dy = fr.fpdim_basis(ring, 2)
    assert abs(float(dy) - float(dx) ** 2 + 1) < 1e-9  # y = x^2 - 1


def test_cubic_fpdim_respects_requested_width():
    ring = cubic_chain_ring()
    width = Fraction(1, 2**100)
    d = fr.fpdim_basis(ring, 1, width=width)
    lo, hi = d.interval(width)
    assert hi - lo <= width


def test_narrow_fpdim_reuses_cache_without_narrowing_it():
    # a 2^-256 call narrows its own copy of the memoized Perron root, never
    # the memoized one: its interval is the one a direct computation at that
    # width gives, and the memoized value (and so the `fpdim --json` bytes)
    # is what fpdim_all alone gives
    width = Fraction(1, 2**256)
    for ring_of in (cubic_chain_ring, lambda: su2_ring(9)):
        alone, narrow_first = ring_of(), ring_of()
        for i in range(narrow_first.rank):
            d = fr.fpdim_basis(narrow_first, i, width=width)
            if is_invertible(narrow_first, i):
                direct = Quadratic(1)
            else:
                # the Perron root's isolating interval, refined straight to width
                sf, _, intervals = intpoly.isolate_real_roots(charpoly_oracle(narrow_first.fusion_matrix(i)))
                direct = IsolatedRoot._certified(sf, *intpoly.refine_interval(sf, *intervals[-1], width))
            assert alg_to_dict(d) == alg_to_dict(direct), i
        fr.fpdim_total(narrow_first, width=width)
        docs = [
            dumps_report({"dims": [alg_to_dict(d) for d in fpdim_all(r)], "total": alg_to_dict(fr.fpdim_total(r))})
            for r in (alone, narrow_first)
        ]
        assert docs[0] == docs[1]


def test_fpdim_isolates_each_polynomial_once_and_copies_its_root(monkeypatch):
    # SU(2)_14: the pairs b_1/b_13, b_3/b_11, b_5/b_9 and b_6/b_8 share a
    # Krylov polynomial, so 13 noninvertible elements have 9 polynomials
    ring = su2_ring(14)
    polys = {intpoly.krylov(ring.rows[i])[0] for i in range(1, 14)}
    assert len(polys) == 9
    isolate = intpoly.isolate_real_roots
    calls = []
    monkeypatch.setattr(intpoly, "isolate_real_roots", lambda p: calls.append(p) or isolate(p))
    dims = fpdim_all(ring)
    assert sorted(calls) == sorted(polys)
    # indices that share a polynomial share its root: narrowing it changes no
    # other result, whether made before the narrowing or after it
    before = dims[13].interval()
    assert dims[1].poly == dims[13].poly
    fr.fpdim_basis(ring, 1).interval(Fraction(1, 2**200))
    assert fr.fpdim_basis(ring, 13).interval() == before
    late = su2_ring(14)
    fr.fpdim_basis(late, 1).interval(Fraction(1, 2**200))
    assert fr.fpdim_basis(late, 13).interval() == before


def test_changing_a_returned_codegree_spectrum_changes_no_later_one():
    ring = load_ring(REPO_ROOT / "tests" / "golden" / "su2_level9.ring")

    def doc(spectrum) -> str:
        return dumps_report({"spectrum": [[alg_to_dict(e.value), e.eigen_multiplicity] for e in spectrum]})

    first = fr.codegree_spectrum(ring)
    before = doc(first)
    top = first[0].value
    assert isinstance(top, IsolatedRoot)
    first.clear()
    top.interval(Fraction(1, 2**300))
    assert doc(fr.codegree_spectrum(ring)) == before


def test_a_returned_root_prints_the_same_whatever_it_was_compared_with():
    # a root is immutable: comparing it with a close rational or asking for a
    # narrower interval leaves its `--json` bytes, and a later call's, as
    # they were
    ring = load_ring(REPO_ROOT / "tests" / "golden" / "su2_level9.ring")
    first = dumps_report(alg_to_dict(fr.fpdim_basis(ring, 1)))
    for d in (fr.fpdim_basis(ring, 1), fr.codegree_spectrum(ring)[0].value):
        assert isinstance(d, IsolatedRoot)
        before = dumps_report(alg_to_dict(d))
        lo, hi = intpoly.refine_interval(d.poly, *d.interval(), Fraction(1, 2**100))
        assert alg_cmp(d, lo) == 1 and alg_cmp(d, hi) == -1
        assert dumps_report(alg_to_dict(d)) == before
        d.interval(Fraction(1, 2**200))
        assert dumps_report(alg_to_dict(d)) == before
        for name in ("_lo", "_hi", "poly"):
            with pytest.raises(AttributeError):
                setattr(d, name, lo)
    assert dumps_report(alg_to_dict(fr.fpdim_basis(ring, 1))) == first


def test_cubic_total_and_codegrees_against_oracle():
    ring = cubic_chain_ring()
    total = fr.fpdim_total(ring)
    assert isinstance(total, IsolatedRoot)
    assert abs(float(total) - 9.2958969432) < 1e-9
    m = global_multiplication_matrix(ring)
    assert intpoly.krylov(nonzero_rows(m))[0] == intpoly.squarefree_part(charpoly_oracle(m))
    assert_codegrees_match_yun_oracle(ring)
    spectrum = fr.codegree_spectrum(ring)
    approx = sorted(float(e.value) for e in spectrum for _ in range(e.eigen_multiplicity))
    assert np.allclose(approx, numeric_eigs(m), atol=1e-9)
    # commutative: each eigenvalue is a codegree and they sum to tr M
    assert all(e.dim_hint == 1 for e in spectrum)


def test_cubic_profile_is_three_dimension_marker():
    assert fr.dimension_profile(cubic_chain_ring()) is None


def test_cubic_multiplicativity_with_certified_intervals():
    # sum_k c[i,j,k] d_k = d_i d_j, checked through exact rational interval
    # enclosures (the dimensions are not quadratic here, so equality cannot
    # be tested in closed form)
    ring = cubic_chain_ring()
    width = Fraction(1, 2**80)
    bounds = []
    for i in range(ring.rank):
        d = fr.fpdim_basis(ring, i)
        bounds.append(d.interval(width) if not isinstance(d, Quadratic) else (d.a, d.a))
    t = ring.tensor
    for i in range(ring.rank):
        for j in range(ring.rank):
            lhs_lo = sum(int(t[i, j, k]) * bounds[k][0] for k in range(ring.rank))
            lhs_hi = sum(int(t[i, j, k]) * bounds[k][1] for k in range(ring.rank))
            rhs_lo = bounds[i][0] * bounds[j][0]  # all dims >= 1 > 0
            rhs_hi = bounds[i][1] * bounds[j][1]
            # the exact quantities are equal, so the enclosures must overlap
            assert lhs_lo <= rhs_hi and rhs_lo <= lhs_hi, (i, j)
            # and the enclosures are tight
            assert lhs_hi - lhs_lo < Fraction(1, 2**70)


def test_certification_failure_is_reported():
    with pytest.raises(CertificationError):
        characters_commutative(fr.group_ring((2, 3)), width=Fraction(1, 2**4000))


def test_cubic_ring_cli_roundtrip(tmp_path, capsys):
    from fusionring.cli import main
    from fusionring.ringfile import dumps_ring

    path = tmp_path / "cubic.ring"
    path.write_text(dumps_ring(cubic_chain_ring()))
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    assert main(["fpdim", str(path), "--json"]) == 0
    out, _ = capsys.readouterr()
    import json

    doc = json.loads(out)
    assert doc["dims"][1]["value"]["poly"] == [1, -2, -1, 1]
    assert "." not in out  # exact payload only
    # precision override narrows the serialized isolating interval
    assert main(["fpdim", str(path), "--basis", "1", "--width-bits", "100", "--json"]) == 0
    out, _ = capsys.readouterr()
    doc = json.loads(out)
    lo = Fraction(*map(int, doc["dims"][0]["value"]["lo"].split("/")))
    hi = Fraction(*map(int, doc["dims"][0]["value"]["hi"].split("/")))
    assert hi - lo <= Fraction(1, 2**100)


def test_huge_level_stays_exact():
    # structure constants far beyond int64 square range: the axiom checker
    # and Perron promotion must stay exact (object-dtype fallback, trace
    # candidates from root pairing rather than coefficient bounds)
    level = 2**40
    ring = fr.near_group((), level)
    assert fr.verify_axioms(ring) == []
    d = fr.fpdim_basis(ring, 1)
    assert isinstance(d, Quadratic)
    assert d * d == level * d + 1
    profile = fr.dimension_profile(ring)
    assert (profile.r, profile.s) == (level, 1)
    t = ring.tensor.copy()
    t.setflags(write=True)
    t[1, 1, 0] = 2
    assert fr.verify_axioms(fr.FusionRing(ring.labels, ring.dual, t))


def test_s3_two_orbit_ring_structure():
    ring = s3_two_orbit_ring()
    assert fr.verify_axioms(ring) == []
    assert not fr.is_commutative(ring)
    data = fr.two_orbit_data(ring)
    assert not data.invertible.group.is_abelian
    assert len(data.stabilizer) == 3
    assert len(data.cosets) == 2
    # Eq-13 coefficient 1 is not a multiple of |H| = 3: no level divisor
    assert data.uniform_coeff == 1 and data.uniform_k is None
    assert data.noninv_selfdual
    assert data.theta == (0, 1)  # identity on the order-2 quotient


def test_s3_two_orbit_dimensions():
    ring = s3_two_orbit_ring()
    profile = fr.dimension_profile(ring)
    assert profile.d == Quadratic(3)  # d^2 = 3 + 2d
    assert (profile.r, profile.s) == (2, 3)
    assert fr.fpdim_total(ring) == 24


def test_s3_two_orbit_codegrees():
    ring = s3_two_orbit_ring()
    spectrum = fr.codegree_spectrum(ring)
    assert [(str(e.value), e.eigen_multiplicity) for e in spectrum] == [
        ("24", 1),
        ("12", 2),
        ("8", 1),
        ("6", 4),
    ]
    for e in spectrum:
        assert e.dim_hint is None  # noncommutative: eigenvalues only
        assert alg_cmp(e.value, 6) >= 0


def test_s3_two_orbit_irreps_refused():
    with pytest.raises(HypothesisError, match="abelian"):
        fr.uniform_irreps(s3_two_orbit_ring())


def test_obstructions_not_applicable_on_s3_ring():
    verdicts = fr.run_all(s3_two_orbit_ring())
    noncom = next(v for v in verdicts if v.test_name == "noncommutative")
    assert noncom.outcome == "not_applicable"  # the ring is noncommutative
    assert not fr.obstruct.eliminated(verdicts)


# -- hypothesis property checks on the exact layers ------------------------

_fracs = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=12
)


@given(_fracs, _fracs, _fracs, _fracs, st.sampled_from([0, 2, 3, 5, 6, 7, 10]))
@settings(max_examples=300, deadline=None)
def test_quadratic_field_laws(a1, b1, a2, b2, D):
    x = Quadratic(a1, b1, D)
    y = Quadratic(a2, b2, D)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    if y != Quadratic(0):
        assert (x / y) * y == x


@given(st.lists(st.sampled_from([2, 3, 4]), max_size=2), st.integers(0, 9))
@settings(max_examples=40, deadline=None)
def test_near_group_always_verifies(factors, level):
    ring = fr.near_group(tuple(factors), level)  # order at most 16
    assert fr.verify_axioms(ring) == []
