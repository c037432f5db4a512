from fractions import Fraction

import mpmath
import pytest

import fusionring as fr
from fusionring.obstruct import (
    budget_bound,
    elementary2_coarse,
    elementary2_coarse_both,
    endgame_both,
    endgame_check,
    near_group_shape,
    prime_parity,
    prime_xbound,
    quartic_coeffs,
    quartic_f,
)


def test_noncommutative_obstruction():
    v = fr.obstruct_noncommutative(fr.near_group((2, 2), 2))
    assert v.outcome == "eliminates"
    assert v.certificate["r"] == 2 and v.certificate["stabilizer_order"] == 4

    v = fr.obstruct_noncommutative(fr.near_group((2,), 1))
    assert v.outcome == "passes"  # r = 1 = |H| - 1

    v = fr.obstruct_noncommutative(fr.haagerup_izumi((3,)))
    assert v.outcome == "not_applicable"

    v = fr.obstruct_noncommutative(fr.group_ring((2,)))
    assert v.outcome == "not_applicable"


def test_divisibility_obstruction():
    v = fr.obstruct_divisibility(fr.near_group((3,), 4))
    assert v.outcome == "eliminates"
    assert (v.certificate["r"], v.certificate["s"]) == (4, 3)

    v = fr.obstruct_divisibility(fr.near_group((3,), 6))
    assert v.outcome == "passes"

    v = fr.obstruct_divisibility(fr.group_ring((2,)))
    assert v.outcome == "not_applicable"

    # rational dimension: not applicable
    v = fr.obstruct_divisibility(fr.near_group((2,), 1))
    assert v.outcome == "not_applicable"


def test_budget_bound():
    assert budget_bound(4, 1) == Fraction(31, 2)
    assert budget_bound(2, 1) == Fraction(11, 2)
    for n in (1, 3, 9):
        assert budget_bound(n, 0) == 2 * n


def test_quartic_fixture_vectors():
    assert quartic_coeffs(4) == (-349, 1024, 160, 1024, 512)
    assert quartic_coeffs(8) == (-4477, 8192, 2880, 4096, 2560)
    assert quartic_coeffs(16) == (-67069, 65536, 28288, 16384, 11264)
    assert quartic_coeffs(32) == (-1054717, 524288, 244992, 65536, 47104)
    assert quartic_f(4, 4) == -16640


def test_quartic_is_twelve_times_squared_inequality():
    # f(n,k) = 12 (lhs^2 - rhs^2) at nu2 = +1, for all n, k <= 64
    for n in range(1, 65):
        for k in range(1, 65):
            lhs = budget_bound(n, k)
            t = Fraction(k * n, 2) - 1
            rhs_sq = Fraction(4, 3) * t * t * (k * k * n * n + 4 * n)
            assert quartic_f(n, k) == 12 * (lhs * lhs - rhs_sq), (n, k)


def test_coarse_examples():
    assert elementary2_coarse(16, 2, 1).outcome == "eliminates"
    assert elementary2_coarse(4, 1, 1).outcome == "passes"
    assert elementary2_coarse(32, 1, 1).outcome == "eliminates"
    with pytest.raises(ValueError):
        elementary2_coarse(6, 1, 1)
    with pytest.raises(ValueError):
        elementary2_coarse(2, 1, 1)


def test_coarse_thresholds():
    # the quartic goes permanently negative beyond k = 3, 2, 1, 0
    for n, thresh in ((4, 3), (8, 2), (16, 1), (32, 0)):
        for k in range(1, thresh + 1):
            assert quartic_f(n, k) >= 0, (n, k)
        for k in range(thresh + 1, thresh + 40):
            assert quartic_f(n, k) < 0, (n, k)


def test_minus_sign_never_weaker():
    for n in (4, 8, 16, 32):
        for k in range(1, 12):
            plus = elementary2_coarse(n, k, 1)
            minus = elementary2_coarse(n, k, -1)
            if plus.outcome == "eliminates":
                assert minus.outcome == "eliminates", (n, k)
            both = elementary2_coarse_both(n, k)
            assert both.outcome == ("eliminates" if plus.outcome == "eliminates" else "passes")


def test_endgame_fixtures():
    cases = {
        (16, 1): ("eliminates", 5),
        (8, 1): ("eliminates", 6),
        (8, 2): ("eliminates", 2),
        (4, 3): ("eliminates", 10),
        (4, 2): ("eliminates", 5),
        (4, 1): ("passes", 2),
    }
    for (n, k), (outcome, c) in cases.items():
        v = endgame_check(n, k)
        assert v.outcome == outcome, (n, k)
        assert v.certificate["c"] == c, (n, k)
        both = endgame_both(n, k)
        assert both.outcome == outcome, (n, k)


def test_budget_model():
    cert = elementary2_coarse(4, 1, 1).certificate
    assert cert["c"] == 2
    assert Fraction(cert["budget"]) == Fraction(31, 2)
    with pytest.raises(ValueError):
        elementary2_coarse(4, 1, 0)


def test_prime_parity():
    assert prime_parity(7, 3).outcome == "eliminates"
    assert prime_parity(7, 1).outcome == "passes"
    assert prime_parity(7, 6).outcome == "passes"
    with pytest.raises(ValueError):
        prime_parity(5, 2)  # 5 = 1 mod 4
    with pytest.raises(ValueError):
        prime_parity(9, 2)  # not prime


def test_prime_xbound():
    v = prime_xbound(7, 3)
    assert v.outcome == "passes" and v.certificate["x"] == 1
    v = prime_xbound(7, 5)
    assert v.outcome == "passes" and v.certificate["x"] == 11
    v = prime_xbound(7, 2)
    assert v.outcome == "eliminates" and v.certificate["x"] == 29


def test_each_certificate_number_is_factored_once(monkeypatch):
    from fusionring import numtheory

    factorize = numtheory.factorize
    calls = []
    monkeypatch.setattr(numtheory, "factorize", lambda n: calls.append(n) or factorize(n))
    # 7 * 5^2 + 1 = 176 = 11 * 4^2, then phi(11)
    assert prime_xbound(7, 5).certificate["phi_x"] == 10
    assert calls == [176, 11]
    calls.clear()
    # 8^2 + 4 * 8 = 96 = 6 * 4^2, then phi(2 * 6)
    assert endgame_check(8, 1).certificate["phi_2c"] == 4
    assert calls == [96, 12]


def test_xbound_square_consistency():
    from fusionring.numtheory import is_square

    for m in range(1, 200):
        v = prime_xbound(7, m)
        assert (v.certificate["x"] == 1) == is_square(m * m * 7 + 1)


def test_near_group_shape():
    assert near_group_shape(fr.near_group((2, 2), 4)) == (4, 4)
    assert near_group_shape(fr.group_ring((3,))) is None
    assert near_group_shape(fr.haagerup_izumi((2,))) is None


def test_run_all_examples():
    verdicts = fr.run_all(fr.near_group((2, 2), 2))
    assert fr.obstruct.eliminated(verdicts)
    assert next(v for v in verdicts if v.test_name == "noncommutative").eliminates

    verdicts = fr.run_all(fr.near_group((2, 2), 4))
    assert not fr.obstruct.eliminated(verdicts)

    verdicts = fr.run_all(fr.near_group((2, 2, 2), 8))
    assert fr.obstruct.eliminated(verdicts)
    assert next(v for v in verdicts if v.test_name == "endgame").eliminates


def test_run_all_fixed_order(small_corpus):
    expected = [
        "noncommutative",
        "divisibility",
        "coarse-budget",
        "endgame",
        "prime-parity",
        "prime-xbound",
    ]
    for name, ring in small_corpus.items():
        verdicts = fr.run_all(ring)
        assert [v.test_name for v in verdicts] == expected, name


def test_run_all_prime_shape():
    verdicts = fr.run_all(fr.near_group((3,), 6))  # k = 2 over C3
    parity = next(v for v in verdicts if v.test_name == "prime-parity")
    xb = next(v for v in verdicts if v.test_name == "prime-xbound")
    assert parity.outcome == "passes" and xb.outcome == "passes"

    verdicts = fr.run_all(fr.near_group((3,), 9))  # k = 3 odd
    parity = next(v for v in verdicts if v.test_name == "prime-parity")
    assert parity.outcome == "eliminates"


def _interval_reeval(cert, nu2_key) -> float:
    c = cert[nu2_key]
    lhs = Fraction(*_parse_frac(c["lhs"]))
    if isinstance(c["rhs"], dict):
        b = Fraction(*_parse_frac(c["rhs"]["b"]))
        rhs = mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(c["rhs"]["D"])
    else:
        rv = Fraction(*_parse_frac(c["rhs"]))
        rhs = mpmath.mpf(rv.numerator) / rv.denominator
    return float(mpmath.mpf(lhs.numerator) / lhs.denominator - rhs)


def _parse_frac(s):
    if "/" in s:
        a, b = s.split("/")
        return int(a), int(b)
    return int(s), 1


def test_certificates_reevaluate_at_high_precision():
    # 128-bit interval-style recheck: an eliminates verdict must have lhs < rhs
    mpmath.mp.prec = 128
    for n, k in ((16, 1), (8, 1), (8, 2), (4, 2), (4, 3)):
        v = endgame_both(n, k)
        assert v.outcome == "eliminates"
        for key in ("nu2_plus", "nu2_minus"):
            diff = _interval_reeval(v.certificate, key)
            assert diff < -1e-20, (n, k, key)
    for n, k in ((16, 2), (32, 1), (4, 4)):
        v = elementary2_coarse_both(n, k)
        assert v.outcome == "eliminates"
        for key in ("nu2_plus", "nu2_minus"):
            diff = _interval_reeval(v.certificate, key)
            assert diff < -1e-20, (n, k, key)
