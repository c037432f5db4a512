"""Categorifiability obstructions as exact predicates with certificates.

Each test returns an ObstructionVerdict whose certificate holds the exact
quantities (integers, rationals as strings, surds as (a, b, D) triples) that
reproduce the decision.  Every accept/reject comparison goes through integer
or quadratic-sign arithmetic; no floating point touches a verdict.

The level tests for near-group rings come in two flavors per level: a coarse
budget-versus-surd inequality whose failure is equivalent (after squaring and
clearing denominators) to a quartic in the level divisor k going negative,
and a refined variant using the totient of the square-free part of
k^2 n^2 + 4n.  A self-duality sign nu2 = +-1 is unknown for a hypothetical
categorification, so the combined tests evaluate both signs and eliminate
only when both do; the -1 case is checked to be the stronger one.

The root-of-unity constraints on induced twists (squares of the relevant
twists are trivial, or p-th roots of unity in the prime case) are premises
already absorbed into these inequalities; they are not separate predicates
here.  Likewise the prime-case trace identities enter only through their
consequences (the parity test and the square-free-part bound); no search
over the unknown multiplicity split is performed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import InternalInvariantError, NotTwoOrbitError
from .numtheory import is_prime, is_square, quad_sign, squarefree_part, totient

if TYPE_CHECKING:
    from .ring import FusionRing

ELIMINATES = "eliminates"
PASSES = "passes"
NOT_APPLICABLE = "not_applicable"


def _surd(a, b, D: int) -> dict:
    return {"a": str(Fraction(a)), "b": str(Fraction(b)), "D": int(D)}


@dataclass(frozen=True)
class ObstructionVerdict:
    test_name: str
    outcome: str  # eliminates | passes | not_applicable
    certificate: dict
    citation: str

    @property
    def eliminates(self) -> bool:
        return self.outcome == ELIMINATES

    def to_dict(self) -> dict:
        return {
            "test": self.test_name,
            "outcome": self.outcome,
            "certificate": self.certificate,
            "citation": self.citation,
        }


CITE_NONCOM = "commutative two-orbit rings with 0 < r < |H|-1 admit no categorification"
CITE_DIVIS = "irrational two-dimension rings need s | r to be categorifiable"
CITE_COARSE = (
    "root-of-unity budget: (1/2)k^2(n^2-1)+2n >= (2/sqrt 3)(kn/2-nu2)sqrt(k^2n^2+4n)"
)
CITE_ENDGAME = (
    "refined budget: (1/2)k^2(n^2-1)+2n >= (phi(2c)/sqrt c)(kn/2-nu2)sqrt(k^2n^2+4n),"
    " c the square-free part of k^2n^2+4n"
)
CITE_PARITY = "cyclic prime-order scans: level divisor k must be 1 or even"
CITE_XBOUND = (
    "phi(x)/sqrt(x) <= ((p+1)/(p-1))sqrt(p+1/m^2), x the square-free part of m^2 p + 1"
)


def obstruct_noncommutative(ring: FusionRing) -> ObstructionVerdict:
    """Eliminates commutative two-orbit rings whose profile has 0 < r < |H|-1."""
    from .ring import dimension_profile, is_commutative, two_orbit_data

    name = "noncommutative"
    try:
        data = two_orbit_data(ring)
    except NotTwoOrbitError:
        return ObstructionVerdict(name, NOT_APPLICABLE, {"reason": "not two-orbit"}, CITE_NONCOM)
    if not is_commutative(ring):
        return ObstructionVerdict(name, NOT_APPLICABLE, {"reason": "ring is noncommutative"}, CITE_NONCOM)
    profile = dimension_profile(ring)
    if profile is None or not profile.is_two_dimension:
        raise InternalInvariantError("two-orbit ring without a two-dimension profile")
    return noncom_verdict(profile.r, profile.s, len(data.stabilizer))


def noncom_verdict(r: int, s: int, h: int) -> ObstructionVerdict:
    """The noncommutativity rule on the profile d^2 = r d + s of a commutative
    two-orbit ring with stabilizer order h: eliminates iff 0 < r < h - 1."""
    cert = {"r": r, "s": s, "stabilizer_order": h}
    if 0 < r < h - 1:
        return ObstructionVerdict("noncommutative", ELIMINATES, cert, CITE_NONCOM)
    cert["reason"] = "r outside (0, |H|-1)"
    return ObstructionVerdict("noncommutative", PASSES, cert, CITE_NONCOM)


def obstruct_divisibility(ring: FusionRing) -> ObstructionVerdict:
    """Eliminates two-dimension rings with irrational d and s not dividing r."""
    from .ring import dimension_profile

    name = "divisibility"
    profile = dimension_profile(ring)
    if profile is None:
        return ObstructionVerdict(
            name, NOT_APPLICABLE, {"reason": "three or more distinct dimensions"}, CITE_DIVIS
        )
    if not profile.is_two_dimension:
        return ObstructionVerdict(name, NOT_APPLICABLE, {"reason": "pointed ring"}, CITE_DIVIS)
    if profile.d_is_rational:
        return ObstructionVerdict(
            name, NOT_APPLICABLE, {"reason": "dimension is rational", "r": profile.r, "s": profile.s}, CITE_DIVIS
        )
    return divis_verdict(profile.r, profile.s)


def divis_verdict(r: int, s: int) -> ObstructionVerdict:
    """The divisibility rule on the profile d^2 = r d + s of a ring whose
    dimension d is irrational: eliminates iff s does not divide r."""
    cert = {"r": r, "s": s}
    if r % s != 0:
        return ObstructionVerdict("divisibility", ELIMINATES, cert, CITE_DIVIS)
    cert["k"] = r // s
    return ObstructionVerdict("divisibility", PASSES, cert, CITE_DIVIS)


def budget_bound(n: int, k: int) -> Fraction:
    """Exact bound (1/2)k^2(n+1)(n-1) + 2n on the leftover multiplicity sum."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return Fraction(k * k * (n + 1) * (n - 1), 2) + 2 * n


def quartic_coeffs(n: int) -> tuple[int, int, int, int, int]:
    """(k^4, k^3, k^2, k^1, k^0) coefficients of the coarse-test quartic."""
    return (
        -(n**4) - 6 * n**2 + 3,
        16 * n**3,
        8 * n**3 - 16 * n**2 - 24 * n,
        64 * n**2,
        48 * n**2 - 64 * n,
    )


def quartic_f(n: int, k: int) -> int:
    """The quartic whose sign decides the coarse test at nu2 = +1; equals
    12*(lhs^2 - rhs^2) of the budget inequality by construction."""
    c4, c3, c2, c1, c0 = quartic_coeffs(n)
    return ((((c4 * k + c3) * k + c2) * k + c1) * k) + c0


def _require_elementary2(n: int, k: int) -> None:
    if n < 4 or n & (n - 1):
        raise ValueError("n must be a power of two, at least 4")
    if k < 1:
        raise ValueError("k must be >= 1")


def elementary2_coarse(n: int, k: int, nu2: int = 1) -> ObstructionVerdict:
    """Coarse budget test at a fixed sign nu2: eliminates iff
    (1/2)k^2(n^2-1)+2n < (2/sqrt 3)(kn/2 - nu2) sqrt(k^2 n^2 + 4n)."""
    _require_elementary2(n, k)
    if nu2 not in (1, -1):
        raise ValueError("nu2 must be +-1")
    lhs = budget_bound(n, k)
    u = k * k * n * n + 4 * n
    t = Fraction(k * n, 2) - nu2
    dec = squarefree_part(3 * u)
    rhs_b = Fraction(2, 3) * t * dec.y  # rhs = rhs_b * sqrt(dec.x)
    sign = quad_sign(lhs, -rhs_b, dec.x)
    eliminated = sign < 0
    if nu2 == 1 and (quartic_f(n, k) < 0) != eliminated:
        raise InternalInvariantError("quartic sign disagrees with the exact inequality")
    cert = {
        "n": n,
        "k": k,
        "nu2": nu2,
        "c": squarefree_part(u).x,
        "lhs": str(lhs),
        "rhs": _surd(0, rhs_b, dec.x),
        "quartic": quartic_f(n, k) if nu2 == 1 else None,
        "budget": str(lhs),
    }
    return ObstructionVerdict("coarse-budget", ELIMINATES if eliminated else PASSES, cert, CITE_COARSE)


def endgame_check(n: int, k: int, nu2: int = 1) -> ObstructionVerdict:
    """Refined test using c = square-free part of k^2 n^2 + 4n: eliminates iff
    (1/2)k^2(n^2-1)+2n < phi(2c)(kn/2 - nu2) y, where k^2n^2+4n = c y^2.

    The surd cancels exactly, so the comparison is plain rational arithmetic.
    """
    _require_elementary2(n, k)
    u = k * k * n * n + 4 * n
    dec = squarefree_part(u)
    lhs = budget_bound(n, k)
    phi_2c = totient(2 * dec.x)
    rhs = phi_2c * (Fraction(k * n, 2) - nu2) * dec.y
    cert = {
        "n": n,
        "k": k,
        "nu2": nu2,
        "c": dec.x,
        "y": dec.y,
        "phi_2c": phi_2c,
        "lhs": str(lhs),
        "rhs": str(rhs),
    }
    outcome = ELIMINATES if lhs < rhs else PASSES
    return ObstructionVerdict("endgame", outcome, cert, CITE_ENDGAME)


def _both_signs(per_sign, name: str, n: int, k: int, citation: str) -> ObstructionVerdict:
    """Combine the two nu2 cases: eliminate only when both do, and assert the
    -1 case is at least as strong as the +1 case."""
    plus = per_sign(n, k, 1)
    minus = per_sign(n, k, -1)
    if plus.eliminates and not minus.eliminates:
        raise InternalInvariantError("nu2=-1 must be stronger than nu2=+1")
    outcome = ELIMINATES if (plus.eliminates and minus.eliminates) else PASSES
    cert = {"nu2_plus": plus.certificate, "nu2_minus": minus.certificate}
    return ObstructionVerdict(name, outcome, cert, citation)


def elementary2_coarse_both(n: int, k: int) -> ObstructionVerdict:
    return _both_signs(elementary2_coarse, "coarse-budget", n, k, CITE_COARSE)


def endgame_both(n: int, k: int) -> ObstructionVerdict:
    return _both_signs(endgame_check, "endgame", n, k, CITE_ENDGAME)


def prime_parity(p: int, k: int) -> ObstructionVerdict:
    """For near-group levels k*p over a prime p = 3 (mod 4): eliminates odd
    k other than 1."""
    _require_prime(p)
    return _parity_verdict(p, k)


def _parity_verdict(p: int, k: int) -> ObstructionVerdict:
    """prime_parity for a caller that has already checked p."""
    outcome = ELIMINATES if k % 2 == 1 and k != 1 else PASSES
    return ObstructionVerdict("prime-parity", outcome, {"p": p, "k": k}, CITE_PARITY)


def prime_xbound(p: int, m: int) -> ObstructionVerdict:
    """Square-free-part test at even level divisor k = 2m: with x the
    square-free part of m^2 p + 1, eliminates iff
    phi(x)^2 (p-1)^2 m^2 > x (p+1)^2 (m^2 p + 1)."""
    _require_prime(p)
    if m < 1:
        raise ValueError("m must be >= 1")
    v = m * m * p + 1
    dec = squarefree_part(v)
    if (dec.x == 1) != is_square(v):
        raise InternalInvariantError("square-free part inconsistent with squareness")
    return _xbound_verdict(p, m, dec.x, dec.y, totient(dec.x))


def _xbound_verdict(p: int, m: int, x: int, y: int, phi_x: int) -> ObstructionVerdict:
    """prime_xbound for a caller that already knows m^2 p + 1 = x y^2 with x
    square-free and phi_x = phi(x), so nothing is factored."""
    lhs = phi_x**2 * (p - 1) ** 2 * m * m
    rhs = x * (p + 1) ** 2 * (m * m * p + 1)
    cert = {
        "p": p,
        "m": m,
        "k": 2 * m,
        "x": x,
        "y": y,
        "phi_x": phi_x,
        "lhs_sq": lhs,
        "rhs_sq": rhs,
    }
    outcome = ELIMINATES if lhs > rhs else PASSES
    return ObstructionVerdict("prime-xbound", outcome, cert, CITE_XBOUND)


def _require_prime(p: int) -> None:
    if not is_prime(p) or p % 4 != 3:
        raise ValueError("p must be a prime congruent to 3 mod 4")


def near_group_shape(ring: FusionRing) -> tuple[int, int] | None:
    """(|G|, level) when the ring has exactly one noninvertible element."""
    from .ring import noninvertible_indices

    ring.require_verified()
    noninv = noninvertible_indices(ring)
    if len(noninv) != 1:
        return None
    x = noninv[0]
    return ring.rank - 1, dict(ring.rows[x][x]).get(x, 0)


def run_all(ring: FusionRing) -> list[ObstructionVerdict]:
    """Every obstruction, in a fixed documented order:

    1. noncommutative, 2. divisibility, 3. coarse budget, 4. endgame
    (near-group rings over elementary abelian 2-groups of order >= 4 at
    level k*n), 5. parity, 6. square-free-part bound (near-group rings over
    C_p, p = 3 mod 4, at level k*p).  Inapplicable tests are reported as
    not_applicable with the failed precondition.  The overall ring is
    eliminated iff any single verdict eliminates.
    """
    from .ring import invertibles

    ring.require_verified()
    verdicts = [obstruct_noncommutative(ring), obstruct_divisibility(ring)]

    shape = near_group_shape(ring)
    na = lambda name, reason, cite: ObstructionVerdict(name, NOT_APPLICABLE, {"reason": reason}, cite)

    if shape is None:
        reason = "not a near-group ring"
        verdicts += [
            na("coarse-budget", reason, CITE_COARSE),
            na("endgame", reason, CITE_ENDGAME),
            na("prime-parity", reason, CITE_PARITY),
            na("prime-xbound", reason, CITE_XBOUND),
        ]
        return verdicts

    n, level = shape
    group = invertibles(ring).group
    elem2 = n >= 4 and n & (n - 1) == 0 and group.is_abelian and group.exponent <= 2
    if not elem2:
        reason = "invertibles are not an elementary abelian 2-group of order >= 4"
        verdicts += [na("coarse-budget", reason, CITE_COARSE), na("endgame", reason, CITE_ENDGAME)]
    elif level == 0 or level % n != 0:
        reason = f"level {level} is not a positive multiple of {n}"
        verdicts += [na("coarse-budget", reason, CITE_COARSE), na("endgame", reason, CITE_ENDGAME)]
    else:
        k = level // n
        coarse = elementary2_coarse_both(n, k)
        verdicts.append(coarse)
        if coarse.eliminates:
            verdicts.append(na("endgame", "coarse test already eliminates", CITE_ENDGAME))
        else:
            verdicts.append(endgame_both(n, k))

    prime_shape = is_prime(n) and n % 4 == 3
    if not prime_shape:
        reason = "invertibles are not cyclic of prime order p = 3 (mod 4)"
        verdicts += [na("prime-parity", reason, CITE_PARITY), na("prime-xbound", reason, CITE_XBOUND)]
    elif level == 0 or level % n != 0:
        reason = f"level {level} is not a positive multiple of {n}"
        verdicts += [na("prime-parity", reason, CITE_PARITY), na("prime-xbound", reason, CITE_XBOUND)]
    else:
        k = level // n
        verdicts.append(prime_parity(n, k))
        if k >= 2 and k % 2 == 0:
            verdicts.append(prime_xbound(n, k // 2))
        elif k == 1:
            verdicts.append(na("prime-xbound", "k = 1 carries no square-free-part constraint", CITE_XBOUND))
        else:
            verdicts.append(na("prime-xbound", "parity already decides odd k", CITE_XBOUND))
    return verdicts


def eliminated(verdicts: list[ObstructionVerdict]) -> bool:
    return any(v.eliminates for v in verdicts)
