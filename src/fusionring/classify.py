"""Level-enumeration engines assembling obstruction verdicts and known
positive results into classification tables.

Two engines: one for near-group levels over elementary abelian 2-groups
(complete classification via the quartic cutoff plus the refined budget
test), and a scan for cyclic prime order p = 3 (mod 4) (candidate levels k*p
surviving the parity and square-free-part tests up to a configured bound).

Known-positive levels come from a hard-coded literature table and are never
recomputed; this artifact only eliminates.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import index
from typing import TYPE_CHECKING

from . import intpoly
from .errors import InternalInvariantError
from .numtheory import jacobi, squarefree_part
from .obstruct import (
    ObstructionVerdict,
    _parity_verdict,
    _require_prime,
    _xbound_verdict,
    divis_verdict,
    eliminated,
    elementary2_coarse_both,
    endgame_both,
    near_group_shape,
    noncom_verdict,
    quartic_coeffs,
    quartic_f,
    run_all,
)

if TYPE_CHECKING:
    from .ring import FusionRing

STATUS_KNOWN = "categorifiable_known"
STATUS_ELIMINATED = "eliminated"
STATUS_CANDIDATE = "candidate"

TAG_LEVEL_ZERO = "MR1659954"  # level 0 over any finite abelian group
TAG_IZUMI = "MR1832764"  # C2 level 2 and C2^2 level 4
TAG_REP_S3 = "Rep(S3)"  # C2 level 1
TAG_SIEHLER = "MR1997336"  # integral near-group classification (level n-1)
TAG_RANK3 = "Ostrik rank-3 classification"  # C2: levels beyond 2 impossible
TAG_GROUP_RING = "graded vector spaces"

# (order, exponent) of the invertible group -> {level: tag}, for the groups
# C2^m, m >= 2, that classify_elementary2 tabulates; it lists C2 itself
KNOWN_POSITIVE_LEVELS: dict[tuple[int, int], dict[int, str]] = {
    (4, 2): {4: TAG_IZUMI},
}


@dataclass(frozen=True)
class LevelEntry:
    level: int
    status: str
    k: int | None = None
    certificates: tuple[ObstructionVerdict, ...] = ()
    tag: str | None = None
    x: int | None = None
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out: dict = {"level": self.level, "status": self.status}
        if self.k is not None:
            out["k"] = self.k
        if self.x is not None:
            out["x"] = self.x
        if self.tag is not None:
            out["tag"] = self.tag
        if self.flags:
            out["flags"] = list(self.flags)
        if self.certificates:
            out["certificates"] = [v.to_dict() for v in self.certificates]
        return out


@dataclass(frozen=True)
class LevelRun:
    """The levels first..last, which one rule decides alike: the entry at
    each level is `template`, the rule's entry at `first`, with the level and
    the r of each certificate set to that level.  The writers check the run
    against `rule` at both ends (see report_lines)."""

    first: int
    last: int
    template: LevelEntry
    rule: Callable[[int], LevelEntry] = field(compare=False, repr=False)

    def __len__(self) -> int:
        return self.last - self.first + 1

    def at(self, level: int) -> LevelEntry:
        certs = tuple(replace(v, certificate={**v.certificate, "r": level}) for v in self.template.certificates)
        return replace(self.template, level=level, certificates=certs)


class LevelRuns(Sequence):
    """The entries of a report, in level order, held as single entries and
    runs; a run's entries are built only as they are read."""

    def __init__(self, items):
        self.items = tuple(items)
        self._len = sum(len(i) if isinstance(i, LevelRun) else 1 for i in self.items)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[LevelEntry]:
        for item in self.items:
            if isinstance(item, LevelRun):
                yield from map(item.at, range(item.first, item.last + 1))
            else:
                yield item

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        i = range(self._len)[index]  # a position, negatives resolved
        for item in self.items:
            size = len(item) if isinstance(item, LevelRun) else 1
            if i < size:
                return item.at(item.first + i) if isinstance(item, LevelRun) else item
            i -= size

    def __eq__(self, other) -> bool:
        return isinstance(other, (tuple, LevelRuns)) and tuple(self) == tuple(other)


@dataclass(frozen=True)
class LevelReport:
    group: str
    levels: Sequence[LevelEntry]  # a tuple, or LevelRuns
    scan_bound: dict | None
    filters_applied: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def categorifiable_levels(self) -> list[int]:
        return [e.level for e in self.levels if e.status == STATUS_KNOWN]

    def candidate_levels(self) -> list[int]:
        return [e.level for e in self.levels if e.status == STATUS_CANDIDATE]

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "levels": [e.to_dict() for e in self.levels],
            "scan_bound": self.scan_bound,
            "filters_applied": list(self.filters_applied),
            "notes": list(self.notes),
        }


# a level no report lists, whose digits no formatted line holds otherwise
SENTINEL = -1_000_000_000_000_000_007


def report_lines(report: LevelReport, line: Callable[[LevelEntry], str], level_str: Callable[[int], str] = str) -> Iterator[str]:
    """line(entry) for every entry of report, in level order, produced lazily.

    A run is formatted once: line of its template at SENTINEL, split where
    level_str(SENTINEL) stands and joined around level_str(level) at each
    level.  Every single entry is formatted, and every run is checked
    against line(rule(level)) at its first and last level, before this
    returns.
    """
    items = report.levels.items if isinstance(report.levels, LevelRuns) else report.levels
    plan = []  # (levels, pieces); a single entry is one piece, which join leaves as it is
    for item in items:
        if not isinstance(item, LevelRun):
            plan.append(((item.level,), [line(item)]))
            continue
        pieces = line(item.at(SENTINEL)).split(level_str(SENTINEL))
        for level in (item.first, item.last):
            if level_str(level).join(pieces) != line(item.rule(level)):
                raise InternalInvariantError(f"run of levels {item.first}..{item.last} differs from its rule at {level}")
        plan.append((range(item.first, item.last + 1), pieces))
    return (lv.join(pieces) for levels, pieces in plan for lv in map(level_str, levels))


def coarse_cutoff(n: int) -> tuple[int, dict]:
    """Largest integer k with quartic_f(n, k) >= 0, via Sturm isolation of the
    quartic's largest real root.  The quartic has a negative leading
    coefficient, so every integer beyond the cutoff fails the coarse test.
    """
    coeffs = tuple(reversed(quartic_coeffs(n)))  # ascending for the poly layer
    if coeffs[-1] >= 0:
        raise InternalInvariantError("coarse quartic must have a negative leading coefficient")
    sf, rational, intervals = intpoly.isolate_real_roots(coeffs)
    candidates: list[Fraction] = list(rational)
    root_repr: dict = {}
    if intervals:
        lo, hi = intpoly.refine_interval(sf, *intervals[-1], Fraction(1, 64))
        candidates.append(hi)
        root_repr = {"lo": str(lo), "hi": str(hi)}
    if rational and (not root_repr or rational[-1] > candidates[-1]):
        root_repr = {"root": str(rational[-1])}
    if not candidates:
        raise InternalInvariantError("coarse quartic has no real roots")
    # start at/above every root, then walk down to the last nonnegative integer;
    # since the quartic is negative beyond its largest root, every k above the
    # returned cutoff fails the coarse test
    cutoff = math.floor(max(candidates))
    while quartic_f(n, cutoff + 1) >= 0:  # paranoia; cannot trigger
        cutoff += 1
    while cutoff >= 1 and quartic_f(n, cutoff) < 0:
        cutoff -= 1
    return max(cutoff, 0), {"n": n, "largest_root": root_repr, "k_cutoff": max(cutoff, 0)}


def classify_elementary2(m: int) -> LevelReport:
    """Complete level classification of near-group rings over C_2^m.

    m = 1 is literature (levels {0, 1, 2}).  For m >= 2: level 0 is known
    positive, levels 0 < l < n are eliminated by the noncommutativity test
    (with the integral case l = n-1 settled in the literature), non-multiples
    of n above n by divisibility, and multiples l = k*n by the coarse quartic
    up to its certified cutoff plus the refined endgame test; m = 2 marks
    level 4 as known positive.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    group_name = "C2" if m == 1 else f"C2^{m}"
    if m == 1:
        entries = [
            LevelEntry(0, STATUS_KNOWN, tag=TAG_LEVEL_ZERO),
            LevelEntry(1, STATUS_KNOWN, tag=TAG_REP_S3),
            LevelEntry(2, STATUS_KNOWN, tag=TAG_IZUMI),
        ]
        return LevelReport(
            group=group_name,
            levels=tuple(entries),
            scan_bound=None,
            notes=(
                f"levels >= 3 over C2 are eliminated in the literature [{TAG_RANK3}];"
                " the budget machinery here starts at group order 4",
            ),
        )

    # a near-group ring over C2^m at level l has profile r = l, s = |H| = n
    n = 2**m
    cutoff, cutoff_cert = coarse_cutoff(n)

    def noncom(level: int) -> LevelEntry:
        return LevelEntry(level, STATUS_ELIMINATED, certificates=(noncom_verdict(level, n, n),))

    def divis(level: int) -> LevelEntry:
        return LevelEntry(level, STATUS_ELIMINATED, certificates=(divis_verdict(level, n),))

    entries: list = [
        LevelEntry(0, STATUS_KNOWN, tag=TAG_LEVEL_ZERO),
        LevelRun(1, n - 2, noncom(1), noncom),
        LevelEntry(n - 1, STATUS_ELIMINATED, tag=TAG_SIEHLER),
    ]
    for k in range(1, max(cutoff, 1) + 1):
        if k > 1:
            entries.append(LevelRun(n * (k - 1) + 1, n * k - 1, divis(n * (k - 1) + 1), divis))
        level = n * k
        coarse = elementary2_coarse_both(n, k)
        certs = [coarse]
        if coarse.eliminates:
            status = STATUS_ELIMINATED
        else:
            endgame = endgame_both(n, k)
            certs.append(endgame)
            status = STATUS_ELIMINATED if endgame.eliminates else STATUS_CANDIDATE
        known_tag = KNOWN_POSITIVE_LEVELS.get((n, 2), {}).get(level)
        if known_tag is not None:
            if status == STATUS_ELIMINATED:
                raise InternalInvariantError(
                    f"known categorifiable level {level} was eliminated"
                )
            entries.append(LevelEntry(level, STATUS_KNOWN, k=k, tag=known_tag))
        else:
            entries.append(LevelEntry(level, status, k=k, certificates=tuple(certs)))

    notes = (
        f"multiples k*{n} with k > {cutoff} are eliminated by the coarse budget test"
        " (the quartic is negative beyond its certified largest root)",
        f"non-multiples of {n} above the listed range are eliminated by divisibility"
        " (the dimension is irrational there since r >= s)",
    )
    return LevelReport(
        group=group_name,
        levels=LevelRuns(entries),
        scan_bound=cutoff_cert,
        notes=notes,
    )


DEFAULT_RESIDUE_FILTERS: dict[int, tuple[int, ...]] = {7: (2, 3, 5, 13)}


def _admissible(p: int) -> list[tuple[int, int, bool]]:
    """(x, phi(x), local) for each admissible square-free part x, sorted by x:
    each square-free x with p not dividing x and
    phi(x)^2 (p-1)^2 <= x (p+1)^3 (the weakest, m = 1, form of the bound).
    local is False when x y^2 - p m^2 = 1 has no solution modulo p, 8 or an
    odd prime of x: for p = 3 (mod 4), when a prime q | x has (q/p) = -1, or
    q = 2 and p = 3 (mod 8) (docs/obstructions.md, "Level classification").

    The set is finite since phi(x)/sqrt(x) grows; candidates are products of
    primes q with (q-1)^2 (p-1)^2 <= 2 q (p+1)^3 (the factor 2 allows for a
    single factor of 2, the only prime that shrinks the ratio).
    """
    lhs, rhs = (p - 1) ** 2, (p + 1) ** 3  # x is admissible iff phi(x)^2 lhs <= x rhs
    n = 2 * rhs // lhs + 3  # q - 2 + 1/q <= 2 rhs / lhs puts every candidate below n
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n, i)))
    primes = []  # (q, whether a multiple of q can pass)
    for q in itertools.compress(range(n), sieve):
        if (q - 1) ** 2 * lhs > 2 * q * rhs:
            break
        if q != p:
            primes.append((q, p % 8 == 7 if q == 2 else jacobi(q, p) == 1))

    # Along a DFS path phi(x q) = phi(x) (q - 1), so the ratio phi(x)^2 / x
    # gets the factor (q-1)^2 / q: below 1 only for q = 2, which sits first,
    # so pruning children beyond the bound loses nothing.  The factor grows
    # with q, so once a child fails, every later sibling fails too.
    out: list[tuple[int, int, bool]] = []

    def dfs(i: int, x: int, phi: int, local: bool) -> None:
        out.append((x, phi, local))
        for j in range(i, len(primes)):
            q, q_local = primes[j]
            child, child_phi = x * q, phi * (q - 1)
            if child_phi * child_phi * lhs > child * rhs:
                break
            dfs(j + 1, child, child_phi, local and q_local)

    dfs(0, 1, 1, True)
    out.sort()
    return out


def _pell_unit(n: int, bound: int) -> tuple[int, int] | None:
    """Fundamental solution (u, v) of u^2 - n v^2 = 1 for a non-square n > 1,
    the first convergent of the continued fraction of sqrt(n) that solves it;
    None when u > bound, found as soon as an unsolved convergent passes it.
    The i-th convergent h/k has h^2 - n k^2 = (-1)^(i+1) d, d > 0 the next
    complete quotient's denominator (Niven-Zuckerman-Montgomery, ch. 7)."""
    a0 = math.isqrt(n)
    b, d, a = 0, 1, a0
    h0, h1, k0, k1 = 1, a0, 0, 1
    sign = -1
    while True:
        b = d * a - b
        d = (n - b * b) // d
        if d == 1 and sign == 1:
            return h1, k1
        if h1 > bound:
            return None
        a = (a0 + b) // d
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        sign = -sign


def _pell_hits(p: int, m_max: int, xs) -> list[tuple[int, int, int]]:
    """Every (m, x, y) with 1 <= m <= m_max, x in xs and x y^2 = m^2 p + 1,
    sorted by m; the x in xs are square-free and prime to p.

    Each hit solves x y^2 - p m^2 = 1.  With (u, v) the fundamental unit of
    u^2 - px v^2 = 1: for x = 1 the solutions are the powers of u + v sqrt(p);
    for x > 1 the equation has at most one class of solutions, and its least
    solution a = y sqrt(x) + m sqrt(p) satisfies a^2 = u + v sqrt(px)
    (D. T. Walker, Amer. Math. Monthly 74 (1967) 504-513), so
    y^2 = (u+1)/(2x), m^2 = (u-1)/(2p), and the other solutions are a times
    the powers of the unit.  So a hit with m <= m_max needs
    u <= 2 p m_max^2 + 1, and the expansion of each continued fraction stops
    there.  Only integers are used, and the cost grows with p and with the
    digits of m_max.
    """
    hits = []
    for x in xs:
        unit = _pell_unit(p * x, 2 * p * m_max * m_max + 1)
        if unit is None:
            continue  # every hit of this x has m > m_max
        u, v = unit
        if x == 1:
            y, m = u, v
        else:
            y, m = math.isqrt((u + 1) // (2 * x)), math.isqrt((u - 1) // (2 * p))
            if x * y * y - p * m * m != 1:
                continue  # not solvable
        while m <= m_max:
            hits.append((m, x, y))
            y, m = y * u + p * m * v, m * u + x * y * v
    return sorted(hits)


def scan_prime_levels(
    p: int,
    k_max: int,
    residue_filter: tuple[int, ...] | None = None,
    conjecture_cutoff: bool = False,
) -> LevelReport:
    """Candidate levels k*p (k <= k_max) for near-group rings over C_p,
    p = 3 (mod 4) prime, surviving the parity and square-free-part tests.

    k = 1 is always a candidate.  Even k = 2m survives iff the square-free
    part x of m^2 p + 1 lies in the finite admissible set and the exact
    per-m bound holds; the hits (m, x, y) with m^2 p + 1 = x y^2 come from
    the Pell equation x y^2 - p m^2 = 1 (see _pell_hits), so m^2 p + 1 is
    never factored.  A residue filter (the literature's exclusion set;
    default available for p = 7) removes x values divisible by one of its
    entries, each at least 2; without it, survivors carried only by that
    claim are flagged rather than suppressed.  The admissible set has about
    1.94 p elements; only those with a local solution get a Pell expansion.
    p is not bounded here (the CLI bounds it by PRIME_MAX_P); p, k_max and
    the filter entries are integers (`operator.index`).
    """
    p, k_max = index(p), index(k_max)
    _require_prime(p)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    filters: list[str] = []
    if conjecture_cutoff:
        k_max = min(k_max, p - 1)
        filters.append(f"conjectural cutoff level < p^2 (k <= {p - 1}) -- NOT rigorous")

    table = _admissible(p)
    if residue_filter:
        rf = tuple(sorted(set(map(index, residue_filter))))
        if rf[0] < 2:
            raise ValueError(f"residue filter entry {rf[0]} is below 2")
        table = [t for t in table if all(t[0] % q for q in rf)]
        filters.append("residue filter {" + ",".join(map(str, rf)) + "}")
    else:
        rf = ()
    phi = {x: phi_x for x, phi_x, local in table if local}  # the x that can have hits

    default_rf = DEFAULT_RESIDUE_FILTERS.get(p, ())

    # p is proven prime above, so the parity verdicts skip that check
    entries = [LevelEntry(p, STATUS_CANDIDATE, k=1, x=squarefree_part(p + 4).x, certificates=(_parity_verdict(p, 1),))]
    for m, x, y in _pell_hits(p, k_max // 2, phi):
        if x * y * y != m * m * p + 1:
            raise InternalInvariantError(f"Pell hit m = {m} has x y^2 != m^2 p + 1")
        k = 2 * m
        xb = _xbound_verdict(p, m, x, y, phi[x])
        if xb.eliminates:
            continue
        flags = ()
        if not rf and default_rf and any(x % q == 0 for q in default_rf):
            flags = (
                "survives the implemented tests; excluded only by the"
                f" literature residue claim {{{','.join(map(str, default_rf))}}}",
            )
        entries.append(
            LevelEntry(k * p, STATUS_CANDIDATE, k=k, x=x, certificates=(_parity_verdict(p, k), xb), flags=flags)
        )

    return LevelReport(
        group=f"C{p}",
        levels=tuple(entries),
        scan_bound={"k_max": k_max, "admissible_x": [x for x, _, _ in table]},
        filters_applied=tuple(filters),
        notes=("odd k > 1 eliminated by parity; even k eliminated unless the square-free part test passes",),
    )


def classify_generic(ring: FusionRing) -> LevelReport:
    """Single-ring verdict from the full obstruction battery.

    Pointed rings are categorifiable_known (graded vector spaces); everything
    else is eliminated or candidate.  Near-group literature positives are the
    business of classify_elementary2, not of this wrapper: a known-positive
    ring here simply shows up as a candidate whose tests all pass.
    """
    from .ring import invertibles, noninvertible_indices

    ring.require_verified()
    verdicts = tuple(run_all(ring))
    shape = near_group_shape(ring)
    noninv = noninvertible_indices(ring)
    group_desc = f"rank-{ring.rank} ring"
    level = -1
    k = None
    if not noninv:
        if eliminated(verdicts):
            raise InternalInvariantError("pointed ring was eliminated")
        return LevelReport(
            group="pointed",
            levels=(LevelEntry(0, STATUS_KNOWN, tag=TAG_GROUP_RING),),
            scan_bound=None,
        )
    if shape is not None:
        n, level = shape
        g = invertibles(ring).group
        group_desc = _abelian_name(g) if g.is_abelian else f"nonabelian order {n}"
        if level and level % n == 0:
            k = level // n
    status = STATUS_ELIMINATED if eliminated(verdicts) else STATUS_CANDIDATE
    entry = LevelEntry(level, status, k=k, certificates=verdicts)
    return LevelReport(group=group_desc, levels=(entry,), scan_bound=None)


def _abelian_name(g) -> str:
    if g.order == 1:
        return "C1"
    if g.exponent == g.order:
        return f"C{g.order}"
    if g.exponent == 2:
        return f"C2^{g.order.bit_length() - 1}"
    return f"abelian(order={g.order},exponent={g.exponent})"
