"""Shared corpus fixtures and independent oracles.

The oracles here are deliberately implemented by different algorithms than
the library paths they check: characteristic polynomials via the
Faddeev-LeVerrier trace recursion (the library computes Krylov minimal
polynomials), square-free decompositions by Yun's algorithm (the library
reads codegree multiplicities from traces), polynomial long division,
gcds, Sturm chains and interval bisection over Fraction (the library stays
in integers, with exact division over Z, pseudo-remainders and common
denominators), numeric eigenvalues via numpy, prime-scan hits by testing
every m (the library solves Pell equations), Pell units by the full norm of
each convergent and solvability by Walker's theorem over the whole period
(the library tests a small denominator and skips the x that fail a local
test), characters of commutative
rings as certified numeric joint eigenvectors (the library builds exact
matrix models), totients and square-free flags by sieving (the library
factors), admissible square-free parts by a totient per candidate (the
library carries phi along its search), the fusion-ring axioms on a
numpy tensor with einsum associativity (the library compares packed integer
rows), dimension profiles from every Perron root compared exactly (the
library checks one integer identity and computes no root), FP dimensions
and their squared sum as largest Krylov roots (the library reads them off a
dimension profile when there is one), M = sum_x N_x N_x^T by a numpy
contraction and by the path sum over products (the library reads M off the
coefficients of R = sum_x x x*), and cyclotomic
products, conjugates and lifts as Fraction polynomials reduced one at a time
by long division modulo a cyclotomic polynomial built here (the library sums
unreduced convolutions, reduces once per sum and applies cached images of
the power basis), and the classify CSV and text reports as one formatted
line per expanded level entry (the CLI formats each run of levels once).
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import fusionring as fr
from fusionring import intpoly
from fusionring.algebraic import largest_real_root
from fusionring.cyclotomic import Cyc, CycSqrt, _reduce, cyclotomic_poly
from fusionring.errors import FusionRingError, HypothesisError
from fusionring.groups import FiniteGroup, abelian_group
from fusionring.numtheory import factorize, is_prime, totient
from fusionring.ring import Violation, noninvertible_indices

REPO_ROOT = Path(__file__).resolve().parents[1]


class CertificationError(FusionRingError):
    """Numeric certification could not reach the requested width."""


def same_fusion_rules(a: fr.FusionRing, b: fr.FusionRing) -> bool:
    return a.rank == b.rank and a.dual == b.dual and a.rows == b.rows


def dense_rows(ring: fr.FusionRing) -> tuple:
    """The structure constants as a dense rank x rank x rank tuple, one
    fusion matrix per basis element."""
    return tuple(map(ring.fusion_matrix, range(ring.rank)))


def ring_to_dict(ring: fr.FusionRing) -> dict:
    """The ring document as one dict with the whole dense tensor: its
    json.dumps with sorted keys is the oracle for `ringfile.dumps_ring`,
    which writes the tensor one fusion matrix at a time."""
    return {"rank": ring.rank, "labels": list(ring.labels), "dual": list(ring.dual), "tensor": dense_rows(ring)}


def nonzero_rows(matrix) -> list:
    """A dense integer matrix as the rows of nonzero (t, x) pairs that
    `intpoly.krylov` reads."""
    return [tuple((t, x) for t, x in enumerate(row) if x) for row in matrix]


def cli_env() -> dict[str, str]:
    """Environment for a `python -m fusionring.cli` child process: the
    inherited one, with the absolute `<repo>/src` put first on PYTHONPATH so
    the child imports this checkout's package from any working directory."""
    env = dict(os.environ)
    paths = [str(REPO_ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def report_csv_reference(report) -> str:
    """The `classify --csv` output of report, one entry at a time."""
    lines = ["level,k,status,x,tag,tests,flags"]
    for e in report.levels:
        tests = ";".join(v.test_name for v in e.certificates)
        flags = ";".join(e.flags)
        lines.append(
            f"{e.level},{e.k if e.k is not None else ''},{e.status},"
            f"{e.x if e.x is not None else ''},{e.tag or ''},{tests},{flags}"
        )
    return "\n".join(lines) + "\n"


def report_text_reference(report) -> str:
    """The `classify` text output of report, one entry at a time."""
    lines = [f"group {report.group}"]
    for e in report.levels:
        extra = ""
        if e.x is not None:
            extra += f"  x={e.x}"
        if e.tag:
            extra += f"  [{e.tag}]"
        if e.certificates:
            extra += "  via " + ",".join(v.test_name for v in e.certificates)
        if e.flags:
            extra += "  !! " + "; ".join(e.flags)
        lines.append(f"  level {e.level:>8}  {e.status}{extra}")
    lines += [f"note: {n}" for n in report.notes]
    return "\n".join(lines) + "\n"


# -- explicit nonabelian groups ------------------------------------------


def _mulclose_table(gens: list[tuple[int, ...]]) -> list[list[int]]:
    """Cayley table of the permutation group generated by gens."""

    def compose(p, q):  # p after q
        return tuple(p[i] for i in q)

    n = len(gens[0])
    ident = tuple(range(n))
    elems = [ident]
    frontier = [ident]
    while frontier:
        e = frontier.pop()
        for g in gens:
            h = compose(g, e)
            if h not in elems:
                elems.append(h)
                frontier.append(h)
    pos = {e: i for i, e in enumerate(elems)}
    return [[pos[compose(a, b)] for b in elems] for a in elems]


def s3_group() -> FiniteGroup:
    return FiniteGroup.from_table(_mulclose_table([(1, 0, 2), (1, 2, 0)]))


def d4_group() -> FiniteGroup:
    return FiniteGroup.from_table(_mulclose_table([(1, 2, 3, 0), (0, 3, 2, 1)]))


def q8_group() -> FiniteGroup:
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {
        ("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
        ("i", "1"): "i", ("j", "1"): "j", ("k", "1"): "k",
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def mul(a: str, b: str) -> str:
        sign = 1
        if a.startswith("-"):
            sign, a = -sign, a[1:]
        if b.startswith("-"):
            sign, b = -sign, b[1:]
        c = base[(a, b)]
        if c.startswith("-"):
            sign, c = -sign, c[1:]
        return c if sign == 1 else "-" + c

    table = [[units.index(mul(a, b)) for b in units] for a in units]
    return FiniteGroup.from_table(table, names=units)


# -- independent oracles ---------------------------------------------------


def charpoly_oracle(matrix) -> tuple:
    """det(xI - A) by the Faddeev-LeVerrier recursion, ascending integer
    coefficients; independent of the library's Krylov elimination.  Each
    step forms A M_k over the nonzero entries of A, in integers: the
    division by k is exact for an integer matrix, and checked."""
    n = len(matrix)
    rows = [[(t, int(x)) for t, x in enumerate(row) if x] for row in matrix]
    coeffs_desc = [1]
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # M_k = A * (M_{k-1} + c_{k-1} I); here mk already includes the shift
        am = []
        for row in rows:
            acc = [0] * n
            for t, x in row:
                acc = [u + x * v for u, v in zip(acc, mk[t])]
            am.append(acc)
        ck, rem = divmod(-sum(am[i][i] for i in range(n)), k)
        assert rem == 0
        coeffs_desc.append(ck)
        mk = [[am[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
    return tuple(reversed(coeffs_desc))


def poly_mul(p, q) -> tuple:
    """Product of coefficient tuples, lowest degree first."""
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return intpoly.trim(out)


def poly_divmod_oracle(p, q) -> tuple:
    """Euclidean division over Q by long division in Fraction arithmetic:
    (quotient, remainder), both trimmed."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 1)
    dq = intpoly.degree(q)
    lead = Fraction(q[-1])
    while len(rem) - 1 >= dq and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        shift = len(rem) - 1 - dq
        factor = rem[-1] / lead
        quo[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * Fraction(c)
        rem.pop()
    return intpoly.trim(quo), intpoly.trim(rem)


def poly_divexact_oracle(p, q) -> tuple:
    """p / q over Q; the remainder must be zero."""
    quo, rem = poly_divmod_oracle(p, q)
    assert not rem, (p, q)
    return quo


def squarefree_decomposition_oracle(p) -> list:
    """Yun's algorithm: [(f_i, i)] with p ~ prod f_i^i, f_i square-free,
    pairwise coprime, primitive with positive leading coefficients."""

    def sub(a, b):
        n = max(len(a), len(b))
        return intpoly.trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])

    p = intpoly.primitive(p)
    if intpoly.degree(p) < 1:
        return []
    dp = intpoly.poly_derivative(p)
    a = intpoly.poly_gcd(p, dp)
    if intpoly.degree(a) == 0:
        return [(p, 1)]
    b = poly_divexact_oracle(p, a)
    c = poly_divexact_oracle(dp, a)
    d = sub(c, intpoly.poly_derivative(b))
    out = []
    i = 1
    while intpoly.degree(b) > 0:
        g = intpoly.poly_gcd(b, d)
        if intpoly.degree(g) > 0:
            out.append((intpoly.primitive(g), i))
        if intpoly.degree(g) == 0:
            g = (1,)
        b = poly_divexact_oracle(b, g)
        c = poly_divexact_oracle(d, g)
        d = sub(c, intpoly.poly_derivative(b))
        i += 1
    return out


def oracle_multiplicity(value, oracle_factors) -> int:
    """The multiplicity of the factor that has `value` as a root, among
    pairwise coprime factors [(f, m)] such as Yun's decomposition gives."""
    for factor, mult in oracle_factors:
        if isinstance(value, fr.Quadratic):
            acc = fr.Quadratic(0, 0, value.D)
            for coef in reversed(factor):
                acc = acc * value + fr.Quadratic(coef)
            if acc.sign() == 0:
                return mult
        else:
            assert isinstance(value, fr.IsolatedRoot)
            g = intpoly.poly_gcd(factor, value.poly)
            if intpoly.degree(g) >= 1:
                lo, hi = value.interval(Fraction(1, 2**20))
                if intpoly.poly_eval(g, lo) * intpoly.poly_eval(g, hi) < 0:
                    return mult
    raise AssertionError(f"{value!r} is not an oracle eigenvalue")


def assert_codegrees_match_yun_oracle(ring) -> None:
    """codegree_spectrum(ring) has, for each factor (f, m) of Yun's
    decomposition of the oracle charpoly of M (`global_multiplication_oracle`),
    exactly deg f eigenvalues of multiplicity m, each a root of f, and no
    other multiplicities."""
    factors = squarefree_decomposition_oracle(charpoly_oracle(global_multiplication_oracle(ring)))
    spectrum = fr.codegree_spectrum(ring)
    assert sorted(m for _, m in factors) == sorted({e.eigen_multiplicity for e in spectrum})
    for f, m in factors:
        values = [e.value for e in spectrum if e.eigen_multiplicity == m]
        assert len(values) == intpoly.degree(f), (f, m)
        assert all(oracle_multiplicity(v, factors) == m for v in values), (f, m)


def poly_gcd_oracle(p, q) -> tuple:
    """Primitive gcd by monic Euclid over Q (Fraction remainders)."""
    a, b = intpoly.trim(p), intpoly.trim(q)
    while b:
        _, r = poly_divmod_oracle(a, b)
        a, b = b, intpoly.trim(r)
    return intpoly.primitive(a)


def sturm_chain_oracle(p) -> list:
    """Sturm chain with Fraction remainders, each made primitive keeping the
    sign of its leading coefficient."""
    chain = [intpoly.primitive(p)]
    p1 = intpoly.primitive(intpoly.poly_derivative(chain[0]))
    if p1:
        chain.append(p1)
    while intpoly.degree(chain[-1]) > 0:
        _, r = poly_divmod_oracle(chain[-2], chain[-1])
        if not r:
            break
        chain.append(intpoly.primitive_signed(intpoly.poly_neg(r)))
    return chain


def isolated_roots_equal_oracle(x, y) -> bool:
    """Whether two IsolatedRoots are equal, by a Sturm count: the gcd of
    their polynomials has a root in the intersection of their intervals,
    whose ends are no roots of it."""
    lo, hi = max(x._lo, y._lo), min(x._hi, y._hi)
    if lo >= hi:
        return False
    g = poly_gcd_oracle(x.poly, y.poly)
    return intpoly.degree(g) >= 1 and intpoly.count_real_roots(sturm_chain_oracle(g), lo, hi) >= 1


def refine_interval_oracle(p, lo: Fraction, hi: Fraction, width: Fraction) -> tuple:
    """Bisection of a sign-change interval below width, in Fraction: halve
    until the width is at most `width`, keeping the half whose ends differ
    in sign, and return (mid, mid) when a midpoint is a root.  The sign of
    p(n/d) is that of sum_i p_i n^i d^(deg p - i), by Horner in integers."""

    def positive(x: Fraction):
        acc, dpow = 0, 1
        for c in reversed(p):
            acc, dpow = acc * x.numerator + c * dpow, dpow * x.denominator
        return None if acc == 0 else acc > 0

    slo = positive(lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        smid = positive(mid)
        if smid is None:
            return mid, mid
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def rational_root_in_oracle(p, a: Fraction, b: Fraction) -> Fraction | None:
    """Rational root of primitive p in (a, b), if any; p has a single root
    there, and neither end is a root.

    Any rational root has denominator dividing the leading coefficient L, and
    two distinct rationals with denominators <= L differ by at least 1/L^2;
    after narrowing the interval below that, the root (if rational) is the
    unique smallest-denominator rational inside, found by a Stern-Brocot walk.
    """
    v = 0
    while p[v] == 0:
        v += 1
    if v:
        if a < 0 < b:
            return Fraction(0)
        p = p[v:]  # same roots except 0, which is outside (a, b)
    lead = abs(int(p[-1]))
    a, b = refine_interval_oracle(p, a, b, Fraction(1, 2 * lead * lead))
    if a == b:
        return a
    cand = _simplest_in(a, b)
    if cand.denominator <= lead and intpoly.sign_at(p, cand.numerator, cand.denominator) == 0:
        return cand
    return None


def _simplest_in(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with the smallest denominator in [lo, hi]."""
    fl = math.floor(lo)
    if lo == fl:
        return Fraction(fl)
    if fl + 1 <= hi:
        return Fraction(fl + 1)
    inner = _simplest_in(1 / (hi - fl), 1 / (lo - fl))
    return fl + 1 / inner


def on_isolation_grid(poly, lo: Fraction, hi: Fraction) -> bool:
    """Whether (lo, hi) is a cell of the dyadic grid of (-B, B) on which
    intpoly.isolate_real_roots bisects the square-free primitive poly,
    B = 2 + max|c_i|/|c_n|: 2B/(hi - lo) is a power of two and
    (lo + B)/(hi - lo) an integer."""
    d = abs(poly[-1])
    bound = Fraction(2 * d + max(abs(c) for c in poly[:-1]), d)
    cells, offset = 2 * bound / (hi - lo), (lo + bound) / (hi - lo)
    n = cells.numerator
    return cells.denominator == 1 and n & (n - 1) == 0 and offset.denominator == 1


def is_squarefree(n: int) -> bool:
    if n < 1:
        raise ValueError("is_squarefree expects n >= 1")
    return all(e == 1 for e in factorize(n).values())


def min_roots_of_unity(b: int, c: int) -> int:
    """Lower bound |b|*phi(2c) on the number of roots of unity needed to
    express a + b*sqrt(c), for square-free c >= 2."""
    if c < 2 or not is_squarefree(c):
        raise ValueError("c must be square-free and >= 2")
    return abs(b) * totient(2 * c)


def phi_ratio_cmp(c: int, coeff: Fraction | int, surd: int) -> int:
    """Compare phi(2c)/sqrt(c) against coeff*sqrt(surd), exactly.

    Returns -1, 0, or +1.  Both sides are positive, so the comparison is
    decided by squaring.  c must be square-free and >= 2.
    """
    if c < 2 or not is_squarefree(c):
        raise ValueError("c must be square-free and >= 2")
    if surd < 0:
        raise ValueError("surd must be nonnegative")
    coeff = Fraction(coeff)
    if coeff <= 0:
        return 1
    lhs = Fraction(totient(2 * c) ** 2, c)
    rhs = coeff * coeff * surd
    return (lhs > rhs) - (lhs < rhs)


def admissible_squarefree_parts_oracle(p: int) -> list[int]:
    """Every square-free x with p not dividing x and
    phi(x)^2 (p-1)^2 <= x (p+1)^3, by a depth-first search over products of
    primes that factors and takes the totient of every candidate."""
    bound_sq = Fraction((p + 1) ** 3, (p - 1) ** 2)
    primes = []
    q = 2
    while True:
        if is_prime(q):
            if Fraction((q - 1) ** 2, q) > 2 * bound_sq:
                break
            if q != p:
                primes.append(q)
        q += 1
    out: list[int] = []

    def dfs(i: int, x: int) -> None:
        out.append(x)
        for j in range(i, len(primes)):
            child = x * primes[j]
            if Fraction(totient(child) ** 2, child) <= bound_sq:
                dfs(j + 1, child)

    dfs(0, 1)
    return sorted(set(out))


def linear_scan_hits(p: int, m_max: int, xs) -> list[tuple[int, int]]:
    """Every (m, x) with 1 <= m <= m_max, x in xs and (m^2 p + 1)/x a
    perfect square, sorted; tests each m in the residue classes where x
    divides m^2 p + 1."""
    hits = []
    for x in xs:
        residues = [r for r in range(x) if (r * r * p + 1) % x == 0] if x > 1 else [0]
        for r in residues:
            for m in range(r or x, m_max + 1, x):
                q, rem = divmod(m * m * p + 1, x)
                if not rem and math.isqrt(q) ** 2 == q:
                    hits.append((m, x))
    return sorted(hits)


def pell_unit_oracle(n: int) -> tuple[int, int]:
    """Fundamental solution (u, v) of u^2 - n v^2 = 1 for a non-square n > 1:
    the continued fraction of sqrt(n) expanded, with no bound, until the norm
    of a convergent, computed in full, is 1."""
    a0 = math.isqrt(n)
    b, d, a = 0, 1, a0
    h0, h1, k0, k1 = 1, a0, 0, 1
    while h1 * h1 - n * k1 * k1 != 1:
        b = d * a - b
        d = (n - b * b) // d
        a = (a0 + b) // d
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
    return h1, k1


def pell_solvable_oracle(p: int, x: int) -> bool:
    """Whether x y^2 - p m^2 = 1 has a solution in positive integers, for
    square-free x prime to p.  For x = 1 the unit of u^2 - p v^2 = 1 is one.
    For x > 1, with (u, v) the fundamental unit of u^2 - px v^2 = 1, a least
    solution a = y sqrt(x) + m sqrt(p) has a^2 = u + v sqrt(px) (Walker,
    Amer. Math. Monthly 74 (1967)), so one exists iff (u+1)/(2x) and
    (u-1)/(2p) are squares."""
    if x == 1:
        return True
    u, _ = pell_unit_oracle(p * x)
    y2, ry = divmod(u + 1, 2 * x)
    m2, rm = divmod(u - 1, 2 * p)
    return ry == rm == 0 and math.isqrt(y2) ** 2 == y2 and math.isqrt(m2) ** 2 == m2


def totient_sieve(limit: int) -> np.ndarray:
    """phi(n) for all 0 <= n <= limit as an int64 array (phi(0) set to 0)."""
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime: untouched so far
            phi[p::p] -= phi[p::p] // p
    return phi


def squarefree_sieve(limit: int) -> np.ndarray:
    """Boolean mask over 0..limit marking square-free integers."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[0] = False
    d = 2
    while d * d <= limit:
        mask[d * d :: d * d] = False
        d += 1
    return mask


@dataclass(frozen=True)
class CertifiedCharacter:
    """Approximate character vector with an exact residual certificate:
    every ||N_i v - chi_i v||_inf is at most residual_bound, computed in
    exact rational arithmetic from the dyadic approximations."""

    values: tuple[tuple[Fraction, Fraction], ...]  # (re, im) per basis element
    vector: tuple[tuple[Fraction, Fraction], ...]
    residual_bound: Fraction


def characters_commutative(ring, width: Fraction = Fraction(1, 2**30)) -> list[CertifiedCharacter]:
    """Simultaneous-eigenvector characters of a commutative ring.

    Joint eigenvectors are extracted numerically from a deterministic random
    integer combination of the fusion matrices (float64 first, escalating to
    multiprecision when the requested width demands it), then certified by an
    exact rational residual bound below 'width' for every character.
    """
    ring.require_verified()
    if not fr.is_commutative(ring):
        raise HypothesisError("characters_commutative needs a commutative ring")
    n = ring.rank
    mats = [np.asarray(ring.fusion_matrix(i), dtype=np.int64) for i in range(n)]
    for attempt in range(10):
        rng = random.Random(1000 + attempt)
        weights = [rng.randrange(1, 997) for _ in range(n)]
        if attempt < 4:
            columns = _eig_columns_numpy(mats, weights)
        else:
            columns = _eig_columns_mpmath(mats, weights, dps=30 * (attempt - 3))
        if columns is None:
            continue
        chars = []
        ok = True
        for vec in columns:
            pivot = max(range(n), key=lambda r: vec[r][0] * vec[r][0] + vec[r][1] * vec[r][1])
            # normalize exactly so vec[pivot] == 1
            pr, pi = vec[pivot]
            norm = pr * pr + pi * pi
            vec = tuple(
                (
                    (re * pr + im * pi) / norm,
                    (im * pr - re * pi) / norm,
                )
                for re, im in vec
            )
            values = []
            worst = Fraction(0)
            for m in mats:
                prod = [_cx_dot(m[row], vec) for row in range(n)]
                chi = prod[pivot]  # vec[pivot] == 1 exactly
                for row in range(n):
                    dre = prod[row][0] - (chi[0] * vec[row][0] - chi[1] * vec[row][1])
                    dim = prod[row][1] - (chi[0] * vec[row][1] + chi[1] * vec[row][0])
                    worst = max(worst, abs(dre), abs(dim))
                values.append(chi)
            if worst >= width:
                ok = False
                break
            chars.append(CertifiedCharacter(tuple(values), vec, worst))
        if ok and len(chars) == n and _pairwise_distinct(chars):
            return chars
    raise CertificationError(f"could not certify {n} characters at width {width}")


def _eig_columns_numpy(mats, weights):
    a = sum(w * m for w, m in zip(weights, mats)).astype(float)
    try:
        _, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError:  # pragma: no cover
        return None
    n = len(mats)
    return [
        tuple((Fraction(float(np.real(z))), Fraction(float(np.imag(z)))) for z in vecs[:, col])
        for col in range(n)
    ]


def _eig_columns_mpmath(mats, weights, dps: int):
    import mpmath

    n = len(mats)
    with mpmath.workdps(dps):
        a = mpmath.matrix(n)
        for i in range(n):
            for j in range(n):
                a[i, j] = sum(int(w) * int(m[i, j]) for w, m in zip(weights, mats))
        try:
            _, vecs = mpmath.eig(a)
        except Exception:  # pragma: no cover
            return None
        scale = 1 << mpmath.mp.prec
        out = []
        for col in range(n):
            column = []
            for row in range(n):
                z = vecs[row, col]
                column.append(
                    (
                        Fraction(int(mpmath.floor(mpmath.re(z) * scale)), scale),
                        Fraction(int(mpmath.floor(mpmath.im(z) * scale)), scale),
                    )
                )
            out.append(tuple(column))
    return out


def _cx_dot(int_row, vec) -> tuple[Fraction, Fraction]:
    re = Fraction(0)
    im = Fraction(0)
    for c, (vr, vi) in zip(int_row, vec):
        if c:
            re += int(c) * vr
            im += int(c) * vi
    return re, im


def _pairwise_distinct(chars: list[CertifiedCharacter]) -> bool:
    seen = set()
    for ch in chars:
        key = tuple((round(float(re), 6), round(float(im), 6)) for re, im in ch.values)
        if key in seen:
            return False
        seen.add(key)
    return True


def numeric_eigs(matrix) -> list[float]:
    return sorted(float(x) for x in np.linalg.eigvalsh(np.asarray(matrix, dtype=float)))


def group_table_associativity_oracle(table) -> tuple | None:
    """The first (i, j, k) in index order with (i j) k != i (j k) in a
    multiplication table, by the full triple loop (the library tests right
    factors in a generating set first); None for an associative table."""
    n = len(table)
    for i, j, k in product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return (i, j, k)
    return None


def basis_images_oracle(N: int) -> tuple:
    """The conjugates of 1, zeta_N, ..., zeta_N^(deg Phi_N - 1) as nonzero
    (index, coefficient) pairs, each power zeta_N^-i reduced from scratch
    (the library steps from one image to the next)."""
    return tuple(
        tuple((r, c) for r, c in enumerate(_reduce([0] * (-i % N) + [1], N)) if c)
        for i in range(len(cyclotomic_poly(N)) - 1)
    )


def brute_force_associator_violations(ring) -> list[tuple]:
    """Direct triple-product enumeration: coefficients of (b_i b_j) b_k and
    b_i (b_j b_k) computed by plain loops, no einsum."""
    t = ring.tensor
    n = ring.rank
    bad = []
    for i, j, k in product(range(n), repeat=3):
        left = [0] * n
        right = [0] * n
        for m in range(n):
            cij = int(t[i, j, m])
            cjk = int(t[j, k, m])
            for l in range(n):
                left[l] += cij * int(t[m, k, l])
                right[l] += cjk * int(t[i, m, l])
        if left != right:
            bad.append((i, j, k))
    return bad


def verify_axioms_oracle(ring) -> list[Violation]:
    """The axiom check on a numpy int64 tensor, with argwhere witnesses and
    einsum associativity over two rank^4 arrays (the library packs rows into
    integers instead); same axioms, order, witnesses and details."""
    t = ring.tensor
    n = ring.rank
    out: list[Violation] = []

    neg = np.argwhere(t < 0)
    for i, j, k in neg[:20]:
        out.append(Violation("nonnegativity", (int(i), int(j), int(k)), f"c={int(t[i, j, k])}"))

    eye = np.eye(n, dtype=np.int64)
    bad = np.argwhere(t[0] != eye)
    for j, k in bad[:20]:
        out.append(Violation("unit-left", (0, int(j), int(k)), f"c={int(t[0, j, k])}"))
    bad = np.argwhere(t[:, 0, :] != eye)
    for i, k in bad[:20]:
        out.append(Violation("unit-right", (int(i), 0, int(k)), f"c={int(t[i, 0, k])}"))

    d = ring.dual
    if sorted(d) != list(range(n)):
        out.append(Violation("dual-permutation", tuple(d), "not a permutation"))
        return out  # the remaining checks need a valid involution
    for i in range(n):
        if d[d[i]] != i:
            out.append(Violation("dual-involution", (i,), f"dual(dual({i}))={d[d[i]]}"))
    if d[0] != 0:
        out.append(Violation("dual-fixes-unit", (0,), f"dual(0)={d[0]}"))

    # pairing c[i,j,0] = 1 iff j = dual(i)
    expected = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        expected[i, d[i]] = 1
    bad = np.argwhere(t[:, :, 0] != expected)
    for i, j in bad[:20]:
        out.append(
            Violation("duality-pairing", (int(i), int(j), 0), f"c={int(t[i, j, 0])}")
        )

    # anti-involution c[i,j,k] = c[dual(j),dual(i),dual(k)]
    dd = np.asarray(d)
    star = t[np.ix_(dd, dd, dd)].transpose(1, 0, 2)
    bad = np.argwhere(t != star)
    for i, j, k in bad[:20]:
        out.append(
            Violation(
                "anti-involution",
                (int(i), int(j), int(k)),
                f"c={int(t[i, j, k])} vs dual {int(star[i, j, k])}",
            )
        )

    # guard against int64 overflow on adversarial inputs: fall back to exact
    # Python integers when products could exceed the dtype
    if int(np.abs(t).max(initial=0)) ** 2 * n >= 2**62:
        t = t.astype(object)
    left = np.einsum("ijm,mkl->ijkl", t, t)
    right = np.einsum("jkm,iml->ijkl", t, t)
    bad = np.argwhere(left != right)
    for i, j, k, l in bad[:20]:
        out.append(
            Violation(
                "associativity",
                (int(i), int(j), int(k), int(l)),
                f"{int(left[i, j, k, l])} != {int(right[i, j, k, l])}",
            )
        )
    return out


def verify_irrep_oracle(ring, model, lefts=None) -> list[tuple[int, int]]:
    """All-pairs homomorphism check: every (i, j) with psi(i) psi(j) !=
    sum_k c[i,j,k] psi(k), in index order, by plain matrix loops (the
    library checks {0} + algebra_generators first).  `lefts` restricts i.
    Entries are single `cycsqrt_mul_oracle` products added one at a time,
    not the library's packed integers tested for divisibility by
    Phi_N(2^B)."""
    mats = model.matrices
    zero = CycSqrt.of(mats[0][0][0].u.N, mats[0][0][0].D)
    d = model.dim

    def mul(a, b):
        return tuple(tuple(cycsqrt_sum(zero, *(cycsqrt_mul_oracle(a[r][t], b[t][c]) for t in range(d))) for c in range(d)) for r in range(d))

    failures = []
    for i in range(ring.rank) if lefts is None else lefts:
        n_i = ring.fusion_matrix(i)
        for j in range(ring.rank):
            terms = [(k, ck) for k, ck in enumerate(n_i[j]) if ck]
            rhs = tuple(
                tuple(cycsqrt_sum(zero, *(CycSqrt(mats[k][r][c].u * ck, mats[k][r][c].v * ck, zero.D) for k, ck in terms)) for c in range(d))
                for r in range(d)
            )
            if mul(mats[i], mats[j]) != rhs:
                failures.append((i, j))
    return failures


def global_multiplication_oracle(ring) -> list[list[int]]:
    """M = sum_x N_x N_x^T, contracted over x and the column index of the
    dense tensor by numpy (exact Python integers when int64 could overflow);
    the library reads M off the coefficients of R = sum_x x x*."""
    t = ring.tensor
    if int(np.abs(t).max(initial=0)) ** 2 * ring.rank**2 >= 2**62:
        t = t.astype(object)
    return [[int(c) for c in row] for row in np.tensordot(t, t, axes=([0, 2], [0, 2]))]


def global_multiplication_path_sum(ring) -> list[list[int]]:
    """M by the path sum R b_j = sum_x x (x* b_j): its b_k coefficient is
    sum_{x,m} c[x*,j,m] c[x,m,k], summed over the nonzeros of every product
    x* b_j and x b_m (what the library computed before it read M off the
    coefficients of R)."""
    t, d, n = ring.rows, ring.dual, ring.rank
    out = [[0] * n for _ in range(n)]
    for j, row in enumerate(out):
        for x in range(n):
            for m, c in t[d[x]][j]:
                for k, e in t[x][m]:
                    row[k] += c * e
    return out


def fpdim_krylov_oracle(ring, i: int):
    """The FP dimension of b_i as the largest real root of the Krylov
    polynomial of e_0 under N_i, for every element (the library reads 1 for
    invertibles and d off a dimension profile, and computes no polynomial
    for either)."""
    return largest_real_root(intpoly.krylov(ring.rows[i])[0])


def fpdim_total_krylov_oracle(ring):
    """The sum of squared FP dimensions as the largest real root of the
    Krylov polynomial of e_0 under `global_multiplication_oracle` (the
    library reads n_inv + n_non d^2 off a dimension profile)."""
    return largest_real_root(intpoly.krylov(nonzero_rows(global_multiplication_oracle(ring)))[0])


def dimension_profile_oracle(ring) -> tuple | None:
    """The dimension profile read off the FP dimensions themselves, as
    (is_two_dimension, r, s, d, d_is_rational): every noninvertible's Perron
    root is computed (`fpdim_krylov_oracle`) and compared exactly (the
    library decides from integers alone, without a root).  None when the
    noninvertibles have more than one dimension; all None after False for a
    pointed ring."""
    noninv = noninvertible_indices(ring)
    if not noninv:
        return (False, None, None, None, None)
    dims = [fpdim_krylov_oracle(ring, i) for i in noninv]
    if any(fr.alg_cmp(dim, dims[0]) != 0 for dim in dims[1:]):
        return None
    x = noninv[0]
    row = ring.fusion_matrix(x)[ring.dual[x]]
    r = sum(row[y] for y in noninv)
    s = sum(row) - r
    d = dims[0]
    # d^2 = r d + s, so d is quadratic and its root was promoted
    assert isinstance(d, fr.Quadratic) and (d * d - r * d - s).sign() == 0
    return (True, r, s, d, d.is_rational)


@lru_cache(maxsize=None)
def cyclotomic_poly_oracle(N: int) -> tuple:
    """Phi_N as (x^N - 1) / prod_{d | N, d < N} Phi_d by Fraction division."""
    p = (-1,) + (0,) * (N - 1) + (1,)
    for d in range(1, N):
        if N % d == 0:
            p = poly_divexact_oracle(p, cyclotomic_poly_oracle(d))
    return tuple(int(c) for c in p)


def cyc_reduce_oracle(poly, N: int) -> tuple:
    """poly mod Phi_N, padded to deg Phi_N: exponents of N and above folded
    mod N (Phi_N divides x^N - 1), then `poly_divmod_oracle`; integral
    coefficients come back as ints, only to keep later products fast."""
    phi = cyclotomic_poly_oracle(N)
    folded = list(poly[:N])
    for e in range(N, len(poly)):
        folded[e % N] += poly[e]
    _, rem = poly_divmod_oracle(folded, phi)
    rem = tuple(c.numerator if c.denominator == 1 else c for c in rem)
    return rem + (0,) * (len(phi) - 1 - len(rem))


def cyc_mul_oracle(a: Cyc, b: Cyc) -> tuple:
    """Coefficients of a * b: the product of the coefficient polynomials,
    reduced on its own."""
    assert a.N == b.N
    return cyc_reduce_oracle(poly_mul(a.coeffs, b.coeffs), a.N)


def cyc_substitute_oracle(a: Cyc, M: int, power: int) -> tuple:
    """Coefficients in Q(zeta_M) of sum_i a_i x^(i power) mod Phi_M."""
    poly = [0] * ((len(a.coeffs) - 1) * power + 1)
    for i, c in enumerate(a.coeffs):
        poly[i * power] += c
    return cyc_reduce_oracle(poly, M)


def cyc_conjugate_oracle(a: Cyc) -> tuple:
    """Coefficients of the complex conjugate: x -> x^(N-1)."""
    return cyc_substitute_oracle(a, a.N, a.N - 1)


def cyc_lift_oracle(a: Cyc, M: int) -> tuple:
    """Coefficients of a in Q(zeta_M), N | M: x -> x^(M/N)."""
    return cyc_substitute_oracle(a, M, M // a.N)


def cycsqrt_mul_oracle(a: CycSqrt, b) -> CycSqrt:
    """(u + v sqrt(D)) (u' + v' sqrt(D)) by the four-product formula, each
    product the product of the coefficient polynomials, whether or not a
    part is zero; an int, Fraction or Cyc b is taken as u' with v' = 0.
    Each product is reduced by `Cyc` (the library's `_reduce`), which the
    packed checks that this oracle is compared with never call."""
    N = a.u.N
    if not isinstance(b, CycSqrt):
        b = CycSqrt(b if isinstance(b, Cyc) else Cyc.rational(N, b), Cyc.zero(N), a.D)
    assert (b.u.N, b.D) == (N, a.D)

    def mul(x: Cyc, y: Cyc) -> Cyc:
        return Cyc(N, poly_mul(x.coeffs, y.coeffs))

    return CycSqrt(mul(a.u, b.u) + mul(a.v, b.v) * a.D, mul(a.u, b.v) + mul(a.v, b.u), a.D)


def cycsqrt_sum(x: CycSqrt, *ys: CycSqrt) -> CycSqrt:
    """x + y_1 + y_2 + ..., part by part."""
    assert all(y.D == x.D for y in ys)
    return CycSqrt(sum((y.u for y in ys), start=x.u), sum((y.v for y in ys), start=x.v), x.D)


def generated_span_rank(ring, gens) -> int:
    """Dimension of the Q-span of {b_0} + {b_s : s in gens} closed under left
    multiplication by every b_s, by exact Fraction row reduction: the
    dimension of the algebra that b_0 and gens generate."""
    n = ring.rank
    basis: dict[int, list] = {}  # pivot -> row with a 1 at the pivot

    def insert(vec) -> list | None:
        vec = [Fraction(x) for x in vec]
        for pivot, row in basis.items():
            if vec[pivot]:
                f = vec[pivot]
                vec = [a - f * b for a, b in zip(vec, row)]
        pivot = next((k for k, x in enumerate(vec) if x), None)
        if pivot is None:
            return None
        vec = [x / vec[pivot] for x in vec]
        for p, row in basis.items():
            if row[pivot]:
                f = row[pivot]
                basis[p] = [a - f * b for a, b in zip(row, vec)]
        basis[pivot] = vec
        return vec

    queue = [v for v in ([int(k == s) for k in range(n)] for s in (0, *gens)) if insert(v)]
    mats = {s: ring.fusion_matrix(s) for s in gens}
    while queue:
        vec = queue.pop()
        for s in gens:
            prod = [sum(vec[a] * mats[s][a][k] for a in range(n) if vec[a]) for k in range(n)]
            new = insert(prod)
            if new is not None:
                queue.append(new)
    return len(basis)


def character_ring_oracle(table) -> tuple[tuple, tuple]:
    """(rows, dual) of a character ring by the definitional triple loop:
    <chi_i chi_j, chi_l> summed over classes for every ordered (i, j, l)
    and reduced by `cyc_reduce_oracle`, with conjugates from
    `cyc_conjugate_oracle`.  The integer polynomial
    sum_c |c| chi_i(c) chi_j(c) conj(chi_l(c)) comes from Kronecker
    substitution: each value is evaluated at 2^B, with B wide enough that
    the digits of the sum are its coefficients."""
    k = len(table.class_sizes)
    values = [[v.coeffs for v in row] for row in table.values]
    conj = [[cyc_conjugate_oracle(v) for v in row] for row in table.values]
    assert all(isinstance(a, int) for row in values + conj for p in row for a in p)
    dual = tuple(next(j for j in range(k) if values[j] == conj[i]) for i in range(k))
    norms = [max(sum(map(abs, p)) for p in col) for col in zip(*values)]
    conj_norms = [max(sum(map(abs, p)) for p in col) for col in zip(*conj)]
    bound = sum(size * a * a * b for size, a, b in zip(table.class_sizes, norms, conj_norms))
    bits = (2 * bound + 1).bit_length()
    length = 3 * len(values[0][0]) - 2

    def packed(p) -> int:
        return sum(a << (bits * e) for e, a in enumerate(p))

    def unpacked(x: int) -> list:
        out = []
        for _ in range(length):
            digit = x & ((1 << bits) - 1)
            digit -= (digit >> (bits - 1)) << bits
            out.append(digit)
            x = (x - digit) >> bits
        assert x == 0
        return out

    at = [[packed(p) for p in row] for row in values]
    conj_at = [[packed(p) for p in row] for row in conj]
    rows = []
    for i in range(k):
        mat = []
        for j in range(k):
            pair = [size * a * b for size, a, b in zip(table.class_sizes, at[i], at[j])]
            row = []
            for l in range(k):
                ip = cyc_reduce_oracle(unpacked(sum(p * q for p, q in zip(pair, conj_at[l]))), table.root_order)
                assert not any(ip[1:])
                mult = Fraction(ip[0]) / table.group_order
                assert mult.denominator == 1 and mult >= 0
                row.append(int(mult))
            mat.append(tuple(row))
        rows.append(tuple(mat))
    return tuple(rows), dual


def haagerup_izumi_oracle(factors) -> tuple[tuple, tuple, tuple]:
    """(labels, dual, rows) of the Haagerup-Izumi ring on G + Gx, written
    out from its rules: x g = g^-1 x and (g x)(h x) = g h^-1 + sum_f (f x),
    with basis g_0..g_(n-1), x(g_0)..x(g_(n-1))."""
    g = abelian_group(tuple(factors))
    n = g.order
    t = [[[0] * (2 * n) for _ in range(2 * n)] for _ in range(2 * n)]
    for a in range(n):
        for b in range(n):
            t[a][b][g.mult(a, b)] = 1  # g h
            t[a][n + b][n + g.mult(a, b)] = 1  # g (h x)
            t[n + b][a][n + g.mult(b, g.inv(a))] = 1  # (h x) g = (h g^-1) x
            t[n + a][n + b][g.mult(a, g.inv(b))] = 1  # invertible part of (g x)(h x)
            for c in range(n):
                t[n + a][n + b][n + c] += 1
    labels = tuple(g.names) + tuple(f"x({name})" for name in g.names)
    dual = tuple(g.inverse) + tuple(range(n, 2 * n))
    return labels, dual, tuple(tuple(map(tuple, mat)) for mat in t)


# -- corpora ---------------------------------------------------------------

ABELIAN_LE8 = [
    (),
    (2,),
    (3,),
    (4,),
    (2, 2),
    (5,),
    (6,),
    (7,),
    (8,),
    (2, 4),
    (2, 2, 2),
]

ABELIAN_LE16 = ABELIAN_LE8 + [
    (9,),
    (3, 3),
    (10,),
    (11,),
    (12,),
    (2, 6),
    (13,),
    (14,),
    (15,),
    (16,),
    (2, 8),
    (4, 4),
    (2, 2, 4),
    (2, 2, 2, 2),
]

NEAR_GROUP_SMALL = [(), (2,), (3,), (4,), (2, 2)]  # |G| <= 4


@pytest.fixture(scope="session")
def small_corpus():
    """Rings of rank <= 8: group rings of order <= 8 (including S3, D4, Q8),
    near-groups with |G| <= 4 and level <= 12, Haagerup-Izumi with |G| <= 4,
    dihedral character rings n <= 9."""
    rings = {}
    for factors in ABELIAN_LE8:
        rings[f"Z[{factors or 'C1'}]"] = fr.group_ring(factors)
    rings["Z[S3]"] = fr.group_ring([list(r) for r in s3_group().table])
    rings["Z[D4]"] = fr.group_ring([list(r) for r in d4_group().table])
    rings["Z[Q8]"] = fr.group_ring([list(r) for r in q8_group().table])
    for factors in NEAR_GROUP_SMALL:
        for level in range(13):
            rings[f"NG({factors},{level})"] = fr.near_group(factors, level)
    for factors in NEAR_GROUP_SMALL:
        rings[f"HI({factors})"] = fr.haagerup_izumi(factors)
    for n in range(3, 10):
        rings[f"chD{n}"] = fr.dihedral_character_ring(n)
    return rings


def cubic_chain_ring() -> fr.FusionRing:
    """Rank-3 commutative ring with a cubic Perron root (x^2 = 1 + y,
    x y = x + y, y^2 = 1 + x + y); dimensions are 2cos(pi/7)-type."""
    t = np.zeros((3, 3, 3), dtype=np.int64)
    t[0, 0, 0] = t[0, 1, 1] = t[0, 2, 2] = t[1, 0, 1] = t[2, 0, 2] = 1
    t[1, 1, 0] = t[1, 1, 2] = 1
    t[1, 2, 1] = t[1, 2, 2] = 1
    t[2, 1, 1] = t[2, 1, 2] = 1
    t[2, 2, 0] = t[2, 2, 1] = t[2, 2, 2] = 1
    return fr.FusionRing(["1", "x", "y"], [0, 1, 2], t)


def su2_ring(k: int) -> fr.FusionRing:
    """SU(2)_k fusion rules on spins 0, 1/2, ..., k/2 (index a = 2 * spin):
    N_ab^c = 1 iff |a-b| <= c <= min(a+b, 2k-a-b) and a+b+c is even."""
    r = k + 1
    tensor = [
        [[int(abs(a - b) <= c <= min(a + b, 2 * k - a - b) and (a + b + c) % 2 == 0) for c in range(r)] for b in range(r)]
        for a in range(r)
    ]
    labels = [str(a // 2) if a % 2 == 0 else f"{a}/2" for a in range(r)]
    return fr.FusionRing(labels, list(range(r)), tensor)


def s3_two_orbit_ring() -> fr.FusionRing:
    """Two-orbit ring with nonabelian invertibles S3, stabilizer C3, and two
    self-dual noninvertibles of dimension 3 (uniform coefficient 1)."""
    g = s3_group()
    rot = [i for i in range(6) if g.element_order(i) in (1, 3)]
    ref = [i for i in range(6) if g.element_order(i) == 2]
    t = np.zeros((8, 8, 8), dtype=np.int64)
    for a in range(6):
        for b in range(6):
            t[a, b, g.mult(a, b)] = 1
    x, y = 6, 7
    for a in rot:
        t[a, x, x] = t[a, y, y] = t[x, a, x] = t[y, a, y] = 1
    for a in ref:
        t[a, x, y] = t[a, y, x] = t[x, a, y] = t[y, a, x] = 1
    for u, v, lead in ((x, x, rot), (y, y, rot), (x, y, ref), (y, x, ref)):
        for h in lead:
            t[u, v, h] = 1
        t[u, v, x] += 1
        t[u, v, y] += 1
    dual = list(g.inverse) + [x, y]
    return fr.FusionRing(list(g.names) + ["x", "y"], dual, t)


@pytest.fixture(scope="session")
def two_orbit_corpus():
    rings = {}
    for factors in NEAR_GROUP_SMALL:
        for level in (0, 1, 2, 3, 4, 6, 8):
            if factors == () and level == 0:
                continue  # rho^2 = 1 makes rho invertible: pointed, one orbit
            rings[f"NG({factors},{level})"] = fr.near_group(factors, level)
    for factors in NEAR_GROUP_SMALL + [(5,), (6,)]:
        rings[f"HI({factors})"] = fr.haagerup_izumi(factors)
    rings["U(C4,C2,id,1)"] = fr.uniform_two_orbit((4,), [2], "identity", 1)
    rings["U(C4,triv,inv,1)"] = fr.uniform_two_orbit((4,), "trivial", "inversion", 1)
    rings["U(C2xC2,triv,id,1)"] = fr.uniform_two_orbit((2, 2), "trivial", "identity", 1)
    rings["U(C3,triv,id,1)"] = fr.uniform_two_orbit((3,), "trivial", "identity", 1)
    rings["U(C6,C3,inv,2)"] = fr.uniform_two_orbit((6,), [2], "inversion", 2)
    rings["U(S3,C3)"] = s3_two_orbit_ring()
    return rings


# the inputs of the benchmark's spectra workload, every seed
SPECTRA_UNIFORM = [
    ("near_group", ((24,), 24)),
    ("near_group", ((24,), 48)),
    ("near_group", ((2, 12), 24)),
    ("near_group", ((2, 12), 48)),
    ("near_group", ((2, 2, 6), 48)),
    ("near_group", ((2, 2, 2, 2), 0)),
    ("near_group", ((2, 2, 2, 2), 16)),
    ("haagerup_izumi", ((8,),)),
    ("haagerup_izumi", ((2, 4),)),
    ("uniform_two_orbit", ((12,), [6], "inversion", 1)),
    ("uniform_two_orbit", ((12,), [6], "inversion", 2)),
]


@pytest.fixture(scope="session")
def spectra_uniform_corpus():
    """The uniform two-orbit rings of the benchmark's spectra workload."""
    return {f"{family}{params}": getattr(fr, family)(*params) for family, params in SPECTRA_UNIFORM}


@pytest.fixture(scope="session")
def spectra_corpus(spectra_uniform_corpus):
    """Every ring of the benchmark's spectra workload (rank 12 to 36)."""
    rings = dict(spectra_uniform_corpus)
    rings["chD18"] = fr.dihedral_character_ring(18)
    rings["Z[C36]"] = fr.group_ring((36,))
    return rings


def crosscheck_uniform_rings() -> list:
    """The uniform rings whose models test_crosschecks.py compares with
    spectra and certified characters."""
    return [
        fr.near_group((2,), 1),
        fr.near_group((2,), 2),
        fr.near_group((3,), 3),
        fr.near_group((2, 2), 4),
        fr.near_group((4,), 8),
        fr.haagerup_izumi((2,)),
        fr.haagerup_izumi((3,)),
    ]
