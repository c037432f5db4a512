"""Exact univariate polynomial arithmetic over Z and Q.

Polynomials are tuples of coefficients, lowest degree first.  The routines
here supply everything the algebraic-number layer needs: fraction-free
characteristic polynomials, Yun square-free decomposition, Sturm chains, and
bisection-based real-root isolation.  No floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import InternalInvariantError

Poly = tuple  # tuple of int or Fraction, index = degree


def trim(p: Sequence) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def degree(p: Poly) -> int:
    """Degree, with degree(-1) for the zero polynomial."""
    return len(p) - 1


def poly_eval(p: Poly, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def poly_neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, poly_neg(q))


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def poly_derivative(p: Poly) -> Poly:
    return trim([i * p[i] for i in range(1, len(p))])


def poly_divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Euclidean division over Q (exact Fraction arithmetic)."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 1)
    dq = degree(q)
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
    return trim(quo), trim(rem)


def poly_divexact(p: Poly, q: Poly) -> Poly:
    quo, rem = poly_divmod(p, q)
    if rem:
        raise ValueError("inexact polynomial division")
    return quo


def primitive(p: Poly) -> Poly:
    """Integer primitive part with positive leading coefficient.

    Accepts Fraction coefficients; clears denominators first.  Scaling is by
    a positive rational only, so signs of values are preserved.
    """
    if not p:
        return ()
    den = 1
    for c in p:
        if isinstance(c, Fraction):
            den = den * c.denominator // math.gcd(den, c.denominator)
    ip = [int(c * den) if isinstance(c, Fraction) else int(c) * den for c in p]
    g = 0
    for c in ip:
        g = math.gcd(g, abs(c))
    if g == 0:
        return ()
    if ip[-1] < 0:
        g = -g
    return tuple(c // g for c in ip)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Primitive gcd over Z (computed via monic Euclid over Q)."""
    a, b = trim(p), trim(q)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, trim(r)
    if not a:
        return ()
    return primitive(a)


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), primitive with positive leading coefficient."""
    p = primitive(p)
    if degree(p) <= 0:
        return p
    g = poly_gcd(p, poly_derivative(p))
    if degree(g) == 0:
        return p
    return primitive(poly_divexact(p, g))


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: returns [(f_i, i)] with p ~ prod f_i^i, f_i square-free,
    pairwise coprime, primitive with positive leading coefficients."""
    p = primitive(p)
    if degree(p) < 1:
        return []
    dp = poly_derivative(p)
    a = poly_gcd(p, dp)
    if degree(a) == 0:
        return [(p, 1)]
    b = poly_divexact(p, a)
    c = poly_divexact(dp, a)
    d = poly_sub(c, poly_derivative(b))
    out: list[tuple[Poly, int]] = []
    i = 1
    while degree(b) > 0:
        g = poly_gcd(b, d)
        if degree(g) > 0:
            out.append((primitive(g), i))
        if degree(g) == 0:
            g = (1,)
        b = poly_divexact(b, g)
        c = poly_divexact(d, g)
        d = poly_sub(c, poly_derivative(b))
        i += 1
    return out


def cauchy_bound(p: Poly) -> Fraction:
    """All real roots of p lie in [-B, B]."""
    p = trim(p)
    if degree(p) < 1:
        return Fraction(1)
    lead = abs(Fraction(p[-1]))
    m = max(abs(Fraction(c)) for c in p[:-1]) if len(p) > 1 else Fraction(0)
    return 1 + m / lead


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain of a square-free integer polynomial, kept primitive.

    Only positive rescaling is applied, so sign evaluations are unaffected.
    """
    p0 = primitive(p)
    chain = [p0]
    p1 = primitive(poly_derivative(p0))
    if p1:
        chain.append(p1)
    while degree(chain[-1]) > 0:
        _, r = poly_divmod(chain[-2], chain[-1])
        r = trim(r)
        if not r:
            break
        chain.append(primitive_signed(poly_neg(r)))
    return chain


def primitive_signed(p: Poly) -> Poly:
    """Like primitive() but keeps the sign of the leading coefficient."""
    q = primitive(p)
    if q and p and (Fraction(p[-1]) < 0) != (q[-1] < 0):
        return poly_neg(q)
    return q


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def sign_variations_at(chain: list[Poly], x: Fraction) -> int:
    signs = [s for s in (_sign(poly_eval(p, x)) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sign_variations_at_inf(chain: list[Poly], positive: bool) -> int:
    signs = []
    for p in chain:
        if not p:
            continue
        s = _sign(p[-1])
        if not positive and degree(p) % 2 == 1:
            s = -s
        signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(chain: list[Poly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in the open interval (lo, hi).

    Endpoints must not be roots of chain[0].
    """
    return sign_variations_at(chain, lo) - sign_variations_at(chain, hi)


def count_all_real_roots(p: Poly) -> int:
    chain = sturm_chain(squarefree_part(p))
    return sign_variations_at_inf(chain, False) - sign_variations_at_inf(chain, True)


def isolate_real_roots(p: Poly) -> tuple[list[Fraction], list[tuple[Fraction, Fraction]]]:
    """Isolate the real roots of a square-free polynomial.

    Returns (rational_roots, intervals): exact rational roots, plus open
    intervals (lo, hi) each containing exactly one irrational root, with a
    guaranteed sign change and non-root endpoints.  Results are sorted
    ascending across both lists combined.
    """
    p = squarefree_part(p)
    if degree(p) < 1:
        return [], []
    chain = sturm_chain(p)
    bound = cauchy_bound(p)
    lo, hi = -bound - 1, bound + 1
    rational: list[Fraction] = []
    intervals: list[tuple[Fraction, Fraction]] = []
    stack = [(Fraction(lo), Fraction(hi), count_real_roots(chain, Fraction(lo), Fraction(hi)))]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1 and _sign(poly_eval(p, a)) * _sign(poly_eval(p, b)) < 0:
            # check for a rational (hence integer, if p is monic) root first
            r = _rational_root_in(p, a, b)
            if r is None:
                intervals.append((a, b))
            else:
                rational.append(r)
            continue
        mid = (a + b) / 2
        if poly_eval(p, mid) == 0:
            rational.append(mid)
            eps = _root_free_radius(p, chain, mid, a, b)
            stack.append((a, mid - eps, count_real_roots(chain, a, mid - eps)))
            stack.append((mid + eps, b, count_real_roots(chain, mid + eps, b)))
        else:
            nl = count_real_roots(chain, a, mid)
            stack.append((a, mid, nl))
            stack.append((mid, b, n - nl))
    rational.sort()
    intervals.sort()
    return rational, intervals


def _rational_root_in(p: Poly, a: Fraction, b: Fraction) -> Fraction | None:
    """Rational root of p in (a, b), if any; p has a single root there.

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
    a, b = refine_interval(p, a, b, Fraction(1, 2 * lead * lead))
    if a == b:
        return a
    cand = _simplest_in(a, b)
    if cand.denominator <= lead and poly_eval(p, cand) == 0:
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


def _root_free_radius(p: Poly, chain: list[Poly], x: Fraction, a: Fraction, b: Fraction) -> Fraction:
    """A radius eps > 0 such that (x-eps, x+eps) holds no root besides x."""
    eps = min(x - a, b - x) / 4
    while True:
        if (
            poly_eval(p, x - eps) != 0
            and poly_eval(p, x + eps) != 0
            and count_real_roots(chain, x - eps, x + eps) == 1
        ):
            return eps
        eps /= 2


def refine_interval(p: Poly, lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink a sign-change isolating interval of square-free p below width."""
    slo = _sign(poly_eval(p, lo))
    while hi - lo > width:
        mid = (lo + hi) / 2
        smid = _sign(poly_eval(p, mid))
        if smid == 0:
            # exact root hit; return a degenerate interval
            return mid, mid
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Gaussian elimination."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def charpoly(matrix) -> Poly:
    """Characteristic polynomial det(xI - A) of an integer matrix.

    Fraction-free determinants at n+1 integer points, then exact Lagrange
    interpolation.  Returns a monic integer polynomial.
    """
    n = len(matrix)
    if n == 0:
        return (1,)
    pts = list(range(n + 1))
    vals = []
    for t in pts:
        rows = [[(t if i == j else 0) - int(matrix[i][j]) for j in range(n)] for i in range(n)]
        vals.append(bareiss_det(rows))
    coeffs = _lagrange_interpolate(pts, vals, n)
    if coeffs[-1] != 1:
        raise InternalInvariantError("characteristic polynomial must be monic")
    return coeffs


def _lagrange_interpolate(xs: list[int], ys: list[int], deg: int) -> Poly:
    acc = [Fraction(0)] * (deg + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num: Poly = (Fraction(1),)
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = poly_mul(num, (Fraction(-xj), Fraction(1)))
            den *= xi - xj
        scale = Fraction(yi) / den
        for k, c in enumerate(num):
            acc[k] += c * scale
    if any(c.denominator != 1 for c in acc):
        raise InternalInvariantError("interpolation of det(xI - A) must be integral")
    return trim([int(c) for c in acc])
