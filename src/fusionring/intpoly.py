"""Exact univariate polynomial arithmetic over Z.

Polynomials are tuples of coefficients, lowest degree first.  The routines
here supply everything the algebraic-number layer needs: Krylov minimal
polynomials of integer matrices, exact division over Z, square-free parts
and gcds on integer pseudo-remainders, Sturm chains, real-root isolation
by bisection on one dyadic grid with half-open Sturm counts and integer
sign tests, one integer test for rational roots, and refinement of
isolating intervals by Newton steps on that grid.  Rationals enter only as
interval endpoints and roots, and as coefficients that primitive() clears.
No floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

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


def poly_neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def poly_derivative(p: Poly) -> Poly:
    return trim([i * p[i] for i in range(1, len(p))])


def poly_divexact(p: Poly, q: Poly) -> Poly:
    """The quotient p / q of integer polynomials, which must be an integer
    polynomial: ValueError when q does not divide p over Z."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = len(q) - 1
    quo = [0] * max(len(p) - dq, 0)
    while len(rem) > dq:
        c, r = divmod(rem.pop(), q[-1])
        if r:
            raise ValueError("inexact polynomial division")
        shift = len(rem) - dq
        quo[shift] = c
        for i in range(dq):
            rem[shift + i] -= c * q[i]
    if any(rem):
        raise ValueError("inexact polynomial division")
    return trim(quo)


def primitive(p: Poly) -> Poly:
    """Integer primitive part with positive leading coefficient.

    Coefficients are ints (not bools) or Fractions, whose denominators are
    cleared first.  Scaling is by a positive rational only, so signs of
    values are preserved.
    """
    if not p:
        return ()
    den = 1
    for c in p:
        if isinstance(c, Fraction):
            den = den * c.denominator // math.gcd(den, c.denominator)
        elif isinstance(c, bool) or not isinstance(c, int):
            raise TypeError(f"polynomial coefficients are int or Fraction, not {type(c).__name__}")
    ip = [int(c * den) if isinstance(c, Fraction) else c * den for c in p]
    g = 0
    for c in ip:
        g = math.gcd(g, abs(c))
    if g == 0:
        return ()
    if ip[-1] < 0:
        g = -g
    return tuple(c // g for c in ip)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Primitive gcd over Z, by Euclid on integer pseudo-remainders kept
    primitive (each a nonzero multiple of the remainder over Q)."""
    a, b = primitive(p), primitive(q)
    while b:
        a, b = b, primitive(_prem(a, b))
    return a


def _prem(p: Poly, q: Poly) -> Poly:
    """Remainder of |lc(q)|^k * p on division by q, for integer p, q and
    some k <= deg p - deg q + 1, in integers: a positive multiple of the
    remainder over Q.  p itself when deg p < deg q."""
    r = list(p)
    dq = len(q) - 1
    scale = abs(q[-1])
    sign = 1 if q[-1] > 0 else -1
    while len(r) - 1 >= dq:
        c = sign * r.pop()
        shift = len(r) - dq
        r = [scale * x for x in r]
        for i in range(dq):
            r[shift + i] -= c * q[i]
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), primitive with positive leading coefficient: the
    quotient of the primitive p by its primitive gcd is an integer
    polynomial, and primitive, by Gauss's lemma.  A polynomial of degree
    at most 1 is its own square-free part."""
    p = primitive(p)
    if degree(p) <= 1:
        return p
    g = poly_gcd(p, poly_derivative(p))
    if degree(g) == 0:
        return p
    return poly_divexact(p, g)


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain of a square-free integer polynomial, kept primitive.

    Each step negates a pseudo-remainder, a positive multiple of the
    remainder over Q, so sign evaluations are unaffected.
    """
    p0 = primitive(p)
    chain = [p0]
    p1 = primitive(poly_derivative(p0))
    if p1:
        chain.append(p1)
    while degree(chain[-1]) > 0:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(primitive_signed(poly_neg(r)))
    return chain


def primitive_signed(p: Poly) -> Poly:
    """Like primitive() but keeps the sign of the leading coefficient."""
    q = primitive(p)
    if q and p[-1] < 0:
        return poly_neg(q)
    return q


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def value_at(p: Poly, a: int, b: int) -> int:
    """b^deg(p) p(a/b) for integer p, a and b, by integer Horner."""
    acc = 0
    bpow = 1
    for c in reversed(p):
        acc = acc * a + c * bpow
        bpow *= b
    return acc


def sign_at(p: Poly, a: int, b: int) -> int:
    """Sign of p(a/b) for integer p and b > 0."""
    return _sign(value_at(p, a, b))


def sign_variations_at(chain: list[Poly], a: int, b: int) -> int:
    """Sign changes along the chain at a/b, b > 0."""
    signs = [s for s in (sign_at(p, a, b) for p in chain) if s != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_real_roots(chain: list[Poly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi].

    chain is the Sturm chain of a square-free polynomial; either endpoint
    may be a root (see isolate_real_roots).
    """
    return sign_variations_at(chain, lo.numerator, lo.denominator) - sign_variations_at(
        chain, hi.numerator, hi.denominator
    )


def isolate_real_roots(p: Poly) -> tuple[Poly, list[Fraction], list[tuple[Fraction, Fraction]]]:
    """Isolate the real roots of a nonzero integer polynomial.

    Returns (sf, rational_roots, intervals): sf is squarefree_part(p), with
    the same roots as p; rational_roots are its exact rational roots; each
    interval (lo, hi) holds exactly one root of sf by Sturm count, with a
    sign change of sf and non-root endpoints, and that root is irrational.
    This is the one place those facts are certified: the rest of the library
    builds roots on these intervals without checking them again.  Both lists
    are sorted ascending, and together they hold every real root.

    Bisection starts from (-B, B), B = 2 + max|c_i|/|c_n| (beyond the Cauchy
    bound), in integers: a stack entry (a, b, d, va, vb) is the cell
    (a/d, b/d] with the chain's sign variations va, vb at its ends, so every
    interval returned is a cell of the one dyadic grid of (-B, B).  The cell
    holds va - vb roots even when an end is a root.  The variations V(x)
    change only as x passes a root, where they drop by one; and at a root
    c, V(c) is already the value just right of c, because the zero of sf at
    c is skipped and just right of c, sf and sf' have the same sign.  A
    one-root cell gives a rational root when its right end is one, is
    bisected again when its left end is one, and is otherwise an isolating
    interval, unless _rational_root_in finds its root rational.
    """
    p = squarefree_part(p)
    if degree(p) < 1:
        return p, [], []
    chain = sturm_chain(p)
    d = abs(p[-1])
    b = 2 * d + max(abs(c) for c in p[:-1])
    rational: list[Fraction] = []
    intervals: list[tuple[Fraction, Fraction]] = []
    stack = [(-b, b, d, sign_variations_at(chain, -b, d), sign_variations_at(chain, b, d))]
    while stack:
        a, b, d, va, vb = stack.pop()
        if va == vb:
            continue
        if va - vb == 1:
            if sign_at(p, b, d) == 0:
                rational.append(Fraction(b, d))
                continue
            if sign_at(p, a, d):
                lo, hi = Fraction(a, d), Fraction(b, d)
                r = _rational_root_in(p, lo, hi)
                if r is None:
                    intervals.append((lo, hi))
                else:
                    rational.append(r)
                continue
        a, b, m, d = 2 * a, 2 * b, a + b, 2 * d
        vm = sign_variations_at(chain, m, d)
        stack.append((a, m, d, va, vm))
        stack.append((m, b, d, vm, vb))
    rational.sort()
    intervals.sort()
    return p, rational, intervals


def _rational_root_in(p: Poly, a: Fraction, b: Fraction) -> Fraction | None:
    """The root of primitive p in (a, b) if it is rational, else None; p
    has a single root there, and neither end is a root.

    A rational root c/q of p has q | L, L the leading coefficient, so L
    times the root is an integer.  With (a, b) narrowed to width at most
    1/(2L), L times its midpoint is within 1/4 of L times the root, so
    c = round(L mid) is that integer when the root is rational.  c/L is
    accepted only when it lies in the interval and is a root: a root of p
    elsewhere is not the one in (a, b).
    """
    lead = p[-1]
    a, b = refine_interval(p, a, b, Fraction(1, 2 * lead))
    if a == b:
        return a
    r = Fraction(round(lead * (a + b) / 2), lead)
    if a < r < b and sign_at(p, r.numerator, r.denominator) == 0:
        return r
    return None


def refine_interval(p: Poly, lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink a sign-change isolating interval of square-free integer p below
    width: the cell that bisection would end on, found by quadratic interval
    refinement (QIR, J. Abbott 2014) on bisection's grid, in integers.

    Bisection halves (lo, hi) s times, for the least s with
    (hi - lo) / 2^s <= width, so it ends on one cell of the level-s grid
    x_k = lo + k (hi - lo) / 2^s, 0 <= k <= 2^s: the cell holding the root,
    or the degenerate (x_k, x_k) when the root is a grid point x_k (it stays
    inside bisection's interval, so by level s it is that interval's
    midpoint).  Here the bracket (x_l, x_r) keeps to that grid, with p of
    the sign of p(lo) at x_l and of the other sign at x_r, so it ends on the
    same cell, or on the same grid root, whatever the path.

    Each step tests the bracket's midpoint and keeps the half with the sign
    change; then a Newton step from the midpoint predicts the root, and a
    window of 1/N of the bracket around the prediction is tested.  N is
    squared when the window holds the root, and square-rooted when it does
    not.  The first 8 levels, and brackets of at most 4 cells, are plain
    halving.  Width 2^-n takes O(log n) evaluations, not n."""
    d = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    w = hi.numerator * (d // hi.denominator) - a
    # the least s >= 0 with 2^s >= ceil(w / (d width))
    s = max(-(-w * width.denominator // (width.numerator * d)) - 1, 0).bit_length()
    a, d = a << s, d << s  # x_k = (a + k w) / d
    slo = sign_at(p, a, d)
    dp = None
    l, r, n = 0, 1 << s, 4
    while r - l > 1:
        m = (l + r) // 2
        v = value_at(p, a + m * w, d)
        if v == 0:
            return Fraction(a + m * w, d), Fraction(a + m * w, d)
        if _sign(v) == slo:
            l = m
        else:
            r = m
        if r - l <= 4 or (r - l) << 8 > 1 << s:
            continue
        # Newton from the midpoint, in grid units: t = m - p(x_m) / (p'(x_m) w / d)
        dp = dp or poly_derivative(p)
        dv = value_at(dp, a + m * w, d) * w
        if dv == 0:
            continue
        if dv < 0:
            v, dv = -v, -dv
        cells = max((r - l) // n, 1)
        u = min(max(m + (-2 * v - cells * dv) // (2 * dv), l), r - cells)  # floor(t - cells / 2)
        for k in (u, u + cells):
            if l < k < r:
                sk = sign_at(p, a + k * w, d)
                if sk == 0:
                    return Fraction(a + k * w, d), Fraction(a + k * w, d)
                if sk == slo:
                    l = k
                else:
                    r = k
        n = n * n if r - l == cells else max(math.isqrt(n), 4)
    return Fraction(a + l * w, d), Fraction(a + r * w, d)


def krylov(rows) -> tuple[Poly, list[list[int]]]:
    """Minimal polynomial of e_0 under an n x n integer matrix A (n >= 1),
    and the vectors e_0, e_0 A, ..., e_0 A^(d-1) below its degree d.  A is
    given by its nonzeros: rows[j] holds the pairs (t, A[j][t]) with
    A[j][t] != 0, as a ring's rows[i] gives N_i.

    Each vector e_0 A^k is reduced against the earlier ones by fraction-free
    elimination, carrying the polynomial in A that it stands for, and each
    reduced row is divided by its content.  The first power that reduces to
    zero yields the relation p(A) of least degree with e_0 p(A) = 0; made
    primitive, p is monic: it divides the monic integer charpoly, so by
    Gauss's lemma its monic multiple has integer coefficients.  O(d^2 n)
    integer operations plus d vector-matrix products.
    """
    n = len(rows)
    v = [1] + [0] * (n - 1)
    powers: list[list[int]] = []
    echelon: list[tuple[int, list[int]]] = []  # (pivot, row): row[:n] a vector, row[n:] its polynomial
    while True:
        k = len(powers)
        row = v + [0] * k + [1] + [0] * (n - k)
        for p, e in echelon:
            if row[p]:
                g = math.gcd(row[p], e[p])
                a, b = e[p] // g, row[p] // g
                row = [a * x - b * y for x, y in zip(row, e)]
        pivot = next((j for j in range(n) if row[j]), None)
        if pivot is None:
            return primitive(trim(row[n:])), powers
        g = math.gcd(*row)
        echelon.append((pivot, [x // g for x in row]))
        powers.append(v)
        w = [0] * n
        for j, c in enumerate(v):
            if c:
                for t, x in rows[j]:
                    w[t] += c * x
        v = w
