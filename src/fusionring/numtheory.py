"""Exact integer utilities: factorization, totients, square-free parts, and
sign tests for quadratic surds.

Everything here is deterministic and exact.  Factorization uses trial
division followed by Miller-Rabin and Brent's variant of Pollard rho, which
comfortably covers the ~1e14 range the level scans produce.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_TRIAL_LIMIT = 1000  # beyond this, Miller-Rabin settles primality immediately


def is_prime(n: int) -> bool:
    """Miller-Rabin on the 13 prime bases 2 ... 41: exact below
    psi_13 = 3317044064679887385961981 (Sorenson-Webster 2017), the least
    strong pseudoprime to all of them.  At and above psi_13 it is a strong
    probable-prime test, not a proof; psi_13 itself passes.  (Bases 2 ... 37
    alone pass psi_12 = 318665857834031151167461 = 399165290221 *
    798330580441.)"""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Brent's cycle-finding variant; returns a nontrivial factor of odd composite n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        q = 1
        ys = x
        m = 128
        r = 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                d = math.gcd(q, n)
                k += m
            r *= 2
        if d == n:
            # backtrack one step at a time
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = math.gcd(abs(x - ys), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # 2,3,5-wheel trial division for the small factors, then MR/rho
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    p, i = 7, 0
    while p * p <= n and p < _TRIAL_LIMIT:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += wheel[i]
        i = (i + 1) % 8
    if p * p > n and n > 1:
        out[n] = out.get(n, 0) + 1
        return out
    if n == 1:
        return out

    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack.extend((r, r))
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return out


def totient(n: int) -> int:
    """Euler's totient."""
    if n < 1:
        raise ValueError("totient expects n >= 1")
    result = n
    for p in factorize(n):
        result = result // p * (p - 1)
    return result


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


@dataclass(frozen=True)
class SquareFreeDecomposition:
    """n = x * y**2 with x square-free."""

    n: int
    x: int
    y: int


def squarefree_part(n: int) -> SquareFreeDecomposition:
    """Split n >= 1 into its square-free part x and cofactor y with n = x*y^2."""
    if n < 1:
        raise ValueError("squarefree_part expects n >= 1")
    x = 1
    y = 1
    for p, e in factorize(n).items():
        if e % 2:
            x *= p
        y *= p ** (e // 2)
    return SquareFreeDecomposition(n, x, y)


def quad_sign(a: Fraction | int, b: Fraction | int, D: int) -> int:
    """Exact sign of a + b*sqrt(D) for D >= 0 (-1, 0, or +1)."""
    if D < 0:
        raise ValueError("D must be nonnegative")
    a = Fraction(a)
    b = Fraction(b)
    if D == 0 or b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 against b^2 * D
    lhs = a * a
    rhs = b * b * D
    s = (lhs > rhs) - (lhs < rhs)
    return s if a > 0 else -s
