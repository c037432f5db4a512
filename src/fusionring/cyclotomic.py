"""Exact values of cyclotomic fields Q(zeta_N), optionally extended by a
real square root, and the packed format in which the library checks
identities over them.

Elements are coefficient vectors in the power basis 1, zeta, ...,
zeta^(deg Phi_N - 1), always reduced modulo the N-th cyclotomic polynomial,
so structural equality is field equality.  Besides sums, rational scalings
and complex conjugation (a linear map, applied through cached images of the
power basis), elements are data.

The identities that the library checks (irrep models, character tables
and rings) multiply no elements: `pack` turns each coefficient vector into
its value at x = 2^B (Kronecker substitution), so a sum of products is one
integer, which is 0 modulo Phi_N exactly when Phi_N(2^B) divides it
(`packed_modulus`) and whose residue nearest 0 is the sum reduced
(`balanced_residue`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import intpoly
from .intpoly import Poly


@lru_cache(maxsize=None)
def cyclotomic_poly(N: int) -> Poly:
    """The N-th cyclotomic polynomial (integer coefficients, monic)."""
    if N < 1:
        raise ValueError("N must be positive")
    p: Poly = tuple([-1] + [0] * (N - 1) + [1])  # x^N - 1
    for d in range(1, N):
        if N % d == 0:
            p = intpoly.poly_divexact(p, cyclotomic_poly(d))
    return p


def _norm_num(c):
    """A coefficient or scalar, which must be an int (not a bool) or a
    Fraction, kept as a plain int whenever possible (much faster)."""
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"cyclotomic coefficients are int or Fraction, not {type(c).__name__}")
    if isinstance(c, int):
        return c
    return c.numerator if c.denominator == 1 else c


@lru_cache(maxsize=None)
def _reducer(N: int) -> tuple:
    """deg Phi_N and the nonzero terms (i, c) of Phi_N below its leading one."""
    phi = cyclotomic_poly(N)
    return len(phi) - 1, tuple((i, c) for i, c in enumerate(phi[:-1]) if c)


def _reduce(cs: list, N: int) -> tuple:
    """cs modulo Phi_N (monic, so no divisions) as a coefficient tuple of
    length deg Phi_N; cs is overwritten."""
    deg, low = _reducer(N)
    for top in range(len(cs) - 1, deg - 1, -1):
        f = cs[top]
        if f:
            for i, c in low:
                cs[top - deg + i] -= f * c
    return tuple(cs[:deg]) + (0,) * (deg - len(cs))


@lru_cache(maxsize=None)
def _reduced_power(N: int, k: int) -> tuple:
    """zeta_N^k reduced mod Phi_N as a coefficient tuple."""
    return _reduce([0] * (k % N) + [1], N)


@lru_cache(maxsize=None)
def _reduction_growth(N: int) -> int:
    """G(N) = max over j of the sum over k < 2 deg Phi_N - 1 of |c_kj|, with
    c_kj coefficient j of zeta_N^k reduced: coefficient j of W mod Phi_N is
    sum_k w_k c_kj, so reducing a W of degree < 2 deg Phi_N - 1 multiplies
    the bound on its coefficients by at most G(N), and a W of signs meets it."""
    return max(sum(map(abs, col)) for col in zip(*(_reduced_power(N, k) for k in range(2 * _reducer(N)[0] - 1))))


def packed_modulus(N: int, bound: int) -> tuple[int, int]:
    """(B, Phi_N(2^B)) such that an integer polynomial W of degree
    < 2 deg Phi_N - 1 with coefficients at most `bound` in absolute value is
    0 modulo Phi_N exactly when Phi_N(2^B) divides W(2^B), and the residue
    of W(2^B) nearest 0 is R(2^B) for R = W mod Phi_N (`balanced_residue`).

    Let f = deg Phi_N, X = 2^B and S the sum of |c| over the coefficients c
    of Phi_N below its leading one; B is the least with X > 4 b + S, where
    b = bound G(N) (`_reduction_growth`).  Phi_N is monic, so W = Q Phi_N + R
    with Q, R in Z[x] and deg R < f, and R is the sum of w_k (x^k mod Phi_N),
    so its coefficient j, sum_k w_k c_kj, is at most b.  As X/(X - 1) <= 2,
    |R(X)| <= b (X^f - 1)/(X - 1) < 2 b X^(f-1) < (X - S) X^(f-1)/2
    <= Phi_N(X)/2.  If R = 0, Phi_N(X) divides W(X) = Q(X) Phi_N(X).
    Otherwise let r_m be its top nonzero coefficient; as X - 1 > b,
    |R(X)| >= X^m - b (X^m - 1)/(X - 1) > 0.  So 0 < |R(X)| < Phi_N(X),
    Phi_N(X) does not divide R(X) = W(X) - Q(X) Phi_N(X), and so it does not
    divide W(X).  In both cases R(X) = W(X) - Q(X) Phi_N(X) lies strictly
    between -Phi_N(X)/2 and Phi_N(X)/2."""
    low = _reducer(N)[1]
    B = (4 * bound * _reduction_growth(N) + sum(abs(c) for _, c in low)).bit_length()
    return B, sum(c << (B * i) for i, c in enumerate(cyclotomic_poly(N)))


def balanced_residue(w: int, modulus: int) -> int:
    """The residue rho of w modulo `modulus` with -modulus/2 < rho <= modulus/2.

    With (B, modulus) = `packed_modulus(N, bound)`, b = bound G(N) and
    w = W(X), X = 2^B, for W as there, rho = R(X) for R = W mod Phi_N, as
    R(X) is congruent to W(X) and lies in that range (proof there).  So the
    product of two packed elements with coefficients at most c, where
    deg Phi_N c^2 <= bound, reads as their reduced product packed.  And R
    is a rational t exactly when |rho| <= b, and then t = rho: each
    coefficient sum_k w_k c_kj of R is at most b, so if R = t, |t| <= b; if
    R has degree m >= 1, then as (X^m - 1)/(X - 1) < 2 X^(m-1) and X > 4 b,
    |rho| >= X^m - b (X^m - 1)/(X - 1) > X - 2 b > b."""
    rho = w % modulus
    return rho - modulus if 2 * rho > modulus else rho


def pack(N: int, vectors, bound: Callable[[int, int], int]) -> tuple[int, int, int, dict]:
    """(L, Phi_N(2^B), bound G(N), {vector: packed integer}) for coefficient
    vectors (a_0, a_1, ...) of elements of Q(zeta_N), each packed as
    sum_e L a_e 2^(B e), where L is the lcm of the denominators of all their
    coefficients.  bound(L, cmax), with cmax the largest |L a_e|, must bound
    the coefficients of every integer polynomial whose value at 2^B the
    caller tests with the modulus (`packed_modulus`) or reads with
    `balanced_residue`; bound G(N) bounds a rational read that way."""
    vectors = set(vectors)
    coeffs = [c for vec in vectors for c in vec]
    L = math.lcm(*(c.denominator for c in coeffs))
    b = bound(L, int(max(map(abs, coeffs)) * L))
    B, modulus = packed_modulus(N, b)
    return L, modulus, b * _reduction_growth(N), {vec: sum(int(c * L) << (B * e) for e, c in enumerate(vec) if c) for vec in vectors}


@lru_cache(maxsize=None)
def _basis_images(N: int) -> tuple:
    """The conjugates zeta_N^-i of the power basis 1, zeta_N, ...,
    zeta_N^(deg Phi_N - 1), as their nonzero (index, coefficient)s.

    Each image is the one before times zeta_N^-1: every term a zeta_N^r
    moves to zeta_N^(r - 1), and only the constant term leaves the power
    basis, for the reduced zeta_N^(N - 1) (`_reduced_power`, cached).  A
    step costs O(deg Phi_N) operations; a reduction of each power from
    scratch cost O(N) rows of Phi_N."""
    deg = _reducer(N)[0]
    images = []
    image = [(0, 1)]
    for _ in range(deg):
        images.append(tuple(image))
        cs = [0] * deg
        for r, a in image:
            if r:
                cs[r - 1] += a
            else:
                for t, c in enumerate(_reduced_power(N, N - 1)):
                    cs[t] += a * c
        image = [(r, c) for r, c in enumerate(cs) if c]
    return tuple(images)


class Cyc:
    """Element of Q(zeta_N).  N has no bound here, though setting up a field
    (Phi_N, and the power-basis images that conjugation reads) costs time
    growing faster than N^2; table files bound it (ringfile.ROOT_ORDER_LIMIT)."""

    __slots__ = ("N", "coeffs")

    def __init__(self, N: int, coeffs):
        """The element sum_i coeffs[i] zeta_N^i; any number of coefficients."""
        self.N = N
        self.coeffs = tuple(map(_norm_num, _reduce([_norm_num(c) for c in coeffs], N)))

    @classmethod
    def _reduced(cls, N: int, coeffs: tuple) -> "Cyc":
        """The element with these coefficients, which must already be
        reduced and of full length, as every Cyc's are."""
        out = object.__new__(cls)
        out.N = N
        out.coeffs = coeffs
        return out

    @classmethod
    def zero(cls, N: int) -> "Cyc":
        return cls(N, ())

    @classmethod
    def one(cls, N: int) -> "Cyc":
        return cls(N, (1,))

    @classmethod
    def rational(cls, N: int, q) -> "Cyc":
        return cls(N, (q,))

    @classmethod
    def root(cls, N: int, k: int) -> "Cyc":
        """zeta_N^k."""
        return cls._reduced(N, _reduced_power(N, k))

    def __add__(self, other):
        if not isinstance(other, Cyc):
            return NotImplemented
        if self.N != other.N:
            raise ValueError(f"mixed cyclotomic orders {self.N} and {other.N}")
        return Cyc._reduced(self.N, tuple(map(operator.add, self.coeffs, other.coeffs)))

    def __mul__(self, other):
        """The product with an int or Fraction."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        other = _norm_num(other)
        return Cyc._reduced(self.N, tuple(a * other for a in self.coeffs))

    def conjugate(self) -> "Cyc":
        """Complex conjugation zeta -> zeta^{-1}."""
        out = [0] * len(self.coeffs)
        for a, image in zip(self.coeffs, _basis_images(self.N)):
            if a:
                for r, c in image:
                    out[r] += a * c
        return Cyc._reduced(self.N, tuple(out))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.coeffs[0])

    def __eq__(self, other):
        if isinstance(other, Cyc):
            return self.N == other.N and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.as_fraction() == other
        return NotImplemented

    def __hash__(self):
        # a rational element equals its Fraction, so it hashes like one
        return hash(self.coeffs[0]) if self.is_rational else hash((self.N, self.coeffs))

    def __repr__(self):
        terms = [f"{c}*z{self.N}^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Cyc(" + (" + ".join(terms) or "0") + ")"


@dataclass(frozen=True)
class CycSqrt:
    """u + v*sqrt(D) with u, v in Q(zeta_N), D a nonnegative integer.

    Equality is componentwise.  That is sound: componentwise equal numbers
    are equal.  It is complete exactly when sqrt(D) is not in Q(zeta_N),
    for then 1 and sqrt(D) are linearly independent over Q(zeta_N).  That
    is so when D is not a square and the conductor of Q(sqrt(D)) does not
    divide N; the conductor is d if d = 1 mod 4 and 4d otherwise, where d
    is the square-free part of D.  Otherwise a number has many forms
    (sqrt(2) = zeta_8 + zeta_8^-1, for instance), and a check through ==
    can reject a true identity but never accept a false one.  Irrep models
    fall in both classes: N = 24, D = 24 for near-groups over C24 and
    D = |H| = 16 over C2^4 are incomplete, and those models still pass
    every check componentwise.
    """

    u: Cyc
    v: Cyc
    D: int

    @classmethod
    def of(cls, N: int, D: int, u=0, v=0) -> "CycSqrt":
        uu = u if isinstance(u, Cyc) else Cyc.rational(N, u)
        vv = v if isinstance(v, Cyc) else Cyc.rational(N, v)
        return cls(uu, vv, D)
