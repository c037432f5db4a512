"""Exact arithmetic in cyclotomic fields Q(zeta_N), optionally extended by a
real square root.

Elements are coefficient vectors in the power basis 1, zeta, ...,
zeta^(deg Phi_N - 1), always reduced modulo the N-th cyclotomic polynomial,
so structural equality is field equality.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
    """Keep coefficients as plain ints whenever possible (much faster)."""
    if isinstance(c, int):
        return c
    f = Fraction(c)
    return f.numerator if f.denominator == 1 else f


def _reduce_mod(cs: list, phi) -> list:
    """Remainder modulo the monic integer polynomial phi (no divisions)."""
    cs = list(cs)
    dp = len(phi) - 1
    while len(cs) > dp:
        f = cs[-1]
        if f:
            shift = len(cs) - 1 - dp
            for i in range(dp):
                cs[shift + i] -= f * phi[i]
        cs.pop()
    return cs


@lru_cache(maxsize=None)
def _reduced_power(N: int, k: int) -> tuple:
    """zeta_N^k reduced mod Phi_N as a coefficient tuple."""
    k %= N
    phi = cyclotomic_poly(N)
    deg = intpoly.degree(phi)
    if k < deg:
        coeffs = [0] * deg
        coeffs[k] = 1
        return tuple(coeffs)
    out = _reduce_mod([0] * k + [1], phi)
    out += [0] * (deg - len(out))
    return tuple(out)


class Cyc:
    """Element of Q(zeta_N)."""

    __slots__ = ("N", "coeffs")

    def __init__(self, N: int, coeffs):
        deg = intpoly.degree(cyclotomic_poly(N))
        cs = [_norm_num(c) for c in coeffs]
        if len(cs) > deg:
            cs = [_norm_num(c) for c in _reduce_mod(cs, cyclotomic_poly(N))]
        cs += [0] * (deg - len(cs))
        self.N = N
        self.coeffs = tuple(cs)

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
        return cls(N, (Fraction(q),))

    @classmethod
    def root(cls, N: int, k: int) -> "Cyc":
        """zeta_N^k."""
        return cls(N, _reduced_power(N, k))

    @classmethod
    def from_vector(cls, N: int, vec) -> "Cyc":
        """Sum of a_i * zeta_N^i for a coefficient vector of length <= N."""
        out = cls.zero(N)
        for i, a in enumerate(vec):
            if a:
                out = out + cls.root(N, i) * Fraction(a)
        return out

    def _check(self, other: "Cyc"):
        if self.N != other.N:
            raise ValueError(f"mixed cyclotomic orders {self.N} and {other.N}")

    def __add__(self, other):
        if not isinstance(other, Cyc):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Cyc.rational(self.N, other)
        self._check(other)
        return Cyc._reduced(self.N, tuple(map(operator.add, self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyc._reduced(self.N, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(self.N, other)
        if not isinstance(other, Cyc):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Cyc):
            self._check(other)
            phi = cyclotomic_poly(self.N)
            prod = [0] * (2 * len(phi) - 3)  # both factors have deg Phi_N coefficients
            nonzero = [(j, b) for j, b in enumerate(other.coeffs) if b]
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in nonzero:
                        prod[i + j] += a * b
            return Cyc._reduced(self.N, tuple(_reduce_mod(prod, phi)))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        other = _norm_num(other)
        return Cyc._reduced(self.N, tuple(a * other for a in self.coeffs))

    __rmul__ = __mul__

    def conjugate(self) -> "Cyc":
        """Complex conjugation zeta -> zeta^{-1}."""
        out = Cyc.zero(self.N)
        for i, a in enumerate(self.coeffs):
            if a:
                out = out + Cyc.root(self.N, -i) * a
        return out

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.coeffs[0]) if self.coeffs else Fraction(0)

    def lift(self, M: int) -> "Cyc":
        """Embed into Q(zeta_M) for N | M via zeta_N = zeta_M^(M/N)."""
        if M % self.N:
            raise ValueError("target order must be a multiple")
        step = M // self.N
        out = Cyc.zero(M)
        for i, a in enumerate(self.coeffs):
            if a:
                out = out + Cyc.root(M, i * step) * a
        return out

    def __eq__(self, other):
        if isinstance(other, Cyc):
            return self.N == other.N and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.as_fraction() == other
        return NotImplemented

    def __hash__(self):
        return hash((self.N, self.coeffs))

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

    def _check(self, other: "CycSqrt"):
        if self.D != other.D or self.u.N != other.u.N:
            raise ValueError("mixed CycSqrt fields")

    def __add__(self, other: "CycSqrt") -> "CycSqrt":
        self._check(other)
        return CycSqrt(self.u + other.u, self.v + other.v, self.D)

    def __sub__(self, other: "CycSqrt") -> "CycSqrt":
        self._check(other)
        return CycSqrt(self.u - other.u, self.v - other.v, self.D)

    def __neg__(self) -> "CycSqrt":
        return CycSqrt(-self.u, -self.v, self.D)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycSqrt(self.u * other, self.v * other, self.D)
        if isinstance(other, Cyc):
            return CycSqrt(self.u * other, self.v * other, self.D)
        if not isinstance(other, CycSqrt):
            return NotImplemented
        self._check(other)
        # most entries have v = 0, so skip the products of a zero sqrt(D) part
        u = self.u * other.u
        v = self.v
        if any(other.v.coeffs):
            v = self.u * other.v
            if any(self.v.coeffs):
                u = u + (self.v * other.v) * self.D
                v = v + self.v * other.u
        elif any(self.v.coeffs):
            v = self.v * other.u
        return CycSqrt(u, v, self.D)

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return self.u.is_zero and self.v.is_zero
