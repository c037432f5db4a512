"""Exact real algebraic numbers.

Two representations cover everything downstream:

* ``Quadratic``: a + b*sqrt(D) with rational a, b and square-free D.  All
  arithmetic and comparisons are exact.  Canonical form: b == 0 forces D == 0,
  and b != 0 forces D >= 2 square-free, so structural equality is semantic
  equality.
* ``IsolatedRoot``: the unique real root of a square-free integer polynomial
  inside a rational interval with a sign change, irrational.  The public
  constructor verifies this; the library's own roots come from intervals
  that ``intpoly.isolate_real_roots`` certified, and are not checked again.

Comparisons of Quadratics, also across different D, are sign tests in
integer arithmetic.  Comparisons involving an IsolatedRoot are decided
exactly too: structural/gcd-based equality testing first, then interval
refinement, which terminates because distinct algebraic numbers separate.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Union

from . import intpoly
from .errors import InternalInvariantError
from .intpoly import Poly
from .numtheory import quad_sign, squarefree_part

DEFAULT_WIDTH = Fraction(1, 2**64)


def check_width(width) -> None:
    if width <= 0:
        raise ValueError(f"interval width {width} is not positive")


def _sqrt_interval(D: int, width: Fraction) -> tuple[Fraction, Fraction]:
    """Rational enclosure of sqrt(D) of the requested width."""
    if D == 0:
        return Fraction(0), Fraction(0)
    # the least k >= 1 with 2^-k < width, i.e. 2^k > floor(1 / width)
    scale = 1 << max(1, (width.denominator // width.numerator).bit_length())
    s = math.isqrt(D * scale * scale)
    lo = Fraction(s, scale)
    hi = Fraction(s + 1, scale)
    if lo * lo == D:
        hi = lo
    return lo, hi


class Quadratic:
    """Exact element a + b*sqrt(D) of a real quadratic field (or Q)."""

    __slots__ = ("a", "b", "D")

    def __init__(self, a, b=0, D: int = 0):
        for part in (a, b):
            if isinstance(part, bool) or not isinstance(part, (int, Fraction)):
                raise TypeError(f"quadratic parts are int or Fraction, not {type(part).__name__}")
        a = Fraction(a)
        b = Fraction(b)
        D = operator.index(D)
        if D < 0:
            raise ValueError("D must be nonnegative")
        if b != 0 and D > 1:
            dec = squarefree_part(D)
            D = dec.x
            b = b * dec.y
        if D <= 1 or b == 0:
            # sqrt(0) = 0, sqrt(1) = 1: fold into the rational part
            a = a + b * D
            b = Fraction(0)
            D = 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "D", D)

    @classmethod
    def _make(cls, a: Fraction, b: Fraction, D: int) -> "Quadratic":
        """a + b sqrt(D) for Fractions a, b and a D that is already 0 or
        square-free, as every Quadratic's is: nothing is factored, and only
        b == 0 is folded to D = 0."""
        out = object.__new__(cls)
        object.__setattr__(out, "a", a)
        object.__setattr__(out, "b", b)
        object.__setattr__(out, "D", D if b else 0)
        return out

    def __setattr__(self, *args):
        raise AttributeError("Quadratic is immutable")

    # -- predicates ------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def sign(self) -> int:
        return quad_sign(self.a, self.b, self.D)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Quadratic | None":
        if isinstance(other, Quadratic):
            if other.D == self.D or other.is_rational or self.is_rational:
                return other
            return None
        if isinstance(other, (int, Fraction)):
            return Quadratic(other)
        return None

    def _common_D(self, other: "Quadratic") -> int:
        return self.D if self.D else other.D

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quadratic._make(self.a + o.a, self.b + o.b, self._common_D(o))

    __radd__ = __add__

    def __neg__(self):
        return Quadratic._make(-self.a, -self.b, self.D)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        D = self._common_D(o)
        return Quadratic._make(self.a * o.a + self.b * o.b * D, self.a * o.b + self.b * o.a, D)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.a * o.a - o.b * o.b * (o.D if o.D else self.D)
        if norm == 0:
            raise ZeroDivisionError
        inv = Quadratic._make(o.a / norm, -o.b / norm, o.D)
        return self * inv

    def __rtruediv__(self, other):
        return Quadratic(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return Quadratic(1) / self ** (-n)
        out = Quadratic(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "Quadratic":
        return Quadratic._make(self.a, -self.b, self.D)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.a == other
        if isinstance(other, Quadratic):
            return self.a == other.a and self.b == other.b and self.D == other.D
        if isinstance(other, IsolatedRoot):
            return alg_cmp(self, other) == 0
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.a)
        # floor(4x), the key IsolatedRoot hashes by, so equal values hash
        # alike: 4x = (n + s sqrt(D)) / den, and s sqrt(D) is never an integer
        n = 4 * self.a.numerator * self.b.denominator
        s = 4 * self.b.numerator * self.a.denominator
        den = self.a.denominator * self.b.denominator
        r = math.isqrt(s * s * self.D)
        return hash((n + (r if s > 0 else -r - 1)) // den)

    def __lt__(self, other):
        return alg_cmp(self, other) < 0

    def __le__(self, other):
        return alg_cmp(self, other) <= 0

    def __gt__(self, other):
        return alg_cmp(self, other) > 0

    def __ge__(self, other):
        return alg_cmp(self, other) >= 0

    # -- misc ------------------------------------------------------------

    def interval(self, width: Fraction = DEFAULT_WIDTH) -> tuple[Fraction, Fraction]:
        check_width(width)
        if self.b == 0:
            return self.a, self.a
        if self.b > 0:
            w = width / (2 * self.b)
            slo, shi = _sqrt_interval(self.D, w)
            return self.a + self.b * slo, self.a + self.b * shi
        w = width / (-2 * self.b)
        slo, shi = _sqrt_interval(self.D, w)
        return self.a + self.b * shi, self.a + self.b * slo

    def min_poly(self) -> Poly:
        """Primitive integer minimal polynomial."""
        if self.is_rational:
            return intpoly.primitive((-self.a, Fraction(1)))
        tr = 2 * self.a
        nm = self.a * self.a - self.b * self.b * self.D
        return intpoly.primitive((nm, -tr, Fraction(1)))

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.D)

    def __repr__(self):
        if self.is_rational:
            return f"Quadratic({self.a})"
        return f"Quadratic({self.a} + {self.b}*sqrt({self.D}))"

    def __str__(self):
        if self.is_rational:
            return str(self.a)
        return f"{self.a}{'+' if self.b > 0 else '-'}{abs(self.b)}√{self.D}"


class IsolatedRoot:
    """Unique real root of a square-free integer polynomial in (lo, hi).

    Immutable, as Quadratic is: a narrower interval is computed on demand
    (interval) or held by a new root (narrowed), never stored in this one.
    The constructor checks every fact the class relies on; the library
    itself builds its roots with _certified, from intervals that
    isolate_real_roots certified.
    """

    __slots__ = ("poly", "_lo", "_hi")

    def __new__(cls, poly: Poly, lo: Fraction, hi: Fraction):
        poly = intpoly.primitive(poly)
        lo, hi = Fraction(lo), Fraction(hi)
        if intpoly.degree(poly) < 1:
            raise ValueError("constant polynomial has no roots")
        sf = intpoly.squarefree_part(poly)
        if sf != poly:
            raise ValueError("polynomial must be square-free")
        if not lo < hi:
            raise ValueError("empty isolating interval")
        if intpoly.poly_eval(poly, lo) == 0 or intpoly.poly_eval(poly, hi) == 0:
            raise ValueError("isolating interval endpoints must not be roots")
        chain = intpoly.sturm_chain(poly)
        if intpoly.count_real_roots(chain, lo, hi) != 1:
            raise ValueError("interval must isolate exactly one root")
        if intpoly._rational_root_in(poly, lo, hi) is not None:
            raise ValueError("the isolated root is rational; represent it exactly")
        return cls._certified(poly, lo, hi)

    def __setattr__(self, *args):
        raise AttributeError("IsolatedRoot is immutable")

    @classmethod
    def _certified(cls, poly: Poly, lo: Fraction, hi: Fraction) -> "IsolatedRoot":
        """The root in (lo, hi), one of the intervals that
        isolate_real_roots returned with poly, its square-free part: that
        call certified everything the constructor would check again."""
        out = object.__new__(cls)
        object.__setattr__(out, "poly", poly)
        object.__setattr__(out, "_lo", lo)
        object.__setattr__(out, "_hi", hi)
        return out

    def interval(self, width: Fraction = DEFAULT_WIDTH) -> tuple[Fraction, Fraction]:
        """The stored interval when it is at most width wide, else the cell
        of its bisection grid that intpoly.refine_interval narrows it to."""
        check_width(width)
        if self._hi - self._lo <= width:
            return self._lo, self._hi
        lo, hi = intpoly.refine_interval(self.poly, self._lo, self._hi, width)
        if lo == hi:
            raise InternalInvariantError("square-free isolation hit an exact rational root")
        return lo, hi

    def narrowed(self, width: Fraction) -> "IsolatedRoot":
        """This root with a stored interval at most width wide: self when
        its own already is."""
        if self._hi - self._lo <= width:
            return self
        return IsolatedRoot._certified(self.poly, *self.interval(width))

    def min_poly(self) -> Poly:
        """Defining polynomial: the square-free integer polynomial the root
        was isolated from, not always minimal (it may be reducible).  For a
        Perron root it is the square-free part of the Krylov minimal
        polynomial of N_i or M, which has the roots of the charpoly and so
        the same square-free part (proof in ring.fpdim_basis)."""
        return self.poly

    def sign(self) -> int:
        return alg_cmp(self, 0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Quadratic, IsolatedRoot)):
            return alg_cmp(self, other) == 0
        return NotImplemented

    def __hash__(self):
        # floor(4x), as Quadratic hashes; the root is irrational, so 4x is
        # not an integer and the loop ends
        lo, hi = self._lo, self._hi
        while math.floor(4 * lo) != math.floor(4 * hi):
            lo, hi = intpoly.refine_interval(self.poly, lo, hi, (hi - lo) / 2)
        return hash(math.floor(4 * lo))

    def __lt__(self, other):
        return alg_cmp(self, other) < 0

    def __le__(self, other):
        return alg_cmp(self, other) <= 0

    def __gt__(self, other):
        return alg_cmp(self, other) > 0

    def __ge__(self, other):
        return alg_cmp(self, other) >= 0

    def __float__(self):
        lo, hi = self.interval(Fraction(1, 2**56))
        return float((lo + hi) / 2)

    def __repr__(self):
        return f"IsolatedRoot({list(self.poly)}, ~{float(self):.6f})"


AlgebraicReal = Union[Quadratic, IsolatedRoot]


def ensure_algebraic(x) -> AlgebraicReal:
    if isinstance(x, (Quadratic, IsolatedRoot)):
        return x
    if isinstance(x, (int, Fraction)):
        return Quadratic(x)
    raise TypeError(f"not an exact real: {x!r}")


def _structural_eq(x: AlgebraicReal, y: AlgebraicReal) -> bool:
    """Exact equality when at least one of x, y is an IsolatedRoot (alg_cmp
    decides two Quadratics itself).

    An IsolatedRoot is irrational and the only root of its polynomial in its
    open interval, and neither endpoint is a root.  So a rational never
    equals it; an irrational Quadratic does iff it lies in the interval and
    its minimal polynomial divides the polynomial; and another IsolatedRoot
    does iff the gcd g of the two polynomials has a root in the intersection
    (lo, hi) of the intervals.  g divides a square-free polynomial with at
    most one root there, which is simple, and each of lo, hi is an endpoint
    of one of the intervals, so no root of g: g has a root in (lo, hi)
    exactly when it changes sign between them."""
    if isinstance(x, Quadratic):
        x, y = y, x
    if isinstance(y, Quadratic):
        return (
            not y.is_rational
            and _quad_in_open_interval(y, x._lo, x._hi)
            and not intpoly._prem(x.poly, y.min_poly())
        )
    lo, hi = max(x._lo, y._lo), min(x._hi, y._hi)
    if lo >= hi:
        return False
    g = intpoly.poly_gcd(x.poly, y.poly)
    return intpoly.sign_at(g, lo.numerator, lo.denominator) * intpoly.sign_at(g, hi.numerator, hi.denominator) < 0


def alg_cmp(x, y) -> int:
    """Total order on exact reals: -1, 0, or +1.

    Two Quadratics x = a1 + b1 sqrt(D1), y = a2 + b2 sqrt(D2), in one field
    or not, rational or not, are compared on their components: x - y = s - t
    with s = (a1 - a2) + b1 sqrt(D1) and t = b2 sqrt(D2).  Unequal signs of s
    and t decide; equal ones give s - t the sign of s times that of
    s^2 - t^2 = (a1 - a2)^2 + b1^2 D1 - b2^2 D2 + 2 (a1 - a2) b1 sqrt(D1),
    a sign test in Q(sqrt(D1)) that builds no Quadratic.
    """
    x = ensure_algebraic(x)
    y = ensure_algebraic(y)
    if isinstance(x, Quadratic) and isinstance(y, Quadratic):
        a = x.a - y.a
        s_sign = quad_sign(a, x.b, x.D)
        t_sign = (y.b > 0) - (y.b < 0)
        if s_sign != t_sign:
            return 1 if s_sign > t_sign else -1
        return s_sign * quad_sign(a * a + x.b * x.b * x.D - y.b * y.b * y.D, 2 * a * x.b, x.D)
    if _structural_eq(x, y):
        return 0
    width = Fraction(1, 16)
    while True:
        xlo, xhi = x.interval(width)
        ylo, yhi = y.interval(width)
        if xhi < ylo:
            return -1
        if yhi < xlo:
            return 1
        # not equal: refinement separates them
        width /= 256


def _exact_roots(
    sf: Poly, wanted: list[tuple[Fraction, Fraction]], intervals: list[tuple[Fraction, Fraction]]
) -> list[AlgebraicReal]:
    """The roots of sf in the `wanted` intervals, some of the `intervals`
    that isolate_real_roots returned with sf, which certified them: a
    Quadratic when a monic quadratic factor of sf owns it, else an
    IsolatedRoot refined below DEFAULT_WIDTH.  The conjugate of a promoted
    root is kept for the interval that holds it, which is not promoted
    again, so a pair of roots costs one promotion and one square-free D."""
    exact = {}
    for interval in wanted:
        if interval not in exact:
            found = _promote_quadratic(sf, *interval, intervals)
            exact.update(found or {interval: IsolatedRoot._certified(sf, *interval).narrowed(DEFAULT_WIDTH)})
    return [exact[interval] for interval in wanted]


def _promote_quadratic(
    poly: Poly, lo: Fraction, hi: Fraction, intervals: list[tuple[Fraction, Fraction]]
) -> dict | None:
    """Find a monic quadratic factor x^2 - t*x - u of poly owning the
    irrational root alpha in (lo, hi), and return alpha exactly, as
    {(lo, hi): alpha}, with {other: beta} added when the conjugate beta lies
    in the other interval that gave the factor.

    Only applies to monic poly (minimal polynomials of integer matrices),
    where quadratic algebraic numbers are quadratic algebraic integers.  The
    conjugate beta is then another irrational root of poly, so it lies in one
    of the other `intervals` (the isolating intervals of poly's irrational
    real roots, as isolate_real_roots returns them), and t = alpha + beta and
    u = alpha (alpha - t) are integers.  Every root lies in (-B, B), with
    B = 2 + max|c_i| (beyond the Cauchy bound).  With alpha's interval
    refined to width 1/(4B) and the other one to 1/4, the midpoints m, m' are
    within 1/(8B) and 1/8 of alpha and beta, so m + m' is within 1/2 of t,
    and m (m - t) = u + (m - alpha)(m + alpha - t) is within
    (1/(8B)) (1 + |alpha| + |beta|) < 1/2 of u.  And alpha is the larger
    root exactly when m > t/2, since |alpha - t/2| = sqrt(t^2 + 4u)/2 > 1/2.
    Each root pair thus gives one candidate (t, u) and one exact division,
    whatever the size of the roots; only the refinement grows, by O(log)
    steps, with the bits of B.  The exact division and the final interval
    tests make every answer sound: the factor's other root t - alpha is a
    root of poly, so it is the one isolated in an interval that holds it.
    """
    if poly[-1] != 1:
        return None
    interval = (lo, hi)
    others = [other for other in intervals if other != interval]
    lo, hi = intpoly.refine_interval(poly, lo, hi, Fraction(1, 4 * (2 + max(map(abs, poly[:-1])))))
    mid = (lo + hi) / 2
    for other in others:
        olo, ohi = intpoly.refine_interval(poly, *other, Fraction(1, 4))
        t = round(mid + (olo + ohi) / 2)
        u = round(mid * (mid - t))
        try:
            intpoly.poly_divexact(poly, (-u, -t, 1))
            # Quadratic refuses t^2 + 4u < 0: a factor without real roots
            cand = Quadratic(Fraction(t, 2), Fraction(1 if 2 * mid > t else -1, 2), t * t + 4 * u)
        except ValueError:
            continue
        if _quad_in_open_interval(cand, lo, hi):
            found = {interval: cand}
            beta = cand.conjugate()
            if _quad_in_open_interval(beta, olo, ohi):
                found[other] = beta
            return found
    return None


def _quad_in_open_interval(q: Quadratic, lo: Fraction, hi: Fraction) -> bool:
    return quad_sign(q.a - lo, q.b, q.D) > 0 and quad_sign(q.a - hi, q.b, q.D) < 0


def largest_real_root(poly: Poly) -> AlgebraicReal:
    """Largest real root of an integer polynomial (square-free part is taken).

    No rational root lies inside an isolating interval, so the order of
    the roots is read off isolation, and only an irrational largest root is
    built and promoted."""
    sf, rational, intervals = intpoly.isolate_real_roots(poly)
    if not rational and not intervals:
        raise ValueError("polynomial has no real roots")
    if intervals and (not rational or rational[-1] < intervals[-1][0]):
        return _exact_roots(sf, intervals[-1:], intervals)[0]
    return Quadratic(rational[-1])


def all_real_roots(poly: Poly) -> list[AlgebraicReal]:
    """All distinct real roots of an integer polynomial, ascending: as in
    largest_real_root, a rational root sorts before an interval exactly when
    it is below the interval's left end."""
    sf, rational, intervals = intpoly.isolate_real_roots(poly)
    roots = [(r, Quadratic(r)) for r in rational]
    roots += [(interval[0], root) for interval, root in zip(intervals, _exact_roots(sf, intervals, intervals))]
    return [root for _, root in sorted(roots, key=lambda entry: entry[0])]
