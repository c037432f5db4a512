"""Fusion rings as exact combinatorial objects.

A fusion ring is a finite basis with nonnegative integer structure constants
c[i,j,k], a unit at index 0, and a duality involution making the pairing
c[i,j,0] = delta(j, dual(i)) hold.  This module verifies those axioms,
computes Frobenius-Perron data exactly, and extracts the invertible-group /
orbit structure that the obstruction layer consumes.

A ring stores its structure constants once, as `rows`: nested tuples of
Python ints with rows[i][j][k] = c[i,j,k], so rows[i] is the fusion matrix
N_i and rows[i][j] the coefficient vector of the product of i and j.  Every
computation here reads `rows` with plain loops and exact integers; entries
are limited to |c| < 2^63.

All objects are immutable after construction and every operation is a pure
function, so concurrent use needs no locking.  Caches only memoize pure
results.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice, product
from operator import itemgetter
from typing import Sequence

from . import intpoly
from .algebraic import (
    DEFAULT_WIDTH,
    AlgebraicReal,
    IsolatedRoot,
    Quadratic,
    alg_cmp,
    largest_real_root,
)
from .errors import (
    InternalInvariantError,
    MalformedRingError,
    NotAFusionRingError,
    NotTwoOrbitError,
    ThetaInconsistentError,
)
from .groups import FiniteGroup


@dataclass(frozen=True)
class Violation:
    """One broken axiom, with the indices witnessing it."""

    axiom: str
    indices: tuple
    detail: str = ""

    def __str__(self):
        msg = f"{self.axiom} at {self.indices}"
        return f"{msg}: {self.detail}" if self.detail else msg


ENTRY_LIMIT = 2**63  # |c| < 2^63 for every structure constant: the int64 range


class FusionRing:
    """Basis labels, duality involution, and structure constants `rows`."""

    def __init__(self, labels: Sequence[str], dual: Sequence[int], tensor):
        labels = tuple(str(x) for x in labels)
        rank = len(labels)
        if rank < 1:
            raise MalformedRingError("rank must be at least 1")
        try:
            dual = tuple(dual)
        except TypeError as exc:
            raise MalformedRingError(f"dual must be a list of integers: {exc}")
        ints = tuple(map(_integer, dual))
        if None in ints:
            at = ints.index(None)
            raise MalformedRingError(f"dual entry {dual[at]!r} at {at} is not an integer")
        dual = ints
        if len(dual) != rank:
            raise MalformedRingError("dual length must equal rank")
        self.rows = _as_rows(tensor, rank)
        self.labels = labels
        self.rank = rank
        self.dual = dual
        self._cache: dict = {}

    @property
    def tensor(self):
        """A view for numpy-style callers: a read-only int64 array equal to
        `rows`, built on each access.  The library reads `rows`."""
        import numpy as np

        arr = np.array(self.rows, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    def fusion_matrix(self, i: int) -> tuple:
        """N_i = [c(i, j, k)]_{j,k}, the matrix of left multiplication by i."""
        if not 0 <= i < self.rank:
            raise IndexError(f"basis index {i} out of range")
        return self.rows[i]

    def __repr__(self):
        return f"FusionRing(rank={self.rank}, labels={list(self.labels)})"

    # memoized axiom check; pure, so races at worst recompute
    def violations(self) -> list[Violation]:
        if "violations" not in self._cache:
            self._cache["violations"] = verify_axioms(self)
        return self._cache["violations"]

    def require_verified(self):
        v = self.violations()
        if v:
            raise NotAFusionRingError(v)


def _as_rows(tensor, rank: int) -> tuple:
    """tensor (nested sequences or a numpy array) as rows of ints, checked for
    shape (rank, rank, rank), integral entries and |c| < ENTRY_LIMIT."""
    if hasattr(tensor, "tolist"):  # numpy array
        tensor = tensor.tolist()

    def part(seq, at: str):
        if not isinstance(seq, (list, tuple)) or len(seq) != rank:
            raise MalformedRingError(f"tensor shape is not {(rank,) * 3}: tensor{at} is not a list of {rank}")
        return seq

    def row_of(i: int, j: int, row) -> tuple:
        row = part(row, f"[{i}][{j}]")
        if all(type(c) is int for c in row) and -ENTRY_LIMIT < min(row) and max(row) < ENTRY_LIMIT:
            return tuple(row)
        return tuple(_entry(c, (i, j, k)) for k, c in enumerate(row))

    return tuple(
        tuple(row_of(i, j, row) for j, row in enumerate(part(mat, f"[{i}]")))
        for i, mat in enumerate(part(tensor, ""))
    )


def _integer(c) -> int | None:
    """c as an int when it is integral (integral floats included, bool and
    str not), else None."""
    if not isinstance(c, numbers.Real) or isinstance(c, bool):
        return None
    try:
        v = int(c)
    except (OverflowError, ValueError):  # inf, nan
        return None
    return v if v == c else None


def _entry(c, at: tuple) -> int:
    """c as an int when it is integral (see _integer) and below ENTRY_LIMIT
    in size."""
    v = _integer(c)
    if v is None:
        raise MalformedRingError(f"tensor entry {c!r} at {at} is not an integer")
    if abs(v) >= ENTRY_LIMIT:
        raise MalformedRingError(f"tensor entry at {at} is outside the limit |c| < 2^63")
    return v


def verify_axioms(ring: FusionRing) -> list[Violation]:
    """Every violated fusion-ring axiom, with witnesses; empty iff valid.
    Witnesses come in index order, at most 20 per axiom.

    Associativity is checked at first only for left factors i in {0} + S,
    with S the generating set that peeling certifies (`_generators`), and
    that is exactly as strong as checking every i.  Let A = {a : (a b) c =
    a (b c) for all b, c}.  A is a subspace, and it is closed under
    products: for a, a' in A, ((a a') b) c = (a (a' b)) c = a ((a' b) c) =
    a (a' (b c)) = (a a') (b c), using a in A three times and a' in A
    once.  The first pass puts b_0 and every generator in A, so A holds the
    algebra they generate, which is the whole ring.  Neither associativity,
    commutativity nor a unit axiom is assumed: b_0 is itself a checked left
    factor.  Only when that pass finds a failure are all rank^2 pairs (i, j)
    scanned, so the witnesses are the same as the full scan's."""
    t = ring.rows
    n = ring.rank
    d = ring.dual
    square = partial(product, range(n), repeat=2)
    out: list[Violation] = []

    def report(axiom: str, witnesses) -> None:
        out.extend(Violation(axiom, idx, detail) for idx, detail in islice(witnesses, 20))

    negative = ((i, j, row) for i, mat in enumerate(t) for j, row in enumerate(mat) if min(row) < 0)
    report("nonnegativity", (((i, j, k), f"c={c}") for i, j, row in negative for k, c in enumerate(row) if c < 0))
    report("unit-left", (((0, j, k), f"c={t[0][j][k]}") for j, k in square() if t[0][j][k] != (j == k)))
    report("unit-right", (((i, 0, k), f"c={t[i][0][k]}") for i, k in square() if t[i][0][k] != (i == k)))

    if sorted(d) != list(range(n)):
        out.append(Violation("dual-permutation", tuple(d), "not a permutation"))
        return out  # the remaining checks need a valid involution
    for i in range(n):
        if d[d[i]] != i:
            out.append(Violation("dual-involution", (i,), f"dual(dual({i}))={d[d[i]]}"))
    if d[0] != 0:
        out.append(Violation("dual-fixes-unit", (0,), f"dual(0)={d[0]}"))

    # pairing c[i,j,0] = 1 iff j = dual(i)
    report("duality-pairing", (((i, j, 0), f"c={t[i][j][0]}") for i, j in square() if t[i][j][0] != (j == d[i])))
    # anti-involution c[i,j,k] = c[dual(j),dual(i),dual(k)]: row (i, j)
    # against row (dual j, dual i) permuted by dual, expanded only on a
    # mismatch (at rank 1 itemgetter gives a bare int, so the row expands)
    permuted = itemgetter(*d)
    report(
        "anti-involution",
        (
            ((i, j, k), f"c={t[i][j][k]} vs dual {t[d[j]][d[i]][d[k]]}")
            for i, j in square()
            if t[i][j] != permuted(t[d[j]][d[i]])
            for k in range(n)
            if t[i][j][k] != t[d[j]][d[i]][d[k]]
        ),
    )
    if next(_associativity_witnesses(t, (0, *_generators(ring))), None) is not None:
        report("associativity", _associativity_witnesses(t, range(n)))
    return out


def _associativity_witnesses(t: tuple, lefts):
    """((i, j, k, l), detail) wherever (b_i b_j) b_k and b_i (b_j b_k) differ
    at b_l, for i in lefts, in index order.

    With digits of B bits, pack each row of a left factor i as
    P[i][m] = sum_l c[i,m,l] 2^(B l) and each N_m as
    W[m] = sum_{k,l} c[m,k,l] 2^(B (rank k + l)).  Digit (k, l) of
    sum_m c[i,j,m] W[m] is the coefficient of b_l in (b_i b_j) b_k, and of
    sum_{k,m} c[j,k,m] P[i][m] 2^(B rank k) the one in b_i (b_j b_k).  Both
    are at most rank * cmax^2 in size, so with B = bit_length(2 rank
    cmax^2 + 1) the digits of the difference lie below 2^B in size: the two
    integers are equal exactly when every coefficient is.  Only a failing
    (i, j) is expanded coefficient by coefficient."""
    n = len(t)
    cmax = max(max(max(row), -min(row)) for mat in t for row in mat)
    bits = (2 * n * cmax * cmax + 1).bit_length()
    wide = [sum(c << (bits * (n * k + l)) for k, row in enumerate(mat) for l, c in enumerate(row) if c) for mat in t]
    nonzero = [[[(m, c) for m, c in enumerate(row) if c] for row in mat] for mat in t]
    terms = [[(bits * n * k, m, c) for k, jk in enumerate(mat) for m, c in jk] for mat in nonzero]
    for i in lefts:
        packed = [sum(c << (bits * l) for l, c in enumerate(row) if c) for row in t[i]]
        for j in range(n):
            ij = nonzero[i][j]
            if sum(c * wide[m] for m, c in ij) == sum(c * packed[m] << s for s, m, c in terms[j]):
                continue
            for k, l in product(range(n), repeat=2):
                left = sum(c * t[m][k][l] for m, c in ij)
                right = sum(c * t[i][m][l] for m, c in nonzero[j][k])
                if left != right:
                    yield (i, j, k, l), f"{left} != {right}"


def algebra_generators(ring: FusionRing) -> tuple[int, ...]:
    """Basis indices S such that b_0 and S generate the ring as a Q-algebra
    (see `_generators`)."""
    ring.require_verified()
    return _generators(ring)


def _generators(ring: FusionRing) -> tuple[int, ...]:
    """Greedy generating set, certified by peeling, of any ring whose
    product is bilinear: no axiom is assumed, so `verify_axioms` can use it.

    Let K ("known") start as {0}.  Whenever b_s b_a, with s in S and a in
    K, has exactly one basis term b_k with k not in K, then b_k = (b_s b_a -
    sum of its known terms) / c_sak lies in the algebra that {b_0} and S
    generate, since b_s, b_a and every known term do; so k joins K.  When no
    product peels, the least index outside K joins S (and K).  Every element
    of K is thus in that algebra, and the loop ends with K the whole basis.
    Only integer supports are read; the result is kept in ring._cache."""
    if "generators" in ring._cache:
        return ring._cache["generators"]
    n = ring.rank
    support = [[[k for k, c in enumerate(row) if c] for row in mat] for mat in ring.rows]
    known = [True] + [False] * (n - 1)
    order = [0]  # the known indices, in the order they became known
    gens: list[int] = []
    while len(order) < n:
        s = known.index(False)
        gens.append(s)
        known[s] = True
        order.append(s)
        peeled = True
        while peeled:
            peeled = False
            for g in gens:
                for a in order:  # grows while it is scanned, which is intended
                    unknown = [k for k in support[g][a] if not known[k]]
                    if len(unknown) == 1:
                        known[unknown[0]] = True
                        order.append(unknown[0])
                        peeled = True
    ring._cache["generators"] = tuple(gens)
    return ring._cache["generators"]


def fpdim_basis(ring: FusionRing, i: int, width: Fraction = DEFAULT_WIDTH) -> AlgebraicReal:
    """Frobenius-Perron dimension of basis element i, 0 <= i < rank: the
    largest real eigenvalue of N_i, exact (Quadratic when its minimal
    polynomial has degree <= 2, IsolatedRoot otherwise).

    It is the largest root of the Krylov polynomial p of e_0 under N_i.  Row
    j of N_i is the product b_i b_j, so e_0 N_i^k is b_i^k and p is the least
    polynomial with p(b_i) = 0.  require_verified guarantees a unit and
    associativity, so p(L_x) = L_{p(x)} for left multiplication L_x, and
    p(b_i) = 0 exactly when p(L_{b_i}) = 0 (apply it to b_0): p is the
    minimal polynomial of N_i.  It has the same roots as the charpoly, so
    the square-free part, which is all that largest_real_root reads, and
    the printed value are those of the charpoly.  The defining polynomial
    of an IsolatedRoot is that square-free part, not always minimal.

    Elements often share p (13 noninvertible elements of SU(2)_14 have 9
    polynomials, those of Haagerup-Izumi rings one), so the root is
    isolated, promoted and refined once per polynomial (_polynomial_root),
    and each index gets its own copy of it."""
    if not 0 <= i < ring.rank:
        raise ValueError(f"basis index {i} is outside [0, {ring.rank})")
    ring.require_verified()

    def compute(w: Fraction) -> AlgebraicReal:
        if is_invertible(ring, i):
            return Quadratic(1)
        result = _polynomial_root(ring, intpoly.krylov(ring.rows[i])[0], w)
        if alg_cmp(result, 1) < 0:
            raise InternalInvariantError("FP dimension below 1")
        return result

    return _cached_root(ring, ("fpdim", i), compute, width)


def fpdim_all(ring: FusionRing) -> list[AlgebraicReal]:
    return [fpdim_basis(ring, i) for i in range(ring.rank)]


def fpdim_total(ring: FusionRing, width: Fraction = DEFAULT_WIDTH) -> AlgebraicReal:
    """Sum of squared FP dimensions, computed exactly as the largest
    eigenvalue of M = sum_i N_i N_i^T (the global FP character value).

    M is symmetric, hence diagonalizable, so its minimal polynomial is the
    square-free part of its charpoly; that is the Krylov polynomial of e_0
    (see fpdim_basis), since M is left multiplication by R = sum_x x x*
    (see global_multiplication_matrix)."""
    ring.require_verified()

    def compute(w: Fraction) -> AlgebraicReal:
        return _polynomial_root(ring, global_krylov(ring)[1], w)

    return _cached_root(ring, "fpdim_total", compute, width)


def _cached_root(ring: FusionRing, key, compute, width: Fraction) -> AlgebraicReal:
    """The root compute(DEFAULT_WIDTH), kept in ring._cache[key], or
    compute(width) afresh for any other width.

    The cached root is not refined to a narrower width, since reports print
    its interval.  A fresh root is refined from the same isolating interval
    to the same cell of the same bisection grid (intpoly.refine_interval),
    so it ends on the interval that refining a copy of the cached root
    would give.  compute itself reads the root of its polynomial from
    _polynomial_root, which keys the cache by polynomial."""
    if width != DEFAULT_WIDTH:
        return compute(width)
    if key not in ring._cache:
        ring._cache[key] = compute(DEFAULT_WIDTH)
    return ring._cache[key]


def _polynomial_root(ring: FusionRing, poly, width: Fraction) -> AlgebraicReal:
    """largest_real_root(poly, width), with the DEFAULT_WIDTH root computed
    once per polynomial and kept in ring._cache[("root", poly)].

    Each call gets its own IsolatedRoot, a copy of the cached interval, so
    that narrowing one root in place never changes what another prints."""
    if width != DEFAULT_WIDTH:
        return largest_real_root(poly, width)
    key = ("root", poly)
    if key not in ring._cache:
        ring._cache[key] = largest_real_root(poly)
    root = ring._cache[key]
    if isinstance(root, IsolatedRoot):
        return IsolatedRoot._certified(root.poly, *root.interval())
    return root


def global_multiplication_matrix(ring: FusionRing) -> list[list[int]]:
    """Matrix of multiplication by R = sum_x x x* (symmetric, PSD):
    M[j][k] = sum_{x,l} c[x,j,l] c[x,k,l], summed over the nonzeros of each
    column l of each N_x.

    Row j is the product R b_j on a verified ring: its b_k coefficient is
    sum_{x,l} c[x*,j,l] c[x,l,k], and Frobenius reciprocity c[x,l,k] =
    c[x*,k,l] with x -> x* turns that into M[j][k]."""
    n = ring.rank
    m = [[0] * n for _ in range(n)]
    for mat in ring.rows:
        for l in range(n):
            col = [(j, row[l]) for j, row in enumerate(mat) if row[l]]
            for j, a in col:
                for k, b in col:
                    m[j][k] += a * b
    return m


def global_krylov(ring: FusionRing) -> tuple:
    """(M, mp, powers): M = global_multiplication_matrix(ring) and
    (mp, powers) = intpoly.krylov(M), computed once per ring and kept in
    ring._cache; fpdim_total and represent.codegree_spectrum both read it."""
    if "global_krylov" not in ring._cache:
        m = global_multiplication_matrix(ring)
        ring._cache["global_krylov"] = (m, *intpoly.krylov(m))
    return ring._cache["global_krylov"]


def is_invertible(ring: FusionRing, i: int) -> bool:
    """x invertible iff x x* = 1 on the nose."""
    row = ring.rows[i][ring.dual[i]]
    return row[0] == 1 and not any(row[1:])


@dataclass(frozen=True)
class InvertibleGroup:
    """The group of invertible basis elements, carried on basis indices."""

    indices: tuple[int, ...]
    group: FiniteGroup  # table positions follow `indices`

    @property
    def order(self) -> int:
        return len(self.indices)


def invertibles(ring: FusionRing) -> InvertibleGroup:
    ring.require_verified()
    if "invertibles" in ring._cache:
        return ring._cache["invertibles"]
    idx = tuple(i for i in range(ring.rank) if is_invertible(ring, i))
    pos = {g: p for p, g in enumerate(idx)}
    table = []
    for g in idx:
        row = []
        for h in idx:
            prods = [k for k, c in enumerate(ring.rows[g][h]) if c]
            if len(prods) != 1 or prods[0] not in pos:
                raise NotAFusionRingError(
                    [Violation("invertible-closure", (g, h), "product not invertible")]
                )
            row.append(pos[prods[0]])
        table.append(row)
    for g in idx:
        if ring.dual[g] not in pos:
            raise NotAFusionRingError(
                [Violation("invertible-dual-closure", (g,), "dual not invertible")]
            )
    result = InvertibleGroup(idx, FiniteGroup(table, names=[ring.labels[g] for g in idx]))
    ring._cache["invertibles"] = result
    return result


@dataclass(frozen=True)
class OrbitStructure:
    """Orbits of the invertible group acting on the basis by multiplication."""

    left_orbits: tuple[tuple[int, ...], ...]
    right_orbits: tuple[tuple[int, ...], ...]
    stabilizers: tuple[tuple[int, ...] | None, ...]  # common left stabilizer per left orbit

    @property
    def orbit_count(self) -> int:
        return len(self.left_orbits)


def _action_permutation(ring: FusionRing, g: int, side: str) -> list[int]:
    """Permutation of the basis given by left (g.x) or right (x.g) product."""
    t = ring.rows
    perm = []
    for x in range(ring.rank):
        row = t[g][x] if side == "left" else t[x][g]
        nz = [k for k, c in enumerate(row) if c]
        if len(nz) != 1 or row[nz[0]] != 1:
            raise NotAFusionRingError(
                [Violation("invertible-action", (g, x), "product by invertible not a basis element")]
            )
        perm.append(nz[0])
    return perm


def orbit_structure(ring: FusionRing) -> OrbitStructure:
    ring.require_verified()
    if "orbits" in ring._cache:
        return ring._cache["orbits"]
    inv = invertibles(ring)
    left = {g: _action_permutation(ring, g, "left") for g in inv.indices}
    right = {g: _action_permutation(ring, g, "right") for g in inv.indices}

    def orbits_of(perms):
        seen: set[int] = set()
        orbits = []
        for x in range(ring.rank):
            if x in seen:
                continue
            orb = sorted({perm[x] for perm in perms.values()} | {x})
            # invertible action partitions the basis; orbit of x is its images
            seen.update(orb)
            orbits.append(tuple(orb))
        return tuple(orbits)

    left_orbits = orbits_of(left)
    right_orbits = orbits_of(right)
    elem_stab = {
        x: tuple(g for g in inv.indices if left[g][x] == x) for x in range(ring.rank)
    }
    stabs: list[tuple[int, ...] | None] = []
    for orb in left_orbits:
        common = {elem_stab[x] for x in orb}
        stabs.append(elem_stab[orb[0]] if len(common) == 1 else None)
    result = OrbitStructure(left_orbits, right_orbits, tuple(stabs))
    ring._cache["orbits"] = result
    return result


@dataclass(frozen=True)
class DimensionProfile:
    """Shape of the FP-dimension spectrum when it is {1} or {1, d}."""

    is_two_dimension: bool
    d: AlgebraicReal | None = None
    r: int | None = None
    s: int | None = None
    d_is_rational: bool | None = None


def dimension_profile(ring: FusionRing) -> DimensionProfile | None:
    """Profile (d, r, s) with d*d = r*d + s read off x x* for the smallest
    noninvertible x.  Returns a profile with is_two_dimension=False for
    pointed rings, and None when three or more distinct dimensions occur."""
    ring.require_verified()
    if "profile" in ring._cache:
        return ring._cache["profile"]
    noninv = [i for i in range(ring.rank) if not is_invertible(ring, i)]
    if not noninv:
        result: DimensionProfile | None = DimensionProfile(False)
    else:
        dims = {i: fpdim_basis(ring, i) for i in noninv}
        d0 = dims[noninv[0]]
        if any(alg_cmp(dims[i], d0) != 0 for i in noninv[1:]):
            result = None
        else:
            x = noninv[0]
            row = ring.rows[x][ring.dual[x]]
            s = sum(row[g] for g in range(ring.rank) if is_invertible(ring, g))
            r = sum(row[y] for y in noninv)
            # d solves d^2 = r d + s, so it is quadratic and the Perron
            # promotion must have produced an exact Quadratic
            if not isinstance(d0, Quadratic):
                raise InternalInvariantError("two-dimension Perron root not promoted")
            if (d0 * d0 - r * d0 - s).sign() != 0:
                raise InternalInvariantError("two-dimension Perron root does not solve d^2 = r d + s")
            result = DimensionProfile(True, d0, r, s, d0.is_rational)
    ring._cache["profile"] = result
    return result


@dataclass(frozen=True)
class TwoOrbitData:
    """Extracted structure of a two-orbit ring: the invertible group G, the
    common stabilizer H of the noninvertible orbit, the coset involution
    theta, and the uniform coefficient when the rules are uniform."""

    invertible: InvertibleGroup
    stabilizer: tuple[int, ...]  # basis indices, subset of invertible.indices
    cosets: tuple[tuple[int, ...], ...]  # G/H as basis-index cosets, rep = min
    theta: tuple[int, ...] | None  # permutation of coset positions (abelian G/H)
    theta_family: dict[int, tuple[int, ...]] | None  # per noninvertible x otherwise
    uniform_coeff: int | None  # kappa in  x x* = sum_H h + kappa * sum_y y
    uniform_k: int | None  # kappa / |H| when integral (level divisor)
    noninv_selfdual: bool

    @property
    def group_indices(self) -> tuple[int, ...]:
        return self.invertible.indices


def _theta_for(ring: FusionRing, inv: InvertibleGroup, cosets, x: int) -> tuple[int, ...]:
    """theta_x on coset positions: g' x = x g defines theta_x(coset g) = coset g'."""
    t = ring.rows
    coset_of = {}
    for pos, coset in enumerate(cosets):
        for g in coset:
            coset_of[g] = pos
    theta = [None] * len(cosets)
    for pos, coset in enumerate(cosets):
        g = coset[0]
        nz = [k for k, c in enumerate(t[x][g]) if c]
        if len(nz) != 1:
            raise InternalInvariantError("noninvertible times invertible is not a basis element")
        xg = nz[0]
        gprime = None
        for h in inv.indices:
            if t[h][x][xg] == 1:
                gprime = h
                break
        if gprime is None:
            raise NotTwoOrbitError("right action leaves the left orbit")
        theta[pos] = coset_of[gprime]
    return tuple(theta)


def two_orbit_data(ring: FusionRing) -> TwoOrbitData:
    ring.require_verified()
    if "two_orbit" in ring._cache:
        return ring._cache["two_orbit"]
    orbits = orbit_structure(ring)
    if orbits.orbit_count != 2:
        raise NotTwoOrbitError(f"{orbits.orbit_count} orbits, need exactly 2")
    inv = invertibles(ring)
    noninv_orbit = next(o for o in orbits.left_orbits if o[0] not in inv.indices)
    stab = orbits.stabilizers[orbits.left_orbits.index(noninv_orbit)]
    if stab is None:
        raise ThetaInconsistentError("noninvertible stabilizers differ across the orbit")

    pos = {g: p for p, g in enumerate(inv.indices)}
    stab_pos = [pos[g] for g in stab]
    cosets_pos = inv.group.left_cosets(stab_pos)
    cosets = tuple(tuple(inv.indices[p] for p in c) for c in cosets_pos)
    quotient, _ = inv.group.quotient(stab_pos)

    thetas = {x: _theta_for(ring, inv, cosets, x) for x in noninv_orbit}
    x0 = noninv_orbit[0]
    theta0 = thetas[x0]
    if quotient.is_abelian:
        for x, th in thetas.items():
            if th != theta0:
                raise ThetaInconsistentError(
                    f"coset involution differs between elements {x0} and {x}"
                )
        comp = tuple(theta0[theta0[p]] for p in range(len(theta0)))
        if comp != tuple(range(len(theta0))):
            raise ThetaInconsistentError("coset involution does not square to identity")
        theta: tuple[int, ...] | None = theta0
        family = None
    else:
        theta = None
        family = thetas

    # uniform test: x x* = sum_{h in H} h + kappa * sum_{noninv} y, single kappa,
    # same for every x in the orbit; requires abelian G/H
    uniform_coeff: int | None = None
    if quotient.is_abelian:
        kappas = set()
        ok = True
        for x in noninv_orbit:
            row = ring.rows[x][ring.dual[x]]
            for g in inv.indices:
                if row[g] != (1 if g in stab else 0):
                    ok = False
            vals = {row[y] for y in noninv_orbit}
            if len(vals) != 1:
                ok = False
            else:
                kappas.update(vals)
        if ok and len(kappas) == 1:
            uniform_coeff = kappas.pop()
    uniform_k = None
    if uniform_coeff is not None and uniform_coeff % len(stab) == 0:
        uniform_k = uniform_coeff // len(stab)

    selfdual = all(ring.dual[x] == x for x in noninv_orbit)
    result = TwoOrbitData(
        invertible=inv,
        stabilizer=stab,
        cosets=cosets,
        theta=theta,
        theta_family=family,
        uniform_coeff=uniform_coeff,
        uniform_k=uniform_k,
        noninv_selfdual=selfdual,
    )
    ring._cache["two_orbit"] = result
    return result


def noninvertible_indices(ring: FusionRing) -> list[int]:
    ring.require_verified()
    return [i for i in range(ring.rank) if not is_invertible(ring, i)]


def is_commutative(ring: FusionRing) -> bool:
    t = ring.rows
    return all(t[i][j] == t[j][i] for i in range(ring.rank) for j in range(i))

