"""Fusion rings as exact combinatorial objects.

A fusion ring is a finite basis with nonnegative integer structure constants
c[i,j,k], a unit at index 0, and a duality involution making the pairing
c[i,j,0] = delta(j, dual(i)) hold.  This module verifies those axioms,
computes Frobenius-Perron data exactly, and extracts the invertible-group /
orbit structure that the obstruction layer consumes.

A ring stores its structure constants once, as their nonzeros: rows[i][j],
the product of i and j, is the tuple of (k, c) pairs with c = c[i,j,k] != 0,
in ascending k, and rows[i] is N_i.  Builders hand the pairs over; a dense
tensor is checked cell by cell and only its nonzeros are kept.  Every
computation here reads the pairs, with plain loops and exact integers;
entries are limited to |c| < 2^63.  `fusion_matrix` and `tensor` are dense
views, built on demand.

All objects are immutable after construction and every operation is a pure
function, so concurrent use needs no locking.  What a ring derives is kept
by one memo, `_memo`: computed once per ring; callers get their own lists,
so clearing a returned list changes no later result.  The axiom verdict
(`verify_axioms`) is one of those facts; builders' rings get it as they are
made, and every guard (`require_verified`) reads it from the memo.  Each fact
of a verified ring (the invertibles, the orbits, the dimension profile, ...)
is one function under `_fact`: the guard, then the memo, keyed by the
function itself.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, wraps
from itertools import compress, islice, product
from typing import Sequence

from . import intpoly
from .algebraic import (
    DEFAULT_WIDTH,
    AlgebraicReal,
    Quadratic,
    alg_cmp,
    check_width,
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

# The largest rank that a builder or a ring file may give, checked before
# anything of that size is built.  Building and verifying cost the nonzeros:
# rank^2 for group rings and near-groups, about rank^3 / 8 for Haagerup-Izumi
# rings; ring files stay dense.  Measured at rank 200 (child wall time and
# peak RSS, start-up included, 2-CPU Xeon): build group 1.1-1.4 s and 119 MB,
# build neargroup 1.2-1.5 s and 119 MB, build haagerup-izumi 2.3-3.3 s and
# 127 MB, build uniform over C10 x C10 2.5-3.2 s and 127 MB.
RANK_LIMIT = 200


def _check_rank(rank: int) -> None:
    if rank > RANK_LIMIT:
        raise MalformedRingError(f"rank {rank} is above the limit {RANK_LIMIT}")


class FusionRing:
    """Basis labels, duality involution, and structure constants `rows`;
    immutable, so no memoized fact can go stale."""

    __slots__ = ("labels", "rank", "dual", "rows", "_cache")

    def __init__(self, labels: Sequence[str], dual: Sequence[int], tensor):
        self._set_basis(labels, dual)
        object.__setattr__(self, "rows", _as_rows(tensor, self.rank))

    @classmethod
    def _of_nonzeros(cls, labels: Sequence[str], dual: Sequence[int], rows) -> "FusionRing":
        """The verified ring with these rows of (k, c) pairs, in ascending k
        with c a nonzero int, as builders write them: only `_entry` checks
        them before `verify_axioms`."""
        ring = cls.__new__(cls)
        ring._set_basis(labels, dual)
        object.__setattr__(ring, "rows", tuple(map(tuple, rows)))
        if max((abs(c) for mat in ring.rows for row in mat for _, c in row), default=0) >= ENTRY_LIMIT:
            for i, j in product(range(ring.rank), repeat=2):  # the first one, in index order
                for k, c in ring.rows[i][j]:
                    _entry(c, (i, j, k))
        ring.require_verified()
        return ring

    def __setattr__(self, *args):
        raise AttributeError("FusionRing is immutable")

    def _set_basis(self, labels, dual) -> None:
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
        for name, value in (("labels", labels), ("rank", rank), ("dual", dual), ("_cache", {})):
            object.__setattr__(self, name, value)

    @property
    def tensor(self):
        """A dense view for numpy-style callers: a read-only int64 array of
        c[i,j,k], built on each access.  The library reads `rows`."""
        import numpy as np

        arr = np.array([[_dense(row, self.rank) for row in mat] for mat in self.rows], dtype=np.int64)
        arr.setflags(write=False)
        return arr

    def fusion_matrix(self, i: int) -> tuple:
        """N_i = [c(i, j, k)]_{j,k}, the matrix of left multiplication by i."""
        if not 0 <= i < self.rank:
            raise IndexError(f"basis index {i} out of range")
        return tuple(tuple(_dense(row, self.rank)) for row in self.rows[i])

    def __repr__(self):
        return f"FusionRing(rank={self.rank}, labels={list(self.labels)})"

    def require_verified(self):
        v = _memo(self, "violations", partial(_violations, self))
        if v:
            raise NotAFusionRingError(v)


def _memo(ring: FusionRing, key, compute):
    """compute(), computed once per ring and kept under key.  compute must
    be pure, so a race at worst computes it twice.  The kept object is
    shared, so a caller that returns a list returns a new one."""
    if key not in ring._cache:
        ring._cache[key] = compute()
    return ring._cache[key]


def _fact(compute, handout=lambda kept: kept):
    """The fact compute(ring) of a verified ring: the guard, then compute
    once per ring, kept under compute itself; each call returns
    handout(kept)."""

    @wraps(compute)
    def fact(ring: FusionRing):
        ring.require_verified()
        return handout(_memo(ring, compute, partial(compute, ring)))

    return fact


def _dense(pairs, rank: int) -> list:
    """The coefficient list of the sum of the (k, c) pairs."""
    out = [0] * rank
    for k, c in pairs:
        out[k] += c
    return out


def _as_rows(tensor, rank: int) -> tuple:
    """The nonzeros of tensor (nested sequences or a numpy array), checked
    for shape (rank, rank, rank) and, cell by cell, by `_entry`."""
    if hasattr(tensor, "tolist"):  # numpy array
        tensor = tensor.tolist()

    def part(seq, at: str):
        if not isinstance(seq, (list, tuple)) or len(seq) != rank:
            raise MalformedRingError(f"tensor shape is not {(rank,) * 3}: tensor{at} is not a list of {rank}")
        return seq

    def row_of(i: int, j: int, row) -> tuple:
        row = part(row, f"[{i}][{j}]")
        if not (set(map(type, row)) == {int} and -ENTRY_LIMIT < min(row) and max(row) < ENTRY_LIMIT):
            row = [_entry(c, (i, j, k)) for k, c in enumerate(row)]
        return tuple(compress(enumerate(row), row))

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
    Witnesses come in index order, at most 20 per axiom.  Associativity is
    checked for the generators first, and for b_0 too when the unit-left
    axiom fails (`_generator_first`).  Computed once per ring; each call gets its own list."""
    return list(_memo(ring, "violations", partial(_violations, ring)))


def _violations(ring: FusionRing) -> list[Violation]:
    t = ring.rows
    n = ring.rank
    d = ring.dual
    out: list[Violation] = []

    def report(axiom: str, witnesses) -> None:
        out.extend(Violation(axiom, idx, detail) for idx, detail in islice(witnesses, 20))

    def differ(i: int, j: int, want: tuple) -> list:
        """(k, c[i,j,k], coefficient k of want) where row (i, j) and want differ"""
        if t[i][j] == want:
            return []
        return [(k, a, b) for k, (a, b) in enumerate(zip(_dense(t[i][j], n), _dense(want, n))) if a != b]

    report("nonnegativity", (((i, j, k), f"c={c}") for i, mat in enumerate(t) for j, row in enumerate(mat) for k, c in row if c < 0))
    report("unit-left", (((0, j, k), f"c={a}") for j in range(n) for k, a, _ in differ(0, j, ((j, 1),))))
    report("unit-right", (((i, 0, k), f"c={a}") for i in range(n) for k, a, _ in differ(i, 0, ((i, 1),))))

    if sorted(d) != list(range(n)):
        out.append(Violation("dual-permutation", tuple(d), "not a permutation"))
        return out  # the remaining checks need a valid involution
    for i in range(n):
        if d[d[i]] != i:
            out.append(Violation("dual-involution", (i,), f"dual(dual({i}))={d[d[i]]}"))
    if d[0] != 0:
        out.append(Violation("dual-fixes-unit", (0,), f"dual(0)={d[0]}"))

    # pairing c[i,j,0] = 1 iff j = dual(i): c[i,j,0] is in the first pair
    at_unit = ((i, j, row[0][1] if row and row[0][0] == 0 else 0) for i, mat in enumerate(t) for j, row in enumerate(mat))
    report("duality-pairing", (((i, j, 0), f"c={c}") for i, j, c in at_unit if c != (j == d[i])))
    # anti-involution c[i,j,k] = c[dual(j),dual(i),dual(k)]: row (i, j)
    # against row (dual j, dual i) with each dual(k) moved to k
    moved = sorted(range(n), key=d.__getitem__)  # moved[d[k]] = k
    duals = ((i, j, tuple(sorted([(moved[k], c) for k, c in t[d[j]][d[i]]]))) for i, j in product(range(n), repeat=2))
    report("anti-involution", (((i, j, k), f"c={a} vs dual {b}") for i, j, want in duals for k, a, b in differ(i, j, want)))
    unit_holds = not any(v.axiom == "unit-left" for v in out)
    report("associativity", _generator_first(ring, partial(_associativity_witnesses, t), unit_holds))
    return out


def _generator_first(ring: FusionRing, failures, b0_holds: bool):
    """failures(range(rank)) if the first pass yields anything, else
    nothing, with S the generating set that peeling certifies
    (`_generators`): the failures of a product law over all left factors,
    checked on S first.  The first pass is failures(S) when the caller has
    established the law for the left factor b_0 (b0_holds), and
    failures((0, *S)) otherwise.  verify_axioms (associativity, b_0 settled
    when the unit-left axiom holds), dimension_profile (on a verified ring,
    where v_0 = 1) and represent.verify_irrep (a homomorphism psi, b_0
    settled when psi(b_0) is the identity) use it.

    That is exactly as strong as the full scan.  Let A be the elements a
    for which the law holds with a as left factor: (a b) c = a (b c) for all
    b, c, or psi(a b) = psi(a) psi(b) for all b.  A is a subspace, and it is
    closed under products: for a, a' in A, ((a a') b) c = (a (a' b)) c =
    a ((a' b) c) = a (a' (b c)) = (a a') (b c), using a in A three times
    and a' in A once; and psi((a a') b) = psi(a (a' b)) = psi(a) psi(a' b) =
    psi(a) psi(a') psi(b) = psi(a a') psi(b), using associativity of the
    ring, a' in A once and a in A twice.  The first pass, or the caller,
    puts b_0 in A, and the first pass puts S there, so A holds the algebra
    they generate, which is the whole ring.  No unit is assumed: without
    b0_holds, b_0 is a checked left factor.  When the row of b_0 is the
    identity, b_0 b = b for every b, so (b_0 b) c = b c = b_0 (b c), and
    psi(b_0 b) = psi(b) = psi(b_0) psi(b) once psi(b_0) = I.  Associativity
    itself is not assumed.  Only a failing first pass leads to the full
    scan, so the witnesses are the full scan's in every case."""
    lefts = _generators(ring) if b0_holds else (0, *_generators(ring))
    if next(failures(lefts), None) is None:
        return iter(())
    return failures(range(ring.rank))


def _associativity_witnesses(t: tuple, lefts):
    """((i, j, k, l), detail) wherever (b_i b_j) b_k and b_i (b_j b_k) differ
    at b_l, for i in lefts, in index order.

    With digits of B bits, pack each product b_x b_y as the integer
    P[x][y] = sum_l c[x,y,l] 2^(B l).  Digit l of sum_m c[i,j,m] P[m][k] is
    the coefficient of b_l in (b_i b_j) b_k, and of sum_m c[j,k,m] P[i][m]
    the one in b_i (b_j b_k).  Both are at most rank * cmax^2 in size, so
    with B = bit_length(2 rank cmax^2 + 1) the digits of the difference lie
    below 2^B in size: the two integers are equal exactly when every
    coefficient is.  For each (i, j) the rank integers of each side are
    compared as lists, and only a k where they differ is expanded
    coefficient by coefficient."""
    n = len(t)
    cmax = max((abs(c) for mat in t for row in mat for _, c in row), default=0)
    bits = (2 * n * cmax * cmax + 1).bit_length()
    packed = [[sum(c << (bits * l) for l, c in row) for row in mat] for mat in t]
    zero = [0] * n
    for i in lefts:
        pi = packed[i]
        for j in range(n):
            ij = t[i][j]
            # zip yields nothing when b_i b_j = 0
            left = list(map(sum, zip(*(packed[m] if c == 1 else [c * p for p in packed[m]] for m, c in ij)))) or zero
            right = [sum([c * pi[m] for m, c in jk]) for jk in t[j]]
            if left == right:
                continue
            for k in [k for k in range(n) if left[k] != right[k]]:
                lhs = _dense(((l, c * x) for m, c in ij for l, x in t[m][k]), n)
                rhs = _dense(((l, c * x) for m, c in t[j][k] for l, x in t[i][m]), n)
                yield from (((i, j, k, l), f"{a} != {b}") for l, (a, b) in enumerate(zip(lhs, rhs)) if a != b)


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
    Only the supports of the rows are read; the result is memoized."""

    def peel() -> tuple[int, ...]:
        n = ring.rank
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
                        unknown = [k for k, _ in ring.rows[g][a] if not known[k]]
                        if len(unknown) == 1:
                            known[unknown[0]] = True
                            order.append(unknown[0])
                            peeled = True
        return tuple(gens)

    return _memo(ring, "generators", peel)


def fpdim_basis(ring: FusionRing, i: int, width: Fraction = DEFAULT_WIDTH) -> AlgebraicReal:
    """Frobenius-Perron dimension of basis element i, 0 <= i < rank: the
    largest real eigenvalue of N_i, exact (Quadratic when its minimal
    polynomial has degree <= 2, IsolatedRoot otherwise).

    An invertible element has dimension 1.  When the ring has a dimension
    profile, a noninvertible one has dimension d, the profile's root of
    d^2 = r d + s: the profile certifies, in integers, that N_i v = v_i v
    for the positive vector v that is 1 on the invertibles and d on the
    rest, so d is the Perron root of N_i (Collatz-Wielandt, see
    dimension_profile), and no polynomial is computed.

    Otherwise it is the largest root of the Krylov polynomial p of e_0
    under N_i.  Row j of N_i is the product b_i b_j, so e_0 N_i^k is b_i^k
    and p is the least polynomial with p(b_i) = 0.  require_verified
    guarantees a unit and associativity, so p(L_x) = L_{p(x)} for left
    multiplication L_x, and p(b_i) = 0 exactly when p(L_{b_i}) = 0 (apply
    it to b_0): p is the minimal polynomial of N_i.  It has the same roots
    as the charpoly, so the square-free part, which is all that
    largest_real_root reads, and the printed value are those of the
    charpoly.  The defining polynomial of an IsolatedRoot is that
    square-free part, not always minimal.

    Elements often share p (13 noninvertible elements of SU(2)_14 have 9
    polynomials), so p is memoized per index and its root per polynomial
    (_polynomial_root)."""
    if not 0 <= i < ring.rank:
        raise ValueError(f"basis index {i} is outside [0, {ring.rank})")
    check_width(width)
    ring.require_verified()
    if is_invertible(ring, i):
        return Quadratic(1)
    profile = dimension_profile(ring)
    if profile is not None:  # a two-dimension profile, as i is noninvertible
        result = profile.d
    else:
        poly = _memo(ring, ("krylov", i), lambda: intpoly.krylov(ring.rows[i])[0])
        result = _polynomial_root(ring, poly, width)
    if alg_cmp(result, 1) < 0:
        raise InternalInvariantError("FP dimension below 1")
    return result


def fpdim_all(ring: FusionRing) -> list[AlgebraicReal]:
    return [fpdim_basis(ring, i) for i in range(ring.rank)]


def fpdim_total(ring: FusionRing, width: Fraction = DEFAULT_WIDTH) -> AlgebraicReal:
    """Sum of squared FP dimensions, exact: the largest eigenvalue of
    M = sum_i N_i N_i^T (the global FP character value).

    When the ring has a dimension profile it is n_inv + n_non d^2, with
    n_inv and n_non the numbers of invertible and noninvertible basis
    elements and d the profile's root (n_non = 0 for a pointed ring).  The
    profile's vector v (1 on the invertibles, d on the rest) is positive
    and multiplicative, and M is left multiplication by R, so
    (M v)_j = v(R b_j) = v(R) v_j: v(R) = sum_x v_x v_x* = n_inv + n_non d^2
    is the Perron root of M (Collatz-Wielandt, as in fpdim_basis).

    Otherwise it is the largest root of the Krylov polynomial of e_0 under
    M.  M is symmetric, hence diagonalizable, so its minimal polynomial is
    the square-free part of its charpoly; that is the Krylov polynomial of
    e_0 (see fpdim_basis), since M is left multiplication by R = sum_x x x*
    (see global_multiplication_matrix)."""
    check_width(width)
    ring.require_verified()
    profile = dimension_profile(ring)
    if profile is not None:
        n_non = len(noninvertible_indices(ring))
        total = Quadratic(ring.rank - n_non)
        return total + n_non * profile.d * profile.d if n_non else total
    return _polynomial_root(ring, global_krylov(ring)[1], width)


def _polynomial_root(ring: FusionRing, poly, width: Fraction) -> AlgebraicReal:
    """The largest real root of poly, isolated, promoted and refined to
    DEFAULT_WIDTH once per polynomial (memoized), then handed out as is when
    it is a Quadratic, else narrowed below width.

    A width coarser than DEFAULT_WIDTH keeps the DEFAULT_WIDTH interval:
    width only narrows.  The isolating interval is a cell of the one dyadic
    grid of (-B, B) that intpoly.isolate_real_roots bisects, the memoized
    interval is a finer cell of it, and intpoly.refine_interval stays on
    that grid, so it ends on the cell that refining the isolating interval
    to width directly gives: the printed interval depends only on poly and
    width."""
    root = _memo(ring, ("root", poly), partial(largest_real_root, poly))
    return root if isinstance(root, Quadratic) else root.narrowed(width)


def global_multiplication_matrix(ring: FusionRing) -> list[list[int]]:
    """Matrix of multiplication by R = sum_x x x* (symmetric, PSD):
    M[j][k] = sum_{x,l} c[x,j,l] c[x,k,l], the matrix sum_x N_x N_x^T.

    R has the coefficients r_l = sum_x c[x,x*,l], read off rank products,
    and row j of M is R b_j = sum_l r_l (b_l b_j), so
    M[j][k] = sum_l r_l c[l,j,k] by bilinearity alone: the cost is the
    nonzeros of the rows (l, j) with r_l != 0, at most the ring's nonzeros.

    On a verified ring that is sum_x N_x N_x^T, hence symmetric.  By
    associativity R b_j = sum_x x (x* b_j), whose b_k coefficient is
    sum_{x,m} c[x*,j,m] c[x,m,k]; Frobenius reciprocity
    c[x,m,k] = c[x*,k,m] makes it sum_{x,m} c[x*,j,m] c[x*,k,m], and
    x -> x* turns that into sum_{x,m} c[x,j,m] c[x,k,m]."""
    ring.require_verified()
    t, d, n = ring.rows, ring.dual, ring.rank
    r = _dense((pair for x in range(n) for pair in t[x][d[x]]), n)
    return [_dense(((k, rl * c) for l, rl in enumerate(r) if rl for k, c in t[l][j]), n) for j in range(n)]


@_fact
def global_krylov(ring: FusionRing) -> tuple:
    """(M, mp, powers): M = global_multiplication_matrix(ring) and
    (mp, powers) = intpoly.krylov of the nonzeros of M, memoized, with M and
    powers as tuples of rows so that no caller can change them; fpdim_total
    and represent.codegree_spectrum both read it."""
    m = global_multiplication_matrix(ring)
    mp, powers = intpoly.krylov([tuple(compress(enumerate(row), row)) for row in m])
    return tuple(map(tuple, m)), mp, tuple(map(tuple, powers))


def is_invertible(ring: FusionRing, i: int) -> bool:
    """x invertible iff x x* = 1 on the nose."""
    return ring.rows[i][ring.dual[i]] == ((0, 1),)


@dataclass(frozen=True)
class InvertibleGroup:
    """The group of invertible basis elements, carried on basis indices."""

    indices: tuple[int, ...]
    group: FiniteGroup  # table positions follow `indices`

    @property
    def order(self) -> int:
        return len(self.indices)


@_fact
def invertibles(ring: FusionRing) -> InvertibleGroup:
    """G with its table read off the left action: on a verified ring a
    product g h of invertibles is invertible, (g h)(g h)* = g (h h*) g* = 1."""
    indices, left, _ = _actions(ring)
    pos = {g: p for p, g in enumerate(indices)}
    table = [[pos[perm[h]] for h in indices] for perm in left]
    return InvertibleGroup(indices, FiniteGroup(table, names=[ring.labels[g] for g in indices]))


@_fact
def _actions(ring: FusionRing) -> tuple:
    """(indices, left, right): the invertible basis indices and, for the
    p-th of them, g, the permutations left[p][x] = g x and right[p][x] = x g
    of the basis.  The group table, the orbits and stabilizers, theta and
    the coset labels of a two-orbit ring are all read off them.

    On a verified ring g x and x g are one basis element y, the single pair
    (y, 1): the b_0 coefficient of (g x)(g x)* = g (x x*) g* is 1 by
    Frobenius reciprocity, and it is the sum of the squared coefficients of
    g x."""
    t = ring.rows
    indices = tuple(i for i in range(ring.rank) if is_invertible(ring, i))
    left = tuple(tuple(t[g][x][0][0] for x in range(ring.rank)) for g in indices)
    right = tuple(tuple(t[x][g][0][0] for x in range(ring.rank)) for g in indices)
    return indices, left, right


@dataclass(frozen=True)
class OrbitStructure:
    """Orbits of the invertible group acting on the basis by multiplication."""

    left_orbits: tuple[tuple[int, ...], ...]
    right_orbits: tuple[tuple[int, ...], ...]
    stabilizers: tuple[tuple[int, ...] | None, ...]  # common left stabilizer per left orbit

    @property
    def orbit_count(self) -> int:
        return len(self.left_orbits)


@_fact
def orbit_structure(ring: FusionRing) -> OrbitStructure:
    indices, left, right = _actions(ring)

    def orbits_of(perms) -> tuple:
        # the unit is invertible, so the images of x include x; the
        # invertible action partitions the basis
        seen: set[int] = set()
        orbits = []
        for x in range(ring.rank):
            if x not in seen:
                orb = tuple(sorted({perm[x] for perm in perms}))
                seen.update(orb)
                orbits.append(orb)
        return tuple(orbits)

    left_orbits = orbits_of(left)
    elem_stab = [tuple(g for g, perm in zip(indices, left) if perm[x] == x) for x in range(ring.rank)]
    stabs = tuple(elem_stab[orb[0]] if len({elem_stab[x] for x in orb}) == 1 else None for orb in left_orbits)
    return OrbitStructure(left_orbits, orbits_of(right), stabs)


@dataclass(frozen=True)
class DimensionProfile:
    """Shape of the FP-dimension spectrum when it is {1} or {1, d}, with d
    the positive root of d^2 = r d + s (None for a pointed ring)."""

    is_two_dimension: bool
    r: int | None = None
    s: int | None = None

    @cached_property
    def d(self) -> Quadratic | None:
        return Quadratic(Fraction(self.r, 2), Fraction(1, 2), self.r**2 + 4 * self.s) if self.is_two_dimension else None

    @property
    def d_is_rational(self) -> bool | None:
        return math.isqrt(self.r**2 + 4 * self.s) ** 2 == self.r**2 + 4 * self.s if self.is_two_dimension else None


@_fact
def dimension_profile(ring: FusionRing) -> DimensionProfile | None:
    """Profile (d, r, s) with d*d = r*d + s read off x x* for the smallest
    noninvertible x: s and r are its coefficient sums on the invertibles and
    on the rest.  Returns a profile with is_two_dimension=False for pointed
    rings, and None when three or more distinct dimensions occur.

    Let v be 1 on the invertibles and d on the rest.  The profile is
    accepted exactly when v_i v_j = sum_k c[i,j,k] v_k in Z[d] for all i, j.
    If it holds, then N_i v = v_i v with N_i nonnegative and v positive, so
    v_i is the Perron root of N_i (Collatz-Wielandt): the FP dimensions are
    1 and d.  Conversely, if every noninvertible has one FP dimension d',
    then d'^2 = FPdim(x x*) = r d' + s, so d' is the positive root d, and
    FPdim, a ring homomorphism, satisfies the identity.  The identity is
    checked for left factors in the generators (`_generator_first`; it
    holds for b_0, the unit, as v_0 = 1), in integers: when r^2 + 4s is a
    square, d is an integer; otherwise both sides are a + b d with integers
    0 <= a, b, compared as a + b W for a base W above every a, so as the
    pairs (a, b).  No root is isolated and nothing is factored."""
    inv = [is_invertible(ring, i) for i in range(ring.rank)]
    if all(inv):
        return DimensionProfile(False)
    x = inv.index(False)
    row = ring.rows[x][ring.dual[x]]
    s = sum(c for k, c in row if inv[k])
    r = sum(c for _, c in row) - s
    profile = DimensionProfile(True, r, s)
    # d itself, or W: every coefficient sum is below rank * ENTRY_LIMIT
    d = (r + math.isqrt(r * r + 4 * s)) // 2 if profile.d_is_rational else 1 << (ring.rank * ENTRY_LIMIT).bit_length()
    v = [1 if g else d for g in inv]
    products = (1, d, s + r * d)  # v_i v_j by the number of noninvertibles among i, j

    def failures(lefts):
        for i, j in product(lefts, range(ring.rank)):
            if sum(c * v[k] for k, c in ring.rows[i][j]) != products[(not inv[i]) + (not inv[j])]:
                yield i, j

    # b_0 is the unit and v_0 = 1, so its identity holds: b0_holds
    return profile if next(_generator_first(ring, failures, True), None) is None else None


@dataclass(frozen=True)
class TwoOrbitData:
    """Extracted structure of a two-orbit ring: the invertible group G, the
    common stabilizer H of the noninvertible orbit G x_0 (x_0 its least
    index), the quotient G/H, the coset involution theta, and the uniform
    coefficient when the rules are uniform.

    Cosets are numbered as in `cosets`, for `quotient`, `basis_coset` and
    `theta` alike.  basis_coset[b] is the coset gH with b = g or b = g x_0,
    one coset since H fixes x_0.  theta(gH) = g'H where g' x = x g, the same
    for every noninvertible x; it is None when G/H is not abelian."""

    invertible: InvertibleGroup
    stabilizer: tuple[int, ...]  # basis indices, subset of invertible.indices
    cosets: tuple[tuple[int, ...], ...]  # G/H as basis-index cosets, rep = min
    quotient: FiniteGroup  # G/H, positions follow cosets
    basis_coset: tuple[int, ...]  # coset position of every basis index
    theta: tuple[int, ...] | None  # permutation of coset positions (abelian G/H)
    uniform_coeff: int | None  # kappa in  x x* = sum_H h + kappa * sum_y y
    uniform_k: int | None  # kappa / |H| when integral (level divisor)
    noninv_selfdual: bool

    @property
    def group_indices(self) -> tuple[int, ...]:
        return self.invertible.indices


@_fact
def two_orbit_data(ring: FusionRing) -> TwoOrbitData:
    orbits = orbit_structure(ring)
    if orbits.orbit_count != 2:
        raise NotTwoOrbitError(f"{orbits.orbit_count} orbits, need exactly 2")
    # the orbit of the unit comes first, and it is G itself
    _, noninv_orbit = orbits.left_orbits
    stab = orbits.stabilizers[1]
    if stab is None:
        raise ThetaInconsistentError("noninvertible stabilizers differ across the orbit")

    inv = invertibles(ring)
    _, left, right = _actions(ring)
    pos = {g: p for p, g in enumerate(inv.indices)}
    stab_pos = [pos[g] for g in stab]
    cosets_pos = inv.group.left_cosets(stab_pos)
    cosets = tuple(tuple(inv.indices[p] for p in c) for c in cosets_pos)
    quotient, proj = inv.group.quotient(stab_pos)

    def cosets_at(x: int) -> dict[int, int]:
        """y -> gH for y = g x, over the orbit G x: the left action at x
        inverted, one coset per y since H fixes x."""
        return {perm[x]: proj[p] for p, perm in enumerate(left)}

    x0 = noninv_orbit[0]
    at_x0 = cosets_at(x0)
    basis_coset = tuple(proj[pos[b]] if b in pos else at_x0[b] for b in range(ring.rank))

    def theta_at(x: int) -> tuple[int, ...]:
        # x g = g' x, with g the least element of each coset
        at_x = cosets_at(x)
        return tuple(at_x[right[c[0]][x]] for c in cosets_pos)

    theta: tuple[int, ...] | None = None
    uniform_coeff: int | None = None
    if quotient.is_abelian:
        theta = theta_at(x0)
        for x in noninv_orbit[1:]:
            if theta_at(x) != theta:
                raise ThetaInconsistentError(f"coset involution differs between elements {x0} and {x}")
        if any(theta[theta[p]] != p for p in range(len(theta))):
            raise ThetaInconsistentError("coset involution does not square to identity")
        # uniform test: x x* = sum_{h in H} h + kappa * sum_{noninv} y, one
        # kappa for every x in the orbit
        rows = [dict(ring.rows[x][ring.dual[x]]) for x in noninv_orbit]
        kappas = {row.get(y, 0) for row in rows for y in noninv_orbit}
        if len(kappas) == 1 and all(row.get(g, 0) == (g in stab) for row in rows for g in inv.indices):
            (uniform_coeff,) = kappas
    uniform_k = None
    if uniform_coeff is not None and uniform_coeff % len(stab) == 0:
        uniform_k = uniform_coeff // len(stab)

    return TwoOrbitData(
        invertible=inv,
        stabilizer=stab,
        cosets=cosets,
        quotient=quotient,
        basis_coset=basis_coset,
        theta=theta,
        uniform_coeff=uniform_coeff,
        uniform_k=uniform_k,
        noninv_selfdual=all(ring.dual[x] == x for x in noninv_orbit),
    )


def noninvertible_indices(ring: FusionRing) -> list[int]:
    ring.require_verified()
    return [i for i in range(ring.rank) if not is_invertible(ring, i)]


def is_commutative(ring: FusionRing) -> bool:
    t = ring.rows
    return all(t[i][j] == t[j][i] for i in range(ring.rank) for j in range(i))

