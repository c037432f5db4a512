"""Builders for the fusion-ring families under study.

Group rings, near-group rings R(G, level), Haagerup-Izumi rings, general
uniform two-orbit rings, and character rings of finite groups (with a
closed-form dihedral table generator).  Every builder's ring is verified as
it is made (`FusionRing._of_nonzeros`); uniform_two_orbit treats an
associativity failure as a legitimate result and reports it, since not every
parameter choice yields a fusion ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from operator import index, mul
from typing import Sequence

from .cyclotomic import Cyc, _reduction_growth, balanced_residue, pack
from .errors import MalformedRingError
from .groups import FiniteGroup, abelian_group, is_automorphism
from .ring import FusionRing, _check_rank


def as_group(spec) -> FiniteGroup:
    if isinstance(spec, FiniteGroup):
        return spec
    return abelian_group(tuple(spec))


def _order(spec) -> int:
    """|G| of a group spec, read without building its table, so that a
    builder checks the rank it will give before as_group: FiniteGroup checks
    a table of n elements in n^3 steps."""
    return spec.order if isinstance(spec, FiniteGroup) else math.prod(int(f) for f in spec)


def _rows(rank: int, g: FiniteGroup) -> list:
    """The rows (see `ring`) of a ring on G and rank - |G| more basis
    elements, once rank is within RANK_LIMIT: b_a b_b = b_ab for a, b in G,
    and every other row empty, for the builder to fill."""
    _check_rank(rank)
    pad = [()] * (rank - g.order)
    return [[((ab, 1),) for ab in row] + pad for row in g.table] + [[()] * rank for _ in pad]


def group_ring(spec) -> FusionRing:
    """Integral group ring of a finite group (pointed fusion ring).

    Accepts a FiniteGroup, a list of cyclic factors of an abelian group, or
    an explicit Cayley table (identity located automatically).
    """
    if isinstance(spec, (list, tuple)) and spec and isinstance(spec[0], (list, tuple)):
        _check_rank(len(spec))
        g = FiniteGroup.from_table(spec)
    else:
        _check_rank(_order(spec))
        g = as_group(spec)
    return FusionRing._of_nonzeros(g.names, g.inverse, _rows(g.order, g))


def near_group(spec, level: int) -> FusionRing:
    """Near-group ring: invertibles G plus one extra self-dual element rho
    with rho^2 = level*rho + sum_G g.  Valid for every (G, level)."""
    level = index(level)
    if level < 0:
        raise ValueError("level must be nonnegative")
    _check_rank(_order(spec) + 1)
    g = as_group(spec)
    n = g.order
    rho = n
    rows = _rows(n + 1, g)
    for i in range(n):
        rows[i][rho] = rows[rho][i] = ((rho, 1),)
    rows[rho][rho] = tuple((i, 1) for i in range(n)) + (((rho, level),) if level else ())
    labels = list(g.names) + ["rho"]
    dual = list(g.inverse) + [rho]
    return FusionRing._of_nonzeros(labels, dual, rows)


def haagerup_izumi(spec) -> FusionRing:
    """Two-orbit ring on G + Gx with trivial stabilizer, x g = g^{-1} x and
    (g x)(h x) = g h^{-1} + sum_f (f x): the uniform two-orbit ring with
    H = 1, theta the inversion and k = 1.  Requires abelian G; commutative
    iff |G| <= 2."""
    _check_rank(2 * _order(spec))
    g = as_group(spec)
    if not g.is_abelian:
        raise ValueError("Haagerup-Izumi rings need an abelian group")
    return uniform_two_orbit(g, "trivial", "inversion", 1)


def _resolve_theta(quotient: FiniteGroup, theta) -> tuple[int, ...]:
    if theta == "identity" or theta is None:
        phi = tuple(range(quotient.order))
    elif theta == "inversion":
        phi = quotient.inverse
    else:
        phi = tuple(map(index, theta))
    if not is_automorphism(quotient, phi):
        raise ValueError("theta is not an automorphism of G/H")
    if any(phi[phi[i]] != i for i in range(quotient.order)):
        raise ValueError("theta must be an involution of G/H")
    return phi


def uniform_two_orbit(spec, stabilizer_gens: Sequence, theta, k: int) -> FusionRing:
    """Uniform two-orbit ring on basis G + {rep x : rep in G/H}.

    Fusion rules: x g = theta(gH) x and x^2 = sum_H h + (k*|H|) * sum_y y,
    so k is the level divisor (H = G reproduces the near-group ring at level
    k*|G|).  Associativity is NOT automatic: the result is checked, and a
    failing parameter choice raises NotAFusionRingError with the witnessing
    indices, which is a legitimate outcome rather than a bug.
    """
    k = index(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    _check_rank(_order(spec) + 1)  # G and at least one coset
    g = as_group(spec)
    if not g.is_abelian:
        raise ValueError("uniform_two_orbit needs an abelian group")
    sub = _resolve_subgroup(g, stabilizer_gens)
    quotient, proj = g.quotient(sub)
    phi = _resolve_theta(quotient, theta)
    reps = [min(c) for c in g.left_cosets(sub)]  # lexicographically least under the encoding
    kappa = k * len(sub)

    n = g.order
    m = len(reps)
    rank = n + m
    rows = _rows(rank, g)
    for a in range(n):
        for i in range(m):
            rows[a][n + i] = ((n + proj[g.mult(a, reps[i])], 1),)  # g . (rep x)
            # (rep x) . g  =  rep * theta-lift(g) * x
            rows[n + i][a] = ((n + proj[g.mult(reps[i], reps[phi[proj[a]]])], 1),)
    noninvertible = tuple((n + c, kappa) for c in range(m)) if kappa else ()
    for i in range(m):
        for j in range(m):
            base = g.mult(reps[i], reps[phi[j]])  # rep_i * theta(rep_j), up to H
            # the coset base H, each element once, then kappa on every y
            rows[n + i][n + j] = tuple(sorted((g.mult(base, h), 1) for h in sub)) + noninvertible

    labels = list(g.names) + [f"x({g.names[r]})" for r in reps]
    # (rep_i x)* = rep_j x with coset(rep_j) = theta(coset(rep_i))^{-1}
    dual = list(g.inverse) + [n + quotient.inv(phi[i]) for i in range(m)]
    return FusionRing._of_nonzeros(labels, dual, rows)


def _resolve_subgroup(g: FiniteGroup, gens) -> tuple[int, ...]:
    """Subgroup from generator indices, element-name strings, or 'all'/'trivial'."""
    if gens == "all":
        return tuple(range(g.order))
    if gens == "trivial" or gens is None:
        return (0,)
    idx = []
    name_pos = {name: i for i, name in enumerate(g.names)}
    for item in gens:
        if isinstance(item, str):
            if item not in name_pos:
                raise ValueError(f"unknown group element {item!r}")
            idx.append(name_pos[item])
        else:
            idx.append(index(item))
    return g.subgroup_generated(idx)


@dataclass(frozen=True)
class CharacterTable:
    """Exact character table: rows are characters, columns conjugacy classes.

    Values live in Q(zeta_N) with N = root_order, unbounded here (table
    files are bounded by ringfile.ROOT_ORDER_LIMIT and TABLE_WORK_LIMIT).
    The identity class comes first (size 1) and the trivial character is
    row 0.  `validate` checks orthogonality by one integer sum per unordered
    pair of rows: with values and conjugates packed (`cyclotomic.pack`),
    L^2 (sum_c |c| chi_i(c) conj(chi_j(c)) - |G| delta_ij) has coefficients
    at most |G| (deg Phi_N cmax^2 + L^2) unreduced, as class sizes are >= 1.
    """

    group_order: int
    root_order: int
    class_sizes: tuple[int, ...]
    values: tuple[tuple[Cyc, ...], ...]

    def validate(self) -> None:
        k = len(self.class_sizes)
        if len(self.values) != k:
            raise MalformedRingError("character table must be square")
        if any(len(row) != k for row in self.values):
            raise MalformedRingError("ragged character table")
        if any(v.N != self.root_order for row in self.values for v in row):
            raise MalformedRingError(f"character values must lie in Q(zeta_{self.root_order})")
        for c, size in enumerate(self.class_sizes):
            if size < 1:
                raise MalformedRingError(f"class {c} has size {size}, below 1")
        if sum(self.class_sizes) != self.group_order:
            raise MalformedRingError("class sizes must sum to the group order")
        if self.class_sizes[0] != 1:
            raise MalformedRingError("identity class (size 1) must come first")
        if any(not v.is_rational or v.as_fraction() != 1 for v in self.values[0]):
            raise MalformedRingError("row 0 must be the trivial character")
        dims = []
        for row in self.values:
            d = row[0]
            if not d.is_rational or d.as_fraction().denominator != 1 or d.as_fraction() <= 0:
                raise MalformedRingError("character degrees must be positive integers")
            dims.append(int(d.as_fraction()))
        if sum(d * d for d in dims) != self.group_order:
            raise MalformedRingError("sum of squared degrees must equal the group order")
        n, f = self.group_order, len(self.values[0][0].coeffs)
        conj = [[v.conjugate() for v in row] for row in self.values]
        L, modulus, _, packed = pack(self.root_order, (v.coeffs for row in (*self.values, *conj) for v in row), lambda L, cmax: n * (f * cmax * cmax + L * L))
        at = [[packed[v.coeffs] for v in row] for row in self.values]
        weighted = [[size * packed[v.coeffs] for v, size in zip(row, self.class_sizes)] for row in conj]
        for i in range(k):
            for j in range(i, k):
                if (sum(map(mul, at[i], weighted[j])) - (L * L * n if i == j else 0)) % modulus:
                    raise MalformedRingError(f"orthogonality fails for rows ({i},{j})")

    def degrees(self) -> tuple[int, ...]:
        return tuple(int(row[0].as_fraction()) for row in self.values)


def character_ring(table: CharacterTable) -> FusionRing:
    """Fusion ring of a character table: structure constants are the inner
    products <chi_i chi_j, chi_k>, which must land in nonnegative integers.

    T(i, j, l) = (1/|G|) sum_c |c| chi_i(c) chi_j(c) chi_l(c) is symmetric
    in i, j and l, and conj(chi_l) = chi_dual(l), so
    c_{i,j,dual(l)} = <chi_i chi_j, chi_dual(l)> = T(i, j, l) for every
    order of the three indices: one sum per unordered triple i <= j <= l
    fills the entries of all six orders, k^3/6 sums.

    With the values packed (`cyclotomic.pack`), chi_i(c) chi_j(c) reads as
    L^2 chi_i(c) chi_j(c) reduced (`cyclotomic.balanced_residue`), whose
    coefficients are at most f cmax^2 G(N) for f = deg Phi_N and G(N) from
    `cyclotomic._reduction_growth`; its sum against |c| chi_l(c) has
    coefficients at most |G| f^2 G(N) cmax^3 unreduced and reads as the
    rational L^3 |G| T(i, j, l), or as a residue above `limit` if T is
    irrational."""
    _check_rank(len(table.class_sizes))
    table.validate()
    k = len(table.class_sizes)
    n = table.group_order
    cells: list[list[dict]] = [[{} for _ in range(k)] for _ in range(k)]
    where = {row: j for j, row in enumerate(table.values)}  # orthogonal rows are distinct
    dual = [where.get(tuple(v.conjugate() for v in row)) for row in table.values]
    if None in dual:
        raise MalformedRingError(f"conjugate of character {dual.index(None)} missing from table")
    f, growth = len(table.values[0][0].coeffs), _reduction_growth(table.root_order)
    L, modulus, limit, packed = pack(table.root_order, (v.coeffs for row in table.values for v in row), lambda L, cmax: n * f * f * growth * cmax**3)
    at = [[packed[v.coeffs] for v in row] for row in table.values]
    weighted = [[size * p for p, size in zip(row, table.class_sizes)] for row in at]
    scale = L**3 * n
    for i in range(k):
        for j in range(i, k):
            prod = [balanced_residue(a * b, modulus) for a, b in zip(at[i], at[j])]
            for l in range(j, k):
                rho = balanced_residue(sum(map(mul, prod, weighted[l])), modulus)
                if abs(rho) > limit:
                    raise MalformedRingError(f"non-rational multiplicity at ({i},{j},{dual[l]})")
                mult, rem = divmod(rho, scale)
                if rem or mult < 0:
                    raise MalformedRingError(f"non-integral multiplicity {Fraction(rho, scale)} at ({i},{j},{dual[l]})")
                for a, b, c in permutations((i, j, l)):
                    cells[a][b][dual[c]] = mult
    rows = [[tuple(sorted((m, c) for m, c in cell.items() if c)) for cell in mat] for mat in cells]
    return FusionRing._of_nonzeros([f"chi{i}" for i in range(k)], dual, rows)


def dihedral_character_table(n: int) -> CharacterTable:
    """Closed-form character table of the dihedral group of order 2n, over
    Q(zeta_n): the characters need only zeta_n and the rational -1."""
    if n < 3:
        raise ValueError("need n >= 3")
    one = Cyc.one(n)

    def rot(m: int, j: int) -> Cyc:
        return Cyc.root(n, m * j) + Cyc.root(n, -m * j)

    rows: list[tuple[Cyc, ...]] = []
    if n % 2:
        sizes = [1] + [2] * ((n - 1) // 2) + [n]
        rows.append(tuple(one for _ in sizes))
        rows.append(tuple([one] * (1 + (n - 1) // 2) + [Cyc.rational(n, -1)]))
        for m in range(1, (n - 1) // 2 + 1):
            row = [Cyc.rational(n, 2)]
            row += [rot(m, j) for j in range(1, (n - 1) // 2 + 1)]
            row.append(Cyc.zero(n))
            rows.append(tuple(row))
    else:
        half = n // 2
        sizes = [1, 1] + [2] * (half - 1) + [half, half]
        # classes: e, r^half, r^j (j=1..half-1), reflections (even), reflections (odd)
        for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            row = [Cyc.rational(n, 1), Cyc.rational(n, a**half)]
            row += [Cyc.rational(n, a**j) for j in range(1, half)]
            row += [Cyc.rational(n, b), Cyc.rational(n, a * b)]
            rows.append(tuple(row))
        for m in range(1, half):
            row = [Cyc.rational(n, 2), Cyc.rational(n, 2 * (-1) ** m)]
            row += [rot(m, j) for j in range(1, half)]
            row += [Cyc.zero(n), Cyc.zero(n)]
            rows.append(tuple(row))
    return CharacterTable(2 * n, n, tuple(sizes), tuple(rows))


def dihedral_character_ring(n: int) -> FusionRing:
    """Character ring of the dihedral group of order 2n; rank 2+(n-1)/2 for
    odd n and 4+(n-2)/2 for even n."""
    return character_ring(dihedral_character_table(n))
