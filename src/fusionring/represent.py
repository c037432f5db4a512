"""Characters, formal codegrees, and exact irreducible representations of
structured two-orbit rings.

The codegree spectrum is read off the matrix M of multiplication by
sum_x x x*: its eigenvalues are dim(psi) * f_psi over the irreducible
representations psi.  For commutative rings every eigenvalue is itself a
formal codegree.  Explicit matrix models exist exactly for uniform two-orbit
rings with abelian invertibles and self-dual noninvertibles: the
irreducibles match the characters of G nontrivial on H together with the
irreducibles of (G/H) x| C_2 twisted by the coset involution, with the
noninvertible basis elements acting through sqrt(|H|).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, partial

from . import intpoly
from .algebraic import AlgebraicReal, Quadratic, alg_cmp, all_real_roots
from .cyclotomic import Cyc, CycSqrt, pack
from .errors import HypothesisError, InternalInvariantError
from .groups import FiniteGroup, character_exponents
from .numtheory import squarefree_part
from .ring import (
    FusionRing,
    _generator_first,
    _memo,
    dimension_profile,
    global_krylov,
    invertibles,
    is_commutative,
    two_orbit_data,
)


@dataclass(frozen=True)
class Codegree:
    """One eigenvalue class of M.

    value is the formal codegree f_psi when dim_hint is set (commutative
    rings have dim_hint == 1, so eigenvalue == codegree); when dim_hint is
    None the value is the raw eigenvalue dim(psi) * f_psi.
    eigen_multiplicity is the multiplicity of that eigenvalue in M.
    """

    value: AlgebraicReal
    eigen_multiplicity: int
    dim_hint: int | None = None


def codegree_spectrum(ring: FusionRing) -> list[Codegree]:
    """Exact eigenvalue multiset of M = sum_x N_x N_x^T, largest first.

    M is left multiplication by R = sum_x x x* (global_multiplication_matrix)
    and symmetric, so every root is real, algebraic equals geometric
    multiplicity, and the Krylov polynomial mp of e_0 (degree d) is the
    minimal polynomial of M, square-free, with the roots of the charpoly
    (see fpdim_basis).  Multiplicities come from traces instead of the
    charpoly.  The returned vectors e_0 M^k are R^k, and M^k multiplies by
    R^k, so s_k = tr(M^k) = sum_y (R^k)_y tr(N_y).  Since
    sum_k s_k x^(-k-1) = sum_l m_l / (x - l) over the eigenvalues l with
    multiplicities m_l, the polynomial N of degree < d with
    N/mp = sum_k s_k x^(-k-1), built from s_0 ... s_(d-1), has
    N(l) = m_l mp'(l).  So the product of the x - l with m_l = m is
    gcd(mp, N - m mp'), primitive with positive leading coefficient: the
    factor of multiplicity m in the square-free decomposition of the
    charpoly.  The multiplicities sum to s_0 = tr(I) = rank, so once a
    single root of mp is left, its multiplicity is rank - counted, with
    counted the sum found so far: the loop probes that m at once and
    confirms it with its gcd, as for every other m.  It jumps only to an m
    above every m probed before, and a root found at m has m_l = m, so the
    gcd at the jump holds no root found earlier.  The loop stops once the
    multiplicities account for the rank; the count and trace checks stay.

    The spectrum is computed once per ring; each call gets its own list.
    """
    ring.require_verified()
    return list(_memo(ring, "codegrees", partial(_codegree_spectrum, ring)))


def _codegree_spectrum(ring: FusionRing) -> list[Codegree]:
    m, mp, powers = global_krylov(ring)
    d = intpoly.degree(mp)
    traces = [sum(c for j, row in enumerate(mat) for k, c in row if k == j) for mat in ring.rows]
    s = [sum(c * t for c, t in zip(r, traces)) for r in powers]
    num = [sum(mp[i] * s[i - j - 1] for i in range(j + 1, d + 1)) for j in range(d)]
    dmp = intpoly.poly_derivative(mp)
    commutative = is_commutative(ring)
    order = invertibles(ring).order
    entries: list[Codegree] = []
    counted = 0  # the multiplicities found so far, summed over their roots
    found = 0  # the roots of mp found so far
    root_sum = Fraction(0)
    mult = 0
    while counted < ring.rank and mult < ring.rank:
        mult += 1
        if found == d - 1 and ring.rank - counted > mult:
            mult = ring.rank - counted  # the last root of mp: s_0 = rank
        factor = intpoly.poly_gcd(mp, intpoly.trim([a - mult * b for a, b in zip(num, dmp)]))
        if intpoly.degree(factor) < 1:
            continue
        roots = all_real_roots(factor)
        if len(roots) != intpoly.degree(factor):
            raise InternalInvariantError("symmetric M produced non-real eigenvalues")
        counted += mult * len(roots)
        found += len(roots)
        root_sum += mult * Fraction(-factor[-2], factor[-1])
        for root in roots:
            entries.append(Codegree(root, mult, 1 if commutative else None))
    if counted != ring.rank:
        raise InternalInvariantError("eigenvalue count does not match rank")
    if root_sum != sum(m[i][i] for i in range(ring.rank)):
        raise InternalInvariantError("eigenvalue sum does not match trace of M")
    for e in entries:
        if alg_cmp(e.value, order) < 0:
            raise InternalInvariantError(
                f"eigenvalue {e.value!r} of M below the invertible count {order}"
            )
    entries.sort(key=cmp_to_key(lambda e, f: alg_cmp(f.value, e.value)))
    return entries


@dataclass(frozen=True)
class AbelianCharacter:
    """Character of an abelian group as an exponent vector: the value at
    element g is zeta_N^exponents[g]."""

    N: int
    exponents: tuple[int, ...]

    def value(self, g: int) -> Cyc:
        return Cyc.root(self.N, self.exponents[g])

    def is_trivial_on(self, elements) -> bool:
        return all(self.exponents[g] % self.N == 0 for g in elements)

    @property
    def is_trivial(self) -> bool:
        return all(e % self.N == 0 for e in self.exponents)


def abelian_characters(group: FiniteGroup) -> list[AbelianCharacter]:
    N = group.exponent
    return [AbelianCharacter(N, exps) for exps in character_exponents(group)]


def irr_H_of_G(group, subgroup_elements) -> list[AbelianCharacter]:
    """Characters of an abelian group G whose restriction to the subgroup H
    is nontrivial; there are exactly |G| - [G:H] of them."""
    from .construct import as_group

    g = as_group(group)
    if not g.is_abelian:
        raise HypothesisError("irr_H_of_G needs an abelian group")
    sub = set(int(x) for x in subgroup_elements)
    out = [ch for ch in abelian_characters(g) if not ch.is_trivial_on(sub)]
    expected = g.order - g.order // len(sub)
    if len(out) != expected:
        raise InternalInvariantError("character count off in irr_H_of_G")
    return out


def irr0_codegrees(ring: FusionRing) -> list[Codegree]:
    """Codegrees of the representations vanishing on the noninvertibles:
    one per character of G nontrivial on H, each equal to |G|."""
    data = two_orbit_data(ring)
    if not data.invertible.group.is_abelian:
        raise HypothesisError("irr0_codegrees needs abelian invertibles")
    order = data.invertible.order
    count = order - order // len(data.stabilizer)
    if count == 0:
        return []
    spectrum = codegree_spectrum(ring)
    match = [e for e in spectrum if alg_cmp(e.value, order) == 0]
    if not match:
        raise InternalInvariantError("|G| missing from the spectrum of M")
    mult = match[0].eigen_multiplicity
    return [Codegree(Quadratic(order), mult, 1) for _ in range(count)]


@dataclass(frozen=True)
class SemidirectIrrep:
    """Irreducible of K x| C_2 (K abelian, involution theta), either a sign
    extension of a theta-fixed character or the induction of a swapped pair."""

    dim: int
    kind: str  # "extension" | "induced"
    chi: AbelianCharacter  # character of K (pair representative when induced)
    sign: int  # +-1 for extensions, 0 for induced
    N: int  # cyclotomic order of the matrix entries
    theta: tuple[int, ...]

    def matrix(self, k: int, t: int) -> tuple[tuple[Cyc, ...], ...]:
        """Representing matrix of the element (k, t), t in {0, 1}."""
        # zeta_n^e embeds into Q(zeta_N) as zeta_N^(e N/n)
        scale = self.N // self.chi.N
        chi_k = Cyc.root(self.N, self.chi.exponents[k] * scale)
        if self.kind == "extension":
            entry = chi_k if t == 0 else chi_k * self.sign
            return ((entry,),)
        chi_tk = Cyc.root(self.N, self.chi.exponents[self.theta[k]] * scale)
        zero = Cyc.zero(self.N)
        if t == 0:
            return ((chi_k, zero), (zero, chi_tk))
        return ((zero, chi_k), (chi_tk, zero))


def semidirect_irr(group, theta) -> list[SemidirectIrrep]:
    """Irreducibles of K x| C_2: theta-fixed characters of K extend in two
    ways (dim 1), swapped pairs induce (dim 2); sum of dim^2 is 2|K|."""
    from .construct import _resolve_theta, as_group

    k = as_group(group)
    if not k.is_abelian:
        raise HypothesisError("semidirect_irr needs an abelian group")
    phi = _resolve_theta(k, theta)
    N = k.exponent if k.exponent % 2 == 0 else 2 * k.exponent
    chars = abelian_characters(k)
    out: list[SemidirectIrrep] = []
    seen_pairs = set()
    for ch in chars:
        twisted = tuple(ch.exponents[phi[g]] for g in range(k.order))
        if twisted == ch.exponents:
            for sign in (1, -1):
                out.append(SemidirectIrrep(1, "extension", ch, sign, N, phi))
        else:
            key = min(ch.exponents, twisted)
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            out.append(SemidirectIrrep(2, "induced", ch, 0, N, phi))
    if sum(r.dim**2 for r in out) != 2 * k.order:
        raise InternalInvariantError("semidirect irreps do not fill the group algebra")
    return out


@dataclass(frozen=True)
class IrrepModel:
    """Exact matrix model of one irreducible representation of a uniform
    two-orbit ring; entries live in Q(zeta_N, sqrt(D))."""

    dim: int
    matrices: tuple  # one dim x dim matrix of CycSqrt per basis element
    source_tag: str
    root_order: int  # N
    radicand: int  # D


SOURCE_IRR_H = "from_Irr_H(G)"
SOURCE_SEMIDIRECT = "from_semidirect"
SOURCE_D_PLUS = "one_dimensional_d_plus"
SOURCE_D_MINUS = "one_dimensional_d_minus"


def uniform_irreps(ring: FusionRing) -> list[IrrepModel]:
    """All irreducible representations of a uniform two-orbit ring with
    abelian invertibles and self-dual noninvertibles, as exact matrices.

    Characters of G nontrivial on H vanish on the noninvertibles; the
    remaining models come from the quotient semidirect product, with the
    noninvertible basis acting through sqrt(|H|); the two one-dimensional
    models send every noninvertible to a root of the dimension relation.
    """
    data = two_orbit_data(ring)
    if data.uniform_coeff is None:
        raise HypothesisError("hypothesis failed: ring is not uniform")
    if not data.invertible.group.is_abelian:
        raise HypothesisError("hypothesis failed: invertible group is not abelian")
    if not data.noninv_selfdual:
        raise HypothesisError("hypothesis failed: noninvertibles are not self-dual")

    inv = data.invertible
    g = inv.group
    at = {b: p for p, b in enumerate(inv.indices)}  # position in G of each invertible
    h_size = len(data.stabilizer)

    profile = dimension_profile(ring)
    if profile is None or not profile.is_two_dimension:
        raise InternalInvariantError("two-orbit ring without a two-dimension profile")
    disc = profile.r * profile.r + 4 * profile.s
    dec = squarefree_part(disc)

    models: list[IrrepModel] = []

    # characters of G nontrivial on H: vanish off the group
    ng = g.exponent
    for ch in irr_H_of_G(g, [at[s] for s in data.stabilizer]):
        mats = []
        for b in range(ring.rank):
            if b in at:
                val = ch.value(at[b])
                mats.append(((CycSqrt(val, Cyc.zero(ng), h_size),),))
            else:
                mats.append(((CycSqrt.of(ng, h_size),),))
        models.append(IrrepModel(1, tuple(mats), SOURCE_IRR_H, ng, h_size))

    # quotient semidirect models
    theta = data.theta
    if theta is None:
        raise InternalInvariantError("two-orbit data without a coset involution")
    for rep in semidirect_irr(data.quotient, theta):
        if rep.kind == "extension" and rep.chi.is_trivial:
            continue  # replaced by the two dimension characters below
        nq = rep.N
        zero = Cyc.zero(nq)
        mats = []
        for b in range(ring.rank):
            # g acts as (gH, 0), and g x_0 as (gH, 1) scaled by sqrt(|H|)
            base = rep.matrix(data.basis_coset[b], 0 if b in at else 1)
            mats.append(tuple(tuple(CycSqrt(v, zero, h_size) if b in at else CycSqrt(zero, v, h_size) for v in row) for row in base))
        models.append(IrrepModel(rep.dim, tuple(mats), SOURCE_SEMIDIRECT, nq, h_size))

    # the two one-dimensional characters sending x to the roots of
    # d^2 = r d + s
    for sign, tag in ((1, SOURCE_D_PLUS), (-1, SOURCE_D_MINUS)):
        u = Fraction(profile.r, 2)
        v = Fraction(sign * dec.y, 2)
        mats = []
        for b in range(ring.rank):
            if b in at:
                mats.append(((CycSqrt.of(1, dec.x, u=1),),))
            else:
                mats.append(((CycSqrt.of(1, dec.x, u=u, v=v),),))
        models.append(IrrepModel(1, tuple(mats), tag, 1, dec.x))

    if sum(m.dim**2 for m in models) != ring.rank:
        raise InternalInvariantError("irrep dimensions do not fill the ring")
    for m in models:
        if verify_irrep(ring, m):
            raise InternalInvariantError(f"{m.source_tag} model is not a homomorphism")
    return models


def verify_irrep(ring: FusionRing, model: IrrepModel) -> list[tuple[int, int]]:
    """Exact homomorphism check; returns the basis pairs (i, j) where
    psi(i) psi(j) != sum_k c[i,j,k] psi(k) (empty list = model is valid),
    checked for left factors in the algebra generators first, and in b_0
    too unless psi(b_0) is the identity, entry by entry
    (`ring._generator_first`)."""
    ring.require_verified()
    identity = all(e.u == int(r == s) and e.v.is_zero for r, row in enumerate(model.matrices[0]) for s, e in enumerate(row))
    return list(_generator_first(ring, partial(_product_failures, ring, model), identity))


def _product_failures(ring: FusionRing, model: IrrepModel, lefts):
    """The pairs (i, j), i in lefts, where psi(i) psi(j) and
    sum_k c[i,j,k] psi(k) differ, in index order.

    The parts u and v of every entry u + v sqrt(D) of the model are packed
    once, scaled by L (`cyclotomic.pack`).  Cell (r, s) of
    L^2 (psi(i) psi(j) - sum_k c[i,j,k] psi(k)) then has the parts
    U = sum_t (u_rt u'_ts + D v_rt v'_ts) - L sum_k c[i,j,k] u^k_rs and
    V = sum_t (v_rt u'_ts + u_rt v'_ts) - L sum_k c[i,j,k] v^k_rs, each an
    integer polynomial of degree < 2 deg Phi_N - 1 at x = 2^B, with
    coefficients at most dim deg(Phi_N) cmax^2 (1 + max(D, 1))
    + L cmax max_(i,j) sum_k c[i,j,k], where cmax is the largest scaled
    coefficient.  So the cell is equal componentwise exactly when Phi_N(2^B)
    divides U and V (`cyclotomic.packed_modulus`)."""
    entries = [e for mat in model.matrices for row in mat for e in row]
    N, D = entries[0].u.N, entries[0].D
    if any(e.u.N != N or e.v.N != N or e.D != D for e in entries):
        raise ValueError("mixed CycSqrt fields")
    dim, f = model.dim, len(entries[0].u.coeffs)
    row_sum = _memo(ring, "row_sum", lambda: max(sum(c for _, c in row) for mat in ring.rows for row in mat))
    L, modulus, _, packed = pack(N, (x.coeffs for e in entries for x in (e.u, e.v)), lambda L, cmax: dim * f * cmax * cmax * (1 + max(D, 1)) + L * cmax * row_sum)
    # u[r][s][k], v[r][s][k]: the parts of entry (r, s) of psi(k)
    u = [[[packed[m[r][s].u.coeffs] for m in model.matrices] for s in range(dim)] for r in range(dim)]
    v = [[[packed[m[r][s].v.coeffs] for m in model.matrices] for s in range(dim)] for r in range(dim)]
    # column s of each psi(j) as (u_0s, u_1s, ..., v_0s, v_1s, ...)
    cols = [list(zip(*(u[t][s] for t in range(dim)), *(v[t][s] for t in range(dim)))) for s in range(dim)]
    cells = [(r, s) for r in range(dim) for s in range(dim)]
    mul = operator.mul
    for i in lefts:
        # row r of psi(i) as (u_r0, ..., D v_r0, ...) and as (v_r0, ..., u_r0, ...)
        rows_u = [(*(u[r][t][i] for t in range(dim)), *(D * v[r][t][i] for t in range(dim))) for r in range(dim)]
        rows_v = [(*(v[r][t][i] for t in range(dim)), *(u[r][t][i] for t in range(dim))) for r in range(dim)]
        for j in range(ring.rank):
            terms = ring.rows[i][j]
            for r, s in cells:
                ku, kv, col = u[r][s], v[r][s], cols[s][j]
                U = sum(map(mul, rows_u[r], col)) - L * sum([c * ku[k] for k, c in terms])
                V = sum(map(mul, rows_v[r], col)) - L * sum([c * kv[k] for k, c in terms])
                if U % modulus or V % modulus:
                    yield (i, j)
                    break
