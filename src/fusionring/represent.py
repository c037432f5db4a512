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

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from . import intpoly
from .algebraic import AlgebraicReal, Quadratic, alg_cmp, all_real_roots
from .cyclotomic import Cyc, CycSqrt
from .errors import HypothesisError, InternalInvariantError
from .groups import FiniteGroup, character_exponents
from .numtheory import squarefree_part
from .ring import (
    FusionRing,
    algebra_generators,
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
    charpoly.  The loop stops once the multiplicities account for the rank;
    the count and trace checks stay.
    """
    ring.require_verified()
    if "codegrees" in ring._cache:
        return ring._cache["codegrees"]
    m, mp, powers = global_krylov(ring)
    d = intpoly.degree(mp)
    traces = [sum(mat[j][j] for j in range(ring.rank)) for mat in ring.rows]
    s = [sum(c * t for c, t in zip(r, traces)) for r in powers]
    num = [sum(mp[i] * s[i - j - 1] for i in range(j + 1, d + 1)) for j in range(d)]
    dmp = intpoly.poly_derivative(mp)
    commutative = is_commutative(ring)
    order = invertibles(ring).order
    entries: list[Codegree] = []
    counted = 0
    root_sum = Fraction(0)
    for mult in range(1, ring.rank + 1):
        if counted == ring.rank:
            break
        factor = intpoly.poly_gcd(mp, intpoly.trim([a - mult * b for a, b in zip(num, dmp)]))
        if intpoly.degree(factor) < 1:
            continue
        roots = all_real_roots(factor)
        if len(roots) != intpoly.degree(factor):
            raise InternalInvariantError("symmetric M produced non-real eigenvalues")
        counted += mult * len(roots)
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
    ring._cache["codegrees"] = entries
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
        chi_k = self.chi.value(k).lift(self.N) if self.chi.N != self.N else self.chi.value(k)
        if self.kind == "extension":
            entry = chi_k if t == 0 else chi_k * self.sign
            return ((entry,),)
        chi_tk = (
            self.chi.value(self.theta[k]).lift(self.N)
            if self.chi.N != self.N
            else self.chi.value(self.theta[k])
        )
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


def _mat_scale(a, c):
    return tuple(tuple(x * c for x in row) for row in a)


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
    h_positions = [inv.indices.index(s) for s in data.stabilizer]
    h_size = len(data.stabilizer)
    quotient, proj = g.quotient(h_positions)
    # coset position of each invertible basis index
    coset_pos = {}
    for pos, coset in enumerate(data.cosets):
        for idx in coset:
            coset_pos[idx] = pos

    noninv = [i for i in range(ring.rank) if i not in coset_pos]
    x0 = noninv[0]
    # coset tag of each noninvertible: y = g*x0 for g in a unique coset
    noninv_coset = {}
    for y in noninv:
        gs = [gi for gi in inv.indices if ring.rows[gi][x0][y] == 1]
        if not gs:
            raise InternalInvariantError("orbit labelling failed")
        noninv_coset[y] = coset_pos[gs[0]]

    profile = dimension_profile(ring)
    if profile is None or not profile.is_two_dimension:
        raise InternalInvariantError("two-orbit ring without a two-dimension profile")
    disc = profile.r * profile.r + 4 * profile.s
    dec = squarefree_part(disc)

    models: list[IrrepModel] = []

    # characters of G nontrivial on H: vanish off the group
    g_chars = abelian_characters(g)
    ng = g.exponent
    for ch in g_chars:
        if ch.is_trivial_on(set(h_positions)):
            continue
        mats = []
        for b in range(ring.rank):
            if b in coset_pos:
                val = ch.value(inv.indices.index(b))
                mats.append(((CycSqrt(val, Cyc.zero(ng), h_size),),))
            else:
                mats.append(((CycSqrt.of(ng, h_size),),))
        models.append(IrrepModel(1, tuple(mats), SOURCE_IRR_H, ng, h_size))

    # quotient semidirect models
    theta = data.theta
    if theta is None:
        raise InternalInvariantError("two-orbit data without a coset involution")
    for rep in semidirect_irr(quotient, theta):
        if rep.kind == "extension" and rep.chi.is_trivial:
            continue  # replaced by the two dimension characters below
        nq = rep.N
        zero = Cyc.zero(nq)
        sqrt_h = CycSqrt(zero, Cyc.one(nq), h_size)
        mats = []
        for b in range(ring.rank):
            if b in coset_pos:
                base = rep.matrix(coset_pos[b], 0)
                mats.append(tuple(tuple(CycSqrt(v, zero, h_size) for v in row) for row in base))
            else:
                base = rep.matrix(noninv_coset[b], 1)
                lifted = tuple(tuple(CycSqrt(v, zero, h_size) for v in row) for row in base)
                mats.append(_mat_scale(lifted, sqrt_h))
        models.append(IrrepModel(rep.dim, tuple(mats), SOURCE_SEMIDIRECT, nq, h_size))

    # the two one-dimensional characters sending x to the roots of
    # d^2 = r d + s
    for sign, tag in ((1, SOURCE_D_PLUS), (-1, SOURCE_D_MINUS)):
        u = Fraction(profile.r, 2)
        v = Fraction(sign * dec.y, 2)
        mats = []
        for b in range(ring.rank):
            if b in coset_pos:
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
    psi(i) psi(j) != sum_k c[i,j,k] psi(k) (empty list = model is valid).

    Only the pairs with i in {0} + algebra_generators(ring) are checked at
    first, and that is exactly as strong as checking every pair, whether
    or not psi(b_0) is the identity.  Extend psi linearly and let
    A = {a : psi(a b) = psi(a) psi(b) for every b}.  A is a subspace, and
    it is closed under products: for a, a' in A, psi(a a' b) =
    psi(a) psi(a' b) = psi(a) psi(a') psi(b) = psi(a a') psi(b), by
    associativity, a' in A and a in A (twice).  The first pass puts b_0
    and every generator in A, so A holds the algebra they generate, which
    is the whole ring.  Only when that pass fails are all rank^2 pairs
    scanned, so the list of failing pairs is the same as the full scan's."""
    lefts = (0, *algebra_generators(ring))
    if next(_product_failures(ring, model, lefts), None) is None:
        return []
    return list(_product_failures(ring, model, range(ring.rank)))


def _product_failures(ring: FusionRing, model: IrrepModel, lefts):
    """The pairs (i, j), i in lefts, where psi(i) psi(j) and
    sum_k c[i,j,k] psi(k) differ, in index order.  Each entry of their
    difference is one `CycSqrt.dot`, reduced once, and it is zero exactly
    when the two entries are equal componentwise."""
    mats = model.matrices
    cells = [(r, s) for r in range(model.dim) for s in range(model.dim)]
    for i in lefts:
        for j in range(ring.rank):
            ks = [k for k, c in enumerate(ring.rows[i][j]) if c]
            minus_cs = [-ring.rows[i][j][k] for k in ks]
            for r, s in cells:
                xs = [*mats[i][r], *(mats[k][r][s] for k in ks)]
                ys = [*(row[s] for row in mats[j]), *minus_cs]
                if not CycSqrt.dot(xs, ys).is_zero:
                    yield (i, j)
                    break
