"""Finite groups as multiplication tables, plus character data for the
abelian case.

The identity is always at index 0.  Characters of an abelian group are
represented as exponent vectors e with values zeta_N^e(g), N the group
exponent; this keeps all character arithmetic in Z/N.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InternalInvariantError


class FiniteGroup:
    """Immutable multiplication table with identity at index 0."""

    def __init__(self, table: Sequence[Sequence[int]], names: Sequence[str] | None = None):
        n = len(table)
        tab = tuple(tuple(int(x) for x in row) for row in table)
        if any(len(row) != n for row in tab):
            raise ValueError("multiplication table must be square")
        if any(not 0 <= x < n for row in tab for x in row):
            raise ValueError("table entries out of range")
        if any(tab[0][j] != j or tab[j][0] != j for j in range(n)):
            raise ValueError("index 0 must be the identity")
        gens = _right_generators(tab)
        if any(tab[tab[x][y]][s] != tab[x][tab[y][s]] for s in gens for x in range(n) for y in range(n)):
            for i in range(n):  # name the first failing triple
                for j in range(n):
                    for k in range(n):
                        if tab[tab[i][j]][k] != tab[i][tab[j][k]]:
                            raise ValueError(f"non-associative at ({i},{j},{k})")
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if tab[i][j] == 0:
                    inv[i] = j
        if any(v is None for v in inv):
            raise ValueError("not every element has an inverse")
        self.table = tab
        self.inverse = tuple(inv)
        self.order = n
        self.names = tuple(names) if names is not None else tuple(f"g{i}" for i in range(n))

    @classmethod
    def from_table(cls, table: Sequence[Sequence[int]], names: Sequence[str] | None = None) -> "FiniteGroup":
        """Build from a Cayley table whose identity may sit anywhere."""
        n = len(table)
        ident = None
        for e in range(n):
            if all(table[e][j] == j and table[j][e] == j for j in range(n)):
                ident = e
                break
        if ident is None:
            raise ValueError("table has no identity element")
        perm = [ident] + [i for i in range(n) if i != ident]
        pos = {g: i for i, g in enumerate(perm)}
        newtab = [[pos[table[perm[i]][perm[j]]] for j in range(n)] for i in range(n)]
        newnames = None if names is None else [names[g] for g in perm]
        return cls(newtab, newnames)

    def mult(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    @cached_property
    def is_abelian(self) -> bool:
        t = self.table
        return all(t[i][j] == t[j][i] for i in range(self.order) for j in range(self.order))

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.mult(x, a)
            k += 1
        return k

    @cached_property
    def exponent(self) -> int:
        e = 1
        for a in range(self.order):
            o = self.element_order(a)
            e = e * o // math.gcd(e, o)
        return e

    def subgroup_generated(self, gens: Iterable[int]) -> tuple[int, ...]:
        seen = {0}
        frontier = [0]
        gens = list(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                for y in (self.mult(x, g), self.mult(x, self.inv(g))):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        return tuple(sorted(seen))

    def is_normal(self, elems: Sequence[int]) -> bool:
        s = set(elems)
        return all(
            self.mult(self.mult(g, h), self.inv(g)) in s for g in range(self.order) for h in s
        )

    def left_cosets(self, sub: Sequence[int]) -> list[tuple[int, ...]]:
        """Left cosets of a subgroup, each sorted, ordered by representative."""
        seen: set[int] = set()
        cosets = []
        for g in range(self.order):
            if g in seen:
                continue
            coset = tuple(sorted(self.mult(g, h) for h in sub))
            seen.update(coset)
            cosets.append(coset)
        return cosets

    def quotient(self, sub: Sequence[int]) -> tuple["FiniteGroup", list[int]]:
        """Quotient by a normal subgroup.

        Returns (Q, projection) where projection[g] is the index in Q of the
        coset of g.  Coset 0 is the subgroup itself; representatives are the
        minimal elements of each coset.
        """
        if not self.is_normal(sub):
            raise ValueError("subgroup is not normal")
        cosets = self.left_cosets(sub)
        which = {}
        for idx, coset in enumerate(cosets):
            for g in coset:
                which[g] = idx
        reps = [min(c) for c in cosets]
        table = [[which[self.mult(reps[i], reps[j])] for j in range(len(cosets))] for i in range(len(cosets))]
        q = FiniteGroup(table, names=[self.names[r] for r in reps])
        return q, [which[g] for g in range(self.order)]


def _right_generators(tab: tuple) -> list[int]:
    """Indices S such that every element is a product (..((0 s_1) s_2)..) s_r
    of the identity 0 by elements of S, taken greedily: while some element
    is not reached, the least one joins S, and the reached set is closed
    under right multiplication by S.

    Light's test, (x y) s = x (y s) for all x, y and every s in S, is then
    exactly associativity, with 0 a two-sided identity.  Let A be the
    elements a with (x y) a = x (y a) for all x, y.  The identity is in A,
    and A is closed under products: for a, b in A, (x y)(a b) =
    ((x y) a) b = (x (y a)) b = x ((y a) b) = x (y (a b)), using b in A
    three times and a in A once.  The test puts S in A, so A holds every
    (..((0 s_1) s_2)..) s_r, which is every element.  That is the argument
    of `ring._generator_first`, with right factors."""
    n = len(tab)
    reached = [True] + [False] * (n - 1)
    order = [0]  # the reached indices; grows while it is scanned
    gens: list[int] = []
    while len(order) < n:
        gens.append(reached.index(False))
        for x in order:
            for s in gens:
                y = tab[x][s]
                if not reached[y]:
                    reached[y] = True
                    order.append(y)
    return gens


def abelian_group(factors: Sequence[int]) -> FiniteGroup:
    """Direct product of cyclic groups C_{n1} x ... x C_{nk}.

    Elements are mixed-radix tuples; index 0 is the identity.  An empty
    factor list gives the trivial group.
    """
    factors = tuple(int(f) for f in factors)
    if any(f < 2 for f in factors):
        raise ValueError("cyclic factors must be >= 2")
    order = math.prod(factors) if factors else 1
    elems = []
    for idx in range(order):
        t = []
        rem = idx
        for f in reversed(factors):
            t.append(rem % f)
            rem //= f
        elems.append(tuple(reversed(t)))
    pos = {e: i for i, e in enumerate(elems)}

    def add(x, y):
        return tuple((a + b) % f for a, b, f in zip(x, y, factors))

    table = [[pos[add(x, y)] for y in elems] for x in elems]
    names = [",".join(map(str, e)) if factors else "e" for e in elems]
    return FiniteGroup(table, names)


def parse_group_factors(text: str) -> tuple[int, ...]:
    """Parse a factor list like '2,2,4'; empty or '1' means trivial."""
    text = text.strip()
    if not text or text == "1":
        return ()
    return tuple(int(p) for p in text.split(","))


def _solve_mod(m: int, a: int, N: int) -> list[int]:
    """All t in Z/N with m*t = a (mod N)."""
    g = math.gcd(m, N)
    if a % g:
        return []
    m1, a1, n1 = m // g, a // g, N // g
    t0 = a1 * pow(m1, -1, n1) % n1
    return [(t0 + i * n1) % N for i in range(g)]


def character_exponents(group: FiniteGroup) -> list[tuple[int, ...]]:
    """All characters of an abelian group as exponent vectors.

    Character chi_e(g) = zeta_N^{e[g]} with N = group.exponent.  Built by
    extending characters up a chain of cyclic extensions; exact throughout.
    """
    if not group.is_abelian:
        raise ValueError("character_exponents needs an abelian group")
    N = group.exponent
    members = [0]
    in_sub = {0}
    chars: list[dict[int, int]] = [{0: 0}]
    for g in range(1, group.order):
        if g in in_sub:
            continue
        # minimal m with g^m inside the current subgroup
        m = 1
        x = g
        while x not in in_sub:
            x = group.mult(x, g)
            m += 1
        landing = x
        new_chars = []
        for ch in chars:
            for t in _solve_mod(m, ch[landing], N):
                ext = dict(ch)
                powg = 0
                for j in range(1, m):
                    powg = group.mult(powg, g)
                    for h in members:
                        ext[group.mult(h, powg)] = (ch[h] + j * t) % N
                new_chars.append(ext)
        chars = new_chars
        new_members = []
        powg = 0
        for j in range(m):
            for h in members:
                new_members.append(group.mult(h, powg))
            powg = group.mult(powg, g)
        members = new_members
        in_sub = set(members)
    if len(chars) != group.order:
        raise InternalInvariantError("abelian group must have |G| characters")
    out = [tuple(ch[g] for g in range(group.order)) for ch in chars]
    out.sort()
    return out


def is_automorphism(group: FiniteGroup, phi: Sequence[int]) -> bool:
    if sorted(phi) != list(range(group.order)) or phi[0] != 0:
        return False
    return all(
        phi[group.mult(a, b)] == group.mult(phi[a], phi[b])
        for a in range(group.order)
        for b in range(group.order)
    )
