"""Cross-validation between independent computation routes.

Each test here computes the same quantity twice through code paths that
share as little as possible: the Pell-equation scan against a scan of
every m and against definitional per-k evaluation, exact irreducible models against the eigenvalue spectrum and
against numerically certified characters, and total dimensions against
per-basis sums.
"""

import fusionring as fr
from conftest import characters_commutative, fpdim_total_krylov_oracle, is_squarefree, linear_scan_hits
from fusionring import Quadratic, alg_cmp
from fusionring.classify import _admissible, _pell_hits, scan_prime_levels
from fusionring.numtheory import squarefree_part, totient
from fusionring.represent import SOURCE_IRR_H


def test_scan_matches_per_k_brute_force():
    # definitional route: k = 1, or k even with the exact square-free-part
    # bound holding at m = k/2 (odd k > 1 fails parity); x from factorization
    p, kmax = 7, 2000
    brute = []
    for k in range(1, kmax + 1):
        if k == 1:
            brute.append((k, squarefree_part(p + 4).x))
            continue
        if k % 2:
            continue
        m = k // 2
        v = m * m * p + 1
        x = squarefree_part(v).x
        lhs = totient(x) ** 2 * (p - 1) ** 2 * m * m
        rhs = x * (p + 1) ** 2 * v
        if lhs <= rhs:
            brute.append((k, x))
    scanned = [(e.k, e.x) for e in scan_prime_levels(p, kmax).levels]
    assert scanned == brute


def test_scan_certificates_match_the_public_tests():
    # the scan reads phi(x) off its search and checks p once; each certificate
    # must equal the one prime_parity and prime_xbound compute anew
    for p, kmax in ((7, 10**7), (47, 10**9), (1019, 10**12)):
        for e in scan_prime_levels(p, kmax).levels[1:]:
            assert e.certificates == (fr.prime_parity(p, e.k), fr.prime_xbound(p, e.k // 2)), (p, e.k)


def test_pell_hits_match_linear_scan():
    # every (m, x) up to m = 10^5 over the whole admissible set, no filter
    for p in (7, 11, 19, 23, 31, 43, 47):
        xs = [x for x, _, _ in _admissible(p)]
        pell = _pell_hits(p, 10**5, xs)
        assert [(m, x) for m, x, _ in pell] == linear_scan_hits(p, 10**5, xs), p
        assert all(x * y * y == m * m * p + 1 for m, x, y in pell), p


def test_pell_hits_match_squarefree_parts_of_each_m():
    # the continued fractions stop once the unit is out of reach of m_max;
    # every hit up to m_max, including m = m_max itself, must remain, with
    # x and y read off the factorization of m^2 p + 1
    for p, m_max in ((7, 60), (1019, 30), (4099, 10)):
        xs = [x for x, _, _ in _admissible(p)]
        admissible = set(xs)
        brute = []
        for m in range(1, m_max + 1):
            dec = squarefree_part(m * m * p + 1)
            if dec.x in admissible:
                brute.append((m, dec.x, dec.y))
        for top in range(m_max + 1):
            assert _pell_hits(p, top, xs) == [h for h in brute if h[0] <= top], (p, top)


def test_admissible_set_matches_brute_force():
    for p in (7, 11):
        xs = {x for x, _, _ in _admissible(p)}
        for x in range(1, 1500):
            if not is_squarefree(x) or x % p == 0:
                assert x not in xs or not is_squarefree(x)
                continue
            holds = totient(x) ** 2 * (p - 1) ** 2 <= x * (p + 1) ** 3
            assert (x in xs) == holds, (p, x)


def test_irrep_models_hit_codegree_eigenvalues():
    # for each 1-dimensional exact model chi of a commutative uniform ring,
    # sum_i chi(i) chi(dual(i)) must be an eigenvalue of M
    for ring in (fr.near_group((2,), 1), fr.near_group((2,), 2), fr.near_group((2, 2), 4), fr.haagerup_izumi((2,))):
        models = fr.uniform_irreps(ring)
        spectrum = fr.codegree_spectrum(ring)
        for model in models:
            if model.dim != 1:
                continue
            entries = [model.matrices[i][0][0] for i in range(ring.rank)]
            if not all(e.u.is_rational and e.v.is_rational for e in entries):
                continue
            total = Quadratic(0, 0, model.radicand)
            for i in range(ring.rank):
                a = Quadratic(entries[i].u.as_fraction(), entries[i].v.as_fraction(), model.radicand)
                j = ring.dual[i]
                b = Quadratic(entries[j].u.as_fraction(), entries[j].v.as_fraction(), model.radicand)
                total = total + a * b
            assert any(alg_cmp(total, e.value) == 0 for e in spectrum), (
                ring.labels,
                model.source_tag,
            )


def test_irrep_models_match_certified_characters():
    # exact one-dimensional models agree numerically with the certified
    # simultaneous-eigenvector characters
    for ring in (fr.near_group((2,), 2), fr.near_group((3,), 3), fr.haagerup_izumi((2,))):
        if not fr.is_commutative(ring):
            continue
        models = [m for m in fr.uniform_irreps(ring) if m.dim == 1]
        certified = characters_commutative(ring)
        cert_vecs = {
            tuple(round(float(re), 6) for re, im in ch.values) for ch in certified
        }
        matched = 0
        for model in models:
            vals = []
            ok = True
            for i in range(ring.rank):
                e = model.matrices[i][0][0]
                if not (e.u.is_rational and e.v.is_rational):
                    ok = False
                    break
                q = Quadratic(e.u.as_fraction(), e.v.as_fraction(), model.radicand)
                vals.append(round(float(q), 6))
            if ok and tuple(vals) in cert_vecs:
                matched += 1
        assert matched >= 2, ring.labels  # at least the two dimension characters


def test_total_dimension_against_per_basis_sum():
    for ring in (
        fr.near_group((2,), 2),
        fr.near_group((3,), 4),
        fr.haagerup_izumi((3,)),
        fr.haagerup_izumi((4,)),
        fr.dihedral_character_ring(7),
    ):
        dims = [fr.fpdim_basis(ring, i) for i in range(ring.rank)]
        assert all(isinstance(d, Quadratic) for d in dims)
        total = Quadratic(0)
        common = next((d.D for d in dims if d.D), 0)
        total = Quadratic(0, 0, common)
        for d in dims:
            total = total + d * d
        oracle = fpdim_total_krylov_oracle(ring)
        assert alg_cmp(total, oracle) == 0 and alg_cmp(fr.fpdim_total(ring), oracle) == 0, ring.labels


def test_vanishing_characters_match_subgroup_count():
    # the number of irreducible models vanishing off the invertibles equals
    # |G| - [G:H], independently of the spectrum route used elsewhere
    for ring in (fr.near_group((2, 2), 4), fr.near_group((4,), 8), fr.haagerup_izumi((3,))):
        data = fr.two_orbit_data(ring)
        models = fr.uniform_irreps(ring)
        vanishing = [m for m in models if m.source_tag == SOURCE_IRR_H]
        order = data.invertible.order
        assert len(vanishing) == order - order // len(data.stabilizer)
        assert len(vanishing) == len(fr.irr0_codegrees(ring))
        for m in models:
            assert fr.verify_irrep(ring, m) == [], (ring.labels, m.source_tag)
