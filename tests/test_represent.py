import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import fusionring as fr
from conftest import (
    assert_codegrees_match_yun_oracle,
    characters_commutative,
    charpoly_oracle,
    crosscheck_uniform_rings,
    cyc_lift_oracle,
    cyc_mul_oracle,
    cycsqrt_sum,
    fpdim_krylov_oracle,
    global_multiplication_oracle,
    global_multiplication_path_sum,
    nonzero_rows,
    numeric_eigs,
    su2_ring,
    verify_irrep_oracle,
)
from fusionring import Quadratic, alg_cmp, intpoly, represent
from fusionring.cyclotomic import Cyc, CycSqrt
from fusionring.errors import HypothesisError, InternalInvariantError
from fusionring.represent import (
    SOURCE_D_MINUS,
    SOURCE_D_PLUS,
    SOURCE_IRR_H,
    SOURCE_SEMIDIRECT,
    IrrepModel,
    abelian_characters,
)
from fusionring.ring import algebra_generators, global_krylov, global_multiplication_matrix


def test_codegrees_group_ring():
    for factors in ((2,), (2, 2), (3,)):
        ring = fr.group_ring(factors)
        spec = fr.codegree_spectrum(ring)
        assert len(spec) == 1
        assert spec[0].value == ring.rank
        assert spec[0].eigen_multiplicity == ring.rank
        assert spec[0].dim_hint == 1


def test_global_krylov_once_per_ring(monkeypatch):
    # fpdim_total (at any width) and codegree_spectrum share M and its Krylov polynomial
    calls = []
    krylov = intpoly.krylov
    monkeypatch.setattr(intpoly, "krylov", lambda matrix: calls.append(matrix) or krylov(matrix))
    for ring in (su2_ring(5), fr.near_group((2, 2), 8), fr.haagerup_izumi((3,))):
        calls.clear()
        m = global_multiplication_matrix(ring)
        fr.fpdim_total(ring)
        represent.codegree_spectrum(ring)
        fr.fpdim_total(ring, width=Fraction(1, 2**100))
        assert calls == [nonzero_rows(m)]


def test_global_krylov_rows_cannot_be_changed():
    # a caller that could change the memoized M or its Krylov vectors would
    # break the trace checks of a later codegree_spectrum
    m, _, powers = global_krylov(fr.near_group((3,), 3))
    for rows in (m, powers):
        with pytest.raises(TypeError):
            rows[0][0] += 1


def test_global_multiplication_matrix_matches_the_path_sum_and_the_sum_of_n_x_n_x_transposed(
    small_corpus, two_orbit_corpus, spectra_corpus
):
    rings = [*small_corpus.values(), *two_orbit_corpus.values(), *spectra_corpus.values()]
    rings += [su2_ring(k) for k in range(1, 21)] + [fr.haagerup_izumi((50,))]
    for ring in rings:
        m = global_multiplication_matrix(ring)
        assert m == global_multiplication_path_sum(ring) == global_multiplication_oracle(ring), ring


def test_codegree_spectrum_of_a_group_ring_takes_one_gcd(monkeypatch):
    # M = 36 I: mp = x - 36 has a single root, whose multiplicity is
    # rank - 0 = 36, confirmed by one gcd instead of one per multiplicity
    calls = []
    gcd = intpoly.poly_gcd
    monkeypatch.setattr(intpoly, "poly_gcd", lambda p, q: calls.append((p, q)) or gcd(p, q))
    spec = fr.codegree_spectrum(fr.group_ring((36,)))
    assert [(e.value, e.eigen_multiplicity) for e in spec] == [(36, 36)]
    assert len(calls) <= 1


def test_codegrees_near_group_c2_2():
    spec = fr.codegree_spectrum(fr.near_group((2,), 2))
    values = [e.value for e in spec]
    assert values == [Quadratic(6, 2, 3), Quadratic(6, -2, 3), Quadratic(2)]
    assert all(e.eigen_multiplicity == 1 and e.dim_hint == 1 for e in spec)


def test_codegrees_haagerup():
    spec = fr.codegree_spectrum(fr.haagerup_izumi((3,)))
    # multiplicity-4 eigenvalue 6 = (dim 2) * (codegree 3) for the 2-dim irrep
    mult4 = [e for e in spec if e.eigen_multiplicity == 4]
    assert len(mult4) == 1 and mult4[0].value == 6
    assert mult4[0].dim_hint is None  # ring is noncommutative
    top = spec[0].value
    d = fpdim_krylov_oracle(fr.haagerup_izumi((3,)), 3)
    assert top == 3 + 3 * d * d


def test_codegree_sum_matches_rank(small_corpus):
    for name, ring in small_corpus.items():
        spec = fr.codegree_spectrum(ring)
        assert sum(e.eigen_multiplicity for e in spec) == ring.rank, name


def test_codegree_lower_bound(small_corpus):
    # dim(psi) f_psi >= |G_R| on every eigenvalue of M
    for name, ring in small_corpus.items():
        order = fr.invertibles(ring).order
        for e in fr.codegree_spectrum(ring):
            assert alg_cmp(e.value, order) >= 0, name


def test_irr_H_of_G_counts():
    assert len(fr.irr_H_of_G((2,), [0, 1])) == 1
    assert len(fr.irr_H_of_G((4,), [0, 2])) == 2
    assert fr.irr_H_of_G((4,), [0]) == []
    assert len(fr.irr_H_of_G((2, 2), [0, 1, 2, 3])) == 3


def test_irr0_codegrees():
    entries = fr.irr0_codegrees(fr.near_group((3,), 3))
    assert len(entries) == 2
    assert all(e.value == 3 and e.dim_hint == 1 for e in entries)
    assert fr.irr0_codegrees(fr.haagerup_izumi((3,))) == []
    entries = fr.irr0_codegrees(fr.near_group((2, 2), 4))
    assert len(entries) == 3
    assert all(e.value == 4 for e in entries)


def test_semidirect_irr_dims():
    assert sorted(r.dim for r in fr.semidirect_irr((3,), "inversion")) == [1, 1, 2]
    assert sorted(r.dim for r in fr.semidirect_irr((), "identity")) == [1, 1]
    assert sorted(r.dim for r in fr.semidirect_irr((4,), "inversion")) == [1, 1, 1, 1, 2]
    assert sorted(r.dim for r in fr.semidirect_irr((5,), "inversion")) == [1, 1, 2, 2]


def test_semidirect_irr_is_representation():
    from fusionring.construct import as_group

    k = as_group((4,))
    phi = k.inverse
    for rep in fr.semidirect_irr((4,), "inversion"):
        # multiplication law of K x| C2: (a,s)(b,t) = (a + theta^s b, s+t)
        for a in range(4):
            for b in range(4):
                for s in (0, 1):
                    for t in (0, 1):
                        ab = k.mult(a, phi[b] if s else b)
                        lhs = _mat_mult(rep.matrix(a, s), rep.matrix(b, t))
                        rhs = rep.matrix(ab, (s + t) % 2)
                        assert lhs == rhs


def test_semidirect_matrices_are_the_lifted_character_values(two_orbit_corpus):
    # every quotient of the two-orbit corpus with abelian invertibles, and
    # C_n x| C_2 by inversion: each entry is chi(k) or chi(theta k) carried
    # into Q(zeta_N) by the polynomial substitution x -> x^(N/n)
    groups = [(f"C{n}", (n,), "inversion") for n in range(2, 13)]
    for name, ring in two_orbit_corpus.items():
        data = fr.two_orbit_data(ring)
        if data.invertible.group.is_abelian and data.theta is not None:
            pos = {b: p for p, b in enumerate(data.group_indices)}
            quotient, _ = data.invertible.group.quotient([pos[s] for s in data.stabilizer])
            groups.append((name, quotient, data.theta))
    kinds = set()
    for name, group, theta in groups:
        for rep in fr.semidirect_irr(group, theta):
            kinds.add((rep.kind, rep.sign))
            zero = Cyc.zero(rep.N)
            for k in range(len(rep.theta)):
                chi_k = Cyc(rep.N, cyc_lift_oracle(rep.chi.value(k), rep.N))
                if rep.kind == "extension":
                    assert rep.matrix(k, 0) == ((chi_k,),), (name, rep, k)
                    assert rep.matrix(k, 1) == ((Cyc(rep.N, [rep.sign * c for c in chi_k.coeffs]),),), (name, rep, k)
                else:
                    chi_tk = Cyc(rep.N, cyc_lift_oracle(rep.chi.value(rep.theta[k]), rep.N))
                    assert rep.matrix(k, 0) == ((chi_k, zero), (zero, chi_tk)), (name, rep, k)
                    assert rep.matrix(k, 1) == ((zero, chi_k), (chi_tk, zero)), (name, rep, k)
    assert kinds == {("extension", 1), ("extension", -1), ("induced", 0)}


def _mat_mult(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum((Cyc(a[i][t].N, cyc_mul_oracle(a[i][t], b[t][j])) for t in range(m)), start=Cyc.zero(a[0][0].N)) for j in range(p))
        for i in range(n)
    )


def test_uniform_irreps_haagerup_c3():
    ring = fr.haagerup_izumi((3,))
    models = fr.uniform_irreps(ring)
    assert sorted(m.dim for m in models) == [1, 1, 2]
    assert {m.source_tag for m in models} == {SOURCE_SEMIDIRECT, SOURCE_D_PLUS, SOURCE_D_MINUS}
    for m in models:
        assert fr.verify_irrep(ring, m) == []


def test_uniform_irreps_near_group_c2_2():
    ring = fr.near_group((2,), 2)
    models = fr.uniform_irreps(ring)
    assert sorted(m.dim for m in models) == [1, 1, 1]
    tags = sorted(m.source_tag for m in models)
    assert tags == sorted([SOURCE_IRR_H, SOURCE_D_PLUS, SOURCE_D_MINUS])
    for m in models:
        assert fr.verify_irrep(ring, m) == []


def test_uniform_irreps_haagerup_c2():
    ring = fr.haagerup_izumi((2,))
    models = fr.uniform_irreps(ring)
    assert sorted(m.dim for m in models) == [1, 1, 1, 1]
    for m in models:
        assert fr.verify_irrep(ring, m) == []


def test_uniform_irreps_dimension_characters():
    ring = fr.near_group((2,), 2)
    profile = fr.dimension_profile(ring)
    d_plus = profile.d
    for m in fr.uniform_irreps(ring):
        if m.source_tag == SOURCE_D_PLUS:
            entry = m.matrices[2][0][0]  # value at rho
            assert entry.u.as_fraction() == d_plus.a
            got_b = entry.v.as_fraction()
            assert Quadratic(entry.u.as_fraction(), got_b, m.radicand) == d_plus


def test_uniform_irreps_bijection_with_parts(two_orbit_corpus):
    for name, ring in two_orbit_corpus.items():
        data = fr.two_orbit_data(ring)
        if (
            data.uniform_coeff is None
            or not data.invertible.group.is_abelian
            or not data.noninv_selfdual
        ):
            continue
        models = fr.uniform_irreps(ring)
        assert sum(m.dim**2 for m in models) == ring.rank, name
        g = data.invertible.group
        pos = {b: p for p, b in enumerate(data.group_indices)}
        sub = [pos[s] for s in data.stabilizer]
        quotient, _ = g.quotient(sub)
        irr_h = fr.irr_H_of_G(g, sub)
        semi = fr.semidirect_irr(quotient, data.theta)
        expected = sorted([1] * len(irr_h) + [r.dim for r in semi])
        assert sorted(m.dim for m in models) == expected, name


def test_uniform_irreps_refuses_nonselfdual():
    ring = fr.uniform_two_orbit((3,), "trivial", "identity", 1)
    with pytest.raises(HypothesisError, match="self-dual"):
        fr.uniform_irreps(ring)


def test_uniform_irreps_refuses_nonuniform():
    ring = fr.dihedral_character_ring(9)
    with pytest.raises(Exception):
        fr.uniform_irreps(ring)  # not even two-orbit


def _with_matrix(model: IrrepModel, b: int, mat) -> IrrepModel:
    return replace(model, matrices=(*model.matrices[:b], mat, *model.matrices[b + 1 :]))


def _nudged(model: IrrepModel, b: int, r: int, c: int) -> IrrepModel:
    """The model with entry (r, c) of psi(b) raised by 1."""
    mat = [list(row) for row in model.matrices[b]]
    mat[r][c] = cycsqrt_sum(mat[r][c], CycSqrt.of(model.root_order, model.radicand, u=1))
    return _with_matrix(model, b, tuple(tuple(row) for row in mat))


def _non_unital(model: IrrepModel) -> IrrepModel:
    """The model with psi(1) doubled."""
    return _with_matrix(model, 0, tuple(tuple(CycSqrt(e.u * 2, e.v * 2, e.D) for e in row) for row in model.matrices[0]))


def _by_source(models):
    """The first model of each source tag."""
    return list({m.source_tag: m for m in reversed(models)}.values())


def _assert_agrees(ring, model, failing: bool) -> None:
    got = fr.verify_irrep(ring, model)
    assert got == verify_irrep_oracle(ring, model)
    assert bool(got) == failing


def test_verify_irrep_matches_oracle_on_crosscheck_rings():
    # every model, every model with one entry changed, and every model with
    # psi(1) doubled: the same failing pairs as the all-pairs scan
    rng = random.Random(7)
    for ring in crosscheck_uniform_rings():
        for model in fr.uniform_irreps(ring):
            _assert_agrees(ring, model, failing=False)
            b, r, c = rng.randrange(ring.rank), rng.randrange(model.dim), rng.randrange(model.dim)
            _assert_agrees(ring, _nudged(model, b, r, c), failing=True)
            _assert_agrees(ring, _non_unital(model), failing=True)


def test_verify_irrep_matches_oracle_on_spectra_rings(spectra_uniform_corpus):
    # every model of the benchmark's uniform rings; the changed and
    # non-unital variants for one model of each source, so that each ring
    # costs a few full scans rather than one per model
    rng = random.Random(11)
    for name, ring in spectra_uniform_corpus.items():
        models = fr.uniform_irreps(ring)
        for model in models:
            assert fr.verify_irrep(ring, model) == verify_irrep_oracle(ring, model) == [], name
        for model in _by_source(models):
            b, r, c = rng.randrange(ring.rank), rng.randrange(model.dim), rng.randrange(model.dim)
            _assert_agrees(ring, _nudged(model, b, r, c), failing=True)
            _assert_agrees(ring, _non_unital(model), failing=True)


def test_verify_irrep_matches_oracle_on_nudged_corpus_models(spectra_uniform_corpus, two_orbit_corpus):
    # every model of the benchmark's uniform rings and of the two-orbit
    # corpus, with one entry's u or v part moved by +-1 or +-2, and the
    # D+- models (rational r/2 parts) also by 1/2: the packed check names
    # the same failing pairs as the all-pairs scan
    rng = random.Random(31)
    checked = 0
    for name, ring in {**spectra_uniform_corpus, **two_orbit_corpus}.items():
        try:
            models = fr.uniform_irreps(ring)
        except HypothesisError:
            continue
        for model in models:
            steps = [rng.choice((1, -1, 2, -2))]
            if model.source_tag in (represent.SOURCE_D_PLUS, represent.SOURCE_D_MINUS):
                steps.append(Fraction(1, 2))
            for step in steps:
                b, r, c = rng.randrange(ring.rank), rng.randrange(model.dim), rng.randrange(model.dim)
                part = {"u": step} if rng.random() < 0.5 else {"v": step}
                mat = [list(row) for row in model.matrices[b]]
                mat[r][c] = cycsqrt_sum(mat[r][c], CycSqrt.of(model.root_order, model.radicand, **part))
                nudged = _with_matrix(model, b, tuple(map(tuple, mat)))
                assert fr.verify_irrep(ring, nudged) == verify_irrep_oracle(ring, nudged), (name, model.source_tag, b, r, c, part)
                checked += 1
    assert checked >= 200


def test_verify_irrep_matches_oracle_when_psi_b0_is_not_the_identity():
    # the zero model, every model scaled by 2, and every model with psi(b_0)
    # and psi(b) swapped keep b_0 in the generator pass; a swap of two other
    # images leaves psi(b_0) = I, and b_0 out of it
    zeros = 0
    for ring in crosscheck_uniform_rings():
        for model in fr.uniform_irreps(ring):
            b = ring.rank - 1
            swapped_b0 = replace(model, matrices=(model.matrices[b], *model.matrices[1:b], model.matrices[0]))
            swapped = _with_matrix(_with_matrix(model, 1, model.matrices[b]), b, model.matrices[1])
            variants = [
                replace(model, matrices=tuple(tuple(tuple(CycSqrt(e.u * 0, e.v * 0, e.D) for e in row) for row in mat) for mat in model.matrices)),
                replace(model, matrices=tuple(tuple(tuple(CycSqrt(e.u * 2, e.v * 2, e.D) for e in row) for row in mat) for mat in model.matrices)),
                swapped_b0,
                swapped,
            ]
            for variant in variants:
                got = fr.verify_irrep(ring, variant)
                assert got == verify_irrep_oracle(ring, variant), (ring, model.source_tag)
                zeros += not got
    assert zeros > 0  # the zero model is a homomorphism


def test_verify_irrep_needs_a_generating_set():
    # near-group C4: rho alone generates only span{1, rho, sum g}, so a
    # check over {0, rho} accepts this non-homomorphism
    ring = fr.near_group((4,), 4)
    rho = 4
    assert ring.fusion_matrix(1)[1][2] == 1  # g2 = g1^2
    one, minus = CycSqrt.of(1, 1, u=1), CycSqrt.of(1, 1, u=-1)
    values = [one, one, minus, minus, CycSqrt.of(1, 1)]
    model = IrrepModel(1, tuple(((v,),) for v in values), "test", 1, 1)
    assert verify_irrep_oracle(ring, model, lefts=(0, rho)) == []
    assert algebra_generators(ring) == (1, rho)
    failures = fr.verify_irrep(ring, model)
    assert (1, 1) in failures
    assert failures == verify_irrep_oracle(ring, model)


def _sqrt_in_cyclotomic(N: int, D: int) -> bool:
    """Whether sqrt(D) lies in Q(zeta_N): D is a square, or the conductor of
    Q(sqrt(d)), d the square-free part of D, divides N."""
    if math.isqrt(D) ** 2 == D:
        return True
    d = D
    for p in range(2, math.isqrt(D) + 1):
        while d % (p * p) == 0:
            d //= p * p
    return N % (d if d % 4 == 1 else 4 * d) == 0


def test_sqrt_in_cyclotomic_examples():
    z8, z12, z5 = Cyc.root(8, 1), Cyc.root(12, 1), Cyc.root(5, 1)
    sqrt2 = z8 + z8.conjugate()
    sqrt3 = z12 + z12.conjugate()
    sqrt5 = Cyc.one(5) + (z5 + z5.conjugate()) * 2
    sqrt24 = Cyc(24, cyc_mul_oracle(Cyc(24, cyc_lift_oracle(sqrt2, 24)), Cyc(24, cyc_lift_oracle(sqrt3, 24)))) * 2
    for N, D, root in ((8, 2, sqrt2), (12, 3, sqrt3), (5, 5, sqrt5), (24, 24, sqrt24)):
        assert Cyc(N, cyc_mul_oracle(root, root)) == D and _sqrt_in_cyclotomic(N, D)
        # two forms of one number that CycSqrt == tells apart
        assert CycSqrt(root, Cyc.zero(N), D) != CycSqrt(Cyc.zero(N), Cyc.one(N), D)
    for N, D in ((4, 2), (24, 5), (8, 3), (3, 3), (1, 17), (12, 24)):
        assert not _sqrt_in_cyclotomic(N, D)


def test_irrep_fields_where_cycsqrt_equality_is_incomplete(spectra_uniform_corpus, two_orbit_corpus):
    # every (root_order, radicand) of a uniform_irreps model; in the pairs
    # with sqrt(D) in Q(zeta_N), CycSqrt == is sound but not complete, so a
    # new model in that class shows up here
    rings = {**spectra_uniform_corpus, **two_orbit_corpus}
    fields: dict[tuple[int, int], set[str]] = {}
    for name, ring in rings.items():
        try:
            models = fr.uniform_irreps(ring)
        except HypothesisError:
            continue
        for model in models:
            fields.setdefault((model.root_order, model.radicand), set()).add(name)
    complete = sorted(f for f in fields if not _sqrt_in_cyclotomic(*f))
    incomplete = sorted(f for f in fields if _sqrt_in_cyclotomic(*f))
    assert complete == [
        *((1, D) for D in (2, 3, 5, 6, 7, 10, 11, 13, 17, 19, 21, 29, 38, 39, 42, 146)),
        (2, 2), (2, 3), (3, 3), (4, 2), (6, 2), (6, 3), (6, 24), (12, 2), (12, 24),
    ]
    assert incomplete == [(1, 1), (2, 1), (2, 4), (2, 16), (4, 1), (4, 4), (6, 1), (8, 1), (10, 1), (24, 24)]
    # the only non-square radicand among them: sqrt(24) = 2 sqrt(2) sqrt(3)
    assert sorted(fields[(24, 24)]) == ["near_group((24,), 24)", "near_group((24,), 48)"]
    assert sorted(fields[(2, 16)]) == ["near_group((2, 2, 2, 2), 0)", "near_group((2, 2, 2, 2), 16)"]


def test_uniform_irreps_checks_every_model(monkeypatch):
    ring = fr.near_group((2,), 2)
    checked = []
    monkeypatch.setattr(represent, "verify_irrep", lambda r, m: checked.append(m) or [])
    assert represent.uniform_irreps(ring) == checked
    monkeypatch.setattr(represent, "verify_irrep", lambda r, m: [(0, 0)])
    with pytest.raises(InternalInvariantError, match="not a homomorphism"):
        represent.uniform_irreps(ring)


def test_characters_commutative_group_ring():
    chars = characters_commutative(fr.group_ring((2,)))
    vals = sorted(tuple(round(float(re)) for re, im in ch.values) for ch in chars)
    assert vals == [(1, -1), (1, 1)]


def test_characters_commutative_near_group():
    chars = characters_commutative(fr.near_group((2,), 1))
    rho_vals = sorted(round(float(ch.values[2][0]), 6) for ch in chars)
    assert rho_vals == [-1.0, 0.0, 2.0]
    chars = characters_commutative(fr.near_group((2,), 2))
    rho_vals = sorted(round(float(ch.values[2][0]), 6) for ch in chars)
    import math

    assert rho_vals == [round(1 - math.sqrt(3), 6), 0.0, round(1 + math.sqrt(3), 6)]


def test_characters_square_sum_matches_codegrees():
    ring = fr.near_group((2,), 2)
    chars = characters_commutative(ring)
    eigs = sorted(float(e.value) for e in fr.codegree_spectrum(ring))
    sums = []
    for ch in chars:
        total = 0.0
        for i in range(ring.rank):
            re, im = ch.values[i]
            rd, imd = ch.values[ring.dual[i]]
            total += float(re) * float(rd) - float(im) * (-float(imd))
        sums.append(round(total, 6))
    assert sorted(sums) == [round(e, 6) for e in eigs]


def test_characters_vanishing_count_matches_irr0(two_orbit_corpus):
    for name, ring in two_orbit_corpus.items():
        if not fr.is_commutative(ring):
            continue
        data = fr.two_orbit_data(ring)
        if not data.invertible.group.is_abelian:
            continue
        expected = len(fr.irr0_codegrees(ring))
        chars = characters_commutative(ring)
        noninv = [i for i in range(ring.rank) if i not in set(data.group_indices)]
        vanishing = 0
        for ch in chars:
            if all(abs(complex(float(r), float(im))) < 1e-6 for r, im in (ch.values[i] for i in noninv)):
                vanishing += 1
        assert vanishing == expected, name


def test_characters_commutative_rejects_noncommutative():
    with pytest.raises(HypothesisError):
        characters_commutative(fr.haagerup_izumi((3,)))


def test_characters_commutative_tight_width_escalates():
    # beyond float64 resolution: the multiprecision fallback must certify
    width = Fraction(1, 2**60)
    chars = characters_commutative(fr.near_group((2,), 2), width=width)
    assert len(chars) == 3
    assert all(c.residual_bound < width for c in chars)


def test_abelian_characters_orthogonality():
    from fusionring.construct import as_group

    g = as_group((2, 3))
    chars = abelian_characters(g)
    assert len(chars) == 6
    for ch in chars:
        total = Cyc.zero(ch.N)
        for e in range(g.order):
            total = total + ch.value(e)
        if ch.is_trivial:
            assert total.as_fraction() == g.order
        else:
            assert total.is_zero


def test_spectrum_against_oracle_small():
    for build in (lambda: fr.near_group((3,), 2), lambda: fr.haagerup_izumi((2,))):
        ring = build()
        m = global_multiplication_matrix(ring)
        assert intpoly.krylov(nonzero_rows(m))[0] == intpoly.squarefree_part(charpoly_oracle(m))
        assert_codegrees_match_yun_oracle(ring)
        approx = sorted(float(e.value) for e in fr.codegree_spectrum(ring) for _ in range(e.eigen_multiplicity))
        assert np.allclose(approx, numeric_eigs(m), atol=1e-8)


def test_codegree_factors_match_yun_oracle(small_corpus, two_orbit_corpus, spectra_corpus):
    rings = [*small_corpus.values(), *two_orbit_corpus.values(), *spectra_corpus.values()]
    rings += [su2_ring(k) for k in range(1, 20)]
    rings.append(fr.haagerup_izumi((32,)))
    for ring in rings:
        assert_codegrees_match_yun_oracle(ring)
