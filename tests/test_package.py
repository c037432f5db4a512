"""The lazy package namespace: every exported name, and nothing else, is
served from its submodule."""

import importlib

import pytest

import fusionring as fr

# the names `fusionring/__init__.py` imported eagerly, in order, grouped by submodule
EXPORTS = {
    "algebraic": ["AlgebraicReal", "IsolatedRoot", "Quadratic", "alg_cmp"],
    "classify": ["LevelEntry", "LevelReport", "classify_elementary2", "classify_generic", "scan_prime_levels"],
    "construct": [
        "CharacterTable",
        "character_ring",
        "dihedral_character_ring",
        "dihedral_character_table",
        "group_ring",
        "haagerup_izumi",
        "near_group",
        "uniform_two_orbit",
    ],
    "errors": [
        "FusionRingError",
        "HypothesisError",
        "InternalInvariantError",
        "MalformedRingError",
        "NotAFusionRingError",
        "NotTwoOrbitError",
        "ThetaInconsistentError",
    ],
    "numtheory": ["SquareFreeDecomposition", "quad_sign", "squarefree_part", "totient"],
    "obstruct": [
        "ObstructionVerdict",
        "budget_bound",
        "elementary2_coarse",
        "elementary2_coarse_both",
        "endgame_both",
        "endgame_check",
        "obstruct_divisibility",
        "obstruct_noncommutative",
        "prime_parity",
        "prime_xbound",
        "quartic_coeffs",
        "quartic_f",
        "run_all",
    ],
    "represent": [
        "Codegree",
        "IrrepModel",
        "codegree_spectrum",
        "irr0_codegrees",
        "irr_H_of_G",
        "semidirect_irr",
        "uniform_irreps",
        "verify_irrep",
    ],
    "ring": [
        "DimensionProfile",
        "FusionRing",
        "TwoOrbitData",
        "Violation",
        "dimension_profile",
        "fpdim_basis",
        "fpdim_total",
        "invertibles",
        "is_commutative",
        "orbit_structure",
        "two_orbit_data",
        "verify_axioms",
    ],
    "ringfile": ["dumps_ring", "load_ring", "loads_ring"],
}
PAIRS = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_is_the_old_export_list():
    assert fr.__all__ == [name for _, name in PAIRS]
    assert fr.__version__ == "0.1.0"


@pytest.mark.parametrize("module, name", PAIRS, ids=[name for _, name in PAIRS])
def test_each_name_is_its_submodules_object(module, name):
    assert getattr(fr, name) is getattr(importlib.import_module(f"fusionring.{module}"), name)


def test_star_import_binds_the_same_objects():
    namespace: dict = {}
    exec("from fusionring import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fr.__all__)
    assert all(namespace[name] is getattr(fr, name) for name in fr.__all__)


def test_dir_lists_exports_and_submodules():
    listed = dir(fr)
    assert set(fr.__all__) <= set(listed)
    assert {"cli", "cyclotomic", "groups", "intpoly", "obstruct", "ring"} <= set(listed)


def test_submodule_attributes():
    assert fr.obstruct.eliminated is importlib.import_module("fusionring.obstruct").eliminated
    assert fr.intpoly.krylov is importlib.import_module("fusionring.intpoly").krylov


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        fr.no_such_name
    assert not hasattr(fr, "fusion_matrix")  # removed from the API earlier; stays gone
    with pytest.raises(ImportError):
        exec("from fusionring import no_such_name", {})
