"""Exact fusion-ring arithmetic, invariants, and categorifiability
obstruction checks.

Submodules load on first use (PEP 562): `import fusionring` runs none of
them, and `fusionring.<name>` imports the submodule that defines <name>.
A name is looked up afresh on each access, so it is always the object that
`fusionring.<submodule>.<name>` holds."""

from importlib import import_module as _import_module

_EXPORTS = {
    "algebraic": ("AlgebraicReal", "IsolatedRoot", "Quadratic", "alg_cmp"),
    "classify": ("LevelEntry", "LevelReport", "classify_elementary2", "classify_generic", "scan_prime_levels"),
    "construct": (
        "CharacterTable", "character_ring", "dihedral_character_ring", "dihedral_character_table",
        "group_ring", "haagerup_izumi", "near_group", "uniform_two_orbit",
    ),
    "errors": (
        "FusionRingError", "HypothesisError", "InternalInvariantError", "MalformedRingError",
        "NotAFusionRingError", "NotTwoOrbitError", "ThetaInconsistentError",
    ),
    "numtheory": ("SquareFreeDecomposition", "quad_sign", "squarefree_part", "totient"),
    "obstruct": (
        "ObstructionVerdict", "budget_bound", "elementary2_coarse", "elementary2_coarse_both", "endgame_both",
        "endgame_check", "obstruct_divisibility", "obstruct_noncommutative", "prime_parity", "prime_xbound",
        "quartic_coeffs", "quartic_f", "run_all",
    ),
    "represent": (
        "Codegree", "IrrepModel", "codegree_spectrum", "irr0_codegrees", "irr_H_of_G", "semidirect_irr",
        "uniform_irreps", "verify_irrep",
    ),
    "ring": (
        "DimensionProfile", "FusionRing", "TwoOrbitData", "Violation", "dimension_profile", "fpdim_basis",
        "fpdim_total", "invertibles", "is_commutative", "orbit_structure", "two_orbit_data", "verify_axioms",
    ),
    "ringfile": ("dumps_ring", "load_ring", "loads_ring"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "cyclotomic", "groups", "intpoly"}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
