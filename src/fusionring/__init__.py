"""Exact fusion-ring arithmetic, invariants, and categorifiability
obstruction checks."""

from .algebraic import AlgebraicReal, IsolatedRoot, Quadratic, alg_cmp
from .classify import (
    LevelEntry,
    LevelReport,
    classify_elementary2,
    classify_generic,
    scan_prime_levels,
)
from .construct import (
    CharacterTable,
    character_ring,
    dihedral_character_ring,
    dihedral_character_table,
    group_ring,
    haagerup_izumi,
    near_group,
    uniform_two_orbit,
)
from .errors import (
    FusionRingError,
    HypothesisError,
    InternalInvariantError,
    MalformedRingError,
    NotAFusionRingError,
    NotTwoOrbitError,
    ThetaInconsistentError,
)
from .numtheory import (
    SquareFreeDecomposition,
    quad_sign,
    squarefree_part,
    totient,
)
from .obstruct import (
    ObstructionVerdict,
    budget_bound,
    elementary2_coarse,
    elementary2_coarse_both,
    endgame_both,
    endgame_check,
    obstruct_divisibility,
    obstruct_noncommutative,
    prime_parity,
    prime_xbound,
    quartic_coeffs,
    quartic_f,
    run_all,
)
from .represent import (
    Codegree,
    IrrepModel,
    codegree_spectrum,
    irr0_codegrees,
    irr_H_of_G,
    semidirect_irr,
    uniform_irreps,
    verify_irrep,
)
from .ring import (
    DimensionProfile,
    FusionRing,
    TwoOrbitData,
    Violation,
    dimension_profile,
    fpdim_basis,
    fpdim_total,
    invertibles,
    is_commutative,
    orbit_structure,
    two_orbit_data,
    verify_axioms,
)
from .ringfile import dumps_ring, load_ring, loads_ring

__version__ = "0.1.0"
