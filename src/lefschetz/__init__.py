"""Exact-arithmetic Lie theory engine.

Root systems and Weyl groups, Chevalley algebras with parabolic
decompositions, highest-weight modules, nilradical cohomology with an
independent prediction oracle, Clifford/spin modules, Euler characteristics
and the spectral/geometric evaluators of the trace identity.
"""

from .algebra import (
    ChevalleyAlgebra,
    ParabolicSplit,
    WeightModule,
    build_chevalley_algebra,
    casimir_eigenvalue,
    casimir_matrix,
    highest_weight_module,
    parabolic_split,
)
from .cohomology import (
    CEComplex,
    CohomologyTable,
    build_ce_complex,
    cohomology_table,
    euler_character_check,
    homology_table,
    irreducible_character,
    kostant_prediction,
    weight_multiplicities,
)
from .euler import (
    BettiVector,
    EllipticClassInput,
    HarishChandraInput,
    bundle_betti_transfer,
    chi_gen,
    chi_r,
    comb_identity_check,
    decompose_character,
    euler_poincare_trace,
    harish_chandra_constant,
    orbital_integral_value,
)
from .exact import (
    ExactMatrix,
    LaurentCharacter,
    alternating_exterior_sum,
    exterior_power_character,
    rank_and_kernel,
)
from .formula import (
    GeodesicClassRecord,
    SpectralInput,
    SpectralTermTable,
    TestFunction,
    am_tilde_membership,
    balance_evaluator,
    det_identity_check,
    geometric_term,
    hecht_schmid_check,
    integrate_testfn,
    spectral_term,
)
from .roots import RootDatum, UnsupportedLabelError, WeylElement, build_root_system
from .spin import (
    PolarizedSpace,
    clifford_action,
    clifford_relation_check,
    epsilon_twist_check,
    half_spin_characters,
    verify_spin_square,
)

__version__ = "0.1.0"
