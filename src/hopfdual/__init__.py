"""hopfdual: exact construction and verification of Hopf-algebraic duality.

Finite-rank Hopf algebras, crossed and smash products over Z, Q and Z/n, and
mechanical certification of the duality isomorphisms relating them, all in
exact arithmetic.
"""
from .rings import ZZ, QQ, Zmod, Ring
from .linalg import (
    FreeModule,
    LinearMap,
    PreparedSolver,
    free_module,
    invert_map,
    kron,
    twist_map,
)
from .hopf import (
    AlgebraData,
    AlgebraIso,
    BialgebraData,
    CoalgebraData,
    HopfData,
    certify_algebra_iso,
    compute_antipode,
    compute_twisted_antipode,
    convolution_invert,
    dual_hopf,
    matrix_algebra,
    tensor_algebra,
    validate_hopf,
)
from .actions import (
    ComoduleAlgebraData,
    WeakActionData,
    coinvariants,
    validate_weak_action,
)
from .crossed import (
    CleftData,
    CocycleData,
    CrossedProductData,
    build_crossed_product,
    cleft_maps,
    crossed_from_integral,
    integral_from_crossed,
    opposite_crossed,
    validate_cocycle,
)
from .smash import (
    SubalgebraU,
    hat_smash,
    left_smash,
    op_hat_smash,
    op_smash,
    right_smash,
    smash_compare,
)
from .duality import (
    CoactionSide,
    DiagramSide,
    build_diagram,
    coaction_table,
    compat_check,
    duality_iso,
    epsilon_maps,
    lambda_map,
    matrix_iso,
    phi_maps,
    rl_check,
    theorem_suite,
)
from .catalog import CatalogEntry, get, list_entries
from .instancefile import parse_instance
from .suites import run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
