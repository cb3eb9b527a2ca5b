"""Exact-arithmetic toolkit for generalized Schur algebras of types B, C, D.

The package realizes the algebras as concrete operator algebras on towers
of tensor powers of the natural module, verifies their presentations as
exact matrix identities, reproduces the weight-set and decomposition
combinatorics with an independent character oracle, and counts bases
through the path model.
"""

__version__ = "0.1.0"

from .rootdata import CapExceeded, LieType, RootSystem, Weight, build_root_system
from .weightsets import (
    WeightSet,
    is_saturated,
    lambda_minus,
    lambda_plus,
    lambda_pm,
    signed_compositions,
    tensor_dominant_pi,
    tensor_weights_Pi,
)
from .replinalg import (
    ExactMatrix,
    GeneratorSet,
    Representation,
    algebra_closure,
    natural_rep,
    single_power_rep,
    tensor_lift,
    tower_rep,
)
from .idempotents import (
    IdempotentFamily,
    build_idempotents,
    ladder_check,
    p1,
    p2,
    polynomial_idempotent,
    reconstruct_H,
)
from .presentation import (
    RelationReport,
    quotient_witness,
    verify_idempotent_presentation,
    verify_serre_presentation,
    zero_locus,
    zero_locus_report,
)
from .decomposition import (
    DecompositionResult,
    FormalCharacter,
    classify_type_B,
    compare_pi0_pi,
    decompose_tensor_character,
    freudenthal_multiplicities,
    pi0_weyl_rules,
    schur_dimensions,
    weyl_dimension,
)
from .pathmodel import (
    Crystal,
    Path,
    basis_census,
    e_op,
    f_op,
    generate_crystal,
    opposite_strings,
    straight_path,
    string_tuples,
)
