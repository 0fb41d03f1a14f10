"""Exact-arithmetic zeon compounds and Markov chain ergodicity analysis.

The library computes permanental compounds (zeon tensor powers) of exact
rational matrices, the degree-2 trace identities and integration-by-parts
formula, and a determinant criterion deciding ergodicity of a stochastic
matrix without iterating its powers, cross-validated against the
classical irreducibility/aperiodicity/quasi-positivity oracles.
"""

from .linalg import Matrix, as_scalar, scalar_str
from .zeon import (
    FunctionMap,
    SubsetBasis,
    all_functions,
    apply_second_quantized_function,
    compose,
    exterior_power,
    function_matrix,
    is_zeon_homomorphic_pair,
    permanent,
    subset_basis,
    zeon_power,
)
from .degree2 import (
    DegreeTwoVector,
    GeneralIdentityValues,
    diag_correction_minus,
    diag_correction_plus,
    general_bp_identities,
    inner_product,
    integration_by_parts,
    left_action,
    left_action_components,
    mat_embed,
    right_action,
    right_action_components,
    sum_against_u,
    trace_identity_left,
    trace_identity_left_stochastic,
    trace_identity_right,
    unmat,
)
from .markov import (
    ChainStructure,
    ErgodicityReport,
    EquivalenceCheck,
    HarnessReport,
    InvariantVectors,
    NotStochasticError,
    StochasticMatrix,
    Verdict,
    chain_structure,
    check_equivalence,
    criterion_determinant,
    equivalence_harness,
    ergodic_limit,
    invariant_distributions,
    is_quasi_positive,
    random_recurrent_stochastic,
    random_stochastic,
    validate_stochastic,
    wielandt_bound,
    witness_periodic,
    witness_reducible,
    zeon_criterion,
)

__version__ = "0.1.0"
