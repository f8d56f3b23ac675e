"""Numerical verification toolkit for Fourier calculus on compact quantum group duals."""

__version__ = "0.1.0"

from .dual_data import (
    BlockGram,
    DualDescriptor,
    DualValidationError,
    IrrepData,
    block_gram,
    dual_from_json,
    dual_to_json,
    make_onplus_dual,
    make_su2_dual,
    make_suq2_dual,
    make_trivial_dual,
    onplus_dims,
    schur_inner,
)
from .fourier_core import (
    DualMismatchError,
    FourierCoeffs,
    coeffs_from_json,
    coeffs_to_json,
    convolve,
    ell1_norm,
    ell2_norm,
    ell_infty_norm,
    pairing,
    plancherel_gram_norm,
)
from .random_series import (
    BallDecomposition,
    ContractionError,
    FamilyError,
    MatrixFamily,
    RngSeed,
    expected_operator_norm,
    four_unitary_decomposition,
    haar_family,
    haar_unitary,
    identity_family,
    l2_invariance_check,
    random_coeffs,
    randomize,
    randomize_ball,
)
from .l2_operators import (
    central_coeffs,
    central_sum_check,
    haar_state_pairing_check,
    multiplier_block_norm,
    trace_norm_duality,
)
from .classical_eval import (
    ClassicalDomainError,
    FiniteGroupTable,
    GroupTableError,
    SU2Quadrature,
    character_l1,
    coefficient_bound_check,
    cotype2_ratio,
    cyclic_group,
    evaluate_su2,
    gaussian_series_l1_mean,
    l1_norm_classical,
    linfty_norm_classical,
    make_su2_quadrature,
    randomized_l1_report,
    su2_irrep_matrix,
    symmetric_group_s3,
    table_from_json,
    table_to_json,
    weyl_character_l1,
)
from .quantum_examples import (
    growth_report,
    nonkac_quantity,
    suq2_chain_check,
)
