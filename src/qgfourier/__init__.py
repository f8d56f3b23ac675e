"""Numerical verification toolkit for Fourier calculus on compact quantum group duals."""

__version__ = "0.1.0"

from .dual_data import (
    DualDescriptor,
    DualValidationError,
    IrrepData,
    make_onplus_dual,
    make_su2_dual,
    make_suq2_dual,
    make_trivial_dual,
    onplus_dims,
)
from .fourier_core import (
    DualMismatchError,
    FourierCoeffs,
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
    RngSeed,
    expected_operator_norm,
    four_unitary_decomposition,
    haar_family,
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
    FiniteGroupTable,
    GroupTableError,
    SU2Quadrature,
    character_l1,
    coefficient_bound_check,
    cotype2_ratio,
    cyclic_group,
    gaussian_series_l1_mean,
    make_su2_quadrature,
    randomized_l1_report,
    symmetric_group_s3,
    weyl_character_l1,
)
from .quantum_examples import (
    growth_report,
    nonkac_quantity,
    suq2_chain_check,
)
