"""Bias bounds and operator-space norms for two-player quantum XOR games.

The package computes certified-direction bounds for the optimal bias of a
quantum XOR game under product, entangled, one-way-classical-communication,
and one-way-quantum-communication strategies, together with the matrix-tuple
and map norms (row/column structures, amplified norms, summing norms, the
splitting weight, and the decomposition/factorization comparison) that
govern them.

The library logs through the ``qxor`` logger, which is silent unless the
application configures logging.
"""

import logging

logging.getLogger(__name__).addHandler(logging.NullHandler())

from .bounds import BoundInterval
from .budget import SolverBudget
from .config import ConvergenceError, MonotonicityError, ValidationError
from .factor import (
    CB_VS_SUMMING_CONSTANT,
    MAB_FACTORIZATION_CONSTANT,
    GammaResult,
    TensorElement,
    chain_check,
    exhaustive_sign_one_norm,
    gamma_rc_upper,
    gamma_to_Gamma,
    mab_certify,
    tensor_from_kernel,
    weight_homogeneity_check,
    weight_monotonicity_check,
    weight_sandwich_check,
    weight_subadditivity_check,
)
from .games import (
    EntangledStrategy,
    OwcStrategy,
    ProductStrategy,
    QuantumXorGame,
    associated_map,
    bias_of,
    chsh,
    diagonal_game,
    hadamard_game,
    mab_tensor,
    product_state_game,
    random_game,
    swap_game,
)
from .linalg import (
    eigh_desc,
    hermitian_part,
    operator_norm,
    partial_contract_A,
    sign_hermitian,
    trace_norm,
)
from .maps import KernelMap, Space, VectorMap, dual_space, full_matrix_space
from .opnorms import (
    CbNormResult,
    amplified_norm,
    cb_norm_bounds,
    pietsch_pi2,
)
from .solvers import (
    HierarchyReport,
    HierarchyRow,
    Pi1cbResult,
    analyze_game,
    beta_entangled,
    beta_entangled_schedule,
    beta_owc,
    beta_owc_schedule,
    beta_owq,
    beta_product,
    pi1cb_bounds,
    pi1o_exact,
)
from .tuples import (
    col_norm,
    ordering_check,
    rc_norm,
    row_norm,
    rplus2c_split,
)

__version__ = "0.1.0"
