"""Computation and cross-verification engine for the stochastic six-vertex
model in half-space and the open half-line ASEP."""

from .weights import ModelParams, bulk_weight, boundary_weight, h_func, verify_local_relation
from .rowops import (
    OperatorStack,
    apply_double_row,
    in_probability_regime,
    partition_F,
    partition_G,
    stochastic_row_sum,
    verify_operator_identity,
)
from .pfaffian import pfaffian, pfaffian_sum_check, stembridge_check
from .triangular import (
    TriangularSpec,
    verify_z_properties,
    z_altform,
    z_altform_subset,
    z_enumerate,
    z_pfaffian,
    z_shuffle,
    z_subset_kuperberg,
)
from .shuffle import SymFun, shuffle_exp_truncated, shuffle_power, shuffle_product
from .symfun import (
    ContourSpec,
    cauchy_check,
    g_contour,
    g_subset,
    orthogonality_check,
    verify_g_recursion_suite,
)
from .asep import (
    AsepParams,
    map_params,
    simulate_gillespie,
    transition_prob_exact,
    transition_prob_formula,
    vertex_limit_check,
)

__version__ = "0.1.0"
