"""Degenerate fully nonlinear elliptic operators built from horizontal frames.

The package models operators F(M, x) = G(sigma(x) M sigma(x)^T) for an m x n
frame matrix sigma, solves F(D^2 u, x) - c(x) u = f(x) on box grids with a
directional scheme (monotone for the trace kind; the polarization cross term
of the Pucci kinds is not), and verifies the Holder-regularity ingredients
(matrix identities, doubling calculus, growth condition, fitted modulus).
"""

from .ccdist import CCResult, cc_distance_estimate, cc_search
from .doubling import (
    ConstantBundle,
    growth_condition_margin,
    growth_margin_asymptotic,
    holder_constant_bound,
    phi_hessian_block,
    phi_hessian_square,
    sums_trace_bound,
    touching_pair,
)
from .fields import SmoothField, constant_field, polynomial_field
from .grids import Grid, GridFunction, from_callable, to_csv
from .holder import (
    HolderReport,
    bundle_for_instance,
    fit_alpha,
    verify_theorem,
)
from .operators import (
    Coefficients,
    EllipticityBounds,
    OperatorSpec,
    pucci_operator,
    trace_operator,
)
from .solver import (
    DiscreteOperator,
    SolveConfig,
    SolveReport,
    manufactured_rhs,
    solve,
    two_box_sensitivity,
)
from .structures import (
    CarnotStructure,
    lipschitz_sigma_estimate,
    p_matrix_at,
    preset,
    sigma_at,
    structure_from_json,
)
from .symmat import (
    diagonal_lemma_falsifier,
    spectra_match_lemma,
    sqrt_psd,
    trace_identity_check,
)

__version__ = "0.1.0"
