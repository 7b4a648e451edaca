"""Degenerate fully nonlinear elliptic operators built from horizontal frames.

The package models operators F(M, x) = G(sigma(x) M sigma(x)^T) for an m x n
frame matrix sigma, solves F(D^2 u, x) - c(x) u = f(x) on box grids with a
directional scheme (monotone for the trace kind; the polarization cross term
of the Pucci kinds is not), and verifies the Holder-regularity ingredients
(matrix identities, doubling calculus, growth condition, fitted modulus).

The exports below resolve on first use (PEP 562): ``import carnotpde`` loads
no submodule and not numpy, and ``carnotpde.solve`` imports
``carnotpde.solver`` when it is first read.
"""

import importlib

_EXPORTS = {
    "ccdist": ("CCResult", "cc_distance_estimate", "cc_search"),
    "doubling": (
        "ConstantBundle",
        "growth_condition_margin",
        "growth_verdict",
        "holder_constant_bound",
        "phi_hessian_block",
        "phi_hessian_square",
        "sums_trace_bound",
        "touching_pair",
    ),
    "fields": ("SmoothField", "constant_field", "polynomial_field"),
    "grids": ("Grid", "GridFunction", "from_callable", "to_csv"),
    "holder": ("HolderReport", "bundle_for_instance", "fit_alpha", "verify_theorem"),
    "operators": (
        "Coefficients",
        "EllipticityBounds",
        "OperatorSpec",
        "pucci_operator",
        "trace_operator",
    ),
    "solver": (
        "DiscreteOperator",
        "SolveConfig",
        "SolveReport",
        "manufactured_rhs",
        "solve",
        "two_box_sensitivity",
    ),
    "structures": (
        "CarnotStructure",
        "lipschitz_sigma_estimate",
        "p_matrix_at",
        "preset",
        "sigma_at",
        "structure_from_json",
    ),
    "symmat": (
        "diagonal_lemma_falsifier",
        "spectra_match_lemma",
        "sqrt_psd",
        "trace_identity_check",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
