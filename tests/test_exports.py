"""The package's public names resolve lazily and are the ones it always had."""

import importlib

import pytest

import carnotpde

# the 43 exports of the eager __init__ that the lazy table replaced
EXPORTS = {
    "ccdist": ["CCResult", "cc_distance_estimate", "cc_search"],
    "doubling": [
        "ConstantBundle",
        "growth_condition_margin",
        "growth_verdict",
        "holder_constant_bound",
        "phi_hessian_block",
        "phi_hessian_square",
        "sums_trace_bound",
        "touching_pair",
    ],
    "fields": ["SmoothField", "constant_field", "polynomial_field"],
    "grids": ["Grid", "GridFunction", "from_callable", "to_csv"],
    "holder": ["HolderReport", "bundle_for_instance", "fit_alpha", "verify_theorem"],
    "operators": [
        "Coefficients",
        "EllipticityBounds",
        "OperatorSpec",
        "pucci_operator",
        "trace_operator",
    ],
    "solver": [
        "DiscreteOperator",
        "SolveConfig",
        "SolveReport",
        "manufactured_rhs",
        "solve",
        "two_box_sensitivity",
    ],
    "structures": [
        "CarnotStructure",
        "lipschitz_sigma_estimate",
        "p_matrix_at",
        "preset",
        "sigma_at",
        "structure_from_json",
    ],
    "symmat": [
        "diagonal_lemma_falsifier",
        "spectra_match_lemma",
        "sqrt_psd",
        "trace_identity_check",
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_export_resolves_to_its_module_definition(module, name):
    defined = getattr(importlib.import_module(f"carnotpde.{module}"), name)
    assert getattr(carnotpde, name) is defined
    namespace = {}
    exec(f"from carnotpde import {name}", namespace)
    assert namespace[name] is defined
    assert name in dir(carnotpde)
    assert name in carnotpde.__all__


def test_version_is_public():
    namespace = {}
    exec("from carnotpde import __version__", namespace)
    assert namespace["__version__"] == carnotpde.__version__ == "0.1.0"
    assert "__version__" in dir(carnotpde)
    assert "__version__" in carnotpde.__all__


def test_all_lists_exactly_the_exports():
    assert sorted(carnotpde.__all__) == sorted([name for _, name in NAMES] + ["__version__"])


def test_unknown_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'carnotpde' has no attribute 'no_such_name'"):
        getattr(carnotpde, "no_such_name")
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from carnotpde import no_such_name", {})


@pytest.mark.parametrize("module", EXPORTS)
def test_dotted_monkeypatch_paths_resolve(module, monkeypatch):
    name = EXPORTS[module][0]
    sentinel = object()
    monkeypatch.setattr(f"carnotpde.{module}.{name}", sentinel)
    assert getattr(importlib.import_module(f"carnotpde.{module}"), name) is sentinel
