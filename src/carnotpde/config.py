"""Run-configuration loading: JSON schema validation and object construction."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Callable

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .errors import ConfigError
from .fields import SmoothField, constant_field, polynomial_field
from .grids import Grid, GridFunction
from .operators import Coefficients, EllipticityBounds, OperatorSpec
from .solver import SolveConfig, manufactured_rhs
from .structures import CarnotStructure, preset, structure_from_json


def _schema() -> dict:
    with resources.files("carnotpde.schema").joinpath("run_config.schema.json").open() as fh:
        return json.load(fh)


@functools.cache
def _validator():
    """Validator for the packaged schema, built once per process.

    Unlike jsonschema.validate, it does not check the schema itself on every
    load; the test suite does that once.
    """
    schema = _schema()
    return validator_for(schema)(schema)


def load_config(path) -> dict:
    """Read and schema-validate a run configuration file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    error = best_match(_validator().iter_errors(raw))
    if error is not None:
        raise ConfigError(f"config fails schema validation: {error.message}") from error
    return raw


def _field_from_poly(desc: dict, n: int) -> SmoothField:
    if "const" in desc:
        return constant_field(desc["const"], n)
    if "terms" in desc:
        return polynomial_field(desc["terms"], n)
    raise ConfigError("polynomial descriptions need either 'terms' or 'const'")


@dataclass
class RunSetup:
    """Everything a solve/verify run needs, built from a validated config."""

    structure: CarnotStructure
    spec: OperatorSpec | None
    coeffs: Coefficients | None
    grid: Grid | None
    solve_cfg: SolveConfig | None
    ustar: SmoothField | None
    eta: float
    seed: int
    raw: dict


def build_setup(raw: dict, need_solve: bool) -> RunSetup:
    """Construct structures, operator, coefficients and grid from config data."""
    try:
        structure = _build_structure(raw["structure"])
        seed = int(raw.get("seed", 0))
        eta = float(raw.get("analysis", {}).get("eta", 1.1))
        if not need_solve:
            return RunSetup(structure, None, None, None, None, None, eta, seed, raw)

        op_desc = raw.get("operator", {"kind": "trace"})
        kind = op_desc["kind"]
        if kind == "trace":
            bounds = EllipticityBounds(1.0, 1.0)
        else:
            bounds = EllipticityBounds(
                float(op_desc.get("lambda", 1.0)), float(op_desc.get("Lambda", 1.0))
            )
        spec = OperatorSpec(kind, bounds, structure)

        grid_desc = raw.get("grid")
        if grid_desc is None:
            raise ConfigError("a grid section is required for solve/verify runs")
        box = grid_desc["box"]
        if len(box) != structure.n:
            raise ConfigError(
                f"grid box has {len(box)} axes but the structure lives in dimension {structure.n}"
            )
        grid = Grid(
            tuple(b[0] for b in box), tuple(b[1] for b in box), tuple(grid_desc["shape"])
        )

        ustar = None
        if "manufactured_solution" in raw:
            ustar = _field_from_poly(raw["manufactured_solution"], structure.n)

        co = raw.get("coefficients", {})
        c_field = _field_from_poly(co.get("c", {"const": 1.0}), structure.n)
        f_desc = co.get("f", "manufactured")
        c0 = co.get("c0")
        if c0 is None:
            c0 = c_field.value(grid.coords()).min()
        coeffs_kwargs = dict(
            L_c=float(co.get("L_c", 0.0)),
            beta=float(co.get("beta", 1.0)),
            L_f=float(co.get("L_f", 0.0)),
            beta_prime=float(co.get("beta_prime", 1.0)),
            c0=float(c0),
        )
        if f_desc == "manufactured":
            if ustar is None:
                raise ConfigError("f = 'manufactured' requires a manufactured_solution")
            f_callable = manufactured_rhs(spec, c_field.value, ustar)
        else:
            f_callable = _field_from_poly(f_desc, structure.n).value
        coeffs = Coefficients(c=c_field.value, f=f_callable, **coeffs_kwargs)

        so = raw.get("solver", {})
        boundary_desc = so.get("boundary", "manufactured" if ustar is not None else "zero")
        if boundary_desc == "manufactured":
            if ustar is None:
                raise ConfigError("boundary = 'manufactured' requires a manufactured_solution")
            boundary = ustar.value
        elif boundary_desc == "zero":
            boundary = constant_field(0.0, structure.n).value
        else:
            boundary = _field_from_poly(boundary_desc, structure.n).value
        solve_cfg = SolveConfig(
            boundary=boundary,
            tol=float(so.get("tol", 1e-6)),
            max_iters=int(so.get("max_iters", 200_000)),
            h_eff_cells=so.get("h_eff_cells"),
        )
        return RunSetup(structure, spec, coeffs, grid, solve_cfg, ustar, eta, seed, raw)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad configuration value: {exc}") from exc


def _build_structure(desc) -> CarnotStructure:
    try:
        if isinstance(desc, str):
            return preset(desc)
        return structure_from_json(desc)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad structure description: {exc}") from exc
