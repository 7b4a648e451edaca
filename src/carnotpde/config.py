"""Run-configuration loading: JSON schema validation and object construction."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import TYPE_CHECKING

from .errors import ConfigError
from .fields import SmoothField, constant_field, polynomial_field
from .structures import CarnotStructure, preset, structure_from_json

if TYPE_CHECKING:
    from .grids import Grid
    from .operators import Coefficients, OperatorSpec
    from .solver import SolveConfig


@functools.cache
def _schema() -> dict:
    """The packaged draft-07 run-config schema, read once per process."""
    with resources.files("carnotpde.schema").joinpath("run_config.schema.json").open() as fh:
        return json.load(fh)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    # draft 6 onwards counts an integral float such as 1.0 as an integer
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def _violation(value, schema: dict, path: str = "") -> str | None:
    """The first way ``value`` breaks ``schema``, prefixed by its JSON path, or None.

    Implements the draft-07 keywords the packaged schema uses as jsonschema
    does: a bool is no number and enum equality keeps ``True != 1``.
    """
    while "$ref" in schema:
        schema = functools.reduce(dict.__getitem__, schema["$ref"][2:].split("/"), _schema())
    at = f"{path}: " if path else ""
    if "type" in schema and not _TYPES[schema["type"]](value):
        return f"{at}{value!r} is not of type {schema['type']!r}"
    enum = schema.get("enum")
    if enum is not None and not any(
        value == e and isinstance(value, bool) == isinstance(e, bool) for e in enum
    ):
        return f"{at}{value!r} is not one of {enum!r}"
    if "oneOf" in schema:
        matches = sum(_violation(value, sub, path) is None for sub in schema["oneOf"])
        if matches != 1:
            return f"{at}{value!r} matches {matches} of the oneOf schemas, not exactly one"
    if _is_number(value):
        if "minimum" in schema and value < schema["minimum"]:
            return f"{at}{value!r} is less than the minimum of {schema['minimum']!r}"
        if "maximum" in schema and value > schema["maximum"]:
            return f"{at}{value!r} is greater than the maximum of {schema['maximum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            bound = schema["exclusiveMinimum"]
            return f"{at}{value!r} is less than or equal to the minimum of {bound!r}"
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return f"{at}{value!r} is too short"
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            return f"{at}{value!r} is too long"
        for i, item in enumerate(value if "items" in schema else ()):
            if error := _violation(item, schema["items"], f"{path}[{i}]"):
                return error
    elif isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return f"{at}{key!r} is a required property"
        properties = schema.get("properties", {})
        extra = [key for key in value if key not in properties]
        if extra and schema.get("additionalProperties") is False:
            unexpected = ", ".join(map(repr, extra))
            return f"{at}additional properties are not allowed ({unexpected} unexpected)"
        for key, sub in properties.items():
            where = f"{path}.{key}" if path else key
            if key in value and (error := _violation(value[key], sub, where)):
                return error
    return None


def _finite(text: str) -> float:
    number = float(text)
    if not math.isfinite(number):
        shown = text if len(text) <= 20 else f"{text[:10]}... ({len(text)} characters)"
        raise ConfigError(f"config has a non-finite number: {shown}")
    return number


def _integer(text: str) -> int:
    _finite(text)  # also keeps int() within Python's 4,300-digit limit
    return int(text)


def load_config(path) -> dict:
    """Read and schema-validate a run configuration file.

    The NaN and Infinity literals that Python's json reads, float literals
    that overflow such as 1e999, and integer literals beyond the largest
    finite float are config errors.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_finite, parse_float=_finite, parse_int=_integer)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    message = _violation(raw, _schema())
    if message is not None:
        raise ConfigError(f"config fails schema validation: {message}")
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
    """Construct structures, operator, coefficients and grid from config data.

    The grid, operator and solver modules are imported only when
    ``need_solve`` is set, so a run that only reads the structure never
    loads them.
    """
    try:
        structure = _build_structure(raw["structure"])
        seed = int(raw.get("seed", 0))
        eta = float(raw.get("analysis", {}).get("eta", 1.1))
        if not need_solve:
            return RunSetup(structure, None, None, None, None, None, eta, seed, raw)

        from .grids import Grid
        from .operators import Coefficients, EllipticityBounds, OperatorSpec
        from .solver import SolveConfig, manufactured_rhs

        op_desc = raw.get("operator", {"kind": "trace"})
        bounds = EllipticityBounds(
            float(op_desc.get("lambda", 1.0)), float(op_desc.get("Lambda", 1.0))
        )
        spec = OperatorSpec(op_desc["kind"], bounds, structure)

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
