"""Benchmark workloads: generated run configs, exact answers and output gates.

A workload is a fixed list of carnotpde CLI commands, called a round. The
benchmark runs rounds in a closed loop: each command starts after the previous
one has returned. Configs are generated here; the workload seed goes into the
``seed`` field of every config (it drives the Lipschitz and growth sampling of
``verify``) and the program sees only the generated files.

Every command's outputs are checked against an answer known in closed form:
the manufactured solution for ``solve`` and ``verify``, and the exact
Heisenberg distance for ``cc-distance``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOL = 1e-6
# A cc estimate passes when |d_est / d_exact - 1| <= CC_REL_LIMIT. The control
# graph moves only along +/-X_i, so today's estimate is 12.8% high on the
# centre axis (see ROADMAP D); a factor of 1.25 passes it and fails a
# distance that is off by a quarter or more.
CC_REL_LIMIT = 0.25

_HEIS_U = {"terms": [[1, 2, 0, 0], [1, 0, 1, 0]]}  # u* = x1^2 + x2
_EUC2_U = {"terms": [[1, 4, 0], [1, 0, 2]]}  # u* = x1^4 + x2^2


@dataclass(frozen=True)
class Op:
    """One CLI command of a round, with the limit its accuracy must meet.

    ``limit`` bounds max |u_h - u*| over the nodes for solve and verify; for
    cc-distance ``exact`` is the true distance and CC_REL_LIMIT applies.
    """

    command: str
    config: dict
    limit: float = math.inf
    exact: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]


def _grid(n: int, dim: int) -> dict:
    return {"box": [[-1, 1]] * dim, "shape": [n] * dim}


def _heis_trace(seed: int, n: int) -> dict:
    return {
        "schema_version": 1,
        "seed": seed,
        "structure": "heisenberg1",
        "operator": {"kind": "trace"},
        "manufactured_solution": _HEIS_U,
        "coefficients": {
            "c": {"const": 1},
            "f": "manufactured",
            "L_c": 0,
            "beta": 1,
            "L_f": 2.2360679774997896,
            "beta_prime": 1,
            "c0": 1,
        },
        "grid": _grid(n, 3),
        "solver": {"tol": TOL, "boundary": "manufactured"},
    }


def _heis_verify(seed: int, n: int) -> dict:
    raw = _heis_trace(seed, n)
    raw["coefficients"].update({"c": {"const": 16}, "L_f": 35.77708763999664, "c0": 16})
    return raw


def _euc2_pucci(seed: int, n: int) -> dict:
    return {
        "schema_version": 1,
        "seed": seed,
        "structure": "euclidean:2",
        "operator": {"kind": "pucci_plus", "lambda": 1.0, "Lambda": 2.0},
        "manufactured_solution": _EUC2_U,
        "coefficients": {
            "c": {"const": 1},
            "f": "manufactured",
            "L_c": 0,
            "beta": 1,
            "L_f": 5.0,
            "beta_prime": 1,
            "c0": 1,
        },
        "grid": _grid(n, 2),
        "solver": {"tol": TOL, "boundary": "manufactured"},
    }


def _cc(seed: int, b: list, resolution: float) -> dict:
    return {
        "schema_version": 1,
        "seed": seed,
        "structure": "heisenberg1",
        "cc": {"a": [0, 0, 0], "b": b, "resolution": resolution},
    }


def heisenberg_distance(b) -> float:
    """Exact d_CC(0, b) for the heisenberg1 frame on the two axes used here.

    Horizontal targets (x, 0, 0) lie at Euclidean distance |x|; the centre
    target (0, 0, t) lies at sqrt(pi |t|) for X1 = d1 + 2 x2 d3, X2 = d2 - 2 x1 d3.
    """
    x1, x2, t = (float(v) for v in b)
    if t == 0.0:
        return math.hypot(x1, x2)
    if x1 == 0.0 and x2 == 0.0:
        return math.sqrt(math.pi * abs(t))
    raise ValueError("exact distance is known only on the horizontal plane and the centre axis")


def _cc_ops(seed: int, targets, resolution: float) -> tuple[Op, ...]:
    return tuple(
        Op("cc-distance", _cc(seed, b, resolution), exact=heisenberg_distance(b)) for b in targets
    )


# Accuracy limits are about three times the error each instance reaches at
# the parent commit: trace 32^3 1.05e-2, Pucci 64^2 8.0e-3, verify 16^3
# 8.7e-3; at the tiny sizes 7.5e-2 (8^3), 5.6e-2 (12^2) and 4.0e-2 (8^3).
def _heis_trace_32(seed: int, tiny: bool) -> tuple[Op, ...]:
    return (Op("solve", _heis_trace(seed, 8 if tiny else 32), limit=0.2 if tiny else 0.03),)


def _euc2_pucci_64(seed: int, tiny: bool) -> tuple[Op, ...]:
    return (Op("solve", _euc2_pucci(seed, 12 if tiny else 64), limit=0.15 if tiny else 0.025),)


def _heis_verify_16(seed: int, tiny: bool) -> tuple[Op, ...]:
    return (Op("verify", _heis_verify(seed, 8 if tiny else 16), limit=0.12 if tiny else 0.025),)


def _heis_cc(seed: int, tiny: bool) -> tuple[Op, ...]:
    if tiny:
        return _cc_ops(seed, ([1, 0, 0], [0, 0, 0.25]), 0.1)
    return _cc_ops(seed, ([1, 0, 0], [0, 0, 0.25], [0, 0, 0.5]), 0.05)


WORKLOADS = {
    "heis-trace-32": _heis_trace_32,
    "euc2-pucci-64": _euc2_pucci_64,
    "heis-verify-16": _heis_verify_16,
    "heis-cc": _heis_cc,
}


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's round; ``tiny`` shrinks every instance for smoke runs."""
    return Workload(name, WORKLOADS[name](seed, tiny))


def write_configs(workload: Workload, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, op in enumerate(workload.ops):
        path = directory / f"op{k}.json"
        path.write_text(json.dumps(op.config, indent=2) + "\n")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# oracles and gates


def grid_coords(config: dict) -> np.ndarray:
    """Node coordinates in C order, as the program's CSV dump lists them."""
    box = config["grid"]["box"]
    shape = config["grid"]["shape"]
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(box, shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def exact_solution(config: dict, coords: np.ndarray) -> np.ndarray:
    """u* at each row of coords, from the config's monomial table."""
    total = np.zeros(coords.shape[0])
    for coeff, *exps in config["manufactured_solution"]["terms"]:
        total += coeff * np.prod(coords ** np.array(exps, dtype=float), axis=1)
    return total


@dataclass
class Outcome:
    """A command's gate verdict, accuracy figures and work counts."""

    errors: list
    max_err: float = math.nan
    rel_err: float = math.nan
    counts: dict | None = None


def solution_error(config: dict, values: np.ndarray) -> tuple[float, float]:
    """(max |u_h - u*|, that error over max |u*|) on the config's grid."""
    exact = exact_solution(config, grid_coords(config))
    err = float(np.abs(values - exact).max())
    return err, err / float(np.abs(exact).max())


def _read_json(path: Path, errors: list) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        errors.append(f"cannot read {path.name}: {exc}")
        return {}


def _check_solve_report(report: dict, errors: list) -> None:
    if report.get("converged") is not True:
        errors.append("solve did not converge")
    residual = report.get("final_residual", math.inf)
    if not residual <= TOL:
        errors.append(f"final residual {residual} above tol {TOL}")


def check_solve(op: Op, out: Path) -> Outcome:
    errors: list = []
    report = _read_json(out / "solve_report.json", errors)
    _check_solve_report(report, errors)
    csv_path = out / "solution.csv"
    try:
        table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return Outcome(errors + [f"cannot read solution.csv: {exc}"])
    coords = grid_coords(op.config)
    if table.shape != (coords.shape[0], coords.shape[1] + 1):
        return Outcome(errors + [f"solution.csv has shape {table.shape}"])
    if not np.allclose(table[:, :-1], coords, rtol=0.0, atol=1e-12):
        errors.append("solution.csv coordinates do not match the grid")
    values = table[:, -1]
    if not np.all(np.isfinite(values)):
        return Outcome(errors + ["solution has non-finite values"])
    err, rel = solution_error(op.config, values)
    if not err <= op.limit:
        errors.append(f"max error {err:.4g} above limit {op.limit}")
    counts = {
        "nodes": int(coords.shape[0]),
        "solver.iterations": report.get("iterations"),
        "grids.csv_bytes": csv_path.stat().st_size,
    }
    return Outcome(errors, err, rel, counts)


@dataclass(frozen=True)
class Reference:
    """An in-process solve of a verify config, for its accuracy figures."""

    iterations: int
    final_residual: float
    max_err: float
    rel_err: float


def check_verify(op: Op, out: Path, ref: Reference) -> Outcome:
    """Gate a verify run; its solution is the reference solve's when the
    program's own solve report matches it exactly."""
    errors: list = []
    report = _read_json(out / "holder_report.json", errors)
    solve_report = report.get("solve", {})
    _check_solve_report(solve_report, errors)
    if (solve_report.get("iterations"), solve_report.get("final_residual")) != (
        ref.iterations,
        ref.final_residual,
    ):
        errors.append("verify solved a different solution than the reference solve")
    verdicts = report.get("hypothesis_verdicts", {})
    if not verdicts or not all(verdicts.values()):
        errors.append(f"hypothesis verdicts {verdicts}")
    violation = report.get("max_violation", math.inf)
    if not violation <= 0.0:
        errors.append(f"max_violation {violation} > 0")
    nodes = int(np.prod(op.config["grid"]["shape"]))
    if report.get("pair_count") != nodes * (nodes - 1) // 2:
        errors.append(f"pair_count {report.get('pair_count')} != N(N-1)/2 for N = {nodes}")
    if not (out / "increments.csv").is_file():
        errors.append("increments.csv missing")
    if not ref.max_err <= op.limit:
        errors.append(f"max error {ref.max_err:.4g} above limit {op.limit}")
    counts = {
        "nodes": nodes,
        "solver.iterations": solve_report.get("iterations"),
        "holder.pair_count": report.get("pair_count"),
    }
    return Outcome(errors, ref.max_err, ref.rel_err, counts)


def check_cc(op: Op, out: Path) -> Outcome:
    errors: list = []
    report = _read_json(out / "cc_report.json", errors)
    dist = report.get("distance")
    if not isinstance(dist, (int, float)) or not math.isfinite(dist):
        return Outcome(errors + [f"distance {dist!r} is not a finite number"])
    rel = abs(dist / op.exact - 1.0)
    if not rel <= CC_REL_LIMIT:
        errors.append(f"distance {dist} is {rel:.3f} off the exact {op.exact:.6g}")
    moves = round(dist / op.config["cc"]["resolution"])
    return Outcome(errors, abs(dist - op.exact), rel, {"ccdist.moves": moves})


def check(op: Op, out: Path, code, ref: Reference | None = None) -> Outcome:
    """Gate one command: its exit code, then its reports against the oracle."""
    if code != 0:
        return Outcome([f"{op.command} exited with code {code}"])
    if op.command == "solve":
        return check_solve(op, out)
    if op.command == "verify":
        return check_verify(op, out, ref)
    return check_cc(op, out)
