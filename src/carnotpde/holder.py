"""Holder modulus estimation on grid functions and end-to-end verification.

On a uniform grid the pairs sharing a lattice offset o lie h|o| apart and
their increments are one slice difference |u[x + o] - u[x]|. One pass over
offsets tabulates each offset's maximal increment and pair count, over every
lexicographically positive offset (each unordered pair once) up to 4096 nodes
and otherwise over a seeded stratified sample (about one million pairs spread
over geometric distance bins). fit_alpha regresses the log of the per-bin
maximal increment against log distance; verify_theorem reduces one table to
the fitted modulus and adds the hypothesis checks and the seminorm bound.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .doubling import (
    ConstantBundle,
    growth_condition_margin,
    growth_margin_asymptotic,
    holder_constant_bound,
)
from .errors import InadmissibleExponentError, PreconditionError
from .grids import Grid, GridFunction
from .operators import Coefficients, OperatorSpec
from .solver import SolveReport
from .structures import lipschitz_sigma_estimate

ALL_PAIRS_NODE_CAP = 4096
PAIR_BUDGET = 1_000_000
NUM_BINS = 12
GROWTH_TOL = 1e-9


@dataclass(frozen=True)
class _OffsetTable:
    """One row per scanned offset, ordered by the row's first maximal pair:
    row-major (src, dst) when exhaustive, sampling order when stratified.
    distance is that pair's coordinate distance, or h|o| when sampled."""

    distance: np.ndarray
    max_inc: np.ndarray
    pairs: np.ndarray

    def quotients(self, alpha: float) -> np.ndarray:
        return self.max_inc / self.distance**alpha


def _bin_edges(grid: Grid) -> np.ndarray:
    diam = math.sqrt(sum((hi - lo) ** 2 for lo, hi in zip(grid.lo, grid.hi)))
    return np.geomspace(grid.h, diam * (1.0 + 1e-12), NUM_BINS + 1)


def _increments(values: np.ndarray, offset) -> tuple[np.ndarray, tuple] | None:
    """|u(x + offset) - u(x)| over the block of source nodes x of every pair
    realizing the lattice offset, and that block's slices; None if no pair does."""
    if any(abs(o) >= size for o, size in zip(offset, values.shape)):
        return None
    src = tuple(slice(max(-o, 0), size - max(o, 0)) for o, size in zip(offset, values.shape))
    dst = tuple(slice(max(o, 0), size - max(-o, 0)) for o, size in zip(offset, values.shape))
    return np.abs(values[dst] - values[src]), src


def _sampled_offsets(u: GridFunction, seed: int) -> Iterator[tuple[float, np.ndarray]]:
    """(distance, increments) of seeded random offsets, bin by bin."""
    grid = u.grid
    h = grid.h
    edges = _bin_edges(grid)
    rng = np.random.default_rng(seed)
    quota = PAIR_BUDGET // NUM_BINS
    for b in range(NUM_BINS):
        lo_r, hi_r = edges[b], edges[b + 1]
        got = 0
        seen: set = set()
        for _ in range(400):
            if got >= quota:
                break
            direction = rng.normal(size=grid.n)
            norm = float(np.linalg.norm(direction))
            if norm == 0.0:
                continue
            radius = lo_r * (hi_r / lo_r) ** rng.random()
            offset = np.rint(radius * direction / (norm * h)).astype(int)
            if not offset.any():
                continue
            dist = h * float(np.linalg.norm(offset))
            if not (lo_r <= dist < hi_r):
                continue
            key = tuple(offset)
            if key in seen:
                continue
            seen.add(key)
            found = _increments(u.values, offset)
            if found is None:
                continue
            inc = found[0].ravel()
            remaining = quota - got
            if inc.size > remaining:
                inc = inc[rng.integers(0, inc.size, size=remaining)]
            got += inc.size
            yield dist, inc


def _offset_table(u: GridFunction, seed: int) -> _OffsetTable:
    grid = u.grid
    if grid.num_nodes > ALL_PAIRS_NODE_CAP:
        rows = [(dist, inc.max(), inc.size) for dist, inc in _sampled_offsets(u, seed)]
        return _OffsetTable(*np.array(rows, dtype=float).reshape(-1, 3).T)
    span = 2 * np.array(grid.shape) - 1
    offsets = np.indices(span).reshape(grid.n, -1).T - span // 2  # in lexicographic order
    offsets = offsets[len(offsets) // 2 + 1 :]  # those after 0 are the positive ones
    index = np.arange(grid.num_nodes).reshape(grid.shape)
    max_inc = np.empty(len(offsets))
    src = np.empty(len(offsets), dtype=np.int64)
    for k, offset in enumerate(offsets.tolist()):
        inc, from_x = _increments(u.values, offset)
        first = inc.argmax()
        max_inc[k], src[k] = inc.flat[first], index[from_x].flat[first]
    dst = src + offsets @ (np.array(index.strides) // index.itemsize)
    order = np.lexsort((dst, src))
    coords = grid.coords()
    diff = coords[src[order]] - coords[dst[order]]
    pairs = (np.array(grid.shape) - np.abs(offsets[order])).prod(axis=1)
    return _OffsetTable(np.sqrt((diff * diff).sum(axis=1)), max_inc[order], pairs)


def _binned(grid: Grid, table: _OffsetTable) -> list[dict]:
    edges = _bin_edges(grid)
    bins = np.clip(np.searchsorted(edges, table.distance, side="right") - 1, 0, NUM_BINS - 1)
    out = []
    for b in range(NUM_BINS):
        rows = np.flatnonzero(bins == b)
        row = {"distance": float(edges[b]), "max_increment": 0.0, "pairs": 0}
        if rows.size:
            top = rows[table.max_inc[rows].argmax()]  # the first maximal row
            row["max_increment"] = float(table.max_inc[top])
            row["distance"] = float(table.distance[top]) if row["max_increment"] else 0.0
            row["pairs"] = int(table.pairs[rows].sum())
        out.append(row)
    return out


def _fit(table: _OffsetTable, increments: list[dict]) -> tuple[float, float]:
    kept = [row for row in increments if row["pairs"] and row["max_increment"] > 0]
    if len(kept) < 3:
        return float("nan"), 0.0
    xs = [math.log(row["distance"]) for row in kept]
    ys = [math.log(row["max_increment"]) for row in kept]
    slope = float(np.polyfit(xs, ys, 1)[0])
    alpha = float(np.clip(slope, 1e-9, 1.0))
    return alpha, float(table.quotients(alpha).max(initial=0.0))


def pair_count(u: GridFunction, seed: int = 0) -> int:
    """Number of unordered node pairs the scan covers (N(N-1)/2 when exhaustive)."""
    return int(_offset_table(u, seed).pairs.sum())


def holder_seminorm(u: GridFunction, alpha: float, seed: int = 0) -> float:
    """max over scanned pairs of |u(x) - u(y)| / |x - y|^alpha."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    if u.grid.num_nodes < 2:
        raise ValueError("need at least two nodes")
    return float(_offset_table(u, seed).quotients(alpha).max(initial=0.0))


def binned_increments(u: GridFunction, seed: int = 0) -> list[dict]:
    """Per-bin maximal increments over the pair scan (for fitting and dumps).

    A bin's distance is that of its first maximal pair in row-major (i, j)
    order, 0.0 if all its increments vanish, its lower edge if it is empty.
    """
    return _binned(u.grid, _offset_table(u, seed))


def fit_alpha(u: GridFunction, seed: int = 0) -> tuple[float, float]:
    """Log-log fit of the per-bin maximal increments; returns (alpha_fit, L_fit).

    alpha_fit is the regression slope clamped to (0, 1]; L_fit is the Holder
    seminorm at alpha_fit. A constant u yields the degenerate signal
    (nan, 0.0).
    """
    table = _offset_table(u, seed)
    return _fit(table, _binned(u.grid, table))


def max_quotient_violation(u: GridFunction, alpha: float, L: float, seed: int = 0) -> float:
    """max over scanned pairs of |u(x)-u(y)|/|x-y|^alpha - L (<= 0 for the scan's seminorm)."""
    return float(_offset_table(u, seed).quotients(alpha).max(initial=-math.inf) - L)


@dataclass
class HolderReport:
    alpha_fit: float
    L_fit: float
    pair_count: int
    max_violation: float
    theorem_bound: float
    hypothesis_verdicts: dict
    admissible_alpha: bool
    l_fit_within_bound: bool
    growth_box_local: bool
    lipschitz_estimate: float
    lipschitz_samples: int
    seed: int
    increments: list
    scan_s: float

    @property
    def hypotheses_pass(self) -> bool:
        return all(self.hypothesis_verdicts.values())

    def to_dict(self) -> dict:
        return {"schema_version": 1, **asdict(self)}


def bundle_for_instance(
    spec: OperatorSpec,
    coeffs: Coefficients,
    u: GridFunction,
    eta: float = 1.1,
    samples: int = 128,
    seed: int = 0,
) -> ConstantBundle:
    """Assemble the constants the seminorm bound needs from a solved instance.

    The trace-inequality constant is eta times the squared sampled Lipschitz
    bound of sigma on the grid box.
    """
    box = list(zip(u.grid.lo, u.grid.hi))
    lip = lipschitz_sigma_estimate(spec.structure, box, samples=samples, seed=seed)
    return ConstantBundle(
        c0=coeffs.c0,
        cbar=coeffs.c0,
        Lambda=spec.bounds.Lam,
        C=eta * lip * lip,
        L_c=coeffs.L_c,
        beta=coeffs.beta,
        L_f=coeffs.L_f,
        beta_prime=coeffs.beta_prime,
        u_inf=float(np.abs(u.flat).max()),
    )


def verify_theorem(
    spec: OperatorSpec,
    coeffs: Coefficients,
    u: GridFunction,
    bundle: ConstantBundle,
    solve_report: SolveReport,
    seed: int = 0,
    growth_radii: list | None = None,
) -> HolderReport:
    """Hypothesis checks plus fitted Holder modulus for a converged solution.

    The growth condition uses the preset's analytic asymptotic margin when one
    exists; otherwise it samples expanding spheres inside the working box and
    the report is flagged box-local.
    """
    if not solve_report.converged:
        raise PreconditionError("verify_theorem requires a converged solve")
    s = spec.structure
    box = list(zip(u.grid.lo, u.grid.hi))
    lip_samples = 128
    lip = lipschitz_sigma_estimate(s, box, samples=lip_samples, seed=seed)

    asym = growth_margin_asymptotic(s, bundle.c0, bundle.Lambda)
    if asym is not None:
        growth_ok = asym <= GROWTH_TOL
        box_local = False
    else:
        if growth_radii is None:
            r_max = min((hi - lo) / 2.0 for lo, hi in box)
            growth_radii = list(np.geomspace(r_max / 8.0, r_max, 6))
        margins = growth_condition_margin(s, bundle.c0, bundle.Lambda, growth_radii, seed=seed)
        growth_ok = margins[-1] <= GROWTH_TOL
        box_local = True

    verdicts = {
        "c0_positive": bool(bundle.c0 > 0.0),
        "lipschitz_sigma": bool(np.isfinite(lip)),
        "growth_condition": bool(growth_ok),
    }

    t0 = time.perf_counter()
    table = _offset_table(u, seed)
    scan_s = time.perf_counter() - t0
    increments = _binned(u.grid, table)
    alpha_fit, l_fit = _fit(table, increments)
    if math.isnan(alpha_fit):
        raise PreconditionError("constant solution: Holder exponent is undefined")
    violation = float(table.quotients(alpha_fit).max(initial=-math.inf) - l_fit)

    clam = bundle.C * bundle.Lambda
    admissible = alpha_fit < bundle.c0 / clam if clam > 0.0 else True
    if admissible:
        try:
            bound = holder_constant_bound(bundle, alpha_fit)
        except InadmissibleExponentError:
            bound = math.inf
            admissible = False
    else:
        bound = math.inf

    return HolderReport(
        alpha_fit=alpha_fit,
        L_fit=l_fit,
        pair_count=int(table.pairs.sum()),
        max_violation=violation,
        theorem_bound=bound,
        hypothesis_verdicts=verdicts,
        admissible_alpha=admissible,
        l_fit_within_bound=bool(l_fit <= bound),
        growth_box_local=box_local,
        lipschitz_estimate=float(lip),
        lipschitz_samples=lip_samples,
        seed=seed,
        increments=increments,
        scan_s=scan_s,
    )
