"""Holder modulus estimation on grid functions and end-to-end verification.

On a uniform grid the pairs sharing a lattice offset o lie h|o| apart and
their increments are one slice difference |u[x + o] - u[x]|. One pass over
offsets tabulates each offset's maximal increment and pair count, over one of
each pair of opposite offsets +-o (each unordered node pair once) up to 4096
nodes and otherwise over a seeded stratified sample (about one million pairs
spread over geometric distance bins). Both scans give an offset the distance
h|o|, and a bin's distance is the smallest among the offsets that reach the
bin's maximal increment, so no statistic depends on the order of the table
or on how the grid is numbered. The exhaustive pass batches the grid's
shortest axis: for each offset along the other axes it takes the source and
destination lines, forms every |A[i] - B[j]| and reads all offsets j - i
along the short axis from that block at once. Under the node cap a block has
at most 262,144 elements (2 MiB), and so has the array of every block's
per-cell maxima, so the scratch memory is bounded. fit_alpha regresses the log of the per-bin
maximal increment against log distance; verify_theorem reduces one table to
the fitted modulus and adds the hypothesis checks and the seminorm bound.
Every statistic raises ValueError on a grid function with a non-finite value.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from itertools import islice, product
from typing import Iterator

import numpy as np

from .doubling import (
    ConstantBundle,
    growth_condition_margin,
    growth_margin_asymptotic,
    growth_satisfied,
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
# sigma is sampled at this many points for its Lipschitz estimate
LIPSCHITZ_SAMPLES = 128


@dataclass(frozen=True)
class _OffsetTable:
    """One row per scanned lattice offset o, in no particular order: its
    distance h|o|, its maximal increment and its pair count (sampled pairs
    when stratified). Every statistic read from it is a maximum, a minimum
    or a sum over rows, so the rows' order never shows."""

    distance: np.ndarray
    max_inc: np.ndarray
    pairs: np.ndarray

    def quotients(self, alpha: float) -> np.ndarray:
        return self.max_inc / self.distance**alpha


def _bin_edges(grid: Grid) -> np.ndarray:
    diam = math.sqrt(sum((hi - lo) ** 2 for lo, hi in zip(grid.lo, grid.hi)))
    return np.geomspace(grid.h, diam * (1.0 + 1e-12), NUM_BINS + 1)


def _lattice_distance(h: float, sq_norm) -> np.ndarray:
    """The distance h|o| of lattice offsets o, from their integer |o|^2."""
    return h * np.sqrt(sq_norm)


def _increments(values: np.ndarray, offset) -> np.ndarray | None:
    """|u(x + offset) - u(x)| over the block of source nodes x of every pair
    realizing the lattice offset; None if no pair does."""
    if any(abs(o) >= size for o, size in zip(offset, values.shape)):
        return None
    src = tuple(slice(max(-o, 0), size - max(o, 0)) for o, size in zip(offset, values.shape))
    dst = tuple(slice(max(o, 0), size - max(-o, 0)) for o, size in zip(offset, values.shape))
    return np.abs(values[dst] - values[src])


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
            dist = float(_lattice_distance(h, offset @ offset))
            if not (lo_r <= dist < hi_r):
                continue
            key = tuple(offset)
            if key in seen:
                continue
            seen.add(key)
            inc = _increments(u.values, offset)
            if inc is None:
                continue
            inc = inc.ravel()
            remaining = quota - got
            if inc.size > remaining:
                inc = inc[rng.integers(0, inc.size, size=remaining)]
            got += inc.size
            yield dist, inc


def _axis_slices(size: int, sign: int) -> list:
    """For o = 1 - size .. size - 1, the slice of the nodes x on the axis
    whose partner x + sign * o is on the axis too."""
    o = sign * np.arange(1 - size, size)
    lo = np.maximum(-o, 0)
    return list(map(slice, lo.tolist(), (lo + size - np.abs(o)).tolist()))


def _line_scan(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(max_inc, sq_norm, pairs) of one offset o of every pair +-o of nonzero
    lattice offsets, in no particular order: its maximal increment, |o|^2 and
    its pair count.

    The shortest axis, of length L, is moved first and batched; a 1-D grid is
    taken as shape (1, N). For each lexicographically nonnegative offset `lead`
    of the other axes, A and B are the (L, lines) source and destination lines,
    and cell (i, j) of |A[i] - B[j]| holds the pairs of offset (lead, j - i).
    Each cell keeps its maximum over lines, and each diagonal j - i the
    maximum of its cells. A lead's block is formed whole: L <= N^(1/n) and a
    lead has at most N / L lines, so the block has at most L * N elements,
    64 * 4096 = 262,144 (2 MiB) under the node cap. The (leads, L * L) cell
    maxima number about 2^(n-2) L N, at most 262,144 too (on 64^2; 16^3 has
    123,136).
    """
    shape = values.shape if values.ndim > 1 else (1,) + values.shape
    a = int(np.argmin(shape))
    L = shape[a]
    lead_shape = shape[:a] + shape[a + 1 :]
    lines = np.moveaxis(values.reshape(shape), a, 0)
    span = 2 * np.array(lead_shape) - 1
    leads = np.indices(span).reshape(len(span), -1).T - span // 2
    leads = leads[len(leads) // 2 :]  # zero, then the lexicographically positive ones
    # the source and destination slices of every lead; the product runs in the
    # lexicographic order of np.indices, negative leads first
    colon = slice(None)
    skip = len(leads) - 1
    src_cuts = islice(product([colon], *(_axis_slices(s, 1) for s in lead_shape)), skip, None)
    dst_cuts = islice(product([colon], *(_axis_slices(s, -1) for s in lead_shape)), skip, None)
    cells = np.empty((len(leads), L * L))
    cell = np.arange(L * L)
    for row, src, dst in zip(cells, src_cuts, dst_cuts):
        m = np.subtract(lines[src].reshape(L, 1, -1), lines[dst].reshape(1, L, -1))
        m = np.abs(m, out=m).reshape(L * L, -1)
        # numpy's argmax over a short last axis is faster than its max
        row[:] = m[cell, m.argmax(axis=1)]
    diag = np.arange(1 - L, L)
    dlen = L - np.abs(diag)
    by_diag = np.argsort((np.arange(L) - np.arange(L)[:, None]).ravel())  # cells by j - i
    max_inc = np.maximum.reduceat(cells[:, by_diag], np.cumsum(dlen) - dlen, axis=1)
    sq_norm = (leads * leads).sum(axis=1)[:, None] + diag * diag
    pairs = (np.array(lead_shape) - np.abs(leads)).prod(axis=1)[:, None] * dlen
    keep = np.ones(max_inc.shape, dtype=bool)
    keep[0] = diag > 0  # the zero lead's positive offsets only
    return max_inc[keep], sq_norm[keep], pairs[keep]


def _offset_table(u: GridFunction, seed: int) -> _OffsetTable:
    if not np.isfinite(u.values).all():
        raise ValueError("grid function has a non-finite value")
    if u.grid.num_nodes > ALL_PAIRS_NODE_CAP:
        rows = [(dist, inc.max(), inc.size) for dist, inc in _sampled_offsets(u, seed)]
        return _OffsetTable(*np.array(rows, dtype=float).reshape(-1, 3).T)
    max_inc, sq_norm, pairs = _line_scan(u.values)
    return _OffsetTable(_lattice_distance(u.grid.h, sq_norm), max_inc, pairs)


def _binned(grid: Grid, table: _OffsetTable) -> list[dict]:
    edges = _bin_edges(grid)
    bins = np.clip(np.searchsorted(edges, table.distance, side="right") - 1, 0, NUM_BINS - 1)
    out = []
    for b in range(NUM_BINS):
        rows = np.flatnonzero(bins == b)
        row = {"distance": float(edges[b]), "max_increment": 0.0, "pairs": 0}
        if rows.size:
            inc = table.max_inc[rows]
            top = inc.max()
            row["max_increment"] = float(top)
            # the nearest offset reaching the bin's maximum
            row["distance"] = float(table.distance[rows][inc == top].min()) if top else 0.0
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


def binned_increments(u: GridFunction, seed: int = 0) -> list[dict]:
    """Per-bin maximal increments over the pair scan (for fitting and dumps).

    A bin's distance is the smallest distance h|o| among its offsets o that
    reach its maximal increment, 0.0 if all its increments vanish, its lower
    edge if it is empty.
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
    seed: int = 0,
) -> ConstantBundle:
    """Assemble the constants the seminorm bound needs from a solved instance.

    The trace-inequality constant is eta times the squared sampled Lipschitz
    bound of sigma on the grid box; the bundle carries that bound, so a
    verify samples sigma once.
    """
    box = list(zip(u.grid.lo, u.grid.hi))
    lip = lipschitz_sigma_estimate(spec.structure, box, samples=LIPSCHITZ_SAMPLES, seed=seed)
    return ConstantBundle(
        c0=coeffs.c0,
        Lambda=spec.bounds.Lam,
        C=eta * lip * lip,
        L_c=coeffs.L_c,
        beta=coeffs.beta,
        L_f=coeffs.L_f,
        beta_prime=coeffs.beta_prime,
        u_inf=float(np.abs(u.flat).max()),
        lipschitz_estimate=lip,
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

    The Lipschitz figure is the one the bundle carries. The growth condition
    uses the preset's analytic asymptotic margin when one exists; otherwise
    it samples the sphere of the largest of growth_radii, or of the box
    half-width when none are given, and the report is flagged box-local.
    """
    if not solve_report.converged:
        raise PreconditionError("verify_theorem requires a converged solve")
    s = spec.structure
    box = list(zip(u.grid.lo, u.grid.hi))
    lip = bundle.lipschitz_estimate

    asym = growth_margin_asymptotic(s, bundle.c0, bundle.Lambda)
    margins = None
    if asym is None:
        if growth_radii is None:
            radius = min((hi - lo) / 2.0 for lo, hi in box)
        else:
            radius = max(growth_radii)
        margins = growth_condition_margin(s, bundle.c0, bundle.Lambda, [radius], seed=seed)

    verdicts = {
        "lipschitz_sigma": bool(np.isfinite(lip)),
        "growth_condition": growth_satisfied(asym, margins),
    }

    t0 = time.perf_counter()
    table = _offset_table(u, seed)
    scan_s = time.perf_counter() - t0
    increments = _binned(u.grid, table)
    alpha_fit, l_fit = _fit(table, increments)
    if math.isnan(alpha_fit):
        raise PreconditionError("constant solution: Holder exponent is undefined")
    violation = float(table.quotients(alpha_fit).max(initial=-math.inf) - l_fit)

    try:
        bound = holder_constant_bound(bundle, alpha_fit)
        admissible = True
    except InadmissibleExponentError:
        bound = math.inf
        admissible = False

    return HolderReport(
        alpha_fit=alpha_fit,
        L_fit=l_fit,
        pair_count=int(table.pairs.sum()),
        max_violation=violation,
        theorem_bound=bound,
        hypothesis_verdicts=verdicts,
        admissible_alpha=admissible,
        l_fit_within_bound=admissible and bool(l_fit <= bound),
        growth_box_local=asym is None,
        lipschitz_estimate=float(lip),
        lipschitz_samples=LIPSCHITZ_SAMPLES,
        seed=seed,
        increments=increments,
        scan_s=scan_s,
    )
