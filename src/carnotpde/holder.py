"""Holder modulus estimation on grid functions and end-to-end verification.

On a uniform grid the pairs sharing a lattice offset o lie h|o| apart and
their increments are one slice difference |u[x + o] - u[x]|. One exact pass
over one of each pair of opposite offsets +-o (each unordered node pair once)
tabulates each offset's distance h|o|, maximal increment and pair count.
check_scan_size refuses a grid of more than ALL_PAIRS_NODE_CAP = 32768 nodes
(32^3) with PreconditionError, so no statistic is ever read from a sample.
A bin's distance is the smallest among the offsets that reach the bin's
maximal increment, so no statistic depends on the order of the table or on
how the grid is numbered. The pass batches the grid's shortest axis: for
each offset along the other axes it takes the source and destination lines,
forms every |A[i] - B[j]| and reads all offsets j - i along the short axis
from that block at once (see _line_scan for its memory). fit_alpha regresses
the log of the per-bin maximal increment against log distance;
verify_theorem reduces one table to the fitted modulus and adds the
hypothesis checks and the seminorm bound. Every statistic raises ValueError
on a grid function with a non-finite value.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from itertools import islice, product

import numpy as np

from .doubling import ConstantBundle, growth_verdict, holder_constant_bound
from .errors import InadmissibleExponentError, PreconditionError
from .grids import Grid, GridFunction
from .operators import Coefficients, OperatorSpec
from .solver import SolveReport
from .structures import lipschitz_sigma_estimate

ALL_PAIRS_NODE_CAP = 32768
NUM_BINS = 12
# sigma is sampled at this many points when the structure declares no Lipschitz constant
LIPSCHITZ_SAMPLES = 128


@dataclass(frozen=True)
class _OffsetTable:
    """One row per scanned lattice offset o, in no particular order: its
    distance h|o|, its maximal increment and its pair count. Every statistic
    read from it is a maximum, a minimum or a sum over rows, so the rows'
    order never shows."""

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
    lead has at most N / L lines, so the block has at most L * N elements.
    Under the node cap that is 181 * 32761 = 5,929,741 (45 MiB, on 181^2) and
    32 * 32768 = 1,048,576 (8 MiB) on 32^3. The (leads, L * L) cell maxima,
    and their copy sorted by diagonal, number about 2^(n-2) L N each, as many
    as the block on 181^2 and 2,032,640 on 32^3. The tracemalloc peak of a
    scan was 32.1 MiB on 32^3, 48.2 MiB on 128^2 and 135.9 MiB on 181^2.
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


def check_scan_size(grid: Grid) -> None:
    """Raise PreconditionError if the exact scan would exceed its node cap."""
    if grid.num_nodes > ALL_PAIRS_NODE_CAP:
        raise PreconditionError(
            f"the exact Holder scan takes at most {ALL_PAIRS_NODE_CAP} nodes; "
            f"this grid has {grid.num_nodes}"
        )


def _offset_table(u: GridFunction) -> _OffsetTable:
    check_scan_size(u.grid)
    if not np.isfinite(u.values).all():
        raise ValueError("grid function has a non-finite value")
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


def pair_count(u: GridFunction) -> int:
    """Number of unordered node pairs the scan covers, N(N-1)/2."""
    return int(_offset_table(u).pairs.sum())


def binned_increments(u: GridFunction, seed: int = 0) -> list[dict]:
    """Per-bin maximal increments over the pair scan (for fitting and dumps).

    A bin's distance is the smallest distance h|o| among its offsets o that
    reach its maximal increment, 0.0 if all its increments vanish, its lower
    edge if it is empty. seed is not read: the scan is exact, and the
    parameter stays for callers that pass it by position.
    """
    return _binned(u.grid, _offset_table(u))


def fit_alpha(u: GridFunction) -> tuple[float, float]:
    """Log-log fit of the per-bin maximal increments; returns (alpha_fit, L_fit).

    alpha_fit is the regression slope clamped to (0, 1]; L_fit is the Holder
    seminorm at alpha_fit. A constant u yields the degenerate signal
    (nan, 0.0).
    """
    table = _offset_table(u)
    return _fit(table, _binned(u.grid, table))


def max_quotient_violation(u: GridFunction, alpha: float, L: float) -> float:
    """max over node pairs of |u(x)-u(y)|/|x-y|^alpha - L (<= 0 for the seminorm)."""
    return float(_offset_table(u).quotients(alpha).max(initial=-math.inf) - L)


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
    lipschitz_certified: bool
    lipschitz_samples: int
    seed: int
    increments: list
    scan_s: float

    @property
    def hypotheses_pass(self) -> bool:
        return all(self.hypothesis_verdicts.values())

    @property
    def failures(self) -> list[str]:
        """The checks of the theorem's statement that fail, by name: each false
        hypothesis verdict, then admissible_alpha, l_fit_within_bound and
        max_violation (when positive). verify passes when there is none."""
        checks = {
            **self.hypothesis_verdicts,
            "admissible_alpha": self.admissible_alpha,
            "l_fit_within_bound": self.l_fit_within_bound,
            "max_violation": self.max_violation <= 0.0,
        }
        return [name for name, holds in checks.items() if not holds]

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

    The trace-inequality constant is eta times the squared Lipschitz constant
    of sigma: the structure's declared lipschitz_sigma when it has one, else
    the bound sampled on the grid box. The bundle carries that constant, so a
    verify samples sigma at most once.
    """
    lip = spec.structure.lipschitz_sigma
    if lip is None:
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

    The Lipschitz figure is the one the bundle carries, certified when the
    structure declares it. The growth condition is doubling.growth_verdict on
    the sphere of the largest of growth_radii, or of the box half-width when
    none are given; without an analytic margin the report is box-local.
    """
    if not solve_report.converged:
        raise PreconditionError("verify_theorem requires a converged solve")
    lip = bundle.lipschitz_estimate
    if growth_radii is None:
        radius = min((hi - lo) / 2.0 for lo, hi in zip(u.grid.lo, u.grid.hi))
    else:
        radius = max(growth_radii)
    asym, _, grows = growth_verdict(spec.structure, bundle.c0, bundle.Lambda, [radius], seed=seed)
    verdicts = {"lipschitz_sigma": bool(np.isfinite(lip)), "growth_condition": grows}
    certified = spec.structure.lipschitz_sigma is not None

    t0 = time.perf_counter()
    table = _offset_table(u)
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
        lipschitz_certified=certified,
        lipschitz_samples=0 if certified else LIPSCHITZ_SAMPLES,
        seed=seed,
        increments=increments,
        scan_s=scan_s,
    )
