"""Holder modulus estimation on grid functions and end-to-end verification.

On a uniform grid the pairs sharing a lattice offset o lie h|o| apart and
their increments are one slice difference |u[x + o] - u[x]|. The offset table
has one row per offset of each pair +-o (each unordered node pair once): its
distance h|o|, its pair count prod_k (n_k - |o_k|), an upper bound on its
maximal increment and, once computed, that maximal increment.
check_scan_size refuses a grid of more than ALL_PAIRS_NODE_CAP = 32768 nodes
(32^3) with PreconditionError, so no statistic is ever read from a sample.

Every statistic is a maximum, so an offset whose bound lies strictly below
the best value already computed cannot change it and is never scanned (the
pruning of Gray and Moore 2000, with one bound per offset). The bound is
U(o) = min(max u - min u, (1 + 4(n + 2) eps) sum_k A_k(|o_k|)), where
A_k(t) is the exact maximal increment along axis k at step t: the box grid
holds every axis-parallel path between two of its nodes, so the steps of one
such path bound |u(x + o) - u(x)|. The n roundings behind the A_k, the n - 1
of their sum, the one of the increment and the one of the product each move
a value by at most eps / 2 relative, about (n + 1) eps in all, which the
factor covers four times over; the range needs no slack, since rounding is
monotone. So a computed increment never exceeds its computed bound, and
every statistic is bit for bit the exhaustive one. The A_k are the maxima of
the table's offsets along one axis, which it scans first, one slice
difference each; |a - b| and |b - a| round alike, so a step taken either way
along an axis is bounded by the same A_k.

Each distance bin is refined in exactly two passes: its offsets of largest
bound, ties and all, then every offset whose bound still reaches the bin's
best. The best only grows, so an offset left out has a bound strictly below
it, and one whose bound ties it is scanned. So a bin's distance, the smallest
among the offsets that reach the bin's maximal increment, does not depend on
the order of the table or on how the grid is numbered. The quotient
max_o max_inc(o) / (h|o|)^alpha is refined the same way, at whichever alpha
is asked for. A row of the table is an offset (d, lead) of lines, u with
the grid's shortest axis moved first: d along that batched axis, the lead
along the others. Every maximal increment the table computes, the A_k's at
build and each pass's rows after, is one slice difference of lines, so a
scan's scratch is one difference of fewer than N values. On a rough u nearly
every bound reaches its bin's best and the passes scan nearly every offset,
so ALL_PAIRS_NODE_CAP still holds the worst case.

fit_alpha regresses the log of the per-bin maximal increment against log
distance; verify_theorem reduces one table to the fitted modulus and adds the
hypothesis checks and the seminorm bound. Every statistic raises ValueError
on a grid function with a non-finite value.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

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


def _bin_edges(grid: Grid) -> np.ndarray:
    diam = math.sqrt(sum((hi - lo) ** 2 for lo, hi in zip(grid.lo, grid.hi)))
    return np.geomspace(grid.h, diam * (1.0 + 1e-12), NUM_BINS + 1)


def _lattice_distance(h: float, sq_norm) -> np.ndarray:
    """The distance h|o| of lattice offsets o, from their integer |o|^2."""
    return h * np.sqrt(sq_norm)


def _axis_slices(size: int, sign: int) -> list:
    """For o = 1 - size .. size - 1, at list index o (a negative o counts from
    the end), the slice of the nodes x on the axis whose partner x + sign * o
    is on the axis too."""
    o = sign * np.r_[0:size, 1 - size : 0]
    lo = np.maximum(-o, 0)
    return list(map(slice, lo.tolist(), (lo + size - np.abs(o)).tolist()))


def check_scan_size(shape) -> None:
    """Raise PreconditionError if the exact scan of a grid of this node shape
    would exceed its node cap. Reads the shape alone, so a grid is refused
    before anything is built on it."""
    nodes = math.prod(shape)
    if nodes > ALL_PAIRS_NODE_CAP:
        raise PreconditionError(
            f"the exact Holder scan takes at most {ALL_PAIRS_NODE_CAP} nodes; "
            f"this grid has {nodes}"
        )


class _OffsetTable:
    """One row per lattice offset o of each pair +-o: its distance h|o|, its
    pair count, an upper bound on its maximal increment and its maximal
    increment, nan until computed. Row lead * (2L - 1) + d - 1 is the offset
    (d, leads[lead]) of lines, d = 1 - L .. L - 1; the zero lead's d <= 0
    are left out. Every statistic read from it is a maximum, a minimum or a
    sum over rows, so neither the rows' order nor the axes' shows. Each
    maximal increment it computes, at build and in refine, is one slice
    difference (_scan)."""

    def __init__(self, grid: Grid, values: np.ndarray):
        # a line is taken as shape (1, N), whose first axis has no offset
        shape = values.shape if values.ndim > 1 else (1,) + values.shape
        a = int(np.argmin(shape))
        L = shape[a]
        # a copy, since slices of the strided moved view are slower
        self.lines = np.ascontiguousarray(np.moveaxis(values.reshape(shape), a, 0))
        span = 2 * np.array(self.lines.shape[1:]) - 1
        leads = np.indices(span).reshape(len(span), -1).T - span // 2
        self.leads = leads[len(leads) // 2 :]  # zero, then the lexicographically positive ones
        diag = np.arange(1 - L, L)
        lead_lines = np.prod(self.lines.shape[1:] - np.abs(self.leads), axis=1)
        self.pairs = np.outer(lead_lines, L - np.abs(diag)).ravel()[L:]
        sq_norm = (self.leads**2).sum(axis=1)[:, None] + diag**2
        self.distance = _lattice_distance(grid.h, sq_norm.ravel()[L:])
        self.src = [_axis_slices(s, 1) for s in self.lines.shape]
        self.dst = [_axis_slices(s, -1) for s in self.lines.shape]
        self.max_inc = np.full(len(self.pairs), np.nan)
        # the offsets along one axis, one slice difference each: the zero
        # lead's rows, then the d = 0 row of each lead t e_k, by axis and t
        on_axis = np.count_nonzero(self.leads, axis=1) == 1
        axis_rows = [np.arange(L - 1)]
        axis_rows += [np.flatnonzero(on_axis & (o > 0)) * (2 * L - 1) - 1 for o in self.leads.T]
        self._scan(np.concatenate(axis_rows))
        # their maxima are A_k(t) for t = 1 .. n_k - 1, and A_k(0) = 0
        along, *across = (np.r_[0.0, self.max_inc[rows]] for rows in axis_rows)
        lead_path = sum(inc[np.abs(o)] for inc, o in zip(across, self.leads.T))
        path = (lead_path[:, None] + along[np.abs(diag)]).ravel()[L:]
        # covers every rounding behind a computed increment and this bound
        slack = 1.0 + 4 * (grid.n + 2) * np.finfo(float).eps
        self.bound = np.minimum(values.max() - values.min(), slack * path)
        self.quotient_max = {}  # alpha -> max_quotient(alpha), exact once computed

    @property
    def scanned(self) -> int:
        """Rows whose exact maximal increment has been computed."""
        return int(np.count_nonzero(~np.isnan(self.max_inc)))

    def _scan(self, rows: np.ndarray) -> None:
        """Compute the maximal increment of each row by one slice difference
        of lines, cut at the row's diagonal d along the batched axis and at
        its lead along the others: scratch of fewer than N values."""
        L = self.lines.shape[0]
        lead, d = np.divmod(rows + L, 2 * L - 1)
        o = [k.tolist() for k in (d + 1 - L, *self.leads[lead].T)]

        def cut(slices):
            return zip(*(map(s.__getitem__, k) for s, k in zip(slices, o)))

        cuts = zip(cut(self.src), cut(self.dst))
        inc = (np.abs(self.lines[dst] - self.lines[src]).max() for src, dst in cuts)
        self.max_inc[rows] = np.fromiter(inc, float, len(rows))

    def refine(self, scale: np.ndarray | float, groups: np.ndarray, count: int) -> np.ndarray:
        """max of max_inc / scale over the rows of each of count groups.

        A row's key = bound / scale bounds its max_inc / scale. Pass 1 scans
        each group's open rows of largest key, ties and all, where they reach
        the group's best; pass 2 every open row whose key reaches its group's
        best after pass 1. A best only grows, so a row left open has a key
        below the final one and every row that ties it is exact. Each pass is
        one _scan, so it reads the pairs of its rows and no others.
        """
        key = self.bound / scale

        def best():
            out = np.full(count, -np.inf)
            np.fmax.at(out, groups, self.max_inc / scale)  # fmax skips the nan of open rows
            return out

        def reaching():
            return np.flatnonzero(np.isnan(self.max_inc) & (key >= best()[groups]))

        todo = reaching()
        top = np.full(count, -np.inf)
        np.maximum.at(top, groups[todo], key[todo])
        self._scan(todo[key[todo] == top[groups[todo]]])
        self._scan(reaching())
        return best()

    def max_quotient(self, alpha: float) -> float:
        """max over rows of max_inc / distance^alpha, -inf without rows."""
        if alpha not in self.quotient_max:
            groups = np.zeros(len(self.distance), dtype=np.intp)
            self.quotient_max[alpha] = float(self.refine(self.distance**alpha, groups, 1)[0])
        return self.quotient_max[alpha]


def _offset_table(u: GridFunction) -> _OffsetTable:
    check_scan_size(u.grid.shape)
    if not np.isfinite(u.values).all():
        raise ValueError("grid function has a non-finite value")
    return _OffsetTable(u.grid, u.values)


def _bin_index(edges: np.ndarray, distance: np.ndarray) -> np.ndarray:
    """The bin of each distance: how many of the inner edges edges[1:-1] lie
    at or below it. Every lattice distance lies in [edges[0], edges[-1]),
    and one outside would land in the first or last bin."""
    bins = np.zeros(distance.shape, dtype=np.intp)
    for edge in edges[1:-1]:
        bins += distance >= edge
    return bins


def _binned(grid: Grid, table: _OffsetTable) -> list[dict]:
    edges = _bin_edges(grid)
    bins = _bin_index(edges, table.distance)
    best = table.refine(1.0, bins, NUM_BINS)
    out = []
    for b in range(NUM_BINS):
        rows = np.flatnonzero(bins == b)
        row = {"distance": float(edges[b]), "max_increment": 0.0, "pairs": 0}
        if rows.size:
            top = best[b]
            row["max_increment"] = float(top)
            # the nearest offset reaching the bin's maximum; refine scanned
            # every offset that can reach it
            nearest = table.distance[rows][table.max_inc[rows] == top].min()
            row["distance"] = float(nearest) if top else 0.0
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
    return alpha, table.max_quotient(alpha)


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
    return _offset_table(u).max_quotient(alpha) - L


@dataclass
class HolderReport:
    alpha_fit: float
    L_fit: float
    pair_count: int
    offsets_total: int
    offsets_scanned: int
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
        return {"schema_version": 2, **asdict(self)}


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
    increments = _binned(u.grid, table)
    alpha_fit, l_fit = _fit(table, increments)
    if math.isnan(alpha_fit):
        raise PreconditionError("constant solution: Holder exponent is undefined")
    violation = table.max_quotient(alpha_fit) - l_fit
    scan_s = time.perf_counter() - t0

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
        offsets_total=len(table.pairs),
        offsets_scanned=table.scanned,
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
