"""Upper estimate of the Carnot-Caratheodory distance by control-graph search.

States move along +/- the horizontal fields with a fixed step; every move
costs one step of control length. States are deduplicated on a rounding
lattice of cells, and the search returns the cheapest move sequence whose
endpoint lands within the goal tolerance. The result is an upper
approximation of the true infimum over horizontal paths and is deterministic
for fixed inputs.

The search is level-synchronous: level k holds the states first reached after
k moves, in the order a Dijkstra heap would settle them (parent order, then
field index, then + before -). Because every move costs the same, Dijkstra
pops exactly the states of one level before any of the next, in that order,
so expanding a whole level at once as arrays settles the same states, finds
the same goal and returns the same float.

The arrays are axis-major: a level is (n, K), one contiguous row of K values
per coordinate, and its candidates fill an (n, K, m, 2) buffer one axis at a
time, whose rows ravel in that settle order. Keys, box tests and the goal
test then run as 1-D passes over rows; only the frame call sees the (K, n)
view level.T, the batch form every sigma takes.

Two states are one state when they share the cell floor(p / cell) of the
half-step lattice. The visited set has two forms, chosen from the box; each
settles a level's (n, N) candidates with settle(cand), which returns the
indices of the candidates that reach a cell first, in candidate order:

- one int32 stamp per cell of the box's lattice (_CellStamps), indexed by
  (floor(p / cell) - floor(lo / cell)) @ strides. It runs when every bound is
  finite and the lattice has at most _stamp_cells(s, max_nodes) cells, so its
  4 bytes per cell never take more memory than the 8 * n bytes per state of
  the sorted keys at the node budget;
- otherwise the sorted bytes of the float64 floors (_SortedCells), one row of
  n floors per state after one transpose a level, which grow with the settled
  states and are the only form for huge or unbounded boxes.

Both map two states to one key exactly when their floors match, so they
settle the same states.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoPathError, NumericalError
from .structures import CarnotStructure, as_point, frames


@dataclass(frozen=True)
class CCResult:
    """A cc search's distance and what the search did to find it.

    nodes_settled counts the states settled up to and including the goal,
    levels the levels expanded (the moves on the returned path) and
    frontier_peak the largest level, in states.
    """

    distance: float
    nodes_settled: int
    levels: int
    frontier_peak: int
    elapsed_s: float


def default_box(a: np.ndarray, b: np.ndarray) -> list[tuple[float, float]]:
    """Axis-aligned box around both endpoints, padded by max(1, |a - b|)."""
    pad = max(1.0, float(np.linalg.norm(a - b)))
    return [(min(ai, bi) - pad, max(ai, bi) + pad) for ai, bi in zip(a, b)]


def _cell_keys(points: np.ndarray, cell: float) -> np.ndarray:
    """One sortable key per column of the (n, K) points: the bytes of its cell floor(p / cell).

    The keys of the sorted visited set, which serves boxes too large or
    unbounded for a bitmap. The floors stay float64, which holds every integer
    cell index exactly at any box size; + 0.0 turns -0.0 into 0.0, whose bytes
    differ. They are transposed once into C-contiguous rows of n, one key each.
    """
    floors = np.ascontiguousarray((np.floor(points / cell) + 0.0).T)
    return floors.view(np.dtype((np.void, floors.itemsize * floors.shape[1]))).ravel()


def _stamp_cells(s: CarnotStructure, max_nodes: int) -> float:
    """Most lattice cells for the stamps: 4 bytes each, against 8 * n * max_nodes sorted bytes.

    A stamp holds a position among a level's < 2 * m * max_nodes candidates,
    so budgets where that could pass int32 take the sorted keys.
    """
    return 2.0 * s.n * max_nodes if 2 * s.m * max_nodes < 2**31 else 0.0


def _cell_lattice(
    lo: np.ndarray, hi: np.ndarray, cell: float, max_cells: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Origin floor(lo / cell) and cells per axis of the box's lattice.

    None when the lattice is infinite or has more than max_cells (_stamp_cells)
    cells. The count is a float product: an integer one overflows on large boxes.
    """
    origin = np.floor(lo / cell)
    extent = np.floor(hi / cell) - origin + 1.0
    if not np.prod(extent) <= max_cells:  # also rejects inf and nan
        return None
    return origin, extent


class _SortedCells:
    """Visited set as the sorted _cell_keys of every settled state, from start (one column)."""

    def __init__(self, cell: float, lo: np.ndarray, hi: np.ndarray, start: np.ndarray):
        self.cell, self.lo, self.hi = cell, lo, hi
        self.settled = _cell_keys(start, cell)

    def settle(self, cand: np.ndarray) -> np.ndarray:
        outside = (cand < self.lo[:, None]) | (cand > self.hi[:, None])
        inbox = np.flatnonzero(~outside.any(axis=0))
        keys = _cell_keys(np.take(cand, inbox, axis=1), self.cell)
        at = np.minimum(np.searchsorted(self.settled, keys), len(self.settled) - 1)
        fresh = np.flatnonzero(self.settled[at] != keys)
        new_keys, first = np.unique(keys[fresh], return_index=True)
        self.settled = np.insert(self.settled, np.searchsorted(self.settled, new_keys), new_keys)
        return inbox[fresh[np.sort(first)]]


class _CellStamps:
    """Visited set as one int32 stamp per cell of the box's lattice (see _cell_lattice).

    A cell's index counts from floor(lo / cell), not from lo, so that cells stay
    the floor(p / cell) cells when lo is no multiple of cell. An in-box index is
    an integer below the cell count, exact in float64. Between levels a stamp is
    SETTLED or FREE; the extra cell at index `cells` starts settled and takes
    every candidate outside the box.
    """

    SETTLED = -1
    FREE = np.iinfo(np.int32).max

    def __init__(self, cell: float, lo: np.ndarray, hi: np.ndarray, start: np.ndarray,
                 origin: np.ndarray, extent: np.ndarray):
        self.cell, self.lo, self.hi, self.origin = cell, lo, hi, origin
        self.strides = np.append(np.cumprod(extent[:0:-1])[::-1], 1.0)
        self.cells = int(np.prod(extent))
        self.stamp = np.full(self.cells + 1, self.FREE, dtype=np.int32)
        self.stamp[self.cells] = self.SETTLED
        self.settle(start)

    def settle(self, cand: np.ndarray) -> np.ndarray:
        # one contiguous row of cand per axis: key and box test in 1-D passes,
        # the key's (floor(col / cell) - origin) * stride formed in place
        keys, outside = np.zeros(cand.shape[1]), np.zeros(cand.shape[1], dtype=bool)
        term = np.empty(cand.shape[1])
        for col, lo, hi, origin, stride in zip(cand, self.lo, self.hi, self.origin, self.strides):
            np.floor(np.divide(col, self.cell, out=term), out=term)
            term -= origin
            term *= stride
            keys += term
            outside |= (col < lo) | (col > hi)
        keys = np.where(outside, self.cells, keys.astype(np.intp))
        order = np.arange(len(keys), dtype=np.int32)
        # each fresh cell takes its first candidate's position; a settled
        # cell's SETTLED is below every position, so it stays and matches none
        np.minimum.at(self.stamp, keys, order)
        first = np.flatnonzero(self.stamp[keys] == order)
        self.stamp[keys[first]] = self.SETTLED  # every fresh cell has one first candidate
        return first


def _goal_index(level: np.ndarray, goal: np.ndarray, tol2: float) -> int:
    """Index of the first state (column of level) within the goal tolerance, K if none.

    The vectorised sum of squares only preselects, with a margin: a state is
    accepted by the scalar dot product g @ g on a contiguous copy g of its gap,
    as in the one-state-at-a-time Dijkstra formulation. The two can round
    differently in the last bit (BLAS may fuse multiply and add, and a strided
    column may take another dot kernel), and a tie at the tolerance must go the
    same way.
    """
    gap = level - goal[:, None]
    for k in np.flatnonzero(np.einsum("ij,ij->j", gap, gap) <= tol2 * (1.0 + 1e-9)):
        g = np.ascontiguousarray(gap[:, k])
        if float(g @ g) <= tol2:
            return int(k)
    return level.shape[1]


def cc_search(
    s: CarnotStructure,
    a,
    b,
    resolution: float,
    box: Sequence[Sequence[float]] | None = None,
    goal_tol: float | None = None,
    max_nodes: int = 2_000_000,
) -> CCResult:
    """Cheapest discovered horizontal move sequence from a to b, with search statistics.

    resolution is the control step per move; the goal is accepted within
    resolution/2 by default. Raises NoPathError when the search exhausts the
    box or the node budget (the max_nodes-th settled state is not the goal),
    which signals a box too small or a resolution too coarse, and
    NumericalError when the frame is not finite at an expanded state.
    """
    t0 = time.perf_counter()
    if not 0.0 < resolution < np.inf:
        raise ValueError("resolution must be positive and finite")
    start = as_point(a, s.n)
    goal = as_point(b, s.n)
    tol = resolution / 2.0 if goal_tol is None else float(goal_tol)
    if not 0.0 <= tol < np.inf:
        raise ValueError("goal_tol must be nonnegative and finite")
    if float(np.linalg.norm(start - goal)) <= tol:
        return CCResult(0.0, 0, 0, 0, time.perf_counter() - t0)
    if box is None:
        box = default_box(start, goal)
    if len(box) != s.n:
        raise ValueError(f"box must have {s.n} rows, one (lo, hi) per coordinate; got {len(box)}")
    lo = np.array([float(c[0]) for c in box])
    hi = np.array([float(c[1]) for c in box])
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError("box bounds must not be NaN")
    if np.any(lo > hi):
        k = int(np.argmax(lo > hi))
        raise ValueError(f"box row {k} has lo > hi: [{lo[k]:g}, {hi[k]:g}]")
    if np.any(start < lo) or np.any(start > hi) or np.any(goal < lo) or np.any(goal > hi):
        raise ValueError("both endpoints must lie inside the bounding box")

    cell = resolution / 2.0
    tol2 = tol * tol

    level = start[:, None]
    lattice = _cell_lattice(lo, hi, cell, _stamp_cells(s, max_nodes))
    if lattice is None:
        visited = _SortedCells(cell, lo, hi, level)
    else:
        visited = _CellStamps(cell, lo, hi, level, *lattice)
    cost = 0.0
    depth = 0
    popped = 0
    peak = 1
    while level.shape[1]:
        found = _goal_index(level, goal, tol2)
        if popped + found >= max_nodes:
            raise NoPathError(
                f"node budget {max_nodes} exhausted at cost {cost:.4g}; "
                "enlarge the box or refine the resolution"
            )
        if found < level.shape[1]:
            return CCResult(cost, popped + found + 1, depth, peak, time.perf_counter() - t0)
        popped += level.shape[1]
        frame = frames(s, level.T)
        if not np.isfinite(frame).all():
            bad = level[:, np.argmin(np.isfinite(frame).all(axis=(1, 2)))].tolist()
            raise NumericalError(f"sigma has non-finite entries at state {bad}")
        # candidates in settle order once raveled: parent, then field i, then + before -;
        # one axis at a time, level[a] +/- resolution * X_i[a], which rounds as
        # (+/-resolution) * X_i[a] + level[a] does since negation is exact
        cand = np.empty((s.n, level.shape[1], s.m, 2))
        step = np.empty(level.shape[1])
        for a in range(s.n):
            for i in range(s.m):
                np.multiply(frame[:, i, a], resolution, out=step)
                np.add(level[a], step, out=cand[a, :, i, 0])
                np.subtract(level[a], step, out=cand[a, :, i, 1])
        cand = cand.reshape(s.n, -1)
        level = np.take(cand, visited.settle(cand), axis=1)
        cost = cost + resolution
        depth += 1
        peak = max(peak, level.shape[1])
    raise NoPathError(
        "goal not reachable within the box at this resolution; "
        "enlarge the box or refine the resolution"
    )


def cc_distance_estimate(
    s: CarnotStructure,
    a,
    b,
    resolution: float,
    box: Sequence[Sequence[float]] | None = None,
    goal_tol: float | None = None,
    max_nodes: int = 2_000_000,
) -> float:
    """Length of the cheapest discovered horizontal move sequence from a to b (see cc_search)."""
    return cc_search(s, a, b, resolution, box, goal_tol, max_nodes).distance
