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

Two states are one state when they share the cell floor(p / cell) of the
half-step lattice. The visited set has two forms, chosen from the box:

- a boolean array over the box's cell lattice (_CellBitmap), indexed by
  (floor(p / cell) - floor(lo / cell)) @ strides. It runs when every bound is
  finite and the lattice has at most 8 * n * max_nodes cells, the bytes the
  sorted keys would take at the node budget, so it never takes more memory
  than they could;
- otherwise the sorted bytes of the float64 floors (_SortedCells), which grow
  with the settled states and are the only form for huge or unbounded boxes.

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
    """One sortable key per row: the bytes of its lattice cell floor(p / cell).

    The keys of the sorted visited set, which serves boxes too large or
    unbounded for a bitmap. The floors stay float64, which holds every integer
    cell index exactly at any box size; + 0.0 turns -0.0 into 0.0, whose bytes
    differ.
    """
    floors = np.floor(points / cell) + 0.0
    return floors.view(np.dtype((np.void, floors.itemsize * floors.shape[1]))).ravel()


def _cell_lattice(
    lo: np.ndarray, hi: np.ndarray, cell: float, max_cells: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Origin floor(lo / cell) and cells per axis of the box's lattice.

    None when the lattice is infinite or has more than max_cells cells. The
    count is a float product: an integer one overflows on large boxes.
    """
    origin = np.floor(lo / cell)
    extent = np.floor(hi / cell) - origin + 1.0
    if not np.prod(extent) <= max_cells:  # also rejects inf and nan
        return None
    return origin, extent


class _SortedCells:
    """Visited set as the sorted _cell_keys of every settled state, from start (one row)."""

    def __init__(self, cell: float, start: np.ndarray):
        self.cell = cell
        self.settled = _cell_keys(start, cell)

    def keys(self, points: np.ndarray) -> np.ndarray:
        return _cell_keys(points, self.cell)

    def fresh(self, keys: np.ndarray) -> np.ndarray:
        at = np.minimum(np.searchsorted(self.settled, keys), len(self.settled) - 1)
        return self.settled[at] != keys

    def add(self, new_keys: np.ndarray) -> None:
        """Insert sorted keys that are not yet in the set."""
        self.settled = np.insert(self.settled, np.searchsorted(self.settled, new_keys), new_keys)


class _CellBitmap:
    """Visited set as one boolean per cell of the box's lattice (see _cell_lattice).

    A cell's index counts from floor(lo / cell), not from lo, so that cells stay
    the floor(p / cell) cells when lo is no multiple of cell. Every index is an
    integer below the cell count, exact in float64.
    """

    def __init__(self, cell: float, start: np.ndarray, origin: np.ndarray, extent: np.ndarray):
        self.cell = cell
        self.origin = origin
        self.strides = np.append(np.cumprod(extent[:0:-1])[::-1], 1.0)
        self.seen = np.zeros(int(np.prod(extent)), dtype=bool)
        self.add(self.keys(start))

    def keys(self, points: np.ndarray) -> np.ndarray:
        return ((np.floor(points / self.cell) - self.origin) @ self.strides).astype(np.int64)

    def fresh(self, keys: np.ndarray) -> np.ndarray:
        return ~self.seen[keys]

    def add(self, new_keys: np.ndarray) -> None:
        self.seen[new_keys] = True


def _goal_index(level: np.ndarray, goal: np.ndarray, tol2: float) -> int:
    """Index of the first state within the goal tolerance, len(level) if none.

    The vectorised sum of squares only preselects, with a margin: a state is
    accepted by the scalar dot product gap @ gap, as in the one-state-at-a-time
    Dijkstra formulation. The two can round differently in the last bit (BLAS
    may fuse multiply and add), and a tie at the tolerance must go the same way.
    """
    gap = level - goal
    for k in np.flatnonzero(np.einsum("ij,ij->i", gap, gap) <= tol2 * (1.0 + 1e-9)):
        if float(gap[k] @ gap[k]) <= tol2:
            return int(k)
    return len(level)


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
    lo = np.array([float(c[0]) for c in box])
    hi = np.array([float(c[1]) for c in box])
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError("box bounds must not be NaN")
    if np.any(start < lo) or np.any(start > hi) or np.any(goal < lo) or np.any(goal > hi):
        raise ValueError("both endpoints must lie inside the bounding box")

    cell = resolution / 2.0
    tol2 = tol * tol
    signs = np.array([1.0, -1.0])[:, None] * resolution

    level = start[None, :]
    lattice = _cell_lattice(lo, hi, cell, 8.0 * s.n * max_nodes)
    visited = _SortedCells(cell, level) if lattice is None else _CellBitmap(cell, level, *lattice)
    cost = 0.0
    depth = 0
    popped = 0
    peak = 1
    while len(level):
        found = _goal_index(level, goal, tol2)
        if popped + found >= max_nodes:
            raise NoPathError(
                f"node budget {max_nodes} exhausted at cost {cost:.4g}; "
                "enlarge the box or refine the resolution"
            )
        if found < len(level):
            return CCResult(cost, popped + found + 1, depth, peak, time.perf_counter() - t0)
        popped += len(level)
        frame = frames(s, level)
        finite = np.isfinite(frame).all(axis=(1, 2))
        if not finite.all():
            bad = level[np.argmin(finite)].tolist()
            raise NumericalError(f"sigma has non-finite entries at state {bad}")
        # candidates in settle order: parent, then field i, then + before -
        cand = (level[:, None, None, :] + signs * frame[:, :, None, :]).reshape(-1, s.n)
        cand = cand[~((cand < lo) | (cand > hi)).any(axis=1)]
        keys = visited.keys(cand)
        fresh = visited.fresh(keys)
        new_keys, first = np.unique(keys[fresh], return_index=True)
        level = cand[fresh][np.sort(first)]
        visited.add(new_keys)
        cost = cost + resolution
        depth += 1
        peak = max(peak, len(level))
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
