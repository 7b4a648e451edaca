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
half-step lattice. The visited set (_CellStamps) settles a level's (n, N)
candidates and returns the indices of those that reach a cell first, in
candidate order, with no sort.
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


MAX_LATTICE_CELLS = 2**24
"""Most cells of a lattice of stamps: 4 bytes each, 64 MiB in all."""

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # 2**64 / golden ratio: Fibonacci hashing


class _CellStamps:
    """Visited set of the cells floor(p / cell): int32 stamps on a lattice, or a hash table.

    The lattice holds the cells first..last on each axis, and a cell's index
    (floor(p / cell) - first) @ strides is exact in float64. It starts on the
    cells the box shares with near (default_box). An in-box candidate past it
    grows it along that axis by at least half its extent on that side, clipped
    to the box; axes that span the box skip that test. It keeps a stamp per
    cell, SETTLED or FREE between levels, and a settled extra cell `cells` for
    candidates outside the box, while it has at most dense_cells cells:
    MAX_LATTICE_CELLS, or the 2 * n * max_nodes stamps that take the bytes of
    max_nodes states' floors if fewer. Past that the set keeps the settled
    floors in rows and their row numbers in a table at most half full, probed
    linearly from a hash of the floors: its memory follows the states settled,
    not the box, as in four dimensions or on huge boxes.
    """

    SETTLED = -1
    FREE = np.iinfo(np.int32).max
    EMPTY = -1
    CLAIM = np.iinfo(np.int32).min  # plus a position: a claim on a free slot, below every row
    SLOTS = 2**16  # fewest slots of a table

    def __init__(self, cell: float, lo: np.ndarray, hi: np.ndarray, start: np.ndarray,
                 near: Sequence[Sequence[float]], max_nodes: int):
        self.cell, self.lo, self.hi = cell, lo, hi
        self.dense_cells = min(MAX_LATTICE_CELLS, 2 * len(lo) * max_nodes)
        with np.errstate(over="ignore"):  # bounds near 1e308 reach past every cell, as inf does
            self.box_first = np.floor(lo / cell)
            self.box_last = np.floor(hi / cell)
        near_lo, near_hi = np.array(near).T
        self.stamp = self.table = None
        first = np.floor(np.maximum(lo, near_lo) / cell)
        self._span(first, np.floor(np.minimum(hi, near_hi) / cell), np.empty((len(lo), 0)))
        self.settle(start)

    def _span(self, first: np.ndarray, last: np.ndarray, floors: np.ndarray) -> None:
        """Lay the lattice on the cells first..last with the (n, S) settled floors, or hash them."""
        extent = last - first + 1.0
        self.stamp = None
        if np.prod(extent) > self.dense_cells:
            self.rows = np.empty((len(first), 0))
            self.count = 0
            self._append(floors)
            self._rehash(0)
            return
        self.first = first
        self.last = last
        self.extent = extent
        self.cells = int(np.prod(extent))
        self.strides = np.append(np.cumprod(extent[:0:-1])[::-1], 1.0)
        self.open = ((first > self.box_first) | (last < self.box_last)).tolist()
        keys = np.zeros(floors.shape[1])
        for row, first_, stride in zip(floors, first, self.strides):
            keys += (row - first_) * stride
        self.stamp = np.full(self.cells + 1, self.FREE, dtype=np.int32)
        self.stamp[keys.astype(np.intp)] = self.SETTLED
        self.stamp[-1] = self.SETTLED

    def _grow(self, points: np.ndarray) -> None:
        """Grow the lattice over the cells of the (n, K) in-box points."""
        at = np.floor(points / self.cell)
        half = np.ceil(self.extent / 2.0)
        low, high = at.min(axis=1), at.max(axis=1)
        first = np.where(low < self.first, np.minimum(low, self.first - half), self.first)
        last = np.where(high > self.last, np.maximum(high, self.last + half), self.last)
        index = np.flatnonzero(self.stamp[:-1] == self.SETTLED)
        floors = np.array(
            [f + index // int(s) % int(e) for f, s, e in zip(self.first, self.strides, self.extent)]
        )
        self._span(np.maximum(first, self.box_first), np.minimum(last, self.box_last), floors)

    def _keys(self, cand: np.ndarray) -> np.ndarray | None:
        """Cell index of each column of cand, `cells` outside the box; grows the lattice first.

        None when the lattice grows past dense_cells and the set turns to its table.
        """
        # one contiguous row of cand per axis: key and box test in 1-D passes,
        # the key's (floor(col / cell) - first) * stride formed in place
        keys, outside = np.zeros(cand.shape[1]), np.zeros(cand.shape[1], dtype=bool)
        past = np.zeros(cand.shape[1], dtype=bool) if any(self.open) else None
        term = np.empty(cand.shape[1])
        for col, lo, hi, first, extent, stride, open_ in zip(
            cand, self.lo, self.hi, self.first, self.extent, self.strides, self.open
        ):
            np.floor(np.divide(col, self.cell, out=term), out=term)
            term -= first
            if open_:
                past |= (term < 0.0) | (term >= extent)
            term *= stride
            keys += term
            outside |= (col < lo) | (col > hi)
        if past is not None:
            past &= ~outside
            if past.any():
                self._grow(cand[:, past])
                return None if self.stamp is None else self._keys(cand)
        return np.where(outside, self.cells, keys.astype(np.intp))

    def settle(self, cand: np.ndarray) -> np.ndarray:
        keys = None if self.stamp is None else self._keys(cand)
        if keys is None:
            inbox = ~((cand < self.lo[:, None]) | (cand > self.hi[:, None])).any(axis=0)
            return self._probe(np.floor(cand / self.cell) + 0.0, np.flatnonzero(inbox))
        order = np.arange(len(keys), dtype=np.int32)
        # each fresh cell takes its first candidate's position; a settled
        # cell's SETTLED is below every position, so it stays and matches none
        np.minimum.at(self.stamp, keys, order)
        first = np.flatnonzero(self.stamp[keys] == order)
        self.stamp[keys[first]] = self.SETTLED  # every fresh cell has one first candidate
        return first

    def _rehash(self, room: int) -> None:
        """Lay a table over the settled rows, at most half full and with room more slots free."""
        size = self.SLOTS if self.table is None else len(self.table)
        while size < 2 * self.count or size <= self.count + room:
            size *= 2
        self.table = None
        self.table = np.full(size, self.EMPTY, dtype=np.int32)
        for k in range(0, self.count, 2**18):  # in parts, to bound the probe's scratch
            rows = np.arange(k, min(k + 2**18, self.count))
            self._probe(self.rows[:, rows], rows, settled=True)

    def _append(self, floors: np.ndarray) -> np.ndarray:
        """Row numbers of the (n, K) floors, added after the settled rows."""
        count = self.count + floors.shape[1]
        if count > self.rows.shape[1]:  # grow the rows by half
            grown = np.empty((len(self.rows), count + count // 2))
            grown[:, : self.count] = self.rows[:, : self.count]
            self.rows = grown
        self.rows[:, self.count : count] = floors
        rows = np.arange(self.count, count, dtype=np.int32)
        self.count = count
        return rows

    def _probe(self, floors: np.ndarray, at: np.ndarray, settled: bool = False) -> np.ndarray:
        """Positions among `at` (ascending) whose column of floors is the first of a fresh cell.

        Columns of one cell start on one slot and step together, so they meet
        at the first free slot or at their cell's row; a free slot takes the
        least position among the columns on it, the least CLAIM written there.
        Settled columns are rows already, numbered `at`, which _rehash lays.
        """
        # every column may take a slot, so each probe path ends at a free one
        full = 2 * self.count > len(self.table) or self.count + len(at) >= len(self.table)
        if full and not settled:
            self._rehash(len(at))
        fresh = np.zeros(floors.shape[1], dtype=bool)
        floors = floors[:, at] if not settled else floors
        slot = np.zeros(len(at), dtype=np.uint64)
        for row in floors:  # a float's low bits are mostly zero: fold the high half down
            slot ^= row.view(np.uint64)
            slot ^= slot >> np.uint64(32)
            slot *= _GOLDEN
        slot = (slot >> np.uint64(65 - len(self.table).bit_length())).astype(np.intp)
        while len(at):
            held = self.table[slot]
            free = np.flatnonzero(held == self.EMPTY)
            if len(free):
                claim = (at[free] + self.CLAIM).astype(np.int32)
                np.minimum.at(self.table, slot[free], claim)
                won = free[self.table[slot[free]] == claim]
                if settled:
                    self.table[slot[won]] = at[won]
                else:
                    self.table[slot[won]] = self._append(floors[:, won])
                    fresh[at[won]] = True
                held[free] = self.table[slot[free]]
            on = np.zeros(len(at), dtype=bool)
            for mine, theirs in zip(floors, self.rows):
                on |= theirs[held] != mine
            at, floors, slot = at[on], floors[:, on], (slot[on] + 1) & (len(self.table) - 1)
        return np.flatnonzero(fresh)


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
    which signals a box too small or a resolution too coarse; and
    NumericalError when the frame is not finite at an expanded state.
    max_nodes must keep 2 * m * max_nodes below 2**31, the range of the int32
    positions the visited set compares.
    """
    t0 = time.perf_counter()
    if not 0.0 < resolution < np.inf:
        raise ValueError("resolution must be positive and finite")
    if 2 * s.m * max_nodes >= 2**31:
        # a stamp holds a candidate's position, below 2 * m * max_nodes in a level
        raise ValueError(f"max_nodes must be below 2**31 / (2 m) = {2**31 // (2 * s.m)}")
    start = as_point(a, s.n)
    goal = as_point(b, s.n)
    tol = resolution / 2.0 if goal_tol is None else float(goal_tol)
    if not 0.0 <= tol < np.inf:
        raise ValueError("goal_tol must be nonnegative and finite")
    if float(np.linalg.norm(start - goal)) <= tol:
        return CCResult(0.0, 0, 0, 0, time.perf_counter() - t0)
    near = default_box(start, goal)
    if box is None:
        box = near
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
    visited = _CellStamps(cell, lo, hi, level, near, max_nodes)
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
