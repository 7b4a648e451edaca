"""Uniform box grids and grid functions.

The spacing is the same on every axis (validated at construction). Values are
stored in C order on the full node set, boundary included; helpers provide
flat indexing, boundary masks, multilinear interpolation weights and CSV
dumps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import field_values


@dataclass(frozen=True)
class Grid:
    lo: tuple
    hi: tuple
    shape: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        shape = tuple(int(v) for v in self.shape)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", shape)
        if not (len(lo) == len(hi) == len(shape)):
            raise ValueError("lo, hi and shape must agree in length")
        if any(s < 3 for s in shape):
            raise ValueError("need at least 3 nodes per axis")
        if not all(map(np.isfinite, lo + hi)):
            raise ValueError("box bounds must be finite")
        if any(h <= l for l, h in zip(lo, hi)):
            raise ValueError("box must have positive extent on every axis")
        steps = [(h - l) / (s - 1) for l, h, s in zip(lo, hi, shape)]
        if max(steps) - min(steps) > 1e-12 * max(steps):
            raise ValueError(f"spacing must be uniform across axes, got {steps}")
        object.__setattr__(self, "_h", steps[0])

    @property
    def n(self) -> int:
        return len(self.shape)

    @property
    def h(self) -> float:
        return self._h

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

    def axis_coords(self, k: int) -> np.ndarray:
        return self.lo[k] + self.h * np.arange(self.shape[k])

    def coords(self) -> np.ndarray:
        """All node coordinates, shape (num_nodes, n), C order."""
        axes = [self.axis_coords(k) for k in range(self.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        for k in range(self.n):
            sl = [slice(None)] * self.n
            sl[k] = 0
            mask[tuple(sl)] = True
            sl[k] = self.shape[k] - 1
            mask[tuple(sl)] = True
        return mask.ravel()

    def interior_indices(self) -> np.ndarray:
        return np.nonzero(~self.boundary_mask())[0]


@dataclass
class GridFunction:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            if self.values.size == self.grid.num_nodes:
                self.values = self.values.reshape(self.grid.shape)
            else:
                raise ValueError(
                    f"values shape {self.values.shape} does not match grid {self.grid.shape}"
                )

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel()


def from_callable(grid: Grid, fn: Callable[[np.ndarray], np.ndarray]) -> GridFunction:
    """The grid function of fn, called once on the (num_nodes, n) node coordinates."""
    return GridFunction(grid, field_values(fn, grid.coords(), "fn").reshape(grid.shape))


def multilinear_weights(grid: Grid, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interpolation stencil for points inside the closed box.

    Takes axis-major (n, K) points, one row per coordinate axis, and returns
    corner-major C-contiguous (idx, w) of shape (2^k, K): flat corner indices
    and nonnegative weights summing to one over each column. Every pass runs
    over one axis or one corner, K contiguous values. Fractional offsets
    within 1e-9 of a node snap onto it so on-grid evaluation stays exact. An
    axis is pinned when every point sits on one of its node planes (each
    offset 0 or 1); a pinned axis takes the point's own node, whose weight
    factor is exactly 1, so corners are formed only over the k axes some
    point moves along. The corners of weight 0 that a pinned axis would add
    are never formed, and every kept corner has the weight the full 2^n
    stencil gives it. A point outside the box, or with a non-finite
    coordinate, raises ValueError.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != grid.n:
        raise ValueError(f"expected axis-major ({grid.n}, K) points, got shape {pts.shape}")
    eps = 1e-9 * grid.h
    flat = np.zeros(pts.shape[1], dtype=np.int64)
    stride = grid.num_nodes
    moving = []
    for x, lo, hi, size in zip(pts, grid.lo, grid.hi, grid.shape):
        if not ((lo - eps <= x) & (x <= hi + eps)).all():  # NaN fails both
            raise ValueError("interpolation point outside the grid box")
        stride //= size
        frac = x - lo
        frac /= grid.h
        base = frac.astype(np.int64)  # frac >= -1e-9: truncation is floor once clipped
        np.clip(base, 0, size - 2, out=base)
        frac -= base
        lower = frac < 1e-9  # the snap also clips the offset to [0, 1]
        upper = frac > 1.0 - 1e-9
        np.putmask(frac, lower, 0.0)
        np.putmask(frac, upper, 1.0)
        if (upper | lower).all():
            base += upper  # pinned: every point takes its own node
        else:
            moving.append((stride, frac))
        flat += base * stride
    idx = np.empty((2 ** len(moving), pts.shape[1]), dtype=np.int64)
    w = np.empty(idx.shape)
    idx[0] = flat
    w[0] = 1.0
    # corner c has bit j set when it takes the upper node on the j-th moving
    # axis; doubling axis by axis multiplies each corner's factors in axis order
    for j, (stride, f) in enumerate(moving):
        half = 2**j
        np.add(idx[:half], stride, out=idx[half : 2 * half])
        np.multiply(w[:half], f, out=w[half : 2 * half])
        w[:half] *= 1.0 - f
    return idx, w


def to_csv(gf: GridFunction, path) -> None:
    """One row per node: coordinates then value; header x1..xn,value.

    The bytes are those of csv.writer's default dialect (comma separated,
    CRLF line ends) over repr of each float, the shortest text that reads
    back to the same value. A coordinate takes one of shape[k] values, so
    each axis value is formatted once; the file is written one line of the
    last axis at a time, which keeps memory bounded.
    """
    grid = gf.grid
    texts = [[repr(x) + "," for x in grid.axis_coords(k).tolist()] for k in range(grid.n)]
    last = texts[-1]
    lines = gf.values.reshape(-1, grid.shape[-1])
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"x{k + 1}" for k in range(grid.n)] + ["value"]) + "\r\n")
        for lead, line in zip(map("".join, itertools.product(*texts[:-1])), lines):
            fh.write("".join([lead + x + repr(v) + "\r\n" for x, v in zip(last, line.tolist())]))
