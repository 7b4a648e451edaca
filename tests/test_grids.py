"""Unit tests for grids, grid functions and interpolation."""

import csv
import itertools
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import _ref_multilinear_weights, interpolate
from carnotpde import Grid, GridFunction, from_callable, to_csv
from carnotpde.grids import multilinear_weights


def _csv_writer_dump(path, grid, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{k + 1}" for k in range(grid.n)] + ["value"])
        for p, v in zip(grid.coords(), np.ravel(values)):
            writer.writerow([repr(float(c)) for c in p] + [repr(float(v))])


class TestGrid:
    def test_spacing(self):
        g = Grid((0.0,), (1.0,), (5,))
        assert g.h == pytest.approx(0.25)
        assert_allclose(g.axis_coords(0), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_uniformity_enforced(self):
        with pytest.raises(ValueError):
            Grid((0.0, 0.0), (1.0, 2.0), (5, 5))

    def test_minimum_shape(self):
        with pytest.raises(ValueError):
            Grid((0.0,), (1.0,), (2,))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="agree in length"):
            Grid((0.0, 0.0), (1.0, 1.0), (5,))

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError, match="positive extent"):
            Grid((0.0, 1.0), (1.0, 1.0), (5, 5))

    @pytest.mark.parametrize(
        "lo, hi, shape",
        [
            ((np.nan,), (1.0,), (3,)),
            ((0.0,), (np.inf,), (3,)),
            ((-np.inf,), (0.0,), (3,)),
            ((0.0, 0.0), (1.0, np.nan), (3, 3)),
        ],
    )
    def test_non_finite_bounds_rejected(self, lo, hi, shape):
        # NaN fails every comparison and an infinite extent gives h = inf, so
        # the extent and uniformity checks alone let these through
        with pytest.raises(ValueError, match="finite"):
            Grid(lo, hi, shape)

    def test_boundary_mask(self):
        g = Grid((0.0, 0.0), (1.0, 1.0), (3, 3))
        mask = g.boundary_mask().reshape(3, 3)
        assert mask.sum() == 8
        assert not mask[1, 1]
        assert g.interior_indices().tolist() == [4]

    def test_coords_order(self):
        g = Grid((0.0, 0.0), (1.0, 1.0), (3, 3))
        pts = g.coords()
        assert_allclose(pts[0], [0.0, 0.0])
        assert_allclose(pts[1], [0.0, 0.5])
        assert_allclose(pts[3], [0.5, 0.0])
        assert_allclose(pts[4], [0.5, 0.5])


class TestInterpolation:
    def test_exact_on_nodes(self):
        g = Grid((0.0, 0.0), (1.0, 1.0), (5, 5))
        u = from_callable(g, lambda X: X[:, 0] + 10 * X[:, 1])
        for idx in (0, 7, 24):
            p = g.coords()[idx]
            assert interpolate(u, p[None])[0] == pytest.approx(float(u.flat[idx]), abs=1e-14)

    def test_exact_on_multilinear(self):
        g = Grid((0.0, 0.0), (1.0, 1.0), (5, 5))
        u = from_callable(g, lambda X: 2.0 + 3.0 * X[:, 0] - X[:, 1] + 0.5 * X[:, 0] * X[:, 1])
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, size=(50, 2))
        got = interpolate(u, pts)
        want = 2.0 + 3.0 * pts[:, 0] - pts[:, 1] + 0.5 * pts[:, 0] * pts[:, 1]
        assert np.abs(got - want).max() <= 1e-12

    def test_outside_box_rejected(self):
        g = Grid((0.0,), (1.0,), (5,))
        u = from_callable(g, lambda X: X[:, 0])
        with pytest.raises(ValueError):
            interpolate(u, np.array([[1.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_point_rejected(self, bad, axis):
        g = Grid((0.0, 0.0), (1.0, 1.0), (5, 5))
        pts = np.array([[0.5, 0.3], [0.2, 0.7]]).T
        pts[axis, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="outside the grid box"):
                multilinear_weights(g, pts)

    def test_row_major_points_rejected(self):
        g = Grid((0.0, 0.0), (1.0, 1.0), (5, 5))
        with pytest.raises(ValueError, match="axis-major"):
            multilinear_weights(g, np.full((3, 2), 0.5))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_weights_bitwise_equal_to_per_corner_loop(self, n):
        g = Grid((-0.3,) * n, (0.9,) * n, (5,) * n)
        rng = np.random.default_rng(n)
        nodes = g.coords()
        near = nodes[rng.integers(0, g.num_nodes, 40)]
        snapped = near + rng.uniform(-1e-10, 1e-10, near.shape) * g.h  # within the 1e-9 snap
        unsnapped = near + rng.choice([-1e-8, 1e-8], near.shape) * g.h  # just outside it
        faces = rng.uniform(-0.3, 0.9, (40, n))
        faces[np.arange(40), rng.integers(0, n, 40)] = rng.choice([-0.3, 0.9], 40)
        corners = np.array([g.lo, g.hi])  # base clipped to shape - 2 at hi
        inside = rng.uniform(-0.3, 0.9, (200, n))
        pts = np.clip(np.vstack([nodes, snapped, unsnapped, faces, corners, inside]), -0.3, 0.9)
        idx, w = multilinear_weights(g, pts.T)
        ref_idx, ref_w = _ref_multilinear_weights(g, pts.T)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(w, ref_w)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pinned_axes_form_no_corners(self, n):
        # on every subset of axes the points sit on node planes: exactly on a
        # node, within the snap below one (offset 1) or above it (offset 0),
        # or on the last node, where base is clipped to shape - 2
        g = Grid((-0.3,) * n, (0.9,) * n, (5,) * n)
        rng = np.random.default_rng(10 + n)
        for pinned in itertools.product([False, True], repeat=n):
            pinned = np.array(pinned)
            pts = rng.uniform(-0.3, 0.9, (60, n))
            nodes = g.axis_coords(0)[rng.integers(0, 5, (60, n))]
            nodes[:5] = 0.9
            jitter = rng.choice([0.0, -1e-10, 1e-10], (60, n)) * g.h
            pts[:, pinned] = np.clip(nodes + jitter, -0.3, 0.9)[:, pinned]
            idx, w = multilinear_weights(g, pts.T)
            ref_idx, ref_w = _ref_multilinear_weights(g, pts.T)
            assert idx.shape == w.shape == (2 ** int((~pinned).sum()), 60)
            assert idx.flags.c_contiguous and w.flags.c_contiguous
            for k in range(60):
                ref = dict(zip(ref_idx[:, k].tolist(), ref_w[:, k].tolist()))
                kept = dict(zip(idx[:, k].tolist(), w[:, k].tolist()))
                assert len(kept) == idx.shape[0]
                assert all(ref[i] == v for i, v in kept.items())  # bitwise
                assert all(v == 0.0 for i, v in ref.items() if i not in kept)

    def test_closed_box_edges_ok(self):
        g = Grid((0.0,), (1.0,), (5,))
        u = from_callable(g, lambda X: X[:, 0])
        assert interpolate(u, np.array([[1.0]]))[0] == pytest.approx(1.0)


class TestCsv:
    def test_roundtrip_values(self, tmp_path):
        g = Grid((0.0, 0.0), (1.0, 1.0), (3, 3))
        u = from_callable(g, lambda X: X[:, 0] * 2 + X[:, 1])
        path = tmp_path / "dump.csv"
        to_csv(u, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "x1,x2,value"
        assert len(rows) == 10
        first = [float(v) for v in rows[1].split(",")]
        assert first == [0.0, 0.0, 0.0]

    def test_bytes_match_csv_writer(self, tmp_path):
        # the reference is the csv.writer dump of repr(float(.)) per entry, on
        # a 1-D grid, an off-origin box with non-dyadic spacing and a 4-D grid
        grids = [
            Grid((-1.0, -1.0), (1.0, 1.0), (3, 3)),
            Grid((0.0,), (1.0,), (11,)),
            Grid((-0.3,) * 3, (0.9,) * 3, (13,) * 3),
            Grid((-1.0,) * 4, (1.0,) * 4, (3,) * 4),
        ]
        for g in grids:
            values = np.random.default_rng(g.n).standard_normal(g.num_nodes)
            values[:9] = [-0.0, 0.1, 1e-05, 1e16, np.nan, -2.5, 1.0 / 3.0, 7.0, -1e-300]
            path = tmp_path / "dump.csv"
            to_csv(GridFunction(g, values), path)
            ref = tmp_path / "ref.csv"
            _csv_writer_dump(ref, g, values)
            assert path.read_bytes() == ref.read_bytes(), g.shape

    def test_shape_mismatch(self):
        g = Grid((0.0,), (1.0,), (5,))
        with pytest.raises(ValueError):
            GridFunction(g, np.zeros(4))
