"""Unit tests for grids, grid functions and interpolation."""

import csv

import numpy as np
import pytest
from numpy.testing import assert_allclose

from carnotpde import Grid, GridFunction, from_callable, interpolate, to_csv, value_at


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
        assert_allclose(g.node_coords(4), [0.5, 0.5])


class TestInterpolation:
    def test_exact_on_nodes(self):
        g = Grid((0.0, 0.0), (1.0, 1.0), (5, 5))
        u = from_callable(g, lambda X: X[:, 0] + 10 * X[:, 1])
        for idx in (0, 7, 24):
            assert value_at(u, g.node_coords(idx)) == pytest.approx(float(u.flat[idx]), abs=1e-14)

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

    def test_bytes_match_csv_writer(self, tmp_path, monkeypatch):
        # the reference is the csv.writer dump of repr(float(.)) per entry;
        # blocks of 4 rows put block boundaries inside the 9-row grid
        monkeypatch.setattr("carnotpde.grids._CSV_BLOCK_ROWS", 4)
        g = Grid((-1.0, -1.0), (1.0, 1.0), (3, 3))
        values = np.array([-0.0, 0.1, 1e-05, 1e16, np.nan, -2.5, 1.0 / 3.0, 7.0, -1e-300])
        u = GridFunction(g, values)
        path = tmp_path / "dump.csv"
        to_csv(u, path)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2", "value"])
            for p, v in zip(g.coords(), values):
                writer.writerow([repr(float(c)) for c in p] + [repr(float(v))])
        assert path.read_bytes() == ref.read_bytes()

    def test_shape_mismatch(self):
        g = Grid((0.0,), (1.0,), (5,))
        with pytest.raises(ValueError):
            GridFunction(g, np.zeros(4))
