"""Unit tests for the structure presets and frame operations."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _jacobi import eigh
from _oracles import group_mul
from carnotpde import (
    lipschitz_sigma_estimate,
    p_matrix_at,
    polynomial_field,
    preset,
    sigma_at,
    structure_from_json,
)
from carnotpde.errors import NumericalError
from carnotpde.structures import frames


class TestSigma:
    def test_heisenberg_at_origin(self):
        assert_allclose(sigma_at(preset("heisenberg1"), [0, 0, 0]), [[1, 0, 0], [0, 1, 0]])

    def test_heisenberg_at_point(self):
        assert_allclose(sigma_at(preset("heisenberg1"), [1, 2, 5]), [[1, 0, 4], [0, 1, -2]])

    def test_engel_at_origin(self):
        assert_allclose(
            sigma_at(preset("engel1"), [0, 0, 0, 0]), [[1, 0, 0, 0], [0, 1, 0, 0]]
        )

    def test_euclidean_identity(self):
        assert_allclose(sigma_at(preset("euclidean:2"), [0.3, -0.7]), np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sigma_at(preset("heisenberg1"), [0, 0])

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("nope")


class TestGram:
    def test_heisenberg_origin(self):
        assert_allclose(p_matrix_at(preset("heisenberg1"), [0, 0, 0]), np.diag([1.0, 1.0, 0.0]))

    def test_heisenberg_unit_point(self):
        expected = np.array([[1, 0, 0], [0, 1, -2], [0, -2, 4]], dtype=float)
        assert_allclose(p_matrix_at(preset("heisenberg1"), [1, 0, 0]), expected)

    def test_euclidean(self):
        assert_allclose(p_matrix_at(preset("euclidean:3"), [1, 2, 3]), np.eye(3))

    def test_gram_formula_closed_form(self):
        # P entries for the Heisenberg frame follow directly from sigma
        rng = np.random.default_rng(0)
        s = preset("heisenberg1")
        for _ in range(200):
            x = rng.uniform(-2, 2, size=3)
            expected = np.array(
                [
                    [1.0, 0.0, 2.0 * x[1]],
                    [0.0, 1.0, -2.0 * x[0]],
                    [2.0 * x[1], -2.0 * x[0], 4.0 * (x[0] ** 2 + x[1] ** 2)],
                ]
            )
            assert np.abs(p_matrix_at(s, x) - expected).max() <= 1e-13

    def test_psd_at_many_points(self):
        rng = np.random.default_rng(1)
        for name in ("heisenberg1", "engel1", "euclidean:3", "line2d", "grushin-like2d"):
            s = preset(name)
            pts = rng.uniform(-3, 3, size=(1_000_000, s.n))
            if name == "heisenberg1":
                mats = np.empty((pts.shape[0], 3, 3))
                mats[:, 0, 0] = 1.0
                mats[:, 0, 1] = mats[:, 1, 0] = 0.0
                mats[:, 0, 2] = mats[:, 2, 0] = 2.0 * pts[:, 1]
                mats[:, 1, 1] = 1.0
                mats[:, 1, 2] = mats[:, 2, 1] = -2.0 * pts[:, 0]
                mats[:, 2, 2] = 4.0 * (pts[:, 0] ** 2 + pts[:, 1] ** 2)
            elif name == "engel1":
                rows = np.zeros((pts.shape[0], 2, 4))
                rows[:, 0, 0] = 1.0
                rows[:, 0, 2] = -pts[:, 1]
                rows[:, 0, 3] = -pts[:, 2]
                rows[:, 1, 1] = 1.0
                mats = np.einsum("tmi,tmj->tij", rows, rows)
            else:
                sample = np.array([p_matrix_at(s, p) for p in pts[:64]])
                mats = None
                assert min(np.linalg.eigvalsh(m).min() for m in sample) >= -1e-10
            if mats is not None:
                assert np.linalg.eigvalsh(mats).min() >= -1e-10

    def test_heisenberg_eigenvalue_formula(self):
        rng = np.random.default_rng(2)
        s = preset("heisenberg1")
        for _ in range(200):
            x = rng.uniform(-2, 2, size=3)
            rho2 = x[0] ** 2 + x[1] ** 2
            expected = np.sort([0.0, 1.0, 1.0 + 4.0 * rho2])
            got = eigh(p_matrix_at(s, x)).eigenvalues
            assert np.abs(got - expected).max() <= 1e-10


class TestTrace:
    def test_heisenberg_formula_point(self):
        assert np.trace(p_matrix_at(preset("heisenberg1"), [1, 2, 7])) == pytest.approx(22.0, abs=1e-13)

    def test_heisenberg_center_line(self):
        for t in (-3.0, 0.0, 5.5):
            assert np.trace(p_matrix_at(preset("heisenberg1"), [0, 0, t])) == pytest.approx(2.0, abs=1e-14)

    def test_euclidean(self):
        assert np.trace(p_matrix_at(preset("euclidean:3"), [1, 1, 1])) == pytest.approx(3.0)

    def test_formula_residual_tiny(self):
        rng = np.random.default_rng(3)
        s = preset("heisenberg1")
        for _ in range(500):
            x = rng.uniform(-2, 2, size=3)
            formula = 2.0 + 4.0 * (x[0] ** 2 + x[1] ** 2)
            assert abs(np.trace(p_matrix_at(s, x)) - formula) <= 1e-13


class TestGroupLaw:
    def test_engel_identity(self):
        e = preset("engel1")
        y = np.array([0.3, -0.4, 0.5, 0.6])
        assert_allclose(group_mul(e, np.zeros(4), y), y)
        assert_allclose(group_mul(e, y, np.zeros(4)), y)

    def test_engel_product_by_substitution(self):
        out = group_mul(preset("engel1"), [0, 1, 0, 0], [1, 0, 0, 0])
        assert_allclose(out, [1.0, 1.0, -1.0, 0.5])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_engel_associativity(self, seed):
        e = preset("engel1")
        rng = np.random.default_rng(seed)
        x, y, z = rng.uniform(-2, 2, size=(3, 4))
        left = group_mul(e, group_mul(e, x, y), z)
        right = group_mul(e, x, group_mul(e, y, z))
        assert np.abs(left - right).max() <= 1e-12

    @pytest.mark.parametrize("name", ["euclidean:3", "heisenberg1", "engel1"])
    def test_law_matches_frame(self, name):
        # rows of sigma are the y-derivatives of the product at y = 0
        s = preset(name)
        rng = np.random.default_rng(4)
        step = 1e-6
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, size=s.n)
            frame = sigma_at(s, x)
            for i in range(s.m):
                ei = np.zeros(s.n)
                ei[i] = step
                fd = (group_mul(s, x, ei) - group_mul(s, x, -ei)) / (2 * step)
                assert np.abs(fd - frame[i]).max() <= 1e-7


class TestLipschitzEstimate:
    def test_euclidean_constant_frame(self):
        box = [(-1, 1), (-1, 1)]
        assert lipschitz_sigma_estimate(preset("euclidean:2"), box) == 0.0

    def test_heisenberg_box(self):
        est = lipschitz_sigma_estimate(preset("heisenberg1"), [(-1, 1)] * 3, samples=128)
        assert 2.0 - 1e-9 <= est <= 2.0 * np.sqrt(2.0) + 1e-9

    def test_engel_stability_under_more_samples(self):
        s = preset("engel1")
        box = [(-1, 1)] * 4
        small = lipschitz_sigma_estimate(s, box, samples=128, seed=1)
        large = lipschitz_sigma_estimate(s, box, samples=256, seed=1)
        assert small > 0.0
        assert abs(large - small) <= 0.1 * small

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            lipschitz_sigma_estimate(preset("euclidean:2"), [(-1, 1)] * 2, samples=1)

    @pytest.mark.parametrize(
        "name, box",
        [
            ("heisenberg1", [(-1, 1)] * 3),
            ("engel1", [(-1, 1)] * 4),
            ("euclidean:2", [(-1, 1)] * 2),
            # a flat axis repeats every corner, so pairs with zero gap occur
            ("grushin-like2d", [(-1, 1), (0, 0)]),
        ],
    )
    def test_matches_pair_loop(self, name, box):
        s = preset(name)
        for samples, seed in ((128, 0), (64, 5)):
            rng = np.random.default_rng(seed)
            lo = np.array([b[0] for b in box], dtype=float)
            hi = np.array([b[1] for b in box], dtype=float)
            pts = [lo + (hi - lo) * rng.random(s.n) for _ in range(samples)]
            for bits in range(2**s.n):
                pts.append(np.array([hi[k] if (bits >> k) & 1 else lo[k] for k in range(s.n)]))
            mats = [sigma_at(s, p) for p in pts]
            loop = 0.0
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    gap = float(np.linalg.norm(pts[i] - pts[j]))
                    if gap == 0.0:
                        continue
                    loop = max(loop, float(np.linalg.norm(mats[i] - mats[j])) / gap)
            est = lipschitz_sigma_estimate(s, box, samples=samples, seed=seed)
            assert est == pytest.approx(loop, rel=1e-12, abs=0.0)


class TestCustomStructure:
    def test_polynomial_entries(self):
        desc = {
            "name": "shear",
            "n": 2,
            "m": 1,
            "entries": [[[[1.0, 0, 0]], [[2.0, 1, 0]]]],
        }
        s = structure_from_json(desc)
        assert_allclose(sigma_at(s, [0.5, 0.0]), [[1.0, 1.0]])

    def test_rational_entries(self):
        # x1 / (1 + x1^2) in the first slot, like the planar rank-one preset
        desc = {
            "name": "ratio",
            "n": 2,
            "m": 1,
            "entries": [
                [
                    {"num": [[1.0, 1, 0]], "den": [[1.0, 0, 0], [1.0, 2, 0]]},
                    [[0.0, 0, 0]],
                ]
            ],
        }
        s = structure_from_json(desc)
        got = sigma_at(s, [2.0, 0.0])
        assert_allclose(got, [[2.0 / 5.0, 0.0]])
        ref = preset("grushin-like2d")
        for t in (-1.5, 0.0, 0.7):
            assert_allclose(sigma_at(s, [t, 0.0]), sigma_at(ref, [t, 0.0]), atol=1e-15)

    def test_vanishing_denominator_names_the_point(self):
        desc = {
            "n": 2,
            "m": 1,
            "entries": [[{"num": [[1.0, 0, 0]], "den": [[1.0, 1, 0], [-0.5, 0, 0]]}, [[0.0, 0, 0]]]],
        }
        s = structure_from_json(desc)
        with pytest.raises(NumericalError, match=r"x = \[0\.5, 0\.25\]"):
            sigma_at(s, [0.5, 0.25])

    def test_vanishing_denominator_inside_a_batch(self):
        desc = {
            "n": 2,
            "m": 1,
            "entries": [[{"num": [[1.0, 0, 0]], "den": [[1.0, 1, 0], [-0.5, 0, 0]]}, [[0.0, 0, 0]]]],
        }
        s = structure_from_json(desc)
        X = np.array([[0.0, 0.0], [0.25, 1.0], [0.5, -2.0], [0.5, 3.0]])
        with pytest.raises(NumericalError, match=r"x = \[0\.5, -2\.0\]"):
            frames(s, X)
        assert_allclose(frames(s, X[:2])[:, 0, 0], [-2.0, -4.0])

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            structure_from_json({"n": 2, "m": 2, "entries": [[[[1.0, 0, 0]]]]})

    @pytest.mark.parametrize(
        "entry", [[[1.0, 0.7, 0]], {"num": [[1.0, 0, 0]], "den": [[1.0, 0, 1.5]]}]
    )
    def test_fractional_exponent_rejected(self, entry):
        # int() would truncate x1^0.7 to x1^0 and evaluate the entry to 1
        with pytest.raises(ValueError, match="non-integral exponent"):
            structure_from_json({"n": 2, "m": 1, "entries": [[entry, [[0.0, 0, 0]]]]})


class TestPolynomialField:
    def test_fractional_exponent_rejected(self):
        # x1^1.5 is 2.83 at x1 = 2, not the 2.0 of a truncated x1^1
        with pytest.raises(ValueError, match="non-integral exponent"):
            polynomial_field([[1.0, 1.5, 0]], 2)

    def test_integral_float_exponent_accepted(self):
        X = np.array([[2.0, 3.0], [-1.0, 0.5]])
        as_float = polynomial_field([[1.0, 2.0, 1.0]], 2)
        as_int = polynomial_field([[1.0, 2, 1]], 2)
        assert np.array_equal(as_float.value(X), as_int.value(X))
        assert np.array_equal(as_float.hessian(X), as_int.hessian(X))


class TestBatchedFrames:
    JSON_STRUCTURE = {
        "name": "mixed",
        "n": 3,
        "m": 2,
        "entries": [
            [[[1.0, 0, 0, 0]], [[0.0, 0, 0, 0]], [[2.0, 0, 1, 0], [-1.0, 1, 0, 2]]],
            [
                [[0.0, 0, 0, 0]],
                {"num": [[1.0, 1, 0, 0]], "den": [[1.0, 0, 0, 0], [1.0, 2, 0, 0]]},
                {"num": [[3.0, 0, 0, 1], [1.0, 0, 0, 0]], "den": [[2.0, 0, 0, 0], [1.0, 0, 2, 0]]},
            ],
        ],
    }

    @pytest.mark.parametrize(
        "name",
        ["heisenberg1", "engel1", "euclidean:1", "euclidean:3", "line2d", "grushin-like2d", "json"],
    )
    def test_batch_equals_stacked_rows(self, name):
        s = structure_from_json(self.JSON_STRUCTURE) if name == "json" else preset(name)
        X = np.random.default_rng(11).uniform(-2.0, 2.0, size=(50, s.n))
        batch = frames(s, X)
        assert batch.shape == (50, s.m, s.n)
        assert np.array_equal(batch, np.stack([sigma_at(s, x) for x in X]))

    def test_json_entries_match_their_formulas(self):
        s = structure_from_json(self.JSON_STRUCTURE)
        x1, x2, x3 = 0.5, -1.5, 2.0
        want = [
            [1.0, 0.0, 2.0 * x2 - x1 * x3**2],
            [0.0, x1 / (1.0 + x1**2), (3.0 * x3 + 1.0) / (2.0 + x2**2)],
        ]
        assert_allclose(sigma_at(s, [x1, x2, x3]), want, rtol=1e-15)

    def test_wrong_shape_rejected(self):
        # a frame written for one point returns one (m, n) matrix for the batch
        s = replace(preset("heisenberg1"), sigma=lambda x: np.eye(3)[:2])
        with pytest.raises(ValueError, match="returned shape"):
            frames(s, np.zeros((4, 3)))
        with pytest.raises(ValueError, match="returned shape"):
            sigma_at(s, [0.0, 0.0, 0.0])
