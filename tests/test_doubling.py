"""Unit tests for the doubled-variable calculus and the constant machinery."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _jacobi import eigh
from carnotpde import (
    ConstantBundle,
    growth_condition_margin,
    holder_constant_bound,
    phi_hessian_block,
    phi_hessian_square,
    preset,
    sigma_at,
    structure_from_json,
    sums_trace_bound,
    touching_pair,
)
from carnotpde import doubling
from carnotpde.doubling import finite_difference_hessian, growth_verdict, phi_value
from carnotpde.errors import InadmissibleExponentError, SingularPointError


def bundle(**overrides):
    base = dict(c0=1.0, Lambda=1.0, C=1.0, L_c=0.0, beta=1.0, L_f=0.0, beta_prime=1.0, u_inf=1.0)
    base.update(overrides)
    return ConstantBundle(**base)


class TestPhiHessian:
    def test_scalar_case(self):
        # n = 1, L = 1, alpha = 1/2, separation 1: the lone entry is
        # (1/2)((alpha - 2) + 1) = -1/4
        m, block = phi_hessian_block([1.0], [0.0], 1.0, 0.5)
        assert_allclose(m, [[-0.25]])
        assert_allclose(block, [[-0.25, 0.25], [0.25, -0.25]])

    def test_planar_case(self):
        m, _ = phi_hessian_block([1.0, 0.0], [0.0, 0.0], 1.0, 0.5)
        assert_allclose(m, [[-0.25, 0.0], [0.0, 0.5]], atol=1e-15)

    def test_alpha_two_collapses_direction_term(self):
        m, _ = phi_hessian_block([0.7, -0.3], [0.1, 0.4], 3.0, 2.0)
        assert_allclose(m, 6.0 * np.eye(2), atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for n in (1, 2, 3):
            for _ in range(25):
                x = rng.uniform(-2, 2, size=n)
                y = rng.uniform(-2, 2, size=n)
                if np.linalg.norm(x - y) < 0.5:
                    y = x + np.full(n, 0.8 / np.sqrt(n))
                level = float(rng.uniform(0.5, 3.0))
                alpha = float(rng.uniform(0.1, 1.0))
                _, block = phi_hessian_block(x, y, level, alpha)
                fd = finite_difference_hessian(
                    lambda z: phi_value(z[:n], z[n:], level, alpha), np.concatenate([x, y])
                )
                scale = max(1.0, np.abs(block).max(), phi_value(x, y, level, alpha))
                assert np.abs(block - fd).max() <= 1e-5 * scale

    def test_coincident_points_rejected(self):
        with pytest.raises(SingularPointError):
            phi_hessian_block([1.0, 2.0], [1.0, 2.0], 1.0, 0.5)


class TestPhiHessianSquare:
    def test_factor_identity(self):
        # (alpha-2)^2 + 2(alpha-2) == alpha (alpha-2)
        for alpha in np.linspace(0.1, 1.0, 10):
            lhs = (alpha - 2.0) ** 2 + 2.0 * (alpha - 2.0)
            assert lhs == pytest.approx(alpha * (alpha - 2.0), abs=1e-14)

    def test_scalar_value(self):
        m2 = phi_hessian_square([1.0], [0.0], 1.0, 0.5)
        assert_allclose(m2, [[0.0625]])
        m, _ = phi_hessian_block([1.0], [0.0], 1.0, 0.5)
        assert float(m[0, 0]) ** 2 == pytest.approx(0.0625)

    def test_equals_matrix_product(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4):
            for _ in range(25):
                x = rng.uniform(-2, 2, size=n)
                y = rng.uniform(-2, 2, size=n)
                if np.linalg.norm(x - y) < 1e-3:
                    continue
                level = float(rng.uniform(0.5, 3.0))
                alpha = float(rng.uniform(0.1, 1.0))
                m, _ = phi_hessian_block(x, y, level, alpha)
                m2 = phi_hessian_square(x, y, level, alpha)
                assert np.abs(m2 - m @ m).max() <= 1e-12 * max(1.0, np.abs(m2).max())

    def test_radial_eigenvalue(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            x = rng.uniform(-2, 2, size=n)
            y = x + rng.uniform(0.5, 1.5) * _unit(rng, n)
            level = float(rng.uniform(0.5, 3.0))
            alpha = float(rng.uniform(0.1, 0.999))
            r = float(np.linalg.norm(x - y))
            m, _ = phi_hessian_block(x, y, level, alpha)
            evals = eigh(m).eigenvalues
            radial = level * alpha * (alpha - 1.0) * r ** (alpha - 2.0)
            tangential = level * alpha * r ** (alpha - 2.0)
            assert abs(float(evals[0]) - radial) <= 1e-9 * max(1.0, abs(radial))
            assert float(evals[0]) < 0.0
            if n > 1:
                assert np.abs(evals[1:] - tangential).max() <= 1e-9 * max(1.0, tangential)


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


class TestTouchingPair:
    def test_block_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            x = rng.uniform(-1, 1, size=n)
            y = x + rng.uniform(0.3, 1.5) * _unit(rng, n)
            level = float(rng.uniform(0.5, 3.0))
            alpha = float(rng.uniform(0.1, 1.0))
            eta = 1.1
            a, b, mu = touching_pair(x, y, level, alpha, eta)
            assert_allclose(b, -a)
            r = float(np.linalg.norm(x - y))
            theta = level * alpha * r ** (alpha - 2.0)
            assert mu == pytest.approx(2.0 * theta / (eta - 1.0))
            # ordering consequence of the block inequality
            top = eigh(a - b).eigenvalues[-1]
            assert top <= 1e-12
            assert top <= 2.0 * eta * theta * (1.0 + 1e-12)
            # the full 2n x 2n block inequality against eta theta [[I,-I],[-I,I]]
            eye = np.eye(n)
            block_cap = eta * theta * np.block([[eye, -eye], [-eye, eye]])
            block_pair = np.block([[a, np.zeros((n, n))], [np.zeros((n, n)), -b]])
            gap = eigh(block_cap - block_pair).eigenvalues[0]
            assert gap >= -1e-9 * max(1.0, theta)


class TestSumsTraceBound:
    def test_equal_frames_and_matrices(self):
        s = sigma_at(preset("heisenberg1"), [0.5, -0.2, 1.0])
        a = np.diag([1.0, 2.0, 3.0])
        lhs, rhs = sums_trace_bound(s, s, a, a, 1.0, 0.5, 1.0, 1.1)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_touching_pairs_on_heisenberg(self):
        rng = np.random.default_rng(14)
        heis = preset("heisenberg1")
        eta = 1.1
        for _ in range(300):
            x = rng.uniform(-1.5, 1.5, size=3)
            y = x + rng.uniform(0.2, 1.0) * _unit(rng, 3)
            level = float(rng.uniform(0.5, 3.0))
            alpha = float(rng.uniform(0.1, 1.0))
            r = float(np.linalg.norm(x - y))
            a, b, _ = touching_pair(x, y, level, alpha, eta)
            # shrinking the pair keeps the block inequality valid
            p1 = rng.normal(size=(3, 3))
            p2 = rng.normal(size=(3, 3))
            a = a - 0.1 * p1 @ p1.T
            b = b + 0.1 * p2 @ p2.T
            lhs, rhs = sums_trace_bound(
                sigma_at(heis, x), sigma_at(heis, y), a, b, level, alpha, r, eta
            )
            assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))

    def test_constant_frame_forces_nonpositive_left_side(self):
        rng = np.random.default_rng(15)
        eye = np.eye(2)
        for _ in range(100):
            a = rng.normal(size=(2, 2))
            a = (a + a.T) / 2.0
            c = rng.normal(size=(2, 2))
            b = a + c.T @ c  # a <= b
            lhs, rhs = sums_trace_bound(eye, eye, a, b, 1.0, 0.5, 1.0, 1.1)
            assert rhs == 0.0
            assert lhs <= 1e-12


class TestHolderConstantBound:
    def test_no_data_means_zero(self):
        assert holder_constant_bound(bundle(), 0.5) == 0.0

    def test_reference_value(self):
        k = bundle(L_f=1.0)
        # ((1 / (1 - 0.5)) * 1) ** (1 / 1.5) = 2 ** (2/3)
        assert holder_constant_bound(k, 0.5) == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-12)

    def test_sup_norm_scaling(self):
        k1 = bundle(L_c=1.0, L_f=0.0, u_inf=1.0)
        k2 = bundle(L_c=1.0, L_f=0.0, u_inf=2.0)
        b1 = holder_constant_bound(k1, 0.5)
        b2 = holder_constant_bound(k2, 0.5)
        assert b2 == pytest.approx(2.0 * b1, rel=1e-12)

    def test_inadmissible_exponent(self):
        with pytest.raises(InadmissibleExponentError):
            holder_constant_bound(bundle(C=4.0), 0.5)  # alpha >= c0 / (C Lambda) = 0.25

    def test_exponent_role_swap(self):
        # with beta > beta_prime the pair (L_c u_inf, beta_prime) takes the
        # low-exponent slot
        k = bundle(L_f=2.0, beta=1.0, L_c=3.0, beta_prime=0.5, u_inf=2.0, c0=4.0)
        alpha = 0.25
        denom = k.c0 - k.C * k.Lambda * alpha
        term_low = k.L_c * k.u_inf ** (1.0 + k.beta_prime - alpha)
        term_high = k.L_f * k.u_inf ** (k.beta - alpha)
        expected = ((term_low + term_high) / denom) ** (1.0 / (1.0 + k.beta - alpha))
        assert holder_constant_bound(k, alpha) == pytest.approx(expected, rel=1e-12)

    def test_monotonicity_in_data(self):
        alpha = 0.4
        base = holder_constant_bound(bundle(L_f=1.0, L_c=1.0), alpha)
        assert holder_constant_bound(bundle(L_f=2.0, L_c=1.0), alpha) > base
        assert holder_constant_bound(bundle(L_f=1.0, L_c=2.0), alpha) > base
        assert holder_constant_bound(bundle(L_f=1.0, L_c=1.0, u_inf=2.0), alpha) > base
        assert holder_constant_bound(bundle(L_f=1.0, L_c=1.0, c0=2.0), alpha) < base

    def test_bundle_validation(self):
        for bad in [dict(c0=0.0), dict(beta=1.5), dict(beta_prime=0.0), dict(u_inf=-1.0)]:
            with pytest.raises(ValueError):
                bundle(**bad)


class TestGrowthMargin:
    def test_euclidean_exact(self):
        s = preset("euclidean:3")
        radii = [1.0, 2.0, 4.0]
        margins = growth_condition_margin(s, 2.0, 1.0, radii)
        for r, m in zip(radii, margins):
            assert m == pytest.approx(3.0 / r**2 - 1.0, abs=1e-12)

    def test_heisenberg_sphere_sample(self):
        s = preset("heisenberg1")
        margins = growth_condition_margin(s, 16.0, 2.0, [2.0, 4.0], samples=512, seed=0)
        # the sampled sphere maximum sits just below (2 + 4 R^2) / R^2 - 4
        for r, m in zip([2.0, 4.0], margins):
            exact = 2.0 / r**2
            assert m <= exact + 1e-12
            assert m >= exact - 0.05

    def test_asymptotic_presets(self):
        def growth_margin_asymptotic(s, c0, Lambda):
            return growth_verdict(s, c0, Lambda, [1.0])[0]

        assert growth_margin_asymptotic(preset("heisenberg1"), 16.0, 2.0) == pytest.approx(0.0)
        assert growth_margin_asymptotic(preset("heisenberg1"), 1.0, 1.0) == pytest.approx(3.5)
        assert growth_margin_asymptotic(preset("euclidean:3"), 2.0, 1.0) == pytest.approx(-1.0)
        assert growth_margin_asymptotic(preset("engel1"), 4.0, 1.0) == pytest.approx(-1.0)
        renamed = preset("heisenberg1")
        object.__setattr__(renamed, "name", "mystery")
        assert growth_margin_asymptotic(renamed, 1.0, 1.0) == pytest.approx(3.5)
        # a JSON frame has no closed form, even when named like a preset
        frame = [
            [[[1.0, 0, 0, 0]], [], [[2.0, 0, 1, 0]]],
            [[], [[1.0, 0, 0, 0]], [[-2.0, 1, 0, 0]]],
        ]
        custom = structure_from_json({"name": "heisenberg1", "n": 3, "m": 2, "entries": frame})
        assert growth_margin_asymptotic(custom, 1.0, 1.0) is None

    def test_radii_must_increase(self):
        with pytest.raises(ValueError):
            growth_condition_margin(preset("euclidean:2"), 1.0, 1.0, [2.0, 1.0])

    def test_verdict_prefers_the_analytic_margin(self, monkeypatch):
        # a power-of-two tolerance and frames whose sphere maximum sits on an
        # axis keep every margin below exact, so the boundary cases are exact
        tol = 2.0**-20
        monkeypatch.setattr(doubling, "GROWTH_TOL", tol)
        flat = preset("euclidean:2")  # Tr P = 2

        def analytic(limsup):
            return dataclasses.replace(flat, growth_limsup=limsup)

        # the analytic margin decides whatever the samples say
        assert growth_verdict(analytic(1.0), 2.0, 1.0, [0.5]) == (0.0, [7.0], True)
        assert growth_verdict(analytic(1.0 + tol), 2.0, 1.0, [4.0]) == (tol, [-0.875], True)
        assert growth_verdict(analytic(1.0 + 2 * tol), 2.0, 1.0, [4.0]) == (
            2 * tol,
            [-0.875],
            False,
        )
        # without one, the margin at the largest radius decides: on the flat
        # frame 2 / R^2 - c0 / 2, and on diag(1, x1^2), whose Tr P = 1 + x1^4
        # peaks on the x1 axis, 1 / R^2 + R^2 - c0 / 2
        assert growth_verdict(analytic(None), 4.0 - 2 * tol, 1.0, [0.5, 1.0]) == (
            None,
            [6.0 + tol, tol],
            True,
        )
        rows = [[[[1.0, 0, 0]], [[0.0, 0, 0]]], [[[0.0, 0, 0]], [[1.0, 2, 0]]]]
        steep = structure_from_json({"n": 2, "m": 2, "entries": rows})
        assert growth_verdict(steep, 8.5 - 4 * tol, 1.0, [1.0, 2.0]) == (
            None,
            [-2.25 + 2 * tol, 2 * tol],
            False,
        )
