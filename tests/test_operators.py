"""Unit tests for the operator family G(sigma M sigma^T)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _jacobi import eigh
from _oracles import degenerate_ellipticity_check, f_eval, g_eval, sandwich_check
from carnotpde import (
    Coefficients,
    EllipticityBounds,
    OperatorSpec,
    p_matrix_at,
    preset,
    pucci_operator,
    sigma_at,
    trace_operator,
)
from carnotpde.operators import KINDS, policies
from carnotpde.symmat import symmetrize


def pucci_bruteforce(n_mat: np.ndarray, lam: float, Lam: float, plus: bool) -> float:
    """Extremal value by enumerating diagonal matrices in the eigenbasis.

    Tr(diag(a) diag(e)) is linear in each a_i, so the optimum over the box
    [lam, Lam]^m sits at a vertex.
    """
    evals = np.linalg.eigvalsh(n_mat)
    best = None
    for vertex in itertools.product((lam, Lam), repeat=evals.size):
        val = float(np.dot(vertex, evals))
        if best is None or (plus and val > best) or (not plus and val < best):
            best = val
    return best


def g_from_eigenvalues(kind: str, lam: float, Lam: float, evals: np.ndarray) -> float:
    """G from the eigenvalues: their sum for the trace kind, Lam*pos - lam*neg
    for pucci_plus and lam*pos - Lam*neg for pucci_minus."""
    if kind == "trace":
        return float(evals.sum())
    pos = float(np.clip(evals, 0.0, None).sum())
    neg = float(np.clip(-evals, 0.0, None).sum())
    return Lam * pos - lam * neg if kind == "pucci_plus" else lam * pos - Lam * neg


HEIS = preset("heisenberg1")
EUC2 = preset("euclidean:2")


class TestGEval:
    def test_trace_of_balanced_matrix(self):
        spec = trace_operator(EUC2)
        assert g_eval(spec, np.diag([1.0, -1.0])) == 0.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_rejects_non_finite(self, kind):
        lam, Lam = (1.0, 1.0) if kind == "trace" else (1.0, 2.0)
        spec = OperatorSpec(kind, EllipticityBounds(lam, Lam), EUC2)
        with pytest.raises(ValueError, match="non-finite"):
            g_eval(spec, np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_degenerate_bounds_collapse_to_trace(self):
        spec = pucci_operator(EUC2, 1.0, 1.0, plus=True)
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = symmetrize(rng.normal(size=(2, 2)))
            assert g_eval(spec, n) == pytest.approx(float(np.trace(n)), abs=1e-12)

    def test_extremal_plus_vs_bruteforce(self):
        spec = pucci_operator(EUC2, 1.0, 2.0, plus=True)
        n = np.diag([1.0, -1.0])
        assert g_eval(spec, n) == pytest.approx(pucci_bruteforce(n, 1.0, 2.0, True))
        assert g_eval(spec, n) == pytest.approx(1.0)

    def test_extremal_random_vs_bruteforce(self):
        rng = np.random.default_rng(1)
        for m in (2, 3, 4):
            struct = preset(f"euclidean:{m}")
            plus_spec = pucci_operator(struct, 0.5, 2.5, plus=True)
            minus_spec = pucci_operator(struct, 0.5, 2.5, plus=False)
            for _ in range(40):
                n = symmetrize(rng.normal(size=(m, m)))
                assert g_eval(plus_spec, n) == pytest.approx(
                    pucci_bruteforce(n, 0.5, 2.5, True), rel=1e-10, abs=1e-10
                )
                assert g_eval(minus_spec, n) == pytest.approx(
                    pucci_bruteforce(n, 0.5, 2.5, False), rel=1e-10, abs=1e-10
                )

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=10.0),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_positive_homogeneity(self, t, seed):
        rng = np.random.default_rng(seed)
        n = symmetrize(rng.normal(size=(2, 2)))
        for spec in (
            trace_operator(EUC2),
            pucci_operator(EUC2, 1.0, 2.0, plus=True),
            pucci_operator(EUC2, 1.0, 2.0, plus=False),
        ):
            scale = max(1.0, abs(g_eval(spec, n)) * t)
            assert abs(g_eval(spec, t * n) - t * g_eval(spec, n)) <= 1e-10 * scale

    def test_extremal_bracket(self):
        rng = np.random.default_rng(2)
        lam, Lam = 1.0, 2.0
        for _ in range(200):
            n = symmetrize(rng.normal(size=(3, 3)))
            struct = preset("euclidean:3")
            lo = g_eval(pucci_operator(struct, lam, Lam, plus=False), n)
            hi = g_eval(pucci_operator(struct, lam, Lam, plus=True), n)
            assert lo <= hi + 1e-12
            for plus in (True, False):
                mid = g_eval(pucci_operator(struct, lam, Lam, plus=plus), n)
                assert lo - 1e-12 <= mid <= hi + 1e-12

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            g_eval(trace_operator(HEIS), np.eye(3))  # G acts on m = 2 here


class TestOneRouteToG:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_g_eval_matches_jacobi_route(self, m, kind):
        # LAPACK-free reference: eigenvalues from the cyclic Jacobi eigh
        struct = preset(f"euclidean:{m}")
        bounds = EllipticityBounds(1.0, 1.0) if kind == "trace" else EllipticityBounds(0.5, 2.5)
        spec = OperatorSpec(kind, bounds, struct)
        rng = np.random.default_rng(20 + m)
        mats = [symmetrize(rng.normal(size=(m, m)) * 10.0 ** rng.uniform(-3, 3)) for _ in range(300)]
        v = rng.normal(size=m)
        mats += [np.zeros((m, m)), 3.0 * np.eye(m), np.outer(v, v), -np.outer(v, v)]
        mats += [np.eye(m) + 1e-9 * symmetrize(rng.normal(size=(m, m)))]
        for n_mat in mats:
            evals = eigh(n_mat).eigenvalues
            want = g_from_eigenvalues(kind, 0.5, 2.5, evals)
            scale = max(1.0, float(np.abs(n_mat).max()))
            assert abs(g_eval(spec, n_mat) - want) <= 1e-12 * scale


def _edge_stack(d: int, rng) -> np.ndarray:
    """Random symmetric d x d matrices and the edge cases of the policy rule
    (zero, semidefinite, mixed, multiples of I, pure off-diagonal), each at
    scales 1, 1e-8 and 1e8."""
    def embed(block):
        out = np.zeros((d, d))
        k = min(d, block.shape[0])
        out[:k, :k] = block[:k, :k]
        return out

    edges = [np.zeros((d, d)), embed(np.diag([1.0, 0.0])), embed(np.diag([0.0, -1.0]))]
    edges += [embed(np.diag([2.0, -3.0])), 3.0 * np.eye(d), -2.0 * np.eye(d)]
    if d >= 2:
        edges += [embed(np.array([[0.0, b], [b, 0.0]])) for b in (1.0, -0.5)]
    edges += [symmetrize(rng.normal(size=(d, d))) for _ in range(100)]
    return np.array([scale * e for scale in (1.0, 1e-8, 1e8) for e in edges])


class TestPolicies:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_policy_attains_g(self, d, kind):
        lam, Lam = (1.0, 1.0) if kind == "trace" else (0.5, 2.5)
        spec = OperatorSpec(kind, EllipticityBounds(lam, Lam), preset(f"euclidean:{d}"))
        mats = _edge_stack(d, np.random.default_rng(40 + d))
        pols = policies(spec, mats)
        assert pols.shape == mats.shape
        assert np.abs(pols - np.swapaxes(pols, 1, 2)).max() <= 1e-12 * Lam
        spectra = np.linalg.eigvalsh((pols + np.swapaxes(pols, 1, 2)) / 2.0)
        assert spectra.min() >= lam - 1e-12 * Lam and spectra.max() <= Lam + 1e-12 * Lam
        for n_mat, pol in zip(mats, pols):
            want = g_from_eigenvalues(kind, lam, Lam, eigh(n_mat).eigenvalues)
            scale = Lam * float(np.abs(n_mat).max())
            assert abs(float(np.trace(pol @ n_mat)) - want) <= 1e-12 * scale

    @pytest.mark.parametrize("kind", ["pucci_plus", "pucci_minus"])
    def test_closed_form_2x2_matches_eigh(self, kind):
        spec = pucci_operator(EUC2, 0.5, 2.5, plus=kind == "pucci_plus")
        lo, hi = (0.5, 2.5) if kind == "pucci_plus" else (2.5, 0.5)
        mats = _edge_stack(2, np.random.default_rng(7))
        evals, vecs = np.linalg.eigh(mats)
        want = np.einsum("rik,rk,rjk->rij", vecs, np.where(evals > 0.0, hi, lo), vecs)
        assert np.abs(policies(spec, mats) - want).max() <= 1e-12


class TestFEval:
    def test_heisenberg_horizontal_quadratic(self):
        spec = trace_operator(HEIS)
        m = np.diag([2.0, 0.0, 0.0])
        for x in ([0, 0, 0], [1, 2, 3], [-0.5, 0.7, 9.0]):
            assert f_eval(spec, m, x) == pytest.approx(2.0, abs=1e-12)

    def test_vertical_coordinate_is_harmonic(self):
        spec = trace_operator(HEIS)
        assert f_eval(spec, np.zeros((3, 3)), [0.4, -0.2, 1.0]) == 0.0

    def test_euclidean_extremal(self):
        spec = pucci_operator(EUC2, 1.0, 2.0, plus=True)
        assert f_eval(spec, np.diag([1.0, -1.0]), [0.0, 0.0]) == pytest.approx(1.0)

    def test_trace_route_equals_gram_pairing(self):
        spec = trace_operator(HEIS)
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=3)
            m = symmetrize(rng.normal(size=(3, 3)))
            direct = f_eval(spec, m, x)
            via_gram = float(np.trace(p_matrix_at(HEIS, x) @ m))
            assert direct == pytest.approx(via_gram, rel=1e-10, abs=1e-10)


class TestPropertyChecks:
    def test_sandwich_trace_is_tight(self):
        rep = sandwich_check(trace_operator(EUC2), trials=500, seed=0)
        assert rep.passed
        assert rep.worst_slack <= 1e-12

    def test_sandwich_extremal(self):
        for plus in (True, False):
            rep = sandwich_check(pucci_operator(HEIS, 1.0, 2.0, plus=plus), trials=2000, seed=1)
            assert rep.passed, rep.worst_slack

    def test_sandwich_equal_matrices(self):
        spec = pucci_operator(EUC2, 1.0, 2.0, plus=True)
        rng = np.random.default_rng(4)
        a = symmetrize(rng.normal(size=(2, 2)))
        assert g_eval(spec, a) - g_eval(spec, a) == 0.0

    def test_degenerate_ellipticity_trivial_pair(self):
        spec = trace_operator(HEIS)
        rng = np.random.default_rng(5)
        m = symmetrize(rng.normal(size=(3, 3)))
        x = [0.5, -0.5, 2.0]
        assert f_eval(spec, m, x) == f_eval(spec, m, x)

    def test_degenerate_ellipticity_heisenberg(self):
        rep = degenerate_ellipticity_check(trace_operator(HEIS), [0.3, 0.6, -1.0], trials=2000, seed=6)
        assert rep.passed, rep.worst_slack

    def test_degenerate_ellipticity_extremal(self):
        rep = degenerate_ellipticity_check(
            pucci_operator(EUC2, 1.0, 2.0, plus=False), [0.0, 0.0], trials=2000, seed=7
        )
        assert rep.passed, rep.worst_slack

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            sandwich_check(trace_operator(EUC2), trials=0)


class TestEngelDegeneracy:
    def test_full_gram_has_zero_eigenvalue(self):
        engel = preset("engel1")
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = rng.uniform(-3, 3, size=4)
            evals = eigh(p_matrix_at(engel, x)).eigenvalues
            assert abs(float(evals[0])) <= 1e-12


class TestValidation:
    def test_bounds_ordering(self):
        with pytest.raises(ValueError):
            EllipticityBounds(2.0, 1.0)
        with pytest.raises(ValueError):
            EllipticityBounds(0.0, 1.0)

    def test_trace_kind_requires_unit_bounds(self):
        with pytest.raises(ValueError):
            OperatorSpec("trace", EllipticityBounds(1.0, 2.0), EUC2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            OperatorSpec("bellman", EllipticityBounds(1.0, 2.0), EUC2)

    def test_coefficients_validation(self):
        ok = dict(c=lambda x: 1.0, f=lambda x: 0.0, L_c=0.0, beta=1.0, L_f=0.0, beta_prime=1.0)
        Coefficients(c0=1.0, **ok)
        with pytest.raises(ValueError):
            Coefficients(c0=0.0, **ok)
        with pytest.raises(ValueError):
            Coefficients(c0=1.0, **{**ok, "beta": 1.5})
        with pytest.raises(ValueError):
            Coefficients(c0=1.0, **{**ok, "L_f": -1.0})
