"""Unit tests for the small symmetric linear algebra kernel.

``TestEigh`` pins the LAPACK-free Jacobi reference of ``_jacobi`` and, in the
bulk reconstruction test, LAPACK's ``eigh``, which the package uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _jacobi import eigh
from carnotpde import symmat
from carnotpde.errors import NotPSDError, PreconditionError
from carnotpde.structures import heisenberg1, p_matrix_at, sigma_at


def analytic_2x2_eigenvalues(a, b, c):
    """Roots of the characteristic polynomial of [[a, b], [b, c]]."""
    mid = (a + c) / 2.0
    rad = np.sqrt(((a - c) / 2.0) ** 2 + b * b)
    return np.array([mid - rad, mid + rad])


class TestEigh:
    def test_diagonal_matrix(self):
        spec = eigh(np.diag([3.0, 1.0, 2.0]))
        assert_allclose(spec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)

    def test_heisenberg_gram_at_unit_point(self):
        p = p_matrix_at(heisenberg1(), [1.0, 0.0, 0.0])
        # block [[1, -2], [-2, 4]] has the analytic roots below, plus the
        # decoupled unit eigenvalue
        block = analytic_2x2_eigenvalues(1.0, -2.0, 4.0)
        expected = np.sort(np.concatenate([[1.0], block]))
        spec = eigh(p)
        assert_allclose(spec.eigenvalues, expected, atol=1e-12)
        assert_allclose(spec.eigenvalues, [0.0, 1.0, 5.0], atol=1e-12)

    def test_two_by_two_indefinite(self):
        spec = eigh(np.array([[1.0, 3.0], [3.0, 1.0]]))
        assert_allclose(spec.eigenvalues, analytic_2x2_eigenvalues(1.0, 3.0, 1.0), atol=1e-13)
        assert_allclose(spec.eigenvalues, [-2.0, 4.0], atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6))
    def test_reconstruction_and_orthonormality(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, dim))
        a = (a + a.T) / 2.0
        spec = eigh(a)
        q = spec.eigenvectors
        scale = max(1.0, np.abs(a).max())
        assert np.abs(q.T @ q - np.eye(dim)).max() <= 1e-10
        assert np.abs(a - q @ np.diag(spec.eigenvalues) @ q.T).max() <= 1e-9 * scale
        assert np.all(np.diff(spec.eigenvalues) >= -1e-15)

    def test_reconstruction_bulk(self):
        # the large-sample reconstruction invariant, dims up to 12, for the
        # eigensolver the package uses
        rng = np.random.default_rng(7)
        worst_recon = 0.0
        worst_orth = 0.0
        for _ in range(10_000):
            dim = int(rng.integers(1, 13))
            a = rng.normal(size=(dim, dim))
            a = (a + a.T) / 2.0
            e, q = np.linalg.eigh(a)
            scale = max(1.0, np.abs(a).max())
            worst_orth = max(worst_orth, np.abs(q.T @ q - np.eye(dim)).max())
            recon = np.abs(a - q @ np.diag(e) @ q.T).max() / scale
            worst_recon = max(worst_recon, recon)
        assert worst_orth <= 1e-10
        assert worst_recon <= 1e-9

    def test_agrees_with_lapack(self):
        rng = np.random.default_rng(11)
        for dim in (2, 5, 9, 16):
            a = rng.normal(size=(dim, dim))
            a = (a + a.T) / 2.0
            ours = eigh(a).eigenvalues
            lapack = np.linalg.eigvalsh(a)
            assert_allclose(ours, lapack, atol=1e-10 * max(1.0, np.abs(a).max()))

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError):
            eigh(np.eye(65))


class TestSqrtPsd:
    def test_identity(self):
        assert_allclose(symmat.sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        assert_allclose(symmat.sqrt_psd(np.diag([4.0, 0.0, 9.0])), np.diag([2.0, 0.0, 3.0]), atol=1e-12)

    def test_heisenberg_gram_root(self):
        p = p_matrix_at(heisenberg1(), [1.0, 0.0, 0.0])
        root = symmat.sqrt_psd(p)
        s5 = np.sqrt(5.0)
        expected = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0 / s5, -2.0 / s5],
                [0.0, -2.0 / s5, 4.0 / s5],
            ]
        )
        assert_allclose(root, expected, atol=1e-10)
        assert np.abs(root @ root - p).max() <= 1e-8 * max(1.0, np.abs(p).max())

    def test_projection_idempotence(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        proj = q[:, :2] @ q[:, :2].T
        proj = (proj + proj.T) / 2.0
        assert np.abs(symmat.sqrt_psd(proj) - proj).max() <= 1e-10

    def test_materially_negative_raises(self):
        with pytest.raises(NotPSDError):
            symmat.sqrt_psd(np.diag([1.0, -0.5]))

    def test_roundoff_negative_is_clamped(self):
        root = symmat.sqrt_psd(np.diag([1.0, -1e-11]))
        assert root[1, 1] == 0.0

    def test_rejects_non_symmetric(self):
        # LAPACK reads only the lower triangle, so without the check this
        # would return the root of [[1, 0], [0, 1]]
        with pytest.raises(ValueError, match="not symmetric"):
            symmat.sqrt_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 0), (0, 1)])
    def test_rejects_non_finite(self, bad, at):
        # every comparison with NaN is false, so a NaN would otherwise pass
        # the symmetry check and give an all-NaN root
        a = np.eye(2)
        a[at] = a[at[::-1]] = bad
        with pytest.raises(ValueError, match="non-finite"):
            symmat.sqrt_psd(a)


class TestSpectraMatch:
    def test_heisenberg_frame(self):
        rep = symmat.spectra_match_lemma(sigma_at(heisenberg1(), [1.0, 0.0, 0.0]))
        assert rep.matched
        assert_allclose(rep.horizontal_eigenvalues, [1.0, 5.0], atol=1e-10)
        assert_allclose(rep.full_eigenvalues, [0.0, 1.0, 5.0], atol=1e-10)
        assert rep.zeros_appended == 1

    def test_square_identity(self):
        rep = symmat.spectra_match_lemma(np.eye(4))
        assert rep.matched
        assert rep.zeros_appended == 0
        assert_allclose(rep.full_eigenvalues, np.ones(4), atol=1e-12)

    def test_random_wide_factors(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, n + 1))
            sigma = rng.normal(size=(m, n))
            rep = symmat.spectra_match_lemma(sigma)
            assert rep.matched, rep.max_mismatch
            # LAPACK-free cross-check of both spectra
            for got, gram in (
                (rep.horizontal_eigenvalues, sigma @ sigma.T),
                (rep.full_eigenvalues, sigma.T @ sigma),
            ):
                gram = symmat.symmetrize(gram)
                scale = max(1.0, float(np.abs(gram).max()))
                assert np.abs(got - eigh(gram).eigenvalues).max() <= 1e-10 * scale

    def test_rank_deficient_rejected(self):
        # second row is twice the first, so the factor has rank 1 < m = 2
        with pytest.raises(PreconditionError):
            symmat.spectra_match_lemma(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]))

    def test_more_rows_than_columns_is_rank_deficient(self):
        # sigma sigma^T is 3 x 3 with rank at most 2
        with pytest.raises(PreconditionError, match="rank deficient"):
            symmat.spectra_match_lemma(np.arange(6.0).reshape(3, 2) + np.eye(3, 2))


class TestTraceIdentity:
    def test_identity_factors(self):
        a = np.diag([1.0, 2.0])
        assert symmat.trace_identity_check(np.eye(2), np.eye(2), a, a) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_draws(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, n + 1))
        s1 = rng.normal(size=(m, n))
        s2 = rng.normal(size=(m, n))
        a = symmat.symmetrize(rng.normal(size=(n, n)))
        b = symmat.symmetrize(rng.normal(size=(n, n)))
        scale = max(
            1.0,
            abs(float(np.trace(s1.T @ s1 @ a))),
            abs(float(np.trace(s2.T @ s2 @ b))),
        )
        assert symmat.trace_identity_check(s1, s2, a, b) <= 1e-10 * scale

    def test_heisenberg_frames(self):
        rng = np.random.default_rng(9)
        s = heisenberg1()
        for _ in range(50):
            x = rng.uniform(-2, 2, size=3)
            y = rng.uniform(-2, 2, size=3)
            a = symmat.symmetrize(rng.normal(size=(3, 3)))
            b = symmat.symmetrize(rng.normal(size=(3, 3)))
            gap = symmat.trace_identity_check(sigma_at(s, x), sigma_at(s, y), a, b)
            assert gap <= 1e-10 * max(1.0, np.abs(a).max(), np.abs(b).max()) * 50


class TestDiagonalFalsifier:
    def test_witness_has_negative_eigenvalue(self):
        witness = symmat.diagonal_lemma_falsifier()
        assert np.all(np.diag(witness.matrix) > 0.0)
        a, b = witness.matrix[0, 0], witness.matrix[0, 1]
        assert_allclose(sorted(witness.eigenvalues), [a - b, a + b], atol=1e-13)
        assert witness.min_eigenvalue < 0.0

    def test_identity_is_not_a_counterexample(self):
        evals = eigh(np.eye(2)).eigenvalues
        assert evals.min() > 0.0

    def test_another_positive_diagonal_witness(self):
        # [[2, -3], [-3, 2]] has eigenvalues 2 -+ 3
        evals = eigh(np.array([[2.0, -3.0], [-3.0, 2.0]])).eigenvalues
        assert_allclose(evals, [-1.0, 5.0], atol=1e-13)
        assert evals.min() < 0.0
