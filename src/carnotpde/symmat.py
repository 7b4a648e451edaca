"""Dense symmetric linear algebra for small matrices, plus algebraic sanity oracles.

Every spectrum comes from LAPACK (``np.linalg.eigh`` / ``eigvalsh``). LAPACK
reads only the lower triangle, so ``sqrt_psd`` checks its input with
``require_symmetric``; the other routines form their matrices exactly
symmetric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import NotPSDError, PreconditionError


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part (a + a.T) / 2 as a new array."""
    a = np.asarray(a, dtype=float)
    return (a + a.T) / 2.0


def require_symmetric(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """The symmetric part of a finite square matrix that is symmetric to tol
    (relative to max(1, max|a|)); ValueError otherwise."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # checked first: every comparison with NaN is false, so the test below
    # would let a NaN through
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if float(np.abs(a - a.T).max(initial=0.0)) > tol * scale:
        raise ValueError("matrix is not symmetric")
    return symmetrize(a)


def sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-1e-6, 0) are treated as roundoff and clamped to zero,
    and positive ones at roundoff scale are snapped to zero too (the square
    root would otherwise amplify an O(eps) eigenvalue error to O(sqrt(eps)),
    spoiling exact cases like projections). Anything below -1e-6 raises
    NotPSDError.
    """
    e, q = np.linalg.eigh(require_symmetric(a))
    if float(e.min()) < -1e-6:
        raise NotPSDError(f"matrix has eigenvalue {e.min():.3e} < -1e-6")
    scale = max(1.0, float(np.abs(e).max(initial=0.0)))
    e = np.where(np.abs(e) <= 1e-12 * scale, 0.0, np.clip(e, 0.0, None))
    root = np.sqrt(e)
    return symmetrize((q * root) @ q.T)


@dataclass(frozen=True)
class SpectraMatchReport:
    """Spectra of sigma sigma^T and sigma^T sigma with their nonzero-part comparison."""

    horizontal_eigenvalues: np.ndarray
    full_eigenvalues: np.ndarray
    zeros_appended: int
    max_mismatch: float
    matched: bool


def spectra_match_lemma(sigma: np.ndarray, tol: float = 1e-8) -> SpectraMatchReport:
    """Check that sigma sigma^T is strictly positive and shares its spectrum with
    sigma^T sigma up to n - m appended zeros.

    Requires full row rank (smallest singular value > 1e-10), which no factor
    with more rows than columns has.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2:
        raise ValueError("sigma must be a matrix")
    m, n = sigma.shape
    if m > n:
        raise PreconditionError(f"sigma is rank deficient ({m} rows exceed {n} columns)")
    gram_h = symmetrize(sigma @ sigma.T)
    eh = np.linalg.eigvalsh(gram_h)
    smallest_sv = sqrt(max(float(eh.min()), 0.0))
    if smallest_sv <= 1e-10:
        raise PreconditionError(
            f"sigma is rank deficient (smallest singular value {smallest_sv:.3e})"
        )
    gram_f = symmetrize(sigma.T @ sigma)
    ef = np.linalg.eigvalsh(gram_f)
    expected = np.sort(np.concatenate([np.zeros(n - m), eh]))
    max_mismatch = float(np.abs(np.sort(ef) - expected).max())
    matched = max_mismatch <= tol and float(eh.min()) > 0.0
    return SpectraMatchReport(eh, ef, n - m, max_mismatch, matched)


def trace_identity_check(
    sigma1: np.ndarray, sigma2: np.ndarray, a: np.ndarray, b: np.ndarray
) -> float:
    """|Tr(s1^T s1 A - s2^T s2 B) - Tr(s1 A s1^T - s2 B s2^T)|, which should vanish."""
    sigma1 = np.asarray(sigma1, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    a = require_symmetric(a)
    b = require_symmetric(b)
    if sigma1.shape != sigma2.shape:
        raise ValueError("sigma1 and sigma2 must have the same shape")
    m, n = sigma1.shape
    if a.shape != (n, n) or b.shape != (n, n):
        raise ValueError("A, B must be n x n for m x n sigma factors")
    lhs = np.trace(sigma1.T @ sigma1 @ a - sigma2.T @ sigma2 @ b)
    rhs = np.trace(sigma1 @ a @ sigma1.T - sigma2 @ b @ sigma2.T)
    return abs(float(lhs - rhs))


@dataclass(frozen=True)
class DiagonalCounterexample:
    """A symmetric matrix with strictly positive diagonal but a negative eigenvalue."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    min_eigenvalue: float


def diagonal_lemma_falsifier() -> DiagonalCounterexample:
    """Produce a witness showing a positive diagonal does not force positive eigenvalues."""
    m = np.array([[1.0, 3.0], [3.0, 1.0]])
    e = np.linalg.eigvalsh(m)
    return DiagonalCounterexample(m, e, float(e.min()))
