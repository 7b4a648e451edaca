"""LAPACK-free reference eigensolver for the test suite: cyclic Jacobi rotations.

The package takes every spectrum from LAPACK (``np.linalg.eigh``). Tests
compare that route against this independent one, a Python double loop per
rotation, so it is meant for small matrices only.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from carnotpde.errors import NumericalError
from carnotpde.symmat import require_symmetric

MAX_DIM = 64
MAX_SWEEPS = 100


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition A = Q diag(e) Q^T with e ascending and Q orthonormal."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh(a: np.ndarray) -> Spectrum:
    """Eigendecomposition of a small dense symmetric matrix by cyclic Jacobi rotations.

    Sweeps are capped at MAX_SWEEPS; rotations below the working threshold
    are skipped. Raises NumericalError if the off-diagonal mass has not been
    annihilated when the cap is reached.
    """
    work = require_symmetric(a).copy()
    n = work.shape[0]
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds desk-scale cap {MAX_DIM}")
    if n == 1:
        return Spectrum(work[0].copy(), np.eye(1))

    v = np.eye(n)
    scale = max(1.0, float(np.abs(work).max()))
    stop = 1e-14 * scale
    converged = False
    for _ in range(MAX_SWEEPS):
        off = float(np.abs(np.triu(work, 1)).max())
        if off <= stop:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                if abs(apq) <= stop:
                    continue
                app = work[p, p]
                aqq = work[q, q]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (tau - sqrt(1.0 + tau * tau))
                c = 1.0 / sqrt(1.0 + t * t)
                s = t * c

                rp = work[p, :].copy()
                rq = work[q, :].copy()
                work[p, :] = c * rp - s * rq
                work[q, :] = s * rp + c * rq
                # closed forms for the rotated 2x2 block keep the zeros exact
                work[p, p] = app - t * apq
                work[q, q] = aqq + t * apq
                work[p, q] = 0.0
                work[q, p] = 0.0
                work[:, p] = work[p, :]
                work[:, q] = work[q, :]

                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    if not converged:
        off = float(np.abs(np.triu(work, 1)).max())
        if off > stop:
            raise NumericalError(
                f"Jacobi sweep cap {MAX_SWEEPS} reached with off-diagonal {off:.3e}"
            )
    e = np.diag(work).copy()
    order = np.argsort(e, kind="stable")
    return Spectrum(e[order], v[:, order])
