"""The operator family F(M, x) = G(sigma(x) M sigma(x)^T).

G acts on m x m symmetric matrices and is pinned between lambda*Tr and
Lambda*Tr on ordered pairs. Implemented kinds: "trace" (sum of eigenvalues)
and the extremal pair "pucci_plus" / "pucci_minus", the sup and inf of
tr(A M) over lambda I <= A <= Lambda I. ``policies`` is the one owner of that
rule: it returns the attaining A for a stack of matrices, which the solver's
Howard step reads too. ``g_values`` is the one evaluation of G, tr(A M),
batched over a stack of matrices. The coefficients c and f follow the
package's batch protocol: they map an (N, n) array of points to the (N,)
array of their values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .structures import CarnotStructure, frames

KINDS = ("trace", "pucci_plus", "pucci_minus")


@dataclass(frozen=True)
class EllipticityBounds:
    lam: float
    Lam: float

    def __post_init__(self):
        if not (0.0 < self.lam <= self.Lam):
            raise ValueError(f"need 0 < lambda <= Lambda, got ({self.lam}, {self.Lam})")


@dataclass(frozen=True)
class OperatorSpec:
    kind: str
    bounds: EllipticityBounds
    structure: CarnotStructure

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind == "trace" and (self.bounds.lam != 1.0 or self.bounds.Lam != 1.0):
            raise ValueError("trace kind uses lambda = Lambda = 1")


def trace_operator(structure: CarnotStructure) -> OperatorSpec:
    return OperatorSpec("trace", EllipticityBounds(1.0, 1.0), structure)


def pucci_operator(structure: CarnotStructure, lam: float, Lam: float, plus: bool = True) -> OperatorSpec:
    kind = "pucci_plus" if plus else "pucci_minus"
    return OperatorSpec(kind, EllipticityBounds(lam, Lam), structure)


@dataclass(frozen=True)
class Coefficients:
    """Zero-order coefficient c and right-hand side f with their Holder data.

    c and f map (N, n) points to (N,) values. c0 is the infimum of c over the
    working box; it must be positive for the regularity machinery.
    """

    c: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]
    L_c: float
    beta: float
    L_f: float
    beta_prime: float
    c0: float

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0 and 0.0 < self.beta_prime <= 1.0):
            raise ValueError("beta and beta_prime must lie in (0, 1]")
        if self.c0 <= 0.0:
            raise ValueError("c0 must be positive")
        if self.L_c < 0.0 or self.L_f < 0.0:
            raise ValueError("Holder seminorms must be nonnegative")


def policies(spec: OperatorSpec, mats: np.ndarray) -> np.ndarray:
    """The matrix A attaining G on a stack of symmetric matrices (..., d, d),
    so that G(M) = tr(A M); shape (..., d, d).

    The trace kind's A is the identity. The extremal kinds put Lambda on the
    eigenvectors of positive eigenvalues and lambda on the others (swapped
    for pucci_minus): directly for d = 1, from LAPACK's eigh for d >= 3, and
    for d = 2 in closed form through the projector onto the positive
    eigenvector. That form works on the entry vectors M00, M11 and M01 of
    the stack: with lo <= hi the eigenvalues, A00 = lam + (Lam - lam)(M00 -
    lo) / (hi - lo), A11 likewise and A01 = (Lam - lam) M01 / (hi - lo), then
    Lam I where lo > 0 and lam I where hi <= 0. A NaN entry gives a NaN A.
    """
    d = mats.shape[-1]
    if spec.kind == "trace":
        return np.broadcast_to(np.eye(d), mats.shape)
    lam, Lam = spec.bounds.lam, spec.bounds.Lam
    if spec.kind == "pucci_minus":
        lam, Lam = Lam, lam
    if d == 1:
        return np.where(mats > 0.0, Lam, lam)
    if d == 2:
        m00, m11, m01 = mats[..., 0, 0], mats[..., 1, 1], mats[..., 0, 1]
        mid = (m00 + m11) / 2.0
        rad = np.sqrt(((m00 - m11) / 2.0) ** 2 + m01**2)
        lo, hi = mid - rad, mid + rad
        pos, neg = lo > 0.0, hi <= 0.0
        out = np.empty(mats.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            span = hi - lo
            for k, mkk in ((0, m00), (1, m11)):
                mixed = lam + (Lam - lam) * (mkk - lo) / span
                out[..., k, k] = np.where(pos, Lam, np.where(neg, lam, mixed))
            mixed = (Lam - lam) * m01 / span
            out[..., 0, 1] = out[..., 1, 0] = np.where(pos | neg, 0.0, mixed)
        return out
    evals, vecs = np.linalg.eigh(mats)
    return np.einsum("...ik,...k,...jk->...ij", vecs, np.where(evals > 0.0, Lam, lam), vecs)


def g_values(spec: OperatorSpec, mats: np.ndarray) -> np.ndarray:
    """G on a stack of symmetric matrices (..., d, d), shape (...): tr(A M) for
    the attaining A of ``policies``, which is the trace for the trace kind."""
    return np.einsum("...ij,...ji->...", policies(spec, mats), mats)


def frame_hessians(spec: OperatorSpec, X: np.ndarray, hessians: np.ndarray) -> np.ndarray:
    """sigma(x) H sigma(x)^T at the (N, n) rows X for their symmetric (N, n, n)
    Hessians H, shape (N, m, m) and exactly symmetric.

    Entry (i, j), i <= j, is summed on the entry vectors of the stack, over
    the entries H_ab with a <= b that are nonzero at some row:
    (sigma_ia sigma_jb + [a != b] sigma_ib sigma_ja) H_ab; it is mirrored to
    (j, i). Only H's upper triangle enters the sums. A row whose sigma or H
    holds a non-finite value comes out NaN.
    """
    s = frames(spec.structure, X)
    m, n = s.shape[1:]
    upper = [(a, b, hessians[:, a, b]) for a in range(n) for b in range(a, n)]
    terms = [(a, b, h) for a, b, h in upper if np.count_nonzero(h)]
    mats = np.zeros((len(X), m, m))
    weight, cross = np.empty(len(X)), np.empty(len(X))
    for i in range(m):
        for j in range(i, m):
            entry = mats[:, i, j]
            for a, b, h in terms:
                np.multiply(s[:, i, a], s[:, j, b], out=weight)
                if a != b:
                    weight += np.multiply(s[:, i, b], s[:, j, a], out=cross)
                weight *= h
                entry += weight
            mats[:, j, i] = entry
    # the sums skip the entries of H that vanish on every row, so a
    # non-finite sigma there would otherwise not reach the result
    if not (np.isfinite(s.sum()) and np.isfinite(hessians.sum())):
        finite = np.isfinite(s).all(axis=(1, 2)) & np.isfinite(hessians).all(axis=(1, 2))
        mats[~finite] = np.nan
    return mats
