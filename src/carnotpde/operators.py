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
    for pucci_minus): directly for d = 1, in closed form for d = 2 through
    the projector onto the positive eigenvector, and from LAPACK's eigh
    otherwise.
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
        mid = (mats[..., 0, 0] + mats[..., 1, 1]) / 2.0
        rad = np.sqrt(((mats[..., 0, 0] - mats[..., 1, 1]) / 2.0) ** 2 + mats[..., 0, 1] ** 2)
        lo, hi = (mid - rad)[..., None, None], (mid + rad)[..., None, None]
        eye = np.eye(2)
        with np.errstate(divide="ignore", invalid="ignore"):
            mixed = lam * eye + (Lam - lam) * (mats - lo * eye) / (hi - lo)
        return np.where(lo > 0.0, Lam * eye, np.where(hi <= 0.0, lam * eye, mixed))
    evals, vecs = np.linalg.eigh(mats)
    return np.einsum("...ik,...k,...jk->...ij", vecs, np.where(evals > 0.0, Lam, lam), vecs)


def g_values(spec: OperatorSpec, mats: np.ndarray) -> np.ndarray:
    """G on a stack of symmetric matrices (..., d, d), shape (...): tr(A M) for
    the attaining A of ``policies``, which is the trace for the trace kind."""
    return np.einsum("...ij,...ji->...", policies(spec, mats), mats)


def frame_hessians(spec: OperatorSpec, X: np.ndarray, hessians: np.ndarray) -> np.ndarray:
    """sigma(x) H sigma(x)^T at the (N, n) rows X for their (N, n, n) Hessians."""
    s = frames(spec.structure, X)
    mats = s @ hessians @ np.swapaxes(s, 1, 2)
    return (mats + np.swapaxes(mats, 1, 2)) / 2.0
