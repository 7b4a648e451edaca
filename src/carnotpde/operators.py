"""The operator family F(M, x) = G(sigma(x) M sigma(x)^T).

G acts on m x m symmetric matrices and is pinned between lambda*Tr and
Lambda*Tr on ordered pairs. Implemented kinds: "trace" (sum of eigenvalues)
and the extremal pair "pucci_plus" / "pucci_minus", the sup and inf of
tr(A M) over lambda I <= A <= Lambda I. ``policies`` is the one owner of that
rule: it returns the attaining A for a stack of matrices, which the solver's
Howard step reads too. ``g_values`` is the one evaluation of G, tr(A M),
batched over a stack of matrices; ``g_eval`` and ``f_eval`` are its
one-matrix forms. The coefficients c and f follow the package's batch
protocol: they map an (N, n) array of points to the (N,) array of their
values. Property checks (the two-sided trace sandwich, degenerate
ellipticity) run batched over random trials and return reports rather than
raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import symmat
from .structures import CarnotStructure, as_point, frames

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


def g_eval(spec: OperatorSpec, n_mat: np.ndarray) -> float:
    """Evaluate G on an m x m symmetric matrix."""
    n_mat = symmat.require_symmetric(n_mat)
    if n_mat.shape[0] != spec.structure.m:
        raise ValueError(
            f"G acts on {spec.structure.m} x {spec.structure.m} matrices, got {n_mat.shape}"
        )
    return float(g_values(spec, n_mat[None])[0])


def f_eval(spec: OperatorSpec, m_mat: np.ndarray, x) -> float:
    """Evaluate F(M, x) = G(sigma(x) M sigma(x)^T)."""
    m_mat = symmat.require_symmetric(m_mat)
    if m_mat.shape[0] != spec.structure.n:
        raise ValueError(
            f"F acts on {spec.structure.n} x {spec.structure.n} Hessians, got {m_mat.shape}"
        )
    p = as_point(x, spec.structure.n)[None, :]
    return float(g_values(spec, frame_hessians(spec, p, m_mat[None]))[0])


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of a randomized inequality check; a violation is reported, not raised."""

    name: str
    trials: int
    violations: int
    worst_slack: float
    witness: tuple | None = None
    seed: int = 0

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _random_symmetric(rng, count: int, dim: int) -> np.ndarray:
    x = rng.normal(size=(count, dim, dim))
    return (x + np.transpose(x, (0, 2, 1))) / 2.0


def _verdict(
    name: str, slack: np.ndarray, tol: np.ndarray, draws: tuple, seed: int
) -> PropertyReport:
    """The report of a check whose trial k fails when slack[k] > tol[k]; the
    witness is the draws of the trial with the largest slack, if any failed."""
    bad = slack > tol
    worst = int(np.argmax(slack))
    return PropertyReport(
        name=name,
        trials=slack.size,
        violations=int(bad.sum()),
        worst_slack=float(slack.max()),
        witness=tuple(d[worst] for d in draws) if bad.any() else None,
        seed=seed,
    )


def sandwich_check(spec: OperatorSpec, trials: int, seed: int = 0) -> PropertyReport:
    """Draw ordered m x m pairs B <= A and verify lam*Tr(A-B) <= G(A)-G(B) <= Lam*Tr(A-B).

    Tolerance is 1e-9 relative to the trial scale.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d = spec.structure.m
    lam, Lam = spec.bounds.lam, spec.bounds.Lam
    rng = np.random.default_rng(seed)
    a = _random_symmetric(rng, trials, d)
    c = rng.normal(size=(trials, d, d))
    b = a - np.transpose(c, (0, 2, 1)) @ c
    b = (b + np.transpose(b, (0, 2, 1))) / 2.0
    ga = g_values(spec, a)
    gb = g_values(spec, b)
    gap = np.trace(a - b, axis1=-2, axis2=-1)
    diff = ga - gb
    scale = np.maximum(1.0, np.maximum(np.abs(ga), np.abs(gb)))
    scale = np.maximum(scale, Lam * np.abs(gap))
    slack = np.maximum(lam * gap - diff, diff - Lam * gap)
    return _verdict(f"sandwich[{spec.kind}]", slack, 1e-9 * scale, (a, b), seed)


def degenerate_ellipticity_check(
    spec: OperatorSpec, x, trials: int, seed: int = 0
) -> PropertyReport:
    """Verify F(M, x) <= F(N, x) for random ordered Hessians M <= N."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = spec.structure.n
    X = np.tile(as_point(x, n), (trials, 1))
    rng = np.random.default_rng(seed)
    m_mats = _random_symmetric(rng, trials, n)
    c = rng.normal(size=(trials, n, n))
    n_mats = m_mats + np.transpose(c, (0, 2, 1)) @ c
    n_mats = (n_mats + np.transpose(n_mats, (0, 2, 1))) / 2.0
    fm = g_values(spec, frame_hessians(spec, X, m_mats))
    fn = g_values(spec, frame_hessians(spec, X, n_mats))
    scale = np.maximum(1.0, np.maximum(np.abs(fm), np.abs(fn)))
    name = f"degenerate_ellipticity[{spec.kind}]"
    return _verdict(name, fm - fn, 1e-9 * scale, (m_mats, n_mats), seed)
