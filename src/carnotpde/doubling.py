"""Calculus of the doubled-variable test function phi(x, y) = L |x - y|^alpha.

Provides the closed-form Hessian of phi and its square, the matched matrix
pair produced at a touching maximum, the trace inequality that controls
Tr(sigma(x) A sigma(x)^T - sigma(y) B sigma(y)^T), the explicit admissible
Holder-seminorm bound, and the growth condition Tr(P(x))/|x|^2 <= c0/(2 Lambda)
at infinity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import InadmissibleExponentError, SingularPointError
from .structures import CarnotStructure, frames

GROWTH_TOL = 1e-9


@dataclass(frozen=True)
class ConstantBundle:
    """Everything the explicit seminorm bound consumes, and the sampled
    Lipschitz bound of sigma that C was formed from (NaN when none was)."""

    c0: float
    Lambda: float
    C: float
    L_c: float
    beta: float
    L_f: float
    beta_prime: float
    u_inf: float
    lipschitz_estimate: float = float("nan")

    def __post_init__(self):
        if self.c0 <= 0.0:
            raise ValueError("c0 must be positive")
        if not (0.0 < self.beta <= 1.0 and 0.0 < self.beta_prime <= 1.0):
            raise ValueError("beta and beta_prime must lie in (0, 1]")
        if self.u_inf < 0.0:
            raise ValueError("u_inf must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)


def phi_value(x, y, L: float, alpha: float) -> float:
    """The doubling penalty L |x - y|^alpha."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(L * np.linalg.norm(x - y) ** alpha)


def finite_difference_hessian(fn, z: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference Hessian of a scalar callable; cross-check oracle."""
    z = np.asarray(z, dtype=float)
    d = z.size
    hess = np.empty((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = step
        hess[i, i] = (fn(z + ei) - 2.0 * fn(z) + fn(z - ei)) / step**2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = step
            hess[i, j] = (
                fn(z + ei + ej) - fn(z + ei - ej) - fn(z - ei + ej) + fn(z - ei - ej)
            ) / (4.0 * step**2)
            hess[j, i] = hess[i, j]
    return hess


def _separation(x, y) -> tuple[np.ndarray, float]:
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same dimension")
    d = x - y
    r = float(np.linalg.norm(d))
    if r == 0.0:
        raise SingularPointError("the test-function Hessian is singular at x == y")
    return d, r


def phi_hessian_block(x, y, L: float, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Hessian of phi along with the assembled 2n x 2n block [[M, -M], [-M, M]].

    M = L alpha r^(alpha-2) ((alpha-2) e (x) e + I) with e the unit separation.
    """
    d, r = _separation(x, y)
    n = d.size
    e = d / r
    m = L * alpha * r ** (alpha - 2.0) * ((alpha - 2.0) * np.outer(e, e) + np.eye(n))
    m = (m + m.T) / 2.0
    block = np.block([[m, -m], [-m, m]])
    return m, block


def phi_hessian_square(x, y, L: float, alpha: float) -> np.ndarray:
    """Closed form for M^2: alpha^2 L^2 r^(2(alpha-2)) (alpha(alpha-2) e (x) e + I)."""
    d, r = _separation(x, y)
    n = d.size
    e = d / r
    m2 = (
        alpha**2
        * L**2
        * r ** (2.0 * (alpha - 2.0))
        * (alpha * (alpha - 2.0) * np.outer(e, e) + np.eye(n))
    )
    return (m2 + m2.T) / 2.0


def touching_pair(x, y, L: float, alpha: float, eta: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Matched pair (A, -A) satisfying the touching-maximum block inequality.

    With W = M + (2/mu) M^2 and mu = 2 theta / (eta - 1) for
    theta = L alpha r^(alpha-2), the pair A = W - ||W|| I, B = -A satisfies
    blockdiag(A, -B) <= [[W, -W], [-W, W]] <= eta theta [[I, -I], [-I, I]],
    hence A - B <= 0 <= 2 eta theta I and the frame trace inequality of
    sums_trace_bound holds for it with any pair of frames. (The uncentered
    pair (W, -W) would violate the block inequality: W has positive
    tangential eigenvalues.)
    """
    if eta <= 1.0:
        raise ValueError("eta must exceed 1")
    _, r = _separation(x, y)
    theta = L * alpha * r ** (alpha - 2.0)
    mu = 2.0 * theta / (eta - 1.0)
    m, _ = phi_hessian_block(x, y, L, alpha)
    m2 = phi_hessian_square(x, y, L, alpha)
    w = m + (2.0 / mu) * m2
    shift = float(np.linalg.norm(w, 2))
    a = w - shift * np.eye(w.shape[0])
    return a, -a, mu


def sums_trace_bound(
    sx: np.ndarray,
    sy: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    L: float,
    alpha: float,
    r: float,
    eta: float,
) -> tuple[float, float]:
    """Both sides of the trace inequality.

    Returns (lhs, rhs) with
      lhs = Tr(sx A sx^T - sy B sy^T)
      rhs = L alpha r^(alpha-2) eta Tr((sx - sy)(sx - sy)^T).
    The inequality lhs <= rhs holds whenever (A, B) comes from a touching pair.
    """
    sx = np.asarray(sx, dtype=float)
    sy = np.asarray(sy, dtype=float)
    if sx.shape != sy.shape:
        raise ValueError("sigma factors must share a shape")
    m, n = sx.shape
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (n, n) or b.shape != (n, n):
        raise ValueError("A and B must be n x n")
    lhs = float(np.trace(sx @ a @ sx.T - sy @ b @ sy.T))
    diff = sx - sy
    rhs = float(L * alpha * r ** (alpha - 2.0) * eta * np.trace(diff @ diff.T))
    return lhs, rhs


def holder_constant_bound(k: ConstantBundle, alpha: float) -> float:
    """The explicit admissible-seminorm threshold; any L above it works.

    Requires alpha < c0 / (C * Lambda). When beta > beta_prime the two data
    pairs (L_f, beta) and (L_c * u_inf, beta_prime) swap roles so the smaller
    exponent always sits in the first slot.
    """
    denom = k.c0 - k.C * k.Lambda * alpha
    if denom <= 0.0:
        raise InadmissibleExponentError(
            f"alpha = {alpha} is not below c0/(C Lambda) = {k.c0 / (k.C * k.Lambda):.6g}"
        )
    pairs = sorted(
        [(k.L_f, k.beta, 0.0), (k.L_c, k.beta_prime, 1.0)], key=lambda p: p[1]
    )
    (a_lo, g_lo, p_lo), (a_hi, g_hi, p_hi) = pairs
    if a_lo == 0.0 and a_hi == 0.0:
        return 0.0

    def term(amp: float, gamma: float, extra: float) -> float:
        if amp == 0.0:
            return 0.0
        expo = extra + gamma - alpha
        if k.u_inf == 0.0:
            return amp if expo == 0.0 else 0.0
        return amp * k.u_inf**expo

    total = term(a_lo, g_lo, p_lo) + term(a_hi, g_hi, p_hi)
    return float((total / denom) ** (1.0 / (1.0 + g_hi - alpha)))


def growth_condition_margin(
    s: CarnotStructure,
    c0: float,
    Lambda: float,
    radii: Sequence[float],
    samples: int = 256,
    seed: int = 0,
) -> list[float]:
    """For each radius R, max over sampled |x| = R of Tr(P(x))/|x|^2 - c0/(2 Lambda).

    Directions mix a seeded uniform sphere sample with the axis and diagonal
    directions, so structures whose trace is extremal there are resolved
    exactly. The per-radius value is a sampled lower bound of the true sphere
    maximum.
    """
    radii = [float(r) for r in radii]
    if any(r <= 0 for r in radii) or any(b > a for a, b in zip(radii[1:], radii[:-1])):
        raise ValueError("radii must be positive and increasing")
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(samples, s.n))
    extra = list(np.eye(s.n)) + list(-np.eye(s.n)) + [np.ones(s.n)]
    for i in range(s.n):
        for j in range(i + 1, s.n):
            d = np.zeros(s.n)
            d[i] = d[j] = 1.0
            extra.append(d)
    dirs = np.vstack([dirs, extra])
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    shift = c0 / (2.0 * Lambda)
    margins = []
    for r in radii:
        frame = frames(s, r * dirs)
        best = float(np.einsum("kij,kij->k", frame, frame).max())
        margins.append(best / (r * r) - shift)
    return margins


def growth_verdict(
    s: CarnotStructure, c0: float, Lambda: float, radii: Sequence[float], seed: int = 0
) -> tuple[float | None, list[float], bool]:
    """The growth condition limsup Tr(P(x))/|x|^2 <= c0/(2 Lambda), for every
    command that checks it.

    Returns (asymptotic, margins, satisfied): the analytic margin from the
    structure's growth_limsup (None for a frame loaded from JSON, whatever its
    name), the sampled margin at each radius and the verdict: the analytic
    margin, else the one at the largest radius, is at most GROWTH_TOL.
    """
    limsup = s.growth_limsup
    asymptotic = None if limsup is None else limsup - c0 / (2.0 * Lambda)
    margins = growth_condition_margin(s, c0, Lambda, radii, seed=seed)
    margin = margins[-1] if asymptotic is None else asymptotic
    return asymptotic, margins, bool(margin <= GROWTH_TOL)
