"""Reference forms the test suite checks the package against.

No command, script or benchmark reads these, so they live on the test side:
the one-matrix forms of G and F, the randomized sandwich and degenerate
ellipticity checks, the Holder seminorm over the pair scan, multilinear
interpolation of a grid function and its full 2^n-corner weights, the
row-major arm ends and stencil build of DiscreteOperator, and the
group laws of the presets whose frames are left-invariant fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from carnotpde import symmat
from carnotpde.grids import GridFunction, multilinear_weights
from carnotpde.holder import _offset_table
from carnotpde.operators import OperatorSpec, frame_hessians, g_values
from carnotpde.solver import _ARM_EPS, VERTICAL_STEPS
from carnotpde.structures import CarnotStructure, as_point


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


def holder_seminorm(u: GridFunction, alpha: float) -> float:
    """max over node pairs of |u(x) - u(y)| / |x - y|^alpha."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    if u.grid.num_nodes < 2:
        raise ValueError("need at least two nodes")
    return max(0.0, _offset_table(u).max_quotient(alpha))


def interpolate(gf: GridFunction, pts: np.ndarray) -> np.ndarray:
    """The grid function at the (K, n) points, one point per row."""
    idx, w = multilinear_weights(gf.grid, np.asarray(pts, dtype=float).T)
    return (gf.flat[idx] * w).sum(axis=0)


def _ref_multilinear_weights(grid, pts):
    """The per-corner loop multilinear_weights replaced: all 2^n corners, one
    np.where and one np.prod per corner, each corner's factors multiplied in
    axis order. Takes axis-major (n, K) points and returns corner-major
    (2^n, K) arrays, as multilinear_weights does."""
    pts = np.asarray(pts, dtype=float).T
    n = grid.n
    t = (pts - np.array(grid.lo)) / grid.h
    base = np.clip(np.floor(t).astype(np.int64), 0, np.array(grid.shape) - 2)
    frac = np.clip(t - base, 0.0, 1.0)
    frac[frac < 1e-9] = 0.0
    frac[frac > 1.0 - 1e-9] = 1.0
    strides = np.array([int(np.prod(grid.shape[k + 1 :])) for k in range(n)], dtype=np.int64)
    base_flat = base @ strides
    idx = np.empty((pts.shape[0], 2**n), dtype=np.int64)
    w = np.empty((pts.shape[0], 2**n))
    for c in range(2**n):
        bits = np.array([(c >> k) & 1 for k in range(n)], dtype=np.int64)
        idx[:, c] = base_flat + bits @ strides
        w[:, c] = np.prod(np.where(bits, frac, 1.0 - frac), axis=1)
    return idx.T, w.T


def _ref_arm_ends(op, w):
    """The row-major arm ends DiscreteOperator._arm_ends replaced: fields and
    ends as (n_int, n) rows, each field divided by
    max(|w[:m]|_inf, |w|_inf / VERTICAL_STEPS), the arm lengths from
    room.min(axis=1) over both room quotients of each sign, and C-contiguous
    (n_int, 2^k) results. The corners come from multilinear_weights,
    transposed into rows."""
    grid = op.grid
    lo = np.array(grid.lo)
    hi = np.array(grid.hi)
    aw = np.abs(w)
    norms = np.maximum(aw[:, : op.spec.structure.m].max(axis=1), aw.max(axis=1) / VERTICAL_STEPS)
    active = norms > _ARM_EPS
    v = np.zeros_like(w)
    v[active] = w[active] / norms[active, None]

    n_int = w.shape[0]
    arms = []
    ends = np.empty((2, n_int, grid.n))  # the plus ends, then the minus ends
    for end, sign in zip(ends, (1.0, -1.0)):
        dirv = sign * v
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(
                dirv > _ARM_EPS,
                (hi - op.coords) / dirv,
                np.where(dirv < -_ARM_EPS, (lo - op.coords) / dirv, np.inf),
            )
        a = np.clip(room.min(axis=1), 0.0, op.h_eff)
        arms.append(a)
        np.clip(op.coords + a[:, None] * dirv, lo, hi, out=end)
    a_plus, a_minus = arms
    denom = a_plus + a_minus
    with np.errstate(divide="ignore", invalid="ignore"):
        cp = np.where(active, 2.0 / (a_plus * denom), 0.0)
        cm = np.where(active, 2.0 / (a_minus * denom), 0.0)
    scale = norms**2

    rows = multilinear_weights(grid, ends.reshape(-1, grid.n).T)
    idx, wts = (np.ascontiguousarray(a.T) for a in rows)
    wts[:n_int] *= (scale * cp)[:, None]
    wts[n_int:] *= (scale * cm)[:, None]
    return idx[:n_int], wts[:n_int], idx[n_int:], wts[n_int:]


def _ref_directional_matrix(op, w):
    """The row-major CSR build DiscreteOperator._directional_matrix replaced,
    on _ref_arm_ends: rows from column_stack, the centre summed along each
    C-contiguous (n_int, 2^k) row."""
    import scipy.sparse as sp

    idx_p, w_p, idx_m, w_m = _ref_arm_ends(op, w)
    center = -(w_p + w_m).sum(axis=1)
    n_int, width = w.shape[0], 2 * w_p.shape[1] + 1
    indices = np.column_stack([idx_p, idx_m, op.interior]).ravel()
    data = np.column_stack([w_p, w_m, center]).ravel()
    indptr = np.arange(n_int + 1) * width
    mat = sp.csr_matrix((data, indices, indptr), shape=(n_int, op.grid.num_nodes))
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return mat


def _mul_heisenberg(x, y):
    return np.array(
        [
            x[0] + y[0],
            x[1] + y[1],
            x[2] + y[2] + 2.0 * (x[1] * y[0] - x[0] * y[1]),
        ]
    )


def _mul_engel(x, y):
    return np.array(
        [
            x[0] + y[0],
            x[1] + y[1],
            x[2] + y[2] - y[0] * x[1],
            x[3] + y[3] + 0.5 * y[0] * y[0] * x[1] - y[0] * x[2],
        ]
    )


# keyed by preset name; every euclidean:<n> shares the key "euclidean"
GROUP_LAWS = {
    "euclidean": lambda x, y: x + y,
    "heisenberg1": _mul_heisenberg,
    "engel1": _mul_engel,
}


def group_mul(s: CarnotStructure, x, y) -> np.ndarray:
    law = GROUP_LAWS[s.name.partition(":")[0]]
    return np.asarray(law(as_point(x, s.n), as_point(y, s.n)), dtype=float)
