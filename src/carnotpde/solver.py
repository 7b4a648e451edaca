"""Monotone grid solver for F(D^2 u, x) - c(x) u = f(x) with Dirichlet data.

The discretization is semi-Lagrangian: second differences along the horizontal
fields X_i(x) (rows of sigma at the node), with multilinear interpolation at
the off-grid stencil ends. Arms that would leave the box are clipped to the
boundary, where the unequal-arm (Shortley-Weller) second difference keeps the
stencil monotone and exact on quadratics. Cross entries of the frame Hessian
are recovered by polarization along X_i +/- X_j, so the frame Hessian M_h(u)
is linear in u and F_h(u) = sup (pucci_plus) or inf (pucci_minus) of
tr(A M_h(u)) over A with spectrum in [lambda, Lambda]. Every kind is solved by
Howard policy iteration (Bokanowski-Maroso-Zidani 2009): fix the policy A that
attains F_h at the current u, solve the linear system L_A u - c u = f in the
interior values by Jacobi-preconditioned BiCGSTAB (van der Vorst 1992), and
repeat. The trace kind's policy is the identity, so its one system
T_int u - c u = f - T_bd g is solved in one outer step.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import BoundaryStencilError, NumericalError, PreconditionError
from .fields import SmoothField
from .grids import Grid, GridFunction, interpolate, multilinear_weights
from .operators import Coefficients, OperatorSpec, f_eval, g_eval, pucci_from_eigenvalues
from .structures import sigma_at

_ARM_EPS = 1e-12


def default_h_eff_cells(h: float) -> int:
    """Stencil half-width in cells: about 1/sqrt(h), clamped to [1, 4].

    Widening the stencil as the grid refines balances the interpolation error
    against the finite-difference truncation.
    """
    return int(np.clip(int(np.floor(1.0 / np.sqrt(h))), 1, 4))


@dataclass
class SolveConfig:
    """Iteration controls. ``boundary`` supplies Dirichlet values on box faces;
    ``max_iters`` caps the Krylov steps; ``dt`` is only checked and reported."""

    boundary: Callable[[np.ndarray], float]
    dt: float | None = None
    tol: float = 1e-6
    max_iters: int = 200_000
    h_eff_cells: int | None = None
    initial: GridFunction | None = None

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class SolveReport:
    iterations: int
    final_residual: float
    converged: bool
    dt: float
    cfl_bound: float
    wall_time_s: float
    method: str  # "bicgstab" (trace kind) or "policy" (Pucci kinds)
    assembly_s: float
    nnz: int  # stored nonzeros of the directional stencils
    outer_iterations: int  # policy steps; `iterations` counts Krylov steps
    residual_history: list  # true max residual before each policy step and after the last

    def to_dict(self) -> dict:
        return {"schema_version": 1, **asdict(self)}


def directional_second_difference(u: GridFunction, x, v, h_eff: float) -> float:
    """Plain central second difference (u(x+hv) - 2u(x) + u(x-hv)) / h^2 along v.

    Off-grid stencil ends are evaluated by multilinear interpolation. Both
    ends must lie inside the closed box; otherwise BoundaryStencilError is
    raised and the caller is expected to shrink h_eff or fall back to the
    clipped-arm difference.
    """
    grid = u.grid
    if not (0.0 < h_eff <= 4.0 * grid.h + _ARM_EPS):
        raise ValueError(f"h_eff must lie in (0, 4h], got {h_eff}")
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    lo = np.array(grid.lo)
    hi = np.array(grid.hi)
    eps = 1e-9 * grid.h
    plus = x + h_eff * v
    minus = x - h_eff * v
    for p in (plus, minus):
        if np.any(p < lo - eps) or np.any(p > hi + eps):
            raise BoundaryStencilError("stencil end leaves the grid box")
    vals = interpolate(u, np.stack([plus, x, minus]))
    return float((vals[0] - 2.0 * vals[1] + vals[2]) / (h_eff * h_eff))


def _exit_arm(lo, hi, x, dirv, h_eff):
    """Clipped arm length min(h_eff, distance to the box boundary along dirv)."""
    t = h_eff
    for k in range(x.size):
        d = dirv[k]
        if d > _ARM_EPS:
            t = min(t, (hi[k] - x[k]) / d)
        elif d < -_ARM_EPS:
            t = min(t, (lo[k] - x[k]) / d)
    return max(t, 0.0)


def _clipped_second_difference(u: GridFunction, x, v, h_eff: float) -> float:
    """Unequal-arm second difference with arms clipped at the box boundary."""
    grid = u.grid
    lo = np.array(grid.lo)
    hi = np.array(grid.hi)
    a = _exit_arm(lo, hi, x, v, h_eff)
    b = _exit_arm(lo, hi, x, -v, h_eff)
    plus = np.clip(x + a * v, lo, hi)
    minus = np.clip(x - b * v, lo, hi)
    vals = interpolate(u, np.stack([plus, x, minus]))
    return float(2.0 * ((vals[0] - vals[1]) / a + (vals[2] - vals[1]) / b) / (a + b))


def _node_frame_matrix(spec: OperatorSpec, u: GridFunction, x, h_eff: float) -> np.ndarray:
    """Assemble the m x m matrix of second differences along the frame at x."""
    s = sigma_at(spec.structure, x)
    m = spec.structure.m
    n_h = np.zeros((m, m))
    norms = np.linalg.norm(s, axis=1)
    for i in range(m):
        if norms[i] <= _ARM_EPS:
            continue
        vi = s[i] / norms[i]
        n_h[i, i] = norms[i] ** 2 * _clipped_second_difference(u, x, vi, h_eff)
    if spec.kind != "trace":
        for i in range(m):
            for j in range(i + 1, m):
                val = 0.0
                for w, sign in ((s[i] + s[j], 0.25), (s[i] - s[j], -0.25)):
                    wn = float(np.linalg.norm(w))
                    if wn <= _ARM_EPS:
                        continue
                    val += sign * wn**2 * _clipped_second_difference(u, x, w / wn, h_eff)
                n_h[i, j] = n_h[j, i] = val
    return n_h


def discrete_operator(
    spec: OperatorSpec, coeffs: Coefficients, u: GridFunction, node: int, h_eff: float | None = None
) -> float:
    """Residual F_h(u, x) - c(x) u(x) - f(x) at one interior node (flat index)."""
    grid = u.grid
    if grid.boundary_mask()[node]:
        raise PreconditionError("discrete_operator is defined on interior nodes only")
    if h_eff is None:
        h_eff = default_h_eff_cells(grid.h) * grid.h
    x = grid.node_coords(node)
    n_h = _node_frame_matrix(spec, u, x, h_eff)
    value = g_eval(spec, n_h)
    ux = float(u.flat[node])
    return value - coeffs.c(x) * ux - coeffs.f(x)


class DiscreteOperator:
    """Precomputed sparse stencils for the directional scheme on one grid.

    Builds, per frame direction (and per polarization pair for non-trace
    kinds), a sparse matrix mapping full node vectors to second-difference
    values at the interior nodes. The center coefficient of each row is set to
    the negated off-center row sum so constants are annihilated to roundoff.
    """

    def __init__(
        self,
        spec: OperatorSpec,
        coeffs: Coefficients,
        grid: Grid,
        h_eff: float | None = None,
    ):
        structure = spec.structure
        if grid.n != structure.n:
            raise ValueError(f"grid dimension {grid.n} != structure dimension {structure.n}")
        self.spec = spec
        self.coeffs = coeffs
        self.grid = grid
        h = grid.h
        self.h_eff = (default_h_eff_cells(h) * h) if h_eff is None else float(h_eff)
        if not (0.0 < self.h_eff <= 4.0 * h + _ARM_EPS):
            raise ValueError("h_eff must lie in (0, 4h]")

        self.interior = grid.interior_indices()
        coords = grid.coords()[self.interior]
        self.coords = coords
        n_int = coords.shape[0]
        m = structure.m

        frames = np.empty((n_int, m, grid.n))
        for r, p in enumerate(coords):
            frames[r] = sigma_at(structure, p)

        self.scales = np.einsum("rmi,rmi->rm", frames, frames)  # |X_i|^2 per node
        self.trace_p = self.scales.sum(axis=1)

        self.diag_ops = [
            self._directional_matrix(frames[:, i, :]) for i in range(m)
        ]
        self.cross_ops = {}
        if spec.kind != "trace":
            for i in range(m):
                for j in range(i + 1, m):
                    plus = self._directional_matrix(frames[:, i, :] + frames[:, j, :])
                    minus = self._directional_matrix(frames[:, i, :] - frames[:, j, :])
                    self.cross_ops[(i, j)] = (plus, minus)

        self.c_vec = np.array([coeffs.c(p) for p in coords])
        self.f_vec = np.array([coeffs.f(p) for p in coords])
        lam_eff = spec.bounds.Lam
        c_max = float(self.c_vec.max(initial=0.0))
        self.cfl_bound = h * h / (2.0 * lam_eff * float(self.trace_p.max()) + c_max * h * h)

        self._trace_matrix = None

    def _directional_matrix(self, w: np.ndarray):
        """Sparse second-difference operator along the per-node fields w.

        Returns (csr (n_int x num_nodes), scale) where the rows already carry
        the |w|^2 scaling, so csr @ u approximates w^T D^2u w at each node.
        """
        grid = self.grid
        lo = np.array(grid.lo)
        hi = np.array(grid.hi)
        n_int = w.shape[0]
        norms = np.linalg.norm(w, axis=1)
        active = norms > _ARM_EPS
        v = np.zeros_like(w)
        v[active] = w[active] / norms[active, None]

        arms = []
        ends = []
        for sign in (1.0, -1.0):
            dirv = sign * v
            t = np.full(n_int, self.h_eff)
            for k in range(grid.n):
                d = dirv[:, k]
                room = np.where(
                    d > _ARM_EPS,
                    (hi[k] - self.coords[:, k]) / np.where(np.abs(d) > _ARM_EPS, d, 1.0),
                    np.inf,
                )
                room = np.where(
                    d < -_ARM_EPS,
                    (lo[k] - self.coords[:, k]) / np.where(np.abs(d) > _ARM_EPS, d, 1.0),
                    room,
                )
                t = np.minimum(t, room)
            a = np.clip(t, 0.0, self.h_eff)
            arms.append(a)
            ends.append(np.clip(self.coords + a[:, None] * dirv, lo, hi))
        a_plus, a_minus = arms
        # interior nodes sit at least one spacing from every face, so active
        # arms can never collapse below h
        safe = np.where(active, np.minimum(a_plus, a_minus), np.inf)
        if float(safe.min(initial=np.inf)) < grid.h * (1.0 - 1e-9):
            raise NumericalError("stencil arm collapsed below one grid spacing")

        denom = a_plus + a_minus
        with np.errstate(divide="ignore", invalid="ignore"):
            cp = np.where(active, 2.0 / (a_plus * denom), 0.0)
            cm = np.where(active, 2.0 / (a_minus * denom), 0.0)
        scale = norms**2

        idx_p, w_p = multilinear_weights(grid, ends[0])
        idx_m, w_m = multilinear_weights(grid, ends[1])
        corners = idx_p.shape[1]
        rows = np.repeat(np.arange(n_int), corners)
        data_p = (w_p * (scale * cp)[:, None]).ravel()
        data_m = (w_m * (scale * cm)[:, None]).ravel()
        center = -(w_p * (scale * cp)[:, None] + w_m * (scale * cm)[:, None]).sum(axis=1)
        all_rows = np.concatenate([rows, rows, np.arange(n_int)])
        all_cols = np.concatenate([idx_p.ravel(), idx_m.ravel(), self.interior])
        all_data = np.concatenate([data_p, data_m, center])
        mat = sp.coo_matrix(
            (all_data, (all_rows, all_cols)), shape=(n_int, grid.num_nodes)
        ).tocsr()
        mat.sum_duplicates()
        return mat

    def trace_matrix(self):
        if self._trace_matrix is None:
            self._trace_matrix = sum(self.diag_ops[1:], self.diag_ops[0]).tocsr()
        return self._trace_matrix

    def policy_matrix(self, u_flat: np.ndarray):
        """The sparse L_A with L_A @ v = tr(A M_h(v)) for the policy A that
        attains F_h at u_flat, so L_A @ u_flat = operator_values(u_flat).

        Per node A = V diag(a) V^T from the eigenpairs of M_h(u), with
        a = Lambda on positive eigenvalues and lambda otherwise (swapped for
        pucci_minus). The trace kind's policy is the identity.
        """
        if self.spec.kind == "trace":
            return self.trace_matrix()
        lam, Lam = self.spec.bounds.lam, self.spec.bounds.Lam
        if self.spec.kind == "pucci_minus":
            lam, Lam = Lam, lam
        evals, vecs = np.linalg.eigh(self.frame_matrices(u_flat))
        pol = np.einsum("rik,rk,rjk->rij", vecs, np.where(evals > 0.0, Lam, lam), vecs)
        terms = [sp.diags(pol[:, i, i]) @ op for i, op in enumerate(self.diag_ops)]
        terms += [sp.diags(pol[:, i, j] / 2) @ (p - q) for (i, j), (p, q) in self.cross_ops.items()]
        return sum(terms[1:], terms[0]).tocsr()

    def frame_matrices(self, u_flat: np.ndarray) -> np.ndarray:
        """The m x m frame Hessian approximation at every interior node."""
        m = self.spec.structure.m
        n_int = self.interior.size
        mats = np.zeros((n_int, m, m))
        for i, op in enumerate(self.diag_ops):
            mats[:, i, i] = op @ u_flat
        for (i, j), (plus, minus) in self.cross_ops.items():
            val = 0.25 * (plus @ u_flat - minus @ u_flat)
            mats[:, i, j] = val
            mats[:, j, i] = val
        return mats

    def operator_values(self, u_flat: np.ndarray) -> np.ndarray:
        """G applied to the frame Hessians at every interior node."""
        kind = self.spec.kind
        if kind == "trace":
            return self.trace_matrix() @ u_flat
        lam, Lam = self.spec.bounds.lam, self.spec.bounds.Lam
        mats = self.frame_matrices(u_flat)
        m = mats.shape[1]
        if m == 1:
            evals = mats[:, :, 0]
        elif m == 2:
            mid = (mats[:, 0, 0] + mats[:, 1, 1]) / 2.0
            rad = np.sqrt(((mats[:, 0, 0] - mats[:, 1, 1]) / 2.0) ** 2 + mats[:, 0, 1] ** 2)
            evals = np.stack([mid - rad, mid + rad], axis=1)
        else:
            evals = np.linalg.eigvalsh(mats)
        return pucci_from_eigenvalues(kind, lam, Lam, evals)

    def residual(self, u_flat: np.ndarray) -> np.ndarray:
        return self.operator_values(u_flat) - self.c_vec * u_flat[self.interior] - self.f_vec


def manufactured_rhs(
    spec: OperatorSpec, c: Callable[[np.ndarray], float], ustar: SmoothField
) -> Callable[[np.ndarray], float]:
    """Right-hand side f = F(D^2 u*, x) - c(x) u*(x) for a chosen exact solution."""

    def f(x):
        x = np.asarray(x, dtype=float)
        return f_eval(spec, ustar.hessian(x), x) - c(x) * ustar.value(x)

    return f


def _bicgstab(op: DiscreteOperator, lin, u_flat: np.ndarray, cfg: SolveConfig, iterations: int):
    """Jacobi-preconditioned BiCGSTAB on lin[:, interior] - diag(c), in place on u_flat.

    It (re)starts, with the true linear residual f - (lin u - c u) as shadow
    residual, at the start, on breakdown and when the recurred residual meets
    tol. Returns the Krylov step count, continued from ``iterations`` and
    capped at cfg.max_iters.
    """
    interior, pad = op.interior, np.zeros_like(u_flat)
    inv_diag = 1.0 / (np.asarray(lin[np.arange(interior.size), interior]).ravel() - op.c_vec)

    def matvec(x):
        pad[interior] = x
        return lin @ pad - op.c_vec * x

    def dot(a, b):  # numpy's own sum, not BLAS ddot, whose threads stall on a busy host
        return float(np.sum(a * b))

    while True:
        r = -(lin @ u_flat - op.c_vec * u_flat[interior] - op.f_vec)
        res = float(np.abs(r).max())
        if not np.isfinite(res):
            raise NumericalError(f"BiCGSTAB diverged by step {iterations}")
        if res <= cfg.tol or iterations >= cfg.max_iters:
            return iterations
        rhat, rho, alpha, omega, p, v = r.copy(), 1.0, 1.0, 1.0, 0.0, 0.0
        while iterations < cfg.max_iters:
            iterations += 1
            rho, rho_old = dot(rhat, r), rho
            p = r + (rho / rho_old) * (alpha / omega) * (p - omega * v)
            phat = inv_diag * p
            v = matvec(phat)
            rv = dot(rhat, v)
            if rho == 0.0 or rv == 0.0:
                break
            alpha = rho / rv
            s = r - alpha * v
            shat = inv_diag * s
            t = matvec(shat)
            tt = dot(t, t)
            omega = dot(t, s) / tt if tt > 0.0 else 0.0
            u_flat[interior] += alpha * phat + omega * shat
            r = s - omega * t
            if omega == 0.0 or not np.abs(r).max() > cfg.tol:
                break


def solve(
    spec: OperatorSpec, coeffs: Coefficients, grid: Grid, cfg: SolveConfig
) -> tuple[GridFunction, SolveReport]:
    """Solve to a max-norm residual max|F_h(u) - c u - f| at or below cfg.tol.

    Howard policy iteration: each outer step fixes the policy attaining F_h at
    the current u (op.policy_matrix) and solves its linear system by BiCGSTAB
    to tol, until the true residual meets tol. The trace kind takes one outer
    step. cfg.dt drives no iteration, but one above the CFL bound still raises
    ValueError. Non-convergence within cfg.max_iters Krylov steps is reported,
    not raised; NaN or Inf in the iterates raises NumericalError.
    """
    t0 = time.perf_counter()
    h_eff = None if cfg.h_eff_cells is None else cfg.h_eff_cells * grid.h
    op = DiscreteOperator(spec, coeffs, grid, h_eff=h_eff)
    assembly_s = time.perf_counter() - t0

    if cfg.dt is None:
        dt = 0.995 * op.cfl_bound
    else:
        dt = float(cfg.dt)
        if dt > op.cfl_bound * (1.0 + 1e-12):
            raise ValueError(
                f"dt = {dt:.3e} violates the CFL bound {op.cfl_bound:.3e}"
            )
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    u_flat = np.zeros(grid.num_nodes)
    boundary = grid.boundary_mask()
    coords = grid.coords()
    for idx in np.nonzero(boundary)[0]:
        u_flat[idx] = cfg.boundary(coords[idx])
    if cfg.initial is not None:
        u_flat[op.interior] = cfg.initial.flat[op.interior]

    def true_residual(iterations):
        res = float(np.abs(op.residual(u_flat)).max())
        if not np.isfinite(res):
            raise NumericalError(f"solve diverged by Krylov step {iterations}")
        return res

    iterations = outer = 0
    history = [true_residual(0)]
    while history[-1] > cfg.tol and iterations < cfg.max_iters:
        start = iterations
        iterations = _bicgstab(op, op.policy_matrix(u_flat), u_flat, cfg, iterations)
        outer += 1
        history.append(true_residual(iterations))
        if iterations == start:  # u already solves this policy's system to tol
            break
    nnz = sum(a.nnz for a in op.diag_ops)
    nnz += sum(plus.nnz + minus.nnz for plus, minus in op.cross_ops.values())
    report = SolveReport(
        iterations=iterations,
        final_residual=history[-1],
        converged=history[-1] <= cfg.tol,
        dt=dt,
        cfl_bound=op.cfl_bound,
        wall_time_s=time.perf_counter() - t0,
        method="bicgstab" if spec.kind == "trace" else "policy",
        assembly_s=assembly_s,
        nnz=nnz,
        outer_iterations=outer,
        residual_history=history,
    )
    return GridFunction(grid, u_flat.reshape(grid.shape)), report


def two_box_sensitivity(
    spec: OperatorSpec,
    coeffs: Coefficients,
    grid: Grid,
    cfg: SolveConfig,
    pad_cells: int | None = None,
) -> float:
    """Truncation probe: re-solve on a box enlarged by pad_cells nodes per side
    and return the max solution difference over the inner half-window.

    The half-window is the set of nodes within a quarter extent of the box
    center on every axis. Both solves share spacing, so compared nodes match.
    """
    if pad_cells is None:
        pad_cells = max(2, (min(grid.shape) - 1) // 4)
    h = grid.h
    big = Grid(
        tuple(l - pad_cells * h for l in grid.lo),
        tuple(hi + pad_cells * h for hi in grid.hi),
        tuple(s + 2 * pad_cells for s in grid.shape),
    )
    u_small, rep_small = solve(spec, coeffs, grid, cfg)
    u_big, rep_big = solve(spec, coeffs, big, cfg)
    if not (rep_small.converged and rep_big.converged):
        raise NumericalError("two-box sensitivity needs both solves to converge")
    center = [(l + hi) / 2.0 for l, hi in zip(grid.lo, grid.hi)]
    quarter = [(hi - l) / 4.0 for l, hi in zip(grid.lo, grid.hi)]
    small_vals = u_small.values
    big_vals = u_big.values
    worst = 0.0
    for idx in np.ndindex(grid.shape):
        x = [grid.lo[k] + h * idx[k] for k in range(grid.n)]
        if all(abs(x[k] - center[k]) <= quarter[k] + 1e-12 for k in range(grid.n)):
            big_idx = tuple(idx[k] + pad_cells for k in range(grid.n))
            worst = max(worst, abs(float(small_vals[idx]) - float(big_vals[big_idx])))
    return worst
