"""Grid solver for F(D^2 u, x) - c(x) u = f(x) with Dirichlet data.

The discretization is semi-Lagrangian (Camilli-Falcone 1995): second
differences along the horizontal fields X_i(x) (rows of sigma at the node),
with multilinear interpolation at the off-grid stencil ends. Each field w
steps along w / s with s = max(|w[:m]|_inf, |w|_inf / VERTICAL_STEPS), the
first m coordinates being the horizontal block, so an arm of h_eff moves its
largest horizontal coordinate by whole cells where no face clips it: the
Heisenberg and Engel ends on the unit box land on x1/x2 nodes and interpolate
along the vertical axes alone. Arms that would leave the box are clipped to
the boundary, where the unequal-arm (Shortley-Weller) second difference keeps
the stencil monotone. That difference is exact on quadratics along the arm's
line; the stencil applies it to interpolated values, so it is exact on a
quadratic only where the ends interpolate it exactly. Cross entries of the
frame Hessian are recovered by polarization along X_i +/- X_j, so the frame
Hessian M_h(u) is linear in u and F_h(u) = sup (pucci_plus) or inf
(pucci_minus) of tr(A M_h(u)) over A with spectrum in [lambda, Lambda].

The trace kind's L_A and every directional stencil are monotone: no off-centre
weight is negative. The polarization cross term (A_ij/2)(D+ - D-) of the
Pucci kinds is not, since D- enters with a negative weight, so raising u at
one node can lower F_h at another, and Howard's convergence on those kinds
is observed rather than guaranteed.

The solver sees the scheme only through DiscreteOperator.policy_system: the
sparse L_A of the policy A that attains F_h at u, so that L_A u = F_h(u) =
tr(A M_h(u)) for every kind, and the weights at its rows' centres, which are
the Jacobi diagonal. The policy is operators.policies of the frame
Hessians M_h(u), the same rule that evaluates the continuous G: the identity
for the trace kind, whose L_A is then the one sum of its stencils, and for
the Pucci kinds a closed form for m <= 2 and LAPACK's eigh above. Every kind
is solved by Howard policy iteration (Bokanowski-Maroso-Zidani 2009). It
starts from the Dirichlet data on the faces and their transfinite blend
(transfinite_blend, Gordon-Hall 1973) in the interior, which is zero for
zero data, so such a solve starts from zero. Each step takes the policy at
the current u, measures the residual f - (L_A u - c u) once, and runs one
Jacobi-preconditioned BiCGSTAB cycle (van der Vorst 1992) on
L_A u - c u = f in the interior values from it. A Krylov restart is simply
the next step.

Each step is inexact (an inexact-Newton forcing term, Dembo-Eisenstat-Steihaug
1982): its cycle stops at max(tol, FORCING * r0), with r0 the max residual at
the start of the step, since the next step's policy discards most of any
further accuracy. Only the outer loop checks tol, so every solve still ends on
max|F_h(u) - c u - f| <= tol. The same rule holds for every kind.

Frames, coefficients and Dirichlet data are evaluated once per solve on the
(N, n) array of the nodes that need them, so c, f and the boundary callable
map (N, n) points to (N,) values.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError
from .fields import SmoothField, field_values
from .grids import Grid, GridFunction, multilinear_weights
from .operators import Coefficients, OperatorSpec, frame_hessians, g_values, policies
from .structures import frames

_ARM_EPS = 1e-12
# no coordinate of an arm moves more than VERTICAL_STEPS * h_eff
# (DiscreteOperator._arm_ends)
VERTICAL_STEPS = 4.0
FORCING = 1e-2  # a cycle stops at max(tol, FORCING * its policy step's starting residual)
STALL_STEPS = 10  # policy steps in a row without a new residual minimum that end a solve


def default_h_eff_cells(h: float) -> int:
    """Stencil half-width in cells: about 1/sqrt(h), clamped to [1, 4].

    Widening the stencil as the grid refines balances the interpolation error
    against the finite-difference truncation.
    """
    return int(np.clip(int(np.floor(1.0 / np.sqrt(h))), 1, 4))


@dataclass
class SolveConfig:
    """Iteration controls. ``boundary`` maps (N, n) face nodes to their (N,)
    Dirichlet values; ``max_iters`` caps the Krylov steps."""

    boundary: Callable[[np.ndarray], np.ndarray]
    tol: float = 1e-6
    max_iters: int = 200_000
    h_eff_cells: int | None = None

    def __post_init__(self):
        if not self.tol > 0.0:  # also rejects NaN
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class SolveReport:
    iterations: int
    final_residual: float
    converged: bool
    wall_time_s: float
    assembly_s: float
    solve_s: float  # the policy and Krylov loop alone; assembly_s + solve_s <= wall_time_s
    nnz: int  # nonzero weights of DiscreteOperator.stencils, one matrix per frame-Hessian entry
    outer_iterations: int  # policy steps, one BiCGSTAB cycle each; `iterations` counts Krylov steps
    residual_history: list  # max residual at the start of each policy step and at the end
    # the final L_A's negative off-centre weights: how many, on how many rows,
    # and the most negative (0.0 when there is none); 0 for a monotone scheme
    negative_weights: int
    negative_rows: int
    most_negative_weight: float

    def to_dict(self) -> dict:
        return {"schema_version": 4, **asdict(self)}


class DiscreteOperator:
    """Precomputed sparse stencils for the directional scheme on one grid.

    ``pairs`` lists the frame-Hessian entries the kind reads: (i, i) for every
    frame direction, and for non-trace kinds also (i, j) with i < j.
    ``stencils`` holds one CSR matrix per pair, mapping full node vectors to
    that entry of M_h at the interior nodes: the second difference D_{X_i}
    along X_i, or the polarization (D_{X_i+X_j} - D_{X_i-X_j}) / 4. So
    ``stencils[k] @ u`` is M_h(u)[pairs[k]]. The center coefficient of each
    directional row is the negated off-center row sum, so constants are
    annihilated to roundoff. No matrix stores a zero weight. ``centres[k]``
    holds stencils[k]'s weights at (row, interior[row]), the centre of each
    row, to the bit or +-0.0 where none is stored.
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
        self.grid = grid
        h = grid.h
        self.h_eff = (default_h_eff_cells(h) * h) if h_eff is None else float(h_eff)
        # interior nodes lie at least h from every face, and no component of
        # an arm's direction w / s exceeds VERTICAL_STEPS, so every arm is
        # at least min(room, h_eff) >= h / VERTICAL_STEPS in that parameter;
        # an unclipped one is h_eff
        if not (h - _ARM_EPS <= self.h_eff <= 4.0 * h + _ARM_EPS):
            raise ValueError("h_eff must lie in [h, 4h]")

        self.interior = grid.interior_indices()
        coords = grid.coords()[self.interior]
        self.coords = coords
        self._axes = np.ascontiguousarray(coords.T)
        m = structure.m
        # (m, n, n_int): each field is passed as an (n_int, n) view of contiguous rows
        frame = np.ascontiguousarray(frames(structure, coords).transpose(1, 2, 0))

        self.pairs = [(i, i) for i in range(m)]
        if spec.kind != "trace":
            self.pairs += [(i, j) for i in range(m) for j in range(i + 1, m)]
        self.stencils, self.centres = [], []
        for i, j in self.pairs:
            if i == j:
                stencil, centre = self._directional_matrix(frame[i].T)
            else:
                plus, c_plus = self._directional_matrix((frame[i] + frame[j]).T)
                minus, c_minus = self._directional_matrix((frame[i] - frame[j]).T)
                stencil, centre = (plus - minus) / 4.0, (c_plus - c_minus) / 4.0
            self.stencils.append(stencil)
            self.centres.append(centre)

        self.c_vec = field_values(coeffs.c, coords, "c")
        self.f_vec = field_values(coeffs.f, coords, "f")
        self._trace_matrix = None

    def _directional_matrix(self, w: np.ndarray):
        """Sparse second-difference operator along the per-node fields w (n_int, n),
        and its centre weights.

        Returns the (n_int x num_nodes) CSR matrix whose rows already carry
        the s^2 scaling of _arm_ends, s = max(|w[:m]|_inf, |w|_inf /
        VERTICAL_STEPS), so csr @ u approximates w^T D^2u w = s^2 v^T D^2u v
        along v = w / s at each node.
        Each row lists its plus corners, minus corners, then the centre: the
        corner-major (2^k, n_int) arm ends are stacked and interleaved into
        rows by one transposed ravel. The centre is summed over a row-major
        (n_int, 2^k) copy, in numpy's own order along each row, since a
        corner-major sum rounds differently on rows of 8 or more corners.
        scipy's sum_duplicates sorts each row by column and adds the entries
        of equal columns in the order its sort leaves them, which need not be
        the listed one; so a stored weight is the sum of its column's entries
        to within rounding, at most width * eps times the sum of their
        magnitudes. Weights that come out exactly 0 are dropped. The centre
        weights are returned as summed: a corner on a row's own node weighs
        exactly 0, since every active arm end moves a whole cell or more along
        some axis, where that corner's snapped fraction is 0 or 1.
        """
        # imported here, not at module level, so commands that build no
        # stencil do not pay for it
        import scipy.sparse as sp

        idx_p, w_p, idx_m, w_m = self._arm_ends(w)
        center = -np.ascontiguousarray((w_p + w_m).T).sum(axis=1)
        n_int, width = self.interior.size, 2 * w_p.shape[0] + 1
        indices = np.vstack([idx_p, idx_m, self.interior]).T.ravel()
        data = np.vstack([w_p, w_m, center]).T.ravel()
        indptr = np.arange(n_int + 1) * width
        mat = sp.csr_matrix((data, indices, indptr), shape=(n_int, self.grid.num_nodes))
        mat.sum_duplicates()
        mat.eliminate_zeros()
        return mat, center

    def _arm_ends(self, w: np.ndarray):
        """Interpolation stencils of the two arm ends along the per-node fields w.

        Each field steps along v = w / s, s = max(|w[:m]|_inf, |w|_inf /
        VERTICAL_STEPS) with m = structure.m, for arms a_plus, a_minus <= h_eff
        in v's parameter. So an unclipped arm moves the largest horizontal
        coordinate by exactly h_eff, a whole number of cells for the default
        width, unless the vertical part is more than VERTICAL_STEPS times
        larger; then the largest coordinate moves VERTICAL_STEPS * h_eff.
        s is continuous in x and the same for X_i + X_j and X_i - X_j, and
        for a field along one of the first m axes it is |w|_2.

        Works on w.T, one axis at a time over n_int contiguous values, and
        returns (idx_p, w_p, idx_m, w_m), each corner-major (2^k, n_int): the
        corner indices of the plus and minus ends and their weights, scaled by
        s^2 and the unequal-arm factor 2 / (a (a_plus + a_minus)). The minus
        end's room quotients are the exact negations of the plus end's. k
        counts the axes along which some end, plus or minus, leaves the node
        planes (grids.multilinear_weights), so a field that holds a coordinate
        fixed, or steps it by whole cells on every row, forms no corners along
        that axis.
        """
        grid = self.grid
        wt = w.T
        mag = np.abs(wt)
        horizontal = mag[: self.spec.structure.m].max(axis=0)
        s = np.maximum(horizontal, mag.max(axis=0) / VERTICAL_STEPS)
        active = s > _ARM_EPS
        # along +v an axis leaves room max(up, down) and along -v the same
        # quotients negated, -min(up, down); low is the minus end's room negated
        a_plus = np.full(s.shape, np.inf)
        low = np.full(s.shape, -np.inf)
        v = np.zeros(wt.shape)
        with np.errstate(divide="ignore"):
            for k, (vk, wk, x) in enumerate(zip(v, wt, self._axes)):
                np.divide(wk, s, out=vk, where=active)
                # a component within _ARM_EPS of 0 sets no room: +-inf quotients
                d = np.where(np.abs(vk) > _ARM_EPS, vk, 0.0)
                up = (grid.hi[k] - x) / d
                down = (grid.lo[k] - x) / d
                np.minimum(a_plus, np.maximum(up, down), out=a_plus)
                np.maximum(low, np.minimum(up, down), out=low)
        np.clip(a_plus, 0.0, self.h_eff, out=a_plus)
        a_minus = np.clip(-low, 0.0, self.h_eff)
        n_int = s.size
        ends = np.empty((grid.n, 2 * n_int))  # the plus ends, then the minus ends
        for k, (vk, x) in enumerate(zip(v, self._axes)):
            np.clip(x + a_plus * vk, grid.lo[k], grid.hi[k], out=ends[k, :n_int])
            np.clip(x - a_minus * vk, grid.lo[k], grid.hi[k], out=ends[k, n_int:])
        denom = a_plus + a_minus
        with np.errstate(divide="ignore", invalid="ignore"):
            cp = np.where(active, 2.0 / (a_plus * denom), 0.0)
            cm = np.where(active, 2.0 / (a_minus * denom), 0.0)
        scale = s * s

        # one call for both ends, so they share one set of pinned axes and
        # one corner count, the row width _directional_matrix assumes
        idx, wts = multilinear_weights(grid, ends)
        wts[:, :n_int] *= scale * cp
        wts[:, n_int:] *= scale * cm
        return idx[:, :n_int], wts[:, :n_int], idx[:, n_int:], wts[:, n_int:]

    def policy_system(self, u_flat: np.ndarray):
        """The sparse L_A with L_A @ v = tr(A M_h(v)) for the policy A that
        attains F_h at u_flat, so L_A @ u_flat = F_h(u_flat), and its weights
        L_A[row, interior[row]] at the centre of each row, shape (n_int,).

        Per node A is operators.policies of the frame Hessian M_h(u). The
        trace kind's policy is the identity, so its L_A is the sum of its
        stencils whatever u_flat is, built on first use and then reused.
        The centre weights are the sum of the stencils' centres, each times
        its policy weight, added in the order L_A sums its terms and from
        +0.0, so they equal the entries stored in L_A to the bit.
        Raises NumericalError when a Pucci frame Hessian is not finite.
        """
        diag = np.zeros(self.interior.size)
        if self.spec.kind == "trace":
            if self._trace_matrix is None:
                self._trace_matrix = sum(self.stencils[1:], self.stencils[0]).tocsr()
            for centre in self.centres:
                diag += centre
            return self._trace_matrix, diag
        import scipy.sparse as sp

        mats = self.frame_matrices(u_flat)
        if not np.isfinite(mats).all():
            raise NumericalError("frame Hessian is not finite: non-finite data or iterate")
        pol = policies(self.spec, mats)
        terms = []
        for (i, j), s, centre in zip(self.pairs, self.stencils, self.centres):
            w = (1 + (i != j)) * pol[:, i, j]  # tr(A M) counts i != j twice
            # diag(w) @ s: scale each row's entries and share s's index arrays
            data = s.data * np.repeat(w, np.diff(s.indptr))
            terms.append(sp.csr_matrix((data, s.indices, s.indptr), shape=s.shape))
            diag += centre * w
        return sum(terms[1:], terms[0]).tocsr(), diag

    def frame_matrices(self, u_flat: np.ndarray) -> np.ndarray:
        """The m x m frame Hessian approximation at every interior node."""
        m = self.spec.structure.m
        mats = np.zeros((self.interior.size, m, m))
        for (i, j), s in zip(self.pairs, self.stencils):
            mats[:, i, j] = mats[:, j, i] = s @ u_flat
        return mats


def manufactured_rhs(
    spec: OperatorSpec, c: Callable[[np.ndarray], np.ndarray], ustar: SmoothField
) -> Callable[[np.ndarray], np.ndarray]:
    """Right-hand side f = F(D^2 u*, x) - c(x) u*(x) for a chosen exact solution,
    as a function of (N, n) points."""

    def f(X):
        X = np.asarray(X, dtype=float)
        mats = frame_hessians(spec, X, ustar.hessian(X))
        return g_values(spec, mats) - field_values(c, X, "c") * ustar.value(X)

    return f


def transfinite_blend(g: np.ndarray) -> np.ndarray:
    """g's face values with the interior filled by their Boolean-sum (Coons)
    interpolant g - prod_k (I - P_k) g (Gordon-Hall 1973).

    P_k interpolates linearly along axis k between the two faces normal to
    it, one in-place pass per axis. Only face values are read and returned as
    they are, bit for bit. The interior reproduces, to roundoff, any sum of
    terms that each skip one axis and any multilinear function, and is +0.0
    for zero face data.
    """
    inner = (slice(1, -1),) * g.ndim
    out = np.array(g, dtype=float)
    out[inner] = 0.0
    rest = out.copy()
    for k, size in enumerate(out.shape):
        t = np.linspace(0.0, 1.0, size).reshape((-1,) + (1,) * (out.ndim - k - 1))
        lo, hi = rest.take([0], axis=k), rest.take([-1], axis=k)
        rest -= lo + t * (hi - lo)
    out[inner] -= rest[inner]
    return out


def _bicgstab(
    op: DiscreteOperator,
    lin,
    inv_diag: np.ndarray,
    r: np.ndarray,
    u_flat: np.ndarray,
    stop: float,
    max_iters: int,
    iterations: int,
):
    """One Jacobi-preconditioned BiCGSTAB cycle on lin[:, interior] - diag(c), in place on u_flat.

    inv_diag is 1 / that system's diagonal, the Jacobi preconditioner.
    The cycle starts from the residual r = f - (lin u - c u), which is also
    its shadow residual, and ends on breakdown, when the max of the recurred
    residual meets ``stop`` (solve passes max(tol, FORCING * max|r|)), or at
    max_iters. It iterates on a contiguous copy x of u_flat's interior,
    updates p, s, r and x in place and writes x back once, at the end; each
    dot product is one numpy pass, not BLAS ddot, whose threads stall on a
    busy host. Returns the Krylov step count, continued from ``iterations``.
    """
    interior, pad = op.interior, np.zeros_like(u_flat)

    def matvec(vec):
        pad[interior] = vec
        out = lin @ pad
        out -= op.c_vec * vec
        return out

    def dot(a, b):
        return float(np.einsum("i,i", a, b))

    rhat, r, x = r, r.copy(), u_flat[interior]
    p, v, s, phat, shat = (np.zeros_like(r) for _ in range(5))
    rho = alpha = omega = 1.0
    while iterations < max_iters:
        iterations += 1
        rho, rho_old = dot(rhat, r), rho
        # p = r + (rho / rho_old) (alpha / omega) (p - omega v)
        v *= omega
        p -= v
        p *= (rho / rho_old) * (alpha / omega)
        p += r
        np.multiply(inv_diag, p, out=phat)
        v = matvec(phat)
        rv = dot(rhat, v)
        if rho == 0.0 or rv == 0.0:
            break
        alpha = rho / rv
        np.subtract(r, np.multiply(alpha, v, out=s), out=s)
        np.multiply(inv_diag, s, out=shat)
        t = matvec(shat)
        tt = dot(t, t)
        omega = dot(t, s) / tt if tt > 0.0 else 0.0
        # x += alpha phat + omega shat, then r = s - omega t
        phat *= alpha
        phat += np.multiply(omega, shat, out=shat)
        x += phat
        np.subtract(s, np.multiply(omega, t, out=t), out=r)
        if omega == 0.0 or not np.abs(r).max() > stop:
            break
    u_flat[interior] = x
    return iterations


def solve(
    spec: OperatorSpec, coeffs: Coefficients, grid: Grid, cfg: SolveConfig
) -> tuple[GridFunction, SolveReport]:
    """Solve to a max-norm residual max|F_h(u) - c u - f| at or below cfg.tol.

    Howard policy iteration from the Dirichlet data on the faces and their
    transfinite_blend in the interior (zero for zero data): each step builds
    the policy matrix L_A at the current u and its centre weights
    (op.policy_system), records max|f - (L_A u - c u)| and, unless that
    meets tol or cfg.max_iters Krylov steps are spent, runs one BiCGSTAB
    cycle on L_A's system, preconditioned by 1 / (centre - c). Each cycle
    stops at max(tol, FORCING * r0), with r0 that recorded residual; only
    this loop checks tol. A Krylov restart is the next step, so the report's
    outer_iterations counts the cycles.
    Non-convergence within cfg.max_iters, or a stall of STALL_STEPS policy
    steps in a row without a new residual minimum, is reported, not raised;
    NaN or Inf in the data or the iterates raises NumericalError.
    """
    # scipy.sparse is loaded before the timers, so that the first assembly_s
    # of a process times the assembly and not the import
    importlib.import_module("scipy.sparse")
    t0 = time.perf_counter()
    h_eff = None if cfg.h_eff_cells is None else cfg.h_eff_cells * grid.h
    op = DiscreteOperator(spec, coeffs, grid, h_eff=h_eff)
    assembly_s = time.perf_counter() - t0

    u_flat = np.zeros(grid.num_nodes)
    boundary = grid.boundary_mask()
    u_flat[boundary] = field_values(cfg.boundary, grid.coords()[boundary], "boundary")
    u_flat = transfinite_blend(u_flat.reshape(grid.shape)).ravel()

    iterations = outer = stalled = 0
    history = []
    best = np.inf
    t1 = time.perf_counter()
    while True:
        lin, diag = op.policy_system(u_flat)
        r = op.f_vec - (lin @ u_flat - op.c_vec * u_flat[op.interior])
        history.append(float(np.abs(r).max()))
        if not np.isfinite(history[-1]):
            raise NumericalError(f"solve diverged by Krylov step {iterations}")
        stalled = 0 if history[-1] < best else stalled + 1
        best = min(best, history[-1])
        if history[-1] <= cfg.tol or iterations >= cfg.max_iters or stalled >= STALL_STEPS:
            break
        inv_diag = 1.0 / (diag - op.c_vec)
        stop = max(cfg.tol, FORCING * history[-1])
        iterations = _bicgstab(op, lin, inv_diag, r, u_flat, stop, cfg.max_iters, iterations)
        outer += 1
    solve_s = time.perf_counter() - t1
    # one sweep over L_A's data; a row's centre, at column interior[row], is
    # the one negative weight a monotone row has
    neg = np.flatnonzero(lin.data < 0.0)
    rows = np.searchsorted(lin.indptr, neg, side="right") - 1
    off = lin.indices[neg] != op.interior[rows]
    neg, rows = neg[off], rows[off]
    report = SolveReport(
        iterations=iterations,
        final_residual=history[-1],
        converged=history[-1] <= cfg.tol,
        wall_time_s=time.perf_counter() - t0,
        assembly_s=assembly_s,
        solve_s=solve_s,
        nnz=sum(s.nnz for s in op.stencils),
        outer_iterations=outer,
        residual_history=history,
        negative_weights=int(neg.size),
        negative_rows=int(np.count_nonzero(np.diff(rows, prepend=-1))),
        most_negative_weight=float(lin.data[neg].min(initial=0.0)),
    )
    return GridFunction(grid, u_flat.reshape(grid.shape)), report


def two_box_sensitivity(
    spec: OperatorSpec,
    coeffs: Coefficients,
    u: GridFunction,
    cfg: SolveConfig,
    pad_cells: int | None = None,
) -> float:
    """Truncation probe: solve on the box of the converged solve u enlarged by
    pad_cells nodes per side and return the max difference from u over the
    inner half-window.

    The half-window is the set of nodes within a quarter extent of the box
    center on every axis. Both solves share spacing, so compared nodes match.
    Raises ValueError when pad_cells < 1, which would compare a solve with
    itself or with a smaller box.
    """
    grid = u.grid
    if pad_cells is None:
        pad_cells = max(2, (min(grid.shape) - 1) // 4)
    if pad_cells < 1:
        raise ValueError("pad_cells must be >= 1")
    h = grid.h
    big = Grid(
        tuple(l - pad_cells * h for l in grid.lo),
        tuple(hi + pad_cells * h for hi in grid.hi),
        tuple(s + 2 * pad_cells for s in grid.shape),
    )
    u_big, rep_big = solve(spec, coeffs, big, cfg)
    if not rep_big.converged:
        raise NumericalError("two-box sensitivity needs the padded solve to converge")
    inner = u_big.values[(slice(pad_cells, -pad_cells),) * grid.n]  # at u's nodes
    lo, hi = np.array(grid.lo), np.array(grid.hi)
    near = (np.abs(grid.coords() - (lo + hi) / 2.0) <= (hi - lo) / 4.0 + 1e-12).all(axis=1)
    return float(np.abs(u.values - inner).ravel()[near].max())
