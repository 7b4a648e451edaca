"""Unit tests for the directional scheme and its policy-iteration solve: Howard
steps of one BiCGSTAB cycle each, the trace kind's policy fixed, checked
against the damped explicit iteration and the per-node scheme kept here as
references."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from _oracles import (
    _ref_bicgstab,
    _ref_directional_matrix,
    _ref_frame_hessians,
    _ref_multilinear_weights,
    _ref_policies,
    _ref_stacked_hessian,
    centre_weights,
    f_eval,
    g_eval,
    interpolate,
)
from carnotpde import (
    CarnotStructure,
    Coefficients,
    DiscreteOperator,
    Grid,
    GridFunction,
    SolveConfig,
    constant_field,
    from_callable,
    manufactured_rhs,
    p_matrix_at,
    polynomial_field,
    preset,
    pucci_operator,
    sigma_at,
    solve,
    structure_from_json,
    trace_operator,
    two_box_sensitivity,
)
from carnotpde import operators as operators_module
from carnotpde import solver as solver_module
from carnotpde.errors import NumericalError
from carnotpde.operators import g_values, policies
from carnotpde.solver import STALL_STEPS, default_h_eff_cells, transfinite_blend
from carnotpde.structures import _PRESETS, frames

HEIS = preset("heisenberg1")
EUC2 = preset("euclidean:2")
# X1 = (1, x2) with X2 = (0, x1) or X2 = (0, 1)
X2_VANISHES = {
    "n": 2, "m": 2, "entries": [[[[1.0, 0, 0]], [[1.0, 0, 1]]], [[[0.0, 0, 0]], [[1.0, 1, 0]]]]
}
ONE_SIDE_PINNED = {
    "n": 2, "m": 2, "entries": [[[[1.0, 0, 0]], [[1.0, 0, 1]]], [[[0.0, 0, 0]], [[1.0, 0, 0]]]]
}
_ARM_EPS = 1e-12
# constant frames: diag(1, 10), and the unit axes rotated by 30 degrees
DIAG_1_10 = {
    "n": 2, "m": 2, "entries": [[[[1.0, 0, 0]], [[0.0, 0, 0]]], [[[0.0, 0, 0]], [[10.0, 0, 0]]]]
}
_COS, _SIN = math.cos(math.pi / 6), math.sin(math.pi / 6)
ROTATED = {
    "n": 2, "m": 2, "entries": [[[[_COS, 0, 0]], [[_SIN, 0, 0]]], [[[-_SIN, 0, 0]], [[_COS, 0, 0]]]]
}


def constant_coeffs(n, c_value=1.0, f_value=0.0, **holder):
    data = dict(L_c=0.0, beta=1.0, L_f=0.0, beta_prime=1.0, c0=c_value)
    data.update(holder)
    c = constant_field(c_value, n).value
    return Coefficients(c=c, f=constant_field(f_value, n).value, **data)


def heisenberg_instance(c_value=1.0, shape=(9, 9, 9), structure=HEIS):
    spec = trace_operator(structure)
    ustar = polynomial_field([[1.0, 2, 0, 0], [1.0, 0, 1, 0]], 3)  # x1^2 + x2
    c = constant_field(c_value, 3).value
    f = manufactured_rhs(spec, c, ustar)
    coeffs = Coefficients(
        c=c, f=f, L_c=0.0, beta=1.0, L_f=c_value * np.sqrt(5.0), beta_prime=1.0, c0=c_value
    )
    grid = Grid((-1, -1, -1), (1, 1, 1), shape)
    cfg = SolveConfig(boundary=ustar.value)
    return spec, coeffs, grid, cfg, ustar


def pucci_terms(n):
    pad = [0] * (n - 2)
    return [[1.0, 4, 0, *pad], [1.0, 1, 1, *pad], [-1.0, 0, 2, *pad]]


def pucci_instance(kind, structure=EUC2, c_value=1.0, shape=(17, 17)):
    """u* = x1^4 + x1 x2 - x2^2 (Hessian of mixed sign) under the (1, 2) Pucci kind."""
    spec = pucci_operator(structure, 1.0, 2.0, plus=kind == "pucci_plus")
    ustar = polynomial_field(pucci_terms(structure.n), structure.n)
    c = constant_field(c_value, structure.n).value
    coeffs = Coefficients(
        c=c, f=manufactured_rhs(spec, c, ustar), L_c=0.0, beta=1.0, L_f=1.0, beta_prime=1.0,
        c0=c_value,
    )
    grid = Grid((-1,) * structure.n, (1,) * structure.n, shape)
    return spec, coeffs, grid, SolveConfig(boundary=ustar.value), ustar


def _closed_form_residual(op, u_flat):
    """F_h(u) - c u - f with F_h = G of the frame Hessians in closed form,
    independent of the policy matrices the solve uses."""
    values = g_values(op.spec, op.frame_matrices(u_flat))
    return values - op.c_vec * u_flat[op.interior] - op.f_vec


def _explicit_reference(spec, coeffs, grid, cfg):
    """The damped explicit iteration u <- u + dt (F_h(u) - c u - f) that solved
    the Pucci kinds before policy iteration, with dt just under the CFL bound
    h^2 / (2 Lambda max Tr P + max(c) h^2) that makes the update order
    preserving. Returns the node values and the true max residual."""
    op = DiscreteOperator(spec, coeffs, grid)
    frame = frames(spec.structure, op.coords)
    trace_p_max = np.einsum("rmi,rmi->r", frame, frame).max()  # Tr P = sum of |X_i|^2
    h2 = grid.h**2
    dt = 0.995 * h2 / (2.0 * spec.bounds.Lam * trace_p_max + op.c_vec.max(initial=0.0) * h2)
    u_flat, mask = np.zeros(grid.num_nodes), grid.boundary_mask()
    u_flat[mask] = cfg.boundary(grid.coords()[mask])
    for _ in range(cfg.max_iters):
        new_int = u_flat[op.interior] + dt * _closed_form_residual(op, u_flat)
        step = float(np.abs(new_int - u_flat[op.interior]).max()) / dt
        assert np.isfinite(step)
        u_flat[op.interior] = new_int
        if step <= cfg.tol:
            exact = float(np.abs(_closed_form_residual(op, u_flat)).max())
            if exact <= cfg.tol:
                return u_flat, exact
    raise AssertionError("explicit reference did not converge")


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


def _clipped_second_difference(u, x, v, h_eff):
    """Unequal-arm second difference with arms clipped at the box boundary."""
    lo = np.array(u.grid.lo)
    hi = np.array(u.grid.hi)
    a = _exit_arm(lo, hi, x, v, h_eff)
    b = _exit_arm(lo, hi, x, -v, h_eff)
    plus = np.clip(x + a * v, lo, hi)
    minus = np.clip(x - b * v, lo, hi)
    vals = interpolate(u, np.stack([plus, x, minus]))
    return float(2.0 * ((vals[0] - vals[1]) / a + (vals[2] - vals[1]) / b) / (a + b))


def _arm_scale(w, m):
    """The field's step normalizer: its largest horizontal component, or a
    quarter of its largest component if that is more."""
    return max(float(np.abs(w[:m]).max()), float(np.abs(w).max()) / 4.0)


def _node_residual(spec, coeffs, u, node, h_eff=None):
    """The scheme one interior node at a time, kept as a test oracle for
    DiscreteOperator: F_h(u, x) - c(x) u(x) - f(x) at the flat index node,
    from scalar clipped second differences along the frame at x and, for the
    Pucci kinds, along X_i +/- X_j for the polarized cross entries, each
    along w / _arm_scale(w) and weighted by _arm_scale(w)^2."""
    grid = u.grid
    if h_eff is None:
        h_eff = default_h_eff_cells(grid.h) * grid.h
    x = grid.coords()[node]
    s = sigma_at(spec.structure, x)
    m = spec.structure.m
    n_h = np.zeros((m, m))
    norms = [_arm_scale(w, m) for w in s]
    for i in range(m):
        if norms[i] > _ARM_EPS:
            n_h[i, i] = norms[i] ** 2 * _clipped_second_difference(u, x, s[i] / norms[i], h_eff)
    if spec.kind != "trace":
        for i in range(m):
            for j in range(i + 1, m):
                val = 0.0
                for w, sign in ((s[i] + s[j], 0.25), (s[i] - s[j], -0.25)):
                    wn = _arm_scale(w, m)
                    if wn > _ARM_EPS:
                        val += sign * wn**2 * _clipped_second_difference(u, x, w / wn, h_eff)
                n_h[i, j] = n_h[j, i] = val
    c, f = coeffs.c(x[None, :])[0], coeffs.f(x[None, :])[0]
    return g_eval(spec, n_h) - c * float(u.flat[node]) - f


def solve_instance(name):
    if name == "trace":
        return heisenberg_instance()[:4]
    return pucci_instance(name)[:4]


def residual_at(op, u, nodes):
    """The closed-form residual F_h(u) - c u - f at the given flat node indices."""
    rows = np.searchsorted(op.interior, nodes)
    assert np.array_equal(op.interior[rows], nodes)
    return _closed_form_residual(op, u.flat)[rows]


def directional_value(u, x, v, h_eff):
    """The stencil row at node x of the one-field frame v, applied to u."""
    grid = u.grid
    v = np.asarray(v, dtype=float)
    frame = CarnotStructure("row", grid.n, 1, sigma=lambda X: np.tile(v, (len(X), 1, 1)))
    op = DiscreteOperator(trace_operator(frame), constant_coeffs(grid.n), grid, h_eff=h_eff)
    row = int(np.flatnonzero(np.abs(op.coords - x).max(axis=1) <= 1e-12)[0])
    return float((op.stencils[0] @ u.flat)[row])


class TestDirectionalDifference:
    def test_affine_annihilated(self):
        g = Grid((-1, -1), (1, 1), (9, 9))
        u = from_callable(g, lambda X: 3.0 + 2.0 * X[:, 0] - X[:, 1])
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        got = directional_value(u, [0.0, 0.0], v, g.h)
        assert got == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("cells", [1, 2, 3])
    def test_axis_quadratic_exact(self, cells):
        g = Grid((-1, -1, -1), (1, 1, 1), (9, 9, 9))
        u = from_callable(g, lambda X: X[:, 0] ** 2)
        got = directional_value(u, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], cells * g.h)
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_mixed_quadratic_along_diagonal(self):
        # u = x1 x2 is multilinear, so interpolation is exact and the
        # second derivative along the diagonal is recovered sharply
        g = Grid((-1, -1, -1), (1, 1, 1), (9, 9, 9))
        u = from_callable(g, lambda X: X[:, 0] * X[:, 1])
        v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        got = directional_value(u, [0.0, 0.0, 0.0], v, g.h)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_arm_leaving_box_is_clipped(self):
        # the arm toward the face is cut to the one spacing left; the
        # unequal-arm difference is still exact on a quadratic along the axis
        g = Grid((-1, -1), (1, 1), (9, 9))
        u = from_callable(g, lambda X: X[:, 0] ** 2 - 3.0 * X[:, 0])
        got = directional_value(u, [0.75, 0.0], [1.0, 0.0], 4.0 * g.h)
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_h_eff_range_validated(self):
        g = Grid((-1, -1), (1, 1), (9, 9))
        u = from_callable(g, lambda X: np.zeros(len(X)))
        with pytest.raises(ValueError):
            directional_value(u, [0.0, 0.0], [1.0, 0.0], 5.0 * g.h)

    def test_h_eff_below_one_spacing_rejected(self):
        # h_eff below h is rejected when the operator is built; h itself builds
        g = Grid((-1, -1), (1, 1), (9, 9))
        u = from_callable(g, lambda X: X[:, 0] ** 2)
        for cells in (0.5, 0.99):
            with pytest.raises(ValueError, match=r"\[h, 4h\]"):
                directional_value(u, [0.0, 0.0], [1.0, 0.0], cells * g.h)
        assert directional_value(u, [0.0, 0.0], [1.0, 0.0], g.h) == pytest.approx(2.0, rel=1e-12)


class TestDiscreteOperator:
    def test_constant_solution_zero_residual(self):
        spec = trace_operator(HEIS)
        k = 2.0
        coeffs = constant_coeffs(3, f_value=-k)
        grid = Grid((-1, -1, -1), (1, 1, 1), (9, 9, 9))
        u = from_callable(grid, lambda X: np.full(len(X), k))
        op = DiscreteOperator(spec, coeffs, grid, h_eff=grid.h)
        node = grid.interior_indices()[17]
        assert abs(residual_at(op, u, [node])[0]) <= 1e-12
        assert abs(_node_residual(spec, coeffs, u, node, h_eff=grid.h)) <= 1e-12

    def test_manufactured_residual_small(self):
        spec, coeffs, grid, _, ustar = heisenberg_instance()
        u = from_callable(grid, ustar.value)
        op = DiscreteOperator(spec, coeffs, grid)
        worst = np.abs(residual_at(op, u, grid.interior_indices()[:80])).max()
        assert worst <= 2.5 * grid.h

    def test_engel_quadratic(self):
        engel = preset("engel1")
        spec = trace_operator(engel)
        ustar = polynomial_field([[1.0, 0, 2, 0, 0]], 4)  # x2^2
        coeffs = Coefficients(
            c=constant_field(1.0, 4).value,
            f=lambda X: 2.0 - ustar.value(X),
            L_c=0.0,
            beta=1.0,
            L_f=2.0,
            beta_prime=1.0,
            c0=1.0,
        )
        grid = Grid((-1,) * 4, (1,) * 4, (7, 7, 7, 7))
        u = from_callable(grid, ustar.value)
        op = DiscreteOperator(spec, coeffs, grid)
        worst = np.abs(residual_at(op, u, grid.interior_indices()[:60])).max()
        assert worst <= 2.5 * grid.h

    def test_consistency_on_quadratics(self):
        # interior nodes at least 2h from the boundary reproduce
        # F(D^2 q, x) - c q - f up to the multilinear interpolation error of
        # the stencil ends, which for a quadratic is bounded by
        # sum_k |d_kk q| h^2 / 4 per end; scaled by the frame weights this
        # gives Tr P * sum_k |d_kk q| * h^2 / (2 h_eff^2), an O(h) envelope
        # under the default stencil-width policy
        rng = np.random.default_rng(6)
        for struct, spec in ((HEIS, trace_operator(HEIS)), (EUC2, pucci_operator(EUC2, 1.0, 2.0))):
            n = struct.n
            terms = []
            for i in range(n):
                terms.append([float(rng.normal()), *(2 if k == i else 0 for k in range(n))])
                terms.append([float(rng.normal()), *(1 if k == i else 0 for k in range(n))])
            terms.append([float(rng.normal()), *([1] * 2 + [0] * (n - 2))])
            q = polynomial_field(terms, n)
            coeffs = constant_coeffs(n)
            grid = Grid((-1,) * n, (1,) * n, (17,) * n)
            h_eff = default_h_eff_cells(grid.h) * grid.h
            u = from_callable(grid, q.value)
            coords = grid.coords()
            interior = grid.interior_indices()
            deep = [
                idx
                for idx in interior
                if all(
                    min(coords[idx][k] - grid.lo[k], grid.hi[k] - coords[idx][k]) >= 2 * grid.h
                    for k in range(n)
                )
            ]
            hess_diag_sum = sum(abs(q.hessian(np.zeros((1, n)))[0, k, k]) for k in range(n))
            trp_max = max(np.trace(p_matrix_at(struct, coords[idx])) for idx in deep)
            envelope = trp_max * hess_diag_sum * grid.h**2 / h_eff**2
            picked = deep[:: max(1, len(deep) // 64)]
            scheme = residual_at(DiscreteOperator(spec, coeffs, grid), u, picked)
            worst = 0.0
            for idx, value in zip(picked, scheme):
                x = coords[idx][None, :]
                exact = f_eval(spec, q.hessian(x)[0], x[0]) - coeffs.c(x)[0] * q.value(x)[0]
                exact -= coeffs.f(x)[0]
                worst = max(worst, abs(value - exact))
            assert worst <= envelope

    def test_single_node_matches_vectorized(self):
        spec, coeffs, grid, _, ustar = heisenberg_instance()
        op = DiscreteOperator(spec, coeffs, grid)
        rng = np.random.default_rng(7)
        u = from_callable(grid, lambda X: np.sin(X[:, 0]) + X[:, 1] * X[:, 2])
        res = _closed_form_residual(op, u.flat)
        for pick in rng.integers(0, op.interior.size, size=24):
            node = int(op.interior[pick])
            single = _node_residual(spec, coeffs, u, node)
            assert single == pytest.approx(float(res[pick]), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("kind", ["pucci_plus", "pucci_minus"])
    @pytest.mark.parametrize("structure, shape", [("heisenberg1", (9, 9, 9)), ("engel1", (7,) * 4)])
    def test_single_node_matches_vectorized_pucci(self, kind, structure, shape):
        # the polarized cross stencils, including clipped arms next to the faces
        spec, coeffs, grid, _, _ = pucci_instance(kind, preset(structure), shape=shape)
        op = DiscreteOperator(spec, coeffs, grid)
        rng = np.random.default_rng(8)
        u = from_callable(grid, lambda X: np.sin(X[:, 0] + 2.0 * X[:, 1]) + X[:, 1] * X[:, 2] ** 2)
        res = _closed_form_residual(op, u.flat)
        for pick in rng.integers(0, op.interior.size, size=24):
            single = _node_residual(spec, coeffs, u, int(op.interior[pick]))
            assert single == pytest.approx(float(res[pick]), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize(
        "kind, structure, shape",
        [
            ("trace", "heisenberg1", (9, 9, 9)),
            ("pucci_plus", "heisenberg1", (9, 9, 9)),
            ("pucci_minus", "engel1", (7,) * 4),
            ("pucci_plus", "euclidean:2", (17, 17)),
        ],
    )
    def test_stencil_csr_matches_coo_assembly(self, kind, structure, shape):
        # the reference is the COO assembly the direct CSR build replaced:
        # triplets grouped as all plus corners, all minus corners, then the
        # centres, converted to CSR with duplicate columns summed and zero
        # weights dropped
        if kind == "trace":
            spec, coeffs, grid, _, _ = heisenberg_instance(shape=shape)
        else:
            spec, coeffs, grid, _, _ = pucci_instance(kind, preset(structure), shape=shape)
        op = DiscreteOperator(spec, coeffs, grid)
        frame = frames(spec.structure, op.coords)
        m = spec.structure.m
        fields = [frame[:, i, :] for i in range(m)]
        if kind != "trace":
            pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
            fields += [frame[:, i, :] + s * frame[:, j, :] for i, j in pairs for s in (1, -1)]
        n_int = op.interior.size
        for w in fields:
            # row-major (n_int, 2^k) copies of the corner-major arm ends
            idx_p, w_p, idx_m, w_m = (np.ascontiguousarray(a.T) for a in op._arm_ends(w))
            corner_rows = np.repeat(np.arange(n_int), idx_p.shape[1])
            rows = np.concatenate([corner_rows, corner_rows, np.arange(n_int)])
            cols = np.concatenate([idx_p.ravel(), idx_m.ravel(), op.interior])
            vals = np.concatenate([w_p.ravel(), w_m.ravel(), -(w_p + w_m).sum(axis=1)])
            ref = sp.coo_matrix((vals, (rows, cols)), shape=(n_int, grid.num_nodes)).tocsr()
            ref.sum_duplicates()
            ref.eliminate_zeros()
            mat, centre = op._directional_matrix(w)
            assert (centre + 0.0).tobytes() == centre_weights(op, mat).tobytes()
            # one stored weight per distinct (row, column) whose sum is nonzero
            _, slot = np.unique(rows * grid.num_nodes + cols, return_inverse=True)
            assert mat.has_canonical_format
            assert mat.nnz == np.count_nonzero(np.bincount(slot, weights=vals))
            assert np.array_equal(mat.indptr, ref.indptr)
            assert np.array_equal(mat.indices, ref.indices)
            assert np.array_equal(mat.data, ref.data)

    @pytest.mark.parametrize(
        "structure, shape, corners", [("heisenberg1", (9, 9, 9), 4), ("euclidean:2", (17, 17), 1)]
    )
    def test_arm_ends_form_no_corners_across_pinned_axes(self, structure, shape, corners):
        # X1 = (1, 0, 2 x2) and X2 = (0, 1, -2 x1) each hold one coordinate
        # fixed; euclidean:2's axis fields hold one fixed and move whole cells
        # along the other, so every end lies on a node plane of those axes
        spec, coeffs, grid, _, _ = pucci_instance("pucci_plus", preset(structure), shape=shape)
        op = DiscreteOperator(spec, coeffs, grid)
        frame = frames(spec.structure, op.coords)
        for i in range(spec.structure.m):
            idx_p, w_p, idx_m, w_m = op._arm_ends(frame[:, i, :])
            for end in (idx_p, w_p, idx_m, w_m):
                assert end.shape == (corners, op.interior.size)

    @pytest.mark.parametrize(
        "structure, lo, hi, shape",
        [
            ("heisenberg1", (-1,) * 3, (1,) * 3, (9, 9, 9)),
            ("heisenberg1", (-1,) * 3, (1,) * 3, (17, 17, 17)),
            ("engel1", (-1,) * 4, (1,) * 4, (7,) * 4),
            ("euclidean:2", (-1, -1), (1, 1), (9, 9)),
            ("euclidean:3", (-1,) * 3, (1,) * 3, (5, 5, 5)),
            ("grushin-like2d", (-1, -1), (1, 1), (9, 9)),
            ("line2d", (-1, -1), (1, 1), (9, 9)),
            # X1 = (1, x2), X2 = (0, x1): X2 vanishes on x1 = 0
            (X2_VANISHES, (-1, -1), (1, 1), (9, 9)),
            # X1 = (1, x2), X2 = (0, 1): the minus ends of X1 stop on x2 = 0
            (ONE_SIDE_PINNED, (0, 0), (6, 4), (7, 5)),
        ],
    )
    @pytest.mark.parametrize("kind", ["trace", "pucci_plus", "pucci_minus"])
    def test_stencils_bitwise_equal_to_row_major_build(
        self, monkeypatch, structure, lo, hi, shape, kind
    ):
        # every stencil against the row-major arm ends and CSR build the
        # corner-major kernels replaced, with default and 4-cell arms that
        # clip at the faces; the Heisenberg and Engel polarization rows have 8
        # and more corners, where a corner-major centre sum rounds differently
        s = preset(structure) if isinstance(structure, str) else structure_from_json(structure)
        if kind == "trace":
            spec = trace_operator(s)
        else:
            spec = pucci_operator(s, 1.0, 2.0, plus=kind == "pucci_plus")
        grid = Grid(lo, hi, shape)
        for h_eff in (None, 4 * grid.h):
            op = DiscreteOperator(spec, constant_coeffs(s.n), grid, h_eff=h_eff)
            with monkeypatch.context() as patch:
                patch.setattr(DiscreteOperator, "_directional_matrix", _ref_directional_matrix)
                ref = DiscreteOperator(spec, constant_coeffs(s.n), grid, h_eff=h_eff)
            assert len(op.stencils) == len(ref.stencils)
            for mat, want in zip(op.stencils, ref.stencils):
                for part in ("indptr", "indices", "data"):
                    got, exp = getattr(mat, part), getattr(want, part)
                    assert got.dtype == exp.dtype
                    assert np.array_equal(got, exp)
            # the centre weights are the stored ones, to the bit but for -0.0
            for mat, centre in zip(op.stencils, op.centres):
                assert (centre + 0.0).tobytes() == centre_weights(op, mat).tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_ends_pinned_on_one_side_match_full_corners(self, monkeypatch, sign):
        # X1 = (1, +-x2) on [0, 6] x [0, 4] with 2.5-cell arms: on x2 = 1 the
        # ends of X1 that head for the x2 = 0 face stop on it at a node,
        # pinned on both axes, while the other ends move off both node planes;
        # both ends of a row must keep one corner count. A whole-cell arm
        # would land every unclipped end on the node plane of the axis that
        # normalizes X1. The reference interpolates with all 2^n corners, as
        # before any axis was pinned.
        rows = [[[[1.0, 0, 0]], [[sign, 0, 1]]], [[[0.0, 0, 0]], [[1.0, 0, 0]]]]
        desc = {"n": 2, "m": 2, "entries": rows}
        spec = trace_operator(structure_from_json(desc))
        grid = Grid((0, 0), (6, 4), (7, 5))
        op = DiscreteOperator(spec, constant_coeffs(2), grid, h_eff=2.5)
        idx_p, _, idx_m, _ = op._arm_ends(frames(spec.structure, op.coords)[:, 0, :])
        assert idx_p.shape == idx_m.shape == (4, op.interior.size)
        monkeypatch.setattr(solver_module, "multilinear_weights", _ref_multilinear_weights)
        ref = DiscreteOperator(spec, constant_coeffs(2), grid, h_eff=2.5)
        for mat, full in zip(op.stencils, ref.stencils):
            assert np.array_equal(mat.indptr, full.indptr)
            assert np.array_equal(mat.indices, full.indices)
            assert np.abs(mat.data - full.data).max() <= 1e-14 * np.abs(full.data).max()

    @pytest.mark.parametrize("corners", [1, 2, 4, 8, 16])
    def test_duplicate_columns_summed_within_rounding(self, monkeypatch, corners):
        # a row lists plus corners, minus corners, then the centre; whatever
        # order scipy's sort leaves equal columns in, each stored weight is
        # its column's entries summed to within width * eps times their
        # magnitudes. Arm ends drawn from three columns put three or more
        # entries in a column, so rows of 3 to 33 entries have sums to make.
        spec, coeffs, grid, _, _ = pucci_instance("pucci_plus")
        op = DiscreteOperator(spec, coeffs, grid)
        n_int, width = op.interior.size, 2 * corners + 1
        rng = np.random.default_rng(corners)
        ends = [
            (
                op.interior[:, None] + rng.integers(0, 3, (n_int, corners)),
                rng.uniform(0.0, 1.0, (n_int, corners)),
            )
            for _ in range(2)
        ]
        corner_major = [a.T for end in ends for a in end]
        monkeypatch.setattr(op, "_arm_ends", lambda w: corner_major)
        mat, _ = op._directional_matrix(np.zeros((n_int, grid.n)))
        assert mat.has_canonical_format
        cols = np.column_stack([ends[0][0], ends[1][0], op.interior])
        vals = np.column_stack([ends[0][1], ends[1][1], -(ends[0][1] + ends[1][1]).sum(axis=1)])
        for row in range(n_int):
            terms = {}
            for col, val in zip(cols[row].tolist(), vals[row].tolist()):
                terms.setdefault(col, []).append(val)
            lo, hi = mat.indptr[row], mat.indptr[row + 1]
            stored = dict(zip(mat.indices[lo:hi].tolist(), mat.data[lo:hi].tolist()))
            assert set(stored) <= set(terms)
            for col, parts in terms.items():
                bound = width * np.finfo(float).eps * sum(map(abs, parts))
                assert abs(stored.get(col, 0.0) - math.fsum(parts)) <= bound

    @pytest.mark.parametrize("kind", ["trace", "pucci_plus"])
    def test_corners_on_the_row_node_weigh_zero(self, monkeypatch, kind):
        # every arm end moves at least one whole cell along some axis, so a
        # corner on its own row's node takes a snapped fraction of 0 or 1 on
        # that axis and weight exactly 0; _directional_matrix relies on it to
        # return its summed centres as the stored ones. Every preset and three
        # frames, on two boxes, three grids and three arm lengths.
        structures = [preset(name) for name in ("euclidean:2", "euclidean:3", *_PRESETS)]
        structures += map(structure_from_json, (X2_VANISHES, ONE_SIDE_PINNED, ROTATED))
        ends = []
        arm_ends = DiscreteOperator._arm_ends

        def spy(op, w):
            ends.append((op.interior, arm_ends(op, w)))
            return ends[-1][1]

        monkeypatch.setattr(DiscreteOperator, "_arm_ends", spy)
        for s in structures:
            if kind == "trace":
                spec = trace_operator(s)
            else:
                spec = pucci_operator(s, 1.0, 2.0, plus=True)
            for lo in ((-1.0,) * s.n, (0.25, -0.5, 0.0, 1.0)[: s.n]):
                for shape in ((5,) * s.n, (9,) * s.n, (7, 9, 6, 8)[: s.n]):
                    h = 2.0 / (shape[0] - 1)
                    grid = Grid(lo, tuple(a + h * (k - 1) for a, k in zip(lo, shape)), shape)
                    for h_eff in (None, h, 4 * h):
                        DiscreteOperator(spec, constant_coeffs(s.n), grid, h_eff=h_eff)
        on_node = 0
        for interior, (idx_p, w_p, idx_m, w_m) in ends:
            for idx, wts in ((idx_p, w_p), (idx_m, w_m)):
                at_node = idx == interior
                on_node += np.count_nonzero(at_node.any(axis=0))
                assert (wts[at_node] == 0.0).all()
        assert on_node > 0

    @pytest.mark.parametrize(
        "structure, shape",
        [("heisenberg1", (9, 9, 9)), ("euclidean:2", (17, 17)), ("engel1", (7,) * 4)],
    )
    @pytest.mark.parametrize("kind", ["trace", "pucci_plus", "pucci_minus"])
    def test_stencils_store_no_zero_weight(self, kind, structure, shape):
        # arm ends on a grid plane give corners of weight 0; none is stored,
        # so the reported nnz counts the weights that act
        spec, coeffs, grid, cfg, _ = pucci_instance(
            "pucci_plus" if kind == "trace" else kind, preset(structure), shape=shape
        )
        if kind == "trace":
            spec = trace_operator(spec.structure)
        op = DiscreteOperator(spec, coeffs, grid)
        assert len(op.pairs) == len(op.stencils) == (2 if kind == "trace" else 3)  # m = 2
        trace_op = DiscreteOperator(trace_operator(spec.structure), coeffs, grid)
        for mat in [*op.stencils, trace_op.policy_system(np.zeros(grid.num_nodes))[0]]:
            assert np.all(mat.data != 0.0)
        _, rep = solve(spec, coeffs, grid, cfg)
        assert rep.nnz == sum(np.count_nonzero(mat.data) for mat in op.stencils)

    def test_default_stencil_width(self):
        assert default_h_eff_cells(0.25) == 2
        assert default_h_eff_cells(2.0 / 15.0) == 2
        assert default_h_eff_cells(2.0 / 31.0) == 3
        assert default_h_eff_cells(1.0) == 1


def manufactured_instance(spec, terms, shape):
    """c = 1 instance of u* = terms on [-1, 1]^n, with its solve config."""
    n = spec.structure.n
    ustar = polynomial_field(terms, n)
    c = constant_field(1.0, n).value
    coeffs = Coefficients(
        c=c, f=manufactured_rhs(spec, c, ustar), L_c=0.0, beta=1.0, L_f=1.0, beta_prime=1.0,
        c0=1.0,
    )
    return spec, coeffs, Grid((-1,) * n, (1,) * n, shape), SolveConfig(boundary=ustar.value)


def manufactured_error(structure, kind, terms, nodes, tol=1e-6):
    """Max error against u* of the c = 1 solve of u* on [-1, 1]^n, (nodes,)^n,
    to tol, with the solve report."""
    if kind == "trace":
        spec = trace_operator(structure)
    else:
        spec = pucci_operator(structure, 1.0, 2.0, plus=kind == "pucci_plus")
    spec, coeffs, grid, cfg = manufactured_instance(spec, terms, (nodes,) * structure.n)
    u, rep = solve(spec, coeffs, grid, replace(cfg, tol=tol))
    return float(np.abs(u.values - from_callable(grid, cfg.boundary).values).max()), rep


class TestArmNormalization:
    """Arms step along w / s with s = max(|w[:m]|_inf, |w|_inf / 4): the
    horizontal block steps whole cells where it can, and s stays continuous
    in x and shared by the two fields of a polarization pair."""

    # solved to tol, at which the start no longer shows in the errors' pinned
    # digits; DIAG_1_10 Pucci+ at 65^2 stalls on rounding at 1e-11
    @pytest.mark.parametrize(
        "structure, terms, kind, tol, errors",
        [
            # u* = x1^4 + x2^2 on X1 = (x1 / (1 + x1^2), 0)
            (
                "grushin-like2d",
                [[1.0, 4, 0], [1.0, 0, 2]],
                "trace",
                1e-11,
                (1.142649e-2, 2.089156e-3),
            ),
            (
                "grushin-like2d",
                [[1.0, 4, 0], [1.0, 0, 2]],
                "pucci_plus",
                1e-11,
                (1.152233e-2, 2.667461e-3),
            ),
            # u* = x1^4 + x2^4, convex, so Pucci+ reads no cross stencil at the solution
            (DIAG_1_10, [[1.0, 4, 0], [1.0, 0, 4]], "trace", 1e-10, (6.285831e-2, 1.571553e-2)),
            (
                DIAG_1_10,
                [[1.0, 4, 0], [1.0, 0, 4]],
                "pucci_plus",
                1e-10,
                (6.310581e-2, 1.576287e-2),
            ),
        ],
    )
    def test_axis_aligned_frames_keep_their_errors(self, structure, terms, kind, tol, errors):
        # an axis-aligned field has s = |w|_2, so its arms are the unit-vector
        # arms of |w|_2 normalization, whose errors at 33^2 and 65^2 these are
        s = preset(structure) if isinstance(structure, str) else structure_from_json(structure)
        for nodes, want in zip((33, 65), errors):
            err, rep = manufactured_error(s, kind, terms, nodes, tol)
            assert rep.converged
            assert err == pytest.approx(want, rel=1e-5)

    def test_rotated_frame_pucci_converges(self):
        # a rule that rounds each node's step to whole cells broke Howard here
        err, rep = manufactured_error(
            structure_from_json(ROTATED), "pucci_plus", [[1.0, 4, 0], [1.0, 0, 2]], 65
        )
        assert rep.converged and rep.outer_iterations <= 12
        assert err <= 2.049e-2

    def test_heisenberg_pucci_49_converges(self):
        err, rep = manufactured_error(HEIS, "pucci_plus", [[1.0, 2, 0, 0], [1.0, 0, 1, 0]], 49)
        assert rep.converged and rep.outer_iterations <= 12
        assert err <= 1e-3

    @pytest.mark.parametrize(
        "structure, shape", [("heisenberg1", (17,) * 3), ("euclidean:2", (17, 17))]
    )
    def test_unclipped_ends_land_on_horizontal_nodes(self, structure, shape):
        # X1, X2 and X1 +- X2 have s = 1 on the unit box, so an unclipped end
        # x +- h_eff w sits on x1/x2 nodes and interpolates along x3 alone:
        # at most 2 corners of nonzero weight, on its own x1/x2 node. On
        # euclidean:2 that is the node x +- h_eff w itself.
        s = preset(structure)
        grid = Grid((-1,) * s.n, (1,) * s.n, shape)
        op = DiscreteOperator(trace_operator(s), constant_coeffs(s.n), grid)
        frame = frames(s, op.coords)
        fields = [frame[:, 0], frame[:, 1], frame[:, 0] + frame[:, 1], frame[:, 0] - frame[:, 1]]
        corners = 2 if structure == "heisenberg1" else 1
        for w in fields:
            idx_p, w_p, idx_m, w_m = op._arm_ends(w)
            for sign, idx, wts in ((1.0, idx_p, w_p), (-1.0, idx_m, w_m)):
                ends = op.coords + sign * op.h_eff * w
                inside = np.all((ends >= -1.0 - 1e-12) & (ends <= 1.0 + 1e-12), axis=1)
                assert inside.sum() >= op.interior.size // 2
                node = np.rint((ends[:, :2] + 1.0) / grid.h).astype(np.int64)
                for row in np.flatnonzero(inside):
                    kept = idx[:, row][wts[:, row] != 0.0]
                    assert 1 <= kept.size <= corners
                    at = np.array(np.unravel_index(kept, grid.shape))[:2].T
                    assert np.all(at == node[row])


class TestBatchProtocol:
    @pytest.mark.parametrize("kind", ["trace", "pucci_plus"])
    def test_call_counts_do_not_grow_with_the_grid(self, kind):
        # every callable is evaluated once per batch, never once per node
        counts = {}

        def counted(name, fn):
            def wrapper(X):
                counts[name] = counts.get(name, 0) + 1
                return fn(X)

            return wrapper

        ustar = polynomial_field([[1.0, 2, 0, 0], [1.0, 0, 1, 0]], 3)
        seen = []
        for shape in ((9, 9, 9), (13, 13, 13)):
            counts.clear()
            structure = replace(HEIS, sigma=counted("sigma", HEIS.sigma))
            spec = trace_operator(structure)
            if kind != "trace":
                spec = pucci_operator(structure, 1.0, 2.0)
            c = counted("c", constant_field(1.0, 3).value)
            f = counted("f", manufactured_rhs(spec, c, ustar))
            coeffs = Coefficients(c=c, f=f, L_c=0.0, beta=1.0, L_f=1.0, beta_prime=1.0, c0=1.0)
            cfg = SolveConfig(boundary=counted("boundary", ustar.value))
            _, rep = solve(spec, coeffs, Grid((-1,) * 3, (1,) * 3, shape), cfg)
            assert rep.converged
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        assert set(seen[0]) == {"sigma", "c", "f", "boundary"}

    @pytest.mark.parametrize("name", ["sigma", "c", "f", "boundary"])
    def test_per_point_callable_rejected(self, name):
        # functions written for one point return one point's shape on a batch
        spec, coeffs, grid, cfg, _ = heisenberg_instance()
        if name == "sigma":
            frame = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
            spec = trace_operator(replace(HEIS, sigma=lambda x: frame))
        elif name == "boundary":
            cfg = SolveConfig(boundary=lambda x: 0.0)
        else:
            coeffs = replace(coeffs, **{name: lambda x: 1.0})
        with pytest.raises(ValueError, match="returned shape"):
            solve(spec, coeffs, grid, cfg)

    def test_manufactured_rhs_matches_pointwise_f_eval(self):
        for kind in ("trace", "pucci_plus", "pucci_minus"):
            for structure in (HEIS, preset("engel1"), preset("euclidean:3"), preset("line2d")):
                if kind == "trace":
                    spec = trace_operator(structure)
                else:
                    spec = pucci_operator(structure, 0.5, 2.0, plus=kind == "pucci_plus")
                n = structure.n
                rng = np.random.default_rng(9)
                terms = [[float(rng.normal()), *rng.integers(0, 3, size=n)] for _ in range(6)]
                ustar = polynomial_field(terms, n)
                c = polynomial_field([[2.0] + [0] * n, [0.5] + [2] + [0] * (n - 1)], n).value
                X = rng.uniform(-1.0, 1.0, size=(40, n))
                got = manufactured_rhs(spec, c, ustar)(X)
                for x, value in zip(X, got):
                    p = x[None, :]
                    want = f_eval(spec, ustar.hessian(p)[0], x) - c(p)[0] * ustar.value(p)[0]
                    assert value == pytest.approx(want, rel=1e-12, abs=1e-12)


POLICY_CASES = [
    ("euclidean:2", 1.0, (17, 17)),
    ("euclidean:2", 0.05, (17, 17)),
    ("heisenberg1", 1.0, (9, 9, 9)),
    ("engel1", 1.0, (7, 7, 7, 7)),
    ("euclidean:3", 1.0, (9, 9, 9)),  # m = 3: LAPACK eigh in the policy
]


def cold_solve(monkeypatch, spec, coeffs, grid, cfg):
    """The solve from zero in the interior, the start before the blend."""
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "transfinite_blend", lambda g: g)
        return solve(spec, coeffs, grid, cfg)


def stacked_solve(monkeypatch, instance, terms):
    """The solve through the stacked kernels the per-entry ones replaced: the
    polynomial Hessian of u*'s terms, the frame Hessians and the m = 2
    policy as stacks, and the allocating BiCGSTAB cycle."""
    spec, coeffs, grid, cfg, ustar = instance
    stacked = replace(ustar, hessian=_ref_stacked_hessian(terms, ustar.n))
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "frame_hessians", _ref_frame_hessians)
        patch.setattr(solver_module, "policies", _ref_policies)
        patch.setattr(operators_module, "policies", _ref_policies)
        patch.setattr(solver_module, "_bicgstab", _ref_bicgstab)
        f = manufactured_rhs(spec, coeffs.c, stacked)
        return solve(spec, replace(coeffs, f=f), grid, cfg)


class TestPerEntryKernelsMatchStackedSolve:
    """Every solve takes the stacked kernels' Krylov and policy steps and
    lands within 2 tol / c0 of their solution."""

    @staticmethod
    def _check(monkeypatch, instance, terms):
        u, rep = solve(*instance[:4])
        u_ref, rep_ref = stacked_solve(monkeypatch, instance, terms)
        assert rep.converged and rep_ref.converged
        assert rep.iterations == rep_ref.iterations
        assert rep.outer_iterations == rep_ref.outer_iterations
        assert np.abs(u.values - u_ref.values).max() <= 2.0 * instance[3].tol / instance[1].c0

    @pytest.mark.parametrize("kind", ["pucci_plus", "pucci_minus"])
    @pytest.mark.parametrize("structure, c_value, shape", POLICY_CASES)
    def test_policy_cases(self, monkeypatch, kind, structure, c_value, shape):
        instance = pucci_instance(kind, preset(structure), c_value, shape)
        self._check(monkeypatch, instance, pucci_terms(preset(structure).n))

    def test_heisenberg_trace_17(self, monkeypatch):
        instance = heisenberg_instance(shape=(17, 17, 17))
        self._check(monkeypatch, instance, [[1.0, 2, 0, 0], [1.0, 0, 1, 0]])


class TestJacobiDiagonal:
    """policy_system's centre weights are L_A's entries at (row,
    interior[row]), bit for bit, as scipy's fancy index reads them."""

    @pytest.mark.parametrize(
        "case, structure", [("trace", HEIS), ("pucci_plus", EUC2), ("pucci_minus", EUC2),
                            ("pucci_plus", HEIS)]
    )
    def test_bit_identical_to_fancy_read(self, case, structure):
        if case == "trace":
            spec, coeffs, grid, cfg, _ = heisenberg_instance(shape=(13, 13, 13))
        else:
            shape = (33,) * 2 if structure is EUC2 else (13,) * 3
            spec, coeffs, grid, cfg, _ = pucci_instance(case, structure, shape=shape)
        u, _ = solve(spec, coeffs, grid, cfg)
        op = DiscreteOperator(spec, coeffs, grid)
        rng = np.random.default_rng(2)
        for u_flat in (u.flat, rng.normal(size=grid.num_nodes)):
            lin, diag = op.policy_system(u_flat)
            assert diag.tobytes() == centre_weights(op, lin).tobytes()


class TestBlendStart:
    """solve starts from the transfinite blend of its Dirichlet data."""

    @pytest.mark.parametrize("shape", [(5, 7), (4, 6, 5), (3, 4, 3, 5)])
    def test_faces_kept_bit_for_bit_and_interior_unread(self, shape):
        rng = np.random.default_rng(3)
        g = rng.normal(size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, size=shape)
        face = Grid((0,) * len(shape), [s - 1 for s in shape], shape).boundary_mask()
        face = face.reshape(shape)
        blend = transfinite_blend(g)
        assert blend[face].tobytes() == g[face].tobytes()
        other = np.where(face, g, rng.normal(size=shape))
        assert transfinite_blend(other).tobytes() == blend.tobytes()

    def test_reproduces_axis_skipping_sums_and_multilinear_functions(self):
        grid = Grid((-1, -1, -1), (1, 2, 0.5), (9, 13, 7))
        x1, x2, x3 = grid.coords().T
        face = grid.boundary_mask().reshape(grid.shape)
        skipping = np.sin(x1) * x2**2 + np.exp(x2 * x3) + x1**3 * x3
        multilinear = 2.0 - x1 + 3.0 * x2 * x3 - x1 * x2 * x3 + 0.5 * x1 * x3
        for values in (skipping, multilinear, skipping + multilinear):
            g = values.reshape(grid.shape)
            error = np.abs(transfinite_blend(np.where(face, g, 0.0)) - g).max()
            assert error <= 1e-14 * np.abs(g).max()
        # a term that reads every axis is not reproduced
        g = (x1 * x2 * x3) ** 2
        assert np.abs(transfinite_blend(g.reshape(grid.shape)).ravel() - g).max() > 0.1

    def test_multilinear_solution_takes_no_krylov_step(self):
        # the Heisenberg scheme is exact on x1 x2 x3, which the start reproduces
        instance = manufactured_instance(trace_operator(HEIS), [[1.0, 1, 1, 1]], (9, 9, 9))
        _, rep = solve(*instance)
        assert rep.converged
        assert rep.iterations == rep.outer_iterations == 0

    @pytest.mark.parametrize("kind", ["pucci_plus", "pucci_minus"])
    @pytest.mark.parametrize("structure, c_value, shape", POLICY_CASES)
    def test_policy_solve_matches_cold_start(self, monkeypatch, kind, structure, c_value, shape):
        spec, coeffs, grid, cfg, _ = pucci_instance(kind, preset(structure), c_value, shape)
        u, rep = solve(spec, coeffs, grid, cfg)
        u_cold, rep_cold = cold_solve(monkeypatch, spec, coeffs, grid, cfg)
        assert rep.converged and rep_cold.converged
        assert np.abs(u.values - u_cold.values).max() <= 2.0 * cfg.tol / coeffs.c0

    def test_trace_solve_matches_cold_start(self, monkeypatch):
        spec, coeffs, grid, cfg, _ = heisenberg_instance()
        u, rep = solve(spec, coeffs, grid, cfg)
        u_cold, rep_cold = cold_solve(monkeypatch, spec, coeffs, grid, cfg)
        assert rep.converged and rep_cold.converged
        assert np.abs(u.values - u_cold.values).max() <= 2.0 * cfg.tol / coeffs.c0

    def test_non_separable_solution_takes_no_more_krylov_steps(self, monkeypatch):
        # u* = x1^2 x3^2 + x2: the start misses the x1^2 x3^2 term inside
        instance = manufactured_instance(
            trace_operator(HEIS), [[1.0, 2, 0, 2], [1.0, 0, 1, 0]], (17, 17, 17)
        )
        u, rep = solve(*instance)
        u_cold, rep_cold = cold_solve(monkeypatch, *instance)
        assert rep.converged and rep_cold.converged
        assert rep.iterations <= rep_cold.iterations
        assert np.abs(u.values - u_cold.values).max() <= 2.0 * instance[3].tol


class TestSolve:
    def test_zero_data_gives_zero_solution(self):
        spec = trace_operator(HEIS)
        coeffs = constant_coeffs(3)
        grid = Grid((-1, -1, -1), (1, 1, 1), (9, 9, 9))
        u, rep = solve(spec, coeffs, grid, SolveConfig(boundary=constant_field(0.0, 3).value))
        assert rep.converged
        assert rep.iterations == 0
        assert np.abs(u.values).max() == 0.0

    def test_manufactured_solution_recovered(self):
        spec, coeffs, grid, cfg, ustar = heisenberg_instance()
        u, rep = solve(spec, coeffs, grid, cfg)
        assert rep.converged
        assert rep.final_residual <= cfg.tol
        exact = from_callable(grid, ustar.value)
        assert np.abs(u.values - exact.values).max() <= 0.08

    def test_comparison_principle_exact(self):
        # (a) T_int - diag(c) has nonnegative off-diagonals, a negative
        # diagonal and strict row dominance: the M-matrix property that gives
        # the discrete comparison principle
        spec, coeffs, grid, cfg, ustar = heisenberg_instance()
        op = DiscreteOperator(spec, coeffs, grid)
        tm = op.policy_system(np.zeros(grid.num_nodes))[0]
        a = (tm[:, op.interior] - sp.diags(op.c_vec)).toarray()
        diag = np.diag(a).copy()
        off = a - np.diag(diag)
        assert off.min() >= 0.0
        assert diag.max() < 0.0
        assert np.all(-diag > off.sum(axis=1))
        # (b) ordered data give ordered solutions: g1 <= g2 and f1 >= f2
        u1, rep1 = solve(spec, coeffs, grid, cfg)
        assert rep1.converged
        rng = np.random.default_rng(8)
        for _ in range(3):
            dg, df = rng.uniform(0.0, 0.2, size=2)
            k = rng.uniform(0.0, 3.0, size=3)
            f2 = lambda X, df=df, k=k: coeffs.f(X) - df * (1.0 + np.sin(X @ k))
            g2 = lambda X, dg=dg, k=k: ustar.value(X) + dg * (1.0 + np.cos(X @ k))
            coeffs2 = replace(coeffs, f=f2, L_f=coeffs.L_f + df * np.linalg.norm(k))
            u2, rep2 = solve(spec, coeffs2, grid, SolveConfig(boundary=g2))
            assert rep2.converged
            assert np.all(u1.values <= u2.values)

    def test_deterministic(self):
        spec, coeffs, grid, cfg, _ = heisenberg_instance()
        u1, r1 = solve(spec, coeffs, grid, cfg)
        u2, r2 = solve(spec, coeffs, grid, cfg)
        assert np.array_equal(u1.values, u2.values)
        assert r1.iterations == r2.iterations

    @pytest.mark.parametrize("name", ["trace", "pucci_plus"])
    def test_non_convergence_reported(self, name):
        spec, coeffs, grid, cfg = solve_instance(name)
        _, rep = solve(spec, coeffs, grid, replace(cfg, max_iters=3))
        assert not rep.converged
        assert rep.iterations == 3
        assert rep.final_residual == rep.residual_history[-1] > cfg.tol

    @pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan")])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            SolveConfig(boundary=constant_field(0.0, 2).value, tol=tol)

    def test_every_policy_step_spends_a_krylov_step(self, monkeypatch):
        # policies that never agree keep the residual above tol; each step
        # must still spend a Krylov step, so the budget ends the solve
        spec, coeffs, grid, cfg = solve_instance("pucci_plus")
        trace_op = DiscreteOperator(trace_operator(spec.structure), coeffs, grid)
        tm, centres = trace_op.policy_system(np.zeros(grid.num_nodes))
        calls = []

        def alternating_policy(op, u_flat):
            calls.append(1)
            assert len(calls) <= 51, "policy step spent no Krylov step"
            scale = 1.0 if len(calls) % 2 else 2.0
            return tm * scale, centres * scale

        monkeypatch.setattr(DiscreteOperator, "policy_system", alternating_policy)
        _, rep = solve(spec, coeffs, grid, replace(cfg, max_iters=50))
        assert not rep.converged
        assert rep.iterations == 50
        assert len(calls) == rep.outer_iterations + 1 <= 51

    def test_policy_matrix_is_the_solve_view_of_the_scheme(self, monkeypatch):
        # one policy matrix per step and one at the end, and no closed-form G
        spec = pucci_operator(EUC2, 1.0, 2.0)
        coeffs = constant_coeffs(2, f_value=1.0)
        grid = Grid((-1, -1), (1, 1), (17, 17))
        cfg = SolveConfig(boundary=polynomial_field([[1.0, 1, 1], [-1.0, 0, 2]], 2).value)
        calls = []
        policy = DiscreteOperator.policy_system

        def counted_policy(op, u_flat):
            calls.append(1)
            return policy(op, u_flat)

        def no_g_values(*args):
            raise AssertionError("solve evaluated the closed-form G")

        monkeypatch.setattr(DiscreteOperator, "policy_system", counted_policy)
        monkeypatch.setattr("carnotpde.solver.g_values", no_g_values)
        _, rep = solve(spec, coeffs, grid, cfg)
        assert rep.converged and rep.outer_iterations >= 2
        assert len(calls) == rep.outer_iterations + 1

    @pytest.mark.parametrize("where", ["f", "boundary"])
    @pytest.mark.parametrize("name", ["trace", "euclidean:2", "euclidean:3"])
    def test_non_finite_data_raises(self, name, where):
        if name == "trace":
            spec, coeffs, grid, cfg, _ = heisenberg_instance()
        else:
            shape = (17, 17) if name == "euclidean:2" else (9, 9, 9)
            spec, coeffs, grid, cfg, _ = pucci_instance("pucci_plus", preset(name), shape=shape)
        point = np.zeros(grid.n)
        if where == "boundary":
            point[0] = -1.0  # a face centre, which its interior neighbours' stencils reach
        at_point = lambda X: np.isclose(X, point).all(axis=1)
        if where == "f":
            f0 = coeffs.f
            coeffs = replace(coeffs, f=lambda X: np.where(at_point(X), np.nan, f0(X)))
        else:
            g0 = cfg.boundary
            cfg = replace(cfg, boundary=lambda X: np.where(at_point(X), np.nan, g0(X)))
        with pytest.raises(NumericalError):
            solve(spec, coeffs, grid, cfg)

    @pytest.mark.parametrize("shape", [(9, 9, 9), (17, 17, 17)])
    @pytest.mark.parametrize("c_value", [1.0, 0.05])
    def test_trace_solve_matches_direct_solve(self, shape, c_value):
        from scipy.sparse.linalg import spsolve

        spec, coeffs, grid, cfg, _ = heisenberg_instance(c_value, shape)
        u, rep = solve(spec, coeffs, grid, cfg)
        assert rep.converged
        op = DiscreteOperator(spec, coeffs, grid)
        true_residual = float(np.abs(_closed_form_residual(op, u.flat)).max())
        assert true_residual <= cfg.tol
        # the reported residual is recomputed from the returned iterate
        tm = op.policy_system(u.flat)[0]
        policy_residual = op.f_vec - (tm @ u.flat - op.c_vec * u.flat[op.interior])
        assert rep.final_residual == float(np.abs(policy_residual).max())
        boundary_values = u.flat.copy()
        boundary_values[op.interior] = 0.0
        system = (tm[:, op.interior] - sp.diags(op.c_vec)).tocsc()
        direct = spsolve(system, op.f_vec - tm @ boundary_values)
        assert np.abs(u.flat[op.interior] - direct).max() <= cfg.tol / coeffs.c0

    def test_extremal_kind_solve(self):
        spec = pucci_operator(EUC2, 1.0, 2.0, plus=True)
        ustar = polynomial_field([[1.0, 2, 0], [1.0, 0, 2]], 2)
        c = constant_field(1.0, 2).value
        f = manufactured_rhs(spec, c, ustar)
        assert f(np.zeros((1, 2)))[0] == pytest.approx(8.0)  # Lambda * tr(2 I) - |0|^2
        coeffs = Coefficients(
            c=c, f=f, L_c=0.0, beta=1.0, L_f=2.0 * np.sqrt(2.0), beta_prime=1.0, c0=1.0
        )
        grid = Grid((-1, -1), (1, 1), (17, 17))
        u, rep = solve(spec, coeffs, grid, SolveConfig(boundary=ustar.value))
        assert rep.converged
        exact = from_callable(grid, ustar.value)
        assert np.abs(u.values - exact.values).max() <= 0.02

    @pytest.mark.parametrize("kind", ["pucci_plus", "pucci_minus"])
    @pytest.mark.parametrize("structure, c_value, shape", POLICY_CASES)
    def test_policy_solve_matches_explicit_reference(self, kind, structure, c_value, shape):
        spec, coeffs, grid, cfg, _ = pucci_instance(kind, preset(structure), c_value, shape)
        u, rep = solve(spec, coeffs, grid, cfg)
        assert rep.converged
        op = DiscreteOperator(spec, coeffs, grid)
        true_residual = float(np.abs(_closed_form_residual(op, u.flat)).max())
        assert true_residual <= cfg.tol
        # the reported residual is recomputed from the returned iterate
        tm = op.policy_system(u.flat)[0]
        policy_residual = op.f_vec - (tm @ u.flat - op.c_vec * u.flat[op.interior])
        assert rep.final_residual == float(np.abs(policy_residual).max())
        assert rep.residual_history[-1] == rep.final_residual
        assert len(rep.residual_history) == rep.outer_iterations + 1
        assert 1 <= rep.outer_iterations <= rep.iterations
        # every step sets a new residual minimum, so the stall stop never acts
        assert (np.diff(rep.residual_history) < 0.0).all()
        reference, reference_residual = _explicit_reference(spec, coeffs, grid, cfg)
        assert reference_residual <= cfg.tol
        assert np.abs(u.flat - reference).max() <= 2.0 * cfg.tol / coeffs.c0

    @pytest.mark.parametrize("kind", ["pucci_plus", "pucci_minus"])
    @pytest.mark.parametrize("structure, c_value, shape", POLICY_CASES)
    def test_policy_values_match_closed_form_g(self, kind, structure, c_value, shape):
        # L_A u for the policy attaining F_h at u is G of the frame Hessians
        spec, coeffs, grid, cfg, _ = pucci_instance(kind, preset(structure), c_value, shape)
        u, _ = solve(spec, coeffs, grid, cfg)
        op = DiscreteOperator(spec, coeffs, grid)
        rng = np.random.default_rng(9)
        for u_flat in (u.flat, rng.normal(size=grid.num_nodes)):
            closed = g_values(spec, op.frame_matrices(u_flat))
            scale = max(1.0, float(np.abs(closed).max()))
            assert np.abs(op.policy_system(u_flat)[0] @ u_flat - closed).max() <= 1e-12 * scale

    @pytest.mark.parametrize("kind", ["pucci_plus", "pucci_minus"])
    @pytest.mark.parametrize("structure, c_value, shape", POLICY_CASES)
    def test_policy_matrix_matches_diagonal_products(self, kind, structure, c_value, shape):
        # the row-scaled terms hold the very entries of sum_k diag(w_k) @ S_k
        spec, coeffs, grid, _, _ = pucci_instance(kind, preset(structure), c_value, shape)
        op = DiscreteOperator(spec, coeffs, grid)
        u_flat = np.random.default_rng(11).normal(size=grid.num_nodes)
        pol = policies(spec, op.frame_matrices(u_flat))
        old = sum(
            sp.diags((1 + (i != j)) * pol[:, i, j]) @ s for (i, j), s in zip(op.pairs, op.stencils)
        )
        assert (op.policy_system(u_flat)[0] != old).nnz == 0

    def test_forcing_term_saves_krylov_steps(self, monkeypatch):
        # planar extremal instance u* = x1^2 x2^2 on 64^2, which the start
        # does not reproduce, so the policy changes during the solve: inexact
        # policy steps meet the same tol with fewer Krylov steps than exact ones
        spec, coeffs, grid, cfg = manufactured_instance(
            pucci_operator(EUC2, 1.0, 2.0, plus=True), [[1.0, 2, 2]], (64, 64)
        )
        u, rep = solve(spec, coeffs, grid, cfg)
        monkeypatch.setattr(solver_module, "FORCING", 0.0)
        u_exact, rep_exact = solve(spec, coeffs, grid, cfg)
        assert rep.converged and rep_exact.converged
        assert max(rep.final_residual, rep_exact.final_residual) <= cfg.tol
        assert rep.iterations < rep_exact.iterations
        assert np.abs(u.values - u_exact.values).max() <= 2.0 * cfg.tol / coeffs.c0

    def test_cycling_policy_stops_unconverged(self, monkeypatch):
        # a stub policy alternating between lambda I and Lambda I keeps the
        # residual between two levels: the loop stops at the first run of
        # STALL_STEPS steps without a new minimum, long before max_iters
        spec, coeffs, grid, cfg, _ = pucci_instance("pucci_plus", shape=(9, 9))
        calls = []

        def alternating(spec, mats):
            calls.append(None)
            return np.broadcast_to((1.0 + len(calls) % 2) * np.eye(mats.shape[1]), mats.shape)

        monkeypatch.setattr(solver_module, "policies", alternating)
        _, rep = solve(spec, coeffs, grid, cfg)
        assert not rep.converged
        assert rep.iterations < cfg.max_iters
        history = rep.residual_history
        assert len(history) == rep.outer_iterations + 1 == len(calls)
        records = [k for k, r in enumerate(history) if r < min(history[:k], default=np.inf)]
        assert np.diff(records + [len(history) - 1]).max() == STALL_STEPS
        assert len(history) - 1 - records[-1] == STALL_STEPS

    def test_two_box_sensitivity_finite(self):
        spec, coeffs, grid, cfg, _ = heisenberg_instance(shape=(9, 9, 9))
        u, _ = solve(spec, coeffs, grid, cfg)
        gap = two_box_sensitivity(spec, coeffs, u, cfg, pad_cells=2)
        assert 0.0 <= gap < 1.0

    def test_two_box_sensitivity_matches_node_loop(self, monkeypatch):
        spec, coeffs, _, cfg, _ = heisenberg_instance()
        grid = Grid((-1, -1, -1), (1, 1, 0), (9, 9, 5))
        pad = 2
        h = grid.h
        big = Grid(
            tuple(lo - pad * h for lo in grid.lo),
            tuple(hi + pad * h for hi in grid.hi),
            tuple(n + 2 * pad for n in grid.shape),
        )
        u_small = solve(spec, coeffs, grid, cfg)[0]
        small_vals = u_small.values
        big_vals = solve(spec, coeffs, big, cfg)[0].values
        center = [(lo + hi) / 2.0 for lo, hi in zip(grid.lo, grid.hi)]
        quarter = [(hi - lo) / 4.0 for lo, hi in zip(grid.lo, grid.hi)]
        worst, compared = 0.0, 0
        for idx in np.ndindex(grid.shape):
            x = [grid.lo[k] + h * idx[k] for k in range(grid.n)]
            if all(abs(x[k] - center[k]) <= quarter[k] + 1e-12 for k in range(grid.n)):
                big_idx = tuple(i + pad for i in idx)
                worst = max(worst, abs(float(small_vals[idx]) - float(big_vals[big_idx])))
                compared += 1
        assert compared == 5 * 5 * 3
        # the probe takes the converged solve and solves the padded box alone
        calls = []
        monkeypatch.setattr(solver_module, "solve", lambda *a: calls.append(a[2]) or solve(*a))
        assert two_box_sensitivity(spec, coeffs, u_small, cfg, pad_cells=pad) == worst
        assert calls == [big]

    def test_report_fields(self):
        spec, coeffs, grid, cfg, _ = heisenberg_instance()
        _, rep = solve(spec, coeffs, grid, cfg)
        payload = rep.to_dict()
        for key in ("iterations", "final_residual", "converged", "wall_time_s"):
            assert key in payload
        assert "dt" not in payload and "cfl_bound" not in payload
        assert payload["schema_version"] == 4
        assert 0.0 < payload["assembly_s"] <= payload["wall_time_s"]
        assert 0.0 < payload["solve_s"]
        assert payload["assembly_s"] + payload["solve_s"] <= payload["wall_time_s"]
        op = DiscreteOperator(spec, coeffs, grid)
        assert payload["nnz"] == sum(a.nnz for a in op.stencils) > 0
        # each policy step's cycle stops at its forcing level, so the trace
        # kind may take several steps too; only the last meets tol
        history = payload["residual_history"]
        assert len(history) == payload["outer_iterations"] + 1
        assert history[0] > cfg.tol >= history[-1] == payload["final_residual"]
        assert 1 <= payload["outer_iterations"] <= payload["iterations"]

    @pytest.mark.parametrize(
        "kind, structure, shape",
        [
            ("trace", "heisenberg1", (9, 9, 9)),
            ("trace", "engel1", (7,) * 4),
            ("pucci_plus", "heisenberg1", (17,) * 3),
        ],
    )
    def test_report_counts_negative_weights_of_final_matrix(self, kind, structure, shape):
        spec, coeffs, grid, cfg, _ = pucci_instance("pucci_plus", preset(structure), shape=shape)
        if kind == "trace":
            spec = trace_operator(spec.structure)
        u, rep = solve(spec, coeffs, grid, cfg)
        assert rep.converged
        # the final L_A is the policy matrix at the returned iterate
        lin = DiscreteOperator(spec, coeffs, grid).policy_system(u.flat)[0].tocoo()
        off = (lin.col != grid.interior_indices()[lin.row]) & (lin.data < 0.0)
        assert rep.negative_weights == np.count_nonzero(off)
        assert rep.negative_rows == np.unique(lin.row[off]).size
        assert rep.most_negative_weight == (lin.data[off].min() if off.any() else 0.0)
        if kind == "trace":
            assert rep.negative_weights == rep.negative_rows == 0
        else:
            assert rep.negative_weights > 0 and rep.most_negative_weight < 0.0
        payload = rep.to_dict()
        for key in ("negative_weights", "negative_rows", "most_negative_weight"):
            assert payload[key] == getattr(rep, key)

    @pytest.mark.parametrize("pad", [0, -1])
    def test_two_box_sensitivity_rejects_pad_below_one(self, pad):
        # 0 compares a solve with itself, -1 with a smaller box
        spec, coeffs, grid, cfg, _ = pucci_instance("pucci_plus", shape=(9, 9))
        u = GridFunction(grid, np.zeros(grid.shape))
        with pytest.raises(ValueError, match="pad_cells must be >= 1"):
            two_box_sensitivity(spec, coeffs, u, cfg, pad_cells=pad)
