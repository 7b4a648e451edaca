"""Unit tests for the directional scheme and its policy-iteration solve: one
BiCGSTAB solve for the trace kind, Howard steps for the Pucci kinds, checked
against the damped explicit iteration kept here as a reference."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from carnotpde import (
    Coefficients,
    DiscreteOperator,
    Grid,
    SolveConfig,
    directional_second_difference,
    discrete_operator,
    from_callable,
    manufactured_rhs,
    polynomial_field,
    preset,
    pucci_operator,
    solve,
    trace_operator,
    two_box_sensitivity,
)
from carnotpde.errors import BoundaryStencilError, NumericalError, PreconditionError
from carnotpde.solver import default_h_eff_cells

HEIS = preset("heisenberg1")
EUC2 = preset("euclidean:2")


def heisenberg_instance(c_value=1.0, shape=(9, 9, 9)):
    spec = trace_operator(HEIS)
    ustar = polynomial_field([[1.0, 2, 0, 0], [1.0, 0, 1, 0]], 3)  # x1^2 + x2
    c = lambda x: c_value
    f = manufactured_rhs(spec, c, ustar)
    coeffs = Coefficients(
        c=c, f=f, L_c=0.0, beta=1.0, L_f=c_value * np.sqrt(5.0), beta_prime=1.0, c0=c_value
    )
    grid = Grid((-1, -1, -1), (1, 1, 1), shape)
    cfg = SolveConfig(boundary=ustar.value)
    return spec, coeffs, grid, cfg, ustar


def pucci_instance(kind, structure=EUC2, c_value=1.0, shape=(17, 17)):
    """u* = x1^4 + x1 x2 - x2^2 (Hessian of mixed sign) under the (1, 2) Pucci kind."""
    spec = pucci_operator(structure, 1.0, 2.0, plus=kind == "pucci_plus")
    pad = [0] * (structure.n - 2)
    ustar = polynomial_field(
        [[1.0, 4, 0, *pad], [1.0, 1, 1, *pad], [-1.0, 0, 2, *pad]], structure.n
    )
    c = lambda x: c_value
    coeffs = Coefficients(
        c=c, f=manufactured_rhs(spec, c, ustar), L_c=0.0, beta=1.0, L_f=1.0, beta_prime=1.0,
        c0=c_value,
    )
    grid = Grid((-1,) * structure.n, (1,) * structure.n, shape)
    return spec, coeffs, grid, SolveConfig(boundary=ustar.value), ustar


def _explicit_reference(spec, coeffs, grid, cfg):
    """The damped explicit iteration u <- u + dt (F_h(u) - c u - f) that solved
    the Pucci kinds before policy iteration, with dt just under the CFL bound
    h^2 / (2 Lambda max Tr P + max(c) h^2) that makes the update order
    preserving. Returns the node values and the true max residual."""
    op = DiscreteOperator(spec, coeffs, grid)
    dt = 0.995 * op.cfl_bound
    u_flat, coords = np.zeros(grid.num_nodes), grid.coords()
    for idx in np.nonzero(grid.boundary_mask())[0]:
        u_flat[idx] = cfg.boundary(coords[idx])
    for _ in range(cfg.max_iters):
        new_int = u_flat[op.interior] + dt * op.residual(u_flat)
        step = float(np.abs(new_int - u_flat[op.interior]).max()) / dt
        assert np.isfinite(step)
        u_flat[op.interior] = new_int
        if step <= cfg.tol:
            exact = float(np.abs(op.residual(u_flat)).max())
            if exact <= cfg.tol:
                return u_flat, exact
    raise AssertionError("explicit reference did not converge")


def solve_instance(name):
    if name == "trace":
        return heisenberg_instance()[:4]
    return pucci_instance(name)[:4]


class TestDirectionalDifference:
    def test_affine_annihilated(self):
        g = Grid((-1, -1), (1, 1), (9, 9))
        u = from_callable(g, lambda x: 3.0 + 2.0 * x[0] - x[1])
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        got = directional_second_difference(u, [0.0, 0.0], v, g.h)
        assert got == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("cells", [1, 2, 3])
    def test_axis_quadratic_exact(self, cells):
        g = Grid((-1, -1, -1), (1, 1, 1), (9, 9, 9))
        u = from_callable(g, lambda x: x[0] ** 2)
        got = directional_second_difference(u, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], cells * g.h)
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_mixed_quadratic_along_diagonal(self):
        # u = x1 x2 is multilinear, so interpolation is exact and the
        # second derivative along the diagonal is recovered sharply
        g = Grid((-1, -1, -1), (1, 1, 1), (9, 9, 9))
        u = from_callable(g, lambda x: x[0] * x[1])
        v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        got = directional_second_difference(u, [0.0, 0.0, 0.0], v, g.h)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_stencil_leaving_box_raises(self):
        g = Grid((-1, -1), (1, 1), (9, 9))
        u = from_callable(g, lambda x: 0.0)
        with pytest.raises(BoundaryStencilError):
            directional_second_difference(u, [0.75, 0.0], [1.0, 0.0], 4.0 * g.h)

    def test_h_eff_range_validated(self):
        g = Grid((-1, -1), (1, 1), (9, 9))
        u = from_callable(g, lambda x: 0.0)
        with pytest.raises(ValueError):
            directional_second_difference(u, [0.0, 0.0], [1.0, 0.0], 5.0 * g.h)


class TestDiscreteOperator:
    def test_constant_solution_zero_residual(self):
        spec = trace_operator(HEIS)
        k = 2.0
        coeffs = Coefficients(
            c=lambda x: 1.0, f=lambda x: -k, L_c=0.0, beta=1.0, L_f=0.0, beta_prime=1.0, c0=1.0
        )
        grid = Grid((-1, -1, -1), (1, 1, 1), (9, 9, 9))
        u = from_callable(grid, lambda x: k)
        node = grid.interior_indices()[17]
        assert abs(discrete_operator(spec, coeffs, u, node, h_eff=grid.h)) <= 1e-12

    def test_manufactured_residual_small(self):
        spec, coeffs, grid, _, ustar = heisenberg_instance()
        u = from_callable(grid, ustar.value)
        interior = grid.interior_indices()
        worst = max(abs(discrete_operator(spec, coeffs, u, n)) for n in interior[:80])
        assert worst <= 2.5 * grid.h

    def test_engel_quadratic(self):
        engel = preset("engel1")
        spec = trace_operator(engel)
        ustar = polynomial_field([[1.0, 0, 2, 0, 0]], 4)  # x2^2
        coeffs = Coefficients(
            c=lambda x: 1.0,
            f=lambda x: 2.0 - ustar.value(x),
            L_c=0.0,
            beta=1.0,
            L_f=2.0,
            beta_prime=1.0,
            c0=1.0,
        )
        grid = Grid((-1,) * 4, (1,) * 4, (7, 7, 7, 7))
        u = from_callable(grid, ustar.value)
        interior = grid.interior_indices()
        worst = max(abs(discrete_operator(spec, coeffs, u, n)) for n in interior[:60])
        assert worst <= 2.5 * grid.h

    def test_boundary_node_rejected(self):
        spec, coeffs, grid, _, ustar = heisenberg_instance()
        u = from_callable(grid, ustar.value)
        with pytest.raises(PreconditionError):
            discrete_operator(spec, coeffs, u, 0)

    def test_consistency_on_quadratics(self):
        # interior nodes at least 2h from the boundary reproduce
        # F(D^2 q, x) - c q - f up to the multilinear interpolation error of
        # the stencil ends, which for a quadratic is bounded by
        # sum_k |d_kk q| h^2 / 4 per end; scaled by the frame weights this
        # gives Tr P * sum_k |d_kk q| * h^2 / (2 h_eff^2), an O(h) envelope
        # under the default stencil-width policy
        rng = np.random.default_rng(6)
        from carnotpde import f_eval, trace_p

        for struct, spec in ((HEIS, trace_operator(HEIS)), (EUC2, pucci_operator(EUC2, 1.0, 2.0))):
            n = struct.n
            terms = []
            for i in range(n):
                terms.append([float(rng.normal()), *(2 if k == i else 0 for k in range(n))])
                terms.append([float(rng.normal()), *(1 if k == i else 0 for k in range(n))])
            terms.append([float(rng.normal()), *([1] * 2 + [0] * (n - 2))])
            q = polynomial_field(terms, n)
            coeffs = Coefficients(
                c=lambda x: 1.0,
                f=lambda x: 0.0,
                L_c=0.0,
                beta=1.0,
                L_f=0.0,
                beta_prime=1.0,
                c0=1.0,
            )
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
            hess_diag_sum = sum(abs(q.hessian(np.zeros(n))[k, k]) for k in range(n))
            trp_max = max(trace_p(struct, coords[idx]) for idx in deep)
            envelope = trp_max * hess_diag_sum * grid.h**2 / h_eff**2
            worst = 0.0
            for idx in deep[:: max(1, len(deep) // 64)]:
                x = coords[idx]
                exact = f_eval(spec, q.hessian(x), x) - coeffs.c(x) * q.value(x) - coeffs.f(x)
                worst = max(worst, abs(discrete_operator(spec, coeffs, u, idx) - exact))
            assert worst <= envelope

    def test_single_node_matches_vectorized(self):
        spec, coeffs, grid, _, ustar = heisenberg_instance()
        op = DiscreteOperator(spec, coeffs, grid)
        rng = np.random.default_rng(7)
        u = from_callable(grid, lambda x: float(np.sin(x[0]) + x[1] * x[2]))
        res = op.residual(u.flat)
        for pick in rng.integers(0, op.interior.size, size=24):
            node = int(op.interior[pick])
            single = discrete_operator(spec, coeffs, u, node)
            assert single == pytest.approx(float(res[pick]), rel=1e-9, abs=1e-9)

    def test_default_stencil_width(self):
        assert default_h_eff_cells(0.25) == 2
        assert default_h_eff_cells(2.0 / 15.0) == 2
        assert default_h_eff_cells(2.0 / 31.0) == 3
        assert default_h_eff_cells(1.0) == 1


class TestSolve:
    def test_zero_data_gives_zero_solution(self):
        spec = trace_operator(HEIS)
        coeffs = Coefficients(
            c=lambda x: 1.0, f=lambda x: 0.0, L_c=0.0, beta=1.0, L_f=0.0, beta_prime=1.0, c0=1.0
        )
        grid = Grid((-1, -1, -1), (1, 1, 1), (9, 9, 9))
        u, rep = solve(spec, coeffs, grid, SolveConfig(boundary=lambda x: 0.0))
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
        a = (op.trace_matrix()[:, op.interior] - sp.diags(op.c_vec)).toarray()
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
            f2 = lambda x, df=df, k=k: coeffs.f(x) - df * (1.0 + np.sin(k @ x))
            g2 = lambda x, dg=dg, k=k: ustar.value(x) + dg * (1.0 + np.cos(k @ x))
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

    def test_cfl_validation(self):
        spec, coeffs, grid, _, ustar = heisenberg_instance()
        op = DiscreteOperator(spec, coeffs, grid)
        cfg = SolveConfig(boundary=ustar.value, dt=op.cfl_bound * 2.0)
        with pytest.raises(ValueError):
            solve(spec, coeffs, grid, cfg)

    @pytest.mark.parametrize("name", ["trace", "pucci_plus"])
    def test_non_convergence_reported(self, name):
        spec, coeffs, grid, cfg = solve_instance(name)
        _, rep = solve(spec, coeffs, grid, replace(cfg, max_iters=3))
        assert not rep.converged
        assert rep.iterations == 3
        assert rep.final_residual == rep.residual_history[-1] > cfg.tol

    def test_policy_step_without_progress_ends_the_solve(self, monkeypatch):
        # a policy whose system u already solves to tol adds no Krylov step,
        # so repeating it would loop forever; the solve reports instead
        spec, coeffs, grid, cfg = solve_instance("pucci_plus")
        calls = []

        def fixed_policy(op, u_flat):
            calls.append(1)
            assert len(calls) <= 3, "policy step repeated without progress"
            return op.trace_matrix()

        monkeypatch.setattr(DiscreteOperator, "policy_matrix", fixed_policy)
        _, rep = solve(spec, coeffs, grid, cfg)
        assert not rep.converged
        assert rep.outer_iterations == len(calls) == 2
        assert rep.residual_history[-1] == rep.residual_history[-2] > cfg.tol

    def test_non_finite_data_raises(self):
        spec, coeffs, grid, cfg, _ = heisenberg_instance()
        bad = replace(coeffs, f=lambda x: np.nan if np.allclose(x, 0.0) else coeffs.f(x))
        with pytest.raises(NumericalError):
            solve(spec, bad, grid, cfg)

    @pytest.mark.parametrize("name", ["trace", "pucci_plus"])
    def test_warm_start_shortens_iteration(self, name):
        spec, coeffs, grid, cfg = solve_instance(name)
        u_cold, rep_cold = solve(spec, coeffs, grid, cfg)
        warm_cfg = SolveConfig(boundary=cfg.boundary, initial=u_cold)
        u_warm, rep_warm = solve(spec, coeffs, grid, warm_cfg)
        assert rep_warm.converged
        assert rep_warm.iterations == 0 < rep_cold.iterations
        assert rep_warm.outer_iterations == 0 < rep_cold.outer_iterations
        assert rep_warm.residual_history == [rep_cold.final_residual]
        assert np.array_equal(u_warm.values, u_cold.values)

    @pytest.mark.parametrize("shape", [(9, 9, 9), (17, 17, 17)])
    @pytest.mark.parametrize("c_value", [1.0, 0.05])
    def test_trace_solve_matches_direct_solve(self, shape, c_value):
        from scipy.sparse.linalg import spsolve

        spec, coeffs, grid, cfg, _ = heisenberg_instance(c_value, shape)
        u, rep = solve(spec, coeffs, grid, cfg)
        assert rep.converged and rep.method == "bicgstab"
        op = DiscreteOperator(spec, coeffs, grid)
        true_residual = float(np.abs(op.residual(u.flat)).max())
        assert rep.final_residual == true_residual <= cfg.tol
        tm = op.trace_matrix()
        boundary_values = u.flat.copy()
        boundary_values[op.interior] = 0.0
        system = (tm[:, op.interior] - sp.diags(op.c_vec)).tocsc()
        direct = spsolve(system, op.f_vec - tm @ boundary_values)
        assert np.abs(u.flat[op.interior] - direct).max() <= cfg.tol / coeffs.c0

    def test_extremal_kind_solve(self):
        spec = pucci_operator(EUC2, 1.0, 2.0, plus=True)
        ustar = polynomial_field([[1.0, 2, 0], [1.0, 0, 2]], 2)
        c = lambda x: 1.0
        f = manufactured_rhs(spec, c, ustar)
        assert f(np.zeros(2)) == pytest.approx(8.0)  # Lambda * tr(2 I) - |0|^2
        coeffs = Coefficients(
            c=c, f=f, L_c=0.0, beta=1.0, L_f=2.0 * np.sqrt(2.0), beta_prime=1.0, c0=1.0
        )
        grid = Grid((-1, -1), (1, 1), (17, 17))
        u, rep = solve(spec, coeffs, grid, SolveConfig(boundary=ustar.value))
        assert rep.converged
        assert rep.method == "policy"
        exact = from_callable(grid, ustar.value)
        assert np.abs(u.values - exact.values).max() <= 0.02

    @pytest.mark.parametrize("kind", ["pucci_plus", "pucci_minus"])
    @pytest.mark.parametrize(
        "structure, c_value, shape",
        [
            ("euclidean:2", 1.0, (17, 17)),
            ("euclidean:2", 0.05, (17, 17)),
            ("heisenberg1", 1.0, (9, 9, 9)),
            ("engel1", 1.0, (7, 7, 7, 7)),
            ("euclidean:3", 1.0, (9, 9, 9)),  # m = 3: eigvalsh in the residual
        ],
    )
    def test_policy_solve_matches_explicit_reference(self, kind, structure, c_value, shape):
        spec, coeffs, grid, cfg, _ = pucci_instance(kind, preset(structure), c_value, shape)
        u, rep = solve(spec, coeffs, grid, cfg)
        assert rep.converged and rep.method == "policy"
        op = DiscreteOperator(spec, coeffs, grid)
        true_residual = float(np.abs(op.residual(u.flat)).max())
        assert rep.final_residual == true_residual <= cfg.tol
        assert rep.residual_history[-1] == rep.final_residual
        assert len(rep.residual_history) == rep.outer_iterations + 1
        assert 1 <= rep.outer_iterations <= rep.iterations
        reference, reference_residual = _explicit_reference(spec, coeffs, grid, cfg)
        assert reference_residual <= cfg.tol
        assert np.abs(u.flat - reference).max() <= 2.0 * cfg.tol / coeffs.c0

    def test_two_box_sensitivity_finite(self):
        spec, coeffs, grid, cfg, _ = heisenberg_instance(shape=(9, 9, 9))
        gap = two_box_sensitivity(spec, coeffs, grid, cfg, pad_cells=2)
        assert 0.0 <= gap < 1.0

    def test_report_fields(self):
        spec, coeffs, grid, cfg, _ = heisenberg_instance()
        _, rep = solve(spec, coeffs, grid, cfg)
        payload = rep.to_dict()
        for key in ("iterations", "final_residual", "converged", "dt", "wall_time_s"):
            assert key in payload
        assert payload["schema_version"] == 1
        assert payload["method"] == "bicgstab"
        assert 0.0 < payload["assembly_s"] <= payload["wall_time_s"]
        op = DiscreteOperator(spec, coeffs, grid)
        assert payload["nnz"] == sum(a.nnz for a in op.diag_ops) > 0
        assert payload["outer_iterations"] == 1
        history = payload["residual_history"]
        assert len(history) == 2 and history[0] > cfg.tol >= history[1]
        assert history[1] == payload["final_residual"]
