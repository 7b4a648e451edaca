#!/usr/bin/env python3
"""Manufactured-solution refinement study.

Solves the Heisenberg trace and Pucci+ instances (u* = x1^2 + x2), the
Heisenberg trace instance u* = x1^2 + x2 + x3^2, the engel1 trace instance
(u* = x1^2 + x2) and the planar extremal-operator instance (convex quartic
u*) on a ladder of grids and prints max errors, observed ratios, Krylov and
policy step counts, the stencil nnz, the negative off-centre weights of the
final policy matrix, and the assembly and solve times of each grid. Those
two are the medians of three solves, since one solve's times vary by tens
of percent on a shared host; the wall time in parentheses is all three.
Interpolation along x3 is exact for u* = x1^2 + x2, so only the x3^2
instance shows the error that interpolating along the vertical axes leaves.
The 4-D engel1 instance runs at four times the spacing, (N - 1) // 4 + 1
nodes per axis (at least 5) for each grid size N: 9^4 / 13^4 / 17^4 for
--grids 33 49 65.
"""

import argparse
import statistics
import time

import numpy as np

import carnotpde as cp


def instance(label, spec, terms, L_f):
    n = spec.structure.n
    ustar = cp.polynomial_field(terms, n)
    c = cp.constant_field(1.0, n).value
    f = cp.manufactured_rhs(spec, c, ustar)
    coeffs = cp.Coefficients(c=c, f=f, L_c=0.0, beta=1.0, L_f=L_f, beta_prime=1.0, c0=1.0)
    return label, spec, coeffs, ustar, n


def instances():
    heis, engel = cp.preset("heisenberg1"), cp.preset("engel1")
    heis_u = [[1.0, 2, 0, 0], [1.0, 0, 1, 0]]  # x1^2 + x2
    return (
        instance("heisenberg trace", cp.trace_operator(heis), heis_u, np.sqrt(5.0)),
        instance(
            "heisenberg pucci_plus",
            cp.pucci_operator(heis, 1.0, 2.0, plus=True),
            heis_u,
            np.sqrt(5.0),
        ),
        instance(
            "heisenberg trace, u* = x1^2 + x2 + x3^2",
            cp.trace_operator(heis),
            [*heis_u, [1.0, 0, 0, 2]],
            np.sqrt(5.0),
        ),
        instance(
            "engel1 trace",
            cp.trace_operator(engel),
            [[1.0, 2, 0, 0, 0], [1.0, 0, 1, 0, 0]],
            np.sqrt(5.0),
        ),
        instance(
            "planar extremal",
            cp.pucci_operator(cp.preset("euclidean:2"), 1.0, 2.0, plus=True),
            [[1.0, 4, 0], [1.0, 0, 2]],
            5.0,
        ),
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grids", type=int, nargs="+", default=[8, 16, 32])
    parser.add_argument("--tol", type=float, default=1e-6)
    args = parser.parse_args()

    for label, spec, coeffs, ustar, dim in instances():
        print(f"\n== {label} ==")
        print(
            f"{'nodes':>6} {'h':>9} {'iters':>7} {'outer':>5} {'nnz':>9} {'neg':>8} {'assembly':>8} "
            f"{'solve':>8} {'residual':>10} {'max err':>10} {'ratio':>6}"
        )
        prev = None
        for size in args.grids:
            nodes = size if dim < 4 else max(5, (size - 1) // 4 + 1)
            grid = cp.Grid((-1,) * dim, (1,) * dim, (nodes,) * dim)
            cfg = cp.SolveConfig(boundary=ustar.value, tol=args.tol)
            t0 = time.perf_counter()
            runs = [cp.solve(spec, coeffs, grid, cfg) for _ in range(3)]
            wall = time.perf_counter() - t0
            u, rep = runs[0]
            assembly = statistics.median(r.assembly_s for _, r in runs)
            solve_s = statistics.median(r.solve_s for _, r in runs)
            exact = cp.from_callable(grid, ustar.value)
            err = float(np.abs(u.values - exact.values).max())
            ratio = "" if prev is None or err == 0.0 else f"{prev / err:.2f}"
            prev = err
            flag = "" if rep.converged else "  DID NOT CONVERGE"
            print(
                f"{nodes:>6} {grid.h:>9.4f} {rep.iterations:>7} {rep.outer_iterations:>5} "
                f"{rep.nnz:>9} {rep.negative_weights:>8} {assembly:>7.3f}s {solve_s:>7.3f}s "
                f"{rep.final_residual:>10.2e} {err:>10.3e} {ratio:>6} ({wall:.1f}s){flag}"
            )


if __name__ == "__main__":
    main()
