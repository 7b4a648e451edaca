#!/usr/bin/env python3
"""Manufactured-solution refinement study.

Solves the Heisenberg trace and Pucci+ instances (u* = x1^2 + x2) and the
planar extremal-operator instance (convex quartic u*) on a ladder of grids
and prints max errors, observed ratios, Krylov and policy step counts, the
stencil nnz, and the assembly and solve times of each run.
"""

import argparse
import time

import numpy as np

import carnotpde as cp


def heisenberg_instance(spec=None):
    spec = spec or cp.trace_operator(cp.preset("heisenberg1"))
    ustar = cp.polynomial_field([[1.0, 2, 0, 0], [1.0, 0, 1, 0]], 3)
    c = cp.constant_field(1.0, 3).value
    f = cp.manufactured_rhs(spec, c, ustar)
    coeffs = cp.Coefficients(
        c=c, f=f, L_c=0.0, beta=1.0, L_f=np.sqrt(5.0), beta_prime=1.0, c0=1.0
    )
    return f"heisenberg {spec.kind}", spec, coeffs, ustar, 3


def heisenberg_pucci_instance():
    return heisenberg_instance(cp.pucci_operator(cp.preset("heisenberg1"), 1.0, 2.0, plus=True))


def extremal_instance():
    spec = cp.pucci_operator(cp.preset("euclidean:2"), 1.0, 2.0, plus=True)
    ustar = cp.polynomial_field([[1.0, 4, 0], [1.0, 0, 2]], 2)
    c = cp.constant_field(1.0, 2).value
    f = cp.manufactured_rhs(spec, c, ustar)
    coeffs = cp.Coefficients(c=c, f=f, L_c=0.0, beta=1.0, L_f=5.0, beta_prime=1.0, c0=1.0)
    return "planar extremal", spec, coeffs, ustar, 2


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grids", type=int, nargs="+", default=[8, 16, 32])
    parser.add_argument("--tol", type=float, default=1e-6)
    args = parser.parse_args()

    instances = (heisenberg_instance(), heisenberg_pucci_instance(), extremal_instance())
    for label, spec, coeffs, ustar, dim in instances:
        print(f"\n== {label} ==")
        print(
            f"{'nodes':>6} {'h':>9} {'iters':>7} {'outer':>5} {'nnz':>9} {'assembly':>8} "
            f"{'solve':>8} {'residual':>10} {'max err':>10} {'ratio':>6}"
        )
        prev = None
        for nodes in args.grids:
            grid = cp.Grid((-1,) * dim, (1,) * dim, (nodes,) * dim)
            cfg = cp.SolveConfig(boundary=ustar.value, tol=args.tol)
            t0 = time.perf_counter()
            u, rep = cp.solve(spec, coeffs, grid, cfg)
            wall = time.perf_counter() - t0
            exact = cp.from_callable(grid, ustar.value)
            err = float(np.abs(u.values - exact.values).max())
            ratio = "" if prev is None else f"{prev / err:.2f}"
            prev = err
            flag = "" if rep.converged else "  DID NOT CONVERGE"
            print(
                f"{nodes:>6} {grid.h:>9.4f} {rep.iterations:>7} {rep.outer_iterations:>5} "
                f"{rep.nnz:>9} {rep.assembly_s:>7.3f}s {rep.solve_s:>7.3f}s "
                f"{rep.final_residual:>10.2e} {err:>10.3e} {ratio:>6} ({wall:.1f}s){flag}"
            )


if __name__ == "__main__":
    main()
