#!/usr/bin/env python3
"""Carnot-Caratheodory distance scaling along the Heisenberg center.

For targets (0, 0, t) the control distance should scale like sqrt(t); the
script prints the estimates and the ratio d(t)/sqrt(t) at one or more
resolutions, plus the horizontal sanity distance to (1, 0, 0). Next to each
distance it prints the states the search settled, the levels it expanded, its
largest level (frontier_peak) and its own time.

    PYTHONPATH=src python scripts/run_cc_scaling.py --heights 0.25 0.5 --resolutions 0.1 0.05
"""

import argparse
import math
import time

import carnotpde as cp


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--heights", type=float, nargs="+", default=[0.25, 0.5, 1.0])
    parser.add_argument("--resolutions", type=float, nargs="+", default=[0.05])
    args = parser.parse_args()

    s = cp.preset("heisenberg1")
    for res in args.resolutions:
        t0 = time.perf_counter()
        axis = cp.cc_search(s, [0, 0, 0], [1, 0, 0], res)
        print(
            f"\nresolution {res}: d((0,0,0),(1,0,0)) = {axis.distance:.4f} "
            f"({axis.nodes_settled} states, {axis.elapsed_s:.3f}s)"
        )
        print(
            f"{'t':>6} {'d(t)':>8} {'d/sqrt(t)':>10} {'settled':>9} {'levels':>7} "
            f"{'frontier_peak':>13} {'search_s':>9}"
        )
        for t in args.heights:
            r = cp.cc_search(s, [0, 0, 0], [0, 0, t], res)
            print(
                f"{t:>6.2f} {r.distance:>8.4f} {r.distance / math.sqrt(t):>10.4f} "
                f"{r.nodes_settled:>9} {r.levels:>7} {r.frontier_peak:>13} {r.elapsed_s:>9.3f}"
            )
        print(f"({time.perf_counter() - t0:.1f}s)")

if __name__ == "__main__":
    main()
