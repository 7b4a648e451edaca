"""Benchmark entry point: one workload, one closed-loop run.

    python3 perfbench/run.py --workload heis-trace-32 --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports carnotpde from ``src/``
of that checkout and nothing installed elsewhere. The last line of standard
output is a JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A full record (environment, work sizes, every command) is
written under ``.perfbench_work/results/``. The exit code is 0 only when
every command passed its output checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import host

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True, help="written into every config")
    parser.add_argument("--seconds", type=float, required=True, help="closed-loop duration")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (the config schema requires it)")

    src = ROOT / "src"
    if not (src / "carnotpde" / "__init__.py").is_file():
        print(f"no carnotpde sources under {src}; run from a source checkout", file=sys.stderr)
        return 2

    host.cap_threads()
    sys.path.insert(0, str(src))
    import carnotpde

    if Path(carnotpde.__file__).resolve().parent != src / "carnotpde":
        print(f"carnotpde imported from {carnotpde.__file__}, not {src}", file=sys.stderr)
        return 2
    import bench

    scratch = ROOT / ".perfbench_work"
    return bench.run_benchmark(
        src, scratch, args.workload, args.seed, args.seconds, bool(args.trace)
    )


if __name__ == "__main__":
    sys.exit(main())
