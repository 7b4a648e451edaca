"""Run every workload, print each end-to-end metric by name and unit, and
optionally write the combined result as a BENCH_<tag>.json file.

    python3 perfbench/suite.py --seeds 1 2 3 --seconds 20 --traced --out BENCH.json

Each (workload, seed) pair is one ``run.py`` process; seeds form the outer
loop so that slow drift in machine load spreads over all workloads. Per
metric the table gives the median over seeds, the quartiles and their
spread (q3 - q1) / median, which BENCHMARK.json bounds. The raw wall and
set-up times and the speed factor (reference time / raw time, see
``speed.py``) are summarised the same way, so a change in ``wall_s`` can be
split into a change of the raw time and one of the correction. With
``--traced`` one ``--trace 1`` run per workload adds the per-layer metrics.
The exit code is nonzero when any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Figures of each run's record that explain its reference-speed times.
RAW = {"raw_wall_s": "s", "raw_setup_s": "s", "speed_factor": "1"}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    record = ROOT / ".perfbench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    record.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *argv, "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result["exit_code"] = proc.returncode
    result["elapsed_s"] = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    if record.is_file():
        full = json.loads(record.read_text())
        result["environment"] = full["environment"]
        result["work_size"] = full["work_size"]
        result["raw"] = {key: full[key] for key in RAW}
    return result


def spread(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path, help="write the combined result here")
    args = parser.parse_args(argv)

    runs: dict = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            runs[w].append(run_once(w, seed, args.seconds, 0))
    traced = {}
    if args.traced:
        traced = {w: run_once(w, args.seeds[0], args.seconds, 1) for w in args.workloads}

    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    report: dict = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    header = ("workload", "metric", "unit", "median", "q1", "q3")
    print("{:16s} {:14s} {:5s} {:>12s} {:>12s} {:>12s} spread  bound".format(*header))
    for w, results in runs.items():
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        ok &= failed == 0 and all(r["exit_code"] == 0 for r in results)
        summary = {}
        for name, meta in bounds.items():
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if not values:
                continue
            summary[name] = {"unit": meta["unit"], **spread(values)}
            s = summary[name]
            print(
                f"{w:16s} {name:14s} {meta['unit']:5s} {s['median']:12.6g} {s['q1']:12.6g} "
                f"{s['q3']:12.6g} {s['spread']:6.3f}  {meta['bound']}"
            )
        raw = {}
        for name, unit in RAW.items():
            values = [r["raw"][name] for r in results if "raw" in r]
            if values:
                raw[name] = {"unit": unit, **spread(values)}
                s = raw[name]
                print(
                    f"{w:16s} {name:14s} {unit:5s} {s['median']:12.6g} {s['q1']:12.6g} "
                    f"{s['q3']:12.6g} {s['spread']:6.3f}  -"
                )
        frac = failed / attempted if attempted else 1.0
        name = "ops_failed_frac"
        print(f"{w:16s} {name:14s} {'1':5s} {frac:12.6g}   ({failed}/{attempted} failed)")
        entry = {
            "attempted": attempted,
            "failed": failed,
            "ops_failed_frac": frac,
            # wall time of each run.py process, set-up and warm-up included
            "run_elapsed_s": [r["elapsed_s"] for r in results],
            "end_to_end": summary,
            "raw": raw,
            "work_size": results[-1].get("work_size"),
            "environment": results[-1].get("environment"),
        }
        if w in traced:
            t = traced[w]
            ok &= t["exit_code"] == 0
            entry["per_layer"] = {k: v["value"] for k, v in t["metrics"].items()}
            entry["traced_work_size"] = t.get("work_size")
        report["workloads"][w] = entry
    elapsed = [r["elapsed_s"] for results in runs.values() for r in results]
    print(f"{len(elapsed)} runs took {sum(elapsed):.0f} s, the longest {max(elapsed):.1f} s")
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
