"""Closed-loop measurement of one workload, and its result record.

Untraced runs (``--trace 0``) drive ``carnotpde.cli.main`` in this process and
report the end-to-end metrics. Their times are expressed at the reference
core speed (see ``speed.py``); the raw times and the ratio between the two are
kept in the record. Traced runs (``--trace 1``) alternate an untraced round
with a traced one and report the per-layer metrics as measured. The tracing
overhead is the median, over pairs of neighbouring rounds, of the traced
round's wall time minus the untraced one's, both at reference speed. Every
command of every round, warm-up included, is gated on its outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import speed
import tracing
import workloads
from host import THREAD_VARS, git_commit, nproc
from carnotpde.cli import main as cli_main
from carnotpde.config import build_setup, load_config
from carnotpde.solver import solve

SETUP_REPEATS = 5

# The set-up every CLI invocation pays, in a fresh interpreter: importing the
# package, then load_config and build_setup for each config of the round.
_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from carnotpde.config import build_setup, load_config
t1 = time.perf_counter()
for path, need_solve in json.loads(sys.argv[2]):
    build_setup(load_config(path), need_solve=need_solve)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1}))
"""


def environment(root: Path, cpu: int) -> dict:
    return {
        "nproc": nproc(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(root),
        "machine": platform.machine(),
    }


def measure_setup(src: Path, paths: list, ops, probe: speed.SpeedProbe) -> list:
    """(raw, reference-speed) set-up seconds of SETUP_REPEATS fresh
    interpreters, after one warm-up.

    The children inherit the pinned core, so the probe's speed is the speed of
    the core they ran on. The probe times its loop in thread CPU time, so the
    children's own work does not slow its clock.
    """
    plan = json.dumps([[str(p), op.command != "cc-distance"] for p, op in zip(paths, ops)])
    samples = []
    for k in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(src), plan],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        rate = probe.speed(t0, time.perf_counter())
        times = json.loads(proc.stdout.strip().splitlines()[-1])
        if k:
            seconds = times["import_s"] + times["config_s"]
            samples.append((seconds, seconds * rate))
    return samples


def reference_solve(path: Path, op: workloads.Op) -> workloads.Reference:
    """Solve a verify config in-process, untimed, for its accuracy figures."""
    setup = build_setup(load_config(path), need_solve=True)
    u, report = solve(setup.spec, setup.coeffs, setup.grid, setup.solve_cfg)
    err, rel = workloads.solution_error(op.config, u.flat)
    return workloads.Reference(report.iterations, report.final_residual, err, rel)


class Runner:
    """Runs rounds of one workload and keeps every command's record."""

    def __init__(
        self,
        workload: workloads.Workload,
        configs: list,
        work: Path,
        refs: dict,
        probe: speed.SpeedProbe,
    ):
        self.workload = workload
        self.configs = configs
        self.work = work
        self.refs = refs
        self.probe = probe
        self.records: list = []

    def _gate(self, k: int, out: Path, code, seconds: float, ref_s: float) -> workloads.Outcome:
        op = self.workload.ops[k]
        try:
            outcome = workloads.check(op, out, code, self.refs.get(k))
        except Exception:  # a gate crash is a failed check, not a crashed run
            outcome = workloads.Outcome([traceback.format_exc()])
        self.records.append(
            {
                "command": op.command,
                "seconds": seconds,
                "ref_seconds": ref_s,
                "code": code,
                "errors": outcome.errors,
                "max_err": outcome.max_err,
                "rel_err": outcome.rel_err,
                "counts": outcome.counts,
            }
        )
        for err in outcome.errors:
            print(f"FAILED {self.workload.name} {op.command}: {err}", file=sys.stderr)
        return outcome

    def round(self, tracer: tracing.Tracer | None = None) -> dict:
        """One closed-loop round; returns its raw and reference-speed wall
        times, counts and outcomes."""
        wall = ref_wall = 0.0
        counts: dict = {}
        outcomes = []
        first = len(tracer.names) if tracer else 0
        for k, (op, config) in enumerate(zip(self.workload.ops, self.configs)):
            out = self.work / f"out{k}"
            shutil.rmtree(out, ignore_errors=True)
            code = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    if tracer is None:
                        code = cli_main([op.command, "--config", str(config), "--out", str(out)])
                    else:
                        code = tracing.run_traced(tracer, op.command, config, out)
            except Exception:  # the operation failed; the loop goes on
                traceback.print_exc()
            t1 = time.perf_counter()
            seconds = t1 - t0
            ref_s = seconds * self.probe.speed(t0, t1)
            wall += seconds
            ref_wall += ref_s
            outcome = self._gate(k, out, code, seconds, ref_s)
            outcomes.append(outcome)
            for key, value in (outcome.counts or {}).items():
                counts[key] = counts.get(key, 0) + value
        result = {"wall_s": wall, "ref_wall_s": ref_wall, "counts": counts, "outcomes": outcomes}
        if tracer is not None:
            last = len(tracer.names)
            result["summary"] = tracer.summary(first, last)
            result["wall_s"] = result["summary"]["root_s"]
            counts["ccdist.nodes_expanded"] = tracing.nodes_expanded(tracer, first, last)
        return result


def _median(values) -> float:
    return float(statistics.median(values)) if values else math.nan


def _worst(outcomes, attr: str) -> float:
    values = [getattr(o, attr) for o in outcomes if not math.isnan(getattr(o, attr))]
    return max(values) if values else math.nan


def _finite(value):
    """JSON has no NaN: report a missing figure as null, in nested data too."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _references(configs: list, workload: workloads.Workload) -> dict:
    return {
        k: reference_solve(path, op)
        for k, (path, op) in enumerate(zip(configs, workload.ops))
        if op.command == "verify"
    }


def run_benchmark(
    src: Path, scratch: Path, name: str, seed: int, seconds: float, trace: bool, tiny=False
) -> int:
    """Measure one workload for at most ``seconds`` (but at least one round),
    print its result line, and write the full record under
    ``scratch/results``; returns the exit code.

    ``src`` holds the carnotpde package; ``tiny`` shrinks every instance (for
    smoke tests). A tiny round runs first, unmeasured, as the warm-up.
    """
    spec = json.loads((src.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    workload = workloads.make(name, seed, tiny)
    warm_wl = workloads.make(name, seed, tiny=True)
    work = scratch / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    try:
        configs = workloads.write_configs(workload, work / "configs")
        warm_configs = workloads.write_configs(warm_wl, work / "warm-configs")
        solve_config = next(
            (p for p, op in zip(configs, workload.ops) if op.command != "cc-distance"), None
        )
        with speed.pinned() as cpu, speed.SpeedProbe() as probe:
            setup_samples = measure_setup(src, configs, workload.ops, probe)
            warm_refs = _references(warm_configs, warm_wl)
            warm = Runner(warm_wl, warm_configs, work / "warm", warm_refs, probe)
            runner = Runner(workload, configs, work, _references(configs, workload), probe)
            tracer = tracing.Tracer() if trace else None
            warm.round()
            if tracer:
                warm.round(tracing.Tracer())
            plain, traced, assemblies = [], [], []
            t0 = time.perf_counter()
            while True:
                plain.append(runner.round())
                if tracer:
                    traced.append(runner.round(tracer))
                    assemblies.append(solve_config and tracing.assembly_probe(solve_config))
                # stop when one more round, as long as the mean one so far,
                # would end past ``seconds``
                elapsed = time.perf_counter() - t0
                if elapsed * (len(plain) + 1) / len(plain) > seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not trace:
            assemblies.append(solve_config and tracing.assembly_probe(solve_config))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = warm.records + runner.records
    failed = sum(1 for r in records if r["errors"])
    if trace:
        per_round = [
            tracing.layer_metrics(r["summary"], r["counts"], assembly)
            for r, assembly in zip(traced, assemblies)
        ]
        metrics = {key: _median([m[key] for m in per_round]) for key in per_round[0]}
        metrics["trace.wall_s"] = _median([r["wall_s"] for r in traced])
        metrics["trace.overhead_s"] = _median(
            [t["ref_wall_s"] - p["ref_wall_s"] for p, t in zip(plain, traced)]
        )
        for key, unit in units.items():
            if unit in ("count", "bytes"):
                metrics[key] = int(metrics[key])
    else:
        timed = [o for r in plain for o in r["outcomes"]]
        metrics = {
            "wall_s": _median([r["ref_wall_s"] for r in plain]),
            "setup_s": _median([ref for _, ref in setup_samples]),
            "peak_rss_mb": peak_rss_mb,
            "max_err": _worst(timed, "max_err"),
            "rel_err": _worst(timed, "rel_err"),
        }
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    work_size = dict((traced or plain)[-1]["counts"])
    work_size["solver.nnz"] = assemblies[-1][1] if assemblies[-1] else 0

    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": _finite(metrics[k]), "unit": units[k]} for k in units},
    }
    env = environment(src.parent, cpu)
    raw_wall = [r["wall_s"] for r in plain]
    ref_wall = [r["ref_wall_s"] for r in plain]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "work_size": work_size,
        "rounds": raw_wall,
        "ref_rounds": ref_wall,
        "raw_wall_s": _median(raw_wall),
        "raw_setup_s": _median([raw for raw, _ in setup_samples]),
        # reference time / raw time over the measured rounds
        "speed_factor": sum(ref_wall) / sum(raw_wall),
        "traced_rounds": [r["wall_s"] for r in traced],
        "setup_samples": [raw for raw, _ in setup_samples],
        "ref_setup_samples": [ref for _, ref in setup_samples],
        "commands": records,
        **result,
    }
    results = scratch / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    text = json.dumps(_finite(record), indent=2, allow_nan=False)
    (results / f"{stem}.json").write_text(text + "\n")
    if tracer:
        tracer.dump(results / f"{stem}.spans.json.gz")

    print(f"{name} seed={seed} rounds={len(plain)} traced={len(traced)} nproc={env['nproc']}")
    print(f"commit {env['git_commit']}; work size {json.dumps(work_size)}")
    for key, entry in result["metrics"].items():
        print(f"  {key:28s} {entry['value']!s:>24} {entry['unit']}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1
