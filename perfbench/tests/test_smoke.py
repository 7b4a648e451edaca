"""Tiny-size runs of the whole benchmark, and its contract with BENCHMARK.json."""

import json
import shutil
import subprocess
import sys

import pytest

import bench
import workloads
from conftest import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_workload_names_agree():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_reports_every_metric(tmp_path, capsys, name, trace):
    code = bench.run_benchmark(ROOT / "src", tmp_path, name, 5, 0.0, bool(trace), tiny=True)
    result = last_json(capsys.readouterr().out)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in section)
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    record = json.loads((tmp_path / "results" / f"{name}-seed5-trace{trace}.json").read_text())
    assert record["seed"] == 5
    assert record["environment"]["nproc"] >= 1
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        layers = sum(metrics[f"{layer}.self_s"] for layer in bench.tracing.LAYERS)
        total = layers + metrics["cli.unattributed_s"]
        assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
        assert (tmp_path / "results" / f"{name}-seed5-trace1.spans.json.gz").is_file()
    else:
        assert all(v > 0 for v in metrics.values())


def test_failed_check_makes_the_run_fail(tmp_path, capsys, monkeypatch):
    # (1, 0, 0) is found exactly; the centre target (0, 0, 0.25) is 12.8% off
    monkeypatch.setattr(workloads, "CC_REL_LIMIT", 0.01)
    code = bench.run_benchmark(ROOT / "src", tmp_path, "heis-cc", 5, 0.0, False, tiny=True)
    result = last_json(capsys.readouterr().out)
    assert code != 0
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (4, 2)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "heis-cc", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
