"""The output gates pass the program's real outputs and fail wrong answers."""

import csv
import json
import math

import pytest

import workloads
from bench import reference_solve
from carnotpde.cli import main


def run_op(tmp_path, workload, k=0):
    op = workload.ops[k]
    config = workloads.write_configs(workload, tmp_path / "configs")[k]
    out = tmp_path / "out"
    code = main([op.command, "--config", str(config), "--out", str(out)])
    return op, config, out, code


def rewrite_json(path, **changes):
    report = json.loads(path.read_text())
    report.update(changes)
    path.write_text(json.dumps(report))


@pytest.fixture
def solved(tmp_path):
    return run_op(tmp_path, workloads.make("heis-trace-32", 3, tiny=True))


def test_solve_gate_passes_the_solution(solved):
    op, _, out, code = solved
    outcome = workloads.check(op, out, code)
    assert outcome.errors == []
    assert 0.0 < outcome.max_err <= op.limit
    assert outcome.counts["nodes"] == 8**3


def test_solve_gate_fails_a_perturbed_solution(solved):
    op, _, out, code = solved
    path = out / "solution.csv"
    rows = list(csv.reader(path.open()))
    rows[100][-1] = repr(float(rows[100][-1]) + 0.5)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    outcome = workloads.check(op, out, code)
    assert any("max error" in e for e in outcome.errors)


def test_solve_gate_fails_a_residual_above_tol(solved):
    op, _, out, code = solved
    rewrite_json(out / "solve_report.json", final_residual=10 * workloads.TOL)
    assert any("final residual" in e for e in workloads.check(op, out, code).errors)


def test_solve_gate_fails_non_convergence_and_a_nonzero_exit(solved):
    op, _, out, code = solved
    assert workloads.check(op, out, 3).errors
    rewrite_json(out / "solve_report.json", converged=False)
    assert "solve did not converge" in workloads.check(op, out, code).errors


@pytest.fixture
def verified(tmp_path):
    op, config, out, code = run_op(tmp_path, workloads.make("heis-verify-16", 3, tiny=True))
    return op, out, code, reference_solve(config, op)


def test_verify_gate_passes_the_report(verified):
    op, out, code, ref = verified
    outcome = workloads.check(op, out, code, ref)
    assert outcome.errors == []
    assert outcome.counts["holder.pair_count"] == 512 * 511 // 2


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"max_violation": 1e-3}, "max_violation"),
        ({"pair_count": 1000}, "pair_count"),
        ({"hypothesis_verdicts": {"c0_positive": True, "growth_condition": False}}, "verdicts"),
    ],
)
def test_verify_gate_fails_a_wrong_report(verified, changes, message):
    op, out, code, ref = verified
    rewrite_json(out / "holder_report.json", **changes)
    assert any(message in e for e in workloads.check(op, out, code, ref).errors)


def test_verify_gate_fails_a_different_solution(verified):
    op, out, code, ref = verified
    other = workloads.Reference(ref.iterations + 1, ref.final_residual, ref.max_err, ref.rel_err)
    assert workloads.check(op, out, code, other).errors


def test_exact_heisenberg_distances():
    assert workloads.heisenberg_distance([1, 0, 0]) == 1.0
    assert workloads.heisenberg_distance([0, 0, 0.5]) == math.sqrt(math.pi / 2)
    with pytest.raises(ValueError):
        workloads.heisenberg_distance([1, 0, 1])


def test_cc_gate_passes_the_estimate_and_fails_a_wrong_distance(tmp_path):
    op, _, out, code = run_op(tmp_path, workloads.make("heis-cc", 3, tiny=True), k=1)
    outcome = workloads.check(op, out, code)
    assert outcome.errors == []
    assert outcome.rel_err == pytest.approx(2 * math.sqrt(0.25) / math.sqrt(math.pi / 4) - 1)
    rewrite_json(out / "cc_report.json", distance=2 * op.exact)
    assert workloads.check(op, out, code).errors
    assert workloads.check(op, out, 3).errors
