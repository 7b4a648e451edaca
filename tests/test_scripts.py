"""The study scripts under scripts/ run end to end at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# integer columns each script's table headers must carry
COLUMNS = {"run_convergence.py": ["nnz"], "run_cc_scaling.py": []}


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_convergence.py", ["--grids", "5", "9"]),
        ("run_cc_scaling.py", ["--heights", "0.25", "--resolutions", "0.1"]),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "DID NOT CONVERGE" not in proc.stdout
    lines = proc.stdout.splitlines()
    for column in COLUMNS[script]:
        headers = [k for k, line in enumerate(lines) if line.split()[:1] == ["nodes"]]
        assert headers
        for k in headers:
            at = lines[k].split().index(column)
            assert int(lines[k + 1].split()[at]) > 0
