"""The study scripts under scripts/ run end to end at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# positive integer columns of each script's tables; a table's header is a
# line naming all of them, and its rows the lines after it that start with a number
COLUMNS = {
    "run_convergence.py": ["nnz"],
    "run_cc_scaling.py": ["settled", "levels", "frontier_peak"],
}
# the "== label ==" line above each table of run_convergence.py, in order
CONVERGENCE_INSTANCES = [
    "heisenberg trace",
    "heisenberg pucci_plus",
    "heisenberg trace, u* = x1^2 + x2 + x3^2",
    "engel1 trace",
    "planar extremal",
]


def _starts_with_number(fields):
    try:
        float(fields[0])
    except (IndexError, ValueError):
        return False
    return True


def _tables(lines, columns):
    """(header fields, rows of fields) of every table whose header names all columns."""
    tables = []
    for k, line in enumerate(lines):
        header = line.split()
        if not set(columns) <= set(header):
            continue
        rows = []
        for row in lines[k + 1 :]:
            if not _starts_with_number(row.split()):
                break
            rows.append(row.split())
        tables.append((header, rows))
    return tables


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
    tables = _tables(lines, COLUMNS[script])
    assert tables
    if script == "run_convergence.py":
        # one table per instance, one row per grid
        labels = [line.strip("= ") for line in lines if line.startswith("== ")]
        assert labels == CONVERGENCE_INSTANCES
        assert len(tables) == len(labels)
        assert all(len(rows) == len(args) - 1 for _, rows in tables)
    for header, rows in tables:
        assert rows
        for column in COLUMNS[script]:
            at = header.index(column)
            assert all(int(row[at]) > 0 for row in rows)
