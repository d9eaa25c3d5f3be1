"""Smoke runs of the README's sweep scripts, so a library rename cannot break them unseen."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, row_prefix, header",
    [
        pytest.param("view_sweep.py", ["--views", "2", "--seeds", "1"], "views",
                     "views,runs,median_mpjpe_mm", id="view_sweep"),
        pytest.param("angle_sweep.py", ["--angles", "24", "--seeds", "1"], "angle",
                     "angle_deg,runs,median_matching_accuracy", id="angle_sweep"),
    ],
)
def test_sweep_script_runs(tmp_path, script, args, row_prefix, header):
    out = tmp_path / "sweep.csv"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args, "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = [line for line in done.stdout.splitlines() if line.startswith(row_prefix)]
    assert len(rows) == 1
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 2
