"""Smoke runs of the README's scripts, so a library rename cannot break them unseen."""

import os
import re
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


def test_cycle_rss_script_runs(tmp_path):
    # The query workload is the smallest: one cycle takes under a second.
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "cycle_rss.py"), "--root", str(REPO),
         "--workload", "query", "--cycles", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"cycle 1: peak_rss_mb \d+\.\d\n", done.stdout)


def test_output_hashes_script_runs(tmp_path):
    # The default report (seed 7, noise 0) keeps the sha256 that BENCH_30.json
    # records for it, each profile CSV hashes to a named line, and the
    # drawn-pair triangulate case keeps its pose CSV, stderr and exit code.
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "output_hashes.py"), "--root", str(REPO), "--quick"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == ("run noise=0.0 seed=7: "
                        "ce2120c55331fac5f55c261214f1535b64c59ce523a10da170acbc78f524343a")
    assert len(lines) > 2
    assert all(re.fullmatch(r"profile ref=\d+ src=\d+ joint=\d+: [0-9a-f]{64}", line)
               for line in lines[1:-1])
    assert lines[-1] == (
        "triangulate views=15 noise=3.0 --seed 4: "
        "pose 96a2cd3d5eb02e2656e8f5a9392dd32e030d69cbcf676924b2ab07604e83451d "
        "stderr cb3d92ae6758ef6f24f1e073b96d277245092f17f0ca2b50a134f1b67145cc7d exit 0")
