"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scenario --seed 1 --seconds 10 --trace 0

Run from the root of an epifuse checkout. The workload runs in a fresh
worker process (worker.py), which pins BLAS and OpenMP to one thread, with
PYTHONPATH set to this checkout's src. Set-up time is the median over
seven fresh processes, each timed from spawn to its first timed
operation. --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
ones; the last stdout line is one JSON object with correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scenario", "sweep", "query", "train")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0

UNITS = {"self_s": "s/op", "calls": "calls/op", "failed": "calls/op", "misses": "calls/op",
         "sample_reads": "reads/op", "sample_tensor_mb": "MB", "valid_share": "ratio",
         "inlier_share": "ratio", "overhead_s": "s/op"}


def _worker(args: argparse.Namespace, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", str(ROOT),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    for needed in (ROOT / "src" / "epifuse" / "__init__.py", ROOT / "configs" / "default.json"):
        if not needed.is_file():
            print(f"run.py: {needed} is missing; run from an epifuse checkout", file=sys.stderr)
            return 2

    try:
        # Set-up-only processes before and after the measuring one, so the
        # samples meet more of the machine's speed changes.
        extra = 0 if args.trace else SETUP_SAMPLES // 2
        setups = [_worker(args, deadline, True)["setup_s"] for _ in range(extra)]
        result = _worker(args, deadline, False)
        setups += [_worker(args, deadline, True)["setup_s"] for _ in range(extra)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"run.py: {args.workload} failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {
            name: {"value": value, "unit": UNITS[name.rsplit(".", 1)[1]]}
            for name, value in result["per_layer"].items()
        }
    else:
        setups.append(result["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": result["ops_per_s"], "unit": "ops/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    correct = not result["errors"]
    for name, metric in metrics.items():
        print(f"{args.workload:8s} {name:50s} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload:8s} attempted {result['attempted']} failed {result['failed']}"
          f" correct {correct}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
