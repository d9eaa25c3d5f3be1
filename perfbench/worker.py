"""One workload in one fresh, single-threaded process.

Started by run.py, never imported. Builds the inputs (set-up), then runs
whole cycles of operations until their summed time reaches the requested
seconds. A cycle's operations run back to back; their outputs are checked
after the cycle, outside the timing. With --trace 1 an untraced half is
followed by a traced half; the difference of their time per op is the
tracing overhead. The last stdout line is JSON.
"""

import os

# Pin every thread pool before numpy loads: OpenBLAS otherwise starts one
# thread per core, and the timings would measure the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import epifuse

import checks
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def measure(workload, seconds: float, tracer=None) -> dict:
    """Whole cycles until their summed wall time reaches `seconds`."""
    ops = workload.cycle()
    busy = 0.0
    attempted = failed = 0
    errors: list[str] = []
    while busy < seconds:
        outputs = []
        start = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
            try:
                outputs.append(op())
            except Exception:  # count it and keep measuring the rest
                outputs.append(None)
                failed += 1
                if len(errors) < 5:
                    errors.append(traceback.format_exc())
            if tracer is not None:
                tracer.end_op()
        busy += time.perf_counter() - start
        attempted += len(ops)
        if any(out is None for out in outputs):
            continue
        try:
            workload.check_cycle([workload.check(i, out) for i, out in enumerate(outputs)])
        except checks.CheckFailed as exc:
            errors.append(str(exc))
        del outputs
    return {"attempted": attempted, "failed": failed, "busy_s": busy,
            "ops_per_s": (attempted - failed) / busy, "errors": errors}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    expected = (args.root / "src" / "epifuse").resolve()
    if Path(epifuse.__file__).resolve().parent != expected:
        print(f"worker: imported epifuse from {epifuse.__file__}, not {expected}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.root, args.seed)
    setup_s = time.monotonic() - args.t0
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if not args.trace:
        result.update(measure(workload, args.seconds))
    else:
        import tracing

        plain = measure(workload, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        traced = measure(workload, args.seconds / 2, tracer)
        n_ops = traced["attempted"]
        layers = tracer.per_layer(n_ops)
        layers["trace.overhead_s"] = traced["busy_s"] / n_ops - plain["busy_s"] / plain["attempted"]
        consistency = tracer.consistency()
        tracer.write(
            OUT / f"{args.workload}-trace.json",
            {"workload": args.workload, "seed": args.seed, "consistency": consistency},
        )
        result["attempted"] = plain["attempted"] + n_ops
        result["failed"] = plain["failed"] + traced["failed"]
        result["errors"] = plain["errors"] + traced["errors"]
        if not consistency["nested"] or consistency["worst_relative_gap"] > 1e-9:
            result["errors"].append(f"trace is inconsistent: {consistency}")
        result["per_layer"] = layers
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
