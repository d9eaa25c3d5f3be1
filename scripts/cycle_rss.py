"""Peak resident memory of a benchmark workload after each cycle.

perfbench reports one peak RSS for however many whole cycles fit in its time
budget, so the same checkout can read two memories when a run sits near a
cycle boundary, and a faster one can read higher memory only because it ran
more cycles. This runs a fixed number of cycles, with the workload's own
checks, and prints the peak after each, so two checkouts can be compared at
equal work, and one checkout's step from cycle 1 to 2 can be read:

    python3 scripts/cycle_rss.py --root . --workload sweep --seed 1 --cycles 2

Run it once per checkout, in a fresh process each time; BLAS is pinned to
one thread as in perfbench's worker.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import resource  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path("."))
    parser.add_argument("--workload", default="train")
    parser.add_argument("--cycles", type=int, default=2)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    workload = workloads.WORKLOADS[args.workload](root, args.seed)
    for cycle in range(args.cycles):
        outputs = [op() for op in workload.cycle()]
        workload.check_cycle([workload.check(i, out) for i, out in enumerate(outputs)])
        del outputs
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"cycle {cycle + 1}: peak_rss_mb {peak_mb:.1f}")


if __name__ == "__main__":
    main()
