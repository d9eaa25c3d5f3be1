"""sha256 of epifuse's byte-stable outputs, one named line each.

epifuse promises that the same inputs and seed give the same bytes, whatever
the thread count. This prints the evidence for one checkout:

    run noise=<n> seed=<s>: <sha256>     default report at that noise_px and seed
    run cameras=17 ... threads=<t>: <sha256>  a 17-camera ring whose run drops maps and
                                          renders them again at one thread (RING17)
    sweep seed 0: 180 reports, ...       sha256 of the sweep workload's report sha256s
    profile ref=<r> src=<s> joint=<j>: <sha256>    `epifuse profile` CSV
    default <case> cmp-identical: <bool>  `epifuse run` report at --threads 1 or 2
                                          and OPENBLAS_NUM_THREADS 1 or 2, against
                                          the in-process default report
    triangulate views=<n> noise=<px> [flags]: pose <sha256> stderr <sha256> exit <code>
                                          `epifuse triangulate` on a `rig-gen` rig
                                          and seeded observations (write_observations)

Run it at two checkouts and diff the outputs; a deliberate re-roll shows as a
diff of named outputs:

    python3 scripts/output_hashes.py --root . > hashes.txt

--quick prints only the seed-7 noise-0 report (the default config's), the
profile lines and the drawn-pair triangulate line at --seed 4, in about 2 s.

In-process work runs with BLAS pinned to one thread; the cmp cases start the
CLI with their own settings. The whole list takes about 12 s on a 2-core
machine.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# (reference view, source view, joint) of the profile CSVs.
PROFILES = ((0, 1, 0), (0, 1, 10), (0, 1, 20), (0, 3, 5), (4, 2, 13), (9, 0, 7))
# --threads and OPENBLAS_NUM_THREADS of each cmp case, named as BENCH_30.json names them.
CMP_CASES = {"blas1": ("1", "1"), "threads2": ("2", "1"), "blas2": ("1", "2"),
             "threads2_blas2": ("2", "2")}
# A 17-camera ring 20 degrees apart fusing near 90 degrees: at one thread its
# run holds the maps the memory check charges only by rendering two of them again.
RING17 = {"cameras": 17, "angle_deg": 20.0, "target_angle_deg": 90.0, "seed": 0}
# (views, noise_px, flags) of the triangulate cases: every pair tried, with and
# without noise and RANSAC; pairs drawn (15 views have 105 > 100 pairs, 24 views
# 276), at 3 px, where the winning pair and so the bytes depend on the seed; a
# threshold at the noise; and 46 views, whose 1035 pairs fill several blocks.
TRIANGULATE = ((8, 0.0, ()), (8, 1.0, ()), (8, 1.0, ("--plain",)),
               (15, 3.0, ("--seed", "0")), (15, 3.0, ("--seed", "4")),
               (24, 3.0, ("--iterations", "100")),
               (8, 3.0, ("--iterations", "1500", "--threshold", "3")),
               (46, 3.0, ("--iterations", "2000")))


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def write_observations(path: Path, cams: list, noise_px: float) -> None:
    """An observations CSV of 12 joints in a 600 mm cube, seeded by the view count.

    Every camera sees every joint, with Gaussian noise_px and, on about a
    quarter of the rows, an offset of up to 40 px; joint 5 is seen in view 0
    only.
    """
    import numpy as np

    rng = np.random.default_rng(len(cams))
    rows = ["view_id,joint_id,x,y,confidence"]
    for joint, x in enumerate(rng.uniform(-300.0, 300.0, (12, 3))):
        for view in [0] if joint == 5 else range(len(cams)):
            q = cams[view].M @ np.append(x, 1.0)
            pixel = q[:2] / q[2] + rng.normal(0.0, noise_px, 2)
            if rng.random() < 0.25:
                pixel += rng.uniform(-40.0, 40.0, 2)
            rows.append(f"{view},{joint},{float(pixel[0])!r},{float(pixel[1])!r},1.0")
    path.write_text("\n".join(rows) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path("."))
    parser.add_argument("--quick", action="store_true",
                        help="only the default report's run line and the profile lines")
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from epifuse import cli, geometry, synth

    config_path = root / "configs" / "default.json"
    default = synth.load_scenario(config_path)
    runs = [(0.0, 7)] if args.quick else [(n, s) for n in (0.0, 3.0) for s in range(10)]
    for noise, seed in runs:
        config = dataclasses.replace(default, seed=seed, noise_px=noise)
        text = synth.report_json(synth.run_scenario(config), config)
        print(f"run noise={noise} seed={seed}: {sha256(text)}", flush=True)

    if not args.quick:
        config = dataclasses.replace(default, **RING17)
        for threads in (1, 2):
            text = synth.report_json(synth.run_scenario(config, threads), config)
            print(f"run {' '.join(f'{k}={v}' for k, v in RING17.items())} threads={threads}: "
                  f"{sha256(text)}", flush=True)

        import workloads

        sweep = workloads.Sweep(root, 0)
        hashes = [sha256(synth.report_json(op())) for op in sweep.cycle()]
        print(f"sweep seed 0: {len(hashes)} reports, sha256 of their sha256 list: "
              f"{sha256(chr(10).join(hashes))}", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        for ref, src, joint in PROFILES:
            out = Path(tmp) / "profile.csv"
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["profile", "--config", str(config_path), "--ref-view",
                                 str(ref), "--src-view", str(src), "--joint", str(joint),
                                 "--out", str(out)])
            digest = sha256(out.read_bytes()) if code == 0 else f"exit {code}"
            print(f"profile ref={ref} src={src} joint={joint}: {digest}", flush=True)

        if not args.quick:
            want = synth.report_json(synth.run_scenario(default), default)
            for name, (threads, blas) in CMP_CASES.items():
                out = Path(tmp) / name
                env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=blas)
                subprocess.run([sys.executable, "-m", "epifuse", "run", "--config",
                                str(config_path), "--out", str(out), "--threads", threads],
                               env=env, check=True, capture_output=True)
                same = (out / "report.json").read_bytes() == want.encode()
                print(f"default {name} cmp-identical: {same}", flush=True)

        for views, noise, flags in TRIANGULATE[4:5] if args.quick else TRIANGULATE:
            rig, obs, out = (Path(tmp) / name for name in ("rig.json", "obs.csv", "pose.csv"))
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["rig-gen", "--cameras", str(views), "--angle", repr(360.0 / views),
                          "--out", str(rig)])
            write_observations(obs, geometry.load_rig_file(rig), noise)
            out.unlink(missing_ok=True)
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli.main(["triangulate", "--rig", str(rig), "--obs", str(obs),
                                 "--out", str(out), *flags])
            pose = sha256(out.read_bytes()) if out.exists() else "-"
            print(f"triangulate {' '.join([f'views={views} noise={noise}', *flags])}: "
                  f"pose {pose} stderr {sha256(stderr.getvalue())} exit {code}", flush=True)


if __name__ == "__main__":
    main()
