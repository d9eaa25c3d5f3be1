"""Command-line surface for the toolkit.

Structured outputs are JSON, tabular profiles are CSV; see the format notes
in --help. Every subcommand validates its inputs before creating any output
file, and files are written to a temporary sibling and renamed into place,
so an error never leaves a partial artifact. All randomness sits behind an
explicit seed: rerunning a command with the same flags reproduces its
output byte for byte.

Exit codes: 0 success, 2 usage or configuration error, 3 numeric or domain
failure (and a failed gradient check).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, Degenerate, EpifuseError, IndexOutOfRange, LengthMismatch
from .geometry import load_rig_file, rig_to_json
from .metrics import jdr, load_pose_csv, mpjpe, save_pose_csv
from .sampler import save_feature_map
from .synth import (
    ScenarioConfig,
    gradient_check,
    load_scenario,
    make_rig,
    make_scene,
    report_json,
    run_scenario,
    similarity_profile,
)
from .triangulation import load_observations, triangulate_joints

_FORMAT_NOTES = """\
file formats:
  rig JSON        array of {"M": [12 row-major floats], "width": W, "height": H}
  scene JSON      {"joints": [[x,y,z], ...], "descriptors": [[...], ...]}
  scenario JSON   {cameras, angle_deg, radius_mm, joints, channels, sigma_px,
                   K, noise_px, seed, variant, weight_mode, ...} (see README)
  report JSON     {mpjpe_mm, analytic_mpjpe_mm, jdr_pct, matching_accuracy,
                   per_joint: [...], config: {...}}
  profile CSV     header t,x,y,weight,dot; one row per sample
  observations    CSV header view_id,joint_id,x,y,confidence; confidence in [0, 1]
  pose CSV        header joint_id,x,y[,z],confidence (triangulate: inlier share)
                  (in both CSVs *_id columns hold integers, the others finite numbers)
  feature map     binary, magic FMAP + u32 H,W,C + float32 row-major values
"""


def _write_text(path: Path, text: str) -> None:
    _replace_into(path, lambda tmp: tmp.write_text(text))


def _replace_into(path: Path, save) -> None:
    """Run a saver against a temp sibling, then rename over the target."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    save(tmp)
    os.replace(tmp, path)


def _check_flags(*checks: tuple[str, bool, str]) -> None:
    """Raise ConfigError for the first (flag, in range, what it must be) out of range."""
    for flag, ok, need in checks:
        if not ok:
            raise ConfigError(f"{flag} must be {need}")


def _apply_overrides(config: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    flags = {"seed": "seed", "k": "k", "variant": "variant", "mode": "weight_mode"}
    updates = {key: getattr(args, flag) for flag, key in flags.items()
               if getattr(args, flag, None) is not None}
    return dataclasses.replace(config, **updates) if updates else config


def cmd_rig_gen(args: argparse.Namespace) -> int:
    _check_flags(
        ("--cameras", args.cameras >= 2, "at least 2"),
        ("--angle", 0.0 < args.angle < 180.0, "in (0, 180)"),
        ("--angle", args.cameras * args.angle <= 360.0 + 1e-9,
         "at most 360 / --cameras, so the rig does not wrap past a full circle"),
        ("--radius", 0.0 < args.radius < math.inf, "positive and finite"),
        ("--image-wh", args.image_wh >= 1, "at least 1"),
        ("--focal", 0.0 < args.focal < math.inf, "positive and finite"),
        ("--seed", args.seed >= 0, "non-negative"),
    )
    rig = make_rig(args.cameras, args.angle, args.radius, args.image_wh, args.focal, args.seed)
    _write_text(Path(args.out), rig_to_json(rig.cameras))
    print(f"wrote {args.cameras}-camera rig to {args.out}")
    return 0


def cmd_scene_gen(args: argparse.Namespace) -> int:
    _check_flags(
        ("--joints", args.joints >= 1, "at least 1"),
        ("--extent", 0.0 < args.extent < math.inf, "positive and finite"),
        ("--channels", args.channels >= 4, "at least 4"),
        ("--seed", args.seed >= 0, "non-negative"),
    )
    scene = make_scene(args.joints, args.extent, args.channels, args.seed)
    obj = {
        "joints": [[float(v) for v in row] for row in scene.joints],
        "descriptors": [[float(v) for v in row] for row in scene.descriptors],
    }
    _write_text(Path(args.out), json.dumps(obj, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.joints}-joint scene to {args.out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    _check_flags(("--threads", args.threads >= 1, "at least 1"))
    config = _apply_overrides(load_scenario(args.config), args)
    out_dir = Path(args.out)
    fused = [] if args.save_maps else None
    report = run_scenario(config, threads=args.threads, fused_out=fused)
    _write_text(out_dir / "report.json", report_json(report, config))
    if fused is not None:
        for i, fmap in enumerate(fused):
            _replace_into(out_dir / f"fused_{i:03d}.fmap", lambda p, m=fmap: save_feature_map(m, p))
    print(f"wrote {out_dir / 'report.json'}")
    if report.mpjpe_mm is not None:
        print(f"mpjpe_mm {report.mpjpe_mm:.6f}  jdr_pct {report.jdr_pct:.2f}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_scenario(args.config), args)
    profile = similarity_profile(config, args.ref_view, args.src_view, args.joint)
    lines = ["t,x,y,weight,dot"]
    if profile is None:
        print(
            f"warning: joint {args.joint} has no epipolar samples for views "
            f"{args.ref_view}->{args.src_view}; writing empty profile",
            file=sys.stderr,
        )
    else:
        for t, x, y, w, d in zip(
            profile["t"], profile["x"], profile["y"], profile["weight"], profile["dot"]
        ):
            lines.append(f"{t!r},{x!r},{y!r},{w!r},{d!r}")
    _write_text(Path(args.out), "\n".join(lines) + "\n")
    print(f"wrote {args.out}")
    return 0


def cmd_triangulate(args: argparse.Namespace) -> int:
    _check_flags(
        ("--threshold", args.threshold > 0.0, "positive"),
        ("--iterations", args.iterations >= 1, "at least 1"),
        ("--seed", args.seed >= 0, "non-negative"),
    )
    cameras = load_rig_file(args.rig)
    views, joints, xs, ys, _ = (np.array(col) for col in zip(*load_observations(args.obs)))
    outside = views[(views < 0) | (views >= len(cameras))]
    if len(outside):
        raise IndexOutOfRange(f"view_id {outside[0]} outside 0..{len(cameras) - 1}")
    stack, pixels = np.stack([cam.M for cam in cameras]), np.stack([xs, ys], axis=1)

    ids = np.unique(joints).tolist()
    results = triangulate_joints(
        [(stack[views[m]], pixels[m]) for m in (joints == joint_id for joint_id in ids)],
        args.threshold, args.iterations, np.random.SeedSequence(args.seed), args.plain,
    )
    poses = []  # (joint id, point, confidence: the inlier share)
    for joint_id, result in zip(ids, results):
        if isinstance(result, str):
            print(f"warning: joint {joint_id} not triangulated: {result}", file=sys.stderr)
        else:
            poses.append((joint_id, result.point, np.sum(result.inliers) / len(result.inliers)))
    if not poses:
        raise Degenerate("no joint could be triangulated")
    joint_ids, points, confidences = zip(*poses)
    _replace_into(Path(args.out), lambda p: save_pose_csv(joint_ids, points, confidences, p))
    print(f"triangulated {len(joint_ids)} joints to {args.out}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    _check_flags(
        ("--height", args.height >= 2, "at least 2"),
        ("--width", args.width >= 2, "at least 2"),
        ("--channels", args.channels >= 1, "at least 1"),
        ("--channels", args.variant != "bottleneck" or args.channels % 2 == 0,
         "even for the bottleneck variant"),
        ("--k", args.k >= 1, "at least 1"),
        ("--seed", args.seed >= 0, "non-negative"),
        ("--step", 0.0 < args.step < math.inf, "positive and finite"),
        ("--tolerance", 0.0 < args.tolerance < math.inf, "positive and finite"),
    )
    if args.mode == "max":
        print(
            "warning: max mode has subgradient-style semantics; the check treats "
            "the selected sample as locally constant",
            file=sys.stderr,
        )
    result = gradient_check(
        args.height, args.width, args.channels, args.k, args.seed,
        args.variant, args.mode, args.step, args.tolerance,
    )
    print(f"max relative error {result.max_rel_error:.3e} over {result.entries} entries")
    print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 3


def cmd_eval(args: argparse.Namespace) -> int:
    _check_flags(("--head-size", args.head_size > 0.0, "positive"))
    pred_ids, pred, _ = load_pose_csv(args.pred)
    gt_ids, gt, _ = load_pose_csv(args.gt)
    if len(pred_ids) != len(gt_ids):
        raise LengthMismatch(f"pred has {len(pred_ids)} rows, gt has {len(gt_ids)}")
    for row, (a, b) in enumerate(zip(pred_ids, gt_ids), start=2):
        if a != b:
            raise LengthMismatch(f"joint id mismatch at row {row}: {a} vs {b}")
    out = {
        "mpjpe_mm": mpjpe(pred, gt),
        "jdr_pct": jdr(pred, gt, args.head_size),
    }
    text = json.dumps(out, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        _write_text(Path(args.out), text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epifuse",
        description="Epipolar feature sampling, fusion, and triangulation toolkit.",
        epilog=_FORMAT_NOTES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("rig-gen", help="generate a circular camera rig JSON")
    p.add_argument("--cameras", type=int, default=10)
    p.add_argument("--angle", type=float, default=24.0, help="separation in degrees")
    p.add_argument("--radius", type=float, default=2000.0, help="ring radius in mm")
    p.add_argument("--image-wh", type=int, default=160)
    p.add_argument("--focal", type=float, default=200.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rig_gen)

    p = sub.add_parser("scene-gen", help="generate a synthetic scene JSON")
    p.add_argument("--joints", type=int, default=21)
    p.add_argument("--extent", type=float, default=600.0, help="cube side in mm")
    p.add_argument("--channels", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scene_gen)

    p = sub.add_parser("run", help="run a scenario end to end, write report.json")
    p.add_argument("--config", required=True, help="scenario JSON path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--k", type=int, default=None, help="override sample count")
    p.add_argument("--variant", choices=["identity", "bottleneck"], default=None)
    p.add_argument("--mode", choices=["softmax", "max"], default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--save-maps", action="store_true",
                   help="also write fused .fmap files (at zero w_z, the rendered maps)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("profile", help="export one joint's attention profile as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--ref-view", type=int, required=True)
    p.add_argument("--src-view", type=int, required=True)
    p.add_argument("--joint", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--variant", choices=["identity", "bottleneck"], default=None)
    p.add_argument("--mode", choices=["softmax", "max"], default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("triangulate", help="triangulate an observations CSV against a rig")
    p.add_argument("--rig", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--out", required=True, help="pose CSV path")
    p.add_argument("--threshold", type=float, default=5.0, help="inlier threshold in px")
    p.add_argument("--iterations", type=int, default=100,
                   help="RANSAC tries every view pair if at most this many, else draws this many")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the drawn pairs; unused where every pair is tried")
    p.add_argument("--plain", action="store_true", help="plain DLT, no RANSAC")
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    p.add_argument("--height", type=int, default=8)
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--channels", type=int, default=16)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variant", choices=["identity", "bottleneck"], default="identity")
    p.add_argument("--mode", choices=["softmax", "max"], default="softmax")
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("eval", help="MPJPE/JDR between two pose CSVs")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--head-size", type=float, default=10.0)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EpifuseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
