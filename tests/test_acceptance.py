"""Release gate: ten end-to-end checks, one printed verdict line each.

Every test records a "[PASS]" or "[FAIL]" line with its measured numbers;
conftest replays the lines after the run so they survive output capture.
Tolerances are pinned here and nowhere else; a failing check keeps its
verdict line and then fails the assert.
"""

import itertools
import json
import time

import numpy as np

from epifuse.cli import main as cli_main
from epifuse.fusion import FusionParams, transformer_forward
from epifuse.geometry import (
    apply_affine_to_camera,
    epipolar_line,
    fundamental_matrix,
    normalize_line,
    rescale_camera,
)
from epifuse.sampler import FeatureMap, bilinear_many, epipolar_samples
from epifuse.synth import (
    ScenarioConfig,
    gradient_check,
    make_rig,
    make_scene,
    run_pipeline,
    run_scenario,
)
from epifuse.triangulation import dlt_triangulate, ransac_triangulate
from helpers import bilinear_sample, project, random_camera, random_camera_pair, rectified_pair
from test_fusion import misaligned_rectified_pair


VERDICTS: list[str] = []


def _verdict(num: int, desc: str, ok: bool, detail: str = "") -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}"
    if detail:
        line += f"  ({detail})"
    VERDICTS.append(line)
    print(line, flush=True)
    return ok


def test_criterion_01_samples_lie_on_the_epipolar_line():
    # 1,000 random camera pairs x 20 query points, K = 64: every sampled
    # location sits on the epipolar line to 1e-6 px, all under 5 seconds.
    rng = np.random.default_rng(0)
    zero_map = FeatureMap(np.zeros((64, 64, 1)))
    started = time.perf_counter()
    worst = 0.0
    n_locations = 0
    for _ in range(1000):
        ref, src = random_camera_pair(rng)
        for p in rng.uniform(0.0, 63.0, (20, 2)):
            line = epipolar_line(ref, src, p)
            samples = epipolar_samples(zero_map, ref, src, p, k=64)
            if samples is None:
                continue
            x, y = samples.locations[:, 0], samples.locations[:, 1]
            worst = max(worst, float(np.abs(line.a * x + line.b * y + line.c).max()))
            n_locations += samples.locations.shape[0]
    elapsed = time.perf_counter() - started
    ok = worst < 1e-6 and elapsed < 5.0 and n_locations > 500_000
    assert _verdict(
        1,
        "sampled locations lie on the epipolar line",
        ok,
        f"worst {worst:.3e} px over {n_locations} locations in {elapsed:.2f}s",
    )


def test_criterion_02_line_matches_fundamental_matrix():
    # Same pair population as criterion 1 (same seed, same draw order): the
    # direct line agrees with F @ p coefficientwise, and F is rank 2.
    rng = np.random.default_rng(0)
    worst_coeff = 0.0
    worst_rank = 0.0
    for _ in range(1000):
        ref, src = random_camera_pair(rng)
        f = fundamental_matrix(ref, src)
        s = np.linalg.svd(f, compute_uv=False)
        worst_rank = max(worst_rank, float(s[2] / s[0]))
        for p in rng.uniform(0.0, 63.0, (20, 2)):
            direct = epipolar_line(ref, src, p)
            via_f = normalize_line(f @ np.array([p[0], p[1], 1.0]))
            worst_coeff = max(
                worst_coeff,
                abs(direct.a - via_f.a),
                abs(direct.b - via_f.b),
                abs(direct.c - via_f.c),
            )
    ok = worst_coeff < 1e-9 and worst_rank < 1e-9
    assert _verdict(
        2,
        "epipolar_line agrees with the fundamental matrix",
        ok,
        f"coeff diff {worst_coeff:.3e}, rank-2 residual {worst_rank:.3e}",
    )


def test_criterion_03_bilinear_matches_closed_form():
    # 10,000 sub-pixel reads, borders and integer grid points included,
    # against the four-corner blend written out directly.
    rng = np.random.default_rng(3)
    fmap = FeatureMap(rng.standard_normal((32, 32, 4)))
    pts = rng.uniform(0.0, 31.0, (10_000, 2))
    pts[:100] = np.round(pts[:100])
    pts[100:150, 0] = 0.0
    pts[150:200, 0] = 31.0
    pts[200:250, 1] = 0.0
    pts[250:300, 1] = 31.0
    x0 = np.clip(np.floor(pts[:, 0]).astype(int), 0, 30)
    y0 = np.clip(np.floor(pts[:, 1]).astype(int), 0, 30)
    fx = (pts[:, 0] - x0)[:, None]
    fy = (pts[:, 1] - y0)[:, None]
    d = fmap.data
    expected = (
        (1.0 - fx) * (1.0 - fy) * d[y0, x0]
        + fx * (1.0 - fy) * d[y0, x0 + 1]
        + (1.0 - fx) * fy * d[y0 + 1, x0]
        + fx * fy * d[y0 + 1, x0 + 1]
    )
    got = bilinear_many(fmap, pts)
    worst = float(np.abs(got - expected).max())
    scalar_path_agrees = all(
        np.array_equal(bilinear_sample(fmap, p), row) for p, row in zip(pts[:200], got[:200])
    )
    ok = worst < 1e-12 and scalar_path_agrees
    assert _verdict(
        3,
        "bilinear sampling matches the closed-form blend",
        ok,
        f"worst {worst:.3e} over {len(pts)} points",
    )


def test_criterion_04_all_fusion_configs_preserve_dims_and_identity():
    # Both variants x both weight modes x a geometry where every pixel fuses
    # and one where every pixel is skipped. Freshly initialized parameters
    # have zero residual weights, so the output must equal the reference map
    # bit for bit in all eight configurations.
    rng = np.random.default_rng(4)
    f_ref = FeatureMap(rng.standard_normal((8, 8, 16)))
    f_src = FeatureMap(rng.standard_normal((8, 8, 16)))
    pairs = {
        "fused": rectified_pair(100.0, 8, 8),
        "skipped": misaligned_rectified_pair(8, 8),
    }
    ok = True
    for variant, mode, pair in itertools.product(
        ("identity", "bottleneck"), ("softmax", "max"), pairs.values()
    ):
        params = FusionParams.initialize(variant, mode, 16, seed=0)
        fused = transformer_forward(f_ref, f_src, pair[0], pair[1], params, k=8).fused
        ok &= (fused.height, fused.width, fused.channels) == (8, 8, 16)
        ok &= fused.data.tobytes() == f_ref.data.tobytes()
    assert _verdict(
        4,
        "all 8 fusion configs keep dims and the zero-weight identity",
        bool(ok),
        "2 variants x 2 modes x {fused, skipped}",
    )


def test_criterion_05_analytic_gradients_match_finite_differences():
    # 20 seeded checks at (H, W, C, K) = (8, 8, 16, 8), central differences
    # with h = 1e-5, alternating variants, all inside a minute.
    started = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        variant = "identity" if seed % 2 == 0 else "bottleneck"
        result = gradient_check(
            8, 8, 16, 8, seed=seed, variant=variant, step=1e-5, tolerance=1e-5
        )
        worst = max(worst, result.max_rel_error)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-5 and elapsed < 60.0
    assert _verdict(
        5,
        "backward pass matches central finite differences",
        ok,
        f"max rel error {worst:.3e} in {elapsed:.1f}s",
    )


def test_criterion_06_noiseless_rig_recovers_the_scene():
    # The bundled default scenario: 10 cameras at 24 degrees, 21 joints,
    # no detection noise. Descriptor matching, analytic triangulation, and
    # the full heatmap readout all have to hold up at once.
    config = ScenarioConfig()
    report = run_scenario(config)
    mpjpe_budget = 0.005 * config.extent_mm
    ok = (
        report.matching_accuracy is not None
        and report.matching_accuracy >= 0.99
        and report.analytic_mpjpe_mm is not None
        and report.analytic_mpjpe_mm < 1e-6
        and report.mpjpe_mm is not None
        and report.mpjpe_mm < mpjpe_budget
    )
    assert _verdict(
        6,
        "noiseless 10-camera rig recovers the scene",
        ok,
        f"matching {report.matching_accuracy:.4f}, analytic "
        f"{report.analytic_mpjpe_mm:.2e} mm, heatmap {report.mpjpe_mm:.3f} mm "
        f"(budget {mpjpe_budget:.1f})",
    )


def test_criterion_07_ransac_excludes_corrupted_views():
    # 10 views, 0.5 px detection noise, two views knocked 50 px off per
    # trial. Both corrupted views must leave the inlier mask in at least 95
    # of 100 trials, and the recovered point has to stay within 3x the error
    # of a clean 8-view triangulation.
    rig = make_rig(10, 24.0, 2000.0, (128, 128), 150.0, seed=0)
    cams = np.stack([c.M for c in rig.cameras])
    excluded = 0
    errs = []
    errs_clean = []
    for trial in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([1234, trial]))
        x = rng.uniform(-300.0, 300.0, 3)
        pixels = [project(c, x) + rng.normal(0.0, 0.5, 2) for c in rig.cameras]
        bad = rng.choice(10, size=2, replace=False)
        for v in bad:
            direction = rng.standard_normal(2)
            pixels[v] = pixels[v] + 50.0 * direction / np.linalg.norm(direction)
        pixels = np.array(pixels)
        result = ransac_triangulate(cams, pixels, threshold_px=5.0, iterations=100, seed=trial)
        if not result.inliers[bad].any():
            excluded += 1
        errs.append(float(np.linalg.norm(result.point - x)))
        clean = np.ones(10, dtype=bool)
        clean[bad] = False
        errs_clean.append(float(np.linalg.norm(dlt_triangulate(cams[clean], pixels[clean]) - x)))
    ratio = float(np.median(errs) / np.median(errs_clean))
    ok = excluded >= 95 and ratio <= 3.0
    assert _verdict(
        7,
        "corrupted views are excluded from the consensus",
        ok,
        f"excluded in {excluded}/100 trials, median error ratio {ratio:.3f}",
    )


def test_criterion_08_camera_updates_commute_with_projection():
    # 1,000 trials: an affine image warp folded into M projects like warping
    # the projection, and two rescales compose like their product.
    rng = np.random.default_rng(8)
    worst_affine = 0.0
    worst_scale = 0.0
    for _ in range(1000):
        cam = random_camera(rng)
        x = rng.normal(0.0, 60.0, 3)
        while True:
            a = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
            if abs(float(np.linalg.det(a))) >= 0.2:
                break
        b = rng.uniform(-20.0, 20.0, 2)
        warped = apply_affine_to_camera(cam, a, b, cam.width, cam.height)
        p = project(cam, x)
        worst_affine = max(
            worst_affine, float(np.linalg.norm(project(warped, x) - (a @ p + b)))
        )
        s1 = rng.uniform(1.0, 2.0, 2)
        s2 = rng.uniform(1.0, 2.0, 2)
        twice = rescale_camera(rescale_camera(cam, s1[0], s1[1]), s2[0], s2[1])
        once = rescale_camera(cam, s1[0] * s2[0], s1[1] * s2[1])
        worst_scale = max(
            worst_scale, float(np.linalg.norm(project(twice, x) - project(once, x)))
        )
    ok = worst_affine < 1e-9 and worst_scale < 1e-10
    assert _verdict(
        8,
        "affine and rescale updates commute with projection",
        ok,
        f"affine {worst_affine:.3e} px, rescale composition {worst_scale:.3e} px",
    )


def test_criterion_09_more_views_reduce_noisy_error():
    # 1 px detection noise, 50 seeds per view count. A narrow 12-degree ring
    # keeps every camera on the front side of the scene so extra views add
    # information instead of crowded edge-on detections; the median error
    # then has to drop from 2 to 4 to 8 views.
    medians = {}
    for views in (2, 4, 8):
        errs = []
        for seed in range(50):
            rig = make_rig(views, 12.0, 1500.0, (64, 64), 80.0, seed=seed)
            scene = make_scene(6, 600.0, 8, seed=1000 + seed)
            params = FusionParams.initialize("identity", "softmax", 8, seed=2000 + seed)
            report = run_pipeline(
                rig, scene, params, k=16, noise_px=1.0, seed=3000 + seed,
                ransac_iterations=25,
            )
            errs.append(report.mpjpe_mm)
        medians[views] = float(np.median(errs))
    ok = medians[2] > medians[4] > medians[8]
    assert _verdict(
        9,
        "median error falls monotonically with view count",
        ok,
        f"{medians[2]:.1f} > {medians[4]:.1f} > {medians[8]:.1f} mm",
    )


def test_criterion_10_cli_reports_are_byte_identical(tmp_path):
    # One fixed-seed scenario through the real CLI entry point: a rerun and
    # a 4-thread run must reproduce report.json byte for byte.
    config = {
        "cameras": 4, "angle_deg": 40.0, "radius_mm": 1200.0, "joints": 6,
        "channels": 8, "sigma_px": 2.0, "K": 16, "noise_px": 0.0, "seed": 11,
        "image_wh": 48, "focal_px": 60.0, "extent_mm": 400.0,
        "ransac_iterations": 25,
    }
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(config))
    reports = []
    codes = []
    for name, threads in (("first", 1), ("rerun", 1), ("threaded", 4)):
        out = tmp_path / name
        codes.append(
            cli_main(["run", "--config", str(cfg), "--out", str(out), "--threads", str(threads)])
        )
        reports.append((out / "report.json").read_bytes())
    ok = codes == [0, 0, 0] and reports[0] == reports[1] == reports[2]
    assert _verdict(
        10,
        "CLI reports are byte-identical across reruns and threads",
        ok,
        f"{len(reports[0])} bytes, threads 1/1/4",
    )
