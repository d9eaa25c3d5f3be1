"""Synthetic multi-view rigs and the end-to-end verification pipeline.

The harness builds a circular rig of cameras aimed at a common center,
populates a scene with joints carrying well-separated unit descriptors, and
renders per-view descriptor maps: each joint splats its descriptor under a
Gaussian around its projection. Because every quantity is known in closed
form, the pipeline can verify geometry, sampling, fusion, readout, and
triangulation end to end; it checks the machinery, not any learned model.

Keypoints are read out by correlating a fused map with each descriptor and
taking the sub-pixel peak. Optional Gaussian pixel noise perturbs the
detections before per-joint RANSAC triangulation. The report carries MPJPE
against the true joints, a joint detection rate, the attention matching
accuracy (how often the argmax attention sample lands within one sample
step of the true correspondence), and per-joint similarity profiles; both
come from attention at each joint's query pixel, with the fusion pass's bits.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DescriptorSaturation,
    DimsTooLarge,
    IndexOutOfRange,
    InvalidAngle,
    ShapeMismatch,
)
from .fusion import (
    VARIANTS,
    WEIGHT_MODES,
    FusionParams,
    ForwardResult,
    _attend_at,
    transformer_backward,
    transformer_forward,
)
from .geometry import PROJECTION_W, CameraView, camera_at_resolution
from .metrics import argmax_peak, jdr, mpjpe
from .sampler import FeatureMap, plan_epipolar_sampling, sample_parameters
from .triangulation import triangulate_joints


@dataclass(eq=False)
class Rig:
    """Cameras on a circle around the origin plus their pairwise view angles."""

    cameras: list[CameraView]
    angles_deg: np.ndarray  # (n, n) optical-axis separations

    @property
    def n_views(self) -> int:
        return len(self.cameras)


@dataclass(eq=False)
class Scene:
    """Joints (mm) with one unit descriptor row per joint."""

    joints: np.ndarray  # (J, 3)
    descriptors: np.ndarray  # (J, C), unit rows, pairwise dot < 0.5

    @property
    def n_joints(self) -> int:
        return self.joints.shape[0]

    @property
    def channels(self) -> int:
        return self.descriptors.shape[1]


def make_rig(
    n_cameras: int,
    angle_deg: float,
    radius_mm: float,
    image_wh: int | tuple[int, int],
    focal_px: float,
    seed: int | np.random.SeedSequence = 0,
) -> Rig:
    """Cameras on a circle of the given radius, all aimed at the origin.

    Consecutive cameras are separated by angle_deg along the circle, which
    equals the angle between their optical axes since every axis passes
    through the center. The starting azimuth is drawn from the seed.
    """
    if not (0.0 < angle_deg < 180.0):
        raise InvalidAngle("separation angle must lie in (0, 180) degrees")
    if n_cameras < 2:
        raise ValueError("a rig needs at least two cameras")
    if n_cameras * angle_deg > 360.0 + 1e-9:
        raise InvalidAngle("rig wraps past a full circle; reduce cameras or angle")
    if radius_mm <= 0.0 or focal_px <= 0.0:
        raise ValueError("radius and focal length must be positive")
    w, h = (image_wh, image_wh) if isinstance(image_wh, int) else image_wh

    rng = np.random.default_rng(seed)
    start = rng.uniform(0.0, 2.0 * np.pi)
    intrinsics = np.array(
        [
            [focal_px, 0.0, (w - 1) / 2.0],
            [0.0, focal_px, (h - 1) / 2.0],
            [0.0, 0.0, 1.0],
        ]
    )
    cameras = []
    axes = []
    for i in range(n_cameras):
        az = start + i * np.deg2rad(angle_deg)
        center = radius_mm * np.array([np.cos(az), np.sin(az), 0.0])
        z = -center / np.linalg.norm(center)
        x = np.cross(z, np.array([0.0, 0.0, 1.0]))
        x = x / np.linalg.norm(x)
        y = np.cross(z, x)
        rot = np.stack([x, y, z])
        t = -rot @ center
        try:
            cameras.append(CameraView(intrinsics @ np.hstack([rot, t[:, None]]), w, h))
        except ValueError as exc:
            raise ConfigError(f"'focal_px' {focal_px:g} and 'radius_mm' {radius_mm:g} "
                              f"give an invalid camera: {exc}") from exc
        axes.append(z)
    ax = np.asarray(axes)
    angles = np.degrees(np.arccos(np.clip(ax @ ax.T, -1.0, 1.0)))
    return Rig(cameras=cameras, angles_deg=angles)


# Descriptor draws make_scene spends before it gives up.
_MAX_DRAWS = 1000


def make_scene(
    n_joints: int,
    extent_mm: float,
    channels: int,
    seed: int | np.random.SeedSequence = 0,
) -> Scene:
    """Joints uniform in a centered cube with well-separated descriptors.

    Descriptors are unit vectors redrawn until every pairwise dot product
    stays below 0.5; DescriptorSaturation is raised once _MAX_DRAWS draws
    have been spent (too many joints for too few channels).
    """
    if n_joints < 1:
        raise ValueError("need at least one joint")
    if channels < 4:
        raise ValueError("need at least four descriptor channels")
    if extent_mm <= 0.0:
        raise ValueError("scene extent must be positive")
    rng = np.random.default_rng(seed)
    joints = rng.uniform(-extent_mm / 2.0, extent_mm / 2.0, size=(n_joints, 3))
    accepted: list[np.ndarray] = []
    draws = 0
    while len(accepted) < n_joints:
        if draws >= _MAX_DRAWS:
            raise DescriptorSaturation(
                f"{len(accepted)} of {n_joints} descriptors after {draws} draws"
            )
        v = rng.standard_normal(channels)
        draws += 1
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            continue
        v = v / norm
        if all(float(np.dot(v, d)) < 0.5 for d in accepted):
            accepted.append(v)
    return Scene(joints=joints, descriptors=np.asarray(accepted))


def render_descriptor_map(
    cam: CameraView,
    scene: Scene,
    sigma_px: float = 2.0,
    map_wh: int | tuple[int, int] | None = None,
) -> FeatureMap:
    """Descriptor splat map: sum_j d_j * exp(-|pixel - proj_j|^2 / 2 sigma^2).

    The Gaussian is separable, so the map is one product: with the 1-D
    factors ex (J, W) and ey (J, H), rows_j = ex_j (x) d_j is a (J, W*C)
    matrix and the map is ey.T @ rows, reshaped to (H, W, C). Joints behind
    the camera are dropped before the product; joints outside the map still
    contribute their Gaussian tail. With map_wh below the camera resolution
    the camera is rescaled first so projections land in map coordinates.
    """
    two_var = 2.0 * sigma_px * sigma_px
    if not (sigma_px > 0.0 and 0.0 < two_var < np.inf):
        raise ValueError("sigma must be positive, with 2 sigma^2 finite and nonzero")
    cam_m = _camera_at_map_resolution(cam, map_wh)
    mw, mh = cam_m.width, cam_m.height
    proj = _project_joints(cam_m, scene.joints)
    front = ~np.isnan(proj[:, 0])
    p, desc = proj[front], scene.descriptors[front]
    inv = 1.0 / two_var
    ex = np.exp(-((np.arange(mw, dtype=np.float64) - p[:, :1]) ** 2) * inv)
    ey = np.exp(-((np.arange(mh, dtype=np.float64) - p[:, 1:]) ** 2) * inv)
    rows = (ex[:, :, None] * desc[:, None, :]).reshape(len(p), mw * scene.channels)
    data = (ey.T @ rows).reshape(mh, mw, scene.channels)
    return FeatureMap._adopt(data)


def _project_joints(cam: CameraView, joints: np.ndarray) -> np.ndarray:
    """(J, 2) pixel projections, NaN for joints at or behind the principal plane."""
    proj = np.full((len(joints), 2), np.nan)
    for j, joint in enumerate(joints):
        q = cam.M @ np.append(joint, 1.0)
        if q[2] > PROJECTION_W:
            proj[j] = q[:2] / q[2]
    return proj


def _inside(p: np.ndarray, width: int, height: int) -> np.ndarray:
    """Whether (..., 2) points lie in [0, W-1] x [0, H-1]; False for NaN."""
    x, y = p[..., 0], p[..., 1]
    return (0.0 <= x) & (x <= width - 1) & (0.0 <= y) & (y <= height - 1)


def _camera_at_map_resolution(
    cam: CameraView, map_wh: int | tuple[int, int] | None
) -> CameraView:
    if map_wh is None:
        return cam
    mw, mh = (map_wh, map_wh) if isinstance(map_wh, int) else map_wh
    return camera_at_resolution(cam, mw, mh)


# -- end-to-end pipeline -------------------------------------------------------


@dataclass(eq=False)
class JointOutcome:
    joint: int
    error_mm: float | None
    analytic_error_mm: float | None
    observed_views: int
    inlier_views: int | None
    match_hits: int
    match_total: int
    profile: dict | None


@dataclass(eq=False)
class PipelineReport:
    views: int
    joints: int
    k: int
    noise_px: float
    mpjpe_mm: float | None
    analytic_mpjpe_mm: float | None
    jdr_pct: float | None
    matching_accuracy: float | None
    per_joint: list[JointOutcome]


def run_pipeline(
    rig: Rig,
    scene: Scene,
    params: FusionParams,
    k: int = 64,
    noise_px: float = 0.0,
    seed: int | np.random.SeedSequence = 0,
    *,
    sigma_px: float = 2.0,
    map_wh: int | tuple[int, int] | None = None,
    ransac_threshold_px: float = 5.0,
    ransac_iterations: int = 100,
    head_size_px: float = 10.0,
    target_angle_deg: float = 24.0,
    threads: int = 1,
    fused_out: list | None = None,
) -> PipelineReport:
    """Render, fuse, read out, and triangulate one synthetic scenario.

    Each view fuses with the source whose viewing angle is nearest the
    target separation (lower index on ties). Keypoints come from sub-pixel
    peaks of descriptor-correlation heatmaps over the fused maps; a second,
    analytic path triangulates the exact projections under the same noise
    model, isolating readout error from geometric error. Bit-reproducible
    for a fixed seed, including across thread counts: workers only evaluate
    pure functions and results are merged in view order.

    Pass a list as fused_out for the per-view fused maps (at zero w_z, the rendered maps).
    """
    cams = rig.cameras
    n_views = rig.n_views
    n_joints = scene.n_joints
    if params.channels != scene.channels:
        raise ShapeMismatch(
            f"params are for {params.channels} channels, scene has {scene.channels}"
        )

    cams_m = [_camera_at_map_resolution(cam, map_wh) for cam in cams]
    mw, mh = cams_m[0].width, cams_m[0].height
    src_of = _choose_sources(rig.angles_deg, target_angle_deg)

    entropy = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    s_heat, s_analytic, s_ransac_heat, s_ransac_analytic = entropy.spawn(4)

    # True projections and visibility at map resolution.
    proj = np.stack([_project_joints(cam, scene.joints) for cam in cams_m])
    visible = _inside(proj, mw, mh)

    # Views run `threads` at a time in _view_order. Each map is rendered for
    # the first view that reads it and dropped after the last, and a fused
    # map is kept only for fused_out, so one thread holds a few maps, not all.
    def render(m):
        return render_descriptor_map(cams[m], scene, sigma_px, (mw, mh))

    def fuse(r):
        return _fuse_and_match(r, src_of[r], maps, cams_m, proj, visible, params, k,
                               scene.descriptors, fused_out is not None)

    order, step = _view_order(src_of), max(1, threads)
    maps: dict[int, FeatureMap] = {}
    per_view: list = [None] * n_views
    for lo in range(0, n_views, step):
        chunk = order[lo : lo + step]
        new = sorted({m for r in chunk for m in (r, src_of[r])} - maps.keys())
        maps.update(zip(new, _ordered_map(render, new, threads)))
        for r, out in zip(chunk, _ordered_map(fuse, chunk, threads)):
            per_view[r] = out
        later = {m for r in order[lo + step :] for m in (r, src_of[r])}
        maps = {m: fmap for m, fmap in maps.items() if m in later}
    match_hits = sum(v[1] for v in per_view)
    match_total = sum(v[2] for v in per_view)
    profiles = per_view[0][3]
    if fused_out is not None:
        fused_out.extend(v[4] for v in per_view)

    # Optional detection noise on the heatmap peaks.
    detections = np.stack([v[0] for v in per_view])
    noise = np.random.default_rng(s_heat).standard_normal((n_views, n_joints, 2))
    detections = detections + noise_px * noise
    analytic_noise = np.random.default_rng(s_analytic).standard_normal(
        (n_views, n_joints, 2)
    )
    analytic_det = proj + noise_px * analytic_noise

    stack = np.stack([cam.M for cam in cams_m])
    # Each path's triangulated joints, {joint: TriangulationResult} in joint order.
    heat, ana = (
        {j: r for j, r in enumerate(triangulate_joints(
            [(stack[seen], det[seen, j]) for j, seen in enumerate(visible.T)],
            ransac_threshold_px, ransac_iterations, seq)) if not isinstance(r, str)}
        for det, seq in ((detections, s_ransac_heat), (analytic_det, s_ransac_analytic))
    )
    mpjpe_mm, analytic_mpjpe_mm = (
        mpjpe(np.array([r.point for r in solved.values()]), scene.joints[list(solved)])
        if solved else None
        for solved in (heat, ana)
    )

    vis_idx = np.argwhere(visible)
    if len(vis_idx):
        pred2d = detections[vis_idx[:, 0], vis_idx[:, 1]]
        gt2d = proj[vis_idx[:, 0], vis_idx[:, 1]]
        jdr_pct = jdr(pred2d, gt2d, head_size_px)
    else:
        jdr_pct = None

    per_joint = []
    for j in range(n_joints):
        err, ana_err = (
            float(np.linalg.norm(solved[j].point - scene.joints[j])) if j in solved else None
            for solved in (heat, ana)
        )
        per_joint.append(
            JointOutcome(
                joint=j,
                error_mm=err,
                analytic_error_mm=ana_err,
                observed_views=int(np.sum(visible[:, j])),
                inlier_views=int(np.sum(heat[j].inliers)) if j in heat else None,
                match_hits=int(match_hits[j]),
                match_total=int(match_total[j]),
                profile=profiles[j],
            )
        )
    total_pairs = int(np.sum(match_total))
    return PipelineReport(
        views=n_views,
        joints=n_joints,
        k=k,
        noise_px=float(noise_px),
        mpjpe_mm=mpjpe_mm,
        analytic_mpjpe_mm=analytic_mpjpe_mm,
        jdr_pct=jdr_pct,
        matching_accuracy=(float(np.sum(match_hits)) / total_pairs) if total_pairs else None,
        per_joint=per_joint,
    )


def _ordered_map(fn, items, threads: int) -> list:
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _choose_sources(angles_deg: np.ndarray, target_angle_deg: float) -> list[int]:
    n = angles_deg.shape[0]
    sources = []
    for r in range(n):
        cost = np.abs(angles_deg[r] - target_angle_deg)
        cost[r] = np.inf
        sources.append(int(np.argmin(cost)))
    return sources


def _view_order(src_of: list[int]) -> list[int]:
    """Views in an order that renders few maps ahead.

    Each next view is the one reading the fewest maps not yet rendered, the
    lowest index on ties.
    """
    order, rendered = [], set()
    while len(order) < len(src_of):
        r = min((v for v in range(len(src_of)) if v not in order),
                key=lambda v: len({v, src_of[v]} - rendered))
        order.append(r)
        rendered |= {r, src_of[r]}
    return order


def _query_pixel(p: np.ndarray, width: int, height: int) -> tuple[int, int]:
    qx = int(np.clip(np.rint(p[0]), 0, width - 1))
    qy = int(np.clip(np.rint(p[1]), 0, height - 1))
    return qx, qy


def _fuse_and_match(r, s, maps, cams_m, proj, visible, params, k, descriptors, keep_fused):
    """Fuse view r with source s, read its heatmap peaks, and match at its joints.

    A joint seen in both views counts once; it is a hit when the largest
    weight at its rounded reference pixel, from _attend_at, sits within one
    sample step of its true source projection. Profiles are read for
    reference view 0 only. Returns ((J, 2) peaks, hits, totals, profiles,
    fused map or None without keep_fused).
    """
    fused = transformer_forward(maps[r], maps[s], cams_m[r], cams_m[s], params, k).fused
    peaks = _read_peaks(fused, descriptors)
    n_joints = visible.shape[1]
    hits = np.zeros(n_joints, dtype=int)
    totals = (visible[r] & visible[s]).astype(int)
    profiles: list[dict | None] = [None] * n_joints
    joints = np.flatnonzero(totals)
    pixels = [_query_pixel(proj[r, j], maps[r].width, maps[r].height) for j in joints]
    valid, locations, samples, weights = _attend_at(
        maps[r], maps[s], cams_m[r], cams_m[s], params, k, pixels
    )
    for i, n in enumerate(np.flatnonzero(valid)):
        j, (qx, qy) = joints[n], pixels[n]
        best = locations[i, int(np.argmax(weights[i]))]
        span = float(np.linalg.norm(locations[i, -1] - locations[i, 0]))
        step = span / (k - 1) if k > 1 else span / 2.0
        hits[j] = float(np.linalg.norm(best - proj[s, j])) <= step + 1e-9
        if r == 0:
            dots = samples[i] @ maps[r].data[qy, qx]
            profiles[j] = _profile(r, s, locations[i], weights[i], dots)
    return peaks, hits, totals, profiles, fused if keep_fused else None


def _read_peaks(fmap: FeatureMap, descriptors: np.ndarray) -> np.ndarray:
    """(J, 2) sub-pixel heatmap peaks over fmap, all from one (J, C) @ (C, H*W) product."""
    heat = descriptors @ fmap.data.reshape(-1, fmap.channels).T
    return np.array([argmax_peak(h.reshape(fmap.height, fmap.width))[0]
                     for h in heat]).reshape(-1, 2)


def _profile(ref_view: int, src_view: int, locations, weights, dots) -> dict:
    """Similarity profile: K sample locations, their weights and raw dots."""
    return {
        "ref_view": ref_view,
        "src_view": src_view,
        "t": sample_parameters(len(weights)).tolist(),
        "x": locations[:, 0].tolist(),
        "y": locations[:, 1].tolist(),
        "weight": weights.tolist(),
        "dot": dots.tolist(),
    }


# -- scenario configuration ----------------------------------------------------


# Bounds on the config's lengths (mm) and pixel scales. Inside them, every
# coordinate and its square stay far from float64 overflow and underflow.
_MIN_SCALE, _MAX_SCALE = 1e-6, 1e9


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one synthetic run (JSON-serializable)."""

    cameras: int = 10
    angle_deg: float = 24.0
    radius_mm: float = 2000.0
    joints: int = 21
    channels: int = 16
    sigma_px: float = 2.0
    k: int = 64
    noise_px: float = 0.0
    seed: int = 7
    variant: str = "identity"
    weight_mode: str = "softmax"
    image_wh: int = 160
    focal_px: float = 200.0
    extent_mm: float = 600.0
    map_wh: int | None = None
    ransac_threshold_px: float = 5.0
    ransac_iterations: int = 100
    head_size_px: float = 10.0
    target_angle_deg: float = 24.0

    def __post_init__(self) -> None:
        # Range checks, so a bad config fails as a config error before any compute.
        scales = f"[{_MIN_SCALE:g}, {_MAX_SCALE:g}]"
        for key, ok, need in (
            ("cameras", self.cameras >= 2, "at least 2"),
            ("joints", self.joints >= 1, "at least 1"), ("seed", self.seed >= 0, "non-negative"),
            ("channels", self.channels >= 4, "at least 4"),
            ("image_wh", self.image_wh >= 2, "at least 2"),
            *((key, _MIN_SCALE <= getattr(self, key) <= _MAX_SCALE, f"in {scales}")
              for key in ("radius_mm", "focal_px", "extent_mm")),
            ("target_angle_deg", 0 <= self.target_angle_deg <= 180, "in [0, 180]"),
            ("angle_deg", 0 < self.angle_deg < 180, "in (0, 180)"),
            ("angle_deg", self.cameras * self.angle_deg <= 360 + 1e-9,
             "at most 360 / cameras, so the rig does not wrap past a full circle"),
            ("K", self.k >= 1, "at least 1"),
            ("sigma_px", self.sigma_px > 0 and 0 < 2 * self.sigma_px * self.sigma_px < np.inf,
             "positive, with 2 sigma_px^2 finite and nonzero"),
            ("ransac_iterations", self.ransac_iterations >= 1, "at least 1"),
            ("ransac_threshold_px", 0 < self.ransac_threshold_px < np.inf, "positive and finite"),
            ("map_wh", self.map_wh is None or self.map_wh >= 2, "at least 2"),
            ("head_size_px", 0 < self.head_size_px < np.inf, "positive and finite"),
            ("noise_px", 0 <= self.noise_px <= _MAX_SCALE, f"in [0, {_MAX_SCALE:g}]"),
            ("variant", self.variant in VARIANTS, f"one of {VARIANTS}"),
            ("weight_mode", self.weight_mode in WEIGHT_MODES, f"one of {WEIGHT_MODES}"),
            ("channels", self.variant != "bottleneck" or self.channels % 2 == 0,
             "even for the bottleneck variant"),
        ):
            if not ok:
                raise ConfigError(f"config key '{key}' must be {need}")


def scenario_from_dict(obj: dict) -> ScenarioConfig:
    """A config from a JSON object; each key's kind is its ScenarioConfig annotation."""
    if not isinstance(obj, dict):
        raise ConfigError("scenario config must be a JSON object")
    kinds = {f.name: f.type for f in fields(ScenarioConfig)}  # "int", "float", "int | None", ...
    values: dict = {}
    for key, raw in obj.items():
        name = "k" if key == "K" else key
        if name not in kinds:
            raise ConfigError(f"unknown config key '{key}'")
        if name in values:
            raise ConfigError(f"config key '{key}' given twice")
        kind = kinds[name]
        if raw is None and kind.endswith("| None"):
            values[name] = None
        elif kind.startswith("int"):
            if not isinstance(raw, int) or isinstance(raw, bool):
                raise ConfigError(f"config key '{key}' must be an integer")
            values[name] = raw
        elif kind.startswith("float"):
            if not isinstance(raw, (int, float)) or isinstance(raw, bool):
                raise ConfigError(f"config key '{key}' must be a number")
            values[name] = float(raw)
        else:
            if not isinstance(raw, str):
                raise ConfigError(f"config key '{key}' must be a string")
            values[name] = raw
    return ScenarioConfig(**values)


def scenario_to_dict(config: ScenarioConfig) -> dict:
    out = asdict(config)
    out["K"] = out.pop("k")
    return out


def load_scenario(path: str | Path) -> ScenarioConfig:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return scenario_from_dict(obj)


def build_scenario(
    config: ScenarioConfig,
) -> tuple[Rig, Scene, FusionParams, np.random.SeedSequence]:
    """Rig, scene, and fusion parameters for a config, plus the pipeline seed.

    All randomness forks from config.seed through one SeedSequence, so any
    consumer of the returned pieces sees the exact objects run_scenario uses.
    """
    entropy = np.random.SeedSequence(config.seed)
    s_rig, s_scene, s_params, s_pipe = entropy.spawn(4)
    rig = make_rig(
        config.cameras, config.angle_deg, config.radius_mm, config.image_wh,
        config.focal_px, s_rig,
    )
    scene = make_scene(config.joints, config.extent_mm, config.channels, s_scene)
    params = FusionParams.initialize(
        config.variant, config.weight_mode, config.channels, s_params
    )
    return rig, scene, params, s_pipe


# Bytes a run may hold at once. A config estimated over it fails before any compute.
_MEMORY_BUDGET = 1 << 30


def _check_memory(config: ScenarioConfig, threads: int = 1, keep_fused: bool = False) -> None:
    """Raise DimsTooLarge when a run of config is estimated to pass _MEMORY_BUDGET.

    A map is map_wh^2 * channels floats. The views that run at once (threads,
    at most one per camera) hold up to two rendered maps each plus one, and
    each holds a fused map (all of them when kept), its plan's segment ends
    (4 floats and a flag a pixel), its attention reads at the joints' query
    pixels (K a joint, 4 C + 11 values each) and _view_scratch_bytes.
    """
    side = config.map_wh or config.image_wh
    pixels, views, c = side * side, config.cameras, config.channels
    t = min(threads, views)
    maps = min(views, 2 * t + 1) + (views if keep_fused else t)
    reads = config.joints * config.k * (4 * c + 11)
    scratch = _view_scratch_bytes(config.joints, side, c)
    need = 8 * maps * pixels * c + t * (33 * pixels + 8 * reads + scratch)
    if need > _MEMORY_BUDGET:
        raise DimsTooLarge(f"the run would hold about {need >> 20} MB, "
                           f"over the {_MEMORY_BUDGET >> 20} MB budget")


def _view_scratch_bytes(joints: int, side: int, channels: int) -> int:
    """Bytes a running view holds beside its maps: (J, H*W) heatmaps and (J, W*C) rows."""
    return 8 * joints * side * (side + channels)


def run_scenario(
    config: ScenarioConfig, threads: int = 1, fused_out: list | None = None
) -> PipelineReport:
    """Build the rig, scene, and parameters for a config and run the pipeline."""
    _check_memory(config, threads, fused_out is not None)
    rig, scene, params, s_pipe = build_scenario(config)
    return run_pipeline(
        rig,
        scene,
        params,
        config.k,
        config.noise_px,
        s_pipe,
        sigma_px=config.sigma_px,
        map_wh=config.map_wh,
        ransac_threshold_px=config.ransac_threshold_px,
        ransac_iterations=config.ransac_iterations,
        head_size_px=config.head_size_px,
        target_angle_deg=config.target_angle_deg,
        threads=threads,
        fused_out=fused_out,
    )


def similarity_profile(
    config: ScenarioConfig, ref_view: int, src_view: int, joint: int
) -> dict | None:
    """Attention profile for one joint between one view pair of a scenario.

    The query is the joint's true projection in the reference view, rounded
    to the nearest pixel. Returns None when the joint is invisible there or
    its epipolar line misses the source map, and raises IndexOutOfRange for
    indices outside the rig or scene.
    """
    last_view = config.cameras - 1
    if not 0 <= ref_view <= last_view:
        raise IndexOutOfRange(f"reference view {ref_view} outside 0..{last_view}")
    if not 0 <= src_view <= last_view:
        raise IndexOutOfRange(f"source view {src_view} outside 0..{last_view}")
    if ref_view == src_view:
        raise IndexOutOfRange("reference and source views must differ")
    if not 0 <= joint < config.joints:
        raise IndexOutOfRange(f"joint {joint} outside 0..{config.joints - 1}")
    _check_memory(config)
    rig, scene, params, _ = build_scenario(config)

    cam_r = _camera_at_map_resolution(rig.cameras[ref_view], config.map_wh)
    cam_s = _camera_at_map_resolution(rig.cameras[src_view], config.map_wh)
    map_r = render_descriptor_map(rig.cameras[ref_view], scene, config.sigma_px, config.map_wh)
    map_s = render_descriptor_map(rig.cameras[src_view], scene, config.sigma_px, config.map_wh)

    p = _project_joints(cam_r, scene.joints[joint : joint + 1])[0]
    if not _inside(p, cam_r.width, cam_r.height):
        return None
    qx, qy = _query_pixel(p, cam_r.width, cam_r.height)
    valid, locations, samples, weights = _attend_at(
        map_r, map_s, cam_r, cam_s, params, config.k, [(qx, qy)]
    )
    if not valid[0]:
        return None
    dots = samples[0] @ map_r.data[qy, qx]
    profile = _profile(ref_view, src_view, locations[0], weights[0], dots)
    profile["joint"] = joint
    return profile


def report_to_dict(report: PipelineReport, config: ScenarioConfig | None = None) -> dict:
    out = asdict(report)
    if config is not None:
        out["config"] = scenario_to_dict(config)
    return out


def report_json(report: PipelineReport, config: ScenarioConfig | None = None) -> str:
    """Canonical serialization: sorted keys, so equal reports are equal bytes.

    A NaN or infinite value raises ValueError: JSON has no spelling for it.
    """
    text = json.dumps(report_to_dict(report, config), indent=2, sort_keys=True, allow_nan=False)
    return text + "\n"


# -- gradient verification -------------------------------------------------------


@dataclass(eq=False)
class GradCheckResult:
    max_rel_error: float
    entries: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def gradient_check(
    height: int = 8,
    width: int = 8,
    channels: int = 16,
    k: int = 8,
    seed: int = 0,
    variant: str = "identity",
    mode: str = "softmax",
    step: float = 1e-5,
    tolerance: float = 1e-5,
) -> GradCheckResult:
    """Compare transformer_backward against central finite differences.

    Checks every entry of every input and parameter gradient on a random
    two-camera rig with random maps. The epipolar segments are planned once
    and shared across evaluations since they do not depend on the perturbed
    quantities; every evaluation builds its reads from them, block by block,
    as any pass does. The relative error is floored at unit scale; a pure ratio
    would blow up on true-zero gradients where finite differences only see
    rounding noise.
    """
    if height * width * channels * k > 1_000_000:
        raise DimsTooLarge("refusing gradient check beyond H*W*C*K = 1e6")
    rig = make_rig(2, 24.0, 1000.0, (width, height), 0.75 * max(width, height), seed)
    cam_r, cam_s = rig.cameras
    rng = np.random.default_rng(seed)
    f_ref = rng.standard_normal((height, width, channels)) * 0.5
    f_src = rng.standard_normal((height, width, channels)) * 0.5
    rows = channels if variant == "identity" else channels // 2
    w_z = rng.standard_normal((rows, channels)) * 0.3
    params = replace(FusionParams.initialize(variant, mode, channels, rng), w_z=w_z)
    upstream = rng.standard_normal((height, width, channels))

    plan = plan_epipolar_sampling(cam_r, cam_s, (height, width), (height, width), k)

    def loss(ref_data: np.ndarray, src_data: np.ndarray, prm: FusionParams, axis=None):
        result: ForwardResult = transformer_forward(
            FeatureMap(ref_data), FeatureMap(src_data), cam_r, cam_s, prm, k, plan=plan
        )
        return np.sum(upstream * result.fused.data, axis=axis)

    result = transformer_forward(
        FeatureMap(f_ref), FeatureMap(f_src), cam_r, cam_s, params, k,
        plan=plan, record_grad=True,
    )
    grads = transformer_backward(result.state, upstream)

    # Fused pixel p reads f_ref only at p (its query, or its pass-through when
    # skipped). So moving one f_ref channel at every pixel at once moves each
    # pixel's own loss term upstream[p] . fused[p] by that pixel's entry of
    # the gradient alone: one pair of forwards checks a whole channel.
    numeric = np.empty_like(f_ref)
    for ch in range(channels):
        work = f_ref.copy()
        work[:, :, ch] += step
        hi = loss(work, f_src, params, axis=2)
        work[:, :, ch] = f_ref[:, :, ch] - step
        numeric[:, :, ch] = (hi - loss(work, f_src, params, axis=2)) / (2.0 * step)
    pairs = [(grads.f_ref, numeric)]

    names = ("w_z",) if variant == "identity" else ("w_z", "theta", "phi", "g")
    checks = [(f_src, grads.f_src, lambda a: loss(f_ref, a, params))] + [
        (getattr(params, name), getattr(grads, name),
         lambda a, name=name: loss(f_ref, f_src, replace(params, **{name: a})))
        for name in names
    ]
    for base, analytic, evaluate in checks:
        work = np.array(base, dtype=np.float64)
        flat = work.ravel()
        numeric = np.empty(flat.size)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            hi = evaluate(work)
            flat[idx] = original - step
            lo = evaluate(work)
            flat[idx] = original
            numeric[idx] = (hi - lo) / (2.0 * step)
        pairs.append((analytic, numeric))

    analytic = np.concatenate([a.ravel() for a, _ in pairs])
    numeric = np.concatenate([n.ravel() for _, n in pairs])
    scale = np.maximum(np.maximum(1.0, np.abs(analytic)), np.abs(numeric))
    rel = np.abs(analytic - numeric) / scale
    return GradCheckResult(max_rel_error=float(np.max(rel)), entries=rel.size, tolerance=tolerance)
