import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from epifuse import sampler, synth
from epifuse.errors import (
    ConfigError,
    DescriptorSaturation,
    IndexOutOfRange,
    InvalidAngle,
)
from epifuse.fusion import FusionParams, transformer_forward
from epifuse.geometry import CameraView, camera_center, project, pseudo_inverse
from epifuse.sampler import epipolar_samples
from epifuse.synth import (
    Rig,
    Scene,
    ScenarioConfig,
    build_scenario,
    load_scenario,
    make_rig,
    make_scene,
    render_descriptor_map,
    report_json,
    report_to_dict,
    run_pipeline,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    similarity_profile,
)
from helpers import attention_weights

SMALL = ScenarioConfig(
    cameras=4,
    angle_deg=40.0,
    radius_mm=1200.0,
    joints=6,
    channels=8,
    sigma_px=2.0,
    k=16,
    noise_px=0.0,
    seed=11,
    image_wh=48,
    focal_px=60.0,
    extent_mm=400.0,
    ransac_iterations=25,
)


def center3(cam):
    c = camera_center(cam)
    return c[:3] / c[3]


class TestMakeRig:
    def test_consecutive_axis_angles(self):
        rig = make_rig(10, 24.0, 2000.0, (64, 64), 80.0, seed=0)
        for i in range(9):
            a, b = -center3(rig.cameras[i]), -center3(rig.cameras[i + 1])
            cosang = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            angle = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
            assert abs(angle - 24.0) < 0.1
            assert abs(rig.angles_deg[i, i + 1] - 24.0) < 0.1

    def test_two_cameras_at_right_angle(self):
        rig = make_rig(2, 90.0, 2000.0, (64, 64), 80.0, seed=1)
        gap = np.linalg.norm(center3(rig.cameras[0]) - center3(rig.cameras[1]))
        assert abs(gap - 2000.0 * np.sqrt(2.0)) < 1e-6

    def test_cameras_look_at_origin(self):
        rig = make_rig(5, 30.0, 1500.0, (64, 48), 80.0, seed=2)
        for cam in rig.cameras:
            p = project(cam, np.zeros(3))
            assert abs(p[0] - 31.5) < 1e-9 and abs(p[1] - 23.5) < 1e-9

    def test_radius_respected(self):
        rig = make_rig(3, 40.0, 987.0, (64, 64), 80.0, seed=3)
        for cam in rig.cameras:
            assert abs(np.linalg.norm(center3(cam)) - 987.0) < 1e-9

    def test_seed_determinism(self):
        a = make_rig(4, 30.0, 1000.0, (64, 64), 80.0, seed=4)
        b = make_rig(4, 30.0, 1000.0, (64, 64), 80.0, seed=4)
        for ca, cb in zip(a.cameras, b.cameras):
            assert np.array_equal(ca.M, cb.M)

    @pytest.mark.parametrize("n,angle", [(4, 0.0), (4, 180.0), (16, 24.0), (3, -10.0)])
    def test_invalid_angles(self, n, angle):
        with pytest.raises(InvalidAngle):
            make_rig(n, angle, 1000.0, (64, 64), 80.0)


class TestMakeScene:
    def test_descriptors_unit_and_separated(self):
        scene = make_scene(21, 600.0, 32, seed=5)
        norms = np.linalg.norm(scene.descriptors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        dots = scene.descriptors @ scene.descriptors.T
        np.fill_diagonal(dots, 0.0)
        assert dots.max() < 0.5

    def test_joints_within_extent(self):
        scene = make_scene(15, 500.0, 16, seed=6)
        assert np.all(np.abs(scene.joints) <= 250.0)

    def test_saturation(self):
        # 100 unit vectors cannot keep pairwise dots below 0.5 in 4-D.
        with pytest.raises(DescriptorSaturation):
            make_scene(100, 600.0, 4, seed=8)

    def test_determinism(self):
        a = make_scene(9, 300.0, 8, seed=9)
        b = make_scene(9, 300.0, 8, seed=9)
        assert np.array_equal(a.joints, b.joints)
        assert np.array_equal(a.descriptors, b.descriptors)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def point_on_ray(cam, pixel):
    """A 3D point in front of cam projecting exactly to the given pixel."""
    x_h = pseudo_inverse(cam.M) @ np.array([pixel[0], pixel[1], 1.0])
    c = center3(cam)
    d = x_h[:3] / x_h[3] - c
    for sgn in (1.0, -1.0):
        x = c + sgn * d
        if (cam.M @ np.append(x, 1.0))[2] > 0.0:
            return x
    raise AssertionError("ray construction failed")


class TestRenderDescriptorMap:
    def test_integer_projection_pixel_equals_descriptor(self):
        rig = make_rig(2, 30.0, 900.0, (32, 32), 40.0, seed=10)
        cam = rig.cameras[0]
        x = point_on_ray(cam, (10.0, 12.0))
        scene = Scene(joints=x[None, :], descriptors=unit(np.arange(1.0, 9.0))[None, :])
        fmap = render_descriptor_map(cam, scene, sigma_px=2.0)
        assert np.allclose(fmap.data[12, 10], scene.descriptors[0], atol=1e-9)

    def test_behind_camera_joint_omitted(self):
        rig = make_rig(2, 30.0, 900.0, (32, 32), 40.0, seed=11)
        cam = rig.cameras[0]
        x_front = point_on_ray(cam, (10.0, 12.0))
        x_behind = 2.0 * center3(cam) - x_front  # mirrored through the center
        scene = Scene(joints=x_behind[None, :], descriptors=unit(np.ones(4))[None, :])
        fmap = render_descriptor_map(cam, scene, sigma_px=2.0)
        assert not fmap.data.any()

    def test_distant_joints_keep_their_descriptors(self):
        rig = make_rig(2, 30.0, 900.0, (48, 48), 50.0, seed=12)
        cam = rig.cameras[0]
        a = point_on_ray(cam, (8.0, 8.0))
        b = point_on_ray(cam, (40.0, 40.0))
        rng = np.random.default_rng(13)
        descs = np.stack([unit(rng.standard_normal(8)), unit(rng.standard_normal(8))])
        fmap = render_descriptor_map(cam, Scene(np.stack([a, b]), descs), sigma_px=2.0)
        for pix, d in (((8, 8), descs[0]), ((40, 40), descs[1])):
            v = fmap.data[pix[1], pix[0]]
            assert v @ d / np.linalg.norm(v) > 0.999

    def test_map_resolution_override(self):
        rig = make_rig(2, 30.0, 900.0, (64, 64), 60.0, seed=14)
        scene = make_scene(3, 300.0, 8, seed=15)
        fmap = render_descriptor_map(rig.cameras[0], scene, sigma_px=2.0, map_wh=32)
        assert fmap.data.shape == (32, 32, 8)

    @pytest.mark.parametrize("map_wh", [None, 20])
    def test_maps_hold_no_negative_zero(self, map_wh):
        # A wide scene in a narrow view: joints far off the map (or behind a
        # camera) leave pixels exactly zero, where an underflowed tail meets
        # negative descriptor entries. Those zeros must all be +0.0.
        zeros = 0
        for seed in range(4):
            for joints in (1, 6):
                cfg = replace(SMALL, joints=joints, extent_mm=2000.0, focal_px=120.0,
                              image_wh=32, seed=seed, map_wh=map_wh)
                rig, scene, _, _ = build_scenario(cfg)
                for cam in rig.cameras:
                    d = render_descriptor_map(cam, scene, cfg.sigma_px, map_wh).data
                    assert not np.any(np.signbit(d) & (d == 0.0))
                    zeros += np.count_nonzero(d == 0.0)
        assert zeros > 0


class TestProjectionRule:
    """A joint behind a camera is absent from that view everywhere.

    Joint 0 sits on camera 0's optical axis just behind it, so dropping the
    depth test would put it at camera 0's principal point, inside the map.
    The opposite camera 2 sees it; joint 1 near the origin is seen by all.
    """

    def rig_scene_params(self):
        rig = make_rig(4, 90.0, 1000.0, (48, 48), 40.0, seed=5)
        behind = 1.05 * center3(rig.cameras[0])
        joints = np.stack([behind, np.array([10.0, -20.0, 15.0])])
        scene = Scene(joints=joints, descriptors=make_scene(2, 100.0, 8, seed=6).descriptors)
        q = rig.cameras[0].M @ np.append(behind, 1.0)
        assert q[2] < 0.0 and np.all((0.0 <= q[:2] / q[2]) & (q[:2] / q[2] <= 47.0))
        return rig, scene, FusionParams.initialize("identity", "softmax", 8, 7)

    def test_render_leaves_it_out(self):
        rig, scene, _ = self.rig_scene_params()
        cam = rig.cameras[0]
        both = render_descriptor_map(cam, scene).data
        alone = render_descriptor_map(cam, Scene(scene.joints[1:], scene.descriptors[1:])).data
        assert both.any() and both.tobytes() == alone.tobytes()

    def test_observed_views_exclude_it(self):
        rig, scene, params = self.rig_scene_params()
        report = run_pipeline(rig, scene, params, k=16, seed=0, ransac_iterations=25)
        assert [o.observed_views for o in report.per_joint] == [1, 4]
        assert report.per_joint[0].error_mm is None

    def test_similarity_profile_is_none(self, monkeypatch):
        rig, scene, params = self.rig_scene_params()
        cfg = replace(SMALL, angle_deg=90.0, image_wh=48, focal_px=40.0)
        monkeypatch.setattr(
            synth, "build_scenario", lambda config: (rig, scene, params, None)
        )
        assert similarity_profile(cfg, 0, 1, 0) is None
        assert similarity_profile(cfg, 0, 1, 1) is not None


class TestRunPipeline:
    def small_setup(self):
        rig, scene, params, _ = build_scenario(SMALL)
        return rig, scene, params

    def test_report_fields(self):
        rig, scene, params = self.small_setup()
        report = run_pipeline(rig, scene, params, k=16, seed=0, ransac_iterations=25)
        assert report.views == 4 and report.joints == 6 and report.k == 16
        assert report.mpjpe_mm >= 0.0
        assert report.analytic_mpjpe_mm < 1e-6
        assert 0.0 <= report.jdr_pct <= 100.0
        assert 0.0 <= report.matching_accuracy <= 1.0
        assert len(report.per_joint) == 6

    def test_noiseless_accuracy(self):
        rig, scene, params = self.small_setup()
        report = run_pipeline(rig, scene, params, k=16, seed=0, ransac_iterations=25)
        # 48 px maps quantize detections to about a pixel; the world-space
        # error stays well under a tenth of the 400 mm extent.
        assert report.mpjpe_mm < 40.0
        assert report.jdr_pct > 50.0

    def test_rotation_equivariance(self):
        # Rotating rig and scene together must not change any report
        # number. A 4x4 homogeneous rotation is orthogonal, so the
        # normalized DLT rows and the unit-norm solution rotate with it;
        # a translation would reweight the algebraic residuals of the
        # quantized detections and shift the readout MPJPE by percents.
        rig, scene, params = self.small_setup()
        base = run_pipeline(rig, scene, params, k=16, seed=3, ransac_iterations=25)

        cz, sz = np.cos(0.4), np.sin(0.4)
        cx, sx = np.cos(0.2), np.sin(0.2)
        r = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]]) @ np.array(
            [[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]]
        )
        world = np.eye(4)
        world[:3, :3] = r.T
        moved_rig = Rig(
            cameras=[CameraView(c.M @ world, c.width, c.height) for c in rig.cameras],
            angles_deg=rig.angles_deg,
        )
        moved_scene = Scene(scene.joints @ r.T, scene.descriptors)
        moved = run_pipeline(moved_rig, moved_scene, params, k=16, seed=3, ransac_iterations=25)

        assert abs(moved.mpjpe_mm - base.mpjpe_mm) < 1e-9 * max(1.0, base.mpjpe_mm)
        assert moved.matching_accuracy == base.matching_accuracy
        assert moved.jdr_pct == base.jdr_pct
        assert abs(moved.analytic_mpjpe_mm - base.analytic_mpjpe_mm) < 1e-9

    @pytest.mark.parametrize("scale", [0.0, 0.3])
    def test_fused_maps_equal_dense_pass(self, scale):
        # Matching attends on its own; the fused maps are still the dense pass's.
        rig, scene, params = self.small_setup()
        params = replace(params, w_z=scale * np.random.default_rng(4).standard_normal((8, 8)))
        fused: list = []
        run_pipeline(rig, scene, params, k=16, seed=0, ransac_iterations=25, fused_out=fused)
        maps = [render_descriptor_map(cam, scene, 2.0) for cam in rig.cameras]
        for r, s in enumerate(synth._choose_sources(rig.angles_deg, 24.0)):
            want = transformer_forward(maps[r], maps[s], rig.cameras[r], rig.cameras[s], params, 16)
            assert fused[r].data.tobytes() == want.fused.data.tobytes()

    def test_noise_is_seeded(self):
        rig, scene, params = self.small_setup()
        a = run_pipeline(rig, scene, params, k=16, noise_px=1.0, seed=21, ransac_iterations=25)
        b = run_pipeline(rig, scene, params, k=16, noise_px=1.0, seed=21, ransac_iterations=25)
        assert a.mpjpe_mm == b.mpjpe_mm
        assert a.jdr_pct == b.jdr_pct


class TestScenarioConfig:
    def test_round_trip_uses_capital_k(self):
        d = scenario_to_dict(SMALL)
        assert "K" in d and "k" not in d
        assert scenario_from_dict(d) == SMALL

    def test_lowercase_k_accepted(self):
        d = scenario_to_dict(SMALL)
        d["k"] = d.pop("K")
        assert scenario_from_dict(d) == SMALL

    def test_duplicate_k_rejected(self):
        d = scenario_to_dict(SMALL)
        d["k"] = d["K"]
        with pytest.raises(ConfigError, match="twice"):
            scenario_from_dict(d)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="cameraz"):
            scenario_from_dict({"cameraz": 4})

    def test_bool_rejected_for_int(self):
        with pytest.raises(ConfigError, match="cameras"):
            scenario_from_dict({"cameras": True})

    def test_defaults_fill_missing_keys(self):
        cfg = scenario_from_dict({"cameras": 3})
        assert cfg.cameras == 3
        assert cfg.k == 64 and cfg.seed == 7

    def test_load_scenario(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(scenario_to_dict(SMALL)))
        assert load_scenario(path) == SMALL

    def test_load_scenario_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_scenario(path)


class TestBuildScenario:
    def test_deterministic(self):
        rig_a, scene_a, params_a, _ = build_scenario(SMALL)
        rig_b, scene_b, params_b, _ = build_scenario(SMALL)
        assert np.array_equal(rig_a.cameras[0].M, rig_b.cameras[0].M)
        assert np.array_equal(scene_a.joints, scene_b.joints)
        assert np.array_equal(params_a.w_z, params_b.w_z)

    def test_variant_respected(self):
        cfg = ScenarioConfig(variant="bottleneck", channels=8)
        _, _, params, _ = build_scenario(cfg)
        assert params.variant == "bottleneck"
        assert params.theta is not None

    def test_report_json_reproducible(self):
        report_a = run_scenario(SMALL)
        report_b = run_scenario(SMALL)
        text_a = report_json(report_a, SMALL)
        text_b = report_json(report_b, SMALL)
        assert text_a == text_b
        assert text_a.endswith("\n")
        parsed = json.loads(text_a)
        assert parsed["config"]["K"] == 16
        assert parsed["views"] == 4
        # Every report field is serialized, so a new field changes the schema.
        assert set(parsed) == {"views", "joints", "k", "noise_px", "mpjpe_mm",
                               "analytic_mpjpe_mm", "jdr_pct", "matching_accuracy",
                               "per_joint", "config"}
        assert set(parsed["per_joint"][0]) == {
            "joint", "error_mm", "analytic_error_mm", "observed_views", "inlier_views",
            "match_hits", "match_total", "profile"}


class TestSimilarityProfile:
    def test_bad_indices(self):
        with pytest.raises(IndexOutOfRange):
            similarity_profile(SMALL, 99, 0, 0)
        with pytest.raises(IndexOutOfRange):
            similarity_profile(SMALL, 0, 0, 0)
        with pytest.raises(IndexOutOfRange):
            similarity_profile(SMALL, 0, 1, 99)

    def test_profile_contents(self):
        profile = None
        for joint in range(SMALL.joints):
            profile = similarity_profile(SMALL, 0, 1, joint)
            if profile is not None:
                break
        assert profile is not None
        assert profile["ref_view"] == 0 and profile["src_view"] == 1
        for key in ("t", "x", "y", "weight", "dot"):
            assert len(profile[key]) == SMALL.k
        w = np.array(profile["weight"])
        assert np.all(w >= 0.0) and abs(w.sum() - 1.0) < 1e-9
        assert profile["t"] == sorted(profile["t"])
        assert all(0.0 <= x <= 47.0 for x in profile["x"])
        assert all(0.0 <= y <= 47.0 for y in profile["y"])

    def test_deterministic(self):
        a = similarity_profile(SMALL, 0, 1, 0)
        b = similarity_profile(SMALL, 0, 1, 0)
        assert a == b


def recount_matches(cfg: ScenarioConfig) -> tuple[list[int], list[int]]:
    """Per-joint (hits, totals) from one per-query sampling and attention each.

    A hit is the argmax weight on the joint's rounded-pixel epipolar samples
    landing within one sample step of its true source projection.
    """
    rig, scene, params, _ = build_scenario(cfg)
    cams = rig.cameras
    maps = [render_descriptor_map(cam, scene, cfg.sigma_px) for cam in cams]
    last = cfg.image_wh - 1
    hits = [0] * scene.n_joints
    totals = [0] * scene.n_joints
    for r, cam_r in enumerate(cams):
        cost = np.abs(rig.angles_deg[r] - cfg.target_angle_deg)
        cost[r] = np.inf
        s = int(np.argmin(cost))
        for j, joint in enumerate(scene.joints):
            p_r, p_s = project(cam_r, joint), project(cams[s], joint)
            if not all(0.0 <= p[0] <= last and 0.0 <= p[1] <= last for p in (p_r, p_s)):
                continue
            totals[j] += 1
            qx, qy = (int(np.clip(np.rint(v), 0, last)) for v in p_r)
            samples = epipolar_samples(maps[s], cam_r, cams[s], (float(qx), float(qy)), cfg.k)
            if samples is None:
                continue
            w = attention_weights(maps[r].data[qy, qx], samples.features, params)
            loc = samples.locations
            step = np.linalg.norm(loc[-1] - loc[0]) / (cfg.k - 1)
            hits[j] += int(np.linalg.norm(loc[int(np.argmax(w))] - p_s) <= step + 1e-9)
    return hits, totals


@pytest.fixture(
    scope="module",
    params=[("identity", "softmax"), ("identity", "max"),
            ("bottleneck", "softmax"), ("bottleneck", "max")],
    ids=lambda vm: "-".join(vm),
)
def small_variant_run(request):
    cfg = replace(SMALL, variant=request.param[0], weight_mode=request.param[1])
    return cfg, run_scenario(cfg)


class TestMatchingFromFusedWeights:
    """Matching accuracy and profiles are the weights of the fusion pass."""

    def test_counts_equal_per_query_recount(self, small_variant_run):
        cfg, report = small_variant_run
        hits, totals = recount_matches(cfg)
        assert [o.match_hits for o in report.per_joint] == hits
        assert [o.match_total for o in report.per_joint] == totals
        assert sum(totals) > 0 and sum(hits) > 0

    def test_profiles_equal_similarity_profile(self, small_variant_run):
        cfg, report = small_variant_run
        src = next(o.profile["src_view"] for o in report.per_joint if o.profile)
        compared = 0
        for outcome in report.per_joint:
            got = outcome.profile
            want = similarity_profile(cfg, 0, src, outcome.joint)
            assert (got is None) == (want is None)
            if got is None:
                continue
            assert want.pop("joint") == outcome.joint
            assert got.keys() == want.keys()
            assert (got["ref_view"], got["src_view"], got["t"]) == (
                want["ref_view"], want["src_view"], want["t"])
            assert got == want
            compared += 1
        assert compared > 0

    def test_pipeline_needs_no_per_query_sampler(self, small_variant_run, monkeypatch):
        cfg, report = small_variant_run

        def refuse(*args, **kwargs):
            raise AssertionError("run_pipeline sampled a single query")

        # Replace the sampler wherever an epifuse module has bound it.
        original = sampler.epipolar_samples
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("epifuse"):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
        assert report_json(run_scenario(cfg), cfg) == report_json(report, cfg)
