import json

import numpy as np
import pytest

from epifuse.cli import main
from epifuse.geometry import load_rig_file, project
from epifuse.metrics import jdr, load_pose_csv, mpjpe, save_pose_csv
from epifuse.sampler import load_feature_map
from epifuse.synth import ScenarioConfig, scenario_to_dict, similarity_profile
from epifuse.triangulation import (
    Observation,
    dlt_triangulate,
    load_observations,
    save_observations,
)

SMALL_DICT = {
    "cameras": 4,
    "angle_deg": 40.0,
    "radius_mm": 1200.0,
    "joints": 6,
    "channels": 8,
    "sigma_px": 2.0,
    "K": 16,
    "noise_px": 0.0,
    "seed": 11,
    "image_wh": 48,
    "focal_px": 60.0,
    "extent_mm": 400.0,
    "ransac_iterations": 25,
}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_DICT))
    return path


class TestRun:
    def test_success_writes_report(self, tmp_path, small_config, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        for key in ("mpjpe_mm", "analytic_mpjpe_mm", "jdr_pct", "matching_accuracy"):
            assert key in report
        assert report["views"] == 4
        assert report["config"]["K"] == 16
        assert "mpjpe" in capsys.readouterr().out

    def test_reruns_byte_identical(self, tmp_path, small_config):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(small_config), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(small_config), "--out", str(out_b)]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_threads_do_not_change_bytes(self, tmp_path, small_config):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(small_config), "--out", str(out_a), "--threads", "1"])
        main(["run", "--config", str(small_config), "--out", str(out_b), "--threads", "2"])
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_save_maps(self, tmp_path, small_config):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(small_config), "--out", str(out), "--save-maps"])
        assert rc == 0
        maps = sorted(out.glob("fused_*.fmap"))
        assert len(maps) == 4
        fmap = load_feature_map(maps[0])
        assert fmap.data.shape == (48, 48, 8)

    def test_seed_override_changes_report(self, tmp_path, small_config):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(small_config), "--out", str(out_a)])
        main(["run", "--config", str(small_config), "--out", str(out_b), "--seed", "99"])
        a = json.loads((out_a / "report.json").read_text())
        b = json.loads((out_b / "report.json").read_text())
        assert a["config"]["seed"] == 11 and b["config"]["seed"] == 99
        assert a["mpjpe_mm"] != b["mpjpe_mm"]

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"camerasz": 4}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "camerasz" in capsys.readouterr().err

    @pytest.mark.parametrize("key, bad", [
        ("K", {"K": 0}), ("ransac_iterations", {"ransac_iterations": 0}),
        ("ransac_threshold_px", {"ransac_threshold_px": 0}), ("sigma_px", {"sigma_px": -1}),
        ("map_wh", {"map_wh": 1}), ("variant", {"variant": "nope"}),
        ("weight_mode", {"weight_mode": "median"}),
        ("channels", {"variant": "bottleneck", "channels": 7}),
        ("head_size_px", {"head_size_px": 0}), ("noise_px", {"noise_px": -1}),
        ("cameras", {"cameras": 1}), ("joints", {"joints": 0}), ("channels", {"channels": 2}),
        ("image_wh", {"image_wh": 1}), ("seed", {"seed": -1}),
        ("radius_mm", {"radius_mm": -5}), ("focal_px", {"focal_px": 0}),
        ("extent_mm", {"extent_mm": 0}), ("focal_px", {"focal_px": float("inf")}),
        ("target_angle_deg", {"target_angle_deg": float("nan")}),
        ("target_angle_deg", {"target_angle_deg": 181}),
        ("angle_deg", {"angle_deg": 0.0}), ("angle_deg", {"angle_deg": 200.0}),
        ("angle_deg", {"cameras": 10, "angle_deg": 40.0}),
        ("angle_deg", {"angle_deg": float("nan")}),
    ])
    def test_out_of_range_exits_2_before_any_file(self, tmp_path, capsys, key, bad):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**SMALL_DICT, **bad}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert main(["profile", "--config", str(cfg), "--ref-view", "0", "--src-view", "1",
                     "--joint", "0", "--out", str(out / "p.csv")]) == 2
        assert not out.exists()
        assert f"'{key}'" in capsys.readouterr().err

    def test_out_of_range_override_exits_2(self, tmp_path, small_config):
        out = tmp_path / "o"
        assert main(["run", "--config", str(small_config), "--out", str(out), "--k", "0"]) == 2
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2


class TestRigSceneGen:
    def test_rig_gen(self, tmp_path):
        out = tmp_path / "rig.json"
        rc = main(["rig-gen", "--cameras", "5", "--angle", "30", "--radius", "1500",
                   "--out", str(out)])
        assert rc == 0
        cams = load_rig_file(out)
        assert len(cams) == 5

    def test_rig_gen_invalid_angle(self, tmp_path, capsys):
        rc = main(["rig-gen", "--cameras", "4", "--angle", "0",
                   "--out", str(tmp_path / "rig.json")])
        assert rc == 3
        assert not (tmp_path / "rig.json").exists()

    def test_scene_gen(self, tmp_path):
        out = tmp_path / "scene.json"
        rc = main(["scene-gen", "--joints", "7", "--extent", "500", "--channels", "8",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"joints", "descriptors"}
        joints = np.asarray(payload["joints"])
        descs = np.asarray(payload["descriptors"])
        assert joints.shape == (7, 3)
        assert descs.shape == (7, 8)
        assert np.allclose(np.linalg.norm(descs, axis=1), 1.0, atol=1e-9)

    def test_scene_gen_saturation(self, tmp_path, capsys):
        rc = main(["scene-gen", "--joints", "100", "--extent", "500", "--channels", "4",
                   "--out", str(tmp_path / "scene.json")])
        assert rc == 3


class TestProfile:
    def test_rows_and_weights(self, tmp_path, small_config):
        out = tmp_path / "profile.csv"
        rc = main(["profile", "--config", str(small_config), "--ref-view", "0",
                   "--src-view", "1", "--joint", "0", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,x,y,weight,dot"
        assert len(lines) == 1 + 16
        weights = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(w >= 0.0 for w in weights)
        assert abs(sum(weights) - 1.0) < 1e-9

    def test_single_sample(self, tmp_path, small_config):
        out = tmp_path / "profile.csv"
        rc = main(["profile", "--config", str(small_config), "--ref-view", "0",
                   "--src-view", "1", "--joint", "0", "--k", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        t, _, _, w, _ = lines[1].split(",")
        assert float(t) == 0.5 and float(w) == 1.0

    def test_skipped_query_empty_csv(self, tmp_path, capsys):
        # A huge scene extent leaves some joints outside the field of view.
        wide = dict(SMALL_DICT)
        wide["extent_mm"] = 20000.0
        cfg_path = tmp_path / "wide.json"
        cfg_path.write_text(json.dumps(wide))
        cfg = ScenarioConfig(**{("k" if k == "K" else k): v for k, v in wide.items()})
        skipped = next(
            (j for j in range(cfg.joints) if similarity_profile(cfg, 0, 1, j) is None),
            None,
        )
        assert skipped is not None
        out = tmp_path / "profile.csv"
        rc = main(["profile", "--config", str(cfg_path), "--ref-view", "0",
                   "--src-view", "1", "--joint", str(skipped), "--out", str(out)])
        assert rc == 0
        assert out.read_text() == "t,x,y,weight,dot\n"
        assert "empty" in capsys.readouterr().err.lower()

    def test_bad_view_exits_2(self, tmp_path, small_config, capsys):
        rc = main(["profile", "--config", str(small_config), "--ref-view", "9",
                   "--src-view", "1", "--joint", "0", "--out", str(tmp_path / "p.csv")])
        assert rc == 2


class TestTriangulate:
    def make_inputs(self, tmp_path):
        rig_path = tmp_path / "rig.json"
        main(["rig-gen", "--cameras", "5", "--angle", "30", "--radius", "1200",
              "--image-wh", "64", "--focal", "80", "--out", str(rig_path)])
        cams = load_rig_file(rig_path)
        joints = np.array([[40.0, -25.0, 60.0], [-80.0, 10.0, -30.0], [5.0, 90.0, 0.0]])
        rows = []
        for j, x in enumerate(joints):
            for v, cam in enumerate(cams):
                p = project(cam, x)
                rows.append((v, j, float(p[0]), float(p[1]), 1.0))
        obs_path = tmp_path / "obs.csv"
        save_observations(rows, obs_path)
        return rig_path, obs_path, cams, joints

    def test_recovers_points(self, tmp_path):
        rig_path, obs_path, cams, joints = self.make_inputs(tmp_path)
        out = tmp_path / "pose.csv"
        rc = main(["triangulate", "--rig", str(rig_path), "--obs", str(obs_path),
                   "--out", str(out)])
        assert rc == 0
        ids, points, confs = load_pose_csv(out)
        assert ids == [0, 1, 2]
        assert np.allclose(points, joints, atol=1e-6)
        assert np.allclose(confs, 1.0)

    def test_plain_matches_dlt(self, tmp_path):
        rig_path, obs_path, cams, joints = self.make_inputs(tmp_path)
        out = tmp_path / "pose.csv"
        rc = main(["triangulate", "--rig", str(rig_path), "--obs", str(obs_path),
                   "--out", str(out), "--plain"])
        assert rc == 0
        _, points, confs = load_pose_csv(out)
        for j, x in enumerate(joints):
            obs = [Observation(cam, project(cam, x)) for cam in cams]
            assert np.array_equal(points[j], dlt_triangulate(obs))
        assert np.allclose(confs, 1.0)

    def test_unknown_view_exits_2(self, tmp_path, capsys):
        rig_path, obs_path, _, _ = self.make_inputs(tmp_path)
        text = obs_path.read_text().replace("\n0,1,", "\n9,1,", 1)
        obs_path.write_text(text)
        out = tmp_path / "pose.csv"
        rc = main(["triangulate", "--rig", str(rig_path), "--obs", str(obs_path),
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_bad_confidence_exits_2(self, tmp_path, capsys):
        rig_path, obs_path, _, _ = self.make_inputs(tmp_path)
        rows = load_observations(obs_path)
        save_observations([rows[0][:4] + (1.5,)] + rows[1:], obs_path)
        out = tmp_path / "pose.csv"
        rc = main(["triangulate", "--rig", str(rig_path), "--obs", str(obs_path),
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "confidence" in capsys.readouterr().err


class TestGradcheck:
    def test_pass(self, capsys):
        rc = main(["gradcheck", "--height", "6", "--width", "6", "--channels", "4",
                   "--k", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert "PASS" in out

    def test_max_mode_warns(self, capsys):
        rc = main(["gradcheck", "--height", "6", "--width", "6", "--channels", "4",
                   "--k", "4", "--mode", "max"])
        assert rc == 0
        assert "max" in capsys.readouterr().err.lower()

    def test_impossible_tolerance_fails(self, capsys):
        rc = main(["gradcheck", "--height", "6", "--width", "6", "--channels", "4",
                   "--k", "4", "--tolerance", "1e-18"])
        assert rc == 3
        assert "FAIL" in capsys.readouterr().out

    def test_dims_guard_exits_2(self, capsys):
        rc = main(["gradcheck", "--height", "200", "--width", "200", "--channels", "16",
                   "--k", "64"])
        assert rc == 2


class TestEval:
    def write_pose(self, path, points, confs=None):
        points = np.asarray(points, dtype=np.float64)
        if confs is None:
            confs = np.ones(len(points))
        save_pose_csv(list(range(len(points))), points, np.asarray(confs), path)

    def test_identical_poses(self, tmp_path, capsys):
        pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        pred, gt = tmp_path / "pred.csv", tmp_path / "gt.csv"
        self.write_pose(pred, pts)
        self.write_pose(gt, pts)
        assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mpjpe_mm"] == 0.0
        assert report["jdr_pct"] == 100.0

    def test_five_mm_offset(self, tmp_path, capsys):
        gt_pts = np.array([[0.0, 0.0, 0.0], [10.0, 20.0, 30.0]])
        pred, gt = tmp_path / "pred.csv", tmp_path / "gt.csv"
        self.write_pose(pred, gt_pts + np.array([3.0, 4.0, 0.0]))
        self.write_pose(gt, gt_pts)
        assert main(["eval", "--pred", str(pred), "--gt", str(gt),
                     "--head-size", "12"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mpjpe_mm"] == 5.0
        assert report["jdr_pct"] == 100.0

    def test_matches_metrics_module(self, tmp_path, capsys):
        rng = np.random.default_rng(17)
        gt_pts = rng.standard_normal((8, 3)) * 50.0
        pred_pts = gt_pts + rng.standard_normal((8, 3)) * 6.0
        pred, gt = tmp_path / "pred.csv", tmp_path / "gt.csv"
        self.write_pose(pred, pred_pts)
        self.write_pose(gt, gt_pts)
        out = tmp_path / "report.json"
        assert main(["eval", "--pred", str(pred), "--gt", str(gt),
                     "--head-size", "10", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        # Oracle: the metrics module on the same arrays. The CSV stores
        # exact reprs, so the numbers agree bitwise.
        want_mpjpe = mpjpe(pred_pts, gt_pts)
        want_jdr = jdr(pred_pts, gt_pts, 10.0)
        assert report["mpjpe_mm"] == want_mpjpe
        assert report["jdr_pct"] == want_jdr

    def test_row_count_mismatch_exits_2(self, tmp_path, capsys):
        pred, gt = tmp_path / "pred.csv", tmp_path / "gt.csv"
        self.write_pose(pred, np.zeros((3, 3)))
        self.write_pose(gt, np.zeros((2, 3)))
        assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 2
        assert "error" in capsys.readouterr().err

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        pred, gt = tmp_path / "pred.csv", tmp_path / "gt.csv"
        self.write_pose(pred, np.zeros((2, 2)))
        self.write_pose(gt, np.zeros((2, 3)))
        assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 2
        assert "shapes differ" in capsys.readouterr().err

    def test_joint_id_mismatch_exits_2(self, tmp_path, capsys):
        pred, gt = tmp_path / "pred.csv", tmp_path / "gt.csv"
        save_pose_csv([0, 1], np.zeros((2, 3)), np.ones(2), pred)
        save_pose_csv([0, 5], np.zeros((2, 3)), np.ones(2), gt)
        assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 2
        assert "joint" in capsys.readouterr().err.lower()


class TestHelp:
    def test_file_formats_documented(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for token in ("FMAP", "view_id"):
            assert token in out
