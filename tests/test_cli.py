import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epifuse import errors
from epifuse.cli import main
from epifuse.geometry import load_rig_file
from epifuse.metrics import jdr, load_pose_csv, mpjpe, save_pose_csv
from epifuse.sampler import load_feature_map
from epifuse.synth import ScenarioConfig, run_scenario, scenario_to_dict, similarity_profile
from epifuse.triangulation import dlt_triangulate, load_observations
from helpers import project, save_observations

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

    def test_blas_threads_do_not_change_bytes(self, tmp_path):
        # The shipped 160x160 config, whose render and readout GEMMs OpenBLAS
        # splits across threads.
        root = Path(__file__).resolve().parent.parent
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=threads)
            out = tmp_path / threads
            subprocess.run([sys.executable, "-m", "epifuse", "run", "--config",
                            str(root / "configs" / "default.json"), "--out", str(out)],
                           env=env, capture_output=True, check=True)
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1] and len(reports[0]) > 1000

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
        ("sigma_px", {"sigma_px": 1e-300}), ("extent_mm", {"extent_mm": 1e300}),
        ("radius_mm", {"radius_mm": 1e-300}), ("noise_px", {"noise_px": 1e300}),
        ("head_size_px", {"head_size_px": float("inf")}),
        ("ransac_threshold_px", {"ransac_threshold_px": float("inf")}),
        ("focal_px", {"radius_mm": 1e9, "focal_px": 1e-6}),
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

    def test_non_finite_metric_exits_3_before_any_file(self, tmp_path, small_config,
                                                      monkeypatch, capsys):
        report = run_scenario(ScenarioConfig(cameras=2, joints=1, image_wh=8, k=2))
        report.mpjpe_mm, report.per_joint[0].error_mm = float("inf"), float("nan")
        monkeypatch.setattr("epifuse.cli.run_scenario", lambda *args, **kwargs: report)
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config), "--out", str(out)]) == 3
        assert not out.exists()
        assert "not JSON compliant" in capsys.readouterr().err

    @pytest.mark.parametrize("size", [{"image_wh": 2000}, {"image_wh": 48, "map_wh": 2000},
                                      {"cameras": 20000, "angle_deg": 0.015}])
    def test_over_memory_budget_exits_2_before_any_allocation(self, tmp_path, capsys,
                                                              monkeypatch, size):
        # One 2000x2000 map of 16 channels is 512 MB; a 20000-camera rig's
        # (views, views) float64 angle array is 3.0 GiB.
        monkeypatch.setattr("epifuse.synth.render_descriptor_map", refuse_compute)
        monkeypatch.setattr("epifuse.synth.make_rig", refuse_compute)
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({**SMALL_DICT, "channels": 16, **size}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert main(["profile", "--config", str(cfg), "--ref-view", "0", "--src-view", "1",
                     "--joint", "0", "--out", str(out / "p.csv")]) == 2
        assert not out.exists()
        assert "MB budget" in capsys.readouterr().err

    def test_memory_budget_counts_threads(self, tmp_path, capsys, monkeypatch):
        # A 900x900 map of 16 channels is 104 MB: one thread's maps fit the
        # budget, and four threads' do not.
        monkeypatch.setattr("epifuse.synth.render_descriptor_map", refuse_compute)
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({**SMALL_DICT, "channels": 16, "image_wh": 900}))
        out = tmp_path / "o"
        argv = ["run", "--config", str(cfg), "--out", str(out), "--threads"]
        assert main(argv + ["4"]) == 2
        assert "MB budget" in capsys.readouterr().err
        with pytest.raises(AssertionError, match="before any compute"):
            main(argv + ["1"])
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2


# Values that no config key admits, by range or by type.
_WRONG = st.sampled_from([0, 0.0, -1, -2.5, float("nan"), float("inf"), float("-inf"),
                          "1", None, True, [1]])
_FLOAT_KEYS = ("radius_mm", "sigma_px", "noise_px", "focal_px", "extent_mm",
               "ransac_threshold_px", "head_size_px")
_ANGLE_KEYS = ("angle_deg", "target_angle_deg")


@st.composite
def run_configs(draw):
    """Small scenarios, floats from [1e-6, 1e6] (angles up to 180); half have one wrong key."""
    config = draw(st.fixed_dictionaries({
        "image_wh": st.integers(2, 24), "cameras": st.integers(2, 4),
        "joints": st.integers(1, 4), "K": st.integers(1, 8), "channels": st.integers(4, 8),
        "ransac_iterations": st.integers(1, 10),
    }, optional={
        "map_wh": st.integers(2, 24), "seed": st.integers(0, 2**32),
        "variant": st.sampled_from(["identity", "bottleneck"]),
        "weight_mode": st.sampled_from(["softmax", "max"]),
        **{key: st.floats(1e-6, 1e6) for key in _FLOAT_KEYS},
        **{key: st.floats(1e-6, 180.0) for key in _ANGLE_KEYS},
    }))
    if draw(st.booleans()):
        config[draw(st.sampled_from([*config, *_FLOAT_KEYS, *_ANGLE_KEYS]))] = draw(_WRONG)
    return config


def _refuse_constant(name):
    raise ValueError(f"{name} in a JSON output")


# The run flags that override a config, drawn as a flat argv tail.
_OVERRIDES = st.fixed_dictionaries({}, optional={
    "--seed": st.integers(0, 2**32), "--k": st.integers(1, 8), "--threads": st.integers(1, 4),
}).map(lambda flags: [str(v) for item in flags.items() for v in item])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(run_configs(), _OVERRIDES)
@example({**SMALL_DICT, "image_wh": 24, "sigma_px": 1e-300}, [])
@example({**SMALL_DICT, "image_wh": 24, "focal_px": 10.0, "extent_mm": 1e300}, [])
def test_every_run_config_runs_or_exits_before_writing(config, overrides):
    # A run either succeeds with a strict-JSON report, or exits 2 (bad input)
    # or 3 (numeric failure) with nothing written. Any exception, including
    # a RuntimeWarning from an overflow, fails the test.
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        rc = main(["run", "--config", str(path), "--out", str(out), *overrides])
        if rc == 0:
            json.loads((out / "report.json").read_text(), parse_constant=_refuse_constant)
        else:
            assert rc in (2, 3)
            assert not out.exists() or not any(out.iterdir())


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
        assert rc == 2
        assert not (tmp_path / "rig.json").exists()

    def test_rig_gen_rank_deficient_camera_exits_2(self, tmp_path, capsys):
        out = tmp_path / "rig.json"
        assert main(["rig-gen", "--radius", "1e9", "--focal", "1e-6", "--out", str(out)]) == 2
        assert not out.exists()
        assert "'focal_px'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("ref, src, joint, named", [
        ("9", "1", "0", "reference view 9"), ("-1", "1", "0", "reference view -1"),
        ("0", "4", "0", "source view 4"), ("2", "2", "0", "reference and source views"),
        ("0", "1", "200", "joint 200"), ("0", "1", "-1", "joint -1"),
    ])
    def test_out_of_range_index_exits_2_before_the_scenario(
        self, tmp_path, capsys, monkeypatch, ref, src, joint, named
    ):
        # 200 joints in 4 channels: building this scenario fails to draw its
        # descriptors (exit 3), so the indices must be checked first.
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"joints": 200, "channels": 4, "cameras": 4}))
        monkeypatch.setattr("epifuse.synth.build_scenario", refuse_compute)
        out = tmp_path / "p.csv"
        rc = main(["profile", "--config", str(cfg), "--ref-view", ref, "--src-view", src,
                   "--joint", joint, "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert named in capsys.readouterr().err


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
        stack = np.stack([cam.M for cam in cams])
        for j, x in enumerate(joints):
            pixels = np.array([project(cam, x) for cam in cams])
            assert np.array_equal(points[j], dlt_triangulate(stack, pixels))
        assert np.allclose(confs, 1.0)

    DROPS = ["warning: joint 3 not triangulated: fewer than two views",
             "warning: joint 4 not triangulated: all views share one camera center"]

    def dropped_rows(self, rig_path, cams):
        """Joint 3 seen once; joint 4 seen from view 2 and from a view 5, added to
        the rig, that shares view 2's center (its rows swapped): a degenerate pair."""
        rig = json.loads(rig_path.read_text())
        twin = cams[2].M[[1, 0, 2]]
        rig_path.write_text(json.dumps(rig + [{**rig[2], "M": twin.ravel().tolist()}]))
        p, q = project(cams[1], [10.0, 0.0, 0.0]), project(cams[2], [0.0, 20.0, 0.0])
        return [(1, 3, *map(float, p), 1.0), (2, 4, *map(float, q), 1.0),
                (5, 4, float(q[1]), float(q[0]), 1.0)]

    @pytest.mark.parametrize("plain", [[], ["--plain"]], ids=["ransac", "plain"])
    def test_dropped_joints_warn_once_each(self, tmp_path, capsys, plain):
        rig_path, obs_path, cams, joints = self.make_inputs(tmp_path)
        save_observations(load_observations(obs_path) + self.dropped_rows(rig_path, cams),
                          obs_path)
        out = tmp_path / "pose.csv"
        rc = main(["triangulate", "--rig", str(rig_path), "--obs", str(obs_path),
                   "--out", str(out), *plain])
        assert rc == 0
        assert capsys.readouterr().err.splitlines() == self.DROPS
        ids, points, confs = load_pose_csv(out)
        assert ids == [0, 1, 2]
        assert np.allclose(points, joints, atol=1e-6)
        assert confs.tolist() == [1.0] * 3

    @pytest.mark.parametrize("plain", [[], ["--plain"]], ids=["ransac", "plain"])
    def test_every_joint_dropped_exits_3(self, tmp_path, capsys, plain):
        rig_path, obs_path, cams, _ = self.make_inputs(tmp_path)
        save_observations(self.dropped_rows(rig_path, cams), obs_path)
        out = tmp_path / "pose.csv"
        rc = main(["triangulate", "--rig", str(rig_path), "--obs", str(obs_path),
                   "--out", str(out), *plain])
        assert rc == 3
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            *self.DROPS, "error: no joint could be triangulated"]

    def test_unknown_view_exits_2(self, tmp_path, capsys):
        rig_path, obs_path, _, _ = self.make_inputs(tmp_path)
        text = obs_path.read_text().replace("\n0,1,", "\n9,1,", 1)
        obs_path.write_text(text)
        out = tmp_path / "pose.csv"
        rc = main(["triangulate", "--rig", str(rig_path), "--obs", str(obs_path),
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("matrix", [
        np.zeros((3, 4)), np.vstack([np.eye(2, 4), np.eye(2, 4)[0] + np.eye(2, 4)[1]]),
    ], ids=["zero", "rank-2"])
    def test_rank_deficient_rig_camera_exits_2(self, tmp_path, capsys, matrix):
        rig_path, obs_path, _, _ = self.make_inputs(tmp_path)
        rig = json.loads(rig_path.read_text())
        rig[1]["M"] = matrix.ravel().tolist()
        rig_path.write_text(json.dumps(rig))
        out = tmp_path / "pose.csv"
        rc = main(["triangulate", "--rig", str(rig_path), "--obs", str(obs_path),
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "rank deficient" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["width", "height"])
    @pytest.mark.parametrize("value", [2.7, True, "64"], ids=["float", "bool", "string"])
    def test_non_integer_rig_size_exits_2(self, tmp_path, capsys, monkeypatch, key, value):
        # The scenario reader's integer rule: a JSON int, not a bool.
        rig_path, obs_path, _, _ = self.make_inputs(tmp_path)
        rig = json.loads(rig_path.read_text())
        rig[1][key] = value
        rig_path.write_text(json.dumps(rig))
        monkeypatch.setattr("epifuse.cli.triangulate_joints", refuse_compute)
        out = tmp_path / "pose.csv"
        rc = main(["triangulate", "--rig", str(rig_path), "--obs", str(obs_path),
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert f"camera key '{key}' must be an integer" in capsys.readouterr().err

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

    def test_repeated_view_of_a_joint_exits_2(self, tmp_path, capsys, monkeypatch):
        # A repeated row would count its view twice in the joint's consensus.
        rig_path, obs_path, _, _ = self.make_inputs(tmp_path)
        rows = load_observations(obs_path)
        save_observations(rows + [rows[1][:2] + (1.0, 2.0, 1.0)], obs_path)
        monkeypatch.setattr("epifuse.cli.triangulate_joints", refuse_compute)
        out = tmp_path / "pose.csv"
        rc = main(["triangulate", "--rig", str(rig_path), "--obs", str(obs_path),
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert (f"{obs_path}: rows 3 and {len(rows) + 2} repeat view_id 1 of joint_id 0"
                in capsys.readouterr().err)

    def test_non_finite_point_exits_2(self, tmp_path, capsys, monkeypatch):
        rig_path, obs_path, _, _ = self.make_inputs(tmp_path)
        rows = load_observations(obs_path)
        save_observations([rows[0][:2] + (float("nan"),) + rows[0][3:]] + rows[1:], obs_path)
        monkeypatch.setattr("epifuse.cli.triangulate_joints", refuse_compute)
        out = tmp_path / "pose.csv"
        rc = main(["triangulate", "--rig", str(rig_path), "--obs", str(obs_path),
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "row 2: x must be finite" in capsys.readouterr().err

    def test_header_only_observations_exit_2(self, tmp_path, capsys):
        rig_path, obs_path, _, _ = self.make_inputs(tmp_path)
        obs_path.write_text("view_id,joint_id,x,y,confidence\n")
        out = tmp_path / "pose.csv"
        rc = main(["triangulate", "--rig", str(rig_path), "--obs", str(obs_path),
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert str(obs_path) in capsys.readouterr().err


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


def refuse_compute(*args, **kwargs):
    raise AssertionError("flags must be range-checked before any compute")


@pytest.mark.parametrize("argv, flag", [
    (["gradcheck", "--k", "0"], "--k"),
    (["gradcheck", "--height", "1"], "--height"),
    (["gradcheck", "--width", "0"], "--width"),
    (["gradcheck", "--channels", "0"], "--channels"),
    (["gradcheck", "--variant", "bottleneck", "--channels", "3"], "--channels"),
    (["gradcheck", "--seed", "-1"], "--seed"),
    (["gradcheck", "--step", "0"], "--step"),
    (["gradcheck", "--step", "nan"], "--step"),
    (["gradcheck", "--tolerance", "-1"], "--tolerance"),
    (["run", "--config", "unread.json", "--out", "out", "--threads", "0"], "--threads"),
    (["rig-gen", "--out", "unwritten.json", "--cameras", "1"], "--cameras"),
    (["rig-gen", "--out", "unwritten.json", "--image-wh", "0"], "--image-wh"),
    (["rig-gen", "--out", "unwritten.json", "--focal", "0"], "--focal"),
    (["rig-gen", "--out", "unwritten.json", "--focal", "inf"], "--focal"),
    (["rig-gen", "--out", "unwritten.json", "--radius", "-5"], "--radius"),
    (["rig-gen", "--out", "unwritten.json", "--seed", "-1"], "--seed"),
    (["scene-gen", "--out", "unwritten.json", "--joints", "0"], "--joints"),
    (["scene-gen", "--out", "unwritten.json", "--channels", "0"], "--channels"),
    (["scene-gen", "--out", "unwritten.json", "--extent", "inf"], "--extent"),
    (["scene-gen", "--out", "unwritten.json", "--seed", "-1"], "--seed"),
    (["eval", "--pred", "unread.csv", "--gt", "unread.csv", "--head-size", "0"], "--head-size"),
    (["eval", "--pred", "unread.csv", "--gt", "unread.csv", "--head-size", "inf"], "--head-size"),
    (["triangulate", "--rig", "unread.json", "--obs", "unread.csv", "--out", "out.csv",
      "--threshold", "-1"], "--threshold"),
    (["triangulate", "--rig", "unread.json", "--obs", "unread.csv", "--out", "out.csv",
      "--threshold", "nan"], "--threshold"),
    (["triangulate", "--rig", "unread.json", "--obs", "unread.csv", "--out", "out.csv",
      "--threshold", "inf"], "--threshold"),
    (["triangulate", "--rig", "unread.json", "--obs", "unread.csv", "--out", "out.csv",
      "--iterations", "0"], "--iterations"),
    (["triangulate", "--rig", "unread.json", "--obs", "unread.csv", "--out", "out.csv",
      "--seed", "-1"], "--seed"),
    (["rig-gen", "--out", "unwritten.json", "--angle", "0"], "--angle"),
    (["rig-gen", "--out", "unwritten.json", "--angle", "nan"], "--angle"),
    (["rig-gen", "--out", "unwritten.json", "--cameras", "10", "--angle", "40"], "--angle"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_out_of_range_flag_exits_2_before_compute(monkeypatch, capsys, argv, flag):
    for name in ("gradient_check", "run_scenario", "load_scenario", "make_rig", "make_scene",
                 "load_pose_csv", "load_rig_file", "load_observations"):
        monkeypatch.setattr(f"epifuse.cli.{name}", refuse_compute)
    assert main(argv) == 2
    assert f"error: {flag} must be" in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    *(cls for cls in vars(errors).values() if isinstance(cls, type)), ValueError,
], ids=lambda cls: cls.__name__)
def test_exit_code_is_the_error_type(tmp_path, monkeypatch, capsys, error):
    # Bad input (ConfigError and its subclasses) exits 2; any other toolkit
    # error or ValueError is a numeric or domain failure and exits 3.
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr("epifuse.cli.make_rig", fail)
    out = tmp_path / "rig.json"
    rc = main(["rig-gen", "--out", str(out)])
    assert rc == (2 if issubclass(error, errors.ConfigError) else 3)
    assert not out.exists()
    assert "error: injected" in capsys.readouterr().err


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

    @pytest.mark.parametrize("empty", ["pred", "gt"])
    def test_header_only_pose_exits_2(self, tmp_path, capsys, empty):
        paths = {"pred": tmp_path / "pred.csv", "gt": tmp_path / "gt.csv"}
        for path in paths.values():
            self.write_pose(path, np.zeros((2, 3)))
        paths[empty].write_text("joint_id,x,y,z,confidence\n")
        out = tmp_path / "report.json"
        assert main(["eval", "--pred", str(paths["pred"]), "--gt", str(paths["gt"]),
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert str(paths[empty]) in capsys.readouterr().err

    def test_overflowing_metric_exits_3(self, tmp_path, capsys):
        # Finite coordinates whose differences overflow give an infinite MPJPE,
        # which JSON cannot carry. The CLI, unlike this suite, only warns on overflow.
        pred, gt = tmp_path / "pred.csv", tmp_path / "gt.csv"
        self.write_pose(pred, np.full((2, 3), 1e200))
        self.write_pose(gt, np.full((2, 3), -1e200))
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = main(["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        assert "not JSON compliant" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_pose_exits_2_before_output(self, tmp_path, capsys, monkeypatch, value):
        pred, gt = tmp_path / "pred.csv", tmp_path / "gt.csv"
        self.write_pose(pred, np.zeros((2, 3)))
        self.write_pose(gt, np.zeros((2, 3)))
        gt.write_text(gt.read_text().replace("0.0", value, 1))
        monkeypatch.setattr("epifuse.cli.mpjpe", refuse_compute)
        assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {gt}: row 2: x must be finite, got {value}" in captured.err


class TestHelp:
    def test_file_formats_documented(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for token in ("FMAP", "view_id"):
            assert token in out
