import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epifuse.errors import ConfigError, Degenerate, NoConsensus
from epifuse.geometry import CameraView, project
from epifuse.triangulation import (
    Observation,
    dlt_triangulate,
    load_observations,
    ransac_triangulate,
    reprojection_error,
)
from helpers import (
    look_at_camera,
    random_camera,
    rectified_pair,
    save_observations,
    visible_point,
)


def ring_cameras(n, radius=800.0, focal=120.0, wh=96):
    cams = []
    for i in range(n):
        a = 2.0 * np.pi * i / n
        center = np.array([radius * np.cos(a), radius * np.sin(a), 150.0])
        cams.append(look_at_camera(center, focal=focal, width=wh, height=wh))
    return cams


def observe(cams, x, noise=None, rng=None):
    obs = []
    for cam in cams:
        p = project(cam, x)
        if noise is not None:
            p = p + rng.normal(0.0, noise, 2)
        obs.append(Observation(cam, p))
    return obs


class TestDLT:
    def test_recovers_point_from_four_views(self):
        x = np.array([40.0, -25.0, 60.0])
        got = dlt_triangulate(observe(ring_cameras(4), x))
        assert np.linalg.norm(got - x) < 1e-8

    def test_rectified_stereo_depth(self):
        # Oracle: depth = focal * baseline / disparity for a rectified pair.
        baseline = 100.0
        ref, src = rectified_pair(baseline=baseline, width=32, height=32)
        focal = ref.M[0, 0]
        x = np.array([5.0, -3.0, 400.0])
        p_ref, p_src = project(ref, x), project(src, x)
        disparity = p_ref[0] - p_src[0]
        got = dlt_triangulate([Observation(ref, p_ref), Observation(src, p_src)])
        assert abs(got[2] - focal * baseline / disparity) < 1e-9
        assert np.linalg.norm(got - x) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_projective_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        cams = [random_camera(rng) for _ in range(3)]
        x = visible_point(rng, cams)
        scaled = [CameraView(c.M * rng.uniform(0.1, 10.0), c.width, c.height) for c in cams]
        base = dlt_triangulate(observe(cams, x))
        got = dlt_triangulate(observe(scaled, x))
        assert np.linalg.norm(base - got) < 1e-9

    def test_duplicate_observation_keeps_recovery(self):
        x = np.array([-30.0, 10.0, 45.0])
        cams = ring_cameras(3)
        obs = observe(cams, x)
        base = np.linalg.norm(dlt_triangulate(obs) - x)
        dup = np.linalg.norm(dlt_triangulate(obs + [obs[0]]) - x)
        assert dup < max(base, 1e-9) + 1e-12

    def test_coincident_views_degenerate(self):
        cam = ring_cameras(3)[0]
        p = project(cam, np.array([10.0, 0.0, 20.0]))
        with pytest.raises(Degenerate):
            dlt_triangulate([Observation(cam, p), Observation(cam, p)])

    def test_needs_two_observations(self):
        cam = ring_cameras(3)[0]
        with pytest.raises(ValueError):
            dlt_triangulate([Observation(cam, np.array([1.0, 1.0]))])


class TestReprojectionError:
    def test_exact_projection_is_zero(self):
        cam = ring_cameras(3)[1]
        x = np.array([12.0, 8.0, -20.0])
        assert reprojection_error(cam, x, project(cam, x)) == 0.0

    def test_offset_detection(self):
        cam = ring_cameras(3)[1]
        x = np.array([12.0, 8.0, -20.0])
        p = project(cam, x) + np.array([3.0, 4.0])
        assert abs(reprojection_error(cam, x, p) - 5.0) < 1e-12


class TestRansac:
    def test_clean_observations_all_inliers(self):
        x = np.array([25.0, 40.0, -15.0])
        obs = observe(ring_cameras(5), x)
        result = ransac_triangulate(obs, threshold_px=2.0, iterations=50, seed=1)
        assert result.inliers.all()
        assert np.linalg.norm(result.point - x) < 1e-8
        assert result.rms_reproj < 1e-9

    def test_matches_plain_dlt_when_clean(self):
        x = np.array([-18.0, 5.0, 70.0])
        obs = observe(ring_cameras(4), x)
        result = ransac_triangulate(obs, threshold_px=1.0, iterations=30, seed=2)
        want = dlt_triangulate(obs)
        assert np.linalg.norm(result.point - want) < 1e-9

    def test_excludes_corrupted_views(self):
        rng = np.random.default_rng(3)
        x = np.array([30.0, -20.0, 55.0])
        cams = ring_cameras(8)
        obs = observe(cams, x, noise=0.3, rng=rng)
        for i in (2, 6):
            obs[i] = Observation(cams[i], obs[i].p + np.array([40.0, -35.0]))
        result = ransac_triangulate(obs, threshold_px=3.0, iterations=100, seed=4)
        assert not result.inliers[2] and not result.inliers[6]
        assert result.inliers.sum() == 6
        # 0.3 px noise at this focal length and range is a few mm of lever.
        assert np.linalg.norm(result.point - x) < 10.0

    def test_wide_threshold_matches_dlt_over_everything(self):
        rng = np.random.default_rng(5)
        x = np.array([10.0, 10.0, 30.0])
        obs = observe(ring_cameras(5), x, noise=1.0, rng=rng)
        result = ransac_triangulate(obs, threshold_px=1e12, iterations=40, seed=6)
        assert result.inliers.all()
        assert np.linalg.norm(result.point - dlt_triangulate(obs)) < 1e-9

    def test_seed_determinism(self):
        rng = np.random.default_rng(7)
        x = np.array([0.0, 15.0, 42.0])
        obs = observe(ring_cameras(6), x, noise=2.0, rng=rng)
        a = ransac_triangulate(obs, threshold_px=4.0, iterations=60, seed=8)
        b = ransac_triangulate(obs, threshold_px=4.0, iterations=60, seed=8)
        assert np.array_equal(a.point, b.point)
        assert np.array_equal(a.inliers, b.inliers)
        assert a.rms_reproj == b.rms_reproj

    def test_no_consensus(self):
        # Three mutually inconsistent detections and a tight gate: every
        # minimal pair leaves the third view out, but a consensus of two is
        # still accepted, so scatter all three and shrink the threshold.
        rng = np.random.default_rng(9)
        cams = ring_cameras(3)
        x = np.array([20.0, 20.0, 20.0])
        obs = [
            Observation(cam, project(cam, x) + rng.uniform(30.0, 60.0, 2))
            for cam in cams
        ]
        with pytest.raises(NoConsensus):
            ransac_triangulate(obs, threshold_px=1e-6, iterations=50, seed=10)

    def test_validation(self):
        cam = ring_cameras(3)[0]
        obs = [Observation(cam, np.array([1.0, 2.0]))]
        with pytest.raises(ValueError):
            ransac_triangulate(obs)
        obs = observe(ring_cameras(3), np.array([5.0, 5.0, 5.0]))
        with pytest.raises(ValueError):
            ransac_triangulate(obs, threshold_px=0.0)
        with pytest.raises(ValueError):
            ransac_triangulate(obs, iterations=0)


class TestObservationValidation:
    def test_rejects_non_finite_point(self):
        cam = ring_cameras(3)[0]
        with pytest.raises(ValueError):
            Observation(cam, np.array([np.nan, 1.0]))

    def test_point_read_only(self):
        cam = ring_cameras(3)[0]
        obs = Observation(cam, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            obs.p[0] = 9.0


class TestObservationsIO:
    def test_round_trip(self, tmp_path):
        rows = [
            (0, 0, 12.5, 33.25, 1.0),
            (1, 0, 0.1234567890123456, 7.0, 0.5),
            (0, 1, -3.0, 1e-12, 0.0),
        ]
        path = tmp_path / "obs.csv"
        save_observations(rows, path)
        assert load_observations(path) == rows

    def test_header_check(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("view,joint,x,y,conf\n0,0,1.0,2.0,1.0\n")
        with pytest.raises(ConfigError, match="header"):
            load_observations(path)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("view_id,joint_id,x,y,confidence\n0,0,1.0\n")
        with pytest.raises(ConfigError, match="row 2"):
            load_observations(path)

    def test_rejects_bad_confidence(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("view_id,joint_id,x,y,confidence\n0,0,1.0,2.0,1.5\n")
        with pytest.raises(ConfigError, match="row 2: confidence"):
            load_observations(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("view_id,joint_id,x,y,confidence\n0,0,oops,2.0,1.0\n")
        with pytest.raises(ConfigError, match="row 2"):
            load_observations(path)

    def test_header_without_rows(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("view_id,joint_id,x,y,confidence\n")
        with pytest.raises(ConfigError, match="no rows"):
            load_observations(path)
