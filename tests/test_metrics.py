import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epifuse.errors import ConfigError, LengthMismatch
from epifuse.metrics import (
    argmax_peak,
    jdr,
    load_pose_csv,
    mpjpe,
    save_pose_csv,
)


def gaussian(p, sigma, height, width):
    """(height, width) Gaussian with peak value 1 at pixel location p = (x, y)."""
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    return np.exp(-((xs - p[0]) ** 2 + (ys - p[1]) ** 2) / (2.0 * sigma * sigma))


class TestArgmaxPeak:
    def test_delta_recovered_exactly(self):
        h = np.zeros((10, 12))
        h[6, 9] = 3.0
        (x, y), conf = argmax_peak(h)
        assert (x, y) == (9.0, 6.0)
        assert conf == 3.0

    def test_subpixel_shift_toward_heavier_neighbor(self):
        h = gaussian((7.25, 5.0), 1.5, 16, 16)
        (x, y), _ = argmax_peak(h)
        assert x == 7.25 and y == 5.0

    def test_quarter_shift_against_raw_argmax(self):
        for true_x in (6.6, 6.9, 7.1, 7.4):
            h = gaussian((true_x, 8.0), 2.0, 17, 17)
            (x, _), _ = argmax_peak(h)
            assert abs(x - true_x) <= 0.25 + 1e-9

    def test_uniform_takes_first_row_major(self):
        (x, y), conf = argmax_peak(np.ones((5, 5)))
        assert (x, y) == (0.0, 0.0)
        assert conf == 1.0

    def test_border_peak_no_shift(self):
        h = np.zeros((6, 6))
        h[0, 5] = 1.0
        h[1, 5] = 0.9
        (x, y), _ = argmax_peak(h)
        assert (x, y) == (5.0, 0.0)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            argmax_peak(np.zeros((4, 4, 2)))


class TestMpjpe:
    def test_identical_is_zero(self):
        p = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert mpjpe(p, p) == 0.0

    def test_oracle(self):
        gt = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        pred = np.array([[3.0, 4.0, 0.0], [10.0, 0.0, 5.0]])
        assert abs(mpjpe(pred, gt) - (5.0 + 5.0) / 2.0) < 1e-12

    def test_invalid_joints_excluded(self):
        # Callers average over the valid rows only.
        gt = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        pred = np.array([[2.0, 0.0, 0.0], [999.0, 0.0, 0.0]])
        valid = np.array([True, False])
        assert mpjpe(pred[valid], gt[valid]) == 2.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        gt = rng.standard_normal((6, 3))
        pred = gt + rng.standard_normal((6, 3)) * 0.1
        t = np.array([100.0, -50.0, 7.0])
        assert abs(mpjpe(pred + t, gt + t) - mpjpe(pred, gt)) < 1e-9

    def test_scales_linearly(self):
        rng = np.random.default_rng(2)
        gt = rng.standard_normal((5, 3))
        pred = gt + rng.standard_normal((5, 3))
        assert abs(mpjpe(3.0 * pred, 3.0 * gt) - 3.0 * mpjpe(pred, gt)) < 1e-9

    def test_accepts_2d_points(self):
        assert mpjpe(np.array([[3.0, 4.0]]), np.zeros((1, 2))) == 5.0

    def test_joint_count_mismatch(self):
        with pytest.raises(LengthMismatch, match="differ"):
            mpjpe(np.zeros((3, 3)), np.zeros((4, 3)))
        with pytest.raises(LengthMismatch, match="differ"):
            mpjpe(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_no_valid_joints(self):
        with pytest.raises(ValueError):
            mpjpe(np.zeros((0, 3)), np.zeros((0, 3)))


class TestJdr:
    def test_boundary_is_strict(self):
        gt = np.array([[0.0, 0.0]])
        head = 10.0
        exactly = np.array([[5.0, 0.0]])  # offset == 0.5 * head: a miss
        inside = np.array([[4.999, 0.0]])
        assert jdr(exactly, gt, head) == 0.0
        assert jdr(inside, gt, head) == 100.0

    def test_half_detected(self):
        gt = np.zeros((4, 2))
        pred = np.array([[0.0, 0.0], [1.0, 0.0], [30.0, 0.0], [0.0, 30.0]])
        assert jdr(pred, gt, 10.0) == 50.0

    def test_accepts_3d_points(self):
        gt = np.zeros((2, 3))
        pred = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 20.0]])
        assert jdr(pred, gt, 10.0) == 50.0

    def test_per_joint_head_sizes(self):
        gt = np.zeros((2, 2))
        pred = np.array([[3.0, 0.0], [3.0, 0.0]])
        assert jdr(pred, gt, np.array([10.0, 4.0])) == 50.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 0.9))
    def test_monotone_in_head_size(self, seed, shrink):
        rng = np.random.default_rng(seed)
        gt = rng.standard_normal((8, 2)) * 10.0
        pred = gt + rng.standard_normal((8, 2)) * 3.0
        assert jdr(pred, gt, 8.0 * shrink) <= jdr(pred, gt, 8.0)

    def test_head_size_validation(self):
        with pytest.raises(ValueError):
            jdr(np.zeros((2, 2)), np.zeros((2, 2)), 0.0)

    def test_shape_diagnostics(self):
        with pytest.raises(LengthMismatch, match="expected"):
            jdr(np.zeros((2, 4)), np.zeros((2, 4)), 1.0)
        with pytest.raises(LengthMismatch, match="differ"):
            jdr(np.zeros((2, 2)), np.zeros((3, 2)), 1.0)


class TestPoseCSV:
    def test_round_trip_3d(self, tmp_path):
        ids = [0, 1, 5]
        pts = np.array([[1.5, -2.25, 3.0], [0.1, 0.2, 0.3], [7.0, 8.0, 9.0]])
        confs = np.array([1.0, 0.5, 0.0])
        path = tmp_path / "pose.csv"
        save_pose_csv(ids, pts, confs, path)
        got_ids, got_pts, got_confs = load_pose_csv(path)
        assert got_ids == ids
        assert np.array_equal(got_pts, pts)
        assert np.array_equal(got_confs, confs)

    def test_round_trip_2d(self, tmp_path):
        ids = [2, 3]
        pts = np.array([[4.5, 6.5], [0.0, -1.0]])
        confs = np.array([0.25, 0.75])
        path = tmp_path / "pose.csv"
        save_pose_csv(ids, pts, confs, path)
        got_ids, got_pts, got_confs = load_pose_csv(path)
        assert got_ids == ids
        assert got_pts.shape == (2, 2)
        assert np.array_equal(got_pts, pts)
        assert np.array_equal(got_confs, confs)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "pose.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError, match="header"):
            load_pose_csv(path)

    def test_bad_row(self, tmp_path):
        path = tmp_path / "pose.csv"
        path.write_text("joint_id,x,y,confidence\n0,1.0\n")
        with pytest.raises(ConfigError, match="row 2"):
            load_pose_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pose.csv"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_pose_csv(path)
