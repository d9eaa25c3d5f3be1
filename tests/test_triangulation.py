import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epifuse import synth, triangulation
from epifuse.errors import ConfigError, Degenerate, NoConsensus
from epifuse.geometry import CameraView
from epifuse.triangulation import (
    TriangulationResult,
    conditioning_frame,
    dlt_triangulate,
    load_observations,
    ransac_triangulate,
    reprojection_errors,
    triangulate_joints,
)
import helpers
from helpers import (
    center_oracle,
    dlt_oracle,
    look_at_camera,
    project,
    random_camera,
    ransac_oracle,
    rectified_pair,
    reprojection_error_oracle,
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


def stack(cams):
    return np.stack([cam.M for cam in cams])


def observe(cams, x, noise=None, rng=None):
    """(n, 3, 4) camera stack and the (n, 2) projections of x, optionally noisy."""
    points = np.array([project(cam, x) for cam in cams])
    if noise is not None:
        points = points + rng.normal(0.0, noise, points.shape)
    return stack(cams), points


class TestDLT:
    def test_recovers_point_from_four_views(self):
        x = np.array([40.0, -25.0, 60.0])
        got = dlt_triangulate(*observe(ring_cameras(4), x))
        assert np.linalg.norm(got - x) < 1e-8

    def test_rectified_stereo_depth(self):
        # Oracle: depth = focal * baseline / disparity for a rectified pair.
        baseline = 100.0
        ref, src = rectified_pair(baseline=baseline, width=32, height=32)
        focal = ref.M[0, 0]
        x = np.array([5.0, -3.0, 400.0])
        cams, points = observe([ref, src], x)
        disparity = points[0, 0] - points[1, 0]
        got = dlt_triangulate(cams, points)
        assert abs(got[2] - focal * baseline / disparity) < 1e-9
        assert np.linalg.norm(got - x) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_projective_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        cams = [random_camera(rng) for _ in range(3)]
        x = visible_point(rng, cams)
        scaled = [CameraView(c.M * rng.uniform(0.1, 10.0), c.width, c.height) for c in cams]
        base = dlt_triangulate(*observe(cams, x))
        got = dlt_triangulate(*observe(scaled, x))
        assert np.linalg.norm(base - got) < 1e-9

    def test_duplicate_observation_keeps_recovery(self):
        x = np.array([-30.0, 10.0, 45.0])
        cams, points = observe(ring_cameras(3), x)
        base = np.linalg.norm(dlt_triangulate(cams, points) - x)
        dup = np.linalg.norm(dlt_triangulate(cams[[0, 1, 2, 0]], points[[0, 1, 2, 0]]) - x)
        assert dup < max(base, 1e-9) + 1e-12

    def test_coincident_views_degenerate(self):
        cams, points = observe(ring_cameras(3)[:1] * 2, np.array([10.0, 0.0, 20.0]))
        with pytest.raises(Degenerate):
            dlt_triangulate(cams, points)

    def test_needs_two_observations(self):
        cams = stack(ring_cameras(3)[:1])
        with pytest.raises(ValueError):
            dlt_triangulate(cams, np.array([[1.0, 1.0]]))

    def test_matches_row_oracle_bit_for_bit(self):
        # Stacked rows and their matmul norms against rows built one at a
        # time and scaled by 1-D np.linalg.norm: unconditioned (an identity
        # frame) and in the default conditioning frame.
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 10):
            for _ in range(20):
                cams = [random_camera(rng) for _ in range(n)]
                ms, points = observe(cams, visible_point(rng, cams), 1.0, rng)
                got = dlt_triangulate(ms, points, np.eye(4))
                assert np.array_equal(got, dlt_oracle(ms, points))
                frame = conditioning_frame(ms)
                got = dlt_triangulate(ms, points)
                assert np.array_equal(got, dlt_oracle(ms, points, frame))

    def parallel_rays(self):
        """A rectified pair seeing one pixel twice: X^ = (u, v, 1, 0) lies at infinity."""
        ref, src = rectified_pair()
        return stack([ref, src]), np.array([[3.0, -2.0], [3.0, -2.0]])

    def test_batch_matches_unbatched_calls_bit_for_bit(self):
        # (P, n, 3, 4) stacks over one rig's views, some pairs repeating a
        # view: each row is the unbatched call's point, or NaN where it
        # raises Degenerate.
        rng = np.random.default_rng(21)
        nan_rows = 0
        for n in (2, 3, 5):
            cams = [random_camera(rng) for _ in range(6)]
            ms, points = observe(cams, visible_point(rng, cams), 1.0, rng)
            views = rng.integers(0, 6, (2, 40, n))
            for frame in (np.eye(4), conditioning_frame(ms)):
                got = dlt_triangulate(ms[views], points[views], frame)
                assert got.shape == (2, 40, 3)
                for index in np.ndindex(2, 40):
                    try:
                        want = dlt_triangulate(ms[views[index]], points[views[index]], frame)
                    except Degenerate:
                        nan_rows += 1
                        assert np.isnan(got[index]).all()
                    else:
                        assert got[index].tobytes() == want.tobytes()
        assert nan_rows > 0

    def test_system_without_solution_is_a_nan_row(self):
        ms, points = self.parallel_rays()
        with pytest.raises(Degenerate, match="infinity"):
            dlt_triangulate(ms, points, np.eye(4))
        dup = observe(ring_cameras(3)[:1] * 2, np.array([10.0, 0.0, 20.0]))
        good = observe(ring_cameras(3)[:2], np.array([10.0, 0.0, 20.0]))
        batch = [np.stack(arrays) for arrays in zip((ms, points), dup, good)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dlt_triangulate(*batch, np.eye(4))
        assert np.isnan(got[:2]).all()
        assert got[2].tobytes() == dlt_triangulate(*good, np.eye(4)).tobytes()

    def test_all_degenerate_batch_raises_the_first_reason(self):
        far = self.parallel_rays()
        dup = observe(ring_cameras(3)[:1] * 2, np.array([10.0, 0.0, 20.0]))
        for first, second, reason in ((far, dup, "infinity"), (dup, far, "ambiguous")):
            batch = [np.stack(arrays) for arrays in zip(first, second)]
            with pytest.raises(Degenerate, match=reason):
                dlt_triangulate(*batch, np.eye(4))


class TestConditioningFrame:
    def test_mean_center_and_distance(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 7):
            cams = [random_camera(rng) for _ in range(n)]
            centers = np.array([h[:3] / h[3] for h in map(center_oracle, stack(cams))])
            c = centers.mean(axis=0)
            s = np.mean([np.linalg.norm(v - c) for v in centers])
            frame = conditioning_frame(stack(cams))
            assert np.allclose(frame, [[s, 0, 0, c[0]], [0, s, 0, c[1]],
                                       [0, 0, s, c[2]], [0, 0, 0, 1]], rtol=1e-12)

    def test_center_at_infinity_keeps_raw_frame(self):
        # An affine camera: its third row is (0, 0, 0, 1).
        affine = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        cams = np.stack([affine, ring_cameras(3)[0].M])
        assert np.array_equal(conditioning_frame(cams), np.eye(4))

    def test_one_shared_center_is_degenerate(self):
        cam = ring_cameras(3)[0]
        with pytest.raises(Degenerate):
            conditioning_frame(stack([cam, CameraView(2.0 * cam.M, cam.width, cam.height)]))

    def test_scaled_copies_of_one_camera_are_degenerate(self):
        # Scaled copies share a center up to rounding, not bit for bit: their
        # frame was a few 1e-12 mm across, and RANSAC found two inliers.
        cam = ring_cameras(3)[0]
        ms = cam.M * np.array([1.0, 0.5, 2.0, 3.0, 0.7])[:, None, None]
        points = np.array([project(cam, [10.0, 0.0, 20.0])] * 5)
        points[1:] += np.arange(1, 5)[:, None] * 0.01
        with pytest.raises(Degenerate, match="share one camera center"):
            ransac_triangulate(ms, points)
        got = triangulate_joints([(ms, points)], 5.0, 100, np.random.SeedSequence(0))
        assert got == ["all views share one camera center"]


class TestReprojectionError:
    def test_exact_projection_is_zero(self):
        cam = ring_cameras(3)[1]
        x = np.array([12.0, 8.0, -20.0])
        assert reprojection_errors(*observe([cam], x), x).tolist() == [0.0]

    def test_offset_detection(self):
        cam = ring_cameras(3)[1]
        x = np.array([12.0, 8.0, -20.0])
        cams, points = observe([cam], x)
        errors = reprojection_errors(cams, points + np.array([3.0, 4.0]), x)
        assert abs(errors[0] - 5.0) < 1e-12

    def test_matches_scalar_oracle_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            cams = [random_camera(rng) for _ in range(6)]
            x = rng.normal(0.0, 60.0, 3)
            points = rng.uniform(0.0, 63.0, (6, 2))
            want = [reprojection_error_oracle(c, x, p) for c, p in zip(cams, points)]
            assert reprojection_errors(stack(cams), points, x).tolist() == want

    def test_principal_plane_is_inf(self):
        # [I | 0] sees (1, 1, 0) with w = 0; the second camera sees it finitely.
        canonical = CameraView(np.hstack([np.eye(3), np.zeros((3, 1))]), 4, 4)
        cams = [canonical, ring_cameras(3)[0]]
        x = np.array([1.0, 1.0, 0.0])
        points = np.array([[1.0, 2.0], [40.0, 50.0]])
        errors = reprojection_errors(stack(cams), points, x)
        assert errors[0] == np.inf and np.isfinite(errors[1])
        assert errors.tolist() == [reprojection_error_oracle(c, x, p)
                                   for c, p in zip(cams, points)]

    def test_batch_matches_per_point_calls_bit_for_bit(self):
        # One point on the first camera's principal plane (inf there) and
        # one NaN row (a system without solution) among random points.
        rng = np.random.default_rng(22)
        cams = [random_camera(rng) for _ in range(7)]
        ms, points = stack(cams), rng.uniform(0.0, 63.0, (7, 2))
        x = rng.normal(0.0, 60.0, (4, 5, 3))
        c, ray = cams[0].center, np.cross(cams[0].M[2, :3], [1.0, 2.0, 3.0])
        x[1, 2] = c[:3] / c[3] + 50.0 * ray / np.linalg.norm(ray)
        x[3, 0] = np.nan
        got = reprojection_errors(ms, points, x)
        assert got.shape == (4, 5, 7)
        assert got[1, 2, 0] == np.inf and np.isnan(got[3, 0]).all()
        for index in np.ndindex(4, 5):
            if index != (3, 0):
                want = reprojection_errors(ms, points, x[index])
                assert got[index].tobytes() == want.tobytes()


class TestRansac:
    def test_clean_observations_all_inliers(self):
        x = np.array([25.0, 40.0, -15.0])
        cams, points = observe(ring_cameras(5), x)
        result = ransac_triangulate(cams, points, threshold_px=2.0, iterations=50, seed=1)
        assert result.inliers.all()
        assert np.linalg.norm(result.point - x) < 1e-8
        assert result.rms_reproj < 1e-9

    def test_matches_plain_dlt_when_clean(self):
        x = np.array([-18.0, 5.0, 70.0])
        cams, points = observe(ring_cameras(4), x)
        result = ransac_triangulate(cams, points, threshold_px=1.0, iterations=30, seed=2)
        want = dlt_triangulate(cams, points)
        assert np.linalg.norm(result.point - want) < 1e-9

    def test_excludes_corrupted_views(self):
        rng = np.random.default_rng(3)
        x = np.array([30.0, -20.0, 55.0])
        cams, points = observe(ring_cameras(8), x, noise=0.3, rng=rng)
        points[[2, 6]] += np.array([40.0, -35.0])
        result = ransac_triangulate(cams, points, threshold_px=3.0, iterations=100, seed=4)
        assert not result.inliers[2] and not result.inliers[6]
        assert result.inliers.sum() == 6
        # 0.3 px noise at this focal length and range is a few mm of lever.
        assert np.linalg.norm(result.point - x) < 10.0

    def test_wide_threshold_matches_dlt_over_everything(self):
        rng = np.random.default_rng(5)
        x = np.array([10.0, 10.0, 30.0])
        cams, points = observe(ring_cameras(5), x, noise=1.0, rng=rng)
        result = ransac_triangulate(cams, points, threshold_px=1e12, iterations=40, seed=6)
        assert result.inliers.all()
        assert np.linalg.norm(result.point - dlt_triangulate(cams, points)) < 1e-9

    def test_seed_determinism(self):
        rng = np.random.default_rng(7)
        x = np.array([0.0, 15.0, 42.0])
        cams, points = observe(ring_cameras(6), x, noise=2.0, rng=rng)
        a = ransac_triangulate(cams, points, threshold_px=4.0, iterations=60, seed=8)
        b = ransac_triangulate(cams, points, threshold_px=4.0, iterations=60, seed=8)
        assert np.array_equal(a.point, b.point)
        assert np.array_equal(a.inliers, b.inliers)
        assert a.rms_reproj == b.rms_reproj

    def test_no_consensus(self):
        # Three mutually inconsistent detections and a tight gate: every
        # minimal pair leaves the third view out, but a consensus of two is
        # still accepted, so scatter all three and shrink the threshold.
        rng = np.random.default_rng(9)
        x = np.array([20.0, 20.0, 20.0])
        cams, points = observe(ring_cameras(3), x)
        points = points + rng.uniform(30.0, 60.0, points.shape)
        with pytest.raises(NoConsensus):
            ransac_triangulate(cams, points, threshold_px=1e-6, iterations=50, seed=10)

    def test_refined_point_must_keep_two_inliers(self):
        # Only the pair of views 0 and 1 gathers two inliers, views 2 and 3
        # at 0.99 px. The DLT over views 2 and 3 then reprojects 0.81 and
        # 1.24 px from them, which leaves one view inside the threshold.
        cams = ring_cameras(8)
        cams = stack([cams[4], cams[2], cams[3], cams[6]])
        points = np.array([[62.7, 45.98], [35.55, 38.68], [49.83, 40.57], [62.37, 48.58]])
        with pytest.raises(NoConsensus, match="refined point"):
            ransac_triangulate(cams, points, threshold_px=1.1, iterations=50, seed=0)

    def test_validation(self):
        cams = stack(ring_cameras(3)[:1])
        with pytest.raises(ValueError):
            ransac_triangulate(cams, np.array([[1.0, 2.0]]))
        cams, points = observe(ring_cameras(3), np.array([5.0, 5.0, 5.0]))
        with pytest.raises(ValueError):
            ransac_triangulate(cams, points, threshold_px=0.0)
        with pytest.raises(ValueError):
            ransac_triangulate(cams, points, iterations=0)

    @staticmethod
    def outcome(fn, *args):
        try:
            r = fn(*args)
        except (Degenerate, NoConsensus) as exc:
            return type(exc).__name__, str(exc)
        return r.point.tobytes(), r.inliers.tobytes(), r.rms_reproj.hex()

    @staticmethod
    def entry(got):
        """A triangulate_joints entry, or an outcome, as its reason or its result bytes."""
        if isinstance(got, TriangulationResult):
            return got.point.tobytes(), got.inliers.tobytes(), got.rms_reproj.hex()
        if isinstance(got, tuple) and isinstance(got[0], str):  # (error type, reason)
            return got[1]
        return got

    def test_matches_scalar_oracle_bit_for_bit(self):
        # Random rigs of 2-12 views, exact (tied) and noisy pixels, about 30%
        # outliers; rigs with a duplicated view (degenerate pairs; at two
        # views, a degenerate frame) or of scaled copies of one camera;
        # thresholds tight enough to leave no consensus; and iteration counts
        # on both sides of a block boundary.
        rng = np.random.default_rng(23)
        kinds = set()
        for trial in range(132):
            n = 2 + trial % 11
            cams = [random_camera(rng) for _ in range(n)]
            ms, points = observe(cams, rng.normal(0.0, 60.0, 3), (0.0, 0.5, 2.0)[trial % 3], rng)
            outliers = rng.random(n) < 0.3
            points[outliers] += rng.uniform(-50.0, 50.0, (outliers.sum(), 2))
            if trial % 5 == 1:
                ms[-1], points[-1] = ms[0], points[0]
            elif trial % 12 == 2:
                ms = ms[0] * rng.uniform(0.5, 2.0, (n, 1, 1))
            threshold = (5.0, 1e-3, 3.0, 50.0)[trial % 4]
            iterations = 1500 if trial % 12 == 7 else (1, 2, 25, 100)[trial // 4 % 4]
            args = (ms, points, threshold, iterations, trial)
            want = self.outcome(ransac_oracle, *args)
            assert self.outcome(ransac_triangulate, *args) == want
            kinds.add(want[0] if isinstance(want[0], str) else "ok")
        assert kinds == {"ok", "Degenerate", "NoConsensus"}

    def test_joints_match_the_scalar_oracle_bit_for_bit(self):
        # One triangulate_joints call per gate mixes joints of 2-12 views
        # (exact and noisy pixels, about 30% outliers), with a duplicated view
        # (a degenerate frame at two views) or of scaled copies of one camera;
        # a view and its duplicate as the winning consensus (a refinement with
        # no solution); a refined point that keeps one inlier; joints of one
        # and of no views; and 46 and 60 views, whose 1035 and 1770 pairs
        # fill more than a block alone. Pairs are tried and drawn, and spill
        # over blocks across joints. Every entry is the oracle's, on the
        # joint's own spawned seed.
        rng = np.random.default_rng(33)
        joints = []
        for trial in range(40):
            n = 2 + trial % 11
            cams = [random_camera(rng) for _ in range(n)]
            ms, points = observe(cams, rng.normal(0.0, 60.0, 3), (0.0, 0.5, 2.0)[trial % 3], rng)
            outliers = rng.random(n) < 0.3
            points[outliers] += rng.uniform(-50.0, 50.0, (outliers.sum(), 2))
            if trial % 5 == 1:
                ms[-1], points[-1] = ms[0], points[0]
            elif trial % 12 == 2:
                ms = ms[0] * rng.uniform(0.5, 2.0, (n, 1, 1))
            joints.append((ms, points))
        while True:  # views 0 and 2 are one camera and pixel; view 1 is off by a few pixels
            cams = [random_camera(rng) for _ in range(2)]
            ms, points = observe(cams + cams[:1], rng.normal(0.0, 60.0, 3))
            points[1] += rng.normal(0.0, 4.0, 2)
            if self.outcome(ransac_oracle, ms, points, 3.0, 100)[0] == "Degenerate":
                break
        refined = (stack([ring_cameras(8)[v] for v in (4, 2, 3, 6)]),
                   np.array([[62.7, 45.98], [35.55, 38.68], [49.83, 40.57], [62.37, 48.58]]))
        lone = joints[3][0]
        joints += [(ms, points), refined, (lone[:1], np.zeros((1, 2))),
                   (lone[:0], np.zeros((0, 2)))]
        for n in (46, 60):
            ms, points = observe([random_camera(rng) for _ in range(n)],
                                 rng.normal(0.0, 20.0, 3), 0.5, rng)
            points[rng.random(n) < 0.3] += 30.0
            joints.append((ms, points))
        reasons = set()
        for call, (threshold, iterations) in enumerate(
                [(5.0, 25), (1e-3, 2), (3.0, 100), (50.0, 1), (1.1, 1500)]):
            got = triangulate_joints(joints, threshold, iterations, np.random.SeedSequence(call))
            children = np.random.SeedSequence(call).spawn(len(joints))
            for (ms, points), child, entry in zip(joints, children, got):
                want = "fewer than two views" if len(points) < 2 else self.entry(
                    self.outcome(ransac_oracle, ms, points, threshold, iterations, child))
                assert self.entry(entry) == want
                reasons.add(want if isinstance(want, str) else "ok")
        assert reasons == {"ok", "fewer than two views", "all views share one camera center",
                           "triangulated direction is ambiguous",
                           "no pair produced two or more inliers",
                           "the refined point keeps fewer than two inliers"}

    def test_ties_go_to_the_earliest_draw(self, monkeypatch):
        # Views 2g and 2g + 1 see point g, and errors are floored to 1e-3 px
        # (the gate): the pairs of each view couple tie at two inliers and 0 px,
        # with different inliers. With every pair tried, the first, (0, 1),
        # must win; with pairs drawn, the first drawn (as the oracle's). Both
        # within a block and across blocks: 46 views have 1035 pairs. Each
        # case runs alone and, at its own iterations, in one triangulate_joints
        # call with the other cases, whose pairs share its blocks.
        def floored(cams, points, x):
            return np.floor(real(cams, points, x) * 1e3) / 1e3

        real = reprojection_errors
        monkeypatch.setattr(triangulation, "reprojection_errors", floored)
        monkeypatch.setattr(helpers, "reprojection_errors", floored)
        rng = np.random.default_rng(25)
        cases = [(4, 5), (4, 14), (6, 12), (6, 14), (6, 1030), (46, 1030), (46, 1500), (4, 1500)]
        joints, wants = [], []
        for trial in range(16):
            n, iterations = cases[trial % 8]
            couples = [observe([random_camera(rng) for _ in range(2)], rng.normal(0.0, 60.0, 3))
                       for _ in range(n // 2)]
            joints.append(tuple(np.concatenate(arrays) for arrays in zip(*couples)))
        seeds = np.random.SeedSequence(25).spawn(16)
        for trial, (ms, points) in enumerate(joints):
            n, iterations = cases[trial % 8]
            args = (ms, points, 1e-3, iterations, seeds[trial])
            want = self.outcome(ransac_oracle, *args)
            assert self.outcome(ransac_triangulate, *args) == want
            wants.append(want)
            if n * (n - 1) // 2 <= iterations:
                first = [0, 1]
            else:
                draws = np.random.default_rng(seeds[trial])
                pairs = (sorted(draws.choice(n, 2, replace=False)) for _ in range(iterations))
                first = next((p for p in pairs if p[0] % 2 == 0 and p[1] == p[0] + 1), None)
            if first is None:  # no couple drawn
                assert want[0] == "NoConsensus"
            else:
                assert np.flatnonzero(np.frombuffer(want[1], bool)).tolist() == first
        for iterations in sorted({it for _, it in cases}):
            got = triangulate_joints(joints, 1e-3, iterations, np.random.SeedSequence(25))
            for trial in range(16):
                if cases[trial % 8][1] == iterations:
                    assert self.entry(got[trial]) == self.entry(wants[trial])

    def test_every_pair_tried_needs_no_seed(self, monkeypatch):
        # C(n, 2) <= iterations: the result is the same for every seed, and
        # no generator is made.
        def no_generator(*args):
            raise AssertionError("the random generator was used")

        rng = np.random.default_rng(26)
        rigs = []
        for n in (2, 5, 9):
            cams = [random_camera(rng) for _ in range(n)]
            ms, points = observe(cams, rng.normal(0.0, 60.0, 3), 1.0, rng)
            points[rng.random(n) < 0.3] += rng.uniform(-50.0, 50.0, 2)
            rigs.append((ms, points))
        wants = [self.outcome(ransac_triangulate, ms, points, 3.0, 36, 0) for ms, points in rigs]
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        for seed in (1, 7, np.random.SeedSequence(3)):
            got = [self.outcome(ransac_triangulate, ms, points, 3.0, 36, seed)
                   for ms, points in rigs]
            assert got == wants

    def test_every_pair_finds_at_least_the_drawn_consensus(self, monkeypatch):
        # The winning pair's consensus over all pairs is never smaller than
        # over drawn ones, whatever the seed (the sampled path is the
        # oracle's, bit for bit).
        def best_count(iterations, seed):
            counts.clear()
            try:
                ransac_triangulate(ms, points, 2.0, iterations, seed)
            except NoConsensus:
                pass
            return max(counts)

        def spy(*args):
            best = consensus(*args)
            counts.append(int(np.sum(best)))  # one joint: the winning pair's inlier count
            return best

        consensus, counts = triangulation._consensus, []
        monkeypatch.setattr(triangulation, "_consensus", spy)
        rng = np.random.default_rng(27)
        for trial in range(40):
            n = 3 + trial % 8
            cams = [random_camera(rng) for _ in range(n)]
            ms, points = observe(cams, rng.normal(0.0, 60.0, 3), 0.5, rng)
            outliers = rng.random(n) < 0.4
            points[outliers] += rng.uniform(-20.0, 20.0, (outliers.sum(), 2))
            pairs = n * (n - 1) // 2
            every = best_count(pairs, 0)
            for seed in range(4):
                assert every >= best_count(2, seed)
                assert every >= best_count(pairs - 1, seed)

    def test_memory_does_not_grow_with_iterations(self):
        # Pairs are solved a block at a time: ten times the iterations, the
        # same peak, whether the 10 views' 45 pairs are all tried or the 201
        # views' 20,100 pairs are drawn, and whether 40 or 80 ten-view joints
        # share the blocks. A block's (pair, view) entries are bounded, so the
        # 201-view joint, 201 entries a pair, peaks below 4 MB.
        def joint(n):
            cams = [random_camera(rng) for _ in range(n)]
            ms, points = observe(cams, rng.normal(0.0, 20.0, 3), 0.5, rng)
            points[[2, 7]] += 30.0
            return ms, points

        rng = np.random.default_rng(24)
        for joints in ([joint(10)], [joint(201)], [joint(10) for _ in range(40)],
                       [joint(10) for _ in range(80)]):
            triangulate_joints(joints, 4.0, 2000, np.random.SeedSequence(1))
            peaks = []
            for iterations in (2000, 20000):
                tracemalloc.start()
                try:
                    triangulate_joints(joints, 4.0, iterations, np.random.SeedSequence(1))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert abs(peaks[1] - peaks[0]) < 8192
            if len(joints[0][1]) == 201:
                assert max(peaks) < 4_000_000


class TestTriangulateJoints:
    def joints(self, first_views):
        """Four joints over an 8-view ring with outliers, the first seen first_views times."""
        cams = ring_cameras(8)
        out = []
        for j, views in enumerate([first_views, 8, 8, 8]):
            rng = np.random.default_rng([11, j])
            cam_stack, points = observe(cams[:views], rng.uniform(-60.0, 60.0, 3), 0.5, rng)
            points[rng.random(views) < 0.3] += 25.0
            out.append((cam_stack, points))
        return out

    def test_joint_j_runs_on_the_jth_spawned_seed(self):
        # Two iterations over noisy rows with outliers: the result depends on
        # the seed, so the seed of each joint is pinned by its position alone.
        dropped = triangulate_joints(self.joints(1), 2.0, 2, np.random.SeedSequence(5))
        kept = triangulate_joints(self.joints(3), 2.0, 2, np.random.SeedSequence(5))
        assert dropped[0] == "fewer than two views" and not isinstance(kept[0], str)
        children = np.random.SeedSequence(5).spawn(4)
        for j, (cams, points) in enumerate(self.joints(1)[1:], start=1):
            want = ransac_triangulate(cams, points, 2.0, 2, children[j])
            for got in (dropped[j], kept[j]):
                assert np.array_equal(got.point, want.point)
                assert np.array_equal(got.inliers, want.inliers)
                assert got.rms_reproj == want.rms_reproj
        # Without joint 0, joint j runs on the seed of joint j - 1, and its result moves.
        shifted = triangulate_joints(self.joints(1)[1:], 2.0, 2, np.random.SeedSequence(5))
        assert any(isinstance(a, str) or not np.array_equal(a.point, b.point)
                   for a, b in zip(shifted, dropped[1:]))

    def test_plain_result_is_the_points_own(self):
        cams, points = self.joints(8)[1]
        (result,) = triangulate_joints([(cams, points)], 2.0, 2, np.random.SeedSequence(0), True)
        point = dlt_triangulate(cams, points)
        assert np.array_equal(result.point, point)
        assert result.inliers.tolist() == [True] * 8
        errors = reprojection_errors(cams, points, point)
        assert result.rms_reproj == float(np.sqrt(np.mean(errors ** 2))) > 2.0


class TestDefaultScenario:
    def test_seed_4_joint_12_fits_its_detections(self, monkeypatch):
        # Each heatmap detection of this joint lies within 0.72 px of its true
        # projection. The DLT in raw millimetres put it 144.6 mm off,
        # reprojecting 2.2-15.0 px from them, and RANSAC still kept all ten
        # views as inliers of that point.
        calls = []

        def capture(joints, *rest):
            calls.append(joints)
            return original(joints, *rest)

        original = synth.triangulate_joints
        monkeypatch.setattr(synth, "triangulate_joints", capture)
        config = synth.ScenarioConfig(seed=4)
        report = synth.run_scenario(config)
        cams, points = calls[0][12]  # the heatmap path
        threshold = config.ransac_threshold_px
        assert len(points) == 10
        assert np.all(reprojection_errors(cams, points, dlt_triangulate(cams, points)) < threshold)
        result = ransac_triangulate(cams, points, threshold, config.ransac_iterations, seed=0)
        assert result.inliers.all()
        assert np.all(reprojection_errors(cams, points, result.point) < threshold)
        assert report.per_joint[12].inlier_views == 10
        assert report.per_joint[12].error_mm < 5.0


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

    def test_rejects_non_finite_point(self, tmp_path):
        path = tmp_path / "obs.csv"
        for x, y in (("nan", "2.0"), ("1.0", "inf"), ("-inf", "nan")):
            path.write_text(f"view_id,joint_id,x,y,confidence\n0,0,1.0,2.0,1.0\n1,0,{x},{y},1.0\n")
            with pytest.raises(ConfigError, match="row 3: [xy] must be finite"):
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
