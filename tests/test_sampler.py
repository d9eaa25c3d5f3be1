import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epifuse.errors import ConfigError, DegenerateLine
from epifuse.fusion import _plan_pixels, plan_epipolar_sampling
from epifuse.geometry import (
    CameraView,
    EpipolarLine,
    camera_at_resolution,
    epipolar_line,
    fundamental_matrix,
    normalize_line,
    normalize_lines,
    project,
    rescale_camera,
)
from epifuse.sampler import (
    EpipolarSampleSet,
    FeatureMap,
    Segment2D,
    bilinear_gather,
    bilinear_plan,
    bilinear_sample,
    clip_line_to_image,
    clip_lines,
    epipolar_samples,
    load_feature_map,
    sample_locations,
    save_feature_map,
)
from helpers import random_camera_pair, rectified_pair, visible_point


def liang_barsky(a, b, c, width, height):
    """Independent parametric clip oracle: line a x + b y + c = 0."""
    px, py = -a * c, -b * c
    dx, dy = -b, a
    t0, t1 = -np.inf, np.inf
    for p, d, lo, hi in ((px, dx, 0.0, width - 1.0), (py, dy, 0.0, height - 1.0)):
        if d == 0.0:
            if not (lo <= p <= hi):
                return None
        else:
            ta, tb = (lo - p) / d, (hi - p) / d
            t0 = max(t0, min(ta, tb))
            t1 = min(t1, max(ta, tb))
    if t0 > t1:
        return None
    return (px + t0 * dx, py + t0 * dy), (px + t1 * dx, py + t1 * dy)


class TestClipLine:
    def test_horizontal_line(self):
        seg = clip_line_to_image(normalize_line([0.0, -1.0, 5.0]), 10, 10)
        assert seg is not None
        assert (seg.x0, seg.y0, seg.x1, seg.y1) == (0.0, 5.0, 9.0, 5.0)

    def test_line_outside_image(self):
        assert clip_line_to_image(normalize_line([0.0, -1.0, 20.0]), 10, 10) is None

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_parametric_oracle(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(3) * [1.0, 1.0, 20.0]
        if np.hypot(raw[0], raw[1]) < 1e-3:
            raw[0] = 1.0
        line = normalize_line(raw)
        seg = clip_line_to_image(line, 32, 24)
        oracle = liang_barsky(line.a, line.b, line.c, 32, 24)
        if seg is None:
            assert oracle is None
            return
        assert oracle is not None
        (ox0, oy0), (ox1, oy1) = oracle
        got = {(round(seg.x0, 9), round(seg.y0, 9)), (round(seg.x1, 9), round(seg.y1, 9))}
        want = {(round(ox0, 9), round(oy0, 9)), (round(ox1, 9), round(oy1, 9))}
        assert got == want
        # Endpoints inside the rect, on the line, ordered by (x, y).
        for x, y in ((seg.x0, seg.y0), (seg.x1, seg.y1)):
            assert -1e-9 <= x <= 31 + 1e-9 and -1e-9 <= y <= 23 + 1e-9
            assert abs(line.distance(x, y)) < 1e-9
        assert (seg.x0, seg.y0) <= (seg.x1, seg.y1)

    def test_corner_touching_line(self):
        # Diagonal through (0, 0) only: a single-point intersection.
        line = normalize_line([1.0, 1.0, 0.0])
        seg = clip_line_to_image(line, 10, 10)
        assert seg is not None
        assert seg.length == 0.0
        assert (seg.x0, seg.y0) == (0.0, 0.0)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestScalarMatchesBatch:
    """The per-query kernels equal the matching batch row bit for bit."""

    W, H = 32, 24

    def lines(self):
        rng = np.random.default_rng(41)
        x_hi, y_hi = self.W - 1.0, self.H - 1.0
        random_lines = rng.standard_normal((2000, 3)) * [1.0, 1.0, 30.0]
        axis_parallel = [
            [1.0, 0.0, -3.0],
            [0.0, -1.0, 5.0],
            [-2.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0, 0.0, -x_hi],
            [0.0, 1.0, -y_hi],
        ]
        corner_touching = [
            [1.0, 1.0, 0.0],
            [1.0, -1.0, -x_hi],
            [-1.0, 1.0, -y_hi],
            [1.0, 1.0, -(x_hi + y_hi)],
        ]
        for cx, cy in ((0.0, 0.0), (x_hi, 0.0), (0.0, y_hi), (x_hi, y_hi)):
            for angle in rng.uniform(0.0, 2.0 * np.pi, 50):
                a, b = np.cos(angle), np.sin(angle)
                corner_touching.append([a, b, -(a * cx + b * cy)])
        missing = [
            [0.0, 1.0, 5.0],
            [1.0, 0.0, -(x_hi + 1.0)],
            [1.0, 1.0, 10.0],
            [1.0, 1.0, -(x_hi + y_hi + 1.0)],
        ]
        degenerate = [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1e-14, 0.0, 1.0], [1e-20, -1e-20, 3.0]]
        rows = random_lines.tolist() + axis_parallel + corner_touching + missing + degenerate
        return np.array(rows), len(degenerate)

    def test_normalize_line_matches_normalize_lines(self):
        lines, n_degenerate = self.lines()
        normed, valid = normalize_lines(lines)
        assert not valid[-n_degenerate:].any()
        for row, ok, want in zip(lines, valid, normed):
            if ok:
                assert _bits(normalize_line(row).l) == _bits(want)
            else:
                with pytest.raises(DegenerateLine):
                    normalize_line(row)

    @pytest.mark.parametrize("width, height", [(32, 24), (1, 24), (32, 1)])
    def test_clip_line_to_image_matches_clip_lines(self, width, height):
        # Raw rows as well as normalized ones, so lines with a < 0 exercise
        # the endpoint order. Degenerate rows clip to NaN endpoints in both;
        # non-finite rows miss in both.
        lines = self.lines()[0]
        normed, _ = normalize_lines(lines)
        non_finite = [[np.nan, 1.0, 0.0], [np.inf, 0.0, 1.0], [0.6, 0.8, -np.inf]]
        rows = np.concatenate([normed, lines, non_finite])
        with np.errstate(invalid="ignore"):
            hit, ends = clip_lines(rows, width, height)
        assert hit.any() and not hit.all()
        for line, ok, want in zip(rows, hit, ends):
            seg = clip_line_to_image(line, width, height)
            if not ok:
                assert seg is None
                continue
            assert seg is not None
            assert _bits([seg.x0, seg.y0, seg.x1, seg.y1]) == _bits(want)

    def test_plan_samples_the_per_query_points(self):
        # Fed the plan's own raw lines, the per-query kernels place every
        # sample exactly where the plan does, and skip the same pixels.
        rng = np.random.default_rng(43)
        ref, src = random_camera_pair(rng, 16, 16)
        k = 8
        plan = plan_epipolar_sampling(ref, src, (16, 16), (16, 16), k=k)
        assert plan.valid.any()
        xs = np.tile(np.arange(16, dtype=np.float64), 16)
        ys = np.repeat(np.arange(16, dtype=np.float64), 16)
        pixels = np.stack([xs, ys, np.ones_like(xs)], axis=1)
        raw = pixels @ fundamental_matrix(ref, src).T
        _, locations, _, _ = _plan_pixels(ref, src, (16, 16), (16, 16), xs, ys, k)
        locations = iter(locations)
        for row, valid in zip(raw, plan.valid):
            try:
                seg = clip_line_to_image(normalize_line(row), 16, 16)
            except DegenerateLine:
                seg = None
            assert (seg is not None) == valid
            if seg is not None:
                assert _bits(sample_locations(seg, k)) == _bits(next(locations))
        assert next(locations, None) is None


class TestSampleLocations:
    def test_uniform_spacing(self):
        seg = Segment2D(0.0, 0.0, 9.0, 0.0)
        pts = sample_locations(seg, 4)
        assert np.allclose(pts[:, 0], [0.0, 3.0, 6.0, 9.0])
        assert np.allclose(pts[:, 1], 0.0)

    def test_single_sample_is_midpoint(self):
        pts = sample_locations(Segment2D(2.0, 4.0, 6.0, 8.0), 1)
        assert np.allclose(pts, [[4.0, 6.0]])

    def test_degenerate_segment(self):
        pts = sample_locations(Segment2D(5.0, 5.0, 5.0, 5.0), 8)
        assert np.allclose(pts, 5.0)
        assert pts.shape == (8, 2)

    @given(st.integers(2, 64))
    def test_constant_spacing(self, k):
        pts = sample_locations(Segment2D(1.0, 2.0, 17.0, 9.0), k)
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.all(np.abs(steps - steps[0]) < 1e-9)
        assert np.allclose(pts[0], [1.0, 2.0])
        assert np.allclose(pts[-1], [17.0, 9.0])


class TestBilinear:
    def test_integer_point_returns_stored_vector(self):
        rng = np.random.default_rng(1)
        fmap = FeatureMap(rng.standard_normal((8, 9, 3)))
        assert np.array_equal(bilinear_sample(fmap, (3.0, 7.0)), fmap.data[7, 3])

    def test_midpoint_is_mean_of_corners(self):
        rng = np.random.default_rng(2)
        fmap = FeatureMap(rng.standard_normal((4, 4, 2)))
        got = bilinear_sample(fmap, (1.5, 2.5))
        want = fmap.data[2:4, 1:3].mean(axis=(0, 1))
        assert np.allclose(got, want, atol=1e-12)

    @settings(max_examples=200)
    @given(
        st.floats(0.0, 6.999, allow_nan=False),
        st.floats(0.0, 4.999, allow_nan=False),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_closed_form(self, x, y, seed):
        rng = np.random.default_rng(seed)
        fmap = FeatureMap(rng.standard_normal((6, 8, 3)))
        x0, y0 = int(np.floor(x)), int(np.floor(y))
        dx, dy = x - x0, y - y0
        d = fmap.data
        want = (
            (1 - dx) * (1 - dy) * d[y0, x0]
            + dx * (1 - dy) * d[y0, x0 + 1]
            + (1 - dx) * dy * d[y0 + 1, x0]
            + dx * dy * d[y0 + 1, x0 + 1]
        )
        assert np.allclose(bilinear_sample(fmap, (x, y)), want, atol=1e-12)

    def test_plan_matches_integer_corner_oracle(self):
        # Scalar oracle with integer corners, bit for bit, signed zeros
        # included: -0.0 stays -0.0 through the clamp and x - x0 keeps it.
        h, w = 4, 5
        pts = [(-0.0, -0.0), (-0.0, 2.5), (3.25, -0.0), (-1.0, 1.0), (4.0, 3.0),
               (2.7, 1.2), (0.5, 2.999), (math.inf, -math.inf), (-math.inf, 1e-300)]
        corner, blend = bilinear_plan(h, w, np.array(pts))
        for i, (px, py) in enumerate(pts):
            x = min(px if px >= 0.0 else 0.0, w - 1.0)
            y = min(py if py >= 0.0 else 0.0, h - 1.0)
            x0, y0 = min(math.floor(x), w - 2), min(math.floor(y), h - 2)
            fx, fy = x - x0, y - y0
            want = [(1.0 - fx) * (1.0 - fy), fx * (1.0 - fy), (1.0 - fx) * fy, fx * fy]
            assert corner[i] == y0 * w + x0
            assert blend[:, i].tobytes() == np.array(want).tobytes(), (px, py)

    def test_clamps_to_border(self):
        rng = np.random.default_rng(3)
        fmap = FeatureMap(rng.standard_normal((4, 4, 2)))
        assert np.array_equal(bilinear_sample(fmap, (-1.0, 1.0)), fmap.data[1, 0])
        assert np.array_equal(bilinear_sample(fmap, (5.0, 3.5)), fmap.data[3, 3])

    def test_gather_owns_its_reads(self):
        # The reads own their memory, not a view that keeps a gathered corner
        # stack alive, and they keep the w00, w10, w01, w11 blend order.
        rng = np.random.default_rng(4)
        h, w, c = 9, 11, 5
        flat = rng.standard_normal((h * w, c))
        corner, blend = bilinear_plan(h, w, rng.uniform(-1.0, 12.0, size=(50, 2)))
        got = bilinear_gather(flat, w, corner, blend)
        assert got.shape == (50, c) and got.base is None and got.flags.owndata
        a, b, d, e = (flat[corner + off] * blend[i][:, None]
                      for i, off in enumerate((0, 1, w, w + 1)))
        assert got.tobytes() == (((a + b) + d) + e).tobytes()


class TestEpipolarSamples:
    def test_rectified_rows(self):
        ref, src = rectified_pair(baseline=100.0, width=32, height=32)
        fmap = FeatureMap(np.zeros((32, 32, 2)))
        out = epipolar_samples(fmap, ref, src, (4.0, 5.0), k=16)
        assert out is not None
        assert np.allclose(out.locations[:, 1], 5.0, atol=1e-12)

    def test_miss_returns_none(self):
        ref, src = rectified_pair(baseline=100.0, width=32, height=32)
        fmap = FeatureMap(np.zeros((32, 32, 2)))
        # Rectified lines keep their row; a query row far below the source
        # map has no intersection.
        assert epipolar_samples(fmap, ref, src, (4.0, 200.0), k=16) is None

    def test_default_sample_count(self):
        ref, src = rectified_pair(baseline=100.0, width=32, height=32)
        fmap = FeatureMap(np.zeros((32, 32, 2)))
        out = epipolar_samples(fmap, ref, src, (4.0, 5.0))
        assert out is not None and out.k == 64

    def test_locations_on_line_and_features_reproducible(self):
        rng = np.random.default_rng(7)
        found = 0
        while found < 10:
            ref, src = random_camera_pair(rng)
            fmap = FeatureMap(rng.standard_normal((src.height, src.width, 4)))
            p = rng.uniform(0.0, 63.0, 2)
            try:
                line = epipolar_line(ref, src, p)
            except Exception:
                continue
            out = epipolar_samples(fmap, ref, src, p, k=32)
            if out is None:
                continue
            found += 1
            for (x, y), feat in zip(out.locations, out.features):
                assert abs(line.distance(x, y)) < 1e-9
                assert np.array_equal(feat, bilinear_sample(fmap, (x, y)))

    def test_nearest_sample_bound(self):
        # The distance from a true correspondence to the sample set is at
        # most half the sample spacing (it lies on the clipped segment).
        rng = np.random.default_rng(8)
        k = 32
        checked = 0
        while checked < 20:
            ref, src = random_camera_pair(rng)
            fmap = FeatureMap(np.zeros((src.height, src.width, 1)))
            x = visible_point(rng, [ref, src])
            p = project(ref, x)
            p_src = project(src, x)
            out = epipolar_samples(fmap, ref, src, p, k=k)
            if out is None:
                continue
            checked += 1
            seg_len = float(np.linalg.norm(out.locations[-1] - out.locations[0]))
            gap = np.min(np.linalg.norm(out.locations - p_src[None, :], axis=1))
            assert gap <= seg_len / (2 * (k - 1)) + 1e-9

    def test_rescaled_source_map(self):
        # A half-resolution source map must sample along the line of the
        # rescaled camera, in map coordinates.
        rng = np.random.default_rng(9)
        while True:
            ref, src = random_camera_pair(rng, width=64, height=64)
            fmap = FeatureMap(rng.standard_normal((32, 32, 2)))
            p = rng.uniform(0.0, 63.0, 2)
            out = epipolar_samples(fmap, ref, src, p, k=16)
            if out is not None:
                break
        small = rescale_camera(src, 2.0, 2.0)
        line = epipolar_line(ref, small, p)
        for x, y in out.locations:
            assert abs(line.distance(x, y)) < 1e-9
            assert 0.0 <= x <= 31.0 and 0.0 <= y <= 31.0

    def test_rescaled_camera_is_cached(self):
        rng = np.random.default_rng(10)
        _, src = random_camera_pair(rng, width=64, height=64)
        half = camera_at_resolution(src, 32, 32)
        assert camera_at_resolution(src, 32, 32) is half
        quarter = camera_at_resolution(src, 16, 16)
        assert quarter is not half and camera_at_resolution(src, 16, 16) is quarter
        assert camera_at_resolution(src, 64, 64) is src

    def test_cached_rescale_keeps_sample_bits(self):
        # Queries on a half-resolution map reuse one rescaled source camera;
        # each must equal the same query through freshly built cameras.
        rng = np.random.default_rng(11)
        ref, src = random_camera_pair(rng, width=64, height=64)
        fmap = FeatureMap(rng.standard_normal((32, 32, 3)))
        compared = 0
        for p in rng.uniform(0.0, 63.0, (40, 2)):
            got = epipolar_samples(fmap, ref, src, p, k=16)
            fresh_ref, fresh_src = CameraView(ref.M, 64, 64), CameraView(src.M, 64, 64)
            want = epipolar_samples(fmap, fresh_ref, fresh_src, p, k=16)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.locations.tobytes() == want.locations.tobytes()
                assert got.features.tobytes() == want.features.tobytes()
                compared += 1
        assert compared >= 10


class TestFeatureMapIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((5, 6, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "map.fmap"
        save_feature_map(FeatureMap(data), path)
        loaded = load_feature_map(path)
        assert loaded.data.shape == (5, 6, 3)
        assert np.array_equal(loaded.data, data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fmap"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(ConfigError, match="magic"):
            load_feature_map(path)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(12)
        path = tmp_path / "map.fmap"
        save_feature_map(FeatureMap(rng.standard_normal((4, 4, 2))), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ConfigError, match="truncated"):
            load_feature_map(path)


class TestFeatureMapValidation:
    def test_too_small(self):
        with pytest.raises(ValueError):
            FeatureMap(np.zeros((1, 4, 2)))

    def test_non_finite(self):
        data = np.zeros((3, 3, 1))
        data[1, 1, 0] = np.nan
        with pytest.raises(ValueError):
            FeatureMap(data)

    def test_read_only(self):
        fmap = FeatureMap(np.zeros((3, 3, 1)))
        with pytest.raises(ValueError):
            fmap.data[0, 0, 0] = 1.0

    def test_sample_set_shape_checks(self):
        with pytest.raises(ValueError):
            EpipolarSampleSet(locations=np.zeros((0, 2)), features=np.zeros((0, 4)))
        with pytest.raises(ValueError):
            EpipolarSampleSet(locations=np.zeros((3, 2)), features=np.zeros((2, 4)))
