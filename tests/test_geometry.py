import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epifuse.errors import CoincidentCenters, ConfigError, DegenerateLine
from epifuse.geometry import (
    CameraView,
    apply_affine_to_camera,
    camera_at_resolution,
    camera_from_dict,
    epipolar_line,
    fundamental_matrix,
    load_rig_file,
    normalize_line,
    rescale_camera,
    rig_to_json,
    skew,
)
from epifuse.synth import make_rig
from helpers import (
    center_oracle,
    look_at_camera,
    pinv_oracle,
    project,
    random_camera,
    random_camera_pair,
    rectified_pair,
    visible_point,
)

finite3 = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False), min_size=3, max_size=3
)


class TestSkew:
    def test_zero_vector(self):
        assert np.array_equal(skew([0.0, 0.0, 0.0]), np.zeros((3, 3)))

    def test_unit_cross(self):
        assert np.array_equal(skew([1.0, 0.0, 0.0]) @ [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])

    @given(finite3, finite3)
    def test_matches_cross_product(self, v, w):
        # Oracle: numpy's own cross product.
        assert np.allclose(skew(v) @ w, np.cross(v, w), atol=1e-9)

    @given(finite3)
    def test_antisymmetric(self, v):
        s = skew(v)
        assert np.array_equal(s.T, -s)


class TestCameraCenter:
    def test_canonical_camera(self):
        cam = CameraView(np.hstack([np.eye(3), np.zeros((3, 1))]), 4, 4)
        assert np.allclose(cam.center, [0.0, 0.0, 0.0, 1.0])

    def test_translated_camera(self):
        t = np.array([1.0, 2.0, 3.0])
        cam = CameraView(np.hstack([np.eye(3), -t[:, None]]), 4, 4)
        expected = np.array([1.0, 2.0, 3.0, 1.0]) / np.sqrt(15.0)
        assert np.allclose(cam.center, expected, atol=1e-12)

    def test_random_null_vector(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            cam = random_camera(rng)
            c = cam.center
            assert np.linalg.norm(cam.M @ c) < 1e-10
            assert c.tobytes() == center_oracle(cam.M).tobytes()

    def test_rank_deficient_matrix_rejected(self):
        rank_two = np.vstack([np.eye(2, 4), np.eye(2, 4)[0] + np.eye(2, 4)[1]])
        for m in (rank_two, np.zeros((3, 4))):
            with pytest.raises(ValueError, match="rank deficient"):
                CameraView(m, 4, 4)


class TestPseudoInverse:
    def test_canonical(self):
        cam = CameraView(np.hstack([np.eye(3), np.zeros((3, 1))]), 4, 4)
        assert np.allclose(cam.pinv, np.vstack([np.eye(3), np.zeros((1, 3))]))

    def test_penrose_conditions(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cam = random_camera(rng)
            m, pinv = cam.M, cam.pinv
            assert np.allclose(m @ pinv, np.eye(3), atol=1e-9)
            assert np.allclose(m @ pinv @ m, m, atol=1e-9)

    def test_poorly_conditioned(self):
        # Singular values spread over six decades; inverse must still hold.
        rng = np.random.default_rng(4)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        m = u @ np.diag([1.0, 1e-3, 1e-6]) @ v[:3]
        assert np.allclose(m @ CameraView(m, 4, 4).pinv, np.eye(3), atol=1e-9)

    def test_rank_deficient(self):
        m = np.zeros((3, 4))
        m[0, 0] = m[1, 1] = 1.0
        with pytest.raises(ValueError, match="rank deficient"):
            CameraView(m, 4, 4)


class TestCachedCameraConstants:
    """center and pinv equal the SVD formulas bit for bit, computed once."""

    @staticmethod
    def assert_match(cam):
        assert cam.center.tobytes() == center_oracle(cam.M).tobytes()
        assert cam.pinv.tobytes() == pinv_oracle(cam.M).tobytes()

    def test_criterion_01_pairs(self):
        # The first 200 pairs of the release gate's criterion 1, in its draw order.
        rng = np.random.default_rng(0)
        for _ in range(200):
            for cam in random_camera_pair(rng):
                self.assert_match(cam)
            rng.uniform(0.0, 63.0, (20, 2))

    def test_rig_ring_and_its_halves(self):
        rig = make_rig(10, 24.0, 2000.0, (64, 48), 80.0, seed=3)
        for cam in rig.cameras:
            self.assert_match(cam)
            self.assert_match(camera_at_resolution(cam, 32, 24))

    def test_repeated_access_returns_one_read_only_array(self):
        cam = random_camera(np.random.default_rng(12))
        for name in ("center", "pinv"):
            first = getattr(cam, name)
            assert getattr(cam, name) is first
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[0] = 0.0


class TestEpipolarLine:
    def test_rectified_pair_gives_horizontal_line(self):
        ref, src = rectified_pair(baseline=100.0, width=32, height=32)
        # Hand oracle: l = [e']x M' M+ (x,y,1) with e' = (-B,0,0) gives
        # (0, B, -B y), normalized (0, 1, -y).
        line = epipolar_line(ref, src, (4.0, 5.0))
        assert np.allclose(line.l, [0.0, 1.0, -5.0], atol=1e-12)

    def test_identical_cameras(self):
        cam = look_at_camera((500.0, 0.0, 100.0))
        with pytest.raises(CoincidentCenters):
            epipolar_line(cam, cam, (1.0, 1.0))

    def test_true_correspondences_lie_on_line(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            ref, src = random_camera_pair(rng)
            x = visible_point(rng, [ref, src])
            p = project(ref, x)
            p_src = project(src, x)
            line = epipolar_line(ref, src, p)
            assert abs(line.distance(p_src[0], p_src[1])) < 1e-9

    def test_invariant_to_projective_scale(self):
        rng = np.random.default_rng(22)
        ref, src = random_camera_pair(rng)
        scaled = CameraView(3.7 * ref.M, ref.width, ref.height)
        l1 = epipolar_line(ref, src, (10.0, 20.0))
        l2 = epipolar_line(scaled, src, (10.0, 20.0))
        assert np.allclose(l1.l, l2.l, atol=1e-12)

    def test_epipole_query_is_degenerate(self):
        # Cameras displaced along the shared optical axis: the source center
        # projects to ref pixel (0, 0), and querying that epipole pixel
        # collapses the line to the zero vector in exact arithmetic.
        ref = CameraView(np.hstack([np.eye(3), np.zeros((3, 1))]), 8, 8)
        src = CameraView(np.hstack([np.eye(3), -np.array([[0.0], [0.0], [5.0]])]), 8, 8)
        assert np.allclose(project(ref, src.center[:3] / src.center[3]), [0.0, 0.0])
        with pytest.raises(DegenerateLine):
            epipolar_line(ref, src, (0.0, 0.0))

    @pytest.mark.parametrize("p", [(10.0, 20.0, 1.0), [[10.0, 20.0]]])
    def test_pixel_must_be_an_xy_pair(self, p):
        ref, src = rectified_pair()
        with pytest.raises(ValueError, match="2-vector"):
            epipolar_line(ref, src, p)


class TestEpipoleCache:
    def test_alternating_sources_never_go_stale(self):
        # One reference camera, source cameras alternating between a valid
        # view and one that shares the reference center: the per-pair cache
        # must neither hide the CoincidentCenters failure nor leak the
        # failing view into the valid pair's lines.
        shared = (600.0, -200.0, 300.0)
        ref = look_at_camera(shared)
        src = look_at_camera((-500.0, 400.0, 200.0))
        twin = look_at_camera(shared, focal=120.0, target=(50.0, 0.0, 0.0))
        p = (20.0, 30.0)

        def fresh():
            return CameraView(ref.M, ref.width, ref.height), CameraView(src.M, src.width, src.height)

        want = epipolar_line(*fresh(), p).l
        want_f = fundamental_matrix(*fresh())
        for _ in range(2):
            assert epipolar_line(ref, src, p).l.tobytes() == want.tobytes()
            for _ in range(2):
                with pytest.raises(CoincidentCenters):
                    epipolar_line(ref, twin, p)
                with pytest.raises(CoincidentCenters):
                    fundamental_matrix(ref, twin)
            assert epipolar_line(ref, src, p).l.tobytes() == want.tobytes()
            assert fundamental_matrix(ref, src).tobytes() == want_f.tobytes()

    def test_alternating_sources_build_each_factor_once(self, monkeypatch):
        # Per-query sampling of a smaller map alternates a source camera and
        # its rescaled copy on one reference camera: each pair's epipole
        # factor is built once, whatever the order of the calls.
        calls = []

        def counting_skew(v):
            calls.append(1)
            return skew(v)

        monkeypatch.setattr("epifuse.geometry.skew", counting_skew)
        ref, src = random_camera_pair(np.random.default_rng(12))
        half = camera_at_resolution(src, 32, 32)
        for _ in range(5):
            for cam in (src, half):
                epipolar_line(ref, cam, (20.0, 30.0))
        assert len(calls) == 2


class TestFundamentalMatrix:
    def test_rectified_form(self):
        ref, src = rectified_pair(baseline=100.0)
        f = fundamental_matrix(ref, src)
        expected = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        f = f / np.linalg.norm(f)
        if f[2, 1] < 0:
            f = -f
        assert np.allclose(f, expected / np.linalg.norm(expected), atol=1e-12)

    def test_rank_two(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            ref, src = random_camera_pair(rng)
            s = np.linalg.svd(fundamental_matrix(ref, src), compute_uv=False)
            assert s[2] < 1e-9 * s[0]

    def test_agrees_with_epipolar_line(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            ref, src = random_camera_pair(rng)
            f = fundamental_matrix(ref, src)
            for _ in range(20):
                p = rng.uniform(0.0, 63.0, 2)
                line = epipolar_line(ref, src, p)
                via_f = normalize_line(f @ np.array([p[0], p[1], 1.0]))
                assert np.allclose(line.l, via_f.l, atol=1e-9)

    def test_epipolar_symmetry(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            ref, src = random_camera_pair(rng)
            x = visible_point(rng, [ref, src])
            p = project(ref, x)
            p_src = project(src, x)
            f = fundamental_matrix(ref, src)
            back_line = normalize_line(f.T @ np.array([p_src[0], p_src[1], 1.0]))
            assert abs(back_line.distance(p[0], p[1])) < 1e-9


class TestApplyAffineToCamera:
    def test_identity_transform(self):
        cam = look_at_camera((400.0, 300.0, 200.0))
        out = apply_affine_to_camera(cam, np.eye(2), np.zeros(2), cam.width, cam.height)
        assert np.allclose(out.M, cam.M)

    def test_rotation_about_image_center_commutes(self):
        rng = np.random.default_rng(41)
        cam = random_camera(rng)
        ang = np.deg2rad(30.0)
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        center = np.array([(cam.width - 1) / 2.0, (cam.height - 1) / 2.0])
        b = center - rot @ center
        out = apply_affine_to_camera(cam, rot, b, cam.width, cam.height)
        for _ in range(20):
            x = visible_point(rng, [cam])
            assert np.allclose(project(out, x), rot @ project(cam, x) + b, atol=1e-9)

    def test_composition(self):
        rng = np.random.default_rng(42)
        cam = random_camera(rng)
        a1, b1 = rng.standard_normal((2, 2)) + 2 * np.eye(2), rng.standard_normal(2)
        a2, b2 = rng.standard_normal((2, 2)) + 2 * np.eye(2), rng.standard_normal(2)
        stepwise = apply_affine_to_camera(
            apply_affine_to_camera(cam, a1, b1, 64, 64), a2, b2, 64, 64
        )
        direct = apply_affine_to_camera(cam, a2 @ a1, a2 @ b1 + b2, 64, 64)
        assert np.allclose(stepwise.M, direct.M, atol=1e-9)

    def test_singular_transform(self):
        cam = look_at_camera((400.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="transform is singular"):
            apply_affine_to_camera(cam, np.zeros((2, 2)), np.zeros(2), 64, 64)

    def test_center_preserved(self):
        rng = np.random.default_rng(43)
        cam = random_camera(rng)
        out = apply_affine_to_camera(cam, np.array([[2.0, 0.3], [-0.1, 1.5]]), np.array([4.0, -2.0]), 80, 60)
        assert np.allclose(out.center, cam.center, atol=1e-9)


class TestRescaleCamera:
    def test_identity_scale(self):
        cam = look_at_camera((300.0, 100.0, 50.0))
        out = rescale_camera(cam, 1.0, 1.0)
        assert np.allclose(out.M, cam.M)
        assert (out.width, out.height) == (cam.width, cam.height)

    def test_pixel_center_alignment(self):
        # Scale 2 sends old pixel x to (x + 0.5) / 2 - 0.5, so 0.5 -> 0.
        rng = np.random.default_rng(51)
        cam = random_camera(rng)
        half = rescale_camera(cam, 2.0, 2.0)
        for _ in range(20):
            x = visible_point(rng, [cam])
            p = project(cam, x)
            assert np.allclose(project(half, x), (p + 0.5) / 2.0 - 0.5, atol=1e-10)

    def test_composition(self):
        rng = np.random.default_rng(52)
        cam = random_camera(rng, width=64, height=64)
        twice = rescale_camera(rescale_camera(cam, 2.0, 2.0), 2.0, 2.0)
        direct = rescale_camera(cam, 4.0, 4.0)
        assert (twice.width, twice.height) == (direct.width, direct.height) == (16, 16)
        for _ in range(20):
            x = visible_point(rng, [cam])
            assert np.allclose(project(twice, x), project(direct, x), atol=1e-10)

    def test_dimension_rounding(self):
        cam = look_at_camera((400.0, 0.0, 0.0), width=10, height=10)
        out = rescale_camera(cam, 4.0, 4.0)
        assert (out.width, out.height) == (2, 2)

    def test_matrix_equals_explicit_update(self):
        # Criterion 8's draws and rescales: each equals the explicit 3x3 image
        # update T @ M bit for bit.
        def explicit(cam, s_x, s_y):
            t = np.array(
                [
                    [1.0 / s_x, 0.0, (1.0 - s_x) / (2.0 * s_x)],
                    [0.0, 1.0 / s_y, (1.0 - s_y) / (2.0 * s_y)],
                    [0.0, 0.0, 1.0],
                ]
            )
            return (t @ cam.M).tobytes()

        rng = np.random.default_rng(8)
        for _ in range(1000):
            cam = random_camera(rng)
            rng.normal(0.0, 60.0, 3)
            while True:
                a = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
                if abs(float(np.linalg.det(a))) >= 0.2:
                    break
            rng.uniform(-20.0, 20.0, 2)
            s1 = rng.uniform(1.0, 2.0, 2)
            s2 = rng.uniform(1.0, 2.0, 2)
            first = rescale_camera(cam, *s1)
            assert first.M.tobytes() == explicit(cam, *s1)
            assert rescale_camera(first, *s2).M.tobytes() == explicit(first, *s2)
            assert rescale_camera(cam, *(s1 * s2)).M.tobytes() == explicit(cam, *(s1 * s2))

    def test_center_preserved(self):
        rng = np.random.default_rng(53)
        cam = random_camera(rng)
        out = rescale_camera(cam, 2.0, 4.0)
        assert np.allclose(out.center, cam.center, atol=1e-9)


class TestProject:
    """The projection oracle in tests/helpers.py, which the geometry tests read."""

    def test_canonical(self):
        cam = CameraView(np.hstack([np.eye(3), np.zeros((3, 1))]), 4, 4)
        assert np.allclose(project(cam, [0.0, 0.0, 5.0]), [0.0, 0.0])
        assert np.allclose(project(cam, [1.0, 2.0, 2.0]), [0.5, 1.0])

    def test_homogeneous_consistency(self):
        rng = np.random.default_rng(61)
        cam = random_camera(rng)
        for _ in range(20):
            x = visible_point(rng, [cam])
            p = project(cam, x)
            q = cam.M @ np.append(x, 1.0)
            assert np.allclose(q[:2] / q[2], p)

    def test_principal_plane_point(self):
        cam = CameraView(np.hstack([np.eye(3), np.zeros((3, 1))]), 4, 4)
        with pytest.raises(ValueError, match="principal plane"):
            project(cam, [1.0, 1.0, 0.0])


class TestCameraIO:
    def test_rig_round_trip(self, tmp_path):
        rng = np.random.default_rng(72)
        cams = [random_camera(rng) for _ in range(4)]
        path = tmp_path / "rig.json"
        path.write_text(rig_to_json(cams))
        loaded = load_rig_file(path)
        assert len(loaded) == 4
        for a, b in zip(loaded, cams):
            # repr-based float serialization is exact.
            assert np.array_equal(a.M, b.M)
            assert (a.width, a.height) == (b.width, b.height)

    def test_missing_key_diagnostic(self):
        with pytest.raises(ConfigError, match="width"):
            camera_from_dict({"M": [0.0] * 12, "height": 4})

    def test_wrong_matrix_length(self):
        with pytest.raises(ConfigError, match="M"):
            camera_from_dict({"M": [0.0] * 11, "width": 4, "height": 4})

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_rig_file(path)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 100.0), st.integers(0, 2**32 - 1))
def test_line_normalization_scale_invariant(scale, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(3)
    if np.hypot(raw[0], raw[1]) < 1e-6:
        raw[0] = 1.0
    a = normalize_line(raw)
    b = normalize_line(scale * raw)
    assert np.allclose(a.l, b.l, atol=1e-12)
    assert np.isclose(a.a**2 + a.b**2, 1.0, atol=1e-12)
