import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epifuse.errors import ShapeMismatch
from epifuse.fusion import (
    _BLOCK,
    FusionParams,
    _attend_at,
    _blocks,
    _ForwardState,
    similarity_weights,
    transformer_backward,
    transformer_forward,
)
from epifuse.geometry import CameraView
from epifuse.sampler import (
    _SEGMENT_CHUNK,
    FeatureMap,
    _segments,
    bilinear_plan,
    bilinear_scatter,
    epipolar_samples,
    plan_epipolar_sampling,
)
from helpers import (
    add_at_scatter,
    aggregate,
    attention_weights,
    einsum_attend,
    einsum_backward,
    fuse_bottleneck,
    fuse_identity,
    look_at_camera,
    plan_pixels,
    plan_reads,
    rectified_pair,
    unblocked_forward,
)


def make_params(variant, mode, channels, seed=0):
    params = FusionParams.initialize(variant, mode, channels, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    w_z = rng.standard_normal(params.w_z.shape) * 0.3
    return FusionParams(
        variant=variant,
        weight_mode=mode,
        w_z=w_z,
        theta=params.theta,
        phi=params.phi,
        g=params.g,
    )


class TestSimilarityWeights:
    def test_single_sample(self):
        q = np.array([1.0, -2.0])
        s = np.array([[3.0, 4.0]])
        assert np.array_equal(similarity_weights(q, s, "softmax"), [1.0])
        assert np.array_equal(similarity_weights(q, s, "max"), [1.0])

    def test_identical_samples_uniform(self):
        q = np.array([0.5, 1.5, -0.5])
        s = np.tile([1.0, 2.0, 3.0], (5, 1))
        assert np.allclose(similarity_weights(q, s, "softmax"), 0.2, atol=1e-15)
        assert np.array_equal(similarity_weights(q, s, "max"), [1, 0, 0, 0, 0])

    def test_softmax_oracle(self):
        # Oracle: the definition, without the max-subtraction trick.
        rng = np.random.default_rng(4)
        q = rng.standard_normal(6)
        s = rng.standard_normal((9, 6))
        z = s @ q
        want = np.exp(z) / np.sum(np.exp(z))
        assert np.allclose(similarity_weights(q, s, "softmax"), want, atol=1e-14)

    def test_constant_logit_shift_invariance(self):
        # Adding c * q / |q|^2 to every sample adds the constant c to every
        # logit, which softmax must ignore.
        rng = np.random.default_rng(6)
        q = rng.standard_normal(5)
        s = rng.standard_normal((8, 5))
        shift = 7.3 * q / float(q @ q)
        base = similarity_weights(q, s, "softmax")
        shifted = similarity_weights(q, s + shift, "softmax")
        assert np.allclose(base, shifted, atol=1e-12)

    def test_max_one_hot_at_argmax(self):
        q = np.array([1.0, 0.0])
        s = np.array([[0.5, 9.0], [2.0, 1.0], [1.5, -3.0]])
        assert np.array_equal(similarity_weights(q, s, "max"), [0, 1, 0])

    def test_max_tie_takes_lowest_index(self):
        q = np.array([1.0, 0.0])
        s = np.array([[2.0, 0.0], [2.0, 5.0], [1.0, 1.0]])
        assert np.array_equal(similarity_weights(q, s, "max"), [1, 0, 0])

    def test_max_is_sharp_softmax_limit(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal(4)
        s = rng.standard_normal((6, 4))
        hard = similarity_weights(q, s, "max")
        soft = similarity_weights(q, 1e4 * s, "softmax")
        assert np.allclose(hard, soft, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    def test_valid_distribution(self, seed, k):
        rng = np.random.default_rng(seed)
        w = similarity_weights(rng.standard_normal(3), rng.standard_normal((k, 3)))
        assert np.all(w >= 0.0)
        assert abs(float(np.sum(w)) - 1.0) < 1e-12

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatch):
            similarity_weights(np.zeros(3), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="mode"):
            similarity_weights(np.zeros(2), np.zeros((3, 2)), "median")


class TestAggregate:
    def test_one_hot_selects_row(self):
        s = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(aggregate(np.array([0.0, 0.0, 1.0, 0.0]), s), s[2])

    def test_uniform_is_mean(self):
        rng = np.random.default_rng(8)
        s = rng.standard_normal((5, 3))
        assert np.allclose(aggregate(np.full(5, 0.2), s), s.mean(axis=0), atol=1e-15)

    def test_oracle(self):
        rng = np.random.default_rng(9)
        s = rng.standard_normal((6, 4))
        w = rng.uniform(0.1, 1.0, 6)
        w /= w.sum()
        want = sum(w[i] * s[i] for i in range(6))
        assert np.allclose(aggregate(w, s), want, atol=1e-14)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        s = rng.standard_normal((7, 3))
        w = rng.uniform(0.1, 1.0, 7)
        w /= w.sum()
        perm = rng.permutation(7)
        assert np.allclose(aggregate(w, s), aggregate(w[perm], s[perm]), atol=1e-14)


class TestFuseIdentity:
    def test_zero_projection_is_passthrough(self):
        params = FusionParams.initialize("identity", "softmax", 3)
        ref = np.array([1.0, 2.0, 3.0])
        out = fuse_identity(ref, np.array([9.0, 9.0, 9.0]), params)
        assert np.array_equal(out, ref)

    def test_hand_oracle(self):
        params = FusionParams(
            variant="identity",
            weight_mode="softmax",
            w_z=np.array([[1.0, 2.0], [3.0, 4.0]]),
        )
        out = fuse_identity(np.array([10.0, 20.0]), np.array([1.0, 1.0]), params)
        assert np.array_equal(out, [13.0, 27.0])


class TestFuseBottleneck:
    def test_zero_projection_is_passthrough(self):
        params = FusionParams.initialize("bottleneck", "softmax", 4, seed=1)
        ref = np.array([1.0, -1.0, 2.0, 0.5])
        out = fuse_bottleneck(ref, np.random.default_rng(2).standard_normal((3, 4)), params)
        assert np.array_equal(out, ref)

    def test_loop_oracle(self):
        # Oracle: the same computation written as explicit per-sample loops.
        params = make_params("bottleneck", "softmax", 4, seed=3)
        rng = np.random.default_rng(4)
        ref = rng.standard_normal(4)
        samples = rng.standard_normal((3, 4))
        u = params.theta.T @ ref
        logits = [float(u @ (params.phi.T @ samples[i])) for i in range(3)]
        e = np.exp(np.array(logits) - max(logits))
        w = e / e.sum()
        m = sum(w[i] * (params.g.T @ samples[i]) for i in range(3))
        want = ref + params.w_z.T @ m
        assert np.allclose(fuse_bottleneck(ref, samples, params), want, atol=1e-13)

    def test_max_mode(self):
        params = make_params("bottleneck", "max", 4, seed=5)
        rng = np.random.default_rng(6)
        ref = rng.standard_normal(4)
        samples = rng.standard_normal((5, 4))
        u = params.theta.T @ ref
        logits = samples @ params.phi @ u
        best = int(np.argmax(logits))
        want = ref + params.w_z.T @ (params.g.T @ samples[best])
        assert np.allclose(fuse_bottleneck(ref, samples, params), want, atol=1e-13)


def misaligned_rectified_pair(width=8, height=8):
    """Rectified cameras whose row offsets differ by 1000 pixels, so every
    epipolar line from the reference lands far outside the source image."""
    k_ref = np.array([[50.0, 0.0, 3.5], [0.0, 50.0, 1003.5], [0.0, 0.0, 1.0]])
    k_src = np.array([[50.0, 0.0, 3.5], [0.0, 50.0, 3.5], [0.0, 0.0, 1.0]])
    m_ref = k_ref @ np.hstack([np.eye(3), np.zeros((3, 1))])
    m_src = k_src @ np.hstack([np.eye(3), -np.array([[100.0], [0.0], [0.0]])])
    return CameraView(m_ref, width, height), CameraView(m_src, width, height)


class TestTransformerForward:
    def rect_setup(self, channels=6, seed=0, hw=8):
        ref, src = rectified_pair(baseline=100.0, width=hw, height=hw)
        rng = np.random.default_rng(seed)
        f_ref = FeatureMap(rng.standard_normal((hw, hw, channels)))
        f_src = FeatureMap(rng.standard_normal((hw, hw, channels)))
        return ref, src, f_ref, f_src

    @pytest.mark.parametrize("variant", ["identity", "bottleneck"])
    @pytest.mark.parametrize("mode", ["softmax", "max"])
    def test_shape_preserved(self, variant, mode):
        ref, src, f_ref, f_src = self.rect_setup()
        params = make_params(variant, mode, 6)
        out = transformer_forward(f_ref, f_src, ref, src, params, k=8)
        assert out.fused.data.shape == f_ref.data.shape

    @pytest.mark.parametrize("variant", ["identity", "bottleneck"])
    def test_zero_projection_bit_exact(self, variant):
        ref, src, f_ref, f_src = self.rect_setup(seed=1)
        params = FusionParams.initialize(variant, "softmax", 6, seed=2)
        out = transformer_forward(f_ref, f_src, ref, src, params, k=8)
        assert np.array_equal(out.fused.data, f_ref.data)

    def test_skipped_pixels_pass_through(self):
        ref, src = misaligned_rectified_pair()
        rng = np.random.default_rng(3)
        f_ref = FeatureMap(rng.standard_normal((8, 8, 4)))
        f_src = FeatureMap(rng.standard_normal((8, 8, 4)))
        params = make_params("identity", "softmax", 4, seed=4)
        out = transformer_forward(f_ref, f_src, ref, src, params, k=8, record_grad=True)
        assert np.array_equal(out.fused.data, f_ref.data)
        assert not out.state.plan.valid.any()

    def test_recorded_weights_match_direct_computation(self):
        ref, src, f_ref, f_src = self.rect_setup(seed=5)
        params = make_params("identity", "softmax", 6, seed=6)
        out = transformer_forward(f_ref, f_src, ref, src, params, k=8, record_grad=True)
        plan = out.state.plan
        assert plan.valid.any()
        _, state = unblocked_forward(f_ref, f_src, params, plan)
        ys, xs = np.nonzero(plan.valid.reshape(8, 8))
        for i, (y, x) in enumerate(list(zip(ys, xs))[:12]):
            sample_set = epipolar_samples(f_src, ref, src, (float(x), float(y)), k=8)
            assert sample_set is not None
            assert np.allclose(state["samples"][i], sample_set.features, atol=1e-9)
            w = similarity_weights(f_ref.data[y, x], sample_set.features)
            assert np.allclose(state["weights"][i], w, atol=1e-12)

    def test_fused_pixel_matches_single_pixel_path(self):
        ref, src, f_ref, f_src = self.rect_setup(seed=7)
        params = make_params("bottleneck", "softmax", 6, seed=8)
        out = transformer_forward(f_ref, f_src, ref, src, params, k=8, record_grad=True)
        ys, xs = np.nonzero(out.state.plan.valid.reshape(8, 8))
        y, x = int(ys[0]), int(xs[0])
        sample_set = epipolar_samples(f_src, ref, src, (float(x), float(y)), k=8)
        want = fuse_bottleneck(f_ref.data[y, x], sample_set.features, params)
        assert np.allclose(out.fused.data[y, x], want, atol=1e-12)

    def test_identity_fused_pixel_matches_single_pixel_path(self):
        ref, src, f_ref, f_src = self.rect_setup(seed=11)
        params = make_params("identity", "softmax", 6, seed=12)
        out = transformer_forward(f_ref, f_src, ref, src, params, k=8, record_grad=True)
        ys, xs = np.nonzero(out.state.plan.valid.reshape(8, 8))
        y, x = int(ys[0]), int(xs[0])
        sample_set = epipolar_samples(f_src, ref, src, (float(x), float(y)), k=8)
        agg = aggregate(attention_weights(f_ref.data[y, x], sample_set.features, params),
                        sample_set.features)
        want = fuse_identity(f_ref.data[y, x], agg, params)
        assert np.allclose(out.fused.data[y, x], want, atol=1e-12)

    def test_plan_reuse_identical(self):
        ref, src, f_ref, f_src = self.rect_setup(seed=9)
        params = make_params("identity", "softmax", 6, seed=10)
        plan = plan_epipolar_sampling(ref, src, (8, 8), (8, 8), k=8)
        direct = transformer_forward(f_ref, f_src, ref, src, params, k=8)
        planned = transformer_forward(f_ref, f_src, ref, src, params, k=8, plan=plan)
        assert np.array_equal(direct.fused.data, planned.fused.data)

    def test_map_channel_mismatch(self):
        ref, src, f_ref, _ = self.rect_setup(channels=6)
        f_src = FeatureMap(np.zeros((8, 8, 4)))
        params = make_params("identity", "softmax", 6)
        with pytest.raises(ShapeMismatch, match="reference has 6 channels, source 4"):
            transformer_forward(f_ref, f_src, ref, src, params, k=8)

    def test_params_width_mismatch(self):
        ref, src, f_ref, f_src = self.rect_setup(channels=6)
        params = make_params("identity", "softmax", 4)
        with pytest.raises(ShapeMismatch):
            transformer_forward(f_ref, f_src, ref, src, params, k=8)


def general_pair(size):
    """Two cameras about 30 degrees apart whose lines cross most of a size x size map."""
    focal = 1.6 * size
    ref = look_at_camera((1000.0, 0.0, 300.0), focal, size, size)
    src = look_at_camera((800.0, 500.0, 350.0), focal, size, size)
    return ref, src


def first_valid(plan, n):
    """A fresh plan of the first n valid pixels of plan; the rest are skipped."""
    return dataclasses.replace(
        plan, valid=plan.valid & (np.cumsum(plan.valid) <= n), ends=plan.ends[:n]
    )


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


VALID_COUNTS = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 37]
PAIR_K = 7
PAIR_C = 6


@pytest.fixture(scope="module")
def pair():
    """general_pair(32) with random maps and its plan; some pixels are skipped."""
    ref, src = general_pair(32)
    rng = np.random.default_rng(20)
    f_ref = FeatureMap(rng.standard_normal((32, 32, PAIR_C)))
    f_src = FeatureMap(rng.standard_normal((32, 32, PAIR_C)))
    plan = plan_epipolar_sampling(ref, src, (32, 32), (32, 32), PAIR_K)
    assert VALID_COUNTS[-1] <= np.count_nonzero(plan.valid) < plan.valid.size
    return ref, src, f_ref, f_src, plan


@pytest.fixture(scope="module")
def big_pair():
    """general_pair(160) with random C=16 maps and its K=64 plan."""
    ref, src = general_pair(160)
    rng = np.random.default_rng(22)
    f_ref = FeatureMap(rng.standard_normal((160, 160, 16)))
    f_src = FeatureMap(rng.standard_normal((160, 160, 16)))
    plan = plan_epipolar_sampling(ref, src, (160, 160), (160, 160), 64)
    assert np.count_nonzero(plan.valid) > 0.9 * 160 * 160
    return ref, src, f_ref, f_src, plan


class TestBlockedForward:
    """The blocked forward pass equals the unblocked oracle bit for bit."""

    K = PAIR_K
    C = PAIR_C

    @pytest.mark.parametrize("n_valid", VALID_COUNTS)
    @pytest.mark.parametrize("variant", ["identity", "bottleneck"])
    @pytest.mark.parametrize("mode", ["softmax", "max"])
    def test_matches_unblocked_oracle(self, pair, n_valid, variant, mode):
        ref, src, f_ref, f_src, full_plan = pair
        plan = first_valid(full_plan, n_valid)
        params = make_params(variant, mode, self.C, seed=21)
        out = transformer_forward(
            f_ref, f_src, ref, src, params, self.K,
            plan=plan, record_grad=True,
        )
        want_fused, _ = unblocked_forward(f_ref, f_src, params, plan)
        assert same_bits(out.fused.data, want_fused)
        unrecorded = transformer_forward(f_ref, f_src, ref, src, params, self.K, plan=plan)
        assert same_bits(unrecorded.fused.data, want_fused)

        # The state is what rebuilds any block, held by reference: no copies.
        kept = {field.name: getattr(out.state, field.name)
                for field in dataclasses.fields(_ForwardState)}
        assert kept.keys() == {"plan", "params", "f_ref", "f_src"}
        want = {"plan": plan, "params": params, "f_ref": f_ref, "f_src": f_src}
        for name, value in want.items():
            assert kept[name] is value, name

    @pytest.mark.parametrize("variant", ["identity", "bottleneck"])
    @pytest.mark.parametrize("mode", ["softmax", "max"])
    def test_recorded_equals_unrecorded_at_train_size(self, big_pair, variant, mode):
        # Recording must not change a bit of the fused map at the size the
        # benchmark trains at. The unblocked oracle's gathers would take
        # about 1 GB here.
        ref, src, f_ref, f_src, plan = big_pair
        params = make_params(variant, mode, 16, seed=23)
        fused = [
            transformer_forward(f_ref, f_src, ref, src, params, 64, plan=plan,
                                record_grad=record).fused.data
            for record in (False, True)
        ]
        assert same_bits(*fused)

    @pytest.mark.parametrize("n_valid", VALID_COUNTS)
    def test_scatter_matches_add_at_oracle(self, pair, n_valid):
        *_, full_plan = pair
        corner, blend = plan_reads(first_valid(full_plan, n_valid))
        grad = np.random.default_rng(n_valid).standard_normal((self.C, corner.size))
        want = add_at_scatter(grad, 32 * 32, 32, corner, blend)
        got = np.zeros((self.C, 32 * 32))
        bilinear_scatter(grad, got, 32, corner, blend)
        assert same_bits(got.T.copy(), want)
        # Adding into a map already holding the sums doubles it exactly.
        bilinear_scatter(grad, got, 32, corner, blend)
        assert same_bits(got.T.copy(), want + want)

    def test_scatter_with_no_reads_leaves_out_untouched(self):
        out = np.random.default_rng(3).standard_normal((self.C, 32 * 32))
        out[:, ::3] = -0.0
        before = out.copy()
        bilinear_scatter(np.empty((self.C, 0)), out, 32, np.empty(0, dtype=np.intp),
                         np.empty((4, 0)))
        assert same_bits(out, before)

    @pytest.mark.parametrize("xy", [(0.0, 0.0), (31.0, 23.0)], ids=["first", "last"])
    def test_scatter_at_the_map_edges(self, xy):
        # 50 reads of only the first or only the last pixel of a 24x32 map:
        # the touched range starts at index 0 or ends at H*W. Onto a map
        # holding values, the scatter adds what a full-row add_at adds, bit
        # for bit.
        corner, blend = bilinear_plan(24, 32, np.tile(xy, (50, 1)))
        assert np.count_nonzero(blend) == 50
        rng = np.random.default_rng(4)
        grad = rng.standard_normal((self.C, 50))
        out = rng.standard_normal((self.C, 24 * 32))
        want = out + add_at_scatter(grad, 24 * 32, 32, corner, blend).T
        bilinear_scatter(grad, out, 32, corner, blend)
        assert same_bits(out, want)

    def test_scatter_leaves_negative_zero_outside_its_range(self):
        # Entries outside the touched range are left as they are, -0.0
        # included; inside it untouched ones gain +0.0, as a full-row add does.
        corner, blend = bilinear_plan(32, 32, np.array([[4.5, 10.5], [20.25, 11.75]]))
        out = np.full((self.C, 32 * 32), -0.0)
        bilinear_scatter(np.ones((self.C, 2)), out, 32, corner, blend)
        lo, hi = corner.min(), corner.max() + 32 + 2
        assert np.all(np.signbit(out[:, :lo])) and np.all(np.signbit(out[:, hi:]))
        assert not np.any(np.signbit(out[:, lo:hi]))
        assert same_bits(out[:, lo:hi].T.copy(), add_at_scatter(
            np.ones((self.C, 2)), 32 * 32, 32, corner, blend)[lo:hi])

    def test_forward_memory_is_plan_plus_one_block(self, big_pair):
        # 160x160, K=64, C=16: all samples at once would take 200 MB. The
        # queries and outputs (3 MB each) and one block must fit well inside
        # 64 MB.
        ref, src, f_ref, f_src, plan = big_pair
        params = make_params("identity", "softmax", 16, seed=23)
        tracemalloc.start()
        try:
            transformer_forward(f_ref, f_src, ref, src, params, 64, plan=plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    @pytest.mark.parametrize("variant", ["identity", "bottleneck"])
    def test_recorded_forward_memory_is_plan_plus_one_block(self, big_pair, variant):
        # Recording keeps no samples or intermediates (442 MB for the
        # bottleneck here when it did), so the same bound holds.
        ref, src, f_ref, f_src, plan = big_pair
        params = make_params(variant, "softmax", 16, seed=23)
        tracemalloc.start()
        try:
            out = transformer_forward(f_ref, f_src, ref, src, params, 64,
                                      plan=plan, record_grad=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.state is not None
        assert peak < 64e6

    @pytest.mark.parametrize("variant, bound", [("identity", 34e6), ("bottleneck", 32e6)],
                             ids=["identity", "bottleneck"])
    def test_backward_memory(self, big_pair, variant, bound):
        # The backward holds seven per-pixel arrays of about 3 MB (C=16, or
        # 1.6 MB at C/2), the (C, H*W) source gradient, and one block: a 4 MB
        # gather and its 1 MB (C, nb, K) ds. The bounds were set just above
        # the peaks of a scatter that added whole H*W rows (32.3 and 30.6 MB);
        # the ranged scatter peaks at 30.0 and 27.4 MB. Any (n, K, C) array
        # (210 MB) does not fit.
        ref, src, f_ref, f_src, plan = big_pair
        params = make_params(variant, "softmax", 16, seed=23)
        state = transformer_forward(f_ref, f_src, ref, src, params, 64,
                                    plan=plan, record_grad=True).state
        upstream = np.random.default_rng(24).standard_normal((160, 160, 16))
        tracemalloc.start()
        try:
            transformer_backward(state, upstream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_plan_setup_memory(self):
        # Set-up keeps valid and 4 segment-end floats per valid pixel. While
        # building them it holds the pixel coordinates (2 floats a pixel),
        # the ends twice as its chunks are joined (8), and one chunk's
        # homogeneous pixels, lines and clipping temporaries (the chunk is
        # 4096 pixels; the bound allows 8 floats for each): 10.4 floats a
        # pixel here, where the unblocked build held 29.5. A chunk of 6400
        # pixels read 13.0 and failed. One read-sized array would be 64.
        ref, src = general_pair(160)
        tracemalloc.start()
        try:
            plan = plan_epipolar_sampling(ref, src, (160, 160), (160, 160), 64)
            setup = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
        n_valid = np.count_nonzero(plan.valid)
        assert sum(a.nbytes for a in arrays) == 4 * n_valid * 8 + plan.valid.nbytes
        assert setup < 10.5 * plan.valid.size * 8 + 32 * 1024 * 8

    @pytest.mark.parametrize("variant", ["identity", "bottleneck"])
    def test_recorded_pass_holds_one_block_of_reads(self, big_pair, variant):
        # A fresh plan, recorded forward plus backward: 30.0 (identity) and
        # 27.4 MB (bottleneck) peaks. The plan keeps no reads, and each block
        # builds its own 8192 (its locations, reads and temporaries peak at
        # 11 values a read, 0.7 MB). A plan holding all its reads, 5 values a
        # read, held 63.3 MB of them here and peaked at 92.5 and 89.9 MB.
        ref, src, f_ref, f_src, _ = big_pair
        plan = plan_epipolar_sampling(ref, src, (160, 160), (160, 160), 64)
        params = make_params(variant, "softmax", 16, seed=23)
        upstream = np.random.default_rng(24).standard_normal((160, 160, 16))
        tracemalloc.start()
        try:
            state = transformer_forward(f_ref, f_src, ref, src, params, 64,
                                        plan=plan, record_grad=True).state
            transformer_backward(state, upstream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


    def test_segments_do_not_depend_on_the_block(self):
        # A 100x100 plan is built in three chunks of pixels, the last one
        # ragged (4096, 4096, 1808); a row alone is one.
        assert 2 * _SEGMENT_CHUNK < 100 * 100 < 3 * _SEGMENT_CHUNK
        ref, src = general_pair(100)
        plan = plan_epipolar_sampling(ref, src, (100, 100), (100, 100), 8)
        xs = np.arange(100, dtype=np.float64)
        rows = [_segments(ref, src, (100, 100), (100, 100), xs, np.full(100, float(y)))
                for y in range(100)]
        assert same_bits(plan.valid, np.concatenate([valid for valid, _ in rows]))
        assert same_bits(plan.ends, np.concatenate([ends for _, ends in rows]))


ORACLE_KS = [1, PAIR_K, 64]


@pytest.fixture(scope="module")
def plans(pair):
    """Plans of the pair fixture at every K of ORACLE_KS."""
    ref, src, *_ = pair
    return {k: plan_epipolar_sampling(ref, src, (32, 32), (32, 32), k) for k in ORACLE_KS}


def rel_close(got, want, rel=1e-12):
    """Equal shapes, and every entry within rel of the largest magnitude in want."""
    got, want = np.asarray(got), np.asarray(want)
    scale = float(np.max(np.abs(want), initial=0.0))
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= rel * scale))


class TestEinsumOracle:
    """Forward and backward against the einsum oracles: the identity variant
    bit for bit, the bottleneck's BLAS GEMMs within 1e-12 relative."""

    @pytest.mark.parametrize("k", ORACLE_KS)
    @pytest.mark.parametrize("n_valid", VALID_COUNTS)
    @pytest.mark.parametrize("variant", ["identity", "bottleneck"])
    @pytest.mark.parametrize("mode", ["softmax", "max"])
    def test_forward_and_backward(self, pair, plans, k, n_valid, variant, mode):
        ref, src, f_ref, f_src, _ = pair
        plan = first_valid(plans[k], n_valid)
        params = make_params(variant, mode, PAIR_C, seed=24)
        out = transformer_forward(f_ref, f_src, ref, src, params, k, plan=plan, record_grad=True)
        upstream = np.random.default_rng(25).standard_normal((32, 32, PAIR_C))
        grads = transformer_backward(out.state, upstream)

        want_fused, want_state = unblocked_forward(f_ref, f_src, params, plan, einsum_attend)
        want_grads = einsum_backward(plan, params, want_state, upstream)
        _, got_state = unblocked_forward(f_ref, f_src, params, plan)
        same = same_bits if variant == "identity" else rel_close
        assert same(out.fused.data, want_fused)
        assert got_state.keys() == want_state.keys()
        for name, value in want_state.items():
            assert same(got_state[name], value), name
        for name, value in want_grads.items():
            assert same(getattr(grads, name), value), name


# Forward and backward of a 64x64, K=64, C=16 bottleneck pair, large enough
# for OpenBLAS to split its GEMMs across threads; prints a digest of every output.
THREAD_PROBE = """
import hashlib
import numpy as np
from epifuse.fusion import FusionParams, transformer_backward, transformer_forward
from epifuse.sampler import FeatureMap
from helpers import look_at_camera

ref = look_at_camera((1000.0, 0.0, 300.0), 102.4, 64, 64)
src = look_at_camera((800.0, 500.0, 350.0), 102.4, 64, 64)
rng = np.random.default_rng(26)
f_ref, f_src = (FeatureMap(rng.standard_normal((64, 64, 16))) for _ in range(2))
init = FusionParams.initialize("bottleneck", "softmax", 16, seed=27)
params = FusionParams("bottleneck", "softmax", rng.standard_normal((8, 16)),
                      theta=init.theta, phi=init.phi, g=init.g)
out = transformer_forward(f_ref, f_src, ref, src, params, 64, record_grad=True)
grads = transformer_backward(out.state, rng.standard_normal((64, 64, 16)))
digest = hashlib.blake2b(out.fused.data.tobytes())
for name in ("f_ref", "f_src", "w_z", "theta", "phi", "g"):
    digest.update(getattr(grads, name).tobytes())
print(digest.hexdigest())
"""


def test_bottleneck_bits_do_not_depend_on_blas_threads():
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        digests.append(proc.stdout)
    assert digests[0] == digests[1] and len(digests[0]) > 100


# (x, y) reference point lists of the pair fixture, each with the number of
# its plan's first valid pixels the dense pass attends (None: all of them).
# (6, 1), (8, 0) and (10, 0) are valid and (0, 0) is skipped; (8, 0) is the
# first valid pixel. Without the one-row rule of sampler._segments and
# _attend, (6, 1) alone would get other locations, and (10, 0) next to a
# skipped pixel other bottleneck softmax weights. "half-pixel" rounds its
# ties to even, as np.rint does, and reaches the far corner (31, 31).
PIXEL_LISTS = {
    "none": ([], None),
    "lone": ([(6, 1)], None),
    "lone-skipped": ([(0, 0)], None),
    "two": ([(6, 1), (10, 0)], None),
    "repeated": ([(6, 1), (20, 17), (6, 1), (6, 1), (3, 25)], None),
    "valid-and-skipped": ([(10, 0), (0, 0)], None),
    "skipped-mixed-in": ([(20, 17), (0, 0), (6, 1), (3, 25)], None),
    "one-valid-plan": ([(8, 0)], 1),
    "half-pixel": ([(6.5, 0.5), (7.5, 1.5), (0.5, 0.4), (19.6, 17.5), (31.0, 30.5),
                    (31.0, 31.0), (30.5, 31.0), (3.49, 24.51)], None),
}


def dense_plan_pixels(ref, src, hw, k):
    """plan_pixels of every pixel of an hw map, row-major: (valid, locations, corner, blend)."""
    xs = np.tile(np.arange(hw[1], dtype=np.float64), hw[0])
    ys = np.repeat(np.arange(hw[0], dtype=np.float64), hw[1])
    return plan_pixels(ref, src, hw, hw, xs, ys, k)


class TestAttendAt:
    """Attention at a list of points equals the dense pass at their pixels bit for bit."""

    @pytest.mark.parametrize("case", PIXEL_LISTS.values(), ids=PIXEL_LISTS.keys())
    @pytest.mark.parametrize("variant", ["identity", "bottleneck"])
    @pytest.mark.parametrize("mode", ["softmax", "max"])
    def test_matches_dense_pass(self, pair, case, variant, mode):
        ref, src, f_ref, f_src, plan = pair
        points, n_valid = case
        if n_valid is not None:
            plan = first_valid(plan, n_valid)
        params = make_params(variant, mode, PAIR_C, seed=21)
        fused, state = unblocked_forward(f_ref, f_src, params, plan)
        assert same_bits(fused, transformer_forward(
            f_ref, f_src, ref, src, params, PAIR_K, plan=plan
        ).fused.data)
        valid, locations, weights, dots = _attend_at(
            f_ref, f_src, ref, src, params, PAIR_K, points
        )
        pixels = np.rint(np.array(points, dtype=np.float64).reshape(-1, 2)).astype(np.intp)
        flat = pixels[:, 1] * 32 + pixels[:, 0]
        assert same_bits(valid, plan.valid[flat])
        rows = (np.cumsum(plan.valid) - 1)[flat[valid]]
        assert same_bits(locations, dense_plan_pixels(ref, src, (32, 32), PAIR_K)[1][rows])
        want_dots = (state["samples"][rows] @ state["query"][rows][:, :, None])[:, :, 0]
        assert same_bits(dots, want_dots)
        assert same_bits(weights, state["weights"][rows])


def zero_residual(params):
    return dataclasses.replace(params, w_z=np.zeros_like(params.w_z))


def signed_zero_maps(f_ref, f_src):
    """Both maps made non-positive: every even pixel all -0.0, every odd one all negative."""
    out = []
    for fmap in (f_ref, f_src):
        data = -np.abs(fmap.data)
        data.reshape(-1, fmap.channels)[::2] = -0.0
        out.append(FeatureMap(data))
    return out


def fail_if_called(*args, **kwargs):
    raise AssertionError("a zero-residual unrecorded pass must not gather or attend")


class TestZeroResidual:
    """Unrecorded at a zero w_z, the forward reads nothing and keeps the blocks' bits."""

    @pytest.mark.parametrize("maps", ["random", "signed-zero"])
    @pytest.mark.parametrize("n_valid", [0, 1, _BLOCK + 1, None], ids=str)  # None: plan=None
    @pytest.mark.parametrize("variant", ["identity", "bottleneck"])
    @pytest.mark.parametrize("mode", ["softmax", "max"])
    def test_matches_unblocked_oracle(self, pair, monkeypatch, maps, n_valid, variant, mode):
        ref, src, f_ref, f_src, full_plan = pair
        if maps == "signed-zero":
            f_ref, f_src = signed_zero_maps(f_ref, f_src)
        params = zero_residual(make_params(variant, mode, PAIR_C, seed=21))
        plan = full_plan if n_valid is None else first_valid(full_plan, n_valid)
        want, _ = unblocked_forward(f_ref, f_src, params, plan)
        if maps == "signed-zero" and n_valid != 0:
            assert not same_bits(want, f_ref.data)  # some -0.0 became +0.0

        supplied = None if n_valid is None else first_valid(full_plan, n_valid)
        for name in ("fusion._blocks", "fusion._attend", "fusion.segment_reads"):
            monkeypatch.setattr(f"epifuse.{name}", fail_if_called)
        out = transformer_forward(f_ref, f_src, ref, src, params, PAIR_K, plan=supplied)
        assert same_bits(out.fused.data, want)
        assert out.state is None

    @pytest.mark.parametrize("variant", ["identity", "bottleneck"])
    @pytest.mark.parametrize("mode", ["softmax", "max"])
    def test_recorded_pass_still_attends(self, pair, variant, mode):
        # The w_z gradient is not zero at a zero w_z, so recording keeps the blocks.
        ref, src, f_ref, f_src, full_plan = pair
        plan = first_valid(full_plan, _BLOCK + 1)
        params = zero_residual(make_params(variant, mode, PAIR_C, seed=21))
        out = transformer_forward(f_ref, f_src, ref, src, params, PAIR_K,
                                  plan=plan, record_grad=True)
        assert out.state is not None
        upstream = np.random.default_rng(25).standard_normal((32, 32, PAIR_C))
        grads = transformer_backward(out.state, upstream)
        _, want_state = unblocked_forward(f_ref, f_src, params, plan, einsum_attend)
        want = einsum_backward(plan, params, want_state, upstream)["w_z"]
        assert np.any(want)
        assert (same_bits if variant == "identity" else rel_close)(grads.w_z, want)

    def test_overflowing_logit_keeps_the_reference(self, pair):
        # The one deliberate difference from the blocks: a logit that
        # overflows to inf makes their softmax NaN, while the skipped pass
        # returns the finite reference map.
        ref, src, f_ref, f_src, plan = pair
        f_ref, f_src = FeatureMap(f_ref.data * 1e200), FeatureMap(f_src.data * 1e200)
        params = zero_residual(make_params("identity", "softmax", PAIR_C, seed=21))
        with np.errstate(over="ignore", invalid="ignore"):
            want, _ = unblocked_forward(f_ref, f_src, params, plan)
        got = transformer_forward(f_ref, f_src, ref, src, params, PAIR_K, plan=plan)
        assert np.isnan(want).any()
        assert same_bits(got.fused.data, f_ref.data)


class TestLazyPlan:
    """A plan keeps only its segment ends; a pass builds each block's reads from them."""

    @pytest.mark.parametrize("k", ORACLE_KS)
    def test_reads_equal_plan_pixels(self, pair, k):
        ref, src, *_ = pair
        plan = plan_epipolar_sampling(ref, src, (32, 32), (32, 32), k)
        valid, _, corner, blend = dense_plan_pixels(ref, src, (32, 32), k)
        assert same_bits(plan.valid, valid)
        got = plan_reads(plan)
        assert same_bits(got[0], corner) and same_bits(got[1], blend)
        # A plan cut to its first valid pixels reads what the whole plan reads first.
        for n_valid in VALID_COUNTS:
            cut_corner, cut_blend = plan_reads(first_valid(plan, n_valid))
            assert same_bits(cut_corner, corner[: n_valid * k])
            assert same_bits(cut_blend, blend[:, : n_valid * k])

    def test_reads_built_in_chunks_equal_one_piece(self):
        # A 48x48 plan is read in more than 16 blocks of _BLOCK pixels, the last ragged.
        ref, src = general_pair(48)
        plan = plan_epipolar_sampling(ref, src, (48, 48), (48, 48), 8)
        assert len(plan.ends) > 16 * _BLOCK and len(plan.ends) % _BLOCK
        f_src = FeatureMap(np.random.default_rng(5).standard_normal((48, 48, 3)))
        blocks = [reads for _, reads, _ in _blocks(plan, f_src)]
        corner, blend = plan_reads(plan)
        assert same_bits(np.concatenate([c for c, _ in blocks]), corner)
        assert same_bits(np.concatenate([b for _, b in blocks], axis=1), blend)


class TestParamsValidation:
    def test_identity_rejects_non_square(self):
        with pytest.raises(ShapeMismatch):
            FusionParams(variant="identity", weight_mode="softmax", w_z=np.zeros((2, 3)))

    def test_identity_drops_embeddings(self):
        params = FusionParams.initialize("identity", "softmax", 4)
        assert params.theta is None and params.phi is None and params.g is None

    def test_bottleneck_odd_channels(self):
        with pytest.raises(ShapeMismatch, match="even channel count"):
            FusionParams.initialize("bottleneck", "softmax", 5)

    def test_bottleneck_shape_checks(self):
        with pytest.raises(ShapeMismatch):
            FusionParams(
                variant="bottleneck",
                weight_mode="softmax",
                w_z=np.zeros((2, 4)),
                theta=np.zeros((4, 3)),
                phi=np.zeros((4, 2)),
                g=np.zeros((4, 2)),
            )

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            FusionParams(variant="residual", weight_mode="softmax", w_z=np.zeros((2, 2)))

