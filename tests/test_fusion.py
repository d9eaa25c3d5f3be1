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

from epifuse.errors import ChannelMismatch, OddChannels, ShapeMismatch
from epifuse.fusion import (
    _BLOCK,
    FusionParams,
    _attend_at,
    _ForwardState,
    _plan_pixels,
    plan_epipolar_sampling,
    similarity_weights,
    transformer_backward,
    transformer_forward,
)
from epifuse.geometry import CameraView
from epifuse.sampler import FeatureMap, bilinear_sample, bilinear_scatter, epipolar_samples
from helpers import (
    add_at_scatter,
    aggregate,
    attention_weights,
    einsum_attend,
    einsum_backward,
    fuse_bottleneck,
    fuse_identity,
    look_at_camera,
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
        ys, xs = np.nonzero(plan.valid.reshape(8, 8))
        for i, (y, x) in enumerate(list(zip(ys, xs))[:12]):
            sample_set = epipolar_samples(f_src, ref, src, (float(x), float(y)), k=8)
            assert sample_set is not None
            assert np.allclose(out.state.samples[i], sample_set.features, atol=1e-9)
            w = similarity_weights(f_ref.data[y, x], sample_set.features)
            assert np.allclose(out.state.weights[i], w, atol=1e-12)

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
        with pytest.raises(ChannelMismatch):
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
    """The plan restricted to its first n valid pixels; the rest are skipped."""
    reads = n * plan.k
    return dataclasses.replace(
        plan,
        valid=plan.valid & (np.cumsum(plan.valid) <= n),
        corner=plan.corner[:reads],
        blend=plan.blend[:, :reads],
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
        want_fused, want_state = unblocked_forward(f_ref, f_src, params, plan)
        assert same_bits(out.fused.data, want_fused)
        unrecorded = transformer_forward(f_ref, f_src, ref, src, params, self.K, plan=plan)
        assert same_bits(unrecorded.fused.data, want_fused)

        for field in dataclasses.fields(_ForwardState):
            if field.name in ("plan", "params"):
                continue
            got = getattr(out.state, field.name)
            if field.name in want_state:
                assert same_bits(got, want_state[field.name]), field.name
            else:
                assert got is None, field.name

    @pytest.mark.parametrize("variant", ["identity", "bottleneck"])
    @pytest.mark.parametrize("mode", ["softmax", "max"])
    def test_recorded_equals_unrecorded_at_train_size(self, big_pair, variant, mode):
        # The recorded pass attends all 160x160 pixels in one call and the
        # unrecorded one in blocks; their fused maps must share every bit.
        # The unblocked oracle's gathers would take about 1 GB at this size.
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
        plan = first_valid(full_plan, n_valid)
        grad = np.random.default_rng(n_valid).standard_normal((self.C, plan.corner.size))
        got = bilinear_scatter(grad, 32 * 32, 32, plan.corner, plan.blend)
        assert same_bits(got, add_at_scatter(grad, 32 * 32, 32, plan.corner, plan.blend))

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

    @pytest.mark.parametrize("variant, bound", [("identity", 470e6), ("bottleneck", 665e6)])
    def test_backward_memory(self, big_pair, variant, bound):
        # The (C, n, K) source gradient ds is 202 MB here. The bounds sit just
        # above the backward's peaks at this size (453 and 642 MB), so one more
        # copy of ds, a transposed or a non-C-ordered one, does not fit.
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
        # The plan keeps 5 values per read (1 corner, 4 blend) besides valid.
        # Set-up also holds the 2 location values per read and may add 3
        # read-sized temporaries (clamped x and y, and the x corner) and
        # per-pixel line arrays worth well under half a read.
        ref, src = general_pair(160)
        tracemalloc.start()
        try:
            plan = plan_epipolar_sampling(ref, src, (160, 160), (160, 160), 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        reads = plan.corner.size
        arrays = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == 5 * reads * 8 + plan.valid.nbytes
        assert peak < 10.5 * reads * 8


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
        same = same_bits if variant == "identity" else rel_close
        assert same(out.fused.data, want_fused)
        for name, value in want_state.items():
            assert same(getattr(out.state, name), value), name
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


# (x, y) pixel lists of the pair fixture, each with the number of its plan's
# first valid pixels the dense pass attends (None: all of them). (6, 1),
# (8, 0) and (10, 0) are valid and (0, 0) is skipped; (8, 0) is the first
# valid pixel. Without the one-row rule of _plan_pixels and _attend, (6, 1)
# alone would get other locations, and (10, 0) next to a skipped pixel
# other bottleneck softmax weights.
PIXEL_LISTS = {
    "none": ([], None),
    "lone": ([(6, 1)], None),
    "lone-skipped": ([(0, 0)], None),
    "two": ([(6, 1), (10, 0)], None),
    "repeated": ([(6, 1), (20, 17), (6, 1), (6, 1), (3, 25)], None),
    "valid-and-skipped": ([(10, 0), (0, 0)], None),
    "skipped-mixed-in": ([(20, 17), (0, 0), (6, 1), (3, 25)], None),
    "one-valid-plan": ([(8, 0)], 1),
}


def dense_locations(ref, src, hw, k):
    """(n_valid, K, 2) read locations of every pixel a dense plan keeps, in plan order."""
    xs = np.tile(np.arange(hw[1], dtype=np.float64), hw[0])
    ys = np.repeat(np.arange(hw[0], dtype=np.float64), hw[1])
    return _plan_pixels(ref, src, hw, hw, xs, ys, k)[1]


class TestAttendAt:
    """Attention at a list of pixels equals the dense pass at them bit for bit."""

    @pytest.mark.parametrize("case", PIXEL_LISTS.values(), ids=PIXEL_LISTS.keys())
    @pytest.mark.parametrize("variant", ["identity", "bottleneck"])
    @pytest.mark.parametrize("mode", ["softmax", "max"])
    def test_matches_dense_pass(self, pair, case, variant, mode):
        ref, src, f_ref, f_src, plan = pair
        pixels, n_valid = case
        if n_valid is not None:
            plan = first_valid(plan, n_valid)
        params = make_params(variant, mode, PAIR_C, seed=21)
        state = transformer_forward(
            f_ref, f_src, ref, src, params, PAIR_K, plan=plan, record_grad=True
        ).state
        valid, locations, samples, weights = _attend_at(
            f_ref, f_src, ref, src, params, PAIR_K, pixels
        )
        flat = np.array([y * 32 + x for x, y in pixels], dtype=np.intp)
        assert same_bits(valid, plan.valid[flat])
        rows = (np.cumsum(plan.valid) - 1)[flat[valid]]
        assert same_bits(locations, dense_locations(ref, src, (32, 32), PAIR_K)[rows])
        assert same_bits(samples, state.samples[rows])
        assert same_bits(weights, state.weights[rows])


class TestParamsValidation:
    def test_identity_rejects_non_square(self):
        with pytest.raises(ShapeMismatch):
            FusionParams(variant="identity", weight_mode="softmax", w_z=np.zeros((2, 3)))

    def test_identity_drops_embeddings(self):
        params = FusionParams.initialize("identity", "softmax", 4)
        assert params.theta is None and params.phi is None and params.g is None

    def test_bottleneck_odd_channels(self):
        with pytest.raises(OddChannels):
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

