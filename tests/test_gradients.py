import numpy as np
import pytest

from epifuse.errors import DimsTooLarge, ShapeMismatch
from epifuse.fusion import (
    FusionParams,
    similarity_weights,
    transformer_backward,
    transformer_forward,
)
from epifuse.sampler import FeatureMap, epipolar_samples
from epifuse.synth import gradient_check
from helpers import rectified_pair
from test_fusion import make_params, misaligned_rectified_pair


class TestGradientCheck:
    @pytest.mark.parametrize("variant", ["identity", "bottleneck"])
    def test_softmax_passes(self, variant):
        result = gradient_check(height=6, width=6, channels=4, k=4, seed=1, variant=variant)
        assert result.passed
        assert result.max_rel_error < 1e-5
        assert result.entries > 0

    @pytest.mark.parametrize("variant", ["identity", "bottleneck"])
    def test_max_mode_passes_at_generic_data(self, variant):
        # The hard argmax is locally constant, so finite differences agree
        # with the piecewise gradient away from ties.
        result = gradient_check(
            height=6, width=6, channels=4, k=4, seed=2, variant=variant, mode="max"
        )
        assert result.passed

    def test_dims_guard(self):
        with pytest.raises(DimsTooLarge):
            gradient_check(height=200, width=200, channels=16, k=64)

    def test_result_fields(self):
        result = gradient_check(height=6, width=6, channels=4, k=4, seed=3)
        assert result.tolerance == 1e-5
        assert result.passed == (result.max_rel_error < result.tolerance)


class TestBackwardClosedForms:
    def test_zero_projection_reference_gradient_is_upstream(self):
        # With w_z = 0 the only path from ref to output is the residual,
        # so d ref equals the upstream gradient exactly.
        ref, src = rectified_pair(baseline=100.0, width=6, height=6)
        rng = np.random.default_rng(4)
        f_ref = FeatureMap(rng.standard_normal((6, 6, 4)))
        f_src = FeatureMap(rng.standard_normal((6, 6, 4)))
        params = FusionParams.initialize("identity", "softmax", 4)
        out = transformer_forward(f_ref, f_src, ref, src, params, k=4, record_grad=True)
        grad = rng.standard_normal((6, 6, 4))
        grads = transformer_backward(out.state, grad)
        assert np.array_equal(grads.f_ref, grad)
        assert np.array_equal(grads.f_src, np.zeros_like(grads.f_src))

    def test_projection_gradient_oracle(self):
        # Oracle: d w_z = sum over fused pixels of outer(upstream, agg),
        # with agg rebuilt from an independent sampling path.
        ref, src = rectified_pair(baseline=100.0, width=6, height=6)
        rng = np.random.default_rng(5)
        f_ref = FeatureMap(rng.standard_normal((6, 6, 4)))
        f_src = FeatureMap(rng.standard_normal((6, 6, 4)))
        params = FusionParams.initialize("identity", "softmax", 4)
        out = transformer_forward(f_ref, f_src, ref, src, params, k=4, record_grad=True)
        grad = rng.standard_normal((6, 6, 4))
        grads = transformer_backward(out.state, grad)
        want = np.zeros((4, 4))
        ys, xs = np.nonzero(out.state.plan.valid.reshape(6, 6))
        for y, x in zip(ys, xs):
            sample_set = epipolar_samples(f_src, ref, src, (float(x), float(y)), k=4)
            w = similarity_weights(f_ref.data[y, x], sample_set.features)
            agg = w @ sample_set.features
            want += np.outer(grad[y, x], agg)
        assert np.allclose(grads.w_z, want, atol=1e-10)

    def test_all_skipped_gradients(self):
        ref, src = misaligned_rectified_pair(width=6, height=6)
        rng = np.random.default_rng(6)
        f_ref = FeatureMap(rng.standard_normal((6, 6, 4)))
        f_src = FeatureMap(rng.standard_normal((6, 6, 4)))
        params = make_params("identity", "softmax", 4, seed=7)
        out = transformer_forward(f_ref, f_src, ref, src, params, k=4, record_grad=True)
        grad = rng.standard_normal((6, 6, 4))
        grads = transformer_backward(out.state, grad)
        assert np.array_equal(grads.f_ref, grad)
        assert not grads.f_src.any()
        assert not grads.w_z.any()

    def test_bottleneck_embedding_gradients_zero_in_max_mode(self):
        # Hard selection blocks the logit path, so the similarity
        # embeddings get no gradient.
        ref, src = rectified_pair(baseline=100.0, width=6, height=6)
        rng = np.random.default_rng(8)
        f_ref = FeatureMap(rng.standard_normal((6, 6, 4)))
        f_src = FeatureMap(rng.standard_normal((6, 6, 4)))
        params = make_params("bottleneck", "max", 4, seed=9)
        out = transformer_forward(f_ref, f_src, ref, src, params, k=4, record_grad=True)
        grads = transformer_backward(out.state, rng.standard_normal((6, 6, 4)))
        assert not grads.theta.any()
        assert not grads.phi.any()
        assert grads.g.any()

    def test_missing_state(self):
        with pytest.raises(ValueError, match="record_grad=True"):
            transformer_backward(None, np.zeros((6, 6, 4)))

    def test_forward_without_recording_has_no_state(self):
        ref, src = rectified_pair(baseline=100.0, width=6, height=6)
        rng = np.random.default_rng(10)
        f_ref = FeatureMap(rng.standard_normal((6, 6, 4)))
        f_src = FeatureMap(rng.standard_normal((6, 6, 4)))
        params = FusionParams.initialize("identity", "softmax", 4)
        out = transformer_forward(f_ref, f_src, ref, src, params, k=4)
        assert out.state is None
        with pytest.raises(ValueError, match="record_grad=True"):
            transformer_backward(out.state, rng.standard_normal((6, 6, 4)))

    def test_grad_shape_check(self):
        ref, src = rectified_pair(baseline=100.0, width=6, height=6)
        rng = np.random.default_rng(11)
        f_ref = FeatureMap(rng.standard_normal((6, 6, 4)))
        f_src = FeatureMap(rng.standard_normal((6, 6, 4)))
        params = FusionParams.initialize("identity", "softmax", 4)
        out = transformer_forward(f_ref, f_src, ref, src, params, k=4, record_grad=True)
        with pytest.raises(ShapeMismatch):
            transformer_backward(out.state, np.zeros((5, 6, 4)))
