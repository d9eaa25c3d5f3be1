"""Attention-weighted fusion of epipolar samples into a reference map.

For every reference pixel p with query feature q = F_ref(p), the K feature
rows s_1..s_K sampled along p's epipolar line in the source view are scored
by dot product, turned into weights (softmax, or a one-hot max), and blended
into an aggregate that is added back through a residual projection:

    identity variant     out = q + W_z @ sum_i w_i s_i          W_z: (C, C)
    bottleneck variant   out = q + W_z^T @ sum_i w_i (g^T s_i)  W_z: (C/2, C)

where the bottleneck scores in an embedded half-width space, w ~ softmax of
(theta^T q) . (phi^T s_i). Pixels whose epipolar line misses the source map
are passed through unchanged. Logits are plain dot products.

The forward pass reads, gathers and attends the valid pixels of a
sampler.SamplingPlan in fixed blocks of _BLOCK, building each block's reads
from its segments with sampler.segment_reads. So its memory is the plan's
segments plus one block of reads and samples, and its output bytes depend on
neither the block nor the thread count: every pixel's arithmetic is the same
whichever block it falls in. Unrecorded at a zero W_z, a pass makes no reads
and adds the blocks' 0.0 to the valid pixels. A recorded pass keeps only the
plan, the parameters and the maps; transformer_backward rebuilds each block,
its reads included, from them and returns exact analytic gradients for both
feature maps and all fusion parameters. Sample locations depend only on
camera geometry, so no gradient flows through them; in max mode the weights
are piecewise constant and the backward pass differentiates the locally
selected branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .geometry import CameraView
from .sampler import (
    FeatureMap,
    SamplingPlan,
    _plan_pixels,
    bilinear_gather,
    bilinear_scatter,
    plan_epipolar_sampling,
    segment_reads,
)

VARIANTS = ("identity", "bottleneck")
WEIGHT_MODES = ("softmax", "max")

# Valid reference pixels gathered and attended together by
# transformer_forward. A constant, so that output bytes never depend on the
# thread count or the input.
_BLOCK = 128


@dataclass(frozen=True, eq=False)
class FusionParams:
    """Residual projection and optional bottleneck embeddings.

    identity:   w_z is (C, C); theta/phi/g unused.
    bottleneck: w_z is (C/2, C) and theta, phi, g are (C, C/2).
    """

    variant: str
    weight_mode: str
    w_z: np.ndarray
    theta: np.ndarray | None = None
    phi: np.ndarray | None = None
    g: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")
        w_z = np.array(self.w_z, dtype=np.float64, copy=True)
        if w_z.ndim != 2 or not np.all(np.isfinite(w_z)):
            raise ShapeMismatch("w_z must be a finite 2-D matrix")
        if self.variant == "identity":
            if w_z.shape[0] != w_z.shape[1]:
                raise ShapeMismatch("identity variant needs a square w_z")
            object.__setattr__(self, "theta", None)
            object.__setattr__(self, "phi", None)
            object.__setattr__(self, "g", None)
        else:
            half, c = w_z.shape
            if c % 2 != 0:
                raise ShapeMismatch("bottleneck fusion needs an even channel count")
            if half != c // 2:
                raise ShapeMismatch(f"bottleneck w_z must be ({c // 2}, {c})")
            for name in ("theta", "phi", "g"):
                e = getattr(self, name)
                if e is None:
                    raise ShapeMismatch(f"bottleneck variant needs embedding '{name}'")
                e = np.array(e, dtype=np.float64, copy=True)
                if e.shape != (c, c // 2) or not np.all(np.isfinite(e)):
                    raise ShapeMismatch(f"embedding '{name}' must be finite ({c}, {c // 2})")
                e.flags.writeable = False
                object.__setattr__(self, name, e)
        w_z.flags.writeable = False
        object.__setattr__(self, "w_z", w_z)

    @property
    def channels(self) -> int:
        return self.w_z.shape[1]

    @classmethod
    def initialize(
        cls,
        variant: str,
        weight_mode: str,
        channels: int,
        seed: int | np.random.SeedSequence | np.random.Generator = 0,
    ) -> "FusionParams":
        """Fresh parameters: zero residual projection, seeded embeddings.

        A zero w_z makes fusion an exact pass-through, so inserting the
        stage into an existing pipeline changes nothing until w_z moves.
        Embeddings draw from uniform(-1/sqrt(C), 1/sqrt(C)), from seed
        itself when it is a Generator.
        """
        if variant == "identity":
            return cls(variant, weight_mode, np.zeros((channels, channels)))
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(channels)
        half = channels // 2
        theta, phi, g = (rng.uniform(-bound, bound, size=(channels, half)) for _ in range(3))
        return cls(variant, weight_mode, np.zeros((half, channels)),
                   theta=theta, phi=phi, g=g)


def similarity_weights(
    query: np.ndarray, samples: np.ndarray, mode: str = "softmax"
) -> np.ndarray:
    """Attention weights over K samples from dot-product similarity.

    softmax: w_i = exp(z_i - max_j z_j) / sum, z_i = q . s_i.
    max: one-hot at the largest logit, lowest index on ties.
    """
    query = np.asarray(query, dtype=np.float64)
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or query.shape != (samples.shape[1],):
        raise ShapeMismatch("query must be (C,) and samples (K, C)")
    if mode not in WEIGHT_MODES:
        raise ValueError(f"mode must be one of {WEIGHT_MODES}")
    return _batch_weights((samples @ query)[None, :], mode)[0]


@dataclass(eq=False)
class _ForwardState:
    plan: SamplingPlan
    params: FusionParams
    f_ref: FeatureMap
    f_src: FeatureMap


@dataclass(eq=False)
class ForwardResult:
    fused: FeatureMap
    state: _ForwardState | None = None


@dataclass(eq=False)
class FusionGradients:
    """Analytic gradients returned by transformer_backward."""

    f_ref: np.ndarray  # (H, W, C)
    f_src: np.ndarray  # (H, W, C)
    w_z: np.ndarray
    theta: np.ndarray | None = None
    phi: np.ndarray | None = None
    g: np.ndarray | None = None


def _batch_weights(logits: np.ndarray, mode: str) -> np.ndarray:
    if mode == "max":
        w = np.zeros_like(logits)
        if logits.shape[0]:
            w[np.arange(logits.shape[0]), np.argmax(logits, axis=1)] = 1.0
        return w
    z = logits - np.max(logits, axis=1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=1, keepdims=True)


def _attend(
    params: FusionParams, queries: np.ndarray, samples: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Attention of n queries (n, C) over their samples (n, K, C).

    Returns the weights (n, K), the fused rows (n, C) and the intermediates
    that transformer_backward reads, keyed by name.
    """
    if len(queries) == 1:
        # A one-row matmul takes BLAS's matrix-vector path and rounds otherwise:
        # attend a lone row as a pair and keep row 0 of every output.
        weights, out, saved = _attend(params, np.repeat(queries, 2, axis=0),
                                      np.repeat(samples, 2, axis=0))
        return weights[:1], out[:1], {name: value[:1] for name, value in saved.items()}
    if params.variant == "identity":
        logits = np.einsum("nc,nkc->nk", queries, samples)
        weights = _batch_weights(logits, params.weight_mode)
        agg = np.einsum("nk,nkc->nc", weights, samples)
        return weights, queries + agg @ params.w_z.T, {"agg": agg}
    # Embeddings are 2-D GEMMs over all sample rows; explicit sizes, as n may be 0.
    n, k, c = samples.shape
    u = queries @ params.theta
    v = (samples.reshape(n * k, c) @ params.phi).reshape(n, k, c // 2)
    logits = np.einsum("nd,nkd->nk", u, v)
    weights = _batch_weights(logits, params.weight_mode)
    h_emb = (samples.reshape(n * k, c) @ params.g).reshape(n, k, c // 2)
    m = np.einsum("nk,nkd->nd", weights, h_emb)
    return weights, queries + m @ params.w_z, {"u": u, "v": v, "h_emb": h_emb, "m": m}


def _attend_at(f_ref, f_src, ref, src, params, k, pixels):
    """Attention at the integer (x, y) reference pixels only.

    Returns (valid, locations, samples, weights): valid flags each pixel,
    and the others cover the valid ones in order with the bits of
    transformer_forward's plan and blocks.
    """
    xs, ys = np.asarray(pixels, dtype=np.intp).reshape(-1, 2).T
    valid, locations, corner, blend = _plan_pixels(
        ref, src, (f_ref.height, f_ref.width), (f_src.height, f_src.width),
        xs.astype(np.float64), ys.astype(np.float64), k,
    )
    c = f_src.channels
    src_flat = f_src.data.reshape(f_src.height * f_src.width, c)
    samples = bilinear_gather(src_flat, f_src.width, corner, blend).reshape(-1, k, c)
    weights = _attend(params, f_ref.data[ys[valid], xs[valid]], samples)[0]
    return valid, locations, samples, weights


def _blocks(plan: SamplingPlan, f_src: FeatureMap):
    """(valid-pixel slice, its (corner, blend) reads, (nb, K, C) samples) of each _BLOCK."""
    src_h, src_w = plan.src_hw
    k, c = plan.k, f_src.channels
    src_flat = f_src.data.reshape(src_h * src_w, c)
    n = len(plan.ends)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        _, corner, blend = segment_reads(plan.ends[lo:hi], k, plan.src_hw)
        samples = bilinear_gather(src_flat, src_w, corner, blend)
        yield slice(lo, hi), (corner, blend), samples.reshape(hi - lo, k, c)


def transformer_forward(
    f_ref: FeatureMap,
    f_src: FeatureMap,
    ref: CameraView,
    src: CameraView,
    params: FusionParams,
    k: int = 64,
    *,
    plan: SamplingPlan | None = None,
    record_grad: bool = False,
) -> ForwardResult:
    """Fuse the reference map with epipolar-sampled source features.

    Every pixel is processed independently; skipped pixels (no epipolar
    intersection) keep their reference feature bit for bit. Valid pixels
    are read, gathered and attended in fixed blocks of _BLOCK, so memory
    beyond the plan's segments is one block of reads and samples.
    Unrecorded at a zero w_z, it reads nothing and adds 0.0 to the valid
    pixels: the blocks' bits, unless a logit overflows to inf, which the
    blocks' softmax turns into NaN. With record_grad the state keeps only
    the plan, the parameters and the two maps (not copied), from which
    transformer_backward rebuilds each block, its reads included. Pass a
    precomputed plan to amortize the segment geometry across repeated calls
    with the same cameras, map shapes, and K. _attend_at gives the weights
    of chosen pixels alone, with the same bits.
    """
    if f_ref.channels != f_src.channels:
        raise ShapeMismatch(f"reference has {f_ref.channels} channels, source {f_src.channels}")
    c = f_ref.channels
    if params.channels != c:
        raise ShapeMismatch(f"params are for {params.channels} channels, maps have {c}")
    ref_hw, src_hw = (f_ref.height, f_ref.width), (f_src.height, f_src.width)
    if plan is None:
        plan = plan_epipolar_sampling(ref, src, ref_hw, src_hw, k)
    elif (plan.ref_hw, plan.src_hw) != (ref_hw, src_hw):
        raise ShapeMismatch("sampling plan does not match the map shapes")

    h, w = plan.ref_hw
    fused_flat = f_ref.data.reshape(h * w, c).copy()
    if record_grad or np.any(params.w_z):
        rows = fused_flat[plan.valid]  # queries in, fused rows out, block by block
        for pixels, _, samples in _blocks(plan, f_src):
            rows[pixels] = _attend(params, rows[pixels], samples)[1]
        fused_flat[plan.valid] = rows
    else:
        # What the blocks' zero residual adds, in place.
        np.add(fused_flat, 0.0, out=fused_flat, where=plan.valid[:, None])
    state = _ForwardState(plan, params, f_ref, f_src) if record_grad else None
    return ForwardResult(fused=FeatureMap._adopt(fused_flat.reshape(h, w, c)), state=state)


def transformer_backward(state: _ForwardState | None, grad_fused: np.ndarray) -> FusionGradients:
    """Exact gradients of a recorded forward pass.

    grad_fused is dL/d(fused map) as an (H, W, C) array. Returns gradients for
    the reference map, the source map, and every fusion parameter; skipped
    pixels contribute identity gradients to the reference map only. Each of
    the forward's blocks is read, gathered and attended again, with its bits,
    and its sample gradients scatter through the same reads into a
    channel-major (C, H*W) source map: memory is one block plus a few
    per-pixel arrays. Per-pixel terms are reduced over all pixels at once;
    sums over reads (f_src, phi, g) add up block by block in a fixed order,
    so results repeat run to run.
    """
    if state is None:
        raise ValueError("forward pass was not run with record_grad=True")
    plan = state.plan
    params = state.params
    h, w = plan.ref_hw
    src_h, src_w = plan.src_hw
    c = params.channels
    grad_fused = np.asarray(grad_fused, dtype=np.float64)
    if grad_fused.shape != (h, w, c):
        raise ShapeMismatch(f"grad must be ({h}, {w}, {c}), got {grad_fused.shape}")

    g_flat = grad_fused.reshape(h * w, c)
    d_ref = g_flat.copy()  # identity path reaches every pixel
    gv = g_flat[plan.valid]
    queries = state.f_ref.data.reshape(h * w, c)[plan.valid]
    softmax = params.weight_mode == "softmax"
    identity = params.variant == "identity"
    k = plan.k

    # Per-pixel terms: dL/d(agg or m), agg or m itself, and the softmax's
    # reference-side term (dz-weighted samples, or du for the bottleneck).
    d_pool = gv @ params.w_z if identity else gv @ params.w_z.T
    pooled = np.empty_like(d_pool)
    d_query = np.zeros_like(queries if identity else d_pool)
    # Source gradients: channel-major, (C, nb*K) per block in C order, for bilinear_scatter.
    d_src = np.zeros((c, src_h * src_w))
    theta_g, phi_g, g_g = (None,) * 3 if identity else (
        np.zeros_like(e) for e in (params.theta, params.phi, params.g))
    for pixels, (corner, blend), samples in _blocks(plan, state.f_src):
        nb = len(samples)
        q = queries[pixels]
        weights, _, saved = _attend(params, q, samples)
        dp = d_pool[pixels]
        if identity:
            pooled[pixels] = saved["agg"]
            dw = np.einsum("nkc,nc->nk", samples, dp)
            ds = np.multiply(dp.T[:, :, None], weights, out=np.empty((c, nb, k)))
            if softmax:
                dz = weights * (dw - np.sum(weights * dw, axis=1, keepdims=True))
                d_query[pixels] = np.einsum("nk,nkc->nc", dz, samples)
                ds += np.multiply(q.T[:, :, None], dz, out=np.empty((c, nb, k)))
        else:
            pooled[pixels] = saved["m"]
            flat = samples.reshape(nb * k, c)
            dh = (weights[:, :, None] * dp[:, None, :]).reshape(nb * k, c // 2)
            dw = np.einsum("nkd,nd->nk", saved["h_emb"], dp)
            ds = params.g @ dh.T
            g_g += flat.T @ dh
            if softmax:
                dz = weights * (dw - np.sum(weights * dw, axis=1, keepdims=True))
                d_query[pixels] = np.einsum("nk,nkd->nd", dz, saved["v"])
                dv = (dz[:, :, None] * saved["u"][:, None, :]).reshape(nb * k, c // 2)
                ds += params.phi @ dv.T
                phi_g += flat.T @ dv
        bilinear_scatter(ds.reshape(c, nb * k), d_src, src_w, corner, blend)

    if identity:
        wz_g = np.einsum("nc,nj->cj", gv, pooled)
        if softmax:
            d_ref[plan.valid] += d_query
    else:
        wz_g = np.einsum("nd,nc->dc", pooled, gv)
        if softmax:
            d_ref[plan.valid] += d_query @ params.theta.T
            theta_g += np.einsum("nc,nd->cd", queries, d_query)

    return FusionGradients(
        f_ref=d_ref.reshape(h, w, c),
        f_src=np.ascontiguousarray(d_src.T).reshape(src_h, src_w, c),
        w_z=wz_g,
        theta=theta_g,
        phi=phi_g,
        g=g_g,
    )
