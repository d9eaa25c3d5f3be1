"""Shared camera and scene builders for the test suite."""

from __future__ import annotations

import csv
import itertools

import numpy as np

from epifuse.errors import Degenerate, NoConsensus
from epifuse.fusion import _BLOCK, _attend, _batch_weights
from epifuse.geometry import PROJECTION_W, CameraView
from epifuse.sampler import bilinear_many
from epifuse.triangulation import (
    OBS_FIELDS,
    TriangulationResult,
    conditioning_frame,
    dlt_triangulate,
    reprojection_errors,
)


def look_at_camera(
    center,
    focal: float = 80.0,
    width: int = 64,
    height: int = 64,
    target=(0.0, 0.0, 0.0),
) -> CameraView:
    """Pinhole camera at `center` aimed at `target`, principal point centered."""
    center = np.asarray(center, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    z = target - center
    z = z / np.linalg.norm(z)
    up = np.array([0.0, 0.0, 1.0])
    if abs(float(np.dot(z, up))) > 0.97:
        up = np.array([0.0, 1.0, 0.0])
    x = np.cross(z, up)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    rot = np.stack([x, y, z])
    k = np.array(
        [
            [focal, 0.0, (width - 1) / 2.0],
            [0.0, focal, (height - 1) / 2.0],
            [0.0, 0.0, 1.0],
        ]
    )
    return CameraView(k @ np.hstack([rot, (-rot @ center)[:, None]]), width, height)


def random_camera(rng: np.random.Generator, width: int = 64, height: int = 64) -> CameraView:
    """Camera on a random shell around the origin, aimed near the origin."""
    direction = rng.standard_normal(3)
    direction = direction / np.linalg.norm(direction)
    center = rng.uniform(400.0, 1200.0) * direction
    focal = rng.uniform(50.0, 150.0)
    target = rng.normal(0.0, 30.0, 3)
    return look_at_camera(center, focal, width, height, target)


def random_camera_pair(
    rng: np.random.Generator, width: int = 64, height: int = 64
) -> tuple[CameraView, CameraView]:
    return random_camera(rng, width, height), random_camera(rng, width, height)


def visible_point(rng: np.random.Generator, cams: list[CameraView]) -> np.ndarray:
    """A 3D point whose projection lands inside every camera's image."""
    for _ in range(1000):
        x = rng.normal(0.0, 60.0, 3)
        try:
            pts = [project(cam, x) for cam in cams]
        except Exception:
            continue
        if all(
            0.0 <= p[0] <= cam.width - 1 and 0.0 <= p[1] <= cam.height - 1
            for p, cam in zip(pts, cams)
        ):
            return x
    raise AssertionError("could not find a mutually visible point")


def rectified_pair(
    baseline: float = 100.0, width: int = 32, height: int = 32
) -> tuple[CameraView, CameraView]:
    """Identity-intrinsics stereo pair translated along x (horizontal lines)."""
    m_ref = np.hstack([np.eye(3), np.zeros((3, 1))])
    m_src = np.hstack([np.eye(3), np.array([[-baseline], [0.0], [0.0]])])
    return CameraView(m_ref, width, height), CameraView(m_src, width, height)


# -- camera constant oracles -----------------------------------------------------
#
# The center and pseudo-inverse formulas as free functions of M, against which
# CameraView.center and CameraView.pinv must agree bit for bit.


def center_oracle(m) -> np.ndarray:
    """Unit right null vector of m from the full SVD, last nonzero coordinate positive."""
    c = np.linalg.svd(np.asarray(m, dtype=np.float64))[2][3]
    c = c / np.linalg.norm(c)
    nonzero = np.flatnonzero(np.abs(c) > 1e-14)
    return -c if c[nonzero[-1]] < 0.0 else c


def pinv_oracle(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of m from the reduced SVD."""
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=np.float64), full_matrices=False)
    return (vt.T / s) @ u.T


# -- projection oracles -------------------------------------------------------------
#
# One camera and one point at a time, against which the library's stacked
# projection (triangulation.reprojection_errors) and DLT rows must agree bit
# for bit; and RANSAC one pair at a time, against which the blocked
# ransac_triangulate must agree bit for bit.


def project(cam: CameraView, x) -> np.ndarray:
    """Pixel projection of a 3D point (mm); ValueError on the camera's principal plane."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (3,):
        raise ValueError("expected a 3D point")
    q = cam.M @ np.array([x[0], x[1], x[2], 1.0])
    if abs(q[2]) < PROJECTION_W:
        raise ValueError("point projects to infinity (principal plane)")
    return q[:2] / q[2]


def render_oracle(cam: CameraView, joints, descriptors, sigma_px: float) -> np.ndarray:
    """Per-joint splat: sum_j d_j exp(-|p - proj_j|^2 / 2 sigma^2) over cam's pixels p.

    A joint at or behind the principal plane is skipped; one off the map
    keeps its tail.
    """
    out = np.zeros((cam.height, cam.width, descriptors.shape[1]))
    xs = np.arange(cam.width, dtype=np.float64)[None, :]
    ys = np.arange(cam.height, dtype=np.float64)[:, None]
    for x, d in zip(joints, descriptors):
        q = cam.M @ np.append(x, 1.0)
        if q[2] <= PROJECTION_W:
            continue
        px, py = q[:2] / q[2]
        blob = np.exp(-((xs - px) ** 2 + (ys - py) ** 2) / (2.0 * sigma_px * sigma_px))
        out += blob[:, :, None] * d[None, None, :]
    return out


def reprojection_error_oracle(cam: CameraView, x, p) -> float:
    """1-D np.linalg.norm of project(cam, x) - p; inf on the principal plane."""
    try:
        return float(np.linalg.norm(project(cam, x) - np.asarray(p, dtype=np.float64)))
    except ValueError:
        return np.inf


def dlt_oracle(ms, points, frame=None) -> np.ndarray:
    """DLT from per-view rows of m @ frame, each scaled by its 1-D np.linalg.norm.

    Rows are stacked one at a time in Python; returns frame @ x, dehomogenized.
    Without a frame, the unconditioned DLT (an identity frame).
    """
    frame = np.eye(4) if frame is None else frame
    rows = []
    for m, p in zip(ms, points):
        m = m @ frame
        for row in (p[0] * m[2] - m[0], p[1] * m[2] - m[1]):
            norm = np.linalg.norm(row)
            rows.append(row / norm if norm > 0.0 else row)
    x = np.linalg.svd(np.vstack(rows))[2][-1]
    return (frame @ x)[:3] / x[3]


def ransac_oracle(cams, points, threshold_px=5.0, iterations=100, seed=0) -> TriangulationResult:
    """ransac_triangulate with one unbatched DLT and error vector per pair, in order.

    Every pair of itertools.combinations when there are at most iterations
    of them, else the drawn pairs in draw order.
    """
    n = len(points)
    if n < 2:
        raise ValueError("RANSAC needs at least two observations")
    if not (threshold_px > 0.0):
        raise ValueError("threshold must be positive")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    frame = conditioning_frame(cams)
    if n * (n - 1) // 2 <= iterations:
        pairs = [list(pair) for pair in itertools.combinations(range(n), 2)]
    else:
        rng = np.random.default_rng(seed)
        pairs = [rng.choice(n, size=2, replace=False) for _ in range(iterations)]

    best_mask, best_count, best_rms = None, 0, np.inf
    for pair in pairs:
        try:
            x = dlt_triangulate(cams[pair], points[pair], frame)
        except Degenerate:
            continue
        errors = reprojection_errors(cams, points, x)
        mask = errors < threshold_px
        count = int(np.sum(mask))
        if count < 2:
            continue
        rms = float(np.sqrt(np.mean(errors[mask] ** 2)))
        if count > best_count or (count == best_count and rms < best_rms):
            best_mask, best_count, best_rms = mask, count, rms

    if best_mask is None:
        raise NoConsensus("no pair produced two or more inliers")
    refined = dlt_triangulate(cams[best_mask], points[best_mask], frame)
    errors = reprojection_errors(cams, points, refined)
    inliers = errors < threshold_px
    if np.sum(inliers) < 2:
        raise NoConsensus("the refined point keeps fewer than two inliers")
    rms = float(np.sqrt(np.mean(errors[inliers] ** 2)))
    return TriangulationResult(point=refined, inliers=inliers, rms_reproj=rms)


def bilinear_sample(fmap, point) -> np.ndarray:
    """C-vector bilinear read at a single (x, y) location, as a one-row bilinear_many."""
    return bilinear_many(fmap, np.asarray(point, dtype=np.float64)[None, :])[0]


# -- scalar fusion oracles ------------------------------------------------------
#
# Per-pixel reference math for the dense forward pass, written without the
# library's batched attention code.


def attention_weights(query, samples, params) -> np.ndarray:
    """Weights of one query over its (K, C) samples; bottleneck scores embed first."""
    query = np.asarray(query, dtype=np.float64)
    samples = np.asarray(samples, dtype=np.float64)
    if params.variant == "bottleneck":
        query, samples = params.theta.T @ query, samples @ params.phi
    z = np.array([float(s @ query) for s in samples])
    if params.weight_mode == "max":
        w = np.zeros(len(z))
        w[int(np.argmax(z))] = 1.0
        return w
    e = np.exp(z - np.max(z))
    return e / np.sum(e)


def aggregate(weights, samples) -> np.ndarray:
    """Convex combination sum_i w_i s_i of the sample rows."""
    return np.asarray(weights, dtype=np.float64) @ np.asarray(samples, dtype=np.float64)


def fuse_identity(ref_feat, agg, params) -> np.ndarray:
    """Residual fusion out = ref + W_z @ agg for the identity variant."""
    return np.asarray(ref_feat, dtype=np.float64) + params.w_z @ np.asarray(agg, dtype=np.float64)


def fuse_bottleneck(ref_feat, samples, params) -> np.ndarray:
    """Half-width embedded attention with an up-projection back to C."""
    samples = np.asarray(samples, dtype=np.float64)
    w = attention_weights(ref_feat, samples, params)
    return np.asarray(ref_feat, dtype=np.float64) + params.w_z.T @ aggregate(w, samples @ params.g)


# -- dense pass oracles -----------------------------------------------------------
#
# The dense forward pass with every sample gathered before one attention call,
# and the bilinear backward scatter as four sequential np.add.at, against which
# the blocked forward and the segment-sum scatter must agree bit for bit.


def gather_all_samples(plan, src_data) -> np.ndarray:
    """(n_valid, K, C) samples of every valid pixel, by four fancy-index gathers."""
    src_h, src_w = plan.src_hw
    c = src_data.shape[2]
    flat = src_data.reshape(src_h * src_w, c)
    i00 = plan.corner
    w00, w10, w01, w11 = plan.blend
    s = (
        w00[:, None] * flat[i00]
        + w10[:, None] * flat[i00 + 1]
        + w01[:, None] * flat[i00 + src_w]
        + w11[:, None] * flat[i00 + src_w + 1]
    )
    return s.reshape(-1, plan.k, c)


def unblocked_forward(f_ref, f_src, params, plan, attend=_attend) -> tuple[np.ndarray, dict]:
    """Fused (H, W, C) map and the attention arrays of all valid pixels, keyed by name.

    The arrays are the queries, samples and weights, and the intermediates
    that attend saves (see fusion._attend).

    Like the library, attends a lone row as a pair: a one-row matmul takes
    BLAS's matrix-vector path, which rounds otherwise.
    """
    h, w = plan.ref_hw
    c = f_ref.channels
    queries = f_ref.data.reshape(h * w, c)[plan.valid]
    samples = gather_all_samples(plan, f_src.data)
    n = len(queries)
    rows = [0, 0] if n == 1 else slice(None)
    weights, out, saved = attend(params, queries[rows], samples[rows])
    fused = f_ref.data.reshape(h * w, c).copy()
    fused[plan.valid] = out[:n]
    state = {"query": queries, "samples": samples, "weights": weights[:n],
             **{name: value[:n] for name, value in saved.items()}}
    return fused.reshape(h, w, c), state


def add_at_scatter(grad, size, width, corner, blend) -> np.ndarray:
    """(size, C) sums of (C, N) read gradients into their four bilinear corners."""
    grad = np.asarray(grad).T
    out = np.zeros((size, grad.shape[1]))
    w00, w10, w01, w11 = blend
    np.add.at(out, corner, w00[:, None] * grad)
    np.add.at(out, corner + 1, w10[:, None] * grad)
    np.add.at(out, corner + width, w01[:, None] * grad)
    np.add.at(out, corner + width + 1, w11[:, None] * grad)
    return out


# -- einsum oracles ---------------------------------------------------------------
#
# Attention and its backward pass with every contraction written as np.einsum
# over (n, K, C) tensors, and source gradients in sample-major order. The
# identity variant must match the library bit for bit; the bottleneck variant's
# embeddings and weight gradients run on BLAS there, which rounds differently.


def einsum_attend(params, queries, samples) -> tuple[np.ndarray, np.ndarray, dict]:
    """(weights, fused rows, saved intermediates), like fusion._attend."""
    if params.variant == "identity":
        weights = _batch_weights(np.einsum("nc,nkc->nk", queries, samples), params.weight_mode)
        agg = np.einsum("nk,nkc->nc", weights, samples)
        return weights, queries + agg @ params.w_z.T, {"agg": agg}
    u = queries @ params.theta
    v = np.einsum("nkc,cd->nkd", samples, params.phi)
    weights = _batch_weights(np.einsum("nd,nkd->nk", u, v), params.weight_mode)
    h_emb = np.einsum("nkc,cd->nkd", samples, params.g)
    m = np.einsum("nk,nkd->nd", weights, h_emb)
    return weights, queries + m @ params.w_z, {"u": u, "v": v, "h_emb": h_emb, "m": m}


def einsum_backward(plan, params, state, grad_fused) -> dict:
    """Gradients keyed by FusionGradients field, from an unblocked_forward state."""
    h, w = plan.ref_hw
    src_h, src_w = plan.src_hw
    c = params.channels
    g_flat = grad_fused.reshape(h * w, c)
    d_ref = g_flat.copy()
    gv = g_flat[plan.valid]
    queries, samples, weights = state["query"], state["samples"], state["weights"]
    softmax = params.weight_mode == "softmax"
    grads = {}
    if params.variant == "identity":
        da = gv @ params.w_z
        grads["w_z"] = np.einsum("nc,nj->cj", gv, state["agg"])
        dw = np.einsum("nkc,nc->nk", samples, da)
        ds = weights[:, :, None] * da[:, None, :]
        if softmax:
            dz = weights * (dw - np.sum(weights * dw, axis=1, keepdims=True))
            d_ref[plan.valid] += np.einsum("nk,nkc->nc", dz, samples)
            ds += dz[:, :, None] * queries[:, None, :]
    else:
        dm = gv @ params.w_z.T
        grads["w_z"] = np.einsum("nd,nc->dc", state["m"], gv)
        dh = weights[:, :, None] * dm[:, None, :]
        dw = np.einsum("nkd,nd->nk", state["h_emb"], dm)
        ds = np.einsum("nkd,cd->nkc", dh, params.g)
        grads["g"] = np.einsum("nkc,nkd->cd", samples, dh)
        grads["theta"] = np.zeros_like(params.theta)
        grads["phi"] = np.zeros_like(params.phi)
        if softmax:
            dz = weights * (dw - np.sum(weights * dw, axis=1, keepdims=True))
            du = np.einsum("nk,nkd->nd", dz, state["v"])
            dv = dz[:, :, None] * state["u"][:, None, :]
            d_ref[plan.valid] += du @ params.theta.T
            grads["theta"] += np.einsum("nc,nd->cd", queries, du)
            ds += np.einsum("nkd,cd->nkc", dv, params.phi)
            grads["phi"] += np.einsum("nkc,nkd->cd", samples, dv)
    # The library adds each _BLOCK of pixels' reads into the source gradient
    # in turn; summing the same blocks in the same order keeps its bits.
    ds = ds.reshape(-1, c).T
    d_src = np.zeros((src_h * src_w, c))
    step = _BLOCK * plan.k
    for lo in range(0, ds.shape[1], step):
        reads = slice(lo, lo + step)
        d_src += add_at_scatter(ds[:, reads], src_h * src_w, src_w,
                                plan.corner[reads], plan.blend[:, reads])
    grads["f_ref"] = d_ref.reshape(h, w, c)
    grads["f_src"] = d_src.reshape(src_h, src_w, c)
    return grads


def save_observations(rows, path) -> None:
    """Write (view_id, joint_id, x, y, confidence) rows as an observations CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OBS_FIELDS)
        for view_id, joint_id, x, y, confidence in rows:
            writer.writerow([int(view_id), int(joint_id), repr(float(x)), repr(float(y)),
                             repr(float(confidence))])
