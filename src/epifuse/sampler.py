"""Sampling image features along epipolar lines.

The sampler clips an epipolar line to the image rectangle, spreads K
endpoint-inclusive sample locations over the clipped segment, and reads
feature vectors at those locations with bilinear interpolation. A query
whose line misses the image entirely is skipped (None), mirroring how the
fusion stage passes such pixels through untouched.

One rule, segment_reads, turns clipped segments into reads. The dense
SamplingPlan applies it to every reference pixel of a view pair at once,
and epipolar_samples to the one segment of a single query.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegenerateLine
from .geometry import (
    CameraView,
    EpipolarLine,
    camera_at_resolution,
    epipolar_line,
    fundamental_matrix,
    normalize_lines,
)

FMAP_MAGIC = b"FMAP"

# Reference pixels whose lines _segments computes and clips together, and
# whose reads a plan builds together. Any chunk gives a segment or a read the
# same bits; these bound the temporaries (a pixel has K reads).
_SEGMENT_CHUNK = 4096
_READ_CHUNK = 1024


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Dense (H, W, C) float64 feature grid, read-only after construction.

    Axis order is (y, x, channel); H and W must be at least 2 so bilinear
    interpolation always has four distinct corners available.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        self._take(np.array(self.data, dtype=np.float64, order="C", copy=True))

    @classmethod
    def _adopt(cls, data: np.ndarray) -> FeatureMap:
        """A map over data, a new C-ordered float64 array that nothing else holds, uncopied."""
        fmap = object.__new__(cls)
        fmap._take(data)
        return fmap

    def _take(self, data: np.ndarray) -> None:
        if data.ndim != 3:
            raise ValueError(f"feature map must be (H, W, C), got {data.shape}")
        h, w, c = data.shape
        if h < 2 or w < 2:
            raise ValueError("feature map needs H >= 2 and W >= 2")
        if c < 1:
            raise ValueError("feature map needs at least one channel")
        if not np.all(np.isfinite(data)):
            raise ValueError("feature map has non-finite entries")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True, eq=False)
class EpipolarSampleSet:
    """K locations on a clipped epipolar line plus their feature rows."""

    locations: np.ndarray  # (K, 2)
    features: np.ndarray  # (K, C)

    def __post_init__(self) -> None:
        loc = np.asarray(self.locations, dtype=np.float64)
        feat = np.asarray(self.features, dtype=np.float64)
        if loc.ndim != 2 or loc.shape[1] != 2 or loc.shape[0] < 1:
            raise ValueError("locations must be (K, 2) with K >= 1")
        if feat.shape[0] != loc.shape[0]:
            raise ValueError("locations and features disagree on K")
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "features", feat)

    @property
    def k(self) -> int:
        return self.locations.shape[0]


def clip_lines(lines: np.ndarray, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Clip normalized lines to the rect [0, W-1] x [0, H-1], batched.

    Returns (valid, endpoints) where endpoints is (N, 4) as x0, y0, x1, y1
    ordered by increasing x then y. Rows that miss the rect are invalid.
    """
    lines = np.asarray(lines, dtype=np.float64)
    a, b, c = lines[:, 0], lines[:, 1], lines[:, 2]
    # Closest point to the origin and the unit direction along the line.
    px, py = -a * c, -b * c
    dx, dy = -b, a
    x_hi, y_hi = float(width - 1), float(height - 1)

    t0 = np.full(len(lines), -np.inf)
    t1 = np.full(len(lines), np.inf)
    ok = np.ones(len(lines), dtype=bool)
    for d, p, hi in ((dx, px, x_hi), (dy, py, y_hi)):
        parallel = d == 0.0
        ok &= ~parallel | ((p >= 0.0) & (p <= hi))
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (0.0 - p) / d
            tb = (hi - p) / d
        lo = np.minimum(ta, tb)
        hi_t = np.maximum(ta, tb)
        t0 = np.where(parallel, t0, np.maximum(t0, lo))
        t1 = np.where(parallel, t1, np.minimum(t1, hi_t))
    ok &= t0 <= t1

    ex0 = np.clip(px + t0 * dx, 0.0, x_hi)
    ey0 = np.clip(py + t0 * dy, 0.0, y_hi)
    ex1 = np.clip(px + t1 * dx, 0.0, x_hi)
    ey1 = np.clip(py + t1 * dy, 0.0, y_hi)
    swap = (ex0 > ex1) | ((ex0 == ex1) & (ey0 > ey1))
    end = np.stack(
        [
            np.where(swap, ex1, ex0),
            np.where(swap, ey1, ey0),
            np.where(swap, ex0, ex1),
            np.where(swap, ey0, ey1),
        ],
        axis=1,
    )
    return ok, end


def clip_line_to_image(
    line: EpipolarLine | np.ndarray, width: int, height: int
) -> np.ndarray | None:
    """(4,) ends x0, y0, x1, y1 of a normalized line inside the image rect, or None.

    Plain-float twin of clip_lines, equal to its row bit for bit: the same
    slab clipping, parallel-line, miss, clamp and endpoint-order rules, with
    ties broken as np.minimum / np.maximum break them. A line with a
    non-finite coefficient misses. The twin exists for speed: a single query
    clipped through clip_lines (or planned through _segments) pays the batch
    kernels' dispatch on one row, which made the per-query sampling loop of
    release-gate criterion 1 take 4.1-6.6 s against its 5 s budget, up from
    1.8-3.1 s (2-vCPU machine). normalize_line is kept for the same reason.
    """
    arr = line.l if isinstance(line, EpipolarLine) else np.asarray(line, dtype=np.float64)
    a, b, c = arr.tolist()
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        return None
    px, py = -a * c, -b * c
    dx, dy = -b, a
    x_hi, y_hi = float(width - 1), float(height - 1)

    t0, t1 = -math.inf, math.inf
    for d, p, hi in ((dx, px, x_hi), (dy, py, y_hi)):
        if d == 0.0:
            if not 0.0 <= p <= hi:
                return None
            continue
        ta = (0.0 - p) / d
        tb = (hi - p) / d
        lo = ta if ta < tb else tb
        hi_t = ta if ta > tb else tb
        t0 = t0 if t0 > lo else lo
        t1 = t1 if t1 < hi_t else hi_t
    if not t0 <= t1:
        return None

    ex0 = min(max(px + t0 * dx, 0.0), x_hi)
    ey0 = min(max(py + t0 * dy, 0.0), y_hi)
    ex1 = min(max(px + t1 * dx, 0.0), x_hi)
    ey1 = min(max(py + t1 * dy, 0.0), y_hi)
    if ex0 > ex1 or (ex0 == ex1 and ey0 > ey1):
        return np.array([ex1, ey1, ex0, ey0])
    return np.array([ex0, ey0, ex1, ey1])


def sample_parameters(k: int) -> np.ndarray:
    """Endpoint-inclusive parameters t_i = i / (K - 1); K = 1 is the midpoint."""
    if k < 1:
        raise ValueError("K must be at least 1")
    if k == 1:
        return np.array([0.5])
    return np.arange(k, dtype=np.float64) / (k - 1)


def bilinear_plan(height: int, width: int, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corner indices and blend weights for clamp-to-border bilinear reads.

    Points are clamped into [0, W-1] x [0, H-1] first, so out-of-range
    queries replicate the border row or column. Returns (corner, blend):
    corner is the row-major flat index y0*W + x0 of each read's top-left
    corner, and blend is (4, N), the weights of the corners at offsets
    0, 1, W and W+1 from it (w00, w10, w01, w11).
    """
    points = np.asarray(points, dtype=np.float64)
    # np.maximum(0.0, v) keeps v on a tie, as np.clip does, so -0.0 stays
    # -0.0. floor(x) >= 0 once x is clamped: x0 and y0 need no lower clamp.
    # Temporaries are written in place, because a dense plan holds millions
    # of reads. blend comes first and holds the floors until the weights
    # overwrite it; allocated last, it let glibc trim and re-fault the heap
    # on every small dense plan (3.7x the page faults at 64x64, K=16).
    blend = np.empty((4, len(points)))
    x = np.maximum(0.0, points[:, 0])
    np.minimum(x, float(width - 1), out=x)
    y = np.maximum(0.0, points[:, 1])
    np.minimum(y, float(height - 1), out=y)
    x0 = np.minimum(np.floor(x, out=blend[0]), float(width - 2), out=blend[0]).astype(np.intp)
    y0 = np.minimum(np.floor(y, out=blend[1]), float(height - 2), out=blend[1]).astype(np.intp)
    fx = np.subtract(x, x0, out=x)
    fy = np.subtract(y, y0, out=y)
    corner = np.multiply(y0, width, out=y0)
    corner += x0
    gx = np.subtract(1.0, fx, out=blend[2])
    gy = np.subtract(1.0, fy, out=blend[1])
    np.multiply(gx, gy, out=blend[0])
    np.multiply(fx, gy, out=blend[1])
    np.multiply(gx, fy, out=blend[2])
    np.multiply(fx, fy, out=blend[3])
    return corner, blend


def _corner_index(corner: np.ndarray, width: int) -> np.ndarray:
    """(4, N) flat indices of the four corners of every read."""
    return corner + np.array([0, 1, width, width + 1], dtype=np.intp)[:, None]


def bilinear_gather(
    flat: np.ndarray, width: int, corner: np.ndarray, blend: np.ndarray
) -> np.ndarray:
    """(N, C) bilinear reads of a row-major (H*W, C) map from a bilinear_plan.

    The top-left corners are gathered straight into the result and the other
    three into one stack, then blended in place in the fixed order
    w00*a + w10*b + w01*c + w11*d. The result owns its memory, so it keeps
    no corner stack alive, and no pass over it is spent on a copy.
    """
    index = _corner_index(corner, width)
    s = np.take(flat, index[0], axis=0)
    s *= blend[0][:, None]
    g = np.take(flat, index[1:], axis=0)
    g *= blend[1:, :, None]
    s += g[0]
    s += g[1]
    s += g[2]
    return s


def bilinear_scatter(
    grad: np.ndarray, out: np.ndarray, width: int, corner: np.ndarray, blend: np.ndarray
) -> None:
    """Adjoint of bilinear_gather: add channel-major (C, N) read gradients into out.

    out is a channel-major (C, H*W) map. Each channel, one contiguous row of
    grad, is one segment sum over the corners in plan order (all top-left
    corners first, then right, lower, lower-right), added to out's row in
    place, so every map pixel adds its contributions in a fixed order.
    """
    index = _corner_index(corner, width).ravel()
    weighted = np.empty_like(blend)
    for row, acc in zip(grad, out):
        np.multiply(blend, row, out=weighted)
        acc += np.bincount(index, weighted.ravel(), minlength=len(acc))


def bilinear_many(fmap: FeatureMap, points: np.ndarray) -> np.ndarray:
    """(N, C) bilinear reads at (N, 2) pixel locations."""
    corner, blend = bilinear_plan(fmap.height, fmap.width, points)
    flat = fmap.data.reshape(fmap.height * fmap.width, fmap.channels)
    return bilinear_gather(flat, fmap.width, corner, blend)


def segment_reads(
    ends: np.ndarray, k: int, src_hw: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(locations, corner, blend) of K reads along each (x0, y0, x1, y1) segment.

    The one sampling rule: locations is (n, K, 2), p0 + t_i (p1 - p0) for
    sample_parameters' t_i, and corner and blend are its bilinear_plan in
    segment order.
    """
    t = sample_parameters(k)
    p0 = ends[:, :2]
    d = ends[:, 2:] - p0
    locations = t[None, :, None] * d[:, None, :]
    locations += p0[:, None, :]
    corner, blend = bilinear_plan(*src_hw, locations.reshape(-1, 2))
    return locations, corner, blend


@dataclass(eq=False)
class SamplingPlan:
    """Geometry of a dense forward pass: one epipolar segment per pixel.

    valid flags the reference pixels (row-major) whose line intersects the
    source map, and ends holds their clipped segments. Their reads' corner
    and blend (segment_reads, K reads per pixel in pixel order: 5 values a
    read) are built on first use, which an unrecorded pass at a zero W_z
    never makes, _READ_CHUNK pixels at a time into the final arrays.
    Built once per view pair, the plan is reusable across any feature or
    parameter values at the same resolutions, and it is all the memory an
    unrecorded forward pass holds besides one block of samples.
    """

    ref_hw: tuple[int, int]
    src_hw: tuple[int, int]
    k: int
    valid: np.ndarray  # (H*W,) bool
    ends: np.ndarray  # (n_valid, 4) segment x0, y0, x1, y1

    @cached_property
    def _bilinear(self) -> tuple[np.ndarray, np.ndarray]:
        # Each read's arithmetic is elementwise: a chunk's reads have the same bits alone.
        n = len(self.ends) * self.k
        corner, blend = np.empty(n, dtype=np.intp), np.empty((4, n))
        for lo in range(0, len(self.ends), _READ_CHUNK):
            part = segment_reads(self.ends[lo : lo + _READ_CHUNK], self.k, self.src_hw)
            rows = slice(lo * self.k, lo * self.k + len(part[1]))
            corner[rows], blend[:, rows] = part[1:]
        return corner, blend

    corner = property(lambda self: self._bilinear[0], doc="(n_valid*K,) flat top-left corners")
    blend = property(lambda self: self._bilinear[1], doc="(4, n_valid*K) corner weights")


def plan_epipolar_sampling(
    ref: CameraView,
    src: CameraView,
    ref_hw: tuple[int, int],
    src_hw: tuple[int, int],
    k: int = 64,
) -> SamplingPlan:
    """Clipped epipolar segments of every reference pixel at once.

    Cameras at a different resolution than the requested map shapes are
    rescaled first, exactly as epipolar_samples does per query.
    """
    ys, xs = np.indices(ref_hw, dtype=np.float64).reshape(2, -1)
    valid, ends = _segments(ref, src, ref_hw, src_hw, xs, ys)
    return SamplingPlan(tuple(ref_hw), tuple(src_hw), k, valid, ends)


def _segments(ref, src, ref_hw, src_hw, xs, ys):
    """(valid, clipped segment ends of the valid ones) of the pixels (xs, ys).

    Built _SEGMENT_CHUNK pixels at a time; a segment has the same bits in any chunk.
    """
    src_h, src_w = src_hw
    ref = camera_at_resolution(ref, ref_hw[1], ref_hw[0])
    src = camera_at_resolution(src, src_w, src_h)
    f = fundamental_matrix(ref, src)

    parts = []
    for i in range(0, max(len(xs), 1), _SEGMENT_CHUNK):
        x, y = xs[i : i + _SEGMENT_CHUNK], ys[i : i + _SEGMENT_CHUNK]
        pixels = np.stack([x, y, np.ones_like(x)], axis=1)
        # A one-row matmul takes BLAS's matrix-vector path and rounds otherwise:
        # multiply a lone pixel as a pair and keep row 0.
        rows = np.repeat(pixels, 2, axis=0) if len(pixels) == 1 else pixels
        lines, line_ok = normalize_lines((rows @ f.T)[: len(pixels)])
        clip_ok, ends = clip_lines(lines, src_w, src_h)
        valid = line_ok & clip_ok
        parts.append((valid, ends[valid]))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _plan_pixels(ref, src, ref_hw, src_hw, xs, ys, k):
    """(valid, locations, corner, blend) of the pixels (xs, ys), with a plan's bits."""
    valid, ends = _segments(ref, src, ref_hw, src_hw, xs, ys)
    return (valid, *segment_reads(ends, k, src_hw))


def epipolar_samples(
    f_src: FeatureMap,
    ref: CameraView,
    src: CameraView,
    p: np.ndarray,
    k: int = 64,
) -> EpipolarSampleSet | None:
    """Sample the source map along the epipolar line of reference pixel p.

    When the source map is at a different resolution than the source camera
    the camera is rescaled to map resolution first, keeping one coordinate
    frame for lines, locations, and reads. Returns None when the line is
    degenerate or misses the map.
    """
    src = camera_at_resolution(src, f_src.width, f_src.height)
    try:
        line = epipolar_line(ref, src, p)
    except DegenerateLine:
        return None
    ends = clip_line_to_image(line, f_src.width, f_src.height)
    if ends is None:
        return None
    locations, corner, blend = segment_reads(ends[None], k, (f_src.height, f_src.width))
    flat = f_src.data.reshape(f_src.height * f_src.width, f_src.channels)
    return EpipolarSampleSet(locations[0], bilinear_gather(flat, f_src.width, corner, blend))


# -- feature map file I/O ----------------------------------------------------
#
# Binary layout: magic "FMAP", then u32 little-endian H, W, C, then H*W*C
# float32 little-endian values in row-major (y, x, c) order.


def save_feature_map(fmap: FeatureMap, path: str | Path) -> None:
    header = FMAP_MAGIC + struct.pack("<III", fmap.height, fmap.width, fmap.channels)
    Path(path).write_bytes(header + fmap.data.astype("<f4").tobytes())


def load_feature_map(path: str | Path) -> FeatureMap:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != FMAP_MAGIC:
        raise ConfigError(f"{path}: not a feature map file (bad magic)")
    h, w, c = struct.unpack("<III", raw[4:16])
    expected = 16 + 4 * h * w * c
    if len(raw) != expected:
        raise ConfigError(
            f"{path}: truncated feature map, expected {expected} bytes got {len(raw)}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=16).astype(np.float64)
    return FeatureMap(data.reshape(h, w, c))
