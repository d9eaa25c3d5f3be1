"""Projective camera algebra for calibrated multi-view rigs.

A camera is a 3x4 projection matrix M of full row rank together with the
pixel extent of its image. Integer pixel coordinates address pixel centers:
the top-left pixel center is (0, 0) and the valid sample domain is
[0, width-1] x [0, height-1]. All computation is float64.

Epipolar lines follow the pseudo-inverse construction: with C the center of
the reference camera and M' the source camera, the line in the source image
through the match of reference pixel p is

    l = [M'C]_x M' M^+ p

which factors as l = F p with F = [M'C]_x M' M^+ the fundamental matrix.
Lines are normalized to a^2 + b^2 = 1 so that l . (x, y, 1) is a signed
point-line distance in pixels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .errors import CoincidentCenters, ConfigError, DegenerateLine


# Degeneracy thresholds shared by the geometry operations:
#   RANK_REL       relative singular-value cutoff for full row rank
#   LINE_REL       |(a, b)| / |l| below which a line has no image direction
#   CENTER_REL     relative center separation below which views coincide
#   PROJECTION_W   |w| below which dehomogenization is refused
RANK_REL = 1e-12
LINE_REL = 1e-12
CENTER_REL = 1e-9
PROJECTION_W = 1e-12

# Entries kept by each camera cache below (epipole factors, rescaled cameras).
# Cameras hash by identity, so a cached camera is held, never matched by a
# reused id.
CAMERA_CACHE = 64


@dataclass(frozen=True, eq=False)
class CameraView:
    """A 3x4 projection matrix plus the pixel extent of its image."""

    M: np.ndarray
    width: int
    height: int

    def __post_init__(self) -> None:
        M = np.array(self.M, dtype=np.float64, order="C", copy=True)
        if M.shape != (3, 4):
            raise ValueError(f"projection matrix must be 3x4, got {M.shape}")
        if not np.all(np.isfinite(M)):
            raise ValueError("projection matrix has non-finite entries")
        if int(self.width) < 1 or int(self.height) < 1:
            raise ValueError("image extent must be at least 1x1 pixels")
        s = np.linalg.svd(M, compute_uv=False)
        if not s[2] > RANK_REL * s[0]:  # also rejects the zero matrix
            raise ValueError("projection matrix is rank deficient")
        M.flags.writeable = False
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "width", int(self.width))
        object.__setattr__(self, "height", int(self.height))

    # Lazy: computing both in __post_init__ made perfbench sweep's set-up, which
    # builds 840 cameras, about 20% slower. The rank check above covers both SVDs.

    @cached_property
    def center(self) -> np.ndarray:
        """Unit right null vector of M, last nonzero coordinate positive; read-only."""
        c = np.linalg.svd(self.M)[2][3]
        c = c / np.linalg.norm(c)
        nonzero = np.flatnonzero(np.abs(c) > 1e-14)
        if c[nonzero[-1]] < 0.0:
            c = -c
        c.flags.writeable = False
        return c

    @cached_property
    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudo-inverse M^+ (4x3) via the reduced SVD, read-only."""
        u, s, vt = np.linalg.svd(self.M, full_matrices=False)
        pinv = (vt.T / s) @ u.T
        pinv.flags.writeable = False
        return pinv


@dataclass(frozen=True, eq=False)
class EpipolarLine:
    """Normalized image line a x + b y + c = 0 with a^2 + b^2 = 1.

    The sign is fixed so the first nonzero of (a, b) is positive, making
    the representation unique.
    """

    l: np.ndarray

    def __post_init__(self) -> None:
        l = np.asarray(self.l, dtype=np.float64)
        if l.shape != (3,):
            raise ValueError("line must be a 3-vector")
        l = l.copy()
        l.flags.writeable = False
        object.__setattr__(self, "l", l)

    @property
    def a(self) -> float:
        return float(self.l[0])

    @property
    def b(self) -> float:
        return float(self.l[1])

    @property
    def c(self) -> float:
        return float(self.l[2])

    def distance(self, x: float, y: float) -> float:
        """Signed pixel distance from (x, y) to the line."""
        return float(self.l[0] * x + self.l[1] * y + self.l[2])


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix [v]_x with [v]_x w = v x w."""
    x, y, z = np.asarray(v, dtype=np.float64)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


@lru_cache(maxsize=CAMERA_CACHE)
def _epipole_skew(ref: CameraView, src: CameraView) -> np.ndarray:
    """[M'C]_x for the pair, the left factor of every line and of F.

    Raises CoincidentCenters when the two views share a center. Cached per
    pair, so the check runs once per pair, and a pair that fails it is never
    cached. Without it a 20,000-query sampling loop ran 11-47% (10-54 us a query) slower.
    """
    c_ref = ref.center
    c_src = src.center
    if abs(c_ref[3]) > PROJECTION_W and abs(c_src[3]) > PROJECTION_W:
        p_ref = c_ref[:3] / c_ref[3]
        p_src = c_src[:3] / c_src[3]
        scale = max(1.0, float(np.linalg.norm(p_ref)), float(np.linalg.norm(p_src)))
        if float(np.linalg.norm(p_ref - p_src)) <= CENTER_REL * scale:
            raise CoincidentCenters("reference and source cameras share a center")
    else:
        # A center at infinity: compare the unit homogeneous vectors directly.
        d = min(
            float(np.linalg.norm(c_ref - c_src)),
            float(np.linalg.norm(c_ref + c_src)),
        )
        if d <= CENTER_REL:
            raise CoincidentCenters("reference and source cameras share a center")
    s = skew(src.M @ c_ref)
    s.flags.writeable = False
    return s


def normalize_lines(lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a batch of (N, 3) lines to a^2 + b^2 = 1 with canonical sign.

    Returns (normalized, valid); rows with no image direction are flagged
    invalid and left unnormalized.
    """
    lines = np.asarray(lines, dtype=np.float64)
    ab = np.hypot(lines[:, 0], lines[:, 1])
    total = np.linalg.norm(lines, axis=1)
    valid = (total > 0.0) & (ab >= LINE_REL * total)
    safe = np.where(ab > 0.0, ab, 1.0)
    normed = lines / safe[:, None]
    a, b = normed[:, 0], normed[:, 1]
    sign = np.where(a != 0.0, np.sign(a), np.sign(b))
    sign = np.where(sign == 0.0, 1.0, sign)
    return normed * sign[:, None], valid


def normalize_line(l: np.ndarray) -> EpipolarLine:
    """Normalize a single line; raises DegenerateLine when |(a, b)| ~ 0.

    Plain-float twin of normalize_lines, equal to its row bit for bit on
    finite lines: the per-query path calls this once per pixel, where the
    dispatch cost of the batch kernel would dominate.
    """
    arr = np.asarray(l, dtype=np.float64)
    if arr.shape != (3,):
        raise ValueError("line must be a 3-vector")
    a, b, c = arr.tolist()
    # np.hypot, not math.hypot: the two differ in the last bit.
    ab = float(np.hypot(a, b))
    total = math.sqrt(a * a + b * b + c * c)
    if not (total > 0.0 and ab >= LINE_REL * total):
        raise DegenerateLine("line has no direction in the image plane")
    a, b, c = a / ab, b / ab, c / ab
    if a < 0.0 or (a == 0.0 and b < 0.0):
        a, b, c = -a, -b, -c
    return EpipolarLine(np.array([a, b, c]))


def epipolar_line(ref: CameraView, src: CameraView, p: np.ndarray) -> EpipolarLine:
    """Epipolar line in the source image for reference pixel p = (x, y)."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (2,):
        raise ValueError("pixel must be an (x, y) 2-vector")
    l = _epipole_skew(ref, src) @ (src.M @ (ref.pinv @ np.array([p[0], p[1], 1.0])))
    return normalize_line(l)


def fundamental_matrix(ref: CameraView, src: CameraView) -> np.ndarray:
    """Fundamental matrix mapping reference pixels to source lines, l = F p.

    Rank 2 by construction; returned unnormalized (lines from it should be
    passed through normalize_line before use as distances).
    """
    return _epipole_skew(ref, src) @ src.M @ ref.pinv


def apply_affine_to_camera(
    cam: CameraView,
    a: np.ndarray,
    b: np.ndarray,
    new_width: int,
    new_height: int,
) -> CameraView:
    """Camera for an affinely warped image, x_new = A x_old + b.

    Left-multiplies M by the homogeneous affine update so projecting through
    the new camera equals warping the old projection. The camera center is
    untouched.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != (2, 2) or b.shape != (2,):
        raise ValueError("affine update needs a 2x2 matrix and a 2-vector")
    if abs(float(np.linalg.det(a))) < 1e-12:
        raise ValueError("affine image transform is singular")
    t = np.array(
        [
            [a[0, 0], a[0, 1], b[0]],
            [a[1, 0], a[1, 1], b[1]],
            [0.0, 0.0, 1.0],
        ]
    )
    return CameraView(t @ cam.M, new_width, new_height)


def rescale_camera(cam: CameraView, s_x: float, s_y: float) -> CameraView:
    """Camera for an image downsampled s_x times in x and s_y times in y.

    Pixel centers stay aligned: old pixel x maps to (x + 0.5) / s_x - 0.5,
    so e.g. s_x = 2 sends old x = 0.5 to new x = 0. Width and height are
    divided by the scale and rounded down.
    """
    s_x = float(s_x)
    s_y = float(s_y)
    if s_x <= 0.0 or s_y <= 0.0:
        raise ValueError("scale factors must be positive")
    # The epsilon absorbs float noise in ratios like 10 / (10 / 5).
    new_w = int(np.floor(cam.width / s_x + 1e-9))
    new_h = int(np.floor(cam.height / s_y + 1e-9))
    if new_w < 1 or new_h < 1:
        raise ValueError("scale exceeds the image extent")
    offsets = np.array([(1.0 - s_x) / (2.0 * s_x), (1.0 - s_y) / (2.0 * s_y)])
    return apply_affine_to_camera(cam, np.diag([1.0 / s_x, 1.0 / s_y]), offsets, new_w, new_h)


def camera_at_resolution(cam: CameraView, width: int, height: int) -> CameraView:
    """The camera of a width x height map of cam's image.

    Returns cam itself when the sizes already match; otherwise rescales it
    by the ratio of the sizes. Rescaled cameras are cached by (cam, width,
    height), so repeated calls share one and its own caches: per-query
    sampling of a 32x32 map of a 64x64 camera took 220 us a query without it, 122 with.
    """
    if (cam.width, cam.height) == (width, height):
        return cam
    return _rescaled(cam, width, height)


@lru_cache(maxsize=CAMERA_CACHE)
def _rescaled(cam: CameraView, width: int, height: int) -> CameraView:
    return rescale_camera(cam, cam.width / width, cam.height / height)


# -- camera file I/O ---------------------------------------------------------
#
# A camera is stored as {"M": [12 row-major floats], "width": w, "height": h};
# a rig file is a JSON array of such objects. Floats round-trip exactly via
# repr.


def camera_to_dict(cam: CameraView) -> dict:
    return {
        "M": [float(v) for v in cam.M.ravel()],
        "width": cam.width,
        "height": cam.height,
    }


def camera_from_dict(obj: dict) -> CameraView:
    if not isinstance(obj, dict):
        raise ConfigError("camera entry must be a JSON object")
    for key in ("M", "width", "height"):
        if key not in obj:
            raise ConfigError(f"camera entry missing key '{key}'")
    m = obj["M"]
    if not isinstance(m, list) or len(m) != 12:
        raise ConfigError("camera key 'M' must hold 12 row-major numbers")
    for key in ("width", "height"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise ConfigError(f"camera key '{key}' must be an integer")
    try:
        mat = np.asarray(m, dtype=np.float64).reshape(3, 4)
        return CameraView(mat, obj["width"], obj["height"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid camera entry: {exc}") from exc


def load_rig_file(path: str | Path) -> list[CameraView]:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, list):
        raise ConfigError("rig file must be a JSON array of cameras")
    return [camera_from_dict(entry) for entry in obj]


def rig_to_json(cameras: list[CameraView]) -> str:
    return json.dumps([camera_to_dict(c) for c in cameras], indent=2) + "\n"
