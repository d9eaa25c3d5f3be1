"""DLT triangulation and a RANSAC wrapper robust to corrupted detections.

A joint's detections are two arrays: a (n, 3, 4) stack of projection
matrices and the (n, 2) pixels seen through them. The direct linear
transform stacks, per view, the rows

    x * M[2] - M[0]
    y * M[2] - M[1]

renormalized to unit length so no view dominates through its projective
scale, and takes the right singular vector of the smallest singular value.
It solves for X^ in a frame X = T X^ centered on the cameras (Hartley &
Zisserman, Multiple View Geometry, 2nd ed., section 4.4): in raw millimetres
W is a small part of that vector, and dividing by it amplifies the error.
RANSAC draws two-view minimal sets, gates by reprojection error, and
re-estimates over the winning consensus set. triangulate_joints runs it, or
a plain DLT, over many joints: the pipeline's and the CLI's one loop.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, Degenerate, NoConsensus
from .geometry import PROJECTION_W
from .metrics import read_csv


@dataclass(eq=False)
class TriangulationResult:
    point: np.ndarray  # (3,) mm
    inliers: np.ndarray  # (n,) bool
    rms_reproj: float  # pixels, over the inliers


def _norms(v: np.ndarray) -> np.ndarray:
    """Row norms of (n, d) v with the bits of 1-D np.linalg.norm (axis=1 rounds otherwise)."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def conditioning_frame(cams: np.ndarray) -> np.ndarray:
    """(4, 4) T = [[s I, c], [0, 1]] for a (n, 3, 4) camera stack.

    c is the mean of the camera centers and s their mean distance from it.
    Identity when a center lies at infinity; raises Degenerate when all
    centers coincide, as no two views then see depth.
    """
    h = np.linalg.svd(cams)[2][:, 3]
    if np.min(np.abs(h[:, 3])) < PROJECTION_W:
        return np.eye(4)
    centers = h[:, :3] / h[:, 3:]
    c = np.mean(centers, axis=0)
    s = np.mean(_norms(centers - c))
    if not s > 0.0:
        raise Degenerate("all views share one camera center")
    frame = np.diag([s, s, s, 1.0])
    frame[:3, 3] = c
    return frame


def dlt_triangulate(
    cams: np.ndarray, points: np.ndarray, frame: np.ndarray | None = None
) -> np.ndarray:
    """Least-squares 3D point from (n, 3, 4) cameras and their (n, 2) pixels, n >= 2.

    Solves with cams @ frame for X^ and returns frame @ X^; frame defaults to
    conditioning_frame(cams). Raises Degenerate when the two smallest
    singular values of the stacked system are within 1e-9 relative, i.e. the
    solution direction is ambiguous (coincident views, collinear geometry).
    """
    if len(points) < 2:
        raise ValueError("triangulation needs at least two observations")
    if frame is None:
        frame = conditioning_frame(cams)
    cams = cams @ frame
    a = (points[:, :, None] * cams[:, 2:3, :] - cams[:, :2, :]).reshape(-1, 4)
    norms = _norms(a)
    a /= np.where(norms > 0.0, norms, 1.0)[:, None]
    _, s, vt = np.linalg.svd(a)
    if s[-2] - s[-1] < 1e-9 * s[0]:
        raise Degenerate("triangulated direction is ambiguous")
    x = vt[-1]
    if abs(x[3]) < PROJECTION_W * np.linalg.norm(x):
        raise Degenerate("triangulated point lies at infinity")
    return (frame @ x)[:3] / x[3]


def reprojection_errors(cams: np.ndarray, points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(n,) pixel distances of x (mm), projected, to the detections; inf if |w| < PROJECTION_W."""
    q = cams @ np.array([x[0], x[1], x[2], 1.0])
    far = np.abs(q[:, 2]) < PROJECTION_W
    errors = _norms(q[:, :2] / np.where(far, 1.0, q[:, 2])[:, None] - points)
    errors[far] = np.inf
    return errors


def ransac_triangulate(
    cams: np.ndarray, points: np.ndarray, threshold_px: float = 5.0, iterations: int = 100,
    seed: int | np.random.SeedSequence = 0,
) -> TriangulationResult:
    """Consensus triangulation over two-view minimal sets.

    Each iteration triangulates a random pair and counts views whose
    reprojection error is strictly below threshold_px. The largest consensus
    wins, with ties broken by lower inlier RMS; the final point is a DLT
    over the winning consensus, scored once more: the result's inliers and
    RMS are that point's own. Every DLT solves in the joint's one
    conditioning_frame. Fully deterministic for a fixed seed.
    """
    n = len(points)
    if n < 2:
        raise ValueError("RANSAC needs at least two observations")
    if not (threshold_px > 0.0):
        raise ValueError("threshold must be positive")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    rng = np.random.default_rng(seed)
    frame = conditioning_frame(cams)

    best_mask, best_count, best_rms = None, 0, np.inf
    for _ in range(iterations):
        pair = rng.choice(n, size=2, replace=False)
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
        raise NoConsensus("no sampled pair produced two or more inliers")
    refined = dlt_triangulate(cams[best_mask], points[best_mask], frame)
    errors = reprojection_errors(cams, points, refined)
    inliers = errors < threshold_px
    if np.sum(inliers) < 2:
        raise NoConsensus("the refined point keeps fewer than two inliers")
    rms = float(np.sqrt(np.mean(errors[inliers] ** 2)))
    return TriangulationResult(point=refined, inliers=inliers, rms_reproj=rms)


def triangulate_joints(
    joints: Sequence[tuple[np.ndarray, np.ndarray]], threshold_px: float, iterations: int,
    seed: np.random.SeedSequence, plain: bool = False,
) -> list[TriangulationResult | str]:
    """Per (cams (n, 3, 4), pixels (n, 2)) joint, its result or the reason it has none.

    Joint j runs ransac_triangulate with seed.spawn(len(joints))[j], spawned
    whether or not it is triangulated; plain runs one DLT with every view an
    inlier. A reason is "fewer than two views" or the message of the
    Degenerate or NoConsensus that stopped the joint.
    """
    out: list[TriangulationResult | str] = []
    for (cams, pixels), child in zip(joints, seed.spawn(len(joints))):
        if len(pixels) < 2:
            out.append("fewer than two views")
            continue
        try:
            if plain:
                point = dlt_triangulate(cams, pixels)
                rms = float(np.sqrt(np.mean(reprojection_errors(cams, pixels, point) ** 2)))
                out.append(TriangulationResult(point, np.ones(len(pixels), dtype=bool), rms))
            else:
                out.append(ransac_triangulate(cams, pixels, threshold_px, iterations, child))
        except (Degenerate, NoConsensus) as exc:
            out.append(str(exc))
    return out


# -- observation files --------------------------------------------------------
#
# Header view_id, joint_id, x, y, confidence; one detection per row.

OBS_FIELDS = ("view_id", "joint_id", "x", "y", "confidence")


def load_observations(path: str | Path) -> list[tuple[int, int, float, float, float]]:
    rows = read_csv(path, "observations", [OBS_FIELDS])
    for line_no, row in rows.items():
        if not 0.0 <= row[4] <= 1.0:
            raise ConfigError(f"{path}: row {line_no}: confidence must lie in [0, 1]")
    return [tuple(row) for row in rows.values()]
