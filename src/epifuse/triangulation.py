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
The DLT and the reprojection errors broadcast over leading axes, one system
per item with the bits of an unbatched call; a NaN row marks a system with
no solution. RANSAC tries every two-view minimal set when there are no more
than its iterations, and draws that many otherwise; it solves each block of
sets with one DLT call and scores it with one error matrix, gates by
reprojection error, and re-estimates over the winning consensus set.
triangulate_joints runs it, or a plain DLT, over many joints: the
pipeline's and the CLI's one loop.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, Degenerate, NoConsensus
from .geometry import CENTER_REL, PROJECTION_W
from .metrics import read_csv


@dataclass(eq=False)
class TriangulationResult:
    point: np.ndarray  # (3,) mm
    inliers: np.ndarray  # (n,) bool
    rms_reproj: float  # pixels, over the inliers


# Minimal pairs per RANSAC block: one DLT call and one (P, n) error matrix
# each, so memory stays bounded whatever the iteration count.
_BLOCK = 1024


def _norms(v: np.ndarray) -> np.ndarray:
    """Norms over v's last axis with the bits of 1-D np.linalg.norm (axis=-1 rounds otherwise)."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def conditioning_frame(cams: np.ndarray) -> np.ndarray:
    """(4, 4) T = [[s I, c], [0, 1]] for a (n, 3, 4) camera stack.

    c is the mean of the camera centers and s their mean distance from it.
    Identity when a center lies at infinity; raises Degenerate when all
    centers coincide, as no two views then see depth: when s is at most
    CENTER_REL of the largest center norm (or of 1 mm).
    """
    h = np.linalg.svd(cams)[2][:, 3]
    if np.min(np.abs(h[:, 3])) < PROJECTION_W:
        return np.eye(4)
    centers = h[:, :3] / h[:, 3:]
    c = np.mean(centers, axis=0)
    s = np.mean(_norms(centers - c))
    if s <= CENTER_REL * max(1.0, float(np.max(_norms(centers)))):
        raise Degenerate("all views share one camera center")
    frame = np.diag([s, s, s, 1.0])
    frame[:3, 3] = c
    return frame


def dlt_triangulate(
    cams: np.ndarray, points: np.ndarray, frame: np.ndarray | None = None
) -> np.ndarray:
    """Least-squares 3D points from (..., n, 3, 4) cameras and their (..., n, 2) pixels, n >= 2.

    Returns (..., 3): one DLT per leading index, each with the bits of an
    unbatched call. Solves with cams @ frame for X^ and returns frame @ X^;
    frame defaults to conditioning_frame(cams) of an unbatched stack. A
    system has no solution when the two smallest singular values of its
    stacked rows are within 1e-9 relative, i.e. the solution direction is
    ambiguous (coincident views, collinear geometry), or when X^ lies at
    infinity; its row is NaN. Raises Degenerate, with the first system's
    reason, only when no system has a solution.
    """
    if points.shape[-2] < 2:
        raise ValueError("triangulation needs at least two observations")
    if frame is None:
        frame = conditioning_frame(cams)
    cams = cams @ frame
    a = points[..., None] * cams[..., 2:3, :] - cams[..., :2, :]
    a = a.reshape(*a.shape[:-3], -1, 4)
    norms = _norms(a)
    a /= np.where(norms > 0.0, norms, 1.0)[..., None]
    _, s, vt = np.linalg.svd(a)
    x = vt[..., -1, :]
    ambiguous = s[..., -2] - s[..., -1] < 1e-9 * s[..., 0]
    none = ambiguous | (np.abs(x[..., 3]) < PROJECTION_W * _norms(x))
    if np.all(none):
        raise Degenerate("triangulated direction is ambiguous" if ambiguous.flat[0]
                         else "triangulated point lies at infinity")
    x = np.where(none[..., None], np.nan, x)
    return (frame @ x[..., None])[..., :3, 0] / x[..., 3:]


def reprojection_errors(cams: np.ndarray, points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(..., n) pixel distances of (..., 3) points x (mm), projected, to the (n, 2) detections.

    inf where |w| < PROJECTION_W; NaN for a NaN point. Each row has the bits
    of an unbatched call.
    """
    xh = np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)
    q = (cams @ xh[..., None, :, None])[..., 0]
    far = np.abs(q[..., 2]) < PROJECTION_W
    errors = _norms(q[..., :2] / np.where(far, 1.0, q[..., 2])[..., None] - points)
    errors[far] = np.inf
    return errors


def ransac_triangulate(
    cams: np.ndarray, points: np.ndarray, threshold_px: float = 5.0, iterations: int = 100,
    seed: int | np.random.SeedSequence = 0,
) -> TriangulationResult:
    """Consensus triangulation over two-view minimal sets.

    When the n views have at most iterations pairs, every pair (i, j), i < j,
    is tried in lexicographic order and the seed is not used; otherwise
    iterations random pairs are drawn. Each pair is triangulated and scores
    the views whose reprojection error is strictly below threshold_px. The
    largest consensus wins, with ties broken by lower inlier RMS, then by
    the earlier pair; the final point is a DLT over the winning consensus,
    scored once more: the result's inliers and RMS are that point's own.
    The pairs are listed up front, _BLOCK at a time (no draw depends on a
    result); each block is solved with one dlt_triangulate call and scored
    with one error matrix. Every DLT solves in the joint's one
    conditioning_frame. Fully deterministic for a fixed seed.
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
        every = np.stack(np.triu_indices(n, 1), axis=1)
        blocks = (every[lo : lo + _BLOCK] for lo in range(0, len(every), _BLOCK))
    else:
        rng = np.random.default_rng(seed)
        blocks = (np.array([rng.choice(n, size=2, replace=False)
                            for _ in range(min(_BLOCK, iterations - start))])
                  for start in range(0, iterations, _BLOCK))

    best_mask, best_count, best_rms = None, 0, np.inf
    for pairs in blocks:
        mask, count, rms = _block_best(cams, points, pairs, frame, threshold_px)
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


def _block_best(
    cams: np.ndarray, points: np.ndarray, pairs: np.ndarray, frame: np.ndarray,
    threshold_px: float,
) -> tuple[np.ndarray | None, int, float]:
    """(inlier mask, count, RMS) of the best of the (P, 2) pairs.

    Best is the most inliers, then the lowest inlier RMS, then the first;
    (None, 0, inf) when no pair has two inliers. The block's arrays die on
    return, so a RANSAC peaks at one block's size.
    """
    try:
        x = dlt_triangulate(cams[pairs], points[pairs], frame)
    except Degenerate:
        return None, 0, np.inf
    errors = reprojection_errors(cams, points, x)
    masks = errors < threshold_px
    counts = np.sum(masks, axis=1)
    count = int(np.max(counts))
    if count < 2:
        return None, 0, np.inf
    rows = np.flatnonzero(counts == count)
    rms = np.sqrt(np.mean(errors[rows][masks[rows]].reshape(-1, count) ** 2, axis=1))
    i = int(np.argmin(rms))
    return masks[rows[i]].copy(), count, float(rms[i])


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
