"""DLT triangulation and a RANSAC wrapper robust to corrupted detections.

The direct linear transform stacks, per observation, the rows

    x * M[2] - M[0]
    y * M[2] - M[1]

renormalized to unit length so no view dominates through its projective
scale, and takes the right singular vector of the smallest singular value.
RANSAC draws two-view minimal sets, gates by reprojection error, and
re-estimates over the winning consensus set.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AtInfinity, ConfigError, Degenerate, NoConsensus
from .geometry import PROJECTION_W, CameraView, project


@dataclass(frozen=True, eq=False)
class Observation:
    """A 2D detection of one joint in one view."""

    cam: CameraView
    p: np.ndarray  # (x, y) pixels

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=np.float64)
        if p.shape != (2,) or not np.all(np.isfinite(p)):
            raise ValueError("observation point must be a finite 2-vector")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "p", p)


@dataclass(eq=False)
class TriangulationResult:
    point: np.ndarray  # (3,) mm
    inliers: np.ndarray  # (n,) bool
    rms_reproj: float  # pixels, over the inliers


def dlt_triangulate(observations: list[Observation]) -> np.ndarray:
    """Least-squares 3D point from two or more observations.

    Raises Degenerate when the two smallest singular values of the stacked
    system are within 1e-9 relative, i.e. the solution direction is
    ambiguous (coincident views, collinear geometry).
    """
    if len(observations) < 2:
        raise ValueError("triangulation needs at least two observations")
    rows = []
    for obs in observations:
        m = obs.cam.M
        for row in (obs.p[0] * m[2] - m[0], obs.p[1] * m[2] - m[1]):
            norm = np.linalg.norm(row)
            if norm > 0.0:
                row = row / norm
            rows.append(row)
    a = np.vstack(rows)
    _, s, vt = np.linalg.svd(a)
    if s[-2] - s[-1] < 1e-9 * s[0]:
        raise Degenerate("triangulated direction is ambiguous")
    x = vt[-1]
    if abs(x[3]) < PROJECTION_W * np.linalg.norm(x):
        raise Degenerate("triangulated point lies at infinity")
    return x[:3] / x[3]


def reprojection_error(cam: CameraView, x: np.ndarray, p: np.ndarray) -> float:
    """Euclidean pixel distance between project(cam, x) and the detection p."""
    p = np.asarray(p, dtype=np.float64)
    return float(np.linalg.norm(project(cam, x) - p))


def ransac_triangulate(
    observations: list[Observation],
    threshold_px: float = 5.0,
    iterations: int = 100,
    seed: int | np.random.SeedSequence = 0,
) -> TriangulationResult:
    """Consensus triangulation over two-view minimal sets.

    Each iteration triangulates a random pair and counts observations whose
    reprojection error is strictly below threshold_px. The largest consensus
    wins, with ties broken by lower inlier RMS; the final point is a DLT
    over all inliers. Fully deterministic for a fixed seed.
    """
    n = len(observations)
    if n < 2:
        raise ValueError("RANSAC needs at least two observations")
    if not (threshold_px > 0.0):
        raise ValueError("threshold must be positive")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    rng = np.random.default_rng(seed)

    best_mask: np.ndarray | None = None
    best_count = 0
    best_rms = np.inf
    for _ in range(iterations):
        i, j = rng.choice(n, size=2, replace=False)
        try:
            x = dlt_triangulate([observations[i], observations[j]])
        except Degenerate:
            continue
        errors = _reprojection_errors(observations, x)
        mask = errors < threshold_px
        count = int(np.sum(mask))
        if count < 2:
            continue
        rms = float(np.sqrt(np.mean(errors[mask] ** 2)))
        if count > best_count or (count == best_count and rms < best_rms):
            best_mask, best_count, best_rms = mask, count, rms

    if best_mask is None:
        raise NoConsensus("no sampled pair produced two or more inliers")
    refined = dlt_triangulate([obs for obs, keep in zip(observations, best_mask) if keep])
    errors = _reprojection_errors(observations, refined)
    rms = float(np.sqrt(np.mean(errors[best_mask] ** 2)))
    return TriangulationResult(point=refined, inliers=best_mask, rms_reproj=rms)


def _reprojection_errors(observations: list[Observation], x: np.ndarray) -> np.ndarray:
    errors = np.empty(len(observations))
    for idx, obs in enumerate(observations):
        try:
            errors[idx] = reprojection_error(obs.cam, x, obs.p)
        except AtInfinity:
            errors[idx] = np.inf
    return errors


# -- observation file I/O -----------------------------------------------------
#
# CSV with header view_id, joint_id, x, y, confidence; one detection per row.

OBS_FIELDS = ("view_id", "joint_id", "x", "y", "confidence")


def load_observations(path: str | Path) -> list[tuple[int, int, float, float, float]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty observations file") from None
        if [h.strip() for h in header] != list(OBS_FIELDS):
            raise ConfigError(
                f"{path}: expected header {','.join(OBS_FIELDS)}, got {','.join(header)}"
            )
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ConfigError(f"{path}: row {line_no} must have 5 columns")
            try:
                rows.append(
                    (int(row[0]), int(row[1]), float(row[2]), float(row[3]), float(row[4]))
                )
            except ValueError as exc:
                raise ConfigError(f"{path}: row {line_no}: {exc}") from exc
            if not 0.0 <= rows[-1][4] <= 1.0:
                raise ConfigError(f"{path}: row {line_no}: confidence must lie in [0, 1]")
    if not rows:
        raise ConfigError(f"{path}: observations file has a header but no rows")
    return rows
