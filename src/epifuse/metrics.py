"""Heatmap peak readout, pose accuracy metrics, and pose files.

Peak readout is an integer argmax refined by a quarter-pixel shift toward
the larger immediate neighbor along each axis, the standard decoding for
MSE-trained heatmap regressors.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, LengthMismatch


def argmax_peak(heatmap: np.ndarray) -> tuple[tuple[float, float], float]:
    """Sub-pixel peak location and its confidence (the peak value).

    The integer argmax resolves ties toward the lowest row, then column.
    Along each axis the location then shifts a quarter pixel toward the
    larger immediate neighbor; border peaks and exact neighbor ties do not
    shift.
    """
    h = np.asarray(heatmap, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError("heatmap must be 2-D")
    rows, cols = h.shape
    flat = int(np.argmax(h))
    y, x = divmod(flat, cols)
    confidence = float(h[y, x])
    xr = float(x)
    yr = float(y)
    if 0 < x < cols - 1:
        xr += 0.25 * float(np.sign(h[y, x + 1] - h[y, x - 1]))
    if 0 < y < rows - 1:
        yr += 0.25 * float(np.sign(h[y + 1, x] - h[y - 1, x]))
    return (xr, yr), confidence


def mpjpe(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean Euclidean distance between two (J, D) point sets, row by row."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.ndim != 2 or pred.shape != gt.shape:
        raise LengthMismatch(f"pose shapes differ: {pred.shape} vs {gt.shape}")
    if not len(pred):
        raise ValueError("no joints to average over")
    return float(np.mean(np.linalg.norm(pred - gt, axis=1)))


def jdr(
    pred: np.ndarray, gt: np.ndarray, head_sizes: float | np.ndarray
) -> float:
    """Joint detection rate: percent of joints within half a head size.

    The comparison is strict (distance < 0.5 * head size), so a detection
    exactly on the boundary does not count. head_sizes may be a scalar or a
    per-joint array.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.ndim != 2 or pred.shape[1] not in (2, 3):
        raise LengthMismatch(f"expected (J, 2) or (J, 3) points, got {pred.shape}")
    if pred.shape != gt.shape:
        raise LengthMismatch(f"pose shapes differ: {pred.shape} vs {gt.shape}")
    heads = np.broadcast_to(np.asarray(head_sizes, dtype=np.float64), (pred.shape[0],))
    if np.any(heads <= 0.0):
        raise ValueError("head sizes must be positive")
    d = np.linalg.norm(pred - gt, axis=1)
    return float(100.0 * np.mean(d < 0.5 * heads))


# -- pose file I/O ------------------------------------------------------------
#
# CSV with header joint_id, x, y[, z], confidence; one joint per row. The z
# column is present for 3D poses and absent for 2D ones.


def save_pose_csv(
    joint_ids: Sequence[int],
    points: np.ndarray,
    confidences: Sequence[float],
    path: str | Path,
) -> None:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] not in (2, 3):
        raise ValueError("points must be (J, 2) or (J, 3)")
    dims = points.shape[1]
    header = ["joint_id", "x", "y", "z", "confidence"] if dims == 3 else [
        "joint_id", "x", "y", "confidence"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for jid, pt, conf in zip(joint_ids, points, confidences):
            writer.writerow([int(jid)] + [repr(float(v)) for v in pt] + [repr(float(conf))])


def load_pose_csv(path: str | Path) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Returns (joint_ids, points (J, 2 or 3), confidences)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ConfigError(f"{path}: empty pose file") from None
        if header == ["joint_id", "x", "y", "z", "confidence"]:
            dims = 3
        elif header == ["joint_id", "x", "y", "confidence"]:
            dims = 2
        else:
            raise ConfigError(f"{path}: unrecognized pose header {','.join(header)}")
        ids: list[int] = []
        pts: list[list[float]] = []
        confs: list[float] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dims + 2:
                raise ConfigError(f"{path}: row {line_no} must have {dims + 2} columns")
            try:
                ids.append(int(row[0]))
                pts.append([float(v) for v in row[1 : 1 + dims]])
                confs.append(float(row[-1]))
            except ValueError as exc:
                raise ConfigError(f"{path}: row {line_no}: {exc}") from exc
    return ids, np.asarray(pts, dtype=np.float64), np.asarray(confs, dtype=np.float64)
