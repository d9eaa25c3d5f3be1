"""Correctness checks on the outputs of the benchmark's operations.

Each check raises CheckFailed when an output is wrong. A check compares
against a construction written out here, not against the library's own
helpers, or tests a property the method must have.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    """An operation returned a wrong output."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- query: epipolar geometry, bilinear reads, attention weights ---------------


def epipolar_line_through(ref_m: np.ndarray, src_m: np.ndarray, p) -> np.ndarray:
    """Source-image line (a, b, c), a^2 + b^2 = 1, of reference pixel p.

    With M = [A | b] the reference ray through p passes through the camera
    center -A^-1 b and the point at infinity A^-1 (px, py, 1); the line joins
    their two images in the source camera. The library instead goes through
    the pseudo-inverse and the fundamental matrix.
    """
    a, b = ref_m[:, :3], ref_m[:, 3]
    center = -np.linalg.solve(a, b)
    direction = np.linalg.solve(a, np.array([p[0], p[1], 1.0]))
    epipole = src_m @ np.append(center, 1.0)
    vanishing = src_m[:, :3] @ direction
    line = np.cross(epipole, vanishing)
    return line / math.hypot(line[0], line[1])


def _to_camera_frame(points: np.ndarray, scale: float) -> np.ndarray:
    # A map downsampled `scale` times keeps pixel centers aligned:
    # map x = (camera x + 0.5) / scale - 0.5.
    return (points + 0.5) * scale - 0.5


def check_same_line(line: np.ndarray, expected: np.ndarray, tol: float = 1e-9) -> None:
    """Equal normalized lines up to sign, to tol relative to |c|."""
    diff = min(np.max(np.abs(line - expected)), np.max(np.abs(line + expected)))
    require(
        diff <= tol * max(1.0, abs(float(expected[2]))),
        f"epipolar line differs from the construction by {diff:.3e}",
    )


def check_samples_on_line(
    locations: np.ndarray, line: np.ndarray, width: int, height: int, scale: float,
    tol: float = 1e-6,
) -> float:
    """Every sample lies on the camera-frame line and inside the map.

    locations are in map pixels; distances are reported in map pixels.
    """
    cam = _to_camera_frame(locations, scale)
    worst = float(np.max(np.abs(cam @ line[:2] + line[2]))) / scale
    require(worst <= tol, f"a sample lies {worst:.3e} px off its epipolar line")
    x, y = locations[:, 0], locations[:, 1]
    inside = (x >= -tol) & (x <= width - 1 + tol) & (y >= -tol) & (y <= height - 1 + tol)
    require(bool(np.all(inside)), "a sample lies outside the feature map")
    return worst


def check_line_misses(
    line: np.ndarray, width: int, height: int, scale: float, margin: float = 1e-6
) -> None:
    """A skipped query's line must not cross the map rectangle."""
    corners = np.array(
        [[0.0, 0.0], [width - 1.0, 0.0], [0.0, height - 1.0], [width - 1.0, height - 1.0]]
    )
    side = (_to_camera_frame(corners, scale) @ line[:2] + line[2]) / scale
    require(
        bool(np.all(side > -margin) or np.all(side < margin)),
        "a query was skipped although its epipolar line crosses the map",
    )


def bilinear_blend(data: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Clamp-to-border bilinear reads, one point at a time."""
    h, w, c = data.shape
    out = np.empty((len(points), c))
    for i, (px, py) in enumerate(points):
        x = min(max(float(px), 0.0), w - 1.0)
        y = min(max(float(py), 0.0), h - 1.0)
        x0 = min(math.floor(x), w - 2)
        y0 = min(math.floor(y), h - 2)
        fx = x - x0
        fy = y - y0
        out[i] = (
            (1.0 - fx) * (1.0 - fy) * data[y0, x0]
            + fx * (1.0 - fy) * data[y0, x0 + 1]
            + (1.0 - fx) * fy * data[y0 + 1, x0]
            + fx * fy * data[y0 + 1, x0 + 1]
        )
    return out


def check_features(features: np.ndarray, expected: np.ndarray, tol: float = 1e-12) -> None:
    worst = float(np.max(np.abs(features - expected)))
    require(worst <= tol, f"bilinear features differ from the four-corner blend by {worst:.3e}")


def check_weights(weights: np.ndarray, k: int, tol: float = 1e-12) -> None:
    require(weights.shape == (k,), f"expected {k} weights, got shape {weights.shape}")
    require(bool(np.all(weights >= 0.0)), "a weight is negative")
    total = float(np.sum(weights))
    require(abs(total - 1.0) <= tol, f"weights sum to {total!r}")


# -- train: gradients and skipped pixels ---------------------------------------


def check_directional_derivative(analytic: float, numeric: float, tol: float = 1e-5) -> float:
    """Analytic gradient . v against a central difference along v."""
    rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-300)
    require(
        rel <= tol,
        f"directional derivative {analytic!r} vs central difference {numeric!r} "
        f"(relative {rel:.3e})",
    )
    return rel


def check_skipped_pixels(fused: np.ndarray, ref: np.ndarray, valid: np.ndarray) -> None:
    """Pixels with no epipolar samples keep the reference feature bit for bit."""
    c = ref.shape[-1]
    skipped = ~valid
    require(
        fused.reshape(-1, c)[skipped].tobytes() == ref.reshape(-1, c)[skipped].tobytes(),
        "a skipped pixel does not keep its reference feature",
    )


# -- scenario and sweep: pipeline reports ----------------------------------------


def check_fused_is_rendered(fused: list[np.ndarray], rendered: list[np.ndarray]) -> None:
    """With zero residual weights fusion is a pass-through: equal bits."""
    require(len(fused) == len(rendered), f"{len(fused)} fused maps for {len(rendered)} views")
    for view, (f, r) in enumerate(zip(fused, rendered)):
        require(
            f.shape == r.shape and f.tobytes() == r.tobytes(),
            f"fused map of view {view} differs from its rendered map",
        )


def check_identical_bytes(first: str, again: str) -> None:
    require(first == again, "a repeated scenario gave a different report")


def check_sweep_report(report: dict, analytic_tol: float = 1e-6) -> None:
    """Exact detections triangulate exactly; MPJPE is the mean joint error."""
    joints = report["per_joint"]
    for j in joints:
        if j["observed_views"] < 2:
            continue
        # Exact detections always triangulate; heatmap detections may not
        # (RANSAC finds no consensus), which the trace counts instead.
        require(
            j["analytic_error_mm"] is not None,
            f"joint {j['joint']} is seen in {j['observed_views']} views but not triangulated",
        )
        require(
            j["analytic_error_mm"] < analytic_tol,
            f"joint {j['joint']} analytic error {j['analytic_error_mm']!r} mm",
        )
    ana = report["analytic_mpjpe_mm"]
    require(ana is not None and ana < analytic_tol, f"analytic MPJPE {ana!r} mm")
    errors = [j["error_mm"] for j in joints if j["error_mm"] is not None]
    require(bool(errors) and report["mpjpe_mm"] is not None, "no joint was triangulated")
    mean = sum(errors) / len(errors)
    require(
        abs(mean - report["mpjpe_mm"]) <= 1e-9 * max(1.0, mean),
        f"MPJPE {report['mpjpe_mm']!r} is not the mean joint error {mean!r}",
    )


def check_matching(accuracy: float | None, floor: float) -> None:
    require(accuracy is not None and accuracy >= floor, f"matching accuracy {accuracy!r}")


def check_scenario_report(report: dict, mpjpe_bound_mm: float, matching_floor: float = 0.99) -> None:
    """The release gate's bounds on the noiseless default scenario."""
    check_sweep_report(report)
    require(
        report["mpjpe_mm"] < mpjpe_bound_mm,
        f"MPJPE {report['mpjpe_mm']!r} mm is not below {mpjpe_bound_mm} mm",
    )
    check_matching(report["matching_accuracy"], matching_floor)


def check_error_falls_with_views(medians: dict[int, float]) -> None:
    """Median heatmap MPJPE strictly falls as views are added."""
    ordered = [medians[v] for v in sorted(medians)]
    require(
        all(a > b for a, b in zip(ordered, ordered[1:])),
        f"median MPJPE by view count does not fall: {medians}",
    )
