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
than its iterations, and draws that many otherwise; it gates by reprojection
error and re-estimates over the winning consensus set. One core runs it for
the G joints of one view count n at once, on (G, n) arrays: one SVD for
their camera centers; blocks of whole joints, or of a run of one joint's
minimal sets, each solved with one DLT call and scored in one (g, p, n)
error pass, a joint's best pair an argmin over its p rows; and one DLT call
per consensus size for the refinements. ransac_triangulate is its one-joint
call; triangulate_joints, the pipeline's and the CLI's one entry, hands it
the joints of each view count.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
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


# Why a joint has no point. The two consensus reasons are NoConsensus
# messages; every other reason is a Degenerate's.
_NO_PAIR = "no pair produced two or more inliers"
_FEW_KEPT = "the refined point keeps fewer than two inliers"
_ONE_CENTER = "all views share one camera center"

# (pair, view) entries per RANSAC block. A block holds whole joints of one
# view count, or a run of one joint's pairs, and is solved with one DLT call
# and scored in one error pass, so memory stays bounded whatever the
# iteration and view counts.
_ENTRIES = 16384


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
    frame, degenerate = _frames(np.linalg.svd(cams)[2][:, 3])
    if degenerate:
        raise Degenerate(_ONE_CENTER)
    return frame


def _frames(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """conditioning_frame of each (..., n, 4) stack of homogeneous centers: (frames, degenerate).

    Each (4, 4) frame has the bits of a call on its own stack; a degenerate
    stack's frame is not meant to be used.
    """
    w = h[..., 3]
    far = np.abs(w) < PROJECTION_W
    infinite = np.any(far, axis=-1)
    centers = h[..., :3] / np.where(far, 1.0, w)[..., None]
    c = np.mean(centers, axis=-2)
    s = np.mean(_norms(centers - c[..., None, :]), axis=-1)
    degenerate = ~infinite & (s <= CENTER_REL * np.maximum(1.0, np.max(_norms(centers), axis=-1)))
    frames = np.zeros(h.shape[:-2] + (4, 4))
    frames[..., [0, 1, 2], [0, 1, 2]] = s[..., None]
    frames[..., :3, 3] = c
    frames[..., 3, 3] = 1.0
    frames[infinite] = np.eye(4)
    return frames, degenerate


def dlt_triangulate(
    cams: np.ndarray, points: np.ndarray, frame: np.ndarray | None = None
) -> np.ndarray:
    """Least-squares 3D points from (..., n, 3, 4) cameras and their (..., n, 2) pixels, n >= 2.

    Returns (..., 3): one DLT per leading index, each with the bits of an
    unbatched call. Solves with cams @ frame for X^ and returns frame @ X^;
    frame is one (4, 4) for every item or (..., 4, 4), one per item, and
    defaults to conditioning_frame(cams) of an unbatched stack. A system has
    no solution when the two smallest singular values of its stacked rows
    are within 1e-9 relative, i.e. the solution direction is ambiguous
    (coincident views, collinear geometry), or when X^ lies at infinity; its
    row is NaN. Raises Degenerate, with the first system's reason, only when
    no system has a solution.
    """
    if points.shape[-2] < 2:
        raise ValueError("triangulation needs at least two observations")
    if frame is None:
        frame = conditioning_frame(cams)
    cams = cams @ frame[..., None, :, :]
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
    Every DLT solves in the joint's one conditioning_frame. This is the
    one-joint call of the core that triangulate_joints runs over many
    joints, with the same bits. Fully deterministic for a fixed seed.
    """
    if len(points) < 2:
        raise ValueError("RANSAC needs at least two observations")
    (result,) = _triangulate(np.stack([cams]), np.stack([points]), threshold_px, iterations, [seed])
    if result in (_NO_PAIR, _FEW_KEPT):
        raise NoConsensus(result)
    if isinstance(result, str):
        raise Degenerate(result)
    return result


def _triangulate(
    cams: np.ndarray, points: np.ndarray, threshold_px: float, iterations: int,
    seeds: Sequence[int | np.random.SeedSequence], plain: bool = False,
) -> list[TriangulationResult | str]:
    """Per joint of (G, n, 3, 4) cams and (G, n, 2) points, its result or the reason it has none.

    n is at least 2. RANSAC as ransac_triangulate describes, joint g drawing
    from seeds[g]; plain takes every view as the consensus and keeps every
    view an inlier. One SVD gives every camera center, blocks of pairs
    (_pair_blocks) find each joint's consensus, and the refinements run one
    DLT call per consensus size and are scored in one (G, n) error pass. A
    refinement with no solution is solved once more on its own for its
    reason.
    """
    if not plain:
        if not (threshold_px > 0.0):
            raise ValueError("threshold must be positive")
        if iterations < 1:
            raise ValueError("iterations must be at least 1")
    # LAPACK runs per camera, so each center keeps its bits.
    frames, degenerate = _frames(np.linalg.svd(cams)[2][..., 3, :])
    failed = dict.fromkeys(np.flatnonzero(degenerate).tolist(), _ONE_CENTER)
    ok = ~degenerate
    consensus = np.zeros(points.shape[:2], dtype=bool)
    consensus[ok] = True if plain else _consensus(
        cams[ok], points[ok], frames[ok], threshold_px, iterations,
        [seeds[g] for g in np.flatnonzero(ok)])
    size = np.sum(consensus, axis=1)  # 0 for every stopped joint
    for g in np.flatnonzero(ok & (size == 0)).tolist():
        failed[g] = _NO_PAIR
        ok[g] = False

    x = np.full((len(cams), 3), np.nan)
    for c in set(size[ok].tolist()):
        gs = np.flatnonzero(size == c)
        chosen = consensus[gs]
        try:
            x[gs] = dlt_triangulate(cams[gs][chosen].reshape(-1, c, 3, 4),
                                    points[gs][chosen].reshape(-1, c, 2), frames[gs])
        except Degenerate:  # no consensus of this size has a solution
            pass
    for g in np.flatnonzero(ok & np.isnan(x[:, 0])).tolist():  # solved alone for its reason
        try:
            dlt_triangulate(cams[g][consensus[g]], points[g][consensus[g]], frames[g])
        except Degenerate as exc:
            failed[g] = str(exc)
        ok[g] = False

    errors = reprojection_errors(cams, points, x)
    inliers = consensus if plain else errors < threshold_px
    count = np.sum(inliers, axis=1)
    for g in np.flatnonzero(ok & (count < 2)).tolist():
        failed[g] = _FEW_KEPT
    rms = _rms(errors, inliers, count, ok & (count >= 2))
    return [failed[g] if g in failed else TriangulationResult(x[g], inliers[g], r)
            for g, r in enumerate(rms.tolist())]


def _consensus(
    cams: np.ndarray, points: np.ndarray, frames: np.ndarray, threshold_px: float,
    iterations: int, seeds: Sequence[int | np.random.SeedSequence],
) -> np.ndarray:
    """(G, n) flags of the views in each joint's winning consensus; none for a joint without one.

    A pair wins with the most inliers (at least two), then the lowest inlier
    RMS, then as the earlier pair: a block's best row replaces a joint's
    best only when strictly better.
    """
    best_count = np.ones(len(cams), dtype=np.intp)  # a winner has at least two inliers
    best_rms = np.full(len(cams), np.inf)
    best = np.zeros(points.shape[:2], dtype=bool)
    for gs, pairs in _pair_blocks(points.shape[1], iterations, seeds):
        ends = gs[:, None, None], pairs
        try:
            x = dlt_triangulate(cams[ends], points[ends], frames[gs, None])
        except Degenerate:  # no pair of the block has a solution
            x = np.full(pairs.shape[:2] + (3,), np.nan)
        errors = reprojection_errors(cams[gs, None], points[gs, None], x)  # (g, p, n)
        inliers = errors < threshold_px
        count = np.sum(inliers, axis=2)
        # Of a joint's rows with the most inliers, the lowest RMS, then the first, wins.
        top = count == np.max(count, axis=1, keepdims=True)
        rms = _rms(errors, inliers, count, top & (count >= 2))
        rows, win = np.arange(len(gs)), np.argmin(rms, axis=1)
        count, rms, inliers = count[rows, win], rms[rows, win], inliers[rows, win]
        better = (count > best_count[gs]) | ((count == best_count[gs]) & (rms < best_rms[gs]))
        won = gs[better]
        best_count[won], best_rms[won], best[won] = count[better], rms[better], inliers[better]
    return best


def _rms(
    errors: np.ndarray, inliers: np.ndarray, count: np.ndarray, which: np.ndarray,
) -> np.ndarray:
    """Inlier RMS over the last axis of each row flagged in which, inf elsewhere.

    count holds each row's inliers. The rows of each count are one (rows,
    count) mean, which keeps a 1-D mean's pairwise summation order, so each
    row has its bits.
    """
    rms = np.full(count.shape, np.inf)
    for c in set(count[which].tolist()):
        r = which & (count == c)
        rms[r] = np.sqrt(np.mean(errors[r][inliers[r]].reshape(-1, c) ** 2, axis=1))
    return rms


def _pair_blocks(
    n: int, iterations: int, seeds: Sequence[int | np.random.SeedSequence],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """RANSAC's candidate pairs of len(seeds) joints of n views: (joints, (g, p, 2) views) blocks.

    A block holds whole joints, in order, or a run of one joint's pairs, of
    about _ENTRIES (pair, view) entries. Each joint tries every pair of its
    views, lexicographic, when there are at most iterations of them, and
    makes no generator; otherwise joint g draws iterations pairs with
    default_rng(seeds[g]).choice, a block's run at a time.
    """
    every = np.stack(np.triu_indices(n, 1), axis=1) if n * (n - 1) // 2 <= iterations else None
    total = iterations if every is None else len(every)
    whole = max(1, _ENTRIES // (total * n))  # joints a block
    run = min(total, max(1, _ENTRIES // n))  # pairs of a joint a block
    for lo in range(0, len(seeds), whole):
        gs = np.arange(lo, min(lo + whole, len(seeds)))
        rngs = [np.random.default_rng(seeds[g]) for g in gs] if every is None else []
        for start in range(0, total, run):
            k = min(run, total - start)
            if every is None:
                yield gs, np.array([[rng.choice(n, size=2, replace=False) for _ in range(k)]
                                    for rng in rngs])
            else:
                yield gs, np.broadcast_to(every[start : start + k], (len(gs), k, 2))


def triangulate_joints(
    joints: Sequence[tuple[np.ndarray, np.ndarray]], threshold_px: float, iterations: int,
    seed: np.random.SeedSequence, plain: bool = False,
) -> list[TriangulationResult | str]:
    """Per (cams (n, 3, 4), pixels (n, 2)) joint, its result or the reason it has none.

    Joint j gets ransac_triangulate's result with seed.spawn(len(joints))[j],
    spawned whether or not it is triangulated; the joints of each view count
    run in one call of the same core. plain runs one DLT with every view an
    inlier. A reason is "fewer than two views" or the message of the
    Degenerate or NoConsensus that stopped the joint.
    """
    seeds = seed.spawn(len(joints))
    results: list[TriangulationResult | str] = ["fewer than two views"] * len(joints)
    counts = [len(pixels) for _, pixels in joints]
    for n in sorted(set(counts) - {0, 1}):
        js = [j for j, m in enumerate(counts) if m == n]
        group = _triangulate(np.stack([joints[j][0] for j in js]),
                             np.stack([joints[j][1] for j in js]), threshold_px, iterations,
                             [seeds[j] for j in js], plain)
        for j, result in zip(js, group):
            results[j] = result
    return results


# -- observation files --------------------------------------------------------
#
# Header view_id, joint_id, x, y, confidence; one detection per row.

OBS_FIELDS = ("view_id", "joint_id", "x", "y", "confidence")


def load_observations(path: str | Path) -> list[tuple[int, int, float, float, float]]:
    rows = read_csv(path, "observations", [OBS_FIELDS])
    first: dict[tuple[int, int], int] = {}
    for line_no, row in rows.items():
        if not 0.0 <= row[4] <= 1.0:
            raise ConfigError(f"{path}: row {line_no}: confidence must lie in [0, 1]")
        seen = first.setdefault((row[0], row[1]), line_no)
        if seen != line_no:  # a repeated view would count twice in the joint's consensus
            raise ConfigError(f"{path}: rows {seen} and {line_no} repeat view_id {row[0]} "
                              f"of joint_id {row[1]}")
    return [tuple(row) for row in rows.values()]
