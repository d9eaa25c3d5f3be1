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
many joints at once: one SVD for every joint's camera centers, blocks of
minimal sets from many joints each solved with one DLT call and scored in
one error pass, and one DLT call per consensus size for the refinements.
ransac_triangulate is its one-joint call; triangulate_joints, the
pipeline's and the CLI's one entry, hands it every joint.
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

# Minimal pairs per RANSAC block, drawn from as many joints as fill it: one
# DLT call and one error pass each, so memory stays bounded whatever the
# iteration count. The error pass projects at most _ENTRIES (point, view)
# entries at a time, each with its own gathered camera, so it stays bounded
# whatever the view count.
_BLOCK = 1024
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
    (result,) = _triangulate([(cams, points)], threshold_px, iterations, [seed])
    if result in (_NO_PAIR, _FEW_KEPT):
        raise NoConsensus(result)
    if isinstance(result, str):
        raise Degenerate(result)
    return result


def _triangulate(
    joints: Sequence[tuple[np.ndarray, np.ndarray]], threshold_px: float, iterations: int,
    seeds: Sequence[int | np.random.SeedSequence], plain: bool = False,
) -> list[TriangulationResult | str]:
    """Per joint of at least two views, its result or the reason it has none.

    RANSAC as ransac_triangulate describes, joint j drawing from seeds[j];
    plain takes every view as the consensus and keeps every view an inlier.
    The views of all joints are concatenated; the refinements run one DLT
    call per consensus size and are scored in one error pass. A refinement
    with no solution is solved once more on its own for its reason.
    """
    if not joints:
        return []
    if not plain:
        if not (threshold_px > 0.0):
            raise ValueError("threshold must be positive")
        if iterations < 1:
            raise ValueError("iterations must be at least 1")
    n = np.array([len(points) for _, points in joints])
    starts = np.cumsum(n) - n
    owner = np.repeat(np.arange(len(n)), n)  # the joint of each view
    cams = np.concatenate([c for c, _ in joints])
    points = np.concatenate([p for _, p in joints])

    # One SVD for every camera center; LAPACK runs per camera, so each keeps its bits.
    h = np.linalg.svd(cams)[2][:, 3]
    frames = np.empty((len(n), 4, 4))
    failed: dict[int, str] = {}
    for m in set(n.tolist()):
        js = np.flatnonzero(n == m)
        frames[js], degenerate = _frames(h[starts[js, None] + np.arange(m)])
        for j in js[degenerate].tolist():
            failed[j] = _ONE_CENTER
    ok = np.ones(len(n), dtype=bool)
    ok[list(failed)] = False

    consensus = ok[owner] if plain else _consensus(
        cams, points, n, starts, frames, np.flatnonzero(ok), threshold_px, iterations, seeds)
    size = np.bincount(owner[consensus], minlength=len(n))  # 0 for every stopped joint
    for j in np.flatnonzero(ok & (size == 0)).tolist():
        failed[j] = _NO_PAIR
        ok[j] = False

    x = np.full((len(n), 3), np.nan)
    for c in set(size[ok].tolist()):
        js = np.flatnonzero(size == c)
        views = np.flatnonzero(consensus & (size[owner] == c)).reshape(-1, c)
        try:
            x[js] = dlt_triangulate(cams[views], points[views], frames[js])
        except Degenerate:  # no consensus of this size has a solution
            pass
    for j in np.flatnonzero(ok & np.isnan(x[:, 0])).tolist():  # solved alone for its reason
        views = np.flatnonzero(consensus & (owner == j))
        try:
            dlt_triangulate(cams[views], points[views], frames[j])
        except Degenerate as exc:
            failed[j] = str(exc)
        ok[j] = False

    js = np.flatnonzero(ok)
    rows, views, errors = _score(cams, points, n, starts, js, x[js])
    inliers = np.ones(len(views), dtype=bool) if plain else errors < threshold_px
    count = np.bincount(rows[inliers], minlength=len(js))
    for j in js[count < 2].tolist():
        failed[j] = _FEW_KEPT
    rms = dict(zip(js.tolist(), _rms(errors, inliers, rows, count, count >= 2).tolist()))
    flags = np.zeros(len(owner), dtype=bool)
    flags[views] = inliers
    return [failed[j] if j in failed else TriangulationResult(x[j], flags[lo : lo + m], rms[j])
            for j, (lo, m) in enumerate(zip(starts.tolist(), n.tolist()))]


def _consensus(
    cams: np.ndarray, points: np.ndarray, n: np.ndarray, starts: np.ndarray,
    frames: np.ndarray, live: np.ndarray, threshold_px: float, iterations: int,
    seeds: Sequence[int | np.random.SeedSequence],
) -> np.ndarray:
    """(N,) flags of the views in each live joint's winning consensus; none for a joint without one.

    Joint j's views are cams[starts[j]:starts[j] + n[j]]. A pair wins with
    the most inliers (at least two), then the lowest inlier RMS, then as
    the earlier pair: a block's best row replaces a joint's best only when
    strictly better.
    """
    best_count = np.zeros(len(n), dtype=np.intp)
    best_rms = np.full(len(n), np.inf)
    best = np.zeros(len(points), dtype=bool)
    for seg, width, pairs in _pair_blocks(n, live, iterations, seeds):
        j, count, rms, views, flags = _block_winners(
            cams, points, n, starts, frames, seg, width, pairs, threshold_px)
        better = (count > best_count[j]) | ((count == best_count[j]) & (rms < best_rms[j]))
        best_count[j[better]], best_rms[j[better]] = count[better], rms[better]
        better = np.repeat(better, n[j])
        best[views[better]] = flags[better]
    return best


def _block_winners(
    cams: np.ndarray, points: np.ndarray, n: np.ndarray, starts: np.ndarray,
    frames: np.ndarray, seg: np.ndarray, width: np.ndarray, pairs: np.ndarray,
    threshold_px: float,
) -> tuple[np.ndarray, ...]:
    """The best row of each joint in one block of (P, 2) pairs: width[k] of joint seg[k], k-th.

    Returns (joints, inlier counts, inlier RMS, views, inlier flags): one
    entry per joint with a row of two or more inliers, and its n views'
    indices and flags in joint order. The block's arrays die on return, so
    memory peaks at one block's size.
    """
    js = np.repeat(seg, width)
    ends = starts[js, None] + pairs
    try:
        x = dlt_triangulate(cams[ends], points[ends], frames[js])
    except Degenerate:  # no pair of the block has a solution
        x = np.full((len(js), 3), np.nan)
    rows, views, errors = _score(cams, points, n, starts, js, x)
    inlier = errors < threshold_px
    count = np.bincount(rows[inlier], minlength=len(js))
    # Of a joint's rows with the most inliers, the lowest RMS, then the first, wins.
    first = np.cumsum(width) - width
    top = (count == np.repeat(np.maximum.reduceat(count, first), width)) & (count >= 2)
    rms = _rms(errors, inlier, rows, count, top)
    low = rms == np.repeat(np.minimum.reduceat(rms, first), width)
    win = np.minimum.reduceat(np.where(top & low, np.arange(len(js)), len(js)), first)
    win = win[win < len(js)]
    won = np.zeros(len(js), dtype=bool)
    won[win] = True
    return js[win], count[win], rms[win], views[won[rows]], inlier[won[rows]]


def _score(
    cams: np.ndarray, points: np.ndarray, n: np.ndarray, starts: np.ndarray, js: np.ndarray,
    x: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reprojection errors of each point x[i] in every view of its joint js[i], _ENTRIES at a time.

    Returns (rows, views, errors): one entry per (point, view), grouped by
    point in view order.
    """
    rows = np.repeat(np.arange(len(js)), n[js])
    views = np.arange(len(rows)) + np.repeat(starts[js] - (np.cumsum(n[js]) - n[js]), n[js])
    errors = np.empty(len(rows))
    for lo in range(0, len(rows), _ENTRIES):
        r, v = rows[lo : lo + _ENTRIES], views[lo : lo + _ENTRIES]
        errors[lo : lo + _ENTRIES] = reprojection_errors(cams[v, None], points[v, None], x[r])[:, 0]
    return rows, views, errors


def _rms(
    errors: np.ndarray, inliers: np.ndarray, rows: np.ndarray, count: np.ndarray,
    which: np.ndarray,
) -> np.ndarray:
    """Inlier RMS of each row flagged in which, inf elsewhere.

    The rows of each inlier count are one (rows, count) mean, which keeps a
    1-D mean's pairwise summation order, so each row has its bits.
    """
    rms = np.full(len(count), np.inf)
    for c in set(count[which].tolist()):
        r = which & (count == c)
        rms[r] = np.sqrt(np.mean(errors[inliers & r[rows]].reshape(-1, c) ** 2, axis=1))
    return rms


def _pair_blocks(
    n: np.ndarray, live: np.ndarray, iterations: int,
    seeds: Sequence[int | np.random.SeedSequence],
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Blocks of up to _BLOCK candidate pairs in joint order: (joints, widths, (P, 2) views).

    A block holds widths[k] pairs of joint joints[k], in order. Joint j
    tries every pair of its n[j] views, lexicographic, when there are at
    most iterations of them, and makes no generator; otherwise it draws
    iterations pairs with default_rng(seeds[j]).choice, as many as the
    current block takes at a time.
    """
    every: dict[int, np.ndarray] = {}
    owners: list[int] = []
    takes: list[int] = []
    chunks: list[np.ndarray] = []
    size = 0
    for j in live:
        m = int(n[j])
        if m * (m - 1) // 2 <= iterations:
            if m not in every:
                every[m] = np.stack(np.triu_indices(m, 1), axis=1)
            rng, total = None, len(every[m])
        else:
            rng, total = np.random.default_rng(seeds[j]), iterations
        lo = 0
        while lo < total:
            k = min(_BLOCK - size, total - lo)
            chunks.append(every[m][lo : lo + k] if rng is None else
                          np.array([rng.choice(m, size=2, replace=False) for _ in range(k)]))
            owners.append(j)
            takes.append(k)
            size += k
            lo += k
            if size == _BLOCK:
                yield np.array(owners), np.array(takes), np.concatenate(chunks)
                owners, takes, chunks, size = [], [], [], 0
    if size:
        yield np.array(owners), np.array(takes), np.concatenate(chunks)


def triangulate_joints(
    joints: Sequence[tuple[np.ndarray, np.ndarray]], threshold_px: float, iterations: int,
    seed: np.random.SeedSequence, plain: bool = False,
) -> list[TriangulationResult | str]:
    """Per (cams (n, 3, 4), pixels (n, 2)) joint, its result or the reason it has none.

    Joint j gets ransac_triangulate's result with seed.spawn(len(joints))[j],
    spawned whether or not it is triangulated; every joint runs in one call
    of the same core. plain runs one DLT with every view an inlier. A reason
    is "fewer than two views" or the message of the Degenerate or
    NoConsensus that stopped the joint.
    """
    seeds = seed.spawn(len(joints))
    solvable = [j for j, (_, pixels) in enumerate(joints) if len(pixels) >= 2]
    results = iter(_triangulate([joints[j] for j in solvable], threshold_px, iterations,
                                [seeds[j] for j in solvable], plain))
    return [next(results) if len(pixels) >= 2 else "fewer than two views"
            for _, pixels in joints]


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
