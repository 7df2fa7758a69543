"""Scanpath similarity metrics.

String-based scores discretize fixations (mean-shift cluster ids or
semantic segmentation labels) and compare the resulting sequences with
alignment DP. MultiMatch compares geometric saccade structure on a
minimum-cost monotone alignment of the two vector sequences.

Per-element loops (the DP cells, the backtrack, the per-pair sums, the
mode merge) run on Python floats and lists, with cells compared inline
rather than through ``min``/``max``: indexing a numpy array one scalar
at a time costs more than the arithmetic. Work that is whole-array
(distance matrices, the mean-shift iteration, ``np.diff``) stays in
numpy. The arithmetic and its order are those of IEEE float64 either
way, so the scores are bit for bit those of the numpy-scalar loops the
test suite keeps as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NumericError, ValidationError
from ..types import FixationSet, Scanpath, SegmentationMap, _freeze

MOVE_TOL = 1e-3
MAX_ITER = 300


@dataclass(frozen=True)
class MeanShiftResult:
    """Cluster centers (first-come representative modes) and the
    cluster index of every input point."""

    centers: np.ndarray
    labels: np.ndarray
    bandwidth: float

    def __post_init__(self):
        object.__setattr__(self, "centers", _freeze(np.array(self.centers, dtype=np.float64)))
        object.__setattr__(self, "labels", _freeze(np.array(self.labels, dtype=np.int64)))

    @property
    def n_clusters(self) -> int:
        return self.centers.shape[0]


def default_bandwidth(frame) -> float:
    """One tenth of the frame diagonal."""
    w, h = frame
    return math.hypot(w, h) / 10.0


def meanshift_clusters(points, bandwidth: float | None = None,
                       move_tol: float = MOVE_TOL, max_iter: int = MAX_ITER) -> MeanShiftResult:
    """Flat-kernel mean shift.

    Every point walks to the mean of the original points within
    ``bandwidth`` of its current position, until it moves less than
    ``move_tol`` or ``max_iter`` iterations pass. Converged modes
    closer than bandwidth/2 to an earlier mode are merged into it.

    ``points`` may be a FixationSet (bandwidth defaults to a tenth of
    its frame diagonal) or an (N, 2) array (bandwidth required).
    """
    if isinstance(points, FixationSet):
        if bandwidth is None:
            bandwidth = default_bandwidth(points.frame)
        pts = points.points
    else:
        pts = np.asarray(points, dtype=np.float64)
        if bandwidth is None:
            raise ValidationError("bandwidth required when points carry no frame")
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValidationError(f"points must have shape (N, 2) with N >= 1, got {pts.shape}")
    if not (bandwidth > 0):
        raise ValidationError(f"bandwidth must be positive, got {bandwidth}")

    walkers = pts.copy()
    active = np.ones(len(pts), dtype=bool)
    for _ in range(max_iter):
        if not active.any():
            break
        cur = walkers[active]
        d2 = ((cur[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        near = d2 <= bandwidth * bandwidth
        counts = near.sum(axis=1)
        means = (near.astype(np.float64) @ pts) / counts[:, None]
        moved = np.sqrt(((means - cur) ** 2).sum(axis=1))
        walkers[active] = means
        still = moved >= move_tol
        idx = np.flatnonzero(active)
        active[idx[~still]] = False

    centers: list[list[float]] = []
    labels: list[int] = []
    half = bandwidth / 2.0
    for mode in walkers.tolist():
        x, y = mode
        for k, (cx, cy) in enumerate(centers):
            if math.hypot(x - cx, y - cy) < half:
                labels.append(k)
                break
        else:
            labels.append(len(centers))
            centers.append(mode)
    return MeanShiftResult(centers=centers, labels=labels, bandwidth=float(bandwidth))


def assign_to_clusters(clusters: MeanShiftResult, points) -> np.ndarray:
    """Nearest-center index for each (x, y) point; ties pick the lowest
    index."""
    if clusters.n_clusters == 0:
        raise NumericError("no clusters to assign to")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    d2 = ((pts[:, None, :] - clusters.centers[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1).astype(np.int64)


def nw_similarity(a, b) -> float:
    """Global alignment score with match 1, mismatch 0, gap 0,
    normalized by the longer sequence length."""
    a, b = list(a), list(b)
    if not a or not b:
        raise ValidationError("alignment needs two non-empty sequences")
    n, m = len(a), len(b)
    prev = [0.0] * (m + 1)
    for x in a:
        cur = [0.0] * (m + 1)
        for j in range(1, m + 1):
            best = prev[j - 1] + (1.0 if x == b[j - 1] else 0.0)
            if prev[j] > best:
                best = prev[j]
            if cur[j - 1] > best:
                best = cur[j - 1]
            cur[j] = best
        prev = cur
    return prev[m] / max(n, m)


def levenshtein(a, b) -> int:
    """Edit distance with unit insert/delete/substitute costs."""
    a, b = list(a), list(b)
    n, m = len(a), len(b)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        x = a[i - 1]
        cur = [i] + [0] * m
        for j in range(1, m + 1):
            best = prev[j - 1] + (0 if x == b[j - 1] else 1)
            if prev[j] + 1 < best:
                best = prev[j] + 1
            if cur[j - 1] + 1 < best:
                best = cur[j - 1] + 1
            cur[j] = best
        prev = cur
    return prev[m]


def _check_frames(pred: Scanpath, gt: Scanpath) -> None:
    if pred.frame != gt.frame:
        raise ValidationError(f"scanpath frames differ: {pred.frame} vs {gt.frame}")


def sequence_score(pred: Scanpath, gt: Scanpath, clusters: MeanShiftResult) -> float:
    """Alignment similarity of the two paths written as cluster-id
    strings. Clusters are normally fitted on the pooled ground-truth
    fixations of the image."""
    _check_frames(pred, gt)
    ids_p = assign_to_clusters(clusters, pred.fixations)
    ids_g = assign_to_clusters(clusters, gt.fixations)
    return nw_similarity(ids_p.tolist(), ids_g.tolist())


def _collapse(seq):
    out = [seq[0]]
    for s in seq[1:]:
        if s != out[-1]:
            out.append(s)
    return out


def _seg_labels(path: Scanpath, seg: SegmentationMap):
    if path.frame != (seg.width, seg.height):
        raise ValidationError(
            f"scanpath frame {path.frame} does not match segmentation {seg.width}x{seg.height}")
    # the frame is the segmentation's, so each path's pixels, which semss
    # and semfed both look up, are worked out once
    cols, rows = path.pixels
    return seg.labels[rows, cols].tolist()


def semss(pred: Scanpath, gt: Scanpath, seg: SegmentationMap) -> float:
    """Semantic sequence score: region-label strings with consecutive
    duplicates collapsed, compared by alignment similarity."""
    _check_frames(pred, gt)
    return nw_similarity(_collapse(_seg_labels(pred, seg)), _collapse(_seg_labels(gt, seg)))


def semfed(pred: Scanpath, gt: Scanpath, seg: SegmentationMap) -> float:
    """Semantic fixation edit distance: edit distance between the raw
    region-label strings (no collapsing)."""
    _check_frames(pred, gt)
    return float(levenshtein(_seg_labels(pred, seg), _seg_labels(gt, seg)))


@dataclass(frozen=True)
class MultiMatchScores:
    """Similarities in [0, 1], one per geometric dimension."""

    shape: float
    length: float
    direction: float
    position: float

    @property
    def mean(self) -> float:
        return (self.shape + self.length + self.direction + self.position) / 4.0


def _align_vectors(u: np.ndarray, v: np.ndarray):
    """Minimum-cost monotone lattice path over the |u_i - v_j| cost
    matrix, stepping diagonal/down/right from (0,0) to (n-1,m-1).
    Returns the aligned index pairs along the path. Ties prefer the
    diagonal, then the u-advancing step."""
    n, m = len(u), len(v)
    cost = np.sqrt(((u[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)).tolist()
    row = [cost[0][0]]
    for j in range(1, m):
        row.append(cost[0][j] + row[j - 1])
    total = [row]
    for i in range(1, n):
        up, c = total[i - 1], cost[i]
        row = [c[0] + up[0]]
        for j in range(1, m):
            best = up[j - 1]
            if up[j] < best:
                best = up[j]
            if row[j - 1] < best:
                best = row[j - 1]
            row.append(c[j] + best)
        total.append(row)
    pairs = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while i > 0 or j > 0:
        if i == 0:
            j = j - 1
        elif j == 0:
            i = i - 1
        else:
            up, left = total[i - 1][j], total[i][j - 1]
            if total[i - 1][j - 1] <= (left if left < up else up):
                i, j = i - 1, j - 1
            elif up <= left:
                i = i - 1
            else:
                j = j - 1
        pairs.append((i, j))
    pairs.reverse()
    return pairs


def _angle_between(u, v) -> float:
    # atan2 form stays exact for parallel vectors where acos of a
    # rounded dot product would not.
    if (u[0] == 0.0 and u[1] == 0.0) or (v[0] == 0.0 and v[1] == 0.0):
        return 0.0
    dot = u[0] * v[0] + u[1] * v[1]
    cross = u[0] * v[1] - u[1] * v[0]
    return math.atan2(abs(cross), dot)


def multimatch(pred: Scanpath, gt: Scanpath) -> MultiMatchScores:
    """Geometric scanpath similarity on aligned saccade pairs.

    Both paths need at least two fixations. Saccade vectors are
    aligned by minimum-cost monotone matching; per pair the shape
    (vector difference), length (amplitude difference) and position
    (distance between the aligned saccades' start fixations) are
    normalized by twice the frame diagonal, direction by pi, averaged,
    and reported as 1 - dissimilarity."""
    _check_frames(pred, gt)
    if len(pred) < 2 or len(gt) < 2:
        raise ValidationError("MultiMatch needs at least two fixations per path")
    w, h = pred.frame
    diag2 = 2.0 * math.hypot(w, h)
    u = np.diff(pred.fixations, axis=0)
    v = np.diff(gt.fixations, axis=0)
    pairs = _align_vectors(u, v)

    u, v = u.tolist(), v.tolist()
    fp, fg = pred.fixations.tolist(), gt.fixations.tolist()
    d_shape = d_len = d_dir = d_pos = 0.0
    for i, j in pairs:
        (ux, uy), (vx, vy) = u[i], v[j]
        d_shape += math.hypot(ux - vx, uy - vy) / diag2
        d_len += abs(math.hypot(ux, uy) - math.hypot(vx, vy)) / diag2
        d_dir += _angle_between(u[i], v[j]) / math.pi
        d_pos += math.hypot(fp[i][0] - fg[j][0], fp[i][1] - fg[j][1]) / diag2
    k = len(pairs)
    return MultiMatchScores(
        shape=1.0 - d_shape / k,
        length=1.0 - d_len / k,
        direction=1.0 - d_dir / k,
        position=1.0 - d_pos / k,
    )
