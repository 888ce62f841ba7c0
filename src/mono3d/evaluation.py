"""KITTI-protocol detection and localization metrics.

Rotated-box overlap is computed analytically: bird's-eye-view footprints
are clipped against each other (convex-convex Sutherland-Hodgman) and the
3D overlap multiplies the footprint intersection by the vertical overlap.
One clip yields both the BEV and the 3D IoU of a pair. A Monte-Carlo
volume sampler provides an independent cross-check.

Detections are matched to ground truth greedily in descending score
order; average precision interpolates the precision envelope on a fixed
recall grid (11-point by default, 40-point optional). Localization
quality is reported as per-coordinate relative accuracy, optionally
binned by depth.

A split evaluation clips every (prediction, ground truth) pair of the
split once, in one batched pass: the pairs of all frames are stacked and
clipped a fixed-size chunk at a time, with the per-edge sign tests as
array operations. The results are sliced back into one overlap matrix
per frame, and every difficulty tier, metric and threshold, and the
localization pass, reads its rows. ``frame_overlaps``, ``iou_3d`` and
``bev_iou`` are one-frame and one-pair calls of the same pass.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from itertools import accumulate
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import Box3D, bev_footprint, yaw_matrix
from .kitti_io import Difficulty, ObjectAnnotation, assign_difficulty

# Vertices closer than this are merged after clipping to avoid slivers.
VERTEX_MERGE_EPS = 1e-9

DEPTH_BIN_EDGES = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 90.0)


@dataclass
class MatchResult:
    """Greedy prediction/ground-truth assignment for one frame."""

    frame_id: str
    pairs: list[tuple[int, int, float]]          # (pred index, gt index, iou)
    unmatched_pred_indices: list[int]
    unmatched_gt_indices: list[int]
    pred_scores: list[float]                     # score per prediction, input order
    ignored_pred_indices: list[int] = field(default_factory=list)


@dataclass
class PrecisionRecallCurve:
    points: list[tuple[float, float]]            # (recall, precision), recall ascending
    ap: float


@dataclass
class DepthBinAccuracy:
    lo: float
    hi: float
    count: int
    ra_u: Optional[float]
    ra_v: Optional[float]
    ra_z: Optional[float]


@dataclass
class LocalizationReport:
    """Relative accuracy of the 3D centre coordinates over matched pairs.

    Each coordinate error is normalised by the ground-truth depth, so
    ``ra = 1 - mean(|err| / z_gt)`` clamped to [0, 1].
    """

    ra_u: float
    ra_v: float
    ra_z: float
    count: int
    depth_bins: list[DepthBinAccuracy] = field(default_factory=list)


def annotation_box3d(a: ObjectAnnotation) -> Box3D:
    return Box3D(center=a.location, dims=a.dims, yaw=a.rotation_y)


def polygon_area(vertices: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Shoelace area of each polygon in a batch; positive for
    counter-clockwise vertex order.

    ``vertices`` is an ``(N, K, 2)`` buffer of which the first
    ``counts[n]`` rows of polygon ``n`` are used. The area is
    ``0.5 * (sum x_i z_{i+1} - sum x_{i+1} z_i)``, each sum accumulated
    in vertex order from 0.0, one elementwise operation per term, so
    every polygon's area is the same float whatever the batch around it.
    """
    rows = np.arange(len(vertices))
    x = vertices[..., 0]
    z = vertices[..., 1]
    forward = np.zeros(len(vertices))
    backward = np.zeros(len(vertices))
    for i in range(vertices.shape[1]):
        nxt = np.where(i + 1 < counts, i + 1, 0)
        live = i < counts
        forward += np.where(live, x[:, i] * z[rows, nxt], 0.0)
        backward += np.where(live, x[rows, nxt] * z[:, i], 0.0)
    return 0.5 * (forward - backward)


def _compact(candidates: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kept rows of each polygon in an ``(N, K, 2)`` buffer, in order,
    moved to the front of a buffer as wide as the largest count (at
    least one row)."""
    counts = keep.sum(axis=1)
    out = np.zeros((len(candidates), max(1, int(counts.max(initial=0))), 2))
    rows, cols = np.nonzero(keep)
    out[rows, np.cumsum(keep, axis=1)[rows, cols] - 1] = candidates[rows, cols]
    return out, counts


def clip_convex(subjects: np.ndarray, clips: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clip convex polygons by convex CCW polygons, pair by pair
    (Sutherland-Hodgman over a batch).

    ``subjects`` is ``(N, S, 2)`` and ``clips`` ``(N, C, 2)``. Returns an
    ``(N, K, 2)`` vertex buffer and each intersection's vertex count; the
    rows past a count are padding. A pair left with fewer than three
    vertices before an edge is empty. Consecutive vertices within
    ``VERTEX_MERGE_EPS`` of each other are merged, then the last into the
    first. After each edge the buffer is as wide as the batch's largest
    count, so no vertex is dropped however many a sliver makes.
    """
    n_pairs = len(subjects)
    rows = np.arange(n_pairs)[:, None]
    vertices = np.asarray(subjects, dtype=float)
    counts = np.full(n_pairs, vertices.shape[1])
    n_clip = clips.shape[1]
    for k in range(n_clip):
        counts[counts < 3] = 0
        slots = np.arange(vertices.shape[1])
        valid = slots < counts[:, None]
        a = clips[:, k, None, :]
        b = clips[:, (k + 1) % n_clip, None, :]
        # Inside = left of the directed edge a->b for a CCW clip polygon.
        values = ((b[..., 0] - a[..., 0]) * (vertices[..., 1] - a[..., 1])
                  - (b[..., 1] - a[..., 1]) * (vertices[..., 0] - a[..., 0]))
        nxt = np.where(slots + 1 < counts[:, None], slots + 1, 0)
        vq = values[rows, nxt]
        keep = valid & (values >= 0)
        cross = valid & (((values > 0) & (vq < 0)) | ((values < 0) & (vq > 0)))
        # Each vertex is followed by its edge's intersection, if any.
        candidates = np.zeros((n_pairs, len(slots), 2, 2))
        candidates[:, :, 0] = vertices
        r, c = np.nonzero(cross)
        p, q = vertices[r, c], vertices[r, nxt[r, c]]
        t = values[r, c] / (values[r, c] - vq[r, c])
        candidates[r, c, 1, 0] = p[:, 0] + t * (q[:, 0] - p[:, 0])
        candidates[r, c, 1, 1] = p[:, 1] + t * (q[:, 1] - p[:, 1])
        vertices, counts = _compact(candidates.reshape(n_pairs, -1, 2),
                                    np.stack([keep, cross], axis=2).reshape(n_pairs, -1))

    # The first vertex is kept; each later one unless it lies within
    # VERTEX_MERGE_EPS of the last kept one, in both coordinates.
    keep = np.zeros(vertices.shape[:2], dtype=bool)
    last = vertices[:, 0].copy()
    for j in range(vertices.shape[1]):
        v = vertices[:, j]
        keep[:, j] = (j < counts) & ((j == 0) | (np.abs(v - last) > VERTEX_MERGE_EPS).any(axis=1))
        last[keep[:, j]] = v[keep[:, j]]
    vertices, counts = _compact(vertices, keep)
    last = vertices[rows[:, 0], np.maximum(counts - 1, 0)]
    closing = (counts > 1) & (np.abs(vertices[:, 0] - last) <= VERTEX_MERGE_EPS).all(axis=1)
    return vertices, counts - closing


# A metric's plane in a frame_overlaps matrix, and the error for a
# pair that is degenerate in both boxes under each.
_METRICS = {"3d": 0, "bev": 1}
_DEGENERATE = ("both boxes are degenerate", "both footprints are degenerate")

# (prediction, ground truth) pairs clipped at a time: bounds the clip's
# temporaries, so memory does not grow with the split.
_CLIP_CHUNK = 2048


def _box_columns(boxes: Sequence[Box3D]) -> tuple[np.ndarray, ...]:
    """Per-box arrays: BEV footprints ``(B, 4, 2)``, their signed areas,
    bottom-face heights ``y`` and box heights ``h``."""
    footprints = np.array([bev_footprint(b) for b in boxes]).reshape(-1, 4, 2)
    return (footprints, polygon_area(footprints, np.full(len(boxes), 4)),
            np.array([b.center[1] for b in boxes], dtype=float),
            np.array([b.dims[0] for b in boxes], dtype=float))


def _ratio(num: np.ndarray, size_a: np.ndarray, size_b: np.ndarray) -> np.ndarray:
    """``num / (size_a + size_b - num)``; 0 where either size is <= 0 and
    NaN where both are."""
    out = np.zeros(len(num))
    a_empty = size_a <= 0
    b_empty = size_b <= 0
    ok = ~(a_empty | b_empty)
    out[ok] = num[ok] / (size_a[ok] + size_b[ok] - num[ok])
    out[a_empty & b_empty] = math.nan
    return out


def _overlap_matrices(frames: Sequence[tuple[Sequence[Box3D], Sequence[Box3D]]]
                      ) -> list[np.ndarray]:
    """:func:`frame_overlaps` of many frames of (row boxes, column boxes),
    every pair of every frame clipped in one batched pass, with the row
    box as the subject."""
    row_boxes = _box_columns([b for boxes, _ in frames for b in boxes])
    col_boxes = _box_columns([b for _, boxes in frames for b in boxes])
    n_rows = np.array([len(boxes) for boxes, _ in frames], dtype=int)
    n_cols = np.array([len(boxes) for _, boxes in frames], dtype=int)
    sizes = n_rows * n_cols
    ends = np.cumsum(sizes)
    # Pair p of the split belongs to frame frame_of[p]; local is its
    # row-major position in that frame's matrix.
    frame_of = np.repeat(np.arange(len(frames)), sizes)
    local = np.arange(int(sizes.sum())) - (ends - sizes)[frame_of]
    pair_rows = (np.cumsum(n_rows) - n_rows)[frame_of] + local // n_cols[frame_of]
    pair_cols = (np.cumsum(n_cols) - n_cols)[frame_of] + local % n_cols[frame_of]

    values = np.empty((2, len(local)))
    for start in range(0, len(local), _CLIP_CHUNK):
        chunk = slice(start, start + _CLIP_CHUNK)
        footprint_a, area_a, y_a, h_a = (c[pair_rows[chunk]] for c in row_boxes)
        footprint_b, area_b, y_b, h_b = (c[pair_cols[chunk]] for c in col_boxes)
        vertices, counts = clip_convex(footprint_a, footprint_b)
        inter = np.where(counts >= 3, np.abs(polygon_area(vertices, counts)), 0.0)
        # Vertical extent is [y - h, y]: y grows downwards.
        y_overlap = np.minimum(y_a, y_b) - np.maximum(y_a - h_a, y_b - h_b)
        values[0, chunk] = _ratio(inter * np.where(y_overlap > 0.0, y_overlap, 0.0),
                                  area_a * h_a, area_b * h_b)
        values[1, chunk] = _ratio(inter, area_a, area_b)
    return [values[:, end - size:end].reshape(2, r, c)
            for end, size, r, c in zip(ends.tolist(), sizes.tolist(),
                                       n_rows.tolist(), n_cols.tolist())]


def frame_overlaps(preds: Sequence[ObjectAnnotation],
                   gts: Sequence[ObjectAnnotation]) -> np.ndarray:
    """3D (plane 0) and BEV (plane 1) IoU of every (prediction, ground
    truth) pair of a frame, shape ``(2, len(preds), len(gts))``.

    Each pair is clipped once. A pair whose boxes are both degenerate
    under a metric holds NaN in that metric's plane.
    """
    return _overlap_matrices([([annotation_box3d(p) for p in preds],
                               [annotation_box3d(g) for g in gts])])[0]


def _one_pair(a: Box3D, b: Box3D, metric: str) -> float:
    k = _METRICS[metric]
    value = float(_overlap_matrices([([a], [b])])[0][k, 0, 0])
    if math.isnan(value):
        raise ValueError(_DEGENERATE[k])
    return value


def bev_iou(a: Box3D, b: Box3D) -> float:
    """Bird's-eye-view overlap of the two rotated footprints."""
    return _one_pair(a, b, "bev")


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volume overlap: footprint intersection times vertical overlap."""
    return _one_pair(a, b, "3d")


# Rows of uniform draws the Monte-Carlo sampler maps and tests at a time:
# 1.5 MB of draws, so its memory does not grow with n_samples.
_MC_CHUNK = 65_536


def monte_carlo_iou_3d(a: Box3D, b: Box3D, n_samples: int = 1_000_000,
                       seed: int = 0) -> float:
    """Sampling estimate of the 3D overlap, independent of the clipping path.

    Uniform points inside box ``a`` are tested for membership in ``b``;
    the hit fraction scales a's exact volume into an intersection volume.

    Both rotations and both centres fold into one affine map from a's
    local frame to b's, built once, and applied as per-column
    multiply-adds. Points are drawn and tested in chunks of 65,536 rows
    from one generator. Chunked draws equal a single draw bit for bit,
    so the estimate does not depend on the chunk size, and memory stays
    bounded: a 4e6-sample call peaks at about 4.6 MB of numpy
    allocations.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    ha, wa, la = a.dims
    hb, wb, lb = b.dims
    vol_a = ha * wa * la
    vol_b = hb * wb * lb
    if vol_a <= 0 and vol_b <= 0:
        raise ValueError(_DEGENERATE[0])
    rot_b = yaw_matrix(b.yaw)
    # Row-vector map p_b = p_a @ m + offset. Both rotations are about y,
    # so m's y row and column are exactly (0, 1, 0) and b_y = l_y + offset_y.
    m = yaw_matrix(a.yaw).T @ rot_b
    offset = (np.asarray(a.center) - np.asarray(b.center)) @ rot_b
    rng = np.random.default_rng(seed)
    hits = 0
    for start in range(0, n_samples, _MC_CHUNK):
        u = rng.uniform(0.0, 1.0, size=(min(_MC_CHUNK, n_samples - start), 3))
        lx = (u[:, 0] - 0.5) * la
        lz = (u[:, 2] - 0.5) * wa
        by = -u[:, 1] * ha + offset[1]
        inside = (by <= 0.0) & (by >= -hb)
        inside &= np.abs(lx * m[0, 0] + lz * m[2, 0] + offset[0]) <= lb / 2
        inside &= np.abs(lx * m[0, 2] + lz * m[2, 2] + offset[2]) <= wb / 2
        hits += int(np.count_nonzero(inside))
    inter = vol_a * (hits / n_samples)
    return float(inter / (vol_a + vol_b - inter))


def random_box_pair(rng: np.random.Generator) -> tuple[Box3D, Box3D]:
    """A seeded pair of rotated boxes close enough to overlap often: the
    oracle's test distribution.

    Draws, in order: a's centre, both dims, b's centre offset, both yaws.
    """
    center = rng.uniform([-4.0, -1.0, -4.0], [4.0, 1.0, 4.0])
    dims_a = rng.uniform(0.5, 3.0, size=3)
    dims_b = rng.uniform(0.5, 3.0, size=3)
    offset = rng.uniform(-2.0, 2.0, size=3)
    a = Box3D(center=tuple(center), dims=tuple(dims_a),
              yaw=float(rng.uniform(-np.pi, np.pi)))
    b = Box3D(center=tuple(center + offset), dims=tuple(dims_b),
              yaw=float(rng.uniform(-np.pi, np.pi)))
    return a, b


def filter_by_difficulty(annotations: Sequence[ObjectAnnotation],
                         difficulty: Difficulty,
                         class_name: str = "Car") -> list[ObjectAnnotation]:
    """Ground truths counted at a difficulty setting: the requested tier
    and everything easier, restricted to one class."""
    return [a for a in annotations
            if a.class_name == class_name and assign_difficulty(a) <= difficulty]


def match_frame(preds: Sequence[ObjectAnnotation], gts: Sequence[ObjectAnnotation],
                iou_threshold: float, metric: str = "3d", frame: str = "",
                ignored_gts: Sequence[ObjectAnnotation] = ()) -> MatchResult:
    """Greedily assign predictions to ground truths within one frame.

    Predictions are visited in descending score order; each takes the
    highest-overlap still-unmatched ground truth at or above the
    threshold. Callers filter ``gts`` beforehand (class, difficulty);
    excluded objects neither match nor count as misses. A prediction left
    unmatched that overlaps an ``ignored_gts`` entry at the threshold is
    dropped from scoring entirely (not a false positive), mirroring the
    benchmark treatment of detections on out-of-tier objects.
    """
    all_gts = [*gts, *ignored_gts]
    overlaps = frame_overlaps(preds, all_gts)
    positions = (range(len(preds)), range(len(all_gts)))
    return _greedy_match(overlaps, *_frame_scores(preds, frame, positions[0]),
                         range(len(gts)), range(len(gts), len(all_gts)),
                         iou_threshold, metric, frame, positions)


def _frame_scores(preds: Sequence[ObjectAnnotation], frame: str,
                  positions: Sequence[int]) -> tuple[list[float], list[int]]:
    """The predictions' scores and their visiting order, by descending
    score and then index; a missing score raises, naming the frame and
    the prediction's position in it."""
    for p, position in zip(preds, positions):
        if p.score is None:
            raise ValueError(f"frame {frame!r}, prediction {position}: no score")
    scores = [p.score for p in preds]
    return scores, sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def _greedy_match(overlaps: np.ndarray, scores: list[float], pred_order: Sequence[int],
                  gt_cols: Sequence[int], ignored_cols: Sequence[int],
                  iou_threshold: float, metric: str, frame: str,
                  positions: tuple[Sequence[int], Sequence[int]]) -> MatchResult:
    """:func:`match_frame` over columns of a frame's :func:`frame_overlaps`.

    Rows are visited in ``pred_order``, as :func:`_frame_scores` gives
    it, and the result shares ``scores``. ``gt_cols`` and
    ``ignored_cols`` index the matrix's ground truths; the result's
    ground-truth indices are positions in ``gt_cols``. Reading a NaN pair
    raises, naming the frame and the pair's ``positions`` (row's,
    column's) among the frame's objects, counted from 0.
    """
    if metric not in _METRICS:
        raise ValueError(f"metric must be '3d' or 'bev', got {metric!r}")
    k = _METRICS[metric]
    rows = overlaps[k].tolist()

    def degenerate(i: int, col: int) -> ValueError:
        return ValueError(f"frame {frame!r}, prediction {positions[0][i]} and "
                          f"ground truth {positions[1][col]}: {_DEGENERATE[k]}")

    gt_taken = [False] * len(gt_cols)
    pairs = []
    unmatched_preds = []
    ignored_preds = []
    for i in pred_order:
        row = rows[i]
        best_j, best_iou = -1, 0.0
        for j, col in enumerate(gt_cols):
            if gt_taken[j]:
                continue
            v = row[col]
            if v >= iou_threshold and v > best_iou:
                best_j, best_iou = j, v
            elif math.isnan(v):
                raise degenerate(i, col)
        if best_j >= 0:
            gt_taken[best_j] = True
            pairs.append((i, best_j, best_iou))
            continue
        for col in ignored_cols:
            v = row[col]
            if v >= iou_threshold:
                ignored_preds.append(i)
                break
            if math.isnan(v):
                raise degenerate(i, col)
        else:
            unmatched_preds.append(i)
    unmatched_gts = [j for j, taken in enumerate(gt_taken) if not taken]
    return MatchResult(frame_id=frame, pairs=pairs,
                       unmatched_pred_indices=sorted(unmatched_preds),
                       unmatched_gt_indices=unmatched_gts,
                       pred_scores=scores,
                       ignored_pred_indices=sorted(ignored_preds))


def _recall_grid(mode: str) -> list[float]:
    if mode == "11":
        return [k / 10.0 for k in range(11)]
    if mode == "40":
        return [k / 40.0 for k in range(1, 41)]
    raise ValueError(f"ap mode must be '11' or '40', got {mode!r}")


def average_precision(all_matches: Iterable[MatchResult], n_gt: int,
                      mode: str = "11") -> PrecisionRecallCurve:
    """Score-sorted precision/recall sweep with interpolated AP.

    The precision at each grid recall is the maximum precision attained
    at that recall or above. A curve with at least one true positive
    starts at the conventional (recall 0, precision 1) anchor; with none
    the AP is 0.
    """
    if n_gt < 1:
        raise ValueError("average precision needs at least one ground truth")
    events = []  # (score, frame, pred index, is_tp)
    for m in all_matches:
        for i, _, _ in m.pairs:
            events.append((m.pred_scores[i], m.frame_id, i, True))
        for i in m.unmatched_pred_indices:
            events.append((m.pred_scores[i], m.frame_id, i, False))
    events.sort(key=lambda e: (-e[0], e[1], e[2]))

    tp = 0
    points = []
    for n_scored, (_, _, _, is_tp) in enumerate(events, start=1):
        tp += is_tp
        points.append((tp / n_gt, tp / n_scored))
    if tp == 0:
        return PrecisionRecallCurve(points=points, ap=0.0)
    curve = [(0.0, 1.0)] + points
    # Recall never decreases along the curve, so the points at or above a
    # level are a suffix: one reverse running max gives every suffix's
    # maximum, and the trailing 0.0 stands for the empty suffix.
    recalls, precisions = zip(*curve)
    envelope = [*accumulate(reversed(precisions), max)][::-1] + [0.0]
    interpolated = [envelope[bisect_left(recalls, level)] for level in _recall_grid(mode)]
    ap = sum(interpolated) / len(interpolated)
    return PrecisionRecallCurve(points=curve, ap=ap)


def localization_report(pred_centers: np.ndarray,
                        gt_centers: np.ndarray) -> LocalizationReport:
    """Relative accuracy of matched 3D centres, overall and per depth bin."""
    pred_centers = np.asarray(pred_centers, dtype=float).reshape(-1, 3)
    gt_centers = np.asarray(gt_centers, dtype=float).reshape(-1, 3)
    if len(pred_centers) == 0 or pred_centers.shape != gt_centers.shape:
        raise ValueError("need at least one matched (prediction, ground truth) pair")
    z_gt = gt_centers[:, 2]
    if np.any(z_gt <= 0):
        raise ValueError("ground-truth depths must be positive")

    rel_err = np.abs(pred_centers - gt_centers) / z_gt[:, None]

    def accuracy(err: np.ndarray) -> float:
        return float(np.clip(1.0 - err.mean(), 0.0, 1.0))

    bins = []
    edges = DEPTH_BIN_EDGES
    for k in range(len(edges) - 1):
        lo, hi = edges[k], edges[k + 1]
        in_bin = (z_gt >= lo) & ((z_gt < hi) if k < len(edges) - 2 else (z_gt <= hi))
        count = int(in_bin.sum())
        ra = [accuracy(rel_err[in_bin, c]) if count else None for c in range(3)]
        bins.append(DepthBinAccuracy(lo, hi, count, *ra))
    return LocalizationReport(
        ra_u=accuracy(rel_err[:, 0]),
        ra_v=accuracy(rel_err[:, 1]),
        ra_z=accuracy(rel_err[:, 2]),
        count=len(pred_centers),
        depth_bins=bins)


def evaluate_frames(gts_by_frame: dict[str, list[ObjectAnnotation]],
                    preds_by_frame: dict[str, list[ObjectAnnotation]],
                    thresholds: Sequence[float] = (0.3, 0.5, 0.7),
                    ap_mode: str = "11",
                    class_name: str = "Car") -> dict:
    """Full split evaluation: AP tables per metric/difficulty/threshold
    plus a localization report over matched pairs.

    Localization pairs come from 3D matching at the lowest threshold with
    the most inclusive difficulty filter: they are read from the hard
    tier's pass, since ignored columns never change a pass's pairs. A
    matched ground truth whose
    depth is not positive raises, naming the frame and the ground truth's
    position among the frame's objects.
    """
    frames = sorted(gts_by_frame)
    difficulties = [Difficulty.EASY, Difficulty.MODERATE, Difficulty.HARD]
    report: dict = {
        "class": class_name,
        "frames": len(frames),
        "n_gt": {},
        "ap_3d": {},
        "ap_bev": {},
        "pr_curves": {},
    }

    # Per frame, the positions of the class's predictions and ground truths
    # among all of the frame's objects.
    positions = {f: ([k for k, p in enumerate(preds_by_frame.get(f, []))
                      if p.class_name == class_name],
                     [k for k, g in enumerate(gts_by_frame[f])
                      if g.class_name == class_name]) for f in frames}
    class_preds = {f: [preds_by_frame[f][k] for k in positions[f][0]] for f in frames}
    class_gts = {f: [gts_by_frame[f][k] for k in positions[f][1]] for f in frames}
    scores = {f: _frame_scores(class_preds[f], f, positions[f][0]) for f in frames}
    overlaps = dict(zip(frames, _overlap_matrices(
        [([annotation_box3d(p) for p in class_preds[f]],
          [annotation_box3d(g) for g in class_gts[f]]) for f in frames])))
    gt_tiers = {f: [assign_difficulty(g) for g in class_gts[f]] for f in frames}
    loc_threshold = min(thresholds)
    loc_matches = []
    for difficulty in difficulties:
        name = difficulty.name.lower()
        # Disjoint, order-preserving column subsets: the tier's ground
        # truths (as filter_by_difficulty selects them) and the rest.
        filtered = {f: [j for j, t in enumerate(gt_tiers[f]) if t <= difficulty]
                    for f in frames}
        ignored = {f: [j for j, t in enumerate(gt_tiers[f]) if t > difficulty]
                   for f in frames}
        n_gt = sum(len(v) for v in filtered.values())
        report["n_gt"][name] = n_gt
        for metric, key in (("3d", "ap_3d"), ("bev", "ap_bev")):
            report[key][name] = {}
            for thr in thresholds:
                if n_gt == 0:
                    report[key][name][f"{thr:g}"] = None
                    continue
                matches = [_greedy_match(overlaps[f], *scores[f], filtered[f], ignored[f],
                                         thr, metric, f, positions[f]) for f in frames]
                if difficulty == Difficulty.HARD and metric == "3d" and thr == loc_threshold:
                    loc_matches = [(f, m, filtered[f]) for f, m in zip(frames, matches)]
                curve = average_precision(matches, n_gt, mode=ap_mode)
                report[key][name][f"{thr:g}"] = curve.ap
                report["pr_curves"][f"{metric}_{name}_{thr:g}"] = curve.points

    pred_centers = []
    gt_centers = []
    for f, match, loc_cols in loc_matches:
        for i, j, _ in match.pairs:
            gt = class_gts[f][loc_cols[j]]
            if gt.location[2] <= 0:
                raise ValueError(f"frame {f!r}, ground truth {positions[f][1][loc_cols[j]]}: "
                                 f"depth {gt.location[2]:g} is not positive")
            pred_centers.append(class_preds[f][i].location)
            gt_centers.append(gt.location)
    if pred_centers:
        loc = localization_report(np.array(pred_centers), np.array(gt_centers))
        report["localization"] = {
            "iou_threshold": loc_threshold,
            "count": loc.count,
            "ra_u": loc.ra_u,
            "ra_v": loc.ra_v,
            "ra_z": loc.ra_z,
            "depth_bins": [asdict(b) for b in loc.depth_bins],
        }
    else:
        report["localization"] = None
    return report
