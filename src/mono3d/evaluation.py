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

A split evaluation lays the split out once: each side's label tables
end to end, a checked box stack per side from their columns, and one
index of the (prediction, ground truth) pairs, which one batched clip,
one matching kernel for every (tier, metric, threshold) pass and the
localization report all read. ``iou_3d`` and ``bev_iou`` are one-pair
calls of the overlap pass, and ``average_precision`` is one pass of AP
over given per-frame matches. Every box entering an overlap or the
sampler goes through one check: finite values, non-negative dims, a
finite footprint area and volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .geometry import Box3D, bev_footprint, yaw_matrix
from .kitti_io import DIMS, LOCATION, ROTATION_Y, SCORE, Difficulty, LabelTable, assign_difficulty

# Vertices closer than this are merged after clipping to avoid slivers.
VERTEX_MERGE_EPS = 1e-9

DEPTH_BIN_EDGES = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 90.0)


@dataclass
class MatchResult:
    """One frame's matched pairs and scored predictions, as
    :func:`average_precision` reads them."""

    frame_id: str
    pairs: list[tuple[int, int, float]]          # (pred index, gt index, iou)
    unmatched_pred_indices: list[int]
    unmatched_gt_indices: list[int]
    pred_scores: list[float]                     # score per prediction, input order
    ignored_pred_indices: list[int] = field(default_factory=list)


@dataclass
class PrecisionRecallCurve:
    points: np.ndarray  # (N, 2) float64 (recall, precision) rows, recall ascending
    ap: float


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


# One row per plane of _pair_overlaps' values, in plane order: the
# metric's name in pr_curves keys, its report key, and the error for a
# pair that is degenerate in both boxes under it.
_PLANES = (("3d", "ap_3d", "both boxes are degenerate"),
           ("bev", "ap_bev", "both footprints are degenerate"))

# (prediction, ground truth) pairs clipped at a time: bounds the clip's
# temporaries, so memory does not grow with the split.
_CLIP_CHUNK = 2048


def _box_columns(boxes: Box3D, name: Callable[[int], str]) -> tuple[np.ndarray, ...]:
    """Per-box arrays of a stack: BEV footprints ``(B, 4, 2)``, their signed
    areas, bottom-face heights ``y`` and box heights ``h``.

    Rejects the first box whose centre, dims or yaw is not finite or whose
    dims are negative, then the first whose footprint area or volume
    (area times h) is not finite, then the first whose footprint
    coordinates are too large to clip, naming it ``name(index)``."""
    def check(sound: np.ndarray, rule: str) -> None:
        if not sound.all():
            i = int(np.argmin(sound))
            raise ValueError(f"{name(i)}: {rule}, got centre {tuple(boxes.center[i].tolist())}, "
                             f"dims {tuple(boxes.dims[i].tolist())}, yaw {boxes.yaw[i]}")

    check(np.isfinite(boxes.center).all(axis=1) & np.isfinite(boxes.yaw)
          & ((boxes.dims >= 0) & (boxes.dims < math.inf)).all(axis=1),
          "centre, dims and yaw must be finite, dims non-negative")
    # Finite values can still overflow: the check below catches it.
    with np.errstate(over="ignore", invalid="ignore"):
        footprints = bev_footprint(boxes)
        area = polygon_area(footprints, np.full(len(footprints), 4))
        check(np.isfinite(area * boxes.dims[:, 0]), "footprint area and volume must be finite")
        # A far box's area can be a finite 0 yet overflow the clip. With
        # |coordinates| <= c, clip_convex's edge values reach 8c^2 and their
        # differences 16c^2; polygon_area's two sums over at most 8 vertices
        # reach 8c^2 each, and their difference 16c^2.
        check(np.isfinite(16 * np.square(footprints)).all(axis=(1, 2)),
              "footprint coordinates must be small enough to clip")
    return footprints, area, boxes.center[:, 1], boxes.dims[:, 0]


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


def _pair_overlaps(row_boxes: tuple[np.ndarray, ...], col_boxes: tuple[np.ndarray, ...],
                   pair_rows: Sequence[int], pair_cols: Sequence[int]) -> np.ndarray:
    """3D and BEV IoU of the (row box, column box) pairs ``(pair_rows[k],
    pair_cols[k])``, shape ``(2, len(pair_rows))``. The two sides are
    :func:`_box_columns` of box stacks. Every pair is clipped in one
    batched pass, with the row box as the subject. A pair holds NaN under
    a metric where both of its boxes are degenerate (zero area or volume)."""
    values = np.empty((2, len(pair_rows)))
    for start in range(0, len(pair_rows), _CLIP_CHUNK):
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
    return values


def _pair_columns(a: Box3D, b: Box3D) -> list[tuple[np.ndarray, ...]]:
    """:func:`_box_columns` of each box as a stack of one, named ``box a`` or ``box b``."""
    stacks = (Box3D(*(np.array([v], dtype=float) for v in (box.center, box.dims, box.yaw)))
              for box in (a, b))
    return [_box_columns(stack, lambda _: name) for stack, name in zip(stacks, ("box a", "box b"))]


def _one_pair(a: Box3D, b: Box3D, plane: int) -> float:
    value = float(_pair_overlaps(*_pair_columns(a, b), [0], [0])[plane, 0])
    if math.isnan(value):
        raise ValueError(_PLANES[plane][2])
    return value


def bev_iou(a: Box3D, b: Box3D) -> float:
    """Bird's-eye-view overlap of the two rotated footprints."""
    return _one_pair(a, b, 1)


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volume overlap: footprint intersection times vertical overlap."""
    return _one_pair(a, b, 0)


# Rows of uniform draws the Monte-Carlo sampler maps and tests at a time.
# Its reused buffers take 66 bytes a row, about 1 MB in all: they stay in
# a 2 MB L2 cache, and memory does not grow with n_samples.
_MC_CHUNK = 16_384


def monte_carlo_iou_3d(a: Box3D, b: Box3D, n_samples: int = 1_000_000,
                       seed: int = 0) -> float:
    """Sampling estimate of the 3D overlap, independent of the clipping path.

    Uniform points inside box ``a`` are tested for membership in ``b``;
    the hit fraction scales a's exact volume into an intersection volume.

    Both rotations and both centres fold into one affine map from a's
    local frame to b's, built once, and applied as per-column
    multiply-adds. Points are drawn and tested in chunks of 16,384 rows
    from one generator, through buffers reused from chunk to chunk, and
    every pair draws all of its samples, so a call's cost depends only on
    ``n_samples``. Chunked draws equal a single draw bit for bit, so the
    estimate does not depend on the chunk size, and memory stays
    bounded: a 4e6-sample call peaks at about 1.0 MB of numpy
    allocations.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    _pair_columns(a, b)
    ha, wa, la = a.dims
    hb, wb, lb = b.dims
    vol_a = ha * wa * la
    vol_b = hb * wb * lb
    if vol_a <= 0 and vol_b <= 0:
        raise ValueError(_PLANES[0][2])
    rot_b = yaw_matrix(b.yaw)
    # Row-vector map p_b = p_a @ m + offset. Both rotations are about y,
    # so m's y row and column are exactly (0, 1, 0) and b_y = l_y + offset_y.
    m = yaw_matrix(a.yaw).T @ rot_b
    offset = (np.asarray(a.center) - np.asarray(b.center)) @ rot_b
    rows = min(_MC_CHUNK, n_samples)
    draws = np.empty((rows, 3))
    floats = np.empty((5, rows))
    flags = np.empty((2, rows), dtype=bool)
    rng = np.random.default_rng(seed)
    hits = 0
    for start in range(0, n_samples, rows):
        k = min(rows, n_samples - start)
        u = draws[:k]
        by, bx, bz, lx, lz = floats[:, :k]
        inside, test = flags[:, :k]
        rng.random(out=u)
        np.negative(u[:, 1], out=by)
        np.multiply(by, ha, out=by)
        np.add(by, offset[1], out=by)
        np.subtract(u[:, 0], 0.5, out=lx)
        np.multiply(lx, la, out=lx)
        np.subtract(u[:, 2], 0.5, out=lz)
        np.multiply(lz, wa, out=lz)
        np.multiply(lx, m[0, 0], out=bx)
        np.multiply(lz, m[2, 0], out=bz)
        np.add(bx, bz, out=bx)
        np.add(bx, offset[0], out=bx)
        np.multiply(lx, m[0, 2], out=bz)
        np.multiply(lz, m[2, 2], out=lx)
        np.add(bz, lx, out=bz)
        np.add(bz, offset[2], out=bz)
        np.less_equal(by, 0.0, out=inside)
        np.greater_equal(by, -hb, out=test)
        inside &= test
        np.less_equal(np.abs(bx, out=bx), lb / 2, out=test)
        inside &= test
        np.less_equal(np.abs(bz, out=bz), wb / 2, out=test)
        inside &= test
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


def check_thresholds(thresholds: Sequence[float]) -> None:
    """Reject an empty list of IoU thresholds, a threshold outside (0, 1]
    (NaN included), and two thresholds with one report key ``f"{thr:g}"``."""
    if not len(thresholds):
        raise ValueError("need at least one threshold")
    if any(not (0.0 < t <= 1.0) for t in thresholds):
        raise ValueError(f"thresholds must lie in (0, 1], got {thresholds}")
    # The report keys each threshold by f"{thr:g}", so two thresholds
    # with one key would leave one entry for two requested.
    keys = [f"{t:g}" for t in thresholds]
    duplicates = sorted({k for k in keys if keys.count(k) > 1})
    if duplicates:
        raise ValueError(f"thresholds must be distinct, got {', '.join(duplicates)} "
                         f"more than once in {thresholds}")


def _match_passes(values: np.ndarray, row: np.ndarray, rank: np.ndarray, gt: np.ndarray,
                  tiers: np.ndarray, n_preds: int, passes: Sequence[tuple[int, int, float]]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Greedy matching of a split under every pass, as rank steps over the
    split's pairs.

    ``values`` holds the overlaps of the split's pairs, one column per
    pair, with no NaN in a pass's plane. Pair ``k`` joins prediction
    ``row[k]`` (its index among the split's ``n_preds`` predictions in
    visit order), visited at rank ``rank[k]`` in its frame, with ground
    truth ``gt[k]`` (its index in the split). The pairs come frame by
    frame, each frame's in (rank, ground truth) order. ``tiers`` holds the
    split's ground-truth tiers. A pass (tier, metric plane, threshold)
    matches the ground truths of its tier and easier; the rest are its
    out-of-tier columns.

    The pairs are sorted stably by rank, so step ``r``'s pairs are one
    slice, and a segment, one rank-``r`` prediction's pairs in column
    order, starts wherever ``row`` changes. Step ``r`` visits every
    frame's rank-``r`` prediction under every pass, laid out as (pair,
    pass): out of the pass's tier and the columns taken so far, it takes
    the first column of highest overlap (a segment max, then a segment
    min over the columns that reach it), which is a match where it
    reaches the threshold. An unmatched prediction is ignored where an
    out-of-tier column reaches it.

    Returns, per pass and prediction row, the matched ground truth's
    index in the split or -1, and whether an unmatched prediction is
    ignored.
    """
    pass_rows = np.array(passes, dtype=float).reshape(-1, 3)
    pass_tiers, threshold = pass_rows[:, 0], pass_rows[:, 2]
    planes = pass_rows[:, 1].astype(np.intp)
    # Step r's pairs, in (frame, column) order, follow step r - 1's.
    order = np.argsort(rank, kind="stable")
    row, rank, gt = row[order], rank[order], gt[order]
    pair_values = values.T[order]
    pair_tiers = tiers[gt]
    # Each segment's first pair, and the segments each step ends at.
    heads = np.flatnonzero(np.diff(row, prepend=-1))
    visited = row[heads]
    bounds = np.append(heads, len(gt))
    lengths = np.diff(bounds)
    step_ends = np.cumsum(np.bincount(rank[heads])).tolist()
    # A pass's closed columns: out of its tier, then also taken.
    closed = tiers[:, None] > pass_tiers
    matched = np.full((len(pass_rows), n_preds), -1)
    ignored = np.zeros(matched.shape, dtype=bool)
    for a, b in zip([0] + step_ends, step_ends):
        start, end = bounds[a], bounds[b]
        starts = heads[a:b] - start
        overlap = pair_values[start:end, planes]
        candidates = np.where(closed[gt[start:end]], -np.inf, overlap)
        best = np.maximum.reduceat(candidates, starts)
        at_best = candidates == np.repeat(best, lengths[a:b], axis=0)
        first = np.minimum.reduceat(np.where(at_best, np.arange(start, end)[:, None], end),
                                    starts)
        hit = best >= threshold
        s, p = np.nonzero(hit)
        closed[gt[first[s, p]], p] = True
        matched[:, visited[a:b]] = np.where(hit, gt[first], -1).T
        reaches = (overlap >= threshold) & (pair_tiers[start:end, None] > pass_tiers)
        ignored[:, visited[a:b]] = (~hit & np.logical_or.reduceat(reaches, starts)).T
    return matched, ignored


def _recall_grid(mode: str) -> list[float]:
    if mode == "11":
        return [k / 10.0 for k in range(11)]
    if mode == "40":
        return [k / 40.0 for k in range(1, 41)]
    raise ValueError(f"ap mode must be '11' or '40', got {mode!r}")


def _curve(is_tp: np.ndarray, n_gt: int, grid: list[float]) -> PrecisionRecallCurve:
    """The precision/recall sweep and interpolated AP of scored
    predictions, ``is_tp`` in descending score order, on a recall grid.

    The precision at each grid recall is the maximum precision attained
    at that recall or above. A curve with at least one true positive
    starts at the conventional (recall 0, precision 1) anchor; with none
    the AP is 0, and with no prediction the curve is (0, 2).
    """
    tp = np.cumsum(is_tp, dtype=np.int64)
    # Integer counts divided as float64, as Python divides the same ints.
    points = np.column_stack([tp / n_gt, tp / np.arange(1, len(tp) + 1)])
    if not len(tp) or tp[-1] == 0:
        return PrecisionRecallCurve(points=points, ap=0.0)
    points = np.vstack([(0.0, 1.0), points])
    # Recall never decreases along the curve, anchor included, so the
    # points at or above a level are a suffix: one reverse running max
    # gives every suffix's maximum, and the trailing 0.0 stands for the
    # empty suffix. The first point at or above a level is its
    # searchsorted (bisect_left) position.
    envelope = np.maximum.accumulate(points[::-1, 1])[::-1]
    interpolated = np.append(envelope, 0.0)[np.searchsorted(points[:, 0], grid)].tolist()
    ap = sum(interpolated) / len(interpolated)
    return PrecisionRecallCurve(points=points, ap=ap)


def average_precision(all_matches: Iterable[MatchResult], n_gt: int,
                      mode: str = "11") -> PrecisionRecallCurve:
    """Score-sorted precision/recall (N, 2) array with interpolated AP over
    per-frame match results: one pass of the split's AP kernel.

    Matched and unmatched predictions are scored, ignored ones are not;
    they are sorted by descending score, then frame id, then index.
    """
    grid = _recall_grid(mode)
    if n_gt < 1:
        raise ValueError("average precision needs at least one ground truth")
    matches = list(all_matches)
    frame_rank = {f: k for k, f in enumerate(sorted({m.frame_id for m in matches}))}
    events = [(m.pred_scores[i], frame_rank[m.frame_id], i, is_tp) for m in matches
              for indices, is_tp in (([i for i, _, _ in m.pairs], True),
                                     (m.unmatched_pred_indices, False))
              for i in indices]
    score, frame, index, is_tp = np.array(events, dtype=float).reshape(-1, 4).T
    return _curve(is_tp[np.lexsort((index, frame, -score))] > 0, n_gt, grid)


def localization_report(pred_centers: np.ndarray, gt_centers: np.ndarray) -> dict:
    """Relative accuracy of matched 3D centres, overall and per depth bin.

    Each coordinate error is normalised by the ground-truth depth, so
    ``ra = 1 - mean(|err| / z_gt)`` clamped to [0, 1]. Returns ``count``,
    ``ra_u``, ``ra_v``, ``ra_z`` and ``depth_bins``, one dict per bin
    with ``lo``, ``hi``, ``count`` and its three accuracies (None in an
    empty bin).
    """
    pred_centers = np.asarray(pred_centers, dtype=float)
    gt_centers = np.asarray(gt_centers, dtype=float)
    if pred_centers.shape != gt_centers.shape or pred_centers.shape[1:] != (3,):
        raise ValueError(f"centres must be two (N, 3) arrays, got {pred_centers.shape} "
                         f"predicted and {gt_centers.shape} ground-truth")
    if len(pred_centers) == 0:
        raise ValueError("need at least one matched (prediction, ground truth) pair")
    if not (np.isfinite(pred_centers).all() and np.isfinite(gt_centers).all()):
        raise ValueError("centres must be finite")
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
        ra_u, ra_v, ra_z = (accuracy(rel_err[in_bin, c]) if count else None for c in range(3))
        bins.append({"lo": lo, "hi": hi, "count": count, "ra_u": ra_u, "ra_v": ra_v, "ra_z": ra_z})
    ra_u, ra_v, ra_z = (accuracy(rel_err[:, c]) for c in range(3))
    return {"count": len(pred_centers), "ra_u": ra_u, "ra_v": ra_v, "ra_z": ra_z,
            "depth_bins": bins}


def evaluate_frames(gts_by_frame: dict[str, LabelTable],
                    preds_by_frame: dict[str, LabelTable],
                    thresholds: Sequence[float] = (0.3, 0.5, 0.7),
                    ap_mode: str = "11",
                    class_name: str = "Car") -> dict:
    """Full split evaluation: AP tables and ``pr_curves``, (N, 2) float64
    arrays, per metric/difficulty/threshold, plus a localization report.
    The ground-truth frames are the split: a frame missing from
    ``preds_by_frame`` has no predictions, and one outside the split raises.

    Before matching, a prediction without a score, then a box that fails
    :func:`_box_columns`' check (predictions in visit order first), then,
    whether or not a pass runs, the first pair in (frame, visit rank,
    column) order degenerate in both boxes raises, named by positions
    among the frame's objects.

    Localization pairs come from 3D matching at the lowest threshold with
    the most inclusive difficulty filter: they are read from the hard
    tier's pass, since ignored columns never change a pass's pairs. A
    matched ground truth whose depth is not positive raises, naming the
    frame and the ground truth's position among the frame's objects.
    """
    check_thresholds(thresholds)
    grid = _recall_grid(ap_mode)
    frames = sorted(gts_by_frame)
    strays = sorted(preds_by_frame.keys() - gts_by_frame.keys())
    if strays:
        raise ValueError(f"frame {strays[0]!r} has predictions but no ground truth")

    def class_rows(tables_by_frame: dict[str, LabelTable]):
        """The side's tables end to end; its class rows, their frames and positions."""
        tables = [tables_by_frame.get(f) or LabelTable.of([]) for f in frames]
        sizes = np.array([len(t) for t in tables], dtype=int)
        table = LabelTable.concat(tables)
        rows = np.flatnonzero(np.array(table.class_names, dtype=str) == class_name)
        frame = np.repeat(np.arange(len(frames)), sizes)[rows]
        return table, rows, frame, rows - (np.cumsum(sizes) - sizes)[frame]

    pred_table, pred_rows, pred_frame, pred_positions = class_rows(preds_by_frame)
    gt_table, gt_rows, gt_frame, gt_positions = class_rows(gts_by_frame)
    n_rows = np.bincount(pred_frame, minlength=len(frames))
    n_cols = np.bincount(gt_frame, minlength=len(frames))
    preds = pred_table.values[pred_rows]
    unscored = np.flatnonzero(np.isnan(preds[:, SCORE]))
    if len(unscored):
        e = unscored[0]
        raise ValueError(f"frame {frames[pred_frame[e]]!r}, prediction {pred_positions[e]}: "
                         "no score")
    # Visit order: by frame, then descending score, then index (lexsort is stable).
    visit = np.lexsort((-preds[:, SCORE], pred_frame))
    tiers = assign_difficulty(gt_table)[gt_rows]
    gts = gt_table.values[gt_rows]
    pred_boxes = Box3D(preds[visit, LOCATION], preds[visit, DIMS], preds[visit, ROTATION_Y])
    gt_boxes = Box3D(gts[:, LOCATION], gts[:, DIMS], gts[:, ROTATION_Y])
    # The pair index: frame by frame, each frame's (prediction, ground
    # truth) matrix row-major. Per pair: its frame, its prediction's visit
    # rank and row (index in visit order), its ground truth's index.
    n_pairs = n_rows * n_cols
    frame = np.repeat(np.arange(len(frames)), n_pairs)
    rank, col = np.divmod(np.arange(len(frame)) - (np.cumsum(n_pairs) - n_pairs)[frame],
                          n_cols[frame])
    row = (np.cumsum(n_rows) - n_rows)[frame] + rank
    gt = (np.cumsum(n_cols) - n_cols)[frame] + col
    values = _pair_overlaps(
        _box_columns(pred_boxes, lambda i: f"frame {frames[pred_frame[visit[i]]]!r}, "
                                           f"prediction {pred_positions[visit[i]]}"),
        _box_columns(gt_boxes, lambda g: f"frame {frames[gt_frame[g]]!r}, "
                                         f"ground truth {gt_positions[g]}"),
        row, gt)
    # With dims >= 0, a pair degenerate in BEV is degenerate in 3D too.
    degenerate = np.flatnonzero(np.isnan(values[0]))
    if len(degenerate):
        d = degenerate[0]
        raise ValueError(f"frame {frames[frame[d]]!r}, prediction {pred_positions[visit[row[d]]]} "
                         f"and ground truth {gt_positions[gt[d]]}: {_PLANES[0][2]}")

    difficulties = [Difficulty.EASY, Difficulty.MODERATE, Difficulty.HARD]
    n_gts = {d: int((tiers <= d).sum()) for d in difficulties}
    passes = [(d, plane, thr) for d in difficulties if n_gts[d]
              for plane in range(len(_PLANES)) for thr in thresholds]
    matched, ignored = _match_passes(values, row, rank, gt, tiers, len(preds), passes)

    # A tier without ground truth runs no pass: its entries stay None.
    report: dict = {
        "class": class_name,
        "frames": len(frames),
        "n_gt": {d.name.lower(): n_gts[d] for d in difficulties},
        **{key: {d.name.lower(): dict.fromkeys(f"{thr:g}" for thr in thresholds)
                 for d in difficulties} for _, key, _ in _PLANES},
        "pr_curves": {},
    }
    # One sort scores every pass: entries are frame by frame in visit
    # order, so a stable sort by descending score orders them by (score,
    # frame, index) as well.
    by_score = np.argsort(-preds[visit, SCORE], kind="stable")
    is_tp = (matched >= 0)[:, by_score]
    scored = ~ignored[:, by_score]
    for p, (d, plane, thr) in enumerate(passes):
        metric, key, _ = _PLANES[plane]
        tier = d.name.lower()
        curve = _curve(is_tp[p][scored[p]], n_gts[d], grid)
        report[key][tier][f"{thr:g}"] = curve.ap
        report["pr_curves"][f"{metric}_{tier}_{thr:g}"] = curve.points

    loc_threshold = min(thresholds)
    report["localization"] = None
    if not n_gts[Difficulty.HARD]:
        return report
    loc = matched[passes.index((Difficulty.HARD, 0, loc_threshold))]
    rows = np.flatnonzero(loc >= 0)
    if not len(rows):
        return report
    located = gt_boxes.center[loc[rows]]
    shallow = np.flatnonzero(located[:, 2] <= 0)
    if len(shallow):
        g = loc[rows[shallow[0]]]
        raise ValueError(f"frame {frames[gt_frame[g]]!r}, ground truth {gt_positions[g]}: "
                         f"depth {located[shallow[0], 2]:g} is not positive")
    report["localization"] = {"iou_threshold": loc_threshold,
                              **localization_report(pred_boxes.center[rows], located)}
    return report
