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

A split evaluation computes each frame's (prediction, ground truth)
overlaps once, on first use, and shares them across every difficulty
tier, metric and threshold, and the localization pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area; positive for counter-clockwise vertex order."""
    x = vertices[:, 0]
    z = vertices[:, 1]
    return 0.5 * float(np.dot(x, np.roll(z, -1)) - np.dot(np.roll(x, -1), z))


def clip_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Clip a convex polygon by a convex CCW polygon (Sutherland-Hodgman).

    Returns the intersection's vertices (possibly empty); vertices within
    ``VERTEX_MERGE_EPS`` of each other are merged.
    """
    output = [tuple(p) for p in subject]
    n_clip = len(clip)
    for k in range(n_clip):
        if len(output) < 3:
            return np.zeros((0, 2))
        a = clip[k]
        b = clip[(k + 1) % n_clip]
        # Inside = left of the directed edge a->b for a CCW clip polygon.
        edge = (b[0] - a[0], b[1] - a[1])
        polygon = output
        output = []
        values = [edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0]) for p in polygon]
        for i, p in enumerate(polygon):
            q = polygon[(i + 1) % len(polygon)]
            vp, vq = values[i], values[(i + 1) % len(polygon)]
            if vp >= 0:
                output.append(p)
            if (vp > 0 > vq) or (vp < 0 < vq):
                t = vp / (vp - vq)
                output.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    merged: list[tuple[float, float]] = []
    for p in output:
        if not merged or (abs(p[0] - merged[-1][0]) > VERTEX_MERGE_EPS
                          or abs(p[1] - merged[-1][1]) > VERTEX_MERGE_EPS):
            merged.append(p)
    if len(merged) > 1 and (abs(merged[0][0] - merged[-1][0]) <= VERTEX_MERGE_EPS
                            and abs(merged[0][1] - merged[-1][1]) <= VERTEX_MERGE_EPS):
        merged.pop()
    return np.array(merged) if merged else np.zeros((0, 2))


# A box with its BEV footprint and the footprint's signed area.
_Footprinted = tuple[Box3D, np.ndarray, float]
# A pair's (3D IoU, BEV IoU); None where both boxes are degenerate under it.
_PairIous = tuple[Optional[float], Optional[float]]

# Metrics in the order _pair_ious returns them, and the error for a pair
# that is degenerate in both boxes under each.
_METRICS = ("3d", "bev")
_DEGENERATE = ("both boxes are degenerate", "both footprints are degenerate")


def _footprinted(box: Box3D) -> _Footprinted:
    footprint = bev_footprint(box)
    return box, footprint, polygon_area(footprint)


def _pair_ious(a: _Footprinted, b: _Footprinted) -> _PairIous:
    """3D and BEV IoU of two boxes from one clip with ``a`` as the subject."""
    box_a, footprint_a, area_a = a
    box_b, footprint_b, area_b = b
    inter = clip_convex(footprint_a, footprint_b)
    inter_area = abs(polygon_area(inter)) if len(inter) >= 3 else 0.0

    if area_a <= 0 and area_b <= 0:
        bev = None
    elif area_a <= 0 or area_b <= 0:
        bev = 0.0
    else:
        bev = inter_area / (area_a + area_b - inter_area)

    vol_a = area_a * box_a.dims[0]
    vol_b = area_b * box_b.dims[0]
    if vol_a <= 0 and vol_b <= 0:
        iou = None
    elif vol_a <= 0 or vol_b <= 0:
        iou = 0.0
    else:
        # Vertical extent is [y - h, y]: y grows downwards.
        y_overlap = min(box_a.center[1], box_b.center[1]) - max(
            box_a.center[1] - box_a.dims[0], box_b.center[1] - box_b.dims[0])
        inter_vol = inter_area * max(0.0, y_overlap)
        iou = inter_vol / (vol_a + vol_b - inter_vol)
    return iou, bev


def _read(ious: _PairIous, metric: str) -> float:
    k = _METRICS.index(metric)
    if ious[k] is None:
        raise ValueError(_DEGENERATE[k])
    return ious[k]


def bev_iou(a: Box3D, b: Box3D) -> float:
    """Bird's-eye-view overlap of the two rotated footprints."""
    return _read(_pair_ious(_footprinted(a), _footprinted(b)), "bev")


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volume overlap: footprint intersection times vertical overlap."""
    return _read(_pair_ious(_footprinted(a), _footprinted(b)), "3d")


class _FrameOverlaps:
    """Overlaps of one frame's predictions (rows) with its ground truths
    (columns), each pair clipped at most once, on its first read.

    A degenerate pair raises only when a read asks for the metric it is
    degenerate under. The error names the frame and the pair's positions
    in it: ``pred_positions`` and ``gt_positions`` map rows and columns to
    the frame's objects (counted from 0), the identity by default.
    """

    def __init__(self, preds: Sequence[ObjectAnnotation],
                 gts: Sequence[ObjectAnnotation], frame: str = "",
                 pred_positions: Optional[Sequence[int]] = None,
                 gt_positions: Optional[Sequence[int]] = None):
        self.rows = [_footprinted(annotation_box3d(p)) for p in preds]
        self.cols = [_footprinted(annotation_box3d(g)) for g in gts]
        self._ious: list[list[Optional[_PairIous]]] = [[None] * len(self.cols)
                                                       for _ in self.rows]
        self.frame = frame
        self.pred_positions = pred_positions or range(len(preds))
        self.gt_positions = gt_positions or range(len(gts))

    def __call__(self, row: int, col: int, metric: str) -> float:
        ious = self._ious[row][col]
        if ious is None:
            ious = self._ious[row][col] = _pair_ious(self.rows[row], self.cols[col])
        try:
            return _read(ious, metric)
        except ValueError as exc:
            raise ValueError(
                f"frame {self.frame!r}, prediction {self.pred_positions[row]} and "
                f"ground truth {self.gt_positions[col]}: {exc}") from None


def monte_carlo_iou_3d(a: Box3D, b: Box3D, n_samples: int = 1_000_000,
                       seed: int = 0) -> float:
    """Sampling estimate of the 3D overlap, independent of the clipping path.

    Uniform points inside box ``a`` are tested for membership in ``b``;
    the hit fraction scales a's exact volume into an intersection volume.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    ha, wa, la = a.dims
    hb, wb, lb = b.dims
    local = rng.uniform(0.0, 1.0, size=(n_samples, 3))
    local[:, 0] = (local[:, 0] - 0.5) * la
    local[:, 1] = -local[:, 1] * ha
    local[:, 2] = (local[:, 2] - 0.5) * wa
    world = local @ yaw_matrix(a.yaw).T + np.asarray(a.center)
    in_b_frame = (world - np.asarray(b.center)) @ yaw_matrix(b.yaw)
    hits = ((np.abs(in_b_frame[:, 0]) <= lb / 2)
            & (in_b_frame[:, 1] <= 0.0) & (in_b_frame[:, 1] >= -hb)
            & (np.abs(in_b_frame[:, 2]) <= wb / 2))
    vol_a = ha * wa * la
    vol_b = hb * wb * lb
    inter = vol_a * hits.mean()
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
    overlaps = _FrameOverlaps(preds, [*gts, *ignored_gts], frame)
    return _greedy_match(overlaps, preds, range(len(gts)),
                         range(len(gts), len(gts) + len(ignored_gts)),
                         iou_threshold, metric, frame)


def _greedy_match(overlaps: _FrameOverlaps, preds: Sequence[ObjectAnnotation],
                  gt_cols: Sequence[int], ignored_cols: Sequence[int],
                  iou_threshold: float, metric: str, frame: str) -> MatchResult:
    """:func:`match_frame` over columns of a frame's overlap table.

    ``gt_cols`` and ``ignored_cols`` index the table's ground truths; the
    result's ground-truth indices are positions in ``gt_cols``.
    """
    if metric not in _METRICS:
        raise ValueError(f"metric must be '3d' or 'bev', got {metric!r}")
    scores = []
    for i, p in enumerate(preds):
        if p.score is None:
            raise ValueError(f"prediction {i} has no score")
        scores.append(p.score)

    pred_order = sorted(range(len(preds)), key=lambda i: (-scores[i], i))
    gt_taken = [False] * len(gt_cols)
    pairs = []
    unmatched_preds = []
    ignored_preds = []
    for i in pred_order:
        best_j, best_iou = -1, 0.0
        for j, col in enumerate(gt_cols):
            if gt_taken[j]:
                continue
            v = overlaps(i, col, metric)
            if v >= iou_threshold and v > best_iou:
                best_j, best_iou = j, v
        if best_j >= 0:
            gt_taken[best_j] = True
            pairs.append((i, best_j, best_iou))
        elif any(overlaps(i, col, metric) >= iou_threshold for col in ignored_cols):
            ignored_preds.append(i)
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

    tp = fp = 0
    points = []
    for score, _, _, is_tp in events:
        if is_tp:
            tp += 1
        else:
            fp += 1
        points.append((tp / n_gt, tp / (tp + fp)))
    if tp == 0:
        return PrecisionRecallCurve(points=points, ap=0.0)
    curve = [(0.0, 1.0)] + points
    grid = _recall_grid(mode)
    interpolated = [max((p for r, p in curve if r >= level), default=0.0)
                    for level in grid]
    ap = sum(interpolated) / len(interpolated)
    curve.sort(key=lambda rp: rp[0])
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
        if count:
            bins.append(DepthBinAccuracy(
                lo=lo, hi=hi, count=count,
                ra_u=accuracy(rel_err[in_bin, 0]),
                ra_v=accuracy(rel_err[in_bin, 1]),
                ra_z=accuracy(rel_err[in_bin, 2])))
        else:
            bins.append(DepthBinAccuracy(lo=lo, hi=hi, count=0,
                                         ra_u=None, ra_v=None, ra_z=None))
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
    the most inclusive difficulty filter.
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

    pred_positions = {f: [k for k, p in enumerate(preds_by_frame.get(f, []))
                          if p.class_name == class_name] for f in frames}
    gt_positions = {f: [k for k, g in enumerate(gts_by_frame[f])
                        if g.class_name == class_name] for f in frames}
    class_preds = {f: [preds_by_frame[f][k] for k in pred_positions[f]] for f in frames}
    class_gts = {f: [gts_by_frame[f][k] for k in gt_positions[f]] for f in frames}
    overlaps = {f: _FrameOverlaps(class_preds[f], class_gts[f], f,
                                  pred_positions[f], gt_positions[f])
                for f in frames}
    gt_tiers = {f: [assign_difficulty(g) for g in class_gts[f]] for f in frames}
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
        report["ap_3d"][name] = {}
        report["ap_bev"][name] = {}
        for metric, key in (("3d", "ap_3d"), ("bev", "ap_bev")):
            for thr in thresholds:
                if n_gt == 0:
                    report[key][name][f"{thr:g}"] = None
                    continue
                matches = [_greedy_match(overlaps[f], class_preds[f], filtered[f],
                                         ignored[f], thr, metric, frame=f)
                           for f in frames]
                curve = average_precision(matches, n_gt, mode=ap_mode)
                report[key][name][f"{thr:g}"] = curve.ap
                report["pr_curves"][f"{metric}_{name}_{thr:g}"] = curve.points

    loc_threshold = min(thresholds)
    pred_centers = []
    gt_centers = []
    for f in frames:
        loc_cols = [j for j, t in enumerate(gt_tiers[f]) if t <= Difficulty.HARD]
        match = _greedy_match(overlaps[f], class_preds[f], loc_cols, (),
                              loc_threshold, "3d", frame=f)
        for i, j, _ in match.pairs:
            pred_centers.append(class_preds[f][i].location)
            gt_centers.append(class_gts[f][loc_cols[j]].location)
    if pred_centers:
        loc = localization_report(np.array(pred_centers), np.array(gt_centers))
        report["localization"] = {
            "iou_threshold": loc_threshold,
            "count": loc.count,
            "ra_u": loc.ra_u,
            "ra_v": loc.ra_v,
            "ra_z": loc.ra_z,
            "depth_bins": [
                {"lo": b.lo, "hi": b.hi, "count": b.count,
                 "ra_u": b.ra_u, "ra_v": b.ra_v, "ra_z": b.ra_z}
                for b in loc.depth_bins],
        }
    else:
        report["localization"] = None
    return report
