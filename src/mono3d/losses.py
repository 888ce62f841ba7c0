"""Detection losses over a 32x32 cell grid.

Targets live on the grid: a cell is responsible for an object when the
object's 2D box centre falls inside it (boundary ties go to the lower
index). Empty cells carry zero placeholders that are excluded from every
indicator-masked term, so mutating them cannot change a loss value.

Losses: objectness cross-entropy plus L1 box regression, coarse+residual
instance depth, 3D-centre L1 plus the locality regulariser, and a
positional 8-corner L1. Analytic subgradients with respect to the
prediction arrays accompany each loss (L1 kinks use subgradient 0, so
perfect predictions are stationary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Box2D, inverse_project
from .kitti_io import CameraCalibration
from .locality import FeatureBatch, LinearHead, SimilarityGraph, check_lam, reg_trace

GRID_ROWS = 32
GRID_COLS = 32


@dataclass
class LossConfig:
    """Balance weights: alpha (2D box), beta (regulariser), gamma (coarse
    depth), and lam (similarity depth bandwidth)."""

    alpha: float = 10.0
    beta: float = 10.0
    gamma: float = 10.0
    lam: float = 100.0

    def __post_init__(self):
        check_lam(self.lam)
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


@dataclass
class GridTarget:
    """Ground-truth tensors on the cell grid.

    ``has_object`` is the 0/1 responsibility indicator; ``pr_obj`` the
    target object probability; ``box2d`` holds (centre_u, centre_v,
    width, height) per cell; ``c3d`` the 3D centre and ``corners`` the
    8 box vertices, both in camera coordinates.
    """

    has_object: np.ndarray   # (R, C)
    pr_obj: np.ndarray       # (R, C)
    box2d: np.ndarray        # (R, C, 4)
    z: np.ndarray            # (R, C)
    c3d: np.ndarray          # (R, C, 3)
    corners: np.ndarray      # (R, C, 8, 3)

    @classmethod
    def empty(cls, rows: int = GRID_ROWS, cols: int = GRID_COLS) -> "GridTarget":
        return cls(
            has_object=np.zeros((rows, cols)),
            pr_obj=np.zeros((rows, cols)),
            box2d=np.zeros((rows, cols, 4)),
            z=np.zeros((rows, cols)),
            c3d=np.zeros((rows, cols, 3)),
            corners=np.zeros((rows, cols, 8, 3)),
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.has_object.shape

    @property
    def mask(self) -> np.ndarray:
        return self.has_object > 0.5


@dataclass
class PredictionBatch:
    """Per-cell predictions matching a :class:`GridTarget` grid.

    ``scores`` are pre-softmax (object, no-object) logits; depth and 3D
    centre are split into a coarse estimate plus a residual correction.
    """

    scores: np.ndarray       # (R, C, 2)
    box2d: np.ndarray        # (R, C, 4)
    z_coa: np.ndarray        # (R, C)
    z_delta: np.ndarray      # (R, C)
    c_coa: np.ndarray        # (R, C, 3)
    c_delta: np.ndarray      # (R, C, 3)
    corners: np.ndarray      # (R, C, 8, 3)

    @classmethod
    def zeros(cls, rows: int = GRID_ROWS, cols: int = GRID_COLS) -> "PredictionBatch":
        return cls(
            scores=np.zeros((rows, cols, 2)),
            box2d=np.zeros((rows, cols, 4)),
            z_coa=np.zeros((rows, cols)),
            z_delta=np.zeros((rows, cols)),
            c_coa=np.zeros((rows, cols, 3)),
            c_delta=np.zeros((rows, cols, 3)),
            corners=np.zeros((rows, cols, 8, 3)),
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.scores.shape[:2]


def _check_grids(pred: PredictionBatch, target: GridTarget):
    if pred.shape != target.shape:
        raise ValueError(f"grid shapes differ: {pred.shape} vs {target.shape}")


def grid_cell(u: float, v: float, image_width: float, image_height: float,
              rows: int = GRID_ROWS, cols: int = GRID_COLS) -> tuple[int, int]:
    """Cell containing an image point; exact boundaries go to the lower index."""
    def index(coord, extent, n):
        cell = extent / n
        i = int(coord // cell)
        if coord > 0 and coord % cell == 0:
            i -= 1
        return min(max(i, 0), n - 1)

    return index(v, image_height, rows), index(u, image_width, cols)


def build_grid_target(boxes2d: Sequence[Box2D], depths: Sequence[float],
                      centers3d: np.ndarray, corners: np.ndarray,
                      image_width: float, image_height: float,
                      rows: int = GRID_ROWS, cols: int = GRID_COLS) -> GridTarget:
    """Scatter per-object targets onto the grid.

    Parallel sequences describe one object each. If two objects land in
    the same cell the first keeps it.
    """
    target = GridTarget.empty(rows, cols)
    centers3d = np.asarray(centers3d, dtype=float)
    corners = np.asarray(corners, dtype=float)
    for i, box in enumerate(boxes2d):
        r, c = grid_cell(box.center_u, box.center_v, image_width, image_height, rows, cols)
        if target.has_object[r, c]:
            continue
        target.has_object[r, c] = 1.0
        target.pr_obj[r, c] = 1.0
        target.box2d[r, c] = (box.center_u, box.center_v, box.width, box.height)
        target.z[r, c] = depths[i]
        target.c3d[r, c] = centers3d[i]
        target.corners[r, c] = corners[i]
    return target


def l1(pred: np.ndarray, target: np.ndarray) -> float:
    """Sum of absolute coordinate differences."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return float(np.abs(pred - target).sum())


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    lse = np.logaddexp(scores[..., 0], scores[..., 1])
    return scores - lse[..., None]


def confidence_loss(scores: np.ndarray, pr_obj: np.ndarray) -> float:
    """Mean cross-entropy between softmaxed scores and the target
    (object, no-object) distribution."""
    scores = np.asarray(scores, dtype=float)
    pr_obj = np.asarray(pr_obj, dtype=float)
    if scores.shape != pr_obj.shape + (2,):
        raise ValueError(f"scores {scores.shape} do not match targets {pr_obj.shape}")
    if np.any(pr_obj < 0) or np.any(pr_obj > 1):
        raise ValueError("target confidence must lie in [0, 1]")
    log_p = _log_softmax(scores)
    ce = -(pr_obj * log_p[..., 0] + (1.0 - pr_obj) * log_p[..., 1])
    return float(ce.mean())


def confidence_loss_gradient(scores: np.ndarray, pr_obj: np.ndarray) -> np.ndarray:
    """d(mean cross-entropy)/d(scores): (softmax - target) / n_cells."""
    scores = np.asarray(scores, dtype=float)
    pr_obj = np.asarray(pr_obj, dtype=float)
    p = np.exp(_log_softmax(scores))
    t = np.stack([pr_obj, 1.0 - pr_obj], axis=-1)
    return (p - t) / pr_obj.size


def loss_2d(pred: PredictionBatch, target: GridTarget, cfg: LossConfig) -> float:
    """Objectness cross-entropy plus alpha-weighted box L1 on occupied cells."""
    _check_grids(pred, target)
    mask = target.mask
    box_term = float(np.abs(pred.box2d[mask] - target.box2d[mask]).sum())
    return confidence_loss(pred.scores, target.pr_obj) + cfg.alpha * box_term


def loss_2d_gradients(pred: PredictionBatch, target: GridTarget,
                      cfg: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    _check_grids(pred, target)
    d_scores = confidence_loss_gradient(pred.scores, target.pr_obj)
    d_box = cfg.alpha * target.has_object[..., None] * np.sign(pred.box2d - target.box2d)
    return d_scores, d_box


def loss_depth(pred: PredictionBatch, target: GridTarget, cfg: LossConfig) -> float:
    """gamma * |coarse - z| + |coarse + residual - z| over occupied cells."""
    _check_grids(pred, target)
    mask = target.mask
    coarse = float(np.abs(pred.z_coa[mask] - target.z[mask]).sum())
    refined = float(np.abs(pred.z_coa[mask] + pred.z_delta[mask] - target.z[mask]).sum())
    return cfg.gamma * coarse + refined


def loss_depth_gradients(pred: PredictionBatch, target: GridTarget,
                         cfg: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    _check_grids(pred, target)
    ind = target.has_object
    refined_sign = np.sign(pred.z_coa + pred.z_delta - target.z)
    d_coa = ind * (cfg.gamma * np.sign(pred.z_coa - target.z) + refined_sign)
    d_delta = ind * refined_sign
    return d_coa, d_delta


def loss_center3d(pred: PredictionBatch, target: GridTarget, head: LinearHead,
                  batch: FeatureBatch, graph: SimilarityGraph, cfg: LossConfig) -> float:
    """3D-centre L1 on occupied cells plus the locality regulariser R(W)."""
    _check_grids(pred, target)
    mask = target.mask
    center = float(np.abs(pred.c_coa[mask] + pred.c_delta[mask] - target.c3d[mask]).sum())
    return center + reg_trace(head, batch, graph, cfg.beta)


def loss_center3d_gradients(pred: PredictionBatch,
                            target: GridTarget) -> tuple[np.ndarray, np.ndarray]:
    """Subgradients for the centre L1 term; the R(W) part is W-only and
    available as :func:`mono3d.locality.reg_gradient`."""
    _check_grids(pred, target)
    ind = target.has_object[..., None]
    sign = ind * np.sign(pred.c_coa + pred.c_delta - target.c3d)
    return sign, sign.copy()


def loss_corners(pred: PredictionBatch, target: GridTarget) -> float:
    """Index-by-index corner L1 over occupied cells; order is positional."""
    _check_grids(pred, target)
    mask = target.mask
    return float(np.abs(pred.corners[mask] - target.corners[mask]).sum())


def loss_corners_gradient(pred: PredictionBatch, target: GridTarget) -> np.ndarray:
    _check_grids(pred, target)
    ind = target.has_object[..., None, None]
    return ind * np.sign(pred.corners - target.corners)


def coarse_center(box2d: Box2D, depth: float,
                  calib: CameraCalibration) -> tuple[float, float, float]:
    """Lift a 2D box centre at an estimated depth to a coarse 3D centre."""
    x, y = inverse_project((box2d.center_u, box2d.center_v), depth, calib)
    return (x, y, depth)
