"""Detection losses over a 32x32 cell grid.

Targets live on the grid: a cell is responsible for an object when the
object's 2D box centre falls inside it (boundary ties go to the lower
index). Empty cells carry zero placeholders that are excluded from every
indicator-masked term, so mutating them cannot change a loss value.

Losses: objectness cross-entropy plus L1 box regression, coarse+residual
instance depth, 3D-centre L1 plus the locality regulariser, and a
positional 8-corner L1. One masked-L1 kernel reads each loss term and its
subgradient from one residual; :func:`loss_subgradients` returns them all
(L1 kinks use subgradient 0, so perfect predictions are stationary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Box2D
from .locality import (DEFAULT_BETA, DEFAULT_LAMBDA, FeatureBatch, LinearHead,
                       SimilarityGraph, check_lam, reg_trace)

GRID_ROWS = 32
GRID_COLS = 32


@dataclass
class LossConfig:
    """Balance weights: alpha (2D box), beta (regulariser), gamma (coarse
    depth), and lam (similarity depth bandwidth)."""

    alpha: float = 10.0
    beta: float = DEFAULT_BETA
    gamma: float = 10.0
    lam: float = DEFAULT_LAMBDA

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


def _masked_l1(residual: np.ndarray, mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Sum of ``|residual|`` over the occupied cells, and ``sign(residual)``
    everywhere; callers multiply the sign by the indicator."""
    return float(np.abs(residual[mask]).sum()), np.sign(residual)


def _confidence(scores: np.ndarray, pr_obj: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy between softmaxed scores and the target
    (object, no-object) distribution, and its gradient with respect to the
    scores, ``(softmax - target) / n_cells``, from one log-softmax."""
    scores = np.asarray(scores, dtype=float)
    pr_obj = np.asarray(pr_obj, dtype=float)
    if scores.shape != pr_obj.shape + (2,):
        raise ValueError(f"scores {scores.shape} do not match targets {pr_obj.shape}")
    if not ((pr_obj >= 0) & (pr_obj <= 1)).all():
        raise ValueError("target confidence must lie in [0, 1]")
    log_p = scores - np.logaddexp(scores[..., 0], scores[..., 1])[..., None]
    ce = -(pr_obj * log_p[..., 0] + (1.0 - pr_obj) * log_p[..., 1])
    t = np.stack([pr_obj, 1.0 - pr_obj], axis=-1)
    return float(ce.mean()), (np.exp(log_p) - t) / pr_obj.size


def confidence_loss(scores: np.ndarray, pr_obj: np.ndarray) -> float:
    """Mean cross-entropy between softmaxed scores and the target
    (object, no-object) distribution."""
    return _confidence(scores, pr_obj)[0]


def _terms(pred: PredictionBatch, target: GridTarget,
           cfg: LossConfig) -> tuple[tuple[float, float, float, float], PredictionBatch]:
    """The 2D, depth, centre and corner loss values (R(W) excluded), and
    their subgradients with respect to every prediction array. Each array
    enters one loss, and each residual is built once for both outputs."""
    if pred.shape != target.shape:
        raise ValueError(f"grid shapes differ: {pred.shape} vs {target.shape}")
    ind = target.mask
    conf, d_scores = _confidence(pred.scores, target.pr_obj)
    box, s_box = _masked_l1(pred.box2d - target.box2d, ind)
    coarse, s_coarse = _masked_l1(pred.z_coa - target.z, ind)
    refined, s_refined = _masked_l1(pred.z_coa + pred.z_delta - target.z, ind)
    center, s_center = _masked_l1(pred.c_coa + pred.c_delta - target.c3d, ind)
    corners, s_corners = _masked_l1(pred.corners - target.corners, ind)
    d_center = ind[..., None] * s_center
    grads = PredictionBatch(scores=d_scores, box2d=cfg.alpha * ind[..., None] * s_box,
                            z_coa=ind * (cfg.gamma * s_coarse + s_refined),
                            z_delta=ind * s_refined, c_coa=d_center, c_delta=d_center.copy(),
                            corners=ind[..., None, None] * s_corners)
    return (conf + cfg.alpha * box, cfg.gamma * coarse + refined, center, corners), grads


def loss_2d(pred: PredictionBatch, target: GridTarget, cfg: LossConfig) -> float:
    """Objectness cross-entropy plus alpha-weighted box L1 on occupied cells."""
    return _terms(pred, target, cfg)[0][0]


def loss_depth(pred: PredictionBatch, target: GridTarget, cfg: LossConfig) -> float:
    """gamma * |coarse - z| + |coarse + residual - z| over occupied cells."""
    return _terms(pred, target, cfg)[0][1]


def loss_center3d(pred: PredictionBatch, target: GridTarget, head: LinearHead,
                  batch: FeatureBatch, graph: SimilarityGraph, cfg: LossConfig) -> float:
    """3D-centre L1 on occupied cells plus the locality regulariser R(W)."""
    return _terms(pred, target, cfg)[0][2] + reg_trace(head, batch, graph, cfg.beta)


def loss_corners(pred: PredictionBatch, target: GridTarget) -> float:
    """Index-by-index corner L1 over occupied cells; order is positional."""
    return _terms(pred, target, LossConfig())[0][3]


def loss_subgradients(pred: PredictionBatch, target: GridTarget,
                      cfg: LossConfig) -> PredictionBatch:
    """Subgradients of the four losses with respect to each prediction
    array, in the arrays' own layout. The R(W) part of the centre loss is
    W-only and available as :func:`mono3d.locality.reg_gradient`."""
    return _terms(pred, target, cfg)[1]
