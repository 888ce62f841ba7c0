"""Desk-scale trainer for the locality-regularised linear centre head.

Synthetic scenes model convoys: up to three platoons of cars at widely
separated depths, each platoon laterally aligned up to millimetre
jitter, so the geometric prior (close in the image and in depth implies
close in 3D) holds exactly. Features embed the ground-truth (horizontal
offset, depth) through a fixed orthonormal map plus Gaussian noise.

A full-batch subgradient descent with momentum fits the head under the
summed L1 centre error, optionally adding the similarity regulariser.
Paired runs on the same scene isolate the regulariser's effect: the
within-platoon horizontal ordering probes whether feature noise leaks
into the fitted weights, which is exactly what the graph term suppresses.
Ordering violations are therefore counted on a fresh observation of the
same scene (identical ground truth, independent noise draw).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .kitti_io import CameraCalibration
from .locality import DEFAULT_LAMBDA, FeatureBatch, LinearHead, build_graph
from .losses import LossConfig

TOY_IMAGE_WIDTH = 1242.0
TOY_CALIB = CameraCalibration.from_intrinsics(f=721.5, theta=621.0, phi=187.5)

# Scene layout. Platoon depth centres are far apart relative to the
# similarity bandwidth, so only within-platoon pairs interact in the
# graph; lateral and depth jitters stay inside the band the L1 kink
# slack protects against the graph pull (about 1 / (2 * beta * degree)),
# which keeps the true ordering recoverable under regularisation.
MAX_PLATOONS = 3
DEPTH_RANGE = (12.0, 78.0)
DEPTH_CENTER = 45.0
DEPTH_JITTER = 0.002
LATERAL_JITTER = 0.0045

# Feature embedding scales: features carry u3d / U_SCALE and
# (z3d - DEPTH_CENTER) / Z_SCALE, so recovery multiplies by the scale and
# feature noise sigma maps to roughly sigma * scale metres of prediction
# noise per coordinate.
U_SCALE = 0.01
Z_SCALE = 2.0

MOMENTUM = 0.9
LR_DECAY = 0.994
TOLERANCE_L1 = 0.5       # metres of per-object centre error
DIVERGENCE_LIMIT = 1e12


class TrainingDiverged(RuntimeError):
    """Objective exceeded the divergence limit; carries the last finite epoch."""

    def __init__(self, epoch: int, context: str = ""):
        self.epoch = epoch
        suffix = f" ({context})" if context else ""
        super().__init__(f"training diverged; last finite epoch was {epoch}{suffix}")


@dataclass
class SyntheticScene:
    """Ground truth, features, and graph coordinates of one toy scene.

    ``val_features`` is an independent noise draw over the same ground
    truth, used to score a trained head on a fresh observation.
    """

    features: np.ndarray               # n x M
    u2d_norm: np.ndarray               # length M, horizontal offsets (normalised)
    gt: np.ndarray                     # 2 x M, rows (u3d, z3d)
    seed: int
    noise_sigma: float
    val_features: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return self.gt.shape[1]

    def batch(self) -> FeatureBatch:
        return FeatureBatch(x=self.features, u2d=self.u2d_norm, z3d=self.gt[1])

    def validation_view(self) -> "SyntheticScene":
        """The same scene observed through the held-out noise draw."""
        features = self.val_features if self.val_features is not None else self.features
        return SyntheticScene(features=features, u2d_norm=self.u2d_norm, gt=self.gt,
                              seed=self.seed, noise_sigma=self.noise_sigma,
                              val_features=features)


@dataclass
class TrainReport:
    epochs_to_tolerance: Optional[int]
    final_l1: float
    neighbor_order_violations: int
    loss_curve: list[float]
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "epochs_to_tolerance": self.epochs_to_tolerance,
            "final_l1": self.final_l1,
            "neighbor_order_violations": self.neighbor_order_violations,
            "loss_curve": self.loss_curve,
            "config": self.config,
        }


def generate_scene(n_objects: int, feature_dim: int = 24, noise_sigma: float = 0.1,
                   seed: int = 0, normalize_u: bool = True) -> SyntheticScene:
    """Deterministically sample a platoon-structured scene.

    Objects split round-robin over up to three platoons. Features are a
    fixed orthonormal embedding of the scaled ground truth plus Gaussian
    noise, so an exact linear recovery exists at zero noise. Training and
    validation noise come from separate seeded streams.
    """
    if n_objects < 1:
        raise ValueError(f"need at least one object, got {n_objects}")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be non-negative, got {noise_sigma}")
    rng = np.random.default_rng(seed)

    n_platoons = min(MAX_PLATOONS, n_objects)
    depth_centres = (np.linspace(DEPTH_RANGE[0], DEPTH_RANGE[1], n_platoons)
                     if n_platoons > 1 else np.array([DEPTH_CENTER]))
    platoon = np.arange(n_objects) % n_platoons
    z3d = depth_centres[platoon] + rng.uniform(-DEPTH_JITTER, DEPTH_JITTER, n_objects)
    u3d = rng.uniform(-LATERAL_JITTER, LATERAL_JITTER, n_objects)

    basis, _ = np.linalg.qr(rng.normal(size=(feature_dim, 2)))
    embedded = np.vstack([u3d / U_SCALE, (z3d - DEPTH_CENTER) / Z_SCALE])
    clean = basis @ embedded
    train_noise = np.random.default_rng([seed, 0]).normal(size=clean.shape)
    val_noise = np.random.default_rng([seed, 1]).normal(size=clean.shape)

    u2d = TOY_CALIB.f * u3d / z3d + TOY_CALIB.theta
    u2d_norm = u2d / TOY_IMAGE_WIDTH if normalize_u else u2d
    return SyntheticScene(features=clean + noise_sigma * train_noise,
                          u2d_norm=u2d_norm,
                          gt=np.vstack([u3d, z3d]),
                          seed=seed,
                          noise_sigma=noise_sigma,
                          val_features=clean + noise_sigma * val_noise)


def neighbor_order_violations(head: LinearHead, scene: SyntheticScene,
                              lam: float = DEFAULT_LAMBDA) -> int:
    """Count depth-similar pairs whose predicted horizontal order
    contradicts the ground truth.

    Pairs qualify when their ground-truth depth gap is below
    ``sqrt(lam) / 2``; a contradiction is a strictly opposite sign of the
    predicted and true horizontal differences.
    """
    pred = head.predict(scene.features)
    u_pred = pred[0]
    u_gt, z_gt = scene.gt
    cutoff = np.sqrt(lam) / 2.0
    count = 0
    # One row's tail j > i at a time: the same float operations as the
    # pairwise definition, without an M x M temporary.
    for i in range(scene.size - 1):
        near = np.abs(z_gt[i] - z_gt[i + 1:]) < cutoff
        flipped = (u_gt[i] - u_gt[i + 1:]) * (u_pred[i] - u_pred[i + 1:]) < 0
        count += int(np.count_nonzero(near & flipped))
    return count


def train(scene: SyntheticScene, cfg: LossConfig, use_regularizer: bool,
          lr: float = 1e-3, epochs: int = 2000, seed: int = 0,
          tolerance: float = TOLERANCE_L1) -> tuple[LinearHead, TrainReport]:
    """Fit the head by full-batch subgradient descent with momentum.

    The objective is the summed L1 error of the predicted (u3d, z3d)
    against ground truth, plus the trace-form regulariser when enabled.
    The learning rate decays geometrically so the L1 limit cycle
    collapses instead of oscillating forever. Bitwise deterministic for a
    fixed (scene, seed). The report's violation count is taken on the
    scene's validation view.
    """
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")

    batch = scene.batch()
    x = batch.x
    gt = scene.gt
    m = scene.size
    # Only the regulariser reads the graph, and only through X P X^T.
    xpxt = x @ build_graph(batch, cfg.lam).p @ x.T if use_regularizer else None

    rng = np.random.default_rng(seed)
    w = 0.01 * rng.normal(size=(2, x.shape[0]))
    # start the output bias at the target mean, as regression heads usually do
    b = gt.mean(axis=1)
    vel_w = np.zeros_like(w)
    vel_b = np.zeros_like(b)

    loss_curve = []
    epochs_to_tolerance: Optional[int] = None
    step = lr
    for epoch in range(epochs):
        residual = (w @ x + b[:, None]) - gt
        data_l1 = float(np.abs(residual).sum())
        objective = data_l1
        if use_regularizer:
            objective += cfg.beta * float(np.trace(w @ xpxt @ w.T))
        if not np.isfinite(objective) or objective > DIVERGENCE_LIMIT:
            raise TrainingDiverged(epoch - 1)
        loss_curve.append(objective)
        if epochs_to_tolerance is None and data_l1 / m < tolerance:
            epochs_to_tolerance = epoch

        sign = np.sign(residual)
        grad_w = sign @ x.T
        grad_b = sign.sum(axis=1)
        if use_regularizer:
            grad_w = grad_w + 2.0 * cfg.beta * (w @ xpxt)
        vel_w = MOMENTUM * vel_w - step * grad_w
        vel_b = MOMENTUM * vel_b - step * grad_b
        w = w + vel_w
        b = b + vel_b
        step *= LR_DECAY

    head = LinearHead(w=w, b=b)
    final_l1 = float(np.abs(head.predict(x) - gt).sum()) / m
    if epochs_to_tolerance is None and final_l1 < tolerance:
        epochs_to_tolerance = epochs
    report = TrainReport(
        epochs_to_tolerance=epochs_to_tolerance,
        final_l1=final_l1,
        neighbor_order_violations=neighbor_order_violations(
            head, scene.validation_view(), cfg.lam),
        loss_curve=loss_curve,
        config={
            "n_objects": m,
            "feature_dim": int(x.shape[0]),
            "noise_sigma": scene.noise_sigma,
            "scene_seed": scene.seed,
            "train_seed": seed,
            "use_regularizer": use_regularizer,
            "lr": lr,
            "epochs": epochs,
            "tolerance": tolerance,
            "alpha": cfg.alpha,
            "beta": cfg.beta,
            "gamma": cfg.gamma,
            "lam": cfg.lam,
        })
    return head, report


def run_paired_experiment(seeds: Sequence[int], cfg: LossConfig,
                          n_objects: int = 50, feature_dim: int = 24,
                          noise_sigma: float = 0.1, lr: float = 1e-3,
                          epochs: int = 2000,
                          arms: Sequence[bool] = (True, False)) -> dict:
    """Train regularised/unregularised arms on identical scenes per seed.

    Returns both arms' reports plus aggregate violation counts and the
    epochs-to-tolerance ratio (runs that never reach tolerance count as
    the full epoch budget).
    """
    results: dict = {"regularized": [], "unregularized": []}
    for seed in seeds:
        scene = generate_scene(n_objects, feature_dim, noise_sigma, seed)
        for use_reg in arms:
            key = "regularized" if use_reg else "unregularized"
            try:
                _, report = train(scene, cfg, use_regularizer=use_reg,
                                  lr=lr, epochs=epochs, seed=seed)
            except TrainingDiverged as exc:
                raise TrainingDiverged(exc.epoch,
                                       context=f"{key} arm, seed {seed}") from exc
            results[key].append(report)

    def mean_violations(reports):
        return float(np.mean([r.neighbor_order_violations for r in reports]))

    def mean_epochs(reports):
        return float(np.mean([r.epochs_to_tolerance if r.epochs_to_tolerance is not None
                              else epochs for r in reports]))

    summary = {}
    for key in ("regularized", "unregularized"):
        if results[key]:
            summary[f"mean_violations_{key}"] = mean_violations(results[key])
            summary[f"mean_epochs_{key}"] = mean_epochs(results[key])
    if results["regularized"] and results["unregularized"]:
        unreg = summary["mean_epochs_unregularized"]
        summary["epochs_ratio"] = (summary["mean_epochs_regularized"] / unreg
                                   if unreg > 0 else 1.0)
    return {"reports": results, "summary": summary}
