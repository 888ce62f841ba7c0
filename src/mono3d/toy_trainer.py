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

from .geometry import forward_project
from .kitti_io import CameraCalibration
from .locality import (DEFAULT_LAMBDA, FeatureBatch, LinearHead, build_graph,
                       check_lam, quadratic_form)
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

# Elements in each pairwise temporary of neighbor_order_violations
# (1 MB of float64).
_VIOLATION_BLOCK = 1 << 17


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
                   seed: int = 0) -> SyntheticScene:
    """Deterministically sample a platoon-structured scene.

    Objects split round-robin over up to three platoons. Features are a
    fixed orthonormal embedding of the scaled ground truth plus Gaussian
    noise, so an exact linear recovery exists at zero noise. Training and
    validation noise come from separate seeded streams.
    """
    if n_objects < 1:
        raise ValueError(f"need at least one object, got {n_objects}")
    if feature_dim < 2:
        raise ValueError(f"feature_dim must be at least 2 for the (u, z) embedding, "
                         f"got {feature_dim}")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and non-negative, got {noise_sigma}")
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

    u2d, _ = forward_project((u3d, 0.0, z3d), TOY_CALIB)
    return SyntheticScene(features=clean + noise_sigma * train_noise,
                          u2d_norm=u2d / TOY_IMAGE_WIDTH,
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
    check_lam(lam)
    pred = head.predict(scene.features)
    u_pred = pred[0]
    u_gt, z_gt = scene.gt
    cutoff = np.sqrt(lam) / 2.0
    m = scene.size
    count = 0
    # Rows [s, e) against the columns j > s, with a cols > rows mask: the
    # upper triangle in blocks of whole rows, each temporary at most
    # _VIOLATION_BLOCK elements, with the float operations of the
    # pairwise definition.
    rows_per_block = max(1, _VIOLATION_BLOCK // max(m - 1, 1))
    for s in range(0, m - 1, rows_per_block):
        e = min(s + rows_per_block, m - 1)
        dz = z_gt[s:e, None] - z_gt[None, s + 1:]
        near = np.abs(dz, out=dz) < cutoff
        product = u_gt[s:e, None] - u_gt[None, s + 1:]
        product *= u_pred[s:e, None] - u_pred[None, s + 1:]
        near &= product < 0
        near &= np.arange(s + 1, m) > np.arange(s, e)[:, None]
        count += int(np.count_nonzero(near))
    return count


@dataclass
class _Run:
    """One (scene, arm, seed) training run; ``context`` names it in errors."""

    scene: SyntheticScene
    use_regularizer: bool
    seed: int
    context: str = ""


def train(scene: SyntheticScene, cfg: LossConfig, use_regularizer: bool,
          lr: float = 1e-3, epochs: int = 2000, seed: int = 0) -> tuple[LinearHead, TrainReport]:
    """Fit the head by full-batch subgradient descent with momentum.

    The objective is the summed L1 error of the predicted (u3d, z3d)
    against ground truth, plus the trace-form regulariser when enabled.
    The learning rate decays geometrically so the L1 limit cycle
    collapses instead of oscillating forever. Bitwise deterministic for a
    fixed (scene, seed). The report's violation count is taken on the
    scene's validation view.
    """
    (result,) = _train_runs([_Run(scene, use_regularizer, seed)], cfg, lr=lr, epochs=epochs)
    return result


def _train_runs(runs: Sequence[_Run], cfg: LossConfig, lr: float, epochs: int
                ) -> list[tuple[LinearHead, TrainReport]]:
    """Train runs over same-shaped scenes in one stacked epoch loop.

    The state of run k is slice k of K x ... arrays, and every product is
    a batched ``@``. Each slice goes through the float operations of a
    lone :func:`train` call: one GEMM per slice, with X^T passed as a
    transposed view as in the 2-D code, and each sum taken over one
    run's contiguous slice. The residual, |residual|, sign and gradient
    buffers are allocated once per call, and every epoch writes into
    them through ``out=`` and in-place operators: the same ufuncs on the
    same operands in the same order as the expressions they replace. The
    data term of every epoch is kept, and each run's first epoch under
    tolerance is found after the loop. Heads, loss curves and reports are
    therefore bitwise those of training the runs one after another, in
    the order given. That order also settles divergence: when run k is
    the earliest to diverge in an epoch, runs 0..k-1 are retrained as a
    stack of their own, and :class:`TrainingDiverged` names run k if they
    all finish. Otherwise the retrain raises for the earliest of them
    that diverges.
    """
    if not runs:
        return []
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and positive, got {lr}")
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")

    # rank[slot] is the index in ``runs`` of the run in that slot of the
    # stack. Regularised runs take the first slots, so they are a prefix view.
    rank = np.array(sorted(range(len(runs)), key=lambda k: not runs[k].use_regularizer))
    scenes = [runs[k].scene for k in rank]
    n_reg = sum(runs[k].use_regularizer for k in rank)
    # Only the regulariser reads the graph, and only through X P X^T; each
    # graph is dropped as soon as its product is taken.
    xpxt = np.stack([s.features @ build_graph(s.batch(), cfg.lam).p @ s.features.T
                     for s in scenes[:n_reg]]) if n_reg else None
    x = np.stack([s.features for s in scenes])
    gt = np.stack([s.gt for s in scenes])
    m = gt.shape[2]

    w = np.stack([0.01 * np.random.default_rng(runs[k].seed).normal(size=(2, x.shape[1]))
                  for k in rank])
    # start the output bias at the target mean, as regression heads usually do
    b = gt.mean(axis=2)
    vel_w = np.zeros_like(w)
    vel_b = np.zeros_like(b)

    # Every epoch runs into these buffers in place.
    residual = np.empty_like(gt)
    abs_residual = np.empty_like(gt)
    sign = np.empty_like(gt)
    grad_w = np.empty_like(w)
    grad_b = np.empty_like(b)
    xt = x.transpose(0, 2, 1)
    data = np.empty((len(rank), epochs))     # the data term, per run and epoch
    curves = np.empty((len(rank), epochs))   # the objective, per run and epoch
    step = lr
    for epoch in range(epochs):
        np.matmul(w, x, out=residual)
        residual += b[:, :, None]
        residual -= gt
        np.abs(residual, out=abs_residual)
        objective = abs_residual.reshape(len(rank), -1).sum(axis=1)
        data[:, epoch] = objective
        if n_reg:
            reg, reg_grad = quadratic_form(w[:n_reg], xpxt, cfg.beta)
            objective[:n_reg] += reg
        bad = ~np.isfinite(objective) | (objective > DIVERGENCE_LIMIT)
        if bad.any():
            # Run by run, the runs before the earliest bad one would have
            # trained first; retraining them alone repeats them bit for bit,
            # so any of them that diverges later raises from in there.
            first = int(rank[bad].min())
            _train_runs(runs[:first], cfg, lr, epochs)
            raise TrainingDiverged(epoch - 1, runs[first].context)
        curves[:, epoch] = objective

        np.sign(residual, out=sign)
        np.matmul(sign, xt, out=grad_w)
        sign.sum(axis=2, out=grad_b)
        if n_reg:
            grad_w[:n_reg] += reg_grad
        vel_w *= MOMENTUM
        grad_w *= step
        vel_w -= grad_w
        vel_b *= MOMENTUM
        grad_b *= step
        vel_b -= grad_b
        w += vel_w
        b += vel_b
        step *= LR_DECAY

    # epoch of each run's first tolerance hit, -1 if it never hit
    hit = data / m < TOLERANCE_L1
    reached = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)

    results: list = [None] * len(runs)
    for slot, k in enumerate(rank):
        run = runs[k]
        scene = run.scene
        head = LinearHead(w=w[slot].copy(), b=b[slot].copy())
        final_l1 = float(np.abs(head.predict(scene.features) - scene.gt).sum()) / m
        epochs_to_tolerance = int(reached[slot]) if reached[slot] >= 0 else None
        if epochs_to_tolerance is None and final_l1 < TOLERANCE_L1:
            epochs_to_tolerance = epochs
        report = TrainReport(
            epochs_to_tolerance=epochs_to_tolerance,
            final_l1=final_l1,
            neighbor_order_violations=neighbor_order_violations(
                head, scene.validation_view(), cfg.lam),
            loss_curve=curves[slot].tolist(),
            config={
                "n_objects": m,
                "feature_dim": int(x.shape[1]),
                "noise_sigma": scene.noise_sigma,
                "scene_seed": scene.seed,
                "train_seed": run.seed,
                "use_regularizer": run.use_regularizer,
                "lr": lr,
                "epochs": epochs,
                "tolerance": TOLERANCE_L1,
                "beta": cfg.beta,
                "lam": cfg.lam,
            })
        results[k] = (head, report)
    return results


def _arm_key(use_regularizer: bool) -> str:
    return "regularized" if use_regularizer else "unregularized"


def run_paired_experiment(seeds: Sequence[int], cfg: LossConfig,
                          n_objects: int = 50, feature_dim: int = 24,
                          noise_sigma: float = 0.1, lr: float = 1e-3,
                          epochs: int = 2000,
                          arms: Sequence[bool] = (True, False)) -> dict:
    """Train regularised/unregularised arms on identical scenes per seed.

    All (seed, arm) runs train together in one stacked loop, with the
    results and the divergence error of training them one by one in
    (seed, arm) order; a divergence costs a retrain of the runs before
    it. Returns both arms' reports plus aggregate violation counts and
    the epochs-to-tolerance ratio (runs that never reach tolerance count
    as the full epoch budget).
    """
    runs = []
    for seed in seeds:
        scene = generate_scene(n_objects, feature_dim, noise_sigma, seed)
        runs += [_Run(scene, use_reg, seed, context=f"{_arm_key(use_reg)} arm, seed {seed}")
                 for use_reg in arms]
    results: dict = {"regularized": [], "unregularized": []}
    for run, (_, report) in zip(runs, _train_runs(runs, cfg, lr=lr, epochs=epochs)):
        results[_arm_key(run.use_regularizer)].append(report)

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
