"""Seeded inputs for the benchmark workloads.

Everything here depends on numpy and the standard library only: the
program under test receives the generated files and argument lists, never
the generator, so a change to ``mono3d`` cannot change what it is given.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# KITTI-like intrinsics, the same as scripts/make_synthetic_kitti.py uses.
F, THETA, PHI = 721.5377, 609.5593, 172.854
CALIB_TEXT = f"P2: {F} 0 {THETA} 0 0 {F} {PHI} 0 0 0 1 0\n"

# eval-val: every frame is one cell of the (GT cars, false positives) grid
# and each cell appears the same number of times, so the seed moves the
# geometry and the frame order but not the amount of matching work.
GT_CARS = range(1, 7)
FALSE_POSITIVES = range(0, 9)
GRID_PASSES = 1
EVAL_FRAMES = GRID_PASSES * len(GT_CARS) * len(FALSE_POSITIVES)
EVAL_CARS = GRID_PASSES * sum(GT_CARS) * len(FALSE_POSITIVES)
# Ground-truth cars are stratified too: car k sits in the k-th of
# EVAL_CARS equal depth slices and takes its truncation and occlusion from
# fixed cycles, so the difficulty-tier counts barely move with the seed.
DEPTH_RANGE = (6.0, 70.0)
TRUNCATIONS = (0.0, 0.0, 0.1, 0.3)
OCCLUSIONS = (0, 0, 1, 2)
TP_POSITION_SIGMA = 0.3       # metres, x and z
TP_SCORE = (0.3, 1.0)
FP_SCORE = (0.01, 0.5)

TOY_WIDE = ["--n-objects", "1000", "--beta", "0.02", "--n-seeds", "4"]
ORACLE_PAIRS = 10
ORACLE_SAMPLES = 1_000_000
TOY_CONVOY_EPOCHS = 20 * 2 * 2000
TOY_WIDE_EPOCHS = 4 * 2 * 2000


def work_per_execution(workload: str) -> tuple[float, str]:
    """Units of work one execution does, and what a unit is."""
    return {
        "eval-val": (EVAL_FRAMES, "frames"),
        "toy-convoy": (TOY_CONVOY_EPOCHS, "epochs"),
        "toy-wide": (TOY_WIDE_EPOCHS, "epochs"),
        "iou-oracle": (ORACLE_PAIRS * ORACLE_SAMPLES, "samples"),
    }[workload]


def _fmt(values) -> str:
    return " ".join(f"{v:.6f}" for v in values)


def _random_car(rng: np.random.Generator, z: float | None = None,
                truncation: float | None = None, occlusion: int | None = None) -> dict:
    if z is None:
        z = float(rng.uniform(*DEPTH_RANGE))
    x = float(rng.uniform(-0.4, 0.4)) * z * 0.8
    y = 1.65
    dims = (float(rng.uniform(1.4, 1.7)), float(rng.uniform(1.5, 1.8)),
            float(rng.uniform(3.4, 4.5)))
    u = F * x / z + THETA
    v = F * (y - dims[0] / 2) / z + PHI
    height_px = F * dims[0] / z
    width_px = F * dims[2] / z * 0.6
    if truncation is None:
        truncation = float(rng.choice(TRUNCATIONS))
        occlusion = int(rng.choice(OCCLUSIONS))
    return {
        "truncation": truncation,
        "occlusion": occlusion,
        "alpha": math.atan2(-x, z),
        "box2d": (u - width_px / 2, v - height_px / 2,
                  u + width_px / 2, v + height_px / 2),
        "dims": dims,
        "location": (x, y, z),
        "rotation_y": float(rng.uniform(-math.pi, math.pi)),
    }


def _stratified_cars(rng: np.random.Generator) -> list[dict]:
    k = np.arange(EVAL_CARS)
    lo, hi = DEPTH_RANGE
    depths = lo + (hi - lo) * (k + rng.uniform(size=EVAL_CARS)) / EVAL_CARS
    cars = [_random_car(rng, float(depths[i]), TRUNCATIONS[i % 4],
                        OCCLUSIONS[(i // 4) % 4]) for i in range(EVAL_CARS)]
    return [cars[i] for i in rng.permutation(EVAL_CARS)]


def _label_line(cls: str, obj: dict, score: float | None = None) -> str:
    line = (f"{cls} {obj['truncation']:.2f} {obj['occlusion']} {obj['alpha']:.6f} "
            f"{_fmt(obj['box2d'])} {_fmt(obj['dims'])} {_fmt(obj['location'])} "
            f"{obj['rotation_y']:.6f}")
    return line + (f" {score:.6f}" if score is not None else "") + "\n"


def _pedestrian(rng: np.random.Generator) -> dict:
    obj = _random_car(rng)
    obj["dims"] = (float(rng.uniform(1.6, 1.9)), float(rng.uniform(0.5, 0.7)),
                   float(rng.uniform(0.6, 1.0)))
    return obj


def _dont_care(rng: np.random.Generator) -> str:
    left = float(rng.uniform(0.0, 1100.0))
    top = float(rng.uniform(150.0, 200.0))
    box = (left, top, left + float(rng.uniform(20.0, 120.0)),
           top + float(rng.uniform(10.0, 60.0)))
    return f"DontCare -1 -1 -10 {_fmt(box)} -1 -1 -1 -1000 -1000 -1000 -10\n"


def write_eval_corpus(root: Path, seed: int) -> dict:
    """Write ``label_2/``, ``pred/``, ``calib/`` and ``split.txt`` under
    ``root``; return the paths the ``eval`` command needs."""
    rng = np.random.default_rng([seed, 0xE7A1])
    dirs = {name: root / name for name in ("label_2", "pred", "calib")}
    for d in dirs.values():
        d.mkdir(parents=True, exist_ok=True)
    cells = [(c, f) for c in GT_CARS for f in FALSE_POSITIVES] * GRID_PASSES
    order = rng.permutation(len(cells))
    pool = iter(_stratified_cars(rng))
    frames = []
    for index, cell in enumerate(order):
        n_cars, n_fp = cells[cell]
        frame = f"{index:06d}"
        frames.append(frame)
        cars = [next(pool) for _ in range(n_cars)]
        gt = [_label_line("Car", c) for c in cars]
        if index % 3 == 0:
            gt.append(_label_line("Pedestrian", _pedestrian(rng)))
        if index % 4 == 1:
            gt.append(_dont_care(rng))
        preds = []
        for c in cars:
            x, y, z = c["location"]
            noisy = dict(c, location=(x + float(rng.normal(0.0, TP_POSITION_SIGMA)), y,
                                      z + float(rng.normal(0.0, TP_POSITION_SIGMA))))
            preds.append(_label_line("Car", noisy, float(rng.uniform(*TP_SCORE))))
        for _ in range(n_fp):
            preds.append(_label_line("Car", _random_car(rng),
                                     float(rng.uniform(*FP_SCORE))))
        (dirs["label_2"] / f"{frame}.txt").write_text("".join(gt), encoding="utf-8")
        (dirs["pred"] / f"{frame}.txt").write_text("".join(preds), encoding="utf-8")
        (dirs["calib"] / f"{frame}.txt").write_text(CALIB_TEXT, encoding="utf-8")
    split = root / "split.txt"
    split.write_text("".join(f"{f}\n" for f in frames), encoding="utf-8")
    return {"gt_dir": dirs["label_2"], "pred_dir": dirs["pred"],
            "calib_dir": dirs["calib"], "split": split}


def prepare(workload: str, seed: int, root: Path) -> dict:
    """Generate a workload's inputs under ``root``; return what
    :func:`command` needs besides the output path."""
    if workload == "eval-val":
        return write_eval_corpus(root / "corpus", seed)
    return {}


def command(workload: str, seed: int, inputs: dict, out: Path) -> list[str]:
    """The ``mono3d`` argument list of one execution, writing under ``out``."""
    if workload == "eval-val":
        return ["eval", "--gt-dir", str(inputs["gt_dir"]),
                "--pred-dir", str(inputs["pred_dir"]),
                "--calib-dir", str(inputs["calib_dir"]),
                "--split", str(inputs["split"]), "--out", str(out / "report.json")]
    if workload == "toy-convoy":
        return ["train-toy", "--out", str(out / "toy.json"), "--seed", str(seed)]
    if workload == "toy-wide":
        return ["train-toy", "--out", str(out / "toy.json"), "--seed", str(seed),
                *TOY_WIDE]
    if workload == "iou-oracle":
        return ["iou-oracle", "--out", str(out / "oracle.json"), "--seed", str(seed),
                "--n-pairs", str(ORACLE_PAIRS), "--n-samples", str(ORACLE_SAMPLES)]
    raise ValueError(f"unknown workload {workload!r}")
