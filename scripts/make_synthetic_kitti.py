#!/usr/bin/env python3
"""Generate a small synthetic KITTI-style corpus to exercise the eval CLI.

Writes label_2/, pred/, calib/ directories and a split file. Predictions
are the ground truth with Gaussian position noise and random scores, so
`mono3d eval` on the output produces non-trivial AP and localization
numbers.
"""

import argparse
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from mono3d.geometry import forward_project
from mono3d.kitti_io import (CameraCalibration, ObjectAnnotation, format_label_line,
                             frame_id, write_prediction_file)

F, THETA, PHI = 721.5377, 609.5593, 172.854
CALIB_TEXT = f"P2: {F} 0 {THETA} 0 0 {F} {PHI} 0 0 0 1 0\n"


def random_car(rng, calib):
    z = float(rng.uniform(6.0, 70.0))
    x = float(rng.uniform(-0.4, 0.4)) * z * 0.8
    y = 1.65
    dims = (float(rng.uniform(1.4, 1.7)), float(rng.uniform(1.5, 1.8)),
            float(rng.uniform(3.4, 4.5)))
    u, v = forward_project((x, y - dims[0] / 2, z), calib)
    height_px = F * dims[0] / z
    width_px = F * dims[2] / z * 0.6
    return ObjectAnnotation(
        class_name="Car",
        truncation=float(rng.choice([0.0, 0.0, 0.1, 0.3])),
        occlusion=int(rng.choice([0, 0, 1, 2])),
        alpha=math.atan2(-x, z),
        box2d=(u - width_px / 2, v - height_px / 2,
               u + width_px / 2, v + height_px / 2),
        dims=dims,
        location=(x, y, z),
        rotation_y=float(rng.uniform(-math.pi, math.pi)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("synthetic_kitti"))
    parser.add_argument("--frames", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pos-noise", type=float, default=0.3,
                        help="std of the prediction position error, metres")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    calib = CameraCalibration.from_intrinsics(F, THETA, PHI)
    for sub in ("label_2", "pred", "calib"):
        (args.out / sub).mkdir(parents=True, exist_ok=True)

    frames = [frame_id(i) for i in range(args.frames)]
    for frame in frames:
        cars = [random_car(rng, calib) for _ in range(int(rng.integers(1, 7)))]
        (args.out / "label_2" / f"{frame}.txt").write_text(
            "".join(format_label_line(a) + "\n" for a in cars))
        (args.out / "calib" / f"{frame}.txt").write_text(CALIB_TEXT)

        preds = []
        for a in cars:
            x, y, z = a.location
            noisy = (x + float(rng.normal(0, args.pos_noise)), y,
                     z + float(rng.normal(0, args.pos_noise)))
            preds.append(replace(a, location=noisy, score=float(rng.uniform(0.3, 1.0))))
        (args.out / "pred" / f"{frame}.txt").write_text(write_prediction_file(preds))

    (args.out / "split.txt").write_text("".join(f"{f}\n" for f in frames))
    print(f"wrote {args.frames} frames under {args.out}/")
    print("try: mono3d eval --gt-dir {0}/label_2 --pred-dir {0}/pred "
          "--calib-dir {0}/calib --split {0}/split.txt --out report.json"
          .format(args.out))


if __name__ == "__main__":
    main()
