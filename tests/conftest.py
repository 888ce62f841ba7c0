import math
from pathlib import Path

import pytest

from mono3d.kitti_io import CameraCalibration, ObjectAnnotation, write_prediction_file

KITTI_F = 721.5377
KITTI_THETA = 609.5593
KITTI_PHI = 172.854

CALIB_TEXT = (
    "P0: 707.0493 0 604.0814 0 0 707.0493 180.5066 0 0 0 1 0\n"
    f"P2: {KITTI_F} 0 {KITTI_THETA} 44.85728 0 {KITTI_F} {KITTI_PHI} "
    "0.2163791 0 0 1 0.002745884\n"
    "R0_rect: 1 0 0 0 1 0 0 0 1\n"
)


def make_car(x=0.0, y=1.6, z=20.0, height_px=60.0, width_px=90.0,
             left=400.0, top=150.0, truncation=0.0, occlusion=0,
             yaw=-1.2, dims=(1.52, 1.63, 3.88), score=None,
             class_name="Car") -> ObjectAnnotation:
    """A plausible annotation with an explicitly controlled 2D box height."""
    return ObjectAnnotation(
        class_name=class_name,
        truncation=truncation,
        occlusion=occlusion,
        alpha=math.atan2(-x, z),
        box2d=(left, top, left + width_px, top + height_px),
        dims=dims,
        location=(x, y, z),
        rotation_y=yaw,
        score=score,
    )


def frame_annotations() -> dict[str, list[ObjectAnnotation]]:
    """Three frames with known class and difficulty composition.

    Cars: 3 easy, 1 moderate, 1 hard; plus one pedestrian and one
    DontCare row that the metrics must ignore.
    """
    dontcare = ObjectAnnotation(
        class_name="DontCare", truncation=-1.0, occlusion=-1, alpha=-10.0,
        box2d=(500.0, 160.0, 540.0, 180.0), dims=(-1.0, -1.0, -1.0),
        location=(-1000.0, -1000.0, -1000.0), rotation_y=-10.0)
    return {
        "000000": [
            make_car(x=-2.5, z=15.0, height_px=62.0, left=300.0),
            make_car(x=1.8, z=32.0, height_px=31.0, left=640.0,
                     truncation=0.2, occlusion=1),
            make_car(x=0.5, z=24.0, height_px=44.0, left=520.0,
                     class_name="Pedestrian", dims=(1.76, 0.6, 0.75)),
            dontcare,
        ],
        "000001": [
            make_car(x=3.2, z=11.0, height_px=85.0, left=760.0),
            make_car(x=-1.1, z=47.0, height_px=27.0, left=540.0,
                     truncation=0.4, occlusion=2),
        ],
        "000002": [
            make_car(x=0.2, z=58.0, height_px=42.0, left=590.0),
        ],
    }


def write_corpus(root: Path, perturb_z: float = 0.0,
                 score: float = 0.9) -> dict[str, Path]:
    """Materialise the fixture frames as a KITTI-style directory tree.

    Predictions are the ground-truth cars with a score, the depth
    optionally shifted by ``perturb_z`` metres.
    """
    gt_dir = root / "label_2"
    pred_dir = root / "pred"
    calib_dir = root / "calib"
    for d in (gt_dir, pred_dir, calib_dir):
        d.mkdir(parents=True, exist_ok=True)

    frames = frame_annotations()
    for frame, annotations in frames.items():
        lines = []
        for a in annotations:
            fields = [a.class_name, f"{a.truncation:.2f}", str(a.occlusion),
                      f"{a.alpha:.6f}"]
            fields += [f"{v:.2f}" for v in a.box2d]
            fields += [f"{v:.2f}" for v in a.dims]
            fields += [f"{v:.2f}" for v in a.location]
            fields += [f"{a.rotation_y:.6f}"]
            lines.append(" ".join(fields))
        (gt_dir / f"{frame}.txt").write_text("".join(l + "\n" for l in lines))
        (calib_dir / f"{frame}.txt").write_text(CALIB_TEXT)

        preds = []
        for a in annotations:
            if a.class_name != "Car":
                continue
            x, y, z = a.location
            preds.append(ObjectAnnotation(
                class_name=a.class_name, truncation=a.truncation,
                occlusion=a.occlusion, alpha=a.alpha, box2d=a.box2d,
                dims=a.dims, location=(x, y, round(z, 2) + perturb_z),
                rotation_y=a.rotation_y, score=score))
        (pred_dir / f"{frame}.txt").write_text(write_prediction_file(preds))

    split = root / "split.txt"
    split.write_text("".join(f"{frame}\n" for frame in sorted(frames)))
    return {"gt": gt_dir, "pred": pred_dir, "calib": calib_dir, "split": split}


@pytest.fixture
def corpus(tmp_path):
    return write_corpus(tmp_path)


@pytest.fixture
def calib():
    return CameraCalibration.from_intrinsics(f=700.0, theta=600.0, phi=170.0)

