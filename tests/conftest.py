import math
from pathlib import Path

import pytest

from mono3d.kitti_io import (ALPHA, BOTTOM, DIMS, GT_FIELD_COUNT, LEFT, LOCATION, OCCLUSION,
                             PRED_FIELD_COUNT, ROTATION_Y, SCORE, TRUNCATION,
                             CameraCalibration, Difficulty, LabelFormatError, ObjectAnnotation,
                             write_prediction_file)

KITTI_F = 721.5377
KITTI_THETA = 609.5593
KITTI_PHI = 172.854

CALIB_TEXT = (
    "P0: 707.0493 0 604.0814 0 0 707.0493 180.5066 0 0 0 1 0\n"
    f"P2: {KITTI_F} 0 {KITTI_THETA} 44.85728 0 {KITTI_F} {KITTI_PHI} "
    "0.2163791 0 0 1 0.002745884\n"
    "R0_rect: 1 0 0 0 1 0 0 0 1\n"
)


def reference_parse_fields(tokens: list[str], line_number: int) -> ObjectAnnotation:
    """Oracle for the table parser's per-line rules: the record parser it
    replaced, field by field over Python floats, with no ``_`` in a number."""
    values = []
    for i, tok in enumerate(tokens[1:], start=1):
        try:
            if "_" in tok:
                raise ValueError(tok)
            value = float(tok)
        except ValueError:
            raise LabelFormatError(f"field {tok!r} is not a number",
                                   line_number=line_number, field_index=i) from None
        if not math.isfinite(value):
            raise LabelFormatError(f"field {tok!r} is not finite",
                                   line_number=line_number, field_index=i)
        values.append(value)
    if not values[1].is_integer():
        raise LabelFormatError(f"occlusion {tokens[2]!r} is not an integer",
                               line_number=line_number, field_index=2)
    if tokens[0] != "DontCare":  # DontCare rows keep their -1 placeholders
        for i in (8, 9, 10):
            if values[i - 1] < 0:
                raise LabelFormatError(f"dimension {tokens[i]!r} is negative",
                                       line_number=line_number, field_index=i)
        for lo, hi in ((4, 6), (5, 7)):  # (left, right), (top, bottom)
            if values[hi - 1] < values[lo - 1]:
                raise LabelFormatError(
                    f"2D box edge {tokens[hi]!r} lies before {tokens[lo]!r}",
                    line_number=line_number, field_index=hi)
        # Result files may write -1 for an unknown truncation; labels may not.
        if len(tokens) == GT_FIELD_COUNT and not 0.0 <= values[0] <= 1.0:
            raise LabelFormatError(f"truncation {tokens[1]!r} is outside [0, 1]",
                                   line_number=line_number, field_index=1)
    score = values[14] if len(values) == 15 else None
    return ObjectAnnotation(
        class_name=tokens[0],
        truncation=values[0],
        occlusion=int(values[1]),
        alpha=values[2],
        box2d=(values[3], values[4], values[5], values[6]),
        dims=(values[7], values[8], values[9]),
        location=(values[10], values[11], values[12]),
        rotation_y=values[13],
        score=score,
    )


def non_ascii(text: str) -> list[str]:
    return [c for c in text if ord(c) > 127]


def reference_parse_label_line(line: str, line_number: int = 1) -> ObjectAnnotation:
    if non_ascii(line):
        fields = [i for i, tok in enumerate(line.split()) if non_ascii(tok)]
        raise LabelFormatError(f"character {non_ascii(line)[0]!r} is not ASCII",
                               line_number=line_number, field_index=(fields or [None])[0])
    tokens = line.split()
    if len(tokens) not in (GT_FIELD_COUNT, PRED_FIELD_COUNT):
        raise LabelFormatError(
            f"expected {GT_FIELD_COUNT} or {PRED_FIELD_COUNT} fields, got {len(tokens)}",
            line_number=line_number)
    return reference_parse_fields(tokens, line_number)


def reference_parse_label_file(text: str) -> list[ObjectAnnotation]:
    """Oracle for ``parse_label_file``: one record per non-blank line, lines
    ending at ``\n`` only; a line of non-ASCII whitespace is not blank."""
    return [reference_parse_label_line(line, line_number)
            for line_number, line in enumerate(text.split("\n"), start=1)
            if line.strip() or non_ascii(line)]


def reference_assign_difficulty(a: ObjectAnnotation) -> Difficulty:
    """Oracle for the vectorised ``assign_difficulty``: one record's
    easiest satisfied tier, rule by rule."""
    h = a.box2d[3] - a.box2d[1]
    if h > 40 and a.truncation <= 0.15 and a.occlusion == 0:
        return Difficulty.EASY
    if h > 25 and a.truncation <= 0.30 and 0 <= a.occlusion <= 1:
        return Difficulty.MODERATE
    if h > 25 and a.truncation <= 0.50 and 0 <= a.occlusion <= 2:
        return Difficulty.HARD
    return Difficulty.IGNORED


def records(table) -> list[ObjectAnnotation]:
    """A table's rows as records, the inverse of ``LabelTable.of``."""
    return [ObjectAnnotation(
        class_name=name, truncation=row[TRUNCATION], occlusion=int(row[OCCLUSION]),
        alpha=row[ALPHA], box2d=tuple(row[LEFT:BOTTOM + 1]), dims=tuple(row[DIMS]),
        location=tuple(row[LOCATION]), rotation_y=row[ROTATION_Y],
        score=None if math.isnan(row[SCORE]) else row[SCORE])
        for name, row in zip(table.class_names, table.values.tolist())]


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

