"""Readers and writers for the KITTI object-detection text formats.

Label files carry one object per line with 15 whitespace-separated fields
(ground truth) or 16 (predictions, trailing confidence score). Calibration
files are ``KEY: v0 ... v11`` lines of which only the left colour camera
projection ``P2`` is consumed. A calibration file must hold exactly one
``P2:`` line of exactly 12 finite numbers (a 3x4 matrix, row-major) with a
positive focal length and a depth row: the third row's first three values
may not all be zero. Split files list one frame id per line, each id once.

Parsing is strict and total: every line either yields an annotation of
finite values, an integral occlusion code, non-negative dimensions, a 2D
box with right >= left and bottom >= top, and (on ground-truth lines) a
truncation in [0, 1] (``DontCare`` rows excepted), or a located error
(line number, field index); nothing is dropped silently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

GT_FIELD_COUNT = 15
PRED_FIELD_COUNT = 16

# Serialized reals keep 6 fractional digits; centimetre-scale values
# round-trip exactly through write -> parse.
DECIMALS = 6


class LabelFormatError(ValueError):
    """A label line that does not follow the KITTI field layout."""

    def __init__(self, message: str, line_number: int | None = None,
                 field_index: int | None = None):
        self.line_number = line_number
        self.field_index = field_index
        loc = ""
        if line_number is not None:
            loc += f" (line {line_number}"
            loc += f", field {field_index})" if field_index is not None else ")"
        super().__init__(message + loc)


class CalibFormatError(ValueError):
    """A calibration file without a usable P2 entry."""


@dataclass
class ObjectAnnotation:
    """One KITTI label line.

    ``box2d`` is (left, top, right, bottom) in pixels, ``dims`` is
    (height, width, length) in metres, ``location`` is the bottom-face
    centre (x, y, z) in camera coordinates, and ``rotation_y`` is the yaw
    about the camera's vertical axis. ``score`` is present only on
    predictions. "DontCare" rows keep their -1 placeholders verbatim.
    """

    class_name: str
    truncation: float
    occlusion: int
    alpha: float
    box2d: tuple[float, float, float, float]
    dims: tuple[float, float, float]
    location: tuple[float, float, float]
    rotation_y: float
    score: Optional[float] = None

    @property
    def box_height(self) -> float:
        return self.box2d[3] - self.box2d[1]


@dataclass
class CameraCalibration:
    """Left colour camera projection matrix and derived intrinsics."""

    p2: np.ndarray  # 3x4, row-major

    @property
    def f(self) -> float:
        """Focal length in pixels."""
        return float(self.p2[0, 0])

    @property
    def theta(self) -> float:
        """Principal point horizontal offset in pixels."""
        return float(self.p2[0, 2])

    @property
    def phi(self) -> float:
        """Principal point vertical offset in pixels."""
        return float(self.p2[1, 2])

    @classmethod
    def from_intrinsics(cls, f: float, theta: float, phi: float) -> "CameraCalibration":
        p2 = np.array([[f, 0.0, theta, 0.0],
                       [0.0, f, phi, 0.0],
                       [0.0, 0.0, 1.0, 0.0]])
        return cls(p2=p2)


class Difficulty(enum.IntEnum):
    """KITTI difficulty tiers, ordered easiest first."""

    EASY = 0
    MODERATE = 1
    HARD = 2
    IGNORED = 3


def frame_id(index: int) -> str:
    """Zero-padded 6-digit frame identifier, matching KITTI file naming."""
    return f"{index:06d}"


def _parse_fields(tokens: list[str], line_number: int) -> ObjectAnnotation:
    values = []
    for i, tok in enumerate(tokens[1:], start=1):
        try:
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


def parse_label_line(line: str, line_number: int = 1) -> ObjectAnnotation:
    tokens = line.split()
    if len(tokens) not in (GT_FIELD_COUNT, PRED_FIELD_COUNT):
        raise LabelFormatError(
            f"expected {GT_FIELD_COUNT} or {PRED_FIELD_COUNT} fields, got {len(tokens)}",
            line_number=line_number)
    return _parse_fields(tokens, line_number)


def parse_label_file(text: str) -> list[ObjectAnnotation]:
    """Parse a label or prediction file into annotations in file order."""
    annotations = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        annotations.append(parse_label_line(line, line_number))
    return annotations


def parse_calib_file(text: str) -> CameraCalibration:
    """Extract the P2 projection from a KITTI calibration file."""
    p2_lines = [line.split()[1:] for line in text.splitlines() if line.startswith("P2:")]
    if not p2_lines:
        raise CalibFormatError("no P2 line found")
    if len(p2_lines) > 1:
        raise CalibFormatError(f"P2 must be given once, got {len(p2_lines)} P2 lines")
    (tokens,) = p2_lines
    if len(tokens) != 12:
        raise CalibFormatError(f"P2 needs 12 values, got {len(tokens)}")
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise CalibFormatError(f"P2 contains a non-numeric value: {exc}") from None
    calib = CameraCalibration(p2=np.array(values).reshape(3, 4))
    if not np.isfinite(calib.p2).all():
        raise CalibFormatError(f"P2 values must be finite, got {' '.join(tokens)}")
    if calib.f <= 0:
        raise CalibFormatError(f"focal length must be positive, got {calib.f}")
    if not calib.p2[2, :3].any():
        raise CalibFormatError(f"P2 third row has no depth axis, got {' '.join(tokens)}")
    return calib


def format_label_line(a: ObjectAnnotation) -> str:
    """One label line: 15 fields, or 16 when ``a`` has a score."""
    scored = () if a.score is None else (a.score,)
    parts = [a.class_name,
             f"{a.truncation:.{DECIMALS}f}", str(a.occlusion), f"{a.alpha:.{DECIMALS}f}"]
    parts += [f"{v:.{DECIMALS}f}"
              for v in (*a.box2d, *a.dims, *a.location, a.rotation_y, *scored)]
    return " ".join(parts)


def write_prediction_file(annotations: list[ObjectAnnotation]) -> str:
    """Serialize predictions, one 16-field line per annotation, input order.

    Round-trips through :func:`parse_label_file` at 6-decimal precision.
    """
    for a in annotations:
        if a.score is None:
            raise ValueError(f"prediction for {a.class_name} has no score")
    return "".join(format_label_line(a) + "\n" for a in annotations)


def assign_difficulty(a: ObjectAnnotation) -> Difficulty:
    """Map an annotation to its easiest satisfied KITTI difficulty tier.

    Easy: box height > 40 px, truncation <= 0.15, fully visible.
    Moderate: height > 25 px, truncation <= 0.30, occlusion <= 1.
    Hard: height > 25 px, truncation <= 0.50, occlusion <= 2.
    Anything else (including occlusion code 3, "unknown") is ignored by
    the metrics.
    """
    h = a.box_height
    if h > 40 and a.truncation <= 0.15 and a.occlusion == 0:
        return Difficulty.EASY
    if h > 25 and a.truncation <= 0.30 and 0 <= a.occlusion <= 1:
        return Difficulty.MODERATE
    if h > 25 and a.truncation <= 0.50 and 0 <= a.occlusion <= 2:
        return Difficulty.HARD
    return Difficulty.IGNORED


def read_split_file(text: str) -> list[str]:
    """Frame ids, one per line, blank lines skipped. A repeated id raises,
    naming both of its lines (counted from 1)."""
    first_line: dict[str, int] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        frame = line.strip()
        if frame in first_line:
            raise ValueError(f"split line {line_number}: frame {frame!r} is already "
                             f"listed on line {first_line[frame]}")
        if frame:
            first_line[frame] = line_number
    return list(first_line)
