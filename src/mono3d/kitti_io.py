"""Readers and writers for the KITTI object-detection text formats.

Label files carry one object per line with 15 whitespace-separated fields
(ground truth) or 16 (predictions, trailing confidence score). Calibration
files are ``KEY: v0 ... v11`` lines of which only the left colour camera
projection ``P2`` is consumed. A calibration file must hold exactly one
``P2:`` line of exactly 12 finite numbers (a 3x4 matrix, row-major) with a
positive focal length and a depth row: the third row's first three values
may not all be zero. Split files list one frame id per line, each id once.
Label lines and P2 lines are ASCII, and their numbers hold no ``_``.

Parsing is strict and total: every line either yields a table row of
finite values, an integral occlusion code, non-negative dimensions, a 2D
box with right >= left and bottom >= top, and (on ground-truth lines) a
truncation in [0, 1] (``DontCare`` rows excepted), or a located error
(its ``line_number``, and the field index in its message); nothing is
dropped silently.
"""

from __future__ import annotations

import enum
import math
import os
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
        # The line is left to the caller's ``file:line:`` prefix.
        super().__init__(message if field_index is None else f"{message} (field {field_index})")


class CalibFormatError(ValueError):
    """A calibration file without a usable P2 entry."""


# Columns of a LabelTable's values: label fields 1-14 in file order (as
# ObjectAnnotation names them), then the score.
TRUNCATION, OCCLUSION, ALPHA = 0, 1, 2
LEFT, TOP, RIGHT, BOTTOM = 3, 4, 5, 6
DIMS, LOCATION = slice(7, 10), slice(10, 13)
ROTATION_Y, SCORE = 13, 14
COLUMNS = 15


@dataclass
class ObjectAnnotation:
    """One label line, as the writers take it.

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


@dataclass(eq=False)  # tables hold arrays: compare their columns
class LabelTable:
    """A label or prediction file's rows: class names, one ``(N, COLUMNS)``
    float64 array of fields (the score NaN where a row has none), line numbers."""

    class_names: list[str]
    values: np.ndarray
    line_numbers: list[int]

    def __len__(self) -> int:
        return len(self.class_names)

    @classmethod
    def of(cls, annotations: list[ObjectAnnotation]) -> "LabelTable":
        """``annotations`` as lines 1, 2, ... of a table; no rule is checked."""
        rows = [(a.truncation, a.occlusion, a.alpha, *a.box2d, *a.dims, *a.location,
                 a.rotation_y, math.nan if a.score is None else a.score) for a in annotations]
        return cls([a.class_name for a in annotations],
                   np.array(rows, dtype=float).reshape(-1, COLUMNS),
                   list(range(1, len(rows) + 1)))

    @classmethod
    def concat(cls, tables: list["LabelTable"]) -> "LabelTable":
        """The rows of ``tables`` end to end."""
        return cls([name for t in tables for name in t.class_names],
                   np.concatenate([np.empty((0, COLUMNS))] + [t.values for t in tables]),
                   [n for t in tables for n in t.line_numbers])


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


def parse_label_file(text: str) -> LabelTable:
    """A label or prediction file's table, each line checked as it is read."""
    names, rows, line_numbers = [], [], []

    def error(message: str, field: int | None = None) -> LabelFormatError:
        return LabelFormatError(message, line_number, field)

    # KITTI lines end at "\n"; str.splitlines would also end one at "\x85",
    # "\u2028" and other separators, shifting every later line number.
    for line_number, line in enumerate(text.split("\n"), start=1):
        tokens = line.split()
        # float() also reads "1_0", "٣٠" and "１０": a KITTI line is ASCII,
        # and only its class name (as in "Person_sitting") may hold "_".
        if not line.isascii():
            raise error(f"character {next(c for c in line if not c.isascii())!r} is not ASCII",
                        next((i for i, tok in enumerate(tokens) if not tok.isascii()), None))
        if not tokens:
            continue
        if len(tokens) not in (GT_FIELD_COUNT, PRED_FIELD_COUNT):
            raise error(f"expected {GT_FIELD_COUNT} or {PRED_FIELD_COUNT} fields, "
                        f"got {len(tokens)}")
        # Field i (the class name is field 0) is column i - 1.
        values = []
        underscored = "_" in line
        for i, tok in enumerate(tokens[1:], start=1):
            try:
                if underscored and "_" in tok:
                    raise ValueError
                value = float(tok)
            except ValueError:
                raise error(f"field {tok!r} is not a number", i) from None
            if not math.isfinite(value):
                raise error(f"field {tok!r} is not finite", i)
            values.append(value)
        if not values[OCCLUSION].is_integer():
            raise error(f"occlusion {tokens[OCCLUSION + 1]!r} is not an integer", OCCLUSION + 1)
        if tokens[0] != "DontCare":  # DontCare rows keep their -1 placeholders
            for c in range(DIMS.start, DIMS.stop):
                if values[c] < 0:
                    raise error(f"dimension {tokens[c + 1]!r} is negative", c + 1)
            for lo, hi in ((LEFT, RIGHT), (TOP, BOTTOM)):
                if values[hi] < values[lo]:
                    raise error(f"2D box edge {tokens[hi + 1]!r} lies before {tokens[lo + 1]!r}",
                                hi + 1)
            # Result files may write -1 for an unknown truncation; labels may not.
            if len(tokens) == GT_FIELD_COUNT and not 0.0 <= values[TRUNCATION] <= 1.0:
                raise error(f"truncation {tokens[TRUNCATION + 1]!r} is outside [0, 1]",
                            TRUNCATION + 1)
        if len(tokens) == GT_FIELD_COUNT:
            values.append(math.nan)
        names.append(tokens[0])
        rows.append(values)
        line_numbers.append(line_number)
    return LabelTable(names, np.array(rows, dtype=float).reshape(-1, COLUMNS), line_numbers)


def parse_calib_file(text: str) -> CameraCalibration:
    """Extract the P2 projection from a KITTI calibration file."""
    p2_lines = [line for line in text.split("\n") if line.startswith("P2:")]
    if not p2_lines:
        raise CalibFormatError("no P2 line found")
    if len(p2_lines) > 1:
        raise CalibFormatError(f"P2 must be given once, got {len(p2_lines)} P2 lines")
    (line,) = p2_lines
    tokens = line.split()[1:]
    if len(tokens) != 12:
        raise CalibFormatError(f"P2 needs 12 values, got {len(tokens)}")
    # float() also reads "1_0", "٣٠" and "１０": KITTI writes plain ASCII.
    if not line.isascii() or "_" in line:
        raise CalibFormatError(f"P2 values must be plain ASCII numbers, got {line[3:].strip()!r}")
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


def assign_difficulty(table: LabelTable) -> np.ndarray:
    """Each row's easiest satisfied KITTI difficulty tier, as its
    :class:`Difficulty` code; a one-row table gives one object's.

    Easy: box height > 40 px, truncation <= 0.15, fully visible.
    Moderate: height > 25 px, truncation <= 0.30, occlusion <= 1.
    Hard: height > 25 px, truncation <= 0.50, occlusion <= 2.
    Anything else (including occlusion code 3, "unknown") is ignored by
    the metrics.
    """
    v = table.values
    height, truncation, occlusion = v[:, BOTTOM] - v[:, TOP], v[:, TRUNCATION], v[:, OCCLUSION]
    # Easiest first: np.select gives each row the first tier whose rule it meets.
    return np.select([(height > h) & (truncation <= t) & (occlusion >= 0) & (occlusion <= o)
                      for h, t, o in ((40, 0.15, 0), (25, 0.30, 1), (25, 0.50, 2))],
                     [Difficulty.EASY, Difficulty.MODERATE, Difficulty.HARD], Difficulty.IGNORED)


def read_split_file(text: str) -> list[str]:
    """Frame ids, one per line, blank lines skipped. An id that would leave
    its directory (``.``, ``..``, or any holding a path separator) raises,
    as do an id holding whitespace and a repeated id, naming its lines
    (counted from 1)."""
    first_line: dict[str, int] = {}
    for line_number, line in enumerate(text.split("\n"), start=1):
        frame = line.strip()
        if frame in (".", "..") or "/" in frame or os.sep in frame:
            raise ValueError(f"split line {line_number}: frame {frame!r} must name a file "
                             "in its directory: no path separator, '.' or '..'")
        if len(frame.split()) > 1:
            raise ValueError(f"split line {line_number}: frame {frame!r} holds whitespace; "
                             "list one frame id per line")
        if frame in first_line:
            raise ValueError(f"split line {line_number}: frame {frame!r} is already "
                             f"listed on line {first_line[frame]}")
        if frame:
            first_line[frame] = line_number
    return list(first_line)
