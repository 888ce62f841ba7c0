"""Pinhole camera mapping and oriented 3D box geometry.

Camera coordinates follow KITTI: x right, y down, z forward. A box's
``center`` is the bottom-face centre, so the vertical extent spans
``[y - height, y]``. All functions are pure and double precision.
``forward_project`` and the box functions also take arrays of B points
or boxes and stack their results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kitti_io import CameraCalibration


@dataclass
class Box2D:
    """Axis-aligned image box given by centre and size."""

    center_u: float
    center_v: float
    width: float
    height: float


@dataclass
class Box3D:
    """Oriented 3D box: bottom-face centre, (height, width, length), yaw;
    for B boxes, arrays of shapes (B, 3), (B, 3) and (B,)."""

    center: tuple[float, float, float]
    dims: tuple[float, float, float]
    yaw: float


def inverse_project(box2d_center: Sequence[float], depth: float,
                    calib: CameraCalibration) -> tuple[float, float]:
    """Map an image point at a known depth back to camera coordinates.

    Returns (x, y) metres with
    ``x = (u - theta) * z / f`` and ``y = (v - phi) * z / f``.
    """
    if depth <= 0:
        raise ValueError(f"depth must be positive, got {depth}")
    u, v = box2d_center
    return ((u - calib.theta) * depth / calib.f,
            (v - calib.phi) * depth / calib.f)


def forward_project(point: Sequence[float], calib: CameraCalibration) -> tuple[float, float]:
    """Project camera-frame points, one or arrays, to pixels: ``u = f*x/z + theta``."""
    x, y, z = point
    if np.any(np.asarray(z) <= 0):
        raise ValueError(f"point must be in front of the camera, got z={np.min(z)}")
    return (calib.f * x / z + calib.theta, calib.f * y / z + calib.phi)


def yaw_matrix(yaw: float) -> np.ndarray:
    """Rotation about the camera's vertical (y) axis: (3, 3), or (B, 3, 3)."""
    c, s = np.cos(yaw), np.sin(yaw)
    zero, one = np.zeros_like(c), np.ones_like(c)
    return np.stack([c, zero, s,
                     zero, one, zero,
                     -s, zero, c], axis=-1).reshape(np.shape(c) + (3, 3))


def box3d_corners(box: Box3D) -> np.ndarray:
    """The 8 box vertices, shape (8, 3), or (B, 8, 3) for B boxes.

    Ordering is fixed: bottom face counter-clockwise viewed from above,
    starting at (+length/2, +width/2) in the box frame, then the top face
    in the same order. Positional ordering lets corner losses compare
    vertices index by index. Each box, stacked or not, is one (3, 3) @
    (3, 8) product, so a stacked box rounds as it does alone.
    """
    h, w, l = np.moveaxis(np.asarray(box.dims, dtype=float), -1, 0)
    zero = np.zeros_like(h)
    x = np.stack([l, -l, -l, l, l, -l, -l, l], axis=-1) / 2.0
    z = np.stack([w, w, -w, -w, w, w, -w, -w], axis=-1) / 2.0
    y = np.stack([zero, zero, zero, zero, -h, -h, -h, -h], axis=-1)
    corners = yaw_matrix(box.yaw) @ np.stack([x, y, z], axis=-2)
    return np.swapaxes(corners, -1, -2) + np.asarray(box.center, dtype=float)[..., None, :]


def bev_footprint(box: Box3D) -> np.ndarray:
    """Bottom-face (x, z) vertices, CCW: shape (4, 2), or (B, 4, 2)."""
    return box3d_corners(box)[..., :4, :][..., [0, 2]]
