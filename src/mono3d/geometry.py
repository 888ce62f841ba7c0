"""Pinhole camera mapping and oriented 3D box geometry.

Camera coordinates follow KITTI: x right, y down, z forward. A box's
``center`` is the bottom-face centre, so the vertical extent spans
``[y - height, y]``. All functions are pure and double precision.
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
    """Oriented 3D box: bottom-face centre, (height, width, length), yaw."""

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
    """Project a camera-frame point to pixels: ``u = f*x/z + theta``."""
    x, y, z = point
    if z <= 0:
        raise ValueError(f"point must be in front of the camera, got z={z}")
    return (calib.f * x / z + calib.theta, calib.f * y / z + calib.phi)


def yaw_matrix(yaw: float) -> np.ndarray:
    """Rotation about the camera's vertical (y) axis."""
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, 0.0, s],
                     [0.0, 1.0, 0.0],
                     [-s, 0.0, c]])


def box3d_corners(box: Box3D) -> np.ndarray:
    """The 8 box vertices, shape (8, 3).

    Ordering is fixed: bottom face counter-clockwise viewed from above,
    starting at (+length/2, +width/2) in the box frame, then the top face
    in the same order. Positional ordering lets corner losses compare
    vertices index by index.
    """
    h, w, l = box.dims
    x = np.array([l, -l, -l, l, l, -l, -l, l]) / 2.0
    z = np.array([w, w, -w, -w, w, w, -w, -w]) / 2.0
    y = np.array([0.0, 0.0, 0.0, 0.0, -h, -h, -h, -h])
    corners = yaw_matrix(box.yaw) @ np.vstack([x, y, z])
    return corners.T + np.asarray(box.center, dtype=float)


def bev_footprint(box: Box3D) -> np.ndarray:
    """Bottom-face vertices on the ground (x, z) plane, shape (4, 2), CCW."""
    return box3d_corners(box)[:4][:, [0, 2]]
