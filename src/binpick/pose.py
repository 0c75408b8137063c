"""6DoF grasp pose per plane: inlier-mean centroid, reference frame, Z-Y-X Euler angles.

The centroid is the mean of the plane's inliers. The paper takes a flat-kernel
mean-shift mode; with a window wider than any pickable face that mode is the
mean after one step, so the mean is taken directly.

The grasp frame's z-axis is the suction approach direction (the plane normal
negated, since plane normals face the sensor), its x-axis is the sensor X axis
projected into the plane (sensor Y when the normal is parallel to X), and its
y-axis completes the right-handed frame. A box top parallel to the bin floor
therefore reports Euler angles (0, 0, 0).

Positions are reported in millimeters and angles in degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EulerZYX, PlaneModel, Point3
from .planes import SegmentedPlane

_GIMBAL_EPS = 1e-9


@dataclass(frozen=True)
class Pose6DoF:
    """Grasp target: centroid in sensor-frame millimeters plus orientation."""

    centroid_mm: Point3
    euler: EulerZYX
    plane: PlaneModel
    inlier_count: int
    priority: str

    def __post_init__(self):
        if self.priority not in ("child", "parent"):
            raise ValueError("priority must be 'child' or 'parent'")


def build_frame(normal) -> np.ndarray:
    """Rotation matrix whose columns are the grasp-frame axes in sensor coordinates.

    The z-axis is the given unit normal; the x-axis is the normalized projection
    of the sensor X axis onto the plane (sensor Y when the normal is parallel to
    X within 1e-6); y completes the right-handed frame.
    """
    z = np.asarray(normal, dtype=float).reshape(3)
    if abs(np.linalg.norm(z) - 1.0) > 1e-9:
        raise ValueError("normal must be unit length")
    x_raw = np.array([1.0, 0.0, 0.0]) - z[0] * z
    if np.linalg.norm(x_raw) < 1e-6:
        x_raw = np.array([0.0, 1.0, 0.0]) - z[1] * z
    x = x_raw / np.linalg.norm(x_raw)
    y = np.cross(z, x)
    return np.column_stack([x, y, z])


def euler_zyx_from_rotation(rot: np.ndarray) -> EulerZYX:
    """Intrinsic Z-Y-X Euler angles (degrees) of a rotation matrix.

    theta2 = -asin(R[2,0]); theta1 and theta3 come from atan2 of the first
    column and last row. At gimbal lock (|R[2,0]| ~ 1) theta3 is fixed to 0 and
    theta1 absorbs the remaining rotation, so rebuilding the matrix from the
    returned angles reproduces the input on both lock branches.
    """
    r = np.asarray(rot, dtype=float).reshape(3, 3)
    if np.abs(r.T @ r - np.eye(3)).max() > 1e-6 or abs(np.linalg.det(r) - 1.0) > 1e-6:
        raise ValueError("input is not a rotation matrix")

    r20 = float(np.clip(r[2, 0], -1.0, 1.0))
    theta2 = np.degrees(-np.arcsin(r20))
    if abs(r20) > 1.0 - _GIMBAL_EPS:
        theta1 = np.degrees(np.arctan2(-r[0, 1], r[1, 1]))
        theta3 = 0.0
    else:
        theta1 = np.degrees(np.arctan2(r[1, 0], r[0, 0]))
        theta3 = np.degrees(np.arctan2(r[2, 1], r[2, 2]))

    def wrap(t: float) -> float:
        return t + 360.0 if t <= -180.0 else t

    return EulerZYX(wrap(float(theta1)), float(theta2), wrap(float(theta3)))


def euler_zyx_to_rotation(euler: EulerZYX) -> np.ndarray:
    """Rotation matrix of intrinsic Z-Y-X angles: Rz(theta1) @ Ry(theta2) @ Rx(theta3)."""
    c1, s1 = np.cos(np.radians(euler.theta1)), np.sin(np.radians(euler.theta1))
    c2, s2 = np.cos(np.radians(euler.theta2)), np.sin(np.radians(euler.theta2))
    c3, s3 = np.cos(np.radians(euler.theta3)), np.sin(np.radians(euler.theta3))
    return np.array([
        [c1 * c2, c1 * s2 * s3 - c3 * s1, s1 * s3 + c1 * c3 * s2],
        [c2 * s1, c1 * c3 + s1 * s2 * s3, c3 * s1 * s2 - c1 * s3],
        [-s2, c2 * s3, c2 * c3],
    ])


def estimate_pose(plane: SegmentedPlane, priority: str) -> Pose6DoF:
    """Pose of one plane: inlier-mean centroid plus the grasp-frame orientation.

    The approach axis handed to the frame builder is the plane normal negated:
    plane normals face the sensor, the suction cup travels the opposite way.
    """
    if len(plane.points) == 0:
        raise ValueError("plane has no inlier points")
    return Pose6DoF(centroid_mm=Point3.from_array(plane.points.mean(0) * 1000.0),
                    euler=euler_zyx_from_rotation(build_frame(-plane.model.normal)),
                    plane=plane.model, inlier_count=len(plane.points),
                    priority=priority)
