"""Shared geometric primitives: points, organized clouds, planes, rigid transforms, Euler angles, kNN distances.

Frame convention used everywhere: the depth sensor sits at the origin with
x pointing right, y pointing down, z pointing forward into the scene.
Lengths are meters internally; reported poses convert to millimeters.
All types here are immutable values and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_UNIT_TOL = 1e-9


def is_integer(value) -> bool:
    """A Python or numpy integer; bools do not count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A number that converts to a finite float (an int too large for one does
    not); bools do not count."""
    if isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


@dataclass(frozen=True)
class Point3:
    """A 3D point in the sensor frame, meters."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(a) -> "Point3":
        ax, ay, az = (float(v) for v in np.asarray(a, dtype=float).reshape(3))
        return Point3(ax, ay, az)


@dataclass(frozen=True)
class OrganizedCloud:
    """Grid-structured point cloud as produced by the depth sensor.

    ``points`` has shape (height, width, 3) and ``valid`` shape (height, width);
    entries with ``valid == False`` hold no meaningful coordinates and must never
    reach downstream math.
    """

    points: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        val = np.asarray(self.valid, dtype=bool)
        if pts.ndim != 3 or pts.shape[2] != 3:
            raise ValueError("points must have shape (height, width, 3)")
        if val.shape != pts.shape[:2]:
            raise ValueError("valid bitmap must match the point grid")
        if not np.isfinite(pts[val]).all():
            raise ValueError("valid points must have finite coordinates")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "valid", val)

    @property
    def width(self) -> int:
        return self.points.shape[1]

    @property
    def height(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class PlaneModel:
    """Plane a*x + b*y + c*z + d = 0 with unit normal (a, b, c) oriented toward the sensor.

    The orientation convention makes the signed distance of the sensor origin,
    which is just d, non-negative, so grasp approach directions are well defined.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        n = np.array([self.a, self.b, self.c], dtype=float)
        if abs(np.linalg.norm(n) - 1.0) > _UNIT_TOL:
            raise ValueError("plane normal must be unit length; use normalize_plane")
        if self.d < 0:
            raise ValueError("plane must be oriented toward the sensor (d >= 0)")

    @property
    def normal(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c], dtype=float)


@dataclass(frozen=True)
class RigidTransform:
    """Rotation plus translation; rotation is a proper orthonormal 3x3 matrix."""

    rotation: np.ndarray
    translation: Point3 = field(default=Point3(0.0, 0.0, 0.0))

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        if r.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if np.abs(r.T @ r - np.eye(3)).max() > _UNIT_TOL:
            raise ValueError("rotation must be orthonormal")
        if abs(np.linalg.det(r) - 1.0) > _UNIT_TOL:
            raise ValueError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", r)

    def translation_array(self) -> np.ndarray:
        return self.translation.as_array()

    def apply_array(self, points: np.ndarray) -> np.ndarray:
        """Transform an (n, 3) or (3,) array of points."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation_array()

    def inverse(self) -> "RigidTransform":
        r = self.rotation.T
        t = -r @ self.translation_array()
        return RigidTransform(r, Point3.from_array(t))


@dataclass(frozen=True)
class EulerZYX:
    """Intrinsic Z-Y-X Euler angles in degrees: theta1 about Z, theta2 about Y, theta3 about X.

    theta1 and theta3 lie in (-180, 180]; theta2 lies in [-90, 90].
    """

    theta1: float
    theta2: float
    theta3: float

    def __post_init__(self):
        if not (-180.0 < self.theta1 <= 180.0 and -180.0 < self.theta3 <= 180.0):
            raise ValueError("theta1 and theta3 must lie in (-180, 180]")
        if not (-90.0 <= self.theta2 <= 90.0):
            raise ValueError("theta2 must lie in [-90, 90]")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.theta1, self.theta2, self.theta3)


def normalize_plane(raw) -> PlaneModel:
    """Scale plane coefficients to a unit normal and orient the normal toward the sensor.

    If the scaled d is negative (sensor origin on the negative side), all four
    coefficients are flipped so that d >= 0.

    Raises ValueError when the normal part is degenerate (|(a,b,c)| < 1e-12).
    """
    coeffs = np.asarray(raw, dtype=float).reshape(4)
    norm = float(np.linalg.norm(coeffs[:3]))
    if norm < 1e-12:
        raise ValueError("degenerate plane normal: |(a, b, c)| < 1e-12")
    coeffs = coeffs / norm
    if coeffs[3] < 0:
        coeffs = -coeffs
    return PlaneModel(*(float(v) for v in coeffs))


def plane_signed_distances(plane: PlaneModel, points: np.ndarray) -> np.ndarray:
    """Signed distances a*x + b*y + c*z + d of an (n, 3) or (3,) array of points."""
    return np.asarray(points, dtype=float) @ plane.normal + plane.d


def knn_distances(points: np.ndarray, k: int) -> np.ndarray:
    """Ascending distances (n, k) from each of the (n, 3) points to its k nearest others."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(points) <= k:
        raise ValueError(f"need more than k={k} points, got {len(points)}")
    from scipy.spatial import cKDTree

    d, _ = cKDTree(points).query(points, k=k + 1)
    return d[:, 1:]
