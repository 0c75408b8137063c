"""RGB-to-depth calibration and projection of segmentation masks onto the cloud.

The two sensors share a rigid parallel mount, so a single perspective
transform maps RGB pixels to depth-grid cells. Masks project many RGB pixels
onto few depth cells (the RGB frame is far denser); duplicates collapse and
only valid cloud points are collected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OrganizedCloud
from .errors import EmptyClusterError
from .segmentation import BinaryMask

HOMOGRAPHY_JSON_KEY = "rgb_to_depth_homography"


@dataclass(frozen=True)
class Homography:
    """3x3 perspective map from RGB pixel coordinates to depth pixel coordinates."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float).reshape(3, 3)
        if abs(h[2, 2]) < 1e-12:
            raise ValueError("homography h[2][2] must be nonzero")
        h = h / h[2, 2]
        if not np.isfinite(h).all():
            raise ValueError("homography entries must be finite after scaling h[2][2] to 1")
        if abs(np.linalg.det(h)) < 1e-12:
            raise ValueError("homography must be invertible")
        object.__setattr__(self, "h", h)

    def map_points(self, xy: np.ndarray) -> np.ndarray:
        """Map (n, 2) pixel coordinates through the homography."""
        pts = np.asarray(xy, dtype=float).reshape(-1, 2)
        return self._map_homogeneous(_homogeneous(pts[:, 0], pts[:, 1]))

    def _map_homogeneous(self, homog: np.ndarray) -> np.ndarray:
        """Map (n, 3) homogeneous pixel coordinates to (n, 2) depth pixels."""
        mapped = homog @ self.h.T
        return mapped[:, :2] / mapped[:, 2:3]

    def to_flat_list(self) -> list[float]:
        return [float(v) for v in self.h.reshape(9)]


def _homogeneous(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n, 3) float64 rows (x, y, 1), filled in one preallocated array."""
    homog = np.empty((len(x), 3))
    homog[:, 0] = x
    homog[:, 1] = y
    homog[:, 2] = 1.0
    return homog


@dataclass(frozen=True)
class MaskedCluster:
    """Valid cloud points selected by one mask."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if len(pts) == 0:
            raise EmptyClusterError("masked cluster has no points")
        object.__setattr__(self, "points", pts)


def _normalizing_transform(pts: np.ndarray) -> np.ndarray:
    """Similarity moving the centroid to the origin and mean distance to sqrt(2)."""
    centroid = pts.mean(0)
    mean_dist = np.linalg.norm(pts - centroid, axis=1).mean()
    scale = np.sqrt(2.0) / mean_dist if mean_dist > 1e-12 else 1.0
    return np.array([
        [scale, 0.0, -scale * centroid[0]],
        [0.0, scale, -scale * centroid[1]],
        [0.0, 0.0, 1.0],
    ])


def estimate_homography(src: np.ndarray, dst: np.ndarray) -> Homography:
    """Direct linear transform from >= 4 RGB-to-depth pixel correspondences.

    Coordinates are conditioned before solving; the algebraic least-squares
    solution is normalized so h[2][2] = 1. Raises ValueError for fewer than 4
    pairs or a degenerate configuration (duplicate or collinear points).
    """
    s = np.asarray(src, dtype=float).reshape(-1, 2)
    d = np.asarray(dst, dtype=float).reshape(-1, 2)
    if len(s) != len(d):
        raise ValueError("source and target correspondence counts differ")
    if len(s) < 4:
        raise ValueError("homography estimation needs at least 4 correspondences")

    ts = _normalizing_transform(s)
    td = _normalizing_transform(d)
    sn = np.column_stack([s, np.ones(len(s))]) @ ts.T
    dn = np.column_stack([d, np.ones(len(d))]) @ td.T

    a = np.zeros((2 * len(s), 9))
    x, y = sn[:, 0], sn[:, 1]
    u, v = dn[:, 0], dn[:, 1]
    a[0::2, 0] = -x
    a[0::2, 1] = -y
    a[0::2, 2] = -1.0
    a[0::2, 6] = u * x
    a[0::2, 7] = u * y
    a[0::2, 8] = u
    a[1::2, 3] = -x
    a[1::2, 4] = -y
    a[1::2, 5] = -1.0
    a[1::2, 6] = v * x
    a[1::2, 7] = v * y
    a[1::2, 8] = v

    _, sv, vt = np.linalg.svd(a)
    if sv[0] < 1e-12 or sv[-2] / sv[0] < 1e-10:
        raise ValueError("degenerate correspondence configuration "
                         "(duplicate or collinear points)")
    h_norm = vt[-1].reshape(3, 3)
    h = np.linalg.inv(td) @ h_norm @ ts
    if abs(h[2, 2]) < 1e-12:
        raise ValueError("degenerate homography (vanishing scale)")
    return Homography(h)


def map_mask_to_cloud(mask: BinaryMask, homography: Homography,
                      cloud: OrganizedCloud) -> MaskedCluster:
    """Collect the valid cloud points under a mask.

    Every set mask bit maps through the homography and rounds to the nearest
    depth-grid cell; out-of-range cells and invalid points are skipped and
    duplicate cells collapse to one point. Raises EmptyClusterError when
    nothing valid remains.
    """
    ys, xs = np.divmod(np.flatnonzero(mask.bits), mask.width)
    if len(xs) == 0:
        raise EmptyClusterError("mask has no set bits")
    mapped = homography._map_homogeneous(_homogeneous(xs, ys))
    u = np.rint(mapped[:, 0]).astype(np.int64)
    v = np.rint(mapped[:, 1]).astype(np.int64)
    inside = (u >= 0) & (u < cloud.width) & (v >= 0) & (v < cloud.height)
    u, v = u[inside], v[inside]
    if len(u) == 0:
        raise EmptyClusterError("mask maps entirely outside the depth grid")
    ok = cloud.valid[v, u]
    # Scatter into a grid-sized bitmap: its set cells come out sorted and unique.
    hit = np.zeros(cloud.height * cloud.width, dtype=bool)
    hit[v[ok] * cloud.width + u[ok]] = True
    cells = np.flatnonzero(hit)
    if len(cells) == 0:
        raise EmptyClusterError("mask covers no valid depth points")
    return MaskedCluster(points=cloud.points.reshape(-1, 3)[cells])
