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
from .errors import ConfigError, EmptyClusterError
from .segmentation import BinaryMask

HOMOGRAPHY_JSON_KEY = "rgb_to_depth_homography"

# Mask pixels mapped per step, so fusion's temporaries stay a few MB at any mask size.
MAP_CHUNK_PX = 65536


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
        return np.column_stack(self._map_columns(pts[:, 0], pts[:, 1]))

    def _map_columns(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Depth-pixel columns u and v of pixel columns x and y: the first two
        rows' affine forms in (x, y), each divided by the third row's."""
        (a, b, c), (d, e, f), (g, k, l) = self.h
        z = g * x + k * y + l
        return (a * x + b * y + c) / z, (d * x + e * y + f) / z

    def to_flat_list(self) -> list[float]:
        return [float(v) for v in self.h.reshape(9)]


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

    Every mask pixel maps through the homography and rounds to the nearest
    depth-grid cell; out-of-range cells are skipped. Pixels go MAP_CHUNK_PX at
    a time and mark their cells in a grid-sized bitmap, which is intersected
    with the cloud's validity once, so duplicate cells collapse and the set
    cells come out sorted and unique. Raises EmptyClusterError when nothing
    valid remains, and ConfigError when the homography's denominator is zero
    at a corner of the mask's frame or changes sign between two: it is affine
    in (x, y), so the corners bound it, and a frame it does not keep to one
    side of the line at infinity maps partly to no cell or to wrong ones.
    """
    rows, cols = mask.shape
    g, k, l = homography.h[2]
    z = g * np.array([0, cols - 1, 0, cols - 1]) + k * np.array([0, 0, rows - 1, rows - 1]) + l
    if not ((z > 0).all() or (z < 0).all()):
        raise ConfigError(f"calibration denominator is {', '.join(f'{v:.6g}' for v in z)} at "
                          f"the corners of the {cols}x{rows} mask frame, not of one sign")
    hit = np.zeros(cloud.height * cloud.width, dtype=bool)
    for start in range(0, len(mask.indices), MAP_CHUNK_PX):
        ys, xs = np.divmod(mask.indices[start:start + MAP_CHUNK_PX], mask.width)
        u, v = homography._map_columns(xs, ys)
        np.rint(u, out=u)
        np.rint(v, out=v)
        inside = (u >= 0) & (u < cloud.width) & (v >= 0) & (v < cloud.height)
        hit[(v[inside] * cloud.width + u[inside]).astype(np.intp)] = True
    hit &= cloud.valid.reshape(-1)
    return MaskedCluster(points=cloud.points.reshape(-1, 3)[np.flatnonzero(hit)])
