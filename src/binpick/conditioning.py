"""Point-cloud conditioning: downsampling, outlier removal, resampling, normals, edge removal.

The chain applied by the pipeline is voxel-grid downsampling, statistical
outlier removal, moving-least-squares resampling, then a two-radius
difference-of-normals filter that strips edge and corner points so plane
fitting only sees flat face interiors.

Per-point computations are pure over a frozen index; results are independent
of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateNeighborhoodError, InsufficientNeighborsError

DEFAULT_SOR_K = 8
DEFAULT_SOR_ALPHA = 1.0
DEFAULT_DON_THRESHOLD = 0.25
DEFAULT_MLS_ORDER = 2

_SENSOR_ORIGIN = np.zeros(3)


class NeighborIndex:
    """Exact k-nearest and radius queries over a fixed point set.

    Backed by a kd-tree; results match brute-force search exactly.
    """

    def __init__(self, points: np.ndarray):
        self.points = np.asarray(points, dtype=float).reshape(-1, 3)
        self._tree = cKDTree(self.points) if len(self.points) else None

    def __len__(self) -> int:
        return len(self.points)

    def k_nearest(self, query, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Distances and indices of the k closest stored points, nearest first."""
        if self._tree is None or k < 1 or k > len(self.points):
            raise ValueError(f"k={k} out of range for {len(self.points)} points")
        d, i = self._tree.query(np.asarray(query, dtype=float), k=k)
        if np.ndim(d) == 0:
            d, i = np.array([d]), np.array([i])
        return np.atleast_1d(d), np.atleast_1d(i)

    def radius(self, query, r: float) -> np.ndarray:
        """Indices of stored points within distance r, ascending index order."""
        if self._tree is None:
            return np.array([], dtype=np.int64)
        idx = self._tree.query_ball_point(np.asarray(query, dtype=float), r=r)
        return np.sort(np.asarray(idx, dtype=np.int64))


@dataclass(frozen=True)
class NormalField:
    """Per-point unit normals at two support radii and their halved difference.

    ``defined`` marks points with a valid normal at both radii; undefined rows
    hold zeros. ``don`` has norm in [0, 1] everywhere it is defined.
    """

    n_small: np.ndarray
    n_large: np.ndarray
    don: np.ndarray
    defined: np.ndarray
    r_small: float
    r_large: float


def voxel_grid_downsample(points: np.ndarray, leaf: float) -> np.ndarray:
    """Replace the points of each occupied leaf-sized cube by their centroid.

    Cubes are anchored at the coordinate origin; output is ordered by voxel key
    (z-major, then y, then x) so results are deterministic.
    """
    if leaf <= 0:
        raise ValueError("leaf size must be positive")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        return pts.copy()
    keys = np.floor(pts / leaf).astype(np.int64)
    # unique(axis=0) sorts rows lexicographically; feed (z, y, x) for z-major order
    _, inverse = np.unique(keys[:, ::-1], axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    n_voxels = int(inverse.max()) + 1
    sums = np.zeros((n_voxels, 3))
    np.add.at(sums, inverse, pts)
    counts = np.bincount(inverse, minlength=n_voxels).astype(float)
    return sums / counts[:, None]


def statistical_outlier_removal(points: np.ndarray, k: int = DEFAULT_SOR_K,
                                alpha: float = DEFAULT_SOR_ALPHA) -> np.ndarray:
    """Drop points whose mean distance to their k nearest neighbors is above
    the global mean plus alpha standard deviations. Points exactly at the
    threshold are kept."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(pts) <= k:
        raise ValueError(f"need more than k={k} points, got {len(pts)}")
    tree = cKDTree(pts)
    d, _ = tree.query(pts, k=k + 1)
    mean_d = d[:, 1:].mean(axis=1)
    thresh = mean_d.mean() + alpha * mean_d.std()
    return pts[mean_d <= thresh]


def _polynomial_design(u: np.ndarray, v: np.ndarray, order: int) -> np.ndarray:
    cols = [np.ones_like(u), u, v]
    if order == 2:
        cols += [u * u, u * v, v * v]
    return np.stack(cols, axis=-1)


def _padded_neighborhoods(tree: cKDTree, points: np.ndarray, radius: float,
                          min_count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radius neighborhoods holding at least min_count points, padded to a block.

    Returns (rows, index, present): the indices of the points whose
    neighborhood qualifies, an (m, kmax) array of their neighbor indices in
    ascending order, and an (m, kmax) mask of the slots that hold a neighbor
    (padding slots hold index 0).
    """
    neighborhoods = tree.query_ball_point(points, r=radius)
    counts = np.fromiter(map(len, neighborhoods), dtype=np.int64,
                         count=len(neighborhoods))
    rows = np.flatnonzero(counts >= min_count)
    present = np.arange(counts[rows].max(initial=0)) < counts[rows, None]
    index = np.zeros(present.shape, dtype=np.int64)
    index[present] = np.fromiter(chain.from_iterable(neighborhoods[rows]),
                                 dtype=np.int64, count=int(counts[rows].sum()))
    return rows, index, present


def mls_resample(points: np.ndarray, radius: float,
                 order: int = DEFAULT_MLS_ORDER) -> np.ndarray:
    """Project each point onto a local weighted polynomial fit of its neighborhood.

    Weights are Gaussian with bandwidth radius/2. Points with fewer than
    (order+1)(order+2)/2 in-radius neighbors (the point itself included) pass
    through unchanged. The projection reproduces any surface the polynomial can
    represent exactly, so planar inputs are left on their plane.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(pts)
    if n == 0:
        return pts.copy()
    min_neighbors = (order + 1) * (order + 2) // 2

    act_idx, nbr_idx, present = _padded_neighborhoods(cKDTree(pts), pts, radius,
                                                      min_neighbors)
    if len(act_idx) == 0:
        return pts.copy()

    nbr = pts[nbr_idx]                                   # (m, k, 3)
    d2 = ((nbr - pts[act_idx, None, :]) ** 2).sum(-1)
    sigma = radius / 2.0
    w = np.exp(-d2 / (2.0 * sigma * sigma)) * present    # (m, k)

    wsum = w.sum(1, keepdims=True)
    centroid = (nbr * w[..., None]).sum(1) / wsum        # (m, 3)
    rel = (nbr - centroid[:, None, :]) * present[..., None]
    cov = np.einsum("mki,mk,mkj->mij", rel, w, rel)
    _, evecs = np.linalg.eigh(cov)
    normal = evecs[..., 0]
    e_u = evecs[..., 2]
    e_v = evecs[..., 1]

    u = np.einsum("mki,mi->mk", rel, e_u) / radius
    v = np.einsum("mki,mi->mk", rel, e_v) / radius
    hgt = np.einsum("mki,mi->mk", rel, normal)

    design = _polynomial_design(u, v, order)             # (m, k, terms)
    sw = np.sqrt(w)
    b = design * sw[..., None]
    rhs = hgt * sw
    coeff = np.einsum("mtk,mk->mt", np.linalg.pinv(b), rhs)

    rel_p = pts[act_idx] - centroid
    up = np.einsum("mi,mi->m", rel_p, e_u) / radius
    vp = np.einsum("mi,mi->m", rel_p, e_v) / radius
    terms = _polynomial_design(up, vp, order)
    fit_h = np.einsum("mt,mt->m", terms, coeff)

    out = pts.copy()
    out[act_idx] = (centroid
                    + up[:, None] * radius * e_u
                    + vp[:, None] * radius * e_v
                    + fit_h[:, None] * normal)
    return out


def _pca_normal(neighborhood: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest-eigenvector normal of a neighborhood; returns (normal, eigenvalues)."""
    centroid = neighborhood.mean(0)
    rel = neighborhood - centroid
    cov = rel.T @ rel / len(neighborhood)
    evals, evecs = np.linalg.eigh(cov)
    return evecs[:, 0], evals


def estimate_normal(points: np.ndarray, index: NeighborIndex, p,
                    radius: float, viewpoint=_SENSOR_ORIGIN) -> np.ndarray:
    """Unit surface normal at p from the PCA of its radius neighborhood,
    oriented to point toward the viewpoint (the sensor origin by default)."""
    p = np.asarray(p, dtype=float).reshape(3)
    nbr_idx = index.radius(p, radius)
    if len(nbr_idx) < 3:
        raise InsufficientNeighborsError(
            f"normal estimation needs >= 3 neighbors within {radius}, got {len(nbr_idx)}")
    normal, evals = _pca_normal(index.points[nbr_idx])
    if evals[2] <= 0 or evals[1] <= 1e-9 * evals[2]:
        raise DegenerateNeighborhoodError("neighborhood is collinear or coincident")
    view = np.asarray(viewpoint, dtype=float).reshape(3)
    if normal @ (view - p) < 0:
        normal = -normal
    return normal


def _batched_normals(points: np.ndarray, tree: cKDTree, radius: float,
                     viewpoint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized radius-PCA normals for every point; returns (normals, defined)."""
    n = len(points)
    normals = np.zeros((n, 3))
    candidates, nbr_idx, present = _padded_neighborhoods(tree, points, radius, 3)
    defined = np.zeros(n, dtype=bool)
    if len(candidates) == 0:
        return normals, defined

    nbr = points[nbr_idx]
    cnt = present.sum(1).astype(float)
    centroid = (nbr * present[..., None]).sum(1) / cnt[:, None]
    rel = (nbr - centroid[:, None, :]) * present[..., None]
    cov = np.einsum("mki,mkj->mij", rel, rel) / cnt[:, None, None]
    evals, evecs = np.linalg.eigh(cov)
    ok = (evals[:, 2] > 0) & (evals[:, 1] > 1e-9 * evals[:, 2])

    nrm = evecs[..., 0]
    flip = np.einsum("mi,mi->m", nrm, viewpoint[None, :] - points[candidates]) < 0
    nrm[flip] = -nrm[flip]

    normals[candidates[ok]] = nrm[ok]
    defined[candidates[ok]] = True
    return normals, defined


def compute_normal_field(points: np.ndarray, r_small: float, r_large: float,
                         viewpoint=_SENSOR_ORIGIN) -> NormalField:
    """Normals at both support radii plus their halved difference per point.

    Both normals are oriented toward the viewpoint before differencing so the
    difference norm reflects geometry, not sign ambiguity.
    """
    if not 0 < r_small < r_large:
        raise ValueError("radii must satisfy 0 < r_small < r_large")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    view = np.asarray(viewpoint, dtype=float).reshape(3)
    tree = cKDTree(pts)
    n_s, def_s = _batched_normals(pts, tree, r_small, view)
    n_l, def_l = _batched_normals(pts, tree, r_large, view)
    defined = def_s & def_l
    don = np.zeros_like(n_s)
    don[defined] = (n_s[defined] - n_l[defined]) / 2.0
    return NormalField(n_small=n_s, n_large=n_l, don=don, defined=defined,
                       r_small=r_small, r_large=r_large)


def don_filter(points: np.ndarray, r_small: float, r_large: float,
               threshold: float = DEFAULT_DON_THRESHOLD,
               viewpoint=_SENSOR_ORIGIN) -> np.ndarray:
    """Keep points whose difference-of-normals norm is below the threshold.

    Points without a defined normal at either radius are dropped; on flat
    interiors both normals agree and the norm is near zero, while edge and
    corner points see different normals at the two scales and exceed it.
    """
    field = compute_normal_field(points, r_small, r_large, viewpoint)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    norms = np.linalg.norm(field.don, axis=1)
    keep = field.defined & (norms < threshold)
    return pts[keep]
