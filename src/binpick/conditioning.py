"""Point-cloud conditioning: downsampling, outlier removal, resampling, normals, edge removal.

The chain applied by the pipeline is voxel-grid downsampling, statistical
outlier removal, moving-least-squares resampling, then a two-radius
difference-of-normals filter that strips edge and corner points so plane
fitting only sees flat face interiors.

Per-point computations read one kd-tree over their input; sums run in kd-tree
pair order, deterministic for a given input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

DEFAULT_SOR_K = 8
DEFAULT_SOR_ALPHA = 1.0
DEFAULT_DON_THRESHOLD = 0.25
DEFAULT_MLS_ORDER = 2

_SENSOR_ORIGIN = np.zeros(3)


@dataclass(frozen=True)
class NormalField:
    """Per-point unit normals at two support radii and their halved difference.

    ``n_small`` faces the viewpoint and ``n_large`` takes the sign that agrees
    with ``n_small``. ``defined`` marks points with a valid normal at both
    radii; undefined rows hold zeros. ``don`` has norm in [0, 1] everywhere it
    is defined.
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
    # float keys: an int64 cast would wrap once pts / leaf passes 2**63
    keys = np.floor(pts / leaf)
    order = np.lexsort(keys.T)  # last key (z) is the primary one
    ordered = keys[order]
    starts = np.ones(len(pts), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(pts), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    # bincount adds each voxel's points in input order, so no sum depends on the sort
    counts = np.bincount(inverse).astype(float)
    sums = np.column_stack([np.bincount(inverse, weights=pts[:, c]) for c in range(3)])
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
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
    d, _ = tree.query(pts, k=k + 1)
    mean_d = d[:, 1:].mean(axis=1)
    thresh = mean_d.mean() + alpha * mean_d.std()
    return pts[mean_d <= thresh]


# Powers (p, q) of the local coordinates (u, v) in each term of the height
# polynomial: 1, u, v, then u^2, uv, v^2 for order 2.
_DESIGN_EXPONENTS = np.array([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])


def _radius_pairs(tree: cKDTree, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Unordered pairs (i < j) of points within radius of each other, and each
    point's neighborhood size with the point itself counted."""
    pairs = tree.query_pairs(radius, output_type="ndarray")
    return pairs, np.bincount(pairs.ravel(), minlength=tree.n) + 1


def _local_moments(pairs: np.ndarray, offsets: np.ndarray, n: int,
                   weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean and covariance of every point's radius neighborhood, as
    offsets from the point itself.

    offsets[k] is x_j - x_i for pair k = (i, j): point i sees +offset and
    point j sees -offset, so first moments change sign at the second endpoint
    and second moments do not. The point itself has offset 0 and weight 1;
    weights default to 1 for every pair.
    """
    first, second = pairs[:, 0], pairs[:, 1]

    def scatter(values, sign=1):
        return np.bincount(first, values, n) + sign * np.bincount(second, values, n)

    total = 1.0 + scatter(weights)
    wd = offsets if weights is None else offsets * weights[:, None]
    mean = np.stack([scatter(wd[:, c], -1) for c in range(3)], axis=1) / total[:, None]
    cov = np.empty((n, 3, 3))
    for r, c in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        cov[:, r, c] = cov[:, c, r] = (scatter(wd[:, r] * offsets[:, c]) / total
                                       - mean[:, r] * mean[:, c])
    return mean, cov


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
    exps = _DESIGN_EXPONENTS[:(order + 1) * (order + 2) // 2]
    from scipy.spatial import cKDTree

    pairs, counts = _radius_pairs(cKDTree(pts), radius)
    act = counts >= len(exps)
    if not act.any():
        return pts.copy()

    offsets = pts[pairs[:, 1]] - pts[pairs[:, 0]]
    sigma = radius / 2.0
    w = np.exp(-(offsets ** 2).sum(1) / (2.0 * sigma * sigma))
    mean, cov = _local_moments(pairs, offsets, n, w)
    _, evecs = np.linalg.eigh(cov)                       # normal, e_v, e_u

    # every directed (owner, member) pair, then each point as its own member
    owner = np.concatenate([pairs[:, 0], pairs[:, 1], np.arange(n)])
    rel = np.concatenate([offsets, -offsets, np.zeros((n, 3))]) - mean[owner]
    hvu = np.einsum("ki,kij->kj", rel, evecs[owner])
    hgt, v, u = hvu[:, 0], hvu[:, 1] / radius, hvu[:, 2] / radius

    # per-point sums of w u^p v^q fill the Gram matrix of the weighted design,
    # and sums of w h u^p v^q its right-hand side
    deg = 2 * order
    moments = np.zeros((n, deg + 1, deg + 1))
    rhs_moments = np.zeros((n, order + 1, order + 1))
    w_up = np.concatenate([w, w, np.ones(n)])
    for p in range(deg + 1):
        term = w_up.copy()
        for q in range(deg + 1 - p):
            moments[:, p, q] = np.bincount(owner, term, n)
            if p + q <= order:
                rhs_moments[:, p, q] = np.bincount(owner, term * hgt, n)
            term *= v
        w_up *= u
    gram = moments[:, exps[:, 0, None] + exps[:, 0], exps[:, 1, None] + exps[:, 1]]
    rhs = rhs_moments[:, exps[:, 0], exps[:, 1]]
    # hermitian pinv keeps the rank truncation that collinear and duplicate
    # neighborhoods need; a plain solve fails or amplifies noise on them
    coeff = np.einsum("mst,mt->ms", np.linalg.pinv(gram, hermitian=True), rhs)

    up, vp = u[-n:], v[-n:]                              # the point in its own frame
    fit_h = (coeff * up[:, None] ** exps[:, 0] * vp[:, None] ** exps[:, 1]).sum(1)
    out = pts.copy()
    out[act] = (pts + mean
                + up[:, None] * radius * evecs[..., 2]
                + vp[:, None] * radius * evecs[..., 1]
                + fit_h[:, None] * evecs[..., 0])[act]
    return out


def _batched_normals(points: np.ndarray, tree: cKDTree, radius: float,
                     viewpoint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized radius-PCA normals for every point; returns (normals, defined)."""
    pairs, counts = _radius_pairs(tree, radius)
    _, cov = _local_moments(pairs, points[pairs[:, 1]] - points[pairs[:, 0]], len(points))
    evals, evecs = np.linalg.eigh(cov)
    defined = (counts >= 3) & (evals[:, 2] > 0) & (evals[:, 1] > 1e-9 * evals[:, 2])

    nrm = evecs[..., 0]
    flip = np.einsum("mi,mi->m", nrm, viewpoint[None, :] - points) < 0
    nrm[flip] = -nrm[flip]
    nrm[~defined] = 0.0
    return nrm, defined


def compute_normal_field(points: np.ndarray, r_small: float, r_large: float,
                         viewpoint=_SENSOR_ORIGIN) -> NormalField:
    """Normals at both support radii plus their halved difference per point.

    The small-radius normal is oriented toward the viewpoint and the
    large-radius normal takes the sign that agrees with it, so the difference
    norm reflects geometry, not sign ambiguity. A surface seen edge-on, whose
    normals are nearly perpendicular to the view ray, keeps its norms when the
    viewpoint moves.
    """
    if not 0 < r_small < r_large:
        raise ValueError("radii must satisfy 0 < r_small < r_large")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    view = np.asarray(viewpoint, dtype=float).reshape(3)
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
    n_s, def_s = _batched_normals(pts, tree, r_small, view)
    n_l, def_l = _batched_normals(pts, tree, r_large, view)
    n_l[np.einsum("mi,mi->m", n_s, n_l) < 0] *= -1.0
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
