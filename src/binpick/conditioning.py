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

from .core import knn_distances
from .errors import ConfigError

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

DEFAULT_SOR_K = 8
DEFAULT_SOR_ALPHA = 1.0
DEFAULT_DON_THRESHOLD = 0.25


@dataclass(frozen=True)
class NormalField:
    """Per-point unit normals at two support radii and their halved difference.

    ``n_large`` takes the sign that agrees with ``n_small``, so the norm of
    ``don`` does not depend on either sign. ``defined`` marks points with a
    valid normal at both radii; undefined rows hold zeros. ``don`` has norm in
    [0, 1] everywhere it is defined.
    """

    n_small: np.ndarray
    n_large: np.ndarray
    don: np.ndarray
    defined: np.ndarray


def voxel_grid_downsample(points: np.ndarray, leaf: float) -> np.ndarray:
    """Replace the points of each occupied leaf-sized cube by their centroid.

    Cubes are anchored at the coordinate origin; output is ordered by voxel key
    (z-major, then y, then x) so results are deterministic. A leaf so small
    that a coordinate over it overflows is a ConfigError.
    """
    if leaf <= 0:
        raise ValueError("leaf size must be positive")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        return pts.copy()
    # float keys: an int64 cast would wrap once pts / leaf passes 2**63
    with np.errstate(over="ignore"):
        keys = np.floor(pts / leaf)
    if not np.isfinite(keys).all():
        raise ConfigError(f"voxel leaf {leaf!r} m overflows coordinates up to "
                          f"{np.abs(pts).max():g} m")
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
    mean_d = knn_distances(pts, k).mean(axis=1)
    thresh = mean_d.mean() + alpha * mean_d.std()
    return pts[mean_d <= thresh]


# Powers of the local coordinates u and v in each term of the quadratic
# height polynomial: 1, u, v, u^2, uv, v^2.
_POW_U, _POW_V = np.array([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]).T

# A symmetric 3x3 matrix is stored component-major as its six distinct
# entries (6, n), in this (row, column) order; _SYM_INDEX rebuilds the full
# (3, 3, n) matrices.
_SYM_ENTRIES = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_SYM_INDEX = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
# The adjugate of such a matrix, each entry a 2x2 minor x[i]x[j] - x[k]x[l]
# over the six entries: rows (i, j, k, l), columns in _SYM_ENTRIES order.
_ADJUGATE_TERMS = np.array([[1, 0, 0, 4, 3, 3],
                            [2, 2, 1, 5, 5, 4],
                            [5, 4, 3, 3, 4, 0],
                            [5, 4, 3, 2, 1, 5]])
# A normal is defined where lambda2 > 0 and lambda1 > _FLAT_RATIO * lambda2.
_FLAT_RATIO = 1e-9
# In units of a matrix's largest entry, it goes to LAPACK when lambda2 or
# lambda1 - _FLAT_RATIO * lambda2 lies within _EIGEN_MARGIN of 0, or when its
# longest adjugate row has a squared length of at most _SHORT_ROW.
_EIGEN_MARGIN = 2.0 ** -40
_SHORT_ROW = 2.0 ** -80
# A Cholesky pivot at most this fraction of the largest Gram diagonal entry
# sends the system to the rank-truncating pseudo-inverse.
_MIN_PIVOT = 2.0 ** -30


def _radius_pairs(tree: cKDTree, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Unordered pairs (i < j) of points within radius of each other, and each
    point's neighborhood size with the point itself counted."""
    pairs = tree.query_pairs(radius, output_type="ndarray")
    return pairs, np.bincount(pairs.ravel(), minlength=tree.n) + 1


def _local_moments(first: np.ndarray, second: np.ndarray, offsets: np.ndarray, n: int,
                   weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean (3, n) and covariance (6, n) of every point's radius
    neighborhood, as offsets from the point itself.

    offsets[:, k] is x_j - x_i for pair k = (first[k], second[k]) = (i, j):
    point i sees +offset and point j sees -offset, so first moments change
    sign at the second endpoint and second moments do not. The point itself
    has offset 0 and weight 1; weights default to 1 for every pair.
    """
    def scatter(values, sign=1):
        return np.bincount(first, values, n) + sign * np.bincount(second, values, n)

    total = 1.0 + scatter(weights)
    wd = offsets if weights is None else offsets * weights
    mean = np.stack([scatter(wd[c], -1) for c in range(3)]) / total
    cov = np.stack([scatter(wd[r] * offsets[c]) / total - mean[r] * mean[c]
                    for r, c in _SYM_ENTRIES])
    return mean, cov


def _eigh3(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (3, n) and unit eigenvectors (3, 3, n), vector
    first, of the symmetric matrices whose distinct entries sym (6, n) holds.

    Each matrix is scaled by a power of two so its largest entry lies in
    [0.5, 1). Smith's trigonometric formula (CACM 1961) gives the eigenvalues;
    the one farther from the middle one is isolated, and its eigenvector (the
    anchor) is the longest row of the adjugate of the matrix shifted by it, a
    cross product of two of its rows. One plane rotation diagonalises the
    matrix on the anchor's orthogonal complement, which gives the other two
    eigenpairs accurately even where their eigenvalues nearly coincide; the
    anchor's eigenvalue is its Rayleigh quotient. As in Kopp's hybrid
    (arXiv:physics/0610206), a row goes to np.linalg.eigh when its adjugate
    row is too short (nearly a multiple of the identity, or not finite), or
    when lambda2 > 0 or lambda1 > _FLAT_RATIO * lambda2 is within rounding of
    deciding, so those tests read as eigh's would.
    """
    scale = np.abs(sym).max(axis=0)
    finite = np.isfinite(scale)
    _, exponent = np.frexp(np.where(finite, scale, 0.0))
    b = np.ldexp(np.where(finite, sym, 0.0), -exponent)
    b00, b11, b22, b01, b02, b12 = b

    mid = (b00 + b11 + b22) / 3.0
    d0, d1, d2 = b00 - mid, b11 - mid, b22 - mid
    p2 = (d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (b01 * b01 + b02 * b02 + b12 * b12)) / 6.0
    p = np.sqrt(p2)
    half_det = (d0 * (d1 * d2 - b12 * b12) - b01 * (b01 * d2 - b12 * b02)
                + b02 * (b01 * b12 - d1 * b02)) / 2.0
    cos3 = np.clip(half_det / np.where(p2 > 0, p2 * p, 1.0), -1.0, 1.0)
    # cos3 <= 0: the smallest eigenvalue is the isolated one, else the largest
    low = cos3 <= 0
    phi = np.arccos(cos3) / 3.0 + np.where(low, 2.0 * np.pi / 3.0, 0.0)
    shifted = b.copy()
    shifted[:3] -= mid + 2.0 * p * np.cos(phi)

    minors = shifted[_ADJUGATE_TERMS]
    adj = (minors[0] * minors[1] - minors[2] * minors[3])[_SYM_INDEX]
    lengths = (adj * adj).sum(axis=1)
    pick = lengths.argmax(axis=0)[None]
    length = np.take_along_axis(lengths, pick, axis=0)[0]
    short = ~(length > _SHORT_ROW)
    anchor = np.take_along_axis(adj, pick[None], axis=0)[0] / np.sqrt(
        np.where(short, 1.0, length))

    # An orthonormal basis (anchor, e1, e2) (Duff et al., JCGT 2017) and the
    # matrix in it; the 2x2 block on e1, e2 is diagonalised by one rotation.
    x, y, z = anchor
    sign = np.where(z < 0, -1.0, 1.0)
    a = -1.0 / (sign + z)
    xy = x * y * a
    basis = np.stack([anchor, [1.0 + sign * x * x * a, sign * xy, -sign * x],
                      [xy, sign + y * y * a, -y]])
    full = b[_SYM_INDEX]
    rotated = (full[None] * basis[:, None]).sum(axis=2)           # A e_k
    quad = (basis[:, None] * rotated[None]).sum(axis=2)          # e_j . A e_k
    mean2 = (quad[1, 1] + quad[2, 2]) / 2.0
    radius2 = np.hypot((quad[1, 1] - quad[2, 2]) / 2.0, quad[1, 2])
    theta = np.arctan2(quad[1, 2], (quad[1, 1] - quad[2, 2]) / 2.0) / 2.0
    c, s = np.cos(theta), np.sin(theta)
    upper = c * basis[1] + s * basis[2]
    lower = c * basis[2] - s * basis[1]
    evals = np.where(low, [quad[0, 0], mean2 - radius2, mean2 + radius2],
                     [mean2 - radius2, mean2 + radius2, quad[0, 0]])
    evecs = np.where(low, np.stack([anchor, lower, upper]),
                     np.stack([lower, upper, anchor]))

    near = ((np.abs(evals[2]) <= _EIGEN_MARGIN)
            | (np.abs(evals[1] - _FLAT_RATIO * evals[2]) <= _EIGEN_MARGIN))
    evals = np.ldexp(evals, exponent)
    fallback = np.flatnonzero(short | near | ~finite)
    if len(fallback):
        w, v = np.linalg.eigh(sym[:, fallback][_SYM_INDEX].transpose(2, 0, 1))
        evals[:, fallback] = w.T
        evecs[..., fallback] = v.transpose(2, 1, 0)
    return evals, evecs


def _solve_gram(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve every symmetric positive semi-definite system gram[..., i] x =
    rhs[:, i] (gram (k, k, n), rhs (k, n)) by one Cholesky factorisation
    written over the stack.

    A system with a pivot at most _MIN_PIVOT of its largest diagonal entry is
    collinear, duplicated or otherwise near rank-deficient; it goes to
    np.linalg.pinv(hermitian=True), which truncates the rank.
    """
    k = len(gram)
    floor = _MIN_PIVOT * gram[np.arange(k), np.arange(k)].max(axis=0)
    low = np.zeros_like(gram)
    small = np.zeros(gram.shape[2], dtype=bool)
    for j in range(k):
        pivot = gram[j, j] - (low[j, :j] * low[j, :j]).sum(axis=0)
        small |= ~(pivot > floor)
        low[j, j] = np.sqrt(np.maximum(pivot, floor))
        low[j + 1:, j] = (gram[j + 1:, j] - (low[j + 1:, :j] * low[j, :j]).sum(axis=1)) / low[j, j]
    x = np.empty_like(rhs)
    for j in range(k):
        x[j] = (rhs[j] - (low[j, :j] * x[:j]).sum(axis=0)) / low[j, j]
    for j in range(k - 1, -1, -1):
        x[j] = (x[j] - (low[j + 1:, j] * x[j + 1:]).sum(axis=0)) / low[j, j]
    fallback = np.flatnonzero(small)
    if len(fallback):
        # row-major (m, k, k) and (m, k) stacks: einsum's sums depend on the layout
        inverse = np.linalg.pinv(gram[..., fallback].transpose(2, 0, 1), hermitian=True)
        x[:, fallback] = np.einsum("mst,mt->ms", inverse,
                                   np.ascontiguousarray(rhs[:, fallback].T)).T
    return x


def mls_resample(points: np.ndarray, radius: float) -> np.ndarray:
    """Project each point onto a local weighted quadratic fit of its neighborhood.

    Weights are Gaussian with bandwidth radius/2. Points with fewer than six
    in-radius neighbors (the point itself included) pass through unchanged.
    The projection reproduces any quadratic height field exactly, so planar
    inputs are left on their plane.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(pts)
    from scipy.spatial import cKDTree

    pairs, counts = _radius_pairs(cKDTree(pts), radius)
    act = np.flatnonzero(counts >= len(_POW_U))
    if len(act) == 0:
        return pts.copy()

    first, second = pairs.T.copy()
    coords = np.ascontiguousarray(pts.T)
    offsets = coords.take(second, axis=1) - coords.take(first, axis=1)
    sigma = radius / 2.0
    w = np.exp(-(offsets ** 2).sum(0) / (2.0 * sigma * sigma))
    mean, cov = _local_moments(first, second, offsets, n, w)
    evecs = np.zeros((3, 3, n))                           # normal, e_v, e_u
    evecs[..., act] = _eigh3(cov[:, act])[1]

    # every directed (owner, member) pair, then each point as its own member,
    # in the owner's frame: (h, v, u) rows
    owner = np.concatenate([first, second, np.arange(n)])
    rel = np.concatenate([offsets, -offsets, np.zeros((3, n))], axis=1) - mean.take(owner, axis=1)
    hgt, v, u = ((rel * evecs[k].take(owner, axis=1)).sum(0) for k in range(3))
    v /= radius
    u /= radius

    # per-point sums of w u^p v^q (p + q <= 4) fill the 6x6 Gram matrix of the
    # weighted design, and sums of w h u^p v^q (p + q <= 2) its right-hand side
    moments = np.zeros((5, 5, n))
    rhs_moments = np.zeros((3, 3, n))
    w_up = np.concatenate([w, w, np.ones(n)])
    for p in range(5):
        term = w_up.copy()
        for q in range(5 - p):
            moments[p, q] = np.bincount(owner, term, n)
            if p + q <= 2:
                rhs_moments[p, q] = np.bincount(owner, term * hgt, n)
            term *= v
        w_up *= u
    gram = moments[_POW_U[:, None] + _POW_U, _POW_V[:, None] + _POW_V]
    rhs = rhs_moments[_POW_U, _POW_V]
    coeff = _solve_gram(gram[..., act], rhs[:, act])

    up, vp = u[-n:][act], v[-n:][act]                    # the point in its own frame
    fit_h = (coeff * up ** _POW_U[:, None] * vp ** _POW_V[:, None]).sum(0)
    e = evecs[..., act]
    out = pts.copy()
    out[act] = (coords[:, act] + mean[:, act]
                + up * radius * e[2]
                + vp * radius * e[1]
                + fit_h * e[0]).T
    return out


def _batched_normals(points: np.ndarray, tree: cKDTree,
                     radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Radius-PCA normals, of either sign, for every point; returns (normals, defined)."""
    pairs, counts = _radius_pairs(tree, radius)
    first, second = pairs.T.copy()
    coords = np.ascontiguousarray(points.T)
    _, cov = _local_moments(first, second,
                            coords.take(second, axis=1) - coords.take(first, axis=1), len(points))
    rows = np.flatnonzero(counts >= 3)
    evals, evecs = _eigh3(cov[:, rows])
    ok = (evals[2] > 0) & (evals[1] > _FLAT_RATIO * evals[2])
    rows = rows[ok]

    normals = np.zeros((len(points), 3))
    normals[rows] = evecs[0][:, ok].T
    defined = np.zeros(len(points), dtype=bool)
    defined[rows] = True
    return normals, defined


def compute_normal_field(points: np.ndarray, r_small: float, r_large: float) -> NormalField:
    """Normals at both support radii plus their halved difference per point.

    The large-radius normal takes the sign that agrees with the small-radius
    one, so the difference norm reflects geometry, not the sign either
    eigenvector came with.
    """
    if not 0 < r_small < r_large:
        raise ValueError("radii must satisfy 0 < r_small < r_large")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
    n_s, def_s = _batched_normals(pts, tree, r_small)
    n_l, def_l = _batched_normals(pts, tree, r_large)
    n_l[np.einsum("mi,mi->m", n_s, n_l) < 0] *= -1.0
    defined = def_s & def_l
    don = np.zeros_like(n_s)
    don[defined] = (n_s[defined] - n_l[defined]) / 2.0
    return NormalField(n_small=n_s, n_large=n_l, don=don, defined=defined)


def don_filter(points: np.ndarray, r_small: float, r_large: float,
               threshold: float = DEFAULT_DON_THRESHOLD) -> np.ndarray:
    """Keep points whose difference-of-normals norm is below the threshold.

    Points without a defined normal at either radius are dropped; on flat
    interiors both normals agree and the norm is near zero, while edge and
    corner points see different normals at the two scales and exceed it.
    """
    field = compute_normal_field(points, r_small, r_large)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    norms = np.linalg.norm(field.don, axis=1)
    keep = field.defined & (norms < threshold)
    return pts[keep]
