"""Per-cluster iterative RANSAC plane segmentation and merging of coplanar fragments.

Each cluster is mined repeatedly for its best consensus plane; accepted planes
have their inliers removed before the next round, so multi-face clusters split
into one plane per face. Fragments of one physical surface that arrive from
different clusters are then grouped by normal agreement plus an overlap check
and refit as a single plane, leaving one unique plane per surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PlaneModel, normalize_plane, plane_signed_distances

DEFAULT_RANSAC_ITERATIONS = 200
DEFAULT_RANSAC_DIST_THRESH = 0.005
DEFAULT_MIN_OBJECT_SIZE = 30
DEFAULT_MERGE_ANGLE_TOL_DEG = 5.0
DEFAULT_CENTROID_THRESH = 0.05
DEFAULT_PERP_THRESH = 0.005

# Convergence guard: refinding the previously accepted model means no progress.
_SAME_MODEL_ANGLE_DEG = 0.5
# Hard caps so a cluster that keeps rejecting fits cannot loop forever.
MAX_PLANES_PER_CLUSTER = 10
_MAX_FIT_ATTEMPTS = 25


@dataclass
class SegmentedPlane:
    """A fitted plane with its inlier points."""

    points: np.ndarray
    model: PlaneModel

    @property
    def centroid(self) -> np.ndarray:
        return self.points.mean(axis=0)


def fit_plane_pca(points: np.ndarray) -> PlaneModel:
    """Least-squares plane through a point set (smallest covariance eigenvector)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) < 3:
        raise ValueError("plane fit needs at least 3 points")
    centroid = pts.mean(0)
    rel = pts - centroid
    cov = rel.T @ rel
    _, evecs = np.linalg.eigh(cov)
    normal = evecs[:, 0]
    return normalize_plane([normal[0], normal[1], normal[2], -normal @ centroid])


# Hypotheses drawn and scored at a time, so scoring holds an n x RANSAC_BLOCK
# distance matrix at any iteration count.
RANSAC_BLOCK = 256


def _sample_triples(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` ordered triples of distinct indices in [0, n), each uniform
    over the n(n-1)(n-2) of them: i, j and k are drawn over n, n-1 and n-2
    values, and j and k step past the indices already taken."""
    i, j, k = rng.integers(0, [n, n - 1, n - 2], size=(count, 3)).T
    j += j >= i
    k += k >= np.minimum(i, j)  # the smaller taken index first, then the larger
    k += k >= np.maximum(i, j)
    return np.column_stack([i, j, k])


def ransac_plane(points: np.ndarray, dist_thresh: float = DEFAULT_RANSAC_DIST_THRESH,
                 max_iter: int = DEFAULT_RANSAC_ITERATIONS,
                 seed=0) -> tuple[np.ndarray, PlaneModel]:
    """Best consensus plane over random 3-point hypotheses, then a least-squares
    refit on the winning inliers and re-selection against the refit model.

    Deterministic for a given seed (an int or a numpy Generator); the
    ``max_iter`` hypotheses are uniform triples of distinct points from
    ``_sample_triples``. Raises ValueError when the points are collinear (no
    plane is defined).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(pts)
    if n < 3 or dist_thresh <= 0:
        raise ValueError("need >= 3 points and a positive distance threshold")
    s = np.linalg.svd(pts - pts.mean(0), compute_uv=False)
    if s[1] <= 1e-12 * max(s[0], 1e-300):
        raise ValueError("degenerate input: points are collinear")

    rng = np.random.default_rng(seed)
    best_count = 0
    best_inliers = np.ones(n, dtype=bool)  # kept if every sampled triple is collinear
    for start in range(0, max_iter, RANSAC_BLOCK):
        triples = _sample_triples(rng, n, min(RANSAC_BLOCK, max_iter - start))
        p0 = pts[triples[:, 0]]
        v1 = pts[triples[:, 1]] - p0
        v2 = pts[triples[:, 2]] - p0
        nrm = np.cross(v1, v2)
        mag = np.linalg.norm(nrm, axis=1)
        ok = mag >= 1e-12 * np.maximum(np.linalg.norm(v1, axis=1) * np.linalg.norm(v2, axis=1),
                                       1e-300)
        nrm = nrm[ok] / mag[ok, None]
        # One product scores a block; argmax and the strict test keep the
        # first best, as a sequential scan with a strict improvement test would.
        dist = pts @ nrm.T
        dist -= np.einsum("hi,hi->h", nrm, p0[ok])
        hits = np.abs(dist, out=dist) <= dist_thresh
        counts = hits.sum(0)
        if counts.max(initial=0) > best_count:
            best = int(counts.argmax())
            best_count = counts[best]
            best_inliers = hits[:, best]

    model = fit_plane_pca(pts[best_inliers])
    final = np.abs(plane_signed_distances(model, pts)) <= dist_thresh
    return np.flatnonzero(final), model


def _same_model(a: PlaneModel, b: PlaneModel, dist_thresh: float) -> bool:
    cos_angle = abs(float(a.normal @ b.normal))
    angle_ok = cos_angle >= np.cos(np.radians(_SAME_MODEL_ANGLE_DEG))
    return angle_ok and abs(a.d - b.d) < dist_thresh


def extract_planes_iterative(points: np.ndarray, *,
                             min_cluster_size: int,
                             min_object_size: int = DEFAULT_MIN_OBJECT_SIZE,
                             dist_thresh: float = DEFAULT_RANSAC_DIST_THRESH,
                             max_iter: int = DEFAULT_RANSAC_ITERATIONS,
                             seed=0) -> list[SegmentedPlane]:
    """Repeatedly fit and remove planes from one cluster.

    A fit is accepted when its inlier count reaches min_object_size and its
    plane passes at least dist_thresh from the sensor origin; accepted inliers
    leave the working set. A plane through the origin is seen edge-on, so its
    points are one depth column at an occlusion jump edge, not a visible face.
    The loop ends when fewer than min_cluster_size points remain, when a new
    fit reproduces the previously accepted model (no progress), or at the
    plane/attempt caps.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    rng = np.random.default_rng(seed)
    active = np.arange(len(pts))
    planes: list[SegmentedPlane] = []
    prev_model: PlaneModel | None = None

    attempts = 0
    while (len(active) >= min_cluster_size and len(planes) < MAX_PLANES_PER_CLUSTER
           and attempts < _MAX_FIT_ATTEMPTS):
        attempts += 1
        try:
            inliers, model = ransac_plane(pts[active], dist_thresh, max_iter, rng)
        except ValueError:
            break
        if prev_model is not None and _same_model(model, prev_model, dist_thresh):
            break
        if len(inliers) >= min_object_size and model.d >= dist_thresh:
            planes.append(SegmentedPlane(points=pts[active[inliers]], model=model))
            active = np.delete(active, inliers)
            prev_model = model
    return planes


def check_overlapping(p1: SegmentedPlane, p2: SegmentedPlane,
                      centroid_thresh: float = DEFAULT_CENTROID_THRESH,
                      perp_thresh: float = DEFAULT_PERP_THRESH) -> bool:
    """True when two planes plausibly cover the same surface patch.

    Requires both a small centroid separation (tied to the smallest pickable
    object) and a small perpendicular distance from the second centroid to the
    first plane (tied to depth-sensor measurement noise).
    """
    c1 = p1.centroid
    c2 = p2.centroid
    if np.linalg.norm(c1 - c2) >= centroid_thresh:
        return False
    perp = abs(float(c2 @ p1.model.normal + p1.model.d))
    return perp < perp_thresh


def group_and_merge_planes(planes: list[SegmentedPlane],
                           angle_tol_deg: float = DEFAULT_MERGE_ANGLE_TOL_DEG,
                           centroid_thresh: float = DEFAULT_CENTROID_THRESH,
                           perp_thresh: float = DEFAULT_PERP_THRESH) -> list[SegmentedPlane]:
    """Unique planes after grouping overlapping coplanar fragments, seed order.

    Greedy grouping in input order: each unvisited plane seeds a group and
    absorbs every later plane that is near-parallel (absolute dot within the
    angle tolerance, so sign-flipped duplicates still match) and overlapping
    with the seed. A group of several planes is refit over the union of their
    points; a lone plane passes through as it is.
    """
    cos_tol = np.cos(np.radians(angle_tol_deg))
    visited = [False] * len(planes)
    merged: list[SegmentedPlane] = []
    for m, seed_plane in enumerate(planes):
        if visited[m]:
            continue
        members = [seed_plane]
        for n in range(m + 1, len(planes)):
            if visited[n]:
                continue
            dot = abs(float(seed_plane.model.normal @ planes[n].model.normal))
            if dot >= cos_tol and check_overlapping(seed_plane, planes[n],
                                                    centroid_thresh, perp_thresh):
                visited[n] = True
                members.append(planes[n])
        if len(members) == 1:
            merged.append(seed_plane)
        else:
            union = np.vstack([p.points for p in members])
            merged.append(SegmentedPlane(points=union, model=fit_plane_pca(union)))
    return merged
