"""Density-based clustering used to separate objects before plane fitting.

Hierarchical DBSCAN over mutual-reachability distances: each point's core
distance (k-th nearest neighbor) inflates pairwise distances, the order in
which Prim's algorithm visits the resulting graph, with each vertex's joining
weight, is condensed by minimum cluster size, and maximally stable clusters
are selected bottom-up. Two parallel faces at different heights land in
different clusters, so a single plane is never fit across separated surfaces.

Everything is deterministic for a given point order: Prim's ties break toward
the lowest point index, and equal-weight merges follow Prim's visiting order.
The partition can depend on that order where weights tie.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import knn_distances

DEFAULT_MIN_CLUSTER_SIZE = 30

# Guards against infinite density when duplicate points make distances collapse.
_MIN_DISTANCE = 1e-12


@dataclass(frozen=True)
class ClusterLabels:
    """Per-point labels; -1 is noise, cluster ids are contiguous from 0."""

    labels: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", lab)
        ids = np.unique(lab[lab >= 0])
        if len(ids) and not np.array_equal(ids, np.arange(len(ids))):
            raise ValueError("cluster ids must be contiguous from 0")

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1 if (self.labels >= 0).any() else 0

    def members(self, cluster_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster_id)


@dataclass(frozen=True)
class CondensedTree:
    """The condensed hierarchy as arrays indexed by cluster id.

    Cluster 0 is the root (parent -1), every other cluster is numbered after
    its parent, and each has no children or two. A cluster is born when it
    splits off its parent, at density lambda_birth (lambda = 1/distance).
    ``stability`` sums, over its points, the lambda at which each leaves minus
    lambda_birth. ``label`` is the index in ``selected`` (ascending ids) of
    the selected cluster at or above each cluster, -1 if none.
    """

    parent: np.ndarray
    lambda_birth: np.ndarray
    size: np.ndarray
    stability: np.ndarray
    selected: np.ndarray
    label: np.ndarray
    point_cluster: np.ndarray


def core_distances(points: np.ndarray, k: int) -> np.ndarray:
    """Distance from each point to its k-th nearest neighbor (self excluded)."""
    return knn_distances(np.asarray(points, dtype=float).reshape(-1, 3), k)[:, -1]


def mutual_reachability_mst(points: np.ndarray, min_samples: int
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Exact MST of the complete mutual-reachability graph, as Prim's visiting
    order and joining weights.

    d_mreach(a, b) = max(core(a), core(b), |a - b|). Prim's algorithm with the
    row of the newly added vertex computed on the fly, over only the vertices
    that can still improve; argmin tie-breaks pick the lowest point index.
    Returns (order (n,), weights (n-1,)): order[0] = 0, order lists the
    vertices as they join the tree, and order[k] joins at weights[k-1].
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(pts)
    all_core = core_distances(pts, min_samples)
    all_coords = np.ascontiguousarray(pts.T)
    # The active vertices, ascending: index, coordinates, core distance and
    # the lightest edge to the tree. A vertex joining from here has its core
    # distance and edge retired to inf, so it never wins or updates again,
    # and once a quarter of the arrays are retired they are compacted.
    live, coords, core = np.arange(n), all_coords, all_core.copy()
    best = np.full(n, np.inf)
    diff_buf, row_buf = np.empty(3 * n), np.empty(n)
    diff, row = diff_buf.reshape(3, n), row_buf
    core[0] = np.inf
    retired = [0]
    # No row can weigh less than a vertex's own core distance, so a vertex
    # whose edge weighs that is settled: compaction moves it to this heap of
    # (weight, vertex), which competes with the active argmin.
    settled = []

    order, weights = np.zeros(n, dtype=np.int64), np.empty(n - 1)
    j = 0
    for k in range(1, n):
        if retired and 4 * len(retired) >= len(live):
            keep = np.ones(len(live), dtype=bool)
            keep[retired] = False
            done = keep & (best == core)
            for entry in zip(best[done].tolist(), live[done].tolist()):
                heapq.heappush(settled, entry)
            keep &= ~done
            live, coords, core, best = live[keep], coords[:, keep], core[keep], best[keep]
            m = len(live)
            diff, row = diff_buf[:3 * m].reshape(3, m), row_buf[:m]
            retired = []
        np.subtract(coords, all_coords[:, j:j + 1], out=diff)
        np.square(diff, out=diff)
        np.add.reduce(diff, axis=0, out=row)
        np.sqrt(row, out=row)
        np.maximum(row, core, out=row)
        np.maximum(row, all_core[j], out=row)
        np.minimum(row, best, out=best)
        at = int(best.argmin()) if len(best) else -1
        if settled and (at < 0 or settled[0] < (best[at], live[at])):
            weights[k - 1], j = heapq.heappop(settled)
        else:
            weights[k - 1], j = best[at], live[at]
            core[at] = best[at] = np.inf
            retired.append(at)
        order[k] = j
    return order, weights


def _condense(order: np.ndarray, weights: np.ndarray, n: int,
              min_cluster_size: int) -> CondensedTree:
    """Condensed tree of clusters of at least min_cluster_size points, from
    Prim's visiting order and joining weights.

    Merges replay in ascending weight, ties in visiting order. Prim visits
    each component of the edges up to any weight in one unbroken stretch of
    its order, so every component is a run of positions, and merge k joins
    the run that ends at position k-1 with the run that starts at k. A small
    run's points fall out of the large run's cluster at the merge density. A
    run that reaches the size opens a cluster, as does the last merge, so
    the root exists at any size. When two large runs merge, their clusters
    end and become the children of the cluster the merge opens.
    """
    merges = np.argsort(weights, kind="stable")
    distances = weights[merges]
    lam = np.where(distances > _MIN_DISTANCE, 1.0 / np.maximum(distances, _MIN_DISTANCE),
                   1.0 / _MIN_DISTANCE).tolist()
    # the other end of the run a position starts or ends; interior entries
    # go stale and are never read again
    other_end = list(range(n))
    comp_cluster = [-1] * n  # the open cluster of a large run, by its start
    pos_cluster = [0] * n  # by position in the order
    pos_lambda = [0.0] * n
    # [children, density and size at the merge that ends it] per cluster, in
    # opening order; the root never ends and keeps 0.0 and n
    clusters = []

    # the last merge reaches n points, so it opens the root at any size
    opening_size = min(min_cluster_size, n)
    for k, lv in zip((merges + 1).tolist(), lam):
        a, e = other_end[k - 1], other_end[k]
        sa, sb = k - a, e + 1 - k
        large_a, large_b = sa >= min_cluster_size, sb >= min_cluster_size
        other_end[a], other_end[e] = e, a
        if large_a and large_b:
            for child, child_size in ((comp_cluster[a], sa), (comp_cluster[k], sb)):
                clusters[child][1:] = lv, child_size
            clusters.append([(comp_cluster[a], comp_cluster[k]), 0.0, n])
            comp_cluster[a] = len(clusters) - 1
        elif sa + sb >= opening_size:
            if large_b:
                comp_cluster[a] = comp_cluster[k]
            elif not large_a:
                clusters.append([(), 0.0, n])
                comp_cluster[a] = len(clusters) - 1
            for start, stop, large in ((a, k, large_a), (k, e + 1, large_b)):
                if not large:
                    pos_cluster[start:stop] = [comp_cluster[a]] * (stop - start)
                    pos_lambda[start:stop] = [lv] * (stop - start)

    # Number the clusters as a walk down from the root, the last one opened,
    # does: a split's two children one after the other, then the second
    # child's subtree first.
    ids = [0] * len(clusters)
    parent, lambda_birth, size = [-1], [0.0], [n]
    stack = [len(clusters) - 1]
    while stack:
        c = stack.pop()
        for child in clusters[c][0]:
            ids[child] = len(parent)
            parent.append(ids[c])
            lambda_birth.append(clusters[child][1])
            size.append(clusters[child][2])
            stack.append(child)

    # Stability: each point contributes the density span it stayed a member
    # (summed in point order), then each child the span its points stayed in
    # the parent (in ascending child id).
    point_cluster = np.empty(n, dtype=np.int64)
    point_cluster[order] = np.array(ids, dtype=np.int64)[pos_cluster]
    point_lambda = np.empty(n)
    point_lambda[order] = pos_lambda
    births = np.array(lambda_birth)
    stability = np.bincount(point_cluster, point_lambda - births[point_cluster],
                            minlength=len(parent)).tolist()
    for c in range(1, len(parent)):
        stability[parent[c]] += size[c] * (lambda_birth[c] - lambda_birth[parent[c]])

    selected, label = _select_clusters(parent, stability)
    return CondensedTree(np.array(parent), births, np.array(size), np.array(stability),
                         np.array(selected), np.array(label), point_cluster)


def _select_clusters(parent: list[int], stability: list[float]
                     ) -> tuple[list[int], list[int]]:
    """Excess-of-mass selection: pick clusters whose own stability beats the sum
    of their descendants'; never pick a cluster together with an ancestor. The
    root is a valid candidate, so a single compact blob yields one cluster.

    Returns (selected ids, cluster labels) as in CondensedTree. Children are
    numbered after their parent: a descending pass settles both children (a
    two-term sum, the same in either order) before their parent, an
    ascending pass a parent before its children.
    """
    k = len(parent)
    child_sum = [0.0] * k
    chosen = [False] * k
    for c in range(k - 1, -1, -1):
        # A leaf's child sum stays 0.0, which never beats a stability: that is
        # a sum of non-negative density spans.
        if child_sum[c] > stability[c]:
            kept = child_sum[c]
        else:
            kept = stability[c]
            chosen[c] = True
        if c:
            child_sum[parent[c]] += kept

    # A chosen cluster is selected unless a chosen ancestor was; everything
    # under a selected cluster takes its label.
    selected, label = [], [-1] * k
    for c in range(k):
        if c and label[parent[c]] >= 0:
            label[c] = label[parent[c]]
        elif chosen[c]:
            label[c] = len(selected)
            selected.append(c)
    return selected, label


def condensed_tree(points: np.ndarray, min_cluster_size: int = DEFAULT_MIN_CLUSTER_SIZE,
                   min_samples: Optional[int] = None) -> CondensedTree:
    """Condensed cluster hierarchy with stability scores and selected clusters,
    from Prim's visiting order over mutual-reachability distances."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if min_cluster_size < 2:
        raise ValueError("min_cluster_size must be at least 2")
    n = len(pts)
    if min_samples is None:
        min_samples = min_cluster_size
    min_samples = min(min_samples, n - 1)

    order, weights = mutual_reachability_mst(pts, min_samples)
    return _condense(order, weights, n, min_cluster_size)


def hdbscan(points: np.ndarray, min_cluster_size: int = DEFAULT_MIN_CLUSTER_SIZE,
            min_samples: Optional[int] = None) -> ClusterLabels:
    """Cluster points; fewer than min_cluster_size points are all noise.

    min_samples defaults to min_cluster_size. A point takes the label of the
    cluster it departed from: that of the selected cluster at or above it.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if min_cluster_size < 2:
        raise ValueError("min_cluster_size must be at least 2")
    n = len(pts)
    if n < min_cluster_size:
        return ClusterLabels(np.full(n, -1, dtype=np.int64))

    tree = condensed_tree(pts, min_cluster_size, min_samples)
    return ClusterLabels(tree.label[tree.point_cluster])
