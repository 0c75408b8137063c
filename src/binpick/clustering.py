"""Density-based clustering used to separate objects before plane fitting.

Hierarchical DBSCAN over mutual-reachability distances: each point's core
distance (k-th nearest neighbor) inflates pairwise distances, an exact minimum
spanning tree of the resulting graph is condensed by minimum cluster size, and
maximally stable clusters are selected bottom-up. Two parallel faces at
different heights land in different clusters, so a single plane is never fit
across separated surfaces.

Everything is deterministic for a given point order: MST ties break toward
the lowest point index, and equal-weight merges follow the MST's discovery
order. The partition can depend on that order where weights tie.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

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
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(pts) <= k:
        raise ValueError(f"need more than k={k} points, got {len(pts)}")
    from scipy.spatial import cKDTree

    d, _ = cKDTree(pts).query(pts, k=k + 1)
    return d[:, k]


def mutual_reachability_mst(points: np.ndarray, min_samples: int
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Exact MST of the complete mutual-reachability graph.

    d_mreach(a, b) = max(core(a), core(b), |a - b|). Prim's algorithm with the
    row of the newly added vertex computed on the fly; argmin tie-breaks pick
    the lowest point index. A vertex's core distance is retired to inf when it
    joins the tree, so its row entries can never undercut a frontier weight.
    Returns (edges (n-1, 2), weights (n-1,)).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(pts)
    core = core_distances(pts, min_samples).copy()
    coords = np.ascontiguousarray(pts.T)
    diff = np.empty((3, n))
    row = np.empty(n)
    upd = np.empty(n, dtype=bool)
    best = np.full(n, np.inf)
    src = np.zeros(n, dtype=np.int64)

    edges = np.empty((n - 1, 2), dtype=np.int64)
    weights = np.empty(n - 1)
    j = 0
    for step in range(n - 1):
        core_j = core[j]
        core[j] = np.inf
        np.subtract(coords, coords[:, j:j + 1], out=diff)
        np.square(diff, out=diff)
        np.add.reduce(diff, axis=0, out=row)
        np.sqrt(row, out=row)
        np.maximum(row, core, out=row)
        np.maximum(row, core_j, out=row)
        np.less(row, best, out=upd)
        np.minimum(row, best, out=best)
        src[upd] = j
        j = int(best.argmin())
        edges[step, 1] = j
        weights[step] = best[j]
        best[j] = np.inf
    # a tree vertex's src never changes again, so it still names its parent
    edges[:, 0] = src[edges[:, 1]]
    return edges, weights


def _condense(edges: np.ndarray, weights: np.ndarray, n: int,
              min_cluster_size: int) -> CondensedTree:
    """Condensed tree of clusters of at least min_cluster_size points, from
    one union-find pass over the MST edges.

    Edges merge in ascending weight, ties in Prim's discovery order. A small
    component keeps its members; when it joins a large one, its points fall
    out of that one's cluster at the merge density. A component that reaches
    the size opens a cluster, as does the last merge, so the root exists at
    any size. When two large components merge, their clusters end and become
    the children of the cluster the merge opens.
    """
    order = np.argsort(weights, kind="stable")
    distances = weights[order]
    lam = np.where(distances > _MIN_DISTANCE, 1.0 / np.maximum(distances, _MIN_DISTANCE),
                   1.0 / _MIN_DISTANCE).tolist()
    uf_parent = list(range(n))
    comp_size = [1] * n
    members = [[p] for p in range(n)]  # read only while the component is small
    comp_cluster = [-1] * n  # the open cluster of a large component
    point_cluster = [0] * n
    point_lambda = [0.0] * n
    # [children, density and size at the merge that ends it] per cluster, in
    # opening order; the root never ends and keeps 0.0 and n
    clusters = []

    # the last merge reaches n points, so it opens the root at any size
    opening_size = min(min_cluster_size, n)
    for (a, b), lv in zip(edges[order].tolist(), lam):
        while uf_parent[a] != a:
            uf_parent[a] = uf_parent[uf_parent[a]]
            a = uf_parent[a]
        while uf_parent[b] != b:
            uf_parent[b] = uf_parent[uf_parent[b]]
            b = uf_parent[b]
        sa, sb = comp_size[a], comp_size[b]
        large_a, large_b = sa >= min_cluster_size, sb >= min_cluster_size
        uf_parent[b] = a
        comp_size[a] = sa + sb
        if large_a and large_b:
            for child, child_size in ((comp_cluster[a], sa), (comp_cluster[b], sb)):
                clusters[child][1:] = lv, child_size
            clusters.append([(comp_cluster[a], comp_cluster[b]), 0.0, n])
            comp_cluster[a] = len(clusters) - 1
        elif sa + sb >= opening_size:
            if large_b:
                comp_cluster[a] = comp_cluster[b]
            elif not large_a:
                clusters.append([(), 0.0, n])
                comp_cluster[a] = len(clusters) - 1
            for side, large in ((a, large_a), (b, large_b)):
                if not large:
                    for p in members[side]:
                        point_cluster[p] = comp_cluster[a]
                        point_lambda[p] = lv
        else:
            members[a] += members[b]

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
    point_cluster = np.array(ids, dtype=np.int64)[point_cluster]
    births = np.array(lambda_birth)
    stability = np.bincount(point_cluster, np.array(point_lambda) - births[point_cluster],
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
    """Condensed cluster hierarchy with stability scores and selected clusters."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if min_cluster_size < 2:
        raise ValueError("min_cluster_size must be at least 2")
    n = len(pts)
    if min_samples is None:
        min_samples = min_cluster_size
    min_samples = min(min_samples, n - 1)

    edges, weights = mutual_reachability_mst(pts, min_samples)
    return _condense(edges, weights, n, min_cluster_size)


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
