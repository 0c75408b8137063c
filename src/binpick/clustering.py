"""Density-based clustering used to separate objects before plane fitting.

Hierarchical DBSCAN over mutual-reachability distances: each point's core
distance (k-th nearest neighbor) inflates pairwise distances, an exact minimum
spanning tree of the resulting graph is condensed by minimum cluster size, and
maximally stable clusters are selected bottom-up. Two parallel faces at
different heights land in different clusters, so a single plane is never fit
across separated surfaces.

Everything is deterministic: MST ties break toward the lowest point index.
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


def _single_linkage(edges: np.ndarray, weights: np.ndarray, n: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dendrogram from MST edges: (children (n-1, 2), distances, sizes).

    Internal node ids run n..2n-2; merge order follows ascending edge weight
    with the Prim discovery order as a stable tie-break.
    """
    order = np.argsort(weights, kind="stable")
    uf_parent = list(range(n))
    current_node = list(range(n))
    sizes = [1] * (2 * n - 1)
    children = []
    for step, (a, b) in enumerate(edges[order].tolist()):
        while uf_parent[a] != a:
            uf_parent[a] = uf_parent[uf_parent[a]]
            a = uf_parent[a]
        while uf_parent[b] != b:
            uf_parent[b] = uf_parent[uf_parent[b]]
            b = uf_parent[b]
        na, nb = current_node[a], current_node[b]
        children.append((na, nb))
        sizes[n + step] = sizes[na] + sizes[nb]
        uf_parent[b] = a
        current_node[a] = n + step
    return (np.array(children, dtype=np.int64).reshape(n - 1, 2), weights[order],
            np.array(sizes, dtype=np.int64))


def _condense(children: np.ndarray, distances: np.ndarray, sizes: np.ndarray,
              n: int, min_cluster_size: int) -> CondensedTree:
    """Collapse the dendrogram into clusters of at least min_cluster_size points.

    Walking down from the root, a split where both sides are large enough
    creates two child clusters; otherwise the small side's points fall out of
    the current cluster at that split's density.
    """
    root_dendro = 2 * n - 2
    lam = np.where(distances > _MIN_DISTANCE, 1.0 / np.maximum(distances, _MIN_DISTANCE),
                   1.0 / _MIN_DISTANCE).tolist()
    # Python lists: the walk below reads one element at a time
    merged = children.tolist()
    sizes = sizes.tolist()

    parent, lambda_birth, size = [-1], [0.0], [n]
    point_cluster = [0] * n
    point_lambda = [0.0] * n

    def leaves_of(node: int) -> list[int]:
        out, stack = [], [node]
        while stack:
            v = stack.pop()
            if v < n:
                out.append(v)
            else:
                stack.extend(merged[v - n])
        return out

    # (dendrogram node, condensed cluster it belongs to)
    stack = [(root_dendro, 0)]
    while stack:
        node, cluster = stack.pop()
        if node < n:
            # A cluster reduced to a single point: it departs at its merge density,
            # already recorded by the parent split below.
            continue
        left, right = merged[node - n]
        lv = lam[node - n]
        ls, rs = sizes[left], sizes[right]

        if ls >= min_cluster_size and rs >= min_cluster_size:
            for child, child_size in ((left, ls), (right, rs)):
                stack.append((child, len(parent)))
                parent.append(cluster)
                lambda_birth.append(lv)
                size.append(child_size)
        else:
            for child, child_size in ((left, ls), (right, rs)):
                if child_size >= min_cluster_size:
                    stack.append((child, cluster))
                else:
                    for p in leaves_of(child):
                        point_cluster[p] = cluster
                        point_lambda[p] = lv

    # Stability: each point contributes the density span it stayed a member
    # (summed in point order), then each child the span its points stayed in
    # the parent (in ascending child id).
    point_cluster = np.array(point_cluster, dtype=np.int64)
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
    children, distances, sizes = _single_linkage(edges, weights, n)
    return _condense(children, distances, sizes, n, min_cluster_size)


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
