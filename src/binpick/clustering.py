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

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

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


@dataclass
class CondensedNode:
    """One cluster of the condensed hierarchy.

    Densities are lambda = 1/distance; a cluster is born when it splits off its
    parent and dies when it splits or dissolves. ``stability`` sums, over the
    cluster's points, the lambda at which each point leaves minus lambda_birth.
    """

    node_id: int
    parent_id: Optional[int]
    lambda_birth: float
    lambda_death: float
    size: int
    stability: float
    children: list[int] = field(default_factory=list)


@dataclass
class CondensedTree:
    nodes: dict[int, CondensedNode]
    selected: list[int]
    point_cluster: np.ndarray  # cluster each point departed from


def core_distances(points: np.ndarray, k: int) -> np.ndarray:
    """Distance from each point to its k-th nearest neighbor (self excluded)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(pts) <= k:
        raise ValueError(f"need more than k={k} points, got {len(pts)}")
    d, _ = cKDTree(pts).query(pts, k=k + 1)
    return d[:, k]


def mutual_reachability_mst(points: np.ndarray, min_samples: int
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Exact MST of the complete mutual-reachability graph.

    d_mreach(a, b) = max(core(a), core(b), |a - b|). Prim's algorithm with the
    row of the newly added vertex computed on the fly; argmin tie-breaks pick
    the lowest point index. Returns (edges (n-1, 2), weights (n-1,)).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(pts)
    core = core_distances(pts, min_samples)

    def mreach_row(j: int) -> np.ndarray:
        d = np.linalg.norm(pts - pts[j], axis=1)
        return np.maximum(np.maximum(core, core[j]), d)

    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = mreach_row(0)
    best[0] = np.inf
    src = np.zeros(n, dtype=np.int64)

    edges = np.empty((n - 1, 2), dtype=np.int64)
    weights = np.empty(n - 1)
    for step in range(n - 1):
        j = int(np.argmin(best))
        edges[step] = (src[j], j)
        weights[step] = best[j]
        in_tree[j] = True
        best[j] = np.inf
        row = mreach_row(j)
        upd = ~in_tree & (row < best)
        best[upd] = row[upd]
        src[upd] = j
    return edges, weights


def _single_linkage(edges: np.ndarray, weights: np.ndarray, n: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dendrogram from MST edges: (children (n-1, 2), distances, sizes).

    Internal node ids run n..2n-2; merge order follows ascending edge weight
    with the Prim discovery order as a stable tie-break.
    """
    order = np.argsort(weights, kind="stable")
    uf_parent = np.arange(2 * n - 1, dtype=np.int64)
    current_node = np.arange(2 * n - 1, dtype=np.int64)
    sizes = np.ones(2 * n - 1, dtype=np.int64)

    def find(a: int) -> int:
        while uf_parent[a] != a:
            uf_parent[a] = uf_parent[uf_parent[a]]
            a = uf_parent[a]
        return a

    children = np.empty((n - 1, 2), dtype=np.int64)
    distances = np.empty(n - 1)
    for step, e in enumerate(order):
        a, b = edges[e]
        ra, rb = find(int(a)), find(int(b))
        na, nb = current_node[ra], current_node[rb]
        new = n + step
        children[step] = (na, nb)
        distances[step] = weights[e]
        sizes[new] = sizes[na] + sizes[nb]
        uf_parent[rb] = ra
        current_node[ra] = new
    return children, distances, sizes


def _condense(children: np.ndarray, distances: np.ndarray, sizes: np.ndarray,
              n: int, min_cluster_size: int) -> CondensedTree:
    """Collapse the dendrogram into clusters of at least min_cluster_size points.

    Walking down from the root, a split where both sides are large enough
    creates two child clusters; otherwise the small side's points fall out of
    the current cluster at that split's density.
    """
    root_dendro = 2 * n - 2
    lam = np.where(distances > _MIN_DISTANCE, 1.0 / np.maximum(distances, _MIN_DISTANCE),
                   1.0 / _MIN_DISTANCE)

    nodes: dict[int, CondensedNode] = {
        0: CondensedNode(0, None, 0.0, 0.0, n, 0.0)
    }
    point_cluster = np.zeros(n, dtype=np.int64)
    point_lambda = np.zeros(n)
    next_id = 1

    def leaves_of(node: int) -> list[int]:
        out, stack = [], [node]
        while stack:
            v = stack.pop()
            if v < n:
                out.append(v)
            else:
                stack.extend(children[v - n])
        return out

    # (dendrogram node, condensed cluster it belongs to)
    stack = [(root_dendro, 0)]
    while stack:
        node, cluster = stack.pop()
        if node < n:
            # A cluster reduced to a single point: it departs at its merge density,
            # already recorded by the parent split below.
            continue
        left, right = (int(v) for v in children[node - n])
        lv = float(lam[node - n])
        ls = int(sizes[left])
        rs = int(sizes[right])

        if ls >= min_cluster_size and rs >= min_cluster_size:
            for child, size in ((left, ls), (right, rs)):
                cid = next_id
                next_id += 1
                nodes[cid] = CondensedNode(cid, cluster, lv, lv, size, 0.0)
                nodes[cluster].children.append(cid)
                stack.append((child, cid))
            nodes[cluster].lambda_death = max(nodes[cluster].lambda_death, lv)
        else:
            for child, size in ((left, ls), (right, rs)):
                if size >= min_cluster_size:
                    stack.append((child, cluster))
                else:
                    for p in leaves_of(child):
                        point_cluster[p] = cluster
                        point_lambda[p] = lv
                    nodes[cluster].lambda_death = max(nodes[cluster].lambda_death, lv)

    # Stability: each point contributes the density span it stayed a member;
    # points in child clusters leave at the child's birth density.
    for p in range(n):
        c = nodes[point_cluster[p]]
        c.stability += point_lambda[p] - c.lambda_birth
    for node in nodes.values():
        if node.parent_id is not None:
            nodes[node.parent_id].stability += node.size * (
                node.lambda_birth - nodes[node.parent_id].lambda_birth)

    return CondensedTree(nodes=nodes, selected=[], point_cluster=point_cluster)


def _select_clusters(tree: CondensedTree) -> list[int]:
    """Excess-of-mass selection: pick clusters whose own stability beats the sum
    of their descendants'; never pick a cluster together with an ancestor. The
    root is a valid candidate, so a single compact blob yields one cluster."""
    nodes = tree.nodes
    propagated: dict[int, float] = {}
    chosen: dict[int, bool] = {}
    for nid in sorted(nodes, reverse=True):
        node = nodes[nid]
        child_sum = sum(propagated[c] for c in node.children)
        if node.children and child_sum > node.stability:
            propagated[nid] = child_sum
            chosen[nid] = False
        else:
            propagated[nid] = node.stability
            chosen[nid] = True

    selected: list[int] = []
    stack = [0]
    while stack:
        nid = stack.pop()
        if chosen[nid]:
            selected.append(nid)
        else:
            stack.extend(nodes[nid].children)
    return sorted(selected)


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
    tree = _condense(children, distances, sizes, n, min_cluster_size)
    tree.selected = _select_clusters(tree)
    return tree


def hdbscan(points: np.ndarray, min_cluster_size: int = DEFAULT_MIN_CLUSTER_SIZE,
            min_samples: Optional[int] = None) -> ClusterLabels:
    """Cluster points; fewer than min_cluster_size points are all noise.

    min_samples defaults to min_cluster_size. Labels are assigned by walking
    each point's departure cluster up to the nearest selected cluster.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if min_cluster_size < 2:
        raise ValueError("min_cluster_size must be at least 2")
    n = len(pts)
    if n < min_cluster_size:
        return ClusterLabels(np.full(n, -1, dtype=np.int64))

    tree = condensed_tree(pts, min_cluster_size, min_samples)
    cluster_label = np.full(len(tree.nodes), -1, dtype=np.int64)
    cluster_label[tree.selected] = np.arange(len(tree.selected))
    # _condense numbers every cluster after its parent, so one ascending pass
    # hands each unselected cluster its parent's final label.
    for cid in range(1, len(tree.nodes)):
        if cluster_label[cid] < 0:
            cluster_label[cid] = cluster_label[tree.nodes[cid].parent_id]
    return ClusterLabels(cluster_label[tree.point_cluster])
