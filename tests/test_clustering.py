import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binpick.clustering import (
    ClusterLabels,
    condensed_tree,
    core_distances,
    hdbscan,
    mutual_reachability_mst,
)

from . import oracles
from .oracles import (
    components_under_cut,
    kruskal_mst_weights,
    mutual_reachability_matrix,
)


def two_blobs(rng, n_each=50, separation=1.0, sigma=0.005):
    a = rng.normal(0, sigma, size=(n_each, 3))
    b = rng.normal(0, sigma, size=(n_each, 3)) + np.array([separation, 0, 0])
    return np.vstack([a, b])


class TestCoreDistances:
    def test_collinear_nearest(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0.0]])
        assert core_distances(pts, 1) == pytest.approx([1, 1, 1])

    def test_collinear_second_nearest(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0.0]])
        assert core_distances(pts, 2) == pytest.approx([2, 1, 2])

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            core_distances(np.zeros((3, 3)), 3)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(60, 3))
        for k in (1, 5, 20):
            brute = np.sort(
                np.linalg.norm(pts[:, None] - pts[None, :], axis=2), axis=1)[:, k]
            assert core_distances(pts, k) == pytest.approx(brute)


class TestMutualReachabilityMst:
    def test_weights_match_kruskal_oracle_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(10, 120))
            pts = rng.uniform(size=(n, 3))
            k = int(rng.integers(1, min(10, n - 1) + 1))
            _, weights = mutual_reachability_mst(pts, k)
            oracle = kruskal_mst_weights(mutual_reachability_matrix(pts, k))
            assert np.array_equal(np.sort(weights), oracle)

    def test_mreach_dominates_distance_and_is_symmetric(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(size=(40, 3))
        m = mutual_reachability_matrix(pts, 5)
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        assert (m >= d - 1e-12).all()
        assert np.allclose(m, m.T)

    def test_order_visits_every_point_once(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(size=(30, 3))
        order, weights = mutual_reachability_mst(pts, 3)
        assert np.array_equal(np.sort(order), np.arange(30))
        assert order[0] == 0
        assert len(weights) == 29


class TestHdbscan:
    def test_two_blobs_two_clusters_no_noise(self):
        rng = np.random.default_rng(4)
        pts = two_blobs(rng)
        labels = hdbscan(pts, min_cluster_size=30)
        assert labels.n_clusters == 2
        assert (labels.labels >= 0).all()
        # agree with single-linkage over mutual reachability, cut at the gap
        m = mutual_reachability_matrix(pts, 30)
        comps = components_under_cut(m, 0.5)
        assert len(comps) == 2
        for comp in comps:
            assert len({labels.labels[i] for i in comp}) == 1

    def test_below_min_cluster_size_all_noise(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(20, 3))
        labels = hdbscan(pts, min_cluster_size=30)
        assert (labels.labels == -1).all()
        assert labels.n_clusters == 0

    def test_single_blob_single_cluster(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(0, 0.005, size=(100, 3))
        labels = hdbscan(pts, min_cluster_size=30)
        assert labels.n_clusters == 1
        assert (labels.labels == 0).all()

    def test_cluster_sizes_respect_minimum(self):
        rng = np.random.default_rng(7)
        pts = np.vstack([two_blobs(rng), rng.uniform(2, 3, size=(7, 3))])
        labels = hdbscan(pts, min_cluster_size=30)
        for cid in range(labels.n_clusters):
            assert (labels.labels == cid).sum() >= 30

    def test_determinism_and_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        pts = two_blobs(rng, n_each=40)
        a = hdbscan(pts, min_cluster_size=20).labels
        b = hdbscan(pts, min_cluster_size=20).labels
        assert np.array_equal(a, b)

        perm = rng.permutation(len(pts))
        c = hdbscan(pts[perm], min_cluster_size=20).labels
        mapping = {}
        for orig, new in zip(a[perm], c):
            if orig == -1 or new == -1:
                assert orig == new
                continue
            assert mapping.setdefault(orig, new) == new

    def test_parallel_planes_separated(self):
        # two box tops 50 mm apart in height must never share a cluster
        rng = np.random.default_rng(9)
        xs = np.arange(10) * 0.005
        xx, yy = np.meshgrid(xs, xs)
        patch = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])
        upper = patch + np.array([0, 0, 0.05])
        pts = np.vstack([patch, upper])
        labels = hdbscan(pts, min_cluster_size=30)
        assert labels.n_clusters == 2
        low = {labels.labels[i] for i in range(len(patch))}
        high = {labels.labels[i] for i in range(len(patch), len(pts))}
        assert low.isdisjoint(high)

    def test_min_cluster_size_validation(self):
        with pytest.raises(ValueError):
            hdbscan(np.zeros((10, 3)), min_cluster_size=1)

    def test_labels_contiguity_enforced(self):
        with pytest.raises(ValueError):
            ClusterLabels(np.array([0, 2, 2]))


class TestCondensedTree:
    def test_lambda_monotone_and_stability_nonnegative(self):
        rng = np.random.default_rng(10)
        pts = two_blobs(rng, n_each=40, separation=0.4)
        tree = condensed_tree(pts, min_cluster_size=20)
        assert (tree.stability >= -1e-12).all()
        assert tree.parent[0] == -1
        assert (tree.parent[1:] < np.arange(1, len(tree.parent))).all()
        assert (tree.lambda_birth[1:] >= tree.lambda_birth[tree.parent[1:]]).all()

    def test_selected_clusters_are_antichain(self):
        rng = np.random.default_rng(11)
        pts = np.vstack([two_blobs(rng, n_each=40, separation=0.5),
                         two_blobs(rng, n_each=40, separation=0.5) + 5.0])
        tree = condensed_tree(pts, min_cluster_size=25)
        selected = set(tree.selected.tolist())
        for cid in selected:
            parent = tree.parent[cid]
            while parent >= 0:
                assert parent not in selected
                parent = tree.parent[parent]

    def test_member_counts(self):
        rng = np.random.default_rng(12)
        pts = two_blobs(rng, n_each=35, separation=0.8)
        tree = condensed_tree(pts, min_cluster_size=20)
        assert tree.size[0] == 70
        assert sorted(tree.size[tree.parent == 0].tolist()) == [35, 35]


@st.composite
def tie_heavy_points(draw):
    """Points on a coarse grid (many equal distances and core distances) or
    random points with repeated rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 90))
    scale = draw(st.sampled_from([1.0, 0.01, 0.003, 1e-6, 250.0]))
    if draw(st.booleans()):
        pts = rng.integers(0, draw(st.integers(1, 5)) + 1, size=(n, 3)) * scale
    else:
        base = rng.uniform(-1, 1, size=(draw(st.integers(2, n)), 3)) * scale
        pts = base[rng.integers(0, len(base), size=n)]
    return pts.astype(float)


def reference_hierarchy(pts, min_cluster_size, min_samples=None):
    """The oracle chain: step-by-step Prim, list union-find dendrogram,
    node-record condensation and stack-walk selection. Returns (nodes,
    point_cluster, selected, labels)."""
    n = len(pts)
    k = min(min_samples or min_cluster_size, n - 1)
    dendrogram = oracles.single_linkage(*oracles.prim_mst(pts, core_distances(pts, k)), n)
    nodes, point_cluster = oracles.condense_nodes(*dendrogram, n, min_cluster_size)
    return (nodes, point_cluster, *oracles.select_nodes(nodes, point_cluster))


def reference_labels(pts, min_cluster_size):
    """hdbscan labels from the oracle chain; fewer than min_cluster_size
    points are all noise."""
    if len(pts) < min_cluster_size:
        return np.full(len(pts), -1, dtype=np.int64)
    return reference_hierarchy(pts, min_cluster_size)[3]


def assert_tree_matches(tree, nodes, point_cluster, selected):
    ids = sorted(nodes)
    assert ids == list(range(len(tree.parent)))
    assert np.array_equal(tree.parent, [-1 if nodes[i].parent_id is None
                                        else nodes[i].parent_id for i in ids])
    assert np.array_equal(tree.size, [nodes[i].size for i in ids])
    assert np.array_equal(tree.lambda_birth, [nodes[i].lambda_birth for i in ids])
    assert np.array_equal(tree.stability, [nodes[i].stability for i in ids])
    assert np.array_equal(tree.point_cluster, point_cluster)
    assert tree.selected.tolist() == selected


def assert_prim_matches(pts, k):
    """Visiting order and joining weights equal the per-step reference's
    joined vertices (after vertex 0) and edge weights."""
    order, weights = mutual_reachability_mst(pts, k)
    ref_edges, ref_weights = oracles.prim_mst(pts, core_distances(pts, k))
    assert np.array_equal(order, [0] + ref_edges[:, 1].tolist())
    assert np.array_equal(weights, ref_weights)


def assert_clusters_are_runs(tree, order):
    """The points of every condensed cluster, descendants included, are one
    contiguous run of the visiting order."""
    position = np.argsort(order)
    k = len(tree.parent)
    for c in range(k):
        inside = np.zeros(k, dtype=bool)
        inside[c] = True
        for d in range(c + 1, k):  # children are numbered after their parent
            inside[d] = inside[tree.parent[d]]
        at = np.sort(position[inside[tree.point_cluster]])
        assert at[-1] - at[0] + 1 == len(at)


class TestAgainstStepReference:
    """Prim over retired core distances and the condensation over runs of its
    order give exactly the per-step reference's order, weights and labels."""

    @settings(max_examples=150, deadline=None)
    @given(pts=tie_heavy_points(), data=st.data())
    def test_mst_edges_and_weights(self, pts, data):
        assert_prim_matches(pts, data.draw(st.integers(1, min(10, len(pts) - 1))))

    @settings(max_examples=60, deadline=None)
    @given(pts=tie_heavy_points(), data=st.data())
    def test_hdbscan_labels(self, pts, data):
        min_cluster_size = data.draw(st.integers(2, 15))
        assert np.array_equal(hdbscan(pts, min_cluster_size).labels,
                              reference_labels(pts, min_cluster_size))

    @pytest.mark.parametrize("k", [1, 4, 12])
    def test_tie_heavy_grid_across_compactions(self, k):
        # 343 lattice points, 40 of them doubled: most weights tie, and the
        # live arrays are compacted a dozen times on the way
        rng = np.random.default_rng(k)
        grid = np.indices((7, 7, 7)).reshape(3, -1).T * 0.004
        pts = np.vstack([grid, grid[rng.choice(len(grid), 40, replace=False)]])
        pts = pts[rng.permutation(len(pts))]
        assert_prim_matches(pts, k)

    def test_duplicate_blocks_and_spread_points(self):
        # 40 and 35 coincident points have zero core distance: their merge
        # densities take the _MIN_DISTANCE guard
        rng = np.random.default_rng(13)
        pts = np.vstack([np.full((40, 3), 0.2),
                         rng.uniform(-0.02, 0.02, size=(60, 3)) + [1.0, 0, 0],
                         np.full((35, 3), -0.7)])
        labels = hdbscan(pts, min_cluster_size=30).labels
        assert np.array_equal(labels, reference_labels(pts, 30))
        assert sorted(np.bincount(labels[labels >= 0]).tolist()) == [35, 40, 60]
        for block in (slice(0, 40), slice(40, 100), slice(100, 135)):
            assert len(set(labels[block].tolist())) == 1


class TestAgainstNodeReference:
    """The condensation over runs, its numbering walk and two linear passes
    give exactly the node-dict condensation of the reference's dendrogram and
    its stack-walk selection."""

    @settings(max_examples=150, deadline=None)
    @given(pts=tie_heavy_points(), data=st.data())
    def test_tree_selection_and_labels(self, pts, data):
        min_cluster_size = data.draw(st.integers(2, 15))
        min_samples = data.draw(st.one_of(st.none(), st.integers(1, 15)))
        k = min(min_samples or min_cluster_size, len(pts) - 1)
        dendrogram = oracles.single_linkage(*oracles.prim_mst(pts, core_distances(pts, k)),
                                            len(pts))
        nodes, point_cluster = oracles.condense_nodes(*dendrogram, len(pts), min_cluster_size)
        selected, labels = oracles.select_nodes(nodes, point_cluster)

        tree = condensed_tree(pts, min_cluster_size, min_samples)
        assert_tree_matches(tree, nodes, point_cluster, selected)
        assert_clusters_are_runs(tree, mutual_reachability_mst(pts, k)[0])
        if len(pts) >= min_cluster_size:
            assert np.array_equal(hdbscan(pts, min_cluster_size, min_samples).labels, labels)


def three_faces(rng, per_face):
    """Three 0.1 m square faces 15 cm apart in x, at z = 0.80, 0.85 and
    0.90 m, with 2 mm z noise."""
    faces = []
    for i, z in enumerate((0.80, 0.85, 0.90)):
        xy = rng.uniform(0, 0.1, size=(per_face, 2)) + [0.15 * i, 0.0]
        faces.append(np.column_stack([xy, z + rng.normal(0, 0.002, per_face)]))
    return np.vstack(faces)


class TestAtBenchmarkSize:
    """The Hypothesis inputs stop at 90 points; a benchmark cluster holds
    one to two thousand. The tree and labels still equal the oracle chain's."""

    @pytest.mark.parametrize("per_face", [400, 700])
    @pytest.mark.parametrize("min_cluster_size", [30, 5])
    def test_tree_and_labels(self, per_face, min_cluster_size):
        pts = three_faces(np.random.default_rng(per_face), per_face)
        nodes, point_cluster, selected, labels = reference_hierarchy(pts, min_cluster_size)
        assert_tree_matches(condensed_tree(pts, min_cluster_size), nodes, point_cluster, selected)
        assert np.array_equal(hdbscan(pts, min_cluster_size).labels, labels)
        faces = labels.reshape(3, per_face)
        assert (faces == faces[:, :1]).all() and sorted(faces[:, 0]) == [0, 1, 2]

    def test_memory_stays_linear(self):
        # 2,100 points take about 1 MiB; a condensed pairwise distance matrix
        # alone would take 16.8 MiB.
        pts = three_faces(np.random.default_rng(700), 700)
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            hdbscan(pts, 30)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"hdbscan peak {peak / 2**20:.2f} MiB"
