import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binpick.core import plane_signed_distances
from binpick.planes import (
    SegmentedPlane,
    check_overlapping,
    extract_planes_iterative,
    fit_plane_pca,
    group_and_merge_planes,
    ransac_plane,
)

from . import oracles
from .oracles import best_plane_inliers_exhaustive


def plane_patch(rng, n, normal, d, extent=0.1, noise=0.0):
    """n points on plane normal.x + d = 0, uniformly spread."""
    normal = np.asarray(normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
    t = np.array([1.0, 0.0, 0.0])
    if abs(normal[0]) > 0.9:
        t = np.array([0.0, 1.0, 0.0])
    u = np.cross(normal, t)
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    uv = rng.uniform(-extent, extent, size=(n, 2))
    pts = -d * normal + uv[:, :1] * u + uv[:, 1:] * v
    if noise:
        pts = pts + rng.normal(0, noise, size=(n, 1)) * normal
    return pts


class TestRansacPlane:
    def test_exact_plane_full_consensus(self):
        rng = np.random.default_rng(0)
        pts = plane_patch(rng, 100, [0, 0, 1], -0.5)
        inliers, model = ransac_plane(pts, dist_thresh=0.001, seed=1)
        assert len(inliers) == 100
        assert model.coefficients() == pytest.approx([0, 0, -1, 0.5], abs=1e-9)

    def test_noisy_plane_with_outliers_beats_subsample_oracle(self):
        rng = np.random.default_rng(42)
        pts = np.vstack([
            plane_patch(rng, 70, [0, 0, 1], -0.5, noise=0.0005),
            rng.uniform(0.35, 0.65, size=(30, 3)),
        ])
        inliers, model = ransac_plane(pts, dist_thresh=0.002, max_iter=200, seed=42)
        normal = model.normal
        angle = np.degrees(np.arccos(min(1.0, abs(normal[2]))))
        assert angle < 0.5
        assert len(inliers) >= 70
        oracle = best_plane_inliers_exhaustive(pts, pts[::5], thresh=0.002)
        assert len(inliers) >= oracle - 1

    def test_collinear_points_rejected(self):
        pts = np.column_stack([np.arange(5.0), np.zeros(5), np.zeros(5)])
        with pytest.raises(ValueError):
            ransac_plane(pts, dist_thresh=0.01)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(3)
        pts = np.vstack([
            plane_patch(rng, 60, [0.2, 0.1, 1], -0.4, noise=0.001),
            rng.uniform(0, 1, size=(40, 3)),
        ])
        a_inl, a_model = ransac_plane(pts, dist_thresh=0.003, seed=7)
        b_inl, b_model = ransac_plane(pts, dist_thresh=0.003, seed=7)
        assert np.array_equal(a_inl, b_inl)
        assert a_model.coefficients() == pytest.approx(b_model.coefficients())

    def test_inlier_soundness_post_refit(self):
        rng = np.random.default_rng(4)
        pts = np.vstack([
            plane_patch(rng, 80, [0, 1, 1], -0.3, noise=0.002),
            rng.uniform(-0.5, 0.5, size=(20, 3)),
        ])
        inliers, model = ransac_plane(pts, dist_thresh=0.005, seed=5)
        dists = plane_signed_distances(model, pts[inliers])
        assert np.abs(dists).max() <= 0.005 + 1e-12


def refit(pts, consensus, dist_thresh):
    model = fit_plane_pca(pts[consensus])
    return np.flatnonzero(np.abs(plane_signed_distances(model, pts)) <= dist_thresh), model


class TestRansacAgainstLoop:
    """One scoring product picks the same winner as scoring one hypothesis at
    a time. A product column may differ from a single matrix-vector product in
    the last bits, so a point's membership may differ only where its distance
    to the winning plane lies within 1e-12 of the threshold."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 150),
           planar=st.booleans(), repeats=st.booleans(),
           dist_thresh=st.sampled_from([0.001, 0.005, 0.02, 0.1]),
           max_iter=st.integers(1, 200))
    def test_same_inliers_and_model(self, seed, n, planar, repeats, dist_thresh, max_iter):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-0.1, 0.1, size=(n, 3))
        if planar:
            pts[: n // 2, 2] = 0.5 + rng.normal(0, 0.002, size=n // 2)
        if repeats:
            pts = pts[rng.integers(0, n, size=n)]
        try:
            inliers, model = ransac_plane(pts, dist_thresh, max_iter, seed=seed)
        except ValueError:  # the input itself is collinear
            return
        best = oracles.ransac_loop(pts, dist_thresh, max_iter, np.random.default_rng(seed))
        if best is None:
            candidates = [np.ones(n, dtype=bool)]
        else:
            consensus, normal, offset = best
            margin = np.abs(np.abs(pts @ normal - offset) - dist_thresh)
            near = np.flatnonzero(margin <= 1e-12)[:8]
            candidates = []
            for size in range(len(near) + 1):
                for flip in itertools.combinations(near, size):
                    flipped = consensus.copy()
                    flipped[list(flip)] ^= True
                    candidates.append(flipped)
        assert any(
            np.array_equal(ref_inliers, inliers)
            and np.array_equal(ref_model.coefficients(), model.coefficients())
            for ref_inliers, ref_model in (refit(pts, c, dist_thresh) for c in candidates))


class TestExtractPlanesIterative:
    def test_single_planar_cluster_one_plane(self):
        rng = np.random.default_rng(5)
        pts = plane_patch(rng, 200, [0, 0, 1], -0.8)
        out = extract_planes_iterative(pts, min_cluster_size=30, seed=0)
        assert len(out) == 1
        assert len(out[0].points) == 200

    def test_dihedral_two_planes_ninety_degrees(self):
        rng = np.random.default_rng(6)
        a = plane_patch(rng, 150, [0, 0, 1], -0.5, extent=0.05)
        b = plane_patch(rng, 150, [1, 0, 0], -0.1, extent=0.05)
        out = extract_planes_iterative(np.vstack([a, b]), min_cluster_size=30,
                                       dist_thresh=0.002, seed=1)
        assert len(out) == 2
        n0, n1 = out[0].model.normal, out[1].model.normal
        angle = np.degrees(np.arccos(min(1.0, abs(float(n0 @ n1)))))
        assert abs(angle - 90) < 1.0
        for plane in out:
            oracle = fit_plane_pca(plane.points)
            assert abs(float(plane.model.normal @ oracle.normal)) > 0.9999

    def test_small_cluster_no_planes(self):
        rng = np.random.default_rng(7)
        pts = plane_patch(rng, 20, [0, 0, 1], -0.5)
        assert extract_planes_iterative(pts, min_cluster_size=30, seed=0) == []

    def test_depth_column_through_sensor_origin_no_plane(self):
        # One depth column at an occlusion jump edge: along-ray noise keeps
        # every point on the plane x = 0.2 z through the sensor origin.
        rng = np.random.default_rng(10)
        ray_y = np.linspace(0.08, 0.1, 32)
        rays = np.stack([np.full(32, 0.2), ray_y, np.ones(32)], axis=1)
        pts = rays * rng.uniform(1.18, 1.2, size=(32, 1))
        assert extract_planes_iterative(pts, min_cluster_size=30, min_object_size=30,
                                        seed=0) == []

    def test_extraction_disjoint_inliers(self):
        rng = np.random.default_rng(8)
        a = plane_patch(rng, 120, [0, 0, 1], -0.5, extent=0.05)
        b = plane_patch(rng, 120, [0, 1, 0], -0.2, extent=0.05)
        pts = np.vstack([a, b])
        out = extract_planes_iterative(pts, min_cluster_size=30,
                                       dist_thresh=0.002, seed=2)
        assert len(out) == 2
        row_of = {tuple(p): i for i, p in enumerate(pts)}
        assert len(row_of) == len(pts)
        # every plane point is an input row, no row appears twice in a plane
        sets = [{row_of[tuple(p)] for p in plane.points} for plane in out]
        assert [len(rows) for rows in sets] == [len(plane.points) for plane in out]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert sets[i].isdisjoint(sets[j])

    def test_bit_identical_replay(self):
        rng = np.random.default_rng(9)
        pts = np.vstack([
            plane_patch(rng, 100, [0, 0, 1], -0.5, noise=0.001),
            plane_patch(rng, 100, [1, 0, 0], -0.3, noise=0.001),
        ])
        a = extract_planes_iterative(pts, min_cluster_size=30, seed=11)
        b = extract_planes_iterative(pts, min_cluster_size=30, seed=11)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.points, pb.points)
            assert np.array_equal(pa.model.coefficients(), pb.model.coefficients())


class TestCheckOverlapping:
    def _plane(self, rng, normal, d, center_shift=(0, 0, 0), n=50):
        pts = plane_patch(rng, n, normal, d, extent=0.02) + np.asarray(center_shift)
        return SegmentedPlane(points=pts, model=fit_plane_pca(pts))

    def test_identical_planes_overlap(self):
        rng = np.random.default_rng(10)
        p = self._plane(rng, [0, 0, 1], -0.5)
        assert check_overlapping(p, p)

    def test_distant_coplanar_fragments_fail_centroid_check(self):
        rng = np.random.default_rng(11)
        p1 = self._plane(rng, [0, 0, 1], -0.5)
        p2 = self._plane(rng, [0, 0, 1], -0.5, center_shift=(0.2, 0, 0))
        assert not check_overlapping(p1, p2, centroid_thresh=0.05)

    def test_parallel_planes_30mm_apart_fail_perp_check(self):
        rng = np.random.default_rng(12)
        p1 = self._plane(rng, [0, 0, 1], -0.5)
        p2 = self._plane(rng, [0, 0, 1], -0.53)
        # centroids are 30 mm apart vertically: inside the 50 mm centroid gate
        # but far beyond the 5 mm perpendicular gate
        assert np.linalg.norm(p1.centroid - p2.centroid) < 0.05
        assert not check_overlapping(p1, p2)


class TestGroupAndMerge:
    def test_coplanar_fragments_merge(self):
        rng = np.random.default_rng(13)
        base = plane_patch(rng, 80, [0, 0, 1], -0.5, extent=0.02)
        frag_a = SegmentedPlane(points=base[:40], model=fit_plane_pca(base[:40]))
        frag_b = SegmentedPlane(points=base[40:], model=fit_plane_pca(base[40:]))
        merged = group_and_merge_planes([frag_a, frag_b])
        assert len(merged) == 1
        assert len(merged[0].points) == 80

    def test_stacked_tops_stay_separate(self):
        rng = np.random.default_rng(14)
        low = plane_patch(rng, 60, [0, 0, 1], -0.5, extent=0.02)
        high = plane_patch(rng, 60, [0, 0, 1], -0.55, extent=0.02)
        p1 = SegmentedPlane(points=low, model=fit_plane_pca(low))
        p2 = SegmentedPlane(points=high, model=fit_plane_pca(high))
        merged = group_and_merge_planes([p1, p2])
        assert len(merged) == 2

    def test_empty_input(self):
        assert group_and_merge_planes([]) == []

    def test_merge_idempotent(self):
        rng = np.random.default_rng(15)
        base = plane_patch(rng, 90, [0.1, 0, 1], -0.5, extent=0.03, noise=0.0005)
        frags = [SegmentedPlane(points=base[i::3], model=fit_plane_pca(base[i::3]))
                 for i in range(3)]
        once = group_and_merge_planes(frags)
        twice = group_and_merge_planes(once)
        assert len(once) == len(twice)
        for a, b in zip(once, twice):
            assert a.model.coefficients() == pytest.approx(b.model.coefficients(),
                                                           abs=1e-9)
            assert np.array_equal(a.points, b.points)

    def test_merged_output_has_no_overlapping_pair(self):
        rng = np.random.default_rng(16)
        plist = []
        for d in (-0.5, -0.55, -0.9):
            pts = plane_patch(rng, 50, [0, 0, 1], d, extent=0.02)
            plist.append(SegmentedPlane(points=pts, model=fit_plane_pca(pts)))
        pts = plane_patch(rng, 50, [1, 0, 0], -0.2, extent=0.02)
        plist.append(SegmentedPlane(points=pts, model=fit_plane_pca(pts)))
        merged = group_and_merge_planes(plist)
        cos_tol = np.cos(np.radians(5.0))
        for i in range(len(merged)):
            for j in range(len(merged)):
                if i == j:
                    continue
                dot = abs(float(merged[i].model.normal @ merged[j].model.normal))
                assert not (dot >= cos_tol and check_overlapping(merged[i], merged[j]))

    def test_groups_checked_against_seed(self):
        # coplanar patches 40 mm apart in a row: b overlaps a and c, but c
        # is 80 mm from the seed a, so it starts a group of its own
        rng = np.random.default_rng(17)
        frags = []
        for shift in (0.0, 0.04, 0.08):
            pts = plane_patch(rng, 30, [0, 0, 1], -0.5, extent=0.01) + [shift, 0, 0]
            frags.append(SegmentedPlane(points=pts, model=fit_plane_pca(pts)))
        merged = group_and_merge_planes(frags)
        assert len(merged) == 2
        assert np.array_equal(merged[0].points, np.vstack([frags[0].points, frags[1].points]))
        assert np.array_equal(merged[1].points, frags[2].points)
        assert merged[1].model == frags[2].model
