import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from binpick.conditioning import (
    NeighborIndex,
    _padded_neighborhoods,
    compute_normal_field,
    don_filter,
    estimate_normal,
    mls_resample,
    statistical_outlier_removal,
    voxel_grid_downsample,
)
from binpick.errors import DegenerateNeighborhoodError, InsufficientNeighborsError

from . import oracles
from .oracles import brute_knn, brute_radius, lsq_plane, weighted_poly2_height_fit


def planar_grid(nx, ny, pitch, z=0.0):
    xs = np.arange(nx) * pitch
    ys = np.arange(ny) * pitch
    xx, yy = np.meshgrid(xs, ys)
    return np.column_stack([xx.ravel(), yy.ravel(), np.full(xx.size, z)])


class TestNeighborIndex:
    def test_matches_brute_force_knn_and_radius(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = rng.integers(5, 200)
            pts = rng.uniform(-1, 1, size=(n, 3))
            index = NeighborIndex(pts)
            q = rng.uniform(-1, 1, size=3)
            k = int(rng.integers(1, n))
            d, i = index.k_nearest(q, k)
            od, oi = brute_knn(pts, q, k)
            assert np.array_equal(i, oi)
            assert d == pytest.approx(od)
            r = float(rng.uniform(0.1, 1.0))
            assert np.array_equal(index.radius(q, r), brute_radius(pts, q, r))

    def test_k_out_of_range(self):
        index = NeighborIndex(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            index.k_nearest(np.zeros(3), 5)


class TestVoxelGrid:
    def test_same_voxel_collapses_to_centroid(self):
        out = voxel_grid_downsample(np.array([[0, 0, 0], [0.001, 0, 0]]), leaf=0.01)
        assert out.shape == (1, 3)
        assert out[0] == pytest.approx([0.0005, 0, 0])

    def test_distinct_voxels_kept(self):
        out = voxel_grid_downsample(np.array([[0, 0, 0], [0.5, 0, 0]]), leaf=0.01)
        assert out.shape == (2, 3)

    def test_empty_input(self):
        assert voxel_grid_downsample(np.zeros((0, 3)), leaf=0.01).shape == (0, 3)

    def test_invalid_leaf(self):
        with pytest.raises(ValueError):
            voxel_grid_downsample(np.zeros((1, 3)), leaf=0.0)

    def test_output_points_inside_their_voxels(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.3, 0.3, size=(500, 3))
        leaf = 0.05
        out = voxel_grid_downsample(pts, leaf)
        assert len(out) <= len(pts)
        keys_in = np.unique(np.floor(pts / leaf).astype(int), axis=0)
        keys_out = np.floor(out / leaf).astype(int)
        assert np.array_equal(np.unique(keys_out, axis=0), keys_in)

    def test_z_major_output_order(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.2, 0.2, size=(200, 3))
        out = voxel_grid_downsample(pts, 0.04)
        keys = np.floor(out / 0.04).astype(int)
        order = np.lexsort((keys[:, 0], keys[:, 1], keys[:, 2]))
        assert np.array_equal(order, np.arange(len(out)))


class TestStatisticalOutlierRemoval:
    def test_grid_plus_far_point(self):
        grid = planar_grid(3, 3, 1.0)
        far = np.array([[12.0, 1.0, 0.0]])
        pts = np.vstack([grid, far])
        kept = statistical_outlier_removal(pts, k=3, alpha=1.0)
        assert len(kept) == 9
        assert not any(np.allclose(p, far[0]) for p in kept)

    def test_oracle_agreement_on_random_sets(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            pts = rng.uniform(0, 1, size=(40, 3))
            k = 5
            d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
            mean_d = np.sort(d, axis=1)[:, 1:k + 1].mean(axis=1)
            expected = pts[mean_d <= mean_d.mean() + mean_d.std()]
            got = statistical_outlier_removal(pts, k=k, alpha=1.0)
            assert np.array_equal(got, expected)

    def test_identical_points_all_kept(self):
        pts = np.zeros((10, 3))
        kept = statistical_outlier_removal(pts, k=3, alpha=1.0)
        assert len(kept) == 10

    def test_never_removes_below_mean(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(60, 3))
        k = 4
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        mean_d = np.sort(d, axis=1)[:, 1:k + 1].mean(axis=1)
        kept = statistical_outlier_removal(pts, k=k, alpha=0.0)
        kept_set = {tuple(p) for p in kept}
        for p, md in zip(pts, mean_d):
            if md <= mean_d.mean():
                assert tuple(p) in kept_set

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            statistical_outlier_removal(np.zeros((3, 3)), k=3)


class TestMlsResample:
    def test_plane_is_reproduced(self):
        pts = planar_grid(8, 8, 0.01, z=0.05)
        out = mls_resample(pts, radius=0.03, order=2)
        assert np.abs(out[:, 2] - 0.05).max() < 1e-9
        assert np.abs(out - pts).max() < 1e-9

    def test_perturbed_point_pulled_to_plane(self):
        pts = planar_grid(13, 13, 0.005)
        idx = 84  # center point, ~75 neighbors within the radius
        pts[idx, 2] += 0.005
        out = mls_resample(pts, radius=0.025, order=2)
        assert abs(out[idx, 2]) < 0.001

    def test_perturbed_point_against_direct_fit(self):
        # replicate the projection with an independent weighted LS solve
        pts = planar_grid(9, 9, 0.01)
        idx = 40
        pts[idx, 2] += 0.005
        radius = 0.025
        out = mls_resample(pts, radius=radius, order=2)

        d = np.linalg.norm(pts - pts[idx], axis=1)
        nb = pts[d <= radius]
        w = np.exp(-np.linalg.norm(nb - pts[idx], axis=1) ** 2 / (2 * (radius / 2) ** 2))
        centroid = (nb * w[:, None]).sum(0) / w.sum()
        n, _ = lsq_plane(nb)  # unweighted axis estimate is fine for a near-flat patch
        n = n if abs(n[2]) > 0.5 else -n
        e_u = np.array([1.0, 0.0, 0.0]) - n[0] * n
        e_u /= np.linalg.norm(e_u)
        e_v = np.cross(n, e_u)
        rel = nb - centroid
        uvh = np.column_stack([rel @ e_u, rel @ e_v, rel @ n])
        rel_p = pts[idx] - centroid
        fit_h = weighted_poly2_height_fit(uvh, w, (rel_p @ e_u, rel_p @ e_v))
        expected = centroid + (rel_p @ e_u) * e_u + (rel_p @ e_v) * e_v + fit_h * n
        assert np.linalg.norm(out[idx] - expected) < 5e-4

    def test_isolated_point_unchanged(self):
        pts = np.vstack([planar_grid(5, 5, 0.01), [[1.0, 1.0, 1.0]]])
        out = mls_resample(pts, radius=0.02, order=2)
        assert np.array_equal(out[-1], [1.0, 1.0, 1.0])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            mls_resample(np.zeros((4, 3)), radius=-1)
        with pytest.raises(ValueError):
            mls_resample(np.zeros((4, 3)), radius=0.1, order=3)


class TestEstimateNormal:
    def test_plane_normal_toward_origin_viewpoint(self):
        pts = planar_grid(6, 6, 0.01, z=1.0)
        index = NeighborIndex(pts)
        n = estimate_normal(pts, index, pts[14], radius=0.03, viewpoint=np.zeros(3))
        assert n == pytest.approx([0, 0, -1], abs=1e-9)

    def test_viewpoint_flip(self):
        pts = planar_grid(6, 6, 0.01, z=1.0)
        index = NeighborIndex(pts)
        n = estimate_normal(pts, index, pts[14], radius=0.03,
                            viewpoint=np.array([0, 0, 10.0]))
        assert n == pytest.approx([0, 0, 1], abs=1e-9)

    def test_too_few_neighbors(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.0]])
        index = NeighborIndex(pts)
        with pytest.raises(InsufficientNeighborsError):
            estimate_normal(pts, index, pts[0], radius=0.1)

    def test_collinear_neighborhood(self):
        pts = np.column_stack([np.linspace(0, 1, 10), np.zeros(10), np.zeros(10)])
        index = NeighborIndex(pts)
        with pytest.raises(DegenerateNeighborhoodError):
            estimate_normal(pts, index, pts[5], radius=0.5)

    def test_residual_rms_equals_sqrt_smallest_eigenvalue(self):
        rng = np.random.default_rng(6)
        pts = planar_grid(7, 7, 0.01)
        pts[:, 2] += rng.normal(0, 0.001, size=len(pts))
        index = NeighborIndex(pts)
        p = pts[24]
        radius = 0.05
        n = estimate_normal(pts, index, p, radius)
        nb = pts[brute_radius(pts, p, radius)]
        centroid = nb.mean(0)
        rel = nb - centroid
        rms = np.sqrt(((rel @ n) ** 2).mean())
        evals = np.linalg.eigvalsh(rel.T @ rel / len(nb))
        assert abs(rms - np.sqrt(max(evals[0], 0.0))) < 1e-9


class TestDonFilter:
    def test_flat_plane_all_interior_retained(self):
        pts = planar_grid(20, 20, 0.005, z=0.5)
        out = don_filter(pts, r_small=0.01, r_large=0.025, threshold=0.25)
        # interior points have identical normals at both radii; only border
        # points may drop out of the neighborhood requirements
        assert len(out) >= (20 - 4) * (20 - 4)
        field = compute_normal_field(pts, 0.01, 0.025)
        norms = np.linalg.norm(field.don[field.defined], axis=1)
        assert norms.max() < 1e-9

    def test_dihedral_edge_points_dropped(self):
        # two perpendicular 200 mm faces meeting along the y axis; the small
        # radius stays within one face for the tested band while the large
        # radius spans both, tilting the large-scale normal toward the fold
        pitch = 0.005
        face_a = planar_grid(40, 12, pitch)                      # z = 0 plane
        face_b = face_a.copy()
        face_b[:, 2] = -face_b[:, 0]                             # x -> -z wall
        face_b[:, 0] = 0.0
        pts = np.unique(np.vstack([face_a, face_b]), axis=0)
        viewpoint = np.array([0.3, 0.03, 0.8])
        r_s, r_l = 0.012, 0.1
        out = don_filter(pts, r_s, r_l, threshold=0.25, viewpoint=viewpoint)
        out_set = {tuple(np.round(p, 9)) for p in out}

        field = compute_normal_field(pts, r_s, r_l, viewpoint=viewpoint)
        norms = np.linalg.norm(field.don, axis=1)
        mid = (pts[:, 1] > 0.015) & (pts[:, 1] < 0.04) & (pts[:, 2] == 0)
        band = mid & (pts[:, 0] >= 0.015) & (pts[:, 0] <= 0.02)
        assert band.sum() > 0
        assert norms[band].min() > 0.25
        for p in pts[band]:
            assert tuple(np.round(p, 9)) not in out_set
        # face interiors far from the edge survive
        interior = mid & (pts[:, 0] > 0.15)
        assert all(tuple(np.round(p, 9)) in out_set for p in pts[interior])

    def test_normal_field_matches_pca_oracle(self):
        rng = np.random.default_rng(12)
        pts = planar_grid(12, 12, 0.01)
        pts[:, 2] += rng.normal(0, 0.002, size=len(pts))
        viewpoint = np.array([0.05, 0.05, 1.0])
        r_s, r_l = 0.02, 0.05
        field = compute_normal_field(pts, r_s, r_l, viewpoint=viewpoint)
        for i in range(0, len(pts), 17):
            for r, got in ((r_s, field.n_small[i]), (r_l, field.n_large[i])):
                nb = pts[brute_radius(pts, pts[i], r)]
                if len(nb) < 3:
                    assert not field.defined[i]
                    continue
                n, _ = lsq_plane(nb)
                if n @ (viewpoint - pts[i]) < 0:
                    n = -n
                if field.defined[i]:
                    assert got == pytest.approx(n, abs=1e-9)

    def test_don_norm_bounded_by_one(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 0.2, size=(300, 3))
        field = compute_normal_field(pts, 0.02, 0.05)
        norms = np.linalg.norm(field.don[field.defined], axis=1)
        if len(norms):
            assert norms.max() <= 1.0 + 1e-12

    def test_invalid_radii(self):
        with pytest.raises(ValueError):
            don_filter(np.zeros((10, 3)), r_small=0.02, r_large=0.02)

    def test_normals_unit_where_defined(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(0, 0.1, size=(200, 3))
        field = compute_normal_field(pts, 0.02, 0.04)
        for arr in (field.n_small, field.n_large):
            norms = np.linalg.norm(arr[field.defined], axis=1)
            assert np.abs(norms - 1).max() < 1e-9


def assert_same_arrays(got, ref):
    for g, r in zip(got, ref, strict=True):
        assert g.dtype == r.dtype
        assert np.array_equal(g, r)


class TestPaddedNeighborhoods:
    """Neighborhoods from one pair query equal one ball query per point."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(*[st.integers(1, 6)] * 3),
           pitch=st.sampled_from([1.0, 0.5, 0.25, 0.1, 0.04, 0.003]),
           squared=st.sampled_from([1, 2, 3, 4, 5, 8, 9]), min_count=st.integers(1, 8))
    def test_lattice_radii_on_lattice_distances(self, seed, shape, pitch, squared,
                                                min_count):
        rng = np.random.default_rng(seed)
        grid = np.indices(shape).reshape(3, -1).T * pitch
        pts = grid[rng.random(len(grid)) < 0.7]
        if len(pts) == 0:
            pts = grid[:1]
        radius = pitch * np.sqrt(squared)
        got = _padded_neighborhoods(cKDTree(pts), pts, radius, min_count)
        assert_same_arrays(got, oracles.radius_neighborhoods(pts, radius, min_count))

    def test_rows_match_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            pts = rng.uniform(-1, 1, size=(int(rng.integers(1, 300)), 3))
            radius = float(rng.uniform(0.05, 0.6))
            min_count = int(rng.integers(1, 6))
            rows, index, present = _padded_neighborhoods(cKDTree(pts), pts, radius, min_count)
            brute = [brute_radius(pts, p, radius) for p in pts]
            assert rows.tolist() == [i for i, b in enumerate(brute) if len(b) >= min_count]
            for row, idx, mask in zip(rows, index, present):
                assert np.array_equal(idx[mask], brute[row])
                assert not idx[~mask].any()

    def test_no_row_qualifies(self):
        pts = np.arange(12.0).reshape(4, 3)
        rows, index, present = _padded_neighborhoods(cKDTree(pts), pts, 0.5, 2)
        assert rows.shape == (0,)
        assert index.shape == present.shape == (0, 0)
        field = compute_normal_field(pts, 0.5, 1.0)
        assert not field.defined.any()


class TestVoxelGridAgainstReference:
    """Sort-based voxel groups equal unique rows plus add.at, value for value."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
           center=st.floats(-1e6, 1e6), spread=st.sampled_from([1e-3, 1.0, 1e3, 1e6]),
           leaf=st.sampled_from([1e-9, 1e-6, 0.003, 0.5, 7.0]),
           repeats=st.booleans())
    def test_matches_unique_rows_reference(self, seed, n, center, spread, leaf, repeats):
        rng = np.random.default_rng(seed)
        pts = center + rng.uniform(-spread, spread, size=(n, 3))
        if repeats:
            pts = pts[rng.integers(0, n, size=n)]
        got = voxel_grid_downsample(pts, leaf)
        ref = oracles.voxel_centroids(pts, leaf)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)

    def test_huge_key_span(self):
        # keys span about 2e15 voxels with negative coordinates
        pts = np.array([[-1e6, 3.0, -2.5], [1e6, -3.0, 2.5], [-1e6, 3.0, -2.5]])
        got = voxel_grid_downsample(pts, 1e-9)
        assert np.array_equal(got, oracles.voxel_centroids(pts, 1e-9))
        assert np.array_equal(got, pts[[0, 1]])

    def test_single_point(self):
        pts = np.array([[-0.123, 4.5, 1e-7]])
        assert np.array_equal(voxel_grid_downsample(pts, 0.01), pts)
