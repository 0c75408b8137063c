from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from binpick.conditioning import (
    _SYM_ENTRIES,
    _SYM_INDEX,
    _batched_normals,
    _eigh3,
    _radius_pairs,
    _solve_gram,
    compute_normal_field,
    don_filter,
    mls_resample,
    statistical_outlier_removal,
    voxel_grid_downsample,
)

from binpick.fusion import map_mask_to_cloud
from binpick.pipeline import segment_image

from . import oracles
from .oracles import brute_radius, lsq_plane, weighted_poly2_height_fit
from .test_pipeline import four_box_scene, synth_inputs


def planar_grid(nx, ny, pitch, z=0.0):
    xs = np.arange(nx) * pitch
    ys = np.arange(ny) * pitch
    xx, yy = np.meshgrid(xs, ys)
    return np.column_stack([xx.ravel(), yy.ravel(), np.full(xx.size, z)])


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
        out = mls_resample(pts, radius=0.03)
        assert np.abs(out[:, 2] - 0.05).max() < 1e-9
        assert np.abs(out - pts).max() < 1e-9

    def test_perturbed_point_pulled_to_plane(self):
        pts = planar_grid(13, 13, 0.005)
        idx = 84  # center point, ~75 neighbors within the radius
        pts[idx, 2] += 0.005
        out = mls_resample(pts, radius=0.025)
        assert abs(out[idx, 2]) < 0.001

    def test_perturbed_point_against_direct_fit(self):
        # replicate the projection with an independent weighted LS solve
        pts = planar_grid(9, 9, 0.01)
        idx = 40
        pts[idx, 2] += 0.005
        radius = 0.025
        out = mls_resample(pts, radius=radius)

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
        out = mls_resample(pts, radius=0.02)
        assert np.array_equal(out[-1], [1.0, 1.0, 1.0])

    def test_empty_input(self):
        assert mls_resample(np.zeros((0, 3)), radius=0.02).shape == (0, 3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            mls_resample(np.zeros((4, 3)), radius=-1)


class TestEstimateNormal:
    """Normals at single points, read off compute_normal_field's small radius."""

    def test_plane_normal_is_z_of_either_sign(self):
        pts = planar_grid(6, 6, 0.01, z=1.0)
        field = compute_normal_field(pts, 0.03, 0.05)
        assert field.defined[14]
        assert abs(field.n_small[14] @ [0, 0, 1]) == pytest.approx(1, abs=1e-9)

    def test_too_few_neighbors(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.0]])
        field = compute_normal_field(pts, 0.1, 0.2)
        assert not field.defined.any()
        assert not field.n_small.any() and not field.don.any()

    def test_collinear_neighborhood(self):
        pts = np.column_stack([np.linspace(0, 1, 10), np.zeros(10), np.zeros(10)])
        field = compute_normal_field(pts, 0.5, 0.6)
        assert not field.defined.any()
        assert not field.n_small.any() and not field.don.any()

    def test_residual_rms_equals_sqrt_smallest_eigenvalue(self):
        rng = np.random.default_rng(6)
        pts = planar_grid(7, 7, 0.01)
        pts[:, 2] += rng.normal(0, 0.001, size=len(pts))
        radius = 0.05
        field = compute_normal_field(pts, radius, 0.06)
        assert field.defined[24]
        n = field.n_small[24]
        nb = pts[brute_radius(pts, pts[24], radius)]
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
        r_s, r_l = 0.012, 0.1
        out = don_filter(pts, r_s, r_l, threshold=0.25)
        out_set = {tuple(np.round(p, 9)) for p in out}

        field = compute_normal_field(pts, r_s, r_l)
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
        r_s, r_l = 0.02, 0.05
        field = compute_normal_field(pts, r_s, r_l)
        for i in range(0, len(pts), 17):
            n_small = field.n_small[i]
            for r, got in ((r_s, n_small), (r_l, field.n_large[i])):
                nb = pts[brute_radius(pts, pts[i], r)]
                if len(nb) < 3:
                    assert not field.defined[i]
                    continue
                n, _ = lsq_plane(nb)
                # n_small up to sign, n_large up to the sign that agrees with n_small
                if n @ n_small < 0:
                    n = -n
                if field.defined[i]:
                    assert got == pytest.approx(n, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_don_is_sign_free(self, seed):
        # a fold of two perpendicular faces, one on z = 1 and the other close
        # to the plane x = 0: wherever a normal is defined, the large-radius
        # normal agrees in sign with the small-radius one, so the DoN norm is
        # a function of their angle alone. The squared form avoids the square
        # root's amplified rounding near 0.
        rng = np.random.default_rng(seed)
        flat = np.column_stack([rng.uniform(0, 0.06, 300), rng.uniform(-0.03, 0.03, 300),
                                np.ones(300)])
        wall = np.column_stack([rng.normal(0, 1e-4, 300), rng.uniform(-0.03, 0.03, 300),
                                rng.uniform(0.94, 1.0, 300)])
        field = compute_normal_field(np.vstack([flat, wall]), 0.01, 0.025)
        n_s, n_l = field.n_small[field.defined], field.n_large[field.defined]
        cos = np.einsum("mi,mi->m", n_s, n_l)
        assert (cos >= 0).all()
        don_sq = (field.don[field.defined] ** 2).sum(1)
        assert np.abs(don_sq - (1 - cos) / 2).max() <= 1e-12

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


def padded_rows(pairs, counts, min_count):
    """(rows, index, present) blocks rebuilt from the pair list: each qualifying
    point's members, itself included, in ascending order."""
    n = len(counts)
    members = [[i] for i in range(n)]
    for i, j in pairs.tolist():
        members[i].append(j)
        members[j].append(i)
    rows = np.flatnonzero(counts >= min_count)
    present = np.arange(counts[rows].max(initial=0)) < counts[rows, None]
    index = np.zeros(present.shape, dtype=np.int64)
    index[present] = [m for i in rows for m in sorted(members[i])]
    return rows, index, present


class TestRadiusPairs:
    """One pair query gives the same neighborhoods as one ball query per point."""

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
        pairs, counts = _radius_pairs(cKDTree(pts), radius)
        assert (pairs[:, 0] < pairs[:, 1]).all()
        assert len(np.unique(pairs, axis=0)) == len(pairs)
        got = padded_rows(pairs, counts, min_count)
        for g, r in zip(got, oracles.radius_neighborhoods(pts, radius, min_count), strict=True):
            assert np.array_equal(g, r)

    def test_rows_match_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            pts = rng.uniform(-1, 1, size=(int(rng.integers(1, 300)), 3))
            radius = float(rng.uniform(0.05, 0.6))
            pairs, counts = _radius_pairs(cKDTree(pts), radius)
            brute = [brute_radius(pts, p, radius) for p in pts]
            assert counts.tolist() == [len(b) for b in brute]
            rows, index, present = padded_rows(pairs, counts, 1)
            for row, idx, mask in zip(rows, index, present):
                assert np.array_equal(idx[mask], brute[row])

    def test_no_row_qualifies(self):
        pts = np.arange(12.0).reshape(4, 3)
        pairs, counts = _radius_pairs(cKDTree(pts), 0.5)
        assert pairs.shape == (0, 2)
        assert counts.tolist() == [1, 1, 1, 1]
        field = compute_normal_field(pts, 0.5, 1.0)
        assert not field.defined.any()
        assert np.array_equal(mls_resample(pts, 0.5), pts)


def rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def noisy_patch(rng, noise):
    """A tilted, randomly placed, gently curved grid patch with depth noise."""
    pitch = float(rng.uniform(0.003, 0.01))
    pts = planar_grid(int(rng.integers(4, 14)), int(rng.integers(4, 14)), pitch)
    pts[:, 2] = float(rng.uniform(-2, 2)) * pts[:, 0] * pts[:, 1] + rng.normal(0, noise, len(pts))
    pts = pts @ rotation(rng).T + rng.uniform(-1, 1, 3) + [0, 0, 1.5]
    return pts, pitch * float(rng.uniform(1.5, 4))


def planar_lattice(rng, squared):
    """A 2D lattice subset in an axis plane; the radius is a lattice distance."""
    pitch = float(rng.choice([0.5, 0.04, 0.003]))
    shape = [int(rng.integers(2, 9)), int(rng.integers(2, 9)), 1]
    grid = np.indices(shape).reshape(3, -1).T * pitch
    pts = grid[rng.random(len(grid)) < 0.8][:, rng.permutation(3)] + rng.integers(-3, 4, 3)
    return (pts if len(pts) else grid[:1]), pitch * np.sqrt(squared)


def duplicates(rng):
    """A few distinct points, each repeated."""
    radius = float(rng.uniform(0.01, 0.1))
    distinct = rng.uniform(-radius / 2, radius / 2, (int(rng.integers(1, 5)), 3))
    return np.repeat(distinct, int(rng.integers(2, 12)), axis=0) + [0.1, -0.2, 0.9], radius


def collinear(rng):
    """Points along one line through a random point; about one step in five
    is zero, which repeats a point exactly."""
    k = int(rng.integers(3, 41))
    t = np.cumsum(rng.uniform(0, 0.01, k) * (rng.random(k) < 0.8))
    direction = rng.normal(size=3)
    pts = rng.uniform(-1, 1, 3) + t[:, None] * direction / np.linalg.norm(direction)
    return pts, float(rng.uniform(0.01, 0.2))


def edge_on_plane(rng, noise):
    """A plane through the viewpoint (the sensor origin), so it is seen edge-on."""
    pts = planar_grid(int(rng.integers(4, 12)), int(rng.integers(4, 12)), 0.005)
    pts = pts[:, [0, 2, 1]] + [0.3, 0.0, 0.8]            # the x-z plane, y = 0
    pts[:, 1] += rng.normal(0, noise, len(pts)) if noise else 0.0
    return pts, 0.012


def pair_input(kind, rng):
    if kind == "noisy_patch":
        return noisy_patch(rng, float(rng.choice([1e-5, 1e-4, 1e-3])))
    if kind == "lattice":
        return planar_lattice(rng, int(rng.choice([1, 2, 4, 5, 8])))
    if kind == "duplicates":
        return duplicates(rng)
    if kind == "collinear":
        return collinear(rng)
    return edge_on_plane(rng, float(rng.choice([0.0, 1e-5])))


KINDS = ["noisy_patch", "lattice", "duplicates", "collinear", "edge_on"]


def design_singular_ratio(pts, i, radius):
    """Smallest over largest singular value of the weighted quadratic design
    that the padded reference fits at point i."""
    nb = pts[brute_radius(pts, pts[i], radius)]
    w = np.exp(-((nb - pts[i]) ** 2).sum(1) / (2 * (radius / 2) ** 2))
    rel = nb - (nb * w[:, None]).sum(0) / w.sum()
    _, evecs = np.linalg.eigh(np.einsum("ki,k,kj->ij", rel, w, rel))
    uv = rel @ evecs[:, [2, 1]] / radius
    design = oracles.polynomial_design(uv[:, 0], uv[:, 1], 2) * np.sqrt(w)[:, None]
    s = np.linalg.svd(design, compute_uv=False)
    return s[-1] / s[0]


class TestAgainstPaddedReference:
    """Pair-moment MLS and normals against the padded-block references."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS))
    def test_mls_matches_reference(self, seed, kind):
        # Equal to rounding wherever the fit is well conditioned or singular to
        # working precision. A nearly singular design (a few neighbors close to
        # a conic) is solved through its Gram matrix, which squares the
        # condition number, so only those points are exempt.
        pts, radius = pair_input(kind, np.random.default_rng(seed))
        diff = np.abs(mls_resample(pts, radius)
                      - oracles.padded_mls_resample(pts, radius, 2)).max(1)
        for i in np.flatnonzero(diff > 1e-12):
            assert 1e-14 < design_singular_ratio(pts, i, radius) < 1e-4

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS + ["lattice3d"]))
    def test_normals_match_reference(self, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "lattice3d":
            grid = np.indices((4, 4, 3)).reshape(3, -1).T * 0.01
            pts, radius = grid[rng.random(len(grid)) < 0.7], 0.01 * np.sqrt(rng.choice([1, 2, 3]))
        else:
            pts, radius = pair_input(kind, rng)
        got, defined = _batched_normals(pts, cKDTree(pts), radius)
        ref, ref_defined = oracles.padded_normals(pts, radius)
        assert np.array_equal(defined, ref_defined)
        assert not got[~defined].any()
        for i in np.flatnonzero(defined):
            nb = pts[brute_radius(pts, pts[i], radius)]
            evals = np.linalg.eigvalsh(np.cov(nb.T, bias=True))
            if evals[1] - evals[0] <= 1e-6 * evals[2]:
                continue                                 # the normal axis is not unique
            assert abs(got[i] @ ref[i]) >= 1 - 1e-12


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

    def test_keys_past_int64(self):
        # pts / leaf reaches about 1e299: each point stays its own voxel
        pts = np.array([[0.1, 0.2, 0.3], [-0.1, 0.2, 0.3], [0.1, 0.2, 0.3]])
        assert np.array_equal(voxel_grid_downsample(pts, 1e-300), pts[[1, 0]])

    def test_single_point(self):
        pts = np.array([[-0.123, 4.5, 1e-7]])
        assert np.array_equal(voxel_grid_downsample(pts, 0.01), pts)


EPS = np.finfo(float).eps


@contextmanager
def lapack_calls():
    """Wraps np.linalg.eigh and np.linalg.pinv; yields the stacks each got."""
    calls = {"eigh": [], "pinv": []}
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            def counted(a, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                calls[_name].append(np.array(a))
                return _real(a, *args, **kwargs)

            mp.setattr(np.linalg, name, counted)
        yield calls


def rows(stacks):
    return sum(len(a) for a in stacks)


def symmetric_entries(full):
    """(n, 3, 3) symmetric matrices -> their distinct entries (6, n)."""
    return np.stack([full[:, r, c] for r, c in _SYM_ENTRIES])


@st.composite
def symmetric_stacks(draw):
    """Rotated diagonal matrices with repeated, zero and negative eigenvalues,
    rank-1 and rank-2 stacks, multiples of the identity, a lambda1/lambda2
    ratio at the normal field's 1e-9, and covariances of exact lattice
    neighborhoods; each stack is scaled by one of 1e-300 .. 1e300."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "repeated", "rank1", "rank2", "identity",
                                 "threshold", "lattice"]))
    if kind == "lattice":
        pts = np.indices((3, 3, 2)).reshape(3, -1).T * float(rng.choice([1.0, 0.5, 0.003]))
        full = []
        for _ in range(n):
            nb = pts[rng.random(len(pts)) < 0.6]
            nb = nb[:, rng.permutation(3)] if len(nb) else pts[:1]
            rel = nb - nb.mean(0)
            full.append(rel.T @ rel / len(nb))
        full = np.array(full)
    else:
        choices = {"random": lambda: rng.normal(size=3),
                   "repeated": lambda: rng.choice([-2.0, 0.0, 1.0, 3.0], size=3),
                   "rank1": lambda: [0.0, 0.0, rng.normal()],
                   "rank2": lambda: [0.0, rng.normal(), rng.normal()],
                   "identity": lambda: [1.0, 1.0, 1.0],
                   "threshold": lambda: [0.0, 1e-9, 1.0]}
        diag = np.array([choices[kind]() for _ in range(n)], dtype=float)
        q, r = np.linalg.qr(rng.normal(size=(n, 3, 3)))
        rot = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
        if draw(st.booleans()):
            rot = np.broadcast_to(np.eye(3), (n, 3, 3))
        full = np.einsum("nij,nj,nkj->nik", rot, diag, rot)
        full = (full + full.transpose(0, 2, 1)) / 2
    return full * draw(st.sampled_from([1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300]))


class TestEigh3:
    """The closed-form 3x3 solver against np.linalg.eigh."""

    @settings(max_examples=300, deadline=None)
    @given(full=symmetric_stacks())
    def test_matches_eigh(self, full):
        with lapack_calls() as calls:
            evals, evecs = _eigh3(symmetric_entries(full))
        ref_vals, _ = np.linalg.eigh(full)
        w, v = evals.T, evecs.transpose(2, 1, 0)          # as eigh returns them
        assert (np.diff(w, axis=1) >= 0).all()
        top = np.abs(ref_vals).max(axis=1)
        assert (np.abs(w - ref_vals).max(axis=1) <= 16 * EPS * top).all()
        assert np.abs(np.einsum("nik,nil->nkl", v, v) - np.eye(3)).max() <= 8 * EPS
        # residual in the power-of-two scaling that keeps every entry finite
        _, exponent = np.frexp(np.abs(full).max(axis=(1, 2)))
        a = np.ldexp(full, -exponent[:, None, None])
        lam = np.ldexp(w, -exponent[:, None])
        residual = np.linalg.norm(a @ v - v * lam[:, None, :], axis=1).max(axis=1)
        assert (residual <= 16 * EPS * np.linalg.norm(a, ord=2, axis=(1, 2))).all()

        # a row that went to eigh carries eigh's answer bit for bit
        for stack in calls["eigh"]:
            ref_w, ref_v = np.linalg.eigh(stack)
            for m, matrix in enumerate(stack):
                rows = np.flatnonzero((full == matrix).all(axis=(1, 2)))
                assert len(rows)
                assert np.array_equal(w[rows], np.broadcast_to(ref_w[m], (len(rows), 3)))
                assert np.array_equal(v[rows], np.broadcast_to(ref_v[m], (len(rows), 3, 3)))

    def test_fallback_rows(self):
        """Zero matrices, multiples of the identity and a lambda1/lambda2 ratio
        at 1e-9 go to eigh; a plane-like covariance and a repeated pair do not."""
        rot = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
        diags = [[0, 0, 0], [2, 2, 2], [0, 1e-9, 1], [1e-6, 0.3, 1], [1, 1, 2], [1, 2, 2]]
        full = np.array([rot @ np.diag(d) @ rot.T for d in diags])
        full = (full + full.transpose(0, 2, 1)) / 2
        full[:2] = [np.zeros((3, 3)), 2 * np.eye(3)]
        with lapack_calls() as calls:
            _eigh3(symmetric_entries(full))
        assert rows(calls["eigh"]) == 3
        assert np.array_equal(np.concatenate(calls["eigh"]), full[:3])

    def test_plane_normal_within_rounding(self):
        rng = np.random.default_rng(8)
        pts = planar_grid(9, 9, 0.004) + rng.normal(0, 2e-4, (81, 3)) + [0.1, -0.2, 0.9]
        rel = pts - pts.mean(0)
        full = np.array([rel.T @ rel / len(pts)])
        evals, evecs = _eigh3(symmetric_entries(full))
        ref_vals, ref_vecs = np.linalg.eigh(full)
        assert np.linalg.norm(np.cross(evecs[0, :, 0], ref_vecs[0, :, 0])) < 1e-12
        assert np.abs(evals[:, 0] - ref_vals[0]).max() <= 8 * EPS * ref_vals[0, 2]


def weighted_gram(u, v, w, h, order):
    """Gram matrix (k, k) and right-hand side (k,) of the weighted height design."""
    design = oracles.polynomial_design(u, v, order)
    return design.T @ (design * w[:, None]), design.T @ (w * h)


def gram_stack(systems):
    gram = np.stack([g for g, _ in systems], axis=-1)
    rhs = np.stack([r for _, r in systems], axis=-1)
    return gram, rhs


def pinv_solution(gram, rhs):
    """pinv(hermitian=True) applied over row-major (m, k, k) and (m, k) stacks."""
    inverse = np.linalg.pinv(gram.transpose(2, 0, 1), hermitian=True)
    return np.einsum("mst,mt->ms", inverse, np.ascontiguousarray(rhs.T)).T


class TestSolveGram:
    """The stacked Cholesky solve against pinv(hermitian=True)."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), order=st.sampled_from([1, 2]),
           n=st.integers(1, 30))
    def test_well_conditioned_agrees(self, seed, order, n):
        rng = np.random.default_rng(seed)
        systems = []
        for _ in range(n):
            k = int(rng.integers(12, 60))
            u, v = rng.uniform(-1, 1, (2, k))
            w = np.exp(-rng.uniform(0, 2, k))
            systems.append(weighted_gram(u, v, w, rng.normal(0, 0.01, k), order))
        gram, rhs = gram_stack(systems)
        well = np.flatnonzero(np.linalg.cond(gram.transpose(2, 0, 1)) < 1e4)
        with lapack_calls() as calls:
            got = _solve_gram(gram, rhs)
        ref = pinv_solution(gram, rhs)
        assert rows(calls["pinv"]) <= n - len(well)
        err = np.linalg.norm(got - ref, axis=0)[well]
        assert (err <= 1e-12 * np.linalg.norm(ref, axis=0)[well]).all()

    @pytest.mark.parametrize("order", [1, 2])
    def test_singular_systems_take_pinv(self, order):
        rng = np.random.default_rng(order)
        t = rng.uniform(-1, 1, 20)
        # a lattice two columns wide has u^2 = u / 4 on it, one row wide u = 0
        lattice = np.indices((2, 5) if order == 2 else (1, 5)).reshape(2, -1) / 4
        systems = [
            weighted_gram(t, np.zeros(20), np.ones(20), rng.normal(0, 0.01, 20), order),
            weighted_gram(t, 0.5 * t, np.exp(-t * t), rng.normal(0, 0.01, 20), order),
            weighted_gram(np.full(8, 0.3), np.full(8, -0.2), np.ones(8), np.full(8, 0.01), order),
            weighted_gram(*lattice, np.ones(lattice.shape[1]),
                          np.arange(lattice.shape[1]) / 100, order),
        ]
        gram, rhs = gram_stack(systems)
        with lapack_calls() as calls:
            got = _solve_gram(gram, rhs)
        assert rows(calls["pinv"]) == len(systems)
        assert np.array_equal(got, pinv_solution(gram, rhs))


def test_benchmark_like_frame_stays_off_lapack():
    """On the criterion-6 scene at 640x480 with 2 mm noise, no covariance
    and no Gram matrix of the fused masks reaches LAPACK. The degenerate
    control shows the wrappers see the solvers' fallback."""
    img, cloud, config = synth_inputs(four_box_scene(noise_sigma_m=0.002, seed=0))
    _, masks = segment_image(config, img, "parent")
    assert len(masks) == 4
    conditioned = 0
    with lapack_calls() as calls:
        for mask in masks:
            pts = map_mask_to_cloud(mask, config.homography, cloud).points
            pts = voxel_grid_downsample(pts, config.voxel_leaf_m)
            pts = statistical_outlier_removal(pts, config.sor_k, config.sor_alpha)
            pts = mls_resample(pts, config.mls_radius_m)
            field = compute_normal_field(pts, config.don_radius_small_m,
                                         config.don_radius_large_m)
            assert field.defined.mean() > 0.9
            conditioned += len(pts)
    assert conditioned > 1000
    assert rows(calls["eigh"]) == 0 and rows(calls["pinv"]) == 0

    duplicates = np.repeat([[0.1, 0.2, 0.9], [0.1, 0.2, 0.901]], 10, axis=0)
    with lapack_calls() as calls:
        mls_resample(duplicates, 0.01)
        compute_normal_field(duplicates[:10], 0.01, 0.02)
    assert rows(calls["pinv"]) == 20 and rows(calls["eigh"]) == 20
