import numpy as np
import pytest

from binpick.core import OrganizedCloud
from binpick.errors import EmptyClusterError
from binpick.fusion import Homography, estimate_homography, map_mask_to_cloud
from binpick.segmentation import BinaryMask


def full_valid_cloud(w=8, h=6):
    pts = np.zeros((h, w, 3))
    pts[..., 0] = np.arange(w)[None, :] * 0.01
    pts[..., 1] = np.arange(h)[:, None] * 0.01
    pts[..., 2] = 1.0
    return OrganizedCloud(points=pts, valid=np.ones((h, w), dtype=bool))


class TestEstimateHomography:
    def test_identity_from_identical_pairs(self):
        src = np.array([[0, 0], [10, 0], [0, 10], [10, 10.0]])
        h = estimate_homography(src, src)
        assert h.h == pytest.approx(np.eye(3), abs=1e-9)

    def test_pure_shift(self):
        src = np.array([[0, 0], [10, 0], [0, 10], [10, 10.0]])
        dst = src + np.array([5.0, 7.0])
        h = estimate_homography(src, dst)
        expected = np.array([[1, 0, 5], [0, 1, 7], [0, 0, 1.0]])
        assert h.h == pytest.approx(expected, abs=1e-9)

    def test_three_pairs_rejected(self):
        src = np.array([[0, 0], [1, 0], [0, 1.0]])
        with pytest.raises(ValueError):
            estimate_homography(src, src)

    def test_collinear_pairs_rejected(self):
        src = np.array([[0, 0], [1, 1], [2, 2], [3, 3.0]])
        with pytest.raises(ValueError):
            estimate_homography(src, src)

    def test_duplicate_points_rejected(self):
        src = np.array([[0, 0], [0, 0], [1, 0], [0, 1.0]])
        with pytest.raises(ValueError):
            estimate_homography(src, src)

    def test_roundtrip_within_half_pixel(self):
        rng = np.random.default_rng(0)
        src = rng.uniform(0, 2048, size=(4, 2))
        dst = rng.uniform(0, 224, size=(4, 2))
        h = estimate_homography(src, dst)
        assert np.abs(h.map_points(src) - dst).max() < 0.5

    def test_recovers_known_homography(self):
        rng = np.random.default_rng(1)
        true = np.array([[0.11, 0.01, 3.0],
                         [-0.02, 0.12, 7.0],
                         [1e-5, -2e-5, 1.0]])
        for _ in range(20):
            src = rng.uniform(0, 2048, size=(6, 2))
            mapped = Homography(true).map_points(src)
            est = estimate_homography(src, mapped)
            assert np.abs(est.h - true).max() / np.abs(true).max() < 1e-6

    def test_homography_validation(self):
        with pytest.raises(ValueError):
            Homography(np.zeros((3, 3)))
        singular = np.array([[1, 0, 0], [2, 0, 0], [0, 0, 1.0]])
        with pytest.raises(ValueError):
            Homography(singular)


class TestMapMaskToCloud:
    def test_full_frame_identity_collects_everything(self):
        cloud = full_valid_cloud()
        mask = BinaryMask(bits=np.ones((6, 8), dtype=bool), role="parent")
        out = map_mask_to_cloud(mask, Homography(np.eye(3)), cloud)
        assert len(out.points) == 48

    def test_empty_mask_raises(self):
        cloud = full_valid_cloud()
        mask = BinaryMask(bits=np.zeros((6, 8), dtype=bool), role="child")
        with pytest.raises(EmptyClusterError):
            map_mask_to_cloud(mask, Homography(np.eye(3)), cloud)

    def test_invalid_region_raises(self):
        pts = np.zeros((6, 8, 3))
        valid = np.ones((6, 8), dtype=bool)
        valid[:, :4] = False
        cloud = OrganizedCloud(points=pts, valid=valid)
        bits = np.zeros((6, 8), dtype=bool)
        bits[:, :4] = True
        with pytest.raises(EmptyClusterError):
            map_mask_to_cloud(BinaryMask(bits=bits, role="child"),
                              Homography(np.eye(3)), cloud)

    def test_duplicates_collapse(self):
        cloud = full_valid_cloud()
        # scale 2K-ish mask down: many mask pixels land on one cell
        scale = np.array([[0.25, 0, 0], [0, 0.25, 0], [0, 0, 1.0]])
        mask = BinaryMask(bits=np.ones((24, 32), dtype=bool), role="parent")
        out = map_mask_to_cloud(mask, Homography(scale), cloud)
        assert len(out.points) == 48  # every cell hit once despite 768 mask bits

    def test_output_bounded_by_popcount_and_valid(self):
        cloud = full_valid_cloud()
        bits = np.zeros((6, 8), dtype=bool)
        bits[2:4, 3:6] = True
        out = map_mask_to_cloud(BinaryMask(bits=bits, role="child"),
                                Homography(np.eye(3)), cloud)
        assert len(out.points) <= bits.sum()
        assert len(out.points) <= cloud.valid.sum()
