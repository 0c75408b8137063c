import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binpick.core import OrganizedCloud
from binpick.errors import ConfigError, EmptyClusterError
from binpick.fusion import MAP_CHUNK_PX, Homography, estimate_homography, map_mask_to_cloud
from binpick.segmentation import BinaryMask

from . import oracles


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
        mask = BinaryMask.from_bits(np.ones((6, 8), dtype=bool), role="parent")
        out = map_mask_to_cloud(mask, Homography(np.eye(3)), cloud)
        assert len(out.points) == 48

    def test_empty_mask_raises(self):
        cloud = full_valid_cloud()
        mask = BinaryMask.from_bits(np.zeros((6, 8), dtype=bool), role="child")
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
            map_mask_to_cloud(BinaryMask.from_bits(bits, role="child"),
                              Homography(np.eye(3)), cloud)

    def test_denominator_of_one_sign_over_the_mask_frame(self):
        # g x + k y + l is 1 - x / 7: zero at column 7, the last corner
        # column of an 8-wide frame but outside a 7-wide one.
        homography = Homography([[1, 0, 0], [0, 1, 0], [-1 / 7, 0, 1]])
        cloud = full_valid_cloud()
        wide = BinaryMask.from_bits(np.ones((6, 8), dtype=bool), role="parent")
        with pytest.raises(ConfigError, match="denominator"):
            map_mask_to_cloud(wide, homography, cloud)
        narrow = BinaryMask.from_bits(np.ones((6, 7), dtype=bool), role="parent")
        assert len(map_mask_to_cloud(narrow, homography, cloud).points) > 0
        beyond = Homography([[1, 0, 0], [0, 1, 0], [-1 / 7.5, 0, 1]])
        assert len(map_mask_to_cloud(wide, beyond, cloud).points) > 0

    def test_duplicates_collapse(self):
        cloud = full_valid_cloud()
        # scale 2K-ish mask down: many mask pixels land on one cell
        scale = np.array([[0.25, 0, 0], [0, 0.25, 0], [0, 0, 1.0]])
        mask = BinaryMask.from_bits(np.ones((24, 32), dtype=bool), role="parent")
        out = map_mask_to_cloud(mask, Homography(scale), cloud)
        assert len(out.points) == 48  # every cell hit once despite 768 mask bits

    def test_output_bounded_by_popcount_and_valid(self):
        cloud = full_valid_cloud()
        bits = np.zeros((6, 8), dtype=bool)
        bits[2:4, 3:6] = True
        out = map_mask_to_cloud(BinaryMask.from_bits(bits, role="child"),
                                Homography(np.eye(3)), cloud)
        assert len(out.points) <= bits.sum()
        assert len(out.points) <= cloud.valid.sum()


RGB_SHAPE = (320, 416)  # 133,120 pixels: masks below span two or three chunks
GRID_SHAPE = (64, 80)


def random_homography(rng, projective):
    """Maps the RGB frame about onto the depth grid: scaled by 0.9-1.1 of the
    grid's size, turned by up to 20 degrees about the frame centre and shifted
    by up to 8 cells, so some pixels fall off the grid. Projective terms keep
    the third coordinate within 1 +- 0.6 over the frame."""
    h, w = RGB_SHAPE
    gh, gw = GRID_SHAPE
    turn = np.radians(rng.uniform(-20, 20))
    rot = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    a = rot @ np.diag(rng.uniform(0.9, 1.1, 2) * (gw / w, gh / h))
    m = np.eye(3)
    m[:2, :2] = a
    m[:2, 2] = np.array([gw, gh]) / 2 - a @ (np.array([w, h]) / 2) + rng.uniform(-8, 8, 2)
    if projective:
        m[2, :2] = rng.uniform(-0.3, 0.3, 2) / (w, h)
    return Homography(m)


class TestChunkedMapAgainstWholeMask:
    """Mapping a mask's pixels MAP_CHUNK_PX at a time collects the points of
    mapping the whole bitmap at once: the same points in the same order."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), projective=st.booleans(),
           density=st.floats(0.55, 1.0))
    def test_random_masks_and_homographies(self, seed, projective, density):
        rng = np.random.default_rng(seed)
        bits = rng.random(RGB_SHAPE) < density
        assert np.count_nonzero(bits) > MAP_CHUNK_PX
        homography = random_homography(rng, projective)
        cloud = OrganizedCloud(points=rng.normal(size=(*GRID_SHAPE, 3)),
                               valid=rng.random(GRID_SHAPE) < 0.8)
        got = map_mask_to_cloud(BinaryMask.from_bits(bits, "parent"), homography, cloud)
        assert np.array_equal(got.points, oracles.map_mask_to_cloud(bits, homography, cloud))


class TestSmallMasksAgainstWholeMask:
    """Masks below one chunk, down to one pixel or one row, collect the
    oracle's points; a mask mapped wholly off the grid, or onto invalid cells
    only, raises EmptyClusterError."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), projective=st.booleans(),
           shape=st.sampled_from(["pixel", "row", "box", "scatter"]),
           valid_fraction=st.floats(0.0, 1.0), off_grid=st.booleans())
    def test_small_masks(self, seed, projective, shape, valid_fraction, off_grid):
        rng = np.random.default_rng(seed)
        h, w = RGB_SHAPE
        y, x = int(rng.integers(0, h)), int(rng.integers(0, w))
        bits = np.zeros(RGB_SHAPE, dtype=bool)
        if shape == "pixel":
            bits[y, x] = True
        elif shape == "row":
            bits[y, x:x + int(rng.integers(1, w - x + 1))] = True
        elif shape == "box":
            bits[y:y + int(rng.integers(1, 160)), x:x + int(rng.integers(1, 200))] = True
        else:
            bits = rng.random(RGB_SHAPE) < rng.uniform(0.0, 0.45)
        assert np.count_nonzero(bits) <= MAP_CHUNK_PX
        homography = random_homography(rng, projective)
        if off_grid:  # shifts every mapped cell ten grid widths right
            shift = np.eye(3)
            shift[0, 2] = 10 * GRID_SHAPE[1]
            homography = Homography(shift @ homography.h)
        cloud = OrganizedCloud(points=rng.normal(size=(*GRID_SHAPE, 3)),
                               valid=rng.random(GRID_SHAPE) < valid_fraction)
        want = oracles.map_mask_to_cloud(bits, homography, cloud)
        mask = BinaryMask.from_bits(bits, "child")
        if off_grid or len(want) == 0:
            assert len(want) == 0
            with pytest.raises(EmptyClusterError):
                map_mask_to_cloud(mask, homography, cloud)
        else:
            assert np.array_equal(map_mask_to_cloud(mask, homography, cloud).points, want)

        ys, xs = np.nonzero(bits)
        columns = np.column_stack(homography._map_columns(xs, ys))
        assert np.array_equal(homography.map_points(np.column_stack([xs, ys])), columns)
