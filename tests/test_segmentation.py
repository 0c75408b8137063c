import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from binpick.segmentation import (
    BINOMIAL_TAPS,
    DEFAULT_CANNY_SIGMA,
    DIFFERENCE_TAPS,
    GAUSSIAN_3X3,
    KGX,
    KGY,
    BinaryMask,
    Contour,
    GrayImage,
    auto_canny,
    extract_roi,
    find_contours,
    gaussian_smooth_3x3,
    generate_masks,
    refine_contours,
    scaled_min_area,
    sobel_gradients,
)
from binpick.segmentation import _rint_sixteenths

from . import oracles


def ring_bitmap(h, w, y0, y1, x0, x1):
    """Hollow rectangle of edge pixels, inclusive bounds."""
    e = np.zeros((h, w), dtype=bool)
    e[y0, x0:x1 + 1] = True
    e[y1, x0:x1 + 1] = True
    e[y0:y1 + 1, x0] = True
    e[y0:y1 + 1, x1] = True
    return e


class TestKernels:
    def test_exact_matrices(self):
        assert np.array_equal(KGX, [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]])
        assert np.array_equal(KGY, [[1, 2, 1], [0, 0, 0], [-1, -2, -1]])
        assert KGX.sum() == 0 and KGY.sum() == 0

    def test_separable_factors(self):
        assert np.array_equal(np.outer(BINOMIAL_TAPS, DIFFERENCE_TAPS), KGX)
        assert np.array_equal(np.outer(DIFFERENCE_TAPS[::-1], BINOMIAL_TAPS), KGY)
        assert np.array_equal(np.outer(BINOMIAL_TAPS, BINOMIAL_TAPS), 16 * GAUSSIAN_3X3)


@st.composite
def gray_images(draw):
    """uint8 images from 3x3 to 64x64: two-level blocks or full-range texture."""
    h = draw(st.integers(3, 64))
    w = draw(st.integers(3, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        lo, hi = sorted(draw(st.lists(st.integers(0, 255), min_size=2, max_size=2)))
        cell = draw(st.integers(1, 8))
        coarse = rng.random(((h + cell - 1) // cell, (w + cell - 1) // cell)) < 0.5
        px = np.where(np.kron(coarse, np.ones((cell, cell), dtype=bool))[:h, :w], hi, lo)
    else:
        px = rng.integers(0, 256, size=(h, w))
    return px.astype(np.uint8)


class TestAgainstFloatReference:
    """Integer kernels and candidate-only suppression give the arrays of the
    9-tap float64 correlation and full-frame suppression."""

    @settings(max_examples=150, deadline=None)
    @given(px=gray_images(), sigma=st.floats(0.05, 0.95))
    def test_smooth_sobel_canny(self, px, sigma):
        img = GrayImage(px)
        assert np.array_equal(gaussian_smooth_3x3(img).pixels, oracles.smooth_3x3(px))
        gx, gy = sobel_gradients(img)
        rgx, rgy, rmag = oracles.sobel(px)
        assert gx.dtype == gy.dtype == np.int16
        assert np.array_equal(gx, rgx) and np.array_equal(gy, rgy)
        assert np.array_equal(np.hypot(gx.astype(np.float64), gy.astype(np.float64)), rmag)
        assert np.array_equal(auto_canny(img, sigma), oracles.canny(px, sigma))


class TestIntegerArithmetic:
    """The integer shortcuts hold for every value they can meet."""

    def test_rint_sixteenths_every_sum(self):
        # 16-weight binomial sums over 8-bit pixels lie in 0..4080
        sums = np.arange(16 * 255 + 1, dtype=np.uint16)
        got = _rint_sixteenths(sums.copy())
        assert got.dtype == np.uint16
        assert np.array_equal(got, np.rint(sums / 16.0))

    def test_l1_norm_bounds_magnitude_for_every_gradient(self):
        # Sobel responses over 8-bit pixels lie in [-1020, 1020]; the int16
        # |gx| + |gy| that picks Canny candidates never falls below hypot.
        g = np.arange(-1020, 1021, dtype=np.int16)
        for gx in np.array_split(g, 8):
            gx, gy = np.broadcast_arrays(gx[:, None], g[None, :])
            l1 = np.abs(gx) + np.abs(gy)
            assert l1.dtype == np.int16
            assert np.all(np.hypot(gx.astype(np.float64), gy.astype(np.float64)) <= l1)


class TestExtractRoi:
    def test_full_frame_is_identity(self):
        img = GrayImage(np.arange(100 * 100, dtype=np.uint8).reshape(100, 100) % 251)
        out = extract_roi(img, (0, 0, 100, 100))
        assert np.array_equal(out.pixels, img.pixels)

    def test_crop(self):
        img = GrayImage(np.arange(100 * 100, dtype=np.uint8).reshape(100, 100) % 251)
        out = extract_roi(img, (10, 10, 50, 50))
        assert out.width == 50 and out.height == 50
        assert np.array_equal(out.pixels, img.pixels[10:60, 10:60])

    def test_out_of_bounds_rejected(self):
        img = GrayImage(np.zeros((100, 100), dtype=np.uint8))
        with pytest.raises(ValueError):
            extract_roi(img, (60, 60, 50, 50))


class TestGaussianSmooth:
    def test_constant_preserved(self):
        img = GrayImage(np.full((10, 10), 128, dtype=np.uint8))
        assert np.array_equal(gaussian_smooth_3x3(img).pixels, img.pixels)

    def test_single_bright_pixel(self):
        px = np.zeros((9, 9), dtype=np.uint8)
        px[4, 4] = 255
        out = gaussian_smooth_3x3(GrayImage(px)).pixels
        assert out[4, 4] == 64          # 255 * 4/16 rounded
        assert out[4, 3] == 32          # 255 * 2/16 rounded
        assert out[3, 3] == 16          # 255 * 1/16 rounded

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        px = rng.integers(0, 256, size=(20, 20), dtype=np.uint8)
        a = gaussian_smooth_3x3(GrayImage(px)).pixels
        b = gaussian_smooth_3x3(GrayImage(px.copy())).pixels
        assert np.array_equal(a, b)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            gaussian_smooth_3x3(GrayImage(np.zeros((2, 5), dtype=np.uint8)))


class TestSobel:
    def test_constant_image_zero_gradient(self):
        img = GrayImage(np.full((8, 8), 77, dtype=np.uint8))
        gx, gy = sobel_gradients(img)
        assert np.abs(gx).max() == 0 and np.abs(gy).max() == 0

    def test_horizontal_ramp(self):
        px = np.tile(np.array([0, 1, 2], dtype=np.uint8), (3, 1))
        gx, gy = sobel_gradients(GrayImage(px))
        assert gx[1, 1] == 8
        assert gy[1, 1] == 0

    def test_vertical_ramp_sign(self):
        px = np.tile(np.array([[0], [1], [2]], dtype=np.uint8), (1, 3))
        gx, gy = sobel_gradients(GrayImage(px))
        assert gx[1, 1] == 0
        assert gy[1, 1] == -8

    def test_ramp_slope_scales_interior(self):
        # slope s in x gives gx = 8 s and gy = 0 at every interior pixel
        for s in (1, 3, 7, 21):
            px = np.tile(np.arange(12, dtype=np.int64) * s, (9, 1)).astype(np.uint8)
            gx, gy = sobel_gradients(GrayImage(px))
            assert np.all(gx[1:-1, 1:-1] == 8 * s)
            assert np.all(gy[1:-1, 1:-1] == 0)


class TestAutoCanny:
    def test_uniform_image_no_edges(self):
        img = GrayImage(np.full((20, 20), 90, dtype=np.uint8))
        assert auto_canny(img).sum() == 0

    def test_step_edge_single_pixel_chain(self):
        px = np.zeros((10, 10), dtype=np.uint8)
        px[:, 5:] = 255
        edges = auto_canny(GrayImage(px))
        ys, xs = np.nonzero(edges)
        assert set(xs) == {4}
        assert set(ys) == set(range(10))

    @pytest.mark.parametrize("bright_first", [True, False])
    def test_step_tie_keeps_darker_column_and_brighter_row(self, bright_first):
        step = np.zeros((10, 10), dtype=np.uint8)
        step[:5] = 255 if bright_first else 0
        step[5:] = 0 if bright_first else 255
        dark, bright = (5, 4) if bright_first else (4, 5)
        _, xs = np.nonzero(auto_canny(GrayImage(step.T)))  # x gradient
        assert set(xs.tolist()) == {dark}
        ys, _ = np.nonzero(auto_canny(GrayImage(step)))  # y gradient
        assert set(ys.tolist()) == {bright}

    @pytest.mark.parametrize("anti", [False, True])
    @pytest.mark.parametrize("bright_first", [False, True])
    def test_45_degree_step_is_one_chain_over_every_row(self, anti, bright_first):
        # Suppression compares neighbors across a diagonal edge, not along
        # it. The step runs from column 4 in row 0 to column 27 in row 23, or
        # mirrored; ``offset`` is constant along it.
        y, x = np.mgrid[0:24, 0:32]
        offset = x + y if anti else x - y
        step = 27 if anti else 4
        px = np.where((offset >= step) == bright_first, 200, 50).astype(np.uint8)
        edges = _canny_matches_reference(px)
        _, n = ndimage.label(edges, structure=np.ones((3, 3), dtype=bool))
        assert n == 1
        assert edges.any(axis=1).all()
        assert set(offset[edges].tolist()) <= {step - 1, step}

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        px = rng.integers(0, 256, size=(30, 30), dtype=np.uint8)
        assert np.array_equal(auto_canny(GrayImage(px)), auto_canny(GrayImage(px.copy())))

    def test_sigma_monotonicity_on_strong_edges(self):
        px = np.full((40, 40), 60, dtype=np.uint8)
        px[8:20, 6:20] = 200
        px[25:36, 22:36] = 230
        img = GrayImage(px)
        wide = auto_canny(img, sigma=0.5).sum()
        narrow = auto_canny(img, sigma=0.1).sum()
        assert wide >= narrow


def blocks(h, w, base, *rects):
    """uint8 image of ``base`` with each (y0, y1, x0, x1, value) rectangle
    painted over it, inclusive bounds."""
    px = np.full((h, w), base, dtype=np.uint8)
    for y0, y1, x0, x1, value in rects:
        px[y0:y1 + 1, x0:x1 + 1] = value
    return px


def _canny_matches_reference(px):
    edges = auto_canny(GrayImage(px))
    assert np.array_equal(edges, oracles.canny(px, DEFAULT_CANNY_SIGMA))
    return edges


class TestCannyHysteresisAgainstReference:
    """Hysteresis cuts the weak pixels into horizontal runs by their flat
    indices, so the row-wrap scenes put chains next to each other in raster
    order but not in the image: they pin that a run breaks at a row's end
    and that runs link only across the rows they span. On a median-100
    frame a step of 40 is strong and a step of 20 is only weak."""

    # (upper block, lower block, its chain's pixel, the other chain's pixel):
    # the two pixels are 1, w - 1 and w + 1 apart in raster order.
    WRAPS = {
        "row end to next row start": ((0, 5, 8, 15), (6, 11, 0, 4), (5, 15), (6, 0)),
        "row start to same row end": ((0, 5, 0, 4), (0, 5, 11, 15), (5, 0), (5, 15)),
        "row end to start two rows down": ((0, 5, 8, 15), (7, 11, 0, 4), (5, 15), (7, 0)),
    }

    @pytest.mark.parametrize("wrap", sorted(WRAPS))
    @pytest.mark.parametrize("strong_first", [True, False])
    def test_chains_across_a_row_wrap_stay_separate(self, wrap, strong_first):
        a, b, a_px, b_px = self.WRAPS[wrap]
        steps = (140, 120) if strong_first else (120, 140)
        px = blocks(12, 16, 100, (*a, steps[0]), (*b, steps[1]))
        edges = _canny_matches_reference(px)
        strong_px, weak_px = (a_px, b_px) if strong_first else (b_px, a_px)
        _, _, mag = oracles.sobel(px)
        assert 67 < mag[weak_px] <= 133  # a candidate, dropped by hysteresis
        assert edges[strong_px] and not edges[weak_px]

    def test_corner_only_join_is_kept(self):
        # On a median-125 frame the weak left side of the 150 block meets its
        # strong bottom side only at a corner; the weak side is kept.
        px = blocks(12, 16, 125, (0, 5, 8, 15, 150), (6, 11, 8, 15, 100))
        edges = _canny_matches_reference(px)
        _, _, mag = oracles.sobel(px)
        assert edges[0:5, 7].all() and np.all(mag[0:5, 7] <= 166)
        assert edges[5, 8] and mag[5, 8] <= 166 and mag[5, 9] > 166
        assert not edges[4, 8] and not edges[5, 7]  # no 4-connected link

    def test_one_strong_pixel_keeps_its_whole_chain(self):
        # A weak vertical step on a median-125 frame yields no edges; one
        # brighter pixel makes a single strong pixel, and the chain stays.
        plain = blocks(14, 16, 125, (0, 13, 10, 15, 150))
        assert not _canny_matches_reference(plain).any()
        bump = blocks(14, 16, 125, (0, 13, 10, 15, 150), (6, 6, 10, 10, 190))
        edges = _canny_matches_reference(bump)
        _, _, mag = oracles.sobel(bump)
        assert np.count_nonzero(edges & (mag > 166)) == 1
        expected = np.zeros_like(edges)
        expected[:, 9] = True
        # The bump's diagonal flanks: 128 against 100 and 80 across the gradient.
        expected[5, 10] = expected[7, 10] = True
        assert np.array_equal(edges, expected)


class TestFindContours:
    def test_empty_bitmap(self):
        assert find_contours(np.zeros((10, 10), dtype=bool)) == []

    def test_hollow_square_one_contour(self):
        e = ring_bitmap(20, 20, 3, 16, 3, 16)
        contours = find_contours(e)
        assert len(contours) == 1
        c = contours[0]
        assert c.depth == 0 and c.parent_index is None
        assert c.area > 0

    def test_nested_squares(self):
        e = ring_bitmap(28, 28, 2, 25, 2, 25) | ring_bitmap(28, 28, 10, 17, 10, 17)
        contours = find_contours(e)
        assert len(contours) == 2
        outer = max(contours, key=lambda c: c.area)
        inner = min(contours, key=lambda c: c.area)
        assert outer.depth == 0 and outer.parent_index is None
        assert inner.depth == 1
        assert contours[inner.parent_index] is outer

    def test_open_chain_touching_border_yields_nothing(self):
        e = np.zeros((20, 20), dtype=bool)
        e[0:15, 10] = True  # open chain from the border into the image
        assert find_contours(e) == []

    def test_filled_rectangle_mask_matches_block(self):
        # ring at 3..16 dilates to a stroke over 2..17, leaving 5..14 enclosed;
        # the filled polygon is exactly that block
        e = ring_bitmap(20, 20, 3, 16, 3, 16)
        c = find_contours(e)[0]
        expected = np.zeros((20, 20), dtype=bool)
        expected[5:15, 5:15] = True
        got = np.zeros(20 * 20, dtype=bool)
        got[c.filled_indices] = True
        assert np.array_equal(got.reshape(20, 20), expected)
        assert c.area == expected.sum()

    def test_parent_filled_polygon_covers_hole(self):
        e = ring_bitmap(28, 28, 2, 25, 2, 25) | ring_bitmap(28, 28, 10, 17, 10, 17)
        contours = find_contours(e)
        outer = max(contours, key=lambda c: c.area)
        got = np.zeros(28 * 28, dtype=bool)
        got[outer.filled_indices] = True
        expected = np.zeros((28, 28), dtype=bool)
        expected[4:24, 4:24] = True  # interior of the dilated outer ring, hole included
        assert np.array_equal(got.reshape(28, 28), expected)


def _assert_matches_reference(edges):
    got = find_contours(edges)
    want = oracles.contours(edges)
    assert len(got) == len(want)
    for c, (filled, parent, depth) in zip(got, want):
        assert np.array_equal(c.filled_indices, filled)
        assert c.parent_index == parent and c.depth == depth
        assert c.area == filled.size


class TestFindContoursAgainstFullFrameReference:
    def test_nested_rings(self):
        e = (ring_bitmap(60, 70, 2, 57, 3, 66) | ring_bitmap(60, 70, 8, 50, 8, 40)
             | ring_bitmap(60, 70, 14, 30, 14, 30) | ring_bitmap(60, 70, 8, 30, 46, 62))
        _assert_matches_reference(e)

    def test_strokes_touching_border(self):
        e = ring_bitmap(40, 50, 5, 30, 5, 30)
        e[0:12, 40] = True        # chain from the top border
        e[20, 35:50] = True       # chain to the right border
        e[33:40, 10] = True       # chain from a ring into the bottom border
        e[39, 20:30] = True       # stroke along the bottom border
        e[15, 15:20] = True       # loose stroke inside the ring
        _assert_matches_reference(e)

    def test_region_first_row_starts_mid_bbox(self):
        # A diamond outline: its enclosed region's top row holds one pixel in
        # the middle of the bounding box, and a nested ring sits in its lower half.
        e = np.zeros((50, 50), dtype=bool)
        for i in range(20):
            e[3 + i, 25 - i] = e[3 + i, 25 + i] = True
            e[42 - i, 25 - i] = e[42 - i, 25 + i] = True
        e |= ring_bitmap(50, 50, 24, 32, 20, 30)
        _assert_matches_reference(e)

    def test_region_boxes_from_runs(self):
        # Filled shapes outlined side by side: a plus whose arms touch its box
        # on all four sides, each at mid-side; a U whose arm rows hold two
        # runs of one region; and a band slanting right whose leftmost pixel
        # is in its last row and rightmost in its first.
        mask = np.zeros((60, 170), dtype=bool)
        mask[22:38, 4:56] = mask[4:56, 22:38] = True
        mask[4:56, 60:100] = True
        mask[4:36, 72:88] = False
        for i in range(44):
            mask[8 + i, 160 - i // 2 - 24:160 - i // 2] = True
        e = mask & ~ndimage.binary_erosion(mask)
        _assert_matches_reference(e)
        assert len(find_contours(e)) == 3

    def test_holes_are_eight_connected(self):
        # Parts of the rest of this region's box meet its outside only at a
        # corner. A hole is an 8-connected component of the rest, so those
        # parts are not holes: the filled polygon holds 34 pixels, where a
        # 4-connected labelling of the rest would fill 43.
        e = np.array([[c == "#" for c in row] for row in (
            "..#................",
            ".............#.....",
            "...#.#......#......",
            "................#..",
            ".......#.........##",
            "...................",
            ".#................#",
            "....#..#.#..#..#...",
            "...................",
            "..#.............#..",
            "...#...............",
            "...#.............#.",
            "...#...#...#.......",
            "...#.......#.#.....",
            "..............#....",
            "....#..............",
            ".......##......#...",
        )])
        assert e.shape == (17, 19)
        _assert_matches_reference(e)
        assert [c.area for c in find_contours(e)] == [34]

    def test_four_nested_rings(self):
        e = np.zeros((40, 40), dtype=bool)
        for k in range(4):
            e |= ring_bitmap(40, 40, 2 + 5 * k, 37 - 5 * k, 2 + 5 * k, 37 - 5 * k)
        _assert_matches_reference(e)
        contours = find_contours(e)
        assert [c.depth for c in contours] == [0, 1, 2, 3]
        assert [c.parent_index for c in contours] == [None, 0, 1, 2]

    def test_sibling_hole_left_of_child_on_its_first_row(self):
        # Inside one region, a ring region with a hole (left) and a ring
        # whose dilated stroke merges with it (right). On the right ring's
        # first row, the left ring's hole gap starts after the outer region's
        # gap and ends before the right region's first pixel: the parent is
        # the outer region, not the left ring.
        e = (ring_bitmap(40, 80, 1, 38, 1, 78) | ring_bitmap(40, 80, 8, 30, 6, 30)
             | ring_bitmap(40, 80, 14, 24, 12, 24) | ring_bitmap(40, 80, 17, 28, 32, 50))
        _assert_matches_reference(e)
        contours = find_contours(e)
        right = max(range(len(contours)), key=lambda i: contours[i].filled_indices[0] % 80)
        assert contours[right].parent_index == 0 and contours[right].depth == 1

    def test_row_split_by_hole_and_by_notch(self):
        # A U outline with a ring in its left arm: the rows through the ring
        # split the region's runs at a hole and, further right, at the notch,
        # which reaches the box's outside only through the box's top row.
        mask = np.zeros((44, 64), dtype=bool)
        mask[4:40, 4:60] = True
        mask[:25, 30:40] = False
        e = (mask & ~ndimage.binary_erosion(mask)) | ring_bitmap(44, 64, 12, 22, 10, 20)
        _assert_matches_reference(e)
        outer = find_contours(e)[0]
        notch = np.zeros((44, 64), dtype=bool)
        notch[:25, 30:40] = True
        assert not notch.ravel()[outer.filled_indices].any()
        assert 17 * 64 + 15 in outer.filled_indices  # the ring's interior

    def test_one_pixel_border_contact_is_not_enclosed(self):
        # A ring whose right stroke, in column w - 2, breaks for three rows:
        # the free space inside meets the border at row 10, column w - 1 only.
        e = ring_bitmap(20, 30, 3, 16, 3, 28)
        e[9:12, 28] = False
        free, _ = ndimage.label(~ndimage.binary_dilation(e, structure=np.ones((3, 3))))
        inside = free == free[10, 10]
        border = np.ones_like(inside)
        border[1:-1, 1:-1] = False
        assert np.argwhere(inside & border).tolist() == [[10, 29]]
        _assert_matches_reference(e)
        assert find_contours(e) == []

    @settings(max_examples=300, deadline=None)
    @given(h=st.integers(1, 40), w=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           density=st.floats(0.0, 0.4))
    @example(h=1, w=1, seed=0, density=0.4)
    @example(h=1, w=25, seed=3, density=0.1)
    @example(h=25, w=1, seed=3, density=0.1)
    @example(h=17, w=23, seed=0, density=0.0)
    @example(h=17, w=23, seed=0, density=1.0)
    def test_dense_random_maps(self, h, w, seed, density):
        e = np.random.default_rng(seed).random((h, w)) < density
        _assert_matches_reference(e)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_rings=st.integers(0, 6),
           density=st.floats(0.0, 0.03))
    def test_random_scenes(self, seed, n_rings, density):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(8, 64, size=2)
        e = rng.random((h, w)) < density
        for _ in range(n_rings):
            y0, y1 = np.sort(rng.integers(0, h, size=2))
            x0, x1 = np.sort(rng.integers(0, w, size=2))
            e |= ring_bitmap(h, w, y0, y1, x0, x1)
        _assert_matches_reference(e)


class TestRefineContours:
    def _contour(self, area):
        return Contour(area=area)

    def test_threshold_boundary(self):
        kept = refine_contours([self._contour(2499)], min_area=2500)
        assert kept == []
        kept = refine_contours([self._contour(2500)], min_area=2500)
        assert len(kept) == 1

    def test_empty_input(self):
        assert refine_contours([], min_area=2500) == []

    def test_parent_links_reresolved(self):
        a = self._contour(9000)
        b = self._contour(100)
        c = self._contour(3000)
        b.parent_index, b.depth = 0, 1
        c.parent_index, c.depth = 1, 2
        kept = refine_contours([a, b, c], min_area=2500)
        assert len(kept) == 2
        assert kept[0].parent_index is None and kept[0].depth == 0
        assert kept[1].parent_index == 0 and kept[1].depth == 1

    def test_area_scaling(self):
        assert scaled_min_area(2500, 2048, 1536) == pytest.approx(2500)
        assert scaled_min_area(2500, 1024, 768) == pytest.approx(625)


class TestGenerateMasks:
    def _scene_contours(self):
        e = ring_bitmap(40, 40, 2, 37, 2, 37) | ring_bitmap(40, 40, 12, 25, 12, 25)
        return find_contours(e)

    def test_single_top_level_phase_split(self):
        contours = find_contours(ring_bitmap(20, 20, 3, 16, 3, 16))
        assert generate_masks(contours, "child") == []
        parents = generate_masks(contours, "parent")
        assert len(parents) == 1 and parents[0].role == "parent"

    def test_nested_pair_child_first(self):
        contours = self._scene_contours()
        children = generate_masks(contours, "child")
        assert len(children) == 1 and children[0].role == "child"
        inner = min(contours, key=lambda c: c.area)
        assert children[0].bits.sum() == inner.area

    def test_disjoint_parents_ordered_by_area(self):
        e = ring_bitmap(60, 60, 2, 40, 2, 40) | ring_bitmap(60, 60, 45, 57, 20, 50)
        contours = find_contours(e)
        masks = generate_masks(contours, "parent")
        assert len(masks) == 2
        assert masks[0].bits.sum() >= masks[1].bits.sum()

    def test_phase_disjointness_covers_all(self):
        contours = self._scene_contours()
        children = generate_masks(contours, "child")
        parents = generate_masks(contours, "parent")
        child_src = {m.source_index for m in children}
        parent_src = {m.source_index for m in parents}
        assert child_src.isdisjoint(parent_src)
        assert child_src | parent_src == set(range(len(contours)))

    def test_mask_bits_match_source_rasterization(self):
        contours = self._scene_contours()
        for mask in generate_masks(contours, "parent"):
            src = contours[mask.source_index]
            raster = np.zeros(src.shape[0] * src.shape[1], dtype=bool)
            raster[src.filled_indices] = True
            assert np.array_equal(mask.bits.reshape(-1), raster)

    def test_bad_phase_rejected(self):
        with pytest.raises(ValueError):
            generate_masks([], "both")

    def test_mask_role_validation(self):
        with pytest.raises(ValueError):
            BinaryMask(bits=np.zeros((2, 2), dtype=bool), role="other")
