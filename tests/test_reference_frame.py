"""The criterion-6 four-box frame at the 2048x1536 reference resolution.

Segmentation there runs in many bands of ``BAND_ROWS`` rows and fusion maps
the larger masks in several chunks, so this frame holds the banded and
chunked paths to the full-frame references at their real sizes, and bounds
what they allocate.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse.csgraph  # noqa: F401  (loaded before any allocation is traced)

from binpick import fusion, segmentation
from binpick.fusion import map_mask_to_cloud
from binpick.pipeline import PipelineConfig, segment_image
from binpick.segmentation import DEFAULT_CANNY_SIGMA, BinaryMask, auto_canny, gaussian_smooth_3x3
from binpick.synth import SceneSpec, render_depth, render_image, scene_homography

from . import oracles
from .test_acceptance import CRITERION_6_BOXES
from .test_segmentation import _assert_matches_reference

MIB = 2**20


@pytest.fixture(scope="module")
def frame():
    scene = SceneSpec(boxes=CRITERION_6_BOXES, rgb_resolution=(2048, 1536))
    config = PipelineConfig(homography=scene_homography(scene))
    return render_image(scene), render_depth(scene), config


def test_image_side_matches_full_frame_oracles(frame):
    image, _, _ = frame
    assert image.height > 4 * segmentation.BAND_ROWS
    smooth = gaussian_smooth_3x3(image)
    assert np.array_equal(smooth.pixels, oracles.smooth_3x3(image.pixels))
    edges = auto_canny(smooth)
    assert np.array_equal(edges, oracles.canny(smooth.pixels, DEFAULT_CANNY_SIGMA))
    _assert_matches_reference(edges)


def test_fusion_matches_whole_mask_reference(frame):
    image, cloud, config = frame
    _, masks = segment_image(config, image, "parent")
    assert len(masks) == 4 and len(masks[0].indices) > fusion.MAP_CHUNK_PX
    for mask in masks:
        got = map_mask_to_cloud(mask, config.homography, cloud)
        want = oracles.map_mask_to_cloud(mask.bits, config.homography, cloud)
        assert np.array_equal(got.points, want)


def test_segmentation_and_fusion_allocation_bounds(frame):
    """Segmentation's traced peak stays under 16 MiB, and fusion of the
    largest mask allocates under 10 MiB above what is live. A frame-sized
    int16 array is 6 MiB here, and mapping a whole 190,000-pixel mask at
    once takes about 15 MiB."""
    image, cloud, config = frame
    refined, masks = segment_image(config, image, "parent")
    largest = max(masks, key=lambda m: refined[m.source_index].area)
    del refined, masks
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        segment_image(config, image, "parent")
        segmentation_peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        map_mask_to_cloud(largest, config.homography, cloud)
        fusion_peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert segmentation_peak < 16 * MIB, f"segmentation peak {segmentation_peak / MIB:.1f} MiB"
    assert fusion_peak < 10 * MIB, f"fusion peak {fusion_peak / MIB:.1f} MiB"


def test_full_frame_mask_fusion_allocation_bound(frame):
    """Fusion of a mask covering all 3.1 M pixels of the frame peaks under
    4.5 MiB (about 3.7 MiB): per 65,536-pixel chunk it holds the pixel
    columns and the mapped u and v in float64, besides the grid bitmap and
    the collected points."""
    image, cloud, config = frame
    mask = BinaryMask(np.arange(image.height * image.width), (image.height, image.width),
                      "parent")
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        map_mask_to_cloud(mask, config.homography, cloud)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * MIB, f"fusion peak {peak / MIB:.2f} MiB"
