"""The benchmark's probe table and set-up renderer still match the program.

``perfbench/tracing.py`` wraps binpick functions by module and attribute
name and reads a few attributes of what they return, and
``perfbench/render.py`` draws every workload's frames through ``synth``. A
rename or deletion in ``src/`` would break the benchmark without failing any
other test, so this imports those two files (and the workload table they
read) and checks every name they rely on.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from binpick.core import OrganizedCloud
from binpick.errors import EmptyClusterError
from binpick.fusion import Homography
from binpick.pipeline import PipelineConfig
from binpick.segmentation import PHASES, BinaryMask
from binpick.synth import (
    SceneSpec,
    _cast,
    add_depth_noise,
    depth_camera,
    render_depth,
    render_image,
    rgb_camera,
    scene_homography,
)

from . import oracles
from .test_synth import make_box

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses and imports look the module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    try:
        yield _load("tracing")
    finally:
        del sys.modules["tracing"]


@pytest.fixture(scope="module")
def render():
    """render.py reads the workload table as the top-level module ``workloads``."""
    try:
        _load("workloads")
        yield _load("render")
    finally:
        sys.modules.pop("workloads", None)
        sys.modules.pop("render", None)


def test_every_probe_resolves(tracing):
    assert tracing.PROBES
    for probe in tracing.PROBES:
        module = importlib.import_module(f"binpick.{probe.module}")
        assert callable(getattr(module, probe.attr)), probe


def test_fusion_probe_reads_points_and_empty_cluster_error(tracing):
    cloud = OrganizedCloud(np.ones((4, 5, 3)), np.ones((4, 5), dtype=bool))
    bits = np.zeros((4, 5), dtype=bool)
    bits[1:3, 1:4] = True
    mapped = tracing.pipeline.map_mask_to_cloud(BinaryMask.from_bits(bits, role="parent"),
                                                Homography(np.eye(3)), cloud)
    assert mapped.points.shape == (6, 3)
    with pytest.raises(EmptyClusterError):
        tracing.pipeline.map_mask_to_cloud(BinaryMask.from_bits(~np.ones_like(bits), role="child"),
                                           Homography(np.eye(3)), cloud)


def test_ransac_iterations_is_a_config_field():
    assert PipelineConfig().ransac_iterations >= 1


def test_traced_frames_agree_with_their_reports(tracing):
    """A traced run is marked incorrect when a frame's spans disagree with its
    report's stage timings or counts; a stacked pair and a box at yaw 30
    degrees, 2 mm noise, both phases, must show no disagreement."""
    scene = SceneSpec(boxes=(make_box((150, 150, 60), (-60, 0, 30), intensity=180),
                             make_box((80, 80, 40), (-60, 0, 80), intensity=230),
                             make_box((120, 100, 60), (160, 60, 30), (30, 0, 0),
                                      intensity=200)),
                      rgb_resolution=(640, 480), noise_sigma_m=0.002, seed=3)
    image = render_image(scene)
    cloud = add_depth_noise(render_depth(scene), scene.noise_sigma_m, scene.seed)
    config = PipelineConfig(homography=scene_homography(scene))
    tracer = tracing.Tracer()
    with tracer.installed(0):
        reports = [tracing.pipeline.run_pipeline(config, image, cloud, phase)
                   for phase in PHASES]
    frames = tracing.frames(tracer.spans)
    assert len(frames) == len(reports)
    assert all(report.poses for report in reports)
    for frame, report in zip(frames, reports):
        assert tracing.check_frame(frame, report) == []


def test_setup_render_matches_direct_synth_calls(render):
    """The benchmark's set-up draws every variant's frames with the same
    images and clouds as calling synth directly on its scenes."""
    workload = render.WORKLOADS["bigface640"]
    arrays = render.render_workload(workload)
    fields = ("image", "points", "valid", "phase", "truth_centroid_mm", "truth_normal",
              "truth_euler_deg", "truth_visibility", "truth_priority", "render_s")
    frames = [(v, f, scene) for v in range(render.VARIANTS)
              for f, (scene, _, _) in enumerate(render.frames_of(workload, v))]
    assert set(arrays) == {f"v{v}f{f}_{name}" for v, f, _ in frames for name in fields}
    for v, f, scene in frames:
        cloud = render_depth(scene)
        assert np.array_equal(arrays[f"v{v}f{f}_image"], render_image(scene).pixels)
        assert np.array_equal(arrays[f"v{v}f{f}_points"], cloud.points)
        assert np.array_equal(arrays[f"v{v}f{f}_valid"], cloud.valid)


def test_setup_frames_cast_like_the_full_frame_oracle(render):
    """Every frame of every workload, RGB and depth, casts to the same t, kind
    and top-face grids when each box is tested only against its pixel window
    as when it is tested against every ray of the frame."""
    for workload in render.WORKLOADS.values():
        for v in range(render.VARIANTS):
            for scene, _, _ in render.frames_of(workload, v):
                for cam in (depth_camera(scene), rgb_camera(scene)):
                    shape = (cam.height, cam.width)
                    ref = oracles.cast_all_rays(scene, cam)[:3]
                    for got, want in zip(_cast(scene, cam), ref):
                        assert np.array_equal(got, want.reshape(shape)), (workload.name, v)
