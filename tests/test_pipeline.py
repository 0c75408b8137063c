import gc
import json
import os
import re
import subprocess
import sys
import textwrap
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import binpick
from binpick.core import OrganizedCloud
from binpick.errors import ConfigError, InputError
from binpick.fileio import (
    read_image,
    read_mask_pgm,
    read_ply_organized,
    truth_from_dict,
    truth_to_dict,
    write_ply_organized,
    write_json,
    write_mask_pgm,
    write_pgm,
)
from binpick.fusion import HOMOGRAPHY_JSON_KEY, Homography
from binpick.pipeline import (
    TIMING_KEYS,
    PipelineConfig,
    config_from_dict,
    localize_masks,
    run_pipeline,
    segment_image,
    verify_against_ground_truth,
)
from binpick.segmentation import BinaryMask, GrayImage
from binpick.synth import (
    SceneSpec,
    add_depth_noise,
    ground_truth,
    render_depth,
    render_image,
    scene_from_dict,
    scene_homography,
    scene_without_boxes,
)

from .test_synth import make_box


def synth_inputs(scene):
    img = render_image(scene)
    cloud = render_depth(scene)
    if scene.noise_sigma_m > 0:
        cloud = add_depth_noise(cloud, scene.noise_sigma_m, scene.seed)
    config = PipelineConfig(homography=scene_homography(scene))
    return img, cloud, config


def config_to_dict(config: PipelineConfig) -> dict:
    """The JSON document that config_from_dict reads back to config."""
    out = {}
    for f in fields(PipelineConfig):
        if f.name == "homography":
            continue
        value = getattr(config, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    if config.homography is not None:
        out[HOMOGRAPHY_JSON_KEY] = config.homography.to_flat_list()
    return out


class TestConfig:
    def test_defaults_validate(self):
        PipelineConfig().validate()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"vortex_leaf_m": 0.01})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"voxel_leaf_m": -1})
        with pytest.raises(ConfigError):
            config_from_dict({"don_radius_small_m": 0.05, "don_radius_large_m": 0.01})

    @pytest.mark.parametrize("key", ["sor_k", "min_cluster_size", "min_samples",
                                     "min_object_size", "ransac_iterations", "seed"])
    @pytest.mark.parametrize("value", [True, False, 2.5, 30.0, "30"])
    def test_integer_fields_reject_other_types(self, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_dict({key: value})

    def test_readme_table_lists_every_field(self):
        # The keys a config file takes, as README's configuration table names them.
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("\n## Configuration\n")[1].split("\n## ")[0]
        keys = {key for line in section.splitlines() if line.startswith("| `")
                for key in re.findall(r"`(\w+)`", line.split("|")[1])}
        names = {f.name for f in fields(PipelineConfig)}
        assert keys == (names - {"homography"}) | {"rgb_to_depth_homography"}

    def test_integer_fields_accept_integers(self):
        cfg = config_from_dict({"sor_k": 8, "min_samples": None, "seed": 7,
                                "ransac_iterations": 50})
        assert (cfg.sor_k, cfg.min_samples, cfg.seed, cfg.ransac_iterations) == (8, None, 7, 50)

    def test_homography_roundtrip(self):
        h = Homography(np.array([[0.5, 0, 3], [0, 0.5, 7], [0, 0, 1.0]]))
        cfg = PipelineConfig(homography=h)
        data = config_to_dict(cfg)
        assert data["rgb_to_depth_homography"] == h.to_flat_list()
        back = config_from_dict(data)
        assert np.allclose(back.homography.h, h.h)

    def test_bad_homography_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"rgb_to_depth_homography": [1, 2, 3]})

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("doc", [
        {"seed": -1}, {"mls_radius_m": float("inf")}, {"canny_sigma": float("nan")},
        {"merge_angle_tol_deg": 10**400}, {"sor_alpha": "1.0"}, {"voxel_leaf_m": None},
        {"rgb_to_depth_homography": [1, 0, 0, 0, 1, 0, 0, 0, float("inf")]},
        {"rgb_to_depth_homography": [10**400, 0, 0, 0, 1, 0, 0, 0, 1]},
        {"rgb_to_depth_homography": [1e308, 0, 0, 0, 1, 0, 0, 0, 1e-11]},
        {"canny_sigma": True}, {"sor_alpha": False},
    ], ids=["negative-seed", "inf", "nan", "int-beyond-float", "string", "null",
            "homography-inf", "homography-int-beyond-float", "homography-overflow",
            "float-true", "float-false"])
    def test_negative_seed_and_non_finite_numbers_rejected(self, doc):
        with pytest.raises(ConfigError):
            config_from_dict(doc)


# A valid value per config key, so that fuzzed documents are sometimes accepted.
_VALID_CONFIG = {**config_to_dict(PipelineConfig()), "roi": [0, 0, 64, 48],
                 "rgb_to_depth_homography": [0.5, 0, 3, 0, 0.5, 7, 0, 0, 1]}
_FUZZ_LEAF = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.sampled_from([-1, -(10**30), 10**30, 10**400]),
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308]),
    st.text(max_size=4))
_FUZZ_VALUE = st.recursive(_FUZZ_LEAF, lambda inner: st.lists(inner, max_size=10),
                           max_leaves=12)


class TestConfigFuzz:
    """Any JSON document yields a validated config or a ConfigError. Only the
    config is built: fuzzed sizes such as ransac_iterations are never run."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(),
           keys=st.lists(st.sampled_from([*_VALID_CONFIG, "not_a_key"]), unique=True))
    def test_config_or_config_error(self, data, keys):
        doc = {key: data.draw(st.one_of(st.just(_VALID_CONFIG.get(key)), _FUZZ_VALUE),
                              label=key)
               for key in keys}
        try:
            config = config_from_dict(doc)
        except ConfigError:
            return
        assert isinstance(config, PipelineConfig)
        assert "not_a_key" not in doc and config.seed >= 0
        as_dict = config_to_dict(config)
        assert all(np.isfinite(v) for v in [*as_dict.values(),
                                            *as_dict.get("rgb_to_depth_homography", [])]
                   if isinstance(v, float))
        assert config_to_dict(config_from_dict(as_dict)) == as_dict


def four_box_scene(**kwargs):
    """The four-box scene of acceptance criterion 6, at 640x480."""
    boxes = (
        make_box((140, 120, 60), (-180, -100, 30), intensity=200),
        make_box((130, 110, 50), (150, 100, 25), intensity=195),
        make_box((100, 90, 45), (120, -120, 22.5), rot_zyx_deg=(30, 0, 0), intensity=170),
        make_box((110, 80, 55), (-120, 130, 27.5), rot_zyx_deg=(-20, 0, 0), intensity=215),
    )
    return SceneSpec(boxes=boxes, rgb_resolution=(640, 480), **kwargs)


class TestRunPipeline:
    def test_empty_bin(self):
        scene = SceneSpec(rgb_resolution=(448, 344))
        img, cloud, config = synth_inputs(scene)
        report = run_pipeline(config, img, cloud, "parent")
        assert report.poses == []
        assert report.counts["contours"] == 0
        for key in TIMING_KEYS:
            assert report.timing_s[key] >= 0.0

    def test_single_box_matches_truth(self):
        scene = SceneSpec(boxes=(make_box((120, 100, 60), (10, -20, 30)),),
                          rgb_resolution=(640, 480))
        img, cloud, config = synth_inputs(scene)
        report = run_pipeline(config, img, cloud, "parent")
        assert len(report.poses) == 1
        table = verify_against_ground_truth(report, ground_truth(scene))
        assert len(table["matches"]) == 1 and table["misses"] == 0
        assert max(table["matches"][0]["trans_err_mm"]) < 5.0
        assert max(table["matches"][0]["rot_err_deg"]) < 1.0

    @pytest.mark.parametrize("yaw", range(0, 91, 5))
    def test_lone_box_found_at_every_yaw(self, yaw):
        # Orientation independence: edges at every angle to the image axes
        # survive suppression, so each yaw gives one mask and one pose.
        scene = SceneSpec(boxes=(make_box((100, 90, 45), (0, 0, 22.5), (yaw, 0, 0)),),
                          rgb_resolution=(640, 480), noise_sigma_m=0.002, seed=3)
        img, cloud, config = synth_inputs(scene)
        report = run_pipeline(config, img, cloud, "parent")
        assert report.counts["masks"] == 1 and len(report.poses) == 1
        table = verify_against_ground_truth(report, ground_truth(scene))
        assert len(table["matches"]) == 1 and table["misses"] == 0

    def test_tiny_voxel_leaf_keeps_the_pose(self):
        # pts / leaf reaches about 1e299, far past where an int64 voxel key wraps
        scene = SceneSpec(boxes=(make_box((120, 100, 60), (10, -20, 30)),),
                          rgb_resolution=(320, 240))
        img, cloud, _ = synth_inputs(scene)
        config = PipelineConfig(homography=scene_homography(scene), voxel_leaf_m=1e-300)
        assert len(run_pipeline(config, img, cloud, "parent").poses) == 1

    @pytest.mark.parametrize("noise_sigma_m", [0.0, 0.002])
    def test_mask_order_leaves_the_poses(self, noise_sigma_m):
        # Metamorphic: one frame's masks in reverse order give the same poses.
        img, cloud, config = synth_inputs(four_box_scene(noise_sigma_m=noise_sigma_m, seed=0))
        _, masks = segment_image(config, img, "parent")
        assert len(masks) == 4

        def poses_by_centroid(ordered):
            poses = localize_masks(config, ordered, cloud).to_dict()["poses"]
            return np.array(sorted(p["centroid_mm"] + p["euler_zyx_deg"] for p in poses))

        forward = poses_by_centroid(masks)
        assert forward.shape == (4, 6)
        np.testing.assert_allclose(poses_by_centroid(masks[::-1]), forward, rtol=0, atol=1e-6)

    def test_leaves_no_cyclic_garbage(self):
        scene = SceneSpec(boxes=(make_box((120, 100, 60), (10, -20, 30)),),
                          rgb_resolution=(640, 480))
        img, cloud, config = synth_inputs(scene)
        gc.collect()
        gc.disable()
        try:
            report = run_pipeline(config, img, cloud, "parent")
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(report.poses) == 1

    def test_missing_calibration_rejected(self):
        scene = SceneSpec(rgb_resolution=(448, 344))
        img, cloud, _ = synth_inputs(scene)
        with pytest.raises(ConfigError):
            run_pipeline(PipelineConfig(), img, cloud, "parent")

    @pytest.mark.parametrize("c", [320, 320.5, 500.5])
    def test_denominator_sign_change_in_frame_is_config_error(self, c):
        # The true calibration gives one pose. Composed with a map whose line
        # at infinity is the column x = c, inside the frame, runs returned no
        # pose (with divide-by-zero warnings at c = 320) or a pose from the
        # wrong map (c = 500.5).
        scene = SceneSpec(boxes=(make_box((150, 120, 60), (0, 0, 30)),),
                          rgb_resolution=(640, 480))
        img, cloud, config = synth_inputs(scene)
        assert len(run_pipeline(config, img, cloud, "parent").poses) == 1
        h = config.homography.h @ np.array([[1, 0, 0], [0, 1, 0], [-1 / c, 0, 1]])
        config = PipelineConfig(homography=Homography(h))
        mask = BinaryMask.from_bits(np.ones((480, 640), dtype=bool), "parent")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="denominator"):
                run_pipeline(config, img, cloud, "parent")
            with pytest.raises(ConfigError, match="denominator"):
                localize_masks(config, [mask], cloud)

    def test_bad_phase_rejected(self):
        scene = SceneSpec(rgb_resolution=(448, 344))
        img, cloud, config = synth_inputs(scene)
        with pytest.raises(ConfigError):
            run_pipeline(config, img, cloud, "both")

    def test_stacked_phases(self):
        big = make_box((150, 150, 60), (0, 0, 30), intensity=180)
        small = make_box((80, 80, 40), (0, 0, 80), intensity=230)
        scene = SceneSpec(boxes=(big, small), rgb_resolution=(640, 480))
        img, cloud, config = synth_inputs(scene)

        child_report = run_pipeline(config, img, cloud, "child")
        assert len(child_report.poses) == 1
        assert child_report.poses[0].priority == "child"
        small_truth = ground_truth(scene)[1]
        table = verify_against_ground_truth(child_report, [small_truth])
        assert len(table["matches"]) == 1

        # the parent mask is used after the child box has been picked
        picked = scene_without_boxes(scene, [1])
        img2, cloud2, config2 = synth_inputs(picked)
        parent_report = run_pipeline(config2, img2, cloud2, "parent")
        assert len(parent_report.poses) == 1
        assert parent_report.poses[0].priority == "parent"
        assert child_report.poses[0].centroid_mm.z < parent_report.poses[0].centroid_mm.z

    def test_phase_mask_partition_on_static_scene(self):
        big = make_box((150, 150, 60), (0, 0, 30), intensity=180)
        small = make_box((80, 80, 40), (0, 0, 80), intensity=230)
        scene = SceneSpec(boxes=(big, small), rgb_resolution=(640, 480))
        img, cloud, config = synth_inputs(scene)
        child = run_pipeline(config, img, cloud, "child")
        parent = run_pipeline(config, img, cloud, "parent")
        assert child.counts["contours"] == parent.counts["contours"] == 2
        assert child.counts["masks"] + parent.counts["masks"] == 2

    def test_timing_total_covers_stages(self):
        scene = SceneSpec(boxes=(make_box((120, 100, 60), (0, 0, 30)),),
                          rgb_resolution=(640, 480))
        img, cloud, config = synth_inputs(scene)
        report = run_pipeline(config, img, cloud, "parent")
        stage_sum = sum(v for k, v in report.timing_s.items() if k != "total")
        assert report.timing_s["total"] >= 0.99 * stage_sum

    def test_replay_is_byte_identical(self):
        scene = SceneSpec(boxes=(make_box((120, 100, 60), (15, 25, 30)),),
                          rgb_resolution=(640, 480), noise_sigma_m=0.002, seed=5)
        img, cloud, config = synth_inputs(scene)
        a = run_pipeline(config, img, cloud, "parent")
        b = run_pipeline(config, img, cloud, "parent")
        assert json.dumps(a.to_dict()["poses"]) == json.dumps(b.to_dict()["poses"])

    def test_pose_order_children_first(self):
        cloud = render_depth(SceneSpec(boxes=(make_box((150, 150, 60), (0, 0, 30)),)))
        w, h = 448, 344
        scene = SceneSpec(boxes=(make_box((150, 150, 60), (0, 0, 30)),),
                          rgb_resolution=(w, h))
        bits = np.zeros((h, w), dtype=bool)
        bits[150:200, 200:260] = True
        masks = [BinaryMask.from_bits(bits, role="parent", source_index=0),
                 BinaryMask.from_bits(bits, role="child", source_index=1)]
        config = PipelineConfig(homography=scene_homography(scene))
        report = localize_masks(config, masks, cloud)
        priorities = [p.priority for p in report.poses]
        assert priorities == sorted(priorities, key=lambda r: 0 if r == "child" else 1)

    def test_empty_fusion_mask_skipped_with_count(self):
        scene = SceneSpec(rgb_resolution=(448, 344))
        cloud = render_depth(scene)
        bits = np.zeros((344, 448), dtype=bool)
        bits[0:3, 0:3] = True  # maps into the invalid margin ring
        mask = BinaryMask.from_bits(bits, role="parent")
        config = PipelineConfig(homography=scene_homography(scene))
        report = localize_masks(config, [mask], cloud)
        assert report.poses == []
        assert report.counts["skipped_masks"] == 1


class TestDegenerateMasks:
    """Masks that leave no cloud, a handful of points or a line of them end in
    counts, not exceptions; off-grid mask pixels are dropped."""

    @pytest.fixture(scope="class")
    def one_box(self):
        # RGB and depth grids coincide here (identity homography)
        scene = SceneSpec(boxes=(make_box((150, 120, 60), (20, -10, 30)),),
                          rgb_resolution=(224, 172))
        config = PipelineConfig(homography=scene_homography(scene))
        top = render_image(scene).pixels == 200
        return config, render_depth(scene), top

    def localize(self, config, bits, cloud):
        return localize_masks(config, [BinaryMask.from_bits(bits, role="parent")], cloud)

    def test_all_invalid_cloud_skips_the_mask(self, one_box):
        config, cloud, top = one_box
        invalid = OrganizedCloud(points=np.zeros_like(cloud.points),
                                 valid=np.zeros_like(cloud.valid))
        report = self.localize(config, top, invalid)
        assert report.counts["skipped_masks"] == 1
        assert report.poses == []

    @pytest.mark.parametrize("shape", ["pixel", "3x3", "row"])
    def test_tiny_masks_give_no_clusters(self, one_box, shape):
        config, cloud, top = one_box
        ys, xs = np.nonzero(top)
        cy, cx = int(ys.mean()), int(xs.mean())
        window = {"pixel": np.s_[cy, cx], "3x3": np.s_[cy - 1:cy + 2, cx - 1:cx + 2],
                  "row": np.s_[cy, xs.min():xs.max() + 1]}[shape]
        bits = np.zeros_like(top)
        bits[window] = True
        report = self.localize(config, bits, cloud)
        assert report.counts["skipped_masks"] == 0
        assert report.counts["clusters"] == 0
        assert report.poses == []

    def test_mask_half_off_the_depth_grid(self, one_box):
        config, cloud, top = one_box
        h, w = top.shape
        bits = np.zeros((2 * h, 2 * w), dtype=bool)     # twice the depth grid
        bits[:h, :w] = top
        bits[:h, w:] = top                               # maps beyond the grid
        report = self.localize(config, bits, cloud)
        assert len(report.poses) == 1
        on_grid = self.localize(config, top, cloud)
        assert report.to_dict()["poses"] == on_grid.to_dict()["poses"]


class TestVerify:
    def _report_from_truth(self, truth):
        return {"poses": [
            {"id": i, "priority": t.priority,
             "centroid_mm": list(t.centroid_mm),
             "euler_zyx_deg": list(t.euler.as_tuple()),
             "plane": [0, 0, 1, 0.5], "inliers": 100}
            for i, t in enumerate(truth)
        ]}

    def test_perfect_report_zero_errors(self):
        scene = SceneSpec(boxes=(make_box((120, 100, 60), (0, 0, 30)),
                                 make_box((100, 100, 50), (150, 100, 25)),),
                          rgb_resolution=(448, 344))
        truth = ground_truth(scene)
        table = verify_against_ground_truth(self._report_from_truth(truth), truth)
        assert table["misses"] == 0 and table["unmatched_poses"] == 0
        assert max(table["mean_trans_err_mm"]) == 0
        assert max(table["mean_rot_err_deg"]) == 0

    def test_missing_box_counts_as_miss(self):
        scene = SceneSpec(boxes=(make_box((120, 100, 60), (0, 0, 30)),
                                 make_box((100, 100, 50), (150, 100, 25)),),
                          rgb_resolution=(448, 344))
        truth = ground_truth(scene)
        table = verify_against_ground_truth(self._report_from_truth(truth[:1]), truth)
        assert table["misses"] == 1
        assert len(table["matches"]) == 1

    def test_matching_respects_radius(self):
        scene = SceneSpec(boxes=(make_box((120, 100, 60), (0, 0, 30)),),
                          rgb_resolution=(448, 344))
        truth = ground_truth(scene)
        report = self._report_from_truth(truth)
        report["poses"][0]["centroid_mm"][0] += 50.0
        table = verify_against_ground_truth(report, truth, match_radius_mm=30)
        assert table["misses"] == 1 and table["unmatched_poses"] == 1

    def test_report_json_round_trip(self):
        scene = four_box_scene()
        img, cloud, config = synth_inputs(scene)
        report = run_pipeline(config, img, cloud, "parent")
        truth = ground_truth(scene)
        table = verify_against_ground_truth(report, truth)
        assert len(table["matches"]) == 4
        replayed = json.loads(json.dumps(report.to_dict()))
        assert verify_against_ground_truth(replayed, truth) == table

    def test_rotation_error_wraps(self):
        scene = SceneSpec(boxes=(make_box((120, 100, 60), (0, 0, 30)),),
                          rgb_resolution=(448, 344))
        truth = ground_truth(scene)
        report = self._report_from_truth(truth)
        report["poses"][0]["euler_zyx_deg"][0] = 179.0
        table = verify_against_ground_truth(report, truth)
        # truth theta1 is 0, so the wrapped difference is 179, not 181
        assert table["matches"][0]["rot_err_deg"][0] == pytest.approx(179.0)


class TestFileFormats:
    def test_pgm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = GrayImage(rng.integers(0, 256, size=(34, 46), dtype=np.uint8))
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_image(path).pixels, img.pixels)

    def test_ppm_luma(self, tmp_path):
        path = tmp_path / "img.ppm"
        rgb = np.zeros((2, 2, 3), dtype=np.uint8)
        rgb[0, 0] = (255, 0, 0)
        rgb[0, 1] = (0, 255, 0)
        rgb[1, 0] = (0, 0, 255)
        rgb[1, 1] = (255, 255, 255)
        with open(path, "wb") as fh:
            fh.write(b"P6\n2 2\n255\n" + rgb.tobytes())
        gray = read_image(path)
        assert gray.pixels[0, 0] == round(0.299 * 255)
        assert gray.pixels[0, 1] == round(0.587 * 255)
        assert gray.pixels[1, 0] == round(0.114 * 255)
        assert gray.pixels[1, 1] == 255

    def test_mask_pgm_roundtrip(self, tmp_path):
        bits = np.zeros((10, 12), dtype=bool)
        bits[2:5, 3:9] = True
        path = tmp_path / "mask_child.pgm"
        write_mask_pgm(path, BinaryMask.from_bits(bits, role="child"))
        raw = read_image(path)
        assert set(np.unique(raw.pixels)) == {0, 255}
        back = read_mask_pgm(path, "child")
        assert np.array_equal(back.bits, bits)

    def test_ply_roundtrip(self, tmp_path):
        scene = SceneSpec(boxes=(make_box((120, 100, 60), (0, 0, 30)),),
                          rgb_resolution=(448, 344))
        cloud = render_depth(scene)
        path = tmp_path / "cloud.ply"
        write_ply_organized(path, cloud)
        back = read_ply_organized(path)
        assert back.width == cloud.width and back.height == cloud.height
        assert np.array_equal(back.valid, cloud.valid)
        assert np.abs(back.points[back.valid] - cloud.points[cloud.valid]).max() < 1e-9
        header = path.read_text().splitlines()
        assert "comment organized 224 172" in header
        assert "property uchar valid" in header

    def test_ply_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat ascii 1.0\nend_header\n")
        with pytest.raises(InputError):
            read_ply_organized(path)

    def test_maxval_1_mask_scales_to_255(self, tmp_path):
        path = tmp_path / "mask_parent.pgm"
        path.write_bytes(b"P5 4 2 1\n" + bytes([0, 1, 1, 0, 1, 1, 0, 0]))
        assert read_image(path).pixels.tolist() == [[0, 255, 255, 0], [255, 255, 0, 0]]
        assert read_mask_pgm(path, "parent").bits.sum() == 4

    def test_ppm_maxval_scales_before_luma(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n2 1\n3\n" + bytes([3, 3, 3, 1, 2, 0]))
        # 1, 2, 0 of 3 scale to 85, 170, 0 (rounded), then 0.299/0.587/0.114
        assert read_image(path).pixels.tolist() == [[255, round(0.299 * 85 + 0.587 * 170)]]

    @pytest.mark.parametrize("valid", ["0.5", "-3", "nan", "2"])
    def test_ply_valid_other_than_0_or_1_rejected(self, tmp_path, valid):
        path = tmp_path / "bad.ply"
        path.write_text("\n".join([
            "ply", "format ascii 1.0", "comment organized 1 1", "element vertex 1",
            "property float x", "property float y", "property float z",
            "property uchar valid", "end_header", f"0 0 1 {valid}"]) + "\n")
        with pytest.raises(InputError, match="valid must be 0 or 1"):
            read_ply_organized(path)

    def test_truth_roundtrip(self):
        scene = SceneSpec(boxes=(make_box((120, 100, 60), (5, -5, 30)),),
                          rgb_resolution=(448, 344))
        truth = ground_truth(scene)
        data = truth_to_dict(truth, scene_homography(scene).to_flat_list())
        back = truth_from_dict(data)
        assert back[0].centroid_mm == pytest.approx(truth[0].centroid_mm)
        assert back[0].priority == truth[0].priority
        assert data["rgb_to_depth_homography"][8] == 1.0


# The CLI child process imports the same binpick as this test process.
_CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(binpick.__file__).parents[1]), os.environ.get("PYTHONPATH")])))


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "binpick.cli", *args],
                          capture_output=True, text=True, env=_CLI_ENV)


def run_python(code, *args):
    out = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, env=_CLI_ENV)
    assert out.returncode == 0, out.stderr
    return out.stdout


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_loads_no_scipy():
    for module in ("binpick", "binpick.synth", "binpick.cli"):
        loaded = run_python(f"import sys, {module}; print({_SCIPY_MODULES})")
        assert loaded.strip() == "[]", module


_FIRST_CALL_SCENE = {"rgb_resolution": [448, 344], "noise_sigma_m": 0.002, "seed": 5,
                     "boxes": [{"dimensions_mm": [120, 100, 60], "position_mm": [10, -5, 30],
                                "face_intensity": 210}]}


def test_first_call_loads_scipy_with_same_poses():
    """A fresh interpreter loads the kd-tree and the graph labelling on the
    first pipeline run, and that run gives this process's poses."""
    code = textwrap.dedent(f"""\
        import json, sys
        from binpick import PipelineConfig, add_depth_noise, render_depth, render_image
        from binpick import run_pipeline, scene_homography
        from binpick.synth import scene_from_dict
        at_import = {_SCIPY_MODULES}
        scene = scene_from_dict(json.loads(sys.argv[1]))
        cloud = add_depth_noise(render_depth(scene), scene.noise_sigma_m, scene.seed)
        config = PipelineConfig(homography=scene_homography(scene))
        report = run_pipeline(config, render_image(scene), cloud, "parent")
        print(json.dumps({{"at_import": at_import, "poses": report.to_dict()["poses"],
                          "loaded": {_SCIPY_MODULES}}}))
    """)
    child = json.loads(run_python(code, json.dumps(_FIRST_CALL_SCENE)))
    img, cloud, config = synth_inputs(scene_from_dict(_FIRST_CALL_SCENE))
    poses = run_pipeline(config, img, cloud, "parent").to_dict()["poses"]
    assert child["at_import"] == []
    assert {"scipy.spatial", "scipy.sparse.csgraph"} <= set(child["loaded"])
    assert len(child["poses"]) == 1
    assert child["poses"] == json.loads(json.dumps(poses))


def test_detection_loads_scipy_before_its_clock():
    """A detection loads the kd-tree and the graph labelling before its clock
    starts, so it loads them even with no masks to localize."""
    code = textwrap.dedent(f"""\
        import json, sys
        from binpick import PipelineConfig, render_depth, scene_homography
        from binpick.pipeline import localize_masks
        from binpick.synth import SceneSpec
        scene = SceneSpec(rgb_resolution=(64, 48))
        cloud = render_depth(scene)
        before = {_SCIPY_MODULES}
        localize_masks(PipelineConfig(homography=scene_homography(scene)), [], cloud)
        print(json.dumps({{"before": before, "after": {_SCIPY_MODULES}}}))
    """)
    child = json.loads(run_python(code))
    assert child["before"] == []
    assert {"scipy.spatial", "scipy.sparse.csgraph"} <= set(child["after"])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scene = {
        "rgb_resolution": [640, 480],
        "boxes": [{"dimensions_mm": [120, 100, 60],
                   "position_mm": [0, 0, 30],
                   "face_intensity": 210}],
    }
    write_json(root / "scene.json", scene)
    out = run_cli("synth", str(root / "scene.json"), "--out", str(root / "data"))
    assert out.returncode == 0, out.stderr
    truth = json.loads((root / "data" / "truth.json").read_text())
    config = {"rgb_to_depth_homography": truth["rgb_to_depth_homography"]}
    write_json(root / "config.json", config)
    return root


def netpbm_samples(data: bytes) -> tuple[bytes, bytes, int, np.ndarray]:
    """(magic, size line, maxval, samples) of a file that write_pgm wrote."""
    magic, size, maxval, body = data.split(b"\n", 3)
    return magic, size, int(maxval), np.frombuffer(body, dtype=np.uint8)


def cli_report(workdir, out, *args):
    """Poses and counts of one CLI run on the one-box scene, which finds its box."""
    done = run_cli(*args, "--config", str(workdir / "config.json"), "--out", str(out))
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert len(report["poses"]) == 1
    return report["poses"], report["counts"]


class TestCli:

    def test_pipeline_and_verify(self, workdir):
        out = run_cli("pipeline", str(workdir / "data" / "image.pgm"),
                      str(workdir / "data" / "cloud.ply"),
                      "--config", str(workdir / "config.json"),
                      "--phase", "parent",
                      "--out", str(workdir / "report.json"))
        assert out.returncode == 0, out.stderr
        report = json.loads((workdir / "report.json").read_text())
        assert len(report["poses"]) == 1
        assert set(report["timing_s"]) == set(TIMING_KEYS)

        out = run_cli("verify", str(workdir / "report.json"),
                      str(workdir / "data" / "truth.json"),
                      "--out", str(workdir / "errors.json"))
        assert out.returncode == 0, out.stderr
        table = json.loads((workdir / "errors.json").read_text())
        assert len(table["matches"]) == 1 and table["misses"] == 0
        assert "baseline" in out.stdout

    def test_segment_then_localize(self, workdir):
        out = run_cli("segment", str(workdir / "data" / "image.pgm"),
                      "--config", str(workdir / "config.json"),
                      "--phase", "parent", "--out", str(workdir / "masks"))
        assert out.returncode == 0, out.stderr
        masks = sorted((workdir / "masks").glob("mask_*.pgm"))
        assert len(masks) == 1 and "parent" in masks[0].name

        out = run_cli("localize", str(workdir / "data" / "cloud.ply"),
                      *(str(m) for m in masks),
                      "--config", str(workdir / "config.json"),
                      "--out", str(workdir / "loc.json"))
        assert out.returncode == 0, out.stderr
        report = json.loads((workdir / "loc.json").read_text())
        assert len(report["poses"]) == 1
        assert report["poses"][0]["priority"] == "parent"

    def test_exit_code_input_error(self, workdir):
        out = run_cli("pipeline", str(workdir / "nonexistent.pgm"),
                      str(workdir / "data" / "cloud.ply"),
                      "--config", str(workdir / "config.json"))
        assert out.returncode == 2

    def test_exit_code_config_error(self, workdir):
        write_json(workdir / "bad_config.json", {"bogus_knob": 1})
        out = run_cli("pipeline", str(workdir / "data" / "image.pgm"),
                      str(workdir / "data" / "cloud.ply"),
                      "--config", str(workdir / "bad_config.json"))
        assert out.returncode == 3

    def test_denominator_sign_change_is_config_error(self, workdir):
        # The homography's line at infinity, x = 320, cuts the 640x480 frame.
        config = json.loads((workdir / "config.json").read_text())
        h = np.reshape(config["rgb_to_depth_homography"], (3, 3))
        h = h @ np.array([[1, 0, 0], [0, 1, 0], [-1 / 320, 0, 1]])
        write_json(workdir / "crossing.json",
                   {**config, "rgb_to_depth_homography": h.ravel().tolist()})
        out = run_cli("pipeline", str(workdir / "data" / "image.pgm"),
                      str(workdir / "data" / "cloud.ply"),
                      "--config", str(workdir / "crossing.json"))
        assert out.returncode == 3, out.stderr
        assert "denominator" in out.stderr
        assert "Traceback" not in out.stderr and "Warning" not in out.stderr

    def test_mls_order_is_an_unknown_key(self, workdir, tmp_path):
        # MLS fits one quadratic; no key selects the plane-only fit
        with pytest.raises(ConfigError, match="unknown config keys.*mls_order"):
            config_from_dict({"mls_order": 2})
        config = json.loads((workdir / "config.json").read_text())
        write_json(tmp_path / "config.json", {**config, "mls_order": 2})
        out = run_cli("pipeline", str(workdir / "data" / "image.pgm"),
                      str(workdir / "data" / "cloud.ply"),
                      "--config", str(tmp_path / "config.json"))
        assert out.returncode == 3, out.stderr
        assert "mls_order" in out.stderr

    def test_subnormal_voxel_leaf_is_config_error(self, workdir):
        # 1.1 m over 5e-324 overflows, so no voxel key is finite
        config = json.loads((workdir / "config.json").read_text())
        write_json(workdir / "subnormal_leaf.json", {**config, "voxel_leaf_m": 5e-324})
        out = run_cli("pipeline", str(workdir / "data" / "image.pgm"),
                      str(workdir / "data" / "cloud.ply"),
                      "--config", str(workdir / "subnormal_leaf.json"))
        assert out.returncode == 3, out.stderr
        assert "voxel leaf" in out.stderr
        assert "Traceback" not in out.stderr and "Warning" not in out.stderr

    def test_truncated_image_is_input_error(self, workdir):
        (workdir / "truncated.pgm").write_bytes(b"P5\n10 10\n255\n0123")
        out = run_cli("segment", str(workdir / "truncated.pgm"),
                      "--out", str(workdir / "truncated_masks"))
        assert out.returncode == 2, out.stderr
        assert "truncated" in out.stderr

    def test_roi_outside_image_is_config_error(self, workdir):
        config = json.loads((workdir / "config.json").read_text())
        image = str(workdir / "data" / "image.pgm")
        for roi in ([0, 0, 5000, 10], [600, 0, 50, 10], [10, 10, 2, 2]):
            write_json(workdir / "roi_config.json", {**config, "roi": roi})
            for args in (("segment", image, "--out", str(workdir / "roi_masks")),
                         ("pipeline", image, str(workdir / "data" / "cloud.ply"))):
                out = run_cli(*args, "--config", str(workdir / "roi_config.json"))
                assert out.returncode == 3, (roi, args[0], out.stderr)
                assert "roi" in out.stderr

    def test_roi_values_not_integers_is_config_error(self, workdir):
        config = json.loads((workdir / "config.json").read_text())
        for roi in ([1.9, 2, 100.7, 100], [True, 2, 100, 100]):
            write_json(workdir / "roi_config.json", {**config, "roi": roi})
            out = run_cli("pipeline", str(workdir / "data" / "image.pgm"),
                          str(workdir / "data" / "cloud.ply"),
                          "--config", str(workdir / "roi_config.json"))
            assert out.returncode == 3, (roi, out.stderr)
            assert "roi must be four integers" in out.stderr

    @pytest.mark.parametrize("maxval, sample", [(0, 0), (100, 200)],
                             ids=["maxval-0", "sample-above-maxval"])
    def test_bad_pgm_maxval_is_input_error(self, workdir, tmp_path, maxval, sample):
        path = tmp_path / "mask_parent.pgm"
        path.write_bytes(f"P5\n4 4\n{maxval}\n".encode() + bytes([sample] * 16))
        for args in (("segment", str(path), "--out", str(tmp_path / "masks")),
                     ("localize", str(workdir / "data" / "cloud.ply"), str(path))):
            out = run_cli(*args, "--config", str(workdir / "config.json"))
            assert out.returncode == 2, (args[0], out.stderr)
            assert "maxval" in out.stderr

    def test_maxval_1_mask_localizes_the_box(self, workdir, tmp_path):
        # the same mask at maxval 1 and 255 gives the same report
        out = run_cli("segment", str(workdir / "data" / "image.pgm"),
                      "--config", str(workdir / "config.json"),
                      "--phase", "parent", "--out", str(tmp_path / "masks"))
        assert out.returncode == 0, out.stderr
        (mask,) = (tmp_path / "masks").glob("mask_*.pgm")
        magic, size, maxval, samples = netpbm_samples(mask.read_bytes())
        assert maxval == 255 and set(np.unique(samples)) == {0, 255}
        path = tmp_path / "mask_parent.pgm"
        path.write_bytes(magic + b"\n" + size + b"\n1\n" + (samples // 255).tobytes())
        cloud = str(workdir / "data" / "cloud.ply")
        assert (cli_report(workdir, tmp_path / "255.json", "localize", cloud, str(mask))
                == cli_report(workdir, tmp_path / "1.json", "localize", cloud, str(path)))

    def test_image_under_3x3_is_input_error(self, workdir):
        (workdir / "tiny.pgm").write_bytes(b"P5\n2 2\n255\nabcd")
        image = str(workdir / "tiny.pgm")
        for args in (("segment", image, "--out", str(workdir / "tiny_masks")),
                     ("pipeline", image, str(workdir / "data" / "cloud.ply"))):
            out = run_cli(*args, "--config", str(workdir / "config.json"))
            assert out.returncode == 2, (args[0], out.stderr)
            assert "3x3" in out.stderr

    @pytest.mark.parametrize("comment, fmt, vertex", [
        ("comment organized 2 x", "format ascii 1.0", "0 0 1 1"),
        ("comment organized 1 1", "format", "0 0 1 1"),
        ("comment organized 1 1", "format ascii 1.0", "0 nan 1 1"),
        ("comment organized 0 0", "format ascii 1.0", ""),
    ], ids=["bad-grid-size", "bare-format", "valid-nan-point", "empty-grid"])
    def test_malformed_ply_is_input_error(self, workdir, tmp_path, comment, fmt, vertex):
        count = 0 if comment.endswith(" 0 0") else 1
        (tmp_path / "bad.ply").write_text("\n".join([
            "ply", fmt, comment, f"element vertex {count}", "property float x",
            "property float y", "property float z", "property uchar valid",
            "end_header", vertex]) + "\n")
        (tmp_path / "mask_parent.pgm").write_bytes(b"P5\n3 3\n255\n" + bytes([255] * 9))
        out = run_cli("localize", str(tmp_path / "bad.ply"),
                      str(tmp_path / "mask_parent.pgm"),
                      "--config", str(workdir / "config.json"))
        assert out.returncode == 2, out.stderr
        assert "input error" in out.stderr

    @pytest.mark.parametrize("override", [
        {"rgb_to_depth_homography": "abc"},
        {"roi": ["a", 1, 1, 1]},
    ], ids=["homography-string", "roi-string"])
    def test_unconvertible_config_value_is_config_error(self, workdir, tmp_path, override):
        config = json.loads((workdir / "config.json").read_text())
        write_json(tmp_path / "config.json", {**config, **override})
        out = run_cli("segment", str(workdir / "data" / "image.pgm"),
                      "--config", str(tmp_path / "config.json"),
                      "--out", str(tmp_path / "masks"))
        assert out.returncode == 3, out.stderr
        assert "config error" in out.stderr

    @pytest.mark.parametrize("entry", ['"seed": -1', '"mls_radius_m": Infinity',
                                       '"mls_radius_m": 1e400'],
                             ids=["negative-seed", "infinity", "overflowing-literal"])
    def test_out_of_range_config_number_is_config_error(self, workdir, tmp_path, entry):
        config = json.loads((workdir / "config.json").read_text())
        (tmp_path / "config.json").write_text(
            f'{{"rgb_to_depth_homography": {json.dumps(config["rgb_to_depth_homography"])}, '
            f'{entry}}}')
        out = run_cli("pipeline", str(workdir / "data" / "image.pgm"),
                      str(workdir / "data" / "cloud.ply"),
                      "--config", str(tmp_path / "config.json"))
        assert out.returncode == 3, out.stderr
        assert entry.split('"')[1] in out.stderr

    def test_json_that_is_not_utf8_is_input_error(self, workdir, tmp_path):
        (tmp_path / "bad.json").write_bytes(b"\xff\xfe{}")
        write_json(tmp_path / "report.json", {"poses": []})
        bad, report = str(tmp_path / "bad.json"), str(tmp_path / "report.json")
        truth = str(workdir / "data" / "truth.json")
        for args in (("pipeline", str(workdir / "data" / "image.pgm"),
                      str(workdir / "data" / "cloud.ply"), "--config", bad),
                     ("verify", bad, truth), ("verify", report, bad),
                     ("synth", bad, "--out", str(tmp_path / "scene"))):
            out = run_cli(*args)
            assert out.returncode == 2, (args, out.stderr)
            assert "input error" in out.stderr

    @pytest.mark.parametrize("scene, flags", [
        ({"seed": -1}, ()), ({}, ("--seed", "-2")), ({"seed": True}, ()),
        ({"seed": 1.5}, ()), ({"floor_intensity": True}, ()),
        ({"floor_intensity": 1.5}, ()), ({"face_intensity": True}, ()),
        ({"face_intensity": 1.5}, ()),
        ({"bin_size_mm": [0, 400], "boxes": []}, ()),
        ({"bin_size_mm": [-600, 400], "boxes": []}, ()),
        ({"bin_size_mm": [5e-324, 400], "boxes": []}, ()),
        ({"fov_margin": float("inf")}, ()), ({"mount_height_m": float("nan")}, ()),
        ({"mount_height_m": True}, ()), ({"noise_sigma_m": float("nan")}, ()),
        ({"wall_height_mm": float("nan")}, ()), ({"depth_resolution": [40.7, 30]}, ()),
        ({"dimensions_mm": [120, float("nan"), 60], "allow_undersize": True}, ()),
        ({"position_mm": [0, float("nan"), 30]}, ()),
        ({"dimensions_mm": [30, 30, 10], "position_mm": [0, 0, 5],
          "allow_undersize": "no"}, ()),
        ({"mount_height_m": 0.05}, ()), ({"mount_height_m": 0.06}, ()),
        ({"wall_height_mm": 1200}, ()), ({"wall_height_mm": 1e308}, ()),
        ({"mount_height_m": 1e308}, ()), ({"noise_sigma_m": 1e308}, ()),
    ], ids=["negative-seed", "negative-seed-flag", "seed-true", "seed-fraction",
            "floor-intensity-true", "floor-intensity-fraction", "face-intensity-true",
            "face-intensity-fraction", "bin-size-zero", "bin-size-negative", "bin-size-underflow",
            "fov-margin-infinite", "mount-height-nan", "mount-height-true", "noise-nan",
            "wall-height-nan", "resolution-fraction", "box-dimension-nan",
            "box-position-nan", "undersize-flag-string", "camera-inside-box",
            "box-top-at-camera", "wall-top-at-camera", "wall-height-huge",
            "mount-height-huge", "noise-huge"])
    def test_bad_scene_integer_is_input_error(self, tmp_path, scene, flags):
        """Scene numbers that are not finite, not positive where a size must
        be, fractional where a count must be, or of the wrong type; a box or
        wall that reaches the camera; a camera or noise so large that the
        intrinsics or the noisy points would not be finite."""
        box_keys = {"dimensions_mm", "position_mm", "face_intensity", "allow_undersize"}
        box = {"dimensions_mm": [120, 100, 60], "position_mm": [0, 0, 30],
               **{k: v for k, v in scene.items() if k in box_keys}}
        write_json(tmp_path / "scene.json", {
            "rgb_resolution": [448, 344], "noise_sigma_m": 0.002, "boxes": [box],
            **{k: v for k, v in scene.items() if k not in box_keys}})
        out = run_cli("synth", str(tmp_path / "scene.json"),
                      "--out", str(tmp_path / "data"), *flags)
        assert out.returncode == 2, out.stderr
        assert "input error" in out.stderr and "Traceback" not in out.stderr

    def test_unreadable_or_non_object_scene_is_input_error(self, tmp_path):
        (tmp_path / "list.json").write_text("[1, 2]")
        for scene in ("missing.json", "list.json"):
            out = run_cli("synth", str(tmp_path / scene), "--out", str(tmp_path / "data"))
            assert out.returncode == 2, (scene, out.stderr)
            assert "input error" in out.stderr
        write_json(tmp_path / "scene.json", {"rgb_resolution": [448, 344],
                                             "noise_sigma_m": 0.002})
        out = run_cli("synth", str(tmp_path / "scene.json"), "--out", str(tmp_path / "data"),
                      "--seed", "3")
        assert out.returncode == 0, out.stderr

    @pytest.mark.parametrize("report, truth_centroid", [
        ({"poses": 5}, [0, 0, 1000]),
        ({"poses": [{"centroid_mm": [0, 0], "euler_zyx_deg": [0, 0, 0]}]}, [0, 0, 1000]),
        ({"poses": []}, [0, 0]),
    ], ids=["poses-not-a-list", "two-number-centroid", "two-number-truth-centroid"])
    def test_malformed_verify_input_is_input_error(self, tmp_path, report, truth_centroid):
        write_json(tmp_path / "report.json", report)
        write_json(tmp_path / "truth.json", {"boxes": [{
            "centroid_mm": truth_centroid, "normal": [0, 0, -1],
            "euler_zyx_deg": [0, 0, 0]}]})
        out = run_cli("verify", str(tmp_path / "report.json"), str(tmp_path / "truth.json"))
        assert out.returncode == 2, out.stderr
        assert "input error" in out.stderr

    @pytest.mark.parametrize("radius", ["-1", "0", "nan", "inf"])
    def test_bad_match_radius_is_config_error(self, workdir, radius):
        write_json(workdir / "no_poses.json", {"poses": []})
        out = run_cli("verify", str(workdir / "no_poses.json"),
                      str(workdir / "data" / "truth.json"), "--match-radius", radius)
        assert out.returncode == 3, out.stderr
        assert "match radius" in out.stderr

    def test_missing_calibration_is_config_error(self, workdir):
        write_json(workdir / "empty_config.json", {})
        out = run_cli("pipeline", str(workdir / "data" / "image.pgm"),
                      str(workdir / "data" / "cloud.ply"),
                      "--config", str(workdir / "empty_config.json"))
        assert out.returncode == 3

    def test_zero_detections_still_succeed(self, workdir, tmp_path):
        write_json(tmp_path / "empty_scene.json", {"rgb_resolution": [448, 344]})
        out = run_cli("synth", str(tmp_path / "empty_scene.json"),
                      "--out", str(tmp_path / "data"))
        assert out.returncode == 0, out.stderr
        out = run_cli("pipeline", str(tmp_path / "data" / "image.pgm"),
                      str(tmp_path / "data" / "cloud.ply"),
                      "--config", str(workdir / "config.json"),
                      "--out", str(tmp_path / "report.json"))
        assert out.returncode == 0, out.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["poses"] == []



class TestEncodings:
    """Every encoding of one input gives the same report: the one-box CLI
    scene's poses and counts do not depend on how a file spells its values.
    TestCli.test_maxval_1_mask_localizes_the_box covers a mask's maxval."""

    def test_gray_p6_as_p5(self, workdir, tmp_path):
        p5 = workdir / "data" / "image.pgm"
        magic, size, maxval, pixels = netpbm_samples(p5.read_bytes())
        assert (magic, maxval) == (b"P5", 255)
        p6 = tmp_path / "image.ppm"
        p6.write_bytes(b"P6\n" + size + b"\n255\n" + np.repeat(pixels, 3).tobytes())
        cloud = str(workdir / "data" / "cloud.ply")
        assert (cli_report(workdir, tmp_path / "p5.json", "pipeline", str(p5), cloud)
                == cli_report(workdir, tmp_path / "p6.json", "pipeline", str(p6), cloud))

    def test_ply_valid_as_float(self, workdir, tmp_path):
        ints = workdir / "data" / "cloud.ply"
        header, body = ints.read_text().split("end_header\n")
        rows = [row.rsplit(" ", 1) for row in body.splitlines()]
        assert {valid for _, valid in rows} == {"0", "1"}
        floats = tmp_path / "cloud.ply"
        floats.write_text(header + "end_header\n"
                          + "".join(f"{xyz} {valid}.0\n" for xyz, valid in rows))
        image = str(workdir / "data" / "image.pgm")
        assert (cli_report(workdir, tmp_path / "int.json", "pipeline", image, str(ints))
                == cli_report(workdir, tmp_path / "float.json", "pipeline", image, str(floats)))
