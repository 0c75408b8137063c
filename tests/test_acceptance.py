"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
criteria and tolerances are fixed here, nothing is tuned per machine. Scenes
use reduced RGB resolutions (the contour-area threshold rescales with pixel
count) to keep the suite fast; the depth grid is always the sensor's native
224x172.
"""

import itertools
import time

import numpy as np

from binpick.conditioning import statistical_outlier_removal, voxel_grid_downsample
from binpick.clustering import core_distances, mutual_reachability_mst
from binpick.core import normalize_plane
from binpick.planes import SegmentedPlane, check_overlapping, ransac_plane
from binpick.pipeline import (
    TIMING_KEYS,
    PipelineConfig,
    run_pipeline,
    verify_against_ground_truth,
)
from binpick.pose import build_frame, euler_zyx_from_rotation, euler_zyx_to_rotation
from binpick.segmentation import find_contours, generate_masks
from binpick.synth import (
    SceneSpec,
    add_depth_noise,
    ground_truth,
    render_depth,
    render_image,
    scene_homography,
    scene_without_boxes,
)

from .oracles import (
    best_plane_inliers_exhaustive,
    brute_core_distances,
    kruskal_mst_weights,
    mutual_reachability_matrix,
    plane_coefficients,
)
from .test_segmentation import ring_bitmap
from .test_synth import make_box

# The nine verification orientations: tilts about each axis, their
# combinations, and the face parallel to the bin surface.
TILTS = [(0, 0), (45, 0), (-45, 0), (0, 45), (0, -45),
         (45, 45), (45, -45), (-45, 45), (-45, -45)]


def tilt_scene(tilt_x, tilt_y, rgb=(1024, 768), noise=0.0, seed=0):
    return SceneSpec(
        boxes=(make_box((120, 100, 60), (0, 0, 120), rot_zyx_deg=(0, tilt_y, tilt_x)),),
        rgb_resolution=rgb, noise_sigma_m=noise, seed=seed)


def detect(scene, phase, seed=0):
    img = render_image(scene)
    cloud = render_depth(scene)
    if scene.noise_sigma_m > 0:
        cloud = add_depth_noise(cloud, scene.noise_sigma_m, scene.seed)
    config = PipelineConfig(homography=scene_homography(scene), seed=seed)
    return run_pipeline(config, img, cloud, phase)


def test_criterion_1_noiseless_recovery():
    start = time.perf_counter()
    for tilt_x, tilt_y in TILTS:
        scene = tilt_scene(tilt_x, tilt_y)
        report = detect(scene, "parent")
        table = verify_against_ground_truth(report, ground_truth(scene))
        assert table["misses"] == 0 and len(table["matches"]) == 1, \
            f"tilt ({tilt_x},{tilt_y}): box not recovered"
        m = table["matches"][0]
        assert max(m["trans_err_mm"]) <= 1.0, (tilt_x, tilt_y, m["trans_err_mm"])
        assert max(m["rot_err_deg"]) <= 0.5, (tilt_x, tilt_y, m["rot_err_deg"])
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"noiseless suite took {elapsed:.1f} s"
    print(f"\nACCEPTANCE 1 (noiseless recovery, 9 scenes, {elapsed:.1f} s): PASS")


def test_criterion_2_noisy_accuracy():
    trans_errs = []
    rot_errs = []
    for tilt_x, tilt_y in TILTS:
        scene = tilt_scene(tilt_x, tilt_y, rgb=(640, 480), noise=0.002)
        img = render_image(scene)
        clean = render_depth(scene)
        truth = ground_truth(scene)
        config = PipelineConfig(homography=scene_homography(scene))
        for seed in range(20):
            cloud = add_depth_noise(clean, 0.002, seed)
            config.seed = seed
            report = run_pipeline(config, img, cloud, "parent")
            table = verify_against_ground_truth(report, truth)
            assert len(table["matches"]) == 1, \
                f"tilt ({tilt_x},{tilt_y}) seed {seed}: no match"
            trans_errs.append(table["matches"][0]["trans_err_mm"])
            rot_errs.append(table["matches"][0]["rot_err_deg"])
    mean_trans = np.mean(trans_errs, axis=0)
    mean_rot = np.mean(rot_errs, axis=0)
    assert (mean_trans <= 5.0).all(), mean_trans
    assert (mean_rot <= 4.0).all(), mean_rot
    print(f"\nACCEPTANCE 2 (noisy accuracy, 180 runs): PASS "
          f"(mean trans {np.round(mean_trans, 2)} mm, "
          f"mean rot {np.round(mean_rot, 3)} deg)")


def test_criterion_3_adjacent_boxes():
    scene = SceneSpec(
        boxes=(make_box((100, 100, 50), (-50, 0, 25), intensity=180),
               make_box((100, 100, 50), (50, 0, 25), intensity=230)),
        rgb_resolution=(640, 480), noise_sigma_m=0.002, seed=3)
    truth = ground_truth(scene)
    child = detect(scene, "child")
    parent = detect(scene, "parent")
    union = child.to_dict()["poses"] + [
        dict(p, id=p["id"] + 100) for p in parent.to_dict()["poses"]]
    table = verify_against_ground_truth({"poses": union}, truth)
    assert len(table["matches"]) == 2 and table["misses"] == 0
    for m in table["matches"]:
        assert max(m["trans_err_mm"]) <= 5.0, m
        assert max(m["rot_err_deg"]) <= 4.0, m
    print("\nACCEPTANCE 3 (adjacent same-height boxes): PASS")


def test_equal_height_seam_limit():
    """Touching boxes of equal height leave no depth step, so only the image
    can split them. With top faces 24 gray levels apart or closer, the two
    boxes give one mask and one pose on the seam, matching neither box; at
    32 levels apart, or with a 1 mm gap, both are found."""
    def seam_scene(gap_mm, levels):
        half = 50 + gap_mm / 2
        return SceneSpec(
            boxes=(make_box((100, 100, 50), (-half, 0, 25), intensity=180),
                   make_box((100, 100, 50), (half, 0, 25), intensity=180 + levels)),
            rgb_resolution=(640, 480))

    for levels in (0, 8, 16, 24):
        scene = seam_scene(0, levels)
        report = detect(scene, "parent")
        assert report.counts["masks"] == 1 and len(report.poses) == 1, levels
        c = report.poses[0].centroid_mm
        assert np.allclose([c.x, c.y, c.z], [0.0, 0.0, 1150.0], atol=0.5), (levels, c)
        assert verify_against_ground_truth(report, ground_truth(scene))["matches"] == []
    for gap_mm, levels in ((0, 32), (1, 0)):
        scene = seam_scene(gap_mm, levels)
        table = verify_against_ground_truth(detect(scene, "parent"), ground_truth(scene))
        assert len(table["matches"]) == 2 and table["misses"] == 0, (gap_mm, levels)


def test_criterion_4_stacked_boxes():
    big = make_box((150, 150, 60), (0, 0, 30), intensity=180)
    small = make_box((80, 80, 40), (0, 0, 80), intensity=230)
    scene = SceneSpec(boxes=(big, small), rgb_resolution=(640, 480))
    truth = ground_truth(scene)
    assert [t.priority for t in truth] == ["parent", "child"]

    child_report = detect(scene, "child")
    assert len(child_report.poses) == 1
    assert child_report.poses[0].priority == "child"
    table = verify_against_ground_truth(child_report, [truth[1]])
    assert len(table["matches"]) == 1

    # parent masks are used only after the child has been picked
    picked = scene_without_boxes(scene, [1])
    parent_report = detect(picked, "parent")
    table = verify_against_ground_truth(parent_report, ground_truth(picked))
    assert len(table["matches"]) == 1

    child_z = child_report.poses[0].centroid_mm.z
    matched_parent = parent_report.poses[table["matches"][0]["pose_id"]]
    assert child_z < matched_parent.centroid_mm.z
    print("\nACCEPTANCE 4 (stacked boxes, child first): PASS")


def _no_duplicate_detections(report):
    """Merge-uniqueness over a report: no two poses may satisfy both the
    parallel-normal and overlap predicates simultaneously."""
    poses = report.poses
    cos_tol = np.cos(np.radians(5.0))
    for a, b in itertools.combinations(poses, 2):
        dot = abs(float(a.plane.normal @ b.plane.normal))
        if dot < cos_tol:
            continue
        pa = SegmentedPlane(points=a.centroid_mm.as_array().reshape(1, 3) / 1000.0,
                            model=a.plane)
        pb = SegmentedPlane(points=b.centroid_mm.as_array().reshape(1, 3) / 1000.0,
                            model=b.plane)
        if check_overlapping(pa, pb):
            return False
    return True


def test_criterion_5_cluttered_bin():
    boxes = (
        make_box((140, 120, 60), (-180, -100, 30), intensity=200),
        make_box((75, 60, 40), (-180, -100, 80), intensity=240),
        make_box((130, 110, 50), (150, 100, 25), intensity=195),
        make_box((65, 75, 35), (150, 100, 67.5), intensity=235),
        make_box((100, 90, 45), (120, -120, 22.5), rot_zyx_deg=(30, 0, 0), intensity=170),
        make_box((110, 80, 55), (-120, 130, 27.5), rot_zyx_deg=(-20, 0, 0), intensity=215),
    )
    scene = SceneSpec(boxes=boxes, rgb_resolution=(640, 480),
                      noise_sigma_m=0.002, seed=7)
    truth = ground_truth(scene)

    phase1 = detect(scene, "child")
    picked = scene_without_boxes(scene, [1, 3])  # the two stacked children
    phase2 = detect(picked, "parent")

    assert _no_duplicate_detections(phase1)
    assert _no_duplicate_detections(phase2)

    union = phase1.to_dict()["poses"] + [
        dict(p, id=p["id"] + 100) for p in phase2.to_dict()["poses"]]
    table = verify_against_ground_truth({"poses": union}, truth, match_radius_mm=30.0)
    detected = len(table["matches"])
    assert detected >= 5, f"only {detected} of 6 boxes detected"
    print(f"\nACCEPTANCE 5 (cluttered bin): PASS ({detected}/6 detected)")


CRITERION_6_BOXES = (
    make_box((140, 120, 60), (-180, -100, 30), intensity=200),
    make_box((130, 110, 50), (150, 100, 25), intensity=195),
    make_box((100, 90, 45), (120, -120, 22.5), rot_zyx_deg=(30, 0, 0), intensity=170),
    make_box((110, 80, 55), (-120, 130, 27.5), rot_zyx_deg=(-20, 0, 0), intensity=215),
)


def test_criterion_6_timing():
    scene = SceneSpec(boxes=CRITERION_6_BOXES, rgb_resolution=(1024, 768))
    img = render_image(scene)
    cloud = render_depth(scene)
    assert cloud.width == 224 and cloud.height == 172
    config = PipelineConfig(homography=scene_homography(scene))

    start = time.perf_counter()
    report = run_pipeline(config, img, cloud, "parent")
    elapsed = time.perf_counter() - start

    assert set(report.timing_s) == set(TIMING_KEYS)
    assert all(v >= 0 for v in report.timing_s.values())
    assert len(report.poses) == 4
    assert elapsed <= 2.0, f"pipeline took {elapsed:.2f} s"
    print(f"\nACCEPTANCE 6 (timing, 4 boxes): PASS ({elapsed:.2f} s <= 2.0 s)")


def test_criterion_7a_mst_matches_brute_force():
    rng = np.random.default_rng(70)
    for _ in range(100):
        n = int(rng.integers(10, 301))
        pts = rng.uniform(size=(n, 3))
        k = int(rng.integers(1, min(12, n - 1) + 1))
        _, weights = mutual_reachability_mst(pts, k)
        oracle = kruskal_mst_weights(mutual_reachability_matrix(pts, k))
        assert np.array_equal(np.sort(weights), oracle)
    print("\nACCEPTANCE 7a (MST vs brute force, 100 instances): PASS")


def test_criterion_7b_ransac_beats_subsample_oracle():
    # 70 points exactly on z = 0.5 plus 30 uniform points in a 0.3 m cube
    wins = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        plane_pts = np.column_stack([
            rng.uniform(0.4, 0.6, size=70),
            rng.uniform(0.4, 0.6, size=70),
            np.full(70, 0.5),
        ])
        outliers = rng.uniform(0.35, 0.65, size=(30, 3))
        pts = np.vstack([plane_pts, outliers])[rng.permutation(100)]
        inliers, _ = ransac_plane(pts, dist_thresh=0.002, max_iter=200, seed=trial)
        oracle = best_plane_inliers_exhaustive(pts, pts[::5], thresh=0.002)
        if len(inliers) >= oracle:
            wins += 1
    assert wins >= 95, f"RANSAC matched the oracle in only {wins}/100 trials"
    print(f"\nACCEPTANCE 7b (RANSAC vs exhaustive oracle): PASS ({wins}/100)")


def test_criterion_7c_neighbor_index_exact():
    # the kd-tree kNN the pipeline runs: HDBSCAN's core distances
    rng = np.random.default_rng(72)
    for _ in range(100):
        n = int(rng.integers(5, 201))
        pts = rng.uniform(size=(n, 3))
        k = int(rng.integers(1, n))
        assert np.allclose(core_distances(pts, k), brute_core_distances(pts, k),
                           rtol=0, atol=0)
    print("\nACCEPTANCE 7c (kNN vs brute force, 100 instances): PASS")


def test_criterion_8_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(80)

    # Euler roundtrip over 1000 random rotations
    checked = 0
    while checked < 1000:
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        w, x, y, z = q
        rot = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])
        if abs(rot[2, 0]) > 1 - 1e-6:
            continue
        e = euler_zyx_from_rotation(rot)
        assert np.abs(euler_zyx_to_rotation(e) - rot).max() <= 1e-9
        checked += 1

    # both gimbal-lock branches
    from binpick.core import EulerZYX
    for t2 in (90.0, -90.0):
        for t1 in (-120.0, 15.0, 170.0):
            rot = euler_zyx_to_rotation(EulerZYX(t1, t2, 0.0))
            e = euler_zyx_from_rotation(rot)
            assert np.abs(euler_zyx_to_rotation(e) - rot).max() <= 1e-9

    # difference-of-normals norm stays in [0, 1] for any unit-normal pair
    a = rng.normal(size=(100000, 3))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = rng.normal(size=(100000, 3))
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    norms = np.linalg.norm((a - b) / 2.0, axis=1)
    assert norms.min() >= 0.0 and norms.max() <= 1.0 + 1e-12

    # normalize_plane idempotence
    for _ in range(1000):
        raw = rng.normal(size=4) * rng.uniform(0.1, 100)
        if np.linalg.norm(raw[:3]) < 1e-9:
            continue
        once = normalize_plane(raw)
        twice = normalize_plane(plane_coefficients(once))
        assert np.abs(plane_coefficients(once) - plane_coefficients(twice)).max() < 1e-12

    # frame orthonormality
    for _ in range(1000):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        rot = build_frame(n)
        assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-9
        assert abs(np.linalg.det(rot) - 1.0) < 1e-9

    # voxel invariants: count shrinks, outputs stay inside their cells
    pts = rng.uniform(-0.5, 0.5, size=(2000, 3))
    leaf = 0.03
    out = voxel_grid_downsample(pts, leaf)
    assert len(out) <= len(pts)
    assert np.array_equal(np.unique(np.floor(out / leaf).astype(int), axis=0),
                          np.unique(np.floor(pts / leaf).astype(int), axis=0))

    # SOR invariant: nothing at or below the global mean distance is removed
    pts = rng.normal(size=(300, 3))
    k = 6
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    mean_d = np.sort(d, axis=1)[:, 1:k + 1].mean(axis=1)
    kept = {tuple(p) for p in statistical_outlier_removal(pts, k=k, alpha=1.0)}
    for p, md in zip(pts, mean_d):
        if md <= mean_d.mean():
            assert tuple(p) in kept

    # mask invariant: emitted bits equal the source contour's rasterization
    edges = ring_bitmap(40, 40, 3, 36, 3, 36) | ring_bitmap(40, 40, 14, 25, 14, 25)
    contours = find_contours(edges)
    for phase in ("child", "parent"):
        for mask in generate_masks(contours, phase):
            src = contours[mask.source_index]
            raster = np.zeros(src.shape[0] * src.shape[1], dtype=bool)
            raster[src.filled_indices] = True
            assert np.array_equal(mask.bits.reshape(-1), raster)

    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0, f"property suite took {elapsed:.1f} s"
    print(f"\nACCEPTANCE 8 (numerical property suites, {elapsed:.1f} s): PASS")
