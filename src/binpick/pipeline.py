"""End-to-end detection: segmentation, fusion, conditioning, clustering, planes, poses.

One run covers a single picking phase (child masks or parent masks) over one
image/cloud pair. Each mask is pushed through the full chain independently so
its poses inherit the mask's picking priority; coplanar fragments merge only
within a mask, never across distinct objects. Stage wall-clock times accumulate
across masks under fixed report keys, with filtering and resampling+DoN timed
separately and pose estimation last.

Reported timing covers computation only; sensor acquisition is not modeled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields as dataclass_fields

import numpy as np

from . import clustering, conditioning, planes, pose, segmentation
from .core import OrganizedCloud, is_finite_number, is_integer
from .errors import ConfigError, EmptyClusterError, InputError
from .fusion import HOMOGRAPHY_JSON_KEY, Homography, map_mask_to_cloud
from .pose import Pose6DoF
from .segmentation import GrayImage
from .synth import GroundTruthEntry

TIMING_KEYS = ("mask_generation", "filtering", "resampling_don", "clustering",
               "plane_segmentation", "pose_estimation", "total")

TIMING_NOTE = "computation only; sensor acquisition excluded"

# Average pose errors measured on the physical dual-sensor rig, shown next to
# synthetic results as a baseline for comparison. Never asserted against.
HARDWARE_BASELINE_TRANS_ERR_MM = (3.03, 3.27, 3.3)
HARDWARE_BASELINE_ROT_ERR_DEG = (2.95, 3.26)

DEFAULT_MATCH_RADIUS_MM = 30.0


@dataclass
class PipelineConfig:
    """Every tunable of the pipeline; validated against stage preconditions."""

    roi: tuple[int, int, int, int] | None = None
    canny_sigma: float = segmentation.DEFAULT_CANNY_SIGMA
    min_contour_area: float = segmentation.DEFAULT_MIN_CONTOUR_AREA
    # Leaf of at least twice the depth-pixel footprint (~3-4 mm at the mount
    # height): every cell on a face then catches samples, so tilted faces keep
    # a uniform cell lattice instead of a sampling-density gradient.
    voxel_leaf_m: float = 0.008
    sor_k: int = conditioning.DEFAULT_SOR_K
    sor_alpha: float = conditioning.DEFAULT_SOR_ALPHA
    mls_radius_m: float = 0.024
    don_radius_small_m: float = 0.016
    don_radius_large_m: float = 0.04
    don_threshold: float = conditioning.DEFAULT_DON_THRESHOLD
    min_cluster_size: int = clustering.DEFAULT_MIN_CLUSTER_SIZE
    min_samples: int | None = None
    min_object_size: int = planes.DEFAULT_MIN_OBJECT_SIZE
    ransac_dist_thresh_m: float = planes.DEFAULT_RANSAC_DIST_THRESH
    ransac_iterations: int = planes.DEFAULT_RANSAC_ITERATIONS
    merge_angle_tol_deg: float = planes.DEFAULT_MERGE_ANGLE_TOL_DEG
    merge_centroid_thresh_m: float = planes.DEFAULT_CENTROID_THRESH
    merge_perp_thresh_m: float = planes.DEFAULT_PERP_THRESH
    seed: int = 0
    homography: Homography | None = None

    def validate(self) -> "PipelineConfig":
        c = self
        for name, optional in _INT_FIELDS.items():
            value = getattr(c, name)
            if value is None and optional:
                continue
            if not is_integer(value):
                raise ConfigError(f"{name} must be an integer, not {value!r}")
        for name in _FLOAT_FIELDS:
            value = getattr(c, name)
            if not is_finite_number(value):
                raise ConfigError(f"{name} must be a finite number, not {value!r}")
        checks = [
            (c.canny_sigma > 0, "canny_sigma must be positive"),
            (c.min_contour_area >= 0, "min_contour_area cannot be negative"),
            (c.voxel_leaf_m > 0, "voxel_leaf_m must be positive"),
            (c.sor_k >= 1, "sor_k must be at least 1"),
            (c.sor_alpha >= 0, "sor_alpha cannot be negative"),
            (c.mls_radius_m > 0, "mls_radius_m must be positive"),
            (0 < c.don_radius_small_m < c.don_radius_large_m,
             "DoN radii must satisfy 0 < small < large"),
            (0 < c.don_threshold <= 1, "don_threshold must lie in (0, 1]"),
            (c.min_cluster_size >= 2, "min_cluster_size must be at least 2"),
            (c.min_samples is None or c.min_samples >= 1,
             "min_samples must be at least 1"),
            (c.min_object_size >= 3, "min_object_size must be at least 3"),
            (c.ransac_dist_thresh_m > 0, "ransac_dist_thresh_m must be positive"),
            (c.ransac_iterations >= 1, "ransac_iterations must be at least 1"),
            (c.merge_angle_tol_deg > 0, "merge_angle_tol_deg must be positive"),
            (c.merge_centroid_thresh_m > 0, "merge_centroid_thresh_m must be positive"),
            (c.merge_perp_thresh_m > 0, "merge_perp_thresh_m must be positive"),
            (c.seed >= 0, "seed cannot be negative"),
        ]
        if c.roi is not None:
            if len(c.roi) != 4 or not all(is_integer(v) for v in c.roi):
                raise ConfigError(f"roi must be four integers (x, y, w, h), not {list(c.roi)!r}")
            x, y, w, h = c.roi
            checks.append((w > 0 and h > 0 and x >= 0 and y >= 0,
                           "roi must be (x, y, w, h) with positive size"))
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        return self


_CONFIG_FIELDS = {f.name for f in dataclass_fields(PipelineConfig)} - {"homography"}
# Integer fields -> whether None is allowed; bools and floats are rejected.
_INT_FIELDS = {f.name: f.type == "int | None" for f in dataclass_fields(PipelineConfig)
               if f.type in ("int", "int | None")}
_FLOAT_FIELDS = [f.name for f in dataclass_fields(PipelineConfig) if f.type == "float"]


def config_from_dict(data: dict) -> PipelineConfig:
    """Build and validate a config from a JSON document; unknown keys are rejected."""
    known = _CONFIG_FIELDS | {HOMOGRAPHY_JSON_KEY}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    try:
        for key, value in data.items():
            if key == HOMOGRAPHY_JSON_KEY:
                flat = np.asarray(value, dtype=float)
                if flat.size != 9:
                    raise ConfigError(f"{HOMOGRAPHY_JSON_KEY} must hold 9 numbers")
                kwargs["homography"] = Homography(flat.reshape(3, 3))
            elif key == "roi":
                kwargs["roi"] = None if value is None else tuple(value)
            else:
                kwargs[key] = value
        return PipelineConfig(**kwargs).validate()
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def config_to_dict(config: PipelineConfig) -> dict:
    out = {}
    for f in dataclass_fields(PipelineConfig):
        if f.name == "homography":
            continue
        value = getattr(config, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    if config.homography is not None:
        out[HOMOGRAPHY_JSON_KEY] = config.homography.to_flat_list()
    return out


@dataclass
class DetectionReport:
    """Poses (children first), per-stage seconds, and stage counters."""

    poses: list[Pose6DoF] = field(default_factory=list)
    timing_s: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "poses": [
                {
                    "id": i,
                    "priority": p.priority,
                    "centroid_mm": [p.centroid_mm.x, p.centroid_mm.y, p.centroid_mm.z],
                    "euler_zyx_deg": list(p.euler.as_tuple()),
                    "plane": [p.plane.a, p.plane.b, p.plane.c, p.plane.d],
                    "inliers": p.inlier_count,
                }
                for i, p in enumerate(self.poses)
            ],
            "timing_s": {k: self.timing_s.get(k, 0.0) for k in TIMING_KEYS},
            "counts": dict(self.counts),
            "timing_note": TIMING_NOTE,
        }


def _shifted_homography(config: PipelineConfig) -> Homography:
    """Calibration composed with the ROI offset: mask pixels are ROI-relative
    and must shift back to full-frame coordinates before mapping to depth."""
    ox, oy = config.roi[:2] if config.roi is not None else (0, 0)
    shift = np.array([[1.0, 0.0, ox],
                      [0.0, 1.0, oy],
                      [0.0, 0.0, 1.0]])
    return Homography(config.homography.h @ shift)


def segment_image(config: PipelineConfig, image: GrayImage, phase: str
                  ) -> tuple[list[segmentation.Contour], list[segmentation.BinaryMask]]:
    """Segmentation down to the masks of one phase; returns (refined contours, masks).

    The ROI must lie inside the image and cover at least 3x3 pixels
    (ConfigError otherwise); without one, the image itself must (InputError
    otherwise). The contour-area threshold is defined at the full camera
    frame's scale; an ROI crop does not change apparent box size.
    """
    if phase not in segmentation.PHASES:
        raise ConfigError(f"phase must be one of {segmentation.PHASES}")
    roi_img = image if config.roi is None else segmentation.extract_roi(image, config.roi)
    smooth = segmentation.gaussian_smooth_3x3(roi_img)
    edges = segmentation.auto_canny(smooth, config.canny_sigma)
    contours = segmentation.find_contours(edges)
    min_area = segmentation.scaled_min_area(config.min_contour_area,
                                            image.width, image.height)
    refined = segmentation.refine_contours(contours, min_area)
    return refined, segmentation.generate_masks(refined, phase)


def _detect(config: PipelineConfig, cloud: OrganizedCloud, segment) -> DetectionReport:
    """Run ``segment()`` -> (contours, masks), then push each mask through
    fusion, conditioning, clustering, planes and poses."""
    config.validate()
    if config.homography is None:
        raise ConfigError("calibration missing: config has no rgb_to_depth_homography")
    # Load the graph labelling and the kd-tree here, so the first detection's
    # clock times the stages and not the imports. This also comes before
    # segmentation's frame-sized buffers: an import among live ones keeps the
    # heap from shrinking once they are freed (8 MB more peak RSS at 2048x1536).
    import scipy.sparse.csgraph  # noqa: F401
    import scipy.spatial  # noqa: F401

    seconds = dict.fromkeys(TIMING_KEYS, 0.0)
    t_total = time.perf_counter()
    contours, masks = segment()
    seconds["mask_generation"] = time.perf_counter() - t_total

    counts = {"contours": len(contours), "masks": len(masks), "skipped_masks": 0,
              "clusters": 0, "planes": 0, "merges": 0}
    homography = _shifted_homography(config)
    poses: list[Pose6DoF] = []

    for mask_index, mask in enumerate(masks):
        t0 = time.perf_counter()
        try:
            cluster = map_mask_to_cloud(mask, homography, cloud)
        except EmptyClusterError:
            counts["skipped_masks"] += 1
            continue
        finally:
            seconds["mask_generation"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        pts = conditioning.voxel_grid_downsample(cluster.points, config.voxel_leaf_m)
        if len(pts) > config.sor_k:
            pts = conditioning.statistical_outlier_removal(pts, config.sor_k,
                                                           config.sor_alpha)
        seconds["filtering"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        pts = conditioning.mls_resample(pts, config.mls_radius_m)
        pts = conditioning.don_filter(pts, config.don_radius_small_m,
                                      config.don_radius_large_m, config.don_threshold)
        seconds["resampling_don"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        labels = clustering.hdbscan(pts, config.min_cluster_size, config.min_samples)
        counts["clusters"] += labels.n_clusters
        seconds["clustering"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        mask_planes: list[planes.SegmentedPlane] = []
        for cluster_id in range(labels.n_clusters):
            members = pts[labels.members(cluster_id)]
            rng = np.random.default_rng([config.seed, mask_index, cluster_id])
            mask_planes.extend(planes.extract_planes_iterative(
                members,
                min_cluster_size=config.min_cluster_size,
                min_object_size=config.min_object_size,
                dist_thresh=config.ransac_dist_thresh_m,
                max_iter=config.ransac_iterations,
                seed=rng,
            ))
        merged = planes.group_and_merge_planes(
            mask_planes, config.merge_angle_tol_deg,
            config.merge_centroid_thresh_m, config.merge_perp_thresh_m)
        counts["planes"] += len(merged)
        counts["merges"] += len(mask_planes) - len(merged)
        seconds["plane_segmentation"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        for plane in merged:
            poses.append(pose.estimate_pose(plane, mask.role))
        seconds["pose_estimation"] += time.perf_counter() - t0

    poses.sort(key=lambda p: 0 if p.priority == "child" else 1)
    seconds["total"] = time.perf_counter() - t_total
    return DetectionReport(poses=poses, timing_s=seconds, counts=counts)


def run_pipeline(config: PipelineConfig, image: GrayImage, cloud: OrganizedCloud,
                 phase: str) -> DetectionReport:
    """Full detection pass for one phase.

    Masks whose projection collects no valid depth points are skipped and
    counted, not fatal. An empty scene produces a report with zero poses and
    all timing keys present.
    """
    return _detect(config, cloud, lambda: segment_image(config, image, phase))


def localize_masks(config: PipelineConfig, masks, cloud: OrganizedCloud) -> DetectionReport:
    """Detection from pre-computed masks (the post-segmentation half of a run)."""
    return _detect(config, cloud, lambda: ([], masks))


def _wrapped_angle_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs((a - b + 180.0) % 360.0 - 180.0)


def verify_against_ground_truth(report: DetectionReport | dict,
                                truth: list[GroundTruthEntry],
                                match_radius_mm: float = DEFAULT_MATCH_RADIUS_MM) -> dict:
    """Greedy nearest-centroid matching of reported poses to ground truth.

    Pose-truth pairs pair off closest-first within the match radius; leftover
    truths count as misses, leftover poses as unmatched. Per-match errors are
    absolute per-axis translation (mm) and wrapped per-axis rotation (deg),
    summarized by their means. A report whose poses are not a list of objects
    with three ``centroid_mm`` and three ``euler_zyx_deg`` numbers each is an
    InputError; a match radius that is not a finite number > 0 is a ConfigError.
    """
    if not (is_finite_number(match_radius_mm) and match_radius_mm > 0):
        raise ConfigError(f"match radius must be a finite number > 0, got {match_radius_mm!r}")
    if isinstance(report, DetectionReport):
        report = report.to_dict()
    try:
        poses = report["poses"]
        pose_centroids = np.array([p["centroid_mm"] for p in poses],
                                  dtype=float).reshape(len(poses), 3)
        pose_eulers = np.array([p["euler_zyx_deg"] for p in poses],
                               dtype=float).reshape(len(poses), 3)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad report poses: {exc!r}") from exc
    truth_centroids = np.array([t.centroid_mm for t in truth], dtype=float).reshape(-1, 3)
    truth_eulers = np.array([t.euler.as_tuple() for t in truth],
                            dtype=float).reshape(-1, 3)

    n_pose, n_truth = len(pose_centroids), len(truth_centroids)
    pairs = []
    for i in range(n_pose):
        for j in range(n_truth):
            d = float(np.linalg.norm(pose_centroids[i] - truth_centroids[j]))
            if d <= match_radius_mm:
                pairs.append((d, i, j))
    pairs.sort()

    matched_pose: set[int] = set()
    matched_truth: set[int] = set()
    matches = []
    for d, i, j in pairs:
        if i in matched_pose or j in matched_truth:
            continue
        matched_pose.add(i)
        matched_truth.add(j)
        trans_err = np.abs(pose_centroids[i] - truth_centroids[j])
        rot_err = _wrapped_angle_diff(pose_eulers[i], truth_eulers[j])
        matches.append({
            "pose_id": i,
            "truth_index": j,
            "centroid_distance_mm": d,
            "trans_err_mm": [float(v) for v in trans_err],
            "rot_err_deg": [float(v) for v in rot_err],
        })

    if matches:
        mean_trans = np.mean([m["trans_err_mm"] for m in matches], axis=0)
        mean_rot = np.mean([m["rot_err_deg"] for m in matches], axis=0)
    else:
        mean_trans = np.full(3, np.nan)
        mean_rot = np.full(3, np.nan)

    return {
        "matches": matches,
        "misses": n_truth - len(matched_truth),
        "unmatched_poses": n_pose - len(matched_pose),
        "mean_trans_err_mm": [float(v) for v in mean_trans],
        "mean_rot_err_deg": [float(v) for v in mean_rot],
        "match_radius_mm": float(match_radius_mm),
    }
