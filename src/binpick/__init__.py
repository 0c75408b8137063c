"""Dual-sensor bin-picking perception.

Box segmentation on RGB frames fused with organized depth clouds; per-box
plane extraction and 6DoF grasp poses, plus a synthetic scene generator with
exact ground truth for verification.
"""

from .core import (
    EulerZYX,
    OrganizedCloud,
    PlaneModel,
    Point3,
    RigidTransform,
    normalize_plane,
    plane_signed_distances,
)
from .segmentation import (
    BinaryMask,
    Contour,
    GrayImage,
    auto_canny,
    extract_roi,
    find_contours,
    gaussian_smooth_3x3,
    generate_masks,
    refine_contours,
    sobel_gradients,
)
from .fusion import Homography, MaskedCluster, estimate_homography, map_mask_to_cloud
from .conditioning import (
    NormalField,
    compute_normal_field,
    don_filter,
    mls_resample,
    statistical_outlier_removal,
    voxel_grid_downsample,
)
from .clustering import ClusterLabels, CondensedTree, core_distances, hdbscan
from .planes import (
    SegmentedPlane,
    check_overlapping,
    extract_planes_iterative,
    group_and_merge_planes,
    ransac_plane,
)
from .pose import (
    Pose6DoF,
    build_frame,
    estimate_pose,
    euler_zyx_from_rotation,
    euler_zyx_to_rotation,
)
from .synth import (
    BoxSpec,
    GroundTruthEntry,
    SceneSpec,
    add_depth_noise,
    ground_truth,
    render_depth,
    render_image,
    scene_homography,
)
from .pipeline import (
    DetectionReport,
    PipelineConfig,
    run_pipeline,
    verify_against_ground_truth,
)

__all__ = [name for name in dir() if not name.startswith("_")]
