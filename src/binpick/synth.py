"""Synthetic bin scenes with exact ground truth for both sensors.

A pinhole depth camera and a co-located pinhole RGB camera look straight down
at a bin from the mount height; boxes are oriented cuboids. Depth rendering
casts one ray per pixel against box faces and the bin floor (nearest hit wins,
misses are invalid); image rendering paints visible box top faces at their
gray level over a uniform floor intensity with hard edges. Because the two
cameras share a center, their pixel grids are related by an exact homography,
which closes the loop on the fusion calibration.

World frame: origin at the bin center on the floor, z up. The sensor frame has
x right, y down, z forward (down into the bin).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .core import EulerZYX, OrganizedCloud, Point3, RigidTransform, normalize_plane
from .errors import InputError
from .fusion import Homography
from .pose import build_frame, euler_zyx_from_rotation, euler_zyx_to_rotation
from .segmentation import GrayImage

# Smallest box the physical system was validated on, millimeters.
MIN_BOX_DIMENSIONS_MM = (50.0, 75.0, 20.0)

DEFAULT_BIN_SIZE_MM = (600.0, 400.0)
DEFAULT_MOUNT_HEIGHT_M = 1.2
DEFAULT_DEPTH_RESOLUTION = (224, 172)
DEFAULT_RGB_RESOLUTION = (2048, 1536)
DEFAULT_FOV_MARGIN = 0.1
DEFAULT_FLOOR_INTENSITY = 60

_WALL_THICKNESS_M = 0.01

_KIND_MISS = -1
_KIND_FLOOR = -2
_KIND_WALL = -3

# Sensor axes expressed in world coordinates (columns): x right, y down, z forward.
_SENSOR_AXES_IN_WORLD = np.array([
    [1.0, 0.0, 0.0],
    [0.0, -1.0, 0.0],
    [0.0, 0.0, -1.0],
])


@dataclass(frozen=True)
class BoxSpec:
    """One cuboid: dimensions in millimeters, center pose in world meters,
    and the gray level of its top face."""

    dimensions_mm: tuple[float, float, float]
    pose: RigidTransform
    face_intensity: int = 200
    allow_undersize: bool = False

    def __post_init__(self):
        dims = tuple(float(d) for d in self.dimensions_mm)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise ValueError("box dimensions must be three positive lengths")
        if not self.allow_undersize:
            if any(have < want for have, want in
                   zip(sorted(dims), sorted(MIN_BOX_DIMENSIONS_MM))):
                raise ValueError(
                    f"box {dims} smaller than the minimum {MIN_BOX_DIMENSIONS_MM} mm; "
                    "set allow_undersize to override")
        if not 0 <= self.face_intensity <= 255:
            raise ValueError("face_intensity must be an 8-bit value")
        object.__setattr__(self, "dimensions_mm", dims)

    def half_extents_m(self) -> np.ndarray:
        return np.array(self.dimensions_mm) / 2000.0

    def corners_world(self) -> np.ndarray:
        """The 8 box corners in world meters."""
        h = self.half_extents_m()
        signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                          for sz in (-1, 1)], dtype=float)
        return self.pose.apply_array(signs * h)

    def top_face_corners_world(self) -> np.ndarray:
        h = self.half_extents_m()
        signs = np.array([[-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1]], dtype=float)
        return self.pose.apply_array(signs * h)


@dataclass(frozen=True)
class SceneSpec:
    """Declarative bin scene: bin geometry, cameras, boxes, noise, seed."""

    boxes: tuple[BoxSpec, ...] = ()
    bin_size_mm: tuple[float, float] = DEFAULT_BIN_SIZE_MM
    wall_height_mm: float = 0.0
    mount_height_m: float = DEFAULT_MOUNT_HEIGHT_M
    depth_resolution: tuple[int, int] = DEFAULT_DEPTH_RESOLUTION
    rgb_resolution: tuple[int, int] = DEFAULT_RGB_RESOLUTION
    fov_margin: float = DEFAULT_FOV_MARGIN
    floor_intensity: int = DEFAULT_FLOOR_INTENSITY
    noise_sigma_m: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))
        object.__setattr__(self, "bin_size_mm",
                           tuple(float(v) for v in self.bin_size_mm))
        object.__setattr__(self, "depth_resolution",
                           tuple(int(v) for v in self.depth_resolution))
        object.__setattr__(self, "rgb_resolution",
                           tuple(int(v) for v in self.rgb_resolution))
        if self.mount_height_m <= 0:
            raise ValueError("camera mount height must be positive")
        if self.fov_margin < 0:
            raise ValueError("fov_margin cannot be negative")
        if min(self.depth_resolution) < 2 or min(self.rgb_resolution) < 2:
            raise ValueError("camera resolutions must be at least 2x2")
        if not 0 <= self.floor_intensity <= 255:
            raise ValueError("floor_intensity must be an 8-bit value")
        if self.noise_sigma_m < 0:
            raise ValueError("noise sigma cannot be negative")
        bx, by = (v / 1000.0 for v in self.bin_size_mm)
        for box in self.boxes:
            corners = box.corners_world()
            if (np.abs(corners[:, 0]) > bx / 2 + 1e-9).any() or \
               (np.abs(corners[:, 1]) > by / 2 + 1e-9).any() or \
               (corners[:, 2] < -1e-9).any():
                raise ValueError("every box must sit inside the bin footprint, "
                                 "above the floor")

    def sensor_from_world(self) -> RigidTransform:
        world_from_sensor = RigidTransform(
            _SENSOR_AXES_IN_WORLD, Point3(0.0, 0.0, self.mount_height_m))
        return world_from_sensor.inverse()


@dataclass(frozen=True)
class GroundTruthEntry:
    """Exact per-box answers: top-face centroid (sensor mm), sensor-facing
    normal, grasp Euler angles, visible fraction of the top face, and the
    expected picking priority."""

    centroid_mm: np.ndarray
    normal: np.ndarray
    euler: EulerZYX
    visibility: float
    priority: str


@dataclass(frozen=True)
class _Camera:
    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float


def _camera(scene: SceneSpec, resolution: tuple[int, int]) -> _Camera:
    """Pinhole intrinsics framing the bin footprint plus the FOV margin."""
    w, h = resolution
    bx, by = (v / 1000.0 for v in scene.bin_size_mm)
    fx = w * scene.mount_height_m / (bx * (1.0 + scene.fov_margin))
    fy = h * scene.mount_height_m / (by * (1.0 + scene.fov_margin))
    return _Camera(width=w, height=h, fx=fx, fy=fy,
                   cx=(w - 1) / 2.0, cy=(h - 1) / 2.0)


def depth_camera(scene: SceneSpec) -> _Camera:
    return _camera(scene, scene.depth_resolution)


def rgb_camera(scene: SceneSpec) -> _Camera:
    return _camera(scene, scene.rgb_resolution)


def scene_homography(scene: SceneSpec) -> Homography:
    """Exact RGB-to-depth pixel map implied by the co-located camera pair."""
    rc = rgb_camera(scene)
    dc = depth_camera(scene)
    sx = dc.fx / rc.fx
    sy = dc.fy / rc.fy
    return Homography(np.array([
        [sx, 0.0, dc.cx - rc.cx * sx],
        [0.0, sy, dc.cy - rc.cy * sy],
        [0.0, 0.0, 1.0],
    ]))


def _ray_directions(cam: _Camera) -> np.ndarray:
    """Per-pixel ray directions in the sensor frame, z component 1, shape (h*w, 3)."""
    u = np.arange(cam.width)
    v = np.arange(cam.height)
    uu, vv = np.meshgrid(u, v)
    dirs = np.stack([(uu - cam.cx) / cam.fx, (vv - cam.cy) / cam.fy,
                     np.ones_like(uu, dtype=float)], axis=-1)
    return dirs.reshape(-1, 3)


def _wall_boxes(scene: SceneSpec) -> list[BoxSpec]:
    if scene.wall_height_mm <= 0:
        return []
    bx, by = scene.bin_size_mm
    wh = scene.wall_height_mm
    th = _WALL_THICKNESS_M * 1000.0
    walls = []
    for sign in (-1, 1):
        walls.append(BoxSpec(
            dimensions_mm=(th, by + 2 * th, wh),
            pose=RigidTransform(np.eye(3), Point3(sign * (bx / 2 + th / 2) / 1000.0,
                                                  0.0, wh / 2000.0)),
            face_intensity=scene.floor_intensity, allow_undersize=True))
        walls.append(BoxSpec(
            dimensions_mm=(bx + 2 * th, th, wh),
            pose=RigidTransform(np.eye(3), Point3(0.0, sign * (by / 2 + th / 2) / 1000.0,
                                                  wh / 2000.0)),
            face_intensity=scene.floor_intensity, allow_undersize=True))
    return walls


def _intersect_box(origin: np.ndarray, dirs: np.ndarray, box: BoxSpec
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Slab test of all rays against one oriented box.

    Returns (t, is_top): entry parameter (inf for misses) and whether the entry
    face is the box's +z face.
    """
    rot = box.pose.rotation
    o_b = (origin - box.pose.translation_array()) @ rot
    d_b = dirs @ rot
    half = box.half_extents_m()

    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (-half - o_b) / d_b
        t_hi = (half - o_b) / d_b
    t_min = np.minimum(t_lo, t_hi)
    t_max = np.maximum(t_lo, t_hi)
    # 0/0 produces NaN when a ray grazes a slab boundary; treat that slab as
    # non-constraining for the ray.
    t_min = np.where(np.isnan(t_min), -np.inf, t_min)
    t_max = np.where(np.isnan(t_max), np.inf, t_max)
    t_enter = t_min.max(axis=1)
    t_exit = t_max.min(axis=1)
    hit = (t_enter <= t_exit) & (t_exit > 0) & (t_enter > 1e-9)

    enter_axis = t_min.argmax(axis=1)
    top = (enter_axis == 2) & (d_b[:, 2] < 0)

    t = np.where(hit, t_enter, np.inf)
    return t, top & hit


def _cast(scene: SceneSpec, cam: _Camera, boxes: tuple[BoxSpec, ...] | None = None
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-hit ray cast. Returns flat arrays (t, kind, is_top, dirs).

    kind holds the box index for box hits, or the floor/wall/miss markers.
    """
    if boxes is None:
        boxes = scene.boxes
    origin = np.array([0.0, 0.0, scene.mount_height_m])
    dirs_s = _ray_directions(cam)
    dirs_w = dirs_s @ _SENSOR_AXES_IN_WORLD.T

    n = len(dirs_s)
    t_best = np.full(n, np.inf)
    kind = np.full(n, _KIND_MISS, dtype=np.int64)
    is_top = np.zeros(n, dtype=bool)

    # Floor: the plane z=0 clipped to the bin footprint. dirs have sensor-z 1,
    # so the hit parameter equals the mount height for every ray.
    bx, by = (v / 1000.0 for v in scene.bin_size_mm)
    t_floor = scene.mount_height_m
    floor_xy = origin[:2] + t_floor * dirs_w[:, :2]
    on_floor = (np.abs(floor_xy[:, 0]) <= bx / 2) & (np.abs(floor_xy[:, 1]) <= by / 2)
    t_best[on_floor] = t_floor
    kind[on_floor] = _KIND_FLOOR

    for idx, box in enumerate(boxes):
        t, top = _intersect_box(origin, dirs_w, box)
        closer = t < t_best
        t_best[closer] = t[closer]
        kind[closer] = idx
        is_top[closer] = top[closer]

    for wall in _wall_boxes(scene):
        t, _ = _intersect_box(origin, dirs_w, wall)
        closer = t < t_best
        t_best[closer] = t[closer]
        kind[closer] = _KIND_WALL
        is_top[closer] = False

    return t_best, kind, is_top, dirs_s


def render_depth(scene: SceneSpec) -> OrganizedCloud:
    """Organized cloud in the sensor frame; pixels whose rays miss everything
    are invalid."""
    cam = depth_camera(scene)
    t, kind, _, dirs_s = _cast(scene, cam)
    valid = kind != _KIND_MISS
    pts = np.where(valid[:, None], dirs_s * t[:, None], 0.0)
    return OrganizedCloud(points=pts.reshape(cam.height, cam.width, 3),
                          valid=valid.reshape(cam.height, cam.width))


def render_image(scene: SceneSpec) -> GrayImage:
    """Grayscale frame: visible box top faces at their intensity over the floor
    intensity, hard edges, no anti-aliasing."""
    cam = rgb_camera(scene)
    _, kind, is_top, _ = _cast(scene, cam)
    img = np.full(len(kind), scene.floor_intensity, dtype=np.uint8)
    for idx, box in enumerate(scene.boxes):
        img[(kind == idx) & is_top] = box.face_intensity
    return GrayImage(img.reshape(cam.height, cam.width))


def add_depth_noise(cloud: OrganizedCloud, sigma: float, seed: int = 0) -> OrganizedCloud:
    """Gaussian noise of the given sigma along each valid point's ray direction.

    The noise stream is drawn for the whole grid in one fixed order, so results
    are deterministic per seed and independent of any pixel iteration order.
    """
    if sigma < 0:
        raise ValueError("sigma cannot be negative")
    if sigma == 0:
        return cloud
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((cloud.height, cloud.width))
    pts = cloud.points.copy()
    norms = np.linalg.norm(pts, axis=2)
    ok = cloud.valid & (norms > 1e-12)
    rays = pts[ok] / norms[ok][:, None]
    pts[ok] = pts[ok] + sigma * eps[ok][:, None] * rays
    return OrganizedCloud(points=pts, valid=cloud.valid)


def _projected_top_quad(box: BoxSpec, scene: SceneSpec, cam: _Camera) -> np.ndarray:
    sensor_from_world = scene.sensor_from_world()
    corners_s = sensor_from_world.apply_array(box.top_face_corners_world())
    u = cam.fx * corners_s[:, 0] / corners_s[:, 2] + cam.cx
    v = cam.fy * corners_s[:, 1] / corners_s[:, 2] + cam.cy
    return np.column_stack([u, v])


def _points_strictly_inside_quad(points: np.ndarray, quad: np.ndarray) -> bool:
    center = quad.mean(0)
    angles = np.arctan2(quad[:, 1] - center[1], quad[:, 0] - center[0])
    ordered = quad[np.argsort(angles)]
    for p in points:
        signs = []
        for i in range(4):
            a, b = ordered[i], ordered[(i + 1) % 4]
            e, r = b - a, p - a
            signs.append(e[0] * r[1] - e[1] * r[0])
        signs = np.array(signs)
        if not ((signs > 1e-9).all() or (signs < -1e-9).all()):
            return False
    return True


def ground_truth(scene: SceneSpec) -> list[GroundTruthEntry]:
    """Analytic per-box answers in the sensor frame.

    Euler angles use the very same grasp-frame convention as pose estimation,
    applied to the known top-face normal. Visibility compares each box's
    top-face pixel count in the full scene against the count with the box
    alone. A box whose projected top face sits strictly inside another box's
    is the child; every other box is a parent.
    """
    cam = depth_camera(scene)
    sensor_from_world = scene.sensor_from_world()
    _, kind_full, is_top_full, _ = _cast(scene, cam)

    quads = [_projected_top_quad(box, scene, cam) for box in scene.boxes]
    entries: list[GroundTruthEntry] = []
    for idx, box in enumerate(scene.boxes):
        h = box.half_extents_m()
        center_w = box.pose.apply_array(np.array([0.0, 0.0, h[2]]))
        center_s = sensor_from_world.apply_array(center_w)

        normal_w = box.pose.rotation @ np.array([0.0, 0.0, 1.0])
        normal_s = sensor_from_world.rotation @ normal_w
        model = normalize_plane([*normal_s, -float(normal_s @ center_s)])

        rot = build_frame(-model.normal)
        euler = euler_zyx_from_rotation(rot)

        visible = int(((kind_full == idx) & is_top_full).sum())
        _, kind_solo, is_top_solo, _ = _cast(scene, cam, boxes=(box,))
        solo = int(((kind_solo == 0) & is_top_solo).sum())
        visibility = visible / solo if solo else 0.0

        priority = "parent"
        for other in range(len(scene.boxes)):
            if other != idx and _points_strictly_inside_quad(quads[idx], quads[other]):
                priority = "child"
                break

        entries.append(GroundTruthEntry(
            centroid_mm=center_s * 1000.0,
            normal=model.normal,
            euler=euler,
            visibility=visibility,
            priority=priority,
        ))
    return entries


def visibility_accounting(scene: SceneSpec) -> dict:
    """Pixel budget of a depth render: per-box counts (any face), bin structure
    (floor and walls), and invalid pixels. The categories always sum to the
    full grid."""
    cam = depth_camera(scene)
    _, kind, _, _ = _cast(scene, cam)
    per_box = [int((kind == i).sum()) for i in range(len(scene.boxes))]
    bin_pixels = int(((kind == _KIND_FLOOR) | (kind == _KIND_WALL)).sum())
    invalid = int((kind == _KIND_MISS).sum())
    return {"box_pixels": per_box, "bin_pixels": bin_pixels, "invalid_pixels": invalid,
            "total": cam.width * cam.height}


_SCENE_KEYS = {
    "bin_size_mm", "wall_height_mm", "mount_height_m", "depth_resolution",
    "rgb_resolution", "fov_margin", "floor_intensity", "noise_sigma_m",
    "seed", "boxes",
}
_BOX_KEYS = {"dimensions_mm", "position_mm", "rotation_zyx_deg",
             "face_intensity", "allow_undersize"}


def _box_from_dict(d: dict) -> BoxSpec:
    unknown = set(d) - _BOX_KEYS
    if unknown:
        raise InputError(f"unknown box keys: {sorted(unknown)}")
    if "dimensions_mm" not in d or "position_mm" not in d:
        raise InputError("box needs dimensions_mm and position_mm")
    rz, ry, rx = d.get("rotation_zyx_deg", (0.0, 0.0, 0.0))
    rot = euler_zyx_to_rotation(EulerZYX(float(rz), float(ry), float(rx)))
    pos = np.asarray(d["position_mm"], dtype=float) / 1000.0
    return BoxSpec(
        dimensions_mm=tuple(float(v) for v in d["dimensions_mm"]),
        pose=RigidTransform(rot, Point3.from_array(pos)),
        face_intensity=int(d.get("face_intensity", 200)),
        allow_undersize=bool(d.get("allow_undersize", False)),
    )


def scene_from_dict(d: dict) -> SceneSpec:
    unknown = set(d) - _SCENE_KEYS
    if unknown:
        raise InputError(f"unknown scene keys: {sorted(unknown)}")
    try:
        boxes = tuple(_box_from_dict(b) for b in d.get("boxes", []))
        return SceneSpec(
            boxes=boxes,
            bin_size_mm=tuple(d.get("bin_size_mm", DEFAULT_BIN_SIZE_MM)),
            wall_height_mm=float(d.get("wall_height_mm", 0.0)),
            mount_height_m=float(d.get("mount_height_m", DEFAULT_MOUNT_HEIGHT_M)),
            depth_resolution=tuple(d.get("depth_resolution", DEFAULT_DEPTH_RESOLUTION)),
            rgb_resolution=tuple(d.get("rgb_resolution", DEFAULT_RGB_RESOLUTION)),
            fov_margin=float(d.get("fov_margin", DEFAULT_FOV_MARGIN)),
            floor_intensity=int(d.get("floor_intensity", DEFAULT_FLOOR_INTENSITY)),
            noise_sigma_m=float(d.get("noise_sigma_m", 0.0)),
            seed=int(d.get("seed", 0)),
        )
    except (ValueError, TypeError) as exc:
        raise InputError(f"invalid scene: {exc}") from exc


def load_scene(path) -> SceneSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read scene file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("scene file must hold a JSON object")
    return scene_from_dict(data)


def scene_without_boxes(scene: SceneSpec, remove: list[int]) -> SceneSpec:
    """Copy of the scene with the listed box indices removed (picked boxes)."""
    keep = tuple(b for i, b in enumerate(scene.boxes) if i not in set(remove))
    return replace(scene, boxes=keep)
