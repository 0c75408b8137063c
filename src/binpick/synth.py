"""Synthetic bin scenes with exact ground truth for both sensors.

A pinhole depth camera and a co-located pinhole RGB camera look straight down
at a bin from the mount height; boxes are oriented cuboids. Both renderers
cast one ray per pixel against the bin floor and test each box only against
the rays of its pixel window: the rectangle spanned by its 8 projected
corners, widened by 1 px on each side and clipped to the frame (nearest hit
wins, misses are invalid). Every corner lies strictly in front of the camera,
so a ray outside the window cannot hit the box. Image rendering paints visible
box top faces at their gray level over a uniform floor intensity with hard
edges. Because the two cameras share a center, their pixel grids are related
by an exact homography, which closes the loop on the fusion calibration.

World frame: origin at the bin center on the floor, z up. The sensor frame has
x right, y down, z forward (down into the bin).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .core import (EulerZYX, OrganizedCloud, Point3, RigidTransform, is_finite_number,
                   is_integer, normalize_plane)
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
_KIND_BIN = -2

# Bound on the magnitude of a standard normal draw: numpy's ziggurat sampler
# cannot return one above about 13.7.
_MAX_NORMAL_DRAW = 16.0

# Sensor axes expressed in world coordinates (columns): x right, y down, z forward.
_SENSOR_AXES_IN_WORLD = np.array([
    [1.0, 0.0, 0.0],
    [0.0, -1.0, 0.0],
    [0.0, 0.0, -1.0],
])


def _finite(value, name: str) -> float:
    if not is_finite_number(value):
        raise ValueError(f"{name}: {value!r} is not a finite number")
    return float(value)


@dataclass(frozen=True)
class BoxSpec:
    """One cuboid: dimensions in millimeters, center pose in world meters,
    and the gray level of its top face."""

    dimensions_mm: tuple[float, float, float]
    pose: RigidTransform
    face_intensity: int = 200
    allow_undersize: bool = False

    def __post_init__(self):
        dims = tuple(_finite(d, "box dimensions") for d in self.dimensions_mm)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise ValueError("box dimensions must be three positive lengths")
        if not isinstance(self.allow_undersize, bool):
            raise ValueError("allow_undersize must be true or false, "
                             f"not {self.allow_undersize!r}")
        if not self.allow_undersize:
            if any(have < want for have, want in
                   zip(sorted(dims), sorted(MIN_BOX_DIMENSIONS_MM))):
                raise ValueError(
                    f"box {dims} smaller than the minimum {MIN_BOX_DIMENSIONS_MM} mm; "
                    "set allow_undersize to override")
        if not (is_integer(self.face_intensity) and 0 <= self.face_intensity <= 255):
            raise ValueError("face_intensity must be an 8-bit integer, "
                             f"not {self.face_intensity!r}")
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
                           tuple(_finite(v, "bin_size_mm") for v in self.bin_size_mm))
        for name in ("wall_height_mm", "mount_height_m", "fov_margin", "noise_sigma_m"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))
        for name in ("depth_resolution", "rgb_resolution"):
            res = tuple(getattr(self, name))
            if len(res) != 2 or not all(is_integer(v) and v >= 2 for v in res):
                raise ValueError(f"{name} must be two integers of at least 2, not {res!r}")
            object.__setattr__(self, name, tuple(int(v) for v in res))
        if len(self.bin_size_mm) != 2 or min(self.bin_size_mm) / 1000.0 <= 0:
            raise ValueError("bin_size_mm must be two positive lengths")
        if self.mount_height_m <= 0:
            raise ValueError("camera mount height must be positive")
        if self.fov_margin < 0:
            raise ValueError("fov_margin cannot be negative")
        if self.wall_height_mm / 1000.0 >= self.mount_height_m:
            raise ValueError("wall_height_mm must stay below the camera mount height")
        for res in (self.depth_resolution, self.rgb_resolution):
            cam = _camera(self, res)
            if not all(np.isfinite(f) and f > 0 for f in (cam.fx, cam.fy)):
                raise ValueError("camera focal lengths must be finite and positive; "
                                 "mount_height_m, bin_size_mm or fov_margin is out of range")
        if not (is_integer(self.floor_intensity) and 0 <= self.floor_intensity <= 255):
            raise ValueError("floor_intensity must be an 8-bit integer, "
                             f"not {self.floor_intensity!r}")
        if not (is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, not {self.seed!r}")
        if self.noise_sigma_m < 0:
            raise ValueError("noise sigma cannot be negative")
        bx, by = (v / 1000.0 for v in self.bin_size_mm)
        # Every point lies within the view frustum, no farther than the floor.
        reach = np.linalg.norm([self.mount_height_m, bx * (1 + self.fov_margin) / 2,
                                by * (1 + self.fov_margin) / 2])
        if not np.isfinite(reach + _MAX_NORMAL_DRAW * self.noise_sigma_m):
            raise ValueError("noise_sigma_m or the scene size is too large "
                             "for finite noisy points")
        for box in self.boxes:
            corners = box.corners_world()
            if (np.abs(corners[:, 0]) > bx / 2 + 1e-9).any() or \
               (np.abs(corners[:, 1]) > by / 2 + 1e-9).any() or \
               (corners[:, 2] < -1e-9).any():
                raise ValueError("every box must sit inside the bin footprint, "
                                 "above the floor")
            if (corners[:, 2] >= self.mount_height_m).any():
                raise ValueError("every box corner must lie below the camera mount height")

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


def _ray_directions(cam: _Camera, rows: slice, cols: slice) -> np.ndarray:
    """Ray directions in the sensor frame, z component 1, of the pixels in a
    row and column window, shape (rows, cols, 3)."""
    uu, vv = np.meshgrid(np.arange(cam.width)[cols], np.arange(cam.height)[rows])
    return np.stack([(uu - cam.cx) / cam.fx, (vv - cam.cy) / cam.fy,
                     np.ones_like(uu, dtype=float)], axis=-1)


def _pixel_window(corners_s: np.ndarray, cam: _Camera) -> tuple[slice, slice]:
    """Rows and columns of the pixels whose rays can hit a convex body with
    these sensor-frame corners, all in front of the camera: the corners'
    projected bounding rectangle widened by 1 px on each side, clipped to the
    frame."""
    u = cam.fx * corners_s[:, 0] / corners_s[:, 2] + cam.cx
    v = cam.fy * corners_s[:, 1] / corners_s[:, 2] + cam.cy
    # Clip in float first: a corner close to the camera plane projects far out.
    u0, u1 = np.clip([np.ceil(u.min() - 1), np.floor(u.max() + 1) + 1], 0, cam.width)
    v0, v1 = np.clip([np.ceil(v.min() - 1), np.floor(v.max() + 1) + 1], 0, cam.height)
    return slice(int(v0), int(v1)), slice(int(u0), int(u1))


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
    """Slab test of all rays against one oriented box, one box axis at a time.

    Returns (t, is_top): entry parameter (inf for misses) and whether the entry
    face is the box's +z face.
    """
    rot = box.pose.rotation
    o_b = (origin - box.pose.translation_array()) @ rot
    d_b = (dirs @ rot).T
    half = box.half_extents_m()

    t_enter = np.full(len(dirs), -np.inf)
    t_exit = np.full(len(dirs), np.inf)
    for axis in range(3):
        d = d_b[axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_lo = (-half[axis] - o_b[axis]) / d
            t_hi = (half[axis] - o_b[axis]) / d
        near = np.minimum(t_lo, t_hi)
        far = np.maximum(t_lo, t_hi)
        # 0/0 produces NaN when a ray grazes a slab boundary; treat that slab
        # as non-constraining for the ray.
        near[np.isnan(near)] = -np.inf
        far[np.isnan(far)] = np.inf
        if axis == 2:
            # The z slab is the entry face only when it is entered strictly
            # after the x and y slabs; an edge tie goes to the earlier axis.
            top = (near > t_enter) & (d < 0)
        np.maximum(t_enter, near, out=t_enter)
        np.minimum(t_exit, far, out=t_exit)
    hit = (t_enter <= t_exit) & (t_exit > 0) & (t_enter > 1e-9)

    t = np.where(hit, t_enter, np.inf)
    return t, top & hit


def _cast(scene: SceneSpec, cam: _Camera, boxes: tuple[BoxSpec, ...] | None = None
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-hit ray cast. Returns (t, kind, is_top) grids of shape (h, w).

    kind holds the box index for box hits, or the bin (floor and walls) or
    miss marker. Each box is tested only against the rays of its pixel window.
    """
    if boxes is None:
        boxes = scene.boxes
    origin = np.array([0.0, 0.0, scene.mount_height_m])
    shape = (cam.height, cam.width)
    t_best = np.full(shape, np.inf)
    kind = np.full(shape, _KIND_MISS, dtype=np.int64)
    is_top = np.zeros(shape, dtype=bool)

    # Floor: the plane z=0 clipped to the bin footprint. dirs have sensor-z 1,
    # so the hit parameter equals the mount height for every ray; world x is
    # sensor x and world y is sensor -y.
    bx, by = (v / 1000.0 for v in scene.bin_size_mm)
    t_floor = scene.mount_height_m
    floor_x = origin[0] + t_floor * ((np.arange(cam.width) - cam.cx) / cam.fx)
    floor_y = origin[1] + t_floor * -((np.arange(cam.height) - cam.cy) / cam.fy)
    on_floor = (np.abs(floor_y) <= by / 2)[:, None] & (np.abs(floor_x) <= bx / 2)
    t_best[on_floor] = t_floor
    kind[on_floor] = _KIND_BIN

    sensor_from_world = scene.sensor_from_world()
    for idx, box in enumerate((*boxes, *_wall_boxes(scene))):
        is_box = idx < len(boxes)
        rows, cols = _pixel_window(sensor_from_world.apply_array(box.corners_world()), cam)
        dirs_w = _ray_directions(cam, rows, cols).reshape(-1, 3) @ _SENSOR_AXES_IN_WORLD.T
        t, top = _intersect_box(origin, dirs_w, box)
        # Views of the window; writing through them fills the frame grids.
        t_win, kind_win, top_win = t_best[rows, cols], kind[rows, cols], is_top[rows, cols]
        t, top = t.reshape(t_win.shape), top.reshape(t_win.shape)
        closer = t < t_win
        t_win[closer] = t[closer]
        kind_win[closer] = idx if is_box else _KIND_BIN
        top_win[closer] = top[closer] & is_box

    return t_best, kind, is_top


def render_depth(scene: SceneSpec) -> OrganizedCloud:
    """Organized cloud in the sensor frame; pixels whose rays miss everything
    are invalid."""
    cam = depth_camera(scene)
    t, kind, _ = _cast(scene, cam)
    valid = kind != _KIND_MISS
    dirs_s = _ray_directions(cam, slice(None), slice(None))
    pts = np.where(valid[..., None], dirs_s * t[..., None], 0.0)
    return OrganizedCloud(points=pts, valid=valid)


def render_image(scene: SceneSpec) -> GrayImage:
    """Grayscale frame: visible box top faces at their intensity over the floor
    intensity, hard edges, no anti-aliasing."""
    _, kind, is_top = _cast(scene, rgb_camera(scene))
    # Indexed by box; every pixel that is not a visible top face reads the
    # trailing floor entry through index -1.
    intensity = np.array([*(box.face_intensity for box in scene.boxes),
                          scene.floor_intensity], dtype=np.uint8)
    return GrayImage(intensity[np.where(is_top, kind, -1)])


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
    a = quad[np.argsort(angles)]
    e = np.roll(a, -1, axis=0) - a
    r = points[:, None, :] - a
    # Each point against each edge: the sign of the edge-to-point cross product.
    signs = e[:, 0] * r[..., 1] - e[:, 1] * r[..., 0]
    return bool(((signs > 1e-9).all(1) | (signs < -1e-9).all(1)).all())


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
    _, kind_full, is_top_full = _cast(scene, cam)

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
        _, kind_solo, is_top_solo = _cast(scene, cam, boxes=(box,))
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


_SCENE_KEYS = {f.name for f in fields(SceneSpec)}
_BOX_KEYS = {"dimensions_mm", "position_mm", "rotation_zyx_deg",
             "face_intensity", "allow_undersize"}


def _box_from_dict(d: dict) -> BoxSpec:
    unknown = set(d) - _BOX_KEYS
    if unknown:
        raise InputError(f"unknown box keys: {sorted(unknown)}")
    if "dimensions_mm" not in d or "position_mm" not in d:
        raise InputError("box needs dimensions_mm and position_mm")
    rz, ry, rx = (_finite(v, "rotation_zyx_deg") for v in d.get("rotation_zyx_deg", (0, 0, 0)))
    rot = euler_zyx_to_rotation(EulerZYX(rz, ry, rx))
    pos = np.array([_finite(v, "position_mm") for v in d["position_mm"]]) / 1000.0
    return BoxSpec(
        dimensions_mm=d["dimensions_mm"],
        pose=RigidTransform(rot, Point3.from_array(pos)),
        face_intensity=d.get("face_intensity", 200),
        allow_undersize=d.get("allow_undersize", False),
    )


def scene_from_dict(d: dict) -> SceneSpec:
    unknown = set(d) - _SCENE_KEYS
    if unknown:
        raise InputError(f"unknown scene keys: {sorted(unknown)}")
    try:
        boxes = tuple(_box_from_dict(b) for b in d.get("boxes", []))
        return SceneSpec(**{**d, "boxes": boxes})
    except (ValueError, TypeError) as exc:
        raise InputError(f"invalid scene: {exc}") from exc


def scene_without_boxes(scene: SceneSpec, remove: list[int]) -> SceneSpec:
    """Copy of the scene with the listed box indices removed (picked boxes)."""
    keep = tuple(b for i, b in enumerate(scene.boxes) if i not in set(remove))
    return replace(scene, boxes=keep)
