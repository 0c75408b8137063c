import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binpick.core import Point3, RigidTransform
from binpick.errors import InputError
from binpick.fusion import estimate_homography
from binpick.pose import euler_zyx_to_rotation
from binpick.core import EulerZYX
from binpick.synth import (
    BoxSpec,
    SceneSpec,
    _cast,
    _intersect_box,
    _points_strictly_inside_quad,
    add_depth_noise,
    depth_camera,
    ground_truth,
    render_depth,
    render_image,
    rgb_camera,
    scene_from_dict,
    scene_homography,
)

from . import oracles


def make_box(dims_mm, pos_mm, rot_zyx_deg=(0, 0, 0), intensity=200):
    rot = euler_zyx_to_rotation(EulerZYX(*map(float, rot_zyx_deg)))
    return BoxSpec(dimensions_mm=tuple(dims_mm),
                   pose=RigidTransform(rot, Point3(*(v / 1000.0 for v in pos_mm))),
                   face_intensity=intensity)


def simple_scene(boxes=(), **kw):
    defaults = dict(rgb_resolution=(448, 344))
    defaults.update(kw)
    return SceneSpec(boxes=tuple(boxes), **defaults)


class TestRenderDepth:
    def test_empty_bin_floor_depth_equals_mount_height(self):
        cloud = render_depth(simple_scene())
        assert cloud.width == 224 and cloud.height == 172
        z = cloud.points[..., 2][cloud.valid]
        assert len(z) > 0
        assert np.abs(z - 1.2).max() < 1e-9

    def test_margin_ring_is_invalid(self):
        cloud = render_depth(simple_scene())
        assert not cloud.valid.all()
        assert not cloud.valid[0, 0]  # corner ray passes the 10% margin

    @pytest.mark.filterwarnings("error")
    def test_missed_rays_raise_no_warning(self):
        # At 41x31 some ray directions have a zero component; a missed ray's
        # infinite distance never multiplies them.
        cloud = render_depth(simple_scene(depth_resolution=(41, 31)))
        assert 0 < cloud.valid.sum() < cloud.valid.size
        assert np.all(cloud.points[~cloud.valid] == 0.0)
        assert np.isfinite(cloud.points).all()

    def test_centered_box_is_height_closer(self):
        scene = simple_scene([make_box((100, 100, 100), (0, 0, 50))])
        cloud = render_depth(scene)
        cy, cx = cloud.height // 2, cloud.width // 2
        center_z = cloud.points[cy, cx, 2]
        assert center_z == pytest.approx(1.1, abs=1e-9)

    def test_occluded_box_has_no_top_hits(self):
        lower = make_box((100, 100, 50), (0, 0, 25))
        upper = make_box((200, 200, 20), (0, 0, 150))
        scene = simple_scene([lower, upper])
        truth = ground_truth(scene)
        assert truth[0].visibility == 0.0
        assert truth[1].visibility == pytest.approx(1.0)

    def test_noiseless_points_lie_on_truth_plane(self):
        scene = simple_scene([make_box((120, 90, 60), (30, -20, 30),
                                       rot_zyx_deg=(20, 0, 0))])
        cloud = render_depth(scene)
        truth = ground_truth(scene)[0]
        n = truth.normal
        d = -float(n @ (truth.centroid_mm / 1000.0))
        pts = cloud.points[cloud.valid]
        dists = pts @ n + d
        on_plane = np.abs(dists) < 1e-9
        assert on_plane.sum() > 200  # the visible top face


# The 24 rotations by multiples of 90 degrees as exact signed permutations:
# a box-frame coordinate comes out of ``@ rot`` with no rounding, so a test can
# put a ray exactly on a slab plane or give it a direction component of 0.
RIGHT_ANGLES = [m for m in (
    np.eye(3)[list(perm)] * np.array(signs)[:, None]
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((-1.0, 1.0), repeat=3)) if np.linalg.det(m) > 0]


def assert_same_as_slab_reference(origin, dirs, box):
    t, top = _intersect_box(origin, dirs, box)
    ref_t, ref_top = oracles.slab_intersect_box(origin, dirs, box)
    assert np.array_equal(t, ref_t)
    assert np.array_equal(top, ref_top)


class TestCasterAgainstReference:
    """The per-axis slab loop gives the same entry parameters and top-face
    flags, bit for bit, as the (n, 3) slab test it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           rotation=st.sampled_from(["euler", "euler_right_angles", "exact_right_angles"]),
           inside=st.booleans())
    def test_random_boxes_and_ray_fans(self, seed, rotation, inside):
        rng = np.random.default_rng(seed)
        if rotation == "exact_right_angles":
            rot = RIGHT_ANGLES[rng.integers(len(RIGHT_ANGLES))]
        else:
            angles = (rng.uniform(-179, 180, 3) if rotation == "euler"
                      else rng.choice([0.0, 90.0, -90.0, 180.0], 3))
            angles[1] = np.clip(angles[1], -90, 90)
            rot = euler_zyx_to_rotation(EulerZYX(*map(float, angles)))
        box = BoxSpec(dimensions_mm=tuple(rng.uniform(5, 300, 3)),
                      pose=RigidTransform(rot, Point3(*rng.uniform(-0.2, 0.2, 3))),
                      allow_undersize=True)
        half = box.half_extents_m()
        if inside:
            origin = box.pose.apply_array(rng.uniform(-1, 1, 3) * half)
        else:
            origin = rng.uniform(-0.5, 0.5, 3) + np.array([0.0, 0.0, 0.8])
        targets = box.pose.apply_array(rng.uniform(-1.5, 1.5, (64, 3)) * half)
        dirs = np.vstack([targets - origin, rng.standard_normal((16, 3))])
        assert_same_as_slab_reference(origin, dirs, box)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rot_index=st.integers(0, len(RIGHT_ANGLES) - 1),
           axis=st.integers(0, 2), side=st.sampled_from([-1.0, 1.0]),
           zero=st.sampled_from([0.0, -0.0]))
    def test_grazing_and_edge_rays(self, seed, rot_index, axis, side, zero):
        """Half extents and offsets are multiples of 1/64 m, so the slab
        parameters of the planes these rays lie on or cross at an edge come
        out exact."""
        rng = np.random.default_rng(seed)
        rot = RIGHT_ANGLES[rot_index]
        box = BoxSpec(dimensions_mm=tuple(31.25 * rng.integers(2, 17, 3)),
                      pose=RigidTransform(rot, Point3(0.0, 0.0, 0.0)), allow_undersize=True)
        half = box.half_extents_m()
        # Grazing: the origin lies on one slab plane and every direction runs
        # along it (0/0 in that slab), aimed at points of the box.
        grazing_origin = rng.uniform(-2, 2, 3) * half
        grazing_origin[axis] = side * half[axis]
        grazing = rng.uniform(-1, 1, (32, 3)) * half - grazing_origin
        grazing[:, axis] = zero
        # Edge: a ray entering exactly through an edge of the +z face, so the
        # x or y slab and the z slab are entered at the same parameter.
        edge_axis = axis % 2
        s = rng.integers(1, 65) / 64
        edge_origin = np.zeros(3)
        edge_origin[1 - edge_axis] = rng.integers(-3, 4) / 4 * half[1 - edge_axis]
        edge_origin[edge_axis] = side * (half[edge_axis] + s)
        edge_origin[2] = half[2] + s
        edge = np.zeros((1, 3))
        edge[0, edge_axis] = -side
        edge[0, 2] = -1.0
        edge[0, 1 - edge_axis] = zero
        for origin_b, dirs_b in ((grazing_origin, grazing), (edge_origin, edge)):
            assert_same_as_slab_reference(rot @ origin_b, dirs_b @ rot.T, box)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), convex=st.booleans())
    def test_points_inside_quad(self, seed, convex):
        """Points on the quad's edges and within about 1e-9 of them decide
        the same as one point and one edge at a time."""
        rng = np.random.default_rng(seed)
        if convex:
            center, size = rng.uniform(20, 200, 2), rng.uniform(1, 80, 2)
            angle = rng.uniform(-np.pi, np.pi)
            c, s = np.cos(angle), np.sin(angle)
            corners = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]]) * size
            quad = center + corners @ np.array([[c, s], [-s, c]])
        else:
            quad = rng.uniform(0, 250, (4, 2))
        start = rng.integers(0, 4, 24)
        a, b = quad[start], quad[(start + rng.integers(1, 4, 24)) % 4]
        e = b - a
        # Moved off the segment by `offset` / |e| along its normal, so that the
        # cross product against its own edge is about `offset`.
        normal = np.column_stack([-e[:, 1], e[:, 0]]) / (e**2).sum(1, keepdims=True)
        offset = rng.choice([0.0, 0.5e-9, 1e-9, 2e-9, -0.5e-9, -1e-9, -2e-9], (24, 1))
        points = np.vstack([a + rng.uniform(0, 1, (24, 1)) * e + offset * normal,
                            quad, rng.uniform(0, 250, (8, 2))])
        for p in points:
            assert _points_strictly_inside_quad(p[None], quad) == \
                oracles.points_inside_quad_loop(p[None], quad)
        for group in points.reshape(-1, 4, 2):
            assert _points_strictly_inside_quad(group, quad) == \
                oracles.points_inside_quad_loop(group, quad)


def assert_same_as_full_frame_cast(scene):
    for cam in (depth_camera(scene), rgb_camera(scene)):
        t, kind, is_top = _cast(scene, cam)
        ref_t, ref_kind, ref_top, _ = oracles.cast_all_rays(scene, cam)
        shape = (cam.height, cam.width)
        assert np.array_equal(t, ref_t.reshape(shape))
        assert np.array_equal(kind, ref_kind.reshape(shape))
        assert np.array_equal(is_top, ref_top.reshape(shape))


def random_box(rng, scene, placement):
    """A box inside the scene's bin and below its camera.

    "free" and "flush" boxes take an Euler rotation with tilt; a "flush" box
    touches a bin side, which under a 0 FOV margin is the frame border. A
    "snapped" box is axis-aligned with the edges of its top or bottom face
    projecting onto pixel centers of one camera, where the window bound and
    the slab test round either way. A "near" box has its top within 1e-6 m
    of the camera.
    """
    bx, by = (v / 1000.0 for v in scene.bin_size_mm)
    mount = scene.mount_height_m
    if placement == "snapped":
        cam = (depth_camera, rgb_camera)[rng.integers(2)](scene)
        z_top = rng.uniform(0.02, 0.3)
        depth = (mount - z_top, mount)[rng.integers(2)]  # snap the top or bottom face
        u_reach, v_reach = cam.fx * bx / 2 / depth, cam.fy * by / 2 / depth
        cols = rng.choice(np.arange(np.ceil(cam.cx - u_reach), np.floor(cam.cx + u_reach) + 1),
                          2, replace=False)
        rows = rng.choice(np.arange(np.ceil(cam.cy - v_reach), np.floor(cam.cy + v_reach) + 1),
                          2, replace=False)
        x = (cols - cam.cx) * depth / cam.fx
        y = -(rows - cam.cy) * depth / cam.fy
        return BoxSpec(dimensions_mm=(abs(x[1] - x[0]) * 1000, abs(y[1] - y[0]) * 1000,
                                      z_top * 1000),
                       pose=RigidTransform(np.eye(3), Point3(x.mean(), y.mean(), z_top / 2)),
                       allow_undersize=True)
    angles = (rng.uniform(-180, 180), rng.uniform(-90, 90), rng.uniform(-180, 180))
    rot = euler_zyx_to_rotation(EulerZYX(*angles))
    dims = tuple(rng.uniform(20, 200, 3))
    offsets = BoxSpec(dimensions_mm=dims, pose=RigidTransform(rot, Point3(0.0, 0.0, 0.0)),
                      allow_undersize=True).corners_world()
    lo, hi = offsets.min(0), offsets.max(0)
    center = rng.uniform(-np.array([bx, by, 0.0]) / 2 - lo,
                         np.array([bx / 2, by / 2, mount - 1e-3]) - hi)
    if placement == "flush":
        axis = rng.integers(2)
        center[axis] = ((bx, by)[axis] / 2 - hi[axis] if rng.integers(2)
                        else -(bx, by)[axis] / 2 - lo[axis])
    elif placement == "near":
        center[2] = mount - rng.uniform(1e-9, 1e-6) - hi[2]
    return BoxSpec(dimensions_mm=dims, pose=RigidTransform(rot, Point3(*center)),
                   allow_undersize=True)


class TestWindowedCast:
    """Testing each box only against the rays of its pixel window gives the
    same t, kind and top-face flags, bit for bit, as testing it against every
    ray of the frame."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_boxes=st.integers(1, 4),
           placements=st.lists(st.sampled_from(["free", "flush", "snapped"]),
                               min_size=4, max_size=4),
           near_camera=st.booleans(), walls=st.booleans(),
           fov_margin=st.sampled_from([0.0, 0.1]),
           depth_resolution=st.tuples(st.integers(2, 48), st.integers(2, 48)),
           rgb_resolution=st.tuples(st.integers(2, 96), st.integers(2, 96)))
    def test_random_scenes(self, seed, n_boxes, placements, near_camera, walls,
                           fov_margin, depth_resolution, rgb_resolution):
        rng = np.random.default_rng(seed)
        scene = SceneSpec(mount_height_m=rng.uniform(0.5, 1.5),
                          wall_height_mm=150.0 if walls else 0.0, fov_margin=fov_margin,
                          depth_resolution=depth_resolution, rgb_resolution=rgb_resolution)
        if near_camera:
            placements = ["near", *placements]
        boxes = [random_box(rng, scene, placement) for placement in placements[:n_boxes]]
        assert_same_as_full_frame_cast(replace(scene, boxes=tuple(boxes)))

    @pytest.mark.parametrize("mount, resolution, dims_mm, position_m", [
        (1.305, (9, 53), (192.35249042145597, 40.0, 164.0), (-0.03205874840357596, 0.0, 0.082)),
        (1.305, (9, 53), (40.0, 94.36159907467652, 164.0), (0.0, 0.13428381406780884, 0.082)),
        (0.706, (60, 47), (107.53824362606234, 40.0, 213.0), (0.1651480169971671, 0.0, 0.1065)),
        (0.572, (57, 21), (40.0, 285.3846153846154, 201.0), (0.0, 0.04756410256410259, 0.1005)),
    ], ids=["first-column", "first-row", "last-column", "last-row"])
    def test_edge_hit_past_rounded_bound(self, mount, resolution, dims_mm, position_m):
        """A top-face edge projects onto a pixel center, its projected bound
        rounds to the far side of that center, and the slab test still hits
        the pixel: each end of the window needs its 1 px margin."""
        box = BoxSpec(dimensions_mm=dims_mm, pose=RigidTransform(np.eye(3), Point3(*position_m)),
                      allow_undersize=True)
        assert_same_as_full_frame_cast(SceneSpec(boxes=(box,), mount_height_m=mount,
                                                 rgb_resolution=resolution))


class TestRenderImage:
    def test_empty_bin_uniform_floor(self):
        img = render_image(simple_scene())
        assert (img.pixels == 60).all()

    def test_single_box_hard_edges(self):
        scene = simple_scene([make_box((150, 150, 50), (0, 0, 25), intensity=220)])
        img = render_image(scene)
        values = set(np.unique(img.pixels).tolist())
        assert values == {60, 220}
        # the face projects to a centered square; edges are hard steps
        face = img.pixels == 220
        ys, xs = np.nonzero(face)
        w, h = img.width, img.height
        assert abs((xs.min() + xs.max()) / 2 - (w - 1) / 2) < 1.0
        assert abs((ys.min() + ys.max()) / 2 - (h - 1) / 2) < 1.0

    def test_adjacent_boxes_share_internal_edge(self):
        scene = simple_scene([
            make_box((100, 100, 50), (-50, 0, 25), intensity=180),
            make_box((100, 100, 50), (50, 0, 25), intensity=220),
        ])
        img = render_image(scene)
        values = set(np.unique(img.pixels).tolist())
        assert values == {60, 180, 220}
        row = img.pixels[img.height // 2]
        left = np.nonzero(row == 180)[0]
        right = np.nonzero(row == 220)[0]
        assert left.max() + 1 == right.min()  # touching along the shared boundary


class TestDepthNoise:
    def test_zero_sigma_identity(self):
        cloud = render_depth(simple_scene())
        noisy = add_depth_noise(cloud, 0.0, seed=1)
        assert np.array_equal(noisy.points, cloud.points)

    def test_noise_statistics_along_ray(self):
        scene = simple_scene()
        cloud = render_depth(scene)
        noisy = add_depth_noise(cloud, 0.002, seed=2)
        delta = noisy.points[cloud.valid] - cloud.points[cloud.valid]
        displacement = np.linalg.norm(delta, axis=1)
        assert displacement.std() > 0
        signed = np.sign(delta[:, 2]) * displacement
        std = signed.std()
        assert abs(std - 0.002) < 0.0002
        rays = cloud.points[cloud.valid]
        rays = rays / np.linalg.norm(rays, axis=1, keepdims=True)
        cross = np.linalg.norm(np.cross(delta, rays), axis=1)
        assert cross.max() < 1e-12  # displacement is purely along the ray

    def test_seed_determinism(self):
        cloud = render_depth(simple_scene())
        a = add_depth_noise(cloud, 0.002, seed=3)
        b = add_depth_noise(cloud, 0.002, seed=3)
        assert np.array_equal(a.points, b.points)
        c = add_depth_noise(cloud, 0.002, seed=4)
        assert not np.array_equal(a.points, c.points)


class TestGroundTruth:
    def test_axis_aligned_box(self):
        scene = simple_scene([make_box((100, 80, 60), (20, -30, 30))])
        truth = ground_truth(scene)[0]
        # world (20, -30, 60) mm maps to sensor (20, +30, 1140) mm
        assert truth.centroid_mm == pytest.approx([20, 30, 1140], abs=1e-9)
        assert truth.euler.as_tuple() == pytest.approx((0, 0, 0), abs=1e-9)
        assert truth.priority == "parent"
        assert truth.normal == pytest.approx([0, 0, -1], abs=1e-12)

    def test_tilted_box_euler_pm45(self):
        scene = simple_scene([make_box((100, 100, 40), (0, 0, 120),
                                       rot_zyx_deg=(0, 0, 45))])
        truth = ground_truth(scene)[0]
        assert abs(abs(truth.euler.theta3) - 45) < 1e-9
        assert abs(truth.euler.theta2) < 1e-9

    def test_stacked_small_box_is_child(self):
        big = make_box((200, 200, 60), (0, 0, 30), intensity=180)
        small = make_box((80, 80, 40), (0, 0, 80), intensity=230)
        truth = ground_truth(simple_scene([big, small]))
        assert truth[0].priority == "parent"
        assert truth[1].priority == "child"

    def test_homography_closes_fusion_loop(self):
        scene = simple_scene()
        h_true = scene_homography(scene)
        rng = np.random.default_rng(5)
        src = rng.uniform(0, 448, size=(8, 2))
        dst = oracles.map_pixels(h_true, src)
        est = estimate_homography(src, dst)
        assert np.abs(est.h - h_true.h).max() / np.abs(h_true.h).max() < 1e-6

    def test_depth_camera_frames_bin_with_margin(self):
        scene = simple_scene()
        cam = depth_camera(scene)
        # the bin's long side spans the image width inside the 10% margin
        half_width_m = 0.5 * 0.6 * 1.1
        u_edge = cam.fx * half_width_m / 1.2 + cam.cx
        assert u_edge == pytest.approx(cam.width - 0.5, abs=1e-9)


class TestSceneValidation:
    def test_box_outside_bin_rejected(self):
        with pytest.raises(ValueError):
            simple_scene([make_box((100, 100, 50), (400, 0, 25))])

    def test_undersize_box_rejected_without_override(self):
        with pytest.raises(ValueError):
            make_box((10, 10, 5), (0, 0, 2.5))
        BoxSpec(dimensions_mm=(10, 10, 5),
                pose=RigidTransform(np.eye(3), Point3(0, 0, 0.0025)),
                allow_undersize=True)

    def test_scene_from_dict_roundtrip(self):
        scene = scene_from_dict({
            "bin_size_mm": [600, 400],
            "rgb_resolution": [448, 344],
            "noise_sigma_m": 0.002,
            "seed": 9,
            "boxes": [{"dimensions_mm": [100, 100, 50],
                       "position_mm": [0, 0, 25],
                       "rotation_zyx_deg": [0, 0, 0],
                       "face_intensity": 210}],
        })
        assert scene.noise_sigma_m == 0.002
        assert scene.boxes[0].face_intensity == 210

    def test_unknown_keys_rejected(self):
        with pytest.raises(InputError):
            scene_from_dict({"bogus": 1})
        with pytest.raises(InputError):
            scene_from_dict({"boxes": [{"dimensions_mm": [100, 100, 50],
                                        "position_mm": [0, 0, 25],
                                        "paint": "red"}]})
