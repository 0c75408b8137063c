import numpy as np
import pytest

from binpick.core import EulerZYX
from binpick.planes import SegmentedPlane, fit_plane_pca
from binpick.pose import (
    build_frame,
    estimate_pose,
    euler_zyx_from_rotation,
    euler_zyx_to_rotation,
)


def random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


class TestBuildFrame:
    def test_normal_along_z_gives_identity(self):
        rot = build_frame(np.array([0.0, 0.0, 1.0]))
        assert rot == pytest.approx(np.eye(3))

    def test_normal_along_x_uses_fallback(self):
        rot = build_frame(np.array([1.0, 0.0, 0.0]))
        assert rot[:, 2] == pytest.approx([1, 0, 0])
        # x axis comes from the sensor Y projection
        assert rot[:, 0] == pytest.approx([0, 1, 0])
        assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_tilted_normal_orthonormal(self):
        n = np.array([0.0, np.sin(np.radians(45)), np.cos(np.radians(45))])
        rot = build_frame(n)
        assert rot[:, 2] == pytest.approx(n)
        assert rot.T @ rot == pytest.approx(np.eye(3), abs=1e-9)
        assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_always_orthonormal_det_one(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            rot = build_frame(n)
            assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-9
            assert abs(np.linalg.det(rot) - 1) < 1e-9
            assert rot[:, 2] == pytest.approx(n)

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError):
            build_frame(np.array([0.0, 0.0, 2.0]))


class TestEulerZYX:
    def test_identity(self):
        e = euler_zyx_from_rotation(np.eye(3))
        assert e.as_tuple() == pytest.approx((0, 0, 0))

    def test_ninety_about_z(self):
        rot = euler_zyx_to_rotation(EulerZYX(90, 0, 0))
        e = euler_zyx_from_rotation(rot)
        assert e.as_tuple() == pytest.approx((90, 0, 0))

    def test_gimbal_lock_positive(self):
        # R[2][0] = -1 corresponds to theta2 = +90
        rot = euler_zyx_to_rotation(EulerZYX(30, 90, 0))
        e = euler_zyx_from_rotation(rot)
        assert e.theta2 == pytest.approx(90)
        assert e.theta3 == 0.0
        rebuilt = euler_zyx_to_rotation(e)
        assert rebuilt == pytest.approx(rot, abs=1e-9)

    def test_gimbal_lock_negative(self):
        rot = euler_zyx_to_rotation(EulerZYX(30, -90, 0))
        e = euler_zyx_from_rotation(rot)
        assert e.theta2 == pytest.approx(-90)
        assert e.theta3 == 0.0
        rebuilt = euler_zyx_to_rotation(e)
        assert rebuilt == pytest.approx(rot, abs=1e-9)

    def test_gimbal_lock_mixed_angles_rebuild(self):
        for t1, t3 in ((10, 25), (-40, 160), (95, -30)):
            for t2 in (90, -90):
                rot = euler_zyx_to_rotation(EulerZYX(t1, t2, 0)) \
                    @ euler_zyx_to_rotation(EulerZYX(0, 0, t3))
                e = euler_zyx_from_rotation(rot)
                assert abs(e.theta2) == pytest.approx(90)
                assert e.theta3 == 0.0
                assert euler_zyx_to_rotation(e) == pytest.approx(rot, abs=1e-9)

    def test_roundtrip_thousand_random_rotations(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 1000:
            rot = random_rotation(rng)
            if abs(rot[2, 0]) > 1 - 1e-6:
                continue
            e = euler_zyx_from_rotation(rot)
            assert np.abs(euler_zyx_to_rotation(e) - rot).max() < 1e-9
            checked += 1

    def test_non_rotation_rejected(self):
        with pytest.raises(ValueError):
            euler_zyx_from_rotation(np.eye(3) * 1.1)

    def test_angle_ranges(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            e = euler_zyx_from_rotation(random_rotation(rng))
            assert -180 < e.theta1 <= 180
            assert -90 <= e.theta2 <= 90
            assert -180 < e.theta3 <= 180


class TestEstimatePose:
    def _plane(self, rng, normal, d, extent=0.05, n=200):
        normal = np.asarray(normal, dtype=float)
        normal = normal / np.linalg.norm(normal)
        t = np.array([1.0, 0.0, 0.0]) if abs(normal[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        u = np.cross(normal, t)
        u /= np.linalg.norm(u)
        v = np.cross(normal, u)
        uv = rng.uniform(-extent, extent, size=(n, 2))
        pts = -d * normal + uv[:, :1] * u + uv[:, 1:] * v
        return SegmentedPlane(points=pts, model=fit_plane_pca(pts))

    def test_horizontal_box_top(self):
        xs = np.linspace(-0.048, 0.048, 25)
        xx, yy = np.meshgrid(xs, xs)
        pts = np.column_stack([xx.ravel() + 0.1, yy.ravel() + 0.05,
                               np.full(xx.size, 0.8)])
        plane = SegmentedPlane(points=pts, model=fit_plane_pca(pts))
        p = estimate_pose(plane, "parent")
        assert p.centroid_mm.as_array() == pytest.approx([100, 50, 800], abs=1e-6)
        assert p.euler.as_tuple() == pytest.approx((0, 0, 0), abs=1e-9)
        assert p.priority == "parent"
        assert p.inlier_count == len(pts)

    def test_tilt_about_x_recovered_in_theta3(self):
        rng = np.random.default_rng(4)
        s, c = np.sin(np.radians(45)), np.cos(np.radians(45))
        plane = self._plane(rng, [0, s, -c], 0.5)  # normal tilted 45 deg about sensor X
        p = estimate_pose(plane, "child")
        assert abs(abs(p.euler.theta3) - 45) < 0.5
        assert abs(p.euler.theta2) < 0.5

    def test_frame_continuity_under_small_normal_perturbation(self):
        rng = np.random.default_rng(5)
        n = np.array([0.2, -0.3, 0.93])
        n /= np.linalg.norm(n)
        base = euler_zyx_from_rotation(build_frame(n))
        for _ in range(50):
            delta = rng.normal(size=3)
            delta -= (delta @ n) * n
            delta *= np.radians(0.09) / np.linalg.norm(delta)
            pert = n + delta
            pert /= np.linalg.norm(pert)
            e = euler_zyx_from_rotation(build_frame(pert))
            diff = np.abs(np.array(e.as_tuple()) - np.array(base.as_tuple()))
            assert diff.max() < 0.2

    def test_empty_plane_rejected(self):
        plane = SegmentedPlane(points=np.zeros((0, 3)),
                               model=fit_plane_pca(np.eye(3)))
        with pytest.raises(ValueError):
            estimate_pose(plane, "child")

    def test_centroid_stays_near_plane(self):
        rng = np.random.default_rng(6)
        plane = self._plane(rng, [0.1, 0.2, 1], -0.6)
        p = estimate_pose(plane, "parent")
        centroid_m = p.centroid_mm.as_array() / 1000.0
        dist = abs(float(centroid_m @ plane.model.normal + plane.model.d))
        assert dist < 0.005
        assert ((centroid_m >= plane.points.min(0)) & (centroid_m <= plane.points.max(0))).all()

    def test_centroid_is_the_inlier_mean(self):
        # a dense patch with a sparse tail: the centroid is the plain mean,
        # pulled toward the tail, not a density mode inside the patch
        rng = np.random.default_rng(7)
        patch = self._plane(rng, [0, 0, 1], -0.8, extent=0.01).points
        tail = np.column_stack([0.08 + 0.004 * np.arange(5), np.zeros(5), np.full(5, 0.8)])
        plane_points = np.vstack([patch, tail])
        plane = SegmentedPlane(points=plane_points, model=fit_plane_pca(plane_points))
        p = estimate_pose(plane, "child")
        assert np.array_equal(p.centroid_mm.as_array(), plane_points.mean(0) * 1000.0)
        assert p.centroid_mm.x - patch[:, 0].mean() * 1000.0 > 1.5
