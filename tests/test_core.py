import numpy as np
import pytest

from binpick.core import (
    EulerZYX,
    OrganizedCloud,
    PlaneModel,
    Point3,
    RigidTransform,
    normalize_plane,
    plane_signed_distances,
)


class TestNormalizePlane:
    def test_scaling_and_orientation_flip(self):
        p = normalize_plane((0, 0, 2, -1))
        assert p.coefficients() == pytest.approx([0, 0, -1, 0.5])

    def test_already_normalized_unchanged(self):
        p = normalize_plane((0, 0, 1, 0.5))
        assert p.coefficients() == pytest.approx([0, 0, 1, 0.5])

    def test_three_four_five(self):
        p = normalize_plane((3, 0, 4, 10))
        assert p.coefficients() == pytest.approx([0.6, 0, 0.8, 2])

    def test_degenerate_normal_rejected(self):
        with pytest.raises(ValueError):
            normalize_plane((0, 0, 0, 1))
        with pytest.raises(ValueError):
            normalize_plane((1e-13, 0, 0, 1))

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            raw = rng.normal(size=4) * rng.uniform(0.1, 50)
            if np.linalg.norm(raw[:3]) < 1e-6:
                continue
            once = normalize_plane(raw)
            twice = normalize_plane(once.coefficients())
            assert np.abs(once.coefficients() - twice.coefficients()).max() < 1e-12


class TestPlaneSignedDistance:
    def test_above_plane(self):
        plane = normalize_plane((0, 0, 1, 0))
        assert plane_signed_distances(plane, [0, 0, 0.5]) == pytest.approx(0.5)

    def test_on_plane(self):
        plane = normalize_plane((0, 0, 1, 0))
        assert plane_signed_distances(plane, [1, 2, 0]) == pytest.approx(0.0)

    def test_hand_arithmetic(self):
        plane = PlaneModel(0.6, 0.0, 0.8, 2.0)
        assert plane_signed_distances(plane, [[1, 0, 1], [0, 0, 0]]) == pytest.approx([3.4, 2.0])

    def test_points_on_random_planes(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            plane = normalize_plane(rng.normal(size=4))
            n = plane.normal
            base = -plane.d * n
            # two in-plane directions
            t = np.array([1.0, 0.0, 0.0])
            if abs(n[0]) > 0.9:
                t = np.array([0.0, 1.0, 0.0])
            u = np.cross(n, t)
            u /= np.linalg.norm(u)
            v = np.cross(n, u)
            p = base + rng.normal() * u + rng.normal() * v
            assert abs(plane_signed_distances(plane, p)) < 1e-9


class TestApplyTransform:
    def test_identity(self):
        t = RigidTransform.identity()
        assert np.array_equal(t.apply_array([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_pure_translation(self):
        t = RigidTransform(np.eye(3), Point3(0, 0, 1))
        assert np.array_equal(t.apply_array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]),
                              [[0.0, 0.0, 1.0], [1.0, 2.0, 4.0]])

    def test_quarter_turn_about_z(self):
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        t = RigidTransform(rot, Point3(0, 0, 0))
        assert t.apply_array([1.0, 0.0, 0.0]) == pytest.approx([0, 1, 0])

    def test_preserves_pairwise_distances(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            w, x, y, z = q
            rot = np.array([
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ])
            t = RigidTransform(rot, Point3(*rng.normal(size=3)))
            a, b = rng.normal(size=3), rng.normal(size=3)
            ta = t.apply_array(a)
            tb = t.apply_array(b)
            assert abs(np.linalg.norm(ta - tb) - np.linalg.norm(a - b)) < 1e-9

    def test_invalid_rotation_rejected(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 2, Point3(0, 0, 0))
        reflect = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(reflect, Point3(0, 0, 0))


class TestTypes:
    def test_plane_model_requires_unit_normal(self):
        with pytest.raises(ValueError):
            PlaneModel(0, 0, 2, 1)
        with pytest.raises(ValueError):
            PlaneModel(0, 0, 1, -0.5)

    def test_euler_ranges(self):
        EulerZYX(180, 90, -179.9)
        with pytest.raises(ValueError):
            EulerZYX(-180, 0, 0)
        with pytest.raises(ValueError):
            EulerZYX(0, 91, 0)

    def test_organized_cloud_shape_checks(self):
        pts = np.zeros((4, 5, 3))
        valid = np.ones((4, 5), dtype=bool)
        cloud = OrganizedCloud(pts, valid)
        assert cloud.width == 5 and cloud.height == 4
        assert cloud.valid_points().shape == (20, 3)
        with pytest.raises(ValueError):
            OrganizedCloud(np.zeros((4, 5, 2)), valid)
        with pytest.raises(ValueError):
            OrganizedCloud(pts, np.ones((5, 4), dtype=bool))

    def test_organized_cloud_rejects_nonfinite_valid_points(self):
        pts = np.zeros((2, 2, 3))
        pts[0, 0, 0] = np.nan
        valid = np.ones((2, 2), dtype=bool)
        with pytest.raises(ValueError):
            OrganizedCloud(pts, valid)
        valid[0, 0] = False  # invalid entries may hold anything
        OrganizedCloud(pts, valid)

    def test_rigid_transform_compose_inverse(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        w, x, y, z = q
        rot = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])
        t = RigidTransform(rot, Point3(0.1, -0.2, 0.3))
        roundtrip = t.inverse().compose(t)
        assert np.abs(roundtrip.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(roundtrip.translation_array()).max() < 1e-9
