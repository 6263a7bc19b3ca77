import numpy as np
from conftest import feature_vector, random_pose

from degen_icp import (
    Pose,
    Twist,
    compose,
    exp_se3,
    frame_change_matrix,
    inverse,
    skew,
    skew_batch,
)


class TestSkew:
    def test_zero_vector(self):
        np.testing.assert_array_equal(skew([0, 0, 0]), np.zeros((3, 3)))

    def test_acts_as_cross_product(self):
        np.testing.assert_allclose(skew([0, 0, 1]) @ [1, 0, 0], [0, 1, 0], atol=1e-15)
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            np.testing.assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-14)

    def test_antisymmetry(self):
        s = skew([1, 2, 3])
        np.testing.assert_array_equal(s.T, -s)

    def test_linearity_exact(self):
        # Dyadic inputs make float arithmetic exact.
        a = np.array([1.0, -0.5, 2.0])
        b = np.array([0.25, 4.0, -1.5])
        np.testing.assert_array_equal(skew(2.0 * a + b), 2.0 * skew(a) + skew(b))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        vs = rng.standard_normal((7, 3))
        batch = skew_batch(vs)
        for i, v in enumerate(vs):
            np.testing.assert_array_equal(batch[i], skew(v))


class TestExp:
    def test_zero_twist_is_identity(self):
        pose = exp_se3(Twist.zero())
        np.testing.assert_array_equal(pose.rotation, np.eye(3))
        np.testing.assert_array_equal(pose.translation, np.zeros(3))

    def test_pure_translation(self):
        pose = exp_se3([0, 0, 0, 1, 2, 3])
        np.testing.assert_array_equal(pose.rotation, np.eye(3))
        np.testing.assert_array_equal(pose.translation, [1, 2, 3])

    def test_quarter_turn_about_z(self):
        pose = exp_se3([0, 0, np.pi / 2, 0, 0, 0])
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(pose.rotation, expected, atol=1e-12)
        np.testing.assert_allclose(pose.rotation @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_rotation_always_orthonormal(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pose = exp_se3(rng.uniform(-3, 3, 6))
            np.testing.assert_allclose(pose.rotation.T @ pose.rotation, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(pose.rotation) - 1.0) < 1e-12

    def test_small_angle_branch_continuity(self):
        rot = np.array([3e-10, -2e-10, 1e-10])
        trans = np.array([0.5, -0.2, 0.1])
        pose = exp_se3(np.concatenate([rot, trans]))
        np.testing.assert_allclose(pose.rotation, np.eye(3) + skew(rot), atol=1e-18)
        np.testing.assert_allclose(pose.translation, trans, atol=1e-10)

    def test_twist_and_array_agree(self):
        x = np.array([0.1, 0.2, -0.3, 1.0, 0.0, -2.0])
        a = exp_se3(x)
        b = exp_se3(Twist.from_vector(x))
        np.testing.assert_array_equal(a.rotation, b.rotation)
        np.testing.assert_array_equal(a.translation, b.translation)


class TestGroupOps:
    def test_compose_identity(self):
        rng = np.random.default_rng(3)
        b = random_pose(rng)
        out = compose(Pose.identity(), b)
        np.testing.assert_array_equal(out.rotation, b.rotation)
        np.testing.assert_array_equal(out.translation, b.translation)

    def test_inverse_identity(self):
        out = inverse(Pose.identity())
        np.testing.assert_array_equal(out.rotation, np.eye(3))
        np.testing.assert_array_equal(out.translation, np.zeros(3))

    def test_compose_with_inverse(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = random_pose(rng)
            out = compose(a, inverse(a))
            np.testing.assert_allclose(out.rotation, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(out.translation, np.zeros(3), atol=1e-12)

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(5)
        a = random_pose(rng)
        b = Pose.from_matrix(a.matrix())
        np.testing.assert_array_equal(a.rotation, b.rotation)
        np.testing.assert_array_equal(a.translation, b.translation)

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(6)
        a = random_pose(rng)
        pts = rng.standard_normal((10, 3))
        hom = np.hstack([pts, np.ones((10, 1))])
        np.testing.assert_allclose(a.apply(pts), (a.matrix() @ hom.T).T[:, :3], atol=1e-12)


class TestFrameChange:
    def test_identity_pose(self):
        np.testing.assert_array_equal(frame_change_matrix(Pose.identity()), np.eye(6))

    def test_pure_rotation_is_block_diagonal(self):
        rng = np.random.default_rng(7)
        pose = random_pose(rng, trans_scale=0.0)
        m = frame_change_matrix(pose)
        np.testing.assert_array_equal(m[:3, :3], pose.rotation)
        np.testing.assert_array_equal(m[3:, 3:], pose.rotation)
        np.testing.assert_array_equal(m[:3, 3:], np.zeros((3, 3)))

    def test_transports_feature_vectors(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pose = random_pose(rng)
            p = rng.standard_normal(3)
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            w = rng.uniform(0.5, 2.0)
            moved = feature_vector(pose.apply(p), pose.rotation @ n, w)
            np.testing.assert_allclose(
                frame_change_matrix(pose) @ feature_vector(p, n, w), moved, atol=1e-12
            )

    def test_multiplicative_over_composition(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a, b = random_pose(rng), random_pose(rng)
            np.testing.assert_allclose(
                frame_change_matrix(compose(a, b)),
                frame_change_matrix(a) @ frame_change_matrix(b),
                atol=1e-12,
            )
