import dataclasses

import numpy as np
import pytest
from conftest import fail_after_first_call, random_feature_arrays, rotation_angle

from degen_icp import (
    ConditionNumber,
    EigenTruncate,
    IcpConfig,
    NoCorrespondences,
    NoiseSpec,
    Pose,
    Probabilistic,
    SceneKind,
    SceneSpec,
    SingularHessian,
    Standard,
    accumulate_arrays,
    attenuated_update,
    exp_so3,
    extract_features,
    frame_change_matrix,
    generate_scene,
    noisy_feature_arrays,
    icp,
    solve_update,
)
from degen_icp import registration
from degen_icp.degeneracy import _eigh_descending
from degen_icp.registration import _residual_weights

EZ = np.array([0.0, 0.0, 1.0])
ZERO3 = np.zeros((3, 3))


def _pd_bundle(rng, count=25):
    """Random positive-definite system built from a dense Jacobian."""
    jac = rng.standard_normal((count, 6))
    b = rng.standard_normal(count)
    hessian = jac.T @ jac
    rhs = jac.T @ b
    return hessian, rhs, jac, b


class TestRobustWeight:
    def test_l2_is_one(self):
        # sigma_p = 0 leaves a plain L2 cost: unit weights.
        np.testing.assert_array_equal(_residual_weights(np.array([0.0, 0.3, 10.0]), 0.0), np.ones(3))

    def test_geman_mcclure_origin(self):
        assert _residual_weights(np.array([0.0]), 0.5)[0] == 1.0

    def test_geman_mcclure_at_scale(self):
        # The scale is 3 sigma_p: 0.75 for sigma_p = 0.25.
        w = _residual_weights(np.array([0.75]), 0.25)[0]
        assert w == 0.5
        assert w**2 == 0.25

    def test_vectorized(self):
        np.testing.assert_allclose(_residual_weights(np.array([0.0, 0.75, -0.75]), 0.25), [1.0, 0.5, 0.5])


class TestLinearize:
    def test_on_plane_residual_is_zero(self):
        bundle = accumulate_arrays([[1.0, 2.0, 0.0]], EZ, 0.0, 1.0, ZERO3, ZERO3)
        np.testing.assert_array_equal(bundle.rhs, np.zeros(6))

    def test_residual_sign_pushes_toward_plane(self):
        # Point at origin, plane z = 0.1: the update must push +z.
        bundle = accumulate_arrays([[0.0, 0.0, 0.0]], EZ, 0.1, 1.0, ZERO3, ZERO3)
        np.testing.assert_allclose(bundle.rhs, [0, 0, 0, 0, 0, 0.1], atol=1e-15)

    def test_weight_doubles_jacobian_and_residual(self):
        p = [[0.5, -1.0, 0.2]]
        b1 = accumulate_arrays(p, EZ, 0.5, 1.0, ZERO3, ZERO3)
        b2 = accumulate_arrays(p, EZ, 0.5, 2.0, ZERO3, ZERO3)
        np.testing.assert_array_equal(b2.vectors, 2.0 * b1.vectors)  # J doubles
        np.testing.assert_array_equal(b2.rhs, 4.0 * b1.rhs)          # J^T b quadruples


class TestSolveUpdate:
    def test_probabilistic_equals_standard_when_certain(self):
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=400, seed=0))
        bundle = accumulate_arrays(*noisy_feature_arrays(sample, NoiseSpec(0.0, 0.0, 0)))
        x_std = solve_update(bundle, Standard()).twist
        x_prob = solve_update(bundle, Probabilistic(10.0)).twist
        assert np.linalg.norm(x_prob - x_std) <= 1e-10 * max(np.linalg.norm(x_std), 1.0)

    def test_zero_probability_blocks_direction(self):
        sample = generate_scene(SceneSpec(SceneKind.CORRIDOR, point_count=400, seed=1))
        points, normals, offsets, weights, point_cov, normal_covs = (
            sample.points,
            sample.normals,
            sample.offsets + 0.02,  # uniform offset so the rhs is nonzero
            np.ones(sample.points.shape[0]),
            ZERO3,
            np.zeros((sample.points.shape[0], 3, 3)),
        )
        bundle = accumulate_arrays(points, normals, offsets, weights, point_cov, normal_covs)
        sol = solve_update(bundle, Probabilistic(10.0))
        null = sample.null_basis[0]
        assert abs(sol.twist @ null) <= 1e-12

    def test_standard_raises_on_singular(self):
        sample = generate_scene(SceneSpec(SceneKind.CORRIDOR, point_count=400, seed=2))
        bundle = accumulate_arrays(*noisy_feature_arrays(sample, NoiseSpec(0.0, 0.0, 0)))
        with pytest.raises(SingularHessian):
            solve_update(bundle, Standard())

    def test_eigen_truncate_zero_threshold_equals_standard(self):
        rng = np.random.default_rng(3)
        bundle = accumulate_arrays(*random_feature_arrays(rng, 60, on_plane=False))
        x_std = solve_update(bundle, Standard()).twist
        x_tr = solve_update(bundle, EigenTruncate(0.0)).twist
        assert np.array_equal(x_tr, x_std)

    def test_truncating_methods_zero_dropped_components(self):
        rng = np.random.default_rng(4)
        bundle = accumulate_arrays(*random_feature_arrays(rng, 60, on_plane=False))
        vals, vecs = _eigh_descending(bundle.hessian)
        lam_min = float(vals[3])  # strict threshold: drops components 4..6
        sol = solve_update(bundle, EigenTruncate(lam_min))
        x = sol.twist
        for k in range(3, 6):
            assert abs(vecs[:, k] @ x) <= 1e-12 * max(np.linalg.norm(x), 1.0)
        np.testing.assert_array_equal(sol.probabilities, [1, 1, 1, 0, 0, 0])

    def test_condition_number_gating(self):
        rng = np.random.default_rng(5)
        bundle = accumulate_arrays(*random_feature_arrays(rng, 60, on_plane=False))
        vals, _ = _eigh_descending(bundle.hessian)
        kappa = float(vals[0] / vals[2]) * 1.0000001  # keep exactly three
        sol = solve_update(bundle, ConditionNumber(kappa))
        np.testing.assert_array_equal(sol.probabilities[:3], np.ones(3))
        assert sol.probabilities[3:].sum() <= 1.0  # remaining may drop depending on spectrum

    def test_attenuation_scales_eigencomponents_exactly(self):
        rng = np.random.default_rng(6)
        bundle = accumulate_arrays(*random_feature_arrays(rng, 80, on_plane=False))
        vals, vecs = _eigh_descending(bundle.hessian)
        sol_std = solve_update(bundle, Standard())
        sol_prob = solve_update(bundle, Probabilistic(10.0))
        p = sol_prob.probabilities
        for k in range(6):
            lhs = abs(vecs[:, k] @ sol_prob.twist)
            rhs = p[k] * abs(vecs[:, k] @ sol_std.twist)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-15)

    def test_regularized_least_squares_equivalence(self):
        # Independent oracle: build the inflated-covariance plus zero-prior
        # system explicitly from an SVD of the Jacobian and solve it directly.
        rng = np.random.default_rng(7)
        for _ in range(20):
            hessian, rhs, jac, b = _pd_bundle(rng)
            probs = rng.uniform(0.05, 0.95, 6)
            x_fast = attenuated_update(hessian, rhs, probs)

            u_svd, s_svd, vt = np.linalg.svd(jac, full_matrices=True)
            w_half = u_svd @ np.diag(np.concatenate([np.sqrt(probs), np.ones(jac.shape[0] - 6)])) @ u_svd.T
            a_data = w_half @ jac
            lam_half = np.diag(s_svd)  # singular values = sqrt(eigenvalues)
            reg = np.diag(np.sqrt(1.0 - probs)) @ lam_half @ vt
            lhs = a_data.T @ a_data + reg.T @ reg
            rhs_direct = a_data.T @ (w_half @ b)
            x_direct = np.linalg.solve(lhs, rhs_direct)
            assert np.linalg.norm(x_fast - x_direct) <= 1e-9 * np.linalg.norm(x_direct)

    def test_feature_order_invariance(self):
        rng = np.random.default_rng(8)
        points, normals, offsets, weights, point_cov, normal_covs = random_feature_arrays(
            rng, 100, on_plane=False
        )
        perm = rng.permutation(100)
        a = solve_update(
            accumulate_arrays(points, normals, offsets, weights, point_cov, normal_covs),
            Probabilistic(10.0),
        )
        b = solve_update(
            accumulate_arrays(
                points[perm], normals[perm], offsets[perm], weights[perm], point_cov, normal_covs[perm]
            ),
            Probabilistic(10.0),
        )
        np.testing.assert_allclose(a.twist, b.twist, rtol=1e-10, atol=1e-14)


class TestInformationMatrix:
    def test_full_probability_reconstructs_hessian(self):
        rng = np.random.default_rng(9)
        bundle = accumulate_arrays(*random_feature_arrays(rng, 50, sigma_p=0.0, sigma_n=0.0))
        sol = solve_update(bundle, Standard(), sigma_r=0.02)
        np.testing.assert_allclose(sol.information, bundle.hessian / 0.02**2, rtol=1e-10)

    def test_zero_probability_direction_has_zero_information(self):
        sample = generate_scene(SceneSpec(SceneKind.CORRIDOR, point_count=400, seed=10))
        bundle = accumulate_arrays(*noisy_feature_arrays(sample, NoiseSpec(0.0, 0.0, 0)))
        sol = solve_update(bundle, Probabilistic(10.0), sigma_r=0.015)
        null = sample.null_basis[0]
        assert abs(null @ sol.information @ null) <= 1e-9

    def test_reports_based_scaling(self):
        # Fractional probabilities: the information equals
        # (1/sigma_r^2) sum_k p_k lambda_k u_k u_k^T over the direction reports.
        rng = np.random.default_rng(21)
        bundle = accumulate_arrays(*random_feature_arrays(rng, 12, sigma_p=0.2, sigma_n=0.2))
        sol = solve_update(bundle, Probabilistic(10.0), sigma_r=0.015)
        probs = np.array([r.probability for r in sol.reports])
        assert ((probs > 0.01) & (probs < 0.99)).any()
        expected = sum(r.probability * r.signal * np.outer(r.direction, r.direction) for r in sol.reports)
        np.testing.assert_allclose(sol.information, expected / 0.015**2, rtol=1e-10, atol=1e-10)


class TestExtractFeatures:
    def test_fit_signs_do_not_matter(self, monkeypatch):
        # Plane fits leave eigenvector signs to the eigensolver: flipping any
        # column, the normal with its offset, must change no accumulated bit.
        target = generate_scene(SceneSpec(SceneKind.ROOM, point_count=1500, seed=23))
        rng = np.random.default_rng(24)
        source = target.points + 0.01 * rng.standard_normal(target.points.shape)
        init = Pose(exp_so3([0.01, -0.01, 0.02]), [0.04, -0.03, 0.03])
        want, want_stats = extract_features(source, target.points, init, IcpConfig())

        fit_planes = registration.fit_planes

        def flipped_fit_planes(neighbors):
            batch = fit_planes(neighbors)
            signs = rng.choice([-1.0, 1.0], size=(batch.rotations.shape[0], 1, 3))
            rotations = batch.rotations * signs
            return dataclasses.replace(batch, normals=rotations[:, :, 2], rotations=rotations)

        monkeypatch.setattr(registration, "fit_planes", flipped_fit_planes)
        got, got_stats = extract_features(source, target.points, init, IcpConfig())
        for name in ("hessian", "rhs", "sigma_total", "covariances"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert np.array_equal(np.abs(got.vectors), np.abs(want.vectors))
        assert not np.array_equal(got.vectors, want.vectors)
        assert got_stats == want_stats


class TestIcp:
    def test_self_registration_is_fixed_point(self):
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=1200, seed=11))
        result = icp(sample.points, sample.points, None, IcpConfig())
        assert result.converged
        assert len(result.iterations) <= 2
        assert np.linalg.norm(result.pose.translation) <= 1e-9
        assert rotation_angle(result.pose.rotation) <= 1e-9

    def test_room_recovery_with_noise(self):
        target = generate_scene(SceneSpec(SceneKind.ROOM, point_count=2000, seed=12))
        source_scene = generate_scene(SceneSpec(SceneKind.ROOM, point_count=2000, seed=13))
        rng = np.random.default_rng(14)
        source = source_scene.points + 0.01 * rng.standard_normal(source_scene.points.shape)
        init = Pose(exp_so3([0.0, 0.0, np.deg2rad(2.0)]), [0.1, 0.1, 0.05])
        result = icp(source, target.points, init, IcpConfig(method=Probabilistic(10.0)))
        assert result.converged
        assert np.linalg.norm(result.pose.translation) < 0.005
        assert np.degrees(rotation_angle(result.pose.rotation)) < 0.1

    def test_corridor_holds_longitudinal_component(self):
        target = generate_scene(SceneSpec(SceneKind.CORRIDOR, point_count=1500, seed=15))
        source_scene = generate_scene(SceneSpec(SceneKind.CORRIDOR, point_count=1500, seed=16))
        rng = np.random.default_rng(17)
        source = source_scene.points + 0.01 * rng.standard_normal(source_scene.points.shape)
        init = Pose(np.eye(3), [0.2, 0.004, -0.003])
        result = icp(source, target.points, init, IcpConfig(method=Probabilistic(10.0)))
        # Longitudinal (x) stays at the init value; lateral and vertical correct.
        assert abs(result.pose.translation[0] - 0.2) < 1e-3
        assert abs(result.pose.translation[1]) < 0.005
        assert abs(result.pose.translation[2]) < 0.005

    def test_no_correspondences_raises(self):
        rng = np.random.default_rng(18)
        source = rng.uniform(-1, 1, (50, 3))
        target = source + 100.0
        with pytest.raises(NoCorrespondences):
            icp(source, target, None, IcpConfig())

    def test_later_no_correspondences_keeps_iterations(self, monkeypatch):
        monkeypatch.setattr(registration, "extract_features", fail_after_first_call(registration.extract_features))
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=600, seed=22))
        init = Pose(np.eye(3), [0.05, 0.0, 0.0])
        result = icp(sample.points, sample.points, init, IcpConfig())
        assert result.termination == "no-correspondences"
        assert not result.converged
        assert len(result.iterations) == 1
        local = result.iterations[0].update.information
        m = frame_change_matrix(result.pose)
        np.testing.assert_allclose(result.information, m @ local @ m.T, rtol=1e-9, atol=1e-9)

    def test_world_information_conjugation(self):
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=1000, seed=19))
        init = Pose(exp_so3([0.0, 0.0, 0.3]), [0.5, -0.2, 0.1])
        source = (sample.points - init.translation) @ init.rotation  # inverse-transform
        result = icp(source, sample.points, init, IcpConfig())
        m = frame_change_matrix(result.pose)
        local = result.iterations[-1].update.information
        np.testing.assert_allclose(result.information, m @ local @ m.T, rtol=1e-9, atol=1e-9)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: more data must never give a worse answer (fixed k_neighbors=5 at 20k points)"
    )
    def test_denser_room_converges(self):
        # The 2,000-point room converges in 3 iterations; at 20,000 points
        # few plane fits pass sigma_n_max and the run hits max-iterations.
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=20000, seed=22))
        source = noisy_feature_arrays(sample, NoiseSpec(0.01, 0.01, 23))[0]
        result = icp(source, sample.points, None, IcpConfig())
        assert result.converged
        assert np.linalg.norm(result.pose.translation) < 0.005
        assert np.degrees(rotation_angle(result.pose.rotation)) < 0.1

    def test_extract_features_counters(self):
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=800, seed=20))
        bundle, stats = extract_features(sample.points, sample.points, Pose.identity(), IcpConfig())
        assert stats.candidates == 800
        assert stats.used == bundle.size
        assert stats.used + stats.rejected_distance + stats.rejected_collinear + stats.rejected_outlier >= stats.candidates - 0
        assert stats.residual_rms == 0.0
