import numpy as np
import pytest
from conftest import (
    feature_covariance,
    feature_vector,
    noise_jacobian,
    random_feature_arrays,
    random_pose,
    random_unit,
)
from scipy.integrate import quad

from degen_icp import (
    EmptyFeatureSet,
    NoiseSpec,
    NotUnitLength,
    SceneKind,
    SceneSpec,
    accumulate_arrays,
    analyze,
    degeneracy_probability,
    direction_stats,
    frame_change_matrix,
    gaussian_cdf,
    generate_scene,
    noisy_feature_arrays,
    skew,
)

EZ = np.array([0.0, 0.0, 1.0])
ZERO3 = np.zeros((3, 3))


def _phi_by_quadrature(x):
    """Independent CDF oracle: numerical integration of the normal density."""
    pdf = lambda t: np.exp(-0.5 * t * t) / np.sqrt(2 * np.pi)
    val, _ = quad(pdf, -12.0, x, limit=200)
    return val


class TestFeatureVector:
    def test_point_at_origin(self):
        np.testing.assert_array_equal(feature_vector([0, 0, 0], EZ, 1.0), [0, 0, 0, 0, 0, 1])

    def test_cross_product_block(self):
        v = feature_vector([1, 0, 0], EZ, 1.0)
        np.testing.assert_array_equal(v, [0, -1, 0, 0, 0, 1])

    def test_linear_in_weight(self):
        rng = np.random.default_rng(0)
        p, n = rng.standard_normal(3), random_unit(rng, 3)
        v1 = feature_vector(p, n, 1.0)
        v2 = feature_vector(p, n, 2.0)
        np.testing.assert_array_equal(v2, 2.0 * v1)


class TestNoiseJacobian:
    def test_origin_block_structure(self):
        b = noise_jacobian([0, 0, 0], EZ, 1.0)
        expected = np.zeros((6, 6))
        expected[:3, :3] = -skew(EZ)
        expected[3:, 3:] = skew(EZ)
        np.testing.assert_array_equal(b, expected)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p, n = rng.standard_normal(3), random_unit(rng, 3)
            w = rng.uniform(0.5, 2.0)
            b = noise_jacobian(p, n, w)

            def v_of(eps, eta):
                p_hat = p + eps
                n_hat = n + np.cross(n, eta)
                return w * np.concatenate([np.cross(p_hat, n_hat), n_hat])

            h = 1e-6
            num = np.zeros((6, 6))
            for j in range(6):
                step = np.zeros(6)
                step[j] = h
                num[:, j] = (v_of(step[:3], step[3:]) - v_of(-step[:3], -step[3:])) / (2 * h)
            np.testing.assert_allclose(b, num, atol=1e-6)

    def test_linear_in_weight(self):
        rng = np.random.default_rng(2)
        p, n = rng.standard_normal(3), random_unit(rng, 3)
        np.testing.assert_allclose(
            noise_jacobian(p, n, 3.0),
            3.0 * noise_jacobian(p, n, 1.0),
            atol=1e-15,
        )


class TestFeatureCovariance:
    def test_zero_noise_gives_zero(self):
        sigma = feature_covariance([1, 2, 3], EZ, 1.0, ZERO3, ZERO3)
        np.testing.assert_array_equal(sigma, np.zeros((6, 6)))

    def test_origin_axis_aligned_case(self):
        sp, sn = 0.02, 0.005
        sigma = feature_covariance([0, 0, 0], EZ, 1.0, sp**2 * np.eye(3), sn**2 * np.eye(3))
        expected = np.diag([sp**2, sp**2, 0.0, sn**2, sn**2, 0.0])
        np.testing.assert_allclose(sigma, expected, atol=1e-15)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p, n = rng.standard_normal(3), random_unit(rng, 3)
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            sigma = feature_covariance(p, n, rng.uniform(0.5, 2), a @ a.T, b @ b.T)
            np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)
            assert np.linalg.eigvalsh(sigma).min() >= -1e-10


class TestAccumulate:
    def test_single_feature_on_plane(self):
        bundle = accumulate_arrays([[0, 0, 0]], EZ, 0.0, 1.0, ZERO3, ZERO3)
        e6 = np.zeros(6)
        e6[5] = 1.0
        np.testing.assert_array_equal(bundle.hessian, np.outer(e6, e6))
        np.testing.assert_array_equal(bundle.rhs, np.zeros(6))

    def test_two_identical_features_double(self):
        p = [1.0, -0.5, 2.0]
        one = accumulate_arrays([p], EZ, 2.0, 1.0, ZERO3, ZERO3)
        two = accumulate_arrays([p, p], [EZ, EZ], 2.0, 1.0, ZERO3, ZERO3)
        np.testing.assert_array_equal(two.hessian, 2.0 * one.hessian)
        np.testing.assert_array_equal(two.rhs, 2.0 * one.rhs)

    def test_empty_raises(self):
        with pytest.raises(EmptyFeatureSet):
            accumulate_arrays(np.zeros((0, 3)), np.zeros((0, 3)), [], [], ZERO3, ZERO3)

    def test_matches_per_feature_reference(self):
        rng = np.random.default_rng(10)
        points, normals, offsets, weights, point_cov, normal_covs = random_feature_arrays(
            rng, 40, sigma_p=0.02, sigma_n=0.01
        )
        assert normal_covs.shape == (40, 3, 3) and np.ptp(weights) > 0.0
        bundle = accumulate_arrays(points, normals, offsets, weights, point_cov, normal_covs)
        for i in range(40):
            v = feature_vector(points[i], normals[i], weights[i])
            cov = feature_covariance(points[i], normals[i], weights[i], point_cov, normal_covs[i])
            assert np.linalg.norm(bundle.vectors[i] - v) <= 1e-12 * np.linalg.norm(v)
            assert np.linalg.norm(bundle.covariances[i] - cov) <= 1e-12 * np.linalg.norm(cov)

    def test_hessian_is_sum_of_outer_products(self):
        rng = np.random.default_rng(4)
        arrays = random_feature_arrays(rng, 50)
        bundle = accumulate_arrays(*arrays)
        ref = bundle.vectors.T @ bundle.vectors
        assert np.linalg.norm(bundle.hessian - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_frame_change_conjugates_hessian(self):
        rng = np.random.default_rng(5)
        points, normals, offsets, weights, point_cov, normal_covs = random_feature_arrays(rng, 80)
        bundle = accumulate_arrays(points, normals, offsets, weights, point_cov, normal_covs)
        pose = random_pose(rng)
        moved_points = pose.apply(points)
        moved_normals = normals @ pose.rotation.T
        moved_offsets = np.einsum("ni,ni->n", moved_normals, moved_points)
        moved = accumulate_arrays(
            moved_points, moved_normals, moved_offsets, weights, point_cov, normal_covs
        )
        m = frame_change_matrix(pose)
        expected = m @ bundle.hessian @ m.T
        assert np.linalg.norm(moved.hessian - expected) <= 1e-9 * np.linalg.norm(expected)

    def test_psd_hessian(self):
        rng = np.random.default_rng(6)
        bundle = accumulate_arrays(*random_feature_arrays(rng, 30))
        vals = np.linalg.eigvalsh(bundle.hessian)
        assert vals.min() >= -1e-10 * vals.max()


class TestDirectionStats:
    def test_zero_covariances(self):
        bundle = accumulate_arrays([[0.5, 0.5, 0.0]], EZ, 0.0, 1.0, ZERO3, ZERO3)
        mu, s2 = direction_stats(bundle, random_unit(np.random.default_rng(7), 6))
        assert mu == 0.0 and s2 == 0.0

    def test_axis_aligned_zero_direction(self):
        sn = 0.01
        bundle = accumulate_arrays([[0, 0, 0]], EZ, 0.0, 1.0, 0.02**2 * np.eye(3), sn**2 * np.eye(3))
        u = np.zeros(6)
        u[5] = 1.0  # z-translation: no noise enters this component
        assert direction_stats(bundle, u) == (0.0, 0.0)

    def test_axis_aligned_translation_direction(self):
        sn = 0.01
        bundle = accumulate_arrays([[0, 0, 0]], EZ, 0.0, 1.0, ZERO3, sn**2 * np.eye(3))
        u = np.zeros(6)
        u[3] = 1.0  # x-translation
        mu, s2 = direction_stats(bundle, u)
        assert mu == pytest.approx(sn**2, abs=1e-18)
        assert s2 == pytest.approx(2 * sn**4, abs=1e-22)

    def test_requires_unit_direction(self):
        bundle = accumulate_arrays([[0, 0, 0]], EZ, 0.0, 1.0, ZERO3, ZERO3)
        with pytest.raises(NotUnitLength):
            direction_stats(bundle, np.ones(6))
        with pytest.raises(NotUnitLength):
            direction_stats(bundle, np.full(6, np.nan))

    def test_additivity_over_sublists(self):
        # Dyadic-valued features keep float sums exact.
        points = np.array([[0.5, 0.25, 1.0], [1.0, -0.5, 0.5], [-0.25, 2.0, 0.0], [0.125, 0.0, -1.0]])
        normals = np.array([EZ, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], EZ])
        weights = np.array([2.0, 0.5, 1.0, 1.0])
        point_covs = np.array([0.25, 0.5, 0.125, 1.0])[:, None, None] * np.eye(3)
        normal_covs = np.array([0.125, 0.25, 0.5, 1.0])[:, None, None] * np.eye(3)

        def stats(rows):
            bundle = accumulate_arrays(
                points[rows], normals[rows], 0.0, weights[rows], point_covs[rows], normal_covs[rows]
            )
            return direction_stats(bundle, u)

        u = np.zeros(6)
        u[1] = 1.0
        mu_all, s2_all = stats(slice(None))
        mu_a, s2_a = stats(slice(0, 2))
        mu_b, s2_b = stats(slice(2, None))
        assert mu_all == mu_a + mu_b
        assert s2_all == s2_a + s2_b

    def test_matches_analyze_reports(self):
        # One direction and the whole eigenbasis share the moment formulas.
        bundle = accumulate_arrays(*random_feature_arrays(np.random.default_rng(8), 40))
        for report in analyze(bundle, 10.0):
            mu, s2 = direction_stats(bundle, report.direction)
            assert mu == pytest.approx(report.noise_mean, rel=1e-14)
            assert s2 == pytest.approx(report.noise_std**2, rel=1e-14)


class TestGaussianCdf:
    def test_zero_is_exactly_half(self):
        assert gaussian_cdf(0.0) == 0.5

    def test_saturates_to_one(self):
        assert gaussian_cdf(9.0) == 1.0
        assert gaussian_cdf(50.0) == 1.0

    def test_against_quadrature(self):
        assert abs(gaussian_cdf(1.959964) - 0.975) <= 1e-6
        for x in (-3.0, -1.0, 0.5, 2.5, 4.0):
            assert gaussian_cdf(x) == pytest.approx(_phi_by_quadrature(x), abs=1e-9)

    def test_symmetry(self):
        for x in np.linspace(-6, 6, 25):
            assert gaussian_cdf(x) + gaussian_cdf(-x) == pytest.approx(1.0, abs=1e-14)


class TestDegeneracyProbability:
    def test_zero_noise_positive_signal(self):
        assert degeneracy_probability(5.0, 0.0, 0.0, 10.0) == 1.0

    def test_zero_noise_zero_signal(self):
        assert degeneracy_probability(0.0, 0.0, 0.0, 10.0) == 0.0

    def test_half_at_the_mean(self):
        s = 10.0
        mu = 0.3
        assert degeneracy_probability(mu * (s + 1.0), mu, 0.05, s) == 0.5

    def test_three_sigma_case(self):
        sigma = 0.1
        p = degeneracy_probability(0.0, 3 * sigma, sigma, 10.0)
        assert p == pytest.approx(_phi_by_quadrature(-3.0), abs=1e-9)
        assert p == pytest.approx(0.00135, abs=1e-5)

    def test_monotone_in_signal(self):
        ps = [degeneracy_probability(a, 1.0, 0.5, 10.0) for a in np.linspace(0, 30, 100)]
        assert all(b >= a for a, b in zip(ps, ps[1:]))

    def test_monotone_in_snr_target(self):
        ps = [degeneracy_probability(8.0, 1.0, 0.5, s) for s in np.linspace(1, 60, 100)]
        assert all(b <= a for a, b in zip(ps, ps[1:]))


class TestAnalyze:
    def test_noise_free_room_all_probability_one(self):
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=500, seed=0))
        arrays = noisy_feature_arrays(sample, NoiseSpec(0.0, 0.0, 0))
        reports = analyze(accumulate_arrays(*arrays), 10.0)
        assert all(r.probability == 1.0 for r in reports)
        assert all(r.signal > 0 for r in reports)

    def test_noise_free_corridor_null_probability_zero(self):
        sample = generate_scene(SceneSpec(SceneKind.CORRIDOR, point_count=500, seed=1))
        arrays = noisy_feature_arrays(sample, NoiseSpec(0.0, 0.0, 0))
        reports = analyze(accumulate_arrays(*arrays), 10.0)
        null = sample.null_basis[0]
        degenerate = [r for r in reports if abs(r.direction @ null) > 0.99]
        assert len(degenerate) == 1
        assert degenerate[0].probability == 0.0
        assert all(r.probability == 1.0 for r in reports if r is not degenerate[0])

    def test_noisy_plane_classification(self):
        sample = generate_scene(SceneSpec(SceneKind.INFINITE_PLANE, point_count=2000, seed=2))
        arrays = noisy_feature_arrays(sample, NoiseSpec(0.01, 0.01, 3))
        reports = analyze(accumulate_arrays(*arrays), 10.0)
        probs = np.array([r.probability for r in reports])
        low = probs < 0.01
        assert low.sum() == 3 and (probs > 0.99).sum() == 3
        for r, is_low in zip(reports, low):
            proj = np.linalg.norm(sample.null_basis @ r.direction)
            assert proj > 0.9 if is_low else proj < 0.1

    def test_warns_below_six_features(self):
        bundle = accumulate_arrays([[0, 0, 0]], EZ, 0.0, 1.0, ZERO3, ZERO3)
        with pytest.warns(RuntimeWarning):
            analyze(bundle, 10.0)

    def test_weight_scaling_leaves_probabilities_unchanged(self):
        rng = np.random.default_rng(8)
        points, normals, offsets, weights, point_cov, normal_covs = random_feature_arrays(rng, 60)
        base = analyze(accumulate_arrays(points, normals, offsets, weights, point_cov, normal_covs), 10.0)
        scaled = analyze(
            accumulate_arrays(points, normals, offsets, 2.0 * weights, point_cov, normal_covs), 10.0
        )
        for a, b in zip(base, scaled):
            assert b.signal == pytest.approx(4.0 * a.signal, rel=1e-12)
            assert abs(b.probability - a.probability) <= 1e-12

    def test_reports_carry_eigenvalues_descending(self):
        rng = np.random.default_rng(9)
        reports = analyze(accumulate_arrays(*random_feature_arrays(rng, 40)), 10.0)
        signals = [r.signal for r in reports]
        assert signals == sorted(signals, reverse=True)
