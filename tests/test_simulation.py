import os
import tracemalloc

import numpy as np
import pytest
from conftest import random_feature_arrays, sequential_mc_direction_stats

from degen_icp import (
    InvalidDimensions,
    NoiseSpec,
    RequiresDegenerateScene,
    SceneKind,
    SceneSpec,
    accumulate_arrays,
    direction_stats,
    generate_scene,
    mc_direction_stats,
    noisy_feature_arrays,
    spurious_info_demo,
)
from degen_icp.simulation import _chunk_draws, _mc_chunks, _noisy_vectors, _tangent_basis

ALL_KINDS = list(SceneKind)


def _noise_free_hessian(sample):
    v = np.concatenate([np.cross(sample.points, sample.normals), sample.normals], axis=1)
    return v.T @ v


class TestGenerateScene:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_points_lie_on_their_planes(self, kind):
        sample = generate_scene(SceneSpec(kind, point_count=600, seed=3))
        res = np.abs(np.einsum("ni,ni->n", sample.normals, sample.points) - sample.offsets)
        assert res.max() <= 1e-12
        np.testing.assert_allclose(np.linalg.norm(sample.normals, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_null_basis_is_annihilated(self, kind):
        sample = generate_scene(SceneSpec(kind, point_count=600, seed=4))
        h = _noise_free_hessian(sample)
        for u in sample.null_basis:
            assert np.linalg.norm(h @ u) <= 1e-9 * np.linalg.norm(h)

    def test_null_dimensions_per_kind(self):
        expected = {
            SceneKind.INFINITE_PLANE: 3,
            SceneKind.CORRIDOR: 1,
            SceneKind.CYLINDER: 2,
            SceneKind.CYLINDER_WITH_FLOOR: 1,
            SceneKind.ROOM: 0,
        }
        for kind, dim in expected.items():
            sample = generate_scene(SceneSpec(kind, point_count=600, seed=5))
            assert sample.null_basis.shape[0] == dim

    def test_room_is_fully_constrained(self):
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=2000, seed=6))
        assert sample.null_basis.shape == (0, 6)
        assert np.linalg.eigvalsh(_noise_free_hessian(sample)).min() > 0

    def test_deterministic(self):
        a = generate_scene(SceneSpec(SceneKind.CORRIDOR, point_count=500, seed=7))
        b = generate_scene(SceneSpec(SceneKind.CORRIDOR, point_count=500, seed=7))
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.normals, b.normals)

    def test_cylinder_defaults_match_tank_geometry(self):
        sample = generate_scene(SceneSpec(SceneKind.CYLINDER, point_count=500, seed=8))
        radii = np.linalg.norm(sample.points[:, :2], axis=1)
        np.testing.assert_allclose(radii, 8.0, atol=1e-12)
        assert np.abs(sample.points[:, 2]).max() <= 8.0

    def test_invalid_dimensions(self):
        with pytest.raises(InvalidDimensions):
            generate_scene(SceneSpec(SceneKind.ROOM, {"width": -1.0}, 100, 0))
        with pytest.raises(InvalidDimensions):
            generate_scene(SceneSpec(SceneKind.ROOM, {"radius": 1.0}, 100, 0))
        with pytest.raises(InvalidDimensions):
            generate_scene(SceneSpec(SceneKind.ROOM, None, 4, 0))
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidDimensions):
                generate_scene(SceneSpec(SceneKind.ROOM, {"width": bad}, 100, 0))

    def test_true_planes_deduplicated_for_flat_scenes(self):
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=500, seed=9))
        assert len(sample.true_planes) == 6


class TestApplyNoise:
    def test_zero_noise_reproduces_sample(self):
        sample = generate_scene(SceneSpec(SceneKind.CORRIDOR, point_count=300, seed=10))
        pts, nrm, _, _, _, _ = noisy_feature_arrays(sample, NoiseSpec(0.0, 0.0, 11))
        np.testing.assert_array_equal(pts, sample.points)
        np.testing.assert_array_equal(nrm, sample.normals)

    def test_deterministic_per_seed(self):
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=300, seed=12))
        a = noisy_feature_arrays(sample, NoiseSpec(0.01, 0.01, 13))
        b = noisy_feature_arrays(sample, NoiseSpec(0.01, 0.01, 13))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_point_noise_statistics(self):
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=4000, seed=14))
        sigma_p = 0.01
        pts, _, _, _, _, _ = noisy_feature_arrays(sample, NoiseSpec(sigma_p, 0.0, 15))
        dev = (pts - sample.points).ravel()
        std = dev.std(ddof=1)
        se = sigma_p / np.sqrt(2 * dev.size)
        assert abs(std - sigma_p) <= 3 * se

    def test_rotation_model_keeps_unit_normals(self):
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=300, seed=16))
        _, normals, _, _, _, _ = noisy_feature_arrays(sample, NoiseSpec(0.0, 0.05, 17))
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)

    def test_small_angle_model_norm_deviates_second_order(self):
        # The Monte Carlo oracle draws normals as n + cross(n, eta).
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=300, seed=18))
        t1, t2 = _tangent_basis(sample.normals)

        def vectors(rng, rows):
            eps, coeffs = _chunk_draws(rng, 300, rows, 0.0, 0.05)
            return _noisy_vectors(sample.points, sample.normals, np.ones(300), t1, t2, eps, coeffs)

        (chunk,) = _mc_chunks(vectors, 300, 1, np.random.SeedSequence(19))
        norms = np.linalg.norm(chunk[0, :, 3:], axis=1)
        assert norms.max() > 1.0
        assert abs(norms - 1.0).max() < 0.05  # ~ sigma_n^2 scale, far below sigma_n

    def test_feature_covariances_populated(self):
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=50, seed=20))
        _, normals, _, _, point_cov, normal_covs = noisy_feature_arrays(sample, NoiseSpec(0.02, 0.01, 21))
        np.testing.assert_allclose(point_cov, 0.02**2 * np.eye(3), atol=1e-15)
        np.testing.assert_allclose(normal_covs[0] @ normals[0], np.zeros(3), atol=1e-12)


class TestMcHessianStats:
    def test_zero_noise_is_deterministic(self):
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=100, seed=22))
        u = np.zeros(6)
        u[5] = 1.0
        mean, var = _mc_one(sample.points, sample.normals, 1.0, NoiseSpec(0.0, 0.0, 23), u, 100)
        h = _noise_free_hessian(sample)
        assert mean == pytest.approx(u @ h @ u, rel=1e-12)
        assert var == 0.0

    def test_single_feature_closed_form(self):
        sigma_n = 0.01
        u = np.zeros(6)
        u[3] = 1.0
        mean, var = _mc_one(np.zeros((1, 3)), [[0, 0, 1.0]], 1.0, NoiseSpec(0.0, sigma_n, 24), u, 100_000)
        assert mean == pytest.approx(sigma_n**2, rel=0.03)
        assert var == pytest.approx(2 * sigma_n**4, rel=0.05)

    def test_matches_analytic_prediction(self):
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=100, seed=25))
        noise = NoiseSpec(0.01, 0.01, 26)
        bundle = _noise_free_bundle(sample, 0.01, 0.01)
        rng = np.random.default_rng(27)
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        mu, sigma2 = direction_stats(bundle, u)
        signal = float(u @ bundle.hessian @ u)
        mean, var = _mc_one(sample.points, sample.normals, 1.0, noise, u, 50_000)
        se = np.sqrt(var / 50_000)
        assert abs(mean - (signal + mu)) <= 3 * se
        assert abs(var - sigma2) <= 0.1 * sigma2

    def test_mean_error_shrinks_with_trials(self):
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=80, seed=28))
        bundle = _noise_free_bundle(sample, 0.01, 0.01)
        u = np.zeros(6)
        u[0] = 1.0
        mu, _ = direction_stats(bundle, u)
        truth = float(u @ bundle.hessian @ u) + mu
        noise = NoiseSpec(0.01, 0.01, 29)
        small, _ = _mc_one(sample.points, sample.normals, 1.0, noise, u, 1_000)
        large, _ = _mc_one(sample.points, sample.normals, 1.0, noise, u, 100_000)
        assert abs(large - truth) < abs(small - truth)

    def test_deterministic_and_consistent_with_multi(self):
        sample = generate_scene(SceneSpec(SceneKind.CORRIDOR, point_count=60, seed=30))
        noise = NoiseSpec(0.01, 0.02, 31)
        u = np.zeros(6)
        u[4] = 1.0
        a = _mc_one(sample.points, sample.normals, 1.0, noise, u, 5_000)
        b = _mc_one(sample.points, sample.normals, 1.0, noise, u, 5_000)
        assert a == b
        # Multi-direction projection shares the draws; BLAS may differ in the
        # last ulp between matrix widths.
        means, variances = mc_direction_stats(
            sample.points, sample.normals, 1.0, noise, np.column_stack([u, np.eye(6)[0]]), 5_000
        )
        assert means[0] == pytest.approx(a[0], rel=1e-12)
        assert variances[0] == pytest.approx(a[1], rel=1e-12)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "features, trials",
        # A partial last chunk; several row blocks per chunk with a partial
        # last block (1000 features: 349-row chunks, 21-row blocks); the
        # smallest trial count.
        [(37, 12_345), (1_000, 5_001), (100, 2)],
        ids=["partial-chunk", "partial-block", "two-trials"],
    )
    def test_matches_sequential_reference(self, monkeypatch, features, trials, workers):
        rng = np.random.default_rng(features)
        points, normals, _, weights, _, _ = random_feature_arrays(rng, features)
        directions = rng.standard_normal((6, 4))
        noise = NoiseSpec(0.01, 0.02, 39)
        _force_workers(monkeypatch, workers)
        got = mc_direction_stats(points, normals, weights, noise, directions, trials)
        want = sequential_mc_direction_stats(points, normals, weights, noise, directions, trials)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_peak_memory_is_bounded(self, monkeypatch):
        # Each running chunk holds its draws, about 14 MB at 100 features, and
        # one row block of work arrays; whole-chunk vectors took 112 MiB here.
        # Two workers, so the bound does not depend on the host's core count.
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=100, seed=40))
        directions = np.random.default_rng(41).standard_normal((6, 10))
        _force_workers(monkeypatch, 2)
        tracemalloc.start()
        try:
            mc_direction_stats(sample.points, sample.normals, 1.0, NoiseSpec(0.01, 0.01, 42), directions, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def _force_workers(monkeypatch, workers):
    """Pin the Monte Carlo thread count by faking the affinity lookup."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)


def _mc_one(points, normals, weights, noise, u, trials):
    """mc_direction_stats for a single direction, as scalars."""
    mean, var = mc_direction_stats(points, normals, weights, noise, np.reshape(u, (6, 1)), trials)
    return float(mean[0]), float(var[0])


def _noise_free_bundle(sample, sigma_p, sigma_n):
    """Noise-free features carrying the analytic noise covariances."""
    normal_covs = sigma_n**2 * (np.eye(3) - np.einsum("ni,nj->nij", sample.normals, sample.normals))
    return accumulate_arrays(
        sample.points, sample.normals, sample.offsets, 1.0, sigma_p**2 * np.eye(3), normal_covs
    )


class TestSpuriousInfoDemo:
    def test_requires_degenerate_scene(self):
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=200, seed=32))
        with pytest.raises(RequiresDegenerateScene):
            spurious_info_demo(sample, 0.01, 100)

    @pytest.mark.parametrize("counts", [{"trials": 0}, {"trials": 100, "solve_trials": 0}], ids=["trials", "solve_trials"])
    def test_rejects_zero_trials(self, counts):
        sample = generate_scene(SceneSpec(SceneKind.INFINITE_PLANE, point_count=100, seed=35))
        with pytest.raises(ValueError, match="must be >= 1"):
            spurious_info_demo(sample, 0.01, **counts)

    def test_peak_memory_is_bounded(self, monkeypatch):
        # Each running chunk holds its draws and one row block of vectors;
        # whole-chunk vectors took 139 MiB here. Two workers, so the bound
        # does not depend on the host's core count.
        sample = generate_scene(SceneSpec(SceneKind.INFINITE_PLANE, point_count=800, seed=37))
        _force_workers(monkeypatch, 2)
        tracemalloc.start()
        try:
            spurious_info_demo(sample, 0.01, 2_000, solve_trials=1, seed=38)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_zero_noise_identity_is_exact(self):
        sample = generate_scene(SceneSpec(SceneKind.INFINITE_PLANE, point_count=300, seed=33))
        report = spurious_info_demo(sample, 0.0, 200, solve_trials=8, seed=34)
        assert report.hessian_mean_rel_error <= 1e-12  # summation order only
        np.testing.assert_array_equal(report.noise_hessian, np.zeros((6, 6)))
        np.testing.assert_array_equal(report.standard_null_mean_abs, np.zeros(3))

    def test_expectation_identity_and_attenuation(self):
        # Quick variant; the acceptance suite runs 1e4 trials at the 0.05 bound.
        sample = generate_scene(SceneSpec(SceneKind.INFINITE_PLANE, point_count=800, seed=37))
        report = spurious_info_demo(sample, 0.01, 4_000, solve_trials=64, seed=38)
        assert report.hessian_mean_rel_error < 0.15
        ratios = report.standard_null_mean_abs / np.maximum(report.probabilistic_null_mean_abs, 1e-300)
        assert (ratios >= 10.0).all()
