import dataclasses
import hashlib
import time
import tracemalloc

import numpy as np
import pytest
from conftest import (
    feature_covariance,
    feature_vector,
    force_workers,
    random_feature_arrays,
    sequential_mc_direction_stats,
)

from degen_icp import (
    InvalidDimensions,
    NoiseSpec,
    RequiresDegenerateScene,
    SceneKind,
    SceneSpec,
    accumulate_arrays,
    direction_stats,
    feature_noise,
    generate_scene,
    mc_direction_stats,
    noisy_feature_arrays,
    simulation,
    spurious_info_demo,
)
from degen_icp.simulation import (
    _chunk_draws,
    _mc_chunks,
    _noisy_vectors,
    _tangent_basis,
    _trial_hessians,
    _vector_constants,
)

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

    @pytest.mark.parametrize(
        "kind, digests",
        [
            (
                SceneKind.INFINITE_PLANE,
                (
                    "bbbbb9df36af3effa5149ee20c609cb86c7559fa80cc54e55f817eed4ea01b7c",
                    "f611b7aedcfeac271a841d127d301e887a1a992dd997f532fd807509f920dee6",
                    "2907304127f9cb001a630d13328221dcb47f474290de5e59d9f2939932f8c6b9",
                ),
            ),
            (
                SceneKind.CORRIDOR,
                (
                    "7a9cf4506153ed85a38ecae7f6cf172db3e2cb4e60b4c3e1a77befd5f95c75a7",
                    "9a6dc7f578b85bc93ea06b8fcef39025c2a5309b686c8d4dbdc6360ada5fd6bf",
                    "b480708a68a3ed1f25e4461ad334223be3f8d23b896db2a2f19c58866e86ff54",
                ),
            ),
            (
                SceneKind.ROOM,
                (
                    "c7b8d2244e0de498e9c3ee5ff017a2ead5f71e5b2f9a9fb8acc63e6e9df486ba",
                    "b5c81b6bc84d14bbfbfbc3533b67806f0595041685400dcb1dcdcfcb52dc6ed4",
                    "7fe218c46d704a541e7e68fa00f5c86e462ede461eb85e61319ead3663ce6dfd",
                ),
            ),
        ],
    )
    def test_draw_order_is_pinned(self, kind, digests):
        """The scenes of the acceptance criteria, byte for byte.

        Every criterion's data follows from these exact draws: the
        multinomial split over surfaces, then each surface's uniform draws in
        surface order. A refactor of generate_scene that reorders a draw, or
        a numpy release that changes `uniform` or `multinomial`, fails here
        and moves every criterion's data. The cylinders are left out: their
        cos and sin may differ in the last bit across CPUs.
        """
        sample = generate_scene(SceneSpec(kind, point_count=1500, seed=51))
        arrays = (sample.points, sample.normals, sample.offsets)
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == digests

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
        consts = _vector_constants(sample.points, sample.normals, np.ones(300), 1)

        rng = np.random.default_rng(np.random.SeedSequence(19).spawn(1)[0])
        ((eps, coeffs),) = _chunk_draws(rng, 300, 1, 1, 0.0, 0.05)
        norms = np.linalg.norm(_noisy_vectors(consts, eps, coeffs)[0, 3:], axis=0)
        assert norms.max() > 1.0
        assert abs(norms - 1.0).max() < 0.05  # ~ sigma_n^2 scale, far below sigma_n

    def test_feature_covariances_populated(self):
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=50, seed=20))
        _, normals, _, _, point_cov, normal_covs = noisy_feature_arrays(sample, NoiseSpec(0.02, 0.01, 21))
        np.testing.assert_allclose(point_cov, 0.02**2 * np.eye(3), atol=1e-15)
        np.testing.assert_allclose(normal_covs[0] @ normals[0], np.zeros(3), atol=1e-12)


class TestFeatureNoise:
    def test_model_bit_for_bit(self):
        # The last row is not unit length: feature_noise takes normals as given.
        normals = np.array([[0.0, 0.0, 1.0], [0.6, 0.8, 0.0], [0.3, -0.5, 0.9]])
        point_cov, normal_covs = feature_noise(normals, NoiseSpec(0.02, 0.01))
        np.testing.assert_array_equal(point_cov, 0.02**2 * np.eye(3))
        for n, cov in zip(normals, normal_covs):
            np.testing.assert_array_equal(cov, 0.01**2 * (np.eye(3) - np.outer(n, n)))

    def test_noisy_feature_arrays_use_it_on_unit_normals(self):
        sample = generate_scene(SceneSpec(SceneKind.CYLINDER_WITH_FLOOR, point_count=300, seed=24))
        noise = NoiseSpec(0.02, 0.05, 25)
        _, normals, _, _, point_cov, normal_covs = noisy_feature_arrays(sample, noise)
        want = feature_noise(normals / np.linalg.norm(normals, axis=1, keepdims=True), noise)
        np.testing.assert_array_equal(point_cov, want[0])
        np.testing.assert_array_equal(normal_covs, want[1])


class TestMcHessianStats:
    def test_rejects_one_trial(self):
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=50, seed=22))
        with pytest.raises(ValueError, match="trials must be >= 2"):
            _mc_one(sample.points, sample.normals, 1.0, NoiseSpec(0.01, 0.01, 23), np.eye(6)[0], 1)

    def test_zero_noise_is_deterministic(self):
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=100, seed=22))
        u = np.zeros(6)
        u[5] = 1.0
        mean, var = _mc_one(sample.points, sample.normals, 1.0, NoiseSpec(0.0, 0.0, 23), u, 100)
        h = _noise_free_hessian(sample)
        assert mean == pytest.approx(u @ h @ u, rel=1e-12)
        assert var == 0.0

    def test_zero_noise_is_deterministic_across_chunks(self):
        # 8,000 trials on 100 features span three chunks (3,495, 3,495 and
        # 1,010 rows); chunk means of one value that differ in their last
        # bits must not turn into variance, at any weights.
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=100, seed=22))
        rng = np.random.default_rng(23)
        directions = rng.standard_normal((6, 10))
        weights = rng.uniform(0.5, 2.0, 100)
        means, variances = mc_direction_stats(
            sample.points, sample.normals, weights, NoiseSpec(0.0, 0.0, 23), directions, 8_000
        )
        v = weights[:, None] * np.concatenate([np.cross(sample.points, sample.normals), sample.normals], axis=1)
        np.testing.assert_allclose(means, np.einsum("id,ij,jd->d", directions, v.T @ v, directions), rtol=1e-12)
        assert np.array_equal(variances, np.zeros(10))

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
        force_workers(monkeypatch, workers)
        got = mc_direction_stats(points, normals, weights, noise, directions, trials)
        want = sequential_mc_direction_stats(points, normals, weights, noise, directions, trials)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("block_elements", [1, 7 * 37 * 6], ids=["1-row", "7-rows"])
    def test_block_size_changes_no_bit(self, monkeypatch, block_elements):
        # Each trial's value comes from its own matrix products; one 2-D
        # product over a block's rows rounds the tail rows differently.
        rng = np.random.default_rng(37)
        points, normals, _, weights, _, _ = random_feature_arrays(rng, 37)
        directions = rng.standard_normal((6, 4))
        noise = NoiseSpec(0.01, 0.02, 39)
        want = mc_direction_stats(points, normals, weights, noise, directions, 12_345)
        monkeypatch.setattr(simulation, "_BLOCK_ELEMENTS", block_elements)
        got = mc_direction_stats(points, normals, weights, noise, directions, 12_345)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("workers, bound_mib", [(1, 15), (2, 28)], ids=["1-worker", "2-workers"])
    def test_peak_memory_is_bounded(self, monkeypatch, workers, bound_mib):
        # Each running chunk holds its point noise, about 8.4 MB at 100
        # features, one block's tangent coefficients and one row block of work
        # arrays. Whole-chunk coefficients took 17.7 MiB on one worker and
        # 33.3 MiB on two, whole-chunk vectors 112 MiB. The worker count is
        # pinned, so the bound does not depend on the host's core count.
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=100, seed=40))
        directions = np.random.default_rng(41).standard_normal((6, 10))
        force_workers(monkeypatch, workers)
        tracemalloc.start()
        try:
            mc_direction_stats(sample.points, sample.normals, 1.0, NoiseSpec(0.01, 0.01, 42), directions, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20


class TestNoisyVectors:
    def test_matches_per_feature_formula(self):
        # Checks the component-major arithmetic against the model written
        # one feature at a time: w [p_hat x n_hat; n_hat] with p_hat = p + e
        # and n_hat = n + cross(n, eta), eta = c1 t1 + c2 t2. Half of the
        # normals are not unit length, where cross(n, t2) is not -t1.
        rng = np.random.default_rng(45)
        rows, count = 4, 60
        points = rng.uniform(-2.0, 2.0, (count, 3))
        normals = rng.standard_normal((count, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        normals[::2] *= rng.uniform(0.5, 2.0, (count // 2, 1))
        weights = rng.uniform(0.5, 2.0, count)
        ((eps, coeffs),) = _chunk_draws(rng, count, rows, rows, 0.05, 0.05)
        t1, t2 = _tangent_basis(normals)
        got = _noisy_vectors(_vector_constants(points, normals, weights, rows), eps, coeffs)
        assert got.shape == (rows, 6, count)
        for r in range(rows):
            for i in range(count):
                eta = coeffs[r, i, 0] * t1[i] + coeffs[r, i, 1] * t2[i]
                want = feature_vector(points[i] + eps[r, i], normals[i] + np.cross(normals[i], eta), weights[i])
                np.testing.assert_allclose(got[r, :, i], want, rtol=1e-12)

    def test_unit_weights_match_unfolded_arithmetic(self):
        # Pins the vectors oracle and spurious_info_demo see: with the
        # weights folded into the normal model's constants, unit weights give
        # the bits of the model written out with no weight multiply.
        rng = np.random.default_rng(46)
        rows, count = 5, 40
        points = rng.uniform(-2.0, 2.0, (count, 3))
        normals = rng.standard_normal((count, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        ((eps, coeffs),) = _chunk_draws(rng, count, rows, rows, 0.05, 0.05)
        t2 = _tangent_basis(normals)[1]
        nt2 = np.cross(normals, t2)
        n = [normals[:, i] + coeffs[..., 0] * t2[:, i] + coeffs[..., 1] * nt2[:, i] for i in range(3)]
        p = [points[:, i] + eps[..., i] for i in range(3)]
        want = np.stack([p[1] * n[2] - p[2] * n[1], p[2] * n[0] - p[0] * n[2], p[0] * n[1] - p[1] * n[0], *n], axis=1)
        got = _noisy_vectors(_vector_constants(points, normals, np.ones(count), rows), eps, coeffs)
        assert np.array_equal(got, want)


class TestChunkDraws:
    @pytest.mark.parametrize("block", [1, 7, 30], ids=["1-row", "7-rows", "whole-chunk"])
    def test_blocks_continue_the_stream(self, block):
        # 23 rows end in a partial block of 7 rows; 30 rows take the chunk whole.
        rows, count, sigma_p, sigma_n = 23, 11, 0.02, 0.03
        blocks = list(_chunk_draws(np.random.default_rng(47), count, rows, block, sigma_p, sigma_n))
        assert [len(eps) for eps, _ in blocks] == [len(coeffs) for _, coeffs in blocks]
        rng = np.random.default_rng(47)
        want_eps = sigma_p * rng.standard_normal((rows, count, 3))
        want_coeffs = sigma_n * rng.standard_normal((rows, count, 2))
        assert np.array_equal(np.concatenate([eps for eps, _ in blocks]), want_eps)
        assert np.array_equal(np.concatenate([coeffs for _, coeffs in blocks]), want_coeffs)


class TestMcChunks:
    # One trial per chunk, so `trials` is the chunk count, and each chunk is
    # told apart by the first entry of its one trial Hessian.
    FEATURES = 3

    def _features(self, seed):
        points, normals, _, weights, _, _ = random_feature_arrays(np.random.default_rng(seed), self.FEATURES)
        return points, normals, weights

    def _engine(self, monkeypatch, reduce, chunks, seed):
        monkeypatch.setattr(simulation, "_CHUNK_ELEMENTS", 1)
        force_workers(monkeypatch, 2)
        return _mc_chunks(reduce, *self._features(seed), 0.01, 0.02, chunks, np.random.SeedSequence(seed))

    def _first_entries(self, chunks, seed):
        """Each chunk's first Hessian entry, from its own draws."""
        consts = _vector_constants(*self._features(seed), 1)
        firsts = []
        for child in np.random.SeedSequence(seed).spawn(chunks):
            ((eps, coeffs),) = _chunk_draws(np.random.default_rng(child), self.FEATURES, 1, 1, 0.01, 0.02)
            firsts.append(_trial_hessians(_noisy_vectors(consts, eps, coeffs))[0, 0])
        return firsts

    def test_results_in_chunk_order(self, monkeypatch):
        # Earlier chunks sleep longer, so on two workers they finish last.
        chunks = 4
        firsts = self._first_entries(chunks, 43)

        def reduce(blocks):
            (h,) = blocks
            time.sleep(0.05 * (chunks - firsts.index(h[0, 0])))
            return len(h), h[0, 0]

        got = list(self._engine(monkeypatch, reduce, chunks, 43))
        assert got == [(1, first) for first in firsts]

    def test_task_error_is_raised(self, monkeypatch):
        fail_on = self._first_entries(3, 44)[1]

        def reduce(blocks):
            (h,) = blocks
            if h[0, 0] == fail_on:
                raise ValueError("chunk 1 failed")
            return len(h)

        with pytest.raises(ValueError, match="chunk 1 failed"):
            list(self._engine(monkeypatch, reduce, 3, 44))


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

    @pytest.mark.parametrize("workers, bound_mib", [(1, 15), (2, 28)], ids=["1-worker", "2-workers"])
    def test_peak_memory_is_bounded(self, monkeypatch, workers, bound_mib):
        # Each running chunk holds its point noise, about 8.4 MB, one block's
        # tangent coefficients and one row block of vectors. Whole-chunk
        # coefficients took 18.4 MiB on one worker and 34.7 MiB on two,
        # whole-chunk vectors 139 MiB. The worker count is pinned, so the
        # bound does not depend on the host's core count.
        sample = generate_scene(SceneSpec(SceneKind.INFINITE_PLANE, point_count=800, seed=37))
        force_workers(monkeypatch, workers)
        tracemalloc.start()
        try:
            spurious_info_demo(sample, 0.01, 2_000, solve_trials=1, seed=38)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20

    def test_worker_count_changes_no_bit(self, monkeypatch):
        # Chunks are merged in chunk order whatever thread finishes first.
        sample = generate_scene(SceneSpec(SceneKind.CORRIDOR, point_count=700, seed=36))
        reports = []
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            reports.append(spurious_info_demo(sample, 0.01, 3_000, solve_trials=2, seed=37))
        for field in dataclasses.fields(reports[0]):
            assert np.array_equal(getattr(reports[0], field.name), getattr(reports[1], field.name)), field.name

    def test_stream_is_pinned(self):
        """Criterion 2's Monte Carlo stream, at a tenth of its trials.

        Criterion 2 reads 0.032 against its 0.05 bound at seed 42, but
        0.023-0.075 over seeds 30-49, so it passes on this exact stream. A
        change to the seed derivation, the chunk rows or the draw order
        re-rolls it, and fails here first.
        """
        sample = generate_scene(SceneSpec(SceneKind.INFINITE_PLANE, point_count=2000, seed=41))
        report = spurious_info_demo(sample, 0.01, 2_000, solve_trials=1, seed=42)
        assert report.hessian_mean_rel_error == pytest.approx(0.07061885353706307, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind", [SceneKind.INFINITE_PLANE, SceneKind.CORRIDOR])
    def test_noise_hessian_is_per_feature_sum(self, kind):
        # Criterion 2 checks this identity only to 5%, by Monte Carlo.
        sample = generate_scene(SceneSpec(kind, point_count=200, seed=39))
        report = spurious_info_demo(sample, 0.01, 10, solve_trials=1, seed=40)
        want = sum(
            feature_covariance(p, n, 1.0, 0.0, 0.01**2 * (np.eye(3) - np.outer(n, n)))
            for p, n in zip(sample.points, sample.normals)
        )
        assert np.linalg.norm(report.noise_hessian - want) <= 1e-12 * np.linalg.norm(want)

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
