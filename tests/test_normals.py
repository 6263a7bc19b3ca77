import numpy as np
import pytest

from degen_icp import TooFewPoints, fit_planes, normal_covariances, skew
from degen_icp.normals import PlaneFitBatch


def _empirical_cov(points):
    centered = points - points.mean(axis=0)
    return centered.T @ centered / (points.shape[0] - 1)


def _noisy_patch(rng, count=12, sigma=0.02):
    """Full-rank neighborhood: a tilted plane plus 3-D noise."""
    pts = np.column_stack([rng.uniform(-1, 1, count), rng.uniform(-0.4, 0.4, count), np.zeros(count)])
    pts[:, 2] = 0.3 * pts[:, 0] + sigma * rng.standard_normal(count)
    pts += sigma * rng.standard_normal((count, 3))
    return pts


def _fit(pts):
    """fit_planes on a single neighborhood."""
    return fit_planes(np.asarray(pts, dtype=float)[None])


def _signed_like(normals, reference):
    """Normal rows flipped to agree in sign with a reference direction:
    normals are unoriented, so only the line they span is checked."""
    return normals * np.where(normals @ reference < 0.0, -1.0, 1.0)[..., None]


def _cov(batch, sigma_i, n_pts):
    """The normal covariance of a batch's only row, with no outlier gate."""
    keep, covs = normal_covariances(batch, sigma_i, n_pts, np.inf)
    assert keep.tolist() == [True]
    return covs[0]


def _keeps(lambda2, sigma_i, n_pts, sigma_n_max):
    """Outlier test on a fit whose worst-case variance is sigma_i^2 / (n_pts * lambda2)."""
    batch = PlaneFitBatch(
        normals=np.array([[0.0, 0.0, 1.0]]),
        eigenvalues=np.array([[1.0, lambda2, 0.0]]),
        rotations=np.eye(3)[None],
        collinear=np.array([False]),
    )
    return bool(normal_covariances(batch, sigma_i, n_pts, sigma_n_max)[0][0])


class TestFitPlane:
    def test_unit_square(self):
        corners = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
        fit = _fit(corners)
        np.testing.assert_allclose(_signed_like(fit.normals[0], [0, 0, 1]), [0, 0, 1], atol=1e-12)
        assert fit.eigenvalues[0, 2] == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(fit.eigenvalues[0, :2], [1 / 3, 1 / 3], atol=1e-12)

    def test_collinear_flagged(self):
        pts = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]], dtype=float)
        assert _fit(pts).collinear.tolist() == [True]

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            _fit(np.array([[0, 0, 0], [1, 0, 0]], dtype=float))

    def test_noisy_plane_recovers_normal(self):
        rng = np.random.default_rng(42)
        pts = np.column_stack(
            [rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50), np.full(50, 0.3)]
        )
        pts += 0.01 * rng.standard_normal((50, 3))
        fit = _fit(pts)
        angle = np.degrees(np.arccos(np.clip(abs(fit.normals[0] @ [0, 0, 1]), 0, 1)))
        assert angle < 2.0

    def test_rotation_frame_valid(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            fit = _fit(_noisy_patch(rng))
            rot, evals = fit.rotations[0], fit.eigenvalues[0]
            np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(rot[:, 2], fit.normals[0], atol=1e-15)
            assert evals[0] >= evals[1] >= evals[2] >= 0


class TestNormalCovariance:
    def test_symmetric_patch_closed_form(self):
        corners = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
        fit = _fit(corners)
        sigma_i, n_pts = 0.02, 4
        cov = _cov(fit, sigma_i, n_pts)
        c = fit.eigenvalues[0, 0]
        n = fit.normals[0]
        expected = (sigma_i**2 / (n_pts * c)) * (np.eye(3) - np.outer(n, n))
        np.testing.assert_allclose(cov, expected, atol=1e-15)

    def test_zero_sigma(self):
        rng = np.random.default_rng(5)
        keep, covs = normal_covariances(_fit(_noisy_patch(rng)), 0.0, 12, 0.0)
        np.testing.assert_array_equal(covs, np.zeros((1, 3, 3)))
        assert keep.tolist() == [True]  # worst-case variance 0 passes a zero gate

    def test_degenerate_lambda2_rejected(self):
        pts = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]], dtype=float)
        keep, covs = normal_covariances(_fit(pts), 0.01, 3, np.inf)
        assert keep.tolist() == [False]
        assert covs.shape == (0, 3, 3)

    def test_cov_annihilates_normal_and_is_psd(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            fit = _fit(_noisy_patch(rng))
            cov = _cov(fit, 0.01, 12)
            np.testing.assert_allclose(cov @ fit.normals[0], np.zeros(3), atol=1e-10)
            np.testing.assert_allclose(cov, cov.T, atol=1e-15)
            assert np.linalg.eigvalsh(cov).min() >= -1e-15

    def test_dual_form_matches_inverse_conjugation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pts = _noisy_patch(rng)
            fit = _fit(pts)
            assert fit.eigenvalues[0, 2] > 0
            sigma_i, n_pts = 0.01, pts.shape[0]
            cov = _cov(fit, sigma_i, n_pts)
            c_inv = np.linalg.inv(_empirical_cov(pts))
            s = skew(fit.normals[0])
            np.testing.assert_allclose(cov, s @ ((sigma_i**2 / n_pts) * c_inv) @ s.T, atol=1e-10)

    def test_sigma_scaling_is_exact(self):
        rng = np.random.default_rng(8)
        fit = _fit(_noisy_patch(rng))
        np.testing.assert_array_equal(_cov(fit, 0.02, 12), 4.0 * _cov(fit, 0.01, 12))

    def test_count_scaling_is_exact(self):
        rng = np.random.default_rng(9)
        fit = _fit(_noisy_patch(rng))
        np.testing.assert_array_equal(_cov(fit, 0.01, 32), _cov(fit, 0.01, 8) / 4.0)

    def test_worst_case_matches_largest_eigenvalue(self):
        # The outlier gate compares sigma_n_max^2 with the worst-case
        # variance, which must be the covariance's largest eigenvalue.
        rng = np.random.default_rng(10)
        for _ in range(10):
            fit = _fit(_noisy_patch(rng))
            worst_std = np.sqrt(np.linalg.eigvalsh(_cov(fit, 0.015, 12)).max())
            assert normal_covariances(fit, 0.015, 12, worst_std * (1 + 1e-9))[0][0]
            assert not normal_covariances(fit, 0.015, 12, worst_std * (1 - 1e-9))[0][0]

    def test_fitted_normal_scatter_orientation(self):
        # Monte Carlo oracle: the scatter of refitted normals on an
        # anisotropic patch must match the skew(n)-conjugated covariance,
        # i.e. largest variance along the short in-plane axis.
        rng = np.random.default_rng(12)
        base = np.column_stack(
            [rng.uniform(-1, 1, 40), rng.uniform(-0.15, 0.15, 40), np.zeros(40)]
        )
        sigma = 0.004
        fit0 = _fit(base)
        n0 = fit0.normals[0]
        predicted = skew(n0) @ _cov(fit0, sigma, base.shape[0]) @ skew(n0).T
        noisy = base + sigma * rng.standard_normal((3000, 40, 3))
        devs = _signed_like(fit_planes(noisy).normals, n0) - n0
        empirical = devs.T @ devs / devs.shape[0]
        # In-plane variances match within Monte Carlo tolerance (anisotropy
        # ratio here is ~40x, so an axis swap would fail loudly).
        for axis in range(2):
            v = fit0.rotations[0][:, axis]
            assert v @ empirical @ v == pytest.approx(v @ predicted @ v, rel=0.25)


class TestOutlier:
    def test_zero_std_never_outlier(self):
        rng = np.random.default_rng(13)
        keep, _ = normal_covariances(_fit(_noisy_patch(rng)), 0.0, 12, 0.05)
        assert keep.tolist() == [True]

    def test_threshold_exceeded(self):
        # Worst-case std 0.2: 0.2^2 / (4 * 0.25).
        assert not _keeps(0.25, 0.2, 4, 0.10)

    def test_boundary_is_strict(self):
        # Worst-case std exactly 0.10: kept.
        assert _keeps(0.25, 0.10, 4, 0.10)
