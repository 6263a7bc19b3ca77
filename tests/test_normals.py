import numpy as np
import pytest
from conftest import keep_every_row, random_rotation

from degen_icp import TooFewPoints, fit_planes, normals, skew
from degen_icp.normals import _COLLINEAR, _COLLINEAR_RATIO, _KEPT, _OUTLIER, _SCREEN_TOL, _lambda2_bounds, _screened_out


def _empirical_cov(points):
    centered = points - points.mean(axis=0)
    return centered.T @ centered / (points.shape[0] - 1)


def _noisy_patch(rng, count=12, sigma=0.02):
    """Full-rank neighborhood: a tilted plane plus 3-D noise."""
    pts = np.column_stack([rng.uniform(-1, 1, count), rng.uniform(-0.4, 0.4, count), np.zeros(count)])
    pts[:, 2] = 0.3 * pts[:, 0] + sigma * rng.standard_normal(count)
    pts += sigma * rng.standard_normal((count, 3))
    return pts


def _fit(pts, sigma_i=0.01, sigma_n_max=np.inf):
    """fit_planes on a single neighborhood, with no outlier gate by default."""
    return fit_planes(np.asarray(pts, dtype=float)[None], sigma_i, sigma_n_max)


def _signed_like(normals, reference):
    """Normal rows flipped to agree in sign with a reference direction:
    normals are unoriented, so only the line they span is checked."""
    return normals * np.where(normals @ reference < 0.0, -1.0, 1.0)[..., None]


def _cov(pts, sigma_i):
    """The normal covariance of one neighborhood, with no outlier gate."""
    fit = _fit(pts, sigma_i)
    assert fit.outcome.tolist() == [_KEPT]
    return fit.covs[0]


def _reference(pts, sigma_i):
    """The normal and R diag(s / lambda2, s / lambda1, 0) R^T from a per-row
    eigh of c^T c / (k - 1), s = sigma_i^2 / k, and the eigenvalues, ascending."""
    k = pts.shape[0]
    w, v = np.linalg.eigh(_empirical_cov(pts))
    s = sigma_i**2 / k
    return v[:, 0], (v * [0.0, s / w[2], s / w[1]]) @ v.T, w


# Nine points whose scatter is exactly diag(1, 1/4, 0): at sigma_i = 3,
# s = 1 and the worst-case normal variance s / lambda2 is exactly 4.
_EXACT_PATCH = np.column_stack([[1, 1, -1, -1, 1, 1, -1, -1, 0], [0.5, -0.5] * 4 + [0], np.zeros(9)])


class TestFitPlane:
    def test_unit_square(self):
        corners = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
        fit = _fit(corners)
        assert fit.outcome.tolist() == [_KEPT]
        np.testing.assert_allclose(_signed_like(fit.normals[0], [0, 0, 1]), [0, 0, 1], atol=1e-12)
        # lambda1 = lambda2 = 1/3: an isotropic tangent covariance 3 s (I - n n^T).
        np.testing.assert_allclose(fit.covs[0], 3 * 0.01**2 / 4 * np.diag([1.0, 1.0, 0.0]), atol=1e-15)

    def test_collinear_flagged(self):
        pts = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]], dtype=float)
        fit = _fit(pts)
        assert fit.outcome.tolist() == [_COLLINEAR]
        assert fit.normals.shape == (0, 3) and fit.covs.shape == (0, 3, 3)

    def test_rejects_flat_array(self):
        with pytest.raises(ValueError, match="neighbors must have shape"):
            fit_planes(np.zeros((4, 3)), 0.01, 0.1)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            _fit(np.array([[0, 0, 0], [1, 0, 0]], dtype=float))

    @pytest.mark.parametrize("sigma_n_max", [0.0, 1e-3])  # unscreened, screened
    def test_empty_stack(self, sigma_n_max):
        # An ICP iteration in which no row needs a new fit still calls fit_planes.
        fits = fit_planes(np.empty((0, 5, 3)), 0.01, sigma_n_max)
        assert fits.outcome.shape == (0,) and fits.normals.shape == (0, 3) and fits.covs.shape == (0, 3, 3)

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
        # An orthonormal frame of descending eigenvectors gives a unit normal
        # and a covariance whose eigenvalues are 0 <= s / lambda1 <= s / lambda2.
        rng = np.random.default_rng(3)
        for _ in range(10):
            pts = _noisy_patch(rng)
            fit, (_, _, w) = _fit(pts), _reference(pts, 0.01)
            s = 0.01**2 / pts.shape[0]
            assert abs(np.linalg.norm(fit.normals[0]) - 1.0) <= 1e-15
            np.testing.assert_allclose(np.linalg.eigvalsh(fit.covs[0]), [0.0, s / w[2], s / w[1]],
                                       rtol=1e-12, atol=1e-12 * s / w[1])


class TestScatterReference:
    """fit_planes against a per-row eigendecomposition of c^T c / (k - 1).
    TestScreen compares two calls that share the scatter assembly; this
    checks the assembly itself."""

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    @pytest.mark.parametrize("k", [3, 5, 20])
    def test_matches_per_row_eigh(self, k, offset):
        rng = np.random.default_rng(34 + k)
        scales = 10.0 ** rng.uniform(-2.0, 0.0, (100, 1, 3))
        rotations = np.stack([random_rotation(rng) for _ in range(100)])
        nb = (rng.standard_normal((100, k, 3)) * scales) @ rotations + offset
        fits = fit_planes(nb, 0.01, np.inf)
        assert (fits.outcome == _KEPT).all()
        for row, pts in enumerate(nb):
            normal, cov, _ = _reference(pts, 0.01)
            assert abs(abs(fits.normals[row] @ normal) - 1.0) <= 1e-10
            assert np.abs(fits.covs[row] - cov).max() <= 1e-10 * np.abs(cov).max()


class TestNormalCovariance:
    def test_symmetric_patch_closed_form(self):
        corners = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
        sigma_i, n_pts = 0.02, 4
        fit = _fit(corners, sigma_i)
        n = fit.normals[0]
        expected = (sigma_i**2 / (n_pts / 3)) * (np.eye(3) - np.outer(n, n))
        np.testing.assert_allclose(fit.covs[0], expected, atol=1e-15)

    def test_zero_sigma(self):
        rng = np.random.default_rng(5)
        fit = _fit(_noisy_patch(rng), 0.0, 0.0)
        np.testing.assert_array_equal(fit.covs, np.zeros((1, 3, 3)))
        assert fit.outcome.tolist() == [_KEPT]  # worst-case variance 0 passes a zero gate

    def test_degenerate_lambda2_rejected(self):
        pts = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]], dtype=float)
        fit = _fit(pts)
        assert fit.outcome.tolist() == [_COLLINEAR]
        assert fit.covs.shape == (0, 3, 3)

    def test_cov_annihilates_normal_and_is_psd(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            fit = _fit(_noisy_patch(rng))
            cov = fit.covs[0]
            np.testing.assert_allclose(cov @ fit.normals[0], np.zeros(3), atol=1e-10)
            np.testing.assert_allclose(cov, cov.T, atol=1e-15)
            assert np.linalg.eigvalsh(cov).min() >= -1e-15

    def test_dual_form_matches_inverse_conjugation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pts = _noisy_patch(rng)
            assert np.linalg.eigvalsh(_empirical_cov(pts))[0] > 0
            sigma_i, n_pts = 0.01, pts.shape[0]
            fit = _fit(pts, sigma_i)
            c_inv = np.linalg.inv(_empirical_cov(pts))
            s = skew(fit.normals[0])
            np.testing.assert_allclose(fit.covs[0], s @ ((sigma_i**2 / n_pts) * c_inv) @ s.T, atol=1e-10)

    def test_sigma_scaling_is_exact(self):
        rng = np.random.default_rng(8)
        pts = _noisy_patch(rng)
        np.testing.assert_array_equal(_cov(pts, 0.02), 4.0 * _cov(pts, 0.01))

    def test_count_scaling_is_exact(self):
        # The exact patch's eight outer points twice and its centre: 17 points
        # with the same scatter, so the covariance scales by 9 / 17.
        doubled = np.concatenate([_EXACT_PATCH[:8], _EXACT_PATCH])
        np.testing.assert_array_equal(_cov(doubled, 3.0), _cov(_EXACT_PATCH, 3.0) * (9 / 17))

    def test_worst_case_matches_largest_eigenvalue(self):
        # The outlier gate compares sigma_n_max^2 with the worst-case
        # variance, which must be the covariance's largest eigenvalue.
        rng = np.random.default_rng(10)
        for _ in range(10):
            pts = _noisy_patch(rng)
            worst_std = np.sqrt(np.linalg.eigvalsh(_cov(pts, 0.015)).max())
            assert _fit(pts, 0.015, worst_std * (1 + 1e-9)).outcome.tolist() == [_KEPT]
            assert _fit(pts, 0.015, worst_std * (1 - 1e-9)).outcome.tolist() == [_OUTLIER]

    def test_fitted_normal_scatter_orientation(self):
        # Monte Carlo oracle: the scatter of refitted normals on an
        # anisotropic patch must match the skew(n)-conjugated covariance,
        # i.e. largest variance along the short in-plane axis.
        rng = np.random.default_rng(12)
        base = np.column_stack(
            [rng.uniform(-1, 1, 40), rng.uniform(-0.15, 0.15, 40), np.zeros(40)]
        )
        sigma = 0.004
        fit0 = _fit(base, sigma)
        n0 = fit0.normals[0]
        predicted = skew(n0) @ fit0.covs[0] @ skew(n0).T
        noisy = base + sigma * rng.standard_normal((3000, 40, 3))
        fits = fit_planes(noisy, sigma, np.inf)
        assert fits.normals.shape == (3000, 3)
        devs = _signed_like(fits.normals, n0) - n0
        empirical = devs.T @ devs / devs.shape[0]
        # In-plane variances match within Monte Carlo tolerance (anisotropy
        # ratio here is ~40x, so an axis swap would fail loudly).
        for v in np.linalg.eigh(_empirical_cov(base))[1][:, 1:].T:
            assert v @ empirical @ v == pytest.approx(v @ predicted @ v, rel=0.25)


class TestOutlier:
    def test_zero_std_never_outlier(self):
        rng = np.random.default_rng(13)
        assert _fit(_noisy_patch(rng), 0.0, 0.05).outcome.tolist() == [_KEPT]

    def test_threshold_exceeded(self):
        # Worst-case std 2 against a gate of 1.
        assert _fit(_EXACT_PATCH, 3.0, 1.0).outcome.tolist() == [_OUTLIER]

    def test_boundary_is_strict(self):
        # Worst-case std exactly 2: kept at a gate of 2, not just below it.
        assert _fit(_EXACT_PATCH, 3.0, 2.0).outcome.tolist() == [_KEPT]
        assert _fit(_EXACT_PATCH, 3.0, np.nextafter(2.0, 0.0)).outcome.tolist() == [_OUTLIER]


# The outlier gate the screen tests run against: lambda2 >= t with
# t = SIGMA_I^2 / k / SIGMA_N_MAX^2.
SIGMA_I, SIGMA_N_MAX = 0.01, 0.1


def _gate(k):
    return SIGMA_I**2 / k / SIGMA_N_MAX**2


def _patch(rng, k, evals):
    """k points whose scatter matrix has the given descending eigenvalues
    (zeros last, at most k - 1 nonzero), in a random frame."""
    rank = int(np.count_nonzero(evals))
    x = np.zeros((k, 3))
    x[:, :rank] = rng.standard_normal((k, rank))
    x -= x.mean(axis=0)
    if rank:
        w, v = np.linalg.eigh(x[:, :rank].T @ x[:, :rank] / (k - 1))
        x[:, :rank] = x[:, :rank] @ v / np.sqrt(w) * np.sqrt(evals[:rank])
    return x @ random_rotation(rng).T


def _stack(rng, k, spectra):
    """One patch per spectrum, given in units of the gate, after a patch that
    fails the gate clearly and one that passes it clearly."""
    lead = [(1e2, 1e-1, 1e-3), (1e2, 1e1, 1e-3)] if k > 3 else [(1e2, 1e-1, 0.0), (1e2, 1e1, 0.0)]
    return np.stack([_patch(rng, k, _gate(k) * np.asarray(e, dtype=float)) for e in lead + spectra])


def _screen_stack(case):
    """A k=5 neighborhood stack for one edge case of the screen."""
    rng, k = np.random.default_rng(31), 5
    if case == "boundary":
        spectra = [(1e1, 1 + 1e-9, 0.0), (1e1, 1 - 1e-9, 0.0), (1e1, 1 + 1e-9, 1e-2), (1e1, 1 - 1e-9, 1e-2)]
    elif case == "collinear":
        spectra = [(1e-2, 0.0, 0.0), (1.0, 0.0, 0.0), (1e4, 0.0, 0.0)]
    elif case == "repeated":
        spectra = [(0.0, 0.0, 0.0)] * 3
    elif case == "isotropic":
        spectra = [(v, v, v) for v in (1e-2, 1 - 1e-9, 1 + 1e-9, 1e2)]
    elif case == "equal-top-pair":
        spectra = [(v, v, w) for v in (1e-1, 1 - 1e-9, 1 + 1e-9, 1e1) for w in (0.0, 1e-3 * v)]
    nb = _stack(rng, k, spectra)
    if case == "collinear":
        line = np.arange(k, dtype=float)[:, None] * [1.0, 2.0, -0.5]
        nb = np.concatenate([nb, line[None], 1e-3 * line[None]])
    elif case == "repeated":
        nb = np.concatenate([nb, np.full((1, k, 3), 1e4 / 3.0)])
    return nb


class TestScreen:
    """fit_planes with its screen must return the very outcomes, normals and
    covariances of a call whose screen leaves every row in."""

    @staticmethod
    def _check(monkeypatch, nb):
        screen, masks = normals._screened_out, []

        def recorded(mom, floor):
            masks.append(screen(mom, floor))
            return masks[-1]

        monkeypatch.setattr(normals, "_screened_out", recorded)
        screened = fit_planes(nb, SIGMA_I, SIGMA_N_MAX)
        keep_every_row(monkeypatch)
        full = fit_planes(nb, SIGMA_I, SIGMA_N_MAX)
        for name in ("outcome", "normals", "covs"):
            assert np.array_equal(getattr(screened, name), getattr(full, name)), name
        # The stack's leading patch fails the gate clearly and is screened out.
        assert masks[0][0]
        return full.outcome, masks[0]

    @pytest.mark.parametrize("case", ["boundary", "collinear", "repeated", "isotropic", "equal-top-pair"])
    def test_edge_cases(self, monkeypatch, case):
        outcome, _ = self._check(monkeypatch, _screen_stack(case))
        if case == "boundary":
            assert outcome[2:].tolist() == [_KEPT, _OUTLIER, _KEPT, _OUTLIER]
        if case in ("collinear", "repeated"):
            assert (outcome[2:] == _COLLINEAR).all()

    def test_outcome_codes(self, monkeypatch):
        # A screened-out, an outlier the screen leaves in, a kept and a
        # collinear row, with the codes registration counts them by.
        rng, k = np.random.default_rng(35), 5
        spectra = [(1e2, 1e-3, 0.0), (1e1, 1 - 1e-9, 0.0), (1e2, 1e1, 0.0)]
        nb = np.stack([_patch(rng, k, _gate(k) * np.asarray(e)) for e in spectra])
        nb = np.concatenate([nb, np.arange(k, dtype=float)[None, :, None] * [1.0, 2.0, -0.5]])
        outcome, screened = self._check(monkeypatch, nb)
        assert outcome.dtype == np.int8 and outcome.tolist() == [2, 2, 3, 1]
        assert screened.tolist() == [True, False, False, False]

    @pytest.mark.parametrize("case", ["boundary", "isotropic", "equal-top-pair"])
    def test_offset_coordinates(self, monkeypatch, case):
        self._check(monkeypatch, _screen_stack(case) + 1e4)

    @pytest.mark.parametrize("k", [3, 20])
    def test_neighborhood_sizes(self, monkeypatch, k):
        spectra = [(1e1, v, 0.0) for v in (1e-2, 1 - 1e-9, 1 + 1e-9, 1e1)]
        if k > 3:
            spectra += [(1e1, v, 1e-1 * v) for v in (1e-2, 1 - 1e-9, 1 + 1e-9)] + [(1.0, 1.0, 1.0)]
        self._check(monkeypatch, _stack(np.random.default_rng(32), k, spectra))


def _bound_spectra(rng, k, count):
    """count descending spectra, in units of the gate, spread over six decades:
    random ones and the cases the lambda2 bounds are least exact on, near-double
    top pairs, lambda3 = 0, isotropic and near-collinear patches, and zero
    scatter. At k = 3 lambda3 is 0."""
    scale = 10.0 ** rng.uniform(-3.0, 3.0, count)
    u = rng.uniform(0.0, 1.0, count)
    spectra = np.zeros((count, 3))
    for i, (s, case) in enumerate(zip(scale, rng.integers(0, 6, count))):
        if case == 0:
            spectra[i] = s * np.sort(10.0 ** rng.uniform(-8.0, 0.0, 3))[::-1]
        elif case == 1:
            spectra[i] = (s, s * (1.0 - 10.0 ** (-12.0 + 9.0 * u[i])), s * 10.0 ** rng.uniform(-6.0, 0.0) * (i % 2))
        elif case == 2:
            spectra[i] = (s, s * 10.0 ** (-8.0 * u[i]), 0.0)
        elif case == 3:
            spectra[i] = s * (1.0 + 1e-9 * rng.standard_normal(3))
        elif case == 4:
            spectra[i] = (s, s * 10.0 ** (-16.0 + 6.0 * u[i]), 0.0)
    if k == 3:
        spectra[:, 2] = 0.0
    return -np.sort(-spectra, axis=1)


class TestScreenBounds:
    """The lambda2 bounds against eigvalsh of the very scatter matrices
    fit_planes would decompose."""

    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e6])
    @pytest.mark.parametrize("k", [3, 5, 10, 30])
    def test_bounds_are_sound(self, k, offset):
        rng = np.random.default_rng([33, k, int(offset)])
        nb = np.stack([_patch(rng, k, _gate(k) * e) for e in _bound_spectra(rng, k, 600)]) + offset
        centered = nb - nb.mean(axis=1, keepdims=True)
        covs = np.einsum("mki,mkj->mij", centered, centered) / (k - 1)
        mom = covs[:, [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]].T
        lam = np.clip(np.linalg.eigvalsh(covs)[:, ::-1], 0.0, None)
        collinear = lam[:, 1] <= _COLLINEAR_RATIO * lam[:, 0]

        t, lo, hi = _lambda2_bounds(mom)
        live = t > 0.0
        assert (~live).sum() > 0 and np.isnan(lo[~live]).all() and np.isnan(hi[~live]).all()
        # Rounding may put hi below or lo above the true lambda2, by far less
        # than the screen's margin.
        assert np.all(lam[live, 1] - hi[live] < _SCREEN_TOL / 10 * t[live])
        assert np.all(lo[live] - lam[live, 1] < _SCREEN_TOL / 10 * t[live])

        for gate in _gate(k) * np.array([1e-3, 1.0, 1e3]):
            screened = _screened_out(mom, gate)
            assert screened.any() and not screened[~live].any()
            assert np.all(lam[screened, 1] < gate) and not collinear[screened].any()
