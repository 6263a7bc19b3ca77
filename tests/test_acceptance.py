"""Acceptance gate: one test per release criterion, each at its contractual
tolerance, printing one pass line per criterion (visible with pytest -s / -v).

Run with: pytest tests/test_acceptance.py -v
"""

import time

import numpy as np
import pytest
from conftest import rotation_angle

from degen_icp import (
    IcpConfig,
    NoiseSpec,
    Pose,
    Probabilistic,
    SceneKind,
    SceneSpec,
    Standard,
    accumulate_arrays,
    analyze,
    attenuated_update,
    direction_stats,
    exp_se3,
    exp_so3,
    extract_features,
    fit_planes,
    frame_change_matrix,
    gaussian_cdf,
    degeneracy_probability,
    generate_scene,
    icp,
    mc_direction_stats,
    normal_covariances,
    skew,
    solve_update,
    spurious_info_demo,
)


def _pass(message):
    print(f"\n[PASS] {message}")


def _random_feature_set(rng, count, sigma_p, sigma_n):
    """Random features plus the matching analytic covariances."""
    points = rng.uniform(-2.0, 2.0, (count, 3))
    normals = rng.standard_normal((count, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = np.einsum("ni,ni->n", normals, points)
    weights = rng.uniform(0.5, 2.0, count)
    point_cov = sigma_p**2 * np.eye(3)
    normal_covs = sigma_n**2 * (np.eye(3) - np.einsum("ni,nj->nij", normals, normals))
    bundle = accumulate_arrays(points, normals, offsets, weights, point_cov, normal_covs)
    return (points, normals, weights), bundle


def test_criterion_01_monte_carlo_oracle_agreement():
    """Analytic direction statistics vs brute-force noise sampling:
    mean within 3 Monte Carlo standard errors, variance within 10%,
    over 20 random 100-feature sets x 10 directions at 1e5 trials."""
    sigma = 0.01
    trials = 100_000
    master = np.random.default_rng(20240901)
    worst_mean_z, worst_var_rel = 0.0, 0.0
    start = time.perf_counter()
    for idx in range(20):
        seed = int(master.integers(0, 2**63 - 1))
        rng = np.random.default_rng(seed)
        (points, normals, weights), bundle = _random_feature_set(rng, 100, sigma, sigma)
        directions = rng.standard_normal((6, 10))
        directions /= np.linalg.norm(directions, axis=0, keepdims=True)
        mc_mean, mc_var = mc_direction_stats(
            points, normals, weights, NoiseSpec(sigma, sigma, seed + 1), directions, trials
        )
        for d in range(10):
            u = directions[:, d]
            mu, sigma2 = direction_stats(bundle, u)
            analytic_mean = float(u @ bundle.hessian @ u) + mu
            se = float(np.sqrt(mc_var[d] / trials))
            z = abs(analytic_mean - mc_mean[d]) / se
            var_rel = abs(sigma2 - mc_var[d]) / mc_var[d]
            worst_mean_z = max(worst_mean_z, z)
            worst_var_rel = max(worst_var_rel, var_rel)
            assert z <= 3.0, f"set {idx} dir {d}: mean off by {z:.2f} standard errors"
            assert var_rel <= 0.10, f"set {idx} dir {d}: variance off by {var_rel:.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    _pass(
        f"criterion 1: oracle agreement over 200 direction checks "
        f"(worst mean z={worst_mean_z:.2f} sigma, worst var rel={worst_var_rel:.3f}, {elapsed:.0f}s)"
    )


def test_criterion_02_expected_hessian_inflation():
    """mean(H_hat) equals H + H_N within 5% of ||H_N|| on the plane scene,
    sigma_n = 0.01, sigma_p = 0, 1e4 trials."""
    sample = generate_scene(SceneSpec(SceneKind.INFINITE_PLANE, point_count=2000, seed=41))
    report = spurious_info_demo(sample, sigma_n=0.01, trials=10_000, solve_trials=128, seed=42)
    assert report.hessian_mean_rel_error < 0.05
    ratios = report.standard_null_mean_abs / np.maximum(report.probabilistic_null_mean_abs, 1e-300)
    assert (ratios >= 10.0).all()
    _pass(
        f"criterion 2: expectation identity rel error {report.hessian_mean_rel_error:.4f} < 0.05; "
        f"null-direction attenuation ratios {np.array2string(ratios, precision=1)}"
    )


def test_criterion_03_degeneracy_classification():
    """Datasheet parameters (sigma_p = sigma_i = 1 cm, s = 10): the detector
    flags exactly the analytic null directions of each scene."""
    cases = [
        (SceneKind.INFINITE_PLANE, 2000, 3, True),
        (SceneKind.CORRIDOR, 1500, 1, False),
        # Tank-sized cylinder wall; sampled densely enough that curvature-
        # induced normal error stays below the modeled sensor noise.
        (SceneKind.CYLINDER, 4000, 2, False),
        (SceneKind.ROOM, 2000, 0, False),
    ]
    start = time.perf_counter()
    config = IcpConfig(sigma_p=0.01, sigma_i=0.01)
    summary = []
    for kind, count, expected_low, check_high in cases:
        sample = generate_scene(SceneSpec(kind, point_count=count, seed=51))
        rng = np.random.default_rng(52)
        noisy = sample.points + config.sigma_p * rng.standard_normal(sample.points.shape)
        bundle, _ = extract_features(noisy, noisy, Pose.identity(), config)
        reports = analyze(bundle, 10.0)
        probs = np.array([r.probability for r in reports])
        low = probs < 0.01
        assert low.sum() == expected_low, f"{kind.value}: {probs}"
        if kind is SceneKind.ROOM:
            assert (probs > 0.99).all(), f"{kind.value}: {probs}"
        if check_high:
            assert (probs[~low] > 0.99).all(), f"{kind.value}: {probs}"
        for r, flagged in zip(reports, low):
            if flagged:
                assert np.linalg.norm(sample.null_basis @ r.direction) > 0.9
        summary.append(f"{kind.value}:{int(low.sum())}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(f"criterion 3: degenerate-direction counts {{{', '.join(summary)}}} in {elapsed:.1f}s")


def test_criterion_04_room_registration_recovery():
    """Room scene, 2000 points, 1 cm point noise, init offset
    (0.1, 0.1, 0.05) m and 2 deg yaw: both solvers recover the pose to
    5 mm / 0.1 deg within 30 iterations and agree closely."""
    target = generate_scene(SceneSpec(SceneKind.ROOM, point_count=2000, seed=61))
    source_scene = generate_scene(SceneSpec(SceneKind.ROOM, point_count=2000, seed=62))
    rng = np.random.default_rng(63)
    source = source_scene.points + 0.01 * rng.standard_normal(source_scene.points.shape)
    init = Pose(exp_so3([0.0, 0.0, np.deg2rad(2.0)]), [0.1, 0.1, 0.05])

    results = {}
    for method in (Standard(), Probabilistic(10.0)):
        res = icp(source, target.points, init, IcpConfig(method=method, sigma_p=0.01, sigma_i=0.01))
        terr = float(np.linalg.norm(res.pose.translation))
        rerr = float(np.degrees(rotation_angle(res.pose.rotation)))
        assert len(res.iterations) <= 30
        assert terr < 0.005, f"{type(method).__name__}: {terr * 1e3:.2f} mm"
        assert rerr < 0.1, f"{type(method).__name__}: {rerr:.3f} deg"
        results[type(method).__name__] = res

    final_probs = [r.probability for r in results["Probabilistic"].iterations[-1].update.reports]
    if min(final_probs) > 0.99:
        a, b = results["Standard"].pose, results["Probabilistic"].pose
        dt = float(np.linalg.norm(a.translation - b.translation))
        dr = float(np.degrees(rotation_angle(a.rotation.T @ b.rotation)))
        assert dt < 0.001 and dr < 0.02
    terrs = {k: np.linalg.norm(v.pose.translation) * 1e3 for k, v in results.items()}
    _pass(
        "criterion 4: room recovery "
        + ", ".join(f"{k} {v:.2f} mm" for k, v in terrs.items())
        + f", min final p {min(final_probs):.4f}"
    )


def test_criterion_05_longitudinal_attenuation_per_update():
    """Corridor with a 0.2 m longitudinal init error: per update the
    probabilistic solve moves longitudinally by < 1e-3 m, the ridge-standard
    solve by at least 10x more on average over 50 seeds."""
    init = Pose(np.eye(3), [0.2, 0.0, 0.0])
    config = IcpConfig(sigma_p=0.01, sigma_i=0.01)
    prob_moves, std_moves = [], []
    for seed in range(50):
        target = generate_scene(SceneSpec(SceneKind.CORRIDOR, point_count=1500, seed=1000 + seed))
        source_scene = generate_scene(SceneSpec(SceneKind.CORRIDOR, point_count=1500, seed=2000 + seed))
        rng = np.random.default_rng(3000 + seed)
        source = source_scene.points + 0.01 * rng.standard_normal(source_scene.points.shape)
        bundle, _ = extract_features(source, target.points, init, config)

        x_prob = solve_update(bundle, Probabilistic(10.0)).twist
        x_std = np.linalg.solve(bundle.hessian + 1e-9 * np.eye(6), bundle.rhs)

        def moved(x):
            from degen_icp import compose

            return abs(compose(init, exp_se3(x)).translation[0] - init.translation[0])

        prob_moves.append(moved(x_prob))
        std_moves.append(moved(x_std))
    prob_moves, std_moves = np.array(prob_moves), np.array(std_moves)
    assert (prob_moves < 1e-3).all()
    assert std_moves.mean() >= 10.0 * prob_moves.mean()
    _pass(
        f"criterion 5: longitudinal move per update, probabilistic max {prob_moves.max():.2e} m, "
        f"standard mean {std_moves.mean():.2e} m (ratio {std_moves.mean() / prob_moves.mean():.0f}x)"
    )


def test_criterion_06_attenuated_update_equals_regularized_least_squares():
    """The gated eigen-update coincides with the directly solved
    inflated-covariance plus zero-prior system to 1e-9 relative, over 100
    random positive-definite bundles."""
    rng = np.random.default_rng(71)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(8, 40))
        jac = rng.standard_normal((n, 6))
        b = rng.standard_normal(n)
        hessian = jac.T @ jac
        rhs = jac.T @ b
        probs = rng.uniform(0.05, 0.95, 6)

        x_fast = attenuated_update(hessian, rhs, probs)

        # Independent oracle: build the weighted data term and the
        # complementary zero-prior explicitly from the SVD.
        u_svd, s_svd, vt = np.linalg.svd(jac, full_matrices=True)
        w_half = u_svd @ np.diag(np.concatenate([np.sqrt(probs), np.ones(n - 6)])) @ u_svd.T
        a_data = w_half @ jac
        reg = np.diag(np.sqrt(1.0 - probs)) @ np.diag(s_svd) @ vt
        x_direct = np.linalg.solve(a_data.T @ a_data + reg.T @ reg, a_data.T @ (w_half @ b))

        rel = np.linalg.norm(x_fast - x_direct) / np.linalg.norm(x_direct)
        worst = max(worst, rel)
        assert rel <= 1e-9
    _pass(f"criterion 6: update vs regularized least squares, worst relative error {worst:.2e}")


def test_criterion_07_normal_covariance_dual_form():
    """Eigen form and skew-conjugated inverse form of the normal covariance
    agree to 1e-10 on 100 random full-rank patches."""
    rng = np.random.default_rng(81)
    worst = 0.0
    for _ in range(100):
        count = int(rng.integers(8, 30))
        pts = np.column_stack(
            [rng.uniform(-1, 1, count), rng.uniform(-0.5, 0.5, count), np.zeros(count)]
        )
        pts[:, 2] = 0.2 * pts[:, 0] - 0.1 * pts[:, 1] + 0.02 * rng.standard_normal(count)
        pts += 0.02 * rng.standard_normal((count, 3))
        batch = fit_planes(pts[None])
        assert batch.eigenvalues[0, 2] > 0
        sigma_i = 0.01
        _, covs = normal_covariances(batch, sigma_i, count, np.inf)
        normal = batch.normals[0]
        centered = pts - pts.mean(axis=0)
        emp_cov = centered.T @ centered / (count - 1)
        dual = skew(normal) @ ((sigma_i**2 / count) * np.linalg.inv(emp_cov)) @ skew(normal).T
        err = float(np.abs(covs[0] - dual).max())
        worst = max(worst, err)
        assert err <= 1e-10
    _pass(f"criterion 7: dual-form agreement, worst entry difference {worst:.2e}")


def test_criterion_08_probability_function_checks():
    """CDF anchors and monotonicity of the degeneracy probability."""
    assert gaussian_cdf(0.0) == 0.5
    assert abs(gaussian_cdf(1.959964) - 0.975) <= 1e-6

    signals = np.linspace(0.0, 50.0, 100)
    ps = [degeneracy_probability(a, 2.0, 0.7, 10.0) for a in signals]
    assert all(b >= a for a, b in zip(ps, ps[1:]))

    targets = np.linspace(0.5, 80.0, 100)
    qs = [degeneracy_probability(30.0, 2.0, 0.7, s) for s in targets]
    assert all(b <= a for a, b in zip(qs, qs[1:]))
    _pass("criterion 8: CDF anchors exact and probability monotone in signal and target ratio")


def test_criterion_09_linear_analysis_cost():
    """analyze() runtime grows linearly: log-log slope in [0.8, 1.2] over
    N in {1e3, 1e4, 1e5}."""
    rng = np.random.default_rng(91)
    sizes = [1_000, 10_000, 100_000]
    times = []
    for n in sizes:
        _, bundle = _random_feature_set(rng, n, 0.01, 0.01)
        analyze(bundle, 10.0)  # warm-up
        best = min(
            (lambda t0: (analyze(bundle, 10.0), time.perf_counter() - t0)[1])(time.perf_counter())
            for _ in range(7)
        )
        times.append(best)
    slope = float(np.polyfit(np.log10(sizes), np.log10(times), 1)[0])
    assert 0.8 <= slope <= 1.2, f"slope {slope:.2f}, times {times}"
    _pass(f"criterion 9: analysis cost slope {slope:.2f} over N=1e3..1e5")


def test_criterion_10_frame_change_conjugates_hessian():
    """Moving all features by a random pose conjugates the noise-free
    Hessian by the frame-change matrix to 1e-9 relative."""
    rng = np.random.default_rng(95)
    worst = 0.0
    for _ in range(20):
        count = 200
        points = rng.uniform(-3, 3, (count, 3))
        normals = rng.standard_normal((count, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        offsets = np.einsum("ni,ni->n", normals, points)
        weights = rng.uniform(0.5, 2.0, count)
        zero = np.zeros((3, 3))
        bundle = accumulate_arrays(points, normals, offsets, weights, zero, zero)

        pose = Pose(exp_so3(rng.uniform(-2, 2, 3)), rng.uniform(-2, 2, 3))
        moved_points = pose.apply(points)
        moved_normals = normals @ pose.rotation.T
        moved_offsets = np.einsum("ni,ni->n", moved_normals, moved_points)
        moved = accumulate_arrays(moved_points, moved_normals, moved_offsets, weights, zero, zero)

        m = frame_change_matrix(pose)
        expected = m @ bundle.hessian @ m.T
        rel = np.linalg.norm(moved.hessian - expected) / np.linalg.norm(expected)
        worst = max(worst, rel)
        assert rel <= 1e-9
    _pass(f"criterion 10: frame-change conjugation, worst relative error {worst:.2e}")
