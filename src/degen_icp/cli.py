"""Command-line front end: scene simulation, degeneracy reports,
registration runs, Monte Carlo oracle checks, and parameter sweeps.

All commands are deterministic given (config, seed). Derived streams: the
scene generator uses the seed itself, noise injection uses seed + 1, random
test directions use seed + 2. Machine outputs are JSON lines or CSV with '.'
decimals; clouds are ASCII PLY or CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import cloud_io
from .degeneracy import accumulate_arrays, analyze, direction_stats
from .errors import ConfigError, DegenIcpError, NoCorrespondences
from .geometry import Pose
from .registration import (
    ConditionNumber,
    EigenTruncate,
    IcpConfig,
    Probabilistic,
    SolutionRemap,
    SolverMethod,
    Standard,
    extract_features,
    icp,
)
from .simulation import (
    NoiseSpec,
    SceneKind,
    SceneSpec,
    generate_scene,
    mc_direction_stats,
    noisy_feature_arrays,
)

_SCHEMA_VERSION = 1
_METHOD_NAMES = ("standard", "probabilistic", "eigen-truncate", "solution-remap", "cond-number")
_SCENE_KINDS = tuple(k.value for k in SceneKind)


@dataclass
class RunConfig:
    """Resolved run parameters: defaults, then config file, then flags."""

    seed: int = 0
    method: str = "probabilistic"
    s: float = 10.0
    lambda_min: float = 0.1
    kappa_max: float = 1e4
    sigma_p: float = 0.01
    sigma_i: float = 0.01
    sigma_n: float = 0.01
    sigma_n_max: float = 0.10
    sigma_r: float = 0.015
    k_neighbors: int = 5
    max_iterations: int = 30
    translation_tol: float = 1e-4
    rotation_tol: float = 1e-4
    max_correspondence_distance: float = 1.0
    scene_kind: str = "room"
    scene_dimensions: dict[str, float] = field(default_factory=dict)
    point_count: int = 2000

    def validate(self) -> None:
        if self.method not in _METHOD_NAMES:
            raise ConfigError(f"unknown method {self.method!r}; choose from {_METHOD_NAMES}")
        if self.scene_kind not in _SCENE_KINDS:
            raise ConfigError(f"unknown scene kind {self.scene_kind!r}; choose from {_SCENE_KINDS}")
        positive = ["s", "lambda_min", "kappa_max", "sigma_n_max", "sigma_r",
                    "max_correspondence_distance", "translation_tol", "rotation_tol"]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        nonnegative = ["sigma_p", "sigma_i", "sigma_n"]
        for name in nonnegative:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.k_neighbors < 3:
            raise ConfigError(f"k_neighbors must be >= 3, got {self.k_neighbors}")
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.point_count < 6:
            raise ConfigError(f"point_count must be >= 6, got {self.point_count}")

    def solver_method(self) -> SolverMethod:
        if self.method == "standard":
            return Standard()
        if self.method == "probabilistic":
            return Probabilistic(self.s)
        if self.method == "eigen-truncate":
            return EigenTruncate(self.lambda_min)
        if self.method == "solution-remap":
            return SolutionRemap(self.lambda_min)
        return ConditionNumber(self.kappa_max)

    def icp_config(self) -> IcpConfig:
        return IcpConfig(
            method=self.solver_method(),
            sigma_p=self.sigma_p,
            sigma_i=self.sigma_i,
            sigma_n_max=self.sigma_n_max,
            sigma_r=self.sigma_r,
            k_neighbors=self.k_neighbors,
            max_iterations=self.max_iterations,
            translation_tol=self.translation_tol,
            rotation_tol=self.rotation_tol,
            max_correspondence_distance=self.max_correspondence_distance,
        )

    def scene_spec(self) -> SceneSpec:
        return SceneSpec(
            kind=SceneKind(self.scene_kind),
            dimensions=self.scene_dimensions or None,
            point_count=self.point_count,
            seed=self.seed,
        )


_CONFIG_GROUPS: dict[str, dict[str, str]] = {
    "method": {"name": "method", "s": "s", "lambda_min": "lambda_min", "kappa_max": "kappa_max"},
    "sensor": {"sigma_p": "sigma_p", "sigma_i": "sigma_i", "sigma_n_max": "sigma_n_max", "sigma_r": "sigma_r"},
    "icp": {
        "k_neighbors": "k_neighbors",
        "max_iterations": "max_iterations",
        "translation_tol": "translation_tol",
        "rotation_tol": "rotation_tol",
        "max_correspondence_distance": "max_correspondence_distance",
    },
    "scene": {"kind": "scene_kind", "dimensions": "scene_dimensions", "point_count": "point_count"},
    "noise": {"sigma_n": "sigma_n"},
}


def _load_config_file(path: Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    body = dict(raw)
    version = body.pop("version", None)
    if version != _SCHEMA_VERSION:
        raise ConfigError(f"config {path}: unsupported version {version!r} (expected {_SCHEMA_VERSION})")
    overrides: dict = {}
    if "seed" in body:
        overrides["seed"] = body.pop("seed")
    for group_name, mapping in _CONFIG_GROUPS.items():
        group = body.pop(group_name, {})
        if not isinstance(group, dict):
            raise ConfigError(f"config {path}: {group_name!r} must be an object")
        for key, value in group.items():
            if key not in mapping:
                raise ConfigError(f"config {path}: unknown key {group_name}.{key}")
            overrides[mapping[key]] = value
    if body:
        raise ConfigError(f"config {path}: unknown keys {sorted(body)}")
    return overrides


_FLAG_FIELDS = {
    "seed": "seed",
    "method": "method",
    "s": "s",
    "lambda_min": "lambda_min",
    "kappa_max": "kappa_max",
    "sigma_p": "sigma_p",
    "sigma_i": "sigma_i",
    "sigma_n": "sigma_n",
    "sigma_n_max": "sigma_n_max",
    "sigma_r": "sigma_r",
    "k_neighbors": "k_neighbors",
    "max_iterations": "max_iterations",
    "max_correspondence_distance": "max_correspondence_distance",
    "kind": "scene_kind",
    "points": "point_count",
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    overrides: dict = {}
    if getattr(args, "config", None):
        overrides.update(_load_config_file(args.config))
    for flag, dest in _FLAG_FIELDS.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[dest] = value
    dims = getattr(args, "dim", None)
    if dims:
        parsed: dict[str, float] = {}
        for item in dims:
            if "=" not in item:
                raise ConfigError(f"--dim expects key=value, got {item!r}")
            key, _, value = item.partition("=")
            try:
                parsed[key.strip()] = float(value)
            except ValueError:
                raise ConfigError(f"--dim {item!r}: value is not a number") from None
        overrides["scene_dimensions"] = parsed

    valid = {f.name for f in fields(RunConfig)}
    for key, value in overrides.items():
        if key not in valid:
            raise ConfigError(f"unknown config field {key!r}")
        setattr(cfg, key, value)
    cfg.scene_dimensions = {str(k): float(v) for k, v in (cfg.scene_dimensions or {}).items()}
    cfg.validate()
    return cfg


def _out_dir(args: argparse.Namespace) -> Path:
    out = getattr(args, "out", None) or Path(".")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _report_record(index: int, report) -> dict:
    return {
        "index": index,
        "eigenvalue": report.signal,
        "noise_mean": report.noise_mean,
        "noise_std": report.noise_std,
        "probability": report.probability,
        "direction": [float(v) for v in report.direction],
    }


def _print_report_table(reports) -> None:
    print(f"{'dir':>3}  {'eigenvalue':>12}  {'noise_mean':>12}  {'noise_std':>12}  {'probability':>11}")
    for k, r in enumerate(reports, start=1):
        print(
            f"{k:>3}  {r.signal:>12.5g}  {r.noise_mean:>12.5g}  {r.noise_std:>12.5g}  {r.probability:>11.6f}"
        )


def _scene_manifest(cfg: RunConfig, sample, noise: NoiseSpec, files: dict[str, str]) -> dict:
    spec = cfg.scene_spec()
    manifest = {
        "version": _SCHEMA_VERSION,
        "kind": spec.kind.value,
        "dimensions": spec.resolved_dimensions(),
        "point_count": spec.point_count,
        "seed": spec.seed,
        "noise": {"sigma_p": noise.sigma_p, "sigma_n": noise.sigma_n, "seed": noise.seed},
        "sensor_origin": [float(v) for v in sample.sensor_origin],
        "null_basis": [[float(v) for v in row] for row in sample.null_basis],
        "files": files,
    }
    planes = sample.true_planes
    if len(planes) <= 32:
        manifest["true_planes"] = [
            {"normal": [float(v) for v in n], "offset": d} for n, d in planes
        ]
    else:
        manifest["distinct_plane_count"] = len(planes)
    return manifest


def cmd_simulate(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = _out_dir(args)
    sample = generate_scene(cfg.scene_spec())
    noise = NoiseSpec(cfg.sigma_p, cfg.sigma_n, cfg.seed + 1)
    noisy_points, noisy_normals, _, _, _, _ = noisy_feature_arrays(sample, noise)

    fmt = getattr(args, "format", None) or "ply"
    writer = cloud_io.write_ply if fmt == "ply" else cloud_io.write_csv
    files = {"clean": f"clean.{fmt}", "noisy": f"noisy.{fmt}", "manifest": "manifest.json"}
    writer(out / files["clean"], sample.points, sample.normals)
    writer(out / files["noisy"], noisy_points, noisy_normals)
    cloud_io.write_json(out / files["manifest"], _scene_manifest(cfg, sample, noise, files))
    print(
        f"simulate: wrote {sample.points.shape[0]} points ({cfg.scene_kind}) to {out} "
        f"[null directions: {sample.null_basis.shape[0]}]"
    )
    return 0


def _detect_reports(args: argparse.Namespace, cfg: RunConfig):
    cloud = getattr(args, "cloud", None)
    if cloud is not None:
        points, _ = cloud_io.load_cloud(cloud)
    else:
        sample = generate_scene(cfg.scene_spec())
        rng = np.random.default_rng(cfg.seed + 1)
        points = sample.points + cfg.sigma_p * rng.standard_normal(sample.points.shape)
    bundle, stats = extract_features(points, points, Pose.identity(), cfg.icp_config())
    return analyze(bundle, cfg.s), stats


def cmd_detect(args: argparse.Namespace, cfg: RunConfig) -> int:
    reports, stats = _detect_reports(args, cfg)
    _print_report_table(reports)
    print(
        f"features: used {stats.used}/{stats.candidates} "
        f"(distance {stats.rejected_distance}, collinear {stats.rejected_collinear}, "
        f"outlier {stats.rejected_outlier})"
    )
    if getattr(args, "out", None):
        out = _out_dir(args)
        cloud_io.write_jsonl(out / "detect.jsonl", [_report_record(k, r) for k, r in enumerate(reports)])
    return 0


def cmd_register(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = _out_dir(args)
    source, _ = cloud_io.load_cloud(args.source)
    target, _ = cloud_io.load_cloud(args.target)
    init = Pose.from_matrix(cloud_io.read_pose(args.init)) if args.init else Pose.identity()

    result = icp(source, target, init, cfg.icp_config())

    cloud_io.write_pose(out / "pose.txt", result.pose.matrix())
    cloud_io.write_matrix(out / "information.txt", result.information)
    records = []
    for i, rec in enumerate(result.iterations, start=1):
        records.append(
            {
                "iteration": i,
                "twist": [float(v) for v in rec.update.twist.vector()],
                "attenuation": [float(v) for v in rec.update.probabilities],
                "eigenvalues": [r.signal for r in rec.update.reports],
                "probabilities": [r.probability for r in rec.update.reports],
                "step_rot": rec.step_rot,
                "step_trans": rec.step_trans,
                "used": rec.stats.used,
                "rejected_distance": rec.stats.rejected_distance,
                "rejected_collinear": rec.stats.rejected_collinear,
                "rejected_outlier": rec.stats.rejected_outlier,
                "residual_rms": rec.stats.residual_rms,
            }
        )
    cloud_io.write_jsonl(out / "iterations.jsonl", records)
    cloud_io.write_json(
        out / "summary.json",
        {
            "converged": result.converged,
            "termination": result.termination,
            "iterations": len(result.iterations),
            "method": cfg.method,
        },
    )
    print(
        f"register: {result.termination} after {len(result.iterations)} iterations "
        f"(converged={result.converged}); outputs in {out}"
    )
    return 0


def cmd_oracle(args: argparse.Namespace, cfg: RunConfig) -> int:
    sample = generate_scene(cfg.scene_spec())
    noise = NoiseSpec(cfg.sigma_p, cfg.sigma_n, cfg.seed + 1)
    weights = np.ones(sample.points.shape[0])
    bundle = accumulate_arrays(
        sample.points,
        sample.normals,
        sample.offsets,
        weights,
        cfg.sigma_p**2 * np.eye(3),
        cfg.sigma_n**2
        * (np.eye(3) - np.einsum("ni,nj->nij", sample.normals, sample.normals)),
    )

    rng = np.random.default_rng(cfg.seed + 2)
    directions = rng.standard_normal((6, args.directions))
    directions /= np.linalg.norm(directions, axis=0, keepdims=True)
    mc_means, mc_vars = mc_direction_stats(
        sample.points, sample.normals, weights, noise=noise, directions=directions, trials=args.trials
    )

    all_ok = True
    records = []
    print(f"{'dir':>3}  {'analytic_mean':>14}  {'mc_mean':>14}  {'analytic_var':>14}  {'mc_var':>14}  ok")
    for d in range(args.directions):
        u = directions[:, d]
        mu, sigma2 = direction_stats(bundle, u)
        signal = float(u @ bundle.hessian @ u)
        a_mean = signal + mu
        se = float(np.sqrt(mc_vars[d] / args.trials))
        mean_ok = abs(a_mean - mc_means[d]) <= args.mean_sigmas * se + 1e-15
        var_ok = abs(sigma2 - mc_vars[d]) <= args.var_rtol * mc_vars[d] + 1e-15
        ok = mean_ok and var_ok
        all_ok &= ok
        print(
            f"{d + 1:>3}  {a_mean:>14.6g}  {mc_means[d]:>14.6g}  "
            f"{sigma2:>14.6g}  {mc_vars[d]:>14.6g}  {'yes' if ok else 'NO'}"
        )
        records.append(
            {
                "direction": [float(v) for v in u],
                "analytic_mean": a_mean,
                "mc_mean": float(mc_means[d]),
                "analytic_variance": sigma2,
                "mc_variance": float(mc_vars[d]),
                "mean_ok": bool(mean_ok),
                "variance_ok": bool(var_ok),
            }
        )
    if getattr(args, "out", None):
        cloud_io.write_jsonl(_out_dir(args) / "oracle.jsonl", records)
    print(f"oracle: {'all checks passed' if all_ok else 'TOLERANCE EXCEEDED'}")
    return 0 if all_ok else 1


def _parse_values(text: str) -> list[float]:
    items = [v.strip() for v in text.split(",") if v.strip()]
    try:
        return [float(v) for v in items]
    except ValueError:
        raise ConfigError(f"--values must be comma-separated numbers, got {text!r}") from None


def cmd_sweep(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = Path(getattr(args, "out", None) or ".")
    if out.suffix.lower() == ".csv":
        out.parent.mkdir(parents=True, exist_ok=True)
        csv_path = out
    else:
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "sweep.csv"

    values = sorted(_parse_values(args.values))
    lines = ["value,direction,eigenvalue,probability"]
    violation = False
    if values:
        sample = generate_scene(cfg.scene_spec())
        base = noisy_feature_arrays(sample, NoiseSpec(cfg.sigma_p, cfg.sigma_n, cfg.seed + 1))
        points, normals, offsets, weights, point_cov, normal_covs = base
        unit = normals / np.linalg.norm(normals, axis=1, keepdims=True)
        tangent = np.eye(3) - np.einsum("ni,nj->nij", unit, unit)

        prev = None
        for value in values:
            if args.parameter == "s":
                bundle = accumulate_arrays(points, normals, offsets, weights, point_cov, normal_covs)
                reports = analyze(bundle, value)
            elif args.parameter == "sigma-n":
                bundle = accumulate_arrays(points, normals, offsets, weights, point_cov, value**2 * tangent)
                reports = analyze(bundle, cfg.s)
            else:  # sigma-p
                bundle = accumulate_arrays(points, normals, offsets, weights, value**2 * np.eye(3), normal_covs)
                reports = analyze(bundle, cfg.s)
            probs = [r.probability for r in reports]
            for k, r in enumerate(reports):
                lines.append(f"{value:.10g},{k},{r.signal:.10g},{r.probability:.10g}")
            if args.parameter == "s" and prev is not None:
                if any(p_now > p_prev + 1e-12 for p_now, p_prev in zip(probs, prev)):
                    violation = True
            prev = probs

    csv_path.write_text("\n".join(lines) + "\n")
    if args.parameter == "s":
        print(f"sweep: monotonicity in s {'VIOLATED' if violation else 'ok'}; wrote {csv_path}")
    else:
        print(f"sweep: wrote {csv_path}")
    return 1 if violation else 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON config file (version 1 schema)")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--method", choices=_METHOD_NAMES, help="update rule")
    parser.add_argument("--s", type=float, help="signal-to-noise target for the probabilistic method")
    parser.add_argument("--lambda-min", type=float, dest="lambda_min", help="eigenvalue threshold")
    parser.add_argument("--kappa-max", type=float, dest="kappa_max", help="condition-number threshold")
    parser.add_argument("--sigma-p", type=float, dest="sigma_p", help="point noise std (m)")
    parser.add_argument("--sigma-i", type=float, dest="sigma_i", help="neighbor noise std for normal fits (m)")
    parser.add_argument("--sigma-n", type=float, dest="sigma_n", help="injected normal noise std")
    parser.add_argument("--sigma-n-max", type=float, dest="sigma_n_max", help="normal outlier threshold")
    parser.add_argument("--sigma-r", type=float, dest="sigma_r", help="residual std for information scaling (m)")
    parser.add_argument("--k-neighbors", type=int, dest="k_neighbors", help="neighbors per plane fit")
    parser.add_argument("--max-iterations", type=int, dest="max_iterations")
    parser.add_argument(
        "--max-correspondence-distance", type=float, dest="max_correspondence_distance"
    )
    parser.add_argument("--out", type=Path, help="output directory (or .csv path for sweep)")


def _add_scene_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", choices=_SCENE_KINDS, help="scene kind")
    parser.add_argument("--dim", action="append", metavar="KEY=VALUE", help="scene dimension override")
    parser.add_argument("--points", type=int, help="number of sampled points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degen-icp",
        description="Degeneracy-aware point-to-plane registration toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scene and noisy cloud")
    _add_common_flags(p)
    _add_scene_flags(p)
    p.add_argument("--format", choices=("ply", "csv"), help="cloud format (default ply)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect", help="degeneracy report for a scene or cloud")
    _add_common_flags(p)
    _add_scene_flags(p)
    p.add_argument("--cloud", type=Path, help="analyze this cloud instead of a generated scene")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("register", help="register a source cloud onto a target cloud")
    _add_common_flags(p)
    p.add_argument("--source", type=Path, required=True)
    p.add_argument("--target", type=Path, required=True)
    p.add_argument("--init", type=Path, help="initial pose file (16 numbers, row-major)")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("oracle", help="analytic vs Monte Carlo noise statistics")
    _add_common_flags(p)
    _add_scene_flags(p)
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--directions", type=int, default=4)
    p.add_argument("--mean-sigmas", type=float, default=3.0, dest="mean_sigmas")
    p.add_argument("--var-rtol", type=float, default=0.1, dest="var_rtol")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="probability curves over a parameter range")
    _add_common_flags(p)
    _add_scene_flags(p)
    p.add_argument("--parameter", choices=("s", "sigma-n", "sigma-p"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values (empty for header-only CSV)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return int(args.func(args, cfg))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoCorrespondences as exc:
        print(f"error: no correspondences: {exc}", file=sys.stderr)
        return 1
    except DegenIcpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
