"""Command-line front end: scene simulation, degeneracy reports,
registration runs, Monte Carlo oracle checks, and parameter sweeps.

All commands are deterministic given (config, seed). Derived streams: the
scene generator uses the seed itself, noise injection uses seed + 1, random
test directions use seed + 2. Machine outputs are JSON lines or CSV with '.'
decimals; clouds are ASCII PLY or CSV.

The argparse namespace is the resolved configuration. Each command registers
only the flags it reads, with their defaults. A --config file becomes the
command's defaults, so a flag wins over the file and the file over the
default; file keys the command does not read are ignored, and a --dim flag
overrides only its own key of the file's scene.dimensions. Abbreviated flags
are rejected. A bad setting, from a flag or the file, exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import cloud_io
from .degeneracy import accumulate_arrays, analyze, direction_stats
from .errors import ConfigError, DegenIcpError, InvalidDimensions, NoCorrespondences
from .geometry import Pose
from .registration import (
    ConditionNumber,
    EigenTruncate,
    IcpConfig,
    Probabilistic,
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
    tangent_covariances,
)

_SCHEMA_VERSION = 1
_SCENE_KINDS = tuple(k.value for k in SceneKind)
_SOLVERS = {
    "standard": lambda args: Standard(),
    "probabilistic": lambda args: Probabilistic(args.s),
    "eigen-truncate": lambda args: EigenTruncate(args.lambda_min),
    # Remapping the full solution onto eigenvalues above lambda_min is truncation for a linear step.
    "solution-remap": lambda args: EigenTruncate(args.lambda_min),
    "cond-number": lambda args: ConditionNumber(args.kappa_max),
}

# Version-1 config-file keys and the namespace dest each one sets.
_FILE_KEYS = {
    "seed": "seed",
    "method.name": "method", "method.s": "s", "method.lambda_min": "lambda_min",
    "method.kappa_max": "kappa_max",
    "sensor.sigma_p": "sigma_p", "sensor.sigma_i": "sigma_i", "sensor.sigma_n_max": "sigma_n_max",
    "sensor.sigma_r": "sigma_r",
    "icp.k_neighbors": "k_neighbors", "icp.max_iterations": "max_iterations",
    "icp.translation_tol": "translation_tol", "icp.rotation_tol": "rotation_tol",
    "icp.max_correspondence_distance": "max_correspondence_distance",
    "scene.kind": "kind", "scene.dimensions": "dimensions", "scene.point_count": "point_count",
    "noise.sigma_n": "sigma_n",
}
_POSITIVE = ("s", "lambda_min", "kappa_max", "sigma_n_max", "sigma_r", "max_correspondence_distance",
             "translation_tol", "rotation_tol", "mean_sigmas", "var_rtol")
_NONNEGATIVE = ("sigma_p", "sigma_i", "sigma_n")
_AT_LEAST = {"seed": 0, "k_neighbors": 3, "max_iterations": 1, "point_count": 6, "trials": 2, "directions": 1}


def _read_config(path: Path) -> dict:
    """The file's settings as {"group.key": value}, after checking the
    schema version and the key names."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    version = raw.pop("version", None)
    if version != _SCHEMA_VERSION:
        raise ConfigError(f"config {path}: unsupported version {version!r} (expected {_SCHEMA_VERSION})")
    groups = {key.partition(".")[0] for key in _FILE_KEYS if "." in key}
    settings = {}
    for name, value in raw.items():
        if name not in groups:
            settings[name] = value
        elif isinstance(value, dict):
            settings.update({f"{name}.{key}": item for key, item in value.items()})
        else:
            raise ConfigError(f"config {path}: {name!r} must be an object")
    unknown = sorted(set(settings) - set(_FILE_KEYS))
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {unknown}")
    return settings


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _file_value(where: str, value, kind: type, choices):
    """A config-file value checked as its flag's parser would check it."""
    if choices is not None and value not in choices:
        raise ConfigError(f"{where} must be one of {list(choices)}, got {value!r}")
    if kind is list:  # scene.dimensions
        if not (isinstance(value, dict) and all(map(_is_number, value.values()))):
            raise ConfigError(f"{where} must be an object of numbers, got {value!r}")
        return [(key, float(item)) for key, item in value.items()]
    if kind is int and not (_is_number(value) and isinstance(value, int)):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if kind is float and not _is_number(value):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return kind(value)


def _apply_config(path: Path, parser: argparse.ArgumentParser) -> None:
    """Make the file's settings the command parser's defaults. A setting
    without a default in that parser is one the command does not read."""
    choices = {action.dest: action.choices for action in parser._actions}
    defaults = {}
    for key, value in _read_config(path).items():
        dest = _FILE_KEYS[key]
        default = parser.get_default(dest)
        if default is not None:
            where = f"config {path}: {key}"
            defaults[dest] = _file_value(where, value, type(default), choices.get(dest))
            _check(dest, defaults[dest], where)
    parser.set_defaults(**defaults)


def _check(name: str, value, where: str | None = None) -> None:
    """Range check of setting `name`, reported as `where` (default: name)."""
    where = where or name
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value}")
    if name in _POSITIVE and value <= 0:
        raise ConfigError(f"{where} must be positive, got {value}")
    if name in _NONNEGATIVE and value < 0:
        raise ConfigError(f"{where} must be nonnegative, got {value}")
    if name in _AT_LEAST and value < _AT_LEAST[name]:
        raise ConfigError(f"{where} must be >= {_AT_LEAST[name]}, got {value}")


def _check_settings(args: argparse.Namespace) -> None:
    """Range checks over the resolved settings, named as in the config file.
    A sweep's --values are checked as its parameter."""
    for name, value in vars(args).items():
        _check(name, value)
    for key, value in getattr(args, "dimensions", ()):
        _check(f"dimensions.{key}", value)
    for value in getattr(args, "values", ()):
        _check(args.parameter.replace("-", "_"), value)


def _icp_config(args: argparse.Namespace) -> IcpConfig:
    """IcpConfig from the settings the command reads; the rest keep the
    library defaults."""
    settings = {f.name: getattr(args, f.name) for f in fields(IcpConfig) if hasattr(args, f.name)}
    if "method" in settings:
        settings["method"] = _SOLVERS[args.method](args)
    return IcpConfig(**settings)


def _scene_spec(args: argparse.Namespace) -> SceneSpec:
    dimensions = dict(args.dimensions) or None
    return SceneSpec(SceneKind(args.kind), dimensions, point_count=args.point_count, seed=args.seed)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out or ".")
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


def _scene_manifest(spec: SceneSpec, sample, noise: NoiseSpec, files: dict[str, str]) -> dict:
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


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _scene_spec(args)
    sample = generate_scene(spec)
    noise = NoiseSpec(args.sigma_p, args.sigma_n, args.seed + 1)
    noisy_points, noisy_normals, _, _, _, _ = noisy_feature_arrays(sample, noise)

    out = _out_dir(args)
    writer = cloud_io.write_ply if args.format == "ply" else cloud_io.write_csv
    files = {"clean": f"clean.{args.format}", "noisy": f"noisy.{args.format}", "manifest": "manifest.json"}
    writer(out / files["clean"], sample.points, sample.normals)
    writer(out / files["noisy"], noisy_points, noisy_normals)
    cloud_io.write_json(out / files["manifest"], _scene_manifest(spec, sample, noise, files))
    print(
        f"simulate: wrote {sample.points.shape[0]} points ({args.kind}) to {out} "
        f"[null directions: {sample.null_basis.shape[0]}]"
    )
    return 0


def _detect_reports(args: argparse.Namespace):
    if args.cloud is not None:
        points, _ = cloud_io.load_cloud(args.cloud)
    else:
        sample = generate_scene(_scene_spec(args))
        rng = np.random.default_rng(args.seed + 1)
        points = sample.points + args.sigma_p * rng.standard_normal(sample.points.shape)
    bundle, stats = extract_features(points, points, Pose.identity(), _icp_config(args))
    return analyze(bundle, args.s), stats


def cmd_detect(args: argparse.Namespace) -> int:
    reports, stats = _detect_reports(args)
    _print_report_table(reports)
    print(
        f"features: used {stats.used}/{stats.candidates} "
        f"(distance {stats.rejected_distance}, collinear {stats.rejected_collinear}, "
        f"outlier {stats.rejected_outlier})"
    )
    if args.out:
        out = _out_dir(args)
        cloud_io.write_jsonl(out / "detect.jsonl", [_report_record(k, r) for k, r in enumerate(reports)])
    return 0


def cmd_register(args: argparse.Namespace) -> int:
    source, _ = cloud_io.load_cloud(args.source)
    target, _ = cloud_io.load_cloud(args.target)
    init = Pose.from_matrix(cloud_io.read_pose(args.init)) if args.init else Pose.identity()

    result = icp(source, target, init, _icp_config(args))

    out = _out_dir(args)
    cloud_io.write_pose(out / "pose.txt", result.pose.matrix())
    cloud_io.write_matrix(out / "information.txt", result.information)
    records = []
    for i, rec in enumerate(result.iterations, start=1):
        records.append(
            {
                "iteration": i,
                "twist": [float(v) for v in rec.update.twist],
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
            "method": args.method,
        },
    )
    print(
        f"register: {result.termination} after {len(result.iterations)} iterations "
        f"(converged={result.converged}); outputs in {out}"
    )
    return 1 if result.termination == "no-correspondences" else 0


def cmd_oracle(args: argparse.Namespace) -> int:
    sample = generate_scene(_scene_spec(args))
    noise = NoiseSpec(args.sigma_p, args.sigma_n, args.seed + 1)
    weights = np.ones(sample.points.shape[0])
    point_cov = noise.sigma_p**2 * np.eye(3)
    normal_covs = tangent_covariances(sample.normals, noise.sigma_n)
    bundle = accumulate_arrays(sample.points, sample.normals, sample.offsets, weights, point_cov, normal_covs)

    rng = np.random.default_rng(args.seed + 2)
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
    if args.out:
        cloud_io.write_jsonl(_out_dir(args) / "oracle.jsonl", records)
    print(f"oracle: {'all checks passed' if all_ok else 'TOLERANCE EXCEEDED'}")
    return 0 if all_ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    values = sorted(args.values)
    lines = ["value,direction,eigenvalue,probability"]
    violation = False
    if values:
        sample = generate_scene(_scene_spec(args))
        base = noisy_feature_arrays(sample, NoiseSpec(args.sigma_p, args.sigma_n, args.seed + 1))
        points, normals, offsets, weights, point_cov, normal_covs = base
        unit = normals / np.linalg.norm(normals, axis=1, keepdims=True)

        prev = None
        for value in values:
            value_point_cov = value**2 * np.eye(3) if args.parameter == "sigma-p" else point_cov
            value_normal_covs = tangent_covariances(unit, value) if args.parameter == "sigma-n" else normal_covs
            bundle = accumulate_arrays(points, normals, offsets, weights, value_point_cov, value_normal_covs)
            reports = analyze(bundle, value if args.parameter == "s" else args.s)
            probs = [r.probability for r in reports]
            for k, r in enumerate(reports):
                lines.append(f"{value:.10g},{k},{r.signal:.10g},{r.probability:.10g}")
            if args.parameter == "s" and prev is not None:
                if any(p_now > p_prev + 1e-12 for p_now, p_prev in zip(probs, prev)):
                    violation = True
            prev = probs

    out = Path(args.out or ".")
    csv_path = out if out.suffix.lower() == ".csv" else out / "sweep.csv"
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    csv_path.write_text("\n".join(lines) + "\n")
    if args.parameter == "s":
        print(f"sweep: monotonicity in s {'VIOLATED' if violation else 'ok'}; wrote {csv_path}")
    else:
        print(f"sweep: wrote {csv_path}")
    return 1 if violation else 0


def _dimension(text: str) -> tuple[str, float]:
    key, _, value = text.partition("=")
    try:
        return key.strip(), float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects KEY=VALUE with a number, got {text!r}") from None


def _values(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects comma-separated numbers, got {text!r}") from None


def _command(sub, name: str, help: str, func) -> argparse.ArgumentParser:
    """A command parser with the flags every command reads."""
    p = sub.add_parser(
        name, help=help, allow_abbrev=False, formatter_class=argparse.ArgumentDefaultsHelpFormatter
    )
    p.add_argument("--config", type=Path, help="JSON config file (version 1 schema)")
    p.add_argument("--out", type=Path, help="output directory (or .csv path for sweep)")
    p.add_argument("--sigma-p", type=float, default=IcpConfig.sigma_p, help="point noise std (m)")
    p.set_defaults(func=func, parser=p)
    return p


def _add_scene_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--kind", choices=_SCENE_KINDS, default="room", help="scene kind")
    p.add_argument("--dim", type=_dimension, action="append", default=[], dest="dimensions",
                   metavar="KEY=VALUE", help="scene dimension override, repeatable")
    p.add_argument("--points", type=int, default=SceneSpec.point_count, dest="point_count",
                   help="number of sampled points")


def _add_feature_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma-i", type=float, default=IcpConfig.sigma_i, help="plane-fit neighbor noise std (m)")
    p.add_argument("--sigma-n-max", type=float, default=IcpConfig.sigma_n_max, help="normal outlier threshold")
    p.add_argument("--k-neighbors", type=int, default=IcpConfig.k_neighbors, help="neighbors per plane fit")
    p.add_argument("--max-correspondence-distance", type=float, default=IcpConfig.max_correspondence_distance,
                   help="correspondence gate (m)")
    p.add_argument("--s", type=float, default=Probabilistic.s, help="signal-to-noise target")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degen-icp",
        description="Degeneracy-aware point-to-plane registration toolkit",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sigma_n = dict(type=float, default=0.01, help="injected normal noise std")

    p = _command(sub, "simulate", "generate a synthetic scene and noisy cloud", cmd_simulate)
    _add_scene_flags(p)
    p.add_argument("--sigma-n", **sigma_n)
    p.add_argument("--format", choices=("ply", "csv"), default="ply", help="cloud format")

    p = _command(sub, "detect", "degeneracy report for a scene or cloud", cmd_detect)
    _add_scene_flags(p)
    _add_feature_flags(p)
    p.add_argument("--cloud", type=Path, help="analyze this cloud instead of a generated scene")

    p = _command(sub, "register", "register a source cloud onto a target cloud", cmd_register)
    _add_feature_flags(p)
    p.add_argument("--method", choices=tuple(_SOLVERS), default="probabilistic", help="update rule")
    p.add_argument("--lambda-min", type=float, default=0.1, help="eigenvalue threshold")
    p.add_argument("--kappa-max", type=float, default=1e4, help="condition-number threshold")
    p.add_argument("--sigma-r", type=float, default=IcpConfig.sigma_r, help="residual std (m)")
    p.add_argument("--max-iterations", type=int, default=IcpConfig.max_iterations, help="iteration limit")
    p.add_argument("--source", type=Path, required=True, help="cloud to move")
    p.add_argument("--target", type=Path, required=True, help="cloud to register onto")
    p.add_argument("--init", type=Path, help="initial pose file (16 numbers, row-major)")
    p.set_defaults(translation_tol=IcpConfig.translation_tol, rotation_tol=IcpConfig.rotation_tol)  # file only

    p = _command(sub, "oracle", "analytic vs Monte Carlo noise statistics", cmd_oracle)
    _add_scene_flags(p)
    p.add_argument("--sigma-n", **sigma_n)
    p.add_argument("--trials", type=int, default=20000, help="Monte Carlo draws")
    p.add_argument("--directions", type=int, default=4, help="random unit directions checked")
    p.add_argument("--mean-sigmas", type=float, default=3.0, help="mean tolerance in standard errors")
    p.add_argument("--var-rtol", type=float, default=0.1, help="relative variance tolerance")

    p = _command(sub, "sweep", "probability curves over a parameter range", cmd_sweep)
    _add_scene_flags(p)
    p.add_argument("--sigma-n", **sigma_n)
    p.add_argument("--s", type=float, default=Probabilistic.s, help="signal-to-noise target")
    p.add_argument("--parameter", choices=("s", "sigma-n", "sigma-p"), required=True, help="swept setting")
    p.add_argument("--values", type=_values, required=True, help="comma-separated, empty for a header-only CSV")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            _apply_config(args.config, args.parser)
            args = parser.parse_args(argv)
        _check_settings(args)
        return int(args.func(args))
    except (ConfigError, InvalidDimensions) as exc:
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
