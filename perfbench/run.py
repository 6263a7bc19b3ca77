"""Benchmark runner for degen-icp.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload room-20k --seed 1 --seconds 50 --trace 0

Workloads (BENCHMARK.json says why each of the gated ones was chosen):
  room-20k      register pairs of 20k-point room scans at the default settings
  oracle-mc     closed-form versus Monte Carlo noise statistics, 1e5 trials
  corridor-map  register 2k-point corridor scans against a 200k-point map;
                not listed in BENCHMARK.json, because on a 2-vCPU VM its
                median operation time spread by a quarter between runs

The inputs are generated from the seed into .perfbench_work/ before timing.
Set-up time is the median import time of degen_icp.cli in fresh
interpreters. A worker process then runs the operations through
degen_icp.cli.main in a closed loop and checks each one against the ground
truth. With --trace 1 the worker records a span at each layer boundary and
the run reports per-layer self times and counts instead of the end-to-end
metrics.

The output is a host line, a report line with every end-to-end metric
(quality ones included), and last a JSON object with correct, attempted,
failed and the metrics named in BENCHMARK.json. The program is read from
src/ of the current directory; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import Span, self_times

IMPORT_SAMPLES = 7
DEADLINE_S = 170.0
# The end-to-end metrics BENCHMARK.json bounds; the report line has them all.
GATED = ("setup_s", "step_ms_p10", "peak_rss_mb")

# Per-layer metric: (span name, what to take). "self" is self time in
# seconds, "calls" the number of spans, anything else a count the span
# reported. Every value is a mean per operation.
LAYER_METRICS = {
    "cloud_io.load_s": ("cloud_io.load", "self"),
    "cloud_io.points_read": ("cloud_io.load", "points_read"),
    "cloud_io.write_s": ("cloud_io.write", "self"),
    "normals.fit_planes_s": ("normals.fit_planes", "self"),
    "normals.planes_fitted": ("normals.fit_planes", "planes_fitted"),
    "registration.knn_s": ("registration.knn", "self"),
    "registration.tree_build_s": ("registration.tree_build", "self"),
    "registration.extract_features_self_s": ("registration.extract_features", "self"),
    "registration.solve_update_s": ("registration.solve_update", "self"),
    "registration.icp_self_s": ("registration.icp", "self"),
    "registration.iterations": ("registration.solve_update", "calls"),
    "registration.candidates": ("registration.extract_features", "candidates"),
    "registration.features_used": ("registration.extract_features", "features_used"),
    "registration.rejected_outlier": ("registration.extract_features", "rejected_outlier"),
    "degeneracy.accumulate_s": ("degeneracy.accumulate", "self"),
    "degeneracy.features_accumulated": ("degeneracy.accumulate", "features_accumulated"),
    "degeneracy.direction_stats_s": ("degeneracy.direction_stats", "self"),
    "simulation.mc_s": ("simulation.mc", "self"),
    "simulation.mc_samples": ("simulation.mc", "mc_samples"),
    "cli.self_s": ("cli.main", "self"),
}


def import_seconds(env: dict) -> float:
    code = "import time; t = time.perf_counter(); import degen_icp.cli; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout.strip())


def _steps(record: dict) -> int:
    """Units of work in one operation: ICP iterations of a registration,
    direction checks of an oracle run. How many iterations a registration
    takes depends on its noise draw, so times per step compare across seeds
    where times per operation do not."""
    q = record["quality"]
    return q.get("iterations") or q.get("oracle_checks") or 1


def _step_ms(records: list[dict]) -> list[float]:
    """Milliseconds per step of each successful operation (of every one when
    none succeeded)."""
    done = [r for r in records if r["failed"] is None] or records
    return [1e3 * r["seconds"] / _steps(r) for r in done]


def _p10(values: list[float]) -> float:
    """Tenth percentile. The host is shared: other tenants slow whole stretches
    of a run by up to a half, so the fast tenth tracks the program's own speed
    where the median tracks the neighbours' load."""
    return statistics.quantiles(values, n=10)[0] if len(values) > 1 else values[0]


def _mean(values) -> float | None:
    values = list(values)
    return statistics.fmean(values) if values else None


def end_to_end(result: dict, setup: list[float], pool: int) -> dict:
    records = result["records"]
    failed = sum(r["failed"] is not None for r in records)
    # Quality from the first pass over the pool, so it repeats for a seed.
    quality = [r["quality"] for r in records[:pool] if r["failed"] is None]
    reg = [q for q in quality if "pose_err_mm" in q]
    ora = [q for q in quality if "oracle_checks" in q]
    step_ms = _step_ms(records)
    report = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s_p50": (statistics.median(r["seconds"] for r in records), "s"),
        "ops_per_s": ((len(records) - failed) / result["elapsed"], "1/s"),
        "step_ms_p50": (statistics.median(step_ms), "ms"),
        "step_ms_p10": (_p10(step_ms), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "failed_frac": (failed / len(records), "fraction"),
        "pose_err_mm_p50": (statistics.median(q["pose_err_mm"] for q in reg) if reg else None, "mm"),
        "pose_ok_frac": (_mean(q["pose_ok"] for q in reg), "fraction"),
        "null_match_frac": (_mean(q["null_match"] for q in reg), "fraction"),
        "iterations_mean": (_mean(q["iterations"] for q in reg), "count"),
        "converged_frac": (_mean(q["converged"] for q in reg), "fraction"),
        "features_used_frac": (_mean(q["features_used_frac"] for q in reg), "fraction"),
        "oracle_pass_frac": (sum(q["oracle_passed"] for q in ora) / sum(q["oracle_checks"] for q in ora)
                             if ora else None, "fraction"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in report.items()}


def per_layer(result: dict) -> tuple[dict, dict]:
    spans = [Span(*s) for s in result["spans"]]
    ops = len(result["records"])
    totals = dict.fromkeys(LAYER_METRICS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        for metric, (name, what) in LAYER_METRICS.items():
            if span.name != name:
                continue
            if what == "self":
                totals[metric] += own
            elif what == "calls":
                totals[metric] += 1
            else:
                totals[metric] += (span.counts or {}).get(what, 0)
    metrics = {
        m: {"value": total / ops, "unit": "s" if m.endswith("_s") else "count"}
        for m, total in totals.items()
    }
    op_times = [r["seconds"] for r in result["records"]]
    metrics["traced.op_s_p50"] = {"value": statistics.median(op_times), "unit": "s"}
    metrics["traced.step_ms_p10"] = {"value": _p10(_step_ms(result["records"])), "unit": "ms"}
    # Self times partition the root spans, so their sum falls short of the
    # worker's own operation time only by the bookkeeping outside them.
    own = {m: metrics[m]["value"] for m in totals if m.endswith("_s")}
    op_mean = statistics.fmean(op_times)
    summary = {"op_s_mean": op_mean, "self_s_sum": sum(own.values()),
               "shares": {m: round(v / op_mean, 4) for m, v in own.items()}}
    return metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one small operation and one import sample (smoke tests)")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    src = root / "src"
    if not (src / "degen_icp" / "cli.py").is_file():
        print(f"error: no degen_icp package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    pool = workloads.build(args.workload, args.seed, work, tiny=args.tiny)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    if not args.trace:
        import_seconds(env)  # compiles bytecode and warms the file cache
        setup = [import_seconds(env) for _ in range(1 if args.tiny else IMPORT_SAMPLES)]

    job_path, result_path = work / "job.pkl", work / "result.json"
    with open(job_path, "wb") as fh:
        pickle.dump({"ops": pool, "seconds": 0.0 if args.tiny else args.seconds,
                     "trace": bool(args.trace), "src": str(src)}, fh)
    worker = [sys.executable, str(Path(__file__).with_name("worker.py")), str(job_path), str(result_path)]
    try:
        subprocess.run(worker, env=env, check=True,
                       timeout=max(1.0, DEADLINE_S - (time.perf_counter() - started)))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())

    records = result["records"]
    failed = [r for r in records if r["failed"] is not None]
    host = dict(result["host"], nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)))
    print(json.dumps({"host": host}))
    for r in failed[:5]:
        print(f"failed operation (pool entry {r['pool']}): {r['failed']}\n{r['log']}", file=sys.stderr)

    if args.trace:
        metrics, summary = per_layer(result)
        print(json.dumps({"workload": args.workload, "operations": len(records), "trace": summary}))
    else:
        report = end_to_end(result, setup, len(pool))
        print(json.dumps({"workload": args.workload, "operations": len(records), "report": report}))
        metrics = {m: report[m] for m in GATED}
    print(json.dumps({"correct": not failed, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
