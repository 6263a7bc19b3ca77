"""The process that runs the operations: one client in a closed loop.

Usage: python3 perfbench/worker.py <job.pkl> <result.json>

The job holds the operation pool, the run length and whether to trace. Each
operation calls degen_icp.cli.main in this process, the code path of the
degen-icp command without interpreter start-up, and starts when the previous
one has ended and been checked. The loop runs the whole pool once, then goes
on until the run length is used up. Peak RSS is this process's own.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import pickle
import resource
import shutil
import sys
import time
from pathlib import Path

from checks import check
from tracing import Tracer


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if there is one."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.split()[-1].lower()}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run(job: dict) -> dict:
    import degen_icp
    from degen_icp import cli

    src = Path(job["src"]).resolve()
    if src not in Path(degen_icp.__file__).resolve().parents:
        raise SystemExit(f"degen_icp imported from {degen_icp.__file__}, not from {src}")

    tracer = Tracer() if job["trace"] else None
    main = cli.main
    restore = None
    if tracer is not None:
        restore = tracer.install()
        main = tracer.wrap("cli.main", cli.main)

    ops, records = job["ops"], []
    start = time.perf_counter()
    deadline = start + job["seconds"]
    end = start
    try:
        while len(records) < len(ops) or end < deadline:
            i = len(records)
            op = ops[i % len(ops)]
            shutil.rmtree(op.out, ignore_errors=True)
            if tracer is not None:
                tracer.op = i
            log = io.StringIO()
            raised = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    code = main(op.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an operation that raises is a failed one
                code, raised = None, f"raised {type(exc).__name__}: {exc}"
            end = time.perf_counter()
            reason, quality = (raised, {}) if raised else check(op, code)
            records.append({"pool": i % len(ops), "seconds": end - t0, "failed": reason,
                            "quality": quality, "log": log.getvalue()[-2000:] if reason else ""})
    finally:
        if restore is not None:
            restore()

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "records": records,
        "elapsed": end - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": [[s.name, s.start, s.end, s.parent, s.op, s.counts] for s in tracer.spans]
        if tracer is not None else None,
        "host": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
        },
    }


if __name__ == "__main__":
    with open(sys.argv[1], "rb") as fh:
        job = pickle.load(fh)
    Path(sys.argv[2]).write_text(json.dumps(run(job)))
