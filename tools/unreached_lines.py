"""List the lines of the degen_icp package that no test reaches.

Usage, from the root of a checkout:

    python3 tools/unreached_lines.py

The script runs `pytest tests` in its own process under a line tracer:
`sys.settrace` for the main thread and `threading.settrace` for the threads
started after it. The tracer records only frames whose code comes from a
file of src/degen_icp. The script then prints each executable line of those
files (a line of one of their code objects' `co_lines()`) that no test
reached, as `<file>:<line>: <source>`, and a count. Lines that only a
subprocess runs, such as the CLI's `__main__` guard, are listed too, because
the tracer sees this process only. The exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "degen_icp"


def executable_lines(path) -> set[int]:
    """The line numbers of the code objects compiled from a file, nested ones included."""
    pending = [compile(Path(path).read_text(), str(path), "exec")]
    lines = set()
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        pending.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def trace_lines(run, paths):
    """Call run() under the line tracer. Return its result and, for each of
    the files in paths, keyed by resolved path, the set of lines it reached."""
    reached = {Path(p).resolve(): set() for p in paths}
    local_tracers = {}  # co_filename -> the line tracer of its file, or None

    def line_tracer(hits):
        def on_line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return on_line

        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in local_tracers:
            hits = reached.get(Path(name).resolve())
            local_tracers[name] = None if hits is None else line_tracer(hits)
        return local_tracers[name]

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, reached


def unreached(reached) -> list[str]:
    """`<file>:<line>: <source>` for each executable line not in reached."""
    listing = []
    for path, hits in sorted(reached.items()):
        source = path.read_text().splitlines()
        listing.extend(
            f"{path.name}:{line}: {source[line - 1].strip()}" for line in sorted(executable_lines(path) - hits)
        )
    return listing


def main() -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    paths = sorted(PACKAGE.glob("*.py"))
    code, reached = trace_lines(lambda: pytest.main([str(ROOT / "tests"), "-q"]), paths)
    listing = unreached(reached)
    print("\n".join(listing))
    total = sum(len(executable_lines(p)) for p in paths)
    print(f"{len(listing)} of {total} executable lines in src/degen_icp reached by no test")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
