"""Run a fixed list of degen-icp commands and print a SHA-256 digest of each
command's stdout and of every file it wrote.

Usage, from the root of a checkout:

    python3 tools/output_digest.py > digests.txt

The commands run the degen_icp package under src/ of the checkout that holds
this script, one `python -W error -m degen_icp.cli` process each, inside a
new temporary directory that is removed afterwards. Warnings are errors, so
a warning in any command changes its exit code and stdout digest. Before
hashing, stdout has that directory's path replaced by <tmp>, so the digests
do not depend on it. Run the script in two checkouts and diff the two
listings: equal lines mean byte-identical outputs. Each line reads
`<command name> <what> <digest>`, where <what> is `exit=<code>` with the
stdout digest, or a file's name relative to the command's --out.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The corridor registrations start 0.2 m along the corridor's free axis.
INIT_0_2 = "1 0 0 0.2\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"

# A config file with every key at its flag's default; empty dimensions are the scene kind's own.
DEFAULTS = {
    "version": 1,
    "seed": 0,
    "method": {"name": "probabilistic", "s": 10.0, "lambda_min": 0.1, "kappa_max": 10000.0},
    "sensor": {"sigma_p": 0.01, "sigma_i": 0.01, "sigma_n_max": 0.1},
    "icp": {"k_neighbors": 5, "max_iterations": 30, "max_correspondence_distance": 1.0},
    "scene": {"kind": "room", "dimensions": {}, "point_count": 2000},
    "noise": {"sigma_n": 0.01},
}

ROOM, CORRIDOR = "{tmp}/simulate-room", "{tmp}/simulate-corridor"
METHODS = ("probabilistic", "standard", "eigen-truncate", "solution-remap", "cond-number")

# (name, argv); {tmp} is the temporary directory, and --out is {tmp}/<name>.
COMMANDS = [
    ("simulate-room", ["simulate", "--kind", "room", "--points", "20000", "--seed", "22"]),
    ("simulate-corridor", ["simulate", "--kind", "corridor", "--points", "1500", "--seed", "7"]),
    *[
        (f"register-room-{method}-k5",
         ["register", "--source", f"{ROOM}/noisy.ply", "--target", f"{ROOM}/clean.ply",
          "--method", method, "--k-neighbors", "5"])
        for method in METHODS
    ],
    ("register-room-k20",
     ["register", "--source", f"{ROOM}/noisy.ply", "--target", f"{ROOM}/clean.ply", "--k-neighbors", "20"]),
    *[
        (f"register-corridor-{method}",
         ["register", "--source", f"{CORRIDOR}/noisy.ply", "--target", f"{CORRIDOR}/clean.ply",
          "--init", "{tmp}/init.txt", "--method", method])
        for method in ("probabilistic", "standard")
    ],
    ("detect-cloud-corridor",
     ["detect", "--cloud", f"{CORRIDOR}/noisy.ply", "--sigma-i", "0.02", "--k-neighbors", "8", "--s", "5"]),
    ("detect-cloud-room", ["detect", "--cloud", f"{ROOM}/noisy.ply"]),
    ("detect-room", ["detect", "--kind", "room", "--seed", "5", "--points", "1500"]),
    ("oracle", ["oracle", "--kind", "corridor", "--points", "200", "--seed", "3", "--trials", "2000",
                "--directions", "3"]),
    # The oracle-mc benchmark's shape: ten directions on a 100-point room.
    ("oracle-room-10", ["oracle", "--kind", "room", "--points", "100", "--directions", "10", "--trials", "20000",
                        "--seed", "3"]),
    ("register-room-config",
     ["register", "--config", "{tmp}/defaults.json", "--source", f"{ROOM}/noisy.ply",
      "--target", f"{ROOM}/clean.ply"]),
    ("oracle-config", ["oracle", "--config", "{tmp}/defaults.json", "--trials", "2000"]),
    ("sweep", ["sweep", "--kind", "corridor", "--points", "500", "--seed", "4", "--parameter", "s",
               "--values", "1,5,10,20"]),
    ("sweep-sigma-n", ["sweep", "--kind", "corridor", "--points", "500", "--seed", "4", "--parameter", "sigma-n",
                       "--values", "0.001,0.01,0.05"]),
    ("sweep-sigma-p", ["sweep", "--kind", "corridor", "--points", "500", "--seed", "4", "--parameter", "sigma-p",
                       "--values", "0.001,0.01,0.05"]),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(tmp: Path) -> list[str]:
    """Run COMMANDS in tmp, in order; one line per stdout and per output file."""
    (tmp / "init.txt").write_text(INIT_0_2)
    (tmp / "defaults.json").write_text(json.dumps(DEFAULTS))
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    lines = []
    for name, argv in COMMANDS:
        out = tmp / name
        argv = [a.format(tmp=tmp) for a in argv] + ["--out", str(out)]
        cmd = [sys.executable, "-W", "error", "-m", "degen_icp.cli", *argv]
        run = subprocess.run(cmd, env=env, capture_output=True)
        stdout = run.stdout.replace(str(tmp).encode(), b"<tmp>")
        lines.append(f"{name} exit={run.returncode} {_sha256(stdout)}")
        if out.is_dir():
            files = sorted(p for p in out.rglob("*") if p.is_file())
            lines += [f"{name} {p.relative_to(out)} {_sha256(p.read_bytes())}" for p in files]
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="degen-icp-digest-") as tmp:
        for line in digests(Path(tmp)):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
