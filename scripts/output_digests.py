#!/usr/bin/env python3
"""Compare the CLI outputs of two checkouts of firelab.

    python3 scripts/output_digests.py BASE_DIR CHANGE_DIR

Runs each command of COMMANDS once in each checkout, with that checkout's
``src`` on the path and a fresh temporary ``--out``, and compares the
exit codes and the ``outputs`` digests of the runs' ``manifest.json``.
Prints one line per command, with the files whose digests differ, and
exits 1 if any command differs, 0 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = (
    ("simulate", "--seed", "7"),
    ("onearm", "--seed", "2", "--samples", "200", "--n-list", "3,5,8",
     "--t", "0.6", "--half-plane", "false"),
    ("onearm", "--seed", "3", "--samples", "300", "--n-list", "8,16,32"),
    ("events", "--n-list", "8,12"),
    ("events", "--n-list", "8,12,16,24"),
    ("heights", "--region", "cone", "--heights-list", "8,12", "--samples", "60"),
    ("heights", "--region", "tube", "--heights-list", "8,12", "--samples", "60"),
    ("xiscan", "--synthetic"),
    ("xiscan", "--samples-per-n", "300"),
    ("verify", "--seed", "6", "--verify-runs", "12"),
    ("verify", "--seed", "6", "--verify-runs", "12", "--corrupt-streams"),
    ("events", "--n-list", "8,12", "--no-events-a", "--delta", "0.05",
     "--x", "1.5"),
    ("onearm", "--seed", "4", "--samples", "200", "--n-list", "4,8",
     "--t", "0.65", "--phi", "0.8"),
    ("simulate", "--window-width", "16", "--window-height", "10",
     "--t-end", "0.5"),
    ("heights", "--region", "tube", "--phi", "1.2", "--heights-list", "8,12",
     "--samples", "60"),
    ("verify", "--seed", "6", "--verify-runs", "12", "--t-end", "0.5"),
    ("events", "--n-list", "24,32", "--samples", "1500", "--x", "2.5",
     "--phi", "0.8"),
    ("heights", "--region", "cone", "--heights-list", "48,96", "--samples",
     "200"),
    ("onearm", "--seed", "5", "--samples", "200", "--n-list", "8,16,32",
     "--phi", "0.25", "--half-plane", "false"),
    # Samples mapped over a worker pool (Pool.map), not the builtin map.
    ("heights", "--region", "cone", "--heights-list", "8,12", "--samples",
     "60", "--threads", "2"),
    # Five samples: the summary's CI ends fall outside the sample and are
    # written as "-inf" and "inf".
    ("heights", "--heights-list", "8", "--samples", "5"),
)


def run(checkout: Path, command) -> tuple[int, dict]:
    """A command's exit code and its manifest's output digests (empty when
    the command wrote no run directory)."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        proc = subprocess.run([sys.executable, "-m", "firelab.cli", *command,
                               "--out", str(out)],
                              cwd=tmp, env=env, capture_output=True, text=True)
        manifest = out / "manifest.json"
        digests = (json.loads(manifest.read_text())["outputs"]
                   if manifest.exists() else {})
    return proc.returncode, digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    differ = 0
    for command in COMMANDS:
        code_a, dig_a = run(args.base, command)
        code_b, dig_b = run(args.change, command)
        files = sorted(f for f in dig_a.keys() | dig_b.keys()
                       if dig_a.get(f) != dig_b.get(f))
        cmd = " ".join(command)
        if code_a != code_b or files:
            differ += 1
            print(f"DIFFERS {cmd}: exit {code_a} -> {code_b}; files {files}")
        else:
            short = " ".join(f"{f}={d[:8]}" for f, d in sorted(dig_a.items()))
            print(f"same    {cmd}: exit {code_a}; {short}")
    print(f"{differ} of {len(COMMANDS)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
