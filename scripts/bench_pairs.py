#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts of firelab.

    python3 scripts/bench_pairs.py BASE_DIR CHANGE_DIR --workload heights-cone \
        --pairs 10 --seed 31 --out BENCH.json

Each pair runs ``python3 perfbench/run.py --workload W --seed S+p`` once in
each checkout, in its own directory and interpreter and at perfbench's own
run length; the side that goes
first alternates from pair to pair, so a drift in machine speed does not
favour one side.  The output file holds every run's end-to-end metrics and
result checks with perfbench's report of the environment, each side's
median and quartiles per metric, and the pairs the change wins on each.
"""

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# perfbench's end-to-end metrics and which way is better.
HIGHER_IS_BETTER = {"samples_per_s_norm": True, "setup_s": False, "peak_rss_mb": False}


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("environment ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"no result from {checkout} (exit {proc.returncode}):\n"
                         f"{proc.stdout}\n{proc.stderr}")
    return {"seed": seed, "exit": proc.returncode, "wall_s": round(wall, 2),
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "environment": env}


def source_digest(checkout: Path) -> str:
    """sha256 over the checkout's firelab sources, naming the code measured."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src" / "firelab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def summarise(runs: dict) -> dict:
    summary = {}
    for metric, higher in HIGHER_IS_BETTER.items():
        base = [r["metrics"][metric] for r in runs["base"]]
        change = [r["metrics"][metric] for r in runs["change"]]
        b, c = quartiles(base), quartiles(change)
        wins = sum((y > x) if higher else (y < x) for x, y in zip(base, change))
        summary[metric] = {
            "base": b, "change": c,
            "median_ratio": c["median"] / b["median"],
            "base_iqr": b["q3"] - b["q1"],
            "change_wins": f"{wins}/{len(base)}",
        }
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("base", type=Path, help="checkout the change is measured against")
    p.add_argument("change", type=Path, help="checkout with the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True, help="seed of pair 0; pair p uses seed + p")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    runs = {"base": [], "change": []}
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            res = run_once(sides[side], args.workload, seed)
            res["pair"], res["ran"] = pair, order.index(side)
            runs[side].append(res)
            print(f"pair {pair} {side:<6} seed {seed} "
                  + " ".join(f"{k}={v:.4g}" for k, v in res["metrics"].items())
                  + f" failed={res['failed']}", flush=True)

    out = {"workload": args.workload, "pairs": args.pairs, "first_seed": args.seed,
           "source_sha256": {k: source_digest(v) for k, v in sides.items()},
           "platform": platform.platform(), "summary": summarise(runs), "runs": runs}
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for metric, s in out["summary"].items():
        print(f"{metric}: median {s['base']['median']:.4g} -> {s['change']['median']:.4g} "
              f"(x{s['median_ratio']:.3f}, base IQR {s['base_iqr']:.3g}), "
              f"change better in {s['change_wins']} pairs")
    return 0 if all(r["failed"] == 0 for side in runs.values() for r in side) else 1


if __name__ == "__main__":
    sys.exit(main())
