#!/usr/bin/env python3
"""firelab benchmark: Monte-Carlo samples per second on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload heights-cone --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload xiscan --trace 1

Each workload drives the public ``firelab.estimators`` functions in one
process with ``pool_map=None`` (see ``workloads.py``).  With ``--trace 0``
it reports the end-to-end metrics: ``samples_per_s_norm`` (median over
0.5 s blocks after warm-up of samples per second, each block divided by
the machine speed measured right after it; see ``calibration.py``),
``setup_s`` (median over fresh interpreters of the time from spawn to the
first timed sample, each scaled by how long its third-party imports took
against ``calibration.REFERENCE_LIBS_S``) and ``peak_rss_mb``.  With
``--trace 1`` it runs half the time untraced and half traced and reports
the per-layer metrics of ``tracing.py``, the tracing overhead and a span
file.  Both modes check the first rounds' results (frozen reference at
the reference seed, invariants and oracle cross-checks on every seed).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` and ``failed`` (result checks) and ``metrics``.
Full results, the environment and the spans go to ``.bench_out/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCES = HERE / "references.json"
REFERENCE_SEED = 1
BLOCK_S = 0.5
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def read_proc(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError:
        return None


def load_average() -> str | None:
    text = read_proc("/proc/loadavg")
    return text.strip() if text else None


def environment() -> dict:
    import scipy

    cpu = None
    for line in (read_proc("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "loadavg_start": load_average()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(workload, seed: int, seconds: float) -> dict:
    """Rounds from 0 until ``seconds`` have passed and the checked batch is
    complete, with a calibration run after every block of ``BLOCK_S``."""
    results, raw, speeds = [], [], []
    samples = r = block_samples = busy_ns = 0
    start = block_start = time.perf_counter_ns()
    while True:
        n, res = workload.run_round(seed, r)
        if r < workload.check_rounds:
            results.append(res)
        r += 1
        samples += n
        block_samples += n
        now = time.perf_counter_ns()
        last = now - start >= seconds * 1e9 and r >= workload.check_rounds
        if now - block_start >= BLOCK_S * 1e9 or last:
            raw.append(block_samples * 1e9 / (now - block_start))
            busy_ns += now - block_start
            speeds.append(calibration.speed())
            block_samples, block_start = 0, time.perf_counter_ns()
        if last:
            break
    return {"samples": samples, "busy_ns": busy_ns, "results": results,
            "raw": raw, "speed": speeds,
            "scaled": [x / s for x, s in zip(raw, speeds)]}


def run_checks(workload, seed: int, results, references: dict) -> tuple[list, dict]:
    summary = workload.merge(results)
    checks = []
    ref = references.get(workload.name) if seed == REFERENCE_SEED else None
    if ref is not None:
        checks += workload.reference_checks(summary, ref)
    checks += workload.invariant_checks(summary)
    _, again = workload.run_round(seed, 0)
    checks.append(("determinism:round 0 rerun", _same(again, results[0]), ""))
    checks += workload.oracle_checks(seed, results)
    return checks, summary


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return bool(np.array_equal(a, b))
    return a == b


def setup_probe(name: str) -> tuple[float, float]:
    """Spawns a fresh interpreter that sets up ``name``.  Returns the wall
    seconds from the spawn to the point where it would take its first timed
    sample, and to the point where its third-party imports were done."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--setup-probe", "--workload", name],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=True)
    libs_ready, ready = map(float, proc.stdout.split()[-2:])
    return ready - t0, libs_ready - t0


def quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 references: dict) -> dict:
    """Warm up, time, check; returns the workload's full result record."""
    workload.warm_up()
    phase_s = seconds / 2 if trace else seconds
    loop = timed_loop(workload, seed, phase_s)
    rss = peak_rss_mb()
    out = {"workload": workload.name, "criterion": workload.criterion, "seed": seed,
           "seconds": seconds, "samples": loop["samples"], "blocks": len(loop["raw"]),
           "samples_per_s_norm": statistics.median(loop["scaled"]),
           "samples_per_s_norm_quartiles": quartiles(loop["scaled"]),
           "samples_per_s": loop["samples"] * 1e9 / loop["busy_ns"],
           "machine_speed": statistics.median(loop["speed"]),
           "peak_rss_mb": rss}
    if trace:
        from tracing import Tracer, layer_metrics

        with Tracer() as tracer:
            traced = timed_loop(workload, seed, phase_s)
        out["layers"] = layer_metrics(tracer, traced["busy_ns"], traced["samples"])
        out["layers"].append(("tracing.overhead_ratio", out["samples_per_s_norm"]
                              / statistics.median(traced["scaled"]),
                              "ratio", traced["samples"], None))
        out["traced_wall_ns"] = traced["busy_ns"]
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write_spans(spans)
        out["span_file"] = str(spans.relative_to(ROOT))
    checks, summary = run_checks(workload, seed, loop["results"], references)
    out["checks"] = [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks]
    out["failed"] = sum(not c["ok"] for c in out["checks"])
    out["failed_frac"] = out["failed"] / len(checks)
    out["summary"] = summary
    if not trace:
        probes = [setup_probe(workload.name) for _ in range(SETUP_PROBES)]
        out["setup_s_runs"] = [full for full, _ in probes]
        out["setup_libs_s_runs"] = [libs for _, libs in probes]
        out["setup_s"] = statistics.median(
            full * calibration.REFERENCE_LIBS_S / libs for full, libs in probes)
    return out


def end_to_end_metrics(res: dict) -> dict:
    return {"samples_per_s_norm": {"value": res["samples_per_s_norm"],
                                   "unit": "samples/s"},
            "setup_s": {"value": res["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}


def report(res: dict, trace: bool) -> None:
    """Human-readable lines for one workload."""
    name = res["workload"]
    print(f"== {name} (criterion {res['criterion']}) seed {res['seed']}: "
          f"{res['samples']} samples in {res['blocks']} blocks")
    for c in res["checks"]:
        if not c["ok"]:
            print(f"   CHECK FAILED {c['name']}: {c['detail']}")
    if res["seed"] != REFERENCE_SEED:
        print(f"   digests (no reference at this seed): {json.dumps(res['summary'])}")
    q = res["samples_per_s_norm_quartiles"]
    rows = [("samples_per_s_norm", res["samples_per_s_norm"], "samples/s",
             f"quartiles {q[0]:.2f} .. {q[2]:.2f} over {res['blocks']} blocks"),
            ("samples_per_s", res["samples_per_s"], "samples/s", "wall clock, unscaled"),
            ("machine_speed", res["machine_speed"], "ratio", "median of the blocks")]
    if not trace:
        rows += [("setup_s", res["setup_s"], "s",
                  "unscaled " + " ".join(f"{s:.3f}" for s in res["setup_s_runs"])),
                 ("peak_rss_mb", res["peak_rss_mb"], "MB", "")]
    rows.append(("failed_frac", res["failed_frac"], "ratio",
                 f"{res['failed']} of {len(res['checks'])} checks"))
    for metric, value, unit, note in rows:
        print(f"   {metric:<16} {value:>12.4f} {unit:<10} {note}")
    if trace:
        wall = res["traced_wall_ns"]
        print(f"   {'per-layer metric':<44} {'value':>12} {'unit':<8} "
              f"{'base':>9} share")
        for metric, value, unit, base, ns in res["layers"]:
            share = f"{ns / wall:6.1%}" if ns is not None else "     -"
            print(f"   {metric:<44} {value:>12.4f} {unit:<8} {base:>9} {share}")
        print(f"   spans: {res['span_file']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "firelab").is_dir():
        print(f"error: firelab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import scipy.stats  # noqa: F401  (the last third-party import firelab makes)
        libs_ready = time.monotonic()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS and args.workload != "all":
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{', '.join(WORKLOADS)} or all")
    if args.setup_probe:
        WORKLOADS[args.workload]().warm_up()
        print(libs_ready, time.monotonic())
        return 0

    env = environment()
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[n](), args.seed, args.seconds, bool(args.trace),
                            references) for n in names]
    env["loadavg_end"] = load_average()
    print("environment " + json.dumps(env))
    for res in results:
        report(res, bool(args.trace))

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"environment": env, "results": results}, indent=1), encoding="utf-8")

    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        if args.trace:
            metrics.update({prefix + m: {"value": v, "unit": u}
                            for m, v, u, _, _ in res["layers"]})
        else:
            metrics.update({prefix + m: v for m, v in end_to_end_metrics(res).items()})
    attempted = sum(len(r["checks"]) for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
