"""Command-line front end: reproducible experiment runs with manifests.

Subcommands: simulate | onearm | xiscan | events | heights | verify |
defaults.  Configuration is a flat ``key = value`` text file overridden by
CLI flags; every run directory, empty when the command starts, receives
the output files plus a ``manifest.json`` with the effective config and
per-file digests.

Exit codes: 0 ok, 2 invalid config or non-empty output directory,
3 runtime failure (traceback on stderr), 4 degenerate fit, 5 invariant
violation.
"""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
import traceback
import typing
from dataclasses import dataclass, field
from datetime import datetime, timezone
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from . import __version__, clocks, estimators, firesim, invariants
from .clocks import T_C
from .estimators import EventParams, FitError
from .lattice import ConeRegion, TubeRegion, Window

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_FIT = 4
EXIT_INVARIANT = 5


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Flat configuration; the single serialized source of truth.

    Each field is a config-file key and a ``--name-with-dashes`` flag; its
    annotation says how ``_parse_value`` reads the value's text, and a
    ``help`` entry in its metadata becomes the flag's help text.
    """

    seed: int = field(default=1, metadata={"help": "run seed (u64)"})
    threads: int = field(default=0, metadata={  # 0: FIRELAB_THREADS or 1
        "help": "worker processes (FIRELAB_THREADS fallback)"})
    out: str = field(default="firelab-out", metadata={"help": "output directory"})
    window_width: int = 48   # half-width: window spans k in [-w, w]
    window_height: int = 24  # rows l in [0, h]
    t_end: float = T_C
    t: float = T_C           # one-arm sampling time
    x: float = 0.0
    phi: float = estimators.DEFAULT_PHI
    delta: float = estimators.DEFAULT_DELTA
    n_list: tuple[int, ...] = field(default=(8, 16, 32, 64), metadata={
        "help": "comma-separated rhombus sizes"})
    t_list: tuple[float, ...] = field(
        default=(T_C - 0.30, T_C - 0.22, T_C - 0.15, T_C - 0.10),
        metadata={"help": "comma-separated times"})
    samples: int = 1000
    samples_per_n: int = 2000
    half_plane: bool = True
    region: str = "cone"     # cone | tube
    model: str = "n_exp"
    heights_list: tuple[int, ...] = (24, 48)
    width_factor: float = 3.0
    synthetic: bool = False
    events_include_a: bool = True
    verify_runs: int = 120
    corrupt_streams: bool = False

    def resolved_threads(self) -> int:
        """Worker count: ``threads``, else FIRELAB_THREADS, else 1; at most
        the CPU count."""
        threads = self.threads
        if threads == 0:
            env = os.environ.get("FIRELAB_THREADS", "").strip()
            try:
                threads = int(env) if env else 1
            except ValueError as exc:
                raise ConfigError(f"bad FIRELAB_THREADS value {env!r}") from exc
        return max(1, min(threads, os.cpu_count() or 1))

    def validate(self) -> None:
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.samples_per_n < 1:
            raise ConfigError("samples_per_n must be >= 1")
        if not 0.0 < self.t_end <= T_C + 1e-12:
            raise ConfigError(
                f"t_end must lie in (0, t_c]; the process is capped at "
                f"t_c = log 2 ~ {T_C:.6f}")
        if not 0.0 <= self.t <= T_C + 1e-12:
            raise ConfigError("t must lie in [0, t_c]")
        if not math.isfinite(self.x):
            raise ConfigError("x must be finite")
        if self.window_width < 2 or self.window_height < 2:
            raise ConfigError("window dimensions must be >= 2")
        try:
            estimators.check_phi_delta(self.phi, self.delta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not self.n_list or any(n < 1 for n in self.n_list):
            raise ConfigError("n_list must be nonempty positive integers")
        if len(self.t_list) < 3:
            raise ConfigError("t_list needs at least 3 times")
        if not all(0.0 <= t < T_C for t in self.t_list):
            raise ConfigError("t_list values must lie in [0, t_c)")
        if self.region not in ("cone", "tube"):
            raise ConfigError("region must be cone or tube")
        if self.model not in ("exp", "n_exp"):
            raise ConfigError("model must be exp or n_exp")
        if not self.heights_list or any(h < 4 for h in self.heights_list):
            raise ConfigError("heights_list entries must be >= 4")
        if not 0.0 < self.width_factor < math.inf:
            raise ConfigError("width_factor must be positive and finite")
        if self.verify_runs < 1:
            raise ConfigError("verify_runs must be >= 1")
        if self.threads < 0:
            raise ConfigError("threads must be >= 0")

    def window(self) -> Window:
        return Window(-self.window_width, self.window_width, 0, self.window_height)

    def cone(self) -> ConeRegion:
        return ConeRegion(self.x, self.phi)

    def tube(self) -> TubeRegion:
        return TubeRegion(self.x, self.phi)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, val)
    return values


def _parse_value(key: str, val: str):
    """Read the text of a config line or a flag by the annotation of
    RunConfig's field ``key``: a scalar type, or ``tuple[T, ...]`` written
    as comma-separated values."""
    kind = _FIELDS[key].type
    try:
        if kind is bool:
            return _BOOLS[val.lower()]
        if kind in (int, float, str):
            return kind(val)
        (item, _) = typing.get_args(kind)
        return tuple(item(part.strip()) for part in val.split(",") if part.strip())
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {val!r}") from exc


def format_config(config: RunConfig) -> str:
    lines = []
    for f in dataclasses.fields(RunConfig):
        v = getattr(config, f.name)
        if isinstance(v, tuple):
            v = ",".join(repr(x) for x in v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def load_config(path: str | None, overrides: dict) -> RunConfig:
    values: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        values.update(parse_config_text(p.read_text(encoding="utf-8")))
    values.update({k: v for k, v in overrides.items() if v is not None})
    config = RunConfig(**values)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Output plumbing


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj


def json_text(obj) -> str:
    """Strict JSON: NaN is written as null and infinities as strings."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def csv_text(header: list[str], rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


class RunDirectory:
    """Collects output texts, then writes them plus a manifest into ``out``.

    The files are written into a temporary sibling directory, which then
    replaces ``out`` in one rename, so ``out`` never holds a partial run.
    ``main`` refuses an ``out`` that is not empty or that is the working
    directory, so the rename succeeds and the manifest lists every file
    there.
    """

    def __init__(self, config: RunConfig, command: str):
        self.config = config
        self.command = command
        self.files: dict[str, str] = {}
        self.started = datetime.now(timezone.utc).isoformat()

    def add(self, name: str, text: str) -> None:
        self.files[name] = text

    def write(self) -> Path:
        out = Path(self.config.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
        try:
            # mkdtemp makes a private directory; give it a plain mkdir's mode.
            umask = os.umask(0)
            os.umask(umask)
            tmp.chmod(0o777 & ~umask)
            digests = {}
            for name, text in sorted(self.files.items()):
                data = text.encode("utf-8")
                (tmp / name).write_bytes(data)
                digests[name] = hashlib.sha256(data).hexdigest()
            manifest = {
                "artifact_version": __version__,
                "command": self.command,
                "config": dataclasses.asdict(self.config),
                "started_utc": self.started,
                "finished_utc": datetime.now(timezone.utc).isoformat(),
                "outputs": digests,
            }
            (tmp / "manifest.json").write_text(json_text(manifest), encoding="utf-8")
            os.replace(tmp, out)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        return out


def _require_empty_out(path: str) -> None:
    out = Path(path)
    if not out.exists():
        return
    if not out.is_dir() or any(out.iterdir()):
        raise ConfigError(f"output directory {out} is not an empty directory")
    if out.samefile(Path.cwd()):
        raise ConfigError("the output directory cannot be the working directory,"
                          " which the finished run directory would replace")


def _estimate_row(n, est) -> tuple:
    return (n, est.point, est.ci_low, est.ci_high, est.n_samples)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(config: RunConfig) -> int:
    rundir = RunDirectory(config, "simulate")
    state, records = firesim.run(config.window(), config.seed, config.t_end)
    region = config.cone()
    rows = firesim.destruction_log_rows(records, region)
    rundir.add("destruction_log.csv",
               csv_text(["time", "ignition_k", "cluster_size", "max_im", "in_cone"], rows))
    summary = firesim.run_summary(state, records)
    summary["cone_height"] = firesim.height_of_destruction(records, region, config.t_end)
    summary["seed"] = config.seed
    rundir.add("summary.json", json_text(summary))
    rundir.write()
    return EXIT_OK


def cmd_onearm(config: RunConfig, pool_map) -> int:
    rundir = RunDirectory(config, "onearm")
    rows = []
    points = []
    for i, n in enumerate(config.n_list):
        est = estimators.estimate_one_arm(
            n, config.t, config.phi, config.samples, config.half_plane,
            clocks.derive_seed(config.seed, 1000 + i), pool_map=pool_map)
        rows.append(_estimate_row(n, est))
        points.append((n, est))
    rundir.add("onearm.csv",
               csv_text(["n", "point", "ci_low", "ci_high", "samples"], rows))
    report = {"t": config.t, "phi": config.phi, "half_plane": config.half_plane}
    fit = estimators.powerlaw_fit(points)
    if fit is not None:
        report["loglog_fit"] = dataclasses.asdict(fit)
    else:
        report["loglog_fit"] = None
        report["warning"] = "too few nonzero estimates for a slope fit"
    rundir.add("onearm_fit.json", json_text(report))
    rundir.write()
    return EXIT_OK


def cmd_xiscan(config: RunConfig, pool_map) -> int:
    rundir = RunDirectory(config, "xiscan")
    if config.synthetic:
        gaps = [T_C - t for t in config.t_list]
        xis = [g ** (-4.0 / 3.0) for g in gaps]
        fit = estimators.fit_xi_scan(list(config.t_list), xis)
        rows = [(t, T_C - t, xi, "", "") for t, xi in zip(config.t_list, xis)]
        report = {"synthetic": True, "fit": dataclasses.asdict(fit)}
    else:
        scan = estimators.scan_xi_exponent(
            list(config.t_list), config.phi, config.samples_per_n,
            config.seed, config.model, pool_map)
        rows = [(t, T_C - t, xf.xi, xf.xi_ci[0], xf.xi_ci[1])
                for t, xf in scan.xis]
        report = {
            "synthetic": False,
            "fit": dataclasses.asdict(scan.fit),
            "per_t": [{
                "t": t, "xi": xf.xi, "xi_ci": list(xf.xi_ci),
                "r2": xf.fit.r2, "warnings": xf.warnings,
                "points": [_estimate_row(n, e) for n, e in xf.points],
            } for t, xf in scan.xis],
        }
    rundir.add("xiscan.csv",
               csv_text(["t", "gap", "xi", "xi_ci_low", "xi_ci_high"], rows))
    rundir.add("xiscan_fit.json", json_text(report))
    rundir.write()
    return EXIT_OK


def cmd_events(config: RunConfig, pool_map) -> int:
    rundir = RunDirectory(config, "events")
    rows = []
    d_points = []
    violations = {"A=>B": 0, "C=>B": 0, "B&!C=>D": 0}
    per_n = []
    # Every n's parameters are checked before the first sample is drawn.
    all_params = [EventParams(n, config.x, config.phi, config.delta)
                  for n in config.n_list]
    for i, (n, params) in enumerate(zip(config.n_list, all_params)):
        stats = estimators.coupled_event_stats(
            params, config.samples, clocks.derive_seed(config.seed, 9000 + i),
            include_a=config.events_include_a, pool_map=pool_map)
        for key in violations:
            violations[key] += stats.violations[key]
        ests = stats.estimates
        rows.append((n, ests["A"].point, ests["B"].point, ests["C"].point,
                     ests["D"].point, config.samples))
        d_points.append((n, ests["D"]))
        per_n.append({"n": n, "slice_time": params.slice_time,
                      "estimates": {k: _estimate_row(n, e)[1:4] for k, e in ests.items()},
                      "violations": stats.violations})
    bc = estimators.borel_cantelli_report(d_points) if len(d_points) >= 3 else None
    report = {
        "violations": violations,
        "include_a": config.events_include_a,
        "per_n": per_n,
    }
    if bc is not None:
        report["borel_cantelli_D"] = {
            "ns": bc.ns,
            "partial_sums": bc.partial_sums,
            "partial_sums_upper": bc.partial_sums_upper,
            "verdict": bc.verdict,
            "fit": dataclasses.asdict(bc.slope_fit) if bc.slope_fit else None,
        }
    rundir.add("events.csv",
               csv_text(["n", "A", "B", "C", "D", "samples"], rows))
    rundir.add("events_report.json", json_text(report))
    rundir.write()
    return EXIT_OK


def cmd_heights(config: RunConfig, pool_map) -> int:
    rundir = RunDirectory(config, "heights")
    region = config.cone() if config.region == "cone" else config.tube()
    dists = estimators.height_distribution(
        region, list(config.heights_list), config.samples, config.seed,
        config.width_factor, pool_map=pool_map)
    rows = []
    summary = []
    for dist in dists:
        for i, (lo, hi) in enumerate(zip(dist.lower, dist.upper)):
            rows.append((dist.window_height, i, float(lo), float(hi)))
        summary.append({
            "window_height": dist.window_height,
            "samples": int(dist.lower.size),
            "exact_fraction": dist.exact_fraction,
            "median_bracket": list(dist.bracket(0.5)),
            "median_bracket_ci": list(dist.bracket_ci(0.5)),
            "p90_bracket": list(dist.bracket(0.9)),
            "p90_bracket_ci": list(dist.bracket_ci(0.9)),
        })
    rundir.add("heights.csv",
               csv_text(["window_height", "sample", "lower", "upper"], rows))
    rundir.add("heights_summary.json", json_text({
        "region": config.region, "x": config.x, "phi": config.phi,
        "per_window": summary,
    }))
    rundir.write()
    return EXIT_OK


# ---------------------------------------------------------------------------
# Invariant verification


def _check(name: str, failures: list[str], **counts) -> dict:
    # The report keeps the first failure of each check.
    return {"name": name, **counts, "ok": not failures, "failures": failures[:1]}


def cmd_verify(config: RunConfig) -> int:
    rundir = RunDirectory(config, "verify")

    def seeds(offset: int, n: int) -> list[int]:
        return [clocks.derive_seed(config.seed, offset + i) for i in range(n)]

    runs = config.verify_runs
    window = Window(-12, 12, 0, 10)
    shift = 1 if config.corrupt_streams else 0
    fire, records_sha = [], hashlib.sha256()
    for i, seed in enumerate(seeds(40_000, runs)):
        records, failures = invariants.fire_run_failures(
            window, seed, config.t_end, seed + shift)
        fire += [f"run {i}: {f}" for f in failures]
        for rec in records:
            records_sha.update(f"{i} {rec.time!r} {rec.ignition} "
                               f"{rec.sites.tolist()}\n".encode())
    n_two = max(4000, runs * 40)
    p_hat, two = invariants.two_state_check(seeds(90_000, n_two),
                                            invariants.TWO_STATE_P, 4.0)
    conn = invariants.connection_failures(
        [(seed, 3 + i % 3) for i, seed in enumerate(seeds(70_000, 40))], config.phi)
    engines = invariants.engine_failures(
        [(seed, 3 + i % 5, 0.3 + 0.05 * (i % 8), True)
         for i, seed in enumerate(seeds(80_000, 60))], config.phi)
    checks = [
        _check("fire-invariants", fire, runs=runs,
               window=[window.k_min, window.k_max, window.l_min, window.l_max],
               t_end=config.t_end, records_sha256=records_sha.hexdigest()),
        _check("two-state-oracle", two, runs=n_two, p_hat=p_hat,
               p_true=invariants.TWO_STATE_P),
        _check("first-connection-oracle", conn, cases=40),
        _check("engine-equivalence", engines, cases=60),
    ]
    ok = all(c["ok"] for c in checks)
    report = {"ok": ok, "checks": checks,
              "corrupt_streams": config.corrupt_streams}
    rundir.add("verify_report.json", json_text(report))
    rundir.write()
    if not ok:
        first = next(c for c in checks if not c["ok"])
        print(f"invariant failure: {first['name']}: {first['failures'][0]}",
              file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    """One ``--name-with-dashes`` flag per RunConfig field, for every command
    but ``defaults``; a flag keeps its value's text for ``_parse_value``, and
    a bare boolean flag means true."""
    parser = argparse.ArgumentParser(
        prog="firelab",
        description="Forest-fire simulation and percolation estimators on the "
                    "half-plane triangular lattice")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "onearm", "xiscan", "events", "heights", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="config file path")
        for f in _FIELDS.values():
            bare = {"nargs": "?", "const": "true"} if f.type is bool else {}
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           default=None, help=f.metadata.get("help"), **bare)
        p.add_argument("--no-events-a", dest="events_include_a",
                       action="store_const", const="false",
                       help="alias of --events-include-a false")
    sub.add_parser("defaults")
    return parser


def _overrides_from_args(args) -> dict:
    return {name: _parse_value(name, getattr(args, name))
            for name in _FIELDS if getattr(args, name, None) is not None}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "defaults":
        sys.stdout.write(format_config(RunConfig()))
        return EXIT_OK
    try:
        config = load_config(args.config, _overrides_from_args(args))
        _require_empty_out(config.out)
    except (ConfigError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    pool = None
    try:
        if args.command == "simulate":
            return cmd_simulate(config)
        if args.command == "verify":
            return cmd_verify(config)
        # Only the Monte-Carlo commands map samples over a worker pool.
        pooled = {"onearm": cmd_onearm, "xiscan": cmd_xiscan,
                  "events": cmd_events, "heights": cmd_heights}
        threads = config.resolved_threads()
        pool = Pool(threads) if threads > 1 else None
        # Without a pool, estimators map the samples with the builtin map.
        return pooled[args.command](config, pool.map if pool else None)
    except FitError as exc:
        print(f"degenerate fit: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_RUNTIME
    finally:
        if pool is not None:
            pool.close()
            pool.join()


if __name__ == "__main__":
    sys.exit(main())
