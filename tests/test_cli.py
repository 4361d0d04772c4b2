import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from firelab import cli
from firelab.cli import (
    EXIT_CONFIG,
    EXIT_FIT,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_RUNTIME,
    ConfigError,
    RunConfig,
    format_config,
    load_config,
    parse_config_text,
)


def digests(out_dir: Path) -> dict:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return manifest["outputs"]


def file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_defaults_round_trip(capsys):
    assert cli.main(["defaults"]) == EXIT_OK
    text = capsys.readouterr().out
    values = parse_config_text(text)
    assert RunConfig(**values) == RunConfig()


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("no_such_key = 3\n")
    with pytest.raises(ConfigError):
        parse_config_text("just a line\n")
    with pytest.raises(ConfigError):
        parse_config_text("engine = grid\n")  # removed key


def test_parse_config_types(tmp_path):
    text = "seed = 9\nn_list = 2, 4, 8\nhalf_plane = false\nphi = 0.8\n"
    values = parse_config_text(text)
    assert values == {"seed": 9, "n_list": (2, 4, 8), "half_plane": False,
                      "phi": 0.8}
    p = tmp_path / "c.cfg"
    p.write_text(text)
    config = load_config(str(p), {"seed": 11})
    assert config.seed == 11 and config.n_list == (2, 4, 8)


# A valid value other than the default for every RunConfig field, as text.
NON_DEFAULT = {
    "seed": "5", "threads": "2", "out": "elsewhere", "window_width": "16",
    "window_height": "10", "t": "0.6", "x": "1.5", "phi": "0.8",
    "delta": "0.05", "n_list": "3,5", "t_list": "0.1,0.2,0.3", "samples": "7",
    "half_plane": "false", "region": "tube", "heights_list": "6,8",
    "width_factor": "2.5", "events_include_a": "false", "verify_runs": "12",
    "corrupt_streams": "true",
}


def flag_config(*flags) -> RunConfig:
    args = cli.build_parser().parse_args(["onearm", *flags])
    return load_config(None, cli._overrides_from_args(args))


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig)])
def test_flag_and_config_line_load_alike(tmp_path, name):
    text = NON_DEFAULT[name]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{name} = {text}\n")
    from_file = load_config(str(cfg), {})
    assert getattr(from_file, name) != getattr(RunConfig(), name)
    assert flag_config("--" + name.replace("_", "-"), text) == from_file


@pytest.mark.parametrize("flags, expected", [
    (["--corrupt-streams", "--half-plane", "off"],
     {"corrupt_streams": True, "half_plane": False}),
    (["--corrupt-streams"], {"corrupt_streams": True}),
    (["--events-include-a", "false"], {"events_include_a": False}),
    (["--half-plane", "false"], {"half_plane": False}),
    (["--half-plane", "ON"], {"half_plane": True}),
    (["--corrupt-streams", "--t-list=0.1,0.2,0.3"],
     {"corrupt_streams": True, "t_list": (0.1, 0.2, 0.3)}),
    (["--x", "-1.5", "--t", "0.5"], {"x": -1.5, "t": 0.5}),
    (["--seed", "2", "--samples", "200", "--n-list", "3,5,8", "--t", "0.6",
      "--half-plane", "false"],
     {"seed": 2, "samples": 200, "n_list": (3, 5, 8), "t": 0.6,
      "half_plane": False}),
    (["--region", "tube", "--heights-list", "8, 12", "--width-factor", "2",
      "--phi", "1.2", "--delta", "0.05"],
     {"region": "tube", "heights_list": (8, 12), "width_factor": 2.0,
      "phi": 1.2, "delta": 0.05}),
    (["--threads", "2", "--samples", "300", "--verify-runs", "12",
      "--window-width", "16", "--window-height", "10", "--out", "run"],
     {"threads": 2, "samples": 300, "verify_runs": 12,
      "window_width": 16, "window_height": 10, "out": "run"}),
])
def test_flag_spellings(flags, expected):
    assert flag_config(*flags) == RunConfig(**expected)


def test_invalid_config_produces_no_output(tmp_path, capsys):
    out = tmp_path / "run"
    # t = 0.9 fails validation; t = 0 passes it, and the fire commands
    # refuse it by the config key t, not firesim.run's t_end.
    for args in (["simulate", "--t", "0.9"], ["simulate", "--t", "0"],
                 ["verify", "--t", "0"]):
        capsys.readouterr()
        assert cli.main(args + ["--out", str(out)]) == EXIT_CONFIG, args
        assert not out.exists()
        if args[-1] == "0":
            err = capsys.readouterr().err
            assert err.startswith(f"config error: t must be > 0 for {args[0]}"), err
    # Keys that RunConfig no longer has.
    cfg = tmp_path / "removed.cfg"
    for line in ("engine = walk", "t_end = 0.5", "samples_per_n = 300",
                 "model = exp", "synthetic = true"):
        cfg.write_text(line + "\n")
        capsys.readouterr()
        code = cli.main(["xiscan", "--out", str(out), "--config", str(cfg)])
        assert code == EXIT_CONFIG, line
        assert "unknown key" in capsys.readouterr().err
        assert not out.exists()
    for flags in (["--t-end", "0.5"], ["--samples-per-n", "300"],
                  ["--model", "exp"], ["--synthetic"], ["--no-events-a"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["xiscan", *flags, "--out", str(out)])
        assert exc.value.code == EXIT_CONFIG, flags
        assert not out.exists()


def test_flags_are_not_abbreviated(tmp_path):
    # "--samp" is no spelling of --samples.
    for args in (["onearm", "--samp", "5"], ["--vers"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(args + ["--out", str(tmp_path / "run")])
        assert exc.value.code == EXIT_CONFIG, args
    assert not (tmp_path / "run").exists()


def test_simulate_deterministic(tmp_path):
    args = ["simulate", "--seed", "5", "--window-width", "16",
            "--window-height", "10"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(out1)]) == EXIT_OK
    assert cli.main(args + ["--out", str(out2)]) == EXIT_OK
    assert digests(out1) == digests(out2)
    for name in digests(out1):
        assert file_hash(out1 / name) == digests(out1)[name]
    log = (out1 / "destruction_log.csv").read_text().splitlines()
    assert log[0] == "time,ignition_k,cluster_size,max_im,in_cone"


def test_simulate_creates_missing_directory(tmp_path):
    out = tmp_path / "deep" / "nested" / "dir"
    assert cli.main(["simulate", "--out", str(out), "--seed", "3",
                     "--window-width", "8", "--window-height", "6"]) == EXIT_OK
    assert (out / "manifest.json").exists()


def test_simulate_rejects_t_end_beyond_cap(tmp_path, capsys):
    code = cli.main(["simulate", "--out", str(tmp_path / "x"), "--t", "0.75"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "t_c" in err


@pytest.mark.parametrize("args", [
    ["heights", "--width-factor", "0"],
    ["heights", "--width-factor", "-1.5"],
    ["heights", "--width-factor", "inf"],
    ["events", "--x", "inf"],
    ["simulate", "--x", "nan"],
    ["xiscan", "--t-list", "nan,0.4,0.5,0.6"],
    ["xiscan", "--t-list", "0.4,0.5,inf"],
    ["xiscan", "--t-list=-5,-3,-1"],
    ["xiscan", "--t-list=-0.1,0.4,0.5"],
    ["xiscan", "--t-list="],
    ["xiscan", "--t-list", "0.5"],
])
def test_rejects_degenerate_width_factor_and_non_finite_x(tmp_path, capsys, args):
    out = tmp_path / "x"
    assert cli.main(args + ["--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("args, x", [
    (["events", "--n-list", "8", "--samples", "10"], 1e300),
    (["heights", "--heights-list", "8", "--samples", "3"], -1e300),
    (["onearm", "--n-list", "8", "--samples", "3"], 2 ** 31 + 1),
])
def test_rejects_huge_x(tmp_path, capsys, args, x):
    # A larger |x| than 2**31 is refused before any window is built.
    out = tmp_path / "x"
    assert cli.main(args + [f"--x={x}", "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert capsys.readouterr().err.startswith("config error: x must be")
    limit = math.copysign(2 ** 31, x)
    assert cli.main(args + [f"--x={limit}", "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("args, key", [
    (["onearm", "--n-list", "8,8"], "n_list"),
    (["onearm", "--n-list", "8,8,16"], "n_list"),
    (["events", "--n-list", "8,8,12"], "n_list"),
    (["xiscan", "--t-list", "0.4,0.5,0.50,0.6"], "t_list"),
    (["heights", "--heights-list", "8,8"], "heights_list"),
])
def test_rejects_repeated_list_entries(tmp_path, capsys, args, key):
    # A repeated entry would count one fit point twice or write one
    # window's results twice.
    out = tmp_path / "x"
    assert cli.main(args + ["--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert capsys.readouterr().err.startswith(
        f"config error: {key} must not repeat an entry")


def test_onearm_rejects_zero_samples(tmp_path):
    assert cli.main(["onearm", "--samples", "0",
                     "--out", str(tmp_path / "x")]) == EXIT_CONFIG


def test_onearm_writes_tables(tmp_path):
    out = tmp_path / "oa"
    code = cli.main(["onearm", "--out", str(out), "--seed", "2",
                     "--samples", "200", "--n-list", "3,5,8", "--t", "0.6"])
    assert code == EXIT_OK
    rows = (out / "onearm.csv").read_text().splitlines()
    assert rows[0] == "n,point,ci_low,ci_high,samples"
    assert len(rows) == 4
    report = json.loads((out / "onearm_fit.json").read_text())
    assert "loglog_fit" in report


def test_json_outputs_are_strict(tmp_path):
    # A 2-point fit has no slope standard error; strict JSON writes null.
    out = tmp_path / "oa2"
    code = cli.main(["onearm", "--out", str(out), "--seed", "2",
                     "--samples", "200", "--n-list", "4,8", "--t", "0.6"])
    assert code == EXIT_OK

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    text = (out / "onearm_fit.json").read_text()
    report = json.loads(text, parse_constant=reject)
    assert report["loglog_fit"]["slope_se"] is None
    assert report["loglog_fit"]["slope_ci"] == ["-inf", "inf"]


def test_events_reports_zero_violations(tmp_path):
    out = tmp_path / "ev"
    code = cli.main(["events", "--out", str(out), "--seed", "7",
                     "--samples", "150", "--n-list", "8,12"])
    assert code == EXIT_OK
    report = json.loads((out / "events_report.json").read_text())
    assert report["violations"]["A=>B"] == 0
    assert report["violations"]["C=>B"] == 0
    assert report["violations"]["B&!C=>D"] == 0
    rows = (out / "events.csv").read_text().splitlines()
    assert rows[0] == "n,A,B,C,D,samples"


def test_events_checks_every_n_before_sampling(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli.estimators, "coupled_event_stats",
                        lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "ev"
    code = cli.main(["events", "--n-list", "64,1", "--samples", "5",
                     "--out", str(out)])
    assert code == EXIT_CONFIG
    assert calls == []
    assert "n=1 too small" in capsys.readouterr().err
    assert not out.exists()


def test_heights_summary(tmp_path):
    out = tmp_path / "h"
    code = cli.main(["heights", "--out", str(out), "--seed", "4",
                     "--samples", "40", "--heights-list", "6"])
    assert code == EXIT_OK
    summary = json.loads((out / "heights_summary.json").read_text())
    window = summary["per_window"][0]
    assert set(window) == {"window_height", "samples", "exact_fraction",
                           "median_bracket", "median_bracket_ci",
                           "p90_bracket", "p90_bracket_ci"}
    assert window["samples"] == 40
    lo, hi = window["median_bracket_ci"]
    assert lo <= window["median_bracket"][0] <= window["median_bracket"][1] <= hi
    # heights.csv's per-sample brackets reproduce the summary.
    header, *rows = (out / "heights.csv").read_text().splitlines()
    assert header == "window_height,sample,lower,upper"
    lower = np.array([float(r.split(",")[2]) for r in rows])
    upper = np.array([float(r.split(",")[3]) for r in rows])
    assert len(rows) == 40
    assert window["exact_fraction"] == (lower == upper).mean()
    assert window["median_bracket"] == [
        float(np.quantile(xs, 0.5, method="inverted_cdf")) for xs in (lower, upper)]


def test_heights_refuses_a_clipped_cone(tmp_path, capsys):
    # At phi = 0.2 the cone's half-width at the top row, 68.4, exceeds
    # height_window(16)'s reach: exit 2 and no run directory.
    out = tmp_path / "h"
    code = cli.main(["heights", "--phi", "0.2", "--heights-list", "16",
                     "--samples", "20", "--seed", "3", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "too small for ConeRegion" in capsys.readouterr().err
    assert not out.exists()


def test_heights_refuses_a_clipped_tube(tmp_path, capsys):
    # At phi = 0.2 the tube's centreline sits at x = 68.4 on the top row,
    # beyond height_window(16)'s reach: exit 2 and no run directory.
    out = tmp_path / "h"
    code = cli.main(["heights", "--region", "tube", "--phi", "0.2",
                     "--heights-list", "16", "--samples", "20", "--seed", "3",
                     "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "too small for TubeRegion" in capsys.readouterr().err
    assert not out.exists()


def test_verify_passes_and_is_reproducible(tmp_path):
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    args = ["verify", "--seed", "6", "--verify-runs", "12"]
    assert cli.main(args + ["--out", str(out1)]) == EXIT_OK
    assert cli.main(args + ["--out", str(out2)]) == EXIT_OK
    assert (out1 / "verify_report.json").read_bytes() == \
        (out2 / "verify_report.json").read_bytes()
    report = json.loads((out1 / "verify_report.json").read_text())
    assert report["ok"] is True


def test_verify_honours_t_end(tmp_path):
    # The report records the fire check's window, horizon and a digest of
    # the checked runs' records, so a shorter horizon changes it.
    args = ["verify", "--seed", "6", "--verify-runs", "12"]
    assert cli.main(args + ["--out", str(tmp_path / "v")]) == EXIT_OK
    assert cli.main(args + ["--t", "0.5", "--out", str(tmp_path / "vt")]) == EXIT_OK
    full, short = ((tmp_path / d / "verify_report.json").read_bytes() for d in ("v", "vt"))
    assert full != short
    fire = [json.loads(r)["checks"][0] for r in (full, short)]
    assert [c["t_end"] for c in fire] == [cli.RunConfig().t, 0.5]
    assert fire[0]["window"] == fire[1]["window"] == [-12, 12, 0, 10]
    assert fire[0]["records_sha256"] != fire[1]["records_sha256"]


def test_verify_negative_control(tmp_path, capsys):
    out = tmp_path / "vc"
    code = cli.main(["verify", "--seed", "6", "--verify-runs", "12",
                     "--corrupt-streams", "--out", str(out)])
    assert code == EXIT_INVARIANT
    assert "invariant failure" in capsys.readouterr().err
    # Exit 5 still writes the run directory, with the failing report.
    assert json.loads((out / "verify_report.json").read_text())["ok"] is False
    assert digests(out) == {"verify_report.json": file_hash(out / "verify_report.json")}


def test_degenerate_fit_exits_4_without_output(tmp_path, capsys):
    # One sample per point: every one-arm estimate of the scan is zero.
    out = tmp_path / "x"
    code = cli.main(["xiscan", "--samples", "1", "--t-list", "0.1,0.2,0.3",
                     "--out", str(out)])
    assert code == EXIT_FIT
    assert "degenerate fit: all one-arm estimates are zero" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_round_trip(tmp_path):
    out = tmp_path / "m"
    assert cli.main(["simulate", "--out", str(out), "--seed", "1",
                     "--window-width", "8", "--window-height", "6"]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    again = json.loads(cli.json_text(manifest))
    assert manifest == again
    assert manifest["command"] == "simulate"
    assert manifest["config"]["seed"] == 1


def test_threads_do_not_change_results(tmp_path, monkeypatch):
    args = ["onearm", "--seed", "12", "--samples", "120", "--n-list", "3,5"]
    out1, out2, out3 = (tmp_path / n for n in ("t1", "t2", "t3"))
    assert cli.main(args + ["--out", str(out1), "--threads", "1"]) == EXIT_OK
    assert cli.main(args + ["--out", str(out2), "--threads", "2"]) == EXIT_OK
    monkeypatch.setenv("FIRELAB_THREADS", "2")
    assert cli.main(args + ["--out", str(out3)]) == EXIT_OK
    assert file_hash(out1 / "onearm.csv") == file_hash(out2 / "onearm.csv")
    assert file_hash(out1 / "onearm.csv") == file_hash(out3 / "onearm.csv")
    # The coupled sampler's chunks go through the pool too.
    events = ["events", "--n-list", "8,12"]
    ev1, ev2 = tmp_path / "e1", tmp_path / "e2"
    assert cli.main(events + ["--out", str(ev1), "--threads", "1"]) == EXIT_OK
    assert cli.main(events + ["--out", str(ev2), "--threads", "2"]) == EXIT_OK
    for name in ("events.csv", "events_report.json"):
        assert file_hash(ev1 / name) == file_hash(ev2 / name)
    # So do the fire runs of the heights samples.
    heights = ["heights", "--heights-list", "8,12", "--samples", "60"]
    h1, h2 = tmp_path / "h1", tmp_path / "h2"
    assert cli.main(heights + ["--out", str(h1), "--threads", "1"]) == EXIT_OK
    assert cli.main(heights + ["--out", str(h2), "--threads", "2"]) == EXIT_OK
    for name in ("heights.csv", "heights_summary.json"):
        assert file_hash(h1 / name) == file_hash(h2 / name)
    # And the one-arm points of an xi scan.
    xiscan = ["xiscan", "--seed", "9", "--samples", "300"]
    x1, x2 = tmp_path / "x1", tmp_path / "x2"
    assert cli.main(xiscan + ["--out", str(x1), "--threads", "1"]) == EXIT_OK
    assert cli.main(xiscan + ["--out", str(x2), "--threads", "2"]) == EXIT_OK
    for name in ("xiscan.csv", "xiscan_fit.json"):
        assert file_hash(x1 / name) == file_hash(x2 / name)


def test_format_config_round_trips():
    config = RunConfig(seed=77, n_list=(3, 9), phi=0.9)
    parsed = parse_config_text(format_config(config))
    assert RunConfig(**parsed) == config


def test_resolved_threads_capped_at_cpu_count(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    monkeypatch.delenv("FIRELAB_THREADS", raising=False)
    assert RunConfig(threads=10**6).resolved_threads() == 3
    assert RunConfig(threads=2).resolved_threads() == 2
    assert RunConfig().resolved_threads() == 1
    monkeypatch.setenv("FIRELAB_THREADS", str(10**6))
    assert RunConfig().resolved_threads() == 3


@pytest.mark.parametrize("flags, env", [
    (["--threads", "-1"], None),
    ([], "-3"),
    ([], "two"),
])
def test_bad_threads_exit_2(tmp_path, monkeypatch, flags, env):
    # A negative FIRELAB_THREADS is refused like a negative --threads.
    if env is None:
        monkeypatch.delenv("FIRELAB_THREADS", raising=False)
    else:
        monkeypatch.setenv("FIRELAB_THREADS", env)
    out = tmp_path / "o"
    assert cli.main(["onearm", *flags, "--samples", "4", "--n-list", "3",
                     "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_pool_built_only_for_sampling_commands(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise RuntimeError("worker pool started")

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(cli, "Pool", no_pool)
    assert cli.main(["simulate", "--threads", "2", "--seed", "3",
                     "--window-width", "8", "--window-height", "6",
                     "--out", str(tmp_path / "s")]) == EXIT_OK
    # onearm maps its samples, so it asks for the pool.
    assert cli.main(["onearm", "--threads", "2", "--samples", "4",
                     "--n-list", "3", "--out", str(tmp_path / "o")]) == EXIT_RUNTIME


def test_runtime_failure_prints_traceback(tmp_path, monkeypatch, capsys):
    def exploding_run(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.firesim, "run", exploding_run)
    code = cli.main(["simulate", "--out", str(tmp_path / "s")])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "runtime failure: boom" in err
    assert "Traceback" in err and "exploding_run" in err
    assert list(tmp_path.iterdir()) == []


def test_refuses_non_empty_out(tmp_path, capsys):
    out = tmp_path / "run"
    args = ["simulate", "--seed", "3", "--window-width", "8",
            "--window-height", "6", "--out", str(out)]
    assert cli.main(args) == EXIT_OK
    manifest = (out / "manifest.json").read_bytes()
    files = sorted(p.name for p in out.iterdir())
    capsys.readouterr()
    assert cli.main(args[:2] + ["4"] + args[3:]) == EXIT_CONFIG
    assert "not an empty directory" in capsys.readouterr().err
    assert (out / "manifest.json").read_bytes() == manifest
    assert sorted(p.name for p in out.iterdir()) == files


def test_failed_write_leaves_no_partial_run(tmp_path, monkeypatch):
    out = tmp_path / "run"
    out.mkdir()
    write_bytes = Path.write_bytes
    calls = []

    def failing_second_write(self, data):
        calls.append(self.name)
        if len(calls) == 2:
            raise OSError("disk full")
        return write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", failing_second_write)
    code = cli.main(["simulate", "--seed", "3", "--window-width", "8",
                     "--window-height", "6", "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert len(calls) == 2
    assert list(out.iterdir()) == []
    assert list(tmp_path.iterdir()) == [out]


def test_refuses_working_directory_as_out(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--out", "."]) == EXIT_CONFIG
    assert "working directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
