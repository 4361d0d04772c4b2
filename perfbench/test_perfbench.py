"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

from firelab import clocks, estimators, percolation  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCES = json.loads(run.REFERENCES.read_text(encoding="utf-8"))


def _perturb(reference: dict) -> dict:
    bad = copy.deepcopy(reference)
    key = next(iter(bad))
    value = bad[key]
    bad[key] = value + 1 if isinstance(value, int) else "not-" + value
    return bad


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_reference_checks_pass_and_negative_control_fails(name):
    workload = WORKLOADS[name]()
    workload.warm_up()
    loop = run.timed_loop(workload, run.REFERENCE_SEED, 0.0)
    checks, _ = run.run_checks(workload, run.REFERENCE_SEED, loop["results"], REFERENCES)
    assert any(n.startswith("reference:") for n, _, _ in checks)
    assert [n for n, ok, _ in checks if not ok] == []

    perturbed = dict(REFERENCES, **{name: _perturb(REFERENCES[name])})
    checks, _ = run.run_checks(workload, run.REFERENCE_SEED, loop["results"], perturbed)
    failed = [n for n, ok, _ in checks if not ok]
    assert len(failed) == 1 and failed[0].startswith("reference:")


def test_tracing_leaves_results_and_functions_unchanged():
    workload = WORKLOADS["events-coupled"]()
    originals = (clocks.uniform, percolation.first_connection_time,
                 estimators.first_connection_time)
    _, plain = workload.run_round(5, 0)
    with Tracer() as tracer:
        n, traced = workload.run_round(5, 0)
    assert traced == plain
    assert (clocks.uniform, percolation.first_connection_time,
            estimators.first_connection_time) == originals
    assert tracer.sample == n - 1
    assert all(s is not None for s in tracer.spans)
    metrics = {m[0]: m[1] for m in layer_metrics(tracer, 10**9, n)}
    assert metrics["firesim.grows_per_sample"] > 0
    assert metrics["percolation.first_connection_us_per_sample"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "xiscan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (Path(tmp_path) / ".bench_out").exists()
