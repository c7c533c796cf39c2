"""Tests of the benchmark itself: metric names, the harness and the tracer.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spantrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_are_valid_and_within_limits():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_self_time_subtracts_the_union_of_children_across_threads():
    spans = [
        ["cli._mean_risks", 0.0, 10.0, -1, 1, {}],
        ["cli.pool_job", 1.0, 6.0, 0, 2, {}],   # two workers overlap
        ["cli.pool_job", 2.0, 8.0, 0, 3, {}],
        ["linalg.svd", 2.0, 5.0, 1, 2, {}],
    ]
    assert spantrace.self_times(spans) == [3.0, 2.0, 6.0, 3.0]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_traced_run_end_to_end(name):
    result, record = run.run_workload(name, seed=3, seconds=0, trace=True,
                                      size="tiny", importtime_n=1)
    assert result["correct"], record["failures"]
    assert result["attempted"] == 2 * len(WORKLOADS[name](3).commands)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.coverage"] >= 0.9
    assert metrics["estimator.fit.calls"] >= 1
    if name == "ratecheck-unstructured":
        assert metrics["cli.pool.busy_ratio"] > 0
    if name == "cli-pipeline":
        assert metrics["select.fits"] > 0
        assert metrics["cli.read_matrix.bytes"] > 0


def test_tiny_untraced_run_end_to_end():
    result, record = run.run_workload("cli-pipeline", seed=3, seconds=0,
                                      trace=False, size="tiny", setup_n=2)
    assert result["correct"], record["failures"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert len(record["setup_samples_s"]) == 2
    assert record["provenance"]["seed"] == 3
    assert set(record["commands"]) == {"simulate_s", "fit_s", "select_s"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
         "cli-pipeline", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
