"""Tests of the benchmark itself; run with ``python3 -m pytest bench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
_RUNS = {}


def run(workload, trace, root=ROOT):
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)


def smoke(workload, trace):
    """(report, result) of a smoke run, run once per test session."""
    if (workload, trace) not in _RUNS:
        done = run(workload, trace)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        _RUNS[workload, trace] = json.loads(lines[-2]), json.loads(lines[-1])
    return _RUNS[workload, trace]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, kind):
    report, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["failures"]
    assert result["attempted"] >= 3
    assert 0 <= result["failed"] <= result["attempted"]
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    wall = report["wall_clock"]
    assert {name: wall[name]["unit"] for name in ("op_p50_s", "ops_per_s", "fail_frac")} == {
        "op_p50_s": "s", "ops_per_s": "1/s", "fail_frac": "fraction"}
    assert wall["op_p50_s"]["samples"] == result["attempted"]
    assert wall["fail_frac"]["value"] == result["failed"] / result["attempted"]
    if result["attempted"] >= 40:
        assert wall["op_tail_s"]["unit"] == "s" and wall["op_tail_s"]["percentile"] >= 75
    assert report["provenance"]["seed"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_timing_only(workload):
    untraced, _ = smoke(workload, 0)
    traced, _ = smoke(workload, 1)
    assert traced["traced_matches_untraced"] is True
    assert traced["missing_boundaries"] == []
    assert traced["results_digest"] == untraced["results_digest"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run(WORKLOADS[0], 0, root=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
