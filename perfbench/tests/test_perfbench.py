"""Self-test of the benchmark harness.

Runs a tiny version of every workload in ``BENCHMARK.json``, measured and
traced, through the same entry point and code path as a real run, and checks
that every named metric is emitted with its unit, that no operation failed,
and that the traced run attributes nearly all of its wall time to layers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

#: Largest share of the traced wall time the layers may leave unattributed.
MAX_UNATTRIBUTED_SHARE = 0.15


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
         "--setup-samples", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(workload: str, trace: int) -> dict:
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0, completed.stderr
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result


def _units(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_measured_run_emits_every_end_to_end_metric(workload):
    metrics = _result(workload, trace=0)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())
    assert metrics["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_attributes_its_wall_time(workload):
    metrics = _result(workload, trace=1)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _units("per_layer")
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["trace.missing_entry_points"] == 0
    assert value["streams.rows"] > 0
    assert value["detectors.rows"] > 0
    assert value["metrics.rows"] > 0
    assert value["classifiers.builds"] >= 1
    share = abs(value["unattributed.s"]) / value["traced_wall.s"]
    assert share < MAX_UNATTRIBUTED_SHARE
    checkpoints = value["evaluation.checkpoints"]
    if workload == "exact-checkpoint":
        assert checkpoints > 0 and value["evaluation.checkpoint_bytes"] > 0
    else:
        assert checkpoints == 0
    if workload == "batch-imbalance":
        assert value["evaluation.rollbacks"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    completed = _run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
