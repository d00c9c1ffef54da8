"""End-to-end tests of the ``python -m repro.protocol`` command line.

Includes the acceptance scenario: a run killed mid-flight (SIGKILL, so
nothing can clean up) is re-invoked and completes by re-running only the
unfinished cells.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.jsonio import dumps_strict
from repro.protocol.store import ResultsStore

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_cli(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.protocol", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
        timeout=300,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"CLI failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}"
        )
    return proc


def test_run_status_report_round_trip(tmp_path):
    store = tmp_path / "results"
    out = run_cli(
        "run", "--preset", "quick", "--store", str(store), "--backend", "serial"
    )
    assert "2 executed" in out.stdout
    assert "2 completed" in out.stdout

    status = run_cli("status", "--preset", "quick", "--store", str(store))
    assert "2 completed, 0 failed, 0 pending" in status.stdout

    report = run_cli(
        "report", "--preset", "quick", "--store", str(store), "--control", "RBM-IM"
    )
    assert "== pmauc ==" in report.stdout
    assert "scenario1-Rbf5" in report.stdout
    assert "ranks" in report.stdout


def test_rerun_uses_cache(tmp_path):
    store = tmp_path / "results"
    run_cli("run", "--preset", "quick", "--store", str(store), "--backend", "serial")
    again = run_cli(
        "run", "--preset", "quick", "--store", str(store), "--backend", "serial"
    )
    assert "2 cached, 0 executed" in again.stdout


def test_spec_subcommand_emits_editable_json(tmp_path):
    out = run_cli("spec", "--preset", "quick")
    spec = json.loads(out.stdout)
    assert spec["name"] == "quick"

    # The emitted JSON is directly usable as --spec input.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(out.stdout, encoding="utf-8")
    store = tmp_path / "results"
    run_cli(
        "run",
        "--spec",
        str(spec_path),
        "--store",
        str(store),
        "--backend",
        "serial",
        "--max-cells",
        "1",
    )
    status = run_cli(
        "status", "--spec", str(spec_path), "--store", str(store), check=False
    )
    assert "1 completed, 0 failed, 1 pending" in status.stdout
    assert status.returncode == 2  # "not done yet" exit code


def test_missing_spec_selection_is_an_error(tmp_path):
    """No silent default: forgetting --preset must not start the paper run."""
    out = run_cli("run", "--store", str(tmp_path / "results"), check=False)
    assert out.returncode != 0
    assert "pass --spec" in out.stderr
    assert not (tmp_path / "results").exists()


def test_batch_mode_is_a_two_way_override(tmp_path):
    out = run_cli("run", "--help")
    assert "--no-batch-mode" in out.stdout


def test_execution_mode_overrides_shared_by_all_subcommands(tmp_path):
    """A store produced under --batch-mode is visible to status/report
    invoked with the same override (the flags are part of every cell key)."""
    store = tmp_path / "results"
    run_cli(
        "run", "--preset", "quick", "--store", str(store),
        "--backend", "serial", "--batch-mode",
    )
    status = run_cli(
        "status", "--preset", "quick", "--store", str(store), "--batch-mode"
    )
    assert "2 completed, 0 failed, 0 pending" in status.stdout
    report = run_cli(
        "report", "--preset", "quick", "--store", str(store), "--batch-mode"
    )
    assert "== pmauc ==" in report.stdout
    # Without the override the same store is (correctly) a different run.
    plain = run_cli(
        "status", "--preset", "quick", "--store", str(store), check=False
    )
    assert "0 completed, 0 failed, 2 pending" in plain.stdout


def test_status_on_empty_store_reports_all_pending(tmp_path):
    status = run_cli(
        "status",
        "--preset",
        "quick",
        "--store",
        str(tmp_path / "results"),
        check=False,
    )
    assert "0 completed, 0 failed, 2 pending" in status.stdout
    assert status.returncode == 2


def test_report_on_empty_store_fails_gracefully(tmp_path):
    report = run_cli(
        "report",
        "--preset",
        "quick",
        "--store",
        str(tmp_path / "results"),
        check=False,
    )
    assert report.returncode == 2
    assert "no completed cells" in report.stderr


def test_cluster_backend_choice_is_a_usage_error(tmp_path):
    """Three local backends: asking for a cluster is rejected up front,
    before anything touches the store."""
    store = tmp_path / "results"
    out = run_cli(
        "run", "--preset", "quick", "--store", str(store),
        "--backend", "cluster", check=False,
    )
    assert out.returncode == 2
    assert "invalid choice: 'cluster'" in out.stderr
    assert not store.exists()


#: The complete option surface of the subcommands that touch the store:
#: one store format and local backends only, so no format or cluster knobs.
_OPTIONS = {
    "run": {
        "--help", "--spec", "--preset", "--chunk-size", "--batch-mode",
        "--no-batch-mode", "--store", "--workers", "--backend",
        "--max-cells", "--no-retry-failed", "--checkpoint-every", "--quiet",
    },
    "compact": {"--help", "--store"},
}


@pytest.mark.parametrize("command", sorted(_OPTIONS))
def test_subcommand_options_are_exactly_the_supported_set(command):
    from repro.protocol.__main__ import _build_parser

    (subparsers,) = [
        action
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        option
        for action in subparsers.choices[command]._actions
        for option in action.option_strings
        if option.startswith("--")
    }
    assert options == _OPTIONS[command]


def test_legacy_json_store_is_refused_until_compact_imports_it(tmp_path):
    """A store in the legacy one-file-per-cell layout: every subcommand but
    ``compact`` refuses it, without touching it; ``compact`` imports it, and
    from then on it is fully cached and reports byte-identically."""
    store = tmp_path / "results"
    run_cli("run", "--preset", "quick", "--store", str(store), "--backend", "serial")
    legacy = tmp_path / "legacy"
    legacy.mkdir()
    for key, record in ResultsStore(store).records():
        (legacy / f"{key}.json").write_text(
            dumps_strict(record, indent=2, sort_keys=True), encoding="utf-8"
        )

    for command in ("run", "status", "report"):
        out = run_cli(
            command, "--preset", "quick", "--store", str(legacy), check=False
        )
        assert out.returncode != 0, command
        flattened = " ".join(out.stderr.split())
        assert f"python -m repro.protocol compact --store {legacy}" in flattened
        assert sorted(path.name for path in legacy.iterdir()) == sorted(
            f"{key}.json" for key in ResultsStore(store).keys()
        ), command

    compact = run_cli("compact", "--store", str(legacy))
    assert "compacted 2 records" in compact.stdout
    again = run_cli(
        "run", "--preset", "quick", "--store", str(legacy), "--backend", "serial"
    )
    assert "2 cached, 0 executed" in again.stdout

    # Compacting the original store changes its layout, not its answers.
    compact = run_cli("compact", "--store", str(store))
    assert "compacted 2 records" in compact.stdout
    assert (store / "index.sqlite").is_file()
    assert not list((store / "segments").iterdir())
    report = run_cli("report", "--preset", "quick", "--store", str(store))
    imported = run_cli("report", "--preset", "quick", "--store", str(legacy))
    assert imported.stdout == report.stdout


#: Record fields that legitimately differ between two executions of the
#: same cell (timing); everything else must match key-for-key.
_VOLATILE = ("wall_time", "detector_time", "classifier_time")


def _stable(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in _VOLATILE}


def test_killed_run_resumes_by_skipping_completed_cells(tmp_path):
    """SIGKILL the CLI after the first record lands (possibly mid-append:
    the torn segment tail must read as absent, not corrupt the store);
    re-invoke; only the unfinished cell runs, and the recovered record set
    equals an uninterrupted run's key-for-key, modulo timing fields."""
    store = tmp_path / "results"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.protocol", "run",
            "--preset", "quick",
            "--store", str(store),
            "--backend", "serial",
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )

    def completed_keys() -> list[str]:
        return ResultsStore(store).keys()

    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if completed_keys():
                break
            if proc.poll() is not None:
                break
            time.sleep(0.005)
        else:
            pytest.fail("no record appeared within the deadline")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    survivors = completed_keys()
    if len(survivors) >= 2:
        pytest.skip("run finished before the kill landed; resume not observable")
    assert len(survivors) == 1
    (done_key,) = survivors
    first_record = ResultsStore(store).get(done_key)

    # Re-invoke: only the unfinished cell runs; the survivor is served from
    # the store untouched (timings included, so a recompute would show).
    out = run_cli(
        "run", "--preset", "quick", "--store", str(store), "--backend", "serial"
    )
    assert "1 cached, 1 executed" in out.stdout
    assert "2 completed, 0 failed, 0 pending" in out.stdout
    assert ResultsStore(store).get(done_key) == first_record

    # Key-for-key parity with an uninterrupted run of the same spec.
    reference = tmp_path / "reference"
    run_cli(
        "run", "--preset", "quick", "--store", str(reference),
        "--backend", "serial",
    )
    expected = dict(ResultsStore(reference).records())
    recovered = ResultsStore(store)
    assert recovered.keys() == sorted(expected)
    for key, record in expected.items():
        assert _stable(recovered.get(key)) == _stable(record)
