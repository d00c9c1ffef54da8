"""Mid-cell checkpoint/resume through the protocol pipeline and CLI.

The acceptance scenario of the snapshot/restore PR: SIGKILL the CLI while it
is *inside* a cell (a mid-cell checkpoint exists, no record yet), re-invoke,
and the pipeline must resume that cell from its runner checkpoint — finishing
with records key-for-key identical (timings aside) to a run that was never
killed, and with the checkpoint side-area empty again.

Also pinned here: the checkpoint side-area contract of the results store —
checkpoints live under ``<root>/checkpoints/`` and are invisible to the
record namespace (``records()``, ``statuses()``, ``keys()``).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.evaluation.checkpoint import RunnerCheckpoint
from repro.protocol.pipeline import ProtocolPipeline
from repro.protocol.spec import ProtocolSpec
from repro.protocol.store import ResultsStore

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Record fields that legitimately differ between two executions of the same
#: cell (timing); everything else must match key-for-key.
_VOLATILE = ("wall_time", "detector_time", "classifier_time")


def _stable(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in _VOLATILE}


# ---------------------------------------------------------- store side-area
#: Each side-area test runs on the live store and again after a compaction
#: (plus a fresh instance, as the resuming process would open it): folding
#: segments into the index must neither touch nor expose checkpoints.
LAYOUTS = ("live", "compacted")


def _settle(store: ResultsStore, layout: str) -> ResultsStore:
    if layout == "live":
        return store
    store.compact()
    return ResultsStore(store.root)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_checkpoint_side_area_roundtrip(tmp_path, layout):
    store = ResultsStore(tmp_path / "store")
    payload = {"kind": "RunnerCheckpoint", "version": 1, "produced": 256}

    assert store.get_checkpoint("cell/a:1") is None
    path = store.checkpoint_path_for("cell/a:1")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload), encoding="utf-8")
    store = _settle(store, layout)
    assert store.checkpoint_path_for("cell/a:1") == path
    assert store.get_checkpoint("cell/a:1") == payload

    # Path separators are flattened exactly like record keys are.
    assert path.name == "cell_a:1.json"
    assert path.parent.name == "checkpoints"

    assert store.discard_checkpoint("cell/a:1")
    assert store.get_checkpoint("cell/a:1") is None
    assert not store.discard_checkpoint("cell/a:1")  # idempotent


@pytest.mark.parametrize("layout", LAYOUTS)
def test_checkpoints_are_invisible_to_the_record_namespace(tmp_path, layout):
    store = ResultsStore(tmp_path / "store")
    store.put("done-cell", {"status": "ok", "pmauc": 0.5})
    path = store.checkpoint_path_for("half-done-cell")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text('{"kind": "RunnerCheckpoint"}', encoding="utf-8")
    store = _settle(store, layout)

    assert store.keys() == ["done-cell"]
    assert dict(store.records()) == {"done-cell": {"status": "ok", "pmauc": 0.5}}
    assert store.statuses() == {"done-cell": True}
    assert "half-done-cell" not in store
    # ...but the checkpoint is still there for the resuming runner.
    assert store.get_checkpoint("half-done-cell") is not None


@pytest.mark.parametrize("layout", LAYOUTS)
def test_corrupt_checkpoint_reads_as_absent(tmp_path, layout):
    store = ResultsStore(tmp_path / "store")
    path = store.checkpoint_path_for("cell")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{not json", encoding="utf-8")
    store = _settle(store, layout)
    assert store.get_checkpoint("cell") is None
    assert store.discard_checkpoint("cell")  # cleanup still works


# ------------------------------------------------------------ CLI SIGKILL
def _cli_run(store: Path, *extra: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.protocol",
            "run",
            "--preset",
            "quick",
            "--store",
            str(store),
            "--backend",
            "serial",
            *extra,
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
        timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"CLI failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}"
        )
    return proc


def test_sigkill_mid_cell_resumes_from_runner_checkpoint(tmp_path):
    """Kill inside a cell; the rerun must finish that cell mid-stream."""
    reference_store = tmp_path / "reference"
    _cli_run(reference_store)
    reference = dict(ResultsStore(reference_store).records())

    store = tmp_path / "results"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.protocol",
            "run",
            "--preset",
            "quick",
            "--store",
            str(store),
            "--backend",
            "serial",
            "--checkpoint-every",
            "100",
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    checkpoints = store / "checkpoints"

    def durable_checkpoints() -> list[Path]:
        # In-flight atomic-write temp files (.tmp-*) are not checkpoints; a
        # SIGKILL can strand one, exactly like it can in the record area.
        return [
            path
            for path in checkpoints.glob("*.json")
            if not path.name.startswith(".tmp-")
        ]

    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if durable_checkpoints():
                break
            if proc.poll() is not None:
                break
            time.sleep(0.002)
        else:
            pytest.fail("no mid-cell checkpoint appeared within the deadline")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    survivors = durable_checkpoints()
    if not survivors:
        pytest.skip("run finished before the kill landed; resume not observable")

    out = _cli_run(store, "--checkpoint-every", "100")
    assert "2 completed, 0 failed, 0 pending" in out.stdout

    resumed = dict(ResultsStore(store).records())
    assert sorted(resumed) == sorted(reference)
    for key, record in reference.items():
        assert _stable(resumed[key]) == _stable(record), key
    # Completed cells tidy up after themselves.
    assert not durable_checkpoints()


def test_checkpointed_run_matches_plain_run(tmp_path):
    """--checkpoint-every must not change any result, kill or no kill."""
    plain = tmp_path / "plain"
    _cli_run(plain)
    checkpointed = tmp_path / "checkpointed"
    _cli_run(checkpointed, "--checkpoint-every", "100")

    plain_records = dict(ResultsStore(plain).records())
    checkpointed_records = dict(ResultsStore(checkpointed).records())
    assert sorted(plain_records) == sorted(checkpointed_records)
    for key, record in plain_records.items():
        assert _stable(checkpointed_records[key]) == _stable(record), key
    assert not list((checkpointed / "checkpoints").glob("*.json"))


# ------------------------------------------------- stream layout versions
class _Killed(BaseException):
    """Escapes the per-cell error handling, as a SIGKILL would."""


#: Snapshot kinds whose state layout changed when the schedule engine's
#: samplers started buffering payload rows instead of feature rows.
_PAYLOAD_KINDS = ("ScheduledStream", "ClassConditionalSampler")


def _as_version_1(node) -> int:
    """Relabel every payload-layout snapshot inside ``node`` as version 1."""
    relabelled = 0
    if isinstance(node, dict):
        if node.get("kind") in _PAYLOAD_KINDS and "version" in node:
            node["version"] = 1
            relabelled += 1
        for value in node.values():
            relabelled += _as_version_1(value)
    elif isinstance(node, list):
        for value in node:
            relabelled += _as_version_1(value)
    return relabelled


@pytest.mark.parametrize("stream_version", ["current", "v1"])
def test_stream_checkpoint_of_another_layout_reruns_the_cell(
    tmp_path, monkeypatch, stream_version
):
    """A version-1 stream checkpoint is refused before it mutates anything.

    Version 1 buffered feature rows where the engine now buffers payload
    rows, so applying one would feed raw uniforms in as features.  The
    cell must rerun from scratch instead, and its record must equal an
    uninterrupted run's.  The current version resumes as usual.
    """
    spec = ProtocolSpec.quick()
    ProtocolPipeline(spec, tmp_path / "reference").run(backend="serial")
    reference = dict(ResultsStore(tmp_path / "reference").records())

    store = tmp_path / "results"
    real_save = RunnerCheckpoint.save

    def dying_save(self, target):
        real_save(self, target)
        raise _Killed()

    monkeypatch.setattr(RunnerCheckpoint, "save", dying_save)
    with pytest.raises(_Killed):
        ProtocolPipeline(spec, store).run(backend="serial", checkpoint_every=100)
    monkeypatch.undo()
    [path] = (store / "checkpoints").glob("*.json")
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert 0 < payload["produced"] < spec.n_instances
    if stream_version == "v1":
        # The stream itself plus at least one sampler snapshot inside it.
        assert _as_version_1(payload["stream"]) >= 2
        path.write_text(json.dumps(payload), encoding="utf-8")

    applied = []
    real_apply = RunnerCheckpoint.apply

    def spying_apply(self, *args):
        applied.append(self.produced)
        return real_apply(self, *args)

    monkeypatch.setattr(RunnerCheckpoint, "apply", spying_apply)
    ProtocolPipeline(spec, store).run(backend="serial", checkpoint_every=100)
    assert applied == ([] if stream_version == "v1" else [payload["produced"]])

    resumed = dict(ResultsStore(store).records())
    assert sorted(resumed) == sorted(reference)
    for key, record in reference.items():
        assert _stable(resumed[key]) == _stable(record), key
