"""The results store: round-trips, crashes, compaction, legacy import, speed.

The store's contract is brutal on purpose: *any* visible record is complete
and parseable, *any* interrupted write (torn segment tail, stray tmp file,
killed compaction) is invisible or redundant, never corrupting.  Hypothesis
drives arbitrary JSON-shaped records through write -> (simulated crash) ->
reload cycles to hold it to that.  Also pinned: ``statuses()`` answers from
the index without parsing per-cell files, and a legacy one-file-per-cell
JSON store is refused until ``compact`` imports it, after which it serves
the very same records.
"""

from __future__ import annotations

import gc
import json
import os
import sqlite3
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.jsonio import dumps_strict
from repro.protocol.pipeline import ProtocolPipeline
from repro.protocol.spec import ProtocolSpec
from repro.protocol.store import ResultsStore

# JSON-representable values (round-trippable: no NaN, no non-string keys).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
)
_json_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=15), children, max_size=5),
    ),
    max_leaves=20,
)
_records = st.dictionaries(st.text(max_size=20), _json_values, max_size=8)
_keys = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=".-_"
    ),
    min_size=1,
    max_size=60,
)

#: Record fields that legitimately differ between two executions of the
#: same cell (timing); everything else must match key-for-key.
_VOLATILE = ("wall_time", "detector_time", "classifier_time")


def _stable(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in _VOLATILE}


def quick_spec() -> ProtocolSpec:
    spec = ProtocolSpec.quick()
    spec.n_instances = 400
    spec.window_size = 100
    spec.pretrain_size = 50
    spec.drift_tolerance = 200
    spec.__post_init__()
    return spec


# --------------------------------------------------------------- round trips
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(key=_keys, record=_records)
def test_round_trip(tmp_path_factory, key, record):
    store = ResultsStore(tmp_path_factory.mktemp("store"))
    store.put(key, record)
    assert key in store
    assert store.get(key) == record
    # A fresh store over the same directory (process-restart analogue) sees
    # the identical record — before AND after compaction.
    assert ResultsStore(store.root).get(key) == record
    store.compact()
    reopened = ResultsStore(store.root)
    assert reopened.get(key) == record
    assert reopened.keys() == [key]


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(first=_records, second=_records)
def test_put_overwrites_last_wins_across_compaction(tmp_path_factory, first, second):
    store = ResultsStore(tmp_path_factory.mktemp("store"))
    store.put("cell", first)
    store.compact()
    store.put("cell", second)  # segment overlays the index
    assert store.get("cell") == second
    assert len(store) == 1
    store.compact()
    assert store.get("cell") == second


# ------------------------------------------------------- corruption tolerance
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(record=_records, cut=st.integers(min_value=1, max_value=400))
def test_torn_segment_tail_reads_as_absent(tmp_path_factory, record, cut):
    """SIGKILL mid-append leaves a torn last line: that record (and only
    that record) reads as absent; earlier lines in the segment survive."""
    store = ResultsStore(tmp_path_factory.mktemp("store"))
    store.put("intact", {"v": 1})
    segment = store.put("victim", record)
    store.close()

    payload = segment.read_bytes()
    intact_len = payload.index(b"\n") + 1
    torn = payload[: max(intact_len, len(payload) - cut)]
    segment.write_bytes(torn)

    reloaded = ResultsStore(store.root)
    assert reloaded.get("intact") == {"v": 1}
    victim = reloaded.get("victim")
    # Truncation that only ate the trailing newline leaves a complete record.
    assert victim is None or victim == record
    if victim is None:
        assert "victim" not in reloaded.statuses()
        # The pipeline's response is to recompute and re-put: that heals it.
        reloaded.put("victim", record)
        assert reloaded.get("victim") == record


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(record=_records)
def test_stray_tmp_files_are_invisible(tmp_path_factory, record):
    """A crash between tmp-write and rename (of spec.json or of a compacted
    index) leaves no phantom records — and no legacy-store refusal."""
    store = ResultsStore(tmp_path_factory.mktemp("store"))
    store.put("done", record)
    half = json.dumps(record)[: len(json.dumps(record)) // 2]
    (store.root / ".tmp-deadbeef.json").write_text(half, encoding="utf-8")
    (store.root / ".tmp-cafef00d.sqlite").write_bytes(b"half a database")

    reopened = ResultsStore(store.root)
    assert reopened.keys() == ["done"]
    assert dict(reopened.records()) == {"done": record}
    reopened.compact()  # ...which also sweeps the strays away
    assert dict(reopened.records()) == {"done": record}
    assert not list(reopened.root.glob(".tmp-*"))


def test_mid_segment_garbage_is_skipped(tmp_path):
    store = ResultsStore(tmp_path / "store")
    segment = store.put("a", {"v": 1})
    store.close()
    with open(segment, "ab") as handle:
        handle.write(b"\x00\xffnot json at all\n")
        handle.write(b'{"k": 42, "r": {"bad": "key type"}}\n')
        handle.write(b'["not", "an", "object"]\n')
    store.put("b", {"v": 2})
    assert dict(store.records()) == {"a": {"v": 1}, "b": {"v": 2}}
    store.compact()
    assert dict(store.records()) == {"a": {"v": 1}, "b": {"v": 2}}


def test_unreadable_index_is_treated_as_absent_not_fatal(tmp_path):
    store = ResultsStore(tmp_path / "store")
    store.put("a", {"v": 1})
    store.compact()
    store.index_path.write_bytes(b"this is not a sqlite database")
    reloaded = ResultsStore(store.root)
    assert reloaded.get("a") is None  # absent, like any corrupt record
    reloaded.put("a", {"v": 2})  # recompute-and-heal still works...
    assert reloaded.get("a") == {"v": 2}
    reloaded.compact()  # ...and compaction rebuilds a valid index
    assert ResultsStore(store.root).get("a") == {"v": 2}


# ------------------------------------------------------- killed compactions
def test_kill_before_index_replace_loses_nothing(tmp_path, monkeypatch):
    """Dying before os.replace leaves the old store fully intact."""
    store = ResultsStore(tmp_path / "store")
    records = {f"k{i}": {"v": i} for i in range(5)}
    store.put_many(records.items())
    store.compact()
    store.put("k5", {"v": 5})
    records["k5"] = {"v": 5}

    real_replace = os.replace

    def dies(src, dst):
        raise KeyboardInterrupt("simulated kill mid-compaction")

    monkeypatch.setattr(os, "replace", dies)
    with pytest.raises(KeyboardInterrupt):
        store.compact()
    monkeypatch.setattr(os, "replace", real_replace)

    reloaded = ResultsStore(store.root)
    assert dict(reloaded.records()) == records
    reloaded.compact()  # the stray tmp database is cleaned up here
    assert dict(reloaded.records()) == records
    assert not list(reloaded.root.glob(".tmp-*"))
    assert not list((reloaded.root / "segments").iterdir())


def test_kill_between_replace_and_segment_unlink_dedupes(tmp_path, monkeypatch):
    """Dying after the new index is visible but before the folded segments
    are unlinked leaves duplicates that reads dedupe and compaction removes."""
    store = ResultsStore(tmp_path / "store")
    records = {f"k{i}": {"v": i} for i in range(5)}
    store.put_many(records.items())

    real_unlink = os.unlink
    index_name = store.index_path.name

    def dies(path, *args, **kwargs):
        if str(path).endswith(".jsonl"):
            raise KeyboardInterrupt("simulated kill mid-compaction")
        return real_unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "unlink", dies)
    with pytest.raises(KeyboardInterrupt):
        store.compact()
    monkeypatch.setattr(os, "unlink", real_unlink)

    # Index and segments now both hold every record; the merge dedupes.
    reloaded = ResultsStore(store.root)
    assert (reloaded.root / index_name).is_file()
    assert list((reloaded.root / "segments").iterdir())
    assert dict(reloaded.records()) == records

    reloaded.compact()
    assert dict(reloaded.records()) == records
    assert not list((reloaded.root / "segments").iterdir())


# ------------------------------------------------------------ legacy import
def test_legacy_json_store_is_refused_then_imported_by_compact(tmp_path):
    """A pipeline run laid out as a legacy ``<key>.json`` store: opening it
    is refused with the compact hint; after compaction it serves the same
    keys, records and report input, and the legacy files stay untouched."""
    spec = quick_spec()
    reference = ResultsStore(tmp_path / "reference")
    ProtocolPipeline(spec, reference).run(backend="serial")

    # The legacy layout: one <key>.json per cell, as the old store wrote it.
    legacy_root = tmp_path / "legacy"
    legacy_root.mkdir()
    for key, record in reference.records():
        (legacy_root / f"{key}.json").write_text(
            dumps_strict(record, indent=2, sort_keys=True), encoding="utf-8"
        )
    (legacy_root / "spec.json").write_text(spec.to_json(), encoding="utf-8")
    legacy_files = {
        path.name: path.read_bytes() for path in legacy_root.glob("*.json")
    }

    hint = f"python -m repro.protocol compact --store {legacy_root}"
    with pytest.raises(ValueError, match="legacy") as refused:
        ResultsStore(legacy_root)
    assert hint in str(refused.value)
    with pytest.raises(ValueError, match="legacy"):
        ProtocolPipeline(spec, legacy_root)

    imported = ResultsStore.compact_at(legacy_root)
    assert imported.keys() == reference.keys()
    assert dict(imported.records()) == dict(reference.records())
    assert (
        ProtocolPipeline(spec, legacy_root).completed_records()
        == ProtocolPipeline(spec, reference).completed_records()
    )
    assert ProtocolPipeline(spec, legacy_root).run(backend="serial").n_executed == 0
    # Read-only import: every legacy file is still there, byte for byte.
    assert {
        path.name: path.read_bytes() for path in legacy_root.glob("*.json")
    } == legacy_files


def test_segment_record_beats_legacy_record_for_the_same_key(tmp_path):
    root = tmp_path / "store"
    store = ResultsStore(root)
    store.put("cell", {"v": "segment"})
    store.close()
    (root / "cell.json").write_text('{"v": "legacy"}', encoding="utf-8")
    (root / "other.json").write_text('{"v": "legacy"}', encoding="utf-8")

    imported = ResultsStore.compact_at(root)
    assert dict(imported.records()) == {
        "cell": {"v": "segment"},
        "other": {"v": "legacy"},
    }
    # Once indexed, legacy files are ignored: a late one neither shows up
    # nor triggers the refusal.
    (root / "late.json").write_text('{"v": "legacy"}', encoding="utf-8")
    assert ResultsStore(root).keys() == ["cell", "other"]


def test_legacy_import_reads_nan_and_skips_corrupt_records(tmp_path):
    """Legacy records written before the strict-JSON fix still import (as
    strict ``null``); a corrupt one is absent, as it always read."""
    root = tmp_path / "legacy"
    root.mkdir()
    (root / "old.json").write_text('{"wall_time": NaN}', encoding="utf-8")
    (root / "torn.json").write_text('{"wall_ti', encoding="utf-8")

    imported = ResultsStore.compact_at(root)
    assert dict(imported.records()) == {"old": {"wall_time": None}}
    assert imported.statuses() == {"old": True}


@pytest.mark.parametrize(
    "name", ["checkpoints/cell.json", "spec.json", ".tmp-deadbeef.json"]
)
def test_only_record_files_trigger_the_legacy_refusal(tmp_path, name):
    """``spec.json``, ``.tmp-*`` and ``checkpoints/`` are not records: they
    neither trigger the refusal nor get imported by ``compact``."""
    root = tmp_path / "store"
    path = root / name
    path.parent.mkdir(parents=True)
    path.write_text('{"error": null}', encoding="utf-8")
    assert ResultsStore(root).keys() == []
    assert path.read_text(encoding="utf-8") == '{"error": null}'
    assert ResultsStore.compact_at(root).keys() == []
    # Compaction sweeps stray tmp files and leaves everything else alone.
    assert path.exists() != name.startswith(".tmp-")


@pytest.mark.parametrize(
    "payload",
    [b'{"wall_ti', b'["not", "an", "object"]', b'{"v": "\xff\xfe"}'],
    ids=["torn", "non-object", "not-utf8"],
)
def test_unreadable_legacy_records_import_as_absent(tmp_path, payload):
    """A legacy record that does not parse to a JSON object is left out of
    the import; its neighbours and the file itself are unaffected."""
    root = tmp_path / "legacy"
    root.mkdir()
    (root / "good.json").write_text('{"error": null}', encoding="utf-8")
    (root / "bad.json").write_bytes(payload)

    imported = ResultsStore.compact_at(root)
    assert dict(imported.records()) == {"good": {"error": None}}
    assert "bad" not in imported.statuses()
    assert (root / "bad.json").read_bytes() == payload


def test_truncated_legacy_record_is_recomputed_after_import(tmp_path):
    """A legacy record torn by a crash imports as absent, so the next run
    recomputes exactly that cell and the store heals."""
    spec = quick_spec()
    reference = ResultsStore(tmp_path / "reference")
    ProtocolPipeline(spec, reference).run(backend="serial")

    legacy_root = tmp_path / "legacy"
    legacy_root.mkdir()
    for key, record in reference.records():
        (legacy_root / f"{key}.json").write_text(
            dumps_strict(record, sort_keys=True), encoding="utf-8"
        )
    victim, survivor = reference.keys()
    text = (legacy_root / f"{victim}.json").read_text(encoding="utf-8")
    (legacy_root / f"{victim}.json").write_text(
        text[: len(text) // 2], encoding="utf-8"
    )

    ResultsStore.compact_at(legacy_root)
    pipeline = ProtocolPipeline(spec, legacy_root)
    assert pipeline.status().n_pending == 1
    summary = pipeline.run(backend="serial")
    assert summary.executed_keys == [victim]
    healed = ResultsStore(legacy_root)
    assert healed.get(survivor) == reference.get(survivor)
    assert _stable(healed.get(victim)) == _stable(reference.get(victim))


def test_discarded_legacy_record_stays_discarded(tmp_path):
    """Once imported, a legacy record is an ordinary index row: a discard
    removes it for good, although its ``<key>.json`` is still on disk."""
    root = tmp_path / "legacy"
    root.mkdir()
    (root / "cell.json").write_text('{"v": "legacy"}', encoding="utf-8")
    store = ResultsStore.compact_at(root)
    assert store.discard("cell")
    assert ResultsStore(root).get("cell") is None
    ResultsStore(root).compact()
    assert ResultsStore(root).keys() == []
    assert (root / "cell.json").is_file()


# ------------------------------------------------------------ strict records
def test_appends_are_strict_json_lines(tmp_path):
    """Broken-pool failures record ``wall_time=nan`` and empty drift reports
    a ``mean_delay`` of nan; both land as ``null`` in segments and index."""
    store = ResultsStore(tmp_path / "store")
    segment = store.put(
        "cell",
        {
            "wall_time": float("nan"),
            "drift_report": {"mean_delay": float("inf"), "n_detected": 0},
            "detections": [1.0, float("-inf")],
        },
    )
    store.close()
    expected = {
        "wall_time": None,
        "drift_report": {"mean_delay": None, "n_detected": 0},
        "detections": [1.0, None],
    }

    def reject(token):
        raise AssertionError(f"non-strict constant {token!r}")

    for line in segment.read_text(encoding="utf-8").splitlines():
        json.loads(line, parse_constant=reject)
    assert store.get("cell") == expected
    store.compact()
    row = sqlite3.connect(store.index_path).execute(
        "SELECT record FROM records"
    ).fetchone()
    assert json.loads(row[0], parse_constant=reject) == expected


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_put_serialises_nonfinite_floats_as_null(tmp_path, value):
    """A non-finite float reads back as ``None`` from the live segment, a
    fresh instance and the compacted index alike."""
    store = ResultsStore(tmp_path / "store")
    store.put("cell", {"wall_time": value, "pmauc": 0.5})
    expected = {"wall_time": None, "pmauc": 0.5}
    assert store.get("cell") == expected
    assert dict(store.records()) == {"cell": expected}
    assert store.get_many(["cell"]) == {"cell": expected}
    store.close()
    assert ResultsStore(store.root).get("cell") == expected
    store.compact()
    assert ResultsStore(store.root).get("cell") == expected


def test_legacy_nan_lines_still_read(tmp_path):
    """Segments written before the strict-JSON fix must stay readable."""
    store = ResultsStore(tmp_path / "store")
    legacy = store.root / "segments" / "seg-0-legacy.jsonl"
    legacy.parent.mkdir(parents=True)
    legacy.write_text('{"k": "old", "r": {"wall_time": NaN}}\n', encoding="utf-8")
    record = store.get("old")
    assert record is not None and record["wall_time"] != record["wall_time"]
    store.compact()  # re-serialised strictly
    assert ResultsStore(store.root).get("old") == {"wall_time": None}


# ------------------------------------------------------- temporal ordering
def test_newer_segments_win_regardless_of_name_sort(tmp_path):
    """Last-write-wins must follow write time, not filename sort: a resumed
    run's pid can sort lexicographically *before* the original run's
    (e.g. pid 102345 after pid 9841, since '1' < '9'), and its retried
    record must still win — including through compaction."""
    store = ResultsStore(tmp_path / "store")
    segments = store.root / "segments"
    segments.mkdir(parents=True)
    stale = segments / "seg-9841-oldrun.jsonl"  # legacy name, no stamp
    fresh = segments / "seg-102345-newrun.jsonl"  # sorts before 'seg-9841-'
    stale.write_text(
        '{"k": "cell", "r": {"error": "Traceback: boom"}}\n', encoding="utf-8"
    )
    fresh.write_text('{"k": "cell", "r": {"error": null}}\n', encoding="utf-8")
    past = time.time_ns() - 3_600_000_000_000  # stale really is older
    os.utime(stale, ns=(past, past))

    assert store.get("cell") == {"error": None}
    assert store.statuses() == {"cell": True}
    store.compact()  # must bake the newer record into the index...
    reopened = ResultsStore(store.root)
    assert reopened.get("cell") == {"error": None}
    assert not list(segments.iterdir())  # ...and drop both segments


def test_retry_in_fresh_store_instance_overrides_failure(tmp_path):
    """The resume flow: run 1 records a failure, run 2 (a different writer,
    therefore a different segment) retries successfully.  The success must
    win on read and survive compaction."""
    run1 = ResultsStore(tmp_path / "store")
    run1.put("cell", {"error": "Traceback: boom"})
    run1.close()
    run2 = ResultsStore(tmp_path / "store")
    run2.put("cell", {"error": None, "pmauc": 0.9})
    run2.close()

    reloaded = ResultsStore(tmp_path / "store")
    assert reloaded.get("cell") == {"error": None, "pmauc": 0.9}
    assert reloaded.statuses() == {"cell": True}
    reloaded.compact()
    assert ResultsStore(store_root := reloaded.root).get("cell") == {
        "error": None,
        "pmauc": 0.9,
    }
    assert ResultsStore(store_root).statuses() == {"cell": True}


def test_discard_in_later_store_instance_wins(tmp_path):
    run1 = ResultsStore(tmp_path / "store")
    run1.put("cell", {"v": 1})
    run1.close()
    run2 = ResultsStore(tmp_path / "store")
    assert run2.discard("cell")
    run2.close()
    reloaded = ResultsStore(tmp_path / "store")
    assert reloaded.get("cell") is None
    reloaded.compact()
    assert ResultsStore(reloaded.root).get("cell") is None


# ------------------------------------------------------- deferred layout
def test_read_only_open_creates_no_layout(tmp_path):
    """Opening (and reading) a directory as a store must leave no trace, so
    ``status`` on a mistyped path never scaffolds an empty store there."""
    root = tmp_path / "store"
    store = ResultsStore(root)
    assert store.statuses() == {}
    assert store.keys() == []
    assert store.get("anything") is None
    assert len(store) == 0
    assert not root.exists()
    store.put("a", {"v": 1})  # the first write scaffolds the layout
    assert (root / "segments").is_dir()
    assert store.get("a") == {"v": 1}


# ------------------------------------------------------------ pipeline runs
def test_pipeline_resume_across_compaction(tmp_path):
    spec = quick_spec()
    store = ResultsStore(tmp_path / "results")
    pipeline = ProtocolPipeline(spec, store)
    pipeline.run(backend="serial", max_cells=1)
    store.compact()
    summary = ProtocolPipeline(spec, ResultsStore(store.root)).run(
        backend="serial"
    )
    assert summary.n_skipped == 1
    assert summary.n_executed == 1


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_run_leaves_no_open_segment_file(tmp_path, monkeypatch, backend):
    """A run closes the segment it wrote: dropping the pipeline must not
    leave an unclosed file for the garbage collector to warn about."""
    gc.collect()  # only this run's garbage may be reported below
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        pipeline = ProtocolPipeline(quick_spec(), ResultsStore(tmp_path / "r"))
        assert pipeline.run(backend=backend, max_workers=1).n_executed == 2
        del pipeline
        gc.collect()
    assert not unraisable, [str(hook.exc_value) for hook in unraisable]


def test_closed_store_reopens_a_segment_on_the_next_write(tmp_path):
    """``close`` is idempotent, and a store the pipeline has closed at the
    end of one run keeps working for the next: a later write opens a new
    segment and every earlier record stays visible."""
    store = ResultsStore(tmp_path / "store")
    first = store.put("a", {"v": 1})
    store.close()
    store.close()
    second = store.put("b", {"v": 2})
    assert second != first
    assert dict(store.records()) == {"a": {"v": 1}, "b": {"v": 2}}
    store.close()
    assert dict(ResultsStore(store.root).records()) == {
        "a": {"v": 1},
        "b": {"v": 2},
    }


# ------------------------------------------------------------------ durability
def test_save_spec_writes_atomically_and_fsyncs_the_directory(
    tmp_path, monkeypatch
):
    """spec.json goes through tmp-write + os.replace, followed by a
    directory fsync (POSIX), so the rename survives power failure."""
    from repro.core import durability

    replaced = []
    real_replace = os.replace

    def spying_replace(src, dst):
        replaced.append((Path(src).name, Path(dst)))
        real_replace(src, dst)

    synced_dirs = []
    real_fsync_dir = durability.fsync_dir

    def spying_dir(directory):
        synced_dirs.append(Path(directory))
        real_fsync_dir(directory)

    monkeypatch.setattr(os, "replace", spying_replace)
    monkeypatch.setattr(durability, "fsync_dir", spying_dir)
    store = ResultsStore(tmp_path / "results")
    path = store.save_spec('{"name": "quick"}')

    assert path.read_text(encoding="utf-8") == '{"name": "quick"}'
    [(tmp_name, target)] = replaced
    assert tmp_name.startswith(".tmp-") and target == path
    assert store.root in synced_dirs
    # And the guard itself is harmless where directories cannot be fsynced.
    real_fsync_dir(tmp_path / "does-not-exist")  # no raise


def test_appends_and_compaction_fsync(tmp_path, monkeypatch):
    """Segment appends fsync the data; segment creation and compaction fsync
    the directory entries."""
    from repro.protocol import store as store_module

    synced_fds = []
    real_fsync = os.fsync

    def spying_fsync(fd):
        synced_fds.append(fd)
        real_fsync(fd)

    synced_dirs = []
    real_fsync_dir = store_module.fsync_dir

    def spying_dir(directory):
        synced_dirs.append(Path(directory))
        real_fsync_dir(directory)

    monkeypatch.setattr(os, "fsync", spying_fsync)
    monkeypatch.setattr(store_module, "fsync_dir", spying_dir)

    store = ResultsStore(tmp_path / "results")
    store.put("cell", {"v": 1})
    assert synced_fds, "segment append was not fsynced"
    assert store.root / "segments" in synced_dirs

    synced_fds.clear()
    synced_dirs.clear()
    store.compact()
    assert synced_fds, "compacted index was not fsynced"
    assert store.root in synced_dirs  # the index rename
    assert store.root / "segments" in synced_dirs  # the segment unlinks


# ------------------------------------------------------------------ indexing
def test_statuses_scale_via_index_not_per_file_parses(tmp_path):
    """status() over 10k cells answers from the index >=20x faster than a
    one-file-per-cell layout's open-and-parse loop."""
    n = 10_000
    record = {
        "error": None,
        "pmauc": 0.5,
        "detections": [100, 200, 300],
        "drift_report": {"mean_delay": 12.5, "n_detected": 3},
    }
    payload = json.dumps(record)

    per_file_root = tmp_path / "per-file"
    per_file_root.mkdir()
    keys = [f"cell-{i:05d}" for i in range(n)]
    for key in keys:
        (per_file_root / f"{key}.json").write_text(payload, encoding="utf-8")

    store = ResultsStore(tmp_path / "store")
    store.put_many((key, record) for key in keys)
    store.compact()

    started = time.perf_counter()
    parsed = {}
    for key in keys:
        with open(per_file_root / f"{key}.json", encoding="utf-8") as handle:
            parsed[key] = json.load(handle).get("error") is None
    per_file_seconds = time.perf_counter() - started
    assert all(parsed.values())

    indexed_seconds = float("inf")
    for _ in range(3):  # best-of-3 to shrug off scheduler noise
        started = time.perf_counter()
        statuses = store.statuses()
        indexed_seconds = min(indexed_seconds, time.perf_counter() - started)
    assert len(statuses) == n and all(statuses.values())

    assert per_file_seconds >= 20 * indexed_seconds, (
        f"indexed statuses() not >=20x faster: per-file {per_file_seconds:.3f}s "
        f"vs indexed {indexed_seconds:.4f}s"
    )


def test_get_many_prefers_segment_overlay(tmp_path):
    store = ResultsStore(tmp_path / "store")
    store.put_many([("a", {"v": 1}), ("b", {"v": 2})])
    store.compact()
    store.put("b", {"v": 22})
    store.discard("a")
    assert store.get_many(["a", "b", "ghost"]) == {"b": {"v": 22}}
