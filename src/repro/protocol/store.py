"""The durable on-disk store of protocol results: segments + a sqlite index.

:class:`ResultsStore` keeps one record per content-hashed cell key in a
log-structured layout::

    root/
      spec.json            # provenance copy of the spec (atomic write)
      index.sqlite         # compacted records, one row per key
      segments/
        seg-<created_ns>-<pid>-<token>.jsonl   # append-only, 1 record/line
      checkpoints/
        <key>.json         # mid-cell runner checkpoints (atomic whole files)

Nothing is created before the first write: merely *opening* a directory
(``status`` on a fresh path, say) leaves no trace.

**Writes** append one strict-JSON line (``{"k": key, "r": record,
"t": <write_ns>}``) to the writer's own segment file and fsync it; the
segment's directory entry is fsynced when the segment is created.  A crash
mid-append leaves a torn last line, which readers treat as absent, so
SIGKILL at any point loses at most the in-flight record and the pipeline
simply recomputes that cell.  ``record: null`` lines are tombstones
(:meth:`ResultsStore.discard`).  :meth:`ResultsStore.close` closes the
writer's segment; the pipeline calls it at the end of every run.

**Reads** merge the sqlite index with every live segment, segments winning.
Among segment lines, *write time* decides: lines are ordered by their
``t`` stamp (never reordering lines within a file), so last write wins by
wall clock, not by filename — a resumed run's segment must override an
older run's record (a retried failure, a tombstone) even though its
pid/uuid may sort lexicographically first.  Legacy lines without a stamp
inherit their segment's creation time (from the filename, else the file
mtime).  ``statuses()`` never parses record payloads for indexed rows:
completion state is a column.  Each store instance keeps an in-memory
overlay of its own appends plus a parse cache of foreign segments keyed by
(size, mtime), so per-key ``get()`` loops cost no re-reads between writes.

**Compaction** (:meth:`ResultsStore.compact`) folds the old index plus every
segment into a fresh sqlite database built as a ``.tmp-*`` sibling, fsyncs
it, :func:`os.replace`\\ s it over ``index.sqlite``, fsyncs the directory,
and only then unlinks the folded segments.  A crash before the replace
leaves the store untouched (the stray tmp is cleaned on the next
compaction); a crash after it merely leaves already-indexed segments
behind, which the merge dedupes and the next compaction removes.  Compact
when no other process is writing (``python -m repro.protocol compact``).

**Legacy JSON stores.**  Earlier versions wrote one ``<key>.json`` file per
cell.  A directory holding such records and no ``index.sqlite`` is refused
on open, because reading it as empty would silently recompute the whole
spec.  :meth:`ResultsStore.compact_at` (the ``compact`` subcommand) imports
those records, read-only, as the oldest layer of the index; the files stay
on disk and are ignored from then on.

Records are plain JSON dictionaries.  Everything this module writes is
strict JSON (non-finite floats become ``null``, see
:mod:`repro.core.jsonio`); lines, rows and legacy files carrying bare
``NaN`` still parse on read.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
import time
import uuid
from pathlib import Path
from typing import IO, Iterable, Iterator

from repro.core.durability import atomic_write_text, fsync_dir
from repro.core.jsonio import dumps_strict

__all__ = ["ResultsStore"]

_SEGMENT_DIR = "segments"
_SEGMENT_PREFIX = "seg-"
_SEGMENT_SUFFIX = ".jsonl"
_INDEX_NAME = "index.sqlite"
_CHECKPOINT_DIR = "checkpoints"
_SPEC_NAME = "spec.json"
_TMP_PREFIX = ".tmp-"

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS records ("
    " key TEXT PRIMARY KEY,"
    " ok INTEGER NOT NULL,"  # 1 = record has no "error"; statuses() reads
    " record TEXT NOT NULL"  # only this column plus the key
    ")"
)


def _safe_key(key: str) -> str:
    safe = key.replace(os.sep, "_")
    if os.altsep:
        safe = safe.replace(os.altsep, "_")
    return safe


def _read_json_dict(path: Path) -> "dict | None":
    """Parse a JSON object from ``path``; missing or corrupt means ``None``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


def _legacy_record_paths(root: Path) -> Iterator[Path]:
    """``<key>.json`` records of a legacy one-file-per-cell store.

    ``spec.json`` and in-flight ``.tmp-*`` files are not records, and the
    top-level glob never enters ``checkpoints/``.
    """
    for path in root.glob("*.json"):
        if path.name != _SPEC_NAME and not path.name.startswith(_TMP_PREFIX):
            yield path


def _row(record: dict) -> tuple[int, str]:
    """The ``(ok, record_json)`` index row of ``record``."""
    return int(record.get("error") is None), dumps_strict(record, sort_keys=True)


def _write_index(root: Path, rows: "dict[str, tuple[int, str]]") -> Path:
    """Atomically replace ``root/index.sqlite`` with a database of ``rows``."""
    index = root / _INDEX_NAME
    descriptor, tmp_name = tempfile.mkstemp(
        prefix=_TMP_PREFIX, suffix=".sqlite", dir=root
    )
    os.close(descriptor)
    try:
        connection = sqlite3.connect(tmp_name)
        try:
            connection.execute(_SCHEMA)
            connection.executemany(
                "INSERT OR REPLACE INTO records (key, ok, record) "
                "VALUES (?, ?, ?)",
                ((key, ok, payload) for key, (ok, payload) in rows.items()),
            )
            connection.commit()
        finally:
            connection.close()
        descriptor = os.open(tmp_name, os.O_RDONLY)
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)
        os.replace(tmp_name, index)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fsync_dir(root)
    return index


class ResultsStore:
    """Append-only per-writer segments with atomic compaction into sqlite."""

    def __init__(self, root: "str | os.PathLike[str]") -> None:
        self._root = Path(root)
        if not self.index_path.exists() and any(
            _legacy_record_paths(self._root)
        ):
            raise ValueError(
                f"{self._root} holds a legacy one-file-per-cell JSON store; "
                "import it into the index first with: "
                f"python -m repro.protocol compact --store {self._root}"
            )
        self._segments = self._root / _SEGMENT_DIR
        self._segment_path: "Path | None" = None
        self._segment_file: "IO[str] | None" = None
        # This instance's own appends, in order: (write_ns, key, record).
        self._own_entries: list[tuple[int, str, "dict | None"]] = []
        # Parsed foreign segments keyed by path -> ((size, mtime_ns), entries).
        self._entry_cache: dict[
            Path, tuple[tuple[int, int], list[tuple["int | None", str, "dict | None"]]]
        ] = {}

    @classmethod
    def compact_at(cls, root: "str | os.PathLike[str]") -> "ResultsStore":
        """Open the store at ``root``, :meth:`compact` it, and return it.

        The one way to open a legacy one-file-per-cell JSON store: with no
        index yet, its ``<key>.json`` records become the index's oldest
        layer, so segment records written since win over them.  The legacy
        files are only read; once the index exists they are ignored.
        """
        root = Path(root)
        paths = list(_legacy_record_paths(root))
        if paths and not (root / _INDEX_NAME).exists():
            legacy = {}
            for path in paths:
                record = _read_json_dict(path)
                if record is not None:  # corrupt means absent, as it did
                    legacy[path.stem] = _row(record)
            _write_index(root, legacy)
        store = cls(root)
        store.compact()
        return store

    @property
    def root(self) -> Path:
        return self._root

    @property
    def index_path(self) -> Path:
        return self._root / _INDEX_NAME

    # ------------------------------------------------------------ write API
    def put(self, key: str, record: dict) -> Path:
        """Durably append ``record`` under ``key`` (last write wins)."""
        return self.put_many([(key, record)])

    def put_many(self, items: Iterable[tuple[str, dict]]) -> Path:
        """Append many records with a single fsync (bulk-load fast path)."""
        return self._append_entries(list(items))

    def discard(self, key: str) -> bool:
        """Tombstone ``key``; returns whether a record was visible before."""
        existed = self.get(key) is not None
        if existed:
            self._append_entries([(key, None)])
        return existed

    def save_spec(self, spec_json: str) -> Path:
        """Persist a provenance copy of the spec alongside the records."""
        self._root.mkdir(parents=True, exist_ok=True)
        path = self._root / _SPEC_NAME
        atomic_write_text(self._root, path, spec_json)
        return path

    # --------------------------------------------------- mid-cell checkpoints
    def checkpoint_path_for(self, key: str) -> Path:
        """Side-area path for the mid-cell runner checkpoint of ``key``.

        Checkpoints are atomic whole files (they are rewritten every few
        chunks, which would bloat an append-only segment), living under
        ``checkpoints/`` where neither the segment scan nor the index ever
        looks, so an in-flight checkpoint never shows up in
        ``records()``/``statuses()`` as if the cell were done.  The
        directory is created by the checkpoint writer, not here: read-only
        opens must leave no trace.
        """
        return self._root / _CHECKPOINT_DIR / f"{_safe_key(key)}.json"

    def get_checkpoint(self, key: str) -> "dict | None":
        """The stored checkpoint payload for ``key``, or ``None``."""
        return _read_json_dict(self.checkpoint_path_for(key))

    def discard_checkpoint(self, key: str) -> bool:
        """Delete the checkpoint for ``key``; returns whether one existed."""
        path = self.checkpoint_path_for(key)
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        fsync_dir(path.parent)
        return True

    def _append_entries(
        self, entries: "list[tuple[str, dict | None]]"
    ) -> Path:
        # The per-line write stamp is what makes last-write-wins temporal
        # across segments (a resumed run's pid can sort before an old run's).
        stamped = [
            (time.time_ns(), key, record)  # lint: disable=determinism -- wall-clock write stamp for last-write-wins segment ordering, never part of seeded results
            for key, record in entries
        ]
        lines = [
            dumps_strict({"k": key, "r": record, "t": stamp}, sort_keys=True)
            for stamp, key, record in stamped
        ]
        handle = self._writer()
        handle.write("".join(line + "\n" for line in lines))
        handle.flush()
        os.fsync(handle.fileno())
        # Overlay what was written (non-finite floats as null), not the
        # caller's objects, so this instance reads what any other reader does.
        self._own_entries.extend(
            (stamp, key, json.loads(line)["r"])
            for (stamp, key, _), line in zip(stamped, lines)
        )
        assert self._segment_path is not None
        return self._segment_path

    def _writer(self) -> "IO[str]":
        """This store instance's own segment, opened lazily on first append.

        The layout (``root/segments/``) is created here, on the first write,
        never in ``__init__``: read-only opens must leave no trace.
        """
        if self._segment_file is None:
            self._segments.mkdir(parents=True, exist_ok=True)
            fsync_dir(self._root)
            name = (
                f"{_SEGMENT_PREFIX}{time.time_ns():020d}-{os.getpid()}-"  # lint: disable=determinism -- wall-clock segment name orders crash leftovers; results content stays seeded
                f"{uuid.uuid4().hex[:12]}{_SEGMENT_SUFFIX}"
            )
            self._segment_path = self._segments / name
            self._segment_file = open(
                self._segment_path, "a", encoding="utf-8"
            )
            # Make the new directory entry itself durable, not just the data.
            fsync_dir(self._segments)
        return self._segment_file

    def close(self) -> None:
        """Close this instance's segment; the next append opens a fresh one."""
        if self._segment_file is not None:
            self._segment_file.close()
            self._segment_file = None
            self._segment_path = None
            self._own_entries = []  # the closed file is re-read from disk

    # ------------------------------------------------------------- read API
    def get(self, key: str) -> "dict | None":
        found: "dict | None" = None
        overlaid = False
        for seen, record in self._segment_entries():
            if seen == key:  # keep scanning: later lines win
                found, overlaid = record, True
        if overlaid:
            return found  # None here means a tombstone
        rows = self._index_rows(keys=(key,))
        if key in rows:
            return self._parse_record(rows[key][1])
        return None

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def keys(self) -> list[str]:
        return sorted(self._merged_records())

    def records(self) -> Iterator[tuple[str, dict]]:
        merged = self._merged_records()
        for key in sorted(merged):
            yield key, merged[key]

    def __len__(self) -> int:
        return len(self._merged_records())

    def statuses(self) -> dict[str, bool]:
        """``key -> record is error-free``: one index scan + segment overlay.

        Indexed rows are answered from the ``ok`` column without parsing a
        single record payload; only the (few, small) uncompacted segments
        are parsed.
        """
        out: dict[str, bool] = {}
        path = self.index_path
        if path.exists():
            try:
                connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
            except sqlite3.Error:
                connection = None
            if connection is not None:
                try:
                    # Deliberately no `record` column: completion state must
                    # not cost a payload fetch per cell.
                    cursor = connection.execute("SELECT key, ok FROM records")
                    out = {key: bool(ok) for key, ok in cursor}
                except sqlite3.Error:
                    out = {}
                finally:
                    connection.close()
        for key, record in self._segment_entries():
            if record is None:
                out.pop(key, None)
            else:
                out[key] = record.get("error") is None
        return out

    def get_many(self, keys: Iterable[str]) -> dict[str, dict]:
        """Records for every key in ``keys``: one indexed query + overlay."""
        wanted = list(keys)
        found: dict[str, dict] = {}
        for key, (_, payload) in self._index_rows(keys=wanted).items():
            record = self._parse_record(payload)
            if record is not None:
                found[key] = record
        wanted_set = set(wanted)
        for key, record in self._segment_entries():
            if key not in wanted_set:
                continue
            if record is None:
                found.pop(key, None)
            else:
                found[key] = record
        return found

    # ----------------------------------------------------------- compaction
    def compact(self) -> Path:
        """Fold every segment (and the old index) into a fresh atomic index.

        Safe against a kill at any point: the new index becomes visible only
        through ``os.replace`` + directory fsync, and segments are unlinked
        strictly afterwards, so the worst outcomes are (a) a stray tmp
        database — cleaned up here on the next run — or (b) already-indexed
        segments left behind, which reads dedupe and the next compaction
        removes.  Run it from a single process while no writer is active.
        """
        self.close()  # fold our own segment too
        self._root.mkdir(parents=True, exist_ok=True)
        for stray in self._root.glob(f"{_TMP_PREFIX}*"):
            try:
                os.unlink(stray)
            except OSError:
                pass
        segment_paths = self._segment_files()
        merged: dict[str, tuple[int, str]] = dict(self._index_rows())
        # Temporal write order (see _segment_entries), so the index bakes in
        # the *newest* record per key, not the lexicographically-last one.
        for key, record in self._segment_entries():
            if record is None:
                merged.pop(key, None)
            else:
                merged[key] = _row(record)
        _write_index(self._root, merged)
        # The folded segments are now redundant; losing power between the
        # unlinks only leaves duplicates that reads dedupe.  Unlink oldest
        # first (segment_paths order): a surviving segment must always be at
        # least as new as everything already removed, or its stale records
        # would override the index.
        for path in segment_paths:
            try:
                os.unlink(path)
            except OSError:
                pass
        fsync_dir(self._segments)
        self._entry_cache.clear()
        return self.index_path

    # ------------------------------------------------------------ internals
    def _segment_files(self) -> list[Path]:
        """Live segments, oldest first (creation time, then name).

        Oldest-first also fixes the *unlink* order in :meth:`compact`: a
        crash between unlinks must never leave an older segment alive after
        a newer one for the same key has been removed, or the leftover would
        override the (newer) indexed record on the next read.
        """
        if not self._segments.is_dir():
            return []
        return sorted(
            self._segments.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"),
            key=lambda path: (self._segment_ns(path), path.name),
        )

    @staticmethod
    def _segment_ns(path: Path) -> int:
        """Creation time embedded in the segment name; legacy names (no
        zero-padded stamp) fall back to the file's mtime."""
        stamp = path.name[len(_SEGMENT_PREFIX) :].split("-", 1)[0]
        if len(stamp) == 20 and stamp.isdigit():
            return int(stamp)
        try:
            return path.stat().st_mtime_ns
        except OSError:
            return 0

    def _segment_entries(self) -> Iterator[tuple[str, "dict | None"]]:
        """Every (key, record-or-tombstone) across segments, oldest write
        first — so a consumer applying "later yields win" gets temporal
        last-write-wins.

        Ordering key is the per-line write stamp (legacy unstamped lines
        inherit their segment's creation time), clamped so that lines never
        reorder *within* a file even across a backwards clock step; ties
        break by segment age, then line order.
        """
        ordered: list[tuple[int, int, int, str, "dict | None"]] = []
        for seg_order, path in enumerate(self._segment_files()):
            if path == self._segment_path and self._segment_file is not None:
                parsed: list = list(self._own_entries)
            else:
                parsed = self._parsed_entries(path)
            seg_ns = self._segment_ns(path)
            floor = 0
            for line_order, (stamp, key, record) in enumerate(parsed):
                floor = max(floor, stamp if stamp is not None else seg_ns)
                ordered.append((floor, seg_order, line_order, key, record))
        ordered.sort(key=lambda entry: entry[:3])
        for _, _, _, key, record in ordered:
            yield key, record

    def _parsed_entries(
        self, path: Path
    ) -> list[tuple["int | None", str, "dict | None"]]:
        """Parsed lines of a foreign segment, cached by (size, mtime)."""
        try:
            stat = path.stat()
        except OSError:
            self._entry_cache.pop(path, None)
            return []
        signature = (stat.st_size, stat.st_mtime_ns)
        cached = self._entry_cache.get(path)
        if cached is not None and cached[0] == signature:
            return cached[1]
        parsed = list(self._entries_of(path))
        self._entry_cache[path] = (signature, parsed)
        return parsed

    @staticmethod
    def _entries_of(
        path: Path,
    ) -> Iterator[tuple["int | None", str, "dict | None"]]:
        try:
            data = path.read_bytes()
        except OSError:
            return
        for line in data.split(b"\n"):
            if not line.strip():
                continue
            try:
                entry = json.loads(line.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue  # torn tail or hand-introduced corruption
            if not isinstance(entry, dict) or not isinstance(
                entry.get("k"), str
            ):
                continue
            record = entry.get("r")
            stamp = entry.get("t")
            if isinstance(stamp, bool) or not isinstance(stamp, int):
                stamp = None
            if record is None or isinstance(record, dict):
                yield stamp, entry["k"], record

    def _index_rows(
        self, keys: "Iterable[str] | None" = None
    ) -> dict[str, tuple[int, str]]:
        """``key -> (ok, record_json)`` from the index (empty if no index)."""
        path = self.index_path
        if not path.exists():
            return {}
        try:
            connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        except sqlite3.Error:
            return {}
        try:
            if keys is None:
                cursor = connection.execute(
                    "SELECT key, ok, record FROM records"
                )
                return {key: (ok, payload) for key, ok, payload in cursor}
            rows: dict[str, tuple[int, str]] = {}
            wanted = list(dict.fromkeys(keys))
            for start in range(0, len(wanted), 500):
                chunk = wanted[start : start + 500]
                marks = ",".join("?" * len(chunk))
                cursor = connection.execute(
                    "SELECT key, ok, record FROM records "
                    f"WHERE key IN ({marks})",
                    chunk,
                )
                rows.update(
                    {key: (ok, payload) for key, ok, payload in cursor}
                )
            return rows
        except sqlite3.Error:
            # A half-written or foreign file where the index should be is
            # treated like corruption everywhere else: absent, not fatal.
            return {}
        finally:
            connection.close()

    def _merged_records(self) -> dict[str, dict]:
        merged: dict[str, dict] = {}
        for key, (_, payload) in self._index_rows().items():
            record = self._parse_record(payload)
            if record is not None:
                merged[key] = record
        for key, record in self._segment_entries():
            if record is None:
                merged.pop(key, None)
            else:
                merged[key] = record
        return merged

    @staticmethod
    def _parse_record(payload: str) -> "dict | None":
        try:
            record = json.loads(payload)
        except (json.JSONDecodeError, TypeError):
            return None
        return record if isinstance(record, dict) else None
