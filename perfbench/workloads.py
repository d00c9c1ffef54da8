"""The benchmark's three workloads, driven through the program's kept surfaces.

Each workload is a closed loop on the serial backend: one process runs one
cell at a time.  A workload object is built from the run's seed, which names
its data seeds (:meth:`Workload.units`, one spec per data seed).  It does its
set-up once (:meth:`setup`), then runs repetitions (:meth:`run_rep`), one
data seed each, round-robin until the run's time is spent.  Every repetition
returns what it measured and the output contracts it checked; nothing here
pins a number from any commit.

Surfaces used: the ``repro.protocol`` CLI ``main(argv)`` and
``ProtocolPipeline`` given a store path, ``PrequentialRunner.run``,
``repro.protocol.spec.build_scenario`` and the detector registry.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.classifiers.naive_bayes import GaussianNaiveBayes
from repro.evaluation.checkpoint import RunnerCheckpoint
from repro.evaluation.prequential import PrequentialRunner
from repro.protocol import analysis
from repro.protocol.__main__ import main as protocol_main
from repro.protocol.pipeline import ProtocolPipeline
from repro.protocol.registry import build_detector
from repro.protocol.spec import (
    DEFAULT_CLASSIFIER_LABEL,
    ProtocolSpec,
    build_scenario,
)

#: What the ``report`` subcommand tabulates by default.
REPORT_METRICS = ("pmauc", "pmgm", "detection_recall")
REPORT_CONTROL = "RBM-IM"

#: Timed samples of the read path per repetition.
READ_SAMPLES = 3

#: Instances per cell at each scale; ``tiny`` is the self-test's scale.
SCALES = {
    "paper-grid": {"full": 1_000, "tiny": 500},
    "batch-imbalance": {"full": 12_000, "tiny": 1_500},
    "exact-checkpoint": {"full": 10_000, "tiny": 1_500},
}


def gaussian_nb(n_features: int, n_classes: int) -> GaussianNaiveBayes:
    """Module-level (hence restart-stable) GaussianNB classifier factory."""
    return GaussianNaiveBayes(n_features, n_classes)


@dataclass
class Rep:
    """What one repetition of one data seed measured and which contracts it checked."""

    unit: int = 0
    instances: int = 0
    compute_s: float = 0.0
    read_s: list[float] = field(default_factory=list)
    #: How much slower than the reference core the host ran this repetition.
    host: float = 1.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)


def clear_memo_caches() -> None:
    """Empty the ``functools`` caches of the program's module-level functions.

    Repetitions replay identical inputs, so a memo cache warmed by an earlier
    repetition would hide every miss a fresh process pays (WSTD's p-value
    memo turns its whole detector cost into hits).  Clearing makes each
    repetition as cold as one CLI invocation.
    """
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def _digest(records: list[dict], report: str) -> str:
    """Per-cell detections, pmAUC and pmGM, plus the report text."""
    cells = sorted(
        [r.get("key", r.get("detector")), r.get("detections"), r.get("pmauc"),
         r.get("pmgm")]
        for r in records
    )
    payload = json.dumps([cells, report], sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _without_timings(value):
    """A record with every wall-clock field (any key naming time) dropped."""
    if isinstance(value, dict):
        return {
            key: _without_timings(item)
            for key, item in value.items()
            if "time" not in key
        }
    if isinstance(value, list):
        return [_without_timings(item) for item in value]
    return value


def _report(records: list[dict]) -> str:
    return analysis.render_report(
        analysis.analyze_records(
            records, metrics=REPORT_METRICS, control=REPORT_CONTROL
        )
    )


def _build_cells(spec: ProtocolSpec, classifier_factory) -> None:
    """Build every cell's stream, classifier and detector once (set-up)."""
    for cell in spec.expand():
        stream = build_scenario(
            cell.seed, cell.family, cell.n_classes, cell.scenario,
            spec.n_instances, spec.n_drifts, spec.max_imbalance_ratio,
        ).stream
        classifier_factory(stream.n_features, stream.n_classes)
        build_detector(cell.detector, stream.n_features, stream.n_classes)


class Workload:
    """Common loop plumbing; subclasses define the spec and one repetition."""

    name = ""
    classifier = "GaussianNB"
    #: Data seeds per run.  A run's cost follows its data (WSTD's p-value
    #: cache misses, HDDM-W's rollbacks), so each run spreads over several.
    n_units = 3

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        self.seed = int(seed)
        self.n_instances = SCALES[self.name][scale]
        self.workdir = workdir
        self.first_digest: dict[int, str] = {}
        self._reps = 0

    def units(self) -> list[int]:
        """The run's data seeds: ``n_units * N`` onwards for ``--seed N``."""
        return list(range(self.seed * self.n_units,
                          (self.seed + 1) * self.n_units))

    def spec(self, unit: int) -> ProtocolSpec:
        raise NotImplementedError

    def fresh_dir(self, label: str) -> Path:
        self._reps += 1
        return self.workdir / f"{label}-{self._reps}"

    def check_digest(self, rep: Rep, digest: str) -> None:
        first = self.first_digest.setdefault(rep.unit, digest)
        rep.check(digest == first, "result digest differs from the run's "
                  f"first repetition of data seed {rep.unit}")

    def setup(self) -> None:
        raise NotImplementedError

    def run_rep(self, unit: int) -> Rep:
        raise NotImplementedError

    def final_checks(self) -> Rep:
        """Contracts checked once per run, outside the timed repetitions."""
        return Rep()

    def shape(self) -> dict:
        units = self.units()
        spec = self.spec(units[0])
        return {
            "families": list(spec.families), "classes": list(spec.class_counts),
            "scenarios": list(spec.scenarios), "detectors": list(spec.detectors),
            "seeds": units, "classifier": self.classifier,
            "mode": "batch" if spec.batch_mode else "chunk-exact",
            "chunk_size": spec.chunk_size, "n_instances": spec.n_instances,
            "cells": len(spec) * len(units),
        }


class PaperGrid(Workload):
    """The ``repro.protocol`` CLI over a slice of the ``paper`` preset."""

    name = "paper-grid"
    classifier = "default perceptron tree"
    #: WSTD's cost varies several-fold between single streams.
    n_units = 8

    def spec(self, unit: int) -> ProtocolSpec:
        return ProtocolSpec(
            name="paper-grid",
            families=("rbf", "randomtree"),
            class_counts=(10,),
            scenarios=(3,),
            seeds=(unit,),
            n_instances=self.n_instances,
            chunk_size=512,
            batch_mode=False,
        )

    def spec_path(self, unit: int) -> Path:
        return self.workdir / f"paper-grid-spec-{unit}.json"

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for unit in self.units():
            self.spec_path(unit).write_text(self.spec(unit).to_json(),
                                            encoding="utf-8")
        spec = self.spec(self.units()[0])
        ProtocolPipeline(spec, self.workdir / "setup-store").cells()
        # The CLI's classifier, found through the label the spec hashes into
        # every cell key rather than through the module that defines it.
        module, _, attr = DEFAULT_CLASSIFIER_LABEL.rpartition(".")
        _build_cells(spec, getattr(importlib.import_module(module), attr))

    def _cli(self, *argv: str) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = protocol_main(list(argv))
        return code, out.getvalue()

    def run_rep(self, unit: int) -> Rep:
        rep = Rep(unit=unit)
        store = str(self.fresh_dir("grid"))
        where = ("--spec", str(self.spec_path(unit)), "--store", store)
        started = time.perf_counter()
        code, _ = self._cli("run", *where, "--backend", "serial", "--quiet")
        rep.compute_s = time.perf_counter() - started
        rep.check(code == 0, f"run exited {code}")
        pipeline = ProtocolPipeline(self.spec(unit), store)
        rep.check(not pipeline.pending(), "a re-run would execute cells")

        report = ""
        for _ in range(READ_SAMPLES):
            started = time.perf_counter()
            rerun_code, rerun = self._cli("run", *where, "--backend", "serial",
                                          "--quiet")
            status_code, _ = self._cli("status", *where)
            report_code, report = self._cli("report", *where)
            rep.read_s.append(time.perf_counter() - started)
            # The summary line names the executed count; ``pending()`` above
            # covers a CLI whose wording changed.
            executed = re.search(r"(\d+) executed", rerun)
            rep.check(rerun_code == 0 and (executed is None
                                           or int(executed.group(1)) == 0),
                      "cached re-run executed cells")
            rep.check(status_code == 0, f"status exited {status_code}")
            rep.check(report_code == 0 and bool(report.strip()),
                      f"report exited {report_code}")

        status = pipeline.status()
        records = pipeline.completed_records()
        rep.instances = sum(int(r.get("n_instances", 0)) for r in records)
        missing = status.n_cells - status.n_completed
        rep.count(status.n_cells, missing,
                  f"{missing} cells have no error-free record")
        self.check_digest(rep, _digest(records, report))
        return rep


class BatchImbalance(Workload):
    """``PrequentialRunner.run`` in batch mode over dynamic imbalance.

    The spec only describes the cells; they run through the runner directly,
    with no pipeline and no store.
    """

    name = "batch-imbalance"

    def spec(self, unit: int) -> ProtocolSpec:
        return ProtocolSpec(
            name="batch-imbalance",
            families=("rbf",),
            class_counts=(20,),
            scenarios=(2,),
            detectors=("RBM-IM", "DDM-OCI", "PerfSim", "HDDM-A", "ADWIN"),
            seeds=(unit,),
            n_instances=self.n_instances,
            chunk_size=1024,
            batch_mode=True,
        )

    def setup(self) -> None:
        spec = self.spec(self.units()[0])
        _build_cells(spec, gaussian_nb)
        PrequentialRunner(gaussian_nb, window_size=spec.window_size,
                          pretrain_size=spec.pretrain_size)

    def run_rep(self, unit: int) -> Rep:
        spec = self.spec(unit)
        rep = Rep(unit=unit)
        records = []
        started = time.perf_counter()
        for cell in spec.expand():
            scenario = build_scenario(
                cell.seed, cell.family, cell.n_classes, cell.scenario,
                spec.n_instances, spec.n_drifts, spec.max_imbalance_ratio,
            )
            stream = scenario.stream
            detector = build_detector(cell.detector, stream.n_features,
                                      stream.n_classes)
            runner = PrequentialRunner(gaussian_nb, window_size=spec.window_size,
                                       pretrain_size=spec.pretrain_size)
            try:
                result = runner.run(
                    scenario, detector, n_instances=spec.n_instances,
                    detector_name=cell.detector,
                    drift_tolerance=spec.drift_tolerance,
                    chunk_size=spec.chunk_size, batch_mode=spec.batch_mode,
                )
            except Exception as error:  # noqa: BLE001 - a failed cell is data
                rep.check(False, f"{cell.detector}: {error!r}")
                continue
            rep.check(True, cell.detector)
            rep.instances += int(result.n_instances)
            drift = result.drift_report
            records.append({
                "benchmark": cell.benchmark, "detector": cell.detector,
                "seed": cell.seed, "error": None, "pmauc": result.pmauc,
                "pmgm": result.pmgm, "detections": list(result.detections),
                "drift_report": {} if drift is None else {
                    "detection_recall": drift.detection_recall},
            })
        rep.compute_s = time.perf_counter() - started

        report = ""
        for _ in range(READ_SAMPLES):
            started = time.perf_counter()
            report = _report(records)
            rep.read_s.append(time.perf_counter() - started)
        rep.check(bool(report.strip()), "empty report")
        self.check_digest(rep, _digest(records, report))
        return rep


class ExactCheckpoint(Workload):
    """``ProtocolPipeline`` in chunk-exact mode with a checkpoint per chunk."""

    name = "exact-checkpoint"
    chunk = 512

    def spec(self, unit: int) -> ProtocolSpec:
        return ProtocolSpec(
            name="exact-checkpoint",
            families=("rbf",),
            class_counts=(5,),
            scenarios=(9,),
            detectors=("RBM-IM", "HDDM-W", "ADWIN", "DDM-OCI"),
            seeds=(unit,),
            n_instances=self.n_instances,
            chunk_size=self.chunk,
            batch_mode=False,
        )

    def shape(self) -> dict:
        return {**super().shape(), "checkpoint_every": self.chunk}

    def pipeline(self, unit: int, store: Path) -> ProtocolPipeline:
        return ProtocolPipeline(self.spec(unit), store,
                                classifier_factory=gaussian_nb)

    def setup(self) -> None:
        unit = self.units()[0]
        self.pipeline(unit, self.workdir / "setup-store").cells()
        _build_cells(self.spec(unit), gaussian_nb)

    def _records(self, unit: int, store: Path) -> dict[str, dict]:
        pipeline = self.pipeline(unit, store)
        return pipeline.store.get_many([key for _, key in pipeline.cells()])

    def run_rep(self, unit: int) -> Rep:
        rep = Rep(unit=unit)
        store = self.fresh_dir("exact")
        started = time.perf_counter()
        summary = self.pipeline(unit, store).run(
            backend="serial", checkpoint_every=self.chunk
        )
        rep.compute_s = time.perf_counter() - started
        rep.count(summary.n_executed, summary.n_failed,
                  f"{summary.n_failed} cells failed")

        report = ""
        for _ in range(READ_SAMPLES):
            started = time.perf_counter()
            pipeline = self.pipeline(unit, store)
            rerun = pipeline.run(backend="serial")
            status = pipeline.status()
            records = pipeline.completed_records()
            report = _report(records)
            rep.read_s.append(time.perf_counter() - started)
            rep.check(rerun.n_executed == 0, "cached re-run executed cells")
            rep.check(status.n_completed == status.n_cells,
                      "status shows cells without an error-free record")
        rep.instances = sum(int(r.get("n_instances", 0)) for r in records)
        self.check_digest(rep, _digest(records, report))
        return rep

    def final_checks(self) -> Rep:
        """Crash a checkpointed run mid-cell, resume it, compare key for key.

        The crash is raised right after a checkpoint save in the middle of
        the second cell, as a ``BaseException`` so it escapes the per-cell
        error capture the way a kill would.  The resumed run must reproduce
        the uninterrupted records (timings aside) and, having resumed from
        the checkpoint rather than from scratch, write exactly as many
        checkpoints in total as an uninterrupted run does.
        """
        rep = Rep()
        unit = self.units()[0]
        saves = [0]
        crash_at = [0]
        original = RunnerCheckpoint.__dict__["save"]

        def save(checkpoint, path):
            original(checkpoint, path)
            saves[0] += 1
            if saves[0] == crash_at[0]:
                raise _SimulatedCrash

        RunnerCheckpoint.save = save
        try:
            reference = self.fresh_dir("uninterrupted")
            self.pipeline(unit, reference).run(backend="serial",
                                         checkpoint_every=self.chunk)
            total = saves[0]
            per_cell = math.ceil(total / len(self.spec(unit)))
            saves[0] = 0
            crash_at[0] = per_cell + max(1, per_cell // 2)
            resumed = self.fresh_dir("resumed")
            crashed = False
            try:
                self.pipeline(unit, resumed).run(backend="serial",
                                           checkpoint_every=self.chunk)
            except _SimulatedCrash:
                crashed = True
            crash_at[0] = 0
            rep.check(crashed, "the simulated crash point was never reached")
            self.pipeline(unit, resumed).run(backend="serial",
                                       checkpoint_every=self.chunk)
        finally:
            RunnerCheckpoint.save = original
        rep.check(saves[0] == total,
                  f"resume wrote {saves[0]} checkpoints in total, an "
                  f"uninterrupted run writes {total}")
        expected = {k: _without_timings(r) for k, r in self._records(unit, reference).items()}
        actual = {k: _without_timings(r) for k, r in self._records(unit, resumed).items()}
        rep.check(bool(expected) and expected == actual,
                  "resumed records differ from the uninterrupted run")
        return rep


class _SimulatedCrash(BaseException):
    """Stands in for a kill: not an ``Exception``, so no cell captures it."""


WORKLOADS = {w.name: w for w in (PaperGrid, BatchImbalance, ExactCheckpoint)}
