"""Parallel experiment grid: (streams x detectors x seeds) fan-out.

The paper's evaluation is a large cross-product — 24 benchmark streams, six
detectors, multiple repetitions — and every cell is an independent prequential
run.  :class:`ExperimentGrid` materialises that cross-product and fans it out
over an :class:`~repro.protocol.backends.ExecutionBackend`:

* ``backend="process"`` — one OS process per worker (default; NumPy-heavy
  cells scale with cores).  Factories must be picklable (module-level
  functions or ``functools.partial`` over them; lambdas are not);
  unpicklable payloads degrade to threads with a warning.
* ``backend="thread"`` — threads; useful when factories are closures or the
  grid is small.
* ``backend="serial"`` — in-process loop; deterministic ordering, easiest to
  debug.

Any :class:`~repro.protocol.backends.ExecutionBackend` instance is accepted
in place of a name.

Every cell builds its stream *inside the worker* from ``(factory, seed)``, so
no stream state crosses process boundaries and each cell is independently
reproducible.  Failures are captured per cell (the grid keeps going) and
reported on the :class:`GridResult`.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.durability import atomic_write_text
from repro.core.jsonio import dumps_strict, sanitize_nonfinite

from repro.evaluation.prequential import PrequentialRunner, RunResult
from repro.evaluation.results import ResultTable
from repro.streams.base import DataStream
from repro.streams.scenarios import ScenarioStream

__all__ = [
    "GridCell",
    "GridCellResult",
    "GridResult",
    "ExperimentGrid",
    "CellTask",
    "cell_record",
    "run_cell_tasks",
]

#: Times a cell may be caught in a broken pool before it is written off.
#: A crashing worker (OOM kill, native segfault) breaks *every* future
#: sharing the pool, so innocent queued cells legitimately see one or two
#: broken pools before they get a clean run of their own.
_MAX_BROKEN_RETRIES = 2

#: Builds the stream for one cell: ``(seed) -> ScenarioStream | DataStream``.
StreamFactory = Callable[[int], "ScenarioStream | DataStream"]
#: Builds a detector for one cell: ``(n_features, n_classes) -> detector``.
DetectorFactory = Callable[[int, int], object]


@dataclass(frozen=True)
class GridCell:
    """Coordinates of one experiment in the grid."""

    stream: str
    detector: str
    seed: int


@dataclass
class GridCellResult:
    """One finished (or failed) grid cell."""

    cell: GridCell
    result: RunResult | None
    wall_time: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None


@dataclass
class GridResult:
    """Aggregated outcome of a grid run."""

    cells: list[GridCellResult] = field(default_factory=list)

    @property
    def successes(self) -> list[GridCellResult]:
        return [cell for cell in self.cells if cell.ok]

    @property
    def failures(self) -> list[GridCellResult]:
        return [cell for cell in self.cells if not cell.ok]

    def metric(self, cell_result: GridCellResult, name: str) -> float:
        value = getattr(cell_result.result, name)
        return float(value)

    def table(self, metric: str = "pmauc", scale: float = 1.0) -> ResultTable:
        """(streams x detectors) table of a RunResult metric, seed-averaged."""
        values: dict[tuple[str, str], list[float]] = {}
        for cell_result in self.successes:
            key = (cell_result.cell.stream, cell_result.cell.detector)
            values.setdefault(key, []).append(
                scale * self.metric(cell_result, metric)
            )
        table = ResultTable(metric_name=metric)
        for (stream, detector), series in values.items():
            table.add(stream, detector, float(np.mean(series)))
        return table

    def to_records(self) -> list[dict]:
        """Flat JSON-friendly records, one per cell (for disk/DB sinks)."""
        return [cell_record(cell_result) for cell_result in self.cells]

    def save_json(self, path: "str | Path") -> None:
        """Persist the records as **strict** JSON, atomically.

        Serialised via :func:`repro.core.jsonio.dumps_strict` (non-finite
        floats become ``null`` instead of bare ``NaN`` tokens) and written
        with the tmp-write → fsync → ``os.replace`` → dir-fsync
        pattern, so a crash mid-save can never leave a torn file where a
        previous result set used to be.
        """
        target = Path(path)
        atomic_write_text(
            target.parent, target, dumps_strict(self.to_records(), indent=2)
        )


def cell_record(cell_result: GridCellResult) -> dict:
    """One flat JSON-friendly record for a finished (or failed) grid cell.

    Includes the run metrics, detection positions, and — when the stream
    carried ground truth — the drift-detection report (recall, delay, false
    alarms), so a record is self-contained for disk/DB sinks.  The record is
    **strict JSON**: non-finite floats (a broken-pool ``wall_time``, a
    no-detections ``mean_delay``) are replaced by ``None`` so serialising it
    can never emit a bare ``NaN`` that sqlite/parquet/jq consumers reject.
    """
    record: dict = dict(asdict(cell_result.cell))
    record["wall_time"] = cell_result.wall_time
    record["error"] = cell_result.error
    if cell_result.result is not None:
        run = cell_result.result
        record.update(
            pmauc=run.pmauc,
            pmgm=run.pmgm,
            accuracy=run.accuracy,
            kappa=run.kappa,
            detections=list(run.detections),
            n_instances=run.n_instances,
            detector_time=run.detector_time,
            classifier_time=run.classifier_time,
        )
        if run.drift_report is not None:
            report = run.drift_report
            record["drift_report"] = {
                "n_true_drifts": report.n_true_drifts,
                "n_detections": report.n_detections,
                "n_detected": report.n_detected,
                "n_false_alarms": report.n_false_alarms,
                "mean_delay": report.mean_delay,
                "detection_recall": report.detection_recall,
            }
    return sanitize_nonfinite(record)


def _execute_cell(
    cell: GridCell,
    stream_factory: StreamFactory,
    detector_factory: DetectorFactory | None,
    classifier_factory: Callable,
    runner_kwargs: dict,
    run_kwargs: dict,
) -> GridCellResult:
    """Run one grid cell; module-level so process pools can pickle it."""
    started = time.perf_counter()
    try:
        stream = stream_factory(cell.seed)
        if isinstance(stream, ScenarioStream):
            data_stream = stream.stream
        else:
            data_stream = stream
        detector = (
            detector_factory(data_stream.n_features, data_stream.n_classes)
            if detector_factory is not None
            else None
        )
        runner = PrequentialRunner(classifier_factory, **runner_kwargs)
        result = runner.run(
            stream, detector, detector_name=cell.detector, **run_kwargs
        )
        return GridCellResult(
            cell=cell, result=result, wall_time=time.perf_counter() - started
        )
    except Exception:  # noqa: BLE001 - failures are per-cell data, not fatal
        return GridCellResult(
            cell=cell,
            result=None,
            wall_time=time.perf_counter() - started,
            error=traceback.format_exc(),
        )


@dataclass(frozen=True)
class CellTask:
    """A fully-specified unit of grid work: one cell plus its factories.

    Both :class:`ExperimentGrid` and the protocol pipeline
    (:mod:`repro.protocol`) reduce their workload to a list of cell tasks and
    hand it to :func:`run_cell_tasks`; the pipeline filters the list first so
    completed cells are never resubmitted.
    """

    cell: GridCell
    stream_factory: StreamFactory
    detector_factory: DetectorFactory | None
    classifier_factory: Callable
    runner_kwargs: Mapping = field(default_factory=dict)
    run_kwargs: Mapping = field(default_factory=dict)

    def args(self) -> tuple:
        return (
            self.cell,
            self.stream_factory,
            self.detector_factory,
            self.classifier_factory,
            dict(self.runner_kwargs),
            dict(self.run_kwargs),
        )

    def execute(self) -> GridCellResult:
        return _execute_cell(*self.args())


def tasks_picklable(tasks: Sequence[CellTask]) -> bool:
    """Whether every task's **full** payload can cross a process boundary.

    Probes ``task.args()`` — the exact tuple a process worker receives — not
    just the three factories: an unpicklable value hiding inside
    ``runner_kwargs``/``run_kwargs`` would otherwise pass the probe and then
    fail every cell at submit time on the process backend.
    """
    import pickle

    try:
        pickle.dumps(tuple(task.args() for task in tasks))
    except Exception:  # noqa: BLE001 - any pickling failure means "no"
        return False
    return True


def run_cell_tasks(
    tasks: Sequence[CellTask],
    backend: "str | object" = "process",
    max_workers: int | None = None,
    progress: Callable[[GridCellResult], None] | None = None,
) -> list[GridCellResult]:
    """Execute cell tasks on the chosen backend, preserving input order.

    ``backend`` is a built-in backend name — ``"process"`` (degrades to
    threads, with a warning, when a payload is not picklable), ``"thread"``,
    ``"serial"`` — or an :class:`~repro.protocol.backends.ExecutionBackend`
    instance.  ``progress`` is invoked with every finished cell; worker
    crashes surface as failed :class:`GridCellResult`\\ s rather than
    exceptions (see :mod:`repro.protocol.backends` for the broken-pool
    retry semantics).
    """
    # Imported lazily: backends live beside the protocol pipeline (which
    # imports this module), so a module-level import would be circular.
    from repro.protocol.backends import resolve_backend

    return resolve_backend(backend).run(
        tasks, max_workers=max_workers, progress=progress
    )


class ExperimentGrid:
    """Fan a (streams x detectors x seeds) grid across parallel workers.

    Parameters
    ----------
    streams:
        Mapping of stream name to a factory ``seed -> stream``; the stream is
        built inside the worker, so each cell is independent.
    detectors:
        Mapping of detector name to ``(n_features, n_classes) -> detector``.
        A ``None`` factory runs a detector-less baseline.
    seeds:
        Seeds to repeat every (stream, detector) pair with.
    classifier_factory:
        Base classifier for every cell; defaults to the paper's
        cost-sensitive perceptron tree.
    n_instances:
        Instances per run (``None`` = the scenario's recommended length).
    runner_kwargs:
        Extra :class:`PrequentialRunner` options (``chunk_size``,
        ``batch_mode``, ``pretrain_size``, ...).  With ``batch_mode=True``
        every registry detector runs its NumPy-native ``step_batch`` kernel
        (chunk-exact detections; see :mod:`repro.detectors.base`), which is
        the recommended configuration for large grids.
    """

    def __init__(
        self,
        streams: Mapping[str, StreamFactory],
        detectors: Mapping[str, DetectorFactory | None],
        seeds: Sequence[int] = (0,),
        classifier_factory: Callable | None = None,
        n_instances: int | None = None,
        **runner_kwargs,
    ) -> None:
        if not streams:
            raise ValueError("streams must not be empty")
        if not detectors:
            raise ValueError("detectors must not be empty")
        if not seeds:
            raise ValueError("seeds must not be empty")
        if classifier_factory is None:
            from repro.evaluation.experiment import default_classifier_factory

            classifier_factory = default_classifier_factory
        self._streams = dict(streams)
        self._detectors = dict(detectors)
        self._seeds = [int(seed) for seed in seeds]
        self._classifier_factory = classifier_factory
        self._n_instances = n_instances
        self._runner_kwargs = dict(runner_kwargs)

    def cells(self) -> list[GridCell]:
        """The full cross-product, in deterministic order."""
        return [
            GridCell(stream=stream, detector=detector, seed=seed)
            for stream in self._streams
            for detector in self._detectors
            for seed in self._seeds
        ]

    def __len__(self) -> int:
        return len(self._streams) * len(self._detectors) * len(self._seeds)

    # ------------------------------------------------------------------ run
    def run(
        self,
        max_workers: int | None = None,
        backend: str = "process",
        progress: Callable[[GridCellResult], None] | None = None,
    ) -> GridResult:
        """Execute every cell and aggregate the results.

        Parameters
        ----------
        max_workers:
            Worker count for the parallel backends (default: executor's own).
        backend:
            A built-in backend name — ``"process"`` (default),
            ``"thread"``, ``"serial"`` — or an
            :class:`~repro.protocol.backends.ExecutionBackend` instance.
            The process backend requires picklable payloads and degrades to
            threads (with a warning) when pickling fails.
        progress:
            Optional callback invoked with every finished cell.
        """
        return GridResult(
            cells=run_cell_tasks(self.tasks(), backend, max_workers, progress)
        )

    # ------------------------------------------------------------ internals
    def tasks(self) -> list[CellTask]:
        """One :class:`CellTask` per grid cell, in deterministic order."""
        run_kwargs = {"n_instances": self._n_instances}
        return [
            CellTask(
                cell=cell,
                stream_factory=self._streams[cell.stream],
                detector_factory=self._detectors[cell.detector],
                classifier_factory=self._classifier_factory,
                runner_kwargs=self._runner_kwargs,
                run_kwargs=run_kwargs,
            )
            for cell in self.cells()
        ]
