"""The execution-backend layer: name lookup, instances, fallbacks."""

from __future__ import annotations

import pytest

from repro.classifiers import GaussianNaiveBayes
from repro.detectors import FHDDM
from repro.evaluation.grid import (
    CellTask,
    GridCell,
    cell_record,
    run_cell_tasks,
    tasks_picklable,
)
from repro.protocol.backends import (
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.streams.scenarios import make_artificial_stream

N_INSTANCES = 300


def nb_factory(n_features, n_classes):
    return GaussianNaiveBayes(n_features, n_classes)


def fhddm_factory(n_features, n_classes):
    return FHDDM()


def tiny_stream(seed: int):
    return make_artificial_stream(
        "rbf", 4, n_instances=N_INSTANCES, max_imbalance_ratio=10.0, seed=seed
    )


#: Record fields that legitimately differ between two executions of the
#: same cell (timing); everything else must match key-for-key.
_VOLATILE = ("wall_time", "detector_time", "classifier_time")


def _stable(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in _VOLATILE}


def _task(name: str, seed: int = 0, **kwargs) -> CellTask:
    return CellTask(
        cell=GridCell(stream=name, detector="FHDDM", seed=seed),
        stream_factory=kwargs.pop("stream_factory", tiny_stream),
        detector_factory=fhddm_factory,
        classifier_factory=nb_factory,
        run_kwargs={"n_instances": N_INSTANCES},
        **kwargs,
    )


# ------------------------------------------------------------- name lookup
def test_builtin_backends_are_named():
    assert sorted(BACKENDS) == ["process", "serial", "thread"]
    with pytest.raises(TypeError):
        BACKENDS["extra"] = SerialBackend  # fixed, not a registry


def test_unknown_backend_is_a_value_error():
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("cluster")
    with pytest.raises(ValueError, match="unknown backend"):
        run_cell_tasks([_task("a")], backend="bogus")


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_every_named_backend_runs_cells_in_input_order(name):
    """Each built-in backend returns one result per task in input order,
    reports every finished cell to ``progress``, and computes the records a
    plain serial loop does (timings aside)."""
    tasks = [_task("a", seed=0), _task("b", seed=1), _task("c", seed=2)]
    finished = []
    results = run_cell_tasks(
        tasks, backend=name, max_workers=2, progress=finished.append
    )
    assert [result.cell for result in results] == [task.cell for task in tasks]
    assert all(result.ok for result in results)
    assert sorted(result.cell.stream for result in finished) == ["a", "b", "c"]
    expected = [_stable(cell_record(task.execute())) for task in tasks]
    assert [_stable(cell_record(result)) for result in results] == expected


def test_resolve_accepts_instances_and_rejects_junk():
    backend = SerialBackend()
    assert resolve_backend(backend) is backend
    assert isinstance(resolve_backend("serial"), SerialBackend)
    with pytest.raises(TypeError):
        resolve_backend(42)


# ----------------------------------------------------- picklability probing
def test_probe_covers_kwargs_not_just_factories():
    """An unpicklable value hiding in runner_kwargs must fail the probe —
    the old three-factory probe let it through and every cell then died on
    the process backend."""
    clean = _task("a")
    assert tasks_picklable([clean])
    poisoned = _task("b", runner_kwargs={"hook": lambda: None})
    assert not tasks_picklable([poisoned])
    poisoned_run = CellTask(
        cell=clean.cell,
        stream_factory=clean.stream_factory,
        detector_factory=clean.detector_factory,
        classifier_factory=clean.classifier_factory,
        run_kwargs={"n_instances": N_INSTANCES, "junk": lambda: None},
    )
    assert not tasks_picklable([poisoned_run])


def test_process_backend_warns_when_degrading_to_threads():
    closure_seed = 0
    tasks = [_task("a", stream_factory=lambda seed: tiny_stream(closure_seed))]
    with pytest.warns(RuntimeWarning, match="degrading to the thread backend"):
        results = run_cell_tasks(tasks, backend="process", max_workers=1)
    assert results[0].ok


# ---------------------------------------------------------- strict records
def test_cell_record_replaces_nonfinite_floats():
    """A broken-pool cell's nan wall_time must serialise as null, not NaN."""
    import json

    from repro.evaluation.grid import GridCellResult

    failed = GridCellResult(
        cell=GridCell(stream="s", detector="d", seed=0),
        result=None,
        wall_time=float("nan"),
        error="Traceback: broken pool",
    )
    record = cell_record(failed)
    assert record["wall_time"] is None

    def reject(token):
        raise AssertionError(f"non-strict constant {token!r}")

    json.loads(json.dumps(record), parse_constant=reject)


@pytest.mark.parametrize(
    "backend_class", [SerialBackend, ThreadBackend, ProcessBackend]
)
def test_pipeline_accepts_backend_instances(tmp_path, backend_class):
    from repro.protocol.pipeline import ProtocolPipeline
    from repro.protocol.spec import ProtocolSpec

    spec = ProtocolSpec.quick()
    spec.n_instances = 400
    spec.window_size = 100
    spec.pretrain_size = 50
    spec.drift_tolerance = 200
    spec.__post_init__()

    class CountingBackend(backend_class):
        calls = 0

        def run(self, tasks, *, max_workers=None, progress=None):
            CountingBackend.calls += 1
            return super().run(tasks, max_workers=max_workers, progress=progress)

    backend = CountingBackend()
    assert isinstance(backend, ExecutionBackend)
    pipeline = ProtocolPipeline(spec, str(tmp_path / "results"))
    summary = pipeline.run(backend=backend)
    assert CountingBackend.calls == 1
    assert summary.n_executed == 2
    assert summary.n_failed == 0
    assert pipeline.status().done
