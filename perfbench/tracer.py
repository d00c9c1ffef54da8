"""Span tracer for the benchmark's traced runs.

The tracer records spans from the benchmark's own files: it installs
class-level wrappers around the public entry points of each ``src/repro``
layer, keeps every span (name, start, end, parent) in memory, and computes
per-layer *self time* from the parent links when the run ends.  The program
itself is not modified.

Rules that keep the split honest:

* A call into a layer made from inside a span of the same layer records no
  span (it passes straight through), so a layer's internal fan-out
  (``step_batch`` looping over ``step``, a tree classifier training its leaf
  models, a composite stream pulling from its parts) stays that layer's time
  and costs one cheap check per call.
* The detector ``snapshot()``/``restore()`` inside ``RunnerCheckpoint.capture``
  is therefore checkpoint time; only the runner's own calls count as rollback.
* An entry point that does not exist is skipped and listed in
  :attr:`Tracer.missing`; the tracer never fails a run for it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import weakref
from collections import Counter

import numpy as np

#: Span names whose self time is a named layer (``<name>.s`` in the output).
LAYER_SPANS = (
    "streams.generate",
    "classifiers.predict",
    "classifiers.interleaved",
    "classifiers.train",
    "classifiers.replay",
    "detectors.step",
    "detectors.warm_start",
    "metrics.update",
    "evaluation.rollback",
    "evaluation.checkpoint_capture",
    "evaluation.checkpoint_write",
    "protocol.store_put",
    "protocol.store_scan",
    "protocol.store_read",
    "protocol.analysis",
)

#: Counters recorded at the same boundaries as the spans.
COUNTERS = (
    "streams.rows",
    "classifiers.builds",
    "classifiers.replay_rows",
    "detectors.rows",
    "detectors.flags",
    "metrics.rows",
    "evaluation.captures",
    "evaluation.rollbacks",
    "evaluation.checkpoints",
    "evaluation.checkpoint_bytes",
    "protocol.store_puts",
    "protocol.record_bytes",
)

#: Container span around one prequential run.  It is not a layer: its self
#: time is the runner's own bookkeeping and lands in ``unattributed.s``.
RUNNER_SPAN = "runner"


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs[name]


class Tracer:
    """In-memory spans and counters behind installable class-level wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._patched_stores: set[type] = set()
        # Classifiers built by a rebuild and not yet asked to predict.
        self._fresh: "weakref.WeakSet" = weakref.WeakSet()

    # ----------------------------------------------------------------- spans
    def _open(self, name: str) -> int:
        span = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(span)
        self.starts.append(time.perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.ends[span] = time.perf_counter()
        self._stack.pop()

    def _innermost(self, name: str) -> int:
        for span in reversed(self._stack):
            if self.names[span] == name:
                return span
        return -1

    def wrap(self, fn, name, after=None, before=None):
        """A traced version of ``fn`` recording a span named ``name``.

        ``before(args)`` may return a different span name for this call (same
        layer); ``after(args, kwargs, result)`` updates counters once the span
        has closed, so counting costs no span time.
        """
        prefix = name.split(".")[0] + "."
        names = self.names
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and names[stack[-1]].startswith(prefix):
                return fn(*args, **kwargs)
            span = self._open(name if before is None else before(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # --------------------------------------------------------------- install
    def _set(self, owner, attr: str, value) -> None:
        had_own = attr in owner.__dict__
        self._patches.append((owner, attr, owner.__dict__.get(attr), had_own))
        setattr(owner, attr, value)

    def _resolve(self, module: str, qualname: str):
        target = f"{module}:{qualname}"
        try:
            obj = importlib.import_module(module)
            for part in qualname.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return None
        return obj

    def wrap_method(self, cls, attr, name, after=None, before=None,
                    subclasses=True) -> None:
        """Wrap ``attr`` on ``cls`` and on every loaded subclass defining it.

        When ``cls`` only inherits ``attr`` (e.g. ``snapshot`` from the
        snapshot mixin), the wrapper is set on ``cls`` itself so only that
        family is traced.
        """
        if getattr(cls, attr, None) is None:
            self.missing.append(f"{cls.__module__}:{cls.__qualname__}.{attr}")
            return
        owners = [cls]
        if subclasses:
            pending = list(cls.__subclasses__())
            while pending:
                sub = pending.pop()
                pending.extend(sub.__subclasses__())
                if attr in sub.__dict__ and sub not in owners:
                    owners.append(sub)
        for owner in owners:
            raw = owner.__dict__.get(attr)
            if raw is None:
                raw = getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, name, after, before))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(raw.__func__, name, after, before))
            elif getattr(raw, "__isabstractmethod__", False):
                continue
            else:
                wrapped = self.wrap(raw, name, after, before)
            self._set(owner, attr, wrapped)

    def wrap_function(self, module: str, attr: str, name: str) -> None:
        """Wrap a module-level function everywhere it was imported by name."""
        original = self._resolve(module, attr)
        if original is None:
            return
        wrapped = self.wrap(original, name)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if namespace is not None and namespace.get(attr) is original:
                self._set(mod, attr, wrapped)

    def install(self) -> None:
        """Wrap every entry point of the layers named in :data:`LAYER_SPANS`."""
        count = self.counts
        fresh = self._fresh
        self.missing = []

        def generated(args, kwargs, result):
            count["streams.rows"] += len(result[1])

        def counting(counter):
            def after(args, kwargs, result):
                count[counter] += 1
            return after

        def stepped(args, kwargs, result):
            count["detectors.rows"] += len(_arg(args, kwargs, 2, "y_true"))
            count["detectors.flags"] += int(np.count_nonzero(result))

        def stepped_one(args, kwargs, result):
            count["detectors.rows"] += 1
            count["detectors.flags"] += int(bool(result))

        def folded(args, kwargs, result):
            count["metrics.rows"] += len(_arg(args, kwargs, 2, "y_true"))

        def predicting(args):
            fresh.discard(args[0])
            return "classifiers.predict"

        def interleaving(args):
            fresh.discard(args[0])
            return "classifiers.interleaved"

        def training(args):
            if args[0] in fresh:
                count["classifiers.replay_rows"] += 1
                return "classifiers.replay"
            return "classifiers.train"

        def saved(args, kwargs, result):
            count["evaluation.checkpoints"] += 1
            path = _arg(args, kwargs, 1, "path")
            count["evaluation.checkpoint_bytes"] += os.path.getsize(path)

        stream = self._resolve("repro.streams.base", "DataStream")
        if stream is not None:
            self.wrap_method(stream, "generate_batch", "streams.generate", generated)
            self.wrap_method(stream, "next_instance", "streams.generate",
                             counting("streams.rows"))

        classifier = self._resolve("repro.classifiers.base", "StreamClassifier")
        if classifier is not None:
            for attr in ("predict_proba", "predict_proba_batch"):
                self.wrap_method(classifier, attr, "classifiers.predict",
                                 before=predicting)
            self.wrap_method(classifier, "predict_fit_interleaved",
                             "classifiers.interleaved", before=interleaving)
            self.wrap_method(classifier, "partial_fit", "classifiers.train",
                             before=training)
            self.wrap_method(classifier, "partial_fit_batch", "classifiers.train")

        detector = self._resolve("repro.detectors.base", "DriftDetector")
        if detector is not None:
            self.wrap_method(detector, "step_batch", "detectors.step", stepped)
            self.wrap_method(detector, "step", "detectors.step", stepped_one)
            self.wrap_method(detector, "warm_start", "detectors.warm_start")
            self.wrap_method(detector, "snapshot", "evaluation.rollback",
                             counting("evaluation.captures"))
            self.wrap_method(detector, "restore", "evaluation.rollback",
                             counting("evaluation.rollbacks"))

        evaluator = self._resolve("repro.metrics.prequential", "PrequentialEvaluator")
        if evaluator is not None:
            self.wrap_method(evaluator, "update_batch", "metrics.update", folded)
            self.wrap_method(evaluator, "update", "metrics.update",
                             counting("metrics.rows"))

        checkpoint = self._resolve("repro.evaluation.checkpoint", "RunnerCheckpoint")
        if checkpoint is not None:
            self.wrap_method(checkpoint, "capture", "evaluation.checkpoint_capture")
            self.wrap_method(checkpoint, "save", "evaluation.checkpoint_write", saved)

        runner = self._resolve("repro.evaluation.prequential", "PrequentialRunner")
        if runner is not None:
            self.wrap_method(runner, "run", RUNNER_SPAN, subclasses=False)
            self._hook_runner_init(runner)

        pipeline = self._resolve("repro.protocol.pipeline", "ProtocolPipeline")
        if pipeline is not None:
            self._hook_pipeline_init(pipeline)

        for attr in ("analyze_records", "render_report"):
            self.wrap_function("repro.protocol.analysis", attr, "protocol.analysis")

    def _hook_runner_init(self, runner_cls) -> None:
        """Count classifier-factory calls; mark rebuilt classifiers as fresh.

        The first build inside a ``PrequentialRunner.run`` is the initial
        classifier; every later one is a drift-triggered rebuild, whose
        single-row ``partial_fit`` calls before its first predict are the
        replay cost.
        """
        original = runner_cls.__init__
        tracer = self

        def counted_builds(factory):
            last_run = [None]

            @functools.wraps(factory)
            def build(*args, **kwargs):
                classifier = factory(*args, **kwargs)
                tracer.counts["classifiers.builds"] += 1
                run = tracer._innermost(RUNNER_SPAN)
                if run >= 0 and last_run[0] == run:
                    tracer._fresh.add(classifier)
                last_run[0] = run
                return classifier

            return build

        @functools.wraps(original)
        def __init__(runner, classifier_factory, *args, **kwargs):
            original(runner, counted_builds(classifier_factory), *args, **kwargs)

        self._set(runner_cls, "__init__", __init__)

    def _hook_pipeline_init(self, pipeline_cls) -> None:
        """Wrap the store class of each pipeline, whatever its name."""
        original = pipeline_cls.__init__
        tracer = self

        def put(args, kwargs, result):
            tracer.counts["protocol.store_puts"] += 1
            record = _arg(args, kwargs, 2, "record")
            tracer.counts["protocol.record_bytes"] += len(
                json.dumps(record, default=str).encode("utf-8")
            )

        @functools.wraps(original)
        def __init__(pipeline, *args, **kwargs):
            original(pipeline, *args, **kwargs)
            store_cls = type(pipeline.store)
            if store_cls in tracer._patched_stores:
                return
            tracer._patched_stores.add(store_cls)
            for attr, name, after in (
                ("put", "protocol.store_put", put),
                ("statuses", "protocol.store_scan", None),
                ("get_many", "protocol.store_read", None),
            ):
                tracer.wrap_method(store_cls, attr, name, after, subclasses=False)

        self._set(pipeline_cls, "__init__", __init__)

    def uninstall(self) -> None:
        """Put every wrapped attribute back as it was (spans are kept)."""
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()
        self._patched_stores.clear()

    # ---------------------------------------------------------------- output
    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its direct children cover."""
        covered = [0.0] * len(self.names)
        for span, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[span] - self.starts[span]
        totals: Counter = Counter()
        for span, name in enumerate(self.names):
            totals[name] += self.ends[span] - self.starts[span] - covered[span]
        return dict(totals)

    def write(self, path) -> None:
        """Write the spans (name, start, end, parent) as one JSON document."""
        spans = [
            [name, start, end, parent]
            for name, start, end, parent in zip(
                self.names, self.starts, self.ends, self.parents
            )
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"missing": self.missing, "spans": spans}, handle)
