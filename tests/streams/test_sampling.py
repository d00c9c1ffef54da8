"""Edge cases of the class-conditional sampler against a per-row reference.

:class:`ClassConditionalSampler` searches each source block for the wanted
class in bulk.  ``RowAtATimeSampler`` below is the plain one-row-per-draw
loop it must match exactly: same returned rows, same per-class buffers, same
source consumption, same fallback order.  The cases are the ones a bulk scan
gets wrong first — a hit on the last budgeted draw across a block boundary,
the fallbacks, a finite source running dry, and a snapshot taken mid-block.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.streams.base import Instance, ListStream
from repro.streams.generators import RandomRBFGenerator
from repro.streams.sampling import ClassConditionalSampler
from repro.streams.scenarios import build_scenario_stream
from repro.streams.schedule import Schedule, ScheduledStream, Segment


class RowAtATimeSampler:
    """Reference: draws and inspects one source row per budgeted draw."""

    def __init__(self, stream, n_classes, max_buffer, max_draws, block_size):
        self.stream = stream
        self.buffers = [deque(maxlen=max_buffer) for _ in range(n_classes)]
        self.max_draws = max_draws
        self.block_size = block_size
        self._block_x = None
        self._block_y = None
        self._cursor = 0

    def _next_row(self):
        if self._block_y is None or self._cursor >= self._block_y.shape[0]:
            block_x, block_y = self.stream.draw_payload(self.block_size)
            if block_y.shape[0] == 0:
                raise StopIteration("exhausted")
            self._block_x, self._block_y, self._cursor = block_x, block_y, 0
        row = self._block_x[self._cursor], int(self._block_y[self._cursor])
        self._cursor += 1
        return row

    def sample(self, wanted, allowed=None):
        buffer = self.buffers[wanted]
        if buffer:
            return buffer.pop()
        exhausted = False
        for _ in range(self.max_draws):
            try:
                x, y = self._next_row()
            except StopIteration:
                exhausted = True
                break
            if y == wanted:
                return x, y
            self.buffers[y].append((x, y))
        candidates = range(len(self.buffers)) if allowed is None else allowed
        best, best_size = -1, 0
        for c in candidates:
            if len(self.buffers[c]) > best_size:
                best, best_size = c, len(self.buffers[c])
        if best_size:
            return self.buffers[best].pop()
        if exhausted:
            raise StopIteration("exhausted")
        if allowed is None:
            return self._next_row()
        for _ in range(max(self.max_draws, 10_000)):
            x, y = self._next_row()
            if y in allowed:
                return x, y
            self.buffers[y].append((x, y))
        raise RuntimeError("no allowed class")


def _source(labels) -> ListStream:
    """A finite source whose single feature is the row's draw index."""
    return ListStream(
        [Instance(x=np.array([float(i)]), y=int(y)) for i, y in enumerate(labels)]
    )


def _pair(labels, n_classes=None, max_buffer=32, max_draws=8, block_size=4):
    n_classes = n_classes or int(max(labels)) + 1
    args = (n_classes, max_buffer, max_draws, block_size)
    return (
        ClassConditionalSampler(_source(labels), *args),
        RowAtATimeSampler(_source(labels), *args),
    )


def _drawn(result):
    """``(draw index, class)`` of a sampled payload row, or the exception."""
    if isinstance(result, type) and issubclass(result, BaseException):
        return result.__name__
    x, y = result
    return int(x[0]), int(y)


def _call(sampler, wanted, allowed):
    try:
        return sampler.sample(wanted, allowed)
    except (StopIteration, RuntimeError) as exc:
        return type(exc)


def _state(sampler):
    return (
        [[(int(x[0]), y) for x, y in buffer] for buffer in sampler.buffers],
        sampler.stream.position,
        sampler._cursor,
    )


def _assert_lockstep(fast, reference, requests) -> list:
    """Serve ``requests`` from both samplers; returns what was served."""
    served = []
    for wanted, allowed in requests:
        got = _drawn(_call(fast, wanted, allowed))
        expected = _drawn(_call(reference, wanted, allowed))
        assert got == expected, (wanted, allowed)
        assert _state(fast) == _state(reference), (wanted, allowed)
        served.append(got)
    return served


def test_hit_on_the_last_budgeted_draw_across_a_block_boundary():
    # Blocks of 4; class 1 is the 6th draw, inside the second block, and
    # the budget is exactly 6 draws.
    labels = [0, 2, 0, 2, 0, 1, 2, 2, 1]
    fast, reference = _pair(labels, max_draws=6, block_size=4)
    assert _assert_lockstep(fast, reference, [(1, None)]) == [(5, 1)]
    assert fast._cursor == 2 and fast.stream.position == 8
    assert [len(b) for b in fast.buffers] == [3, 0, 2]


def test_miss_by_one_draw_falls_back_to_the_fullest_buffer():
    # Class 1 is the 7th draw, one past the budget: no hit; the fullest
    # buffer serves, and the 7th row stays unconsumed in the block.
    labels = [0, 2, 0, 2, 0, 2, 1, 2]
    fast, reference = _pair(labels, max_draws=6, block_size=4)
    _assert_lockstep(fast, reference, [(1, None), (1, None), (1, None)])


def test_fullest_buffer_fallback_ties_go_to_the_lowest_class():
    # Classes 2 and 3 tie at two buffered rows each; class 0 never appears
    # and the source is spent after the first request.
    labels = [3, 2, 3, 2]
    fast, reference = _pair(labels, n_classes=4, max_draws=4, block_size=2)
    served = _assert_lockstep(fast, reference, [(0, None)] * 5)
    # Newest row of class 2, then of class 3 (now fuller), then the tie again.
    assert served == [(3, 2), (2, 3), (1, 2), (0, 3), "StopIteration"]


def test_allowed_class_fallback_never_serves_a_removed_class():
    # Class 2 is buffered deepest but not allowed; the fallback must skip it
    # and, once the allowed buffers are empty, draw until an allowed row.
    labels = [2, 2, 2, 1, 2, 2, 2, 2, 0, 2, 1]
    fast, reference = _pair(labels, n_classes=4, max_draws=4, block_size=3)
    served = _assert_lockstep(fast, reference, [(3, (0, 1, 3))] * 3)
    assert [y for _, y in served] == [1, 0, 1]


def test_finite_source_runs_dry_in_lockstep():
    labels = [0, 1, 2, 0, 1, 1, 2, 0, 0, 1]
    fast, reference = _pair(labels, max_draws=5, block_size=4)
    requests = [(2, None), (2, None), (2, None), (1, None), (0, None)] * 4
    _assert_lockstep(fast, reference, requests)
    assert _drawn(_call(fast, 0, None)) == "StopIteration"


def _finite_scheduled(n_rows: int = 90) -> ScheduledStream:
    rng = np.random.default_rng(5)
    rows = [
        Instance(x=rng.normal(size=3), y=int(y))
        for y in rng.integers(0, 3, size=n_rows)
    ]
    schedule = Schedule.of(
        Segment(length=40, concept=0),
        Segment(length=40, concept=1, label_noise=0.2, feature_shift=0.5),
    )
    return ScheduledStream(lambda concept: ListStream(rows), schedule, seed=11)


def _read_until_dry(stream: ScheduledStream, chunk: int = 37):
    xs, ys = [], []
    while True:
        x, y = stream.generate_batch(chunk)
        if y.shape[0] == 0:
            return np.concatenate(xs), np.concatenate(ys)
        xs.append(x)
        ys.append(y)


def test_engine_runs_dry_mid_batch_like_the_reference_sampler(monkeypatch):
    """The whole engine, bulk scan vs per-row loop, on a drying source.

    The source runs out inside a batch, so the engine must stash the
    undecided uniforms and replay them on the next read.
    """
    bulk_x, bulk_y = _read_until_dry(_finite_scheduled())
    assert bulk_y.shape[0] % 37  # the last batch was cut short
    monkeypatch.setattr(
        "repro.streams.schedule.ClassConditionalSampler", RowAtATimeSampler
    )
    per_row_x, per_row_y = _read_until_dry(_finite_scheduled())
    np.testing.assert_array_equal(bulk_x, per_row_x)
    np.testing.assert_array_equal(bulk_y, per_row_y)


def test_snapshot_mid_block_restores_the_same_tail():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, size=400).tolist()
    requests = [(int(w), None) for w in rng.integers(0, 4, size=60)]

    fast, reference = _pair(labels, max_draws=6, block_size=8)
    _assert_lockstep(fast, reference, requests[:7])
    assert 0 < fast._cursor < fast.block_size  # genuinely mid-block
    snapshot = fast.snapshot()
    tail = [_drawn(fast.sample(*r)) for r in requests[7:]]

    restored, _ = _pair(labels, max_draws=6, block_size=8)
    restored.restore(snapshot)
    assert _state(restored) == _state(reference)
    assert [_drawn(restored.sample(*r)) for r in requests[7:]] == tail
    assert [_drawn(reference.sample(*r)) for r in requests[7:]] == tail


@pytest.mark.parametrize("block_size", [1, 3, 8, 64])
@pytest.mark.parametrize("max_draws", [1, 5, 64])
def test_random_requests_in_lockstep(block_size, max_draws):
    rng = np.random.default_rng(block_size * 100 + max_draws)
    # Skewed labels so misses, fallbacks and evictions all happen.
    labels = rng.choice(5, size=600, p=[0.6, 0.25, 0.1, 0.04, 0.01]).tolist()
    fast, reference = _pair(
        labels, max_buffer=4, max_draws=max_draws, block_size=block_size
    )
    requests = []
    for w in rng.integers(0, 5, size=300).tolist():
        allowed = (0, 2, 4) if w % 2 == 0 and rng.random() < 0.3 else None
        requests.append((w, allowed))
    _assert_lockstep(fast, reference, requests)


def test_rbf_features_are_materialised_once_per_emitted_row(monkeypatch):
    """Label-first sampling computes features for emitted rows only."""
    calls = []
    real = RandomRBFGenerator._features

    def counting(self, idx, block):
        calls.append(len(idx))
        return real(self, idx, block)

    monkeypatch.setattr(RandomRBFGenerator, "_features", counting)
    stream = build_scenario_stream(2, "rbf", 20, 3_000, 3, 100.0, 7).stream
    emitted = 0
    for chunk in (1, 7, 512, 1_000, 1):
        emitted += stream.generate_batch(chunk)[1].shape[0]
    drawn = sum(
        sampler.stream.position for sampler in stream._samplers.values()
    )
    assert drawn > 2 * emitted  # the sampler rejects most source rows...
    assert sum(calls) == emitted  # ...and never pays for their features
