"""Unit tests for the declarative schedule DSL and its execution engine."""

import numpy as np
import pytest

from repro.streams.base import StreamSchema
from repro.streams.generators import RandomRBFGenerator
from repro.streams.imbalance import (
    DynamicImbalance,
    RoleSwitchingImbalance,
    StaticImbalance,
)
from repro.streams.schedule import (
    DriftEvent,
    Schedule,
    ScheduledStream,
    Segment,
)


def rbf_factory(n_classes=4, n_features=6, seed=5):
    def factory(concept):
        return RandomRBFGenerator(
            n_classes=n_classes,
            n_features=n_features,
            n_centroids=10,
            concept=concept,
            seed=seed,
        )

    return factory


class TestSegmentValidation:
    def test_rejects_non_positive_length(self):
        with pytest.raises(ValueError, match="length"):
            Segment(length=0)

    def test_rejects_unknown_transition(self):
        with pytest.raises(ValueError, match="transition"):
            Segment(length=10, transition="wobbly")

    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError, match="label_noise"):
            Segment(length=10, label_noise=1.5)

    def test_rejects_empty_class_sets(self):
        with pytest.raises(ValueError, match="drifted_classes"):
            Segment(length=10, drifted_classes=())
        with pytest.raises(ValueError, match="active_classes"):
            Segment(length=10, active_classes=())

    def test_class_sets_are_sorted_and_deduped(self):
        segment = Segment(length=10, drifted_classes=(3, 1, 3))
        assert segment.drifted_classes == (1, 3)

    def test_rejects_bad_imbalance_ratio(self):
        with pytest.raises(ValueError, match="imbalance_ratio"):
            Segment(length=10, imbalance_ratio=0.5)


class TestScheduleGeometry:
    def test_requires_at_least_one_segment(self):
        with pytest.raises(ValueError):
            Schedule(segments=())

    def test_total_length_and_starts(self):
        schedule = Schedule.of(Segment(100), Segment(50), Segment(25))
        assert schedule.total_length == 175
        assert schedule.starts() == [0, 100, 150]

    def test_concept_inheritance(self):
        schedule = Schedule.of(
            Segment(10), Segment(10, concept=2), Segment(10), Segment(10, concept=0)
        )
        assert schedule.resolved_concepts() == [0, 2, 2, 0]

    def test_feature_shift_inheritance(self):
        schedule = Schedule.of(
            Segment(10), Segment(10, feature_shift=0.3), Segment(10)
        )
        assert schedule.resolved_shifts() == [0.0, 0.3, 0.3]

    def test_concept_sweep_helper(self):
        schedule = Schedule.concept_sweep(3, 100, transition="gradual", width=20)
        assert schedule.resolved_concepts() == [0, 1, 2]
        assert [s.width for s in schedule.segments] == [0, 20, 20]

    def test_recurring_helper_cycles(self):
        schedule = Schedule.recurring([0, 1], period=50, n_periods=4)
        assert schedule.resolved_concepts() == [0, 1, 0, 1]
        assert schedule.drift_points() == [50, 100, 150]

    def test_recurring_helper_validation(self):
        with pytest.raises(ValueError):
            Schedule.recurring([0, 1], period=0, n_periods=2)
        with pytest.raises(ValueError):
            Schedule.recurring([], period=10, n_periods=2)


class TestGroundTruth:
    def test_real_drift_events(self):
        schedule = Schedule.of(
            Segment(100, concept=0),
            Segment(100, concept=1),
            Segment(100, concept=1),  # no change: no event
            Segment(100, concept=2, drifted_classes=(3,)),
        )
        events = schedule.events()
        assert events == [
            DriftEvent(100, "real"),
            DriftEvent(300, "real", classes=(3,)),
        ]
        assert schedule.drift_points() == [100, 300]

    def test_blip_events_are_not_real(self):
        schedule = Schedule.of(
            Segment(100, concept=0),
            Segment(20, concept=1, blip=True),
            Segment(100, concept=0),
        )
        kinds = [e.kind for e in schedule.events()]
        assert kinds == ["blip", "blip"]
        assert schedule.drift_points() == []

    def test_virtual_noise_and_prior_events(self):
        schedule = Schedule.of(
            Segment(100),
            Segment(100, feature_shift=0.4, label_noise=0.2),
            Segment(100, feature_shift=0.4, active_classes=(0, 1)),
        )
        events = schedule.events(n_classes=3)
        assert DriftEvent(100, "virtual") in events
        assert DriftEvent(100, "noise") in events
        # Noise reverts to 0 at the third segment, the shift persists.
        assert DriftEvent(200, "noise") in events
        assert DriftEvent(200, "prior", classes=(2,)) in events
        assert not any(e.kind == "virtual" and e.position == 200 for e in events)

    def test_event_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            DriftEvent(0, "weird")


class TestScheduledStream:
    def _stream(self, seed=9, **kwargs):
        schedule = Schedule.of(
            Segment(120, concept=0),
            Segment(120, concept=1, transition="gradual", width=40),
            Segment(120, concept=2, drifted_classes=(2, 3)),
        )
        return ScheduledStream(
            rbf_factory(), schedule, seed=seed,
            imbalance=DynamicImbalance(4, 2.0, 20.0, period=200), **kwargs
        )

    def test_schema_comes_from_factory(self):
        stream = self._stream()
        assert stream.n_classes == 4
        assert stream.n_features == 6

    def test_ground_truth_exposed(self):
        stream = self._stream()
        assert stream.drift_points == [120, 240]
        assert stream.drifted_classes == [None, [2, 3]]
        assert [e.kind for e in stream.events] == ["real", "real"]

    def test_open_ended_tail(self):
        stream = self._stream()
        features, labels = stream.generate_batch(500)
        assert labels.shape[0] == 500  # total_length is 360; tail continues

    def test_restart_replays(self):
        stream = self._stream()
        first_x, first_y = stream.generate_batch(200)
        stream.restart()
        second_x, second_y = stream.generate_batch(200)
        np.testing.assert_array_equal(first_x, second_x)
        np.testing.assert_array_equal(first_y, second_y)

    def test_active_classes_respected(self):
        schedule = Schedule.of(
            Segment(50, concept=0),
            Segment(150, active_classes=(0, 2)),
        )
        stream = ScheduledStream(rbf_factory(), schedule, seed=3)
        _, labels = stream.generate_batch(200)
        assert set(np.unique(labels[50:])) <= {0, 2}

    def test_removed_class_never_leaks_through_sampler_fallback(self):
        # Regression: the sampler's fullest-buffer fallback could re-emit a
        # removed class when the wanted class exhausted the draw budget.  A
        # tiny budget forces the fallback on nearly every request; the active
        # mask must still hold exactly after the declared change point.
        schedule = Schedule.of(
            Segment(50, concept=0, imbalance_ratio=50.0),
            Segment(450, active_classes=(2, 3), imbalance_ratio=50.0),
        )
        stream = ScheduledStream(
            rbf_factory(), schedule, seed=3, max_tries_per_draw=2
        )
        _, labels = stream.generate_batch(500)
        assert set(np.unique(labels[50:])) <= {2, 3}
        # Both reading paths agree under the stressed fallback.
        other = ScheduledStream(
            rbf_factory(), schedule, seed=3, max_tries_per_draw=2
        )
        inst_y = np.asarray([i.y for i in other.take(500)])
        np.testing.assert_array_equal(labels, inst_y)

    def test_static_segment_ratio_override(self):
        schedule = Schedule.of(Segment(4000, concept=0, imbalance_ratio=30.0))
        stream = ScheduledStream(rbf_factory(), schedule, seed=1)
        _, labels = stream.generate_batch(4000)
        counts = np.bincount(labels, minlength=4).astype(float)
        assert counts[0] / max(counts[3], 1.0) > 5.0

    def test_rotation_override_changes_majority(self):
        base = Schedule.of(Segment(3000, imbalance_ratio=25.0))
        rotated = Schedule.of(Segment(3000, imbalance_ratio=25.0, rotation=1))
        majority = []
        for schedule in (base, rotated):
            stream = ScheduledStream(rbf_factory(), schedule, seed=2)
            _, labels = stream.generate_batch(3000)
            majority.append(int(np.argmax(np.bincount(labels, minlength=4))))
        assert majority[0] != majority[1]

    def test_label_noise_flips_labels(self):
        clean = Schedule.of(Segment(2000, concept=0))
        noisy = Schedule.of(Segment(2000, concept=0, label_noise=0.5))
        stream_clean = ScheduledStream(rbf_factory(), clean, seed=4)
        stream_noisy = ScheduledStream(rbf_factory(), noisy, seed=4)
        _, labels_clean = stream_clean.generate_batch(2000)
        _, labels_noisy = stream_noisy.generate_batch(2000)
        flipped = (labels_clean != labels_noisy).mean()
        assert 0.3 < flipped < 0.7  # ~half the labels move to another class

    def test_feature_shift_moves_features_deterministically(self):
        schedule = Schedule.of(
            Segment(100, concept=0),
            Segment(100, feature_shift=2.0, width=0),
        )
        shifted = ScheduledStream(rbf_factory(), schedule, seed=6)
        plain = ScheduledStream(
            rbf_factory(), Schedule.of(Segment(200, concept=0)), seed=6
        )
        shifted_x, shifted_y = shifted.generate_batch(200)
        plain_x, plain_y = plain.generate_batch(200)
        np.testing.assert_array_equal(shifted_y, plain_y)  # labels untouched
        np.testing.assert_array_equal(shifted_x[:100], plain_x[:100])
        delta = shifted_x[100:] - plain_x[100:]
        np.testing.assert_allclose(np.linalg.norm(delta, axis=1), 2.0)
        # All rows shift along the same fixed unit direction.
        directions = delta / np.linalg.norm(delta, axis=1, keepdims=True)
        assert np.abs(directions - directions[0]).max() < 1e-12

    def test_blip_reverts_to_base_concept(self):
        schedule = Schedule.of(
            Segment(100, concept=0),
            Segment(30, concept=1, blip=True),
            Segment(100, concept=0),
        )
        stream = ScheduledStream(rbf_factory(), schedule, seed=7)
        assert stream.drift_points == []
        kinds = [e.kind for e in stream.events]
        assert kinds == ["blip", "blip"]

    def test_profile_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="n_classes"):
            ScheduledStream(
                rbf_factory(n_classes=4),
                Schedule.of(Segment(10)),
                imbalance=StaticImbalance(3, 10.0),
            )

    def test_out_of_range_classes_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            ScheduledStream(
                rbf_factory(n_classes=4),
                Schedule.of(Segment(10, active_classes=(0, 9))),
            )

    def test_position_advances_across_paths(self):
        stream = self._stream()
        stream.generate_batch(17)
        stream.next_instance()
        assert stream.position == 18


class TestFiniteSourceExhaustion:
    """A finite source exhausting mid-batch must stay chunk-exact and terminal."""

    @staticmethod
    def _make():
        from repro.streams.base import Instance, ListStream

        def factory(concept):
            return ListStream(
                [Instance(x=np.full(2, 100.0 * concept + i), y=i % 2) for i in range(40)]
            )

        return ScheduledStream(
            factory, Schedule.of(Segment(30, concept=0), Segment(30, concept=1)), seed=0
        )

    @staticmethod
    def _make_with_noise_and_shift():
        from repro.streams.base import Instance, ListStream

        def factory(concept):
            return ListStream(
                [Instance(x=np.full(2, float(i)), y=i % 3) for i in range(60)]
            )

        return ScheduledStream(
            factory,
            Schedule.of(
                Segment(20, concept=0),
                Segment(40, label_noise=0.4, feature_shift=0.5, width=10),
            ),
            seed=1,
        )

    def test_truncated_batch_still_applies_noise_and_shift(self):
        # Regression: the exhaustion path used to return the emitted prefix
        # before the label-noise / feature-shift post-processing ran, so a
        # truncated batch diverged from per-instance iteration.
        instances = self._make_with_noise_and_shift().take(1000)
        inst_x = np.vstack([i.x for i in instances])
        inst_y = np.asarray([i.y for i in instances])
        batch_stream = self._make_with_noise_and_shift()
        chunks = []
        while True:
            features, labels = batch_stream.generate_batch(23)
            if labels.shape[0] == 0:
                break
            chunks.append((features, labels))
        batch_x = np.vstack([f for f, _ in chunks])
        batch_y = np.concatenate([y for _, y in chunks])
        assert batch_x.shape == inst_x.shape
        np.testing.assert_array_equal(batch_x, inst_x)
        np.testing.assert_array_equal(batch_y, inst_y)

    def test_batch_matches_instance_on_exhaustion(self):
        instances = self._make().take(1000)
        batch_stream = self._make()
        chunks = []
        while True:
            features, labels = batch_stream.generate_batch(7)
            if labels.shape[0] == 0:
                break
            chunks.append((features, labels))
        batch_x = np.vstack([f for f, _ in chunks])
        inst_x = np.vstack([i.x for i in instances])
        assert batch_x.shape == inst_x.shape
        np.testing.assert_array_equal(batch_x, inst_x)
        # Terminal for both paths afterwards.
        assert batch_stream.generate_batch(5)[1].shape[0] == 0
        assert batch_stream.take(5) == []


class TestTransitions:
    """Probability of drawing from the new concept inside a transition."""

    @staticmethod
    def _stream(transition, width):
        schedule = Schedule.of(
            Segment(100, concept=0),
            Segment(200, concept=1, transition=transition, width=width),
        )
        return ScheduledStream(rbf_factory(), schedule, seed=0)

    def test_sudden_switch_at_boundary(self):
        stream = self._stream("sudden", 0)
        np.testing.assert_array_equal(
            stream._transition_probabilities(1, np.arange(5)), np.ones(5)
        )

    def test_gradual_probability_monotone(self):
        stream = self._stream("gradual", 100)
        probabilities = stream._transition_probabilities(1, np.arange(0, 140, 10))
        assert list(probabilities) == sorted(probabilities)
        assert probabilities[0] == 0.0
        assert probabilities[-1] == 1.0

    def test_incremental_probability_sigmoidal(self):
        stream = self._stream("incremental", 100)
        mid, done = stream._transition_probabilities(1, np.array([50, 150]))
        assert 0.3 < mid < 0.7
        assert done == 1.0


class TestLocalDrift:
    @staticmethod
    def _factory(concept):
        return RandomRBFGenerator(
            n_classes=4, n_features=6, n_centroids=8, concept=concept, seed=11
        )

    def test_non_drifted_classes_keep_distribution(self):
        stream = ScheduledStream(
            self._factory,
            Schedule.of(
                Segment(200, concept=0),
                Segment(200, concept=1, drifted_classes=(3,)),
            ),
            seed=5,
        )
        reference = self._factory(0)
        reference_means = {}
        for label in range(4):
            rows = []
            while len(rows) < 60:
                inst = reference.next_instance()
                if inst.y == label:
                    rows.append(inst.x)
            reference_means[label] = np.vstack(rows).mean(axis=0)

        stream.take(400)  # move well past the drift point
        post = {label: [] for label in range(4)}
        while any(len(v) < 40 for v in post.values()):
            inst = stream.next_instance()
            if len(post[inst.y]) < 60:
                post[inst.y].append(inst.x)
        # Class 0 (not drifted) should stay close to the old concept mean;
        # class 3 (drifted) should move away noticeably more.
        stable_shift = np.linalg.norm(
            np.vstack(post[0]).mean(axis=0) - reference_means[0]
        )
        drifted_shift = np.linalg.norm(
            np.vstack(post[3]).mean(axis=0) - reference_means[3]
        )
        assert drifted_shift > stable_shift

    def test_no_drift_before_segment_boundary(self):
        def make(schedule):
            return ScheduledStream(self._factory, schedule, seed=1)

        drifting = make(
            Schedule.of(
                Segment(10_000, concept=0),
                Segment(100, concept=1, drifted_classes=(2,)),
            )
        )
        stationary = make(Schedule.of(Segment(10_000, concept=0)))
        for inst, ref in zip(drifting.take(50), stationary.take(50)):
            np.testing.assert_array_equal(inst.x, ref.x)
            assert inst.y == ref.y

    def test_chained_local_drifts_move_only_their_classes(self):
        # Each source tags its rows with its concept (x = 1000 * concept + i)
        # and cycles through the four classes, so every emitted row names
        # the concept it was drawn from.
        from repro.streams.base import Instance, ListStream

        def factory(concept):
            return ListStream(
                [
                    Instance(x=np.full(2, 1000.0 * concept + i), y=i % 4)
                    for i in range(1_000)
                ],
                schema=StreamSchema(n_features=2, n_classes=4),
            )

        stream = ScheduledStream(
            factory,
            Schedule.of(
                Segment(100, concept=0),
                Segment(100, concept=4, drifted_classes=(3,)),
                Segment(100, concept=8, drifted_classes=(2, 3)),
                Segment(100, label_noise=0.0),
            ),
            seed=2,
        )
        features, labels = stream.generate_batch(400)
        source = features[:, 0] // 1000

        def concepts_of(lo, hi, classes):
            rows = slice(lo, hi)
            return set(source[rows][np.isin(labels[rows], classes)].astype(int))

        assert concepts_of(0, 100, [0, 1, 2, 3]) == {0}
        assert concepts_of(100, 200, [0, 1, 2]) == {0}
        assert concepts_of(100, 200, [3]) == {4}
        # The second local drift leaves classes 0 and 1 on concept 0 — not on
        # the concept the previous segment moved class 3 to.
        assert concepts_of(200, 400, [0, 1]) == {0}
        assert concepts_of(200, 400, [2, 3]) == {8}
        assert stream.drift_points == [100, 200]
        assert stream.drifted_classes == [[3], [2, 3]]


class TestImbalanceProfiles:
    """Emitted class frequencies follow the schedule-level profile."""

    @staticmethod
    def _factory(concept):
        return RandomRBFGenerator(
            n_classes=4, n_features=5, n_centroids=8, concept=concept, seed=0
        )

    def _stream(self, profile, seed, length=4_000):
        return ScheduledStream(
            self._factory, Schedule.of(Segment(length)), imbalance=profile,
            seed=seed,
        )

    def test_empirical_skew_tracks_profile(self):
        stream = self._stream(StaticImbalance(4, 20.0), seed=1)
        labels = np.asarray([inst.y for inst in stream.take(4000)])
        counts = np.bincount(labels, minlength=4).astype(float)
        # Majority (class 0) should dominate the smallest class by roughly the
        # requested factor (allow generous tolerance for sampling noise).
        assert counts[0] / max(counts[3], 1.0) > 5.0

    def test_role_switching_profile_changes_majority(self):
        profile = RoleSwitchingImbalance(
            4, min_ratio=5.0, max_ratio=20.0, period=4000, switch_period=1000
        )
        stream = self._stream(profile, seed=2)
        first_block = np.bincount(
            [inst.y for inst in stream.take(900)], minlength=4
        )
        stream.take(200)  # cross the switch point
        second_block = np.bincount(
            [inst.y for inst in stream.take(900)], minlength=4
        )
        assert int(np.argmax(first_block)) != int(np.argmax(second_block))

    def test_profile_position_identical_for_empty_and_tiny_chunks(self):
        # The profile must be evaluated at the same emitted position whatever
        # mix of empty, size-1, and larger chunks got the stream there.
        def make():
            return self._stream(DynamicImbalance(4, 2.0, 40.0, period=50), seed=9)

        reference = make()
        ref_x, ref_y = reference.generate_batch(60)
        chunked = make()
        parts = []
        for size in (0, 1, 0, 13, 1, 0, 45):
            parts.append(chunked.generate_batch(size))
        chunk_x = np.vstack([p[0] for p in parts])
        chunk_y = np.concatenate([p[1] for p in parts])
        np.testing.assert_array_equal(ref_x, chunk_x)
        np.testing.assert_array_equal(ref_y, chunk_y)
