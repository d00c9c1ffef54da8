"""Seeded batch/instance equivalence for every generator and composed stream.

The batch-first contract: for a fixed seed, ``generate_batch(n)`` must be
bit-identical to ``n`` calls of ``next_instance()``, and to any split of the
same ``n`` instances across several smaller batches.  These tests pin that
contract for all ten generators (in noisy and noiseless configurations, and
with the sequential-state variants like the drifting hyperplane and moving
RBF centroids) and for schedule-composed streams: every transition speed,
recurring and local drift, profile-driven imbalance, the scenario families
and the real-world surrogates.
"""

import numpy as np
import pytest

from repro.streams.base import DataStream
from repro.streams.generators import (
    AgrawalGenerator,
    HyperplaneGenerator,
    LEDGenerator,
    MixedGenerator,
    RandomRBFGenerator,
    RandomTreeGenerator,
    SEAGenerator,
    SineGenerator,
    StaggerGenerator,
    WaveformGenerator,
)
from repro.streams.imbalance import DynamicImbalance, RoleSwitchingImbalance
from repro.streams.real_world import real_world_stream
from repro.streams.scenarios import (
    make_artificial_stream,
    scenario_blip,
    scenario_class_arrival,
    scenario_feature_drift,
    scenario_gradual_mixture,
    scenario_label_noise,
    scenario_local_drift,
    scenario_recurring_drift,
    scenario_role_switching,
)
from repro.streams.schedule import Schedule, ScheduledStream, Segment

N_CHECK = 400
SPLITS = (1, 5, 94, 300)  # sums to N_CHECK


GENERATOR_FACTORIES = {
    "sea": lambda seed: SEAGenerator(n_classes=3, noise=0.1, seed=seed),
    "sea-noiseless": lambda seed: SEAGenerator(n_classes=2, noise=0.0, seed=seed),
    "sine": lambda seed: SineGenerator(n_classes=3, noise=0.05, seed=seed),
    "stagger": lambda seed: StaggerGenerator(multi_class=True, noise=0.05, seed=seed),
    "hyperplane": lambda seed: HyperplaneGenerator(
        n_classes=5, n_features=10, seed=seed
    ),
    "hyperplane-drift": lambda seed: HyperplaneGenerator(
        n_classes=5, n_features=10, mag_change=0.01, seed=seed
    ),
    "rbf": lambda seed: RandomRBFGenerator(n_classes=4, n_features=8, seed=seed),
    "rbf-moving": lambda seed: RandomRBFGenerator(
        n_classes=4, n_features=8, centroid_speed=0.01, seed=seed
    ),
    "agrawal": lambda seed: AgrawalGenerator(n_classes=5, n_features=20, seed=seed),
    "led": lambda seed: LEDGenerator(seed=seed),
    "waveform": lambda seed: WaveformGenerator(add_noise_features=True, seed=seed),
    "mixed": lambda seed: MixedGenerator(noise=0.1, seed=seed),
    "randomtree": lambda seed: RandomTreeGenerator(
        n_classes=4, n_features=6, noise=0.1, seed=seed
    ),
}


def _rbf(seed, concept=0):
    return RandomRBFGenerator(
        n_classes=4, n_features=8, concept=concept, seed=seed
    )


def _sea_drift(seed, transition, width):
    return ScheduledStream(
        lambda concept: SEAGenerator(n_classes=3, concept=concept, seed=seed),
        Schedule.of(
            Segment(length=100, concept=0),
            Segment(length=300, concept=2, transition=transition, width=width),
        ),
        seed=seed + 2,
    )


def _rbf_profiled(seed, profile):
    return ScheduledStream(
        lambda concept: _rbf(seed, concept),
        Schedule.of(Segment(length=N_CHECK)),
        imbalance=profile,
        seed=seed + 1,
    )


COMPOSED_FACTORIES = {
    "schedule-sudden": lambda seed: _sea_drift(seed, "sudden", 0),
    "schedule-gradual": lambda seed: _sea_drift(seed, "gradual", 200),
    "schedule-incremental": lambda seed: _sea_drift(seed, "incremental", 200),
    "schedule-sweep": lambda seed: ScheduledStream(
        lambda concept: _rbf(seed, concept),
        Schedule.of(
            Segment(length=150, concept=0),
            Segment(length=140, concept=1),
            Segment(length=110, concept=2),
        ),
        seed=seed + 1,
    ),
    "schedule-recurring": lambda seed: ScheduledStream(
        lambda concept: _rbf(seed, concept),
        Schedule.recurring([0, 1, 2], period=110, n_periods=4),
        seed=seed + 1,
    ),
    "schedule-local-drift": lambda seed: ScheduledStream(
        lambda concept: _rbf(seed, concept),
        Schedule.of(
            Segment(length=80, concept=0),
            Segment(
                length=320,
                concept=1,
                transition="gradual",
                width=150,
                drifted_classes=(2, 3),
            ),
        ),
        seed=seed + 1,
    ),
    "schedule-dynamic-imbalance": lambda seed: _rbf_profiled(
        seed, DynamicImbalance(4, 2.0, 25.0, period=300)
    ),
    "schedule-role-imbalance": lambda seed: _rbf_profiled(
        seed, RoleSwitchingImbalance(4, 2.0, 25.0, period=300, switch_period=130)
    ),
    "scenario1": lambda seed: make_artificial_stream(
        "rbf", 5, n_instances=2_000, seed=seed
    ).stream,
    "scenario2": lambda seed: scenario_role_switching(
        "randomtree", 5, n_instances=2_000, seed=seed
    ).stream,
    "scenario3": lambda seed: scenario_local_drift(
        "rbf", 5, n_instances=2_000, seed=seed
    ).stream,
    "scenario4": lambda seed: scenario_recurring_drift(
        "rbf", 5, n_instances=2_000, seed=seed
    ).stream,
    "scenario5": lambda seed: scenario_gradual_mixture(
        "randomtree", 5, n_instances=2_000, seed=seed
    ).stream,
    "scenario6": lambda seed: scenario_class_arrival(
        "rbf", 5, n_instances=2_000, seed=seed
    ).stream,
    "scenario7": lambda seed: scenario_feature_drift(
        "rbf", 5, n_instances=2_000, seed=seed
    ).stream,
    "scenario8": lambda seed: scenario_label_noise(
        "randomtree", 5, n_instances=2_000, seed=seed
    ).stream,
    "scenario9": lambda seed: scenario_blip(
        "rbf", 5, n_instances=2_000, seed=seed
    ).stream,
    "schedule-dsl": lambda seed: ScheduledStream(
        lambda concept: _rbf(seed, concept),
        Schedule.of(
            Segment(length=90, concept=0, imbalance_ratio=10.0),
            Segment(length=90, concept=1, transition="incremental", width=40),
            Segment(length=90, concept=2, drifted_classes=(2, 3), label_noise=0.1),
            Segment(length=90, feature_shift=0.3, width=30, rotation=2),
            Segment(length=90, concept=0, active_classes=(0, 1, 3)),
        ),
        seed=seed + 1,
    ),
    "real-world": lambda seed: real_world_stream(
        "Electricity", n_instances=2_000, seed=seed
    ).stream,
}

ALL_FACTORIES = {**GENERATOR_FACTORIES, **COMPOSED_FACTORIES}


def _materialise_instances(stream: DataStream, n: int):
    instances = stream.take(n)
    features = np.vstack([inst.x for inst in instances])
    labels = np.asarray([inst.y for inst in instances], dtype=np.int64)
    return features, labels


@pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
class TestBatchInstanceParity:
    def test_batch_matches_instances_bitwise(self, name):
        factory = ALL_FACTORIES[name]
        batch_stream = factory(42)
        instance_stream = factory(42)
        batch_x, batch_y = batch_stream.generate_batch(N_CHECK)
        inst_x, inst_y = _materialise_instances(instance_stream, N_CHECK)
        assert batch_y.shape[0] == N_CHECK
        np.testing.assert_array_equal(batch_x, inst_x)
        np.testing.assert_array_equal(batch_y, inst_y)

    def test_batch_split_invariant(self, name):
        factory = ALL_FACTORIES[name]
        whole = factory(7)
        split = factory(7)
        whole_x, whole_y = whole.generate_batch(N_CHECK)
        parts = [split.generate_batch(k) for k in SPLITS]
        split_x = np.vstack([part[0] for part in parts])
        split_y = np.concatenate([part[1] for part in parts])
        np.testing.assert_array_equal(whole_x, split_x)
        np.testing.assert_array_equal(whole_y, split_y)

    def test_position_advances_with_batches(self, name):
        stream = ALL_FACTORIES[name](3)
        stream.generate_batch(17)
        stream.next_instance()
        assert stream.position == 18

    def test_restart_replays_batches(self, name):
        if name in ("hyperplane-drift", "rbf-moving"):
            pytest.skip(
                "restart resets the RNG but not concept state mutated by "
                "incremental drift (see property tests)"
            )
        stream = ALL_FACTORIES[name](11)
        first_x, first_y = stream.generate_batch(60)
        stream.restart()
        second_x, second_y = stream.generate_batch(60)
        np.testing.assert_array_equal(first_x, second_x)
        np.testing.assert_array_equal(first_y, second_y)


class TestBatchShapes:
    def test_zero_length_batch(self):
        stream = SEAGenerator(n_classes=3, seed=0)
        features, labels = stream.generate_batch(0)
        assert features.shape == (0, stream.n_features)
        assert labels.shape == (0,)
        assert stream.position == 0

    def test_negative_batch_rejected(self):
        stream = SEAGenerator(n_classes=3, seed=0)
        with pytest.raises(ValueError):
            stream.generate_batch(-1)

    def test_dtypes(self):
        features, labels = LEDGenerator(seed=1).generate_batch(10)
        assert features.dtype == np.float64
        assert labels.dtype == np.int64
