"""Unit tests for imbalance profiles and geometric priors."""

import numpy as np
import pytest

from repro.streams.imbalance import (
    DynamicImbalance,
    RoleSwitchingImbalance,
    StaticImbalance,
    geometric_priors,
    geometric_priors_batch,
)


class TestGeometricPriors:
    def test_sum_to_one(self):
        priors = geometric_priors(5, 100.0)
        assert priors.sum() == pytest.approx(1.0)

    def test_max_min_ratio_matches_request(self):
        priors = geometric_priors(7, 50.0)
        assert priors.max() / priors.min() == pytest.approx(50.0)

    def test_balanced_when_ratio_one(self):
        priors = geometric_priors(4, 1.0)
        np.testing.assert_allclose(priors, 0.25)

    def test_monotonically_decreasing(self):
        priors = geometric_priors(6, 80.0)
        assert np.all(np.diff(priors) < 0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            geometric_priors(1, 10.0)
        with pytest.raises(ValueError):
            geometric_priors(3, 0.5)


class TestStaticImbalance:
    def test_priors_constant_over_time(self):
        profile = StaticImbalance(4, 30.0)
        np.testing.assert_allclose(profile.priors(0), profile.priors(100_000))

    def test_imbalance_ratio_report(self):
        profile = StaticImbalance(4, 30.0)
        assert profile.imbalance_ratio(10) == pytest.approx(30.0)


class TestDynamicImbalance:
    def test_ratio_oscillates_between_bounds(self):
        profile = DynamicImbalance(5, min_ratio=10.0, max_ratio=100.0, period=1000)
        ratios = [profile.current_ratio(t) for t in range(0, 2000, 50)]
        assert min(ratios) == pytest.approx(10.0, abs=1e-6)
        assert max(ratios) == pytest.approx(100.0, abs=1e-6)

    def test_ratio_changes_over_time(self):
        profile = DynamicImbalance(5, min_ratio=10.0, max_ratio=100.0, period=1000)
        assert profile.imbalance_ratio(0) != pytest.approx(profile.imbalance_ratio(500))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DynamicImbalance(3, min_ratio=0.5, max_ratio=10.0, period=100)
        with pytest.raises(ValueError):
            DynamicImbalance(3, min_ratio=10.0, max_ratio=5.0, period=100)
        with pytest.raises(ValueError):
            DynamicImbalance(3, min_ratio=1.0, max_ratio=5.0, period=0)


class TestRoleSwitchingImbalance:
    def test_rotation_advances_with_switch_period(self):
        profile = RoleSwitchingImbalance(
            4, min_ratio=5.0, max_ratio=20.0, period=1000, switch_period=500
        )
        assert profile.role_rotation(0) == 0
        assert profile.role_rotation(500) == 1
        assert profile.role_rotation(2000) == 0  # wraps around 4 classes

    def test_majority_class_changes_roles(self):
        profile = RoleSwitchingImbalance(
            4, min_ratio=5.0, max_ratio=20.0, period=10_000, switch_period=100
        )
        majority_before = int(np.argmax(profile.priors(0)))
        majority_after = int(np.argmax(profile.priors(100)))
        assert majority_before != majority_after

    def test_priors_still_sum_to_one(self):
        profile = RoleSwitchingImbalance(
            5, min_ratio=2.0, max_ratio=50.0, period=500, switch_period=200
        )
        for t in (0, 123, 999, 5000):
            assert profile.priors(t).sum() == pytest.approx(1.0)

    def test_invalid_switch_period(self):
        with pytest.raises(ValueError):
            RoleSwitchingImbalance(3, 1.0, 5.0, period=10, switch_period=0)


class TestBatchPriorEvaluation:
    """The vectorized profile path must be bit-identical to the scalar one.

    The schedule engine and the imbalance wrapper both evaluate profiles in
    batch; a single ULP of divergence from the scalar path could flip an
    inverse-CDF class choice and silently break batch/instance parity.
    """

    PROFILES = {
        "static": StaticImbalance(5, 40.0),
        "dynamic": DynamicImbalance(5, 2.0, 100.0, period=777, phase=0.3),
        "dynamic-flat": DynamicImbalance(3, 1.0, 500.0, period=10),
        "roles": RoleSwitchingImbalance(6, 3.0, 60.0, period=500, switch_period=123),
    }

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_priors_batch_bitwise_matches_scalar(self, name):
        profile = self.PROFILES[name]
        positions = np.arange(0, 10_000, 7)
        batch = profile.priors_batch(positions)
        scalar = np.stack([profile.priors(int(t)) for t in positions])
        np.testing.assert_array_equal(batch, scalar)

    def test_priors_batch_empty_positions(self):
        batch = StaticImbalance(4, 10.0).priors_batch(np.empty(0, dtype=np.int64))
        assert batch.shape == (0, 4)

    def test_geometric_priors_batch_matches_scalar(self):
        ratios = np.linspace(1.0, 300.0, 101)
        batch = geometric_priors_batch(6, ratios)
        scalar = np.stack([geometric_priors(6, float(r)) for r in ratios])
        np.testing.assert_array_equal(batch, scalar)

    def test_geometric_priors_batch_validation(self):
        with pytest.raises(ValueError):
            geometric_priors_batch(1, np.array([2.0]))
        with pytest.raises(ValueError):
            geometric_priors_batch(3, np.array([0.5]))
