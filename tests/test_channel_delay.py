"""Unit tests for delay models."""

import math
import random

import pytest

from repro.channel.delay import (
    ConstantDelay,
    ExponentialDelay,
    UniformDelay,
    reorder_probability,
)


class TestConstantDelay:
    def test_sample_is_constant(self, rng):
        model = ConstantDelay(2.5)
        assert all(model.sample(rng) == 2.5 for _ in range(10))

    def test_bounds(self):
        model = ConstantDelay(2.5)
        assert model.max_delay == 2.5
        assert model.mean_delay == 2.5

    def test_zero_delay_allowed(self, rng):
        assert ConstantDelay(0.0).sample(rng) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantDelay(-1.0)

    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_non_finite_rejected(self, delay):
        with pytest.raises(ValueError, match="delay must be finite"):
            ConstantDelay(delay)


class TestUniformDelay:
    def test_samples_within_range(self, rng):
        model = UniformDelay(1.0, 3.0)
        for _ in range(200):
            assert 1.0 <= model.sample(rng) <= 3.0

    def test_bounds(self):
        model = UniformDelay(1.0, 3.0)
        assert model.max_delay == 3.0
        assert model.mean_delay == 2.0

    def test_degenerate_range_is_constant(self, rng):
        model = UniformDelay(2.0, 2.0)
        assert model.sample(rng) == 2.0

    def test_sample_mean_near_expectation(self, rng):
        model = UniformDelay(0.0, 2.0)
        mean = sum(model.sample(rng) for _ in range(5000)) / 5000
        assert abs(mean - 1.0) < 0.05

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            UniformDelay(3.0, 1.0)

    def test_negative_low_rejected(self):
        with pytest.raises(ValueError):
            UniformDelay(-1.0, 1.0)

    def test_infinite_high_rejected(self):
        with pytest.raises(ValueError, match="high must be finite"):
            UniformDelay(0.5, math.inf)

    @pytest.mark.parametrize("low", [math.nan, math.inf])
    def test_non_finite_low_rejected(self, low):
        with pytest.raises(ValueError, match="low must be finite"):
            UniformDelay(low, 1.0)

    def test_nan_high_rejected(self):
        with pytest.raises(ValueError, match="high must be finite"):
            UniformDelay(0.5, math.nan)


class TestExponentialDelay:
    def test_samples_at_least_offset(self, rng):
        model = ExponentialDelay(mean=1.0, offset=0.5)
        for _ in range(200):
            assert model.sample(rng) >= 0.5

    def test_unbounded_max(self):
        assert ExponentialDelay(1.0).max_delay is None

    def test_mean_delay_includes_offset(self):
        assert ExponentialDelay(mean=1.0, offset=0.5).mean_delay == 1.5

    def test_sample_mean_near_expectation(self, rng):
        model = ExponentialDelay(mean=2.0)
        mean = sum(model.sample(rng) for _ in range(5000)) / 5000
        assert abs(mean - 2.0) < 0.15

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ValueError):
            ExponentialDelay(0.0)

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            ExponentialDelay(1.0, offset=-0.1)

    @pytest.mark.parametrize("mean", [math.nan, math.inf])
    def test_non_finite_mean_rejected(self, mean):
        # a NaN mean used to pass and raise ScheduleInPastError at the
        # first send; an infinite one gave every message an infinite delay
        with pytest.raises(ValueError, match="mean must be finite"):
            ExponentialDelay(mean=mean)

    @pytest.mark.parametrize("offset", [math.nan, math.inf])
    def test_non_finite_offset_rejected(self, offset):
        with pytest.raises(ValueError, match="offset must be finite"):
            ExponentialDelay(1.0, offset=offset)


class TestReorderProbability:
    def test_simultaneous_sends_half(self):
        assert math.isclose(reorder_probability(0.0, 2.0, 0.0), 0.5)

    def test_gap_at_width_is_zero(self):
        assert reorder_probability(0.0, 2.0, 2.0) == 0.0

    def test_gap_beyond_width_is_zero(self):
        assert reorder_probability(0.0, 2.0, 5.0) == 0.0

    def test_zero_width_fifo(self):
        assert reorder_probability(1.0, 1.0, 0.1) == 0.0

    def test_monotone_in_gap(self):
        probs = [reorder_probability(0.0, 2.0, g) for g in (0.0, 0.5, 1.0, 1.5)]
        assert probs == sorted(probs, reverse=True)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            reorder_probability(0.0, 2.0, -0.5)

    def test_matches_monte_carlo(self, rng):
        low, high, gap = 0.0, 2.0, 0.5
        expected = reorder_probability(low, high, gap)
        hits = 0
        trials = 20000
        for _ in range(trials):
            a = rng.uniform(low, high)
            b = rng.uniform(low, high)
            if gap + b < a:
                hits += 1
        assert abs(hits / trials - expected) < 0.02
