"""Tests for receiver acknowledgment policies."""

import math

import pytest

from repro.protocols.ack_policy import (
    CountingAckPolicy,
    DelayedAckPolicy,
    EagerAckPolicy,
)


class TestEagerAckPolicy:
    def test_flushes_immediately(self, sim):
        flushes = []
        policy = EagerAckPolicy()
        policy.attach(sim, lambda: flushes.append(sim.now))
        policy.on_update(pending=1)
        assert flushes == [0.0]

    def test_no_flush_when_nothing_pending(self, sim):
        flushes = []
        policy = EagerAckPolicy()
        policy.attach(sim, lambda: flushes.append(sim.now))
        policy.on_update(pending=0)
        assert flushes == []

    def test_zero_latency(self):
        assert EagerAckPolicy().max_latency == 0.0


class TestDelayedAckPolicy:
    def test_flush_after_delay(self, sim):
        flushes = []
        policy = DelayedAckPolicy(0.5)
        policy.attach(sim, lambda: flushes.append(sim.now))
        policy.on_update(pending=1)
        sim.run()
        assert flushes == [0.5]

    def test_coalesces_multiple_updates(self, sim):
        flushes = []
        policy = DelayedAckPolicy(1.0)
        policy.attach(sim, lambda: flushes.append(sim.now))
        policy.on_update(pending=1)
        sim.schedule(0.3, policy.on_update, 2)
        sim.schedule(0.6, policy.on_update, 3)
        sim.run()
        assert flushes == [1.0]  # one flush covers all three

    def test_max_latency_is_delay(self):
        assert DelayedAckPolicy(0.7).max_latency == 0.7

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            DelayedAckPolicy(-0.1)

    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_non_finite_delay_rejected(self, delay):
        # a NaN delay used to surface at attach or mid-run, under the
        # name of the sender's timeout_period or of the timer's period
        with pytest.raises(ValueError, match="delay must be finite"):
            DelayedAckPolicy(delay)

    def test_rearms_after_flush(self, sim):
        flushes = []
        policy = DelayedAckPolicy(0.5)
        policy.attach(sim, lambda: flushes.append(sim.now))
        policy.on_update(pending=1)
        sim.schedule(2.0, policy.on_update, 1)
        sim.run()
        assert flushes == [0.5, 2.5]


class TestCountingAckPolicy:
    def test_threshold_triggers_immediately(self, sim):
        flushes = []
        policy = CountingAckPolicy(threshold=3, max_delay=10.0)
        policy.attach(sim, lambda: flushes.append(sim.now))
        policy.on_update(pending=3)
        assert flushes == [0.0]

    def test_below_threshold_waits_for_backstop(self, sim):
        flushes = []
        policy = CountingAckPolicy(threshold=3, max_delay=2.0)
        policy.attach(sim, lambda: flushes.append(sim.now))
        policy.on_update(pending=1)
        sim.run()
        assert flushes == [2.0]

    def test_threshold_cancels_backstop(self, sim):
        flushes = []
        policy = CountingAckPolicy(threshold=2, max_delay=5.0)
        policy.attach(sim, lambda: flushes.append(sim.now))
        policy.on_update(pending=1)
        sim.schedule(1.0, policy.on_update, 2)
        sim.run()
        assert flushes == [1.0]  # threshold fired; backstop cancelled

    def test_max_latency_is_backstop(self):
        assert CountingAckPolicy(4, 1.5).max_latency == 1.5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CountingAckPolicy(0, 1.0)
        with pytest.raises(ValueError):
            CountingAckPolicy(2, -1.0)

    @pytest.mark.parametrize("max_delay", [math.nan, math.inf])
    def test_non_finite_max_delay_rejected(self, max_delay):
        with pytest.raises(ValueError, match="max_delay must be finite"):
            CountingAckPolicy(4, max_delay)
