"""Unit tests for the simulated channel."""

import math
import random

import pytest

from repro.channel.channel import Channel
from repro.channel.delay import ConstantDelay, ExponentialDelay, UniformDelay
from repro.channel.impairments import BernoulliLoss, ScriptedLoss


def make_channel(sim, **kwargs):
    channel = Channel(sim, rng=random.Random(1), **kwargs)
    received = []
    channel.connect(received.append)
    return channel, received


class TestDelivery:
    def test_delivers_after_delay(self, sim):
        channel, received = make_channel(sim, delay=ConstantDelay(2.0))
        channel.send("hello")
        sim.run(until=1.9)
        assert received == []
        sim.run()
        assert received == ["hello"]
        assert sim.now == 2.0

    def test_fifo_with_constant_delay(self, sim):
        channel, received = make_channel(sim, delay=ConstantDelay(1.0))
        for index in range(5):
            sim.schedule(index * 0.1, channel.send, index)
        sim.run()
        assert received == [0, 1, 2, 3, 4]

    def test_send_without_receiver_raises(self, sim):
        channel = Channel(sim)
        with pytest.raises(RuntimeError):
            channel.send("orphan")

    def test_jitter_produces_reordering(self, sim):
        channel, received = make_channel(sim, delay=UniformDelay(0.0, 2.0))
        for index in range(200):
            sim.schedule(index * 0.01, channel.send, index)
        sim.run()
        assert sorted(received) == list(range(200))
        assert received != list(range(200))  # some reorder occurred
        assert channel.stats.reordered > 0

    def test_stats_counters(self, sim):
        channel, received = make_channel(sim)
        for index in range(3):
            channel.send(index)
        sim.run()
        assert channel.stats.sent == 3
        assert channel.stats.delivered == 3
        assert channel.stats.lost == 0


class TestLoss:
    def test_lost_messages_never_delivered(self, sim):
        channel, received = make_channel(sim, loss=BernoulliLoss(1.0))
        channel.send("doomed")
        sim.run()
        assert received == []
        assert channel.stats.lost == 1

    def test_scripted_loss_hits_exact_message(self, sim):
        channel, received = make_channel(sim, loss=ScriptedLoss({1}))
        for index in range(3):
            channel.send(index)
        sim.run()
        assert received == [0, 2]

    def test_partial_loss_statistics(self, sim):
        channel, received = make_channel(sim, loss=BernoulliLoss(0.5))
        for index in range(1000):
            channel.send(index)
        sim.run()
        assert channel.stats.delivered + channel.stats.lost == 1000
        assert 350 < channel.stats.lost < 650


class TestAging:
    def test_overlong_delay_ages_out(self, sim):
        channel, received = make_channel(
            sim, delay=ExponentialDelay(mean=10.0), max_lifetime=0.001
        )
        for index in range(50):
            channel.send(index)
        sim.run()
        assert received == []  # essentially everything aged out
        assert channel.stats.aged_out == 50

    def test_aging_bound_respected(self, sim):
        channel, received = make_channel(
            sim, delay=ExponentialDelay(mean=1.0), max_lifetime=2.0
        )
        send_time = {}
        deliveries = []
        channel.connect(lambda m: deliveries.append((m, sim.now)))
        for index in range(500):
            send_time[index] = 0.0
            channel.send(index)
        sim.run()
        for message, when in deliveries:
            assert when - send_time[message] <= 2.0

    def test_invalid_lifetime_rejected(self, sim):
        with pytest.raises(ValueError):
            Channel(sim, max_lifetime=0.0)

    @pytest.mark.parametrize("lifetime", [math.nan, math.inf])
    def test_non_finite_lifetime_rejected(self, sim, lifetime):
        # NaN used to pass (nan <= 0 is false) and run with aging off
        with pytest.raises(ValueError, match="max_lifetime must be None or finite"):
            Channel(sim, max_lifetime=lifetime)

    def test_link_spec_nan_lifetime_rejected_before_the_run(self):
        from repro import BlockAckReceiver, BlockAckSender, GreedySource, LinkSpec
        from repro.sim.runner import run_transfer

        link = LinkSpec(delay=UniformDelay(0.5, 1.5), max_lifetime=math.nan)
        sender, receiver = BlockAckSender(4), BlockAckReceiver(4)
        with pytest.raises(ValueError, match="max_lifetime"):
            run_transfer(sender, receiver, GreedySource(5), forward=link)
        assert sender.stats.data_sent == 0

    def test_effective_max_lifetime_min_of_bounds(self, sim):
        channel = Channel(sim, delay=ConstantDelay(3.0), max_lifetime=5.0)
        assert channel.effective_max_lifetime == 3.0
        channel = Channel(sim, delay=ExponentialDelay(1.0), max_lifetime=5.0)
        assert channel.effective_max_lifetime == 5.0
        channel = Channel(sim, delay=ExponentialDelay(1.0))
        assert channel.effective_max_lifetime is None


class TestInFlightInspection:
    def test_in_flight_contents(self, sim):
        channel, received = make_channel(sim, delay=ConstantDelay(2.0))
        channel.send("a")
        channel.send("b")
        assert sorted(channel.in_flight()) == ["a", "b"]
        assert channel.in_flight_count == 2
        assert not channel.is_empty
        sim.run()
        assert channel.is_empty

    def test_count_matching(self, sim):
        channel, received = make_channel(sim, delay=ConstantDelay(2.0))
        for value in (1, 2, 2, 3):
            channel.send(value)
        assert channel.count_matching(lambda m: m == 2) == 2

    def test_lost_message_not_in_flight(self, sim):
        channel, received = make_channel(sim, loss=BernoulliLoss(1.0))
        channel.send("x")
        assert channel.is_empty

    def test_drop_in_flight(self, sim):
        channel, received = make_channel(sim, delay=ConstantDelay(2.0))
        channel.send("keep")
        channel.send("drop")
        assert channel.drop_in_flight(lambda m: m == "drop") == 1
        sim.run()
        assert received == ["keep"]
        assert channel.stats.lost == 1

    def test_in_flight_now_derived_stat(self, sim):
        channel, received = make_channel(sim, delay=ConstantDelay(2.0))
        channel.send("a")
        assert channel.stats.in_flight_now == 1
        sim.run()
        assert channel.stats.in_flight_now == 0


class TestObservers:
    def test_observer_sees_all_event_kinds(self, sim):
        channel, received = make_channel(sim, loss=ScriptedLoss({1}))
        events = []
        channel.add_observer(lambda kind, m: events.append((kind, m)))
        channel.send("a")
        channel.send("b")  # lost
        sim.run()
        kinds = [kind for kind, _ in events]
        assert kinds == ["send", "deliver", "send", "lose"] or kinds == [
            "send", "send", "lose", "deliver",
        ]

    def test_age_event_notified(self, sim):
        channel, received = make_channel(
            sim, delay=ExponentialDelay(mean=100.0), max_lifetime=0.0001
        )
        events = []
        channel.add_observer(lambda kind, m: events.append(kind))
        channel.send("x")
        assert "age" in events

    def test_mid_run_attach_seen_by_next_send(self, sim):
        """An observer attached between two sends must see the second —
        the obs layer attaches while a transfer is already running."""
        channel, received = make_channel(sim, delay=ConstantDelay(1.0))
        channel.send("before")
        events = []
        channel.add_observer(lambda kind, m: events.append((kind, m)))
        channel.send("after")
        sim.run()
        assert ("send", "after") in events
        assert ("deliver", "after") in events
        # the pre-attach send was never observed
        assert ("send", "before") not in events


class TestReset:
    """Channel.reset must return the channel — and its loss model — to
    the just-built state, so repeated runs on one channel replay
    deterministically (the regression: stateful loss models kept their
    script/state position across resets)."""

    def test_scripted_loss_replays_after_reset(self, sim):
        channel, received = make_channel(
            sim, delay=ConstantDelay(1.0), loss=ScriptedLoss({1})
        )
        for index in range(3):
            channel.send(index)
        sim.run()
        assert received == [0, 2]

        channel.reset()
        received.clear()
        for index in range(3):
            channel.send(index)
        sim.run()
        # without LossModel.reset() the script index would have kept
        # counting and dropped nothing on the second run
        assert received == [0, 2]
        assert channel.stats.lost == 1

    def test_gilbert_elliott_returns_to_good_state(self, sim):
        from repro.channel.impairments import GilbertElliottLoss

        loss = GilbertElliottLoss(p_good_to_bad=1.0, p_bad_to_good=0.0)
        channel, received = make_channel(sim, loss=loss)
        channel.send("x")  # transitions the model to BAD
        assert loss.state == GilbertElliottLoss.BAD
        channel.reset()
        assert loss.state == GilbertElliottLoss.GOOD

    def test_reset_cancels_in_flight_and_zeroes_stats(self, sim):
        channel, received = make_channel(sim, delay=ConstantDelay(2.0))
        channel.send("doomed")
        channel.reset()
        sim.run()
        assert received == []
        assert channel.stats.sent == 0
        assert channel.stats.in_flight_now == 0
        assert channel.is_empty
