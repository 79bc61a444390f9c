"""Tests for workload sources."""

import random

import pytest

from repro.protocols.blockack import BlockAckReceiver, BlockAckSender
from repro.sim.runner import run_transfer
from repro.workloads.sources import (
    BurstySource,
    GreedySource,
    ListSource,
    PoissonSource,
    ReplaySource,
)


def run_source(source, w=8, seed=0):
    sender = BlockAckSender(w)
    receiver = BlockAckReceiver(w)
    return run_transfer(sender, receiver, source, seed=seed, max_time=500_000.0)


class TestGreedySource:
    def test_fills_window_immediately(self, sim):
        sender = BlockAckSender(4, timeout_period=3.0)
        from repro.channel.channel import Channel

        channel = Channel(sim)
        channel.connect(lambda m: None)
        sender.attach(sim, channel)
        source = GreedySource(10)
        source.attach(sim, sender)
        assert len(source.submitted) == 4  # exactly one window's worth

    def test_submits_all_eventually(self):
        source = GreedySource(100)
        result = run_source(source)
        assert source.exhausted
        assert result.delivered == 100

    def test_payloads_are_indexed(self):
        source = GreedySource(5)
        run_source(source)
        assert source.submitted == [("msg", i) for i in range(5)]

    def test_zero_total(self):
        source = GreedySource(0)
        result = run_source(source)
        assert result.completed and result.delivered == 0

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            GreedySource(-1)


class TestAttachSubmit:
    """``attach(sim, sender, submit)`` routes every payload through
    ``submit``; without it the source calls ``sender.submit``."""

    @staticmethod
    def _wired(sim):
        from repro.channel.channel import Channel

        sender = BlockAckSender(4, timeout_period=3.0)
        receiver = BlockAckReceiver(4)
        forward, reverse = Channel(sim), Channel(sim)
        sender.attach(sim, forward)
        receiver.attach(sim, reverse)
        forward.connect(receiver.on_message)
        reverse.connect(sender.on_message)
        return sender

    def test_submit_function_gets_every_payload(self, sim):
        sender = self._wired(sim)
        routed = []

        def submit(payload):
            routed.append(payload)
            return sender.submit(payload)

        source = GreedySource(25)
        source.attach(sim, sender, submit=submit)
        sim.run()
        assert routed == source.submitted == [("msg", i) for i in range(25)]
        assert sender.stats.submitted == 25

    def test_default_is_sender_submit(self, sim):
        sender = self._wired(sim)
        source = GreedySource(25)
        source.attach(sim, sender)
        assert source._submit == sender.submit
        sim.run()
        assert sender.stats.submitted == 25
        assert sender.all_acknowledged


class TestListSource:
    def test_submits_the_list_in_order(self):
        payloads = [b"x%d" % i for i in range(30)]
        source = ListSource(iter(payloads))  # any iterable, read once
        result = run_source(source, w=4)
        assert source.total == 30 and source.exhausted
        assert source.submitted == payloads
        assert result.completed and result.in_order

    def test_empty_list(self):
        result = run_source(ListSource([]))
        assert result.completed and result.delivered == 0


class TestPoissonSource:
    def test_delivers_all(self):
        source = PoissonSource(80, rate=2.0, rng=random.Random(7))
        result = run_source(source)
        assert result.completed and result.in_order
        assert result.delivered == 80

    def test_light_load_spreads_in_time(self):
        # at rate 0.5 on a channel that could do 4/tu, duration is
        # dominated by arrivals: about total/rate time units
        source = PoissonSource(60, rate=0.5, rng=random.Random(8))
        result = run_source(source)
        assert result.duration > 60 / 0.5 * 0.6

    def test_arrivals_queue_when_window_closed(self):
        # rate far above service: window limits submissions, queue drains
        source = PoissonSource(100, rate=100.0, rng=random.Random(9))
        result = run_source(source, w=2)
        assert result.completed and result.delivered == 100

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            PoissonSource(10, rate=0.0, rng=random.Random(0))


class TestReplaySource:
    def test_replays_exact_schedule(self):
        source = ReplaySource([0.0, 1.5, 1.5, 7.0])
        result = run_source(source)
        assert result.completed and result.delivered == 4
        # last arrival at 7.0 plus one-way delay 1.0
        assert result.duration >= 8.0

    def test_queueing_when_window_closed(self):
        source = ReplaySource([0.0] * 20)  # all at once, window 8
        result = run_source(source, w=8)
        assert result.completed and result.delivered == 20

    def test_empty_schedule(self):
        source = ReplaySource([])
        result = run_source(source)
        assert result.completed and result.delivered == 0

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            ReplaySource([2.0, 1.0])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ReplaySource([-1.0, 2.0])

    def test_identical_replay_across_protocols(self):
        from repro.protocols.gobackn import GoBackNReceiver, GoBackNSender

        arrivals = [0.1 * i for i in range(30)]
        first = run_source(ReplaySource(arrivals))
        sender, receiver = GoBackNSender(8), GoBackNReceiver(8)
        second = run_transfer(
            sender, receiver, ReplaySource(arrivals), seed=0,
            max_time=500_000.0,
        )
        assert first.delivered == second.delivered == 30


class TestBurstySource:
    def test_delivers_all(self):
        source = BurstySource(90, burst_size=10, gap=5.0)
        result = run_source(source, w=16)
        assert result.completed and result.in_order
        assert result.delivered == 90

    def test_bursts_spaced_by_gap(self):
        source = BurstySource(30, burst_size=10, gap=50.0)
        result = run_source(source, w=16)
        # three bursts, two gaps: duration at least 2 * gap
        assert result.duration >= 100.0

    def test_last_partial_burst(self):
        source = BurstySource(25, burst_size=10, gap=1.0)
        result = run_source(source, w=16)
        assert result.delivered == 25

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BurstySource(10, burst_size=0, gap=1.0)
        with pytest.raises(ValueError):
            BurstySource(10, burst_size=2, gap=-1.0)
