"""Tests for the go-back-N baseline."""

import pytest

from repro.channel.delay import ConstantDelay, UniformDelay
from repro.channel.impairments import BernoulliLoss, ScriptedLoss
from repro.protocols.gobackn import GoBackNReceiver, GoBackNSender
from repro.sim.runner import LinkSpec, run_transfer
from repro.trace.events import EventKind
from repro.workloads.sources import GreedySource


def run_gbn(total=200, w=8, forward=None, reverse=None, seed=0, trace=False):
    return run_transfer(
        GoBackNSender(w), GoBackNReceiver(w), GreedySource(total),
        forward=forward, reverse=reverse, seed=seed, trace=trace,
        max_time=500_000.0,
    )


class TestLossless:
    def test_completes_in_order(self):
        result = run_gbn()
        assert result.completed and result.in_order

    def test_matches_pipelining_bound(self):
        result = run_gbn(total=400, w=8)
        assert abs(result.throughput - 4.0) < 0.2

    def test_no_retransmissions(self):
        result = run_gbn()
        assert result.sender_stats["retransmissions"] == 0


class TestLoss:
    def test_recovers_from_loss(self):
        link = lambda p: LinkSpec(delay=ConstantDelay(1.0), loss=BernoulliLoss(p))
        result = run_gbn(forward=link(0.05), reverse=link(0.05), seed=3)
        assert result.completed and result.in_order

    def test_whole_window_retransmitted_on_timeout(self):
        # lose exactly one data message; the timeout resends every
        # outstanding message (the "go back")
        result = run_transfer(
            GoBackNSender(4), GoBackNReceiver(4), GreedySource(4),
            forward=LinkSpec(delay=ConstantDelay(1.0), loss=ScriptedLoss({0})),
            reverse=LinkSpec(delay=ConstantDelay(1.0)),
            seed=0, trace=True, max_time=1000.0,
        )
        assert result.completed
        resends = result.trace.filter(kind=EventKind.RESEND_DATA)
        assert len(resends) >= 4  # all four went back

    def test_efficiency_collapses_under_loss(self):
        link = lambda: LinkSpec(delay=ConstantDelay(1.0), loss=BernoulliLoss(0.15))
        result = run_gbn(w=16, forward=link(), reverse=link(), seed=4)
        assert result.completed
        assert result.goodput_efficiency < 0.5


class TestReorder:
    def test_correct_but_slow_under_reorder(self):
        link = lambda: LinkSpec(delay=UniformDelay(0.1, 1.9))
        result = run_gbn(total=150, forward=link(), reverse=link(), seed=5)
        assert result.completed and result.in_order
        assert result.sender_stats["retransmissions"] > 0  # spurious go-backs

    def test_out_of_order_data_discarded_not_buffered(self):
        link = lambda: LinkSpec(delay=UniformDelay(0.1, 1.9))
        result = run_gbn(total=150, forward=link(), reverse=link(), seed=5)
        assert result.receiver_stats["out_of_order"] > 0
        assert result.receiver_stats["max_buffered"] == 0


class TestAckHandling:
    def test_cumulative_ack_covers_prefix(self, sim):
        from repro.channel.channel import Channel
        from repro.core.messages import CumulativeAck

        sender = GoBackNSender(4, timeout_period=3.0)
        channel = Channel(sim)
        channel.connect(lambda m: None)
        sender.attach(sim, channel)
        for index in range(3):
            sender.submit(f"p{index}")
        sender.on_message(CumulativeAck(1))
        assert sender.window.na == 2

    def test_stale_ack_ignored(self, sim):
        from repro.channel.channel import Channel
        from repro.core.messages import CumulativeAck

        sender = GoBackNSender(4, timeout_period=3.0)
        channel = Channel(sim)
        channel.connect(lambda m: None)
        sender.attach(sim, channel)
        sender.submit("p0")
        sender.on_message(CumulativeAck(0))
        sender.on_message(CumulativeAck(0))
        assert sender.stats.stale_acks == 1

    def test_wrong_message_type_rejected(self, sim):
        from repro.channel.channel import Channel
        from repro.core.messages import BlockAck

        sender = GoBackNSender(4, timeout_period=3.0)
        sender.attach(sim, Channel(sim))
        with pytest.raises(TypeError):
            sender.on_message(BlockAck(0, 0))

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            GoBackNSender(0)
