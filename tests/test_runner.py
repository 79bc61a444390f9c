"""Tests for the transfer harness."""

import pytest

from repro.channel.delay import ConstantDelay, ExponentialDelay, UniformDelay
from repro.channel.impairments import BernoulliLoss
from repro.protocols.ack_policy import DelayedAckPolicy
from repro.protocols.blockack import BlockAckReceiver, BlockAckSender
from repro.sim.runner import LinkSpec, run_transfer
from repro.workloads.sources import GreedySource


class TestTimeoutDerivation:
    def test_derives_from_bounded_channels(self):
        sender = BlockAckSender(4)
        receiver = BlockAckReceiver(4)
        result = run_transfer(
            sender, receiver, GreedySource(10),
            forward=LinkSpec(delay=UniformDelay(0.5, 1.5)),
            reverse=LinkSpec(delay=ConstantDelay(1.0)),
        )
        # 1.5 (fwd max) + 0 (eager acks) + 1.0 (rev max) + 0.05 margin
        assert result.timeout_period == pytest.approx(2.55)

    def test_ack_policy_latency_included(self):
        sender = BlockAckSender(4)
        receiver = BlockAckReceiver(4, ack_policy=DelayedAckPolicy(0.5))
        result = run_transfer(sender, receiver, GreedySource(10))
        assert result.timeout_period == pytest.approx(1.0 + 0.5 + 1.0 + 0.05)

    def test_explicit_period_respected(self):
        sender = BlockAckSender(4, timeout_period=9.0)
        receiver = BlockAckReceiver(4)
        result = run_transfer(sender, receiver, GreedySource(10))
        assert result.timeout_period == 9.0

    def test_unbounded_channel_without_aging_rejected(self):
        sender = BlockAckSender(4)
        receiver = BlockAckReceiver(4)
        with pytest.raises(ValueError, match="aging"):
            run_transfer(
                sender, receiver, GreedySource(10),
                forward=LinkSpec(delay=ExponentialDelay(1.0)),
            )

    def test_aging_restores_derivability(self):
        sender = BlockAckSender(4)
        receiver = BlockAckReceiver(4)
        result = run_transfer(
            sender, receiver, GreedySource(30),
            forward=LinkSpec(delay=ExponentialDelay(0.3), max_lifetime=5.0),
            reverse=LinkSpec(delay=ExponentialDelay(0.3), max_lifetime=5.0),
            seed=1,
        )
        assert result.completed and result.in_order
        assert result.timeout_period == pytest.approx(10.05)

    def test_reverse_lifetime_filled_in(self):
        sender = BlockAckSender(4, timeout_mode="per_message_safe")
        receiver = BlockAckReceiver(4)
        run_transfer(
            sender, receiver, GreedySource(10),
            reverse=LinkSpec(delay=UniformDelay(0.5, 2.5)),
        )
        assert sender.reverse_lifetime == pytest.approx(2.55)


class TestResultFields:
    def test_summary_strings(self):
        sender = BlockAckSender(4)
        receiver = BlockAckReceiver(4)
        result = run_transfer(sender, receiver, GreedySource(10))
        assert "completed" in result.summary()
        assert "in-order" in result.summary()

    def test_collect_payloads(self):
        sender = BlockAckSender(4)
        receiver = BlockAckReceiver(4)
        result = run_transfer(
            sender, receiver, GreedySource(5), collect_payloads=True
        )
        assert result.delivered_payloads == [("msg", i) for i in range(5)]

    def test_trace_disabled_by_default(self):
        sender = BlockAckSender(4)
        receiver = BlockAckReceiver(4)
        result = run_transfer(sender, receiver, GreedySource(5))
        assert result.trace is None

    def test_incomplete_on_max_time(self):
        sender = BlockAckSender(2)
        receiver = BlockAckReceiver(2)
        result = run_transfer(
            sender, receiver, GreedySource(1000), max_time=5.0
        )
        assert not result.completed
        assert result.delivered < 1000

    def test_channel_stats_included(self):
        sender = BlockAckSender(4)
        receiver = BlockAckReceiver(4)
        result = run_transfer(
            sender, receiver, GreedySource(50),
            forward=LinkSpec(loss=BernoulliLoss(0.1)),
            seed=2,
        )
        assert result.forward_stats["lost"] > 0
        assert result.forward_stats["sent"] > 50

    def test_throughput_and_efficiency_derivations(self):
        sender = BlockAckSender(4)
        receiver = BlockAckReceiver(4)
        result = run_transfer(sender, receiver, GreedySource(40))
        assert result.throughput == pytest.approx(40 / result.duration)
        assert result.goodput_efficiency == 1.0


class TestSubmitRestore:
    """run_transfer times each submission through a wrapper it hands the
    source, never by patching sender.submit, so nothing outlives the call
    (regression: wrappers used to stack)."""

    def test_submit_not_left_in_instance_dict(self):
        sender = BlockAckSender(4)
        receiver = BlockAckReceiver(4)
        run_transfer(sender, receiver, GreedySource(10))
        assert "submit" not in vars(sender)
        assert sender.submit.__func__ is BlockAckSender.submit

    def test_rerun_does_not_stack_wrappers(self):
        sender = BlockAckSender(4)
        receiver = BlockAckReceiver(4)
        for _ in range(3):
            run_transfer(sender, receiver, GreedySource(0))
        result = run_transfer(sender, receiver, GreedySource(10))
        # a stacked wrapper would double-record submissions
        assert len(result.latencies) == 10
        assert "submit" not in vars(sender)

    def test_restored_after_failed_run(self):
        sender = BlockAckSender(2)
        receiver = BlockAckReceiver(2)
        result = run_transfer(
            sender, receiver, GreedySource(1000), max_time=5.0
        )
        assert not result.completed
        assert "submit" not in vars(sender)

    def test_preexisting_instance_attribute_restored(self):
        sender = BlockAckSender(4)
        receiver = BlockAckReceiver(4)
        calls = []
        real_submit = sender.submit

        def counting_submit(payload):
            calls.append(payload)
            return real_submit(payload)

        sender.submit = counting_submit
        run_transfer(sender, receiver, GreedySource(10))
        assert sender.submit is counting_submit
        assert len(calls) == 10
