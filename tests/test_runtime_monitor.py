"""Tests for the runtime invariant monitor."""

import pytest

from repro.channel.delay import ConstantDelay, UniformDelay
from repro.channel.impairments import BernoulliLoss
from repro.core.numbering import ModularNumbering
from repro.protocols.blockack import BlockAckReceiver, BlockAckSender
from repro.protocols.blockack_bounded import (
    BoundedBlockAckReceiver,
    BoundedBlockAckSender,
)
from repro.sim.runner import LinkSpec, run_transfer
from repro.workloads.sources import GreedySource


def adversarial_link():
    return LinkSpec(delay=UniformDelay(0.3, 1.7), loss=BernoulliLoss(0.12))


class TestCleanConfigurations:
    @pytest.mark.parametrize("mode", ["simple", "per_message_safe"])
    def test_safe_timer_modes_stay_clean(self, mode):
        numbering = ModularNumbering(6)
        sender = BlockAckSender(6, numbering=numbering, timeout_mode=mode)
        receiver = BlockAckReceiver(6, numbering=numbering)
        result = run_transfer(
            sender, receiver, GreedySource(300),
            forward=adversarial_link(), reverse=adversarial_link(),
            seed=3, monitor_invariants=True, max_time=1_000_000.0,
        )
        assert result.completed and result.in_order
        assert result.monitor.clean, result.monitor.report()

    def test_unbounded_numbering_clean(self):
        sender = BlockAckSender(6, timeout_mode="per_message_safe")
        receiver = BlockAckReceiver(6)
        result = run_transfer(
            sender, receiver, GreedySource(300),
            forward=adversarial_link(), reverse=adversarial_link(),
            seed=4, monitor_invariants=True, max_time=1_000_000.0,
        )
        assert result.monitor.clean

    def test_bounded_endpoints_clean(self):
        sender = BoundedBlockAckSender(6)
        receiver = BoundedBlockAckReceiver(6)
        result = run_transfer(
            sender, receiver, GreedySource(300),
            forward=adversarial_link(), reverse=adversarial_link(),
            seed=5, monitor_invariants=True, max_time=1_000_000.0,
        )
        assert result.completed and result.in_order
        assert result.monitor.clean

    def test_position_reuse_clean(self):
        numbering = ModularNumbering(6, lookahead=2)
        sender = BlockAckSender(
            6, numbering=numbering, timeout_mode="per_message_safe", lookahead=2
        )
        receiver = BlockAckReceiver(6, numbering=numbering)
        result = run_transfer(
            sender, receiver, GreedySource(250),
            forward=adversarial_link(), reverse=adversarial_link(),
            seed=6, monitor_invariants=True, max_time=1_000_000.0,
        )
        assert result.completed and result.in_order
        assert result.monitor.clean

    def test_monitor_absent_by_default(self):
        sender = BlockAckSender(4)
        receiver = BlockAckReceiver(4)
        result = run_transfer(sender, receiver, GreedySource(10))
        assert result.monitor is None


class TestViolationDetection:
    def test_premature_aggressive_timers_flagged(self):
        numbering = ModularNumbering(6)
        sender = BlockAckSender(
            6, numbering=numbering, timeout_mode="aggressive",
            timeout_period=1.0,  # far below the safe bound
        )
        receiver = BlockAckReceiver(6, numbering=numbering)
        result = run_transfer(
            sender, receiver, GreedySource(100),
            forward=adversarial_link(), reverse=adversarial_link(),
            seed=3, monitor_invariants=True, max_time=5_000.0,
        )
        assert not result.monitor.clean
        clauses = {v.clause for v in result.monitor.violations}
        assert any("8" in clause for clause in clauses)

    def test_premature_simple_timer_flagged(self):
        sender = BlockAckSender(
            4, timeout_mode="simple", timeout_period=0.5
        )
        receiver = BlockAckReceiver(4)
        result = run_transfer(
            sender, receiver, GreedySource(50),
            forward=LinkSpec(delay=ConstantDelay(1.0), loss=BernoulliLoss(0.2)),
            reverse=LinkSpec(delay=ConstantDelay(1.0), loss=BernoulliLoss(0.2)),
            seed=7, monitor_invariants=True, max_time=5_000.0,
        )
        assert not result.monitor.clean

    def test_report_format(self):
        sender = BlockAckSender(4, timeout_mode="simple", timeout_period=0.5)
        receiver = BlockAckReceiver(4)
        result = run_transfer(
            sender, receiver, GreedySource(50),
            forward=LinkSpec(delay=ConstantDelay(1.0), loss=BernoulliLoss(0.2)),
            reverse=LinkSpec(delay=ConstantDelay(1.0), loss=BernoulliLoss(0.2)),
            seed=7, monitor_invariants=True, max_time=5_000.0,
        )
        report = result.monitor.report(limit=2)
        assert "violation" in report
        assert "t=" in report

    def test_strict_mode_raises(self, sim):
        from repro.channel.channel import Channel
        from repro.core.messages import DataMessage
        from repro.verify.runtime import InvariantMonitor

        forward = Channel(sim, delay=ConstantDelay(5.0))
        reverse = Channel(sim, delay=ConstantDelay(5.0))
        forward.connect(lambda m: None)
        reverse.connect(lambda m: None)
        monitor = InvariantMonitor(None, None, forward, reverse, strict=True)
        forward.send(DataMessage(0))
        with pytest.raises(AssertionError):
            forward.send(DataMessage(0))  # second copy of the same number


class TestViolationPins:
    """Literal digests of whole violation lists on adversarial runs.

    A bounded wire with a timeout far below the safe period breaks
    assertion 8 in every timer mode; the digest pins each violation's
    time, clause and detail, in order.
    """

    DIGESTS = {
        "aggressive": (
            9910,
            "56579212c457423aa40194aa45ef4c3c596ff7360e968c2d2ab56c584f5ec1b9",
        ),
        "simple": (
            293,
            "a03cb437fb683a13a10944d751bf640e06c93a2d335afd6666502fb41f117e09",
        ),
        "per_message_safe": (
            295,
            "0877f36ae7bfdcfb99240d3c0e9bb78908daf52806ef674b2019e0ea813ca12b",
        ),
    }

    @pytest.mark.parametrize("mode", sorted(DIGESTS))
    def test_violation_list_digest(self, mode):
        import hashlib

        from repro.protocols.registry import make_pair

        def link():
            return LinkSpec(
                delay=UniformDelay(0.2, 1.8), loss=BernoulliLoss(0.1),
                max_lifetime=3.0,
            )

        sender, receiver = make_pair(
            "blockack", window=8, bounded_wire=True, timeout_mode=mode,
            timeout_period=1.2,
        )
        result = run_transfer(
            sender, receiver, GreedySource(400),
            forward=link(), reverse=link(),
            seed=3, monitor_invariants=True, max_time=5_000.0,
        )
        lines = [str(v) for v in result.monitor.violations]
        count, digest = self.DIGESTS[mode]
        assert len(lines) == count
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest
