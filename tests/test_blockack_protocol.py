"""Behavioural tests for the block-acknowledgment DES endpoints."""

import pytest

from repro.channel.delay import ConstantDelay, UniformDelay
from repro.channel.impairments import BernoulliLoss, ScriptedLoss
from repro.core.numbering import ModularNumbering
from repro.protocols.ack_policy import DelayedAckPolicy
from repro.protocols.blockack import (
    BlockAckReceiver,
    BlockAckSender,
    safe_timeout_period,
)
from repro.sim.runner import LinkSpec, run_transfer
from repro.trace.events import EventKind
from repro.workloads.sources import GreedySource


def lossy_jitter(p=0.05):
    return LinkSpec(delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(p))


def run_pair(total=200, mode="per_message_safe", numbering=None, w=8,
             forward=None, reverse=None, seed=0, ack_policy=None, **kwargs):
    sender = BlockAckSender(w, numbering=numbering, timeout_mode=mode, **kwargs)
    receiver = BlockAckReceiver(w, numbering=numbering, ack_policy=ack_policy)
    return run_transfer(
        sender, receiver, GreedySource(total),
        forward=forward, reverse=reverse, seed=seed,
        trace=True, max_time=100_000.0,
    )


class TestSafeTimeoutPeriod:
    def test_sum_of_bounds_plus_margin(self):
        assert safe_timeout_period(1.0, 1.0, 0.5, margin=0.1) == 2.6

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            safe_timeout_period(-1.0, 1.0)


class TestLosslessBehaviour:
    def test_completes_in_order(self):
        result = run_pair(total=300)
        assert result.completed and result.in_order

    def test_no_retransmissions_without_loss(self):
        result = run_pair(total=300)
        assert result.sender_stats["retransmissions"] == 0
        assert result.goodput_efficiency == 1.0

    def test_window_pipelining_throughput(self):
        # w=8 over RTT=2 with unit delays: 4 messages per time unit
        result = run_pair(total=400, w=8)
        assert abs(result.throughput - 4.0) < 0.2

    def test_window_one_is_stop_and_wait(self):
        result = run_pair(total=100, w=1)
        assert abs(result.throughput - 0.5) < 0.05


class TestLossRecovery:
    @pytest.mark.parametrize("mode", ["simple", "per_message_safe", "oracle"])
    def test_all_modes_recover(self, mode):
        kwargs = {"timeout_period": 0.25} if mode == "oracle" else {}
        result = run_pair(
            total=300, mode=mode,
            forward=lossy_jitter(), reverse=lossy_jitter(), seed=3, **kwargs
        )
        assert result.completed and result.in_order

    def test_heavy_loss_still_correct(self):
        result = run_pair(
            total=150, forward=lossy_jitter(0.3), reverse=lossy_jitter(0.3),
            seed=5,
        )
        assert result.completed and result.in_order

    def test_asymmetric_loss(self):
        result = run_pair(
            total=150, forward=lossy_jitter(0.0), reverse=lossy_jitter(0.2),
            seed=6,
        )
        assert result.completed and result.in_order

    def test_retransmissions_only_with_loss(self):
        result = run_pair(
            total=200, forward=lossy_jitter(0.1), reverse=lossy_jitter(0.1),
            seed=7,
        )
        assert result.sender_stats["retransmissions"] > 0


class TestBoundedNumbering:
    def test_bounded_wire_values_stay_in_domain(self):
        result = run_pair(
            total=200, numbering=ModularNumbering(8),
            forward=lossy_jitter(), reverse=lossy_jitter(), seed=2,
        )
        assert result.completed and result.in_order

    def test_bounded_equals_unbounded_behaviour(self):
        unbounded = run_pair(
            total=150, forward=lossy_jitter(), reverse=lossy_jitter(), seed=9
        )
        bounded = run_pair(
            total=150, numbering=ModularNumbering(8),
            forward=lossy_jitter(), reverse=lossy_jitter(), seed=9,
        )
        assert bounded.duration == unbounded.duration
        assert bounded.sender_stats == unbounded.sender_stats

    def test_window_one_uses_two_wire_values(self):
        result = run_pair(total=50, numbering=ModularNumbering(1), w=1)
        assert result.completed and result.in_order


class TestPureReorder:
    def test_no_retransmissions_under_reorder_only(self):
        # the headline property: disorder alone never triggers recovery
        link = LinkSpec(delay=UniformDelay(0.1, 1.9))
        result = run_pair(total=400, forward=link, reverse=link, seed=4)
        assert result.completed and result.in_order
        assert result.sender_stats["retransmissions"] == 0

    def test_blocks_form_from_reordering(self):
        link = LinkSpec(delay=UniformDelay(0.1, 1.9))
        result = run_pair(total=400, forward=link, reverse=link, seed=4)
        multi = [
            e for e in result.trace.filter(kind=EventKind.SEND_ACK)
            if e.seq_hi > e.seq
        ]
        assert multi  # at least some acks covered true blocks


class TestDuplicateAckPath:
    def test_lost_block_ack_triggers_dup_acks(self):
        # drop the first ack: the retransmitted data is answered by (v, v)
        sender = BlockAckSender(4, timeout_mode="simple", timeout_period=3.0)
        receiver = BlockAckReceiver(4, ack_policy=DelayedAckPolicy(0.2))
        result = run_transfer(
            sender, receiver, GreedySource(4),
            forward=LinkSpec(delay=ConstantDelay(1.0)),
            reverse=LinkSpec(delay=ConstantDelay(1.0), loss=ScriptedLoss({0})),
            seed=0, trace=True, max_time=1000.0,
        )
        assert result.completed and result.in_order
        dups = result.trace.filter(kind=EventKind.RESEND_ACK)
        assert dups and all(e.seq == e.seq_hi for e in dups)

    def test_receiver_duplicate_counter(self):
        sender = BlockAckSender(4, timeout_mode="simple", timeout_period=3.0)
        receiver = BlockAckReceiver(4, ack_policy=DelayedAckPolicy(0.2))
        result = run_transfer(
            sender, receiver, GreedySource(4),
            forward=LinkSpec(delay=ConstantDelay(1.0)),
            reverse=LinkSpec(delay=ConstantDelay(1.0), loss=ScriptedLoss({0})),
            seed=0, max_time=1000.0,
        )
        assert result.receiver_stats["duplicates"] > 0


class TestSenderValidation:
    def test_unknown_timeout_mode_rejected(self):
        with pytest.raises(ValueError):
            BlockAckSender(4, timeout_mode="bogus")

    def test_attach_requires_timeout_period(self, sim):
        from repro.channel.channel import Channel

        sender = BlockAckSender(4)
        with pytest.raises(ValueError):
            sender.attach(sim, Channel(sim))

    def test_wrong_message_type_rejected(self, sim):
        from repro.channel.channel import Channel
        from repro.core.messages import DataMessage

        sender = BlockAckSender(4, timeout_period=3.0)
        sender.attach(sim, Channel(sim))
        with pytest.raises(TypeError):
            sender.on_message(DataMessage(0))

    def test_oracle_requires_wiring(self, sim):
        from repro.channel.channel import Channel

        sender = BlockAckSender(4, timeout_mode="oracle", timeout_period=0.5)
        channel = Channel(sim)
        channel.connect(lambda m: None)
        sender.attach(sim, channel)
        sender.submit("p")
        with pytest.raises(RuntimeError):
            sim.run()  # poll fires without enable_oracle

    def test_enable_oracle_wrong_mode_rejected(self):
        sender = BlockAckSender(4, timeout_mode="simple", timeout_period=1.0)
        with pytest.raises(RuntimeError):
            sender.enable_oracle(None, None, None)

    def test_receiver_wrong_message_type(self, sim):
        from repro.channel.channel import Channel
        from repro.core.messages import BlockAck

        receiver = BlockAckReceiver(4)
        receiver.attach(sim, Channel(sim))
        with pytest.raises(TypeError):
            receiver.on_message(BlockAck(0, 0))

    # nan "completed" with a NaN duration, inf with an infinite one, 0.0
    # retransmitted without the clock leaving t=0, and -1.0 raised in the
    # middle of the run, at the first arm
    BAD_PERIODS = (float("nan"), float("inf"), 0.0, -1.0)

    @pytest.mark.parametrize("period", BAD_PERIODS)
    @pytest.mark.parametrize("protocol", ("blockack", "blockack-simple", "gobackn"))
    def test_bad_timeout_period_rejected_at_construction(self, protocol, period):
        from repro.protocols.registry import make_pair

        with pytest.raises(ValueError, match="finite and positive"):
            make_pair(protocol, 4, timeout_period=period)

    @pytest.mark.parametrize("period", BAD_PERIODS)
    def test_bad_timeout_period_rejected_at_attach(self, period):
        # a period set (or derived) after construction is checked before
        # the run schedules anything
        from repro.protocols.registry import make_pair

        sender, receiver = make_pair("blockack", 4)
        sender.timeout_period = period
        with pytest.raises(ValueError, match="finite and positive"):
            run_transfer(
                sender, receiver, GreedySource(50),
                forward=lossy_jitter(0.2), reverse=lossy_jitter(0.0), seed=1,
            )


class TestStaleAckScreen:
    def test_decoded_garbage_discarded(self, sim):
        from repro.channel.channel import Channel
        from repro.core.messages import BlockAck

        sender = BlockAckSender(
            4, numbering=ModularNumbering(4), timeout_period=5.0
        )
        channel = Channel(sim)
        channel.connect(lambda m: None)
        sender.attach(sim, channel)
        sender.submit("p0")  # ns = 1
        # wire ack (3,3) decodes to 3 >= ns: provably stale -> discarded
        sender.on_message(BlockAck(3, 3))
        assert sender.stats.stale_acks == 1
        assert sender.window.na == 0


class TestAggressiveModeIsWasteful:
    def test_aggressive_unbounded_correct_but_wasteful(self):
        # with unbounded numbers the aggressive mode stays correct; it just
        # retransmits buffered messages unnecessarily under loss
        aggressive = run_pair(
            total=200, mode="aggressive",
            forward=lossy_jitter(0.1), reverse=lossy_jitter(0.1), seed=11,
        )
        safe = run_pair(
            total=200, mode="per_message_safe",
            forward=lossy_jitter(0.1), reverse=lossy_jitter(0.1), seed=11,
        )
        assert aggressive.completed and aggressive.in_order
        assert (
            aggressive.sender_stats["data_sent"] >= safe.sender_stats["data_sent"]
        )


class TestOracleTracePins:
    """Literal decision-trace digests of oracle-mode runs.

    The oracle guard reads both channels' in-flight sets on every poll;
    no golden recording covers it, so these digests pin its decisions.
    """

    CASES = {
        "lossy-unit-w8": (
            dict(window=8),
            lambda: LinkSpec(delay=ConstantDelay(1.0), loss=BernoulliLoss(0.1)),
            3,
            1881,
            "6706a2cbf15e3e924ee18dbad9c06dfe787d7be1055d7fd64e6290982814b7cf",
        ),
        "long-delay-w32-bounded": (
            dict(window=32, bounded_wire=True),
            lambda: LinkSpec(
                delay=UniformDelay(4.0, 8.0), loss=BernoulliLoss(0.05)
            ),
            4,
            1123,
            "6b839fc1b63d2fbc459618a854cb3a6fd4c04066e37bf5ae1fedfbbe60120f8d",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_oracle_decision_trace_digest(self, name):
        import hashlib
        import json

        from repro.protocols.registry import make_pair

        pair_kwargs, link, seed, length, digest = self.CASES[name]
        sender, receiver = make_pair("blockack-oracle", **pair_kwargs)
        result = run_transfer(
            sender, receiver, GreedySource(300),
            forward=link(), reverse=link(), seed=seed,
            trace=True, max_time=100_000.0,
        )
        assert result.completed and result.in_order
        rows = [
            [time, actor, kind.value, seq, seq_hi]
            for time, actor, kind, seq, seq_hi in result.trace.decision_trace()
        ]
        assert len(rows) == length
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest
