"""Refinement tests: timed traces replay as abstract-spec executions."""

import hashlib

import pytest

from repro.trace.events import EventKind, TraceEvent
from repro.verify.refinement import check_refinement, replay_trace


def ev(kind, seq=None, seq_hi=None, t=0.0, actor="x"):
    return TraceEvent(time=t, actor=actor, kind=kind, seq=seq, seq_hi=seq_hi)


#: sha256 prefixes of whole reports (w=5, 120 messages, 12% loss, spread
#: 1.5): the replay's steps, refusal texts, invariant findings and final
#: state must not drift.  The aggressive runs hit the ten-error cap.
REPORT_DIGESTS = {
    ("simple", 1): "926d368aeafe151d",
    ("simple", 2): "7973da19e3fd5119",
    ("simple", 3): "48715c7721a20d99",
    ("per_message_safe", 1): "c74aa7f6fbaf818f",
    ("per_message_safe", 2): "73ca23fbd0a3b6f0",
    ("per_message_safe", 3): "f77251bd8f102dbc",
    ("oracle", 1): "62a37801987ad1d3",
    ("oracle", 2): "0c9c38f101031873",
    ("oracle", 3): "cdf8d3dc54221589",
    ("aggressive", 1): "df336b1b35b73ece",
    ("aggressive", 2): "eebc2720da4a7f5c",
    ("aggressive", 3): "41b4b17984e83fb1",
}


def report_digest(report):
    state = report.final_state
    text = "\n".join(
        [str(report.steps)] + report.errors + report.invariant_violations
        + [state.describe() if state is not None else "None"]
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestTimedModesRefineTheSpec:
    @pytest.mark.parametrize("mode", ["simple", "per_message_safe", "oracle"])
    def test_safe_modes_refine(self, mode):
        report = check_refinement(
            window=6, total=150, seed=3, timeout_mode=mode
        )
        assert report.ok, report.summary() + "\n" + "\n".join(
            report.errors + report.invariant_violations
        )
        assert report.steps > 150  # sends + receptions + acks at minimum

    @pytest.mark.parametrize("seed", [1, 2, 5, 8])
    def test_refinement_across_seeds(self, seed):
        report = check_refinement(
            window=5, total=120, seed=seed, timeout_mode="per_message_safe",
            loss=0.12, spread=1.5,
        )
        assert report.ok, "\n".join(report.errors[:5])

    def test_lossless_run_refines(self):
        report = check_refinement(
            window=8, total=100, seed=0, timeout_mode="simple", loss=0.0,
            spread=0.0,
        )
        assert report.ok

    def test_aggressive_mode_violates_the_guard(self):
        report = check_refinement(
            window=6, total=200, seed=3, timeout_mode="aggressive"
        )
        assert not report.ok
        assert any("buffered at the receiver" in error for error in report.errors)

    def test_reports_are_pinned(self):
        digests = {
            (mode, seed): report_digest(check_refinement(
                window=5, total=120, seed=seed, timeout_mode=mode,
                loss=0.12, spread=1.5,
            ))
            for mode, seed in REPORT_DIGESTS
        }
        assert digests == REPORT_DIGESTS

    def test_final_state_is_quiescent(self):
        report = check_refinement(
            window=4, total=60, seed=4, timeout_mode="per_message_safe"
        )
        assert report.ok
        state = report.final_state
        assert state.na == state.ns == state.nr == state.vr == 60
        assert state.c_sr == () and state.c_rs == ()


class TestAdaptiveRunsRefineTheSpec:
    """Adaptive senders replay as the model's actions.  The RTO never
    falls below the derived safe period, so every backed-off resend
    meets action 2′'s guard, through a brownout that degrades the
    window (a smaller window stays within the model's w)."""

    @pytest.mark.parametrize("mode", ["simple", "per_message_safe"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_adaptive_brownout_run_refines(self, mode, seed):
        from repro.channel.delay import UniformDelay
        from repro.channel.impairments import BernoulliLoss
        from repro.protocols.blockack import BlockAckReceiver, BlockAckSender
        from repro.robustness.faults import FaultPlan
        from repro.sim.runner import LinkSpec, run_transfer
        from repro.workloads.sources import GreedySource

        def link():
            return LinkSpec(
                delay=UniformDelay(0.4, 1.6), loss=BernoulliLoss(0.08)
            )

        brownout = ((20.0, 0.0), (25.0, 1.0), (40.0, 1.0), (45.0, 0.0))
        sender = BlockAckSender(5, timeout_mode=mode, adaptive=True)
        result = run_transfer(
            sender, BlockAckReceiver(5), GreedySource(200),
            forward=link(), reverse=link(), seed=seed, trace=True,
            record_channel_drops=True, max_time=1_000_000.0,
            fault_plan=FaultPlan(forward_brownout=brownout, seed=seed),
        )
        assert result.completed and result.in_order
        assert result.sender_stats["adaptive"]["degrades"] > 0
        report = replay_trace(result.trace.events, 5)
        assert report.ok, "\n".join(report.errors[:5])


class TestReplayerGuards:
    def test_clean_exchange_replays(self):
        events = [
            ev(EventKind.SEND_DATA, seq=0),
            ev(EventKind.RECV_DATA, seq=0),
            ev(EventKind.SEND_ACK, seq=0, seq_hi=0),
            ev(EventKind.RECV_ACK, seq=0, seq_hi=0),
        ]
        report = replay_trace(events, window=4)
        assert report.ok
        assert report.final_state.na == 1

    def test_out_of_order_send_rejected(self):
        report = replay_trace([ev(EventKind.SEND_DATA, seq=3)], window=4)
        assert not report.ok

    def test_window_overflow_rejected(self):
        events = [ev(EventKind.SEND_DATA, seq=i) for i in range(3)]
        report = replay_trace(events, window=2)
        assert any("window full" in error for error in report.errors)

    def test_reception_of_never_sent_data_rejected(self):
        report = replay_trace([ev(EventKind.RECV_DATA, seq=0)], window=4)
        assert any("not in C_SR" in error for error in report.errors)

    def test_premature_retransmission_rejected(self):
        events = [
            ev(EventKind.SEND_DATA, seq=0),
            ev(EventKind.RESEND_DATA, seq=0),  # copy still in C_SR
        ]
        report = replay_trace(events, window=4)
        assert any("still in C_SR" in error for error in report.errors)

    def test_legal_retransmission_after_loss(self):
        events = [
            ev(EventKind.SEND_DATA, seq=0),
            ev(EventKind.DROP, seq=0),
            ev(EventKind.RESEND_DATA, seq=0),
            ev(EventKind.RECV_DATA, seq=0),
            ev(EventKind.SEND_ACK, seq=0, seq_hi=0),
            ev(EventKind.RECV_ACK, seq=0, seq_hi=0),
        ]
        report = replay_trace(events, window=4)
        assert report.ok

    def test_wrong_ack_block_rejected(self):
        events = [
            ev(EventKind.SEND_DATA, seq=0),
            ev(EventKind.RECV_DATA, seq=0),
            ev(EventKind.SEND_ACK, seq=0, seq_hi=1),  # 1 was never received
        ]
        report = replay_trace(events, window=4)
        assert any("actions 4+5" in error for error in report.errors)

    def test_duplicate_must_emit_dup_ack(self):
        events = [
            ev(EventKind.SEND_DATA, seq=0),
            ev(EventKind.RECV_DATA, seq=0),
            ev(EventKind.SEND_ACK, seq=0, seq_hi=0),
            ev(EventKind.DROP, seq=0, seq_hi=0),  # the ack is lost
            ev(EventKind.RESEND_DATA, seq=0),
            ev(EventKind.RECV_DATA, seq=0),  # duplicate, but no RESEND_ACK
        ]
        report = replay_trace(events, window=4)
        assert any("without a (v,v) ack" in error for error in report.errors)

    def test_duplicate_with_dup_ack_accepted(self):
        events = [
            ev(EventKind.SEND_DATA, seq=0),
            ev(EventKind.RECV_DATA, seq=0),
            ev(EventKind.SEND_ACK, seq=0, seq_hi=0),
            ev(EventKind.DROP, seq=0, seq_hi=0),
            ev(EventKind.RESEND_DATA, seq=0),
            ev(EventKind.RECV_DATA, seq=0),
            ev(EventKind.RESEND_ACK, seq=0, seq_hi=0),
            ev(EventKind.RECV_ACK, seq=0, seq_hi=0),
        ]
        report = replay_trace(events, window=4)
        assert report.ok
        assert report.final_state.na == 1

    def test_phantom_ack_reception_rejected(self):
        report = replay_trace(
            [ev(EventKind.RECV_ACK, seq=0, seq_hi=0)], window=4
        )
        assert any("not in C_RS" in error for error in report.errors)
