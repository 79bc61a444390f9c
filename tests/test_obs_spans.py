"""Tests for virtual-time spans and the recorder tee."""

import pytest

from repro.channel.delay import UniformDelay
from repro.channel.impairments import BernoulliLoss
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import LIFECYCLE_STATES, ObsRecorder, SeqSpan, SpanTracker
from repro.protocols.registry import make_pair
from repro.sim.runner import LinkSpec, run_transfer
from repro.trace.events import EventKind
from repro.trace.recorder import TraceRecorder
from repro.workloads.sources import GreedySource


def make_tracker():
    return SpanTracker(MetricsRegistry())


class TestSeqSpan:
    def test_lifecycle_state_progression(self):
        span = SeqSpan(0)
        assert span.state == "submitted"
        span.sends = 1
        assert span.state == "sent"
        span.resends = 1
        assert span.state == "resent"
        span.acked_at = 5.0
        assert span.state == "acked"
        span.delivered_at = 6.0
        assert span.state == "delivered"
        assert span.state in LIFECYCLE_STATES

    def test_latency_and_time_in_window(self):
        span = SeqSpan(0)
        span.submitted_at = 1.0
        span.acked_at = 4.0
        span.delivered_at = 3.0
        assert span.time_in_window == 3.0
        assert span.latency == 2.0

    def test_incomplete_span_has_no_latency(self):
        span = SeqSpan(0)
        span.submitted_at = 1.0
        assert span.latency is None
        assert not span.complete


class TestSpanTracker:
    def test_send_resend_ack_deliver_cycle(self):
        tracker = make_tracker()
        tracker.on_submit(0, 0.0)
        tracker.on_event(1.0, "sender", EventKind.SEND_DATA, 0, None, None)
        tracker.on_event(3.0, "sender", EventKind.RESEND_DATA, 0, None, None)
        tracker.on_event(5.0, "sender", EventKind.RECV_ACK, 0, 0, None)
        # a DELIVER record only counts: deliveries come from the host's
        # delivery callback, which calls on_deliver
        tracker.on_event(4.0, "receiver", EventKind.DELIVER, 0, None, None)
        assert tracker.spans[0].delivered_at is None
        tracker.on_deliver(0, 4.0)
        span = tracker.spans[0]
        assert span.sends == 2 and span.resends == 1
        assert span.first_sent_at == 1.0 and span.last_sent_at == 3.0
        assert span.acked_at == 5.0 and span.delivered_at == 4.0
        assert span.complete

    def test_block_ack_marks_every_covered_seq(self):
        tracker = make_tracker()
        for seq in range(4):
            tracker.on_submit(seq, 0.0)
            tracker.on_event(1.0, "sender", EventKind.SEND_DATA, seq, None, None)
        tracker.on_event(6.0, "sender", EventKind.RECV_ACK, 0, 3, None)
        assert all(tracker.spans[seq].acked_at == 6.0 for seq in range(4))
        # the n-m+1 block size was observed once
        block = tracker.registry.get("ack_block_size")
        assert block.count == 1 and block.sum == 4.0

    def test_deliver_is_idempotent(self):
        tracker = make_tracker()
        tracker.on_submit(0, 0.0)
        assert tracker.on_deliver(0, 2.0) == 2.0
        assert tracker.on_deliver(0, 9.0) is None  # second call ignored
        assert tracker.spans[0].delivered_at == 2.0

    def test_latencies_in_seq_order(self):
        tracker = make_tracker()
        for seq, latency in ((2, 5.0), (0, 1.0), (1, 3.0)):
            tracker.on_submit(seq, 0.0)
            tracker.on_deliver(seq, latency)
        assert tracker.latencies() == [1.0, 3.0, 5.0]

    def test_incomplete_spans_reported(self):
        tracker = make_tracker()
        tracker.on_submit(0, 0.0)
        tracker.on_submit(1, 0.0)
        tracker.on_deliver(0, 1.0)
        tracker.on_event(2.0, "sender", EventKind.RECV_ACK, 0, 0, None)
        stuck = tracker.incomplete()
        assert [span.seq for span in stuck] == [1]

    def test_window_open_acks_everything_below_na(self):
        # cumulative acks: go-back-N records RECV_ACK with only the top
        # seq of the ack, TCP-SACK with only its cumulative point
        tracker = make_tracker()
        for seq in range(4):
            tracker.on_submit(seq, 0.0)
            tracker.on_event(1.0, "sender", EventKind.SEND_DATA, seq, None, None)
        tracker.on_event(5.0, "sender", EventKind.RECV_ACK, 2, None, None)
        tracker.on_event(5.0, "sender", EventKind.WINDOW_OPEN, 3, None, None)
        assert [tracker.spans[seq].acked_at for seq in range(4)] == [
            5.0, 5.0, 5.0, None
        ]
        assert tracker.registry.get("time_in_window").count == 3
        tracker.on_event(7.0, "sender", EventKind.WINDOW_OPEN, 4, None, None)
        assert tracker.spans[3].acked_at == 7.0
        assert tracker.registry.get("retransmits_per_seq").count == 4

    @pytest.mark.parametrize(
        "protocol", ["blockack", "gobackn", "tcp-sack", "selective-repeat"]
    )
    def test_every_span_of_a_transfer_completes(self, protocol):
        sender, receiver = make_pair(protocol, window=8)

        def link():
            return LinkSpec(
                delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.05)
            )

        result = run_transfer(
            sender, receiver, GreedySource(300),
            forward=link(), reverse=link(), seed=3, obs=True,
        )
        assert result.completed
        (tracker,) = result.obs.trackers
        assert tracker.incomplete() == []
        registry = result.obs.registry
        assert registry.get("time_in_window").count == 300
        assert registry.get("retransmits_per_seq").count == 300

    def test_timeout_and_window_open_counters(self):
        tracker = make_tracker()
        tracker.on_event(1.0, "sender", EventKind.TIMEOUT, 0, None, None)
        tracker.on_event(2.0, "sender", EventKind.WINDOW_OPEN, None, None, None)
        assert tracker.registry.get("timeouts_total").value == 1.0
        assert tracker.registry.get("window_open_total").value == 1.0
        assert tracker.spans[0].timeouts == 1

    def test_span_records_are_json_shaped(self):
        tracker = make_tracker()
        tracker.on_submit(0, 0.0)
        tracker.on_deliver(0, 1.0)
        (record,) = tracker.as_records()
        assert record["type"] == "span"
        assert record["seq"] == 0
        assert record["state"] == "delivered"


class TestObsRecorder:
    def test_tee_feeds_tracker_and_inner(self, sim):
        tracker = make_tracker()
        inner = TraceRecorder(sim)
        tee = ObsRecorder(sim, tracker, inner)
        sim.schedule(2.0, tee.record, "sender", EventKind.SEND_DATA, 7)
        sim.run()
        # tracker saw it at virtual time 2.0
        assert tracker.spans[7].first_sent_at == 2.0
        # the wrapped recorder got the unmodified record
        assert inner.events[0].seq == 7 and inner.events[0].time == 2.0

    def test_dropped_events_surface_through_tee(self, sim):
        tracker = make_tracker()
        inner = TraceRecorder(sim, capacity=1)
        tee = ObsRecorder(sim, tracker, inner)
        tee.record("sender", EventKind.SEND_DATA, seq=0)
        tee.record("sender", EventKind.SEND_DATA, seq=1)
        assert inner.dropped_events == 1
        # spans still track the dropped event — capacity bounds the
        # stored trace, not the telemetry
        assert 1 in tracker.spans
