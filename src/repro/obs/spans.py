"""Virtual-time spans: the per-sequence-number lifecycle, measured.

A :class:`SeqSpan` follows one sequence number through the protocol::

    submitted -> sent -> [resend ...] -> acked -> delivered

with every transition stamped in **virtual time** (``Simulator.now``).
The tracker derives the distributions the paper's analysis cares about:

* ``retransmits_per_seq`` — how many extra copies each message cost
  (go-back-N's whole-window waste vs. block ack's one-per-loss shows up
  directly here);
* ``ack_block_size`` — the ``n - m + 1`` span of every received block
  acknowledgment (the paper's headline economy: one ack, many messages);
* ``time_in_window`` — submit to cumulative-ack: how long each message
  occupied sender window state;
* ``latency`` — submit to deliver (the ``delivery_latency`` histogram).

:class:`SpanTracker` consumes the same stream of trace records the
endpoints already emit, so **every retransmitting protocol is
instrumented at once**: :class:`ObsRecorder` is a write-only tee with
the ``record`` signature of :class:`~repro.trace.recorder.TraceRecorder`
that feeds each record to the tracker (and its metric counters) before
forwarding it to an inner recorder.  The two ends of a span come from
the session host instead: its submit wrapper and its delivery callback
call :meth:`SpanTracker.on_submit` and :meth:`SpanTracker.on_deliver`
once per message, whether or not the endpoint records DELIVER.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import COUNT_BUCKETS, MetricsRegistry
from repro.trace.events import EventKind

__all__ = ["SeqSpan", "SpanTracker", "ObsRecorder", "LIFECYCLE_STATES"]

# bound once: on Python 3.11 every ``EventKind.<member>`` read goes
# through ``EnumType.__getattr__`` (~110-170 ns), and on_event runs per
# trace record
_SEND_DATA = EventKind.SEND_DATA
_RESEND_DATA = EventKind.RESEND_DATA
_RECV_ACK = EventKind.RECV_ACK
_TIMEOUT = EventKind.TIMEOUT
_WINDOW_OPEN = EventKind.WINDOW_OPEN

#: The lifecycle states a span moves through, in order.  ``resent`` is a
#: transient sub-state of ``sent`` (re-entered per retransmission).
LIFECYCLE_STATES = ("submitted", "sent", "resent", "acked", "delivered")


class SeqSpan:
    """Lifecycle timestamps and counts for one sequence number."""

    __slots__ = (
        "seq",
        "submitted_at",
        "first_sent_at",
        "last_sent_at",
        "acked_at",
        "delivered_at",
        "sends",
        "resends",
        "timeouts",
    )

    def __init__(self, seq: int) -> None:
        self.seq = seq
        self.submitted_at: Optional[float] = None
        self.first_sent_at: Optional[float] = None
        self.last_sent_at: Optional[float] = None
        self.acked_at: Optional[float] = None
        self.delivered_at: Optional[float] = None
        self.sends = 0
        self.resends = 0
        self.timeouts = 0

    @property
    def state(self) -> str:
        """Current lifecycle state (the furthest transition reached)."""
        if self.delivered_at is not None:
            return "delivered"
        if self.acked_at is not None:
            return "acked"
        if self.resends:
            return "resent"
        if self.sends:
            return "sent"
        return "submitted"

    @property
    def complete(self) -> bool:
        """Both ends of the lifecycle observed (acked and delivered)."""
        return self.acked_at is not None and self.delivered_at is not None

    @property
    def latency(self) -> Optional[float]:
        """Submit-to-deliver virtual time, if both ends were observed."""
        if self.submitted_at is None or self.delivered_at is None:
            return None
        return self.delivered_at - self.submitted_at

    @property
    def time_in_window(self) -> Optional[float]:
        """Submit-to-ack virtual time (sender window occupancy)."""
        if self.submitted_at is None or self.acked_at is None:
            return None
        return self.acked_at - self.submitted_at

    def as_record(self) -> dict:
        """JSON-safe span record for the ``.jsonl`` export."""
        return {
            "type": "span",
            "seq": self.seq,
            "state": self.state,
            "submitted": self.submitted_at,
            "first_sent": self.first_sent_at,
            "last_sent": self.last_sent_at,
            "acked": self.acked_at,
            "delivered": self.delivered_at,
            "sends": self.sends,
            "resends": self.resends,
            "timeouts": self.timeouts,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeqSpan(seq={self.seq}, state={self.state!r})"


class SpanTracker:
    """Fold trace records into per-seq spans and derived metrics.

    ``flow`` tags every exported span record with a flow id, so the
    per-flow trackers a :class:`~repro.sim.host.SessionHost` keeps
    remain distinguishable after export — ``blockack obs summarize``
    groups its latency percentiles by this tag.
    """

    def __init__(
        self, registry: MetricsRegistry, flow: Optional[int] = None
    ) -> None:
        self.registry = registry
        self.flow = flow
        self.spans: Dict[int, SeqSpan] = {}
        # every seq below this cursor is acknowledged; WINDOW_OPEN and
        # a block ack that reaches it move it
        self._acked_below = 0
        self._events = registry.counter(
            "protocol_events_total",
            "trace records by actor and kind",
            labelnames=("actor", "kind"),
        )
        # (actor, kind value) -> bound protocol_events_total child; keyed
        # by the value string because hashing an Enum member runs Python
        self._event_children: Dict[Tuple[str, str], Any] = {}
        # declared now, so the snapshot lists them even when empty; each
        # series is created on first use (see _bind) and then bumped
        # through its bound child
        self._instruments = {
            "_retransmits": registry.histogram(
                "retransmits_per_seq",
                "extra transmissions each sequence number needed",
                buckets=COUNT_BUCKETS,
            ),
            "_block_size": registry.histogram(
                "ack_block_size",
                "messages covered per received block acknowledgment (n-m+1)",
                buckets=COUNT_BUCKETS,
            ),
            "_time_in_window": registry.histogram(
                "time_in_window",
                "virtual time from submit to cumulative acknowledgment",
            ),
            "_latency": registry.histogram(
                "delivery_latency",
                "virtual time from submit to in-order delivery",
            ),
            "_window_open": registry.counter(
                "window_open_total", "times the sender window reopened"
            ),
            "_timeouts": registry.counter(
                "timeouts_total", "retransmission timers fired"
            ),
        }
        self._retransmits = self._block_size = self._time_in_window = None
        self._latency = self._window_open = self._timeouts = None

    def _bind(self, slot: str):
        child = self._instruments[slot].labels()
        setattr(self, slot, child)
        return child

    # ------------------------------------------------------------------
    # lifecycle entry points
    # ------------------------------------------------------------------

    def _span(self, seq: int) -> SeqSpan:
        span = self.spans.get(seq)
        if span is None:
            span = SeqSpan(seq)
            self.spans[seq] = span
        return span

    def on_submit(self, seq: int, now: float) -> None:
        """The application handed ``seq`` to the sender at ``now``."""
        self._span(seq).submitted_at = now

    def on_deliver(self, seq: int, now: float) -> Optional[float]:
        """``seq`` was released in order; returns its latency, if known.

        The session host calls this from its ``on_deliver`` callback,
        which sees every delivery whether or not the endpoint records
        DELIVER; :meth:`on_event` only counts a DELIVER record.
        """
        span = self._span(seq)
        if span.delivered_at is None:
            span.delivered_at = now
            submitted = span.submitted_at
            if submitted is None:
                return None
            latency = now - submitted
            (self._latency or self._bind("_latency")).observe(latency)
            return latency
        return None

    def on_event(
        self,
        now: float,
        actor: str,
        kind: EventKind,
        seq: Optional[int],
        seq_hi: Optional[int],
        detail: Any,  # noqa: ARG002 - uniform record signature
    ) -> None:
        """One trace record from any endpoint (via :class:`ObsRecorder`)."""
        key = (actor, kind._value_)
        child = self._event_children.get(key)
        if child is None:
            child = self._event_children[key] = self._events.labels(
                actor=actor, kind=key[1]
            )
        child.value += 1.0
        if kind is _SEND_DATA:
            span = self._span(seq)
            span.sends += 1
            if span.first_sent_at is None:
                span.first_sent_at = now
            span.last_sent_at = now
        elif kind is _RESEND_DATA:
            span = self._span(seq)
            span.sends += 1
            span.resends += 1
            span.last_sent_at = now
        elif kind is _RECV_ACK:
            hi = seq_hi if seq_hi is not None else seq
            if seq is not None and hi is not None and hi >= seq:
                (self._block_size or self._bind("_block_size")).observe(
                    hi - seq + 1
                )
                self._mark_acked(seq, hi + 1, now)
                # a block reaching the cursor extends the acked prefix, so
                # the next WINDOW_OPEN visits no seq this block marked
                if seq <= self._acked_below <= hi:
                    self._acked_below = hi + 1
        elif kind is _TIMEOUT:
            (self._timeouts or self._bind("_timeouts")).value += 1.0
            if seq is not None:
                self._span(seq).timeouts += 1
        elif kind is _WINDOW_OPEN:
            (self._window_open or self._bind("_window_open")).value += 1.0
            # the window base ``na`` moved: everything below it is acked.
            # Cumulative acks do not list what they cover (go-back-N
            # records only the top seq of the ack, TCP-SACK only its
            # cumulative point), so their seqs are marked here
            if seq is not None and seq > self._acked_below:
                self._mark_acked(self._acked_below, seq, now)
                self._acked_below = seq

    def _mark_acked(self, lo: int, hi: int, now: float) -> None:
        """Stamp ``acked_at`` on every not yet acked span in ``[lo, hi)``."""
        spans = self.spans
        for seq in range(lo, hi):
            span = spans.get(seq)
            if span is None or span.acked_at is not None:
                continue
            span.acked_at = now
            (self._retransmits or self._bind("_retransmits")).observe(
                span.resends
            )
            submitted = span.submitted_at
            if submitted is not None:
                (
                    self._time_in_window or self._bind("_time_in_window")
                ).observe(now - submitted)

    # ------------------------------------------------------------------
    # reading the results
    # ------------------------------------------------------------------

    def latencies(self) -> List[float]:
        """Submit-to-deliver latencies of completed spans, in seq order.

        The session host keeps the latency list of a result itself: a
        Section V endpoint's wire numbers repeat as span keys.
        """
        out = []
        for seq in sorted(self.spans):
            latency = self.spans[seq].latency
            if latency is not None:
                out.append(latency)
        return out

    def incomplete(self) -> List[SeqSpan]:
        """Spans that never reached ``delivered`` (lost-progress debris)."""
        return [
            self.spans[seq]
            for seq in sorted(self.spans)
            if not self.spans[seq].complete
        ]

    def as_records(self) -> List[dict]:
        """Every span as a JSON-safe export record, in sequence order."""
        records = [self.spans[seq].as_record() for seq in sorted(self.spans)]
        if self.flow is not None:
            for record in records:
                record["flow"] = self.flow
        return records


class ObsRecorder:
    """Write-only recorder tee: spans + metrics first, then the inner recorder.

    Endpoints only ever call ``record``, so ``sender.attach(sim, tx,
    recorder)`` works identically whether ``recorder`` is a plain trace
    recorder, the null recorder, or this tee.  Nothing reads through the
    tee: the trace (``result.trace``) and the export's events are read
    from the host's own recorder.
    """

    __slots__ = ("_sim", "_on_event", "_fwd")

    def __init__(self, sim, tracker: SpanTracker, inner) -> None:
        self._sim = sim
        self._on_event = tracker.on_event
        self._fwd = inner.record

    def record(self, actor, kind, seq=None, seq_hi=None, detail=None) -> None:
        self._on_event(self._sim.now, actor, kind, seq, seq_hi, detail)
        self._fwd(actor, kind, seq, seq_hi, detail)
