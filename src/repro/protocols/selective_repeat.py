"""Selective-repeat baseline (Stenning's protocol, paper reference [14]).

The paper describes this baseline as the variant that tolerates both loss
and disorder but "requires that every data message be acknowledged by a
distinct acknowledgment message ... a severe restriction over the behavior
of a regular window protocol":

* the receiver accepts out-of-order data within the window, buffers it,
  and emits one singleton acknowledgment ``(v, v)`` for **every** data
  message received (fresh or duplicate);
* the sender keeps one retransmission timer per outstanding message and
  retransmits individually.

Block acknowledgment keeps this protocol's loss resilience (E3) while
cutting its per-message acknowledgment traffic (E4) — that comparison is
the heart of the paper's Section VI claim that selective repeat and
go-back-N are the two degenerate corners of block acknowledgment.

Endpoint scaffolding (payload store, transmission bookkeeping, adaptive
retransmission, per-sequence timer bank) comes from
:mod:`repro.protocols.window_core`; this module keeps only the
selective-repeat decision logic.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.messages import BlockAck, DataMessage
from repro.core.window import ReceiverWindow, SenderWindow
from repro.protocols.window_core import WindowedReceiver, WindowedSender
from repro.robustness.controller import DEGRADE_FACTOR
from repro.trace.events import EventKind

__all__ = ["SelectiveRepeatSender", "SelectiveRepeatReceiver"]


class SelectiveRepeatSender(WindowedSender):
    """Selective-repeat sender: per-message acks and timers.

    ``adaptive=True`` replaces the fixed per-message timeout with a
    :class:`~repro.robustness.controller.RetransmissionController`
    (estimated RTO, per-message backoff, retry budget with graceful
    degradation); ``False`` keeps the fixed-timer baseline bit-for-bit.
    """

    timer_style = "per_seq"
    timer_name = "sr-retx"

    def __init__(
        self,
        window: int,
        timeout_period: Optional[float] = None,
        adaptive: bool = False,
    ) -> None:
        super().__init__(timeout_period=timeout_period, adaptive=adaptive)
        self.window = SenderWindow(window)

    def _on_seq_timeout(self, seq: int) -> None:
        if self.window.is_acked(seq):
            return
        self.stats.timeouts_fired += 1
        self.trace.record(self.actor_name, EventKind.TIMEOUT, seq=seq)
        if not self._consult_budget(seq):
            return
        self._transmit(seq, attempt=1)

    def _degrade(self) -> None:
        self.window.resize(max(1, int(self.window.w * DEGRADE_FACTOR)))

    def on_message(self, ack: Any) -> None:
        if not isinstance(ack, BlockAck) or not ack.is_singleton:
            raise TypeError(f"selective-repeat sender expects (v,v) acks, got {ack!r}")
        self.stats.acks_received += 1
        seq = ack.lo
        if self.window.is_acked(seq) or seq >= self.window.ns:
            self.stats.stale_acks += 1
            return
        self.trace.record(self.actor_name, EventKind.RECV_ACK, seq=seq, seq_hi=seq)
        outcome = self.window.apply_ack(seq, seq)
        self._register_ack(outcome.newly_acked, self.window.na)
        self._timers.stop(seq)
        self._payloads.pop(seq, None)
        if outcome.advanced:
            self._window_open_event(self.window.na)


class SelectiveRepeatReceiver(WindowedReceiver):
    """Selective-repeat receiver: out-of-order buffering, one ack per datum."""

    def __init__(self, window: int) -> None:
        super().__init__()
        self.window = ReceiverWindow(window)

    def on_message(self, message: Any) -> None:
        if not isinstance(message, DataMessage):
            raise TypeError(f"selective-repeat receiver got {message!r}")
        seq = message.seq
        self._note_arrival(seq)
        outcome = self.window.accept(seq, message.payload)
        self._classify(outcome, seq, self.window.vr)
        # the defining trait: EVERY received data message gets its own ack
        self._send_ack(seq)
        self.window.advance()
        self._note_buffered(self.window.buffered_count())
        self._drain_ready()

    def _send_ack(self, seq: int) -> None:
        self.stats.acks_sent += 1
        self.trace.record(self.actor_name, EventKind.SEND_ACK, seq=seq, seq_hi=seq)
        self.tx.send(BlockAck(lo=seq, hi=seq))
