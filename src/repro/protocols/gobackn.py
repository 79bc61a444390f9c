"""Go-back-N baseline (the "traditional window protocol" of the paper).

Classic go-back-N with cumulative acknowledgments and unbounded internal
sequence numbers (so it is *safe* under reorder — the unsafe bounded-number
variant that motivates the paper lives in :mod:`repro.verify.faulty`):

* the receiver accepts **only in-order** data; anything else is discarded
  and answered with a duplicate cumulative ack for the last accepted
  message;
* the sender keeps one timer; on expiry it retransmits the **entire**
  outstanding window (the "go back");
* a cumulative ack for ``k`` acknowledges everything ``<= k``; stale
  (non-advancing) acks are ignored.

Against block acknowledgment this baseline shows both paper claims: equal
throughput when channels are perfect (E2) and collapse under loss (whole
windows retransmitted, E3) or reorder (out-of-order arrivals discarded,
E10).

Endpoint scaffolding (payload store, transmission bookkeeping, adaptive
retransmission, timer plumbing) comes from
:mod:`repro.protocols.window_core`; this module keeps only the go-back-N
decision logic.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.messages import CumulativeAck, DataMessage
from repro.core.window import ReceiverWindow, SenderWindow
from repro.protocols.window_core import WindowedReceiver, WindowedSender
from repro.robustness.controller import DEGRADE_FACTOR
from repro.trace.events import EventKind

__all__ = ["GoBackNSender", "GoBackNReceiver"]


class GoBackNSender(WindowedSender):
    """Go-back-N sender: cumulative acks, whole-window retransmission.

    ``adaptive=True`` replaces the fixed timeout with a
    :class:`~repro.robustness.controller.RetransmissionController`
    (estimated RTO, backoff, retry budget with graceful degradation);
    ``False`` keeps the fixed-timer baseline bit-for-bit.
    """

    timer_style = "single"
    timer_name = "gbn-retx"

    def __init__(
        self,
        window: int,
        timeout_period: Optional[float] = None,
        adaptive: bool = False,
    ) -> None:
        super().__init__(timeout_period=timeout_period, adaptive=adaptive)
        self.window = SenderWindow(window)

    # -- transmission -------------------------------------------------------

    def _arm_timers(self, seq: int, attempt: int) -> None:
        # one timer for the whole window: arm on first use, never restart
        # mid-flight (the go-back retransmission loop re-arms at the end)
        if not self._timer.running:
            self._timer.start()

    def _on_single_timeout(self) -> None:
        """Go back: retransmit every outstanding message, restart timer."""
        if self.all_acknowledged:
            return
        self.stats.timeouts_fired += 1
        self.trace.record(
            self.actor_name, EventKind.TIMEOUT, seq=self.window.na, detail="go-back"
        )
        if not self._consult_budget(None):
            return
        for seq in self.window.outstanding():
            self._transmit(seq, attempt=1)
        self._timer.start()

    def _degrade(self) -> None:
        # shrink the effective window; cumulative acking needs no trace
        self.window.resize(max(1, int(self.window.w * DEGRADE_FACTOR)))

    # -- acknowledgment handling ---------------------------------------------

    def on_message(self, ack: Any) -> None:
        if not isinstance(ack, CumulativeAck):
            raise TypeError(f"go-back-N sender got {ack!r}")
        self.stats.acks_received += 1
        if ack.seq < self.window.na:
            self.stats.stale_acks += 1
            return
        if ack.seq >= self.window.ns:
            # cannot happen with unbounded numbers; defensive for reuse
            self.stats.stale_acks += 1
            return
        self.trace.record(self.actor_name, EventKind.RECV_ACK, seq=ack.seq)
        outcome = self.window.apply_ack(self.window.na, ack.seq)
        for seq in outcome.newly_acked:
            self._payloads.pop(seq, None)
        self._register_ack(outcome.newly_acked, self.window.na)
        if self.all_acknowledged:
            self._timer.stop()
        else:
            self._timer.start()  # restart for new oldest
        self._window_open_event(self.window.na)


class GoBackNReceiver(WindowedReceiver):
    """Go-back-N receiver: in-order accept only, cumulative acks."""

    def __init__(self, window: int) -> None:
        super().__init__()
        self.window = ReceiverWindow(window)

    @property
    def nr(self) -> int:
        """Next expected sequence number (public before the refactor)."""
        return self.window.nr

    def on_message(self, message: Any) -> None:
        if not isinstance(message, DataMessage):
            raise TypeError(f"go-back-N receiver got {message!r}")
        seq = message.seq
        self._note_arrival(seq)
        if seq == self.window.nr:
            # in-order: accept and release immediately (never buffered)
            self.window.accept(seq, message.payload)
            self.window.advance()
            lo, _hi, payloads = self.window.take_block()
            self._deliver_block(lo, payloads)
        elif seq < self.window.nr:
            self.stats.duplicates += 1
        else:
            self.stats.out_of_order += 1  # discarded, not buffered
        if self.window.nr > 0:
            self._send_ack(self.window.nr - 1)

    def _send_ack(self, seq: int) -> None:
        self.stats.acks_sent += 1
        self.trace.record(self.actor_name, EventKind.SEND_ACK, seq=seq)
        self.tx.send(CumulativeAck(seq=seq))
