"""Byte-exact bounded-storage endpoints (paper Section V, final programs).

:class:`BoundedBlockAckSender` / :class:`BoundedBlockAckReceiver` run the
protocol exactly as the paper's final Section-V programs do: **no state
grows with the transfer** — counters live mod ``2w``, the ``ackd``/``rcvd``
flags and the payload buffers are rings of ``w`` cells, and all guards use
modular comparisons (via :class:`~repro.core.bounded.BoundedSenderBook` /
:class:`~repro.core.bounded.BoundedReceiverBook`).

The reference implementation (:mod:`repro.protocols.blockack` with
:class:`~repro.core.numbering.ModularNumbering`) keeps true sequence
numbers internally and reconstructs; this one never knows them.  The E7
equivalence experiment runs both under identical schedules and asserts
byte-identical wire traffic and identical payload delivery.

The sender uses the Section-II *simple* timeout (one timer, retransmit
``na``), matching the protocol the paper actually carries through its
Section-V transformation.

Endpoint scaffolding (transmission bookkeeping, adaptive retransmission,
timer plumbing) comes from :mod:`repro.protocols.window_core`; the
bounded books and the ring payload store stay here because their O(w)
storage discipline is the whole point of Section V.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.bounded import BoundedReceiverBook, BoundedSenderBook
from repro.core.messages import BlockAck, DataMessage
from repro.protocols.ack_policy import AckPolicy, EagerAckPolicy
from repro.protocols.window_core import WindowedReceiver, WindowedSender
from repro.trace.events import EventKind

__all__ = ["BoundedBlockAckSender", "BoundedBlockAckReceiver"]


class BoundedBlockAckSender(WindowedSender):
    """Sender with O(w) total state: Section V's final sender program.

    ``adaptive=True`` replaces the fixed timeout with a
    :class:`~repro.robustness.controller.RetransmissionController`.  The
    wire-number domain is fixed at ``2w`` by construction, so graceful
    degradation cannot shrink the window here; a DEGRADE verdict falls
    back to a plain (backed-off) retry, and only LINK_DEAD changes
    behavior.  ``False`` keeps the fixed-timer program bit-for-bit.
    """

    timer_style = "single"
    timer_name = "bounded-retx"

    def __init__(
        self,
        window: int,
        timeout_period: Optional[float] = None,
        adaptive: bool = False,
    ) -> None:
        super().__init__(timeout_period=timeout_period, adaptive=adaptive)
        self.book = BoundedSenderBook(window)
        self.w = window
        self._payloads = [None] * window  # ring keyed by seq mod w
        self._delivered_count = 0  # stats only; NOT protocol state

    def _send_window_open(self) -> bool:
        return self.book.can_send

    @property
    def all_acknowledged(self) -> bool:
        return self.book.all_acknowledged

    def _take_next(self) -> int:
        return self.book.take_next()

    def _store_payload(self, wire: int, payload: Any) -> None:
        self._payloads[wire % self.w] = payload

    def _payload_for(self, wire: int) -> Any:
        return self._payloads[wire % self.w]

    def _on_single_timeout(self) -> None:
        if (
            self.book.all_acknowledged
            or self.book.domain.sub(self.book.ns, self.book.na) > self.book.w
        ):
            # the second disjunct only differs under state corruption:
            # never retransmit from an inconsistent cursor (stabilize
            # repairs it before the next delivery or watchdog sweep)
            return
        self.stats.timeouts_fired += 1
        self.trace.record(
            self.actor_name, EventKind.TIMEOUT, seq=self.book.na, detail="simple"
        )
        if not self._consult_budget(None):
            return
        self._transmit(self.book.na, attempt=1)

    def on_message(self, ack: Any) -> None:
        if not isinstance(ack, BlockAck):
            raise TypeError(f"bounded block-ack sender got {ack!r}")
        self.stats.acks_received += 1
        self.trace.record(
            self.actor_name, EventKind.RECV_ACK, seq=ack.lo, seq_hi=ack.hi
        )
        na_before = self.book.na
        advanced = self.book.apply_ack(ack.lo, ack.hi)
        if advanced == 0:
            self.stats.stale_acks += 1
        newly = [self.book.domain.add(na_before, i) for i in range(advanced)]
        for wire in newly:
            self._payloads[wire % self.w] = None
        for cell in self.book.marked_cells():
            # release buffer cells as soon as their number is acknowledged
            # (Section V storage discipline), including cells marked ahead
            # of a stalled na; an occupied cell is then a witness that its
            # number is still unacknowledged — see BoundedSenderBook.repair
            self._payloads[cell] = None
        self._delivered_count += advanced
        self._register_ack(newly, self._delivered_count)
        if self.book.all_acknowledged:
            self._timer.stop()
        if advanced:
            self._window_open_event(self.book.na)

    # ------------------------------------------------------------------
    # self-stabilization
    # ------------------------------------------------------------------

    def _repair_state(self) -> list:
        witness = {
            cell
            for cell, payload in enumerate(self._payloads)
            if payload is not None
        }
        return self.book.repair(witness_cells=witness)


class BoundedBlockAckReceiver(WindowedReceiver):
    """Receiver with O(w) total state: Section V's final receiver program."""

    def __init__(
        self, window: int, ack_policy: Optional[AckPolicy] = None
    ) -> None:
        super().__init__()
        self.book = BoundedReceiverBook(window)
        self.w = window
        self.ack_policy = ack_policy if ack_policy is not None else EagerAckPolicy()
        self._delivered_count = 0  # stats only; NOT protocol state

    def _after_attach(self) -> None:
        self.ack_policy.attach(self.sim, self._flush_acks)

    def on_message(self, message: Any) -> None:
        if not isinstance(message, DataMessage):
            raise TypeError(f"bounded block-ack receiver got {message!r}")
        wire = message.seq
        self._note_arrival(wire)
        if self.book.accept(wire, message.payload):
            # v < nr: duplicate of an accepted message — re-ack (v, v)
            self.stats.duplicates += 1
            self._send_ack(wire, wire, duplicate=True)
            return
        if wire != self.book.vr:
            self.stats.out_of_order += 1
        self.book.advance()
        self._note_buffered(self.book.buffered_count())
        pending = self.book.domain.sub(self.book.vr, self.book.nr)
        if pending > 0:
            self.ack_policy.on_update(pending)

    def _flush_acks(self) -> None:
        self.book.advance()
        if not self.book.ack_ready:
            return
        lo, hi, payloads = self.book.take_block()
        self._send_ack(lo, hi, duplicate=False)
        for offset, payload in enumerate(payloads):
            wire = self.book.domain.add(lo, offset)
            self.trace.record(self.actor_name, EventKind.DELIVER, seq=wire)
            self._delivered_count += 1
            self._deliver(wire, payload)

    def _send_ack(self, lo: int, hi: int, duplicate: bool) -> None:
        self.stats.acks_sent += 1
        kind = EventKind.RESEND_ACK if duplicate else EventKind.SEND_ACK
        self.trace.record(self.actor_name, kind, seq=lo, seq_hi=hi)
        self.tx.send(BlockAck(lo=lo, hi=hi, urgent=duplicate))

    # ------------------------------------------------------------------
    # self-stabilization
    # ------------------------------------------------------------------

    def _repair_state(self) -> list:
        return self.book.repair()

    def _rearm_after_repair(self) -> list:
        """After a state repair, make sure any pending block still flushes."""
        self.book.advance()
        pending = self.book.domain.sub(self.book.vr, self.book.nr)
        if pending > 0:
            self.ack_policy.on_update(pending)
            return [f"kicked ack policy ({pending} pending)"]
        return []
