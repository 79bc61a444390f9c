"""Timer-constrained bounded-number baseline (Stenning / Shankar–Lam).

This is the second prior protocol the paper's introduction critiques: it
achieves bounded sequence numbers *and* tolerance of loss + disorder, but
by imposing a real-time constraint on every send — "a specified time
period should elapse between the sending of two data messages with the
same sequence number".  The reuse period must exceed the maximum lifetime
of a message and its acknowledgment, so that when a wire number is reused
no stale copy can be misattributed.

Consequence (the paper: "this additional constraint may adversely affect
the rate of data transfer in the event that a small domain of sequence
numbers is used"): new transmissions of each of the ``D`` wire numbers
are at least ``reuse_delay`` apart, capping throughput at::

    min( w / RTT,  D / reuse_delay )

The E6 experiment sweeps ``D`` and shows the linear cap, with block
acknowledgment flat at channel capacity for every domain >= 2w.

Decoding with the reuse discipline
----------------------------------

All live data sequence numbers lie in ``[nr - w, nr + w)`` — too wide for
unique mod-``D`` decoding when ``D < 2w``.  The reuse discipline is what
closes the gap: a previous generation ``x ≡ s (mod D)`` was necessarily
acknowledged and its copies aged out before ``s`` was reused, so the only
candidate that can actually be in transit is the **largest** value
``v ≡ s (mod D)`` with ``v < nr + w`` (receiver side) or ``v < ns``
(sender side, for acks).  This works for any ``D >= w + 1`` — smaller
than the ``2w`` the paper's own protocol needs, which is exactly the
trade: a smaller number space bought with real-time delays.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.messages import BlockAck, DataMessage
from repro.core.window import ReceiverWindow, SenderWindow
from repro.protocols.base import ReceiverEndpoint, SenderEndpoint
from repro.sim.timers import Timer, TimerBank
from repro.trace.events import EventKind

__all__ = ["StenningSender", "StenningReceiver", "decode_latest"]


def decode_latest(wire: int, domain: int, bound: int) -> Optional[int]:
    """Largest ``v ≡ wire (mod domain)`` with ``v < bound``; None if < 0."""
    if not 0 <= wire < domain:
        raise ValueError(f"wire {wire} outside domain 0..{domain - 1}")
    if bound <= 0:
        return None
    v = ((bound - 1 - wire) // domain) * domain + wire
    return v if v >= 0 else None


class StenningSender(SenderEndpoint):
    """Bounded-number sender with the per-number reuse delay.

    Parameters
    ----------
    window:
        Maximum outstanding messages ``w``.
    domain:
        Wire sequence-number domain ``D``; must be at least ``w + 1``.
    reuse_delay:
        Minimum spacing between transmissions carrying the same wire
        number.  Must exceed the maximum one-way data lifetime + ack
        latency + ack lifetime; the runner derives it from the channels
        when left None (same bound as the retransmission timeout).
    timeout_period:
        Per-message retransmission timeout; derived by the runner when
        None (and shared with ``reuse_delay`` unless both are given).
    """

    def __init__(
        self,
        window: int,
        domain: int,
        reuse_delay: Optional[float] = None,
        timeout_period: Optional[float] = None,
    ) -> None:
        super().__init__()
        if domain < window + 1:
            raise ValueError(
                f"domain must be >= w + 1 = {window + 1}, got {domain}"
            )
        self.window = SenderWindow(window)
        self.domain = domain
        self.reuse_delay = reuse_delay
        self.timeout_period = timeout_period
        self._payloads: Dict[int, Any] = {}
        self._last_tx: Dict[int, float] = {}  # wire number -> last send time
        self._timers: Optional[TimerBank] = None
        self._wake: Optional[Timer] = None

    def _after_attach(self) -> None:
        if self.timeout_period is None:
            raise ValueError("timeout_period must be set before attaching")
        if self.reuse_delay is None:
            self.reuse_delay = self.timeout_period
        self._timers = TimerBank(self.sim, self._on_timeout, name="st-retx")
        self._wake = Timer(self.sim, self._window_opened, name="st-reuse-wake")

    # -- the real-time send constraint -------------------------------------

    def _reuse_ready_at(self, seq: int) -> float:
        """Earliest time the wire slot for ``seq`` may be used again."""
        last = self._last_tx.get(seq % self.domain)
        return 0.0 if last is None else last + self.reuse_delay

    @property
    def can_accept(self) -> bool:
        return (
            self.window.can_send
            and self.sim is not None
            and self.sim.now >= self._reuse_ready_at(self.window.ns)
        )

    def _arm_reuse_wake(self) -> None:
        """Wake the source when the blocking wire slot becomes reusable."""
        if not self.window.can_send:
            return  # window-open callback will fire on the next ack instead
        ready_at = self._reuse_ready_at(self.window.ns)
        if ready_at > self.sim.now and not self._wake.running:
            self._wake.start(ready_at - self.sim.now)

    # -- application interface ----------------------------------------------

    def submit(self, payload: Any) -> int:
        if not self.can_accept:
            raise RuntimeError(
                f"cannot send: window or reuse constraint (ns={self.window.ns})"
            )
        seq = self.window.take_next()
        self._payloads[seq] = payload
        self.stats.submitted += 1
        self._transmit(seq, attempt=0)
        self._arm_reuse_wake()
        return seq

    @property
    def all_acknowledged(self) -> bool:
        return self.window.all_acknowledged

    # -- transmission ----------------------------------------------------------

    def _transmit(self, seq: int, attempt: int) -> None:
        wire = seq % self.domain
        self.stats.data_sent += 1
        if attempt > 0:
            self.stats.retransmissions += 1
            self.trace.record(self.actor_name, EventKind.RESEND_DATA, seq=seq)
        else:
            self.trace.record(self.actor_name, EventKind.SEND_DATA, seq=seq)
        self._last_tx[wire] = self.sim.now
        self.tx.send(
            DataMessage(seq=wire, payload=self._payloads.get(seq), attempt=attempt)
        )
        self._timers.start(seq, self.timeout_period)

    def _on_timeout(self, seq: int) -> None:
        if self.window.is_acked(seq):
            return
        self.stats.timeouts_fired += 1
        self.trace.record(self.actor_name, EventKind.TIMEOUT, seq=seq)
        self._transmit(seq, attempt=1)

    # -- self-stabilization --------------------------------------------------

    def stabilize(self) -> list:
        """Guarded repair (Dolev): restore the window, re-arm dead timers.

        Stenning predates the window-core scaffolding, so it carries its
        own copy of the guard/repair hook; the repair rules themselves
        live on :class:`~repro.core.window.SenderWindow` and are shared
        with every other protocol.
        """
        repairs = self.window.repair(witness=self._payloads.keys())
        outstanding = set() if self.all_acknowledged else set(self.window.outstanding())
        for seq in sorted(outstanding):
            if not self._timers.running(seq):
                self._timers.start(seq, self.timeout_period)
                repairs.append(f"re-armed timer for seq {seq}")
        for seq in sorted(self._timers.active_keys()):
            if seq not in outstanding:
                self._timers.stop(seq)
                repairs.append(f"disarmed stale timer for seq {seq}")
        if repairs:
            self.trace.record(
                self.actor_name, EventKind.NOTE,
                detail="stabilize: " + "; ".join(repairs),
            )
            if self.can_accept:
                self._window_opened()
            self._arm_reuse_wake()
        return repairs

    # -- acknowledgment handling -------------------------------------------------

    def on_message(self, ack: Any) -> None:
        if not isinstance(ack, BlockAck) or not ack.is_singleton:
            raise TypeError(f"Stenning sender expects (v,v) acks, got {ack!r}")
        self.stats.acks_received += 1
        seq = decode_latest(ack.lo, self.domain, bound=self.window.ns)
        if seq is None or seq < self.window.na or self.window.is_acked(seq):
            self.stats.stale_acks += 1
            return
        self.trace.record(self.actor_name, EventKind.RECV_ACK, seq=seq, seq_hi=seq)
        outcome = self.window.apply_ack(seq, seq)
        self._timers.stop(seq)
        self._payloads.pop(seq, None)
        self.stats.acked = self.window.na
        self.stats.last_ack_time = self.sim.now
        if outcome.advanced:
            self.trace.record(
                self.actor_name, EventKind.WINDOW_OPEN, seq=self.window.na
            )
            self._window_opened()
            self._arm_reuse_wake()


class StenningReceiver(ReceiverEndpoint):
    """Bounded-number selective-repeat receiver with reuse-based decoding."""

    def __init__(self, window: int, domain: int) -> None:
        super().__init__()
        if domain < window + 1:
            raise ValueError(
                f"domain must be >= w + 1 = {window + 1}, got {domain}"
            )
        self.window = ReceiverWindow(window)
        self.domain = domain
        self._w = window

    def on_message(self, message: Any) -> None:
        if not isinstance(message, DataMessage):
            raise TypeError(f"Stenning receiver got {message!r}")
        self.stats.data_received += 1
        seq = decode_latest(
            message.seq, self.domain, bound=self.window.nr + self._w
        )
        if seq is None:  # wire number not yet usable: cannot occur in a run
            return
        self.trace.record(self.actor_name, EventKind.RECV_DATA, seq=seq)
        outcome = self.window.accept(seq, message.payload)
        if outcome.duplicate:
            self.stats.duplicates += 1
        elif outcome.redundant:
            self.stats.redundant += 1
        elif seq != self.window.vr:
            self.stats.out_of_order += 1
        self._send_ack(seq)
        self.window.advance()
        self.stats.max_buffered = max(
            self.stats.max_buffered, self.window.buffered_count()
        )
        while self.window.ack_ready:
            lo, hi, payloads = self.window.take_block()
            for offset, payload in enumerate(payloads):
                self.trace.record(self.actor_name, EventKind.DELIVER, seq=lo + offset)
                self._deliver(lo + offset, payload)

    def _send_ack(self, seq: int) -> None:
        self.stats.acks_sent += 1
        wire = seq % self.domain
        self.trace.record(self.actor_name, EventKind.SEND_ACK, seq=seq, seq_hi=seq)
        self.tx.send(BlockAck(lo=wire, hi=wire))

    # -- self-stabilization --------------------------------------------------

    def stabilize(self) -> list:
        """Guarded repair: restore window consistency, flush stalled blocks."""
        repairs = self.window.repair()
        if repairs:
            self.trace.record(
                self.actor_name, EventKind.NOTE,
                detail="stabilize: " + "; ".join(repairs),
            )
            while self.window.ack_ready:
                lo, hi, payloads = self.window.take_block()
                for offset, payload in enumerate(payloads):
                    self.trace.record(
                        self.actor_name, EventKind.DELIVER, seq=lo + offset
                    )
                    self._deliver(lo + offset, payload)
        return repairs
