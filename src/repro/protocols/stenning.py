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

The endpoints are the selective-repeat ones of
:mod:`repro.protocols.selective_repeat` (per-message timers and singleton
acks on the :mod:`repro.protocols.window_core` scaffolding) plus what
this module keeps: the mod-``D`` wire codec and the reuse delay.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.messages import BlockAck, DataMessage
from repro.protocols.selective_repeat import (
    SelectiveRepeatReceiver,
    SelectiveRepeatSender,
)
from repro.sim.timers import Timer
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


def _check_domain(window: int, domain: int) -> None:
    if domain < window + 1:
        raise ValueError(f"domain must be >= w + 1 = {window + 1}, got {domain}")


class StenningSender(SelectiveRepeatSender):
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

    timer_name = "st-retx"

    def __init__(
        self,
        window: int,
        domain: int,
        reuse_delay: Optional[float] = None,
        timeout_period: Optional[float] = None,
    ) -> None:
        _check_domain(window, domain)
        super().__init__(window, timeout_period=timeout_period)
        self.domain = domain
        self.reuse_delay = reuse_delay
        self._last_tx: Dict[int, float] = {}  # wire number -> last send time
        self._wake: Optional[Timer] = None

    def _after_attach(self) -> None:
        super()._after_attach()
        if self.reuse_delay is None:
            self.reuse_delay = self.timeout_period
        self._wake = Timer(self.sim, self._window_opened, name="st-reuse-wake")

    # -- the real-time send constraint -------------------------------------

    def _reuse_ready_at(self, seq: int) -> float:
        """Earliest time the wire slot for ``seq`` may be used again."""
        last = self._last_tx.get(seq % self.domain)
        return 0.0 if last is None else last + self.reuse_delay

    def _send_window_open(self) -> bool:
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

    # -- transmission ----------------------------------------------------------

    def submit(self, payload: Any) -> int:
        if not self.can_accept:
            raise RuntimeError(
                f"cannot send: window or reuse constraint (ns={self.window.ns})"
            )
        seq = super().submit(payload)
        self._arm_reuse_wake()
        return seq

    def _wire_message(self, seq: int, attempt: int) -> DataMessage:
        wire = seq % self.domain
        self._last_tx[wire] = self.sim.now
        return DataMessage(seq=wire, payload=self._payloads.get(seq), attempt=attempt)

    # -- acknowledgment handling -------------------------------------------------

    def on_message(self, ack: Any) -> None:
        if not isinstance(ack, BlockAck) or not ack.is_singleton:
            raise TypeError(f"Stenning sender expects (v,v) acks, got {ack!r}")
        self.stats.acks_received += 1
        seq = decode_latest(ack.lo, self.domain, bound=self.window.ns)
        if seq is None or self.window.is_acked(seq):
            self.stats.stale_acks += 1
            return
        self.trace.record(self.actor_name, EventKind.RECV_ACK, seq=seq, seq_hi=seq)
        outcome = self.window.apply_ack(seq, seq)
        self._register_ack(outcome.newly_acked, self.window.na)
        self._timers.stop(seq)
        self._payloads.pop(seq, None)
        if outcome.advanced:
            self._window_open_event(self.window.na)
            self._arm_reuse_wake()

    # -- self-stabilization --------------------------------------------------

    def stabilize(self) -> list:
        """The core's guard/repair rules, then the reuse wake they may need."""
        repairs = super().stabilize()
        if repairs:
            self._arm_reuse_wake()
        return repairs


class StenningReceiver(SelectiveRepeatReceiver):
    """Bounded-number selective-repeat receiver with reuse-based decoding."""

    def __init__(self, window: int, domain: int) -> None:
        _check_domain(window, domain)
        super().__init__(window)
        self.domain = domain
        self._w = window

    def on_message(self, message: Any) -> None:
        if not isinstance(message, DataMessage):
            raise TypeError(f"Stenning receiver got {message!r}")
        seq = decode_latest(
            message.seq, self.domain, bound=self.window.nr + self._w
        )
        if seq is None:  # wire number not yet usable: cannot occur in a run
            self.stats.data_received += 1
            return
        self._note_arrival(seq)
        outcome = self.window.accept(seq, message.payload)
        self._classify(outcome, seq, self.window.vr)
        self._send_ack(seq)
        self.window.advance()
        self._note_buffered(self.window.buffered_count())
        self._drain_ready()

    def _send_ack(self, seq: int) -> None:
        self.stats.acks_sent += 1
        wire = seq % self.domain
        self.trace.record(self.actor_name, EventKind.SEND_ACK, seq=seq, seq_hi=seq)
        self.tx.send(BlockAck(lo=wire, hi=wire))

    # -- self-stabilization --------------------------------------------------

    def stabilize(self) -> list:
        """The core's guard/repair rules, then deliver any block they freed."""
        repairs = super().stabilize()
        if repairs:
            self._drain_ready()
        return repairs
