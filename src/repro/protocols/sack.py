"""A TCP-SACK-style baseline: cumulative ack plus selective-ack blocks.

Block acknowledgment's idea — tell the sender exactly *which ranges*
arrived — is where modern transport landed: TCP's SACK option (RFC 2018)
carries a cumulative acknowledgment plus up to three ``(lo, hi)`` blocks
of out-of-order data.  This module implements a compact NewReno/SACK-lite
sender and receiver so the paper's protocol can be compared against its
descendant:

* the **receiver** acknowledges every arrival with
  ``SackAck(cum, blocks)``: ``cum`` is the highest in-order sequence
  received, ``blocks`` the three most relevant buffered runs;
* the **sender** keeps a scoreboard.  A hole (unacknowledged sequence
  below SACKed data) is fast-retransmitted once enough evidence
  accumulates — three duplicate cumulative acks, or three SACKed
  segments above it (the FACK-style trigger) — without waiting for the
  retransmission timer, which remains as the backstop.

Differences from the paper's protocol worth noticing in experiments:
SACK needs effectively unbounded sequence numbers (TCP's 32-bit space +
PAWS timestamps; this implementation uses true integers), sends one ack
per arrival like selective repeat (E4's overhead), and its acknowledgment
is *advisory* — SACKed data may legally be retransmitted — whereas block
acknowledgment's pairs are definitive, which is what lets the paper bound
the number space at ``2w``.

Endpoint scaffolding (payload store, transmission bookkeeping, window
occupancy, the single RTO timer) comes from
:mod:`repro.protocols.window_core`; the SACK scoreboard stays separate
because SACK blocks are advisory, not definitive — they never advance
the window's acknowledgment cursor.
"""

from __future__ import annotations

from typing import Any, List, Optional, Set, Tuple

from repro.core.messages import DataMessage, SackAck
from repro.core.window import ReceiverWindow, SenderWindow
from repro.protocols.window_core import WindowedReceiver, WindowedSender
from repro.trace.events import EventKind

__all__ = ["SackAck", "SackSender", "SackReceiver", "DUP_ACK_THRESHOLD"]

#: duplicate-ack / SACKed-segments-above threshold for fast retransmit
DUP_ACK_THRESHOLD = 3

#: TCP carries at most 3 SACK blocks alongside a timestamp option
MAX_SACK_BLOCKS = 3


class SackSender(WindowedSender):
    """Scoreboard sender with fast retransmit and a timer backstop."""

    # one RTO backstop with a fixed period; SACK's own fast-retransmit
    # logic covers what adaptive backoff would
    timer_style = "single"
    timer_name = "sack-rto"

    def __init__(self, window: int, timeout_period: Optional[float] = None) -> None:
        super().__init__(timeout_period=timeout_period)
        self.window = SenderWindow(window)
        self._sacked: Set[int] = set()
        self._fast_retransmitted: Set[int] = set()  # once per episode
        self._dup_acks = 0

    # -- transmission ------------------------------------------------------

    def _arm_timers(self, seq: int, attempt: int) -> None:
        if not self._timer.running:
            self._timer.start()

    def _on_single_timeout(self) -> None:
        """RTO backstop: resend the oldest hole, reset the episode."""
        if self.all_acknowledged or self.window.na >= self.window.ns:
            # the second disjunct only differs under state corruption:
            # never retransmit from an inconsistent cursor (stabilize
            # repairs it before the next delivery or watchdog sweep)
            return
        self.stats.timeouts_fired += 1
        self.trace.record(self.actor_name, EventKind.TIMEOUT, seq=self.window.na)
        self._fast_retransmitted.clear()  # new recovery episode
        self._dup_acks = 0
        self._transmit(self.window.na, attempt=1)
        self._timer.start()

    # -- acknowledgment handling ---------------------------------------------

    def on_message(self, ack: Any) -> None:
        if not isinstance(ack, SackAck):
            raise TypeError(f"SACK sender got {ack!r}")
        self.stats.acks_received += 1
        self.trace.record(
            self.actor_name, EventKind.RECV_ACK, seq=ack.cum,
            detail=ack.blocks,
        )
        advanced = False
        if ack.cum + 1 > self.window.na and ack.cum < self.window.ns:
            outcome = self.window.apply_ack(self.window.na, ack.cum)
            for seq in outcome.newly_acked:
                self._payloads.pop(seq, None)
                self._sacked.discard(seq)
                self._fast_retransmitted.discard(seq)
            self._dup_acks = 0
            advanced = True
            self._register_ack(outcome.newly_acked, self.window.na)
            if self.all_acknowledged:
                self._timer.stop()
            else:
                self._timer.start()
        else:
            self._dup_acks += 1
            self.stats.stale_acks += 1

        for lo, hi in ack.blocks:
            for seq in range(max(lo, self.window.na), min(hi + 1, self.window.ns)):
                self._sacked.add(seq)

        self._fast_retransmit_holes()
        if advanced:
            self._window_open_event(self.window.na)

    # -- self-stabilization --------------------------------------------------

    def _stabilize_extra(self) -> list:
        """Repair the SACK scoreboard (advisory state, safe to drop)."""
        repairs = []
        live = range(self.window.na, self.window.ns)
        for name, board in (
            ("sacked", self._sacked),
            ("fast-retransmitted", self._fast_retransmitted),
        ):
            stale = {s for s in board if s not in live}
            if stale:
                repairs.append(f"pruned {name} scoreboard {sorted(stale)}")
                board -= stale
        if self._dup_acks < 0:
            repairs.append(f"dup-ack counter reset (was {self._dup_acks})")
            self._dup_acks = 0
        return repairs

    def _rearm_after_repair(self) -> list:
        if self.link_dead or self._down or self.all_acknowledged:
            return []
        if not self._timer.running:
            self._timer.start()
            return ["re-armed RTO backstop"]
        return []

    def _fast_retransmit_holes(self) -> None:
        """Resend holes with enough reordering evidence above them."""
        if not self._sacked:
            return
        sacked_sorted = sorted(self._sacked)
        for seq in range(self.window.na, sacked_sorted[-1]):
            if seq in self._sacked or seq in self._fast_retransmitted:
                continue
            above = sum(1 for s in sacked_sorted if s > seq)
            if above >= DUP_ACK_THRESHOLD or self._dup_acks >= DUP_ACK_THRESHOLD:
                self._fast_retransmitted.add(seq)
                self.trace.record(
                    self.actor_name, EventKind.TIMEOUT, seq=seq,
                    detail="fast-retransmit",
                )
                self._transmit(seq, attempt=1)


class SackReceiver(WindowedReceiver):
    """Out-of-order buffering receiver emitting cum + SACK blocks."""

    def __init__(self, window: int) -> None:
        super().__init__()
        self.window = ReceiverWindow(window)

    def on_message(self, message: Any) -> None:
        if not isinstance(message, DataMessage):
            raise TypeError(f"SACK receiver got {message!r}")
        seq = message.seq
        self._note_arrival(seq)
        outcome = self.window.accept(seq, message.payload)
        self._classify(outcome, seq, self.window.vr)
        self.window.advance()
        self._note_buffered(self.window.buffered_count())
        self._drain_ready()
        self._send_ack(recent=seq)

    def _send_ack(self, recent: int) -> None:
        cum = self.window.nr - 1
        blocks = self._sack_blocks(recent)
        self.stats.acks_sent += 1
        self.trace.record(
            self.actor_name, EventKind.SEND_ACK, seq=cum, detail=blocks
        )
        self.tx.send(SackAck(cum=cum, blocks=blocks))

    def _sack_blocks(self, recent: int) -> Tuple[Tuple[int, int], ...]:
        """Up to three buffered runs, the one containing ``recent`` first."""
        buffered = self.window.received_unaccepted
        if not buffered:
            return ()
        runs: List[List[int]] = []
        for seq in buffered:
            if runs and seq == runs[-1][1] + 1:
                runs[-1][1] = seq
            else:
                runs.append([seq, seq])
        runs.sort(key=lambda run: (not run[0] <= recent <= run[1], -run[1]))
        return tuple((lo, hi) for lo, hi in runs[:MAX_SACK_BLOCKS])
