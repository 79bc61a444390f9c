"""The block-acknowledgment window protocol on the timed simulator.

This module is the runnable (timed, timer-driven) counterpart of the
paper's abstract protocol.  One sender and one receiver class cover the
whole design space of the paper:

* **numbering** — :class:`~repro.core.numbering.UnboundedNumbering`
  (Section II: true numbers on the wire) or
  :class:`~repro.core.numbering.ModularNumbering` (Section V: numbers mod
  ``2w`` on the wire, reconstructed with the paper's function ``f``);
* **timeout mode** — how the sender resolves the paper's timeout guards
  with real timers (see below);
* **ack policy** — how the receiver resolves the nondeterminism of
  actions 4/5 (see :mod:`repro.protocols.ack_policy`).

Endpoint scaffolding (payload store, transmission bookkeeping, adaptive
retransmission, timer plumbing) comes from
:mod:`repro.protocols.window_core`; this module keeps the protocol's own
decision logic — the numbering codec, the timeout guards, and the block
acknowledgment bookkeeping.

Timeout modes
-------------

The paper's guards read channel and receiver state that a real sender
cannot see, so a timer realization must *imply* the guard.  Let ``T`` be a
period no smaller than (max forward transit) + (max ack latency at the
receiver) + (max reverse transit); see :func:`safe_timeout_period`.

``simple`` — Section II, one timer.
    The timer restarts on **every** data transmission.  When it fires,
    every message (and any acknowledgment it triggered) sent before the
    last transmission has left the channels, which implies the paper's
    guard ``(na != ns) ∧ C_SR = {} ∧ C_RS = {} ∧ ¬rcvd[nr]`` — the last
    conjunct because had the receiver been able to acknowledge anything,
    that acknowledgment would have arrived (or been lost) within ``T``.
    Only ``na`` is retransmitted, so recovering a lost block ack costs one
    full ``T`` per covered message: the slowness Section IV fixes.

``per_message_safe`` — our implementable realization of Section IV.
    One timer per outstanding message, restarted on each transmission of
    that message.  An expired message ``i`` is retransmitted only when the
    sender can *prove* the paper's guard ``timeout(i)``:

    * ``i == na`` — then either the receiver never received ``i``
      (``¬rcvd[i]``) or it accepted ``i`` and the acknowledgment was lost
      (``i < nr``); both disjuncts of the guard's fifth conjunct are
      covered, exactly as for the simple timeout.
    * ``i < hi_acked``, **and** at least the maximum reverse-channel
      lifetime has elapsed since the sender first learned that — an ack
      ending past ``i`` was received at some time ``t2``, so the
      receiver's ``nr`` has passed ``i`` (the guard's ``i < nr``), and
      the block acknowledgment that covered ``i`` was *sent before* the
      one received at ``t2`` (blocks are emitted in ``nr`` order), hence
      has left the channel by ``t2 + reverse_lifetime``: it is provably
      lost, so ``*RS^i = 0``.  Waiting out that one reverse lifetime is
      essential — with reordered acknowledgments the covering block can
      arrive *after* a later block, and retransmitting ``i`` while it is
      still in flight violates assertion 8 (and, over mod-2w wire
      numbers, eventually corrupts decoding).

    Messages that expire while ineligible are parked; when an
    acknowledgment reveals coverage they are released together after the
    single reverse-lifetime wait, so distinct lost messages recover
    without serialized timeout periods between them — the Section IV
    speed-up — while every retransmission provably satisfies the paper's
    guard.

``oracle`` — Section IV verbatim (simulation-only).
    The sender polls the exact guard — including the receiver's ``rcvd``
    array and the channels' in-flight contents — every ``poll_period``.
    This is the paper's abstract protocol made executable; it exists to
    validate the timer realizations against (E5) and is flagged as
    unimplementable outside a simulator.

``aggressive`` — deliberately unsound (E12 ablation).
    Retransmits any expired unacknowledged message.  With unbounded
    numbers this merely wastes bandwidth; with bounded (mod-``2w``)
    numbers it can violate assertion 8 and corrupt or stall the transfer,
    which is precisely why the paper's guard has the ``¬rcvd[i]``
    conjunct.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.core.messages import BlockAck, DataMessage
from repro.core.numbering import Numbering, UnboundedNumbering
from repro.core.window import ReceiverWindow, SenderWindow
from repro.protocols.ack_policy import AckPolicy, EagerAckPolicy
from repro.protocols.window_core import WindowedReceiver, WindowedSender
from repro.robustness.controller import DEGRADE_FACTOR
from repro.trace.events import EventKind

__all__ = [
    "BlockAckSender",
    "BlockAckReceiver",
    "safe_timeout_period",
    "TIMEOUT_MODES",
]

TIMEOUT_MODES = ("simple", "per_message_safe", "oracle", "aggressive")

# the per-message trace kinds, read once here rather than per record
_RECV_ACK = EventKind.RECV_ACK
_SEND_ACK = EventKind.SEND_ACK
_RESEND_ACK = EventKind.RESEND_ACK


def safe_timeout_period(
    forward_lifetime: float,
    reverse_lifetime: float,
    ack_latency: float = 0.0,
    margin: float = 1e-6,
) -> float:
    """Smallest provably safe retransmission period.

    The paper: "the timeout period should be chosen large enough to
    guarantee that a data message is resent only when the last copy of
    this message or its acknowledgment is lost during transmission."
    That bound is (max data transit) + (max time the receiver may sit on
    an acknowledgment) + (max ack transit), plus a strict margin.
    """
    if forward_lifetime < 0 or reverse_lifetime < 0 or ack_latency < 0:
        raise ValueError("lifetimes and latency must be non-negative")
    return forward_lifetime + ack_latency + reverse_lifetime + margin


class BlockAckSender(WindowedSender):
    """Sender side of the block-acknowledgment protocol.

    Parameters
    ----------
    window:
        The paper's ``w`` — maximum outstanding messages.
    numbering:
        Wire numbering scheme; defaults to unbounded (Section II).
    timeout_mode:
        One of :data:`TIMEOUT_MODES`; see module docstring.
    timeout_period:
        The period ``T``.  Required for timer modes; see
        :func:`safe_timeout_period`.  For ``oracle`` mode it is the poll
        period (how often the exact guard is evaluated).
    reverse_lifetime:
        Maximum time an acknowledgment can spend in the reverse channel;
        the ``per_message_safe`` mode's coverage-release wait.  Derived by
        the runner from the channel when left None; falls back to
        ``timeout_period`` (which always bounds it) at attach time.
    lookahead:
        Position-reuse factor ``K`` (Section VI extension): with ``K > 1``
        the sender may have up to ``w`` unacknowledged messages spread
        over a ``K*w``-wide sequence range, reusing acknowledged positions
        ahead of a stalled ``na``.  Requires a matching
        ``ModularNumbering(..., lookahead=K)`` when wire numbers are
        bounded.  ``K = 1`` is the paper's base protocol.
    adaptive:
        When true, timer periods come from a
        :class:`~repro.robustness.controller.RetransmissionController`
        (Jacobson/Karels RTO floored at ``timeout_period``, exponential
        backoff, retry budget) instead of the fixed ``timeout_period``,
        and sustained timeout runs degrade the window and eventually
        declare the link dead (:attr:`link_dead`).  ``False`` (the
        default) keeps the paper's fixed-timer behavior bit-for-bit.
        Not supported in ``oracle`` mode, which has no timers to adapt.
    """

    timer_name = "retx"
    attach_error = "timeout_period must be set before attaching the sender"

    def __init__(
        self,
        window: int,
        numbering: Optional[Numbering] = None,
        timeout_mode: str = "simple",
        timeout_period: Optional[float] = None,
        reverse_lifetime: Optional[float] = None,
        lookahead: int = 1,
        adaptive: bool = False,
    ) -> None:
        if timeout_mode not in TIMEOUT_MODES:
            raise ValueError(
                f"timeout_mode must be one of {TIMEOUT_MODES}, got {timeout_mode!r}"
            )
        if adaptive and timeout_mode == "oracle":
            raise ValueError("adaptive retransmission needs timers; oracle has none")
        super().__init__(timeout_period=timeout_period, adaptive=adaptive)
        self.window = SenderWindow(window, lookahead=lookahead)
        self.numbering = numbering if numbering is not None else UnboundedNumbering()
        self.timeout_mode = timeout_mode
        # map the paper's timeout modes onto the core's timer styles
        if timeout_mode in ("simple", "oracle"):
            self.timer_style = "single"
        if timeout_mode == "oracle":
            self.timer_name = "oracle-poll"  # the poll is the single timer
        self.reverse_lifetime = reverse_lifetime
        self.hi_acked = -1  # highest sequence number seen in any valid ack
        self._parked: Set[int] = set()  # expired but not yet eligible
        self._covered_at: Dict[int, float] = {}  # seq -> time hi_acked passed it
        # coverage cursor: every outstanding seq below it has a stamp
        self._covered_below = 0
        # oracle hooks, wired by enable_oracle()
        self._oracle_receiver: Optional["BlockAckReceiver"] = None
        self._oracle_forward = None
        self._oracle_reverse = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def _after_attach(self) -> None:
        if self.reverse_lifetime is None and self.timeout_period is not None:
            # T >= forward + ack latency + reverse, so T always bounds the
            # reverse lifetime; a tighter value comes from the runner.
            self.reverse_lifetime = self.timeout_period
        super()._after_attach()

    def enable_oracle(self, forward, reverse, receiver: "BlockAckReceiver") -> None:
        """Wire the oracle guard's inputs (``oracle`` mode only)."""
        if self.timeout_mode != "oracle":
            raise RuntimeError("enable_oracle requires timeout_mode='oracle'")
        self._oracle_forward = forward
        self._oracle_reverse = reverse
        self._oracle_receiver = receiver

    # ------------------------------------------------------------------
    # application interface
    # ------------------------------------------------------------------

    def resize_window(self, new_window: int) -> None:
        """Change the flow-control window at runtime (Section VI remark).

        Bounded numbering stays sound because the wire domain was sized
        from the construction-time (maximum) window; shrinking only
        tightens the live range, and regrowing is capped at that maximum.
        Wakes the source if the resize reopened the window.
        """
        was_open = self.window.can_send
        self.window.resize(new_window)
        if not was_open and self.window.can_send:
            self._window_opened()

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------

    def _wire_message(self, seq: int, attempt: int) -> DataMessage:
        return DataMessage(
            self.numbering.encode(seq), self._payloads.get(seq), attempt
        )

    def _arm_timers(self, seq: int, attempt: int) -> None:
        timers = self._timers
        if timers is not None:  # per_message_safe and aggressive
            timers.start(seq)
        elif self.timeout_mode == "oracle":
            if not self._timer.running:
                self._timer.start()
        else:
            super()._arm_timers(seq, attempt)

    # ------------------------------------------------------------------
    # acknowledgment handling (paper action 1)
    # ------------------------------------------------------------------

    def on_message(self, ack: Any) -> None:
        if not isinstance(ack, BlockAck):
            raise TypeError(f"block-ack sender got {ack!r}")
        window = self.window
        stats = self.stats
        stats.acks_received += 1
        decode = self.numbering.decode_at_sender
        lo = decode(ack.lo, window.na)
        hi = decode(ack.hi, window.na)
        if lo > hi or hi >= window.ns:
            # Provably stale or garbled: with bounded numbering, a very old
            # duplicate ack decodes beyond the send horizon.  Discard.
            stats.stale_acks += 1
            self.trace.record(
                self.actor_name, EventKind.NOTE, detail=f"discarded ack {ack}"
            )
            return
        self.trace.record(self.actor_name, _RECV_ACK, lo, hi)
        outcome = window.apply_ack(lo, hi)
        if outcome.stale:
            stats.stale_acks += 1
        if hi > self.hi_acked:
            self.hi_acked = hi
        newly_acked = outcome.newly_acked
        self._register_ack(newly_acked, window.na)
        payloads = self._payloads
        parked = self._parked
        covered = self._covered_at
        for seq in newly_acked:
            payloads.pop(seq, None)
            parked.discard(seq)
            covered.pop(seq, None)
        timers = self._timers
        if timers is not None and newly_acked:
            timers.stop_many(newly_acked)
        mode = self.timeout_mode
        if mode == "per_message_safe":
            self._release_parked(self._note_coverage())
        elif mode != "aggressive" and window.all_acknowledged:
            self._timer.stop()  # simple and oracle: the single timer
        if outcome.advanced:
            self._window_open_event(window.na)

    # ------------------------------------------------------------------
    # timeout machinery
    # ------------------------------------------------------------------

    def _degrade(self) -> None:
        """Graceful degradation: shrink the effective window one step."""
        new_window = max(1, int(self.window.w * DEGRADE_FACTOR))
        if new_window < self.window.w:
            self.trace.record(
                self.actor_name,
                EventKind.NOTE,
                detail=f"degrade window {self.window.w} -> {new_window}",
            )
            self.window.resize(new_window)

    def _after_link_dead(self) -> None:
        self._parked.clear()

    # ------------------------------------------------------------------
    # self-stabilization
    # ------------------------------------------------------------------

    def _stabilize_extra(self) -> list:
        """Repair block-ack bookkeeping the core does not know about."""
        # the repairs may have moved na or the ackd record under the
        # coverage cursor: the next ack rescans the whole window
        self._covered_below = 0
        repairs = []
        if self.hi_acked >= self.window.ns:
            repairs.append(
                f"hi_acked {self.hi_acked} -> {self.window.ns - 1} "
                "(beyond send horizon)"
            )
            self.hi_acked = self.window.ns - 1
        outstanding = set(self.window.outstanding())
        stale_parked = self._parked - outstanding
        if stale_parked:
            repairs.append(f"unparked {sorted(stale_parked)} (not outstanding)")
            self._parked -= stale_parked
        stale_covered = [s for s in self._covered_at if s not in outstanding]
        if stale_covered:
            repairs.append(
                f"dropped coverage stamps for {sorted(stale_covered)} "
                "(not outstanding)"
            )
            for seq in stale_covered:
                del self._covered_at[seq]
        return repairs

    def _timer_seqs(self):
        # parked messages deliberately hold no timer (they await coverage
        # or becoming na); messages with a coverage stamp own a drain-wait
        # timer that the running() check below them already respects
        return (
            s for s in self.window.outstanding() if s not in self._parked
        )

    def _on_single_timeout(self) -> None:
        """Section II action 2: retransmit ``na`` only (or poll the oracle)."""
        if self.timeout_mode == "oracle":
            self._on_oracle_poll()
            return
        if self.window.all_acknowledged or self.window.na >= self.window.ns:
            # the second disjunct only differs under state corruption:
            # never retransmit from an inconsistent cursor (stabilize
            # repairs it before the next delivery or watchdog sweep)
            return
        self.stats.timeouts_fired += 1
        self.trace.record(
            self.actor_name, EventKind.TIMEOUT, seq=self.window.na, detail="simple"
        )
        if not self._consult_budget(None):
            return
        self._transmit(self.window.na, attempt=1)

    def _on_seq_timeout(self, seq: int) -> None:
        # late-bound delegation: _on_message_timeout predates the
        # window-core refactor and is interposed on by extensions (see
        # examples/adaptive_window.py), so it stays the real handler
        self._on_message_timeout(seq)

    def _on_message_timeout(self, seq: int) -> None:
        """Per-message timer expiry (``per_message_safe`` / ``aggressive``)."""
        if self.window.is_acked(seq):
            return
        if self.timeout_mode == "aggressive" or self._eligible(seq):
            self.stats.timeouts_fired += 1
            self.trace.record(
                self.actor_name, EventKind.TIMEOUT, seq=seq,
                detail=self.timeout_mode,
            )
            if not self._consult_budget(seq):
                return
            self._transmit(seq, attempt=1)
            return
        covered = self._covered_at.get(seq)
        if covered is not None:
            # eligible once the covering block ack has provably drained
            remaining = covered + self.reverse_lifetime - self.sim.now
            self._timers.start(seq, max(remaining, 0.0) + 1e-9)
        else:
            # Possibly buffered out-of-order at the receiver: retransmitting
            # now could put a second logical copy in play (assertion 8).
            # Park it; coverage by a later ack (or becoming na) releases it.
            self._parked.add(seq)

    def _eligible(self, seq: int) -> bool:
        """Provable instances of the paper's ``timeout(i)`` guard.

        ``seq == na``: either the receiver never got it, or every ack that
        could cover it has drained within the timer period (the simple-
        timeout argument).  ``seq < hi_acked``: the receiver's nr passed
        it, and the block ack that covered it — sent before the ack whose
        arrival set ``_covered_at[seq]`` — has drained once a full reverse
        lifetime has elapsed since then.
        """
        if seq == self.window.na:
            return True
        covered = self._covered_at.get(seq)
        return (
            covered is not None
            and self.sim.now >= covered + self.reverse_lifetime
        )

    def _note_coverage(self) -> List[int]:
        """Record when ``hi_acked`` first passed each outstanding message.

        Every outstanding seq below the coverage cursor ``_covered_below``
        already carries a stamp, so only ``[max(cursor, na), hi_acked)``
        is visited and the cursor then moves to ``hi_acked``: each seq is
        visited once per transfer, not once per ack.  ``crash`` and
        ``_stabilize_extra`` reset the cursor, so the first call after
        them rescans the whole window.  Returns the seqs stamped now, in
        ascending order.
        """
        window = self.window
        lo = max(self._covered_below, window.na)
        hi = min(self.hi_acked, window.ns)
        if hi <= lo:
            return []
        self._covered_below = hi
        covered = self._covered_at
        is_acked = window.is_acked
        stamped = [
            seq for seq in range(lo, hi)
            if seq not in covered and not is_acked(seq)
        ]
        now = self.sim.now
        for seq in stamped:
            covered[seq] = now
        return stamped

    def _release_parked(self, stamped: List[int]) -> None:
        """Retransmit or schedule every parked message that can now move.

        A message parks because it had no coverage stamp when its timer
        fired, and holds no running timer while parked, so on an ack only
        ``na`` and the seqs ``stamped`` by this ack can move; they are
        visited in ascending order.  The ack loop has already unparked
        every newly acknowledged seq.  ``na`` is retransmitted
        immediately (always safe).  Newly covered messages get a timer
        for the reverse-lifetime drain wait; the expiry path re-checks
        eligibility and retransmits.
        """
        parked = self._parked
        if not parked:
            return
        na = self.window.na
        if not stamped or stamped[0] != na:
            stamped = [na, *stamped]
        for seq in stamped:
            if seq not in parked:
                continue
            if self._eligible(seq):
                parked.discard(seq)
                self.stats.timeouts_fired += 1
                self.trace.record(
                    self.actor_name, EventKind.TIMEOUT, seq=seq, detail="released"
                )
                self._transmit(seq, attempt=1)
            elif seq in self._covered_at and not self._timers.running(seq):
                remaining = (
                    self._covered_at[seq] + self.reverse_lifetime - self.sim.now
                )
                parked.discard(seq)  # the timer owns it now
                self._timers.start(seq, max(remaining, 0.0) + 1e-9)

    # ------------------------------------------------------------------
    # crash/restart (fault injection)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Lose volatile state: timers, RTT estimates, retransmission
        bookkeeping.  The window counters, the unacknowledged payload
        store, and ``hi_acked`` survive as the durable snapshot."""
        self._down = True
        self.trace.record(self.actor_name, EventKind.NOTE, detail="crash")
        if self._timer is not None:
            self._timer.stop()
        if self._timers is not None:
            self._timers.stop_all()
        self._parked.clear()
        self._covered_at.clear()
        self._covered_below = 0
        if self._retx is not None:
            self._retx.reset_volatile()

    def restore(self) -> None:
        """Resume from the durable snapshot.

        Re-arms a retransmission timer for everything outstanding.  The
        last transmission of any outstanding message predates the crash,
        so a full timer period elapses before the first retransmission —
        the re-arm satisfies the same guard as a normal restart.
        """
        self._down = False
        self.trace.record(self.actor_name, EventKind.NOTE, detail="restart")
        if self.link_dead or self.window.all_acknowledged:
            return
        if self.timeout_mode == "per_message_safe":
            # Conservative re-stamp: waits a fresh reverse lifetime from
            # now, by which time any pre-crash covering ack has drained.
            self._note_coverage()
        if self._timer is not None:
            self._timer.restart()
        else:
            for seq in self.window.outstanding():
                self._timers.start(seq)
        if self.can_accept:
            self._window_opened()

    # ------------------------------------------------------------------
    # oracle mode: the paper's guard, evaluated verbatim
    # ------------------------------------------------------------------

    def _on_oracle_poll(self) -> None:
        if self._oracle_receiver is None:
            raise RuntimeError("oracle mode requires enable_oracle(...) wiring")
        receiver = self._oracle_receiver
        # One read of each channel serves the whole loop: a resend below
        # adds only its own wire number, which no other outstanding seq
        # carries, and ``na`` cannot move before the next ack arrives.
        # With modular numbering the in-flight window is narrower than
        # the domain (assertion 8 + assertion 6), so decoding each ack
        # against ``na`` is exact.
        data_wires = {
            message.seq
            for message in self._oracle_forward.in_flight()
            if isinstance(message, DataMessage)
        }
        na = self.window.na
        decode = self.numbering.decode_at_sender
        ack_spans = [
            (decode(message.lo, na), decode(message.hi, na))
            for message in self._oracle_reverse.in_flight()
            if isinstance(message, BlockAck)
        ]
        for seq in self.window.outstanding():
            if self.numbering.encode(seq) in data_wires:
                continue  # *SR^i != 0
            if any(lo <= seq <= hi for lo, hi in ack_spans):
                continue  # *RS^i != 0
            if not (seq < receiver.oracle_nr or not receiver.oracle_has_received(seq)):
                continue  # rcvd[i] ∧ i >= nr: receiver will ack it unaided
            self.stats.timeouts_fired += 1
            self.trace.record(
                self.actor_name, EventKind.TIMEOUT, seq=seq, detail="oracle"
            )
            self._transmit(seq, attempt=1)
        if not self.window.all_acknowledged:
            self._timer.start()


class BlockAckReceiver(WindowedReceiver):
    """Receiver side of the block-acknowledgment protocol.

    Implements paper actions 3 (accept / duplicate-ack), 4 (slide ``vr``),
    and 5 (emit the block acknowledgment), with the 4/5 nondeterminism
    resolved by an :class:`~repro.protocols.ack_policy.AckPolicy`.
    """

    def __init__(
        self,
        window: int,
        numbering: Optional[Numbering] = None,
        ack_policy: Optional[AckPolicy] = None,
    ) -> None:
        super().__init__()
        self.window = ReceiverWindow(window)
        self.numbering = numbering if numbering is not None else UnboundedNumbering()
        self.ack_policy = ack_policy if ack_policy is not None else EagerAckPolicy()
        self._w = window

    def _after_attach(self) -> None:
        self.ack_policy.attach(self.sim, self._flush_acks)

    # ------------------------------------------------------------------
    # data path (paper action 3)
    # ------------------------------------------------------------------

    def on_message(self, message: Any) -> None:
        if not isinstance(message, DataMessage):
            raise TypeError(f"block-ack receiver got {message!r}")
        window = self.window
        seq = self.numbering.decode_at_receiver(message.seq, window.nr, self._w)
        self._note_arrival(seq)
        outcome = window.accept(seq, message.payload)
        if outcome.duplicate:
            # v < nr: already accepted — re-acknowledge with (v, v)
            self.stats.duplicates += 1
            self._send_ack(seq, seq, duplicate=True)
            return
        if outcome.redundant:
            self.stats.redundant += 1
            return
        if seq != window.vr:
            self.stats.out_of_order += 1
        window.advance()  # paper action 4 (iterated)
        self._note_buffered(window.buffered_count())
        pending = window.vr - window.nr
        if pending > 0:
            self.ack_policy.on_update(pending)

    # ------------------------------------------------------------------
    # acknowledgment emission (paper action 5)
    # ------------------------------------------------------------------

    def _flush_acks(self) -> None:
        window = self.window
        window.advance()
        if window.nr < window.vr:  # paper action 5 guard
            lo, hi, payloads = window.take_block()
            self._send_ack(lo, hi, duplicate=False)
            self._deliver_block(lo, payloads)

    def _send_ack(self, lo: int, hi: int, duplicate: bool) -> None:
        encode = self.numbering.encode
        ack = BlockAck(encode(lo), encode(hi), duplicate)
        self.stats.acks_sent += 1
        kind = _RESEND_ACK if duplicate else _SEND_ACK
        self.trace.record(self.actor_name, kind, lo, hi)
        self.tx.send(ack)

    # ------------------------------------------------------------------
    # crash/restart (fault injection)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Lose the reorder buffer and any pending delayed-ack flush.

        ``nr`` is durable — everything below it was acknowledged — so the
        sender's view stays consistent; the forgotten ``[nr, vr)`` run
        and buffered out-of-order messages were never acknowledged and
        will be retransmitted.
        """
        self.trace.record(self.actor_name, EventKind.NOTE, detail="crash")
        self.window.drop_volatile()
        self.ack_policy.cancel_pending()

    def restore(self) -> None:
        """Resume; nothing to re-arm — the sender drives recovery."""
        self.trace.record(self.actor_name, EventKind.NOTE, detail="restart")

    # ------------------------------------------------------------------
    # self-stabilization
    # ------------------------------------------------------------------

    def _rearm_after_repair(self) -> list:
        """After a state repair, make sure any pending block still flushes."""
        self.window.advance()
        pending = self.window.vr - self.window.nr
        if pending > 0:
            self.ack_policy.on_update(pending)
            return [f"kicked ack policy ({pending} pending)"]
        return []

    # ------------------------------------------------------------------
    # oracle accessors (read by BlockAckSender in oracle mode)
    # ------------------------------------------------------------------

    @property
    def oracle_nr(self) -> int:
        return self.window.nr

    def oracle_has_received(self, seq: int) -> bool:
        return self.window.has_received(seq)
