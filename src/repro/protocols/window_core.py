"""Shared window-protocol endpoint core.

Every windowed protocol in this package — block acknowledgment, its
bounded Section-V twin, go-back-N, selective repeat, Stenning's
timer-constrained baseline, and the TCP-SACK baseline — used to
re-implement the same endpoint scaffolding: a payload store keyed by
sequence number, transmission bookkeeping (stats counters plus
``SEND_DATA``/``RESEND_DATA`` trace records), retransmission-timer
plumbing, the adaptive-retransmission controller hookup, and the
acknowledgment-cursor bookkeeping that advances ``na`` and reopens the
window.  That duplication made each new endpoint expensive to write and
impossible to keep uniform, which is exactly what the multi-flow session
host needs: N cheap, interchangeable, flow-aware endpoints per simulated
network.

This module factors the scaffolding into two bases:

* :class:`WindowedSender` — owns the timeout period, the optional
  :class:`~repro.robustness.controller.RetransmissionController`, the
  payload store, and the retransmission timers (``timer_style`` picks
  one Section-II style timer or a per-sequence bank).  Subclasses
  supply the *ack policy side* of the sender: how a wire message is
  built (:meth:`_wire_message`), how timers re-arm after a transmission
  (:meth:`_arm_timers`), and what an acknowledgment means
  (:meth:`on_message`); the core provides the invariant-preserving
  helpers they compose (:meth:`_transmit`, :meth:`_register_ack`,
  :meth:`_consult_budget`, :meth:`_declare_link_dead`).
* :class:`WindowedReceiver` — owns a
  :class:`~repro.core.window.ReceiverWindow` (``nr``/``vr`` tracking)
  and the arrival/delivery bookkeeping every receiver repeats:
  :meth:`_note_arrival` (stats + ``RECV_DATA``), :meth:`_classify`
  (duplicate / redundant / out-of-order counters plus the reorder-buffer
  high-water mark), and :meth:`_deliver_block` (in-order release with
  ``DELIVER`` records).

The per-protocol modules shrink to their actual decision logic, and the
refactor is pinned byte-identical to the pre-refactor implementations by
the golden decision-trace tests (``tests/test_golden_traces.py``).

Window *state* itself stays in :mod:`repro.core.window` (unbounded
counters) and :mod:`repro.core.bounded` (mod-``2w`` rings); this module
is the endpoint machinery around that state.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.core.messages import DataMessage
from repro.protocols.base import ReceiverEndpoint, SenderEndpoint
from repro.robustness.budget import RetryVerdict
from repro.robustness.controller import RetransmissionController
from repro.sim.timers import AdaptiveTimer, AdaptiveTimerBank
from repro.trace.events import EventKind

__all__ = ["WindowedSender", "WindowedReceiver", "TIMER_STYLES"]

# the per-message trace kinds, read once here rather than per record
_SEND_DATA = EventKind.SEND_DATA
_RESEND_DATA = EventKind.RESEND_DATA
_RECV_DATA = EventKind.RECV_DATA
_DELIVER = EventKind.DELIVER
_WINDOW_OPEN = EventKind.WINDOW_OPEN

#: how a windowed sender retransmits: one Section-II style timer covering
#: the oldest outstanding message, or a per-sequence timer bank.
TIMER_STYLES = ("single", "per_seq")


def _check_timeout_period(period: Any) -> None:
    if not 0.0 < period < float("inf"):
        raise ValueError(
            f"timeout_period must be finite and positive, got {period!r}"
        )


class WindowedSender(SenderEndpoint):
    """Common machinery for every windowed protocol sender.

    Parameters
    ----------
    timeout_period:
        The retransmission period ``T``; required before attach for
        timer-driven styles (the runner derives a provably safe value
        from the channel bounds when left ``None``).  It must be finite
        and positive, here and at attach.
    adaptive:
        When true, timer periods come from a
        :class:`~repro.robustness.controller.RetransmissionController`
        whose RTO starts at ``timeout_period`` and never falls below
        it, and sustained timeout runs degrade the window
        (:meth:`_degrade`) and eventually declare the link dead.
        ``False`` keeps fixed-timer behaviour bit-for-bit.

    Class attributes subclasses may override
    ----------------------------------------
    ``timer_style``
        One of :data:`TIMER_STYLES` (default ``"per_seq"``).
    ``timer_name``
        Label for the core-built timer(s) (default ``"retx"``).
    ``attach_error``
        Message raised when attaching without a timeout period.
    """

    timer_style = "per_seq"
    timer_name = "retx"
    attach_error = "timeout_period must be set before attaching"

    def __init__(
        self,
        timeout_period: Optional[float] = None,
        adaptive: bool = False,
    ) -> None:
        super().__init__()
        if timeout_period is not None:
            _check_timeout_period(timeout_period)
        self.timeout_period = timeout_period
        self.adaptive = adaptive
        self.link_dead = False
        self.flow_id: Optional[int] = None  # set by the multi-flow host
        self._retx: Optional[RetransmissionController] = None
        self._down = False  # crashed and not yet restored
        self._payloads: Dict[int, Any] = {}
        self._timer: Optional[AdaptiveTimer] = None  # "single" style
        self._timers: Optional[AdaptiveTimerBank] = None  # "per_seq" style

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def _after_attach(self) -> None:
        if self.timeout_period is None:
            raise ValueError(self.attach_error)
        # the period may have been set or derived since construction
        _check_timeout_period(self.timeout_period)
        if self.adaptive:
            self._retx = RetransmissionController(self.timeout_period)
        self._build_timers()

    def _build_timers(self) -> None:
        """Construct the core-managed timer(s) for this ``timer_style``."""
        if self.timer_style == "single":
            self._timer = AdaptiveTimer(
                self.sim,
                self._on_single_timeout,
                period_fn=self._single_period,
                name=self.timer_name,
            )
        elif self.timer_style == "per_seq":
            # an AdaptiveTimerBank either way; without a controller it
            # arms at the fixed timeout_period and calls no period function
            retx = self._retx
            self._timers = AdaptiveTimerBank(
                self.sim,
                self._on_seq_timeout,
                period_fn=None if retx is None else retx.period,
                period=self.timeout_period if retx is None else None,
                name=self.timer_name,
            )
        else:
            raise ValueError(
                f"timer_style must be one of {TIMER_STYLES}, "
                f"got {self.timer_style!r}"
            )

    def _single_period(self) -> float:
        """Arming period for the single Section-II style timer."""
        if self._retx is not None:
            return self._retx.period(None)
        return self.timeout_period

    # ------------------------------------------------------------------
    # application interface
    # ------------------------------------------------------------------

    @property
    def can_accept(self) -> bool:
        return not self.link_dead and not self._down and self._send_window_open()

    def _send_window_open(self) -> bool:
        """Window-occupancy part of the submit guard."""
        return self.window.can_send

    @property
    def all_acknowledged(self) -> bool:
        return self.window.all_acknowledged

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------

    def submit(self, payload: Any) -> int:
        seq = self._take_next()  # paper action 0
        self._store_payload(seq, payload)
        self.stats.submitted += 1
        self._transmit(seq, attempt=0)
        return seq

    def _take_next(self) -> int:
        """Allocate the next sequence number."""
        return self.window.take_next()

    def _store_payload(self, seq: int, payload: Any) -> None:
        """Retain the payload until ``seq`` is acknowledged."""
        self._payloads[seq] = payload

    def _payload_for(self, seq: int) -> Any:
        """Stored payload for one (re)transmission."""
        return self._payloads.get(seq)

    def _wire_message(self, seq: int, attempt: int) -> Any:
        """Build the wire message for one (re)transmission of ``seq``."""
        return DataMessage(seq=seq, payload=self._payload_for(seq), attempt=attempt)

    def _transmit(self, seq: int, attempt: int) -> None:
        """One (re)transmission: stats, trace, send, controller, timers."""
        message = self._wire_message(seq, attempt)
        stats = self.stats
        stats.data_sent += 1
        if attempt > 0:
            stats.retransmissions += 1
            self.trace.record(self.actor_name, _RESEND_DATA, seq)
        else:
            self.trace.record(self.actor_name, _SEND_DATA, seq)
        self.tx.send(message)
        retx = self._retx
        if retx is not None:
            retx.on_send(seq, self.sim.now, retransmit=attempt > 0)
        self._arm_timers(seq, attempt)

    def _arm_timers(self, seq: int, attempt: int) -> None:
        """Re-arm retransmission timers after a transmission."""
        timers = self._timers
        if timers is not None:
            timers.start(seq)
        elif self._timer is not None:
            # the single timer measures time since the *last* transmission
            self._timer.restart()

    # ------------------------------------------------------------------
    # acknowledgment bookkeeping
    # ------------------------------------------------------------------

    def _register_ack(
        self, newly_acked: Iterable[int], acked_value: int
    ) -> None:
        """Fold one informative acknowledgment into the shared state.

        Feeds the adaptive controller its RTT evidence and refreshes the
        ``acked``/``last_ack_time`` stats.  Callers remain responsible
        for payload/timer cleanup (it differs per protocol).
        """
        now = self.sim.now
        retx = self._retx
        if retx is not None:
            retx.on_ack(newly_acked, now)
        stats = self.stats
        stats.acked = acked_value
        stats.last_ack_time = now

    def _window_open_event(self, na: int) -> None:
        """Record the window reopening and wake the source."""
        self.trace.record(self.actor_name, _WINDOW_OPEN, na)
        self._window_opened()

    # ------------------------------------------------------------------
    # timeout escalation (adaptive retransmission)
    # ------------------------------------------------------------------

    def _consult_budget(self, key: Any) -> bool:
        """Adaptive only: escalate one fired timeout through the budget.

        Returns False when the link was just declared dead, in which
        case the caller must not retransmit.
        """
        if self._retx is None:
            return True
        verdict = self._retx.on_timeout(key, now=self.sim.now)
        if verdict is RetryVerdict.LINK_DEAD:
            self._declare_link_dead(key)
            return False
        if verdict is RetryVerdict.DEGRADE:
            self._degrade()
        return True

    def _degrade(self) -> None:
        """Graceful degradation hook; default shrinks nothing."""

    def _declare_link_dead(self, key: Any = None) -> None:
        """Retry budget exhausted: stop retransmitting, surface the verdict."""
        self.link_dead = True
        detail = "link dead"
        if key is not None:
            detail = f"link dead (seq {key} at t={self.sim.now:g})"
        self.trace.record(self.actor_name, EventKind.NOTE, detail=detail)
        if self._timer is not None:
            self._timer.stop()
        if self._timers is not None:
            self._timers.stop_all()
        self._after_link_dead()

    def _after_link_dead(self) -> None:
        """Hook for subclass cleanup once the link is declared dead."""

    # ------------------------------------------------------------------
    # self-stabilization (guard/repair hooks, Dolev et al.)
    # ------------------------------------------------------------------

    def stabilize(self) -> list:
        """Run every local guard/repair rule; return what was repaired.

        Composes the window/book state repair (:meth:`_repair_state`),
        the adaptive controller's guards, protocol-specific bookkeeping
        repairs (:meth:`_stabilize_extra`), and timer re-arming for
        outstanding messages whose timers corruption left dead
        (:meth:`_rearm_after_repair`).  On consistent state every rule
        is a pure read and the method returns ``[]`` without touching
        the trace — clean runs are byte-identical whether or not anyone
        calls this.
        """
        repairs = self._repair_state()
        if self._retx is not None:
            repairs += self._retx.repair()
        repairs += self._stabilize_extra()
        repairs += self._rearm_after_repair()
        if repairs:
            self.trace.record(
                self.actor_name,
                EventKind.NOTE,
                detail="stabilize: " + "; ".join(repairs),
            )
            if self.can_accept:
                # repairs may have reopened the window without an ack
                self._window_opened()
        return repairs

    def _repair_state(self) -> list:
        """Repair the window state, witnessed by the held payloads.

        A held payload proves its number was sent and is not yet
        acknowledged (acknowledgment releases the payload), which is
        exactly the evidence :meth:`SenderWindow.repair` needs.
        """
        return self.window.repair(witness=self._payloads.keys())

    def _stabilize_extra(self) -> list:
        """Protocol-specific bookkeeping repairs; default has none."""
        return []

    def _rearm_after_repair(self) -> list:
        """Re-arm retransmission timers corruption may have silenced.

        Corrupted cursor state can leave outstanding messages with no
        running timer (e.g. everything looked acknowledged, so timers
        were stopped); without this rule the repaired sender would wait
        forever.  Arms with the *configured* period — never a possibly
        still-suspect adaptive one, since the controller repair above
        already ran its guards.  The dual rule disarms timers for
        numbers a repair promoted to acknowledged: those expiries have
        nothing to retransmit (the payload is released) and would only
        escalate the retry budget toward a spurious LINK_DEAD.
        """
        if self.link_dead or self._down:
            return []
        repairs = []
        done = self.all_acknowledged
        if self._timer is not None:
            if not done and not self._timer.running:
                self._timer.restart()
                repairs.append("re-armed retransmission timer")
            elif done and self._timer.running:
                self._timer.stop()
                repairs.append(
                    "disarmed retransmission timer (nothing outstanding)"
                )
        if self._timers is not None:
            wanted = set() if done else set(self._timer_seqs())
            for seq in sorted(wanted):
                if not self._timers.running(seq):
                    self._timers.start(seq)
                    repairs.append(f"re-armed timer for seq {seq}")
            for seq in sorted(self._timers.active_keys()):
                if seq not in wanted:
                    self._timers.stop(seq)
                    repairs.append(f"disarmed stale timer for seq {seq}")
        return repairs

    def _timer_seqs(self) -> Iterable[int]:
        """Sequence numbers that should hold a live per-seq timer."""
        return self.window.outstanding()

    # ------------------------------------------------------------------
    # timeout handlers (wired by _build_timers; override per style)
    # ------------------------------------------------------------------

    def _on_single_timeout(self) -> None:  # pragma: no cover - abstract-ish
        raise NotImplementedError

    def _on_seq_timeout(self, seq: int) -> None:  # pragma: no cover
        raise NotImplementedError


class WindowedReceiver(ReceiverEndpoint):
    """Common machinery for every windowed protocol receiver.

    Subclasses own a :class:`~repro.core.window.ReceiverWindow` (or the
    bounded book equivalent) as ``self.window`` and call the helpers
    here from their :meth:`on_message`.
    """

    def __init__(self) -> None:
        super().__init__()
        self.flow_id: Optional[int] = None  # set by the multi-flow host

    def _note_arrival(self, seq: int) -> None:
        """Stats + trace for one arriving data message."""
        self.stats.data_received += 1
        self.trace.record(self.actor_name, _RECV_DATA, seq)

    def _classify(self, outcome: Any, seq: int, expected: int) -> None:
        """Bump the duplicate / redundant / out-of-order counters."""
        if outcome.duplicate:
            self.stats.duplicates += 1
        elif outcome.redundant:
            self.stats.redundant += 1
        elif seq != expected:
            self.stats.out_of_order += 1

    def _note_buffered(self, buffered_count: int) -> None:
        """Track the reorder-buffer high-water mark."""
        stats = self.stats
        if buffered_count > stats.max_buffered:
            stats.max_buffered = buffered_count

    def _deliver_block(self, lo: int, payloads: Iterable[Any]) -> None:
        """Release one in-order block to the application, tracing each."""
        record = self.trace.record
        actor = self.actor_name
        deliver = self._deliver
        for seq, payload in enumerate(payloads, lo):
            record(actor, _DELIVER, seq)
            deliver(seq, payload)

    def _drain_ready(self) -> None:
        """Deliver every completed in-order block (paper actions 4+5)."""
        while self.window.ack_ready:
            lo, _hi, payloads = self.window.take_block()
            self._deliver_block(lo, payloads)

    # ------------------------------------------------------------------
    # self-stabilization (guard/repair hooks, Dolev et al.)
    # ------------------------------------------------------------------

    def stabilize(self) -> list:
        """Run every local guard/repair rule; return what was repaired.

        Same contract as :meth:`WindowedSender.stabilize`: pure reads
        and an empty result on consistent state, so clean runs never
        notice the guards.  The post-repair kick runs only when a state
        repair actually happened — a receiver with consistent state and
        a legitimately pending block (e.g. a delayed-ack flush already
        scheduled) must not be perturbed.
        """
        repairs = self._repair_state()
        if repairs:
            repairs += self._rearm_after_repair()
        if repairs:
            self.trace.record(
                self.actor_name,
                EventKind.NOTE,
                detail="stabilize: " + "; ".join(repairs),
            )
        return repairs

    def _repair_state(self) -> list:
        """Repair the receiver window state."""
        return self.window.repair()

    def _rearm_after_repair(self) -> list:
        """Protocol-specific post-repair kick; default has none."""
        return []
